"""The Composer (§2, Figure 3).

"The Composer puts back the pieces (in our case in a folder for
Batfish)."  It collects the per-router config texts produced by the
per-router chats into a :class:`~repro.batfish.snapshot.Snapshot`.
"""

from __future__ import annotations

from typing import Dict

from ..batfish.snapshot import Snapshot

__all__ = ["Composer"]


class Composer:
    """Accumulates per-router configs into a Batfish-ready snapshot."""

    def __init__(self, name: str = "composed") -> None:
        self._name = name
        self._texts: Dict[str, str] = {}

    def put(self, router_name: str, config_text: str) -> None:
        """Add or replace one router's configuration."""
        self._texts[f"{router_name}.cfg"] = config_text

    def compose(self) -> Snapshot:
        """Parse the accumulated configs as one snapshot."""
        return Snapshot.from_texts(dict(self._texts), name=self._name)
