"""Snapshots: named bundles of configuration files.

Mirrors Batfish's notion of a snapshot — a directory of config files
that is parsed as a unit.  The Composer of COSYNTH (§2, Figure 3) "puts
back the pieces ... in a folder for Batfish"; that folder is a
:class:`Snapshot` here.  Vendor detection is textual: Junos configs are
brace-structured, IOS configs are line-oriented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from ..cisco import parse_cisco
from ..juniper import parse_juniper
from ..netmodel.device import RouterConfig, Vendor
from ..netmodel.diagnostics import ParseWarning

__all__ = ["Snapshot", "detect_vendor"]


def detect_vendor(text: str) -> Vendor:
    """Guess the config dialect from its shape.

    Junos statements end in ``;`` and open ``{`` blocks; IOS has neither.
    """
    brace_score = text.count("{") + text.count(";")
    cisco_markers = sum(
        text.count(marker)
        for marker in ("router bgp", "route-map", "ip prefix-list", "interface ")
    )
    if brace_score > cisco_markers:
        return Vendor.JUNIPER
    return Vendor.CISCO


@dataclass
class Snapshot:
    """A parsed set of configurations (shared and read-only), by file name."""

    name: str = "snapshot"
    texts: Dict[str, str] = field(default_factory=dict)
    configs: Dict[str, RouterConfig] = field(default_factory=dict)
    warnings: Dict[str, List[ParseWarning]] = field(default_factory=dict)

    @classmethod
    def from_texts(cls, texts: Dict[str, str], name: str = "snapshot") -> "Snapshot":
        """Parse a mapping of ``filename -> config text``."""
        snapshot = cls(name=name)
        for filename, text in texts.items():
            snapshot.add_file(filename, text)
        return snapshot

    def add_file(self, filename: str, text: str) -> RouterConfig:
        """Parse and add (or replace) one config file."""
        self.texts[filename] = text
        parse = parse_juniper if detect_vendor(text) is Vendor.JUNIPER else parse_cisco
        result = parse(text, filename=filename, default_hostname=Path(filename).stem)
        config = result.config
        self.configs[filename] = config
        self.warnings[filename] = list(result.warnings)
        return config
