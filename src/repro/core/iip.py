"""Initial Instruction Prompts (IIPs).

§2: "We start each chat with a set of initial instruction prompts (IIP)
loaded from a database for avoiding common mistakes.  The IIP database
can be built and added by experts over time."  §4.2 documents the four
IIPs the synthesis experiment needed; they ship here as the default
database content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

__all__ = ["DEFAULT_IIP_IDS", "IIPDatabase", "InitialInstructionPrompt"]


@dataclass(frozen=True)
class InitialInstructionPrompt:
    """One reusable instruction added to the start of a chat."""

    iip_id: str
    title: str
    text: str


_BUILTIN_IIPS = (
    InitialInstructionPrompt(
        iip_id="generate-cfg-files",
        title="Generate .cfg files, not CLI sessions",
        text=(
            "Generate the contents of the router's .cfg configuration "
            "file directly. Do not produce commands to be entered on the "
            "Cisco command line interface."
        ),
    ),
    InitialInstructionPrompt(
        iip_id="no-cli-keywords",
        title="Avoid interactive keywords",
        text=(
            "Do not use the keywords 'exit', 'end', 'configure terminal', "
            "'ip routing', 'write', 'hostname' or 'conf t' anywhere in the "
            "configuration."
        ),
    ),
    InitialInstructionPrompt(
        iip_id="match-via-community-list",
        title="Match communities through a community list",
        text=(
            "To match against a community in a route-map, first declare a "
            "community list that contains the community (ip community-list "
            "1 permit 100:1) and then match using only that list (match "
            "community 1). Never match a literal community value directly."
        ),
    ),
    InitialInstructionPrompt(
        iip_id="additive-keyword",
        title="Add communities additively",
        text=(
            "When adding a community to a route, always use the 'additive' "
            "keyword (set community 100:1 additive); otherwise all "
            "communities already on the route are replaced."
        ),
    ),
)

DEFAULT_IIP_IDS = tuple(item.iip_id for item in _BUILTIN_IIPS)


class IIPDatabase:
    """The expert-curated store of initial instruction prompts."""

    def __init__(self) -> None:
        self._prompts: Dict[str, InitialInstructionPrompt] = {
            prompt.iip_id: prompt for prompt in _BUILTIN_IIPS
        }

    def compose_preamble(self, iip_ids: Iterable[str]) -> str:
        """The instruction block prepended to a chat's first prompt."""
        lines = []
        for iip_id in iip_ids:
            prompt = self._prompts.get(iip_id)
            if prompt is None:
                raise KeyError(f"unknown IIP {iip_id!r}")
            lines.append(f"- {prompt.text}")
        if not lines:
            return ""
        return "Follow these instructions:\n" + "\n".join(lines)
