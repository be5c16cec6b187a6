"""Cisco IOS configuration parser (text → vendor-neutral IR).

The parser is deliberately forgiving: like Batfish, it never raises on
bad input.  Unrecognized or misplaced lines become
:class:`~repro.netmodel.diagnostics.ParseWarning` records, which the
syntax-verifier leg of COSYNTH turns into correction prompts.

Context tracking is keyword-driven rather than purely indentation-driven
because LLM-generated configs frequently mis-indent; a ``neighbor``
command appearing outside a ``router bgp`` block is precisely the
"misplaced neighbor command" failure of §4.2, and must be *detected*
(with an intentionally generic message — the paper notes Batfish's
output for this case "is not informative enough" for GPT-4 to self-fix).
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..netmodel.acl import AccessList, AclEntry
from ..netmodel.aspath import AsPathAccessList
from ..netmodel.bgp import BgpNeighbor, Redistribution
from ..netmodel.communities import Community, CommunityError, CommunityList, CommunityListEntry
from ..netmodel.device import RouterConfig, Vendor
from ..netmodel.diagnostics import Diagnostics, ParseResult, ParseWarning
from ..netmodel.interfaces import Interface
from ..netmodel.ip import AddressError, Ipv4Address, Prefix, PrefixRange
from ..netmodel.prefixlist import PrefixList
from ..netmodel.route import Protocol
from ..netmodel.routing_policy import (
    Action,
    MatchAcl,
    MatchAsPathList,
    MatchCommunityInline,
    MatchCommunityList,
    MatchPrefixList,
    RouteMap,
    RouteMapClause,
    SetAsPathPrepend,
    SetCommunity,
    SetLocalPref,
    SetMed,
    SetNextHop,
)
from ..obs import counter
from ..symbolic.memo import MemoCache, memoization_enabled
from .lexer import ConfigLine, tokenize

__all__ = ["parse_cisco"]

# Interactive CLI keywords GPT-4 tends to emit inside .cfg files (§4.2,
# "Wrong keywords"); each is flagged with a dedicated warning.
FORBIDDEN_KEYWORDS = (
    "exit",
    "end",
    "write",
    "wr",
    "enable",
    "conf",
    "configure",
)

_BLOCK_CHILD_KEYWORDS = frozenset(
    ["neighbor", "network", "match", "set", "redistribute", "passive-interface"]
)


# The keyword sequences ``_CiscoParser._dispatch`` handles at top level.
# Each one sets or clears the parser's block context, so the lines from
# one of them to the next (a *stanza*) parse the same whatever precedes
# them.
_TOP_LEVEL = tuple((keyword,) for keyword in FORBIDDEN_KEYWORDS) + (
    ("hostname",),
    ("interface",),
    ("router", "bgp"),
    ("router", "ospf"),
    ("route-map",),
    ("ip", "prefix-list"),
    ("ip", "community-list"),
    ("ip", "as-path", "access-list"),
    ("access-list",),
    ("ip", "access-list", "standard"),
    ("ip", "routing"),
    ("no", "ip"),
)

# The start of every line that opens a stanza.  ASCII matching can only
# miss a top-level line (one that uses a no-break space, say), and a
# missed line stays in the stanza before it, which parses it just as the
# whole text would.
_STANZA_START = re.compile(
    r"^[ \t]*(?:%s)(?!\S)"
    % "|".join(r"[ \t]+".join(map(re.escape, words)) for words in _TOP_LEVEL),
    re.ASCII | re.IGNORECASE | re.MULTILINE,
)

# Line breaks that ``str.splitlines`` (and so the lexer) honours besides
# ``\n``; a text holding one is parsed whole.
_OTHER_LINE_BREAKS = re.compile("[\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")

# Named policy structures a text may build up across stanzas: the
# config attribute, the attribute holding the structure's entries, and
# whether entries are kept sorted by ``seq``.
_MERGED = (
    ("route_maps", "clauses", True),
    ("prefix_lists", "entries", True),
    ("community_lists", "entries", False),
    ("as_path_lists", "entries", False),
    ("access_lists", "entries", False),
)

# One parsed stanza: its config fragment, its warnings (no filename,
# lines counted from the stanza's first line) and the prefix lists it
# numbered itself (an entry without ``seq``).
_Fragment = Tuple[RouterConfig, Tuple[ParseWarning, ...], FrozenSet[str]]

# Stanza text -> fragment.  Drafts of one network share most stanzas
# (a faulted draft differs from its pristine in one or two), so a
# campaign pass parses each distinct stanza once.
_STANZA_MEMO = MemoCache("cisco-stanza", max_entries=4096)

_FALLBACKS = counter("cisco.parse.fallback")


def _parse_text(text: str, filename: str) -> ParseResult:
    """Parse a text stanza by stanza through the stanza memo, or whole
    when memoization is off or assembly would have to merge state."""
    if not memoization_enabled():
        return _CiscoParser(filename).parse(text)
    if _OTHER_LINE_BREAKS.search(text) is None:
        result = _assemble(_fragments(text), filename)
        if result is not None:
            return result
    _FALLBACKS.inc()
    return _CiscoParser(filename).parse(text)


def _fragments(text: str) -> List[Tuple[int, _Fragment]]:
    """``(lines before the stanza, fragment)`` per stanza, in text order."""
    starts = [match.start() for match in _STANZA_START.finditer(text)]
    if not starts or starts[0] > 0:
        starts.insert(0, 0)  # lines before the first stanza
    fragments = []
    offset = 0
    for index, start in enumerate(starts):
        if index:
            offset += text.count("\n", starts[index - 1], start)
        end = starts[index + 1] if index + 1 < len(starts) else len(text)
        stanza = text[start:end]
        hit, fragment = _STANZA_MEMO.lookup(stanza)
        if not hit:
            parser = _CiscoParser("")
            parser.parse(stanza)
            fragment = (
                parser.config,
                tuple(parser.diagnostics.warnings),
                frozenset(parser.unsequenced),
            )
            _STANZA_MEMO.store(stanza, fragment)
        fragments.append((offset, fragment))
    return fragments


def _assemble(
    fragments: List[Tuple[int, _Fragment]], filename: str
) -> Optional[ParseResult]:
    """One text's result from its stanza fragments, or ``None`` where
    the whole-text parse would carry one stanza's state into another's
    (the cases :func:`parse_cisco` lists).  Fragments are shared, never
    edited: a structure built by several stanzas is a new object."""
    config = RouterConfig(hostname="", vendor=Vendor.CISCO)
    diagnostics = Diagnostics(filename=filename)
    parts: Dict[str, Dict[str, list]] = {kind: {} for kind, _, _ in _MERGED}
    for offset, (fragment, warnings, unsequenced) in fragments:
        if fragment.hostname:
            config.hostname = fragment.hostname
        if not config.interfaces.keys().isdisjoint(fragment.interfaces):
            return None
        config.interfaces.update(fragment.interfaces)
        if fragment.bgp is not None:
            if config.bgp is not None:
                return None
            config.bgp = fragment.bgp
        if fragment.ospf is not None:
            if config.ospf is not None:
                return None
            config.ospf = fragment.ospf
        if not parts["prefix_lists"].keys().isdisjoint(unsequenced):
            return None
        for kind, _, _ in _MERGED:
            for name, structure in getattr(fragment, kind).items():
                parts[kind].setdefault(name, []).append(structure)
        diagnostics.warnings.extend(
            replace(warning, filename=filename, line=offset + warning.line)
            for warning in warnings
        )
    for kind, attribute, sequenced in _MERGED:
        merged = getattr(config, kind)
        for name, structures in parts[kind].items():
            if len(structures) == 1:
                merged[name] = structures[0]
                continue
            entries = [
                entry
                for structure in structures
                for entry in getattr(structure, attribute)
            ]
            if sequenced:
                if kind == "route_maps" and len(
                    {clause.seq for clause in entries}
                ) < len(entries):
                    return None
                entries.sort(key=lambda entry: entry.seq)
            merged[name] = type(structures[0])(name, entries)
    return ParseResult(config, diagnostics)


# (text, filename, default_hostname) -> the shared, read-only result.
# 128 entries hold the drafts of a few recent scenarios.
_PARSE_MEMO = MemoCache("cisco-parse", max_entries=128)


def parse_cisco(
    text: str, filename: str = "<cisco>", default_hostname: str = ""
) -> ParseResult:
    """Parse IOS config text into a :class:`RouterConfig`.

    ``default_hostname`` names the router when the text has no
    ``hostname`` line.  Results are memoized on all three arguments and
    shared: a repeat call returns the same object, so callers must treat
    it as read-only and edit an :func:`~repro.netmodel.value.ir_copy`
    of it.

    Behind that whole-text memo sits a stanza memo.  A text is split at
    every line whose keyword the parser handles at top level (each one
    sets or clears its block context; indentation plays no part, so a
    misplaced ``neighbor`` stays in its stanza).  Each distinct stanza
    is parsed once, whatever file it is in, with line numbers counted
    from the stanza, and the result is assembled in text order: route-map
    clauses and list entries merge by name, and each warning gets the
    filename and its line in the text.  A fresh result shares the
    stanzas' fragments, which is why results are read-only.  Where the
    whole-text parse would carry state from one stanza into another --
    a repeated ``interface``, ``router bgp`` or ``router ospf``, a
    route-map ``(name, seq)`` given twice, a prefix-list line without
    ``seq`` after an earlier entry of its list -- or the text has a line
    break other than ``\\n``, the text is parsed whole and the
    ``cisco.parse.fallback`` counter counts it.  With memoization off
    every text is parsed whole.
    """
    key = (text, filename, default_hostname)
    hit, result = _PARSE_MEMO.lookup(key)
    if not hit:
        result = _parse_text(text, filename)
        if not result.config.hostname:
            result.config.hostname = default_hostname
        _PARSE_MEMO.store(key, result)
    return result


class _CiscoParser:
    """Stateful single-pass parser over tokenized lines."""

    def __init__(self, filename: str) -> None:
        self.diagnostics = Diagnostics(filename=filename)
        self.config = RouterConfig(hostname="", vendor=Vendor.CISCO)
        self._context: Optional[str] = None
        self._current_interface: Optional[Interface] = None
        self._current_clause: Optional[RouteMapClause] = None
        self._current_map: Optional[RouteMap] = None
        self._current_acl: Optional[AccessList] = None
        # Prefix lists given an entry without ``seq``, numbered from the
        # entries parsed so far.
        self.unsequenced: Set[str] = set()

    # -- top level ----------------------------------------------------------

    def parse(self, text: str) -> ParseResult:
        for line in tokenize(text):
            self._dispatch(line)
        return ParseResult(self.config, self.diagnostics)

    def _dispatch(self, line: ConfigLine) -> None:
        keyword = line.keyword
        if keyword in FORBIDDEN_KEYWORDS:
            self._context = None
            self.diagnostics.warn(
                line.number,
                line.text,
                "Interactive CLI command is not valid in a configuration file",
            )
            return
        if keyword == "hostname":
            self._context = None
            if len(line.tokens) >= 2:
                self.config.hostname = line.tokens[1]
            else:
                self.diagnostics.warn(line.number, line.text, "hostname requires a name")
            return
        if keyword == "interface":
            self._enter_interface(line)
            return
        if line.starts_with("router", "bgp"):
            self._enter_bgp(line)
            return
        if line.starts_with("router", "ospf"):
            self._enter_ospf(line)
            return
        if keyword == "route-map":
            self._enter_route_map(line)
            return
        if line.starts_with("ip", "prefix-list"):
            self._context = None
            self._parse_prefix_list(line)
            return
        if line.starts_with("ip", "community-list"):
            self._context = None
            self._parse_community_list(line)
            return
        if line.starts_with("ip", "as-path", "access-list"):
            self._context = None
            self._parse_as_path_list(line)
            return
        if keyword == "access-list":
            self._context = None
            self._parse_numbered_acl(line)
            return
        if line.starts_with("ip", "access-list", "standard"):
            self._enter_named_acl(line)
            return
        if line.starts_with("ip", "routing") or line.starts_with("no", "ip"):
            self._context = None
            self.diagnostics.warn(
                line.number, line.text, "Statement is unnecessary in this context"
            )
            return
        # Child lines dispatched to the active block context.
        if self._context == "interface":
            self._parse_interface_child(line)
            return
        if self._context == "bgp":
            self._parse_bgp_child(line)
            return
        if self._context == "ospf":
            self._parse_ospf_child(line)
            return
        if self._context == "route-map":
            self._parse_route_map_child(line)
            return
        if self._context == "acl" and line.keyword in ("permit", "deny"):
            self._parse_acl_entry_line(line)
            return
        if keyword in _BLOCK_CHILD_KEYWORDS:
            # The §4.2 "misplaced neighbor command" case: a block child
            # with no enclosing block.  Mirror Batfish's unhelpful output.
            self.diagnostics.warn(
                line.number, line.text, "This syntax is unrecognized at this location"
            )
            return
        self.diagnostics.warn(line.number, line.text, "This syntax is unrecognized")

    # -- interface ----------------------------------------------------------

    def _enter_interface(self, line: ConfigLine) -> None:
        if len(line.tokens) < 2:
            self.diagnostics.warn(line.number, line.text, "interface requires a name")
            self._context = None
            return
        name = line.tokens[1]
        interface = self.config.get_interface(name) or Interface(name=name)
        self.config.add_interface(interface)
        self._current_interface = interface
        self._context = "interface"

    def _parse_interface_child(self, line: ConfigLine) -> None:
        interface = self._current_interface
        assert interface is not None
        if line.starts_with("ip", "address") and len(line.tokens) >= 4:
            try:
                prefix = Prefix.from_address_mask(line.tokens[2], line.tokens[3])
                interface.address = Ipv4Address.parse(line.tokens[2])
                interface.prefix = prefix
            except AddressError as exc:
                self.diagnostics.warn(line.number, line.text, str(exc))
            return
        if line.starts_with("ip", "ospf", "cost") and len(line.tokens) >= 4:
            interface.ospf_cost = _parse_int(self, line, line.tokens[3])
            return
        if line.keyword == "description":
            interface.description = " ".join(line.tokens[1:])
            return
        if line.starts_with("shutdown"):
            interface.shutdown = True
            return
        if line.starts_with("no", "shutdown"):
            interface.shutdown = False
            return
        self.diagnostics.warn(
            line.number, line.text, "This interface statement is unrecognized"
        )

    # -- BGP ------------------------------------------------------------------

    def _enter_bgp(self, line: ConfigLine) -> None:
        if len(line.tokens) < 3:
            self.diagnostics.warn(line.number, line.text, "router bgp requires an AS number")
            self._context = None
            return
        asn = _parse_int(self, line, line.tokens[2])
        if asn is None:
            self._context = None
            return
        self.config.ensure_bgp(asn)
        self._context = "bgp"

    def _parse_bgp_child(self, line: ConfigLine) -> None:
        bgp = self.config.bgp
        assert bgp is not None
        if line.starts_with("bgp", "router-id") and len(line.tokens) >= 3:
            try:
                bgp.router_id = Ipv4Address.parse(line.tokens[2])
            except AddressError as exc:
                self.diagnostics.warn(line.number, line.text, str(exc))
            return
        if line.keyword == "neighbor":
            self._parse_neighbor(line, bgp)
            return
        if line.keyword == "network":
            self._parse_bgp_network(line, bgp)
            return
        if line.keyword == "redistribute":
            self._parse_redistribute(line, bgp)
            return
        if line.starts_with("no", "synchronization") or line.starts_with(
            "no", "auto-summary"
        ):
            return
        self.diagnostics.warn(line.number, line.text, "This BGP statement is unrecognized")

    def _parse_neighbor(self, line: ConfigLine, bgp) -> None:
        if len(line.tokens) < 3:
            self.diagnostics.warn(line.number, line.text, "neighbor statement is incomplete")
            return
        try:
            ip = Ipv4Address.parse(line.tokens[1])
        except AddressError as exc:
            self.diagnostics.warn(line.number, line.text, str(exc))
            return
        rest = line.folded[2:]
        neighbor = bgp.get_neighbor(ip)
        if rest[0] == "remote-as" and len(line.tokens) >= 4:
            remote_as = _parse_int(self, line, line.tokens[3])
            if remote_as is None:
                return
            if neighbor is None:
                bgp.add_neighbor(BgpNeighbor(ip=ip, remote_as=remote_as))
            else:
                neighbor.remote_as = remote_as
            return
        if neighbor is None:
            # IOS requires remote-as before other neighbor statements.
            self.diagnostics.warn(
                line.number,
                line.text,
                f"Neighbor {ip} has no remote-as declared before this statement",
            )
            neighbor = bgp.add_neighbor(BgpNeighbor(ip=ip, remote_as=0))
        if rest[0] == "route-map" and len(line.tokens) >= 5:
            direction = line.folded[4]
            name = line.tokens[3]
            if direction == "in":
                neighbor.import_policy = name
            elif direction == "out":
                neighbor.export_policy = name
            else:
                self.diagnostics.warn(
                    line.number, line.text, "route-map direction must be 'in' or 'out'"
                )
            return
        if rest[0] == "description":
            neighbor.description = " ".join(line.tokens[3:])
            return
        if rest[0] == "send-community":
            neighbor.send_community = True
            return
        if rest[0] == "next-hop-self":
            neighbor.next_hop_self = True
            return
        if rest[0] == "local-as" and len(line.tokens) >= 4:
            neighbor.local_as = _parse_int(self, line, line.tokens[3])
            return
        self.diagnostics.warn(
            line.number, line.text, "This neighbor statement is unrecognized"
        )

    def _parse_bgp_network(self, line: ConfigLine, bgp) -> None:
        try:
            if len(line.tokens) >= 4 and line.folded[2] == "mask":
                prefix = Prefix.from_address_mask(line.tokens[1], line.tokens[3])
            elif "/" in line.tokens[1]:
                prefix = Prefix.parse(line.tokens[1])
            else:
                # Classful shorthand: infer /24 the way the experiments use it.
                prefix = Prefix.parse(f"{line.tokens[1]}/24")
        except (AddressError, IndexError) as exc:
            self.diagnostics.warn(line.number, line.text, f"invalid network: {exc}")
            return
        bgp.announce(prefix)

    def _parse_redistribute(self, line: ConfigLine, bgp) -> None:
        protocol_name = line.folded[1] if len(line.tokens) > 1 else ""
        try:
            protocol = Protocol(protocol_name)
        except ValueError:
            self.diagnostics.warn(
                line.number, line.text, f"unknown redistribution protocol {protocol_name!r}"
            )
            return
        route_map = None
        tokens = line.folded
        if "route-map" in tokens:
            position = tokens.index("route-map")
            if position + 1 < len(line.tokens):
                route_map = line.tokens[position + 1]
        bgp.redistributions.append(Redistribution(protocol=protocol, route_map=route_map))

    # -- OSPF -----------------------------------------------------------------

    def _enter_ospf(self, line: ConfigLine) -> None:
        process_id = 1
        if len(line.tokens) >= 3:
            parsed = _parse_int(self, line, line.tokens[2])
            if parsed is not None:
                process_id = parsed
        self.config.ensure_ospf(process_id)
        self._context = "ospf"

    def _parse_ospf_child(self, line: ConfigLine) -> None:
        ospf = self.config.ospf
        assert ospf is not None
        if line.keyword == "router-id" and len(line.tokens) >= 2:
            try:
                ospf.router_id = Ipv4Address.parse(line.tokens[1])
            except AddressError as exc:
                self.diagnostics.warn(line.number, line.text, str(exc))
            return
        if line.keyword == "network" and len(line.tokens) >= 5:
            try:
                wildcard = Ipv4Address.parse(line.tokens[2]).value
                mask = ~wildcard & 0xFFFFFFFF
                length = bin(mask).count("1")
                prefix = Prefix(Ipv4Address.parse(line.tokens[1]).value & mask, length)
                area = int(line.tokens[4])
            except (AddressError, ValueError) as exc:
                self.diagnostics.warn(line.number, line.text, f"invalid network: {exc}")
                return
            ospf.add_network(prefix, area)
            return
        if line.starts_with("passive-interface") and len(line.tokens) >= 2:
            ospf.set_passive(line.tokens[1])
            return
        self.diagnostics.warn(line.number, line.text, "This OSPF statement is unrecognized")

    # -- route maps -------------------------------------------------------------

    def _enter_route_map(self, line: ConfigLine) -> None:
        if len(line.tokens) < 3:
            self.diagnostics.warn(line.number, line.text, "route-map header is incomplete")
            self._context = None
            return
        name = line.tokens[1]
        action_token = line.folded[2]
        if action_token not in ("permit", "deny"):
            self.diagnostics.warn(
                line.number, line.text, f"invalid route-map action {line.tokens[2]!r}"
            )
            self._context = None
            return
        seq = 10
        if len(line.tokens) >= 4:
            parsed = _parse_int(self, line, line.tokens[3])
            if parsed is not None:
                seq = parsed
        route_map = self.config.get_route_map(name) or RouteMap(name)
        self.config.add_route_map(route_map)
        clause = route_map.get_clause(seq)
        if clause is None:
            clause = RouteMapClause(seq=seq, action=Action(action_token))
            route_map.add_clause(clause)
        else:
            clause.action = Action(action_token)
        self._current_map = route_map
        self._current_clause = clause
        self._context = "route-map"

    def _parse_route_map_child(self, line: ConfigLine) -> None:
        clause = self._current_clause
        assert clause is not None
        if line.keyword == "match":
            self._parse_match(line, clause)
            return
        if line.keyword == "set":
            self._parse_set(line, clause)
            return
        self.diagnostics.warn(
            line.number, line.text, "This route-map statement is unrecognized"
        )

    def _parse_match(self, line: ConfigLine, clause: RouteMapClause) -> None:
        if line.starts_with("match", "ip", "address", "prefix-list") and len(line.tokens) >= 5:
            clause.matches.append(MatchPrefixList(line.tokens[4]))
            return
        if line.starts_with("match", "ip", "address") and len(line.tokens) >= 4:
            # Without the prefix-list keyword, the argument names an ACL.
            for name in line.tokens[3:]:
                clause.matches.append(MatchAcl(name))
            return
        if line.starts_with("match", "community") and len(line.tokens) >= 3:
            argument = line.tokens[2]
            if ":" in argument:
                # Inline community value: the invalid form GPT-4 favours
                # (§4.2 "Match Community" IIP).  Record it, and warn.
                try:
                    community = Community.parse(argument)
                except CommunityError as exc:
                    self.diagnostics.warn(line.number, line.text, str(exc))
                    return
                clause.matches.append(MatchCommunityInline(community))
                self.diagnostics.warn(
                    line.number,
                    line.text,
                    "match community expects a community-list name or number, "
                    "not a literal community value",
                )
                return
            for name in line.tokens[2:]:
                clause.matches.append(MatchCommunityList(name))
            return
        if line.starts_with("match", "as-path") and len(line.tokens) >= 3:
            clause.matches.append(MatchAsPathList(line.tokens[2]))
            return
        self.diagnostics.warn(
            line.number, line.text, f"unsupported match condition: {' '.join(line.folded[1:])}"
        )

    def _parse_set(self, line: ConfigLine, clause: RouteMapClause) -> None:
        if line.starts_with("set", "community") and len(line.tokens) >= 3:
            additive = line.folded[-1] == "additive"
            value_tokens = line.tokens[2 : len(line.tokens) - (1 if additive else 0)]
            communities = []
            for token in value_tokens:
                try:
                    communities.append(Community.parse(token))
                except CommunityError as exc:
                    self.diagnostics.warn(line.number, line.text, str(exc))
                    return
            clause.sets.append(SetCommunity(tuple(communities), additive=additive))
            return
        if line.starts_with("set", "metric") and len(line.tokens) >= 3:
            med = _parse_int(self, line, line.tokens[2])
            if med is not None:
                clause.sets.append(SetMed(med))
            return
        if line.starts_with("set", "local-preference") and len(line.tokens) >= 3:
            local_pref = _parse_int(self, line, line.tokens[2])
            if local_pref is not None:
                clause.sets.append(SetLocalPref(local_pref))
            return
        if line.starts_with("set", "ip", "next-hop") and len(line.tokens) >= 4:
            try:
                clause.sets.append(SetNextHop(Ipv4Address.parse(line.tokens[3])))
            except AddressError as exc:
                self.diagnostics.warn(line.number, line.text, str(exc))
            return
        if line.starts_with("set", "as-path", "prepend") and len(line.tokens) >= 4:
            asns = [int(token) for token in line.tokens[3:] if token.isdigit()]
            if asns:
                clause.sets.append(SetAsPathPrepend(asns[0], len(asns)))
            return
        self.diagnostics.warn(
            line.number, line.text, f"unsupported set action: {line.text}"
        )

    # -- named lists ----------------------------------------------------------

    def _parse_prefix_list(self, line: ConfigLine) -> None:
        # ip prefix-list NAME [seq N] permit|deny P [ge N] [le N]
        tokens = list(line.tokens[2:])
        if not tokens:
            self.diagnostics.warn(line.number, line.text, "prefix-list is incomplete")
            return
        name = tokens.pop(0)
        seq: Optional[int] = None
        if len(tokens) >= 2 and tokens[0].lower() == "seq":
            seq_value = _parse_int(self, line, tokens[1])
            if seq_value is None:
                return
            seq = seq_value
            tokens = tokens[2:]
        if not tokens or tokens[0].lower() not in ("permit", "deny"):
            self.diagnostics.warn(
                line.number, line.text, "prefix-list entry requires permit or deny"
            )
            return
        action = tokens.pop(0).lower()
        if not tokens:
            self.diagnostics.warn(line.number, line.text, "prefix-list entry missing prefix")
            return
        prefix_token = tokens.pop(0)
        try:
            prefix = Prefix.parse(prefix_token)
        except AddressError as exc:
            self.diagnostics.warn(line.number, line.text, str(exc))
            return
        ge_value: Optional[int] = None
        le_value: Optional[int] = None
        while tokens:
            modifier = tokens.pop(0).lower()
            if modifier == "ge" and tokens:
                ge_value = _parse_int(self, line, tokens.pop(0))
                if ge_value is None:
                    return
            elif modifier == "le" and tokens:
                le_value = _parse_int(self, line, tokens.pop(0))
                if le_value is None:
                    return
            else:
                self.diagnostics.warn(
                    line.number, line.text, f"unexpected prefix-list modifier {modifier!r}"
                )
                return
        # Cisco semantics: exact match by default; ``ge N`` widens to
        # N..32 (or N..le); ``le M`` alone widens to length..M.
        if ge_value is None and le_value is None:
            low, high = prefix.length, prefix.length
        elif ge_value is not None and le_value is None:
            low, high = ge_value, 32
        elif ge_value is None and le_value is not None:
            low, high = prefix.length, le_value
        else:
            low, high = ge_value, le_value  # type: ignore[assignment]
        try:
            prefix_range = PrefixRange(prefix, low, high)
        except AddressError as exc:
            self.diagnostics.warn(line.number, line.text, str(exc))
            return
        prefix_list = self.config.prefix_lists.get(name) or PrefixList(name)
        self.config.add_prefix_list(prefix_list)
        prefix_list.add(action, prefix_range, seq=seq)
        if seq is None:
            self.unsequenced.add(name)

    def _parse_community_list(self, line: ConfigLine) -> None:
        # ip community-list [standard|expanded] NAME permit|deny VALUE...
        tokens = list(line.tokens[2:])
        if tokens and tokens[0].lower() in ("standard", "expanded"):
            kind = tokens.pop(0).lower()
        else:
            kind = "standard"
        if len(tokens) < 3:
            self.diagnostics.warn(line.number, line.text, "community-list is incomplete")
            return
        name = tokens.pop(0)
        action = tokens.pop(0).lower()
        if action not in ("permit", "deny"):
            self.diagnostics.warn(
                line.number, line.text, "community-list entry requires permit or deny"
            )
            return
        community_list = self.config.community_lists.get(name) or CommunityList(name)
        self.config.add_community_list(community_list)
        if kind == "expanded":
            community_list.add(CommunityListEntry(action=action, regex=" ".join(tokens)))
            return
        values = []
        for token in tokens:
            try:
                values.append(Community.parse(token))
            except CommunityError:
                self.diagnostics.warn(
                    line.number,
                    line.text,
                    f"'{line.text}' is wrong syntax: {token!r} is not a valid "
                    "community value for a standard community-list",
                )
                return
        community_list.add(CommunityListEntry(action=action, communities=tuple(values)))

    def _parse_numbered_acl(self, line: ConfigLine) -> None:
        # access-list N permit|deny (any | host A | A W)
        if len(line.tokens) < 3:
            self.diagnostics.warn(line.number, line.text, "access-list is incomplete")
            return
        name = line.tokens[1]
        access_list = self.config.access_lists.get(name) or AccessList(name)
        self.config.add_access_list(access_list)
        entry = self._acl_entry_from_tokens(line, list(line.tokens[2:]))
        if entry is not None:
            access_list.add(entry)

    def _enter_named_acl(self, line: ConfigLine) -> None:
        # ip access-list standard NAME  (entries follow as child lines)
        if len(line.tokens) < 4:
            self.diagnostics.warn(line.number, line.text, "access-list requires a name")
            self._context = None
            return
        name = line.tokens[3]
        access_list = self.config.access_lists.get(name) or AccessList(name)
        self.config.add_access_list(access_list)
        self._current_acl = access_list
        self._context = "acl"

    def _parse_acl_entry_line(self, line: ConfigLine) -> None:
        assert self._current_acl is not None
        entry = self._acl_entry_from_tokens(line, list(line.tokens))
        if entry is not None:
            self._current_acl.add(entry)

    def _acl_entry_from_tokens(self, line: ConfigLine, tokens) -> Optional[AclEntry]:
        action = tokens.pop(0).lower()
        if action not in ("permit", "deny"):
            self.diagnostics.warn(
                line.number, line.text, "access-list entry requires permit or deny"
            )
            return None
        if not tokens:
            self.diagnostics.warn(line.number, line.text, "access-list entry is incomplete")
            return None
        first = tokens.pop(0).lower()
        try:
            if first == "any":
                return AclEntry.any(action)
            if first == "host" and tokens:
                return AclEntry.from_strings(action, tokens.pop(0))
            wildcard = tokens.pop(0) if tokens else "0.0.0.0"
            return AclEntry.from_strings(action, first, wildcard)
        except AddressError as exc:
            self.diagnostics.warn(line.number, line.text, str(exc))
            return None

    def _parse_as_path_list(self, line: ConfigLine) -> None:
        # ip as-path access-list N permit|deny REGEX
        if len(line.tokens) < 6:
            self.diagnostics.warn(line.number, line.text, "as-path access-list is incomplete")
            return
        name = line.tokens[3]
        action = line.folded[4]
        if action not in ("permit", "deny"):
            self.diagnostics.warn(
                line.number, line.text, "as-path access-list requires permit or deny"
            )
            return
        regex = " ".join(line.tokens[5:])
        as_path_list = self.config.as_path_lists.get(name) or AsPathAccessList(name)
        self.config.add_as_path_list(as_path_list)
        as_path_list.add(action, regex)


def _parse_int(parser: _CiscoParser, line: ConfigLine, token: str) -> Optional[int]:
    """Parse an integer token, warning (not raising) on failure."""
    try:
        return int(token)
    except ValueError:
        parser.diagnostics.warn(
            line.number, line.text, f"expected a number, found {token!r}"
        )
        return None
