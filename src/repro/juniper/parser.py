"""Junos configuration parser (text → vendor-neutral IR).

Covers the feature surface of the translation use case (§3): interfaces
with units and inet addresses, ``routing-options autonomous-system``,
BGP groups/neighbors with import/export policies, OSPF areas with
per-interface metric and passive flags, prefix lists, named communities,
and policy statements with ``route-filter`` length ranges.

Two diagnostics reproduce paper behaviours exactly:

* a prefix-list entry like ``1.2.3.0/24-32`` (GPT-4's invented syntax
  for Cisco's ``ge 24``) triggers Table 1's syntax-error warning;
* a BGP neighbor with no resolvable local AS (no ``local-as`` and no
  ``routing-options autonomous-system``) triggers the "Missing BGP
  local-as attribute" warning of Table 2.
"""

from __future__ import annotations

import re
from typing import List, Optional

from ..netmodel.aspath import AsPathAccessList
from ..netmodel.communities import Community, CommunityError, CommunityList, CommunityListEntry
from ..netmodel.device import RouterConfig, Vendor
from ..netmodel.diagnostics import Diagnostics, ParseResult
from ..netmodel.interfaces import Interface
from ..netmodel.ip import AddressError, Ipv4Address, Prefix, PrefixRange
from ..netmodel.bgp import BgpNeighbor
from ..netmodel.prefixlist import PrefixList
from ..netmodel.route import Protocol
from ..netmodel.routing_policy import (
    Action,
    MatchAsPathList,
    MatchCommunityList,
    MatchPrefixList,
    MatchPrefixRanges,
    MatchProtocol,
    RouteMap,
    RouteMapClause,
    SetCommunity,
    SetLocalPref,
    SetMed,
    SetNextHop,
)
from .lexer import LexError, Statement, lex_juniper

__all__ = ["parse_juniper"]

_LENGTH_RANGE_RE = re.compile(r"^/(\d+)-/(\d+)$")
_BAD_RANGE_RE = re.compile(r"^(\d+\.\d+\.\d+\.\d+)/(\d+)-(\d+)$")


def parse_juniper(
    text: str, filename: str = "<juniper>", default_hostname: str = ""
) -> ParseResult:
    """Parse Junos config text into a :class:`RouterConfig`.

    ``default_hostname`` names the router when the text has no
    ``host-name``.  Every call parses: the translation loop's
    ``draft-finding`` memo already answers a repeated draft.
    """
    result = _JuniperParser(filename).parse(text)
    if not result.config.hostname:
        result.config.hostname = default_hostname
    return result


class _JuniperParser:
    def __init__(self, filename: str) -> None:
        self.diagnostics = Diagnostics(filename=filename)
        self.config = RouterConfig(hostname="", vendor=Vendor.JUNIPER)
        self._default_as: Optional[int] = None

    def parse(self, text: str) -> ParseResult:
        try:
            statements = lex_juniper(text)
        except LexError as exc:
            self.diagnostics.warn(1, "<file>", f"fatal lexical error: {exc}")
            return ParseResult(self.config, self.diagnostics)
        for statement in statements:
            self._dispatch(statement)
        self._check_local_as()
        return ParseResult(self.config, self.diagnostics)

    def _dispatch(self, statement: Statement) -> None:
        keyword = statement.keyword
        if keyword == "system":
            host = statement.find("host-name")
            if host is not None and len(host.words) >= 2:
                self.config.hostname = host.words[1]
            return
        if keyword == "interfaces":
            for child in statement.children:
                self._parse_interface(child)
            return
        if keyword == "routing-options":
            self._parse_routing_options(statement)
            return
        if keyword == "protocols":
            for child in statement.children:
                if child.keyword == "bgp":
                    self._parse_bgp(child)
                elif child.keyword == "ospf":
                    self._parse_ospf(child)
                else:
                    self.diagnostics.warn(
                        child.line, child.text(), "unsupported protocol"
                    )
            return
        if keyword == "policy-options":
            for child in statement.children:
                self._parse_policy_option(child)
            return
        self.diagnostics.warn(
            statement.line, statement.text(), "This syntax is unrecognized"
        )

    # -- interfaces -----------------------------------------------------------

    def _parse_interface(self, statement: Statement) -> None:
        name = statement.keyword
        interface = self.config.get_interface(name) or Interface(name=name)
        self.config.add_interface(interface)
        description = statement.find("description")
        if description is not None and len(description.words) >= 2:
            interface.description = " ".join(description.words[1:])
        for unit in statement.find_all("unit"):
            if len(unit.words) >= 2 and unit.words[1].isdigit():
                interface.unit = int(unit.words[1])
            family = unit.find("family", "inet")
            if family is None:
                continue
            for address in family.find_all("address"):
                if len(address.words) < 2:
                    self.diagnostics.warn(
                        address.line, address.text(), "address requires a value"
                    )
                    continue
                try:
                    addr_part, _, len_part = address.words[1].partition("/")
                    interface.address = Ipv4Address.parse(addr_part)
                    interface.prefix = Prefix.parse(address.words[1])
                except AddressError as exc:
                    self.diagnostics.warn(address.line, address.text(), str(exc))

    # -- routing options --------------------------------------------------------

    def _parse_routing_options(self, statement: Statement) -> None:
        autonomous = statement.find("autonomous-system")
        if autonomous is not None and len(autonomous.words) >= 2:
            try:
                self._default_as = int(autonomous.words[1])
            except ValueError:
                self.diagnostics.warn(
                    autonomous.line, autonomous.text(), "invalid AS number"
                )
        router_id = statement.find("router-id")
        if router_id is not None and len(router_id.words) >= 2:
            try:
                bgp = self.config.ensure_bgp(self._default_as or 0)
                bgp.router_id = Ipv4Address.parse(router_id.words[1])
            except AddressError as exc:
                self.diagnostics.warn(router_id.line, router_id.text(), str(exc))

    # -- BGP ---------------------------------------------------------------------

    def _parse_bgp(self, statement: Statement) -> None:
        bgp = self.config.ensure_bgp(self._default_as or 0)
        if self._default_as is not None and bgp.asn == 0:
            bgp.asn = self._default_as
        for group in statement.find_all("group"):
            group_name = group.words[1] if len(group.words) >= 2 else "<group>"
            group_import = _single_word(group.find("import"))
            group_export = _single_word(group.find("export"))
            group_local_as = _single_int(group.find("local-as"))
            group_peer_as = _single_int(group.find("peer-as"))
            for neighbor in group.find_all("neighbor"):
                self._parse_neighbor(
                    neighbor,
                    bgp,
                    group_name,
                    group_import,
                    group_export,
                    group_local_as,
                    group_peer_as,
                )
        for neighbor in statement.find_all("neighbor"):
            self._parse_neighbor(neighbor, bgp, None, None, None, None, None)

    def _parse_neighbor(
        self,
        statement: Statement,
        bgp,
        group_name: Optional[str],
        group_import: Optional[str],
        group_export: Optional[str],
        group_local_as: Optional[int],
        group_peer_as: Optional[int],
    ) -> None:
        if len(statement.words) < 2:
            self.diagnostics.warn(
                statement.line, statement.text(), "neighbor requires an address"
            )
            return
        try:
            ip = Ipv4Address.parse(statement.words[1])
        except AddressError as exc:
            self.diagnostics.warn(statement.line, statement.text(), str(exc))
            return
        peer_as = _single_int(statement.find("peer-as"))
        if peer_as is None:
            peer_as = group_peer_as
        if peer_as is None:
            self.diagnostics.warn(
                statement.line,
                statement.text(),
                f"BGP neighbor {ip} has no peer-as",
            )
            peer_as = 0
        neighbor = BgpNeighbor(
            ip=ip,
            remote_as=peer_as,
            peer_group=group_name,
            import_policy=_single_word(statement.find("import")) or group_import,
            export_policy=_single_word(statement.find("export")) or group_export,
            local_as=_single_int(statement.find("local-as")) or group_local_as,
        )
        description = statement.find("description")
        if description is not None and len(description.words) >= 2:
            neighbor.description = " ".join(description.words[1:])
        bgp.add_neighbor(neighbor)
        self._neighbor_lines = getattr(self, "_neighbor_lines", {})
        self._neighbor_lines[str(ip)] = statement.line

    def _check_local_as(self) -> None:
        """Table 2 row 1: neighbors whose local AS cannot be resolved."""
        if self.config.bgp is None:
            return
        for neighbor in self.config.bgp.sorted_neighbors():
            resolved = neighbor.local_as or self._default_as
            if resolved is None:
                line = getattr(self, "_neighbor_lines", {}).get(str(neighbor.ip), 1)
                self.diagnostics.warn(
                    line,
                    f"neighbor {neighbor.ip}",
                    "BGP neighbor has no local AS: set routing-options "
                    "autonomous-system or a local-as statement",
                )
            elif neighbor.local_as is None:
                neighbor.local_as = resolved

    # -- OSPF ----------------------------------------------------------------------

    def _parse_ospf(self, statement: Statement) -> None:
        ospf = self.config.ensure_ospf()
        for area in statement.find_all("area"):
            area_id = _parse_area_id(area.words[1]) if len(area.words) >= 2 else 0
            for interface_stmt in area.find_all("interface"):
                if len(interface_stmt.words) < 2:
                    continue
                interface_name = interface_stmt.words[1]
                ospf.add_area_interface(area_id, interface_name)
                base_name = interface_name.split(".")[0]
                interface = self.config.get_interface(
                    interface_name
                ) or self.config.get_interface(base_name)
                metric = _single_int(interface_stmt.find("metric"))
                if interface is not None:
                    interface.ospf_area = area_id
                    if metric is not None:
                        interface.ospf_cost = metric
                if interface_stmt.find("passive") is not None:
                    ospf.set_passive(interface_name)
                    if interface is not None:
                        interface.ospf_passive = True

    # -- policy options ---------------------------------------------------------------

    def _parse_policy_option(self, statement: Statement) -> None:
        keyword = statement.keyword
        if keyword == "prefix-list":
            self._parse_prefix_list(statement)
            return
        if keyword == "policy-statement":
            self._parse_policy_statement(statement)
            return
        if keyword == "community":
            self._parse_named_community(statement)
            return
        if keyword == "as-path":
            self._parse_named_as_path(statement)
            return
        self.diagnostics.warn(
            statement.line, statement.text(), "unsupported policy-options statement"
        )

    def _parse_prefix_list(self, statement: Statement) -> None:
        if len(statement.words) < 2:
            self.diagnostics.warn(
                statement.line, statement.text(), "prefix-list requires a name"
            )
            return
        name = statement.words[1]
        prefix_list = self.config.prefix_lists.get(name) or PrefixList(name)
        self.config.add_prefix_list(prefix_list)
        for child in statement.children:
            entry_text = child.words[0]
            bad_range = _BAD_RANGE_RE.match(entry_text)
            if bad_range is not None:
                # GPT-4's invented ``1.2.3.0/24-32`` syntax (§3.2): Junos
                # prefix-lists cannot express length ranges at all.
                self.diagnostics.warn(
                    child.line,
                    f"policy-options prefix-list {name} {entry_text}",
                    "There is a syntax error",
                )
                continue
            try:
                prefix = Prefix.parse(entry_text)
            except AddressError as exc:
                self.diagnostics.warn(
                    child.line,
                    f"policy-options prefix-list {name} {entry_text}",
                    f"There is a syntax error: {exc}",
                )
                continue
            prefix_list.add("permit", PrefixRange.exact(prefix))

    def _parse_named_as_path(self, statement: Statement) -> None:
        # as-path NAME "regex"
        if len(statement.words) < 3:
            self.diagnostics.warn(
                statement.line, statement.text(), "as-path requires a name and a regex"
            )
            return
        name = statement.words[1]
        regex = " ".join(statement.words[2:])
        as_path_list = AsPathAccessList(name)
        as_path_list.add("permit", regex)
        self.config.add_as_path_list(as_path_list)

    def _parse_named_community(self, statement: Statement) -> None:
        # community NAME members [ 100:1 200:1 ] | community NAME members 100:1
        if len(statement.words) < 2:
            self.diagnostics.warn(
                statement.line, statement.text(), "community requires a name"
            )
            return
        name = statement.words[1]
        member_tokens: List[str] = []
        if "members" in statement.words:
            position = statement.words.index("members")
            member_tokens = [
                token
                for token in statement.words[position + 1 :]
                if token not in ("[", "]")
            ]
        values = []
        for token in member_tokens:
            try:
                values.append(Community.parse(token))
            except CommunityError as exc:
                self.diagnostics.warn(statement.line, statement.text(), str(exc))
                return
        if not values:
            self.diagnostics.warn(
                statement.line, statement.text(), "community has no members"
            )
            return
        community_list = CommunityList(name)
        community_list.add(
            CommunityListEntry(action="permit", communities=tuple(values))
        )
        self.config.add_community_list(community_list)

    def _parse_policy_statement(self, statement: Statement) -> None:
        if len(statement.words) < 2:
            self.diagnostics.warn(
                statement.line, statement.text(), "policy-statement requires a name"
            )
            return
        name = statement.words[1]
        route_map = RouteMap(name)
        self.config.add_route_map(route_map)
        seq = 0
        for term in statement.children:
            seq += 10
            if term.keyword == "term":
                term_name = term.words[1] if len(term.words) >= 2 else f"t{seq}"
                clause = self._parse_term(term, seq, term_name)
            elif term.keyword == "then":
                # Anonymous trailing ``then accept;`` at statement level.
                clause = RouteMapClause(seq=seq, action=Action.PERMIT)
                self._apply_then_words(term, clause)
            else:
                self.diagnostics.warn(
                    term.line, term.text(), "unexpected statement in policy"
                )
                continue
            route_map.add_clause(clause)

    def _parse_term(self, term: Statement, seq: int, term_name: str) -> RouteMapClause:
        clause = RouteMapClause(
            seq=seq, action=Action.PERMIT, term_name=term_name
        )
        from_block = term.find("from")
        if from_block is not None:
            ranges: List[PrefixRange] = []
            for condition in from_block.children:
                self._parse_from_condition(condition, clause, ranges)
            if ranges:
                clause.matches.append(MatchPrefixRanges(tuple(ranges)))
        then_block = term.find("then")
        if then_block is not None:
            self._apply_then_block(then_block, clause)
        return clause

    def _parse_from_condition(
        self,
        condition: Statement,
        clause: RouteMapClause,
        ranges: List[PrefixRange],
    ) -> None:
        words = condition.words
        if words[0] == "prefix-list" and len(words) >= 2:
            clause.matches.append(MatchPrefixList(words[1]))
            return
        if words[0] == "route-filter" and len(words) >= 2:
            parsed = self._parse_route_filter(condition)
            if parsed is not None:
                ranges.append(parsed)
            return
        if words[0] == "community" and len(words) >= 2:
            clause.matches.append(MatchCommunityList(words[1]))
            return
        if words[0] == "as-path" and len(words) >= 2:
            clause.matches.append(MatchAsPathList(words[1]))
            return
        if words[0] == "protocol" and len(words) >= 2:
            try:
                clause.matches.append(MatchProtocol(Protocol(words[1])))
            except ValueError:
                self.diagnostics.warn(
                    condition.line, condition.text(), f"unknown protocol {words[1]!r}"
                )
            return
        self.diagnostics.warn(
            condition.line, condition.text(), "unsupported from condition"
        )

    def _parse_route_filter(self, condition: Statement) -> Optional[PrefixRange]:
        words = condition.words
        try:
            prefix = Prefix.parse(words[1])
        except AddressError as exc:
            self.diagnostics.warn(condition.line, condition.text(), str(exc))
            return None
        modifier = words[2] if len(words) >= 3 else "exact"
        if modifier == "exact":
            return PrefixRange.exact(prefix)
        if modifier == "orlonger":
            return PrefixRange.orlonger(prefix)
        if modifier == "upto" and len(words) >= 4:
            upto = words[3].lstrip("/")
            if upto.isdigit():
                return PrefixRange(prefix, prefix.length, int(upto))
        if modifier == "prefix-length-range" and len(words) >= 4:
            match = _LENGTH_RANGE_RE.match(words[3])
            if match is not None:
                low, high = int(match.group(1)), int(match.group(2))
                try:
                    return PrefixRange(prefix, low, high)
                except AddressError as exc:
                    self.diagnostics.warn(condition.line, condition.text(), str(exc))
                    return None
        self.diagnostics.warn(
            condition.line,
            condition.text(),
            f"There is a syntax error: invalid route-filter modifier "
            f"{' '.join(words[2:])!r}",
        )
        return None

    def _apply_then_block(self, then_block: Statement, clause: RouteMapClause) -> None:
        if len(then_block.words) > 1:
            # ``then accept;`` leaf form.
            self._apply_then_words(then_block, clause)
            return
        for action in then_block.children:
            self._apply_then_action(action, clause)

    def _apply_then_words(self, statement: Statement, clause: RouteMapClause) -> None:
        synthetic = Statement(statement.words[1:], statement.line)
        self._apply_then_action(synthetic, clause)

    def _apply_then_action(self, action: Statement, clause: RouteMapClause) -> None:
        words = action.words
        if not words:
            return
        if words[0] == "accept":
            clause.action = Action.PERMIT
            return
        if words[0] == "reject":
            clause.action = Action.DENY
            return
        if words[0] == "metric" and len(words) >= 2 and words[1].isdigit():
            clause.sets.append(SetMed(int(words[1])))
            return
        if words[0] == "local-preference" and len(words) >= 2 and words[1].isdigit():
            clause.sets.append(SetLocalPref(int(words[1])))
            return
        if words[0] == "as-path-prepend" and len(words) >= 2:
            asns = [int(token) for token in words[1].split() if token.isdigit()]
            if asns:
                from ..netmodel.routing_policy import SetAsPathPrepend

                clause.sets.append(SetAsPathPrepend(asns[0], len(asns)))
            else:
                self.diagnostics.warn(
                    action.line, action.text(), "invalid as-path-prepend value"
                )
            return
        if words[0] == "next-hop" and len(words) >= 2:
            try:
                clause.sets.append(SetNextHop(Ipv4Address.parse(words[1])))
            except AddressError as exc:
                self.diagnostics.warn(action.line, action.text(), str(exc))
            return
        if words[0] == "community" and len(words) >= 3:
            mode = words[1]
            name = words[2]
            resolved = self.config.get_community_list(name)
            if resolved is None:
                self.diagnostics.warn(
                    action.line,
                    action.text(),
                    f"community {name!r} is not defined in policy-options",
                )
                return
            members = tuple(sorted(resolved.permitted_communities()))
            if mode == "add":
                clause.sets.append(SetCommunity(members, additive=True))
            elif mode == "set":
                clause.sets.append(SetCommunity(members, additive=False))
            elif mode == "delete":
                self.diagnostics.warn(
                    action.line, action.text(), "community delete is unsupported"
                )
            else:
                self.diagnostics.warn(
                    action.line, action.text(), f"unknown community mode {mode!r}"
                )
            return
        self.diagnostics.warn(action.line, action.text(), "unsupported then action")


def _single_word(statement: Optional[Statement]) -> Optional[str]:
    if statement is None or len(statement.words) < 2:
        return None
    return statement.words[1]


def _single_int(statement: Optional[Statement]) -> Optional[int]:
    word = _single_word(statement)
    if word is None or not word.isdigit():
        return None
    return int(word)


def _parse_area_id(token: str) -> int:
    """Areas may be written ``0`` or ``0.0.0.0``."""
    if "." in token:
        try:
            return Ipv4Address.parse(token).value
        except AddressError:
            return 0
    try:
        return int(token)
    except ValueError:
        return 0
