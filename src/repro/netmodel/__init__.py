"""Vendor-neutral network configuration IR.

This package is the shared intermediate representation for the whole
reproduction: the Cisco and Juniper parsers produce a
:class:`RouterConfig`; the generators render one back to text; Campion
diffs two of them; the topology and Lightyear verifiers inspect them;
and the Batfish-substitute simulates a network of them.
"""

from .acl import AccessList, AclEntry
from .aspath import AsPath, AsPathAccessList, AsPathEntry, EMPTY_AS_PATH, path_through
from .bgp import BgpNeighbor, BgpProcess, Redistribution
from .communities import (
    Community,
    CommunityError,
    CommunityList,
    CommunityListEntry,
    EMPTY_COMMUNITIES,
    intern_communities,
)
from .device import RouterConfig, Vendor
from .interfaces import Interface
from .ip import AddressError, Ipv4Address, Prefix, PrefixRange
from .ospf import OspfNetworkStatement, OspfProcess
from .prefixlist import PrefixList, PrefixListEntry
from .route import (
    Origin,
    Protocol,
    Route,
)
from .routebuilder import RouteBuilder
from .routing_policy import (
    Action,
    MatchAcl,
    MatchAsPathList,
    MatchCommunityInline,
    MatchCommunityList,
    MatchCondition,
    MatchPrefixList,
    MatchPrefixRanges,
    MatchProtocol,
    PolicyContext,
    PolicyEvaluationError,
    PolicyResult,
    RouteMap,
    RouteMapClause,
    SetAction,
    SetAsPathPrepend,
    SetCommunity,
    SetLocalPref,
    SetMed,
    SetNextHop,
    permit_all,
)

__all__ = [
    "AccessList",
    "AclEntry",
    "Action",
    "AddressError",
    "AsPath",
    "AsPathAccessList",
    "AsPathEntry",
    "BgpNeighbor",
    "BgpProcess",
    "Community",
    "CommunityError",
    "CommunityList",
    "CommunityListEntry",
    "EMPTY_AS_PATH",
    "EMPTY_COMMUNITIES",
    "Interface",
    "Ipv4Address",
    "MatchAcl",
    "MatchAsPathList",
    "MatchCommunityInline",
    "MatchCommunityList",
    "MatchCondition",
    "MatchPrefixList",
    "MatchPrefixRanges",
    "MatchProtocol",
    "Origin",
    "OspfNetworkStatement",
    "OspfProcess",
    "PolicyContext",
    "PolicyEvaluationError",
    "PolicyResult",
    "Prefix",
    "PrefixList",
    "PrefixListEntry",
    "PrefixRange",
    "Protocol",
    "Redistribution",
    "Route",
    "RouteBuilder",
    "RouteMap",
    "RouteMapClause",
    "RouterConfig",
    "SetAction",
    "SetAsPathPrepend",
    "SetCommunity",
    "SetLocalPref",
    "SetMed",
    "SetNextHop",
    "Vendor",
    "intern_communities",
    "path_through",
    "permit_all",
]
