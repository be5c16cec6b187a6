"""Bundled configurations used by the experiments.

§3.2 translates "a Cisco configuration from the Batfish examples ...
short enough to fit within GPT-4 text input limits, but us[ing]
non-trivial features including BGP, OSPF, prefix lists, and route maps."
The config below is an equivalent stand-in exercising the exact feature
surface the paper's Table 2 errors arise from: BGP neighbors with import
and export route-maps, a prefix list with ``ge`` length matching, MED
setting, OSPF costs and passive interfaces, and redistribution into BGP
through a separate route-map.
"""

from __future__ import annotations

from .cisco import parse_cisco
from .netmodel.device import RouterConfig

__all__ = [
    "BATFISH_EXAMPLE_CISCO",
    "BATFISH_EXAMPLE_CISCO_2",
    "load_translation_source",
]

BATFISH_EXAMPLE_CISCO = """\
hostname as100border1
!
interface Loopback0
 ip address 1.1.1.1 255.255.255.255
 ip ospf cost 1
!
interface GigabitEthernet0/0
 description to provider AS 200
 ip address 2.3.4.1 255.255.255.0
!
interface GigabitEthernet0/1
 description to customer AS 300
 ip address 1.2.3.1 255.255.255.0
 ip ospf cost 10
!
ip prefix-list our-networks seq 5 permit 1.2.3.0/24 ge 24
ip prefix-list private-ips seq 5 permit 10.0.0.0/8 le 32
ip prefix-list private-ips seq 10 permit 172.16.0.0/12 le 32
ip prefix-list private-ips seq 15 permit 192.168.0.0/16 le 32
!
ip community-list 1 permit 100:300
!
route-map to_provider permit 10
 match ip address prefix-list our-networks
 set metric 50
!
route-map from_provider deny 10
 match ip address prefix-list private-ips
route-map from_provider permit 20
!
route-map from_customer deny 100
 match ip address prefix-list private-ips
route-map from_customer permit 200
 set community 100:300 additive
!
route-map ospf-into-bgp permit 10
 match ip address prefix-list our-networks
!
router ospf 1
 router-id 1.1.1.1
 network 1.1.1.1 0.0.0.0 area 0
 network 1.2.3.0 0.0.0.255 area 0
 passive-interface Loopback0
!
router bgp 100
 bgp router-id 1.1.1.1
 network 1.2.3.0 mask 255.255.255.0
 neighbor 2.3.4.5 remote-as 200
 neighbor 2.3.4.5 send-community
 neighbor 2.3.4.5 route-map from_provider in
 neighbor 2.3.4.5 route-map to_provider out
 neighbor 1.2.3.9 remote-as 300
 neighbor 1.2.3.9 send-community
 neighbor 1.2.3.9 route-map from_customer in
 redistribute ospf route-map ospf-into-bgp
"""


def load_translation_source() -> RouterConfig:
    """Parse the bundled Cisco config (it must parse warning-free)."""
    result = parse_cisco(BATFISH_EXAMPLE_CISCO, filename="as100border1.cfg")
    if result.warnings:
        rendered = "; ".join(warning.render() for warning in result.warnings)
        raise ValueError(f"bundled config failed to parse cleanly: {rendered}")
    return result.config

# A second config exercising the features the first does not: local
# preference, AS-path access lists, standard ACLs used as route filters,
# and AS-path prepending — the wider surface a translation tool must
# face beyond the paper's single example.
BATFISH_EXAMPLE_CISCO_2 = """\
hostname as200edge1
!
interface Loopback0
 ip address 2.2.2.2 255.255.255.255
!
interface GigabitEthernet0/0
 description to upstream AS 100
 ip address 2.3.4.5 255.255.255.0
!
interface GigabitEthernet0/1
 description to peer AS 400
 ip address 4.5.6.1 255.255.255.0
!
access-list 20 permit 20.0.0.0 0.255.255.255
!
ip as-path access-list 1 permit ^400_
!
ip community-list 5 permit 200:500
!
route-map from_upstream permit 10
 set local-preference 80
!
route-map from_peer permit 10
 match as-path 1
 set local-preference 200
route-map from_peer deny 20
!
route-map to_upstream permit 10
 match ip address 20
 set as-path prepend 200 200
route-map to_upstream deny 20
 match community 5
route-map to_upstream permit 30
!
router bgp 200
 bgp router-id 2.2.2.2
 network 20.1.0.0 mask 255.255.0.0
 neighbor 2.3.4.1 remote-as 100
 neighbor 2.3.4.1 send-community
 neighbor 2.3.4.1 route-map from_upstream in
 neighbor 2.3.4.1 route-map to_upstream out
 neighbor 4.5.6.2 remote-as 400
 neighbor 4.5.6.2 route-map from_peer in
"""
