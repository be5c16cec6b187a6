"""Use the verifier suite directly, without any LLM in the loop.

Usage::

    python examples/verify_standalone.py

The verifiers COSYNTH orchestrates are ordinary libraries.  This example
drives each one by hand on a small two-router network:

1. the Batfish substitute: a snapshot's parse warnings, BGP
   simulation, and a symbolic route-policy search;
2. the Campion differ on a config pair;
3. the Lightyear local-invariant checker.
"""

from repro.batfish import BgpSimulation, Snapshot
from repro.campion import compare_configs
from repro.juniper import translate_cisco_to_juniper
from repro.lightyear import no_transit_invariants, verify_invariants
from repro.netmodel import Action
from repro.sampleconfigs import load_translation_source
from repro.symbolic import RouteConstraint, search_route_policies
from repro.topology import generate_star_network
from repro.topology.reference import build_reference_configs

A_CFG = """\
hostname edge1
interface eth0
 ip address 1.0.0.1 255.255.255.0
router bgp 100
 network 10.1.0.0 mask 255.255.0.0
 neighbor 1.0.0.2 remote-as 200
 neighbor 1.0.0.2 route-map TO_PEER out
route-map TO_PEER permit 10
 set community 100:7 additive
"""

B_CFG = """\
hostname edge2
interface eth0
 ip address 1.0.0.2 255.255.255.0
router bgp 200
 network 10.2.0.0 mask 255.255.0.0
 neighbor 1.0.0.1 remote-as 100
"""


def batfish_demo() -> None:
    print("1. Batfish substitute")
    print("-" * 72)
    snapshot = Snapshot.from_texts({"edge1.cfg": A_CFG, "edge2.cfg": B_CFG})
    warnings = sum(len(found) for found in snapshot.warnings.values())
    print(f"parse warnings: {warnings}")
    configs = {config.hostname: config for config in snapshot.configs.values()}
    simulation = BgpSimulation(configs)
    simulation.run()
    established = set()
    for session in simulation.sessions:
        established.add((session.local_router, session.remote_ip))
        established.add((session.remote_router, session.local_ip))
    for name, config in configs.items():
        for neighbor in config.bgp.sorted_neighbors():
            up = (name, neighbor.ip) in established
            status = "established" if up else "incompatible"
            print(f"  session {name} -> {neighbor.ip}: {status}")
    print("  edge2's RIB:")
    for prefix, entry in sorted(simulation.rib("edge2").items()):
        communities = ", ".join(sorted(str(c) for c in entry.route.communities))
        print(
            f"    {prefix} via {entry.learned_from or 'local'} "
            f"communities [{communities}]"
        )
    witnesses = search_route_policies(
        configs["edge1"],
        "TO_PEER",
        Action.PERMIT,
        constraint=RouteConstraint.any_route(),
        limit=1,
    )
    print(f"  TO_PEER permits e.g.: {witnesses[0].input_route.describe()}")
    print()


def campion_demo() -> None:
    print("2. Campion differ (Cisco original vs its Juniper translation)")
    print("-" * 72)
    source = load_translation_source()
    translated, _ = translate_cisco_to_juniper(load_translation_source())
    clean = compare_configs(source, translated)
    print(f"reference translation: {clean.summary()}")
    # Break the translation and diff again.
    translated.bgp.neighbors["2.3.4.5"].export_policy = None
    broken = compare_configs(source, translated)
    print(f"after dropping the export policy: {broken.summary()}")
    print(f"  first finding: {broken.first_finding().describe()}")
    print()


def lightyear_demo() -> None:
    print("3. Lightyear local invariants on the 7-router star")
    print("-" * 72)
    star = generate_star_network(7)
    configs = build_reference_configs(star.topology)
    invariants = no_transit_invariants(star.topology)
    print(f"{len(invariants)} local invariants derived; e.g.:")
    print(f"  {invariants[0].describe()}")
    violations = verify_invariants(configs, invariants)
    print(f"violations on the reference configs: {len(violations)}")
    # Break the hub's egress filter and re-check.
    egress = configs["R1"].route_maps["FILTER_COMM_OUT_R2"]
    egress.clauses = [c for c in egress.clauses if c.action is Action.PERMIT]
    violations = verify_invariants(configs, invariants)
    print(f"after breaking FILTER_COMM_OUT_R2: {len(violations)} violation(s)")
    print(f"  {violations[0].message}")


if __name__ == "__main__":
    batfish_demo()
    campion_demo()
    lightyear_demo()
