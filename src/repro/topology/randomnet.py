"""Seeded random topology families: Erdős–Rényi and Waxman.

The hand-shaped families (chain/ring/mesh/dumbbell) exercise the
no-transit machinery on regular graphs only.  These generators produce
irregular inter-domain graphs — the "much further testing in more
complex use cases" the paper calls for — while staying *deterministic*:
the same ``(family, size, seed, params, roles)`` always yields a
byte-identical topology JSON, so campaign scenarios remain reproducible
at any worker count.

* ``random`` — G(n, p): every router pair is linked with probability
  ``p`` (knob ``p``, default ``0.35``);
* ``waxman`` — routers get coordinates in the unit square and pair
  (u, v) is linked with probability ``beta * exp(-d(u,v) / (alpha*L))``
  where ``L`` is the largest pairwise distance (knobs ``alpha`` —
  how sharply probability decays with distance — and ``beta`` — the
  overall density; defaults ``0.4`` / ``0.6``).

Sampled graphs are made connected by *component stitching*: components
are sorted by their smallest router and adjacent components are joined
through those representatives, so connectivity never depends on luck.

Role placement is part of generation: a
:class:`~repro.topology.roles.RoleSpec` (default: one customer, up to
three single-homed ISPs) is placed on distinct routers — multi-homed
ISPs get one attachment per home, transit-forbidden peers ride the same
community-slot space as the ISPs.  Two placement strategies exist:

* ``seeded`` (default) — every role lands on a seed-shuffled router;
* ``degree`` — customers are pinned to the *lowest-degree* routers
  (ties broken by router index), modelling customers on the network
  edge; ISPs/peers still seed-shuffle over the remaining routers.

The strategy never alters the sampled graph: the same (family, size,
seed, knobs, roles) draws the same edges under either placement, so a
placement ablation compares placements on identical graphs, and each
(…, place) cell is byte-deterministic.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Dict, List, Sequence, Set, Tuple

from .roles import RoleSpec

__all__ = [
    "DEFAULT_EDGE_PROBABILITY",
    "DEFAULT_WAXMAN_ALPHA",
    "DEFAULT_WAXMAN_BETA",
    "PLACEMENTS",
    "coerce_placement",
    "generate_random_network",
    "generate_waxman_network",
    "parse_topo_params",
]

PLACEMENTS = ("seeded", "degree")


def coerce_placement(place: "str | None") -> str:
    """``None``/``""``/``"default"`` -> ``seeded``; otherwise validate."""
    if place is None:
        return "seeded"
    text = str(place).strip()
    if not text or text == "default":
        return "seeded"
    if text not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {place!r} (known: {', '.join(PLACEMENTS)})"
        )
    return text

DEFAULT_EDGE_PROBABILITY = 0.35
DEFAULT_WAXMAN_ALPHA = 0.4
DEFAULT_WAXMAN_BETA = 0.6

_KNOWN_KNOBS = {
    "random": ("p",),
    "waxman": ("alpha", "beta"),
}


def parse_topo_params(text: "str | Dict[str, float] | None") -> Dict[str, float]:
    """Parse a knob string (``p=0.35`` / ``alpha=0.5,beta=0.7``).

    ``None``, ``""`` and ``"default"`` mean "family defaults".  Dicts
    pass through (values coerced to float).
    """
    if text is None:
        return {}
    if isinstance(text, dict):
        return {str(key): float(value) for key, value in text.items()}
    stripped = text.strip()
    if not stripped or stripped == "default":
        return {}
    params: Dict[str, float] = {}
    for item in stripped.split(","):
        if "=" not in item:
            raise ValueError(
                f"invalid topology knob {item!r} (expected name=value)"
            )
        name, _, value = item.partition("=")
        try:
            params[name.strip()] = float(value)
        except ValueError:
            raise ValueError(
                f"invalid topology knob value in {item!r}"
            ) from None
    return params


def _check_knobs(family: str, params: Dict[str, float]) -> None:
    known = _KNOWN_KNOBS[family]
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {family} knob(s) {', '.join(unknown)} "
            f"(known: {', '.join(known)})"
        )


def _topology_rng(family: str, size: int, seed: int, fingerprint: str) -> random.Random:
    """One RNG per generation request, derived with CRC32 (stable across
    processes and platforms, like the campaign's scenario seeding)."""
    material = f"{family}:{size}:{seed}:{fingerprint}"
    return random.Random(zlib.crc32(material.encode("utf-8")))


def _stitch_components(size: int, edges: Set[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Extra edges joining the sampled graph's components into one.

    Components are sorted by their smallest router; each is linked to
    the next through those smallest members — deterministic, and the
    extra degree spreads over the representatives instead of piling on
    one router.
    """
    parent = list(range(size + 1))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for a, b in edges:
        parent[find(a)] = find(b)
    components: Dict[int, List[int]] = {}
    for node in range(1, size + 1):
        components.setdefault(find(node), []).append(node)
    representatives = sorted(min(members) for members in components.values())
    return [
        (representatives[i], representatives[i + 1])
        for i in range(len(representatives) - 1)
    ]


def _place_roles(
    builder,
    spec: RoleSpec,
    size: int,
    rng: random.Random,
    degrees: "Dict[int, int] | None" = None,
    place: str = "seeded",
) -> None:
    """Attach the spec's roles to distinct routers.

    ``seeded`` shuffles every router; ``degree`` pins the customers to
    the lowest-degree routers (ties by index — deterministic without
    touching the RNG) and shuffles only the remaining hosts for the
    ISPs/peers, so both strategies consume the RNG *after* the same
    graph was sampled and the graph itself is placement-independent.
    """
    if spec.attachments > size:
        raise ValueError(
            f"role spec {spec.key()} needs {spec.attachments} border "
            f"routers but the network has only {size}"
        )
    if place == "degree":
        by_degree = sorted(
            range(1, size + 1),
            key=lambda node: ((degrees or {}).get(node, 0), node),
        )
        customer_hosts = by_degree[: spec.customers]
        taken = set(customer_hosts)
        rest = [node for node in range(1, size + 1) if node not in taken]
        rng.shuffle(rest)
        hosts = customer_hosts + rest
    else:
        hosts = list(range(1, size + 1))
        rng.shuffle(hosts)
    cursor = 0
    for ordinal in range(1, spec.customers + 1):
        builder.attach_customer(hosts[cursor], ordinal=ordinal)
        cursor += 1
    index = 2  # community slots start at 2 (the spoke convention)
    for _isp in range(spec.isps):
        for home in range(1, spec.homes + 1):
            builder.attach_isp(hosts[cursor], isp_index=index, home=home)
            cursor += 1
        index += 1
    for _peer in range(spec.peers):
        builder.attach_isp(hosts[cursor], isp_index=index, peer=True)
        cursor += 1
        index += 1


def _build(
    family: str,
    size: int,
    seed: int,
    edges: Sequence[Tuple[int, int]],
    stitched: Sequence[Tuple[int, int]],
    spec: RoleSpec,
    rng: random.Random,
    place: str = "seeded",
):
    from .families import _Builder

    builder = _Builder(f"{family}-{size}", size)
    degrees: Dict[int, int] = {}
    for a, b in list(edges) + list(stitched):
        builder.link(a, b)
        degrees[a] = degrees.get(a, 0) + 1
        degrees[b] = degrees.get(b, 0) + 1
    _place_roles(builder, spec, size, rng, degrees=degrees, place=place)
    network = builder.finish(family)
    network.seed = seed
    network.roles = spec.key()
    network.place = place
    return network


def generate_random_network(
    size: int,
    seed: int = 0,
    roles: "RoleSpec | str | None" = None,
    params: "Dict[str, float] | str | None" = None,
    place: "str | None" = None,
):
    """A connected seeded Erdős–Rényi network with placed roles."""
    from .families import check_size

    check_size("random", size)
    knobs = parse_topo_params(params)
    _check_knobs("random", knobs)
    p = knobs.get("p", DEFAULT_EDGE_PROBABILITY)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    spec = RoleSpec.coerce(roles) or RoleSpec.default_for(size)
    placement = coerce_placement(place)
    rng = _topology_rng("random", size, seed, f"p={p!r}:{spec.key()}")
    edges = set()
    for a in range(1, size + 1):
        for b in range(a + 1, size + 1):
            if rng.random() < p:
                edges.add((a, b))
    stitched = _stitch_components(size, edges)
    return _build(
        "random", size, seed, sorted(edges), stitched, spec, rng, placement
    )


def generate_waxman_network(
    size: int,
    seed: int = 0,
    roles: "RoleSpec | str | None" = None,
    params: "Dict[str, float] | str | None" = None,
    place: "str | None" = None,
):
    """A connected seeded Waxman network with placed roles."""
    from .families import check_size

    check_size("waxman", size)
    knobs = parse_topo_params(params)
    _check_knobs("waxman", knobs)
    alpha = knobs.get("alpha", DEFAULT_WAXMAN_ALPHA)
    beta = knobs.get("beta", DEFAULT_WAXMAN_BETA)
    if alpha <= 0:
        raise ValueError(f"waxman alpha must be positive, got {alpha}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"waxman beta must be in [0, 1], got {beta}")
    spec = RoleSpec.coerce(roles) or RoleSpec.default_for(size)
    placement = coerce_placement(place)
    rng = _topology_rng(
        "waxman", size, seed, f"alpha={alpha!r}:beta={beta!r}:{spec.key()}"
    )
    positions = {
        node: (rng.random(), rng.random()) for node in range(1, size + 1)
    }
    scale = max(
        (
            math.dist(positions[a], positions[b])
            for a in range(1, size + 1)
            for b in range(a + 1, size + 1)
        ),
        default=1.0,
    ) or 1.0
    edges = set()
    for a in range(1, size + 1):
        for b in range(a + 1, size + 1):
            distance = math.dist(positions[a], positions[b])
            if rng.random() < beta * math.exp(-distance / (alpha * scale)):
                edges.add((a, b))
    stitched = _stitch_components(size, edges)
    return _build(
        "waxman", size, seed, sorted(edges), stitched, spec, rng, placement
    )
