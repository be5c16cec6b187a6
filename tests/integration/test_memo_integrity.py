"""Shared memo entries stay equal to a fresh recompute of their key.

Parse results, loop findings, rendered drafts and per-network set-up
are shared: a memo hit hands every caller the stored object itself, so
the program must never edit one.  This test drives the real users of
those memos — the translation loop, a small linted synthesis campaign,
and snapshots of both dialects — then recomputes every
``cisco-parse``, ``cisco-stanza``, ``draft-finding`` and
``draft-render`` entry with memoization off, and rebuilds every shared
network's reference configs, fault catalog and topology context from
scratch.  Code that mutated a shared object leaves an entry that
no longer matches its key.  A linted campaign hands clean drafts'
pristines to the analyzer itself, so every shared pristine must render
exactly as it did before the run.  Assembled Cisco parses share stanza
fragments across drafts, so every memoized fragment and every pristine
must also be unchanged by a linted run that reuses them.

BGP session derivation is checked here too, against a plain restatement
of its rule, on config sets where two routers share an address.
"""

import copy

import pytest

from repro.batfish import Snapshot
from repro.batfish.bgpsim import BgpSimulation
from repro.cisco import generate_cisco, parse_cisco
from repro.cisco.parser import _PARSE_MEMO as CISCO_MEMO
from repro.cisco.parser import _STANZA_MEMO, _CiscoParser
from repro.core import toggles
from repro.core.orchestrator import (
    _FINDING_MEMO,
    SynthesisOrchestrator,
    TranslationOrchestrator,
)
from repro.experiments.campaign import (
    PROFILES,
    build_grid,
    run_campaign,
    set_campaign_lint,
    topology_seed,
)
from repro.experiments.no_transit import _NETWORK_MEMO, materialize_network
from repro.experiments.translation import run_translation_experiment
from repro.juniper import generate_juniper
from repro.llm import (
    BehaviorProfile,
    reference_translation,
    synthesis_fault_catalog,
)
from repro.llm.faults import _RENDER_MEMO, DraftState
from repro.llm.synthesis_model import _SETUP_MEMO, _setup
from repro.sampleconfigs import BATFISH_EXAMPLE_CISCO, BATFISH_EXAMPLE_CISCO_2
from repro.symbolic.memo import reset_caches
from repro.topology.context import _CONTEXT_MEMO, topology_context
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs


def _assert_entries_match_recompute(*required):
    """Every entry of the four shared memos equals its key recomputed
    from scratch; each memo named in ``required`` holds entries."""
    entries = {
        memo.name: dict(memo._entries)
        for memo in (CISCO_MEMO, _STANZA_MEMO, _FINDING_MEMO, _RENDER_MEMO)
    }
    for name in required:
        assert entries[name], f"{name} memo is empty: nothing was checked"
    with toggles.scoped(memoization=False):
        for key, stored in entries["cisco-parse"].items():
            assert stored == parse_cisco(*key), key[1:]
        for stanza, (config, warnings, _unsequenced) in entries[
            "cisco-stanza"
        ].items():
            fresh = _CiscoParser("").parse(stanza)
            assert (config, list(warnings)) == (fresh.config, fresh.warnings)
        for (_id, router, text), (owner, finding) in entries[
            "draft-finding"
        ].items():
            if router:
                loop = SynthesisOrchestrator(owner, {})
                assert finding == loop._next_finding(router, text), router
            else:
                loop = TranslationOrchestrator(owner, llm=None)
                assert finding == loop._next_finding(text)
        for (renderer, _id, faults), (pristine, text) in entries[
            "draft-render"
        ].items():
            draft = DraftState(pristine, renderer)
            for fault in faults:
                draft.inject(fault)
            assert text == draft.render(), [fault.key for fault in faults]


def _texts(configs):
    return {name: generate_cisco(config) for name, config in configs.items()}


def _assert_shared_setup_matches_fresh_build():
    """Every shared network, and the reference configs, fault catalog
    and context shared on its topology, equal a build from scratch."""
    networks = dict(_NETWORK_MEMO._entries)
    setups = dict(_SETUP_MEMO._entries)
    contexts = dict(_CONTEXT_MEMO._entries)
    assert networks and setups and contexts, "nothing was shared: nothing was checked"
    for key, network in networks.items():
        with toggles.scoped(memoization=False):
            fresh = materialize_network(*key)
        assert network is not fresh
        assert network.topology == fresh.topology, key
        _topology, references, catalog = setups[id(network.topology)]
        expected = build_reference_configs(fresh.topology)
        assert _texts(references) == _texts(expected), key
        expected_catalog = synthesis_fault_catalog(fresh.topology)
        assert {name: fault.label for name, fault in catalog.items()} == {
            name: fault.label for name, fault in expected_catalog.items()
        }, key
        context = contexts[id(network.topology)]
        with toggles.scoped(memoization=False):
            expected_context = topology_context(fresh.topology)
        for field in ("hub_star", "roles", "invariants", "customer_prefixes",
                      "wanted", "key", "prompts", "invariants_of",
                      "prefixes_of", "ingress_maps", "egress_maps"):
            assert getattr(context, field) == getattr(expected_context, field), (
                key, field,
            )


@pytest.fixture(autouse=True)
def _cold_memos():
    reset_caches()
    yield
    reset_caches()


def test_translation_loop_leaves_shared_entries_intact():
    for seed in range(4):
        for profile in ("default", "sloppy"):
            run_translation_experiment(seed=seed, profile=PROFILES[profile])
    _assert_entries_match_recompute(
        "cisco-parse", "draft-finding", "draft-render"
    )


def test_linted_campaign_leaves_shared_entries_intact():
    grid = build_grid(
        ("star", "ring"), (6,), 1, profiles=("default", "sloppy")
    ) + build_grid(("random",), (8,), 1, roles=("c2i2h2",))
    set_campaign_lint(True)
    try:
        summary = run_campaign(grid, workers=1)
    finally:
        set_campaign_lint(False)
    assert all(row.error is None for row in summary.rows)
    _assert_entries_match_recompute(
        "cisco-parse", "cisco-stanza", "draft-finding", "draft-render"
    )
    _assert_shared_setup_matches_fresh_build()


def test_snapshots_of_both_dialects_leave_shared_entries_intact():
    texts = {
        "as100border1.cfg": BATFISH_EXAMPLE_CISCO,
        "as200edge1.cfg": BATFISH_EXAMPLE_CISCO_2,
        "j1.conf": generate_juniper(reference_translation()),
        "nameless.cfg": "router bgp 1\n",
        "nameless-j.conf": "routing-options { autonomous-system 1; }\n",
    }
    first = Snapshot.from_texts(texts)
    second = Snapshot.from_texts(texts)
    assert second.configs == first.configs
    assert first.configs["nameless-j.conf"].hostname == "nameless-j"
    _assert_entries_match_recompute("cisco-parse")


def test_linted_campaign_leaves_shared_pristines_unchanged(monkeypatch):
    # A profile that never fixes keeps IR faults in the final drafts,
    # so the analyzer sees copies and pristines side by side.
    monkeypatch.setitem(PROFILES, "stubborn", BehaviorProfile.never_fix())
    grid = build_grid(
        ("star", "ring"), (6,), 2, profiles=("default", "stubborn")
    ) + build_grid(("random",), (8,), 1, roles=("c2i2h2",))
    before = {}
    for scenario in grid:
        network = materialize_network(
            scenario.family,
            scenario.size,
            roles=scenario.roles,
            topo=scenario.topo,
            topology_seed=topology_seed(scenario),
            place=scenario.place,
        )
        references, _catalog = _setup(network.topology)
        before[id(network.topology)] = (references, _texts(references))
    set_campaign_lint(True)
    try:
        summary = run_campaign(grid, workers=1)
    finally:
        set_campaign_lint(False)
    assert all(row.error is None for row in summary.rows)
    assert any(row.lint_high for row in summary.rows)
    shared = {key: entry[1] for key, entry in _SETUP_MEMO._entries.items()}
    assert shared.keys() == before.keys(), "the campaign built its own set-up"
    for key, (references, texts) in before.items():
        assert shared[key] is references
        assert _texts(references) == texts


def _fresh_fragment(stanza):
    parser = _CiscoParser("")
    parser.parse(stanza)
    return (
        parser.config,
        tuple(parser.diagnostics.warnings),
        frozenset(parser.unsequenced),
    )


def _shared_fingerprints():
    """A structural fingerprint of every memoized stanza fragment and
    every shared pristine: their reprs, which spell out every field and
    every key order."""
    fragments = {
        stanza: repr(fragment) for stanza, fragment in _STANZA_MEMO._entries.items()
    }
    pristines = {
        (key, name): repr(config)
        for key, (_topology, references, _catalog) in _SETUP_MEMO._entries.items()
        for name, config in references.items()
    }
    return fragments, pristines


def test_linted_smoke_grid_leaves_stanza_fragments_and_pristines_unchanged(
    monkeypatch,
):
    # The CI smoke grid, plus a profile that never fixes, so final
    # drafts keep IR faults and assembled parses of faulted texts reach
    # the verifiers and the analyzer.
    monkeypatch.setitem(PROFILES, "stubborn", BehaviorProfile.never_fix())
    grid = build_grid(
        ("star", "chain"), (4, 6), 1, profiles=("default", "sloppy", "stubborn")
    )
    set_campaign_lint(True)
    try:
        first = run_campaign(grid, workers=1)
        before = _shared_fingerprints()
        second = run_campaign(grid, workers=1)
    finally:
        set_campaign_lint(False)
    assert all(row.error is None for row in first.rows + second.rows)
    assert any(row.lint_high for row in second.rows)
    fragments, pristines = before
    assert fragments and pristines, "nothing was shared: nothing was checked"
    assert _STANZA_MEMO.hits > len(fragments)
    assert _shared_fingerprints() == before
    # An edit that repeats itself on every use leaves the fingerprints
    # as they were; the fragments must also still be what their stanzas
    # parse to.
    assert fragments == {
        stanza: repr(_fresh_fragment(stanza)) for stanza in fragments
    }


def _sessions_by_rule(configs):
    """Sessions where both sides declare each other: each neighbor
    address resolves to the last router (in config order) owning it,
    and the remote must declare one of the local router's own
    addresses, with the local AS, first in address order."""
    owner = {}
    for hostname, config in configs.items():
        for interface in config.interfaces.values():
            if interface.address is not None:
                owner[interface.address] = hostname
    sessions = []
    seen = set()
    for hostname, config in configs.items():
        if config.bgp is None:
            continue
        own = {
            interface.address
            for interface in config.interfaces.values()
            if interface.address is not None
        }
        for neighbor in config.bgp.sorted_neighbors():
            remote = owner.get(neighbor.ip)
            if remote is None or remote == hostname:
                continue
            remote_bgp = configs[remote].bgp
            if remote_bgp is None or neighbor.remote_as != remote_bgp.asn:
                continue
            local_ip = None
            for reverse in remote_bgp.sorted_neighbors():
                if reverse.ip in own and reverse.remote_as == config.bgp.asn:
                    local_ip = reverse.ip
                    break
            pair = tuple(sorted((hostname, remote)))
            if local_ip is None or pair in seen:
                continue
            seen.add(pair)
            sessions.append((hostname, local_ip, remote, neighbor.ip))
    return sessions


@pytest.mark.parametrize("family", ["ring", "mesh"])
def test_sessions_with_shared_addresses_follow_the_rule(family):
    references = build_reference_configs(generate_network(family, 5).topology)
    names = sorted(references)
    cases = 0
    for source in names:
        for target in names:
            if source == target:
                continue
            for interface in references[source].interfaces.values():
                if interface.address is None:
                    continue
                configs = copy.deepcopy(references)
                # The target takes the source's address on one of its
                # own interfaces: two routers now own that address.
                victim = next(
                    item
                    for item in configs[target].interfaces.values()
                    if item.address is not None
                )
                victim.address = interface.address
                derived = [
                    (
                        session.local_router,
                        session.local_ip,
                        session.remote_router,
                        session.remote_ip,
                    )
                    for session in BgpSimulation(configs).sessions
                ]
                assert derived == _sessions_by_rule(configs), (
                    source, target, interface.name,
                )
                cases += 1
    assert cases
