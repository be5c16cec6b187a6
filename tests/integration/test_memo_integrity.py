"""Shared memo entries stay equal to a fresh recompute of their key.

Parse results, Campion reports, rendered drafts and per-network set-up
are shared: a memo hit hands every caller the stored object itself, so
the program must never edit one.  This test drives the real users of
those memos — the translation loop, a small linted synthesis campaign,
and snapshots of both dialects — then recomputes every
``cisco-parse``, ``juniper-parse``, ``campion-compare`` and
``draft-render`` entry with memoization off, and rebuilds every shared
network's reference configs and fault catalog from scratch.  Code that
mutated a shared object leaves an entry that no longer matches its key.
"""

import pytest

from repro.batfish import Snapshot
from repro.campion import compare_configs
from repro.cisco import generate_cisco, parse_cisco
from repro.cisco.parser import _PARSE_MEMO as CISCO_MEMO
from repro.core import toggles
from repro.core.orchestrator import _COMPARE_MEMO
from repro.experiments.campaign import (
    PROFILES,
    build_grid,
    run_campaign,
    set_campaign_lint,
)
from repro.experiments.no_transit import _NETWORK_MEMO, materialize_network
from repro.experiments.translation import run_translation_experiment
from repro.juniper import generate_juniper, parse_juniper
from repro.juniper.parser import _PARSE_MEMO as JUNIPER_MEMO
from repro.llm import reference_translation, synthesis_fault_catalog
from repro.llm.faults import _RENDER_MEMO, DraftState
from repro.llm.synthesis_model import _SETUP_MEMO
from repro.sampleconfigs import BATFISH_EXAMPLE_CISCO, BATFISH_EXAMPLE_CISCO_2
from repro.symbolic.memo import reset_caches
from repro.topology.reference import build_reference_configs


def _assert_entries_match_recompute(*required):
    """Every entry of the four shared memos equals its key recomputed
    from scratch; each memo named in ``required`` holds entries."""
    entries = {
        memo.name: dict(memo._entries)
        for memo in (CISCO_MEMO, JUNIPER_MEMO, _COMPARE_MEMO, _RENDER_MEMO)
    }
    for name in required:
        assert entries[name], f"{name} memo is empty: nothing was checked"
    with toggles.scoped(memoization=False):
        for key, stored in entries["cisco-parse"].items():
            assert stored == parse_cisco(*key), key[1:]
        for key, stored in entries["juniper-parse"].items():
            assert stored == parse_juniper(*key), key[1:]
        for original, translated, report in entries["campion-compare"].values():
            assert report == compare_configs(original, translated)
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
    """Every shared network, and the reference configs and fault
    catalog shared on its topology, equal a build from scratch."""
    networks = dict(_NETWORK_MEMO._entries)
    setups = dict(_SETUP_MEMO._entries)
    assert networks and setups, "nothing was shared: nothing was checked"
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
        "cisco-parse", "juniper-parse", "campion-compare", "draft-render"
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
    _assert_entries_match_recompute("cisco-parse", "draft-render")
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
    _assert_entries_match_recompute("cisco-parse", "juniper-parse")
