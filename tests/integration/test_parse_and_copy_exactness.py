"""Stanza-assembled parses and ``ir_copy`` copies are exact.

``parse_cisco`` parses each distinct stanza of a text once and
assembles the text's result from the stanzas' fragments;
``DraftState`` and the Juniper translation copy configs with
``ir_copy`` instead of ``copy.deepcopy``.  Both are checked here
against their reference on the same corpus: every family's reference
configs, the configs of every fuzz corpus scenario after each edit,
every draft one pass of the ``nt-grid`` benchmark grid parses, and the
§4.2 misplaced-``neighbor`` and forbidden-keyword drafts.

The reference parse is ``_CiscoParser`` over the whole text.  The two
parses must give equal configs, with interfaces, route-maps, lists and
neighbours in the same key order, and the same warnings in the same
order.  Each case where assembly would have to merge state across
stanzas must fall back to the whole-text parse and count it.
"""

import copy
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cisco import generate_cisco, parse_cisco
from repro.cisco import parser as cisco_parser
from repro.cisco.parser import _STANZA_MEMO, _CiscoParser, _parse_text
from repro.core import toggles
from repro.experiments.campaign import build_grid, run_campaign, set_campaign_lint
from repro.experiments.no_transit import materialize_network
from repro.fuzz.corpus import corpus_files, load_repro
from repro.fuzz.edits import apply_edit_op, resolve_router
from repro.fuzz.scenarios import FuzzScenario, scenario_at
from repro.juniper import generate_juniper
from repro.juniper.translate import translate_cisco_to_juniper
from repro.llm import synthesis_fault_catalog
from repro.llm.faults import DraftState, FaultTargetError
from repro.netmodel.value import ImmutableValue, ir_copy
from repro.obs import counter
from repro.sampleconfigs import BATFISH_EXAMPLE_CISCO, BATFISH_EXAMPLE_CISCO_2
from repro.symbolic.memo import reset_caches
from repro.topology.families import FAMILIES, SEEDED_FAMILIES, generate_network
from repro.topology.reference import build_reference_configs

CORPUS = Path(__file__).parent.parent / "fuzz_corpus"

FALLBACKS = counter("cisco.parse.fallback")

# The perfbench nt-grid inputs for workload seed 0.
NT_FIXED = (("star", "chain", "ring", "mesh", "dumbbell"), (6, 10))
NT_ROLED = (("random", "waxman"), (10,), ("c2i3h2", "c2i2h2p1"))


def _family_configs():
    for family in FAMILIES:
        seeded = family in SEEDED_FAMILIES
        for role in ("c2i3h2", "c2i2h2p1") if seeded else (None,):
            for size in (10, 12) if seeded else (5, 8):
                network = generate_network(family, size, roles=role)
                yield f"{family}-{size}-{role}", build_reference_configs(
                    network.topology
                )


def _fuzz_configs():
    scenarios = [
        FuzzScenario.from_dict(load_repro(path)["scenario"])
        for path in corpus_files(CORPUS)
    ] + [scenario_at(0, index) for index in range(3)]
    assert scenarios
    for number, scenario in enumerate(scenarios):
        network = materialize_network(
            scenario.family,
            scenario.size,
            roles=scenario.roles,
            topo=scenario.topo,
            topology_seed=scenario.topology_seed,
            place=scenario.place,
        )
        configs = build_reference_configs(network.topology)
        for step, edit in enumerate(scenario.edits):
            router = resolve_router(edit.router_index, configs)
            apply_edit_op(edit.op, configs, router)
            yield f"fuzz-{number}-{step}", copy.deepcopy(configs)


def _section_drafts():
    """Every router's draft with each §4.2 syntax fault its catalog
    can place on it: the misplaced neighbor and the CLI keywords."""
    for family, size in (("star", 6), ("ring", 5), ("mesh", 4)):
        topology = generate_network(family, size).topology
        references = build_reference_configs(topology)
        catalog = synthesis_fault_catalog(topology)
        for key in ("misplaced_neighbor_command", "cli_keywords", "stray_ip_routing"):
            for name, pristine in references.items():
                draft = DraftState(pristine, generate_cisco)
                draft.inject(catalog[key])
                try:
                    yield f"{family}-{size}-{key}-{name}", draft.render()
                except FaultTargetError:
                    continue


@pytest.fixture(scope="module")
def nt_grid_texts():
    """Every text the nt-grid benchmark grid (seed 0) parses."""
    grid = build_grid(NT_FIXED[0], NT_FIXED[1], 4, profiles=("default", "sloppy"))
    grid += build_grid(
        NT_ROLED[0], NT_ROLED[1], 4, profiles=("default", "sloppy"), roles=NT_ROLED[2]
    )
    texts = {}
    original = cisco_parser._parse_text

    def recording(text, filename):
        texts[(text, filename)] = None
        return original(text, filename)

    reset_caches()
    before = FALLBACKS.value
    cisco_parser._parse_text = recording
    set_campaign_lint(True)
    try:
        summary = run_campaign(grid, workers=1)
    finally:
        set_campaign_lint(False)
        cisco_parser._parse_text = original
    assert all(row.error is None for row in summary.rows)
    assert FALLBACKS.value == before, "an nt-grid draft fell back to a whole parse"
    assert len(texts) > 500
    return list(texts)


def _key_orders(config):
    orders = [
        list(config.interfaces),
        list(config.route_maps),
        list(config.prefix_lists),
        list(config.community_lists),
        list(config.as_path_lists),
        list(config.access_lists),
        [(name, [clause.seq for clause in route_map.clauses])
         for name, route_map in config.route_maps.items()],
    ]
    if config.bgp is not None:
        orders.append(list(config.bgp.neighbors))
    return orders


def _assert_parses_agree(text, filename="draft.cfg"):
    """The stanza path's result equals the whole-text parse; returns
    whether the text took the stanza path."""
    before = FALLBACKS.value
    assembled = _parse_text(text, filename)
    whole = _CiscoParser(filename).parse(text)
    assert assembled.config == whole.config, filename
    assert _key_orders(assembled.config) == _key_orders(whole.config), filename
    assert assembled.warnings == whole.warnings, filename
    return FALLBACKS.value == before


def test_reference_configs_assemble_exactly():
    texts = [
        generate_cisco(config)
        for _name, configs in _family_configs()
        for config in configs.values()
    ] + [BATFISH_EXAMPLE_CISCO, BATFISH_EXAMPLE_CISCO_2]
    assert all(_assert_parses_agree(text) for text in texts)


def test_fuzz_corpus_configs_assemble_exactly():
    texts = [
        generate_cisco(config)
        for _name, configs in _fuzz_configs()
        for config in configs.values()
    ]
    assert texts
    assert all(_assert_parses_agree(text) for text in texts)


def test_section_4_2_drafts_assemble_exactly():
    drafts = dict(_section_drafts())
    assert any("misplaced_neighbor" in name for name in drafts)
    for name, text in drafts.items():
        assert _assert_parses_agree(text, name), name
        assert parse_cisco(text, name).warnings, name


def test_misplaced_neighbor_stays_in_its_stanza():
    # Indentation plays no part in the split: the neighbor line below
    # belongs to the route-map stanza and warns there, as in a whole
    # parse, with its line counted in the whole text.
    text = (
        "hostname R1\n"
        "!\n"
        "route-map OUT permit 10\n"
        " match community 1\n"
        "neighbor 10.0.0.2 route-map OUT out\n"
        "router bgp 100\n"
        " neighbor 10.0.0.2 remote-as 200\n"
    )
    assert _assert_parses_agree(text, "r1.cfg")
    (warning,) = parse_cisco(text, "r1.cfg").warnings
    assert (warning.filename, warning.line) == ("r1.cfg", 5)
    assert warning.comment == "This route-map statement is unrecognized"


@pytest.mark.parametrize(
    "line",
    [
        "\u0131nterface eth1",  # dotless i: not the keyword "interface"
        "ho\u017ftname R2",  # long s: not the keyword "hostname"
        "\u00a0interface eth1",  # no-break space: top level, not split
        "router bgpx 1",
        "ip access-list extended X",
        "Interface Eth1",
    ],
)
def test_split_only_at_lines_the_parser_handles_at_top_level(line):
    text = f"router bgp 100\n neighbor 10.0.0.2 remote-as 200\n{line}\n network 10.1.0.0/24\n"
    assert _assert_parses_agree(text)


def test_nt_grid_drafts_assemble_exactly(nt_grid_texts):
    for text, filename in nt_grid_texts:
        assert _assert_parses_agree(text, filename), filename


def test_assembled_results_share_stanzas_across_drafts(nt_grid_texts):
    reset_caches()
    for text, filename in nt_grid_texts[:40]:
        parse_cisco(text, filename)
    assert _STANZA_MEMO.hits > _STANZA_MEMO.misses > 0


FALLBACK_CASES = {
    "repeated interface": (
        "interface eth0\n ip address 10.0.0.1 255.255.255.0\n!\n"
        "interface eth0\n description again\n"
    ),
    "repeated router bgp": (
        "router bgp 100\n neighbor 10.0.0.2 remote-as 200\n"
        "route-map A permit 10\n"
        "router bgp 300\n neighbor 10.0.0.2 route-map A out\n"
    ),
    "repeated router ospf": (
        "router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
        "router ospf 2\n passive-interface eth0\n"
    ),
    "route-map (name, seq) given twice": (
        "route-map A permit 10\n match ip address prefix-list P\n"
        "route-map A deny 10\n set metric 5\n"
    ),
    "unsequenced prefix-list entry after an earlier entry": (
        "ip prefix-list P seq 10 permit 10.0.0.0/8\n"
        "ip prefix-list P permit 20.0.0.0/8\n"
    ),
    "carriage-return line breaks": (
        "hostname R1\r\ninterface eth0\r\n ip address 10.0.0.1 255.255.255.0\r\n"
    ),
    "a Unicode line separator": "hostname R1 interface eth0\n",
}


@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_each_fallback_trigger_parses_whole_and_counts(case):
    assert not _assert_parses_agree(FALLBACK_CASES[case], case)


def test_structures_built_by_several_stanzas_merge_in_text_order():
    text = (
        "route-map B permit 20\n"
        "route-map A permit 30\n"
        "route-map B deny 10\n"
        "ip prefix-list Q permit 20.0.0.0/8\n"
        "ip prefix-list Q seq 2 deny 20.1.0.0/16\n"
        "ip community-list standard C permit 100:1\n"
        "ip community-list standard C deny 100:2\n"
        "access-list 1 permit any\n"
        "ip access-list standard 1\n permit host 10.0.0.1\n"
        "ip as-path access-list 5 permit ^65001_\n"
        "ip as-path access-list 5 deny .*\n"
    )
    assert _assert_parses_agree(text)
    config = parse_cisco(text).config
    assert list(config.route_maps) == ["B", "A"]
    assert [clause.seq for clause in config.route_maps["B"].clauses] == [10, 20]
    assert [entry.seq for entry in config.prefix_lists["Q"].entries] == [2, 5]
    assert len(config.community_lists["C"].entries) == 2
    assert len(config.access_lists["1"].entries) == 2
    assert len(config.as_path_lists["5"].entries) == 2


def test_memoization_off_parses_whole():
    text = "interface eth0\n description a\ninterface eth1\n description b\n"
    with toggles.scoped(memoization=False):
        before = (_STANZA_MEMO.misses, FALLBACKS.value)
        assert _assert_parses_agree(text)
        assert (_STANZA_MEMO.misses, FALLBACKS.value) == before


def _mutable_ids(value, seen=None):
    """ids of every mutable object reachable from an IR value."""
    seen = {} if seen is None else seen
    if isinstance(value, (ImmutableValue, str, int, float, type(None))) or hasattr(
        type(value), "__members__"
    ):
        return seen
    if id(value) in seen:
        return seen
    seen[id(value)] = value
    if isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, (list, tuple)):
        children = list(value)
    else:
        children = list(vars(value).values())
    for child in children:
        _mutable_ids(child, seen)
    return seen


def _assert_copy_exact(config):
    copied = ir_copy(config)
    assert copied == copy.deepcopy(config)
    assert _key_orders(copied) == _key_orders(config)
    assert generate_cisco(copied) == generate_cisco(config)
    shared = _mutable_ids(copied).keys() & _mutable_ids(config).keys()
    assert not shared, [type(_mutable_ids(config)[key]) for key in shared]


def test_ir_copy_is_an_unshared_deep_copy():
    configs = [
        config
        for source in (_family_configs(), _fuzz_configs())
        for _name, group in source
        for config in group.values()
    ]
    configs += [
        parse_cisco(text, name).config for name, text in _section_drafts()
    ]
    for config in configs:
        _assert_copy_exact(config)
    juniper, _notes = translate_cisco_to_juniper(
        parse_cisco(BATFISH_EXAMPLE_CISCO).config
    )
    copied = ir_copy(juniper)
    assert copied == copy.deepcopy(juniper)
    assert generate_juniper(copied) == generate_juniper(juniper)


def test_ir_copy_of_nt_grid_drafts(nt_grid_texts):
    for text, filename in nt_grid_texts:
        _assert_copy_exact(parse_cisco(text, filename).config)


def test_ir_copy_shares_immutable_leaves():
    config = build_reference_configs(generate_network("star", 5).topology)["R1"]
    copied = ir_copy(config)
    name, interface = next(iter(config.interfaces.items()))
    assert copied.interfaces[name] is not interface
    assert copied.interfaces[name].address is interface.address
    edited = replace(copied.interfaces[name], description="edited")
    copied.interfaces[name] = edited
    assert config.interfaces[name].description != "edited"
