"""The process-wide render memo and the copy a render starts from.

A memoized :meth:`DraftState.render` must return exactly what an
un-memoized render returns after any sequence of injections, repairs
and regressions — including when two text transforms swap order, which
a memo keyed on the *set* of active faults would get wrong.  The memo
is shared by every draft in the process: drafts over one pristine
object share entries, drafts over distinct pristine objects never do,
and the memo stays within its bound.  The copy of the pristine
reference a render faults must share nothing mutable with the
reference.
"""

import dataclasses
import enum
import random

import pytest

from repro.cisco import generate_cisco
from repro.core import toggles
from repro.llm import fault_designations, synthesis_fault_catalog
from repro.errors import ErrorCategory
from repro.llm.faults import _RENDER_MEMO, DraftState, Fault, FaultTargetError
from repro.netmodel import RouterConfig
from repro.netmodel.value import ImmutableValue
from repro.obs import counter
from repro.symbolic.memo import reset_caches
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs

FAMILIES = ["star", "ring"]
SIZE = 7


@pytest.fixture(scope="module", params=FAMILIES)
def family(request):
    topology = generate_network(request.param, SIZE).topology
    return (
        synthesis_fault_catalog(topology),
        fault_designations(topology),
        build_reference_configs(topology),
    )


def _outcome(draft):
    try:
        return draft.render()
    except FaultTargetError as exc:
        return ("FaultTargetError", str(exc))


def _unmemoized(draft):
    with toggles.scoped(memoization=False):
        return _outcome(draft)


def _pools(catalog, designations):
    """Router -> the faults designated to it."""
    pools = {}
    for key, router in designations.items():
        pools.setdefault(router, []).append(catalog[key])
    return pools


@pytest.mark.parametrize("seed", range(4))
def test_memoized_render_matches_unmemoized_over_random_edits(family, seed):
    catalog, designations, references = family
    rng = random.Random(seed)
    renders = 0
    for router, pool in sorted(_pools(catalog, designations).items()):
        draft = DraftState(references[router], generate_cisco)
        seen = set()
        for _step in range(30):
            active = draft.active_faults()
            fixed = [f for f in draft.fixed_faults() if not draft.is_active(f.key)]
            choice = rng.random()
            if choice < 0.4 or not active:
                draft.inject(rng.choice(pool))
            elif choice < 0.75:
                draft.repair(rng.choice(active).key)
            elif fixed:
                draft.reintroduce(rng.choice(fixed))
            key = tuple(fault.key for fault in draft.active_faults())
            seen.add(key)
            expected = _unmemoized(draft)
            assert _outcome(draft) == expected, (router, key)
            assert _outcome(draft) == expected, (router, key)
            renders += 1
        assert len(seen) < 30  # states repeat, so the memo is exercised
    assert renders


def test_reordered_text_transforms_render_in_the_new_order(family):
    catalog, _designations, references = family
    first, second = catalog["cli_keywords"], catalog["stray_ip_routing"]
    draft = DraftState(references["R1"], generate_cisco)
    draft.inject(first)
    draft.inject(second)
    before = draft.render()
    draft.repair(first.key)
    draft.reintroduce(first)
    assert [fault.key for fault in draft.active_faults()] == [
        second.key,
        first.key,
    ]
    after = draft.render()
    assert after != before
    assert after == _unmemoized(draft)
    assert after.startswith("configure terminal\nip routing\n")
    assert before.startswith("ip routing\nconfigure terminal\n")


def test_a_new_fault_under_a_reused_key_is_not_served_a_stale_text(family):
    catalog, _designations, references = family
    original = catalog["stray_ip_routing"]
    replacement = dataclasses.replace(
        original, text_transform=lambda text: "ip cef\n" + text
    )
    draft = DraftState(references["R1"], generate_cisco)
    draft.inject(original)
    draft.render()
    draft.repair(original.key)
    draft.inject(replacement)
    assert draft.render().startswith("ip cef\n")


_IMMUTABLE = (ImmutableValue, str, int, float, bool, type(None), enum.Enum)


def _reachable(root):
    """Every object reachable from ``root`` through dataclass fields and
    builtin containers, by id."""
    found = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in found:
            continue
        found[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            stack.extend(
                getattr(obj, field.name) for field in dataclasses.fields(obj)
            )
    return found


def _is_deeply_immutable(obj):
    if isinstance(obj, (tuple, frozenset)):
        return all(_is_deeply_immutable(item) for item in obj)
    return isinstance(obj, _IMMUTABLE)


def test_current_config_shares_only_immutable_leaves(family):
    catalog, designations, references = family
    for router, pool in sorted(_pools(catalog, designations).items()):
        pristine = references[router]
        draft = DraftState(pristine, generate_cisco)
        for fault in pool:
            if fault.ir_transform is not None:
                draft.inject(fault)
        copy = draft.current_config()
        original = _reachable(pristine)
        shared = [
            obj for ident, obj in _reachable(copy).items() if ident in original
        ]
        mutable = [obj for obj in shared if not _is_deeply_immutable(obj)]
        assert not mutable, (router, [type(obj).__name__ for obj in mutable])
        assert any(isinstance(obj, ImmutableValue) for obj in shared)
        assert copy is not pristine


def _fault(key, **transforms):
    return Fault(
        key=key,
        label="test fault",
        category=ErrorCategory.SYNTAX,
        fixable_by_generated_prompt=True,
        prompt_patterns=(r"fix it",),
        **transforms,
    )


@pytest.fixture()
def cold_memo():
    reset_caches()
    yield _RENDER_MEMO
    reset_caches()


def test_drafts_over_one_pristine_share_one_entry(cold_memo):
    pristine = RouterConfig(hostname="r1")
    fault = _fault("text", text_transform=lambda text: "garbage\n" + text)
    hits = counter("memo.draft-render.hits")
    texts = []
    for _chat in range(2):
        draft = DraftState(pristine, generate_cisco)
        draft.inject(fault)
        texts.append(draft.render())
    assert texts[0] == texts[1]
    assert texts[1].startswith("garbage\nhostname r1")
    assert len(cold_memo) == 1
    assert hits.value == 1


def test_equal_but_distinct_pristine_objects_get_separate_entries(cold_memo):
    first, second = RouterConfig(hostname="r1"), RouterConfig(hostname="r1")
    assert first == second
    texts = [DraftState(config, generate_cisco).render() for config in (first, second)]
    assert texts[0] == texts[1]
    assert len(cold_memo) == 2
    assert cold_memo.hits == 0


def test_a_render_whose_transform_raises_stores_nothing(cold_memo):
    def missing_target(config):
        raise FaultTargetError("no such neighbor")

    draft = DraftState(RouterConfig(hostname="r1"), generate_cisco)
    draft.inject(_fault("ghost", ir_transform=missing_target))
    for _attempt in range(2):
        with pytest.raises(FaultTargetError):
            draft.render()
    assert len(cold_memo) == 0
    assert cold_memo.hits == 0


def test_the_memo_never_exceeds_its_bound(cold_memo):
    bound = cold_memo.max_entries
    pristines = [RouterConfig(hostname=f"r{index}") for index in range(bound + 8)]
    for pristine in pristines:
        DraftState(pristine, generate_cisco).render()
        assert len(cold_memo) <= bound
    assert len(cold_memo) == bound
    # The oldest entries were evicted; the newest are still hits.
    DraftState(pristines[-1], generate_cisco).render()
    DraftState(pristines[0], generate_cisco).render()
    assert (cold_memo.hits, cold_memo.misses) == (1, bound + 9)
