"""Tests for behavioural policy comparison (the Campion core)."""

import copy


from repro.netmodel import (
    Action,
    MatchPrefixList,
    Prefix,
    PrefixList,
    PrefixRange,
    Protocol,
    RouteMap,
    RouteMapClause,
    RouterConfig,
    SetMed,
)
from repro.symbolic import (
    DifferenceKind,
    RouteConstraint,
    compare_policies,
)


def _policy_pair():
    """Original permits 1.2.3.0/24 ge 24 with MED 50; copy is identical."""
    config = RouterConfig(hostname="a")
    plist = PrefixList("nets")
    plist.add("permit", PrefixRange(Prefix.parse("1.2.3.0/24"), 24, 32))
    config.add_prefix_list(plist)
    rm = RouteMap("to_provider")
    clause = RouteMapClause(seq=10, action=Action.PERMIT)
    clause.matches.append(MatchPrefixList("nets"))
    clause.sets.append(SetMed(50))
    rm.add_clause(clause)
    config.add_route_map(rm)
    other = copy.deepcopy(config)
    return config, rm, other, other.get_route_map("to_provider")


class TestComparePolicies:
    def test_identical_policies_have_no_differences(self):
        config, rm, other, other_rm = _policy_pair()
        assert compare_policies(config, rm, other, other_rm) == []

    def test_dropped_ge_found_at_longer_prefix(self):
        """The paper's prefix-length bug: translation matches only the
        exact /24, so a /25 shows the disposition difference."""
        config, rm, other, other_rm = _policy_pair()
        other.prefix_lists["nets"].entries[0] = (
            other.prefix_lists["nets"].entries[0].__class__(
                seq=5,
                action="permit",
                range=PrefixRange.exact(Prefix.parse("1.2.3.0/24")),
            )
        )
        differences = compare_policies(config, rm, other, other_rm)
        assert differences
        disposition = [
            d for d in differences if d.kind is DifferenceKind.DISPOSITION
        ]
        assert disposition
        witness = disposition[0]
        assert witness.route.prefix.length > 24
        assert witness.original_action is Action.PERMIT
        assert witness.translated_action is Action.DENY

    def test_med_difference_reported_as_transform(self):
        config, rm, other, other_rm = _policy_pair()
        other_rm.clauses[0].sets = []
        differences = compare_policies(config, rm, other, other_rm)
        transforms = [
            d
            for d in differences
            if d.kind is DifferenceKind.ATTRIBUTE_TRANSFORM
        ]
        assert transforms
        assert "MED" in transforms[0].detail

    def test_constraint_restricts_space(self):
        config, rm, other, other_rm = _policy_pair()
        # Break the translation only for OSPF routes...
        guard = RouteMapClause(seq=5, action=Action.DENY)
        from repro.netmodel import MatchProtocol

        guard.matches.append(MatchProtocol(Protocol.OSPF))
        other_rm.add_clause(guard)
        # ...then compare only over the BGP space: no difference visible.
        constraint = RouteConstraint(protocol=Protocol.BGP)
        assert compare_policies(
            config, rm, other, other_rm, constraint=constraint
        ) == []
        # Unconstrained, the difference appears.
        assert compare_policies(config, rm, other, other_rm)

    def test_limit_respected(self):
        config, rm, other, other_rm = _policy_pair()
        other_rm.clauses = []  # denies everything
        differences = compare_policies(config, rm, other, other_rm, limit=2)
        assert len(differences) <= 2

    def test_unresolvable_translation_reported(self):
        config, rm, other, other_rm = _policy_pair()
        other.prefix_lists = {}
        differences = compare_policies(config, rm, other, other_rm)
        assert differences
        assert "failed to evaluate" in differences[0].detail
