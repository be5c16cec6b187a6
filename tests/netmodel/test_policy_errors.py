"""PolicyEvaluationError carries its full site on every raise path.

A runtime undefined-reference failure must name the same
(router, route-map, clause) coordinates a ``repro lint``
``undefined-ref`` finding does — whether it surfaces through the
route-by-route evaluator or the prepared batch path.
"""

import pytest

from repro.netmodel.device import RouterConfig
from repro.netmodel.ip import Prefix
from repro.netmodel.route import Route
from repro.netmodel.routing_policy import (
    Action,
    MatchPrefixList,
    PolicyEvaluationError,
    RouteMap,
    RouteMapClause,
)


def _broken_config():
    config = RouterConfig(hostname="R1", vendor="cisco")
    config.route_maps["BROKEN"] = RouteMap(
        name="BROKEN",
        clauses=[
            RouteMapClause(
                seq=10,
                action=Action.PERMIT,
                matches=[MatchPrefixList("NOPE")],
            )
        ],
    )
    return config


def _route():
    return Route(prefix=Prefix.parse("1.2.3.0/24"))


def _assert_full_site(exc: PolicyEvaluationError):
    assert exc.kind == "prefix-list"
    assert exc.name == "NOPE"
    assert exc.router == "R1"
    assert exc.route_map == "BROKEN"
    assert exc.clause_seq == 10
    assert "(router R1, route-map BROKEN, clause 10)" in str(exc)


class TestUnpreparedPath:
    def test_evaluate_names_the_site(self):
        config = _broken_config()
        with pytest.raises(PolicyEvaluationError) as info:
            config.route_maps["BROKEN"].evaluate(_route(), config)
        _assert_full_site(info.value)


class TestPreparedPath:
    def test_prepared_evaluate_names_the_site(self):
        config = _broken_config()
        prepared = config.route_maps["BROKEN"].prepare(config)
        with pytest.raises(PolicyEvaluationError) as info:
            prepared.evaluate(_route())
        _assert_full_site(info.value)

    def test_prepared_find_clause_names_the_site(self):
        config = _broken_config()
        prepared = config.route_maps["BROKEN"].prepare(config)
        with pytest.raises(PolicyEvaluationError) as info:
            prepared.find_clause(_route())
        _assert_full_site(info.value)


class TestAnnotate:
    def test_first_annotation_wins(self):
        exc = PolicyEvaluationError("boom", kind="prefix-list", name="X")
        exc.annotate(router="R1", route_map="M")
        exc.annotate(router="R9", route_map="OTHER", clause_seq=30)
        assert exc.router == "R1"
        assert exc.route_map == "M"
        assert exc.clause_seq == 30  # was still missing: fillable
        assert str(exc) == "boom (router R1, route-map M, clause 30)"

    def test_bare_error_renders_plain_message(self):
        assert str(PolicyEvaluationError("boom")) == "boom"
