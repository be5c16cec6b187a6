"""Input-space constraints for symbolic route-policy questions.

A :class:`RouteConstraint` describes the set of candidate route
advertisements a question ranges over — the same role as the
``inputConstraints`` argument of Batfish's SearchRoutePolicies question.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from ..netmodel.communities import Community
from ..netmodel.ip import PrefixRange
from ..netmodel.route import Protocol, Route

__all__ = ["RouteConstraint"]


@dataclass(frozen=True)
class RouteConstraint:
    """A predicate over routes, conjunctive across fields.

    * ``prefix_ranges`` — if non-empty, the route's prefix must match at
      least one range (disjunction within the field);
    * ``required_communities`` — all must be carried;
    * ``forbidden_communities`` — none may be carried;
    * ``protocol`` — if set, the route's source protocol must equal it.
    """

    prefix_ranges: Tuple[PrefixRange, ...] = ()
    required_communities: FrozenSet[Community] = frozenset()
    forbidden_communities: FrozenSet[Community] = frozenset()
    protocol: Optional[Protocol] = None

    @classmethod
    def any_route(cls) -> "RouteConstraint":
        """The unconstrained input space."""
        return cls()

    @classmethod
    def with_community(cls, community: Community) -> "RouteConstraint":
        """Routes that carry ``community`` (the §4 semantic question)."""
        return cls(required_communities=frozenset({community}))

    def admits(self, route: Route) -> bool:
        """Whether a concrete route lies in the constrained space."""
        if self.prefix_ranges and not any(
            item.matches(route.prefix) for item in self.prefix_ranges
        ):
            return False
        if not self.required_communities <= route.communities:
            return False
        if self.forbidden_communities & route.communities:
            return False
        if self.protocol is not None and route.protocol != self.protocol:
            return False
        return True
