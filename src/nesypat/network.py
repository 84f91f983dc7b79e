"""Networks: diagrams of patterns linked by refinements."""

from __future__ import annotations

from typing import NamedTuple

from .errors import NetworkTypeError, TaxonomyMismatchError, UnknownNameError
from .pattern import Pattern
from .refinement import Refinement


class Network(NamedTuple):
    """A set of member patterns plus refinements between them.

    Every refinement's source and target must be members, and all member
    patterns must share one taxonomy (equal classes, subclass edges and
    top).  Both maps are keyed by name in sorted order, so membership is
    independent of how the members were listed.
    """

    name: str
    patterns: dict[str, Pattern]
    refinements: dict[str, Refinement]

    def __repr__(self):
        return (f"Network({self.name!r}, {len(self.patterns)} patterns, "
                f"{len(self.refinements)} refinements)")


def build_network(name: str, members, lib) -> Network:
    """Resolve a member-name list against a library into a Network.

    A listed refinement pulls in its source and target patterns even when
    they are not listed themselves.  Duplicate names and listing order do
    not matter.
    """
    patterns: dict[str, Pattern] = {}
    refinements: dict[str, Refinement] = {}
    for member in members:
        if member in lib.refinements:
            refinements[member] = lib.refinements[member]
        elif lib.has_pattern(member):
            patterns[member] = lib.pattern(member)
        else:
            raise UnknownNameError(
                f"network {name!r} lists unknown member {member!r}")
    for r in refinements.values():
        patterns.setdefault(r.source.name, r.source)
        patterns.setdefault(r.target.name, r.target)
    return validate_network(Network(
        name,
        {k: patterns[k] for k in sorted(patterns)},
        {k: refinements[k] for k in sorted(refinements)},
    ))


def validate_network(net: Network) -> Network:
    """Check the membership and shared-taxonomy invariants."""
    members = list(net.patterns.values())
    for rname, r in net.refinements.items():
        for p in (r.source, r.target):
            if net.patterns.get(p.name) != p:
                raise NetworkTypeError(
                    f"refinement {rname!r} in network {net.name!r} touches "
                    f"a pattern {p.name!r} that is not the member of that name")
    if members:
        first = members[0]
        for p in members[1:]:
            if p.taxonomy != first.taxonomy:
                raise TaxonomyMismatchError(
                    f"patterns {first.name!r} and {p.name!r} in network "
                    f"{net.name!r} use different taxonomies")
    return net
