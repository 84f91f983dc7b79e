"""Refinements: label-tightening graph homomorphisms between patterns.

A node map is a valid refinement when it is total, maps every edge onto
an edge, and every image label sits at or below the source label in the
shared class hierarchy.  When the text omits the map it is inferred by
the map search of :mod:`nesypat.pattern` (arc-consistency propagation,
then smallest-domain-first branching under a step budget) and must be
unique.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    AmbiguousRefinementError,
    NoRefinementError,
    TaxonomyMismatchError,
)
from .pattern import Pattern, _search
from .taxonomy import ClassRef


class Violation(NamedTuple):
    """One reason a node map fails the refinement conditions."""

    kind: str  # "missing-image" | "edge-not-preserved" | "label-not-below"
    subject: tuple
    message: str

    def __str__(self):
        return self.message


class Refinement(NamedTuple):
    name: str
    source: Pattern
    target: Pattern
    node_map: dict[str, str]

    def __repr__(self):
        return (f"Refinement({self.name!r}: {self.source.name} -> "
                f"{self.target.name})")


def _require_same_taxonomy(src: Pattern, tgt: Pattern) -> None:
    if src.taxonomy != tgt.taxonomy:
        raise TaxonomyMismatchError(
            f"patterns {src.name!r} and {tgt.name!r} use different taxonomies")


def check_refinement(src: Pattern, tgt: Pattern, node_map) -> list[Violation]:
    """Check the three refinement conditions; an empty list means ok.

    Reports every failure: source nodes without an image (or with an
    image that is not a target node), source edges whose image is not a
    target edge, and image labels that are not below the source label.
    """
    _require_same_taxonomy(src, tgt)
    t = src.taxonomy
    violations: list[Violation] = []
    for n in src.sorted_ids:
        img = node_map.get(n)
        if img is None or img not in tgt.labels:
            violations.append(Violation(
                "missing-image", (n,),
                f"source node {n!r} has no image in {tgt.name!r}"))
            continue
        if not t.leq(tgt.labels[img], src.labels[n]):
            violations.append(Violation(
                "label-not-below", (n, img),
                f"label {tgt.labels[img].local_name} of image {img!r} is not "
                f"below {src.labels[n].local_name} of node {n!r}"))
    for a, b in sorted(src.edges):
        ia, ib = node_map.get(a), node_map.get(b)
        if ia is None or ib is None:
            continue  # already reported as missing images
        if (ia, ib) not in tgt.edges:
            violations.append(Violation(
                "edge-not-preserved", (a, b),
                f"edge ({a!r}, {b!r}) maps to ({ia!r}, {ib!r}), "
                f"not an edge of {tgt.name!r}"))
    return violations


def find_homomorphisms(src: Pattern, tgt: Pattern,
                       limit: int | None = None) -> list[dict[str, str]]:
    """Enumerate valid refinement maps from ``src`` into ``tgt``.

    Each source node may go to the target nodes whose label is at or
    below its own; the map search of :mod:`nesypat.pattern` prunes these
    candidates by arc consistency over the source edges and branches on
    the node with the fewest left.  Returns the first ``limit`` maps (all
    when None) in the search's deterministic order, sorted
    lexicographically by the image tuple over sorted source ids.  A
    search that takes more than ``pattern.SEARCH_BUDGET`` (250,000) steps
    stops with SearchBudgetError instead of running on; a step is a
    candidate tried, a domain revised by propagation or a source node of
    a map found, and no test or benchmark document needs a tenth of the
    budget.
    """
    _require_same_taxonomy(src, tgt)
    t = src.taxonomy
    by_label: dict[ClassRef, int] = {}
    for j, m in enumerate(tgt.sorted_ids):
        by_label[tgt.labels[m]] = by_label.get(tgt.labels[m], 0) | 1 << j
    # The label masks are disjoint, so their sum is their union.
    below = {label: sum(mask for tl, mask in by_label.items() if t.leq(tl, label))
             for label in set(src.labels.values())}
    domains = [below[src.labels[n]] for n in src.sorted_ids]
    images = sorted(_search(src, tgt, domains, injective=False, limit=limit))
    return [dict(zip(src.sorted_ids, (tgt.sorted_ids[j] for j in image)))
            for image in images]


def infer_refinement(name: str, src: Pattern, tgt: Pattern) -> Refinement:
    """Find the unique refinement map, failing loudly otherwise."""
    maps = find_homomorphisms(src, tgt, limit=2)
    if not maps:
        raise NoRefinementError(
            f"no refinement from {src.name!r} to {tgt.name!r}")
    if len(maps) > 1:
        shown = "; ".join(_render_map(m) for m in maps[:2])
        raise AmbiguousRefinementError(
            f"refinement from {src.name!r} to {tgt.name!r} is ambiguous, "
            f"e.g. {shown}", witnesses=maps[:2])
    return Refinement(name, src, tgt, maps[0])


def _render_map(m: dict[str, str]) -> str:
    return "{" + ", ".join(f"{a} |-> {b}" for a, b in sorted(m.items())) + "}"
