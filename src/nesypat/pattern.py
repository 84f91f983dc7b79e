"""Patterns, simple directed graphs whose nodes carry ontology classes,
and refinements, label-tightening graph homomorphisms between them.

A refinement's node map is total, maps every edge onto an edge, and
puts every image label at or below its source label.  A map the text
omits is inferred by the map search ``_search`` and must be unique.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .errors import (
    AmbiguousRefinementError,
    DuplicateNodeError,
    NoRefinementError,
    SearchBudgetError,
    SelfLoopError,
    TaxonomyMismatchError,
    UnknownLabelError,
    UnknownNodeError,
)
from .taxonomy import ClassRef, Taxonomy

#: Most steps one map search may take after its root propagation before
#: it stops with SearchBudgetError.  A step is a candidate tried at a
#: choice point, a domain that propagation revises from, or a source node
#: written into a found map, so the budget bounds the branching, the work
#: between choices and the maps kept.  Benchmark documents take at most
#: 56 steps and the tests at most 20,002 (a 5000-node chain into a
#: 2-cycle, both maps); a pigeonhole search such as K9 into K8 runs out
#: of it in about a second.
SEARCH_BUDGET = 250_000


class Pattern:
    """A named simple directed graph with class-labeled nodes.

    Simple means: no parallel edges (edges form a set) and no self-loops.
    Instances are immutable.  The constructor checks nothing: input that
    nothing has checked goes through :func:`build_pattern`, which does,
    while ``dsl.resolve`` and ``colimit.combine`` call it directly on
    nodes and edges they have checked.  ``labels`` maps each node id to
    its class and is the one node map, kept as the dict given; ``nodes``
    is its view of (id, class) pairs, kept for callers that count nodes.
    Two patterns are equal when their name, taxonomy, labels and edges
    are.  ``sorted_ids`` lists the ids in order.
    """

    __slots__ = ("name", "taxonomy", "labels", "edges", "sorted_ids")

    name: str
    taxonomy: Taxonomy
    labels: dict[str, ClassRef]
    edges: frozenset[tuple[str, str]]
    sorted_ids: tuple[str, ...]

    def __init__(self, name: str, taxonomy: Taxonomy,
                 labels: dict[str, ClassRef], edges: frozenset[tuple[str, str]]):
        for attr, value in (("name", name), ("taxonomy", taxonomy),
                            ("labels", labels), ("edges", edges),
                            ("sorted_ids", tuple(sorted(labels)))):
            object.__setattr__(self, attr, value)

    def __setattr__(self, name, value):
        raise AttributeError("Pattern is immutable")

    def __reduce__(self):  # copy and pickle through the constructor
        return Pattern, (self.name, self.taxonomy, self.labels, self.edges)

    @property
    def nodes(self):
        return self.labels.items()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Tuples compare items by identity first, so a shared taxonomy is
        # not compared class by class.
        return ((self.name, self.taxonomy, self.labels, self.edges)
                == (other.name, other.taxonomy, other.labels, other.edges))

    def __hash__(self):
        return hash((self.name, self.taxonomy, frozenset(self.labels.items()),
                     self.edges))

    def __repr__(self):
        return (f"Pattern({self.name!r}, {len(self.labels)} nodes, "
                f"{len(self.edges)} edges)")


def build_pattern(name: str, taxonomy: Taxonomy, node_decls, edge_decls) -> Pattern:
    """Construct a validated Pattern from input nothing has checked yet.

    ``node_decls`` is an iterable of (node id, ClassRef); re-declaring an
    id with the same label is idempotent, with a different label it is a
    DuplicateNodeError.  Duplicate edges are deduplicated silently;
    self-loops and undeclared endpoints are errors.
    """
    labels: dict[str, ClassRef] = {}
    for node_id, label in node_decls:
        if label not in taxonomy:
            raise UnknownLabelError(
                f"label {label.local_name!r} is not a class of the taxonomy")
        if node_id in labels and labels[node_id] != label:
            raise DuplicateNodeError(
                f"node id {node_id!r} reused with a different label "
                f"({labels[node_id].local_name} vs {label.local_name})")
        labels[node_id] = label
    edges = set()
    for a, b in edge_decls:
        if a == b:
            raise SelfLoopError(f"self-loop on node {a!r}")
        for endpoint in (a, b):
            if endpoint not in labels:
                raise UnknownNodeError(f"edge endpoint {endpoint!r} is not a node")
        edges.add((a, b))
    return Pattern(name, taxonomy, labels, frozenset(edges))


def isomorphic(p: Pattern, q: Pattern) -> bool:
    """True iff some bijection of node sets preserves labels and edges
    exactly, in both directions.  Node ids play no role in the answer.

    The identity on node ids is tried first: when both patterns have the
    same edges and each node id labeled by the same class in both, it is
    such a bijection, found in O(n + m) without a search.  Patterns read
    back from ``emit_dsl`` keep their ids, so a round trip ends here.
    Otherwise each node of ``p`` may only go to the nodes of ``q`` with
    its label, out-degree and in-degree, and the map search looks for an
    injective edge-preserving map, which between patterns with equal
    node and edge counts is such a bijection.
    """
    if len(p.labels) != len(q.labels) or len(p.edges) != len(q.edges):
        return False
    if p.edges == q.edges and p.labels == q.labels:
        return True
    buckets: dict[tuple, int] = {}
    for j, sig in enumerate(_signatures(q)):
        buckets[sig] = buckets.get(sig, 0) | 1 << j
    sigs = _signatures(p)
    if any(buckets.get(sig, 0).bit_count() != count
           for sig, count in Counter(sigs).items()):
        return False
    domains = [buckets[sig] for sig in sigs]
    return bool(_search(p, q, domains, injective=True, limit=1))


def _signatures(pat: Pattern) -> list[tuple[str, int, int]]:
    """(label IRI, out-degree, in-degree) of each node, over ``sorted_ids``."""
    out = Counter(a for a, _ in pat.edges)
    inc = Counter(b for _, b in pat.edges)
    return [(pat.labels[i].iri, out[i], inc[i]) for i in pat.sorted_ids]


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
    below its own; the map search ``_search`` prunes these
    candidates by arc consistency over the source edges and branches on
    the node with the fewest left.  Returns the first ``limit`` maps (all
    when None) in the search's deterministic order, sorted
    lexicographically by the image tuple over sorted source ids.  A
    search that takes more than ``SEARCH_BUDGET`` (250,000) steps
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


def _search(p: Pattern, q: Pattern, domains: list[int], *, injective: bool,
            limit: int | None) -> list[tuple[int, ...]]:
    """Maps from ``p`` into ``q`` that send every edge onto an edge and
    node ``i`` of ``p.sorted_ids`` into ``domains[i]``, a bitset over
    ``q.sorted_ids``; one-to-one when ``injective``.

    Domains are made arc consistent over ``p``'s edges (AC-3, Mackworth
    1977) before the search and after every choice, revising from the
    smallest changed domain first; a domain of one node is an assignment.
    Each choice goes to an unassigned node with the fewest candidates
    (lowest index on ties) and tries them in index order.  The search
    runs on an explicit stack and undoes domain changes from a trail.
    Returns the first ``limit`` maps found (all when None) as tuples of
    image indices, and raises SearchBudgetError once the candidates tried,
    the domains revised after the root propagation and the nodes of the
    maps found number more than SEARCH_BUDGET.
    """
    if limit is not None and limit < 1:
        return []
    n = len(domains)
    p_index = {i: k for k, i in enumerate(p.sorted_ids)}
    q_index = {j: k for k, j in enumerate(q.sorted_ids)}
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for a, b in p.edges:
        succ[p_index[a]].append(p_index[b])
        pred[p_index[b]].append(p_index[a])
    q_out = [0] * len(q_index)
    q_in = [0] * len(q_index)
    for a, b in q.edges:
        q_out[q_index[a]] |= 1 << q_index[b]
        q_in[q_index[b]] |= 1 << q_index[a]

    # dom[n] holds the images already taken, so the trail undoes it too.
    dom = list(domains) + [0]
    trail: list[tuple[int, int]] = []
    # Unassigned nodes keyed by domain size; stale entries are skipped.
    heap = [(d.bit_count(), k) for k, d in enumerate(domains)
            if d.bit_count() > 1]
    heapify(heap)

    steps = 0

    def spend(count: int = 1) -> None:
        nonlocal steps
        steps += count
        if steps > SEARCH_BUDGET:
            raise SearchBudgetError(
                f"search for a map from {p.name!r} to {q.name!r} gave up "
                f"after {SEARCH_BUDGET} steps")

    def propagate(work: list, counted: bool = True) -> bool:
        while work:
            size, k = heappop(work)
            d = dom[k]
            if size != d.bit_count():
                continue
            if counted:
                spend()
            if size == 1 and injective:
                if d & dom[n]:
                    return False
                trail.append((n, dom[n]))
                dom[n] |= d
            for nbrs, masks in ((succ[k], q_out), (pred[k], q_in)):
                if not nbrs:
                    continue
                support, rest = 0, d
                while rest:
                    low = rest & -rest
                    support |= masks[low.bit_length() - 1]
                    rest ^= low
                for w in nbrs:
                    new = dom[w] & support
                    if new != dom[w]:
                        if not new:
                            return False
                        trail.append((w, dom[w]))
                        dom[w] = new
                        count = new.bit_count()
                        heappush(work, (count, w))
                        if count > 1:
                            heappush(heap, (count, w))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            k, old = trail.pop()
            dom[k] = old
            count = old.bit_count()
            if k < n and count > 1:
                heappush(heap, (count, k))

    if not all(domains):
        return []
    work = [(d.bit_count(), k) for k, d in enumerate(domains)]
    heapify(work)
    if not propagate(work, counted=False):
        return []
    trail.clear()

    results: list[tuple[int, ...]] = []
    stack: list[list[int]] = []  # [node, untried candidates, trail mark]
    while True:  # the domains are arc consistent here
        while heap and heap[0][0] != dom[heap[0][1]].bit_count():
            heappop(heap)
        if heap:
            k = heappop(heap)[1]
            untried = dom[k] & ~dom[n] if injective else dom[k]
            stack.append([k, untried, len(trail)])
        else:
            spend(n)
            results.append(tuple(d.bit_length() - 1 for d in dom[:n]))
            if len(results) == limit:
                return results
        while True:  # take the next candidate that propagates cleanly
            if not stack:
                return results
            frame = stack[-1]
            k, untried, mark = frame
            undo(mark)
            if not untried:
                # Back on the heap: an injective choice can run out of
                # images before trying any, and then no undo restores it.
                heappush(heap, (dom[k].bit_count(), k))
                stack.pop()
                continue
            value = untried & -untried
            frame[1] = untried ^ value
            spend()
            trail.append((k, dom[k]))
            dom[k] = value
            if propagate([(1, k)]):
                break
