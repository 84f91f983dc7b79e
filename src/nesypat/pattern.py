"""Patterns: simple directed graphs whose nodes carry ontology classes."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush

from .errors import (
    DuplicateNodeError,
    SearchBudgetError,
    SelfLoopError,
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


@dataclass(frozen=True)
class PatternNode:
    id: str
    label: ClassRef


@dataclass(frozen=True)
class Pattern:
    """A named simple directed graph with class-labeled nodes.

    Simple means: no parallel edges (edges form a set) and no self-loops.
    Instances are immutable; construct through :func:`build_pattern`,
    which validates the invariants.
    """

    name: str
    taxonomy: Taxonomy
    nodes: frozenset[PatternNode]
    edges: frozenset[tuple[str, str]]

    @cached_property
    def labels(self) -> dict[str, ClassRef]:
        return {n.id: n.label for n in self.nodes}

    @cached_property
    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.labels))

    def label_of(self, node_id: str) -> ClassRef:
        try:
            return self.labels[node_id]
        except KeyError:
            raise UnknownNodeError(
                f"pattern {self.name!r} has no node {node_id!r}") from None

    def __repr__(self):
        return (f"Pattern({self.name!r}, {len(self.nodes)} nodes, "
                f"{len(self.edges)} edges)")


def build_pattern(name: str, taxonomy: Taxonomy, node_decls, edge_decls) -> Pattern:
    """Construct a validated Pattern.

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
    nodes = frozenset(PatternNode(i, l) for i, l in labels.items())
    return Pattern(name, taxonomy, nodes, frozenset(edges))


def isomorphic(p: Pattern, q: Pattern) -> bool:
    """True iff some bijection of node sets preserves labels and edges
    exactly, in both directions.  Node ids play no role.

    Each node of ``p`` may only go to the nodes of ``q`` with its label,
    out-degree and in-degree.  An injective edge-preserving map between
    patterns with equal node and edge counts is such a bijection.
    """
    if len(p.nodes) != len(q.nodes) or len(p.edges) != len(q.edges):
        return False
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
