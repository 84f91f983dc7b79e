"""Combination of networks: glue patterns along refinements.

All member node sets go into one disjoint-union arena; every refinement
identifies each source node with its image; the union-find classes become
the nodes of the combined pattern.  A class's label is the infimum of its
members' labels, and the combination is undefined when some infimum does
not exist.  Edges are the images of member edges; an edge whose endpoints
were merged into one class would be a self-loop and is an error.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    CyclicCombineError,
    DegenerateLoopError,
    NesyError,
    UndefinedColimitError,
    UnknownNameError,
)
from .library import Library
from .network import Network, validate_network
from .pattern import Pattern
from .taxonomy import ClassRef


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if self.size[ri] < self.size[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.size[ri] += self.size[rj]


class CombinationResult(NamedTuple):
    """The combined pattern plus how each member embeds into it.

    ``injections[p][n]`` is the combined node that member pattern ``p``'s
    node ``n`` maps to; ``classes`` inverts that, giving each combined
    node its set of (pattern name, node id) preimages.
    """

    pattern: Pattern
    injections: dict[str, dict[str, str]]
    classes: dict[str, frozenset[tuple[str, str]]]


def combine(net: Network) -> CombinationResult:
    """Compute the combination of a type-correct network.

    Raises UndefinedColimitError when a merged class has no label
    infimum, and DegenerateLoopError when merging turns a member edge
    into a self-loop.
    """
    validate_network(net)
    arena: list[tuple[str, str]] = []  # (pattern name, node id)
    index: dict[tuple[str, str], int] = {}
    for pname in sorted(net.patterns):
        p = net.patterns[pname]
        for nid in p.sorted_ids:
            index[(pname, nid)] = len(arena)
            arena.append((pname, nid))

    uf = UnionFind(len(arena))
    for rname in sorted(net.refinements):
        r = net.refinements[rname]
        for n, img in sorted(r.node_map.items()):
            uf.union(index[(r.source.name, n)],
                     index[(r.target.name, img)])

    groups: dict[int, list[tuple[str, str]]] = {}
    for i, member in enumerate(arena):
        groups.setdefault(uf.find(i), []).append(member)

    if not net.patterns:
        raise ValueError(f"network {net.name!r} has no member patterns")
    taxonomy = next(iter(net.patterns.values())).taxonomy

    smallest = {root: min(f"{p}.{n}" for p, n in members)
                for root, members in groups.items()}
    class_name: dict[int, str] = {}
    labels: dict[str, ClassRef] = {}
    for root in sorted(groups, key=smallest.__getitem__):
        members = groups[root]
        member_labels = {net.patterns[p].labels[n] for p, n in members}
        inf = taxonomy.infimum(member_labels)
        if inf is None:
            shown = ", ".join(sorted(l.local_name for l in member_labels))
            bounds = taxonomy.maximal_lower_bounds(member_labels)
            why = ("their maximal common lower bounds are "
                   + ", ".join(b.local_name for b in bounds)
                   if bounds else "they have no common lower bound")
            raise UndefinedColimitError(
                f"no infimum of labels {{{shown}}} for merged nodes "
                f"{_render_members(members)}; the combination is not defined: "
                f"{why}",
                members=sorted(members), labels=sorted(member_labels,
                                                       key=lambda l: l.iri))
        name = smallest[root]
        # Dotted names can clash: pattern 'a.b' node 'c' and pattern 'a'
        # node 'b.c' both qualify to 'a.b.c'.
        while name in labels:
            name += "_"
        labels[name] = inf
        class_name[root] = name

    edges: set[tuple[str, str]] = set()
    for pname in sorted(net.patterns):
        p = net.patterns[pname]
        for a, b in sorted(p.edges):
            ra = uf.find(index[(pname, a)])
            rb = uf.find(index[(pname, b)])
            if ra == rb:
                raise DegenerateLoopError(
                    f"edge ({a!r}, {b!r}) of pattern {pname!r} collapses to a "
                    f"self-loop on merged node {_render_members(groups[ra])}",
                    members=sorted(groups[ra]))
            edges.add((class_name[ra], class_name[rb]))

    pattern = Pattern(f"combine({net.name})", taxonomy, labels, frozenset(edges))

    injections: dict[str, dict[str, str]] = {}
    for pname in sorted(net.patterns):
        p = net.patterns[pname]
        injections[pname] = {
            nid: class_name[uf.find(index[(pname, nid)])]
            for nid in p.sorted_ids
        }
    classes = {class_name[root]: frozenset(members)
               for root, members in groups.items()}
    return CombinationResult(pattern, injections, classes)


def evaluate_combines(lib: Library) -> Library:
    """Materialize every combine-defined pattern of a library.

    Combine-definitions are evaluated in dependency order (a definition
    depends on the combine-defined members of its network); cyclic
    dependencies raise CyclicCombineError.  Errors raised while combining
    name the failing pattern in ``decl`` and as a message prefix.  The
    input library is left unchanged.
    """
    patterns = dict(lib.patterns)
    _evaluate(lib, lib.combine_defs, patterns)
    return Library(dict(lib.taxonomies), patterns, dict(lib.refinements),
                   dict(lib.networks), dict(lib.combine_defs))


def combination_result(lib: Library, name: str) -> CombinationResult:
    """Combine the network behind one combine-defined pattern.

    Any combine-defined patterns its network depends on are materialized
    first; the returned result carries the injections and preimage
    classes of the final combination.
    """
    if name not in lib.combine_defs:
        raise UnknownNameError(f"pattern {name!r} is not combine-defined")
    patterns = {k: p for k, p in lib.patterns.items() if k != name}
    return _evaluate(lib, (name,), patterns)


def _evaluate(lib: Library, names,
              patterns: dict[str, Pattern]) -> CombinationResult | None:
    """Combine the combine-defined ``names`` and, first, every
    combine-defined pattern they depend on, each once, storing each
    combined pattern in ``patterns``.

    A name already in ``patterns`` counts as materialized and is skipped.
    The walk is a name-sorted depth-first post-order on an explicit
    stack; the whole order is fixed, and cycles reported, before the
    first combination.  Returns the last combination computed, if any.
    """
    order: list[str] = []
    on_stack: set[str] = set()
    finished: set[str] = set()
    for root in sorted(names):
        if root in patterns or root in finished:
            continue
        stack = [(root, iter(_dependencies(lib, root)))]
        on_stack.add(root)
        while stack:
            name, deps = stack[-1]
            for d in deps:
                if d in patterns or d in finished:
                    continue
                if d in on_stack:
                    cycle = " -> ".join([n for n, _ in stack] + [d])
                    raise CyclicCombineError(
                        f"cyclic combine-definitions: {cycle}")
                on_stack.add(d)
                stack.append((d, iter(_dependencies(lib, d))))
                break
            else:
                stack.pop()
                on_stack.discard(name)
                finished.add(name)
                order.append(name)

    result = None
    for name in order:
        netname = lib.combine_defs[name]
        if netname not in lib.networks:
            raise UnknownNameError(
                f"combine-defined pattern {name!r} references unknown "
                f"network {netname!r}")
        try:
            result = combine(_refresh_members(lib.networks[netname], patterns))
        except NesyError as e:
            raise e.in_decl(name)
        p = result.pattern
        result = result._replace(
            pattern=Pattern(name, p.taxonomy, p.labels, p.edges))
        patterns[name] = result.pattern
    return result


def _dependencies(lib: Library, name: str) -> list[str]:
    """The combine-defined patterns the network behind ``name`` uses, sorted."""
    net = lib.networks.get(lib.combine_defs[name])
    if net is None:
        return []
    used = set(net.patterns)
    for r in net.refinements.values():
        used.update((r.source.name, r.target.name))
    used.discard(name)
    return sorted(used.intersection(lib.combine_defs))


def _refresh_members(net: Network, patterns: dict[str, Pattern]) -> Network:
    """Swap member patterns for their current library versions by name."""
    return Network(
        net.name,
        {name: patterns.get(name, p) for name, p in net.patterns.items()},
        {name: r._replace(source=patterns.get(r.source.name, r.source),
                          target=patterns.get(r.target.name, r.target))
         for name, r in net.refinements.items()})


def _render_members(members) -> str:
    return "{" + ", ".join(f"{p}.{n}" for p, n in sorted(members)) + "}"
