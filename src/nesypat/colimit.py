"""Networks, the libraries that declare them, and their combination.

A ``Network`` is a diagram: member patterns over one taxonomy plus
refinements between them.  A ``Library`` holds everything one resolved
document declares, networks and the combine-definitions that name them
included.  ``combine`` glues a network's patterns along its refinements.

All member node sets go into one disjoint-union arena; every refinement
identifies each source node with its image; the union-find classes become
the nodes of the combined pattern.  A class's label is the infimum of its
members' labels, and the combination is undefined when some infimum does
not exist.  Edges are the images of member edges; an edge whose endpoints
were merged into one class would be a self-loop and is an error.

A combined node keeps a member's own node id, as Hets keeps the names of
colimit symbols.  Each class is named by its namer, the member ``(p, n)``
with the smallest qualified name ``p.n`` (then the smaller pair): a
singleton by its node, a merged class by one of its members.  The class
takes the namer's id, the very ``str`` that member holds.  Only where
several classes would take one id does the first of them, in the order
of their namers, keep it; the others take ``id_2``, ``id_3``, ... in
that order, passing over every id some class takes as its own.  So ids
of members that ``parse`` accepts give combined ids it accepts, and an
id is never longer than a member's plus a suffix.  A member edge whose
ends both keep their ids goes into the combined pattern as the member's
own tuple.
"""

from __future__ import annotations

from typing import NamedTuple, NoReturn

from .errors import (
    DegenerateLoopError,
    NesyError,
    NetworkTypeError,
    TaxonomyMismatchError,
    UndefinedColimitError,
    UnknownClassError,
    UnknownNameError,
)
from .pattern import Pattern, Refinement
from .taxonomy import ClassRef, Taxonomy


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


def build_network(name: str, members, lib: Library) -> Network:
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


class Library:
    """Resolved content of one document.

    ``taxonomies`` is keyed by the normalized ontology-reference text of
    the data clauses that produced each taxonomy.  ``combine_defs`` maps a
    pattern name to the network it combines.  A combine-defined name that
    is also in ``patterns`` counts as materialized; ``pattern()``
    materializes one into ``patterns`` on first use, combining its network
    once with the member patterns it holds, as resolving does for every
    combine-defined pattern a later declaration references.
    ``evaluate_combines`` materializes all of them, in name order, into
    a copy.  Each map defaults to a new empty dict.
    """

    __slots__ = ("taxonomies", "patterns", "refinements", "networks",
                 "combine_defs")

    def __init__(self, taxonomies: dict[str, Taxonomy] | None = None,
                 patterns: dict[str, Pattern] | None = None,
                 refinements: dict[str, Refinement] | None = None,
                 networks: dict[str, Network] | None = None,
                 combine_defs: dict[str, str] | None = None):
        self.taxonomies = {} if taxonomies is None else taxonomies
        self.patterns = {} if patterns is None else patterns
        self.refinements = {} if refinements is None else refinements
        self.networks = {} if networks is None else networks
        self.combine_defs = {} if combine_defs is None else combine_defs

    def __repr__(self):
        return (f"Library({len(self.patterns)} patterns, "
                f"{len(self.refinements)} refinements, "
                f"{len(self.networks)} networks, "
                f"{len(self.combine_defs)} combine-defined)")

    def has_pattern(self, name: str) -> bool:
        return name in self.patterns or name in self.combine_defs

    def pattern(self, name: str) -> Pattern:
        if name not in self.patterns and name in self.combine_defs:
            self.patterns[name] = _combine_def(self, name)[0]
        try:
            return self.patterns[name]
        except KeyError:
            raise UnknownNameError(f"unknown pattern {name!r}") from None


class CombinationResult(NamedTuple):
    """The combined pattern plus how each member embeds into it.

    ``injections[p][n]`` is the combined node that member pattern ``p``'s
    node ``n`` maps to; ``classes`` inverts that, giving each combined
    node its set of (pattern name, node id) preimages.  A combined node
    is named by one of its preimages' own id, numbered ``_2``, ``_3``,
    ... only where another class took that id first (see the module
    docstring).
    """

    pattern: Pattern
    injections: dict[str, dict[str, str]]
    classes: dict[str, frozenset[tuple[str, str]]]


def combine(net: Network, name: str | None = None) -> CombinationResult:
    """Compute the combination of a type-correct network, a pattern
    named ``name`` (``combine(<network name>)`` when None).

    Each combined node keeps the id of its namer, the preimage with the
    smallest qualified name ``p.n``, and shares that member's ``str``;
    classes that would share an id are numbered ``id_2``, ``id_3``, ...
    after the first, and a member edge whose ends keep their ids is
    shared as the member's tuple.

    Raises UndefinedColimitError when a merged class has no label
    infimum, and DegenerateLoopError when merging turns a member edge
    into a self-loop; when several classes or edges fail, the error is
    the one of the class whose namer's qualified name is smallest, or
    of the smallest (pattern, edge).
    """
    pattern, embedding = _combine(net, name)
    return CombinationResult(pattern, *embedding())


def _combine(net: Network, name: str | None):
    """The combined pattern of ``combine`` and a function that builds
    its ``injections`` and ``classes``, which only a CombinationResult
    holds."""
    validate_network(net)
    if not net.patterns:
        raise ValueError(f"network {net.name!r} has no member patterns")
    taxonomy = next(iter(net.patterns.values())).taxonomy

    # The arena: member patterns by name, each one's nodes by id.  Arena
    # node k is member owner[k]'s node ids[k], the str that member holds,
    # labeled node_labels[k]; index maps pattern p's node n to its arena
    # node, in arena order.
    ids: list[str] = []
    owner: list[str] = []
    node_labels: list[ClassRef] = []
    index: dict[str, dict[str, int]] = {}
    for pname in sorted(net.patterns):
        p = net.patterns[pname]
        p_ids = p.sorted_ids
        index[pname] = dict(zip(p_ids, range(len(ids), len(ids) + len(p_ids))))
        ids += p_ids
        owner += [pname] * len(p_ids)
        node_labels += map(p.labels.__getitem__, p_ids)

    # Union-find with path halving; a class is rooted at its first arena
    # node, so root[k] <= k, and one forward pass then roots every node.
    root = list(range(len(ids)))
    merged: set[int] = set()  # a root is in it iff its class is merged
    for r in net.refinements.values():
        src, tgt = index[r.source.name], index[r.target.name]
        for n, img in r.node_map.items():
            i, j = src[n], tgt[img]
            while root[i] != i:
                root[i] = i = root[root[i]]
            while root[j] != j:
                root[j] = j = root[root[j]]
            if i != j:
                i, j = (i, j) if i < j else (j, i)
                root[j] = i
                merged.add(i)
    for k, p in enumerate(root):
        root[k] = root[p]

    # The classes by root, in arena order.  A singleton is its own namer,
    # and a merged class's namer is namer[root] (see the module
    # docstring).  A class's label, by root, is None when it is not
    # defined: a singleton keeps its label as the taxonomy's own class,
    # and a merged class takes the infimum of its members' labels.
    def qualified(k: int) -> str:
        return f"{owner[k]}.{ids[k]}"

    refs, class_id = taxonomy._refs, taxonomy._index
    roots: list[int] = []
    label: list[ClassRef | None] = [None] * len(root)
    groups: dict[int, list[int]] = {}  # merged classes, members in arena order
    for k, r in enumerate(root):
        if r in merged:
            if r in groups:
                groups[r].append(k)
                continue
            groups[r] = [k]
        else:
            i = class_id.get(node_labels[k].iri)
            if i is not None:
                label[r] = refs[i]
        roots.append(r)
    namer: dict[int, int] = {}
    for r, group in groups.items():
        namer[r] = min(group, key=qualified)
        try:
            label[r] = taxonomy.infimum({node_labels[k] for k in group})
        except UnknownClassError:
            pass

    def first(r: int) -> tuple[str, int]:  # the order of classes
        k = namer.get(r, r)
        return qualified(k), k

    failed = [r for r in roots if label[r] is None]
    if failed:
        r = min(failed, key=first)
        group = groups.get(r, [r])
        _raise_undefined(taxonomy, [(owner[k], ids[k]) for k in group],
                         {node_labels[k] for k in group})

    # Each class takes its namer's id; where classes share one, all but
    # the first are numbered.  Numbered ids of two different ids never
    # meet, as the digits after the last '_' give both apart.
    names = ids.copy()  # by root, the class's name
    for r, k in namer.items():
        names[r] = ids[k]
    labels = {names[r]: label[r] for r in roots}
    suffixed: list[int] = []
    if len(labels) < len(roots):
        sharing: dict[str, list[int]] = {}
        for r in roots:
            sharing.setdefault(names[r], []).append(r)
        for nid, rs in sharing.items():
            suffix = 1
            for r in sorted(rs, key=first)[1:]:
                suffix += 1
                while f"{nid}_{suffix}" in sharing:
                    suffix += 1
                names[r] = f"{nid}_{suffix}"
                suffixed.append(r)
        labels = {names[r]: label[r] for r in roots}

    # A member edge keeps its own tuple unless an end is renamed: its
    # class is named otherwise than the node, which only a merged or a
    # suffixed class can be.
    renamed: dict[str, dict[str, str]] = {}  # by member, node to class name
    for r in (*groups, *suffixed):
        for k in groups.get(r, (r,)):
            if ids[k] != names[r]:
                renamed.setdefault(owner[k], {})[ids[k]] = names[r]
    edges: set[tuple[str, str]] = set()
    for pname, p in net.patterns.items():
        moved = renamed.get(pname)
        if moved is None:
            edges.update(p.edges)
            continue
        touched = [e for e in p.edges if e[0] in moved or e[1] in moved]
        edges.update(p.edges.difference(touched))
        edges.update([(moved.get(a, a), moved.get(b, b)) for a, b in touched])
    if any((names[r], names[r]) in edges for r in groups):  # a self-loop
        pname, a, b = min((pname, a, b) for pname, pos in index.items()
                          for a, b in net.patterns[pname].edges
                          if root[pos[a]] == root[pos[b]])
        loop = [(owner[k], ids[k]) for k in groups[root[index[pname][a]]]]
        raise DegenerateLoopError(
            f"edge ({a!r}, {b!r}) of pattern {pname!r} collapses to a "
            f"self-loop on merged node {_render_members(loop)}",
            members=sorted(loop))

    # A copy: a frozenset grown from a generator can keep twice the slots.
    pattern = Pattern(f"combine({net.name})" if name is None else name,
                      taxonomy, labels, frozenset(edges))

    def embedding():
        class_name = [names[r] for r in root]  # by arena node
        injections = {pname: dict(zip(pos, map(class_name.__getitem__, pos.values())))
                      for pname, pos in index.items()}
        members = list(zip(owner, ids))
        classes = {names[r]: frozenset(map(members.__getitem__,
                                           groups.get(r, (r,))))
                   for r in roots}
        return injections, classes

    return pattern, embedding


def _raise_undefined(taxonomy: Taxonomy, members: list[tuple[str, str]],
                     member_labels: set[ClassRef]) -> NoReturn:
    """Raise the error of a class whose label is not defined: the
    taxonomy's own for an unknown label, else UndefinedColimitError."""
    bounds = taxonomy.maximal_lower_bounds(member_labels)  # or raises
    shown = ", ".join(sorted(l.local_name for l in member_labels))
    why = ("their maximal common lower bounds are "
           + ", ".join(b.local_name for b in bounds)
           if bounds else "they have no common lower bound")
    raise UndefinedColimitError(
        f"no infimum of labels {{{shown}}} for merged nodes "
        f"{_render_members(members)}; the combination is not defined: "
        f"{why}",
        members=sorted(members), labels=sorted(member_labels,
                                               key=lambda l: l.iri))


def evaluate_combines(lib: Library) -> Library:
    """Materialize every combine-defined pattern of a library.

    Each combine-defined name not already in ``patterns`` is combined
    once, in name order, from the member patterns its network holds: in
    a resolved library these are the library's own pattern objects, as
    resolving materializes a combine-defined member before the network
    that lists it.  Errors raised while combining name the failing
    pattern in ``decl`` and as a message prefix.  The input library is
    left unchanged.
    """
    out = Library(dict(lib.taxonomies), dict(lib.patterns),
                  dict(lib.refinements), dict(lib.networks),
                  dict(lib.combine_defs))
    for name in sorted(lib.combine_defs):
        out.pattern(name)
    return out


def combination_result(lib: Library, name: str) -> CombinationResult:
    """Combine the network behind one combine-defined pattern, with the
    member patterns it holds, and return the combination with its
    injections and preimage classes."""
    if name not in lib.combine_defs:
        raise UnknownNameError(f"pattern {name!r} is not combine-defined")
    pattern, embedding = _combine_def(lib, name)
    return CombinationResult(pattern, *embedding())


def _combine_def(lib: Library, name: str):
    """What ``_combine`` gives for the network behind the combine-defined
    ``name``; an error raised while combining names ``name`` in ``decl``."""
    netname = lib.combine_defs[name]
    if netname not in lib.networks:
        raise UnknownNameError(
            f"combine-defined pattern {name!r} references unknown "
            f"network {netname!r}")
    try:
        return _combine(lib.networks[netname], name)
    except NesyError as e:
        raise e.in_decl(name)


def _render_members(members) -> str:
    return "{" + ", ".join(f"{p}.{n}" for p, n in sorted(members)) + "}"
