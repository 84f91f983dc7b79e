"""Serializers: DOT graphs, stable JSON, ABox facts and Manchester text.

The JSON text is the bytes of ``json.dumps(obj, sort_keys=True,
separators=(",", ":"), ensure_ascii=False)`` plus ``"\\n"`` for the
value's object tree, written directly: no tree is built.
"""

from __future__ import annotations

from typing import NamedTuple

from .colimit import CombinationResult, Network
from .errors import Diagnostic, UnknownClassError
from .pattern import Pattern, build_pattern
from .taxonomy import _KEYWORDS, ClassRef, Taxonomy

#: Node shape per the label's child-of-top ancestor, checked in this order.
_SHAPES = (
    ("Instance", "box"),
    ("Model", "hexagon"),
    ("Process", "ellipse"),
    ("Actor", "diamond"),
)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _shape_for(taxonomy: Taxonomy, label: ClassRef) -> str:
    for ancestor_name, shape in _SHAPES:
        if taxonomy.has_local(ancestor_name):
            if taxonomy.leq(label, taxonomy.lookup(ancestor_name)):
                return shape
    return "plaintext"


def emit_dot(p: Pattern) -> str:
    """Render a pattern as a Graphviz digraph.

    Node text is ``id : label``; the shape encodes the label's top-level
    ancestor.  Nodes are ordered by id and edges lexicographically, so
    output is deterministic.
    """
    lines = [f"digraph {_dot_quote(p.name)} {{"]
    shapes: dict[ClassRef, str] = {}  # each distinct label's, worked out once
    for nid in p.sorted_ids:
        label = p.labels[nid]
        shape = shapes.get(label)
        if shape is None:
            shape = shapes[label] = _shape_for(p.taxonomy, label)
        text = f"{nid} : {label.local_name}"
        lines.append(f"  {_dot_quote(nid)} [label={_dot_quote(text)}, "
                     f"shape={shape}];")
    for a, b in sorted(p.edges):
        lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- JSON -------------------------------------------------------------------

def emit_json(value: Pattern | Network | CombinationResult) -> str:
    """Stable JSON for patterns, networks and combination results.

    A pattern is ``{"edges": [[a, b], ...], "name": ..., "nodes": [{"id":
    ..., "label": ...}, ...]}``, edges and nodes sorted.  A network is
    ``{"name": ..., "patterns": [...], "refinements": [{"map": {...},
    "name": ..., "source": ..., "target": ...}, ...]}``, both lists by
    name.  A combination result is its pattern's object plus
    ``"injections"``, member to node to combined node, and ``"classes"``,
    combined node to its sorted ``[member, node]`` pairs.

    The text is the bytes of ``json.dumps(obj, sort_keys=True,
    separators=(",", ":"), ensure_ascii=False) + "\\n"`` for that object
    ``obj``, so equal inputs serialize to identical bytes.  No tree is
    built: each object is written with its keys in sorted order, each
    string quoted by the function ``json.dumps`` quotes it with.
    """
    import json
    quote = json.encoder.encode_basestring

    def pairs(items) -> str:  # sorted string pairs as two-element lists
        return "[" + ",".join(f"[{quote(a)},{quote(b)}]"
                              for a, b in sorted(items)) + "]"

    def str_map(m: dict[str, str]) -> str:
        return "{" + ",".join(f"{quote(k)}:{quote(m[k])}" for k in sorted(m)) + "}"

    def nodes(p: Pattern) -> str:
        labels = p.labels
        return "[" + ",".join(f'{{"id":{quote(nid)},'
                              f'"label":{quote(labels[nid].local_name)}}}'
                              for nid in p.sorted_ids) + "]"

    def pattern(p: Pattern) -> str:
        return (f'{{"edges":{pairs(p.edges)},"name":{quote(p.name)},'
                f'"nodes":{nodes(p)}}}')

    if isinstance(value, Pattern):
        text = pattern(value)
    elif isinstance(value, Network):
        refinements = ",".join(
            f'{{"map":{str_map(r.node_map)},"name":{quote(n)},'
            f'"source":{quote(r.source.name)},"target":{quote(r.target.name)}}}'
            for n, r in sorted(value.refinements.items()))
        patterns = ",".join(pattern(value.patterns[n])
                            for n in sorted(value.patterns))
        text = (f'{{"name":{quote(value.name)},"patterns":[{patterns}],'
                f'"refinements":[{refinements}]}}')
    elif isinstance(value, CombinationResult):
        p = value.pattern
        classes = ",".join(f"{quote(c)}:{pairs(members)}"
                           for c, members in sorted(value.classes.items()))
        injections = ",".join(f"{quote(m)}:{str_map(inj)}"
                              for m, inj in sorted(value.injections.items()))
        text = (f'{{"classes":{{{classes}}},"edges":{pairs(p.edges)},'
                f'"injections":{{{injections}}},"name":{quote(p.name)},'
                f'"nodes":{nodes(p)}}}')
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    return text + "\n"


def pattern_from_json(text: str, taxonomy: Taxonomy,
                      name: str | None = None) -> Pattern:
    """Read a pattern back from its JSON form, resolving labels in
    ``taxonomy``."""
    import json
    obj = json.loads(text)
    nodes = [(n["id"], taxonomy.lookup(n["label"])) for n in obj["nodes"]]
    edges = [(a, b) for a, b in obj["edges"]]
    return build_pattern(name or obj.get("name", "<json>"), taxonomy,
                         nodes, edges)


# -- ABox translation ---------------------------------------------------------

class AboxTriples(NamedTuple):
    """Class memberships plus edge relations for one pattern.

    ``lines`` holds the facts in canonical emission order: nodes are
    visited in depth-first order from the lexicographically first ids,
    each node's membership fact directly before its outgoing link facts.
    """

    memberships: tuple[tuple[str, ClassRef], ...]
    links: tuple[tuple[str, str, str], ...]  # (relation, from, to)
    lines: tuple[str, ...]

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def emit_abox(p: Pattern, diagnostics: list[Diagnostic] | None = None) -> AboxTriples:
    """Translate a pattern into ABox facts.

    Each node yields one membership fact ``n : Class``.  Each edge yields
    one relation fact: providesInput into a process, hasOutput out of a
    process, throughput between two processes, and connectedTo (plus a
    warning) when neither endpoint is a process.
    """
    try:
        process = p.taxonomy.lookup("Process")
    except UnknownClassError:
        raise UnknownClassError(
            "ABox translation needs a Process class in the taxonomy")

    processes = {nid for nid, label in p.labels.items()
                 if p.taxonomy.leq(label, process)}

    def relation(a: str, b: str) -> str:
        pa, pb = a in processes, b in processes
        if pa and pb:
            return "throughput"
        if pb:
            return "providesInput"
        if pa:
            return "hasOutput"
        if diagnostics is not None:
            diagnostics.append(Diagnostic(
                "warning",
                f"edge ({a!r}, {b!r}) joins two non-process nodes; "
                f"using connectedTo"))
        return "connectedTo"

    out_edges: dict[str, list[str]] = {nid: [] for nid in p.sorted_ids}
    for a, b in p.edges:
        out_edges[a].append(b)

    memberships: list[tuple[str, ClassRef]] = []
    links: list[tuple[str, str, str]] = []
    lines: list[str] = []
    emitted: set[str] = set()
    # Depth-first from each id in order: an edge's link fact comes right
    # before its target's subtree, the next edge's after it.
    stack: list[tuple[str | None, str]] = [
        (None, nid) for nid in reversed(p.sorted_ids)]
    while stack:
        a, nid = stack.pop()
        if a is not None:
            rel = relation(a, nid)
            links.append((rel, a, nid))
            lines.append(f"{rel}({a},{nid})")
        if nid in emitted:
            continue
        emitted.add(nid)
        memberships.append((nid, p.labels[nid]))
        lines.append(f"{nid} : {p.labels[nid].local_name}")
        stack.extend((nid, b) for b in sorted(out_edges[nid], reverse=True))
    return AboxTriples(tuple(memberships), tuple(links), tuple(lines))


# -- Manchester ---------------------------------------------------------------

def emit_manchester(t: Taxonomy) -> str:
    """Write a taxonomy as Manchester-subset text that reads back
    order-isomorphic: same classes, same subsumption relation.  A class
    named by a Manchester keyword is written as its ``<IRI>``."""
    def ref(c: ClassRef) -> str:
        local = c.local_name
        # An ASCII identifier is exactly [A-Za-z_][A-Za-z0-9_]*.
        if (c.iri == t.namespace + local and local.isascii()
                and local.isidentifier() and local not in _KEYWORDS):
            return local
        return f"<{c.iri}>"

    blocks = [f"Prefix: : <{t.namespace}>"]
    parents: dict[ClassRef, list[ClassRef]] = {c: [] for c in t.classes}
    for sub, sup in t.subclass_edges:
        parents[sub].append(sup)
    for c in sorted(t.classes, key=lambda x: (x != t.top, x.local_name, x.iri)):
        lines = [f"Class: {ref(c)}"]
        sups = sorted(parents[c], key=lambda x: (x.local_name, x.iri))
        if sups:
            lines.append("    SubClassOf: " + ", ".join(ref(s) for s in sups))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
