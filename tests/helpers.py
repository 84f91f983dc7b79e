"""Shared test fixtures: random generators and brute-force oracles.

Every oracle here is deliberately naive (exhaustive enumeration, fixpoint
iteration) and independent of the production code paths it checks.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

from nesypat import Network
from nesypat.colimit import CombinationResult, validate_network
from nesypat.dsl import (
    LOGIC_NAME,
    Chain,
    Document,
    NetworkDecl,
    NodeRef,
    OntRef,
    PatternDecl,
    RefinementDecl,
    _KEYWORDS,
)
from nesypat.errors import (
    DegenerateLoopError,
    Diagnostic,
    NesyError,
    ParseError,
    UndefinedColimitError,
    UnknownClassError,
    _positions,
)
from nesypat.pattern import Pattern, build_pattern
from nesypat.taxonomy import (
    DEFAULT_NAMESPACE,
    TOP_LOCAL_NAME,
    ClassRef,
    Taxonomy,
)


# -- taxonomy oracles ------------------------------------------------------

def reachable_oracle(edges, a, b) -> bool:
    """Reflexive-transitive reachability by BFS over the raw edge set."""
    if a == b:
        return True
    adj = {}
    for sub, sup in edges:
        adj.setdefault(sub, []).append(sup)
    seen, frontier = {a}, [a]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj.get(x, ()):
                if y == b:
                    return True
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return False


def glb_oracle(t: Taxonomy, labels) -> ClassRef | None:
    """Greatest common lower bound by scanning every class of ``t``."""
    labels = list(labels)
    lower = [c for c in t.classes
             if all(reachable_oracle(t.subclass_edges, c, x) for x in labels)]
    maximal = [c for c in lower
               if not any(d != c and reachable_oracle(t.subclass_edges, c, d)
                          for d in lower)]
    if len(maximal) == 1:
        return maximal[0]
    return None


def random_taxonomy(rng: random.Random, n_classes: int,
                    namespace: str = "urn:test#") -> Taxonomy:
    """Random DAG taxonomy: class i may only have parents among 0..i-1."""
    top = ClassRef(namespace + "C0", "C0")
    classes = [top]
    edges = set()
    for i in range(1, n_classes):
        c = ClassRef(f"{namespace}C{i}", f"C{i}")
        n_parents = rng.choice([1, 1, 1, 2])
        parents = rng.sample(classes, min(n_parents, len(classes)))
        for p in parents:
            edges.add((c, p))
        classes.append(c)
    return Taxonomy(classes, edges, top, namespace)


# -- pattern / homomorphism oracles ---------------------------------------

def random_pattern(rng: random.Random, t: Taxonomy, name: str,
                   n_nodes: int, edge_prob: float = 0.3) -> Pattern:
    choices = sorted(t.classes, key=lambda c: c.local_name)
    nodes = [(f"n{i}", rng.choice(choices)) for i in range(n_nodes)]
    edges = []
    for a in range(n_nodes):
        for b in range(n_nodes):
            if a != b and rng.random() < edge_prob:
                edges.append((f"n{a}", f"n{b}"))
    return build_pattern(name, t, nodes, edges)


def all_homomorphisms_oracle(src: Pattern, tgt: Pattern) -> set:
    """Every valid refinement map, by checking all |tgt|^|src| total maps."""
    t = src.taxonomy
    src_ids = sorted(n.id for n in src.nodes)
    tgt_ids = sorted(n.id for n in tgt.nodes)
    src_label = {n.id: n.label for n in src.nodes}
    tgt_label = {n.id: n.label for n in tgt.nodes}
    found = set()
    for images in itertools.product(tgt_ids, repeat=len(src_ids)):
        m = dict(zip(src_ids, images))
        if not all(t.leq(tgt_label[m[n]], src_label[n]) for n in src_ids):
            continue
        if not all((m[a], m[b]) in tgt.edges for a, b in src.edges):
            continue
        found.add(tuple(sorted(m.items())))
    return found


def isomorphic_oracle(p: Pattern, q: Pattern) -> bool:
    """Label- and edge-preserving bijection, by brute force over permutations."""
    p_ids = sorted(n.id for n in p.nodes)
    q_ids = sorted(n.id for n in q.nodes)
    if len(p_ids) != len(q_ids) or len(p.edges) != len(q.edges):
        return False
    p_label = {n.id: n.label for n in p.nodes}
    q_label = {n.id: n.label for n in q.nodes}
    for perm in itertools.permutations(q_ids):
        m = dict(zip(p_ids, perm))
        if not all(p_label[a] == q_label[m[a]] for a in p_ids):
            continue
        if {(m[a], m[b]) for a, b in p.edges} == q.edges:
            return True
    return False


# -- random network / document generators -----------------------------------

def make_random_network(rng: random.Random, max_patterns: int = 4,
                        max_total_nodes: int = 12, max_refs: int = 4):
    """A type-correct random network: refinement maps are drawn from the
    actual homomorphisms between randomly generated member patterns."""
    from nesypat import Network
    from nesypat.pattern import Refinement, find_homomorphisms

    t = random_taxonomy(rng, rng.randint(2, 8))
    n_patterns = rng.randint(1, max_patterns)
    budget = max_total_nodes
    pats = []
    for i in range(n_patterns):
        size = rng.randint(1, max(1, min(4, budget - (n_patterns - i - 1))))
        budget -= size
        pats.append(random_pattern(rng, t, f"p{i}", size, 0.3))
    refs = []
    attempts = 0
    while len(refs) < rng.randint(0, max_refs) and attempts < 12:
        attempts += 1
        src, tgt = rng.choice(pats), rng.choice(pats)
        maps = find_homomorphisms(src, tgt, limit=4)
        if maps:
            refs.append(Refinement(f"r{len(refs)}", src, tgt, rng.choice(maps)))
    return Network("rand", {p.name: p for p in pats},
                   {r.name: r for r in refs})


def random_dsl_document(rng: random.Random) -> str:
    """Source text of a random library over the bundled taxonomy."""
    class_pool = ["Model", "Symbol", "Data", "Training", "Deduction",
                  "Semantic_Model", "Statistical_Model", "Instance",
                  "Process", "Actor"]
    lines = ["logic NeSyPatterns"]
    n_patterns = rng.randint(1, 4)
    names = []
    for i in range(n_patterns):
        name = f"P{i}"
        names.append(name)
        lines.append(f"pattern {name} = data ontohub:NeSyPatterns.omn")
        node_ids = [f"x{k}" for k in range(rng.randint(1, 5))]
        labels = {nid: rng.choice(class_pool) for nid in node_ids}
        for nid in node_ids:
            lines.append(f"  {nid} : {labels[nid]};")
        for _ in range(rng.randint(0, 6)):
            if len(node_ids) > 1:
                a, b = rng.sample(node_ids, 2)
                lines.append(f"  {a} : {labels[a]} -> {b} : {labels[b]};")
        lines.append("end")
    lines.append("network Net = " + ", ".join(names) + " end")
    lines.append("pattern Comb = combine Net end")
    return "\n".join(lines)


# -- equivalence closure oracle -------------------------------------------

def equivalence_classes_oracle(elements, pairs):
    """Partition generated by ``pairs``, via naive fixpoint merging."""
    classes = [{e} for e in elements]

    def class_of(x):
        for c in classes:
            if x in c:
                return c
        raise KeyError(x)

    for a, b in pairs:
        ca, cb = class_of(a), class_of(b)
        if ca is not cb:
            ca |= cb
            classes.remove(cb)
    return {frozenset(c) for c in classes}


# -- reference emitter names ----------------------------------------------

def reference_safe_names(names) -> dict[str, str]:
    """``dsl._safe_names`` as it was before valid names took a fast path:
    map each of ``names`` to a name ``parse`` accepts, one-to-one.

    A valid name maps to itself.  Otherwise characters outside the
    identifier charset become ``_``, a keyword or a name that does not
    start with a letter or ``_`` gets an ``n_`` prefix, and a suffix
    ``_2``, ``_3``, ... keeps it apart from every other name.
    """
    taken = set(names)
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for name in sorted(taken):
        safe = re.sub(r"[^A-Za-z0-9_]", "_", name)
        if safe in _KEYWORDS or not re.match(r"[A-Za-z_]", safe or "_"):
            safe = "n_" + safe
        if not safe:
            safe = "n"
        base = safe
        k = 2
        while safe in used or (safe != name and safe in taken):
            safe = f"{base}_{k}"
            k += 1
        used.add(safe)
        mapping[name] = safe
    return mapping


# -- reference combination -------------------------------------------------

def reference_combine(net: Network) -> CombinationResult:
    """``colimit.combine`` as it was before the integer arena: its own
    union-find with a ``find`` per lookup, an infimum per class and the
    classes sorted by their namers, each named by its namer's own id.

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

    parent = list(range(len(arena)))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for rname in sorted(net.refinements):
        r = net.refinements[rname]
        for n, img in sorted(r.node_map.items()):
            parent[find(index[(r.source.name, n)])] = find(
                index[(r.target.name, img)])

    groups: dict[int, list[tuple[str, str]]] = {}
    for i, member in enumerate(arena):
        groups.setdefault(find(i), []).append(member)

    if not net.patterns:
        raise ValueError(f"network {net.name!r} has no member patterns")
    taxonomy = next(iter(net.patterns.values())).taxonomy

    # A class is named by its member with the smallest qualified name
    # 'p.n', then the smaller (p, n); classes come in their namers' order.
    namer = {root: min(members, key=lambda m: (f"{m[0]}.{m[1]}", m))
             for root, members in groups.items()}
    owned = {n for _, n in namer.values()}
    class_name: dict[int, str] = {}
    labels: dict[str, ClassRef] = {}
    for root in sorted(groups, key=lambda r: (f"{namer[r][0]}.{namer[r][1]}",
                                              namer[r])):
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
        # The namer's own id, unless an earlier class holds it: then the
        # first of id_2, id_3, ... that neither a class holds nor some
        # class's namer owns.
        own = namer[root][1]
        name, k = own, 1
        while name in labels or (name != own and name in owned):
            k += 1
            name = f"{own}_{k}"
        labels[name] = inf
        class_name[root] = name

    edges: set[tuple[str, str]] = set()
    for pname in sorted(net.patterns):
        p = net.patterns[pname]
        for a, b in sorted(p.edges):
            ra = find(index[(pname, a)])
            rb = find(index[(pname, b)])
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
            nid: class_name[find(index[(pname, nid)])]
            for nid in p.sorted_ids
        }
    classes = {class_name[root]: frozenset(members)
               for root, members in groups.items()}
    return CombinationResult(pattern, injections, classes)


def _render_members(members) -> str:
    return "{" + ", ".join(f"{p}.{n}" for p, n in sorted(members)) + "}"


# -- reference JSON ----------------------------------------------------------

def reference_json(value) -> str:
    """``emitters.emit_json`` as it was before it wrote text directly:
    the value's object tree, lists in canonical order, serialized by
    ``json.dumps`` with sorted keys."""
    import json

    def pattern_obj(p: Pattern) -> dict:
        return {
            "name": p.name,
            "nodes": [{"id": nid, "label": p.labels[nid].local_name}
                      for nid in p.sorted_ids],
            "edges": [[a, b] for a, b in sorted(p.edges)],
        }

    if isinstance(value, Pattern):
        obj = pattern_obj(value)
    elif isinstance(value, Network):
        obj = {
            "name": value.name,
            "patterns": [pattern_obj(value.patterns[n])
                         for n in sorted(value.patterns)],
            "refinements": [
                {
                    "name": n,
                    "source": value.refinements[n].source.name,
                    "target": value.refinements[n].target.name,
                    "map": dict(sorted(value.refinements[n].node_map.items())),
                }
                for n in sorted(value.refinements)
            ],
        }
    elif isinstance(value, CombinationResult):
        obj = pattern_obj(value.pattern)
        obj["injections"] = {
            pname: dict(sorted(m.items()))
            for pname, m in sorted(value.injections.items())
        }
        obj["classes"] = {
            cname: [[p, n] for p, n in sorted(members)]
            for cname, members in sorted(value.classes.items())
        }
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False) + "\n"


# -- reference readers -------------------------------------------------------
#
# The per-character tokenizers that the regex lexers in ``dsl`` and
# ``taxonomy`` replaced, and the parser that drove the first one through
# ``peek``/``next``, kept as the judge of results, positions and errors.

_REF_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_SYMBOLS = ("|->", "->", "=", ";", ":", ",", "{", "}")
#: A Manchester IRI, quoted name or string literal.
_REF_CLOSED_RE = re.compile(r"<[^>]*>|'[^'\n]*'|" r'"[^"\\]*(?:\\.[^"\\]*)*"')


@dataclass(frozen=True)
class ReferenceToken:
    kind: str  # "name", one of _REF_SYMBOLS, or "eof"
    value: str
    line: int
    col: int


class ReferenceLexer:
    """The pattern-language lexer as it was before it moved to regexes:
    one ``_advance`` per character, read through ``peek`` and ``next``
    and two raw modes."""

    def __init__(self, text: str, source_name: str = "<input>"):
        self.text = text
        self.source_name = source_name
        self.pos = 0
        self.line = 1
        self.col = 1
        self._peeked: tuple[ReferenceToken, int, int, int] | None = None

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _skip_trivia(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isspace():
                self._advance()
            elif self.text.startswith("%%", self.pos):
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance()
            else:
                return

    def _lex(self) -> ReferenceToken:
        self._skip_trivia()
        if self.pos >= len(self.text):
            return ReferenceToken("eof", "", self.line, self.col)
        line, col = self.line, self.col
        for sym in _REF_SYMBOLS:
            if self.text.startswith(sym, self.pos):
                self._advance(len(sym))
                return ReferenceToken(sym, sym, line, col)
        m = _REF_NAME_RE.match(self.text, self.pos)
        if m:
            self._advance(m.end() - self.pos)
            return ReferenceToken("name", m.group(0), line, col)
        raise ParseError(f"unexpected character {self.text[self.pos]!r}",
                         line=line, col=col)

    def peek(self) -> ReferenceToken:
        if self._peeked is None:
            start = (self.pos, self.line, self.col)
            tok = self._lex()
            self._peeked = (tok, *start)
        return self._peeked[0]

    def next(self) -> ReferenceToken:
        tok = self.peek()
        self._peeked = None
        return tok

    def _rewind_peek(self) -> None:
        if self._peeked is not None:
            _, self.pos, self.line, self.col = self._peeked
            self._peeked = None

    def scan_ontref(self) -> ReferenceToken:
        self._rewind_peek()
        self._skip_trivia()
        line, col = self.line, self.col
        start = self.pos
        while (self.pos < len(self.text)
               and not self.text[self.pos].isspace()
               and self.text[self.pos] not in "{}"):
            self._advance()
        if self.pos == start:
            raise ParseError("expected an ontology reference",
                             line=line, col=col, expected=("CURIE", "IRI"))
        return ReferenceToken("ontref", self.text[start:self.pos], line, col)

    def scan_fragment(self) -> ReferenceToken:
        """Raw text from here to the brace closing the data clause.  A
        Manchester IRI, quoted name or string literal is stepped over
        whole, so its braces do not count."""
        self._rewind_peek()
        self._skip_trivia()
        line, col = self.line, self.col
        start = self.pos
        depth = 1
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in "<'\"" and (m := _REF_CLOSED_RE.match(self.text, self.pos)):
                self._advance(m.end() - self.pos)
                continue
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    text = self.text[start:self.pos]
                    self._advance()  # consume the closing brace
                    return ReferenceToken("fragment", text, line, col)
            self._advance()
        raise ParseError("unterminated data clause, expected '}'",
                         line=line, col=col, expected=("}",))


def reference_parse(text: str) -> Document:
    """``parse`` as it was before its reader moved to token lists: the
    recursive-descent parser below, driving ``ReferenceLexer``."""
    return ReferenceParser(ReferenceLexer(text)).document()


def _unexpected(tok, what: str, *expected: str) -> ParseError:
    """``expected <what>, found <tok>``, placed at ``tok``."""
    return ParseError(f"expected {what}, found {tok.value or 'end of input'!r}",
                      line=tok.line, col=tok.col, expected=expected)


class ReferenceParser:
    def __init__(self, lexer):
        self.lx = lexer

    def expect(self, kind: str) -> ReferenceToken:
        tok = self.lx.next()
        if tok.kind != kind:
            raise _unexpected(tok, repr(kind), kind)
        return tok

    def expect_keyword(self, word: str) -> ReferenceToken:
        tok = self.lx.next()
        if tok.kind != "name" or tok.value != word:
            raise _unexpected(tok, repr(word), word)
        return tok

    def expect_name(self, what: str = "a name") -> ReferenceToken:
        tok = self.lx.next()
        if tok.kind != "name" or tok.value in _KEYWORDS:
            raise _unexpected(tok, what, what)
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.lx.peek()
        return tok.kind == "name" and tok.value == word

    def document(self) -> Document:
        self.expect_keyword("logic")
        self.expect_keyword(LOGIC_NAME)
        decls = []
        while True:
            tok = self.lx.peek()
            if tok.kind == "eof":
                break
            if self.at_keyword("pattern"):
                decls.append(self.pattern_decl())
            elif self.at_keyword("refinement"):
                decls.append(self.refinement_decl())
            elif self.at_keyword("network"):
                decls.append(self.network_decl())
            else:
                raise _unexpected(tok, "a declaration",
                                  "pattern", "refinement", "network")
        return Document(tuple(decls))

    def pattern_decl(self) -> PatternDecl:
        kw = self.expect_keyword("pattern")
        name = self.expect_name("a pattern name").value
        self.expect("=")
        if self.at_keyword("combine"):
            self.lx.next()
            net = self.expect_name("a network name").value
            self.expect_keyword("end")
            return PatternDecl(name, None, (), net, kw.line, kw.col)
        self.expect_keyword("data")
        ont = self.data_clause()
        chains = []
        while not self.at_keyword("end"):
            tok = self.lx.peek()
            if tok.kind == "eof":
                raise ParseError("unterminated pattern, expected 'end'",
                                 line=tok.line, col=tok.col, expected=("end",))
            chains.append(self.chain())
        self.lx.next()  # end
        return PatternDecl(name, ont, tuple(chains), None, kw.line, kw.col)

    def data_clause(self) -> OntRef:
        if self.lx.peek().kind == "{":
            self.lx.next()
            base = self.lx.scan_ontref()
            tok = self.lx.peek()
            if tok.kind == "}":
                self.lx.next()
                return OntRef(base.value, None, base.line, base.col)
            if tok.kind == "name" and tok.value == "then":
                self.lx.next()
                frag = self.lx.scan_fragment()
                return OntRef(base.value, frag.value, base.line, base.col,
                              frag.line, frag.col)
            raise _unexpected(tok, "'then' or '}'", "then", "}")
        base = self.lx.scan_ontref()
        return OntRef(base.value, None, base.line, base.col)

    def chain(self) -> Chain:
        refs = [self.node_ref()]
        while True:
            tok = self.lx.peek()
            if tok.kind == "->":
                self.lx.next()
                refs.append(self.node_ref())
            elif tok.kind == ";":
                self.lx.next()
                return Chain(tuple(refs))
            else:
                raise _unexpected(tok, "'->' or ';'", "->", ";")

    def node_ref(self) -> NodeRef:
        first = self.expect_name("a node or class token")
        if self.lx.peek().kind == ":":
            self.lx.next()
            cls = self.expect_name("a class token")
            return NodeRef(first.value, cls.value, first.line, first.col)
        return NodeRef(None, first.value, first.line, first.col)

    def refinement_decl(self) -> RefinementDecl:
        kw = self.expect_keyword("refinement")
        name = self.expect_name("a refinement name").value
        self.expect("=")
        source = self.expect_name("a pattern name").value
        self.expect_keyword("refined")
        self.expect_keyword("to")
        target = self.expect_name("a pattern name").value
        explicit = None
        if self.at_keyword("via"):
            self.lx.next()
            pairs = [self.map_pair()]
            while self.lx.peek().kind == ",":
                self.lx.next()
                pairs.append(self.map_pair())
            explicit = tuple(pairs)
        self.expect_keyword("end")
        return RefinementDecl(name, source, target, explicit, kw.line, kw.col)

    def map_pair(self) -> tuple[str, str]:
        a = self.expect_name("a source node id").value
        self.expect("|->")
        b = self.expect_name("a target node id").value
        return (a, b)

    def network_decl(self) -> NetworkDecl:
        kw = self.expect_keyword("network")
        name = self.expect_name("a network name").value
        self.expect("=")
        members = [self.expect_name("a member name").value]
        while self.lx.peek().kind == ",":
            self.lx.next()
            members.append(self.expect_name("a member name").value)
        self.expect_keyword("end")
        return NetworkDecl(name, tuple(members), kw.line, kw.col)


#: A Manchester IRI, quoted name or string literal (group 1), or a run
#: of whitespace.
_REF_SPACE_OUTSIDE_QUOTES_RE = re.compile(
    r"""(<[^>]*>|'[^'\n]*'|"[^"\\]*(?:\\.[^"\\]*)*")|\s+""")


def reference_ontref_key(ont: OntRef) -> str:
    """``OntRef.key`` as it was before it joined words: one ``sub`` that
    collapses each run of whitespace outside IRIs, quoted names and
    string literals, through a Python callback."""
    if ont.extension is None:
        return ont.base
    collapsed = _REF_SPACE_OUTSIDE_QUOTES_RE.sub(
        lambda m: m[1] or " ", ont.extension).strip()
    return f"{{ {ont.base} then {collapsed} }}"


_REF_MANCHESTER_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")
_REF_NUMBER_RE = re.compile(r"[0-9][A-Za-z0-9_.\-]*")


def reference_tokenize_manchester(text: str) -> list[tuple[str, str, int, int]]:
    """The Manchester tokenizer's per-character loop, as (kind, value,
    line, col) tuples.  Unlike the loop it replaced, it steps line and
    column through an IRI or a string literal that spans lines."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)

    def walk(end):
        nonlocal line, col
        for ch in text[i:end]:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "<":
            j = text.find(">", i)
            if j < 0:
                raise ParseError("unterminated IRI", line=line, col=col)
            toks.append(("iri", text[i + 1:j], line, col))
            walk(j + 1)
            i = j + 1
            continue
        if ch == "'":
            j = text.find("'", i + 1)
            if j < 0 or "\n" in text[i + 1:j]:
                raise ParseError("unterminated quoted name", line=line, col=col)
            toks.append(("quoted", text[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            if j >= n:
                raise ParseError("unterminated string literal", line=line, col=col)
            toks.append(("misc", text[i:j + 1], line, col))
            walk(j + 1)
            i = j + 1
            continue
        if ch == ":":
            toks.append(("colon", ":", line, col))
            i += 1
            col += 1
            continue
        if ch == ",":
            toks.append(("comma", ",", line, col))
            i += 1
            col += 1
            continue
        m = _REF_MANCHESTER_NAME_RE.match(text, i)
        if m:
            toks.append(("name", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _REF_NUMBER_RE.match(text, i)
        length = m.end() - i if m else 1
        toks.append(("misc", text[i:i + length], line, col))
        i += length
        col += length
    toks.append(("eof", "", line, col))
    return toks


# -- reference Manchester reader --------------------------------------------
#
# The Manchester reader over ``(kind, value, offset)`` tokens and
# ``ClassRef`` pairs that the integer-id reader in ``taxonomy`` replaced,
# kept as the judge of its taxonomies, warnings and errors.  It reads a
# base taxonomy only through ``_index``, ``_refs`` and ``_by_local``
# (an IRI's id, the class of an id, the class of a local name) and
# builds through the public ``Taxonomy`` constructor.

_REF_FRAME_KEYWORDS = {
    "Class", "Datatype", "ObjectProperty", "DataProperty",
    "AnnotationProperty", "Individual", "NamedIndividual",
    "Prefix", "Ontology", "Import",
}
_REF_ENTRY_KEYWORDS = {
    "SubClassOf", "EquivalentTo", "DisjointWith", "DisjointUnionOf",
    "HasKey", "Annotations",
}
_REF_KEYWORDS = _REF_FRAME_KEYWORDS | _REF_ENTRY_KEYWORDS

_REF_MANCHESTER_RE = re.compile(r"""
    (\s*)
    (?: <(?P<iri>[^>]*)>
  | '(?P<quoted>[^'\n]*)'
  | (?P<colon>:)
  | (?P<comma>,)
  | (?P<name>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<misc>"[^"\\]*(?:\\.[^"\\]*)*"|[0-9][A-Za-z0-9_.\-]*|[^\s<'"])
  | (?P<bad>[<'"]).* )
""", re.VERBOSE | re.DOTALL)

_REF_UNTERMINATED = {"<": "unterminated IRI", "'": "unterminated quoted name",
                     '"': "unterminated string literal"}


def _ref_tokenize_manchester(text: str) -> list[tuple[str, str, int]]:
    toks = [(m.lastgroup, m[m.lastgroup], m.end(1))
            for m in _REF_MANCHESTER_RE.finditer(text, 0, len(text.rstrip()))]
    if toks and toks[-1][0] == "bad":
        _, value, offset = toks[-1]
        line, col = _positions(text)(offset)
        raise ParseError(_REF_UNTERMINATED[value], line=line, col=col)
    toks.append(("eof", "", len(text)))
    return toks


def reference_parse_taxonomy(text: str, diagnostics=None,
                             source_name: str = "<ontology>") -> Taxonomy:
    """The replaced reader's ``parse_taxonomy``: a declared
    NeSy_Pattern_Element is the top whether or not it states a
    superclass."""
    try:
        added, edges, roots, namespace = _ref_read_classes(text, diagnostics,
                                                           source_name)
    except NesyError as e:
        raise e.in_file(source_name)
    top = next((c for c in added if c.local_name == TOP_LOCAL_NAME), None)
    if top is None:
        top = (roots[0] if len(roots) == 1
               else ClassRef(namespace + TOP_LOCAL_NAME, TOP_LOCAL_NAME))
    edges += [(c, top) for c in roots if c != top]
    return Taxonomy({top, *added}, edges, top, namespace)


def reference_extend(base: Taxonomy, fragment: str, diagnostics=None) -> Taxonomy:
    """The replaced reader's ``Taxonomy.extend``."""
    if not fragment.strip():
        return base
    added, edges, roots, _ = _ref_read_classes(fragment, diagnostics,
                                               "<fragment>", base)
    edges += [(c, base.top) for c in roots]
    return Taxonomy(base.classes.union(added), base.subclass_edges.union(edges),
                    base.top, base.namespace)


def _ref_read_classes(text: str, diagnostics, source_name: str,
                      base: Taxonomy | None = None):
    toks = _ref_tokenize_manchester(text)
    position = _positions(text)
    prefixes: dict[str, str] = {}
    namespace = None if base is None else base.namespace
    ontology_iri: str | None = None
    declared: list = []
    edge_keys: list[tuple] = []
    where: dict = {}

    def warn(msg: str, offset: int) -> None:
        if diagnostics is not None:
            line, col = position(offset)
            diagnostics.append(Diagnostic("warning", msg, line, col,
                                          source_name))

    i = 0
    while toks[i][0] != "eof":
        _, kw, offset = toks[i]
        after = _ref_keyword_end(toks, i, _REF_FRAME_KEYWORDS)
        if after is None:
            line, col = position(offset)
            raise ParseError(f"malformed frame near {kw!r}", line=line, col=col,
                             expected=tuple(sorted(_REF_FRAME_KEYWORDS)))
        i = after
        if kw == "Class":
            subject, i = _ref_read_name(toks, i, where, position)
            if subject is None:
                line, col = position(toks[i][2])
                raise ParseError(f"expected a class name, found {toks[i][1]!r}",
                                 line=line, col=col,
                                 expected=("name", "quoted name", "IRI"))
            declared.append(subject)
            while (after := _ref_keyword_end(toks, i, _REF_ENTRY_KEYWORDS)) is not None:
                _, entry, offset = toks[i]
                i = after
                if entry != "SubClassOf":
                    warn(f"{entry} entries are skipped", offset)
                    i = _ref_skip_entry(toks, i)
                    continue
                while not _ref_is_keyword(toks[i]):
                    offset = toks[i][2]
                    sup, i = _ref_read_name(toks, i, where, position)
                    if sup is None:
                        warn("unsupported class expression skipped", offset)
                        i = _ref_skip_entry(toks, i)
                        break
                    nxt = toks[i]
                    if nxt[0] != "comma" and nxt[0] != "eof" and not _ref_is_keyword(nxt):
                        warn("complex class expression skipped", offset)
                        i = _ref_skip_entry(toks, i)
                        break
                    edge_keys.append((subject, sup))
                    if nxt[0] != "comma":
                        break
                    i += 1
        elif kw == "Prefix":
            pfx = ""
            if toks[i][0] == "name":
                pfx = toks[i][1]
                i += 1
            if toks[i][0] == "colon":
                i += 1
            kind, iri, offset = toks[i]
            if kind != "iri":
                line, col = position(offset)
                raise ParseError("expected <IRI> in prefix declaration",
                                 line=line, col=col, expected=("IRI",))
            i += 1
            prefixes[pfx] = iri
            if pfx == "":
                namespace = iri
        elif kw == "Ontology":
            if toks[i][0] == "iri":
                ontology_iri = toks[i][1]
                i += 1
                if toks[i][0] == "iri":
                    i += 1
        elif kw == "Import":
            warn("imports are not honored", offset)
            _, i = _ref_read_name(toks, i, where, position)
        else:
            warn(f"{kw} frames are skipped", offset)
            i = _ref_skip_entry(toks, i)

    if namespace is None:
        namespace = (ontology_iri + "#") if ontology_iri else DEFAULT_NAMESPACE
    index = {} if base is None else base._index
    by_local = {} if base is None else base._by_local
    taken = dict(by_local)
    added: dict[str, ClassRef] = {}
    refs: dict = {}

    def resolve(key, declare: bool) -> ClassRef:
        c = refs.get(key)
        if c is not None:
            return c
        offset = where[key]
        bare = False
        if key.__class__ is str:
            iri = key
        else:
            pfx, local = key
            if pfx is None:
                bare, iri = True, namespace + local
            elif pfx in prefixes:
                iri = prefixes[pfx] + local
            else:
                name = f"{pfx}:{local}"
                line, col = position(offset)
                raise UnknownClassError(f"undeclared prefix {pfx!r} in {name!r}",
                                        line=line, col=col)
        if bare and local in by_local:
            c = by_local[local]
        elif iri in index:
            c = base._refs[index[iri]]
        elif iri in added:
            c = added[iri]
        elif declare:
            c = added[iri] = _ref_mint(iri, local if bare else _ref_local_name_of(iri),
                                       taken, position, offset)
        else:
            shown = repr(local) if bare else f"<{iri}>"
            line, col = position(offset)
            raise UnknownClassError(f"unknown class {shown} in extension",
                                    line=line, col=col)
        refs[key] = c
        return c

    for key in declared:
        resolve(key, True)
    edges = [(resolve(a, True), resolve(b, base is None)) for a, b in edge_keys]
    has_super = {sub.iri for sub, _ in edges}
    roots = [c for c in added.values() if c.iri not in has_super]
    return list(added.values()), edges, roots, namespace


def _ref_local_name_of(iri: str) -> str:
    if "#" in iri:
        frag = iri.rsplit("#", 1)[1]
    else:
        frag = iri.rstrip("/").rsplit("/", 1)[-1]
    return frag.replace(" ", "_")


def _ref_mint(iri: str, local: str, taken: dict, position, offset: int) -> ClassRef:
    try:
        ref = ClassRef(iri, local)
    except ValueError:
        problem = "whitespace in its local name" if local else "no local name"
    else:
        other = taken.setdefault(local, ref)
        if other.iri == iri:
            return ref
        problem = f"the local name {local!r} of <{other.iri}>"
    shown = iri if iri.isprintable() else repr(iri)[1:-1]
    line, col = position(offset)
    raise ParseError(f"IRI <{shown}> has {problem}", line=line, col=col)


def _ref_keyword_end(toks: list, i: int, words) -> int | None:
    kind, value, _ = toks[i]
    if kind == "name" and value in words:
        after = toks[i + 1][0]
        if after == "colon":
            return i + 2
        if after == "name" or after == "quoted" or after == "iri":
            return i + 1
    return None


def _ref_read_name(toks: list, i: int, where: dict, position):
    tok = toks[i]
    kind, value, offset = tok
    if kind == "name":
        key = (None, value)
        i += 1
        colon = toks[i]
        if colon[0] == "colon" and _ref_is_adjacent(tok, colon):
            local = toks[i + 1]
            if local[0] != "name" or not _ref_is_adjacent(colon, local):
                line, col = position(offset)
                raise ParseError("malformed prefixed name", line=line, col=col)
            key = (value, local[1])
            i += 2
    elif kind == "quoted":
        key = (None, value.replace(" ", "_"))
        i += 1
    elif kind == "iri":
        key = value
        i += 1
    elif kind == "colon" and toks[i + 1][0] == "name" and _ref_is_adjacent(tok, toks[i + 1]):
        key = ("", toks[i + 1][1])
        i += 2
    else:
        return None, i
    where.setdefault(key, offset)
    return key, i


def _ref_skip_entry(toks: list, i: int) -> int:
    while toks[i][0] != "eof" and not _ref_is_keyword(toks[i]):
        i += 1
    return i


def _ref_is_adjacent(a: tuple, b: tuple) -> bool:
    return a[2] + len(a[1]) == b[2]


def _ref_is_keyword(t: tuple) -> bool:
    return t[0] == "name" and t[1] in _REF_KEYWORDS
