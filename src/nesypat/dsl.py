"""The pattern language: lexer, parser, resolver and pretty-printer.

A document starts with ``logic NeSyPatterns`` and declares patterns,
refinements and networks.  Pattern bodies name an ontology in a ``data``
clause (optionally extending it inline after ``then``) and list chains
of node references; ``x : Class`` introduces or re-references a named
node, a bare class token creates a fresh anonymous node.  ``%%`` starts
a line comment.
"""

from __future__ import annotations

import heapq
import re
from typing import NamedTuple

from .catalog import Catalog
from .errors import (
    Diagnostic,
    DuplicateNameError,
    InvalidRefinementError,
    LabelMismatchError,
    NesyError,
    ParseError,
    SelfLoopError,
    UnknownNameError,
)
from .library import Library
from .network import build_network
from .pattern import Pattern, build_pattern
from .refinement import Refinement, check_refinement, infer_refinement
from .taxonomy import ClassRef, Taxonomy, default_taxonomy

LOGIC_NAME = "NeSyPatterns"

_KEYWORDS = frozenset({
    "logic", "pattern", "refinement", "network", "data", "combine",
    "then", "refined", "to", "via", "end",
})
_SYMBOLS = ("|->", "->", "=", ";", ":", ",", "{", "}")


# -- AST --------------------------------------------------------------------

class NodeRef(NamedTuple):
    name: str | None
    cls: str
    line: int
    col: int


class Chain(NamedTuple):
    refs: tuple[NodeRef, ...]


class OntRef(NamedTuple):
    base: str
    extension: str | None
    line: int
    col: int
    ext_line: int = 0
    ext_col: int = 0

    def key(self) -> str:
        """Normalized clause text, used to index Library.taxonomies."""
        if self.extension is None:
            return self.base
        collapsed = " ".join(self.extension.split())
        return f"{{ {self.base} then {collapsed} }}"


class PatternDecl(NamedTuple):
    name: str
    ont: OntRef | None
    chains: tuple[Chain, ...]
    combine_of: str | None
    line: int
    col: int


class RefinementDecl(NamedTuple):
    name: str
    source: str
    target: str
    explicit_map: tuple[tuple[str, str], ...] | None
    line: int
    col: int


class NetworkDecl(NamedTuple):
    name: str
    members: tuple[str, ...]
    line: int
    col: int


class Document(NamedTuple):
    declarations: tuple


# -- lexer --------------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # "name", one of _SYMBOLS, "ontref", "fragment" or "eof"
    value: str
    line: int
    col: int


#: Whitespace (``\s`` is exactly ``str.isspace``) and ``%%`` line comments.
_TRIVIA = r"(?:\s|%%[^\n]*)*"
_TRIVIA_RE = re.compile(_TRIVIA)
#: Trivia, then a symbol or a name if one starts there.
_TOKEN_RE = re.compile(
    _TRIVIA + "(?:(?P<symbol>" + "|".join(map(re.escape, _SYMBOLS))
    + r")|(?P<name>[A-Za-z_][A-Za-z0-9_]*))?")
_ONTREF_RE = re.compile(r"[^\s{}]*")
_BRACE_RE = re.compile(r"[{}]")


class Lexer:
    """Regex lexer with two parser-driven raw modes: ontology references
    (maximal non-space runs, so CURIEs and URLs stay whole) and Manchester
    fragments (raw text up to the matching brace).

    Positions are 1-based; only ``"\n"`` starts a line, and a column
    counts characters from the start of its line.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.line_start = 0  # offset of the first character of ``line``
        self._peeked: Token | None = None

    def _move_to(self, end: int) -> None:
        """Advance to offset ``end``, counting the newlines passed."""
        text, pos = self.text, self.pos
        last_nl = text.rfind("\n", pos, end)
        if last_nl >= 0:
            self.line += text.count("\n", pos, last_nl) + 1
            self.line_start = last_nl + 1
        self.pos = end

    def _skip_trivia(self) -> int:
        """Move past whitespace and comments; return the new offset."""
        self._move_to(_TRIVIA_RE.match(self.text, self.pos).end())
        return self.pos

    def _lex(self) -> Token:
        m = _TOKEN_RE.match(self.text, self.pos)
        kind = m.lastgroup
        value = m.group(kind) if kind else ""
        start = m.end() - len(value)
        self._move_to(start)
        col = start - self.line_start + 1
        if kind is None and start < len(self.text):
            raise ParseError(f"unexpected character {self.text[start]!r}",
                             line=self.line, col=col)
        self.pos = m.end()
        return Token(value if kind == "symbol" else kind or "eof",
                     value, self.line, col)

    def peek(self) -> Token:
        if self._peeked is None:
            self._peeked = self._lex()
        return self._peeked

    def next(self) -> Token:
        tok = self._peeked
        if tok is None:
            return self._lex()
        self._peeked = None
        return tok

    def _rewind_peek(self) -> None:
        """Put the peeked token back.  Tokens do not span lines, so only
        the offset moves."""
        if self._peeked is not None:
            self.pos -= len(self._peeked.value)
            self._peeked = None

    def scan_ontref(self) -> Token:
        self._rewind_peek()
        start = self._skip_trivia()
        col = start - self.line_start + 1
        end = _ONTREF_RE.match(self.text, start).end()
        if end == start:
            raise ParseError("expected an ontology reference",
                             line=self.line, col=col, expected=("CURIE", "IRI"))
        self.pos = end
        return Token("ontref", self.text[start:end], self.line, col)

    def scan_fragment(self) -> Token:
        """Raw text from here to the brace closing the data clause."""
        self._rewind_peek()
        start = self._skip_trivia()
        line, col = self.line, start - self.line_start + 1
        depth = 1
        for m in _BRACE_RE.finditer(self.text, start):
            depth += 1 if m.group() == "{" else -1
            if depth == 0:
                end = m.start()
                self._move_to(end + 1)  # past the closing brace
                return Token("fragment", self.text[start:end], line, col)
        raise ParseError("unterminated data clause, expected '}'",
                         line=line, col=col, expected=("}",))


# -- parser -------------------------------------------------------------------

def _unexpected(tok: Token, what: str, *expected: str) -> ParseError:
    """``expected <what>, found <tok>``, placed at ``tok``."""
    return ParseError(f"expected {what}, found {tok.value or 'end of input'!r}",
                      line=tok.line, col=tok.col, expected=expected)


class _Parser:
    def __init__(self, lexer: Lexer):
        self.lx = lexer

    def expect(self, kind: str) -> Token:
        tok = self.lx.next()
        if tok.kind != kind:
            raise _unexpected(tok, repr(kind), kind)
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.lx.next()
        if tok.kind != "name" or tok.value != word:
            raise _unexpected(tok, repr(word), word)
        return tok

    def expect_name(self, what: str = "a name") -> Token:
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


def parse(text: str, source_name: str = "<input>") -> Document:
    """Parse source text into a Document AST.  A ParseError carries
    ``source_name``."""
    try:
        return _Parser(Lexer(text)).document()
    except NesyError as e:
        raise e.in_file(source_name)


# -- resolver -----------------------------------------------------------------

def resolve(doc: Document, catalog: Catalog | None = None,
            diagnostics: list[Diagnostic] | None = None) -> Library:
    """Resolve an AST into a Library of patterns, refinements and networks.

    Declarations are processed in order and may only reference earlier
    names.  Refinements without a ``via`` clause get their node map
    inferred; combine-definitions are recorded for lazy evaluation and
    only materialized here if a later declaration needs them.  An error
    from combining is placed at the failing pattern's declaration.
    """
    catalog = catalog or Catalog.default()
    lib = Library()
    for decl in doc.declarations:
        try:
            if isinstance(decl, PatternDecl):
                _resolve_pattern(decl, lib, catalog, diagnostics)
            elif isinstance(decl, RefinementDecl):
                _resolve_refinement(decl, lib)
            elif isinstance(decl, NetworkDecl):
                if decl.name in lib.networks:
                    raise DuplicateNameError(f"network {decl.name!r} declared twice")
                lib.networks[decl.name] = build_network(decl.name, decl.members, lib)
            else:  # pragma: no cover
                raise TypeError(f"unknown declaration {decl!r}")
        except NesyError as e:
            raise e.at(*_pattern_positions(doc).get(e.decl, (decl.line, decl.col)))
    return lib


def _pattern_positions(doc: Document) -> dict[str, tuple[int, int]]:
    """Where each pattern name is first declared in ``doc``."""
    return {d.name: (d.line, d.col) for d in reversed(doc.declarations)
            if isinstance(d, PatternDecl)}


def _resolve_pattern(decl: PatternDecl, lib: Library,
                     catalog: Catalog, diagnostics) -> None:
    if decl.name in lib.patterns or decl.name in lib.combine_defs:
        raise DuplicateNameError(f"pattern {decl.name!r} declared twice")
    if decl.combine_of is not None:
        if decl.combine_of not in lib.networks:
            raise UnknownNameError(
                f"combine references unknown network {decl.combine_of!r}")
        lib.combine_defs[decl.name] = decl.combine_of
        return

    taxonomy = _taxonomy_for(decl.ont, lib, catalog, diagnostics)
    anon = 0
    declared: dict[str, ClassRef] = {}
    node_decls: list[tuple[str, ClassRef]] = []
    edge_decls: list[tuple[str, str]] = []
    for chain in decl.chains:
        prev = None
        for ref in chain.refs:
            try:
                cls = taxonomy.lookup(ref.cls)
            except NesyError as e:
                raise e.at(ref.line, ref.col)
            if ref.name is None:
                anon += 1
                node_id = f"anon{anon}"
                node_decls.append((node_id, cls))
            else:
                node_id = ref.name
                if node_id in declared and declared[node_id] != cls:
                    raise LabelMismatchError(
                        f"node {node_id!r} was declared with class "
                        f"{declared[node_id].local_name!r} but recurs "
                        f"with {ref.cls!r}", line=ref.line, col=ref.col)
                if node_id not in declared:
                    node_decls.append((node_id, cls))
                    declared[node_id] = cls
            if prev is not None:
                if prev == node_id:
                    raise SelfLoopError(
                        f"chain creates a self-loop on node {node_id!r}",
                        line=ref.line, col=ref.col)
                edge_decls.append((prev, node_id))
            prev = node_id
    lib.patterns[decl.name] = build_pattern(decl.name, taxonomy,
                                            node_decls, edge_decls)


def _taxonomy_for(ont: OntRef, lib: Library, catalog: Catalog,
                  diagnostics) -> Taxonomy:
    key = ont.key()
    if key in lib.taxonomies:
        return lib.taxonomies[key]
    try:
        base = catalog.resolve_taxonomy(ont.base, diagnostics)
    except NesyError as e:
        raise e.at(ont.line, ont.col)
    if ont.extension is None:
        taxonomy = base
    else:
        frag_diags: list[Diagnostic] = []
        try:
            taxonomy = base.extend(ont.extension, frag_diags)
        except NesyError as e:  # an unplaced one goes to the fragment's start
            e.line, e.col = _shift(ont, e.line or 1, e.col or 1)
            raise
        if diagnostics is not None:
            for d in frag_diags:
                line, col = _shift(ont, d.line, d.col)
                diagnostics.append(Diagnostic(d.severity, d.message, line, col))
    lib.taxonomies[key] = taxonomy
    return taxonomy


def _shift(ont: OntRef, rel_line: int, rel_col: int) -> tuple[int, int]:
    """Map a fragment-relative position into the enclosing document."""
    if rel_line <= 1:
        return ont.ext_line, ont.ext_col + rel_col - 1
    return ont.ext_line + rel_line - 1, rel_col


def _resolve_refinement(decl: RefinementDecl, lib: Library) -> None:
    if decl.name in lib.refinements:
        raise DuplicateNameError(f"refinement {decl.name!r} declared twice")
    src = lib.pattern(decl.source)
    tgt = lib.pattern(decl.target)
    if decl.explicit_map is not None:
        node_map = {}
        for a, b in decl.explicit_map:
            if a not in src.labels:
                raise UnknownNameError(
                    f"via clause maps unknown source node {a!r}")
            if b not in tgt.labels:
                raise UnknownNameError(
                    f"via clause maps to unknown target node {b!r}")
            if a in node_map and node_map[a] != b:
                raise DuplicateNameError(
                    f"via clause maps source node {a!r} twice")
            node_map[a] = b
        violations = check_refinement(src, tgt, node_map)
        if violations:
            raise InvalidRefinementError(
                f"map of refinement {decl.name!r} is not a valid refinement: "
                + "; ".join(str(v) for v in violations),
                violations=violations)
        lib.refinements[decl.name] = Refinement(decl.name, src, tgt, node_map)
    else:
        lib.refinements[decl.name] = infer_refinement(decl.name, src, tgt)


# -- pretty-printer -------------------------------------------------------------

def emit_dsl(lib: Library) -> str:
    """Render a library back to source text.

    Output is deterministic; node ids are printed explicitly, and node
    ids and pattern, refinement and network names are sanitized to
    identifiers ``parse`` accepts where needed, so re-resolving yields
    patterns isomorphic to the input's.  Combine-defined patterns are
    emitted as their ``combine`` form.
    """
    items = _emit_order(lib)
    names = _safe_names(_declared_names(lib))
    blocks = ["logic NeSyPatterns"]
    for kind, name in items:
        if kind == "pattern":
            blocks.append(_emit_pattern(lib, lib.patterns[name], names))
        elif kind == "refinement":
            blocks.append(_emit_refinement(lib, lib.refinements[name], names))
        elif kind == "network":
            net = lib.networks[name]
            members = sorted(net.patterns) + sorted(net.refinements)
            blocks.append(f"network {names[name]} = "
                          f"{', '.join(names[m] for m in members)} end")
        else:
            blocks.append(f"pattern {names[name]} = combine "
                          f"{names[lib.combine_defs[name]]} end")
    return "\n\n".join(blocks) + "\n"


def _declared_names(lib: Library) -> set[str]:
    """Every pattern, refinement and network name ``emit_dsl`` prints."""
    names = {*lib.combine_defs, *lib.combine_defs.values(), *lib.networks}
    names.update(p.name for p in lib.patterns.values())
    for r in lib.refinements.values():
        names.update((r.name, r.source.name, r.target.name))
    for net in lib.networks.values():
        names.update(net.patterns, net.refinements)
    return names


def _emit_order(lib: Library) -> list[tuple[str, str]]:
    def pattern_item(name: str) -> tuple[str, str]:
        return ("combine" if name in lib.combine_defs else "pattern", name)

    items: list[tuple[str, str]] = []
    deps: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for name in lib.patterns:
        if name not in lib.combine_defs:
            items.append(("pattern", name))
            deps[("pattern", name)] = set()
    for name, r in lib.refinements.items():
        items.append(("refinement", name))
        deps[("refinement", name)] = {pattern_item(r.source.name),
                                      pattern_item(r.target.name)}
    for name, net in lib.networks.items():
        items.append(("network", name))
        deps[("network", name)] = ({pattern_item(p) for p in net.patterns}
                                   | {("refinement", r) for r in net.refinements})
    for name in lib.combine_defs:
        items.append(("combine", name))
        deps[("combine", name)] = {("network", lib.combine_defs[name])}

    import graphlib

    # Emit the lowest-index item whose dependencies are all emitted.
    known = set(items)
    graph = graphlib.TopologicalSorter()
    for item in items:
        graph.add(item, *(d for d in deps[item] if d in known and d != item))
    try:
        graph.prepare()
    except graphlib.CycleError:
        raise ValueError("library declarations are cyclic; cannot emit") from None
    index = {item: i for i, item in enumerate(items)}
    ready: list[tuple[int, tuple[str, str]]] = []
    order: list[tuple[str, str]] = []
    while graph.is_active():
        for item in graph.get_ready():
            heapq.heappush(ready, (index[item], item))
        item = heapq.heappop(ready)[1]
        graph.done(item)
        order.append(item)
    return order


def _safe_ids(p: Pattern) -> dict[str, str]:
    return _safe_names(p.sorted_ids)


def _safe_names(names) -> dict[str, str]:
    """Map each of ``names`` to a name ``parse`` accepts, one-to-one.

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


def _data_key_for(lib: Library, p: Pattern) -> str:
    for key in sorted(lib.taxonomies):
        if lib.taxonomies[key] == p.taxonomy:
            return key
    if p.taxonomy.same_classes(default_taxonomy()):
        return "https://ontohub.org/meta/NeSyPatterns.omn"
    raise ValueError(
        f"pattern {p.name!r} uses a taxonomy with no registered ontology "
        f"reference; cannot emit a data clause")


def _emit_pattern(lib: Library, p: Pattern, names: dict[str, str]) -> str:
    ids = _safe_ids(p)
    lines = [f"pattern {names[p.name]} = data {_data_key_for(lib, p)}"]
    for nid in p.sorted_ids:
        lines.append(f"  {ids[nid]} : {p.labels[nid].local_name};")
    for a, b in sorted(p.edges):
        lines.append(f"  {ids[a]} : {p.labels[a].local_name} -> "
                     f"{ids[b]} : {p.labels[b].local_name};")
    lines.append("end")
    return "\n".join(lines)


def _emit_refinement(lib: Library, r: Refinement, names: dict[str, str]) -> str:
    head = (f"refinement {names[r.name]} = {names[r.source.name]} refined to "
            f"{names[r.target.name]}")
    src_ids = _safe_ids(r.source) if r.source.name not in lib.combine_defs else None
    tgt_ids = _safe_ids(r.target) if r.target.name not in lib.combine_defs else None
    if src_ids is not None and tgt_ids is not None:
        pairs = ", ".join(f"{src_ids[a]} |-> {tgt_ids[b]}"
                          for a, b in sorted(r.node_map.items()))
        return f"{head} via {pairs} end"
    # Endpoints that are combine-defined are re-created with generated
    # qualified ids on re-parse, which the via syntax cannot express;
    # fall back to inference.
    return f"{head} end"
