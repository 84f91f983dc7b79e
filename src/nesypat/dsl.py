"""The pattern language: lexer, parser, resolver and pretty-printer.

A document starts with ``logic NeSyPatterns`` and declares patterns,
refinements and networks.  Pattern bodies name an ontology in a ``data``
clause (optionally extending it inline after ``then``) and list chains
of node references; ``x : Class`` introduces or re-references a named
node, a bare class token creates a fresh anonymous node.  ``%%`` starts
a line comment.  The reader goes through the text from one offset:
one regex match per ``data`` pattern head or refinement head without
comments, one per token of any other head, the data clause raw, and
one regex match per node reference of a body.  A node reference keeps
the offset of its first name; line and column are worked out for
declarations, ontology references, errors and warnings, and for a node
reference only when an error is placed at it.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter
from functools import cache
from itertools import chain
from operator import itemgetter
from typing import Callable, NamedTuple

from .catalog import BUILTIN_IRIS, Catalog
from .colimit import Library, build_network
from .errors import (
    Diagnostic,
    DuplicateNameError,
    InvalidRefinementError,
    LabelMismatchError,
    NesyError,
    ParseError,
    SelfLoopError,
    UnknownNameError,
    _positions,
)
from .pattern import Pattern, Refinement, check_refinement, infer_refinement
from .taxonomy import (
    _IRI,
    _NAME_START,
    _QUOTED,
    _STRING,
    ClassRef,
    Taxonomy,
    default_taxonomy,
)

LOGIC_NAME = "NeSyPatterns"

_KEYWORDS = frozenset({
    "logic", "pattern", "refinement", "network", "data", "combine",
    "then", "refined", "to", "via", "end",
})
_SYMBOLS = ("|->", "->", "=", ";", ":", ",", "{", "}")
#: The tokens that hold their braces and spaces as text in an inline
#: extension, by opener: an IRI, a quoted name and a string literal, each
#: its opener, the run its pattern reads behind it, then its closer.
_RUNS = {t[0]: (t[:-1], t[-1]) for t in (_IRI, _QUOTED, _STRING)}


def _text_tokens(text: str, pos: int, nxt: dict[str, int]):
    """Each IRI, quoted name and string literal that closes in ``text``
    from ``pos`` on, and each other character of ``nxt`` outside them,
    in order, as its start and end offsets.

    ``nxt`` maps each character sought, ``<``, ``'`` and ``"`` among
    them, to its next offset at or after the last one read, or to -1
    for none; one below ``pos`` is sought again.  It is kept up to date,
    so a caller that reads one text forward in several calls passes it
    on, and no character is sought twice.  An opener whose token does
    not close is text.  So is each later opener of its kind before the
    place its run stopped at, as the run of each stops there too (an
    IRI's at the end of the text, a string literal's there or at a
    backslash before a line break); one ``find`` passes over them."""
    while True:
        for c, i in nxt.items():
            if 0 <= i < pos:
                nxt[c] = text.find(c, pos)
        at = min((i for i in nxt.values() if i >= 0), default=-1)
        if at < 0:
            return
        c = text[at]
        pos = at + 1
        if c in _RUNS:
            run, closer = _RUNS[c]
            end = re.compile(run).match(text, at).end()
            if text[end:end + 1] != closer:
                nxt[c] = text.find(c, end)
                continue
            pos = end + 1
        yield at, pos


# -- AST --------------------------------------------------------------------

class NodeRef(NamedTuple):
    """A node reference of a pattern body: its node's name (None for an
    anonymous node), its class token, and the offset of its first name
    in the document's text."""
    name: str | None
    cls: str
    offset: int


class OntRef(NamedTuple):
    base: str
    extension: str | None
    line: int
    col: int
    ext_line: int = 0
    ext_col: int = 0

    def key(self) -> str:
        """Normalized clause text, used to index Library.taxonomies: the
        extension with each run of whitespace outside its IRIs, quoted
        names and string literals made one space, and none at its ends."""
        ext = self.extension
        if ext is None:
            return self.base
        if "<" in ext or "'" in ext or '"' in ext:
            parts, pos, nxt = [], 0, {c: ext.find(c) for c in "<'\""}
            for at, end in _text_tokens(ext, 0, nxt):  # a token keeps its spaces
                parts += re.sub(r"\s+", " ", ext[pos:at]), ext[at:end]
                pos = end
            parts.append(re.sub(r"\s+", " ", ext[pos:]))
            words = "".join(parts).strip()
        else:
            words = " ".join(ext.split())
        return f"{{ {self.base} then {words} }}"


class PatternDecl(NamedTuple):
    """A pattern declaration: a ``data`` clause ``ont`` and the body's
    chains, each the tuple of its node references in order, or the
    network it combines, ``combine_of``."""
    name: str
    ont: OntRef | None
    chains: tuple[tuple[NodeRef, ...], ...]
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
    """The declarations of a document, and the text ``parse`` read them
    from, which places an error at a node reference.  A hand-built
    Document without text has such errors placed at their pattern's
    declaration."""
    declarations: tuple
    text: str = ""


# -- reader -------------------------------------------------------------------

#: Trivia is whitespace (``\s`` is exactly ``str.isspace``) and ``%%``
#: comments, each to the end of its line.  A token, behind trivia, is a
#: name, ``|->``, ``->``, any other character but whitespace (an error
#: once the parser reaches it, unless it is a symbol), or ``""`` at the
#: end.  A node reference is a name, optionally ``:`` and a class name,
#: then ``->`` or ``;``, each behind trivia; its names may still be
#: keywords.
_COMMENT = r"%%[^\n]*(?![^\n])"
_TRIVIA = rf"\s*(?:{_COMMENT}(?:\s*{_COMMENT})*\s*|)"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"{_TRIVIA}({_NAME}|\|->|->|\S|\Z)")
_REF_RE = re.compile(rf"{_TRIVIA}({_NAME}){_TRIVIA}(?::{_TRIVIA}({_NAME}){_TRIVIA}|)(->|;)")
_ONTREF_RE = re.compile(r"[^\s{}]*")

#: The heads of ``data`` patterns and of refinements, without comments,
#: each from its keyword on; network and ``combine`` heads are read token
#: by token.  Every name is followed by whitespace or a symbol, and
#: ``data``, ``via`` and ``end`` by no name character, so each is a whole
#: token; a name may still be a keyword, which the parser checks.  An
#: ontology reference that starts with a name is read with the head of
#: its pattern, as ``data_clause`` reads it.  A refinement head stops
#: before its ``via`` list, which ``_Parser.listed`` reads up to the
#: first ``end`` token behind it: ``_PAIRS`` reads each pair that is
#: whole between commas, and every pair must be read.  No group repeats
#: once per pair, since ``re`` keeps a backtracking frame for each
#: repetition of a group until the whole match ends.
_TAIL = r"(?![A-Za-z0-9_])"
_PATTERN_HEAD = re.compile(
    rf"pattern\s+({_NAME})\s*=\s*data(?:\s+([A-Za-z_][^\s{{}}]*))?{_TAIL}")
_REFINEMENT_HEAD = re.compile(
    rf"refinement\s+({_NAME})\s*=\s*({_NAME})\s+refined\s+to\s+({_NAME})"
    rf"\s+(?:(via)\s|end{_TAIL})")
_PAIRS = re.compile(
    rf"(?:\A|(?<=,))\s*({_NAME})\s*\|->\s*({_NAME})\s*(?=,|\Z)").findall
_END_RE = re.compile(rf"end(?<![A-Za-z0-9_]end){_TAIL}")


def _stray(value: str) -> bool:
    """Whether a token is a character that starts no symbol or name."""
    return value != "" and value not in _SYMBOLS and value[0] not in _NAME_START


def _writable(name: str) -> bool:
    """Whether ``parse`` reads ``name`` as a name: an ASCII identifier,
    exactly [A-Za-z_][A-Za-z0-9_]*, that is no keyword."""
    return name.isascii() and name.isidentifier() and name not in _KEYWORDS


class _Parser:
    """Recursive descent from one offset into the text.  ``tok`` is the
    match of ``_TOKEN_RE`` at that offset (the token is group 1), and
    ``next`` matches the one behind it, so a token is matched only when
    the parser reaches it.  A ``data`` pattern head or a refinement head
    is first matched whole from its keyword; where that match fails or
    reads a keyword as a name, and for every network and ``combine``
    head, the head is read token by token from the keyword, which
    places every error.  What follows ``data`` is read raw, by
    offset: the ontology reference (a maximal non-space run, so CURIEs
    and URLs stay whole), the fragment after ``then`` (to the matching
    brace), and the body, one node reference per match of ``_REF_RE``,
    which keeps the offset of its first name.  Where no reference
    matches, tokens are matched on from there: the body's ``end``, or
    the error they place."""

    def __init__(self, text: str):
        self.text = text
        self.at = _positions(text)
        self.tok = _TOKEN_RE.match(text)
        self.next_at: dict[str, int] | None = None  # for _text_tokens

    def next(self) -> None:
        self.tok = _TOKEN_RE.match(self.text, self.tok.end())

    def error(self, message: str, offset: int, expected=()) -> ParseError:
        line, col = self.at(offset)
        return ParseError(message, line=line, col=col, expected=expected)

    def unexpected(self, what: str, *expected: str) -> ParseError:
        """``expected <what>, found <tok>``, placed at that token."""
        value, offset = self.tok[1], self.tok.start(1)
        if _stray(value):
            return self.error(f"unexpected character {value!r}", offset)
        return self.error(f"expected {what}, found {value or 'end of input'!r}",
                          offset, expected)

    def expect(self, token: str) -> None:
        if self.tok[1] != token:
            raise self.unexpected(repr(token), token)
        self.next()

    def expect_name(self, what: str = "a name") -> str:
        value = self.tok[1]
        if not _writable(value):
            raise self.unexpected(what, what)
        self.next()
        return value

    def declaration(self) -> tuple[int, int]:
        """Step over a declaration's keyword; return its position."""
        offset = self.tok.start(1)
        self.next()
        return self.at(offset)

    def document(self) -> Document:
        self.expect("logic")
        self.expect(LOGIC_NAME)
        decls = []
        while True:
            value = self.tok[1]
            if value == "pattern":
                decls.append(self.pattern_decl())
            elif value == "refinement":
                decls.append(self.refinement_decl())
            elif value == "network":
                decls.append(self.network_decl())
            elif not value:
                return Document(tuple(decls), self.text)
            else:
                raise self.unexpected("a declaration",
                                      "pattern", "refinement", "network")

    def pattern_decl(self) -> PatternDecl:
        start = self.tok.start(1)
        m = _PATTERN_HEAD.match(self.text, start)
        if m and m[1] not in _KEYWORDS:
            name, base = m.groups()
            line, col = self.at(start)
            if base is not None:
                ont = OntRef(base, None, *self.at(m.start(2)))
                return PatternDecl(name, ont, self.chains(m.end()), None, line, col)
            self.tok = _TOKEN_RE.match(self.text, m.end())
            ont, pos = self.data_clause()
            return PatternDecl(name, ont, self.chains(pos), None, line, col)
        line, col = self.declaration()
        name = self.expect_name("a pattern name")
        self.expect("=")
        if self.tok[1] == "combine":
            self.next()
            net = self.expect_name("a network name")
            self.expect("end")
            return PatternDecl(name, None, (), net, line, col)
        self.expect("data")
        ont, pos = self.data_clause()
        return PatternDecl(name, ont, self.chains(pos), None, line, col)

    def data_clause(self) -> tuple[OntRef, int]:
        """The ontology reference at ``tok``, which must lex, optionally
        braced and extended after ``then``, and the offset behind it."""
        text, value = self.text, self.tok[1]
        if _stray(value):
            raise self.unexpected("an ontology reference")
        if value == "{":
            self.next()
        start = self.tok.start(1)
        end = _ONTREF_RE.match(text, start).end()
        if end == start:
            raise self.error("expected an ontology reference", start,
                             ("CURIE", "IRI"))
        line, col = self.at(start)
        base = text[start:end]
        if value != "{":
            return OntRef(base, None, line, col), end
        self.tok = _TOKEN_RE.match(text, end)
        if self.tok[1] == "}":
            return OntRef(base, None, line, col), self.tok.end()
        if self.tok[1] != "then":
            raise self.unexpected("'then' or '}'", "then", "}")
        # The fragment runs to the brace that closes the data clause.  An
        # IRI, quoted name or string literal is text: braces in it do not
        # count, and an opener whose token does not close is one character.
        start = _TOKEN_RE.match(text, self.tok.end()).start(1)
        depth = 1
        if self.next_at is None:
            self.next_at = {c: text.find(c, start) for c in "{}<'\""}
        for close, end in _text_tokens(text, start, self.next_at):
            c = text[close]
            depth += (c == "{") - (c == "}")
            if not depth:
                break
        else:
            raise self.error("unterminated data clause, expected '}'", start, ("}",))
        frag_line, frag_col = self.at(start)
        return (OntRef(base, text[start:close], line, col, frag_line, frag_col),
                end)

    def chains(self, pos: int) -> tuple[tuple[NodeRef, ...], ...]:
        """The chains of the pattern body at ``pos``, each the tuple of
        its node references, read up to and including the body's ``end``,
        behind which tokens are read on.  A reference keeps its offset;
        no line or column is worked out here."""
        text, match = self.text, _REF_RE.match
        new = tuple.__new__  # NodeRef(...) without its Python-level __new__
        chains, refs = [], []
        while (m := match(text, pos)) is not None:
            name, cls, sep = m.groups()
            if name in _KEYWORDS or cls in _KEYWORDS:
                break
            refs.append(new(NodeRef, (None, name, m.start(1)) if cls is None
                            else (name, cls, m.start(1))))
            pos = m.end()
            if sep == ";":
                chains.append(tuple(refs))
                refs = []
        # No reference at pos: the body's end, or an error.
        self.tok = _TOKEN_RE.match(text, pos)
        if not refs:
            if self.tok[1] == "end":
                self.next()
                return tuple(chains)
            if not self.tok[1]:
                raise self.error("unterminated pattern, expected 'end'",
                                 self.tok.start(1), ("end",))
        self.expect_name("a node or class token")
        if self.tok[1] == ":":
            self.next()
            self.expect_name("a class token")
        raise self.unexpected("'->' or ';'", "->", ";")

    def listed(self, pos: int) -> tuple[list, int] | None:
        """The pairs of the ``via`` list at ``pos`` that the first ``end``
        token behind it closes, as ``_PAIRS`` reads them, and the offset
        behind that ``end``; None unless every pair is read."""
        end = _END_RE.search(self.text, pos)
        if end is None:
            return None
        items = self.text[pos:end.start()]
        found = _PAIRS(items)
        return (found, end.end()) if len(found) == items.count(",") + 1 else None

    def refinement_decl(self) -> RefinementDecl:
        start = self.tok.start(1)
        m = _REFINEMENT_HEAD.match(self.text, start)
        listed = m and (self.listed(m.end()) if m[4] else (None, m.end()))
        if listed:
            pairs, pos = listed
            if _KEYWORDS.isdisjoint((*m.group(1, 2, 3),
                                     *chain.from_iterable(pairs or ()))):
                self.tok = _TOKEN_RE.match(self.text, pos)
                line, col = self.at(start)
                return RefinementDecl(*m.group(1, 2, 3),
                                      None if pairs is None else tuple(pairs),
                                      line, col)
        line, col = self.declaration()
        name = self.expect_name("a refinement name")
        self.expect("=")
        source = self.expect_name("a pattern name")
        self.expect("refined")
        self.expect("to")
        target = self.expect_name("a pattern name")
        explicit = None
        if self.tok[1] == "via":
            self.next()
            pairs = [self.map_pair()]
            while self.tok[1] == ",":
                self.next()
                pairs.append(self.map_pair())
            explicit = tuple(pairs)
        self.expect("end")
        return RefinementDecl(name, source, target, explicit, line, col)

    def map_pair(self) -> tuple[str, str]:
        a = self.expect_name("a source node id")
        self.expect("|->")
        b = self.expect_name("a target node id")
        return (a, b)

    def network_decl(self) -> NetworkDecl:
        line, col = self.declaration()
        name = self.expect_name("a network name")
        self.expect("=")
        members = [self.expect_name("a member name")]
        while self.tok[1] == ",":
            self.next()
            members.append(self.expect_name("a member name"))
        self.expect("end")
        return NetworkDecl(name, tuple(members), line, col)


def parse(text: str, source_name: str = "<input>") -> Document:
    """Parse source text into a Document AST.  A ParseError carries
    ``source_name``."""
    try:
        return _Parser(text).document()
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
    # Each data clause's taxonomy by its (base, extension) text, so that
    # ``OntRef.key`` splits each distinct extension text once.
    seen: dict[tuple[str, str | None], Taxonomy] = {}
    for decl in doc.declarations:
        try:
            if isinstance(decl, PatternDecl):
                _resolve_pattern(decl, lib, catalog, diagnostics, seen, doc.text)
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


def _placed(e: NesyError, text: str, ref: NodeRef) -> NesyError:
    """``e`` placed at ``ref`` in ``text``, the one pass over the text
    that works out its line and column; left unplaced without a text, so
    that ``resolve`` places it at the pattern's declaration."""
    return e.at(*_positions(text)(ref.offset)) if text else e


def _resolve_pattern(decl: PatternDecl, lib: Library, catalog: Catalog,
                     diagnostics, seen: dict, text: str) -> None:
    if decl.name in lib.patterns or decl.name in lib.combine_defs:
        raise DuplicateNameError(f"pattern {decl.name!r} declared twice")
    if decl.combine_of is not None:
        if decl.combine_of not in lib.networks:
            raise UnknownNameError(
                f"combine references unknown network {decl.combine_of!r}")
        lib.combine_defs[decl.name] = decl.combine_of
        return

    taxonomy = seen.get(decl.ont[:2])
    if taxonomy is None:
        taxonomy = seen[decl.ont[:2]] = _taxonomy_for(decl.ont, lib, catalog,
                                                      diagnostics)
    # Anonymous nodes take the next anonN that no reference names; the
    # names in use are gathered at the first anonymous node.
    named: set[str] | None = None
    anon = 0
    labels: dict[str, ClassRef] = {}
    classes: dict[str, ClassRef] = {}  # each class token is looked up once
    edges: set[tuple[str, str]] = set()  # a set's copy keeps fewer slots
    for refs in decl.chains:
        prev = None
        for ref in refs:
            cls = classes.get(ref.cls)
            if cls is None:
                try:
                    cls = classes[ref.cls] = taxonomy.lookup(ref.cls)
                except NesyError as e:
                    raise _placed(e, text, ref)
            node_id = ref.name
            if node_id is None:
                if named is None:
                    named = {r.name for refs in decl.chains for r in refs}
                anon += 1
                while f"anon{anon}" in named:
                    anon += 1
                node_id = f"anon{anon}"
            elif labels.get(node_id, cls) is not cls:  # one object per class
                raise _placed(LabelMismatchError(
                    f"node {node_id!r} was declared with class "
                    f"{labels[node_id].local_name!r} but recurs "
                    f"with {ref.cls!r}"), text, ref)
            labels[node_id] = cls
            if prev is not None:
                if prev == node_id:
                    raise _placed(SelfLoopError(
                        f"chain creates a self-loop on node {node_id!r}"),
                        text, ref)
                edges.add((prev, node_id))
            prev = node_id
    # Every label and edge is checked above; no validating pass follows.
    lib.patterns[decl.name] = Pattern(decl.name, taxonomy, labels, frozenset(edges))


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

    Output is deterministic.  Each declaration comes after every
    declaration it names; otherwise patterns, refinements, networks and
    combine-definitions come in the library's order: the next one is the
    first in that order whose names are all printed.  Node ids are
    printed explicitly, and node ids and pattern, refinement and network
    names are sanitized to identifiers ``parse`` accepts where needed,
    so re-resolving yields patterns isomorphic to the input's.  A
    pattern body prints each edge once, in chains
    ``a : X -> b : Y -> ...;`` that follow the edges as trails, and a
    node alone only when no edge touches it: |E| plus one node reference
    per chain and per isolated node, so a path is one chain of |V|
    references.  Combine-defined patterns are emitted as their
    ``combine`` form.  A refinement is printed with its ``via`` map.  A
    combine-defined endpoint is combined again on re-parse, where each
    combined node keeps a member's own id, so the map prints its ids
    unchanged.  Such a map is left to inference when sanitizing changes
    some pattern name or printed node id, as that can change which
    member names a combined node, or when one of its ids is not a name
    ``parse`` accepts.  So every map of a library that ``resolve`` built
    is printed and read back as it is.
    """
    items = _emit_order(lib)
    names = _safe_names(_declared_names(lib))
    node_ids = cache(_safe_names)  # each pattern's ids sanitized once
    # Whether re-parsing combines every combine-defined pattern to the
    # same ids: no pattern name and no printed node id is sanitized, so
    # every id maps to itself.  Only a refinement with a combine-defined
    # endpoint reads it, and tests each id it maps there once per call.
    combined_ids_kept = any(
        p.name in lib.combine_defs
        for r in lib.refinements.values() for p in (r.source, r.target)
    ) and all(
        names[name] == name
        and (name in lib.combine_defs
             or all(k == v for k, v in node_ids(p.sorted_ids).items()))
        for name, p in lib.patterns.items())
    writable = cache(_writable) if combined_ids_kept else None
    data_keys: dict[Taxonomy, str] = {}  # the first key in order wins
    for key in sorted(lib.taxonomies):
        data_keys.setdefault(lib.taxonomies[key], key)
    blocks = ["logic NeSyPatterns"]
    for kind, name in items:
        if kind == "pattern":
            blocks.append(_emit_pattern(data_keys, lib.patterns[name], names,
                                        node_ids))
        elif kind == "refinement":
            blocks.append(_emit_refinement(lib, lib.refinements[name], names,
                                           node_ids, writable))
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
    deps: list[set[tuple[str, str]]] = []
    for name in lib.patterns:
        if name not in lib.combine_defs:
            items.append(("pattern", name))
            deps.append(set())
    for name, r in lib.refinements.items():
        items.append(("refinement", name))
        deps.append({pattern_item(r.source.name), pattern_item(r.target.name)})
    for name, net in lib.networks.items():
        items.append(("network", name))
        deps.append({pattern_item(p) for p in net.patterns}
                    | {("refinement", r) for r in net.refinements})
    for name in lib.combine_defs:
        items.append(("combine", name))
        deps.append({("network", lib.combine_defs[name])})

    # Emit the lowest-index item whose dependencies are all emitted: each
    # item counts its unemitted ones, and emitting one releases its waiters.
    index = {item: i for i, item in enumerate(items)}
    waits = [0] * len(items)
    releases: list[list[int]] = [[] for _ in items]
    for i, ds in enumerate(deps):
        for d in ds:
            j = index.get(d)  # None for a name the library does not hold
            if j is not None:
                waits[i] += 1
                releases[j].append(i)
    ready = [i for i, n in enumerate(waits) if not n]  # sorted, so a heap
    order: list[tuple[str, str]] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(items[i])
        for k in releases[i]:
            waits[k] -= 1
            if not waits[k]:
                heapq.heappush(ready, k)
    if len(order) < len(items):
        raise ValueError("library declarations are cyclic; cannot emit")
    return order


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
        if _writable(name):
            mapping[name] = name
            continue
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


def _data_key_for(data_keys: dict[Taxonomy, str], p: Pattern) -> str:
    key = data_keys.get(p.taxonomy)
    if key is not None:
        return key
    if p.taxonomy == default_taxonomy():
        return BUILTIN_IRIS[0]
    raise ValueError(
        f"pattern {p.name!r} uses a taxonomy with no registered ontology "
        f"reference; cannot emit a data clause")


def _emit_pattern(data_keys: dict[Taxonomy, str], p: Pattern,
                  names: dict[str, str], node_ids: Callable[..., dict[str, str]]) -> str:
    ids = node_ids(p.sorted_ids)
    ref = {n: f"{ids[n]} : {p.labels[n].local_name}" for n in p.sorted_ids}
    out: dict[str, list[str]] = {}
    for a, b in p.edges:
        out.setdefault(a, []).append(b)
    for heads in out.values():
        heads.sort(reverse=True)  # so pop() takes the smallest unused head
    ins = Counter(map(itemgetter(1), p.edges))
    lines = [f"pattern {names[p.name]} = data {_data_key_for(data_keys, p)}"]
    # A trail must start where out-edges outnumber in-edges, so those
    # nodes start first; then any node with an unused out-edge does.
    sources = [n for n in p.sorted_ids if len(out.get(n, ())) > ins[n]]
    for start in (*sources, *p.sorted_ids):
        while out.get(start):
            trail, n = [ref[start]], start
            while heads := out.get(n):
                n = heads.pop()
                trail.append(ref[n])
            lines.append("  " + " -> ".join(trail) + ";")
    lines += [f"  {ref[n]};" for n in p.sorted_ids
              if n not in out and n not in ins]  # no edge touches n
    lines.append("end")
    return "\n".join(lines)


def _emit_refinement(lib: Library, r: Refinement, names: dict[str, str],
                     node_ids: Callable[..., dict[str, str]],
                     writable: Callable[[str], bool] | None) -> str:
    head = (f"refinement {names[r.name]} = {names[r.source.name]} refined to "
            f"{names[r.target.name]}")
    # A combine-defined endpoint's ids are printed as they are, if
    # re-parsing keeps them (``writable`` is None where it does not)
    # and they are names (see emit_dsl); the others are sanitized.
    src, tgt = (None if p.name in lib.combine_defs else node_ids(p.sorted_ids)
                for p in (r.source, r.target))
    pairs = sorted(r.node_map.items())
    if src is None or tgt is None:
        kept = chain((a for a, _ in pairs) if src is None else (),
                     (b for _, b in pairs) if tgt is None else ())
        if writable is None or not all(map(writable, kept)):
            return f"{head} end"
    pairs = [(a if src is None else src[a], b if tgt is None else tgt[b])
             for a, b in pairs]
    return f"{head} via {', '.join(f'{a} |-> {b}' for a, b in pairs)} end"
