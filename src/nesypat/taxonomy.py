"""Class hierarchies for pattern elements.

A taxonomy is a finite acyclic subclass graph with a single top class.
It answers subsumption queries (``leq``), computes infima of label sets
(the operation that decides whether pattern combinations exist) and the
maximal common lower bounds that explain a missing one, and can be read
from a small subset of OWL2 Manchester syntax: prefix declarations, the
ontology header, and ``Class`` frames with named ``SubClassOf`` entries.
Everything else is skipped with a warning.

The order is encoded as in Ait-Kaci, Boyer, Lincoln and Nasr, "Efficient
implementation of lattice operations" (TOPLAS 1989): classes get bit
indices in a topological order found by Kahn's algorithm, subclasses
first, and each class's up-set and down-set is an ``int`` bitset built
in one pass of ORs.  ``leq`` is then a bit test and ``infimum`` an AND
of down-sets, whose highest bit is a maximal lower bound.
"""

from __future__ import annotations

import re
from functools import cache, partial
from pathlib import Path
from typing import NamedTuple

from .errors import (
    CycleError,
    Diagnostic,
    NesyError,
    ParseError,
    UnknownClassError,
)

#: Namespace of the bundled pattern-element ontology.
DEFAULT_NAMESPACE = "https://ontohub.org/meta/NeSyPatterns.omn#"

#: Local name of the root class every pattern element sits below.
TOP_LOCAL_NAME = "NeSy_Pattern_Element"

#: A usable local name: non-empty, without whitespace.
_LOCAL_NAME_RE = re.compile(r"\S+")


def _iri(c: "ClassRef") -> str:
    return c.iri


def _local_name_of(iri: str) -> str:
    if "#" in iri:
        frag = iri.rsplit("#", 1)[1]
    else:
        frag = iri.rstrip("/").rsplit("/", 1)[-1]
    return frag.replace(" ", "_")


class ClassRef:
    """An ontology class. Two refs are equal iff their IRIs are equal."""

    __slots__ = ("iri", "local_name")

    iri: str
    local_name: str

    def __init__(self, iri: str, local_name: str):
        if not _LOCAL_NAME_RE.fullmatch(local_name):
            raise ValueError(f"bad local name {local_name!r}")
        object.__setattr__(self, "iri", iri)
        object.__setattr__(self, "local_name", local_name)

    def __setattr__(self, name, value):
        raise AttributeError("ClassRef is immutable")

    def __reduce__(self):  # copy and pickle through the constructor
        return ClassRef, (self.iri, self.local_name)

    def __eq__(self, other):
        return isinstance(other, ClassRef) and self.iri == other.iri

    def __hash__(self):
        return hash(self.iri)

    def __repr__(self):
        return f"ClassRef({self.local_name})"


class Taxonomy:
    """Immutable subclass hierarchy with one top class.

    ``subclass_edges`` holds (sub, super) pairs; ``leq`` is their
    reflexive-transitive closure.  Construction validates that the edge
    graph is acyclic, that all endpoints are declared classes, and that
    every class reaches ``top``.
    """

    __slots__ = ("classes", "subclass_edges", "top", "namespace",
                 "_index", "_order", "_up", "_down", "_by_local", "_hash")

    def __init__(self, classes, subclass_edges, top: ClassRef,
                 namespace: str = DEFAULT_NAMESPACE):
        classes = frozenset(classes)
        edges = frozenset(subclass_edges)
        if top not in classes:
            raise ValueError("top class must be a member of classes")
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "subclass_edges", edges)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "namespace", namespace)
        object.__setattr__(self, "_hash", None)

        # Positions follow IRI order, so the build and its messages do not
        # depend on set iteration order.  Dicts are keyed by IRI (ClassRef
        # equality is IRI equality): a str caches its hash, a ClassRef
        # computes it in Python on every lookup.
        by_iri = sorted(classes, key=_iri)
        pos = {c.iri: i for i, c in enumerate(by_iri)}
        n = len(by_iri)
        parents: list[list[int]] = [[] for _ in range(n)]
        subs: list[list[int]] = [[] for _ in range(n)]
        for sub, sup in edges:
            try:
                s, p = pos[sub.iri], pos[sup.iri]
            except KeyError:
                raise ValueError(
                    f"edge endpoint not declared: {sub!r} <= {sup!r}") from None
            parents[s].append(p)
            subs[p].append(s)

        # Kahn's algorithm, subclasses first: a class is placed once all
        # of its subclasses are.
        waiting = [len(x) for x in subs]
        ready = [i for i in range(n) if not waiting[i]]
        topo: list[int] = []
        while ready:
            i = ready.pop()
            topo.append(i)
            for p in parents[i]:
                waiting[p] -= 1
                if not waiting[p]:
                    ready.append(p)
        if len(topo) < n:
            name = by_iri[min(_find_cycle(subs, waiting))].local_name
            raise CycleError(f"subclass axioms form a cycle through {name}")

        bit = [0] * n
        for k, i in enumerate(topo):
            bit[i] = k
        up = [0] * n
        for i in reversed(topo):
            b = 1 << bit[i]
            for p in parents[i]:
                b |= up[p]
            up[i] = b
        down = [0] * n
        for i in topo:
            b = 1 << bit[i]
            for s in subs[i]:
                b |= down[s]
            down[i] = b

        order = [by_iri[i] for i in topo]
        object.__setattr__(self, "_index", {c.iri: k for k, c in enumerate(order)})
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_up", [up[i] for i in topo])
        object.__setattr__(self, "_down", [down[i] for i in topo])

        t = pos[top.iri]
        if down[t] != (1 << n) - 1:
            stray = next(i for i in range(n) if not down[t] >> bit[i] & 1)
            raise ValueError(
                f"class {by_iri[stray].local_name} does not reach the top class")

        by_local: dict[str, ClassRef] = {}
        for c in by_iri:
            if c.local_name in by_local:
                raise ValueError(
                    f"duplicate local name {c.local_name!r} for distinct IRIs")
            by_local[c.local_name] = c
        object.__setattr__(self, "_by_local", by_local)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Taxonomy is immutable")

    # -- queries ---------------------------------------------------------

    def __contains__(self, c: ClassRef) -> bool:
        return c in self.classes

    def lookup(self, token: str) -> ClassRef:
        """Resolve a DSL class token to the class of that local name; a
        space in the token stands for ``_``."""
        token = token.replace(" ", "_")
        try:
            return self._by_local[token]
        except KeyError:
            raise UnknownClassError(f"unknown class {token!r}") from None

    def has_local(self, token: str) -> bool:
        return token.replace(" ", "_") in self._by_local

    def leq(self, a: ClassRef, b: ClassRef) -> bool:
        """True iff ``a`` is ``b`` or a (transitive) subclass of ``b``."""
        index = self._index
        try:
            return bool(self._up[index[a.iri]] >> index[b.iri] & 1)
        except KeyError:
            self._require(a)
            self._require(b)
            raise

    def infimum(self, labels) -> ClassRef | None:
        """Greatest common lower bound of a non-empty label set, or None.

        The common lower bounds are the AND of the labels' down-sets.
        Its highest bit ``m`` is a maximal lower bound, since no class
        has a higher bit than its superclasses; the infimum exists iff
        every lower bound is below ``m``.
        """
        lower = self._lower_bounds(labels)
        if not lower:
            return None
        m = lower.bit_length() - 1
        if lower & ~self._down[m]:
            return None
        return self._order[m]

    def maximal_lower_bounds(self, labels) -> list[ClassRef]:
        """The maximal common lower bounds of a non-empty label set,
        sorted by IRI: none or several of them when there is no infimum,
        else just the infimum."""
        lower = self._lower_bounds(labels)
        found = []
        while lower:
            m = lower.bit_length() - 1
            found.append(self._order[m])
            lower &= ~self._down[m]
        return sorted(found, key=_iri)

    def _lower_bounds(self, labels) -> int:
        """Bitset of the classes below every label."""
        index, down = self._index, self._down
        lower = -1
        for x in labels:
            try:
                lower &= down[index[x.iri]]
            except KeyError:
                self._require(x)
                raise
        if lower == -1:
            raise ValueError("infimum of an empty label set")
        return lower

    def _require(self, c: ClassRef) -> None:
        if c not in self.classes:
            raise UnknownClassError(f"class {c.local_name!r} is not in this taxonomy")

    def same_classes(self, other: "Taxonomy") -> bool:
        return self.classes == other.classes

    # -- construction ----------------------------------------------------

    def extend(self, fragment: str,
               diagnostics: list[Diagnostic] | None = None) -> "Taxonomy":
        """Return this taxonomy plus the classes/edges of a Manchester fragment.

        Names resolve against this taxonomy first, a bare name by local
        name; new classes get IRIs in this taxonomy's namespace unless
        the fragment declares its own ``:`` prefix, and new classes
        with no superclass go below the top.  A ``SubClassOf`` target
        that is neither known nor declared in the fragment raises
        UnknownClassError.
        """
        if not fragment.strip():
            return self
        added, edges, roots, _ = _read_classes(fragment, diagnostics,
                                               "<fragment>", self)
        edges.update((c, self.top) for c in roots)
        return Taxonomy(self.classes.union(added), self.subclass_edges | edges,
                        self.top, self.namespace)

    # -- equality --------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Taxonomy)
                and self.classes == other.classes
                and self.subclass_edges == other.subclass_edges
                and self.top == other.top)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash",
                hash((self.classes, self.subclass_edges, self.top)))
        return self._hash

    def __repr__(self):
        return f"Taxonomy({len(self.classes)} classes, top={self.top.local_name})"


@cache
def default_taxonomy() -> Taxonomy:
    """The bundled pattern-element hierarchy, read from
    ``corpus/nesy_patterns.omn`` once per process.

    Top is NeSy_Pattern_Element with Instance, Model, Process and Actor
    below it; Data and Symbol are instances, Statistical_Model and
    Semantic_Model are models, and Training, Deduction and Transformation
    are processes.
    """
    path = Path(__file__).with_name("corpus") / "nesy_patterns.omn"
    return parse_taxonomy(path.read_text(encoding="utf-8"),
                          source_name=str(path))


# -- Manchester-subset reader ---------------------------------------------

_FRAME_KEYWORDS = {
    "Class", "Datatype", "ObjectProperty", "DataProperty",
    "AnnotationProperty", "Individual", "NamedIndividual",
    "Prefix", "Ontology", "Import",
}
_ENTRY_KEYWORDS = {
    "SubClassOf", "EquivalentTo", "DisjointWith", "DisjointUnionOf",
    "HasKey", "Annotations",
}
_KEYWORDS = _FRAME_KEYWORDS | _ENTRY_KEYWORDS


class _Tok(NamedTuple):
    kind: str  # name, quoted, iri, colon, comma, misc, eof
    value: str
    line: int
    col: int


# Alternatives are tried in order.  ``bad`` catches an opening ``<``,
# ``'`` or ``"`` whose token alternative failed; ``misc`` lexes numbers,
# parentheses and annotation operators, which only appear inside entries
# the parser skips.  Whitespace matches nothing and is passed over.
_MANCHESTER_RE = re.compile(r"""
    (?P<newline>\n)
  | <(?P<iri>[^>]*)>
  | '(?P<quoted>[^'\n]*)'
  | (?P<string>"[^"\\]*(?:\\.[^"\\]*)*")
  | (?P<bad>[<'"])
  | (?P<colon>:)
  | (?P<comma>,)
  | (?P<name>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<misc>[0-9][A-Za-z0-9_.\-]*|\S)
""", re.VERBOSE | re.DOTALL)

#: Builds a ``_Tok`` from a 4-tuple without the Python-level ``__new__``
#: that ``NamedTuple`` generates; the tokenizer makes one per match.
_new_tok = partial(tuple.__new__, _Tok)

_UNTERMINATED = {"<": "unterminated IRI", "'": "unterminated quoted name",
                 '"': "unterminated string literal"}


def _tokenize_manchester(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start = 1, 0  # line_start: offset of the line's first character
    for m in _MANCHESTER_RE.finditer(text):
        kind = m.lastgroup
        start = m.start()
        if kind == "newline":
            line += 1
            line_start = start + 1
            continue
        if kind == "bad":
            raise ParseError(_UNTERMINATED[m.group()],
                             line=line, col=start - line_start + 1)
        value = m.group(kind)
        toks.append(_new_tok(("misc" if kind == "string" else kind, value,
                              line, start - line_start + 1)))
        if "\n" in value:  # an IRI or a string literal spanning lines
            line += value.count("\n")
            line_start = text.rfind("\n", start, m.end()) + 1
    toks.append(_Tok("eof", "", line, len(text) - line_start + 1))
    return toks


def parse_taxonomy(text: str, diagnostics: list[Diagnostic] | None = None,
                   source_name: str = "<ontology>") -> Taxonomy:
    """Build a Taxonomy from Manchester-subset source text.

    Only Prefix declarations, the Ontology header, and Class frames with
    named SubClassOf entries are interpreted; anything else produces a
    warning diagnostic.  A class may be written bare, quoted (a bare
    name whatever it holds), prefixed or as an ``<IRI>``; every spelling
    of one IRI names one class.  Superclass
    targets that are never declared are declared implicitly.  Classes
    with no superclass entry get an edge to the top class; the top is
    the declared NeSy_Pattern_Element if present, else the unique root,
    else a fresh synthesized root.  An error placed in ``text`` carries
    ``source_name``.
    """
    try:
        added, edges, roots, namespace = _read_classes(text, diagnostics,
                                                       source_name)
    except NesyError as e:
        raise e.in_file(source_name)
    top = next((c for c in added if c.local_name == TOP_LOCAL_NAME), None)
    if top is None:
        top = (roots[0] if len(roots) == 1
               else ClassRef(namespace + TOP_LOCAL_NAME, TOP_LOCAL_NAME))
    edges.update((c, top) for c in roots if c != top)
    return Taxonomy({top, *added}, edges, top, namespace)


def _read_classes(text: str, diagnostics: list[Diagnostic] | None,
                  source_name: str, base: Taxonomy | None = None):
    """Read the frames of Manchester text into classes and subclass
    edges, on top of ``base`` if given.

    Each name is read as a key: ``(None, local)`` for a bare or quoted
    name (a quoted name is a label whatever it holds; its spaces become
    ``_``), ``(prefix, local)`` for a prefixed one (prefix ``""`` for
    ``:Name``), and the IRI itself, a ``str``, for an ``<IRI>``.  Keys
    are resolved once the whole text is read, because prefixes, the
    namespace and ``Class`` frames may come after a name is used.  Each
    distinct key is resolved once, and classes are keyed by IRI.  A key
    resolves to a class of ``base`` (a bare name by local name, any name
    by IRI), else to a class the text already added; else it is minted,
    a bare name in the text's namespace.  Without a base, a
    ``SubClassOf`` target is declared by its use; with one, a target the
    text does not declare raises UnknownClassError.  Every error is
    placed at the token the failing name first starts at.

    Returns (the added classes in the order they are first named, the
    stated edges, the added classes with no superclass, the namespace).
    """
    toks = _tokenize_manchester(text)
    pos = 0
    prefixes: dict[str, str] = {}
    namespace = None if base is None else base.namespace
    ontology_iri: str | None = None
    declared: list = []  # keys of Class frames, in order, with repeats
    edge_keys: list[tuple] = []
    where: dict = {}  # key -> the token it first starts at

    def warn(msg: str, tok: _Tok) -> None:
        if diagnostics is not None:
            diagnostics.append(Diagnostic("warning", msg, tok.line, tok.col,
                                          source_name))

    def peek() -> _Tok:
        return toks[pos]

    def advance() -> _Tok:
        nonlocal pos
        t = toks[pos]
        if t.kind != "eof":
            pos += 1
        return t

    def at_keyword(words) -> str | None:
        t = peek()
        if t.kind == "name" and t.value in words:
            nxt = toks[pos + 1] if pos + 1 < len(toks) else None
            # A keyword may be followed by ':' (standard) or a name/quoted/IRI
            # (the colon-less form used in inline extensions).
            if nxt is not None and nxt.kind in ("colon", "name", "quoted", "iri"):
                return t.value
        return None

    def eat_keyword() -> _Tok:
        t = advance()
        if peek().kind == "colon":
            advance()
        return t

    def at_name() -> bool:
        t = peek()
        if t.kind == "colon":  # ``:Name``, a name with the empty prefix
            nxt = toks[pos + 1]
            return nxt.kind == "name" and _is_adjacent(t, nxt)
        return t.kind in ("name", "quoted", "iri")

    def parse_name() -> tuple | str:
        t = peek()
        if t.kind == "quoted":
            advance()
            key = (None, t.value.replace(" ", "_"))
        elif t.kind == "iri":
            advance()
            key = t.value
        elif t.kind == "name":
            advance()
            key = (None, t.value)
            if peek().kind == "colon" and _is_adjacent(t, toks[pos]):
                colon = advance()
                t2 = peek()
                if not (t2.kind == "name" and _is_adjacent(colon, t2)):
                    raise ParseError("malformed prefixed name",
                                     line=t.line, col=t.col)
                advance()
                key = (t.value, t2.value)
        elif at_name():
            advance()
            key = ("", advance().value)
        else:
            raise ParseError(f"expected a class name, found {t.value!r}",
                             line=t.line, col=t.col,
                             expected=("name", "quoted name", "IRI"))
        where.setdefault(key, t)
        return key

    def skip_entry() -> None:
        while True:
            t = peek()
            if t.kind == "eof" or _is_keyword(t):
                return
            advance()

    while peek().kind != "eof":
        kw = at_keyword(_FRAME_KEYWORDS)
        if kw == "Prefix":
            eat_keyword()
            pfx = ""
            if peek().kind == "name":
                pfx = advance().value
            if peek().kind == "colon":
                advance()
            t = peek()
            if t.kind != "iri":
                raise ParseError("expected <IRI> in prefix declaration",
                                 line=t.line, col=t.col, expected=("IRI",))
            iri = advance().value
            prefixes[pfx] = iri
            if pfx == "":
                namespace = iri
            continue
        if kw == "Ontology":
            eat_keyword()
            if peek().kind == "iri":
                ontology_iri = advance().value
                if peek().kind == "iri":  # optional version IRI
                    advance()
            continue
        if kw == "Import":
            t = eat_keyword()
            warn("imports are not honored", t)
            if at_name():
                parse_name()
            continue
        if kw == "Class":
            eat_keyword()
            subject = parse_name()
            declared.append(subject)
            while True:
                entry = at_keyword(_ENTRY_KEYWORDS)
                if entry is None:
                    break
                tok = peek()
                if entry != "SubClassOf":
                    eat_keyword()
                    warn(f"{entry} entries are skipped", tok)
                    skip_entry()
                    continue
                eat_keyword()
                while True:
                    t = peek()
                    if _is_keyword(t):
                        break
                    if not at_name():
                        warn("unsupported class expression skipped", t)
                        skip_entry()
                        break
                    sup = parse_name()
                    nxt = peek()
                    if nxt.kind not in ("comma", "eof") and not _is_keyword(nxt):
                        warn("complex class expression skipped", t)
                        skip_entry()
                        break
                    edge_keys.append((subject, sup))
                    if peek().kind == "comma":
                        advance()
                        continue
                    break
            continue
        if kw is not None:
            tok = eat_keyword()
            warn(f"{kw} frames are skipped", tok)
            skip_entry()
            continue
        t = peek()
        raise ParseError(f"malformed frame near {t.value!r}",
                         line=t.line, col=t.col,
                         expected=tuple(sorted(_FRAME_KEYWORDS)))

    if namespace is None:
        namespace = (ontology_iri + "#") if ontology_iri else DEFAULT_NAMESPACE
    index = {} if base is None else base._index
    by_local = {} if base is None else base._by_local
    taken = dict(by_local)
    added: dict[str, ClassRef] = {}  # IRI -> class the text adds
    refs: dict = {}  # key -> class

    def resolve(key, declare: bool) -> ClassRef:
        c = refs.get(key)
        if c is not None:
            return c
        at = where[key]
        bare = False
        if key.__class__ is str:  # an <IRI>
            iri = key
        else:
            pfx, local = key
            if pfx is None:
                bare, iri = True, namespace + local
            elif pfx in prefixes:
                iri = prefixes[pfx] + local
            else:
                name = f"{pfx}:{local}"
                raise UnknownClassError(f"undeclared prefix {pfx!r} in {name!r}",
                                        line=at.line, col=at.col)
        if bare and local in by_local:
            c = by_local[local]
        elif iri in index:
            c = base._order[index[iri]]
        elif iri in added:
            c = added[iri]
        elif declare:
            c = added[iri] = _mint(iri, local if bare else _local_name_of(iri),
                                   taken, at)
        else:
            shown = repr(local) if bare else f"<{iri}>"
            raise UnknownClassError(f"unknown class {shown} in extension",
                                    line=at.line, col=at.col)
        refs[key] = c
        return c

    for key in declared:
        resolve(key, True)
    edges = {(resolve(a, True), resolve(b, base is None)) for a, b in edge_keys}
    has_super = {sub for sub, _ in edges}
    roots = [c for c in added.values() if c not in has_super]
    return list(added.values()), edges, roots, namespace


def _mint(iri: str, local: str, taken: dict[str, ClassRef], at: _Tok) -> ClassRef:
    """A class read from Manchester text, recorded in ``taken`` by local
    name.  A local name that is empty, holds whitespace or is taken by
    another IRI is a ParseError at ``at``, the token the name starts at."""
    if not _LOCAL_NAME_RE.fullmatch(local):
        problem = "whitespace in its local name" if local else "no local name"
    else:
        ref = ClassRef(iri, local)
        other = taken.setdefault(local, ref)
        if other.iri == iri:
            return ref
        problem = f"the local name {local!r} of <{other.iri}>"
    shown = iri if iri.isprintable() else repr(iri)[1:-1]  # keep it one line
    raise ParseError(f"IRI <{shown}> has {problem}", line=at.line, col=at.col)


def _find_cycle(subs: list[list[int]], waiting: list[int]) -> list[int]:
    """A cycle among the classes Kahn's algorithm left over.

    Every class left over still waits for a subclass that is left over
    too, so walking down such subclasses from any of them must repeat a
    class; the walk from the repeat on is the cycle.
    """
    i = next(k for k, w in enumerate(waiting) if w)
    seen: dict[int, int] = {}
    path: list[int] = []
    while i not in seen:
        seen[i] = len(path)
        path.append(i)
        i = min(s for s in subs[i] if waiting[s])
    return path[seen[i]:]


def _is_adjacent(a: _Tok, b: _Tok) -> bool:
    return a.line == b.line and a.col + len(a.value) == b.col


def _is_keyword(t: _Tok) -> bool:
    return t.kind == "name" and t.value in _KEYWORDS
