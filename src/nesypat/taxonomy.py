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
first, and each class's down-set (itself and its subclasses) is an
``int`` bitset built in one pass of ORs.  ``leq`` is then a bit test
and ``infimum`` an AND of down-sets, whose highest bit is a maximal
lower bound.  These n * n bits take about 12 MiB for 10,000 classes.
"""

from __future__ import annotations

import re
from functools import cache
from pathlib import Path

from .errors import (
    CycleError,
    Diagnostic,
    NesyError,
    ParseError,
    UnknownClassError,
    _positions,
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
                 "_index", "_order", "_down", "_by_local")

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

        down = [0] * n  # by position; bit k is the class topo[k]
        for k, i in enumerate(topo):
            b = 1 << k
            for s in subs[i]:
                b |= down[s]
            down[i] = b

        order = [by_iri[i] for i in topo]
        object.__setattr__(self, "_index", {c.iri: k for k, c in enumerate(order)})
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_down", [down[i] for i in topo])

        t = pos[top.iri]
        if down[t] != (1 << n) - 1:
            stray = min(topo[k] for k in range(n) if not down[t] >> k & 1)
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
            return bool(self._down[index[b.iri]] >> index[a.iri] & 1)
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
        edges += [(c, self.top) for c in roots]
        return Taxonomy(self.classes.union(added), self.subclass_edges.union(edges),
                        self.top, self.namespace)

    # -- equality --------------------------------------------------------

    def __eq__(self, other):
        return self is other or (isinstance(other, Taxonomy)
                                 and self.classes == other.classes
                                 and self.subclass_edges == other.subclass_edges
                                 and self.top == other.top)

    def __hash__(self):
        return hash((self.classes, self.subclass_edges, self.top))

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


#: The Manchester tokens that may hold whitespace, shared with ``dsl``:
#: an ``<IRI>``, a ``'quoted name'`` and a ``"string literal"``.
_IRI = r"<(?P<iri>[^>]*)>"
_QUOTED = r"'(?P<quoted>[^'\n]*)'"
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'

# Whitespace (group 1), then one token; alternatives are tried in order.
# ``misc`` lexes string literals, numbers, parentheses and annotation
# operators, which only appear inside entries the parser skips.  ``bad``
# catches an opening ``<``, ``'`` or ``"`` whose token alternative
# failed, and takes the rest of the text with it, so it can only be the
# last match.  Every character but whitespace starts an alternative, so
# a search that ends at the last other character never backtracks over
# whitespace.
_MANCHESTER_RE = re.compile(rf"""
    (\s*)
    (?: {_IRI}
  | {_QUOTED}
  | (?P<colon>:)
  | (?P<comma>,)
  | (?P<name>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<misc>{_STRING}|[0-9][A-Za-z0-9_.\-]*|[^\s<'"])
  | (?P<bad>[<'"]).* )
""", re.VERBOSE | re.DOTALL)

_UNTERMINATED = {"<": "unterminated IRI", "'": "unterminated quoted name",
                 '"': "unterminated string literal"}


def _tokenize_manchester(text: str) -> list[tuple[str, str, int]]:
    """The tokens of ``text`` as ``(kind, value, offset)`` tuples, the
    kind one of iri, quoted, colon, comma, name, misc and eof."""
    toks = [(m.lastgroup, m[m.lastgroup], m.end(1))
            for m in _MANCHESTER_RE.finditer(text, 0, len(text.rstrip()))]
    if toks and toks[-1][0] == "bad":
        _, value, offset = toks[-1]
        line, col = _positions(text)(offset)
        raise ParseError(_UNTERMINATED[value], line=line, col=col)
    toks.append(("eof", "", len(text)))
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
    edges += [(c, top) for c in roots if c != top]
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

    Returns (the added classes in the order first named, a list of the
    stated edges, the added classes with no superclass, the namespace).
    """
    toks = _tokenize_manchester(text)
    position = _positions(text)
    prefixes: dict[str, str] = {}
    namespace = None if base is None else base.namespace
    ontology_iri: str | None = None
    declared: list = []  # keys of Class frames, in order, with repeats
    edge_keys: list[tuple] = []
    where: dict = {}  # key -> offset of the token it first starts at

    def warn(msg: str, offset: int) -> None:
        if diagnostics is not None:
            line, col = position(offset)
            diagnostics.append(Diagnostic("warning", msg, line, col,
                                          source_name))

    i = 0
    while toks[i][0] != "eof":
        _, kw, offset = toks[i]
        after = _keyword_end(toks, i, _FRAME_KEYWORDS)
        if after is None:
            line, col = position(offset)
            raise ParseError(f"malformed frame near {kw!r}", line=line, col=col,
                             expected=tuple(sorted(_FRAME_KEYWORDS)))
        i = after
        if kw == "Class":
            subject, i = _read_name(toks, i, where, position)
            if subject is None:
                line, col = position(toks[i][2])
                raise ParseError(f"expected a class name, found {toks[i][1]!r}",
                                 line=line, col=col,
                                 expected=("name", "quoted name", "IRI"))
            declared.append(subject)
            while (after := _keyword_end(toks, i, _ENTRY_KEYWORDS)) is not None:
                _, entry, offset = toks[i]
                i = after
                if entry != "SubClassOf":
                    warn(f"{entry} entries are skipped", offset)
                    i = _skip_entry(toks, i)
                    continue
                while not _is_keyword(toks[i]):
                    offset = toks[i][2]
                    sup, i = _read_name(toks, i, where, position)
                    if sup is None:
                        warn("unsupported class expression skipped", offset)
                        i = _skip_entry(toks, i)
                        break
                    nxt = toks[i]
                    if nxt[0] != "comma" and nxt[0] != "eof" and not _is_keyword(nxt):
                        warn("complex class expression skipped", offset)
                        i = _skip_entry(toks, i)
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
                if toks[i][0] == "iri":  # optional version IRI
                    i += 1
        elif kw == "Import":
            warn("imports are not honored", offset)
            _, i = _read_name(toks, i, where, position)
        else:
            warn(f"{kw} frames are skipped", offset)
            i = _skip_entry(toks, i)

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
        offset = where[key]
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
                line, col = position(offset)
                raise UnknownClassError(f"undeclared prefix {pfx!r} in {name!r}",
                                        line=line, col=col)
        if bare and local in by_local:
            c = by_local[local]
        elif iri in index:
            c = base._order[index[iri]]
        elif iri in added:
            c = added[iri]
        elif declare:
            c = added[iri] = _mint(iri, local if bare else _local_name_of(iri),
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


def _mint(iri: str, local: str, taken: dict[str, ClassRef],
          position, offset: int) -> ClassRef:
    """A class read from Manchester text, recorded in ``taken`` by local
    name.  A local name that is empty, holds whitespace or is taken by
    another IRI is a ParseError at ``position(offset)``, where the name
    starts."""
    try:
        ref = ClassRef(iri, local)
    except ValueError:
        problem = "whitespace in its local name" if local else "no local name"
    else:
        other = taken.setdefault(local, ref)
        if other.iri == iri:
            return ref
        problem = f"the local name {local!r} of <{other.iri}>"
    shown = iri if iri.isprintable() else repr(iri)[1:-1]  # keep it one line
    line, col = position(offset)
    raise ParseError(f"IRI <{shown}> has {problem}", line=line, col=col)


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


def _keyword_end(toks: list, i: int, words) -> int | None:
    """The index after the keyword of ``words`` at ``toks[i]`` and its
    ':', or None if no such keyword starts there.  A keyword is followed
    by ':' (standard) or by a name, quoted name or IRI (the colon-less
    form used in inline extensions)."""
    kind, value, _ = toks[i]
    if kind == "name" and value in words:
        after = toks[i + 1][0]
        if after == "colon":
            return i + 2
        if after == "name" or after == "quoted" or after == "iri":
            return i + 1
    return None


def _read_name(toks: list, i: int, where: dict, position):
    """The key of the class name at ``toks[i]`` (see ``_read_classes``)
    and the index after it, or ``(None, i)`` if no name starts there.
    The offset a key is first read at goes to ``where``."""
    tok = toks[i]
    kind, value, offset = tok
    if kind == "name":
        key = (None, value)
        i += 1
        colon = toks[i]
        if colon[0] == "colon" and _is_adjacent(tok, colon):
            local = toks[i + 1]
            if local[0] != "name" or not _is_adjacent(colon, local):
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
    elif kind == "colon" and toks[i + 1][0] == "name" and _is_adjacent(tok, toks[i + 1]):
        key = ("", toks[i + 1][1])  # ``:Name``, a name with the empty prefix
        i += 2
    else:
        return None, i
    where.setdefault(key, offset)
    return key, i


def _skip_entry(toks: list, i: int) -> int:
    """The index of the next keyword or of the end, from ``i`` on."""
    while toks[i][0] != "eof" and not _is_keyword(toks[i]):
        i += 1
    return i


def _is_adjacent(a: tuple, b: tuple) -> bool:
    """Whether token ``b`` starts where token ``a`` ends."""
    return a[2] + len(a[1]) == b[2]


def _is_keyword(t: tuple) -> bool:
    return t[0] == "name" and t[1] in _KEYWORDS
