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

Reading and building run on integer ids.  The reader reads each frame
of plain names (``Class: A SubClassOf: B, C``, a simple ``Prefix`` or
``Ontology`` header) with one regex match.  At the first frame that
pattern does not read, it splits the rest of the text into tokens with
one ``findall`` pass and walks them, so every warning and error is
placed as before.  It gives each class an id, keeps its superclasses as
lists of ids and makes its ``ClassRef`` once.  One builder turns such
arrays into the down-sets, for ``parse_taxonomy``, for ``extend`` (the
base's arrays followed by the fragment's) and for ``Taxonomy(...)``.
No class is hashed on the way; ``classes`` and ``subclass_edges`` are
built on first access.
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


_new_ref = object.__new__
_set_iri = ClassRef.iri.__set__
_set_local_name = ClassRef.local_name.__set__


def _class_ref(iri: str, local_name: str) -> ClassRef:
    """A ClassRef whose local name is known to be usable, made without
    the constructor's check."""
    ref = _new_ref(ClassRef)
    _set_iri(ref, iri)
    _set_local_name(ref, local_name)
    return ref


class Taxonomy:
    """Immutable subclass hierarchy with one top class.

    ``subclass_edges`` holds (sub, super) pairs; ``leq`` is their
    reflexive-transitive closure.  Construction validates that the edge
    graph is acyclic, that all endpoints are declared classes, and that
    every class reaches ``top``.  ``classes`` and ``subclass_edges`` are
    built on first access.
    """

    __slots__ = ("top", "namespace", "_refs", "_parents", "_down", "_bit",
                 "_topo", "_index", "_by_local", "_classes", "_edges")

    def __init__(self, classes, subclass_edges, top: ClassRef,
                 namespace: str = DEFAULT_NAMESPACE):
        ids: dict[str, int] = {}
        refs: list[ClassRef] = []
        for c in classes:
            if c.iri not in ids:
                ids[c.iri] = len(refs)
                refs.append(c)
        if top.iri not in ids:
            raise ValueError("top class must be a member of classes")
        parents: list[list[int]] = [[] for _ in refs]
        for sub, sup in subclass_edges:
            try:
                parents[ids[sub.iri]].append(ids[sup.iri])
            except KeyError:
                raise ValueError(
                    f"edge endpoint not declared: {sub!r} <= {sup!r}") from None
        self._build(refs, parents, ids[top.iri], namespace)

    def _build(self, refs: list[ClassRef], parents: list[list[int]], top: int,
               namespace: str) -> None:
        """Set up the taxonomy of the classes ``refs`` with superclasses
        ``parents`` (both by id, an index into ``refs``) and top
        ``top``.  The order found does not depend on the order of
        ``refs``, and an error names the class that comes first by IRI.
        """
        n = len(refs)
        subs: list[list[int]] = [[] for _ in range(n)]
        for s, ps in enumerate(parents):
            for p in ps:
                subs[p].append(s)

        # Kahn's algorithm, subclasses first: a class is placed once all
        # of its subclasses are, and the k-th class placed gets bit k.
        waiting = [len(x) for x in subs]
        ready = [i for i in range(n) if not waiting[i]]
        topo: list[int] = []
        down = [0] * n  # by id
        while ready:
            i = ready.pop()
            b = 1 << len(topo)
            for s in subs[i]:
                b |= down[s]
            down[i] = b
            topo.append(i)
            for p in parents[i]:
                waiting[p] -= 1
                if not waiting[p]:
                    ready.append(p)
        if len(topo) < n:
            iri = [c.iri for c in refs].__getitem__
            name = refs[min(_find_cycle(subs, waiting, iri), key=iri)].local_name
            raise CycleError(f"subclass axioms form a cycle through {name}")
        if down[top] != (1 << n) - 1:
            stray = min((refs[i] for k, i in enumerate(topo) if not down[top] >> k & 1),
                        key=_iri)
            raise ValueError(f"class {stray.local_name} does not reach the top class")

        by_local: dict[str, ClassRef] = {}
        for c in refs:
            if by_local.setdefault(c.local_name, c) is not c:
                seen: set[str] = set()
                for c in sorted(refs, key=_iri):  # name the first by IRI
                    if c.local_name in seen:
                        break
                    seen.add(c.local_name)
                raise ValueError(
                    f"duplicate local name {c.local_name!r} for distinct IRIs")
        bit = [0] * n
        for k, i in enumerate(topo):
            bit[i] = k
        for name, value in (("top", refs[top]), ("namespace", namespace),
                            ("_refs", refs), ("_parents", parents),
                            ("_down", down), ("_bit", bit), ("_topo", topo),
                            ("_index", {c.iri: i for i, c in enumerate(refs)}),
                            ("_by_local", by_local), ("_classes", None),
                            ("_edges", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Taxonomy is immutable")

    def __reduce__(self):  # copy and pickle through the constructor
        return Taxonomy, (self._refs, self.subclass_edges, self.top, self.namespace)

    @property
    def classes(self) -> frozenset:
        if self._classes is None:
            object.__setattr__(self, "_classes", frozenset(self._refs))
        return self._classes

    @property
    def subclass_edges(self) -> frozenset:
        if self._edges is None:
            refs = self._refs
            object.__setattr__(self, "_edges", frozenset(
                (refs[s], refs[p]) for s, ps in enumerate(self._parents) for p in ps))
        return self._edges

    # -- queries ---------------------------------------------------------

    def __contains__(self, c: ClassRef) -> bool:
        return isinstance(c, ClassRef) and c.iri in self._index

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
            return bool(self._down[index[b.iri]] >> self._bit[index[a.iri]] & 1)
        except KeyError:
            raise self._unknown(a, b) from None

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
        m = self._topo[lower.bit_length() - 1]
        if lower & ~self._down[m]:
            return None
        return self._refs[m]

    def maximal_lower_bounds(self, labels) -> list[ClassRef]:
        """The maximal common lower bounds of a non-empty label set,
        sorted by IRI: none or several of them when there is no infimum,
        else just the infimum."""
        lower = self._lower_bounds(labels)
        found = []
        while lower:
            m = self._topo[lower.bit_length() - 1]
            found.append(self._refs[m])
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
                raise self._unknown(x) from None
        if lower == -1:
            raise ValueError("infimum of an empty label set")
        return lower

    def _unknown(self, *cs: ClassRef) -> UnknownClassError:
        """The error for the first of ``cs`` that is not in this
        taxonomy; a KeyError from ``_index`` means one of them is not."""
        c = next(c for c in cs if c not in self)
        return UnknownClassError(f"class {c.local_name!r} is not in this taxonomy")

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
        refs, parents, top, _ = _read_classes(fragment, diagnostics,
                                              "<fragment>", self)
        t = object.__new__(Taxonomy)
        t._build(refs, parents, top, self.namespace)
        return t

    # -- equality --------------------------------------------------------

    def __eq__(self, other):
        return self is other or (isinstance(other, Taxonomy)
                                 and self.top == other.top
                                 and len(self._refs) == len(other._refs)
                                 and self.classes == other.classes
                                 and self.subclass_edges == other.subclass_edges)

    def __hash__(self):
        return hash((self.top.iri, len(self._refs)))

    def __repr__(self):
        return f"Taxonomy({len(self._refs)} classes, top={self.top.local_name})"


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
_IRI = r"<[^>]*>"
_QUOTED = r"'[^'\n]*'"
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_CLOSED = f"{_IRI}|{_QUOTED}|{_STRING}"  # compiled on first use only

# Whitespace (group 1), then one token (group 2); alternatives are tried
# in order.  Names, numbers, string literals and single characters
# other than ``<``, ``'`` and ``"`` follow the three tokens that may
# hold whitespace; the last alternative catches an opening ``<``, ``'``
# or ``"`` whose token failed, and takes the rest of the text with it,
# so it can only be the last match.  Every character but whitespace
# starts an alternative, so a search that ends at the last other
# character never backtracks over whitespace.  Compiled on first use
# only, as only text that ``_FRAME_RE`` does not read is tokenized.
_MANCHESTER = rf"""
    (\s*)
    ( {_IRI} | {_QUOTED} | {_STRING}
    | [A-Za-z_][A-Za-z0-9_\-]*
    | [0-9][A-Za-z0-9_.\-]*
    | [^\s<'"]
    | [<'"].* )
"""

_UNTERMINATED = {"<": "unterminated IRI", "'": "unterminated quoted name",
                 '"': "unterminated string literal"}

#: The first characters of a name, and of a name, quoted name or IRI.
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_CLASS_START = _NAME_START | {"'", "<"}


# One frame of plain names, in spellings the token walk reads the same
# way.  The walk reads a keyword after ``Class`` as a name, but ends a
# ``SubClassOf`` list at one.  A name can only be followed by ``,``, by
# whitespace and ``SubClassOf`` or ``Class``, or by the end, so it is a
# whole token and not the prefix of a prefixed name.  A Class frame
# must be followed by the end or by ``Class``, where the walk ends it
# too.
_NAME = r"[A-Za-z_][A-Za-z0-9_\-]*"
_SUPER = rf"(?!(?:{'|'.join(sorted(_KEYWORDS))})(?![A-Za-z0-9_\-])){_NAME}"
_FRAME_RE = re.compile(
    rf"\s*(?:Class(?:\s*:\s*|\s+)(?P<c>{_NAME})"
    rf"(?:\s+SubClassOf(?:\s*:\s*|\s+)(?P<s>{_SUPER}(?:\s*,\s*{_SUPER})*))?"
    r"(?=\s*\Z|\s+Class[\s:])"
    rf"|Prefix\s*:\s*(?:(?P<p>{_NAME})\s*)?:\s*<(?P<i>[^>]*)>"
    r"|Ontology\s*:\s*<(?P<o>[^>]*)>(?:\s*<[^>]*>)?)")


def _tokenize_manchester(text: str, start: int = 0) -> list[tuple[str, str]]:
    """The tokens of ``text`` from offset ``start`` on as ``(whitespace
    before, token)`` pairs, ending with ``(trailing whitespace, "")``.
    A token's first character tells its kind: ``<`` an IRI, ``'`` a
    quoted name, ``:`` and ``,`` themselves, a letter or ``_`` a name,
    and anything else a token that only skipped entries hold."""
    end = len(text.rstrip())
    toks = re.compile(_MANCHESTER, re.VERBOSE | re.DOTALL).findall(text, start, end)
    if toks:
        last = toks[-1][1]
        if last[0] in _UNTERMINATED and not re.fullmatch(_CLOSED, last):
            line, col = _positions(text)(end - len(last))
            raise ParseError(_UNTERMINATED[last[0]], line=line, col=col)
    toks.append((text[end:], ""))
    return toks


def _placer(text: str, start: int, spaces: tuple[str, ...],
            vals: tuple[str, ...]):
    """A function from a token's index to its ``(line, col)``, given the
    offset of the first token's whitespace, the whitespace before each
    token and the tokens.  The offsets are worked out on the first call,
    since only a warning or an error needs one."""
    offsets: list[int] = []
    position = _positions(text)

    def place(i: int) -> tuple[int, int]:
        if not offsets:
            at = start
            for ws, tok in zip(spaces, vals):
                at += len(ws)
                offsets.append(at)
                at += len(tok)
        return position(offsets[i])

    return place


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
    the NeSy_Pattern_Element read if it states no superclass, else the
    unique root, else a fresh root NeSy_Pattern_Element in the text's
    namespace.  An error placed in ``text`` carries ``source_name``.
    """
    try:
        arrays = _read_classes(text, diagnostics, source_name)
    except NesyError as e:
        raise e.in_file(source_name)
    t = object.__new__(Taxonomy)
    t._build(*arrays)
    return t


def _read_classes(text: str, diagnostics: list[Diagnostic] | None,
                  source_name: str, base: Taxonomy | None = None):
    """Read the frames of Manchester text into classes and subclass
    edges, on top of ``base`` if given.

    Frames are read with one ``_FRAME_RE`` match each while they hold
    only plain names: ``Class: A``, optionally with ``SubClassOf: B, C``,
    ``Prefix: p: <IRI>`` and ``Ontology: <IRI>``, each keyword with or
    without its colon.  At the first frame
    it does not match (a quoted or prefixed name, an IRI, another entry,
    a malformed frame) the rest of the text is split into tokens once
    and walked token by token, which reads every frame the grammar
    allows and places every warning and error.

    Each name is read as a key: the local name itself, a ``str``, for a
    bare or quoted name (a quoted name is a label whatever it holds; its
    spaces become ``_``), ``(prefix, local)`` for a prefixed one (prefix
    ``""`` for ``:Name``), and ``(None, iri)`` for an ``<IRI>``.  Each
    distinct key gets an int id and the place it is first read at: the
    offset of its name if a frame match read it, else the complement
    ``~i`` of the index of its token.  Keys are resolved once the whole
    text is read, because prefixes, the namespace and ``Class`` frames
    may come after a name is used: each key once, to a class id.  A key
    resolves to a class of ``base`` (a bare name by local name, any name
    by IRI), else to a class the text already added; else it is minted,
    a bare name in the text's namespace, with the next id after the
    base's.  Without a base, a ``SubClassOf`` target is declared by its
    use; with one, a target the text does not declare raises
    UnknownClassError.  Every error is placed where the failing name
    first starts.

    Returns the classes by id, the base's first; each class's
    superclass ids, an added class with none below the top; the top's
    id; and the namespace.
    """
    prefixes: dict[str, str] = {}
    namespace = None if base is None else base.namespace
    ontology_iri: str | None = None
    ids: dict = {}  # key -> key id
    keys: list = []  # key id -> key
    first: list[int] = []  # key id -> offset or ~(token index) it is first read at
    declared: list[int] = []  # key ids of Class frames, in order, with repeats
    edges: list[tuple[int, int]] = []  # key id pairs

    def add_key(key, at: int) -> int:
        k = ids[key] = len(keys)
        keys.append(key)
        first.append(at)
        return k

    pos = 0
    match = _FRAME_RE.match
    while m := match(text, pos):
        pos = m.end()
        name, sups, pfx, iri, ont = m.groups()
        if name is not None:
            subject = ids.get(name)
            if subject is None:
                subject = add_key(name, m.start(1))
            declared.append(subject)
            if sups is not None:
                at = m.start(2)
                for piece in sups.split(","):  # a name between whitespace
                    sup = piece.strip()
                    k = ids.get(sup)
                    if k is None:
                        k = add_key(sup, at + piece.index(sup))
                    edges.append((subject, k))
                    at += len(piece) + 1
        elif iri is not None:
            prefixes[pfx or ""] = iri
            if not pfx:
                namespace = iri
        else:
            ontology_iri = ont

    # The token walk, from the first frame no match read.
    spaces, vals = ("",), ("",)  # only the end: every frame was read
    if text[pos:].strip():
        spaces, vals = zip(*_tokenize_manchester(text, pos))
    place = _placer(text, pos, spaces, vals)
    position = _positions(text)

    def where(at: int) -> tuple[int, int]:
        return position(at) if at >= 0 else place(~at)

    def warn(msg: str, i: int) -> None:
        if diagnostics is not None:
            line, col = place(i)
            diagnostics.append(Diagnostic("warning", msg, line, col,
                                          source_name))

    def read_name(i: int) -> tuple[int, int]:
        """The key id of the class name at token ``i`` and the index
        after it, or ``(-1, i)`` if no name starts there."""
        tok = vals[i]
        c = tok[:1]
        if c in _NAME_START:
            if vals[i + 1] == ":" and not spaces[i + 1]:
                local = vals[i + 2]
                if spaces[i + 2] or local[:1] not in _NAME_START:
                    line, col = place(i)
                    raise ParseError("malformed prefixed name", line=line, col=col)
                key, after = (tok, local), i + 3
            else:
                key, after = tok, i + 1
        elif c == "'":
            key, after = tok[1:-1].replace(" ", "_"), i + 1
        elif c == "<":
            key, after = (None, tok[1:-1]), i + 1
        elif c == ":" and not spaces[i + 1] and vals[i + 1][:1] in _NAME_START:
            key, after = ("", vals[i + 1]), i + 2  # ``:Name``, the empty prefix
        else:
            return -1, i
        k = ids.get(key)
        return (add_key(key, ~i) if k is None else k), after

    i = 0
    eof = len(vals) - 1
    while i < eof:
        # A keyword is followed by ':' (standard) or by a name, quoted
        # name or IRI (the colon-less form used in inline extensions).
        start, kw, after = i, vals[i], vals[i + 1]
        if kw not in _FRAME_KEYWORDS or (after != ":" and after[:1] not in _CLASS_START):
            line, col = place(start)
            value = kw[1:-1] if kw[0] in "<'" else kw  # an IRI or quoted name
            raise ParseError(f"malformed frame near {value!r}", line=line,
                             col=col, expected=tuple(sorted(_FRAME_KEYWORDS)))
        i += 2 if after == ":" else 1
        if kw == "Class":
            subject, i = read_name(i)
            if subject < 0:
                line, col = place(i)
                raise ParseError(f"expected a class name, found {vals[i]!r}",
                                 line=line, col=col,
                                 expected=("name", "quoted name", "IRI"))
            declared.append(subject)
            while vals[i] in _ENTRY_KEYWORDS and (
                    (after := vals[i + 1]) == ":" or after[:1] in _CLASS_START):
                entry, at = vals[i], i
                i += 2 if after == ":" else 1
                if entry != "SubClassOf":
                    warn(f"{entry} entries are skipped", at)
                    i = _skip_entry(vals, i)
                    continue
                while vals[i] not in _KEYWORDS:
                    at = i
                    sup, i = read_name(i)
                    if sup < 0:
                        warn("unsupported class expression skipped", at)
                        i = _skip_entry(vals, i)
                        break
                    nxt = vals[i]
                    if nxt != "," and nxt and nxt not in _KEYWORDS:
                        warn("complex class expression skipped", at)
                        i = _skip_entry(vals, i)
                        break
                    edges.append((subject, sup))
                    if nxt != ",":
                        break
                    i += 1
        elif kw == "Prefix":
            pfx = ""
            if vals[i][:1] in _NAME_START:
                pfx = vals[i]
                i += 1
            if vals[i] == ":":
                i += 1
            iri = vals[i]
            if iri[:1] != "<":
                line, col = place(i)
                raise ParseError("expected <IRI> in prefix declaration",
                                 line=line, col=col, expected=("IRI",))
            i += 1
            prefixes[pfx] = iri = iri[1:-1]
            if pfx == "":
                namespace = iri
        elif kw == "Ontology":
            if vals[i][:1] == "<":
                ontology_iri = vals[i][1:-1]
                i += 1
                if vals[i][:1] == "<":  # optional version IRI
                    i += 1
        elif kw == "Import":
            warn("imports are not honored", start)
            _, i = read_name(i)
        else:
            warn(f"{kw} frames are skipped", start)
            i = _skip_entry(vals, i)

    if namespace is None:
        namespace = (ontology_iri + "#") if ontology_iri else DEFAULT_NAMESPACE
    index = {} if base is None else base._index
    by_local = {} if base is None else base._by_local
    taken = dict(by_local)
    refs: list[ClassRef] = [] if base is None else base._refs.copy()
    parents: list[list[int]] = [] if base is None else base._parents.copy()
    n = len(refs)
    added: dict[str, int] = {}  # IRI -> id of a class the text adds
    cls = [-1] * len(keys)  # key id -> class id

    def resolve(k: int, declare: bool) -> int:
        """The class id of key ``k``, read for the first time."""
        key = keys[k]
        bare = key.__class__ is str
        if bare:
            local, iri = key, namespace + key
        else:
            pfx, local = key
            if pfx is None:  # an <IRI>
                iri = local
            elif pfx in prefixes:
                iri = prefixes[pfx] + local
            else:
                name = f"{pfx}:{local}"
                line, col = where(first[k])
                raise UnknownClassError(f"undeclared prefix {pfx!r} in {name!r}",
                                        line=line, col=col)
        if bare and local in by_local:
            c = index[by_local[local].iri]
        elif iri in index:
            c = index[iri]
        elif iri in added:
            c = added[iri]
        elif declare:
            c = added[iri] = len(refs)
            refs.append(_mint(iri, local if bare else _local_name_of(iri),
                              taken, where, first[k]))
            parents.append([])
        else:
            shown = repr(local) if bare else f"<{iri}>"
            line, col = where(first[k])
            raise UnknownClassError(f"unknown class {shown} in extension",
                                    line=line, col=col)
        cls[k] = c
        return c

    for k in declared:
        if cls[k] < 0:
            resolve(k, True)
    declare = base is None
    for a, b in edges:
        a = cls[a] if cls[a] >= 0 else resolve(a, True)
        b = cls[b] if cls[b] >= 0 else resolve(b, declare)
        if a < n:  # a class of the base: its list stays the base's
            parents[a] = parents[a] + [b]
        else:
            parents[a].append(b)

    roots = [j for j in range(n, len(refs)) if not parents[j]]
    if base is not None:
        top = index[base.top.iri]
    else:
        top = next((j for j in roots if refs[j].local_name == TOP_LOCAL_NAME), None)
        if top is None and len(roots) == 1:
            top = roots[0]
        elif top is None:
            # A fresh root, or the class of its IRI, which is then below a
            # root: a cycle.  _mint rejects a fresh root whose name a
            # class below a root has.
            iri = namespace + TOP_LOCAL_NAME
            top = added.get(iri)
            if top is None:
                other = taken.get(TOP_LOCAL_NAME)
                at = first[cls.index(added[other.iri])] if other else 0
                top = len(refs)
                refs.append(_mint(iri, TOP_LOCAL_NAME, taken, where, at))
                parents.append([])
    for j in roots:
        if j != top:
            parents[j].append(top)
    return refs, parents, top, namespace


def _mint(iri: str, local: str, taken: dict[str, ClassRef],
          where, at: int) -> ClassRef:
    """A class read from Manchester text, recorded in ``taken`` by local
    name.  A local name that is empty, holds whitespace or is taken by
    another IRI is a ParseError at ``where(at)``, where the name starts.
    An offset ``at`` (not a token's ``~i``) means a frame match read the
    name, so the local name is a name token and needs no check."""
    if at < 0 and not _LOCAL_NAME_RE.fullmatch(local):
        problem = "whitespace in its local name" if local else "no local name"
    else:
        ref = _class_ref(iri, local)
        other = taken.setdefault(local, ref)
        if other.iri == iri:
            return ref
        problem = f"the local name {local!r} of <{other.iri}>"
    shown = iri if iri.isprintable() else repr(iri)[1:-1]  # keep it one line
    line, col = where(at)
    raise ParseError(f"IRI <{shown}> has {problem}", line=line, col=col)


def _find_cycle(subs: list[list[int]], waiting: list[int], key) -> list[int]:
    """A cycle among the classes Kahn's algorithm left over.

    Every class left over still waits for a subclass that is left over
    too, so walking down such subclasses from any of them must repeat a
    class; the walk from the repeat on is the cycle.  The walk starts
    at, and steps to, the class left over that is least by ``key``.
    """
    i = min((k for k, w in enumerate(waiting) if w), key=key)
    seen: dict[int, int] = {}
    path: list[int] = []
    while i not in seen:
        seen[i] = len(path)
        path.append(i)
        i = min((s for s in subs[i] if waiting[s]), key=key)
    return path[seen[i]:]


def _skip_entry(vals: tuple, i: int) -> int:
    """The index of the next keyword or of the end, from ``i`` on."""
    while vals[i] and vals[i] not in _KEYWORDS:
        i += 1
    return i
