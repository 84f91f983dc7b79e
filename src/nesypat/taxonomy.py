"""Class hierarchies for pattern elements.

A taxonomy is a finite acyclic subclass graph with a single top class.
It answers subsumption queries (``leq``), computes infima of label sets
(the operation that decides whether pattern combinations exist) and the
maximal common lower bounds that explain a missing one, and can be read
from a small subset of OWL2 Manchester syntax: prefix declarations, the
ontology header, and ``Class`` frames with named ``SubClassOf`` entries.
Everything else is skipped with a warning.

The order is encoded as in Ait-Kaci, Boyer, Lincoln and Nasr, "Efficient
implementation of lattice operations" (TOPLAS 1989), with down-sets
shifted as in Agrawal, Borgida and Jagadish (SIGMOD 1989).  Class ids
run superclasses first, the order of a text that declares classes
top-down (else Kahn's algorithm renumbers them), and each class's
down-set (itself and its subclasses) is an ``int`` whose bit k is the
class k ids after it, built in one reverse pass of shifted ORs.  So
``leq`` is a bit test, and the maximal lower bounds are read off an
AND of down-sets aligned to the highest label id, whose lowest bit is
one of them; the infimum is the only one, when there is one.  Each
down-set spans the ids from its class to its last subclass: 1.1 MiB for
a flat ontology of 40,000 classes, 11 MiB for a 10-ary tree of 40,000
read level by level, n * n / 2 bits (6.6 MiB) for a chain of 10,000.

Reading and building run on integer ids.  One reader reads each text:
one regex ``findall`` for a text of plain headers and ``Class`` frames,
else a walk over its tokens.  The reader (``_read_classes``) gives each
class an id, its superclasses as a list of ids, its
``ClassRef`` and its entries in the IRI index and local-name map the
taxonomy keeps.  One builder turns these into the down-sets, for
``parse_taxonomy``, ``extend`` and ``Taxonomy(...)``; an ``extend`` that
only adds classes pushes their bits into the base's down-sets.
``classes`` and ``subclass_edges`` are built on first access.
"""

from __future__ import annotations

import re
from collections import deque
from functools import cache
from itertools import chain, repeat
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


def _class_refs(iris: list[str], local_names: list[str]) -> list[ClassRef]:
    """``_class_ref`` of each IRI and local name, made attribute by
    attribute over all of them."""
    refs = [*map(_new_ref, repeat(ClassRef, len(iris)))]
    deque(map(_set_iri, refs, iris), 0)
    deque(map(_set_local_name, refs, local_names), 0)
    return refs


class Taxonomy:
    """Immutable subclass hierarchy with one top class.

    ``subclass_edges`` holds (sub, super) pairs; ``leq`` is their
    reflexive-transitive closure.  Construction validates that the edge
    graph is acyclic, that all endpoints are declared classes, and that
    every class reaches ``top``.  ``classes`` and ``subclass_edges`` are
    built on first access.
    """

    __slots__ = ("top", "namespace", "_refs", "_parents", "_down", "_index",
                 "_by_local", "_classes", "_edges")

    def __init__(self, classes, subclass_edges, top: ClassRef,
                 namespace: str = DEFAULT_NAMESPACE):
        ids: dict[str, int] = {}
        by_local: dict[str, ClassRef] = {}
        refs: list[ClassRef] = []
        for c in classes:
            if c.iri not in ids:
                ids[c.iri] = len(refs)
                refs.append(c)
                by_local.setdefault(c.local_name, c)
        if top.iri not in ids:
            raise ValueError("top class must be a member of classes")
        parents: list[list[int]] = [[] for _ in refs]
        for sub, sup in subclass_edges:
            try:
                parents[ids[sub.iri]].append(ids[sup.iri])
            except KeyError:
                raise ValueError(
                    f"edge endpoint not declared: {sub!r} <= {sup!r}") from None
        self._build(refs, parents, ids[top.iri], namespace, ids, by_local)
        # Checks no read text fails: the reader puts every root below the
        # top, and ``_mint`` rejects a taken local name first.
        t = ids[top.iri]  # as _build left it, renumbered or not
        below = self._down[t]
        if below != (1 << len(refs)) - 1:
            stray = min((c for i, c in enumerate(self._refs)
                         if i < t or not below >> (i - t) & 1), key=_iri)
            raise ValueError(f"class {stray.local_name} does not reach the top class")
        if len(by_local) < len(refs):
            seen: set[str] = set()
            for c in sorted(refs, key=_iri):  # name the first by IRI
                if c.local_name in seen:
                    break
                seen.add(c.local_name)
            raise ValueError(f"duplicate local name {c.local_name!r} for distinct IRIs")

    def _build(self, refs: list[ClassRef], parents: list[list[int]], top: int,
               namespace: str, index: dict, by_local: dict,
               base: "Taxonomy | None" = None) -> None:
        """Set up the taxonomy of the classes ``refs`` with superclasses
        ``parents`` (both by id, an index into ``refs``), top ``top``,
        IRI index ``index`` (IRI to id) and local-name map ``by_local``,
        pushing only the new classes' bits into the down-sets of a
        ``base`` whose classes these keep with their superclasses."""
        n = 0 if base is None else len(base._refs)
        start = n if n and parents[:n] == base._parents else 0
        down = (base._down if start else []) + [1] * (len(refs) - start)
        if not _close(down, parents, start):
            refs, parents, top = _renumber(refs, parents, top, index)
            down = [1] * len(refs)
            _close(down, parents, 0)
        for name, value in (("top", refs[top]), ("namespace", namespace),
                            ("_refs", refs), ("_parents", parents),
                            ("_down", down), ("_index", index),
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
            i, j = index[a.iri], index[b.iri]
        except KeyError:
            raise self._unknown(a, b) from None
        return i >= j and bool(self._down[j] >> (i - j) & 1)

    def infimum(self, labels) -> ClassRef | None:
        """Greatest common lower bound of a non-empty label set, or None:
        the only maximal lower bound, as in a finite order a unique
        maximal lower bound is the greatest."""
        bounds = self.maximal_lower_bounds(labels)
        return bounds[0] if len(bounds) == 1 else None

    def maximal_lower_bounds(self, labels) -> list[ClassRef]:
        """The maximal common lower bounds of a non-empty label set,
        sorted by IRI: none or several of them when there is no infimum,
        else just the infimum.

        The lowest bit of the AND of the labels' down-sets is a maximal
        lower bound, as a class's id is higher than its superclasses';
        removing its down-set leaves the others."""
        j, lower = self._lower_bounds(labels)
        found = []
        while lower:
            k = (lower & -lower).bit_length() - 1
            j, lower = j + k, lower >> k
            found.append(self._refs[j])
            lower &= ~self._down[j]
        return sorted(found, key=_iri)

    def _lower_bounds(self, labels) -> tuple[int, int]:
        """The highest label id j and the common lower bounds, bit k id j + k."""
        index, down = self._index, self._down
        j, lower = 0, -1
        for x in labels:
            try:
                i = index[x.iri]
            except KeyError:
                raise self._unknown(x) from None
            if i >= j:  # align to the higher id; -1 stays -1
                lower = lower >> (i - j) & down[i]
                j = i
            else:
                lower &= down[i] >> (j - i)
        if lower == -1:
            raise ValueError("infimum of an empty label set")
        return j, lower

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
        refs, parents, top, _, index, by_local = _read_classes(
            fragment, diagnostics, "<fragment>", self)
        t = object.__new__(Taxonomy)
        t._build(refs, parents, top, self.namespace, index, by_local, self)
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

_FRAME_KEYWORDS = {"Class", "Datatype", "ObjectProperty", "DataProperty",
                   "AnnotationProperty", "Individual", "NamedIndividual",
                   "Prefix", "Ontology", "Import"}
_ENTRY_KEYWORDS = {"SubClassOf", "EquivalentTo", "DisjointWith",
                   "DisjointUnionOf", "HasKey", "Annotations"}
_KEYWORDS = _FRAME_KEYWORDS | _ENTRY_KEYWORDS


#: The Manchester tokens that may hold whitespace, shared with ``dsl``:
#: an ``<IRI>``, a ``'quoted name'`` and a ``"string literal"``.
_IRI = r"<[^>]*>"
_QUOTED = r"'[^'\n]*'"
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_CLOSED = f"{_IRI}|{_QUOTED}|{_STRING}"  # compiled on first use only

# Whitespace (group 1), then one token (group 2); alternatives are tried
# in order.  The last catches an opening ``<``, ``'`` or ``"`` whose
# token failed and takes the rest of the text, so it can only be the
# last match.  Every character but whitespace starts an alternative, so
# a search that ends at the last other character never backtracks over
# whitespace.  Compiled on first use, as only a text that ``_FRAME_RE``
# does not read whole is tokenized.
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
# way.  Each name is a whole token, as a name character cannot follow
# it.  A Class frame is read as the walk reads it where another frame or
# the end follows it, and no superclass is a keyword, at which the walk
# ends the ``SubClassOf`` list.  The last alternative takes the rest of
# the text from its first character but whitespace, where no frame is
# read: the last match of a ``findall``.  One reader reads each text:
# the rows of its ``findall`` where they hold no rest, no header behind
# a Class frame and no keyword superclass (``_read_classes`` checks),
# else the token walk.
_NAME = r"[A-Za-z_][A-Za-z0-9_\-]*"
_FRAME_RE = re.compile(
    rf"\s*(?:Class(?:\s*:\s*|\s+)(?P<c>{_NAME})"
    rf"(?:\s+SubClassOf(?:\s*:\s*|\s+)(?P<s>{_NAME}(?:\s*,\s*{_NAME})*))?"
    rf"|Prefix\s*:\s*(?:(?P<p>{_NAME})\s*)?:\s*(?P<i><[^>]*>)"
    r"|Ontology\s*:\s*(?P<o><[^>]*>)(?:\s*<[^>]*>)?"
    r"|(?P<rest>\S[\s\S]*))")


def _tokenize_manchester(text: str) -> list[tuple[str, str]]:
    """The tokens of ``text`` as ``(whitespace before, token)`` pairs,
    ending with ``(trailing whitespace, "")``.
    A token's first character tells its kind: ``<`` an IRI, ``'`` a
    quoted name, ``:`` and ``,`` themselves, a letter or ``_`` a name,
    and anything else a token that only skipped entries hold."""
    end = len(text.rstrip())
    toks = re.compile(_MANCHESTER, re.VERBOSE | re.DOTALL).findall(text, 0, end)
    if toks:
        last = toks[-1][1]
        if last[0] in _UNTERMINATED and not re.fullmatch(_CLOSED, last):
            line, col = _positions(text)(end - len(last))
            raise ParseError(_UNTERMINATED[last[0]], line=line, col=col)
    toks.append((text[end:], ""))
    return toks


def parse_taxonomy(text: str, diagnostics: list[Diagnostic] | None = None,
                   source_name: str = "<ontology>") -> Taxonomy:
    """Build a Taxonomy from Manchester-subset source text.

    Only Prefix declarations, the Ontology header, and Class frames with
    named SubClassOf entries are interpreted; anything else produces a
    warning diagnostic.  A class may be written bare, quoted (a bare
    name whatever it holds), prefixed or as an ``<IRI>``; every spelling
    of one IRI names one class.  Superclass targets that are never
    declared are declared implicitly.  Classes with no superclass entry
    get an edge to the top class; the top is the NeSy_Pattern_Element
    read if it states no superclass, else the unique root, else a fresh
    root NeSy_Pattern_Element in the text's namespace.  An error placed
    in ``text`` carries ``source_name``.
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

    One reader reads each text.  A text of plain names without quotes,
    ``Prefix: p: <IRI>`` and ``Ontology: <IRI>`` headers and then
    ``Class: A`` frames, optionally with ``SubClassOf: B, C`` (each
    keyword with or without its colon), is read by one ``findall`` of
    ``_FRAME_RE``, a row per frame.  Any other text is split into tokens once and walked
    token by token from its start; the walk reads every frame the
    grammar allows and places every warning and error.

    Each name is read as a key: the local name itself, a ``str``, for a
    bare or quoted name (a quoted name's spaces become ``_``), ``(prefix,
    local)`` for a prefixed one (prefix ``""`` for ``:Name``), and
    ``(None, iri)`` for an ``<IRI>``.  Each distinct key gets an int id
    and the place it is first read at: its own id if the ``findall``
    read it (where is worked out only for an error), else the complement
    ``~i`` of the index of its token; the Class frames' names are the
    ``findall``'s first keys.  Once the whole text is read (prefixes,
    the namespace and frames may come after a name is used), each key
    is resolved once: to a class of ``base`` (a bare name by local name,
    any name by IRI), else to a class the text added, else to a new
    class with the next id, a bare name in the text's namespace.  A ``SubClassOf``
    target is declared by its use without a base, and with one raises
    UnknownClassError unless the text declares it.  Without a base, when
    the ``findall`` read the text, each key's id is its class's, and the
    classes are made in bulk.

    Returns the classes by id, the base's first; each class's
    superclass ids, an added class with none below the top; the top's
    id; the namespace; and the IRI index and local-name map of all the
    classes, the arguments of ``Taxonomy._build``.
    """
    prefixes: dict[str, str] = {}
    namespace = None if base is None else base.namespace
    ontology_iri: str | None = None

    # The frames of plain names, one row each, and a last row with the
    # rest of the text from the first frame the pattern does not read.
    # The rows are used only where they read the whole text: leading
    # Prefix and Ontology rows, then Class rows, none with a keyword
    # among its superclasses.  Else the token walk reads all of it.  A
    # quote is in no row but in a header's IRI, so a text with one (a
    # string literal or a quoted name) goes to the walk without them.
    quoted = "'" in text or '"' in text
    rows = [] if quoted else _FRAME_RE.findall(text)
    h = next((j for j, row in enumerate(rows) if row[0] or row[5]), len(rows))
    subjects, sups, *_ = zip(*rows[h:]) if h < len(rows) else ((), ())
    named = " ".join(sups).replace(",", " ").split()
    walk = quoted or "" in subjects or not _KEYWORDS.isdisjoint(named)
    if walk:
        h, subjects, sups, named = 0, (), (), ()
    for _, _, pfx, iri, ont, _ in rows[:h]:
        if iri:
            prefixes[pfx] = iri = iri[1:-1]
            if not pfx:
                namespace = iri
        else:
            ontology_iri = ont[1:-1]
    # The names of the frames read are the first keys: the subjects,
    # then the other superclasses in the order they are read.
    keys: list = [*dict.fromkeys(chain(subjects, named))]
    # key id -> the id itself for a key a frame read, else the complement
    # ~i of the index of the token it is first read at
    first: list[int] = [*range(len(keys))]
    ids: dict = dict(zip(keys, first))  # key -> key id
    declared: list[int] = [*map(ids.__getitem__, subjects)]  # Class frames, with repeats
    edges: list[tuple[int, int]] = []  # key id pairs, for the general resolution

    def add_key(key, at: int) -> int:
        k = ids[key] = len(keys)
        keys.append(key)
        first.append(at)
        return k

    spaces, vals = zip(*_tokenize_manchester(text)) if walk else (("",), ("",))
    offsets: list[int] = []  # the tokens', for the first warning or error
    position = _positions(text)

    def place(i: int) -> tuple[int, int]:
        if not offsets:
            at = 0
            for ws, tok in zip(spaces, vals):
                offsets.append(at + len(ws))
                at += len(ws) + len(tok)
        return position(offsets[i])

    def where(at: int) -> tuple[int, int]:
        """The place of token ``~at``, or where frame key ``at`` is first
        read.  Such a key can only fail as a superclass, as every Class
        frame's name is minted before any other; the frames are matched
        again to find it, since the findall kept no offsets."""
        if at < 0:
            return place(~at)
        for m in _FRAME_RE.finditer(text):
            for name in re.finditer(r"[^\s,]+", m["s"] or ""):
                if name[0] == keys[at]:
                    return position(m.start("s") + name.start())

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
    if base is None and not walk:
        # The findall read every name: each names a class of its own in
        # the namespace, minted in the order of the keys, so a class's
        # id is its key's.
        iris = [*map(namespace.__add__, keys)]
        refs = _class_refs(iris, keys)
        index = dict(zip(iris, first))
        taken = dict(zip(keys, refs))
        parents = [[] for _ in keys]
        get = ids.__getitem__
        for k, s in zip(declared, sups):
            if "," in s:
                parents[k] += map(get, s.replace(",", " ").split())
            elif s:
                parents[k].append(get(s))
        n, cls = 0, first  # class id = key id
    else:
        edges += [(k, ids[sup]) for k, s in zip(declared, sups) if s  # the frames'
                  for sup in s.replace(",", " ").split()]
        index = {} if base is None else dict(base._index)  # IRI -> class id
        by_local = {} if base is None else base._by_local
        taken = dict(by_local)  # by_local and the classes the text adds
        refs: list[ClassRef] = [] if base is None else base._refs.copy()
        parents: list[list[int]] = [] if base is None else base._parents.copy()
        n = len(refs)
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
            elif declare:
                c = index[iri] = len(refs)
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
            a = cls[a]
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
            top = index.get(iri)
            if top is None:
                other = taken.get(TOP_LOCAL_NAME)
                at = first[cls.index(index[other.iri])] if other else 0
                top = index[iri] = len(refs)
                refs.append(_mint(iri, TOP_LOCAL_NAME, taken, where, at))
                parents.append([])
    for j in roots:
        if j != top:
            parents[j].append(top)
    return refs, parents, top, namespace, index, taken


def _mint(iri: str, local: str, taken: dict[str, ClassRef],
          where, at: int) -> ClassRef:
    """A class read from Manchester text, recorded in ``taken`` by local
    name; a ParseError at ``where(at)``, where the name starts, if that
    name is empty, holds whitespace or is another IRI's.  An ``at`` of 0
    or more (a frame key's id) means a frame read a name token: no check."""
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


def _close(down: list[int], parents: list[list[int]], start: int) -> bool:
    """Finish ``down`` in place, complete below id ``start``: push each
    class's down-set, from the last to ``start``, into its superclasses',
    then those below ``start`` it reached into theirs.  False where some
    superclass's id is not below its class's."""
    for i in range(len(parents) - 1, start - 1, -1):
        d = down[i]
        for p in parents[i]:
            if p >= i:
                return False
            down[p] |= d << (i - p)
    if start:  # each class below start that a new bit reaches, last first
        reached = {p for ps in parents[start:] for p in ps if p < start}
        for i in range(max(reached, default=-1), -1, -1):
            if i in reached:
                d = down[i]
                for p in parents[i]:
                    reached.add(p)
                    down[p] |= d << (i - p)
    return True


def _renumber(refs: list[ClassRef], parents: list[list[int]], top: int,
              index: dict) -> tuple[list[ClassRef], list[list[int]], int]:
    """``refs``, ``parents`` and ``top`` renumbered superclasses first,
    as the reverse of the order Kahn's algorithm places them in
    subclasses first; ``index`` is changed in place to match."""
    n = len(refs)
    subs: list[list[int]] = [[] for _ in range(n)]
    for s, ps in enumerate(parents):
        for p in ps:
            subs[p].append(s)
    waiting = [len(x) for x in subs]
    ready = [i for i in range(n) if not waiting[i]]
    order: list[int] = []
    while ready:
        i = ready.pop()
        order.append(i)
        for p in parents[i]:
            waiting[p] -= 1
            if not waiting[p]:
                ready.append(p)
    if len(order) < n:
        # Each class left over waits for a subclass left over too, so a
        # walk down them, least by IRI first whatever the order of refs,
        # repeats a class; the walk from the repeat on is a cycle.
        key = [c.iri for c in refs].__getitem__
        i = min((k for k, w in enumerate(waiting) if w), key=key)
        seen: dict[int, int] = {}  # class -> its place on the walk
        while i not in seen:
            seen[i] = len(seen)
            i = min((s for s in subs[i] if waiting[s]), key=key)
        name = refs[min([*seen][seen[i]:], key=key)].local_name
        raise CycleError(f"subclass axioms form a cycle through {name}")
    order.reverse()
    new = sorted(range(n), key=order.__getitem__)  # class -> its place in order
    for iri, i in index.items():
        index[iri] = new[i]
    return ([refs[i] for i in order],
            [[new[p] for p in parents[i]] for i in order], new[top])


def _skip_entry(vals: tuple, i: int) -> int:
    """The index of the next keyword or of the end, from ``i`` on."""
    while vals[i] and vals[i] not in _KEYWORDS:
        i += 1
    return i
