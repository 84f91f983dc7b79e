"""Property tests of the two readers.

``dsl.parse`` must give the same Document or the same ParseError as
``helpers.reference_parse``, the peek/next parser over the
per-character lexer it replaced, and ``OntRef.key`` the same key as
``helpers.reference_ontref_key``.  ``taxonomy._tokenize_manchester``
must give the same tokens, at the same line and column, or the same
ParseError as ``helpers.reference_tokenize_manchester``.  On any text,
``parse`` raises nothing but ParseError, and ``parse_taxonomy`` and
``Taxonomy.extend`` nothing but NesyError, placed unless it is a
CycleError.  ``parse_taxonomy`` and ``Taxonomy.extend`` must read the
same taxonomy and warnings, or raise the same error at the same place,
as ``helpers.reference_parse_taxonomy`` and ``helpers.reference_extend``,
but for one fix: a NeSy_Pattern_Element that states a superclass is no
longer taken as the top.
"""

import re

from hypothesis import given, settings, strategies as st

from helpers import (
    _ref_read_classes,
    reference_extend,
    reference_ontref_key,
    reference_parse,
    reference_parse_taxonomy,
    reference_tokenize_manchester,
)
from nesypat.dsl import OntRef, _Parser, parse
from nesypat.errors import CycleError, NesyError, ParseError, _positions
from nesypat.taxonomy import (
    TOP_LOCAL_NAME,
    _tokenize_manchester,
    default_taxonomy,
    parse_taxonomy,
)

SETTINGS = settings(deadline=None)
# At least 300 examples, more under a profile that asks for more.
DIFFERENTIAL = settings(deadline=None,
                        max_examples=max(300, settings().max_examples))

#: A reference split across lines around a comment; CRLF and Unicode
#: spaces, and data and then in comments, inside a body.
SPLIT_BODY = ("pattern V = data o:x\r\n  x\n : %% c\n Model ->\x85y\xa0:\x1cData;\r\n"
              "  %% data then\r\n  Symbol\x1c->\xa0x; end")
DECLARATIONS = [
    "pattern P = data ontohub:NeSyPatterns.omn x : Model -> y : Data; Symbol; end",
    "pattern Q = data { ontohub:NeSyPatterns.omn then Class: E\n"
    "  SubClassOf: Model %% {\n} e : E -> Data; end",
    "pattern R = data { https://ontohub.org/meta/NeSyPatterns.omn } a : Actor; end",
    "pattern F = data { o:x then Class: F { SubClassOf: {Model} } %% }\n}\n"
    "  f : F -> g : Data -> Symbol; end",
    "pattern C = combine N end",
    "refinement S = P refined to Q via x |-> e, y |-> e end",
    "refinement T = P refined to Q end",
    "network N = P, Q, S end",
    # an ontology reference that a comment runs on past, one that a then
    # ends, and a then-fragment with a comment that runs on past its brace
    "pattern O = data o:x%%y o : Model; end",
    "pattern T = data { o:then } t : Model; end",
    "pattern U = data { o:x then Class: U %% }\n u : U; end",
    SPLIT_BODY,
    # keywords as names in a body
    "pattern W = data { o:x } w : Model; end : Model; end",
    "pattern K = data o:x a : data; end",
    "pattern E = data o:x a -> end; end",
    # braces inside an IRI, a quoted name and a string literal are text
    "pattern B = data { o:x then Class: <urn:x#a}b> SubClassOf: 'c}d'\n"
    "  Annotations: rdfs:comment \"x}y{\" } b : Model; end",
]
PIECES = [
    # keywords, names and symbols
    "logic", "NeSyPatterns", "pattern", "refinement", "network", "data",
    "combine", "then", "refined", "to", "via", "end", "P", "x", "_y2",
    "Model", "o:x", "http://a/b#c", "|->", "->", "=", ";", ":", ",", "{", "}",
    # stray characters, comments, fragments
    "|", "-", "@", "%", "%%", "%% note\n", "%%}{", "é", "0", ">",
    "{ o:x then Class: B\n SubClassOf: Data }", "{ {", "then",
    "{ o:x then { a { b } } }", "%% data\n", "%% then {\n", "%%{ then",
    # chains across the end of a segment
    "x -> data -> y;", "a : then b;", "p -> then { q }",
    # raw text that runs past a comment's start or a then
    "o:x%%y", "o:then", "%%then\n", "then%%",
    # node references, whole, split around a comment or cut off
    "x\n : %% c\n Model", "end : Model", "a : data", "x : Model ->",
    "%% data then\n", "x :", ";\r\n",
    # Manchester tokens with braces, and openers that may not close
    "<urn:x#}>", "'{'", '"}\\""', "<", "'", '"',
    # whitespace, including Unicode spaces that str.isspace accepts
    " ", "\n", "\t", "\r", "\r\n", "\x1c", "\x85", "\xa0", " ",
]
SEPARATORS = st.sampled_from(["", " ", "\n", "  ", "\t"])


@st.composite
def dsl_texts(draw):
    """A document of valid declarations, split into words and spaces,
    with a few words inserted, deleted or replaced."""
    units = ["logic", " ", "NeSyPatterns"]
    for decl in draw(st.lists(st.sampled_from(DECLARATIONS), max_size=3)):
        units += [draw(SEPARATORS) or "\n"] + re.split(r"(\s+)", decl)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(units)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            units.insert(i, draw(st.sampled_from(PIECES)) + draw(SEPARATORS))
        elif i < len(units):
            units[i:i + 1] = [] if op == "delete" else [draw(st.sampled_from(PIECES))]
    return "".join(units)


def outcome(read, text):
    try:
        return read(text)
    except ParseError as e:
        return ("ParseError", e.message, e.line, e.col, e.expected)


def check_same_parse(text):
    assert outcome(parse, text) == outcome(reference_parse, text), text


@DIFFERENTIAL
@given(dsl_texts())
def test_dsl_lexer_matches_reference(text):
    check_same_parse(text)


@DIFFERENTIAL
@given(st.lists(st.sampled_from(PIECES) | st.text(max_size=3), max_size=20)
       .map("".join))
def test_dsl_lexer_matches_reference_on_pieces(text):
    check_same_parse(text)


BODIES = ("logic NeSyPatterns\n" + DECLARATIONS[0] + "\n" + SPLIT_BODY
          + "\r\n" + DECLARATIONS[3])


def test_every_prefix_of_bodies_matches_reference():
    # Each prefix cuts a body off somewhere: inside a name, a comment, a
    # CRLF or between the parts of a node reference.
    for end in range(len(BODIES) + 1):
        check_same_parse(BODIES[:end])


def test_body_positions_count_only_newlines():
    # \r, \x85 and \x1c are trivia but start no line.
    text = "logic NeSyPatterns\n" + SPLIT_BODY
    refs = [r for c in parse(text).declarations[0].chains for r in c.refs]
    assert [r[2:] for r in refs] == [(3, 3), (5, 11), (7, 3), (7, 13)]
    assert refs == [r for c in reference_parse(text).declarations[0].chains
                    for r in c.refs]


@SETTINGS
@given(st.text() | dsl_texts()
       | st.lists(st.sampled_from(PIECES) | st.text(max_size=3)).map("".join))
def test_parse_raises_only_parse_errors(text):
    try:
        parse(text)
    except ParseError as e:
        assert e.line >= 1 and e.col >= 1


def test_unexpected_character_after_data():
    # The lookahead after `data` lexes `@` as a token, so the error is an
    # unexpected character, not a malformed ontology reference.
    text = "logic NeSyPatterns\npattern P = data @x"
    for read in (parse, reference_parse):
        assert outcome(read, text) == ("ParseError", "unexpected character '@'",
                                       2, 18, ())


#: Declarations whose heads are each one match, and heads that look
#: like them but are not read the same way: a comment between two head
#: words, keywords as names, names run into keywords, a malformed
#: ``via`` or member list, CRLF and Unicode spaces, a missing ``end``.
HEAD_RUN = [
    "pattern A = data ontohub:NeSyPatterns.omn a : Model; c : Data; end",
    "pattern B = data o:x%%y\n  b : Model; d : Data;\nend",
    "refinement R = A refined to B via a |-> b, c |-> d end",
    "refinement S=A refined\tto\nB via a|->b ,c |->  d\nend",
    "network N = A, B ,R end",
    "pattern C = combine N end",
]
COMMENTED = ["refinement R = A refined to B via a |-> b , c |-> d end",
             "network N = A , B end", "pattern C = combine N end",
             "pattern D = data o:x d : Model; end"]
HEAD_LOOKALIKES = [
    # keywords as names
    "refinement to = A refined to B end", "refinement R = via refined to B end",
    "refinement R = A refined to end end", "refinement R = A refined to B via a |-> via end",
    "refinement R = A refined to B via end |-> b end", "network network = A end",
    "network N = A, end, B end", "network N = data end", "pattern data = data o:x a : Model; end",
    "pattern P = combine end end", "pattern combine = combine N end",
    "pattern P = data end a : Model; end", "pattern P = data then a : Model; end",
    # names run into keywords, and keywords into names
    "pattern C = combineN end", "pattern C = combine Nend", "pattern C = combine N endx",
    "refinement R = A refined toQ end", "refinement R = A refinedto B end",
    "refinement R = A refined to Bvia a |-> b end", "refinement R = A refined to B viaa |-> b end",
    "refinement R = A refined to B endx", "refinement R = A refined to B via a |-> bend",
    "network N = A, B endx", "network N = A, Bend", "pattern P = dataX o:x a : Model; end",
    "refinementR = A refined to B end", "networkN = A end",
    # malformed via and member lists
    "refinement R = A refined to B via a |-> b, end", "refinement R = A refined to B via a b end",
    "refinement R = A refined to B via a |-> b c |-> d end", "refinement R = A refined to B via a -> b end",
    "refinement R = A refined to B via a | -> b end", "refinement R = A refined to B via end",
    "refinement R = A refined to B via , a |-> b end", "network N = A, end", "network N = A B end",
    "network N = , A end", "network N = end", "refinement R = A to B end", "refinement R A refined to B end",
    "pattern P = data", "pattern P = data {o:x} a : Model; end", "pattern P = data:x a : Model; end",
    "pattern P = data @x", "pattern P = data 0x a : Model; end", "pattern P = data é a : Model; end",
    # CRLF and Unicode spaces
    "refinement R\r\n=\xa0A refined\x1cto B via a\u2003|->\x85b end",
    "network N =\r\nA ,\u3000B\r\nend", "pattern C =\u2028combine N\x0bend",
    "pattern P =\r\n data\xa0o:x a : Model; end",
    # a missing end
    "refinement R = A refined to B via a |-> b", "refinement R = A refined to B",
    "network N = A, B", "pattern C = combine N",
] + [
    # a comment between any two words of a head
    " ".join(words[:i] + ["%% c\n"] + words[i:])
    for head in COMMENTED for words in [head.split()] for i in range(1, len(words))
]


def test_head_lookalikes_at_every_position_match_reference():
    # Each head that the head patterns must not read, or must read as
    # the tokens do, at each place in a run of heads they read.
    for other in HEAD_LOOKALIKES:
        for k in range(len(HEAD_RUN) + 1):
            check_same_parse("logic NeSyPatterns\n"
                             + "\n".join(HEAD_RUN[:k] + [other] + HEAD_RUN[k:]))


def test_plain_heads_take_no_token_steps(monkeypatch):
    # A head without comments is one match: _Parser.next runs for the
    # logic line and for the end of each pattern body, never in a head.
    calls = []
    step = _Parser.next

    def counting(self):
        calls.append(self.tok[1])
        step(self)

    monkeypatch.setattr(_Parser, "next", counting)
    text = "logic NeSyPatterns\n" + "\n".join(HEAD_RUN)
    doc = parse(text)
    assert calls == ["logic", "NeSyPatterns", "end", "end"]
    monkeypatch.undo()
    assert doc == reference_parse(text)
    calls.clear()
    monkeypatch.setattr(_Parser, "next", counting)
    parse("logic NeSyPatterns\nrefinement R = A refined to B via a |-> b, c |-> d end")
    assert calls == ["logic", "NeSyPatterns"]
    # A comment in a head sends it to the token path.
    calls.clear()
    parse("logic NeSyPatterns\nrefinement R = A refined to %% c\n B end")
    assert calls == ["logic", "NeSyPatterns", "refinement", "R", "=", "A",
                     "refined", "to", "B", "end"]


MANCHESTER_PIECES = [
    "Class:", "Class", "SubClassOf:", "Prefix:", "Ontology:", "Annotations:",
    "A", "b-c", "<urn:x#A>", "<urn:\nx#B>", "'q n'", "'bad\nquote'",
    '"two\nlines"', '"esc\\"aped"', '"\\', "<", "'", '"', ":", ",",
    "12.5e-3", "0x1F", "(", ")", " ", "\n", "\r", "\t", "\x1c", "\xa0", "é",
    "\\", ">", "#",
]
#: Plain names, which the frame pattern reads: a name token that is
#: not a keyword and has no ``:`` right after it.
PLAIN_NAMES = ["A", "B", "K0", "K1", "b-c", "_k", "Model", "NeSy_Pattern_Element"]
CLASS_NAMES = [
    "A", "B", "Model", "NeSy_Pattern_Element", "'q n'", "''", "'a\tb'",
    "'<urn:x#>'", "<urn:x#A>", "<urn:y#A>", "<A>", "<urn:x#>", "<urn:x#a\tb>",
    "<urn:x#a\nb>", "p:X", "q:Y", "b-c", "K1", "Class", "SubClassOf", "Prefix",
]
OTHER_FRAMES = [
    "Prefix: p: <urn:p#>", "Prefix: p: <urn:a\tb>", "Prefix: : <urn:d#>",
    "Ontology: <urn:o>", "Import: <urn:i>", "Individual: i",
    'Annotations: rdfs:comment "two\nlines"', "EquivalentTo: A and B",
]
#: Keywords run into names, and keywords where a SubClassOf list holds
#: names: no frame pattern may read these as the frames they look like.
LOOKALIKES = [
    "Class: A SubClassOf: Prefix", "Class: A SubClassOf: B, Class",
    "Class: A SubClassOf: SubClassOf", "Class: Prefix SubClassOf: Class",
    "Classy: A", "ClassA SubClassOf: B", "Class: A SubClassOfB", "Class: ASubClassOf: B",
    "Class: AClass: B", "Class: A SubClassOf: BClass: C", "Prefixp: <urn:p#>",
    "Ontology1 <urn:o>",
]
#: Spellings of ``Class:``, ``SubClassOf:`` and the comma between
#: superclasses: with or without the colon and the spaces around it.
CLASS_KEYWORDS = ["Class: ", "Class:", "Class ", "Class :", "Class\n  "]
SUBCLASS_KEYWORDS = [" SubClassOf: ", "\n    SubClassOf: ", " SubClassOf ", " SubClassOf:"]
COMMAS = [", ", ",", " , ", "\n  , "]


@st.composite
def class_frames(draw, names):
    frame = draw(st.sampled_from(CLASS_KEYWORDS)) + draw(names)
    supers = draw(st.lists(names, max_size=2))
    if supers:
        frame += (draw(st.sampled_from(SUBCLASS_KEYWORDS))
                  + draw(st.sampled_from(COMMAS)).join(supers))
    return frame


@st.composite
def manchester_texts(draw):
    """Class frames over names that may share a local name or have none,
    other frames, and a few inserted, deleted or replaced pieces; or a
    run of 5-15 frames of plain names, which the reader reads one match
    each, with one other frame or piece at a drawn index, which sends
    the whole text to the token walk unless the frame pattern reads it
    too."""
    if draw(st.booleans()):
        frames = draw(st.lists(class_frames(st.sampled_from(PLAIN_NAMES)),
                               min_size=5, max_size=15))
        other = draw(class_frames(st.sampled_from(CLASS_NAMES))
                     | st.sampled_from(OTHER_FRAMES) | st.sampled_from(LOOKALIKES)
                     | st.sampled_from(MANCHESTER_PIECES))
        frames.insert(draw(st.integers(0, len(frames))), other)
        return "".join((draw(SEPARATORS) or "\n") + f for f in frames)
    names = st.sampled_from(CLASS_NAMES)
    units = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            frame = draw(class_frames(names))
        else:
            frame = draw(st.sampled_from(OTHER_FRAMES + LOOKALIKES))
        units += [draw(SEPARATORS) or "\n", frame]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(units)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            units.insert(i, draw(st.sampled_from(MANCHESTER_PIECES)))
        elif i < len(units):
            units[i:i + 1] = ([] if op == "delete"
                              else [draw(st.sampled_from(MANCHESTER_PIECES))])
    return "".join(units)


@SETTINGS
@given(st.text() | manchester_texts())
def test_parse_taxonomy_raises_only_nesy_errors(text):
    for read in (parse_taxonomy, default_taxonomy().extend):
        try:
            read(text)
        except CycleError:
            pass
        except NesyError as e:
            assert e.line >= 1 and e.col >= 1, (read, text)


def tokens(tokenize, text):
    try:
        return list(tokenize(text))
    except ParseError as e:
        return ("ParseError", e.message, e.line, e.col, e.expected)


def positioned(text):
    """``_tokenize_manchester``'s tokens as ``(kind, value, line, col)``,
    the kind told by the token's first character."""
    at = _positions(text)
    out, offset = [], 0
    for ws, tok in _tokenize_manchester(text):
        offset += len(ws)
        first = tok[:1]
        if first in ("<", "'"):
            kind, value = {"<": "iri", "'": "quoted"}[first], tok[1:-1]
        else:
            kind = {"": "eof", ":": "colon", ",": "comma"}.get(
                first, "name" if re.match(r"[A-Za-z_]", tok) else "misc")
            value = tok
        out.append((kind, value, *at(offset)))
        offset += len(tok)
    return out


MANCHESTER_TEXTS = (manchester_texts()
                    | st.lists(st.sampled_from(MANCHESTER_PIECES) | st.text(max_size=3),
                               max_size=20).map("".join))


#: Whitespace that ``str.isspace`` accepts, beyond that of MANCHESTER_PIECES.
SPACES = ["\x0b", "\x0c", "\x1d", "\x1e", "\x1f", "\x85", "\u1680",
          "\u2000", "\u2028", "\u2029", "\u202f", "\u3000"]


@DIFFERENTIAL
@given(MANCHESTER_TEXTS
       | st.lists(st.sampled_from(MANCHESTER_PIECES + SPACES) | st.text(max_size=3),
                  max_size=20).map("".join))
def test_ontref_key_matches_reference(fragment):
    # Unterminated <, ' and ", escaped quotes in string literals and
    # Unicode spaces: the words OntRef.key joins must give the key the
    # whitespace-collapsing sub gave.
    for ont in (OntRef("o:x", fragment, 1, 1), OntRef(fragment, None, 1, 1)):
        assert ont.key() == reference_ontref_key(ont), fragment


@DIFFERENTIAL
@given(MANCHESTER_TEXTS)
def test_manchester_tokens_match_reference(text):
    got = tokens(positioned, text)
    assert got == tokens(reference_tokenize_manchester, text), text


def read_outcome(read, text):
    """What ``read(text, diagnostics)`` gives: the taxonomy's classes,
    edges, top and namespace and the warnings, or the error's class,
    message, position and file."""
    diags = []
    try:
        t = read(text, diags)
    except NesyError as e:
        return (type(e).__name__, e.message, e.line, e.col, e.source_name)
    return ({(c.iri, c.local_name) for c in t.classes},
            {(a.iri, b.iri) for a, b in t.subclass_edges},
            (t.top.iri, t.top.local_name), t.namespace, diags)


def states_top_superclass(text):
    """Whether ``text`` reads to a class named NeSy_Pattern_Element that
    states a superclass, which the reference takes as the top all the
    same."""
    try:
        added, _, roots, _ = _ref_read_classes(text, None, "<t>")
    except NesyError:
        return False
    return any(c.local_name == TOP_LOCAL_NAME and c not in roots for c in added)


@DIFFERENTIAL
@given(MANCHESTER_TEXTS)
def test_parse_taxonomy_matches_reference(text):
    def read(fn):
        return read_outcome(lambda t, d: fn(t, d, source_name="f.omn"), text)

    got, want = read(parse_taxonomy), read(reference_parse_taxonomy)
    if states_top_superclass(text):
        # The reference then sends every other root below a class that is
        # below one of them, which always closes a cycle.
        assert want[0] == "CycleError", text
    else:
        assert got == want, text


@DIFFERENTIAL
@given(manchester_texts(), MANCHESTER_TEXTS)
def test_extend_matches_reference(base_text, fragment):
    try:
        base = parse_taxonomy(base_text)
    except NesyError:
        base = default_taxonomy()
    for b in (base, default_taxonomy()):
        got = read_outcome(b.extend, fragment)
        want = read_outcome(lambda t, d: reference_extend(b, t, d), fragment)
        assert got == want, (base_text, fragment)


def test_frame_lookalikes_at_every_position_match_reference():
    # Each frame that the frame pattern must not read, or must read as
    # the tokens do, at each place in a run of frames it reads: both
    # readers, and extend over the default taxonomy and over the run.
    run = ["Class: K0", "Class:K1 SubClassOf:K0", "Class K2 SubClassOf K1 , K0",
           "Class : b-c\n  SubClassOf : K2", "Class: _k SubClassOf: b-c,K1"]
    base = parse_taxonomy("\n".join(run))
    for other in LOOKALIKES + OTHER_FRAMES + ["Class: A", "Class:p:X", "Class: 'q n'"]:
        for k in range(len(run) + 1):
            text = "\n".join(run[:k] + [other] + run[k:])
            assert not states_top_superclass(text)
            got = read_outcome(lambda t, d: parse_taxonomy(t, d, source_name="f.omn"), text)
            want = read_outcome(lambda t, d: reference_parse_taxonomy(t, d, source_name="f.omn"),
                                text)
            assert got == want, text
            for b in (base, default_taxonomy()):
                got = read_outcome(b.extend, text)
                want = read_outcome(lambda t, d: reference_extend(b, t, d), text)
                assert got == want, text
