"""Property tests of the whole pipeline on mutated documents.

The corpus documents and ``random_dsl_document`` output are mutated by
inserting, deleting and swapping DSL tokens.  Each mutant then goes
through ``parse``, ``resolve``, ``evaluate_combines``, every emitter on
every combination and the ``emit_dsl`` round trip.  Only a NesyError
may be raised, each placed at a line of the document or at a pattern
declaration that ``_pattern_positions`` finds, and every pattern that
is printed must read back isomorphic.  A few mutants also go through
``cli.main``: the exit code is 0, 1 or 2, stderr holds no traceback,
and every message about the document starts with ``file:line:col:``.
Every library that resolves, and then evaluates, holds its own pattern
objects as network members and refinement endpoints.
"""

import contextlib
import io
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_dsl_document
from nesypat.catalog import Catalog
from nesypat.cli import FORMATS, main
from nesypat.colimit import combination_result, evaluate_combines
from nesypat.dsl import _KEYWORDS, _pattern_positions, emit_dsl, parse, resolve
from nesypat.emitters import emit_abox, emit_dot, emit_json
from nesypat.errors import NesyError
from nesypat.pattern import isomorphic

CORPUS = Path(__file__).resolve().parents[1] / "src" / "nesypat" / "corpus"
CORPUS_TEXTS = [p.read_text() for p in sorted(CORPUS.glob("*.nesy"))]

#: Whitespace, or one DSL token: a comment, an arrow, a name or any
#: other character.
UNITS = re.compile(r"\s+|%%[^\n]*|\|->|->|[A-Za-z_][A-Za-z0-9_]*|\S")
TOKENS = [
    "logic", "pattern", "refinement", "network", "data", "combine", "then",
    "to", "via", "end", "|->", "->", "=", ";", ":", ",", "{", "}", "@", "'",
    "%% note\n", "Model", "Data", "Symbol", "Nope", "NeSy_Pattern_Element",
    "P0", "P1", "x0", "x1", "Net", "Comb", "anon1", "x9 : Semantic_Model ->",
    "x0 : Symbol;",
]
#: Whole declarations, inserted in front of one or at the end.
DECLARATIONS = [
    "refinement R9 = P0 refined to P1 end", "refinement R8 = P1 refined to P0 end",
    "refinement R7 = Abstract refined to Model end",
    "network N9 = P0, P1 end", "network Net = Comb end", "network N8 = Train, R1 end",
    "pattern C9 = combine Net end", "pattern C8 = combine N9 end",
    "pattern E9 = data { ontohub:NeSyPatterns.omn then Class: E SubClassOf: Model }"
    " e : E -> x : Model; end",
    "pattern Q9 = data { ontohub:NeSyPatterns.omn then Class: <urn:x#a}b> }"
    " Symbol; end",
]
HEADS = ("pattern", "refinement", "network")
#: The exit-2 messages that name no place in the document: I/O and
#: catalog-file failures.
UNPLACED = re.compile(r"nesypat: error: (cannot read |malformed catalog |catalog )")
KEYWORDS = _KEYWORDS | {"NeSyPatterns"}
NAME = re.compile(r"[A-Za-z_]")


@st.composite
def mutated_documents(draw):
    """A corpus or random document with one to three mutations: a token
    inserted anywhere, a declaration inserted between two, a token
    deleted, or two names or two other tokens swapped (a keyword is
    neither a name nor another token here)."""
    if draw(st.booleans()):
        text = draw(st.sampled_from(CORPUS_TEXTS))
    else:
        text = random_dsl_document(random.Random(draw(st.integers(0, 2**16))))
    units = UNITS.findall(text)
    for _ in range(draw(st.integers(1, 3))):
        tokens = [i for i, u in enumerate(units) if u and not u.isspace()]
        names = [i for i in tokens if NAME.match(units[i]) and units[i] not in KEYWORDS]
        others = [i for i in tokens if not NAME.match(units[i])]
        op = draw(st.sampled_from(["token", "declaration", "delete", "swap", "swap"]))
        if op == "token":
            i = draw(st.integers(0, len(units)))
            units.insert(i, f" {draw(st.sampled_from(TOKENS))} ")
        elif op == "declaration":
            i = draw(st.sampled_from([i for i in tokens if units[i] in HEADS]
                                     + [len(units)]))
            units.insert(i, f"\n{draw(st.sampled_from(DECLARATIONS))}\n")
        elif op == "delete":
            units[draw(st.sampled_from(tokens))] = ""
        else:
            pool = draw(st.sampled_from([names, others]))
            i, j = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            units[i], units[j] = units[j], units[i]
    return "".join(units)


SETTINGS = settings(deadline=None)


@SETTINGS
@given(mutated_documents())
def test_pipeline_raises_only_placed_nesy_errors(text):
    positions: dict = {}
    try:
        doc = parse(text)
        positions = _pattern_positions(doc)
        lib = evaluate_combines(resolve(doc, Catalog.default(), []))
    except NesyError as e:
        assert e.source_name in (None, "<input>"), e  # the document itself
        if e.line is None:
            assert e.decl in positions, e
        else:
            assert 1 <= e.line <= text.count("\n") + 1 and e.col >= 1, e
        return
    for name in lib.combine_defs:
        result = combination_result(lib, name)
        assert result.pattern == lib.patterns[name], name  # both entry points agree
        emit_json(result)
        emit_dot(result.pattern)
        emit_abox(result.pattern, []).render()
    lib2 = evaluate_combines(resolve(parse(emit_dsl(lib)), Catalog.default()))
    assert set(lib2.patterns) == set(lib.patterns)
    for name, p in lib.patterns.items():
        assert isomorphic(p, lib2.patterns[name]), name


def assert_networks_hold_library_patterns(lib):
    """Every network member and every refinement endpoint is the
    library's own pattern of that name, so combining a network needs no
    lookup of its members."""
    refinements = [*lib.refinements.values()]
    for net in lib.networks.values():
        for name, p in net.patterns.items():
            assert p is lib.patterns[name], (net.name, name)
        refinements += net.refinements.values()
    for r in refinements:
        assert r.source is lib.patterns[r.source.name], (r.name, r.source.name)
        assert r.target is lib.patterns[r.target.name], (r.name, r.target.name)


def check_networks_hold_library_patterns(text) -> int:
    """``assert_networks_hold_library_patterns`` after ``resolve`` and
    after ``evaluate_combines``, as far as each succeeds; the number of
    libraries checked."""
    try:
        lib = resolve(parse(text), Catalog.default())
    except NesyError:
        return 0
    assert_networks_hold_library_patterns(lib)
    try:
        lib = evaluate_combines(lib)
    except NesyError:
        return 1
    assert_networks_hold_library_patterns(lib)
    return 2


@pytest.mark.parametrize("text", CORPUS_TEXTS + [
    # A combine-defined pattern as a network member and refinement target.
    (CORPUS / "hybrid_model.nesy").read_text()
    + "\nrefinement Up = Abstract refined to Merged end\n"
    "network Wrap = Merged, Up end\npattern Outer = combine Wrap end\n"],
    ids=[p.stem for p in sorted(CORPUS.glob("*.nesy"))] + ["hybrid_model_wrapped"])
def test_corpus_networks_hold_the_library_patterns(text):
    undefined = "network Clash" in text  # model_clash.nesy's Merged
    assert check_networks_hold_library_patterns(text) == 1 + (not undefined)


#: Declarations that make a random document's combination ``Comb`` a
#: network member and, with ``Up``, a refinement target.
NESTED = ["\nnetwork Outer = Comb, P0 end\npattern Outer_C = combine Outer end\n",
          "\nrefinement Up = P0 refined to Comb end\nnetwork Outer = Comb, Up end"
          "\npattern Outer_C = combine Outer end\n"]


@st.composite
def nested_documents(draw):
    """A random document with one of the ``NESTED`` tails."""
    text = random_dsl_document(random.Random(draw(st.integers(0, 2**16))))
    return text + draw(st.sampled_from(NESTED))


@SETTINGS
@given(st.one_of(mutated_documents(), nested_documents()))
def test_networks_hold_the_library_patterns(text):
    check_networks_hold_library_patterns(text)


def _first_names(text: str) -> list[str]:
    return re.findall(r"pattern\s+([A-Za-z_][A-Za-z0-9_]*)", text)[:2] or ["P0"]


@settings(deadline=None, max_examples=max(1, settings().max_examples // 5))
@given(mutated_documents(), st.sampled_from(["check", "combine", "infer"]),
       st.sampled_from(FORMATS))
def test_cli_exits_with_a_placed_message(tmp_path_factory, text, command, fmt):
    path = tmp_path_factory.getbasetemp() / "mutant.nesy"
    path.write_text(text)
    names = _first_names(text)
    args = {"check": [],
            "combine": ["--pattern", names[0], "--format", fmt],
            "infer": ["--from", names[0], "--to", names[-1]]}[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *args])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()
    placed = re.compile(rf"{re.escape(str(path))}:\d+:\d+: (error|warning): ")
    for line in lines:
        # Only a failure to read the document or a catalog file has no
        # position; a catalog miss is placed at its data clause.
        assert placed.match(line) or (code == 2 and UNPLACED.match(line)), line
