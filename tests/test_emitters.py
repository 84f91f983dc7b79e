import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    make_random_network,
    random_pattern,
    random_taxonomy,
    reachable_oracle,
    reference_json,
)
from nesypat.catalog import Catalog
from nesypat.colimit import Network, combine, evaluate_combines
from nesypat.dsl import parse, resolve
from nesypat.emitters import (
    emit_abox,
    emit_dot,
    emit_json,
    emit_manchester,
    pattern_from_json,
)
from nesypat.errors import (
    DegenerateLoopError,
    UndefinedColimitError,
    UnknownClassError,
)
from nesypat.pattern import Pattern, Refinement, build_pattern, isomorphic
from nesypat.taxonomy import (
    _KEYWORDS,
    TOP_LOCAL_NAME,
    ClassRef,
    Taxonomy,
    default_taxonomy,
    parse_taxonomy,
)

FIG_DOC_TEXT = None


@pytest.fixture(scope="module")
def t():
    return default_taxonomy()


@pytest.fixture(scope="module")
def fig_lib():
    from pathlib import Path
    corpus = Path(__file__).resolve().parents[1] / "src" / "nesypat" / "corpus"
    doc = parse((corpus / "semantic_generate_and_train.nesy").read_text())
    return resolve(doc, Catalog.default())


def pat(t, name, labeled_nodes, edges=()):
    nodes = [(i, t.lookup(l)) for i, l in labeled_nodes]
    return build_pattern(name, t, nodes, list(edges))


# A permissive line-level DOT checker, independent of the emitter.
_DOT_NODE = re.compile(r'^  "(?:[^"\\]|\\.)*" \[label="(?:[^"\\]|\\.)*", '
                       r'shape=[a-z]+\];$')
_DOT_EDGE = re.compile(r'^  "(?:[^"\\]|\\.)*" -> "(?:[^"\\]|\\.)*";$')


def check_dot_syntax(text: str) -> None:
    lines = text.splitlines()
    assert lines[0].startswith('digraph "') and lines[0].endswith('" {')
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert _DOT_NODE.match(line) or _DOT_EDGE.match(line), line


class TestEmitDot:
    def test_train_pattern(self, fig_lib):
        text = emit_dot(fig_lib.patterns["Train"])
        check_dot_syntax(text)
        assert text.count("->") == 2
        assert text.count("[label=") == 3
        assert 'shape=ellipse' in text  # Training node
        assert 'anon2 : Training' in text

    def test_single_node(self, t):
        text = emit_dot(pat(t, "one", [("m", "Model")]))
        check_dot_syntax(text)
        assert text.count("[label=") == 1
        assert "shape=hexagon" in text

    def test_combined_pattern(self, fig_lib):
        lib = evaluate_combines(fig_lib)
        text = emit_dot(lib.patterns["SemanticGenerateAndTrain"])
        check_dot_syntax(text)
        assert text.count("[label=") == 6
        assert text.count("->") == 5

    def test_shapes_by_ancestor(self, t):
        p = pat(t, "zoo", [("i", "Data"), ("m", "Semantic_Model"),
                           ("pr", "Deduction"), ("a", "Actor"),
                           ("top", "NeSy_Pattern_Element")])
        text = emit_dot(p)
        assert '"i" [label="i : Data", shape=box];' in text
        assert '"m" [label="m : Semantic_Model", shape=hexagon];' in text
        assert '"pr" [label="pr : Deduction", shape=ellipse];' in text
        assert '"a" [label="a : Actor", shape=diamond];' in text
        assert '"top" [label="top : NeSy_Pattern_Element", shape=plaintext];' in text

    def test_arbitrary_patterns_are_valid_dot(self):
        rng = random.Random(67)
        for _ in range(25):
            tax = random_taxonomy(rng, rng.randint(2, 8))
            check_dot_syntax(emit_dot(random_pattern(rng, tax, "r",
                                                     rng.randint(1, 6), 0.4)))


#: Pieces of the names drawn below: text JSON escapes (quote, backslash,
#: control characters) and text it passes through (DEL, non-ASCII,
#: U+2028, a space).  Half the names are dotted ones, so that qualified
#: names clash: pattern 'a' node 'b.a' and pattern 'a.b' node 'a' both
#: qualify to 'a.b.a'.
_PIECES = ("a", "b", '"', "\\", "\x00", "\n", "\x7f", "é", "名", "\u2028", " ")
_NAMES = st.one_of(
    st.sampled_from(["a", "b", "a.b", "b.a", "a.b.a"]),
    st.lists(st.sampled_from(_PIECES), min_size=1, max_size=3).map("".join))
#: A class's local name holds no whitespace.
_LOCAL_NAMES = st.lists(st.sampled_from(
    [p for p in _PIECES if not p.isspace()]), min_size=1, max_size=3).map("".join)


@st.composite
def odd_networks(draw) -> Network:
    """A ``make_random_network`` network with its name, its patterns',
    refinements' and classes' names and its node ids drawn anew."""
    net = make_random_network(draw(st.randoms(use_true_random=False)))
    t = next(iter(net.patterns.values())).taxonomy

    def names(strategy, n):
        return draw(st.lists(strategy, min_size=n, max_size=n, unique=True))

    classes = sorted(t.classes, key=lambda c: c.iri)
    ref = {c: ClassRef(c.iri, local)
           for c, local in zip(classes, names(_LOCAL_NAMES, len(classes)))}
    t2 = Taxonomy(list(ref.values()),
                  [(ref[a], ref[b]) for a, b in t.subclass_edges],
                  ref[t.top], t.namespace)
    ids, patterns = {}, {}
    for old, new in zip(net.patterns, names(_NAMES, len(net.patterns))):
        p = net.patterns[old]
        ids[old] = dict(zip(p.sorted_ids, names(_NAMES, len(p.labels))))
        m = ids[old]
        patterns[old] = Pattern(new, t2,
                                {m[n]: ref[c] for n, c in p.labels.items()},
                                frozenset((m[a], m[b]) for a, b in p.edges))
    refinements = {}
    for old, new in zip(net.refinements, names(_NAMES, len(net.refinements))):
        r = net.refinements[old]
        src, tgt = ids[r.source.name], ids[r.target.name]
        refinements[new] = Refinement(
            new, patterns[r.source.name], patterns[r.target.name],
            {src[a]: tgt[b] for a, b in r.node_map.items()})
    return Network(draw(_NAMES),
                   {p.name: p for p in sorted(patterns.values(),
                                              key=lambda p: p.name)},
                   dict(sorted(refinements.items())))


class TestEmitJson:
    def test_single_node_shape(self, t):
        p = pat(t, "one", [("anon1", "Model")])
        text = emit_json(p)
        assert text == ('{"edges":[],"name":"one",'
                        '"nodes":[{"id":"anon1","label":"Model"}]}\n')

    def test_combination_payload(self, fig_lib):
        result = combine(fig_lib.networks["N"])
        text = emit_json(result)
        import json
        obj = json.loads(text)
        assert len(obj["nodes"]) == 6
        assert len(obj["edges"]) == 5
        assert set(obj["injections"]) == {"Model", "Train", "SemanticDeduction"}
        merged = [c for c, members in obj["classes"].items() if len(members) > 1]
        assert merged == ["anon1"]

    def test_network_payload(self, fig_lib):
        import json
        obj = json.loads(emit_json(fig_lib.networks["N"]))
        assert len(obj["patterns"]) == 3
        assert {r["name"] for r in obj["refinements"]} == {"R1", "R2"}

    def test_byte_identical_for_equal_inputs(self, fig_lib):
        a = emit_json(fig_lib.patterns["Train"])
        b = emit_json(fig_lib.patterns["Train"])
        assert a == b

    def test_rejects_other_values(self):
        with pytest.raises(TypeError, match="cannot serialize object"):
            emit_json(object())

    @settings(deadline=None)
    @given(odd_networks())
    def test_matches_the_reference_bytes(self, net):
        values = [net, *net.patterns.values()]
        try:
            values.append(combine(net))
        except (UndefinedColimitError, DegenerateLoopError):
            pass
        for value in values:
            assert emit_json(value) == reference_json(value)

    def test_roundtrip_through_reader(self, t):
        rng = random.Random(71)
        for _ in range(20):
            p = random_pattern(rng, t, "r", rng.randint(1, 6), 0.4)
            q = pattern_from_json(emit_json(p), t)
            assert isomorphic(p, q)


class TestEmitAbox:
    def test_paper_chain_exactly(self, t):
        p = pat(t, "chain",
                [("a", "Symbol"), ("b", "Training"), ("c", "Model")],
                [("a", "b"), ("b", "c")])
        triples = emit_abox(p)
        assert triples.render() == (
            "a : Symbol\n"
            "providesInput(a,b)\n"
            "b : Training\n"
            "hasOutput(b,c)\n"
            "c : Model\n")
        assert len(triples.memberships) == 3
        assert len(triples.links) == 2

    def test_process_to_process_is_throughput(self, t):
        p = pat(t, "pp", [("d1", "Deduction"), ("d2", "Deduction")],
                [("d1", "d2")])
        triples = emit_abox(p)
        assert ("throughput", "d1", "d2") in triples.links

    def test_non_process_edge_warns_connected_to(self, t):
        p = pat(t, "np", [("s", "Symbol"), ("d", "Data")], [("s", "d")])
        diags = []
        triples = emit_abox(p, diags)
        assert ("connectedTo", "s", "d") in triples.links
        assert any(d.severity == "warning" for d in diags)

    def test_taxonomy_without_process_is_rejected(self):
        t2 = parse_taxonomy("Class: Thing Class: Stone SubClassOf: Thing")
        p = build_pattern("rock", t2, [("s", t2.lookup("Stone"))], [])
        with pytest.raises(UnknownClassError,
                           match="ABox translation needs a Process class"):
            emit_abox(p)

    def test_counts_match_pattern(self, t):
        rng = random.Random(73)
        for _ in range(20):
            p = random_pattern(rng, t, "r", rng.randint(1, 6), 0.4)
            triples = emit_abox(p)
            assert len(triples.memberships) == len(p.nodes)
            assert len(triples.links) == len(p.edges)
            assert len(triples.lines) == len(p.nodes) + len(p.edges)

    @settings(deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 8), st.floats(0, 1))
    def test_links_match_the_reachability_oracle(self, t, rng, n, density):
        p = random_pattern(rng, t, "r", n, density)
        process = t.lookup("Process")
        is_process = {nid: reachable_oracle(t.subclass_edges, label, process)
                      for nid, label in p.labels.items()}
        diags = []
        triples = emit_abox(p, diags)
        assert sorted(triples.memberships) == sorted(p.labels.items())
        assert sorted((a, b) for _, a, b in triples.links) == sorted(p.edges)
        relation = {(True, True): "throughput", (False, True): "providesInput",
                    (True, False): "hasOutput", (False, False): "connectedTo"}
        for rel, a, b in triples.links:
            assert rel == relation[is_process[a], is_process[b]]
        assert [d.message for d in diags] == [
            f"edge ({a!r}, {b!r}) joins two non-process nodes; using connectedTo"
            for rel, a, b in triples.links if rel == "connectedTo"]

    def test_10000_node_chain(self, t):
        ids = [f"n{i}" for i in range(10000)]
        p = pat(t, "chain", [(i, ("Data", "Training")[k % 2])
                             for k, i in enumerate(ids)], zip(ids, ids[1:]))
        lines = emit_abox(p).lines
        assert len(lines) == 19999
        assert lines[:4] == ("n0 : Data", "providesInput(n0,n1)",
                             "n1 : Training", "hasOutput(n1,n2)")
        assert lines[-1] == "n9999 : Training"


class TestEmitManchester:
    def test_default_roundtrip_order_isomorphic(self, t):
        text = emit_manchester(t)
        back = parse_taxonomy(text)
        assert {c.local_name for c in back.classes} == \
            {c.local_name for c in t.classes}
        names = sorted(c.local_name for c in t.classes)
        for a in names:
            for b in names:
                assert t.leq(t.lookup(a), t.lookup(b)) == \
                    back.leq(back.lookup(a), back.lookup(b))

    @settings(deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 10), st.integers(0, 9))
    def test_random_taxonomies_roundtrip(self, rng, n, renamed):
        t = random_taxonomy(rng, n)
        if 0 < renamed < n:  # a class below the top named NeSy_Pattern_Element
            old = t.lookup(f"C{renamed}")
            new = ClassRef(t.namespace + TOP_LOCAL_NAME, TOP_LOCAL_NAME)
            swap = {old: new}
            t = Taxonomy([swap.get(c, c) for c in t.classes],
                         [(swap.get(a, a), swap.get(b, b)) for a, b in t.subclass_edges],
                         t.top, t.namespace)
        assert parse_taxonomy(emit_manchester(t)) == t

    def test_top_element_name_below_the_top_reads_back(self):
        top = ClassRef("urn:t#T", "T")
        nesy = ClassRef("urn:t#" + TOP_LOCAL_NAME, TOP_LOCAL_NAME)
        t = Taxonomy({top, nesy}, {(nesy, top)}, top, "urn:t#")
        back = parse_taxonomy(emit_manchester(t))
        assert back == t

    def test_extended_taxonomy_roundtrip(self, t):
        ext = t.extend("Class: Hybrid_Model SubClassOf: Semantic_Model, Statistical_Model")
        back = parse_taxonomy(emit_manchester(ext))
        hybrid = back.lookup("Hybrid_Model")
        assert back.leq(hybrid, back.lookup("Semantic_Model"))
        assert back.leq(hybrid, back.lookup("Statistical_Model"))

    def test_names_outside_the_namespace_written_as_iris(self):
        top = ClassRef("urn:t#Top", "Top")
        odd = ClassRef("urn:other/ns#Odd", "Odd")
        dashed = ClassRef("urn:t#my-class", "my-class")
        t = Taxonomy({top, odd, dashed}, {(odd, top), (dashed, odd)}, top, "urn:t#")
        text = emit_manchester(t)
        assert "Class: <urn:other/ns#Odd>\n    SubClassOf: Top" in text
        assert "Class: <urn:t#my-class>\n    SubClassOf: <urn:other/ns#Odd>" in text
        back = parse_taxonomy(text)
        assert back == t and back.namespace == t.namespace

    @pytest.mark.parametrize("keyword", sorted(_KEYWORDS))
    def test_keyword_names_written_as_iris(self, keyword):
        t = parse_taxonomy(f"Prefix: : <urn:t#>\nClass: '{keyword}'\n"
                           f"Class: B SubClassOf: '{keyword}'\n")
        text = emit_manchester(t)
        assert f"SubClassOf: <urn:t#{keyword}>" in text
        assert parse_taxonomy(text) == t

    def test_bundled_omn_file_matches_default(self, t):
        from pathlib import Path
        corpus = Path(__file__).resolve().parents[1] / "src" / "nesypat" / "corpus"
        parsed = parse_taxonomy((corpus / "nesy_patterns.omn").read_text())
        assert parsed == t
