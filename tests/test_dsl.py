import io
import random
import tracemalloc
from pathlib import Path

import pytest

from helpers import STAGED_DOC, random_dsl_document, waiting_refinements_document
from nesypat import Library, Network, dsl
from nesypat.catalog import Catalog
from nesypat.cli import cmd_check
from nesypat.colimit import evaluate_combines
from nesypat.dsl import (
    Document,
    NetworkDecl,
    PatternDecl,
    RefinementDecl,
    emit_dsl,
    parse,
    resolve,
)
from nesypat.errors import (
    CatalogMissError,
    CycleError,
    DuplicateNameError,
    LabelMismatchError,
    ParseError,
    SelfLoopError,
    UnknownClassError,
    UnknownNameError,
)
from nesypat.pattern import Refinement, build_pattern, isomorphic
from nesypat.taxonomy import Taxonomy, default_taxonomy

CORPUS = Path(__file__).resolve().parents[1] / "src" / "nesypat" / "corpus"
FIG_DOC = (CORPUS / "semantic_generate_and_train.nesy").read_text()
EMBEDDING_DOC = (CORPUS / "embedding.nesy").read_text()
#: A body whose bad reference, put in for ``{bad}``, is second on line 6
#: at column 16, behind a comment line, CRLF line ends and tabs.
REFERENCE_ERROR_DOC = (
    "logic NeSyPatterns\r\n"
    "pattern Q = data ontohub:NeSyPatterns.omn q : Model; end\r\n"
    "pattern P = data ontohub:NeSyPatterns.omn %% d : Nope\r\n"
    "%% x : Model -> x : Model;\r\n"
    "  d : Deduction ->\td2 : Deduction;\r\n"
    "\tm : Model ->\t {bad};\r\n"
    "end\r\n")
REFERENCE_ERRORS = [
    ("Frobnicator", UnknownClassError, "unknown class 'Frobnicator'"),
    ("d : Training", LabelMismatchError,
     "node 'd' was declared with class 'Deduction' but recurs with 'Training'"),
    ("m : Model", SelfLoopError, "chain creates a self-loop on node 'm'"),
]
# Two inline extensions that differ only in the spaces of a quoted name.
QUOTED_SPACES_DOC = """logic NeSyPatterns
pattern A = data { ontohub:NeSyPatterns.omn then Class: 'x  y' SubClassOf: Model }
  a : x__y;
end
pattern B = data { ontohub:NeSyPatterns.omn then Class: 'x y' SubClassOf: Model }
  b : x_y;
end
"""


@pytest.fixture()
def catalog():
    return Catalog.default()


class TestParse:
    def test_full_document_shape(self):
        doc = parse(FIG_DOC)
        kinds = [type(d).__name__ for d in doc.declarations]
        assert kinds == ["PatternDecl"] * 3 + ["RefinementDecl"] * 2 + \
            ["NetworkDecl", "PatternDecl"]
        patterns = [d for d in doc.declarations if isinstance(d, PatternDecl)]
        assert sum(1 for p in patterns if p.combine_of) == 1
        assert patterns[-1].combine_of == "N"

    def test_network_members(self):
        doc = parse(FIG_DOC)
        net = next(d for d in doc.declarations if isinstance(d, NetworkDecl))
        assert net.members == ("Train", "SemanticDeduction", "R1", "R2")

    def test_embedding_extension_captured(self):
        doc = parse(EMBEDDING_DOC)
        (decl,) = doc.declarations
        assert decl.ont.base == "ontohub:NeSyPatterns.omn"
        assert " ".join(decl.ont.extension.split()) == \
            "Class Embedding SubClassOf: Transformation"

    def test_empty_document(self):
        assert parse("logic NeSyPatterns") == Document((), "logic NeSyPatterns")

    def test_comments_ignored(self):
        doc = parse("logic NeSyPatterns %% trailing\n"
                    "%% a full comment line\n"
                    "pattern P = data x:y Model; end")
        assert len(doc.declarations) == 1

    def test_via_clause(self):
        doc = parse("logic NeSyPatterns\n"
                    "pattern A = data o:x a : Model; end\n"
                    "pattern B = data o:x b : Model; end\n"
                    "refinement R = A refined to B via a |-> b end")
        ref = doc.declarations[2]
        assert isinstance(ref, RefinementDecl)
        assert ref.explicit_map == (("a", "b"),)

    def test_missing_logic_header(self):
        with pytest.raises(ParseError) as e:
            parse("pattern P = data x Model; end")
        assert "logic" in e.value.expected

    def test_error_position_and_expected_set(self):
        with pytest.raises(ParseError) as e:
            parse("logic NeSyPatterns\nwibble")
        assert (e.value.line, e.value.col) == (2, 1)
        assert set(e.value.expected) == {"pattern", "refinement", "network"}

    def test_error_names_its_source(self):
        with pytest.raises(ParseError) as e:
            parse("logic Nope", "doc.nesy")
        assert (e.value.source_name, e.value.line, e.value.col) == ("doc.nesy", 1, 7)

    def test_empty_braces_are_no_ontology_reference(self):
        with pytest.raises(ParseError) as e:
            parse("logic NeSyPatterns\npattern P = data { } Model; end")
        assert (e.value.message, e.value.line, e.value.col) == (
            "expected an ontology reference", 2, 20)

    def test_unterminated_pattern(self):
        with pytest.raises(ParseError) as e:
            parse("logic NeSyPatterns\npattern P = data x Model;")
        assert "end" in e.value.expected

    def test_positions_inside_input(self):
        bad_docs = [
            "logic NeSyPatterns pattern",
            "logic NeSyPatterns pattern P",
            "logic NeSyPatterns pattern P = data { x then A",
            "logic NeSyPatterns network N = end",
            "logic NeSyPatterns refinement R = A refined B end",
        ]
        for text in bad_docs:
            with pytest.raises(ParseError) as e:
                parse(text)
            lines = text.split("\n")
            assert 1 <= e.value.line <= len(lines)
            assert e.value.col >= 1

    def test_5000_chain_parse_memory(self):
        # The chain's 20,000 tokens are all held while it is parsed: about
        # 0.6 MiB on top of the 1.1 MiB the Document keeps.
        text = ("logic NeSyPatterns\npattern P = data ontohub:NeSyPatterns.omn\n"
                + " -> ".join(f"n{i} : Data" for i in range(5000)) + ";\nend\n")
        tracemalloc.start()
        try:
            doc = parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(doc.declarations[0].chains[0]) == 5000
        assert peak < 4 * 2**20


class TestResolve:
    def test_fig_document_patterns(self, catalog):
        lib = resolve(parse(FIG_DOC), catalog)
        assert set(lib.patterns) == {"Model", "Train", "SemanticDeduction"}
        assert lib.combine_defs == {"SemanticGenerateAndTrain": "N"}
        sd = lib.patterns["SemanticDeduction"]
        labels = sorted(l.local_name for l in sd.labels.values())
        assert labels == ["Deduction", "Semantic_Model", "Symbol", "Symbol"]
        assert len(sd.edges) == 3

    def test_reprs_of_resolved_library(self, catalog):
        lib = resolve(parse(FIG_DOC), catalog)
        assert repr(lib) == ("Library(3 patterns, 2 refinements, 1 networks, "
                             "1 combine-defined)")
        assert repr(lib.patterns["Train"]) == "Pattern('Train', 3 nodes, 2 edges)"
        assert repr(lib.refinements["R1"]) == "Refinement('R1': Model -> Train)"
        assert repr(lib.networks["N"]) == "Network('N', 3 patterns, 2 refinements)"
        assert repr(catalog) == ("Catalog(prefixes={'ontohub': "
                                 "'https://ontohub.org/meta/'}, mappings={}, "
                                 "allow_fetch=False)")

    def test_named_node_shared_across_chains(self, catalog):
        lib = resolve(parse(
            "logic NeSyPatterns\npattern P = data ontohub:NeSyPatterns.omn\n"
            "Symbol -> d : Deduction -> Symbol;\nSemantic_Model -> d : Deduction;\n"
            "end"), catalog)
        p = lib.patterns["P"]
        assert len(p.labels) == 4
        assert len(p.edges) == 3

    def test_single_statement_single_node(self, catalog):
        lib = resolve(parse(
            "logic NeSyPatterns\npattern P = data ontohub:NeSyPatterns.omn"
            " Model; end"), catalog)
        p = lib.patterns["P"]
        assert len(p.labels) == 1 and not p.edges
        assert list(p.labels) == ["anon1"]

    @pytest.mark.parametrize("body, labels, edges", [
        ("Model;\nanon1 : Model -> Training;",
         {"anon1": "Model", "anon2": "Model", "anon3": "Training"},
         {("anon1", "anon3")}),
        ("Model -> anon1 : Model;",
         {"anon1": "Model", "anon2": "Model"}, {("anon2", "anon1")}),
        ("Model;\nanon1 : Data -> Training;",
         {"anon1": "Data", "anon2": "Model", "anon3": "Training"},
         {("anon1", "anon3")}),
    ], ids=["same-class", "chained", "other-class"])
    def test_anonymous_node_skips_names_in_use(self, catalog, body, labels, edges):
        lib = resolve(parse(
            "logic NeSyPatterns\npattern P = data ontohub:NeSyPatterns.omn\n"
            f"{body}\nend"), catalog)
        p = lib.patterns["P"]
        assert {i: c.local_name for i, c in p.labels.items()} == labels
        assert p.edges == edges

    def test_label_mismatch_detected(self, catalog):
        with pytest.raises(LabelMismatchError) as e:
            resolve(parse(
                "logic NeSyPatterns\npattern P = data ontohub:NeSyPatterns.omn\n"
                "d : Deduction -> d2 : Deduction;\nd : Training;\nend"), catalog)
        assert e.value.line == 4

    def test_unknown_class_token(self, catalog):
        with pytest.raises(UnknownClassError):
            resolve(parse(
                "logic NeSyPatterns\npattern P = data ontohub:NeSyPatterns.omn"
                " Frobnicator; end"), catalog)

    def test_unknown_prefix_is_catalog_miss(self):
        with pytest.raises(CatalogMissError):
            resolve(parse("logic NeSyPatterns\npattern P = data nope:x.omn"
                          " Model; end"), Catalog())

    def test_embedding_resolves_with_extension(self, catalog):
        lib = resolve(parse(EMBEDDING_DOC), catalog)
        p = lib.patterns["Embedding"]
        assert len(p.labels) == 4
        assert len(p.edges) == 3
        t = p.taxonomy
        assert t.leq(t.lookup("Embedding"), t.lookup("Process"))
        embed_nodes = [i for i, c in p.labels.items() if c.local_name == "Embedding"]
        assert len(embed_nodes) == 1

    def test_extensions_differing_inside_quotes_are_kept_apart(self, catalog):
        lib = resolve(parse(QUOTED_SPACES_DOC), catalog)
        assert lib.patterns["A"].labels["a"].local_name == "x__y"
        assert lib.patterns["B"].labels["b"].local_name == "x_y"
        assert len(lib.taxonomies) == 2

    def test_extensions_differing_in_spaces_share_one_taxonomy(self, catalog):
        lib = resolve(parse(
            "logic NeSyPatterns\n"
            "pattern P = data { ontohub:NeSyPatterns.omn then Class: Hybrid"
            " SubClassOf: Model }\n  p : Hybrid;\nend\n"
            "pattern Q = data { ontohub:NeSyPatterns.omn  then Class:  Hybrid\n"
            "    SubClassOf:   Model }\n  q : Hybrid;\nend\n"), catalog)
        assert len(lib.taxonomies) == 1
        assert lib.patterns["P"].taxonomy is lib.patterns["Q"].taxonomy

    @pytest.mark.parametrize("frames, name", [
        ("Class: <urn:x#a}b> SubClassOf: Model Class: B SubClassOf: <urn:x#a}b>",
         "a}b"),
        ("Class: 'a}b' SubClassOf: Model\n  Class: B SubClassOf: 'a}b'", "a}b"),
        ('Class: a Annotations: rdfs:comment "x}y{"\n  Class: B SubClassOf: a', "a"),
    ])
    def test_braces_inside_extension_tokens_are_text(self, catalog, frames, name):
        text = ("logic NeSyPatterns\npattern P = data { ontohub:NeSyPatterns.omn "
                f"then {frames} }}\n  b : B -> m : Model;\nend\n")
        lib = resolve(parse(text), catalog)
        t = lib.patterns["P"].taxonomy
        assert t.leq(t.lookup("B"), t.lookup(name))
        assert len(t.classes) == len(default_taxonomy().classes) + 2
        emitted = emit_dsl(lib)
        assert f"then {' '.join(frames.split())} }}" in emitted
        lib2 = resolve(parse(emitted), Catalog.default())
        assert isomorphic(lib.patterns["P"], lib2.patterns["P"])
        assert lib2.patterns["P"].taxonomy == t

    def test_extension_iri_without_local_name_is_placed(self, catalog):
        doc = parse("logic NeSyPatterns\n"
                    "pattern P = data { ontohub:NeSyPatterns.omn then\n"
                    "    Class: E\n    Class: <urn:x#> } E; end")
        with pytest.raises(ParseError) as e:
            resolve(doc, catalog)
        assert e.value.message == "IRI <urn:x#> has no local name"
        assert (e.value.line, e.value.col) == (4, 12)

    @pytest.mark.parametrize("clause, error, message, line, col", [
        ("then\n  Class: E SubClassOf: Nope }", UnknownClassError,
         "unknown class 'Nope' in extension", 3, 24),
        ("then Class: E SubClassOf: z:Nope }", UnknownClassError,
         "undeclared prefix 'z' in 'z:Nope'", 2, 71),
        ("then\n  Class: E SubClassOf: B\n  Class: B SubClassOf: E }", CycleError,
         "subclass axioms form a cycle through B", 3, 3),
    ])
    def test_extension_error_placed_in_the_document(self, catalog, clause, error,
                                                    message, line, col):
        doc = parse("logic NeSyPatterns\n"
                    f"pattern P = data {{ ontohub:NeSyPatterns.omn {clause} E; end")
        with pytest.raises(error) as e:
            resolve(doc, catalog)
        assert type(e.value) is error
        assert (e.value.message, e.value.line, e.value.col) == (message, line, col)

    @pytest.mark.parametrize("decls, error, message, line", [
        ("network N = A end\nnetwork N = B end",
         DuplicateNameError, "network 'N' declared twice", 5),
        ("refinement R = A refined to A end\nrefinement R = A refined to A end",
         DuplicateNameError, "refinement 'R' declared twice", 5),
        ("pattern C = combine M end",
         UnknownNameError, "combine references unknown network 'M'", 4),
        ("refinement R = A refined to B via x |-> b end",
         UnknownNameError, "via clause maps unknown source node 'x'", 4),
        ("refinement R = A refined to B via a |-> y end",
         UnknownNameError, "via clause maps to unknown target node 'y'", 4),
        ("refinement R = A refined to B via a |-> b, a |-> c end",
         DuplicateNameError, "via clause maps source node 'a' twice", 4),
    ])
    def test_resolver_error_placed_at_its_declaration(self, catalog, decls, error,
                                                      message, line):
        text = ("logic NeSyPatterns\n"
                "pattern A = data ontohub:NeSyPatterns.omn a : Model; end\n"
                "pattern B = data ontohub:NeSyPatterns.omn b : Model; c : Model; end\n"
                + decls)
        with pytest.raises(error) as e:
            resolve(parse(text), catalog)
        assert (e.value.message, e.value.line, e.value.col) == (message, line, 1)

    def test_inferred_refinements(self, catalog):
        lib = resolve(parse(FIG_DOC), catalog)
        assert lib.refinements["R1"].node_map == {"anon1": "anon3"}
        assert lib.refinements["R2"].node_map == {"anon1": "anon3"}

    def test_network_pulls_in_model(self, catalog):
        lib = resolve(parse(FIG_DOC), catalog)
        net = lib.networks["N"]
        assert set(net.patterns) == {"Model", "Train", "SemanticDeduction"}
        assert set(net.refinements) == {"R1", "R2"}

    def test_forward_reference_rejected(self, catalog):
        with pytest.raises(UnknownNameError):
            resolve(parse("logic NeSyPatterns\n"
                          "refinement R = A refined to B end"), catalog)

    def test_duplicate_pattern_rejected(self, catalog):
        text = ("logic NeSyPatterns\n"
                "pattern P = data ontohub:NeSyPatterns.omn Model; end\n"
                "pattern P = data ontohub:NeSyPatterns.omn Symbol; end")
        with pytest.raises(DuplicateNameError):
            resolve(parse(text), catalog)

    def test_self_loop_in_chain_rejected(self, catalog):
        with pytest.raises(SelfLoopError):
            resolve(parse(
                "logic NeSyPatterns\npattern P = data ontohub:NeSyPatterns.omn\n"
                "x : Model -> x : Model;\nend"), catalog)

    @pytest.mark.parametrize("bad, error, message", REFERENCE_ERRORS)
    def test_reference_error_placed_at_its_reference(self, catalog, bad, error,
                                                     message):
        with pytest.raises(error) as e:
            resolve(parse(REFERENCE_ERROR_DOC.format(bad=bad)), catalog)
        assert type(e.value) is error
        assert (e.value.message, e.value.line, e.value.col) == (message, 6, 16)

    @pytest.mark.parametrize("bad, error, message", REFERENCE_ERRORS)
    def test_reference_error_placed_by_check(self, tmp_path, catalog, bad, error,
                                             message):
        doc = tmp_path / "bad.nesy"
        doc.write_bytes(REFERENCE_ERROR_DOC.format(bad=bad).encode())
        err = io.StringIO()
        assert cmd_check(str(doc), catalog, err=err) == 1
        assert err.getvalue() == f"{doc}:6:16: error: {message}\n"

    @pytest.mark.parametrize("bad, error, message", REFERENCE_ERRORS)
    def test_reference_error_without_text_placed_at_its_declaration(
            self, catalog, bad, error, message):
        # A hand-built Document keeps no text to place a reference in.
        doc = Document(parse(REFERENCE_ERROR_DOC.format(bad=bad)).declarations)
        with pytest.raises(error) as e:
            resolve(doc, catalog)
        assert (e.value.message, e.value.line, e.value.col) == (message, 3, 1)

    def test_resolution_is_deterministic(self, catalog):
        a = resolve(parse(FIG_DOC), Catalog.default())
        b = resolve(parse(FIG_DOC), Catalog.default())
        assert a.patterns == b.patterns
        assert a.refinements == b.refinements
        assert a.networks == b.networks
        assert a.combine_defs == b.combine_defs

    def test_via_refinement_checked(self, catalog):
        text = ("logic NeSyPatterns\n"
                "pattern A = data ontohub:NeSyPatterns.omn a : Model; end\n"
                "pattern B = data ontohub:NeSyPatterns.omn b : Symbol; end\n"
                "refinement R = A refined to B via a |-> b end")
        from nesypat.errors import InvalidRefinementError
        with pytest.raises(InvalidRefinementError):
            resolve(parse(text), catalog)

    def test_refinement_over_combined_pattern(self, catalog):
        text = (FIG_DOC +
                "\npattern Single = data ontohub:NeSyPatterns.omn Training; end"
                "\nrefinement R3 = Single refined to SemanticGenerateAndTrain end")
        lib = resolve(parse(text), catalog)
        assert "SemanticGenerateAndTrain" in lib.patterns  # forced on demand
        (img,) = lib.refinements["R3"].node_map.values()
        assert lib.patterns["SemanticGenerateAndTrain"].labels[img].local_name \
            == "Training"


class TestEmitDsl:
    def test_empty_library(self):
        from nesypat import Library
        assert emit_dsl(Library()) == "logic NeSyPatterns\n"

    def test_fig_roundtrip_isomorphic(self, catalog):
        lib = resolve(parse(FIG_DOC), catalog)
        text = emit_dsl(lib)
        lib2 = resolve(parse(text), Catalog.default())
        assert set(lib2.patterns) == set(lib.patterns)
        for name, p in lib.patterns.items():
            assert isomorphic(p, lib2.patterns[name]), name
        assert set(lib2.networks) == set(lib.networks)
        assert lib2.combine_defs == lib.combine_defs

    def test_embedding_roundtrip(self, catalog):
        lib = resolve(parse(EMBEDDING_DOC), catalog)
        lib2 = resolve(parse(emit_dsl(lib)), Catalog.default())
        assert isomorphic(lib.patterns["Embedding"], lib2.patterns["Embedding"])

    def test_quoted_whitespace_roundtrip(self, catalog):
        lib = resolve(parse(QUOTED_SPACES_DOC), catalog)
        lib2 = resolve(parse(emit_dsl(lib)), Catalog.default())
        for name in "AB":
            assert isomorphic(lib.patterns[name], lib2.patterns[name]), name

    def test_evaluated_library_emits_combine_form(self, catalog):
        lib = evaluate_combines(resolve(parse(FIG_DOC), catalog))
        text = emit_dsl(lib)
        assert "combine N" in text
        lib2 = evaluate_combines(resolve(parse(text), Catalog.default()))
        assert isomorphic(lib.patterns["SemanticGenerateAndTrain"],
                          lib2.patterns["SemanticGenerateAndTrain"])

    def test_refinement_into_combined_pattern_keeps_its_via(self, catalog):
        text = (FIG_DOC
                + "pattern Tr = data ontohub:NeSyPatterns.omn t : Training; end\n"
                  "refinement R9 = Tr refined to SemanticGenerateAndTrain end\n")
        emitted = emit_dsl(resolve(parse(text), catalog))
        assert ("\nrefinement R9 = Tr refined to SemanticGenerateAndTrain "
                "via t |-> anon2_2 end\n" in emitted)
        lib2 = resolve(parse(emitted), Catalog.default())
        assert lib2.refinements["R9"].node_map == {"t": "anon2_2"}

    def test_map_from_combined_pattern_round_trips(self):
        # Two maps from C into Q exist, so inference would be ambiguous:
        # the printed via map alone keeps R.
        lib = evaluate_combines(resolve(parse(
            "logic NeSyPatterns\n"
            "pattern A = data ontohub:NeSyPatterns.omn a : Model; end\n"
            "network N = A end\npattern C = combine N end\n"
            "pattern Q = data ontohub:NeSyPatterns.omn x : Model; y : Model; end\n")))
        c, q = lib.patterns["C"], lib.patterns["Q"]
        lib.refinements["R"] = Refinement("R", c, q, {"a": "x"})
        text = emit_dsl(lib)
        assert "\nrefinement R = C refined to Q via a |-> x end\n" in text
        assert resolve(parse(text)).refinements["R"].node_map == {"a": "x"}

    def test_unwritable_ids_of_combined_pattern_fall_back_to_inference(self):
        t = default_taxonomy()
        a = build_pattern("A", t, [("a.b", t.lookup("Model"))], [])
        q = build_pattern("Q", t, [("x", t.lookup("Model"))], [])
        net = Network("N", {"A": a}, {})
        lib = evaluate_combines(Library(patterns={"A": a, "Q": q},
                                        networks={"N": net},
                                        combine_defs={"C": "N"}))
        lib.refinements["R"] = Refinement("R", lib.patterns["C"], q, {"a.b": "x"})
        text = emit_dsl(lib)
        assert "\nrefinement R = C refined to Q end\n" in text
        assert resolve(parse(text)).refinements["R"].node_map == {"a_b": "x"}

    def test_sanitized_member_ids_leave_the_map_to_inference(self):
        # a_b names the merged class, but P prints a~ as a_, which then
        # names it on re-parse: a printed via a_b |-> x would not resolve.
        t = default_taxonomy()
        model = t.lookup("Model")
        p = build_pattern("P", t, [("a_b", model), ("a~", model)], [])
        s = build_pattern("S", t, [("s", model)], [])
        q = build_pattern("T", t, [("x", model)], [])
        net = Network("N", {"P": p, "S": s},
                      {"R1": Refinement("R1", s, p, {"s": "a_b"}),
                       "R2": Refinement("R2", s, p, {"s": "a~"})})
        lib = evaluate_combines(Library(patterns={"P": p, "S": s, "T": q},
                                        refinements=dict(net.refinements),
                                        networks={"N": net},
                                        combine_defs={"C": "N"}))
        assert lib.patterns["C"].sorted_ids == ("a_b",)
        lib.refinements["R"] = Refinement("R", lib.patterns["C"], q, {"a_b": "x"})
        text = emit_dsl(lib)
        assert "\nrefinement R = C refined to T end\n" in text
        lib2 = evaluate_combines(resolve(parse(text)))
        assert lib2.patterns["C"].sorted_ids == ("a_",)
        assert lib2.refinements["R"].node_map == {"a_": "x"}

    def test_node_ids_are_sanitized_once_per_pattern(self, catalog, monkeypatch):
        # R1 and R2 both map from Model, whose body is printed too.
        lib = resolve(parse(FIG_DOC), catalog)
        calls = []
        safe_names = dsl._safe_names
        monkeypatch.setattr(dsl, "_safe_names",
                            lambda names: calls.append(names) or safe_names(names))
        emit_dsl(lib)
        printed = [p.sorted_ids for name, p in sorted(lib.patterns.items())
                   if name not in lib.combine_defs]
        assert sorted(c for c in calls if isinstance(c, tuple)) == sorted(printed)

    def test_keyword_node_ids_are_renamed(self):
        t = default_taxonomy()
        p = build_pattern("P", t, [("end", t.lookup("Model")),
                                   ("n_end", t.lookup("Data"))],
                          [("end", "n_end")])
        text = emit_dsl(Library(patterns={"P": p}))
        assert "  n_end_2 : Model -> n_end : Data;" in text
        assert isomorphic(p, resolve(parse(text)).patterns["P"])

    def test_taxonomy_of_no_data_clause_rejected(self):
        # The bundled classes with one more axiom: no data clause names it.
        d = default_taxonomy()
        symbol, model = d.lookup("Symbol"), d.lookup("Model")
        variant = Taxonomy(d.classes, d.subclass_edges | {(symbol, model)}, d.top)
        p = build_pattern("P", variant, [("s", symbol)], [])
        with pytest.raises(ValueError, match="no registered ontology reference"):
            emit_dsl(Library(patterns={"P": p}))

    def test_data_clause_is_the_first_key_of_an_equal_taxonomy(self):
        d = default_taxonomy()
        copy = Taxonomy(d.classes, d.subclass_edges, d.top)
        assert copy is not d and copy == d and hash(copy) == hash(d)
        p = build_pattern("P", d, [("s", d.lookup("Symbol"))], [])
        text = emit_dsl(Library(taxonomies={"z:b": d, "y:a": copy},
                                patterns={"P": p}))
        assert "pattern P = data y:a\n" in text
        text = emit_dsl(Library(patterns={"P": p}))
        assert "pattern P = data https://ontohub.org/meta/NeSyPatterns.omn\n" in text

    def test_emission_is_deterministic(self, catalog):
        lib = resolve(parse(FIG_DOC), catalog)
        assert emit_dsl(lib) == emit_dsl(resolve(parse(FIG_DOC), Catalog.default()))


class TestRoundTripProperty:
    def test_random_libraries_roundtrip(self):
        from helpers import STAGED_DOC, random_dsl_document, waiting_refinements_document
        rng = random.Random(61)
        for _ in range(12):
            text = random_dsl_document(rng)
            lib = resolve(parse(text), Catalog.default())
            lib2 = resolve(parse(emit_dsl(lib)), Catalog.default())
            assert set(lib.patterns) == set(lib2.patterns)
            for name in lib.patterns:
                assert isomorphic(lib.patterns[name], lib2.patterns[name]), name


def nested_combines(n: int) -> str:
    """P0, then n networks each wrapping the previous combination; the
    outermost combination's name sorts first."""
    lines = ["logic NeSyPatterns",
             "pattern P0 = data ontohub:NeSyPatterns.omn m : Model; end"]
    prev = "P0"
    for i in range(1, n + 1):
        name = f"C{n - i:05d}"
        lines += [f"network N{i} = {prev} end",
                  f"pattern {name} = combine N{i} end"]
        prev = name
    return "\n".join(lines) + "\n"


class TestDeepCombines:
    def test_deep_nesting_checks_and_round_trips(self, tmp_path, catalog):
        text = nested_combines(3000)
        doc = tmp_path / "deep.nesy"
        doc.write_text(text)
        err = io.StringIO()
        assert cmd_check(str(doc), catalog, err=err) == 0, err.getvalue()

        lib = evaluate_combines(resolve(parse(text), catalog))
        assert sorted(lib.combine_defs)[0] == "C00000"
        lib2 = evaluate_combines(resolve(parse(emit_dsl(lib)), Catalog.default()))
        assert set(lib2.patterns) == set(lib.patterns)
        for name, p in lib.patterns.items():
            assert isomorphic(p, lib2.patterns[name]), name


def _reference_emit_order(lib):
    """The emit order as first written: repeatedly take the first pending
    item whose dependencies have all been emitted."""
    def pattern_item(name):
        return ("combine" if name in lib.combine_defs else "pattern", name)

    items, deps = [], {}
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

    known = set(items)
    emitted, order, pending = set(), [], list(items)
    while pending:
        for i, item in enumerate(pending):
            if {d for d in deps[item] if d in known and d != item} <= emitted:
                order.append(item)
                emitted.add(item)
                del pending[i]
                break
        else:
            raise ValueError("library declarations are cyclic; cannot emit")
    return order


def _shuffled(d: dict, rng) -> dict:
    keys = list(d)
    rng.shuffle(keys)
    return {k: d[k] for k in keys}


class TestEmitOrder:
    def test_shuffled_declarations_match_reference(self, catalog, monkeypatch):
        rng = random.Random(67)
        texts = [FIG_DOC, EMBEDDING_DOC, nested_combines(12),
                 waiting_refinements_document(5), STAGED_DOC]
        texts += [random_dsl_document(rng) for _ in range(6)]
        for text in texts:
            lib = resolve(parse(text), catalog)
            for _ in range(5):
                shuffled = Library(
                    dict(lib.taxonomies), _shuffled(lib.patterns, rng),
                    _shuffled(lib.refinements, rng), _shuffled(lib.networks, rng),
                    _shuffled(lib.combine_defs, rng))
                got = emit_dsl(shuffled)
                with monkeypatch.context() as m:
                    m.setattr(dsl, "_emit_order", _reference_emit_order)
                    assert got == emit_dsl(shuffled)

    def test_cyclic_library_rejected(self, catalog):
        lib = resolve(parse(FIG_DOC), catalog)
        train = lib.patterns["Train"]
        cyclic = Library(networks={"N": Network("N", {"X": train}, {})},
                         combine_defs={"X": "N"})
        with pytest.raises(ValueError, match="cyclic; cannot emit"):
            emit_dsl(cyclic)
