import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import ONE_STEP_DOC, STAGED_DOC
from nesypat.catalog import Catalog, load_catalog
from nesypat.cli import cmd_check, cmd_combine, cmd_infer, main
from nesypat.dsl import parse, resolve
from nesypat.errors import CatalogMissError
from nesypat.emitters import pattern_from_json
from nesypat.pattern import check_refinement, isomorphic
from nesypat.taxonomy import default_taxonomy

CORPUS = Path(__file__).resolve().parents[1] / "src" / "nesypat" / "corpus"
FIG = str(CORPUS / "semantic_generate_and_train.nesy")
CLASH = str(CORPUS / "model_clash.nesy")
HYBRID = str(CORPUS / "hybrid_model.nesy")
EMBEDDING = str(CORPUS / "embedding.nesy")


def run(func, *args):
    out, err = io.StringIO(), io.StringIO()
    code = func(*args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestCmdCheck:
    def test_fig_document_passes(self):
        code, out, err = run(cmd_check, FIG, Catalog.default())
        assert code == 0
        assert out == ""

    def test_embedding_document_passes(self):
        code, out, err = run(cmd_check, EMBEDDING, Catalog.default())
        assert code == 0

    def test_undefined_combine_fails(self):
        code, out, err = run(cmd_check, CLASH, Catalog.default())
        assert code == 1
        assert "Merged" in err
        assert "Semantic_Model" in err and "Statistical_Model" in err
        assert out == ""

    def test_hybrid_document_passes(self):
        code, out, err = run(cmd_check, HYBRID, Catalog.default())
        assert code == 0

    def test_no_refinement_diagnosed(self, tmp_path):
        doc = tmp_path / "bad.nesy"
        doc.write_text(
            "logic NeSyPatterns\n"
            "pattern A = data ontohub:NeSyPatterns.omn Actor; end\n"
            "pattern Train = data ontohub:NeSyPatterns.omn\n"
            "  Symbol -> Training -> Model;\nend\n"
            "refinement R = A refined to Train end\n")
        code, out, err = run(cmd_check, str(doc), Catalog.default())
        assert code == 1
        assert "no refinement" in err
        assert f"{doc}:6:1: error:" in err

    def test_missing_file_is_exit_2(self):
        code, out, err = run(cmd_check, "/nonexistent/x.nesy", Catalog.default())
        assert code == 2

    def test_non_utf8_document_is_exit_2(self, tmp_path):
        doc = tmp_path / "bad.nesy"
        doc.write_bytes(b"logic NeSyPatterns\n\xff")
        code, out, err = run(cmd_check, str(doc), Catalog.default())
        assert code == 2
        assert err.startswith(f"nesypat: error: cannot read {doc}: ")
        assert "internal error" not in err

    def test_reference_neither_curie_nor_iri_is_exit_2(self, tmp_path):
        doc = tmp_path / "foo.nesy"
        doc.write_text("logic NeSyPatterns\npattern P = data foo Model; end\n")
        code, out, err = run(cmd_check, str(doc), Catalog.default())
        assert code == 2 and out == ""
        assert err == (f"{doc}:2:18: error: ontology reference 'foo' is neither "
                       "a CURIE with a known prefix nor an IRI\n")

    def test_catalog_miss_is_placed_at_its_data_clause(self, tmp_path):
        # Of many data clauses, the one the catalog cannot resolve.
        doc = tmp_path / "miss.nesy"
        doc.write_text("logic NeSyPatterns\n"
                       + "".join(f"pattern P{i} = data ontohub:NeSyPatterns.omn a : Model; end\n"
                                 for i in range(3))
                       + "pattern Q =\n  data { nope:x.omn } a : Model; end\n")
        code, out, err = run(cmd_check, str(doc), Catalog.default())
        assert code == 2 and out == ""
        assert err == f"{doc}:6:10: error: undeclared CURIE prefix 'nope' in 'nope:x.omn'\n"

    def test_diagnostics_deterministic(self):
        a = run(cmd_check, CLASH, Catalog.default())
        b = run(cmd_check, CLASH, Catalog.default())
        assert a == b

    def test_syntax_error_position(self, tmp_path):
        doc = tmp_path / "syn.nesy"
        doc.write_text("logic NeSyPatterns\npattern = data x Model; end\n")
        code, out, err = run(cmd_check, str(doc), Catalog.default())
        assert code == 1
        assert f"{doc}:2:9: error:" in err

    def test_warnings_do_not_affect_exit_code(self, tmp_path):
        doc = tmp_path / "warn.nesy"
        doc.write_text(
            "logic NeSyPatterns\n"
            "pattern P =\n"
            "  data { ontohub:NeSyPatterns.omn\n"
            "         then Class: Gadget SubClassOf: Process\n"
            "              Annotations: skipped \"entry\" }\n"
            "  Gadget;\nend\n")
        code, out, err = run(cmd_check, str(doc), Catalog.default())
        assert code == 0
        assert "warning" in err
        assert out == ""

    def test_warnings_gathered_before_a_failure_are_printed_first(self, tmp_path):
        # Skipping the equivalence loses Reasoner <= Model, so the
        # warning explains why the refinement is not found.
        doc = tmp_path / "equiv.nesy"
        data = ("data { ontohub:NeSyPatterns.omn then "
                "Class: Reasoner EquivalentTo: Semantic_Model }")
        doc.write_text(
            "logic NeSyPatterns\n"
            f"pattern Abstract = {data} a : Model; end\n"
            f"pattern L = {data} x : Reasoner; end\n"
            "refinement R = Abstract refined to L end\n")
        code, out, err = run(cmd_check, str(doc), Catalog.default())
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"{doc}:2:73: warning: EquivalentTo entries are skipped",
            f"{doc}:4:1: error: no refinement from 'Abstract' to 'L'"]

    def test_degenerate_loop_diagnosed(self, tmp_path):
        doc = tmp_path / "loop.nesy"
        doc.write_text(
            "logic NeSyPatterns\n"
            "pattern S = data ontohub:NeSyPatterns.omn s : Model; end\n"
            "pattern T = data ontohub:NeSyPatterns.omn\n"
            "  x : Model -> y : Semantic_Model;\nend\n"
            "refinement RX = S refined to T via s |-> x end\n"
            "refinement RY = S refined to T via s |-> y end\n"
            "network LoopNet = RX, RY end\n"
            "pattern Looped = combine LoopNet end\n")
        code, out, err = run(cmd_check, str(doc), Catalog.default())
        assert code == 1
        assert "self-loop" in err
        code, out, err = run(cmd_combine, str(doc), "Looped", "json",
                             Catalog.default())
        assert code == 1 and out == ""


class TestErrorPlacement:
    """A combination error is placed at its ``combine`` declaration,
    whichever command forced it."""

    @pytest.mark.parametrize("func, args", [
        (cmd_check, ()),
        (cmd_combine, ("Merged", "json")),
        (cmd_infer, ("Merged", "Abstract")),
    ])
    def test_undefined_combination_at_declaration(self, func, args):
        code, out, err = run(func, CLASH, *args, Catalog.default())
        assert code == 1 and out == ""
        assert err.startswith(f"{CLASH}:21:1: error: Merged: no infimum")

    def test_error_forced_while_resolving_placed_at_declaration(self, tmp_path):
        doc = tmp_path / "wrapped.nesy"
        doc.write_text(Path(CLASH).read_text()
                       + "network Wrap = Merged end\n"
                       "pattern Outer = combine Wrap end\n")
        for func, args in ((cmd_check, ()), (cmd_combine, ("Outer", "dot")),
                           (cmd_infer, ("Outer", "Abstract"))):
            code, out, err = run(func, str(doc), *args, Catalog.default())
            assert code == 1
            assert err.startswith(f"{doc}:21:1: error: Merged: no infimum")

    def test_abox_error_placed_at_the_pattern(self, tmp_path):
        omn = tmp_path / "zoo.omn"
        omn.write_text("Class: Cat SubClassOf: Animal\nClass: Animal")
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps(
            {"prefixes": {"zoo": "https://zoo.example/"},
             "mappings": {"https://zoo.example/zoo.omn": str(omn)}}))
        doc = tmp_path / "doc.nesy"
        doc.write_text("logic NeSyPatterns\n\n"
                       "pattern P = data zoo:zoo.omn a : Cat; end\n")
        code, out, err = run(cmd_combine, str(doc), "P", "abox",
                             load_catalog(cat_file))
        assert code == 1 and out == ""
        assert err == (f"{doc}:3:1: error: ABox translation needs a Process "
                       "class in the taxonomy\n")


class TestCmdCombine:
    def test_fig_combination_json(self):
        code, out, err = run(cmd_combine, FIG, "SemanticGenerateAndTrain",
                             "json", Catalog.default())
        assert code == 0
        obj = json.loads(out)
        assert len(obj["nodes"]) == 6
        assert len(obj["edges"]) == 5
        assert len(obj["injections"]) == 3

    def test_plain_pattern_rendered_unchanged(self):
        code, out, err = run(cmd_combine, FIG, "Train", "json", Catalog.default())
        assert code == 0
        obj = json.loads(out)
        assert [n["label"] for n in obj["nodes"]] == ["Symbol", "Training", "Model"]
        assert "injections" not in obj

    def test_clash_exit_1_names_labels(self):
        code, out, err = run(cmd_combine, CLASH, "Merged", "json", Catalog.default())
        assert code == 1
        assert "Semantic_Model" in err and "Statistical_Model" in err
        assert out == ""

    def test_hybrid_merged_node(self):
        code, out, err = run(cmd_combine, HYBRID, "Merged", "json", Catalog.default())
        assert code == 0
        obj = json.loads(out)
        merged = [n for n in obj["nodes"] if n["label"] == "Hybrid_Model"]
        assert len(merged) == 1

    def test_dot_output(self):
        code, out, err = run(cmd_combine, FIG, "SemanticGenerateAndTrain",
                             "dot", Catalog.default())
        assert code == 0
        assert out.startswith('digraph "SemanticGenerateAndTrain"')

    def test_dsl_output_reparses(self, tmp_path):
        code, out, err = run(cmd_combine, FIG, "SemanticGenerateAndTrain",
                             "dsl", Catalog.default())
        assert code == 0
        from nesypat.dsl import parse, resolve
        lib = resolve(parse(out), Catalog.default())
        assert len(lib.patterns["SemanticGenerateAndTrain"].labels) == 6

    def test_abox_output(self):
        code, out, err = run(cmd_combine, FIG, "Train", "abox", Catalog.default())
        assert code == 0
        assert out == ("anon1 : Symbol\n"
                       "providesInput(anon1,anon2)\n"
                       "anon2 : Training\n"
                       "hasOutput(anon2,anon3)\n"
                       "anon3 : Model\n")

    def test_unknown_format_fails_and_writes_nothing(self):
        code, out, err = run(cmd_combine, FIG, "Train", "svg", Catalog.default())
        assert code == 1
        assert err == "nesypat: error: unknown format 'svg'\n"
        assert out == ""

    def test_abox_warning_placed_at_the_pattern(self, tmp_path):
        doc = tmp_path / "abox.nesy"
        doc.write_text("logic NeSyPatterns\npattern P = data ontohub:NeSyPatterns.omn"
                       " a : Data -> b : Model; end\n")
        code, out, err = run(cmd_combine, str(doc), "P", "abox", Catalog.default())
        assert code == 0
        assert out == "a : Data\nconnectedTo(a,b)\nb : Model\n"
        assert err == (f"{doc}:2:1: warning: edge ('a', 'b') joins two "
                       "non-process nodes; using connectedTo\n")

    def test_unknown_pattern_exit_1(self):
        code, out, err = run(cmd_combine, FIG, "Nope", "json", Catalog.default())
        assert code == 1
        assert "Nope" in err

    def test_combining_in_stages_prints_the_one_step_combination(self, tmp_path):
        # Three members combined at once, and two of them first, then that
        # combination glued to the third by a map into its combined node.
        patterns = []
        for name, text in (("one_step", ONE_STEP_DOC), ("staged", STAGED_DOC)):
            doc = tmp_path / f"{name}.nesy"
            doc.write_text(text)
            code, out, err = run(cmd_combine, str(doc), "C", "json", Catalog.default())
            assert (code, err) == (0, "")
            patterns.append(pattern_from_json(out, default_taxonomy()))
        one_step, staged = patterns
        assert (len(one_step.labels), len(one_step.edges)) == (3, 2)
        assert isomorphic(one_step, staged)


class TestCmdInfer:
    def test_model_to_train(self):
        code, out, err = run(cmd_infer, FIG, "Model", "Train", Catalog.default())
        assert code == 0
        assert out == "anon1 |-> anon3\n"

    def test_into_combine_defined_pattern(self):
        code, out, err = run(cmd_infer, FIG, "Train", "SemanticGenerateAndTrain",
                             Catalog.default())
        assert code == 0
        assert out == ("anon1 |-> anon1_3\n"
                       "anon2 |-> anon2_2\n"
                       "anon3 |-> anon1\n")

    def test_ambiguous_lists_witnesses(self, tmp_path):
        doc = tmp_path / "amb.nesy"
        doc.write_text(
            "logic NeSyPatterns\n"
            "pattern S = data ontohub:NeSyPatterns.omn Symbol; end\n"
            "pattern SemanticDeduction = data ontohub:NeSyPatterns.omn\n"
            "  Symbol -> d : Deduction -> Symbol;\n"
            "  Semantic_Model -> d : Deduction;\nend\n")
        code, out, err = run(cmd_infer, str(doc), "S", "SemanticDeduction",
                             Catalog.default())
        assert code == 1
        assert "ambiguous" in err
        assert "e.g. {anon1 |-> anon1}; {anon1 |-> anon2}\n" in err
        assert out == ""
        lib = resolve(parse(doc.read_text()), Catalog.default())
        s, sd = lib.patterns["S"], lib.patterns["SemanticDeduction"]
        for image in ("anon1", "anon2"):
            assert check_refinement(s, sd, {"anon1": image}) == []

    def test_identity_inference(self):
        code, out, err = run(cmd_infer, FIG, "Train", "Train", Catalog.default())
        assert code == 0
        assert out == ("anon1 |-> anon1\n"
                       "anon2 |-> anon2\n"
                       "anon3 |-> anon3\n")

    def test_no_refinement_exit_1(self, tmp_path):
        doc = tmp_path / "none.nesy"
        doc.write_text(
            "logic NeSyPatterns\n"
            "pattern A = data ontohub:NeSyPatterns.omn Actor; end\n"
            "pattern B = data ontohub:NeSyPatterns.omn Symbol; end\n")
        code, out, err = run(cmd_infer, str(doc), "A", "B", Catalog.default())
        assert code == 1
        assert "no refinement" in err


class TestCatalog:
    def test_default_catalog_resolves_builtin(self):
        c = Catalog.default()
        t = c.resolve_taxonomy("ontohub:NeSyPatterns.omn")
        assert t == default_taxonomy()

    def test_plain_iri_resolves_builtin(self):
        c = Catalog()
        t = c.resolve_taxonomy("https://ontohub.org/meta/NeSyPatterns.omn")
        assert t == default_taxonomy()

    def test_empty_catalog_unknown_prefix(self):
        with pytest.raises(CatalogMissError):
            Catalog().resolve_taxonomy("nope:Thing.omn")

    def test_unmapped_iri_without_fetch(self):
        with pytest.raises(CatalogMissError):
            Catalog().resolve_taxonomy("https://example.org/other.omn")

    def test_user_prefix_plus_builtin_mapping(self, tmp_path):
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps(
            {"prefixes": {"ontohub": "https://ontohub.org/meta/"},
             "mappings": {}}))
        c = load_catalog(cat_file)
        assert c.resolve_taxonomy("ontohub:NeSyPatterns.omn") == default_taxonomy()

    def test_mapping_to_local_file(self, tmp_path):
        omn = tmp_path / "zoo.omn"
        omn.write_text("Class: Cat SubClassOf: Animal\nClass: Animal")
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps(
            {"prefixes": {"zoo": "https://zoo.example/"},
             "mappings": {"https://zoo.example/zoo.omn": str(omn)}}))
        c = load_catalog(cat_file)
        t = c.resolve_taxonomy("zoo:zoo.omn")
        assert t.leq(t.lookup("Cat"), t.lookup("Animal"))

    def test_mapping_overrides_builtin(self, tmp_path):
        omn = tmp_path / "mini.omn"
        omn.write_text("Class: Model\nClass: Symbol")
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps(
            {"prefixes": {"ontohub": "https://ontohub.org/meta/"},
             "mappings": {"https://ontohub.org/meta/NeSyPatterns.omn": str(omn)}}))
        c = load_catalog(cat_file)
        t = c.resolve_taxonomy("ontohub:NeSyPatterns.omn")
        assert t != default_taxonomy()

    def test_malformed_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(CatalogMissError):
            load_catalog(bad)

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_allow_fetch_must_be_a_boolean(self, tmp_path, capsys, value):
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps({"allow_fetch": value}))
        with pytest.raises(CatalogMissError) as e:
            load_catalog(cat_file)
        assert e.value.message == (f"malformed catalog {cat_file}: "
                                   "allow_fetch must be true or false")
        assert main(["check", FIG, "--catalog", str(cat_file)]) == 2
        assert capsys.readouterr().err == f"nesypat: error: {e.value.message}\n"

    @pytest.mark.parametrize("value", [True, False])
    def test_allow_fetch_reads_a_boolean(self, tmp_path, value):
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps({"allow_fetch": value}))
        assert load_catalog(cat_file).allow_fetch is value
        cat_file.write_text("{}")
        assert load_catalog(cat_file).allow_fetch is False

    def test_unreadable_mapped_file_rejected(self, tmp_path):
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps(
            {"prefixes": {}, "mappings": {"urn:x": str(tmp_path / "ghost.omn")}}))
        with pytest.raises(CatalogMissError):
            load_catalog(cat_file)

    def test_non_utf8_mapped_file_is_exit_2(self, tmp_path):
        omn = tmp_path / "bad.omn"
        omn.write_bytes(b"Class: A\n\xff")
        doc = tmp_path / "doc.nesy"
        doc.write_text("logic NeSyPatterns\npattern P = data urn:bad A; end")
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps({"mappings": {"urn:bad": str(omn)}}))
        code, out, err = run(cmd_check, str(doc), load_catalog(cat_file))
        assert code == 2
        assert err.startswith(f"{doc}:2:18: error: cannot read mapped file {omn}: ")
        assert "internal error" not in err

    def test_mapped_ontology_with_unusable_iri_is_a_check_failure(self, tmp_path):
        omn = tmp_path / "bad.omn"
        omn.write_text("Class: A\nClass: <urn:x#>")
        doc = tmp_path / "doc.nesy"
        doc.write_text("logic NeSyPatterns\npattern P = data urn:bad A; end")
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps({"mappings": {"urn:bad": str(omn)}}))
        err = io.StringIO()
        assert cmd_check(str(doc), load_catalog(cat_file), err=err) == 1
        assert "error: IRI <urn:x#> has no local name" in err.getvalue()
        assert "internal error" not in err.getvalue()

    def test_error_in_mapped_ontology_names_that_file(self, tmp_path):
        omn = tmp_path / "bad.omn"
        omn.write_text("Class: A\nClass: <urn:x#>")
        doc = tmp_path / "doc.nesy"
        doc.write_text("logic NeSyPatterns\npattern P = data urn:bad A; end")
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps({"mappings": {"urn:bad": str(omn)}}))
        code, out, err = run(cmd_check, str(doc), load_catalog(cat_file))
        assert code == 1
        assert err == f"{omn}:2:8: error: IRI <urn:x#> has no local name\n"

    def test_undeclared_prefix_in_mapped_ontology_placed_at_the_name(self, tmp_path):
        omn = tmp_path / "bad.omn"
        omn.write_text("Prefix: : <urn:bad#>\nClass: A\nClass: B SubClassOf: q:A")
        doc = tmp_path / "pre.nesy"
        doc.write_text("logic NeSyPatterns\npattern P = data urn:bad A; end")
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps({"mappings": {"urn:bad": str(omn)}}))
        code, out, err = run(cmd_check, str(doc), load_catalog(cat_file))
        assert code == 1
        assert err == f"{omn}:3:22: error: undeclared prefix 'q' in 'q:A'\n"

    def test_warning_in_mapped_ontology_names_that_file(self, tmp_path):
        omn = tmp_path / "warn.omn"
        omn.write_text("Class: A\n  Annotations: skipped\nClass: B")
        doc = tmp_path / "doc.nesy"
        doc.write_text("logic NeSyPatterns\npattern P = data urn:w A; end")
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps({"mappings": {"urn:w": str(omn)}}))
        code, out, err = run(cmd_check, str(doc), load_catalog(cat_file))
        assert code == 0
        assert err == f"{omn}:2:3: warning: Annotations entries are skipped\n"

    def test_relative_mapping_paths(self, tmp_path):
        omn = tmp_path / "zoo.omn"
        omn.write_text("Class: Animal")
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps(
            {"prefixes": {}, "mappings": {"urn:zoo": "zoo.omn"}}))
        c = load_catalog(cat_file)
        assert c.resolve_taxonomy("urn:zoo") is not None


class TestMain:
    def test_check_via_main(self):
        assert main(["check", FIG]) == 0

    def test_combine_via_main(self, capsys):
        assert main(["combine", FIG, "--pattern", "Train", "--format", "dot"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("digraph")
        assert captured.err == ""

    def test_infer_via_main(self, capsys):
        assert main(["infer", FIG, "--from", "Model", "--to", "Train"]) == 0
        assert capsys.readouterr().out == "anon1 |-> anon3\n"

    def test_env_catalog(self, tmp_path, monkeypatch):
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps(
            {"prefixes": {"ontohub": "https://ontohub.org/meta/"}, "mappings": {}}))
        monkeypatch.setenv("NESY_CATALOG", str(cat_file))
        assert main(["check", FIG]) == 0

    def test_bad_catalog_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1,2,3]")
        assert main(["check", FIG, "--catalog", str(bad)]) == 2

    def test_non_string_mapping_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mappings": {"https://x.org/a.omn": 1}}))
        with pytest.raises(CatalogMissError,
                           match="prefixes and mappings must map strings to strings"):
            load_catalog(bad)
        assert main(["check", FIG, "--catalog", str(bad)]) == 2

    def test_non_utf8_catalog_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"prefixes": {"\xff": "urn:x#"}}')
        assert main(["check", FIG, "--catalog", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"nesypat: error: cannot read catalog {bad}: ")
        assert "internal error" not in err

    def test_internal_error_is_one_line(self, monkeypatch, capsys):
        def crash(*args):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr("nesypat.cli.emit_abox", crash)
        assert main(["combine", FIG, "--pattern", "Train", "--format", "abox"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("nesypat: internal error: RecursionError: "
                                "maximum recursion depth exceeded\n")

    def test_results_never_on_stderr_diagnostics_never_on_stdout(self, capsys):
        main(["combine", CLASH, "--pattern", "Merged"])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err


class TestAllowFetch:
    """``--allow-fetch`` reads unmapped IRIs with ``urlopen``, which also
    serves ``file://`` URLs, so these run offline."""

    def doc(self, tmp_path, iri: str) -> str:
        doc = tmp_path / "fetch.nesy"
        doc.write_text(f"logic NeSyPatterns\npattern P = data {iri}\n"
                       "  Symbol -> Training -> Model;\nend\n")
        return str(doc)

    def test_fetched_ontology_checks(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NESY_CATALOG", raising=False)
        iri = (CORPUS / "nesy_patterns.omn").as_uri()
        assert main(["check", "--allow-fetch", self.doc(tmp_path, iri)]) == 0

    def test_failed_fetch_is_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("NESY_CATALOG", raising=False)
        iri = (tmp_path / "missing.omn").as_uri()
        doc = self.doc(tmp_path, iri)
        assert main(["check", "--allow-fetch", doc]) == 2
        assert f"{doc}:2:18: error: failed to fetch {iri!r}" in capsys.readouterr().err
        with pytest.raises(CatalogMissError):
            Catalog(allow_fetch=True).resolve_taxonomy(iri)


def test_check_imports_no_start_up_weight():
    """``import nesypat``, a ``check`` run and a ``combine --format dsl``
    run import none of these modules, which would add to every command's
    start-up.  ``-S`` keeps site-packages hooks from importing them
    first."""
    heavy = ("dataclasses", "inspect", "json", "graphlib")
    code = (f"import sys, io; sys.path.insert(0, {str(CORPUS.parents[1])!r})\n"
            "import nesypat, nesypat.cli\n"
            f"code = nesypat.cli.main(['check', {HYBRID!r}])\n"
            "sys.stdout = out = io.StringIO()\n"
            f"code = code, nesypat.cli.main(['combine', {FIG!r}, '--pattern',\n"
            "    'SemanticGenerateAndTrain', '--format', 'dsl'])\n"
            "sys.stdout = sys.__stdout__\n"
            "print(code, 'pattern SemanticGenerateAndTrain = data' in out.getvalue(),\n"
            f"      sorted(m for m in {heavy!r} if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "(0, 0) True []\n", proc.stderr


@pytest.mark.parametrize("path, code, first_line", [
    (HYBRID, 0, None),
    (CLASH, 1, f"{CLASH}:21:1: error: Merged: no infimum"),
])
def test_python_dash_m_runs_the_cli(path, code, first_line):
    """``python -m nesypat`` runs the command line through ``__main__``."""
    env = dict(os.environ, PYTHONPATH=str(CORPUS.parents[1]))
    proc = subprocess.run([sys.executable, "-m", "nesypat", "check", path],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    if first_line is None:
        assert proc.stderr == ""
    else:
        assert proc.stderr.startswith(first_line), proc.stderr
