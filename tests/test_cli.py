import io
import json
from pathlib import Path

import pytest

from nesypat.catalog import Catalog, load_catalog
from nesypat.cli import cmd_check, cmd_combine, cmd_infer, main
from nesypat.dsl import parse, resolve
from nesypat.errors import CatalogMissError
from nesypat.refinement import check_refinement
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
        assert len(lib.patterns["SemanticGenerateAndTrain"].nodes) == 6

    def test_abox_output(self):
        code, out, err = run(cmd_combine, FIG, "Train", "abox", Catalog.default())
        assert code == 0
        assert out == ("anon1 : Symbol\n"
                       "providesInput(anon1,anon2)\n"
                       "anon2 : Training\n"
                       "hasOutput(anon2,anon3)\n"
                       "anon3 : Model\n")

    def test_unknown_pattern_exit_1(self):
        code, out, err = run(cmd_combine, FIG, "Nope", "json", Catalog.default())
        assert code == 1
        assert "Nope" in err


class TestCmdInfer:
    def test_model_to_train(self):
        code, out, err = run(cmd_infer, FIG, "Model", "Train", Catalog.default())
        assert code == 0
        assert out == "anon1 |-> anon3\n"

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

    def test_unreadable_mapped_file_rejected(self, tmp_path):
        cat_file = tmp_path / "catalog.json"
        cat_file.write_text(json.dumps(
            {"prefixes": {}, "mappings": {"urn:x": str(tmp_path / "ghost.omn")}}))
        with pytest.raises(CatalogMissError):
            load_catalog(cat_file)

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
