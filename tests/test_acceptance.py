"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import random
import time
from pathlib import Path

import pytest

from helpers import (
    all_homomorphisms_oracle,
    glb_oracle,
    make_random_network,
    random_dsl_document,
    random_pattern,
    random_taxonomy,
)
from nesypat.catalog import Catalog
from nesypat.colimit import combination_result, combine, evaluate_combines
from nesypat.dsl import emit_dsl, parse, resolve
from nesypat.emitters import emit_abox
from nesypat.errors import DegenerateLoopError, UndefinedColimitError
from nesypat.pattern import (
    build_pattern,
    check_refinement,
    find_homomorphisms,
    isomorphic,
)
from nesypat.taxonomy import default_taxonomy

CORPUS = Path(__file__).resolve().parents[1] / "src" / "nesypat" / "corpus"


def criterion(num, description, limit_seconds=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if limit_seconds is not None and elapsed > limit_seconds:
                    raise AssertionError(
                        f"took {elapsed:.2f}s, limit {limit_seconds}s")
            except BaseException:
                print(f"ACCEPTANCE {num} ({description}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({description}): PASS "
                  f"[{elapsed:.2f}s]")
        return wrapper
    return deco


@criterion(1, "Fig. 6 end-to-end combination", limit_seconds=1.0)
def test_criterion_1_fig6_end_to_end():
    doc = parse((CORPUS / "semantic_generate_and_train.nesy").read_text())
    lib = resolve(doc, Catalog.default())
    # the two refinement maps were inferred, not declared
    assert lib.refinements["R1"].node_map == {"anon1": "anon3"}
    assert lib.refinements["R2"].node_map == {"anon1": "anon3"}
    result = combination_result(lib, "SemanticGenerateAndTrain")
    t = default_taxonomy()
    expected = build_pattern(
        "expected", t,
        [("s1", t.lookup("Symbol")), ("tr", t.lookup("Training")),
         ("m", t.lookup("Semantic_Model")), ("s2", t.lookup("Symbol")),
         ("d", t.lookup("Deduction")), ("s3", t.lookup("Symbol"))],
        [("s1", "tr"), ("tr", "m"), ("s2", "d"), ("d", "s3"), ("m", "d")])
    assert isomorphic(result.pattern, expected)
    merged_label = result.pattern.labels["anon1"]
    assert merged_label.local_name == "Semantic_Model"


@criterion(2, "undefined combination, then Hybrid_Model repair",
           limit_seconds=1.0)
def test_criterion_2_undefined_then_hybrid():
    clash = resolve(parse((CORPUS / "model_clash.nesy").read_text()),
                    Catalog.default())
    with pytest.raises(UndefinedColimitError) as e:
        evaluate_combines(clash)
    labels = {l.local_name for l in e.value.labels}
    assert {"Semantic_Model", "Statistical_Model"} <= labels

    glued = resolve(parse((CORPUS / "hybrid_model.nesy").read_text()),
                    Catalog.default())
    out = evaluate_combines(glued)
    merged = out.patterns["Merged"]
    labels = sorted(c.local_name for c in merged.labels.values())
    assert labels == ["Hybrid_Model"]


@criterion(3, "Fig. 8 inline ontology extension", limit_seconds=1.0)
def test_criterion_3_fig8_extension():
    lib = resolve(parse((CORPUS / "embedding.nesy").read_text()),
                  Catalog.default())
    p = lib.patterns["Embedding"]
    t = p.taxonomy
    assert t.leq(t.lookup("Embedding"), t.lookup("Process")) is True
    assert len(p.labels) == 4
    assert len(p.edges) == 3
    embedding_nodes = [i for i, c in p.labels.items()
                       if c.local_name == "Embedding"]
    assert len(embedding_nodes) == 1


@criterion(4, "homomorphism search matches exhaustive oracle, 200 pairs",
           limit_seconds=30.0)
def test_criterion_4_homomorphism_oracle_equivalence():
    rng = random.Random(101)
    for _ in range(200):
        t = random_taxonomy(rng, rng.randint(2, 12))
        src = random_pattern(rng, t, "src", rng.randint(1, 5), 0.35)
        tgt = random_pattern(rng, t, "tgt", rng.randint(1, 6), 0.35)
        got = {tuple(sorted(m.items())) for m in find_homomorphisms(src, tgt)}
        expected = all_homomorphisms_oracle(src, tgt)
        assert got == expected


@criterion(5, "colimit cocone and label minimality, 200 networks",
           limit_seconds=30.0)
def test_criterion_5_colimit_invariants():
    rng = random.Random(103)
    successes = 0
    for _ in range(200):
        net = make_random_network(rng, max_patterns=4, max_total_nodes=12,
                                  max_refs=4)
        try:
            result = combine(net)
        except (UndefinedColimitError, DegenerateLoopError):
            continue
        successes += 1
        for r in net.refinements.values():
            mu_i = result.injections[r.source.name]
            mu_j = result.injections[r.target.name]
            for n, img in r.node_map.items():
                assert mu_j[img] == mu_i[n]
        for pname, p in net.patterns.items():
            assert check_refinement(p, result.pattern,
                                    result.injections[pname]) == []
        taxonomy = next(iter(net.patterns.values())).taxonomy
        for cname, members in result.classes.items():
            member_labels = [net.patterns[p].labels[n] for p, n in members]
            assert result.pattern.labels[cname] == glb_oracle(taxonomy,
                                                              member_labels)
    assert successes >= 50  # the generator must exercise real combinations


@criterion(6, "infimum agrees with brute-force scan", limit_seconds=10.0)
def test_criterion_6_infimum_oracle():
    rng = random.Random(107)
    for _ in range(30):
        t = random_taxonomy(rng, rng.randint(1, 15))
        classes = sorted(t.classes, key=lambda c: c.local_name)
        for a in classes:
            for b in classes:
                assert t.infimum({a, b}) == glb_oracle(t, [a, b])


@criterion(7, "DSL round-trip over the bundled corpus")
def test_criterion_7_roundtrip():
    corpus_texts = [p.read_text() for p in sorted(CORPUS.glob("*.nesy"))]
    rng = random.Random(109)
    corpus_texts += [random_dsl_document(rng) for _ in range(10)]
    assert len(corpus_texts) >= 14
    for text in corpus_texts:
        lib = resolve(parse(text), Catalog.default())
        lib2 = resolve(parse(emit_dsl(lib)), Catalog.default())
        assert set(lib.patterns) == set(lib2.patterns)
        for name in lib.patterns:
            assert isomorphic(lib.patterns[name], lib2.patterns[name]), name
        assert lib2.combine_defs == lib.combine_defs


@criterion(8, "ABox translation of the Symbol/Training/Model chain")
def test_criterion_8_abox_exact():
    t = default_taxonomy()
    p = build_pattern(
        "chain", t,
        [("a", t.lookup("Symbol")), ("b", t.lookup("Training")),
         ("c", t.lookup("Model"))],
        [("a", "b"), ("b", "c")])
    triples = emit_abox(p)
    assert triples.render() == ("a : Symbol\n"
                                "providesInput(a,b)\n"
                                "b : Training\n"
                                "hasOutput(b,c)\n"
                                "c : Model\n")
    assert len(triples.memberships) == 3
    assert len(triples.links) == 2
