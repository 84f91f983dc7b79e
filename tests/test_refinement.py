import io
import random

import pytest

import nesypat.pattern
from helpers import all_homomorphisms_oracle, random_pattern, random_taxonomy
from nesypat.catalog import Catalog
from nesypat.cli import cmd_check
from nesypat.errors import (
    AmbiguousRefinementError,
    NoRefinementError,
    SearchBudgetError,
    TaxonomyMismatchError,
)
from nesypat.pattern import build_pattern, isomorphic
from nesypat.refinement import check_refinement, find_homomorphisms, infer_refinement
from nesypat.taxonomy import default_taxonomy


@pytest.fixture(scope="module")
def t():
    return default_taxonomy()


def pat(t, name, labeled_nodes, edges=()):
    nodes = [(i, t.lookup(l)) for i, l in labeled_nodes]
    return build_pattern(name, t, nodes, list(edges))


@pytest.fixture(scope="module")
def train(t):
    return pat(t, "Train",
               [("s", "Symbol"), ("tr", "Training"), ("m", "Model")],
               [("s", "tr"), ("tr", "m")])


@pytest.fixture(scope="module")
def semantic_deduction(t):
    return pat(t, "SemanticDeduction",
               [("s1", "Symbol"), ("d", "Deduction"), ("s2", "Symbol"),
                ("sm", "Semantic_Model")],
               [("s1", "d"), ("d", "s2"), ("sm", "d")])


class TestCheckRefinement:
    def test_positionwise_specialization_ok(self, t):
        abstract = pat(t, "GenerateModel",
                       [("i", "Instance"), ("p", "Training"), ("m", "Model")],
                       [("i", "p"), ("p", "m")])
        concrete = pat(t, "TrainStatistical",
                       [("d", "Data"), ("p", "Training"), ("sm", "Statistical_Model")],
                       [("d", "p"), ("p", "sm")])
        ok = check_refinement(abstract, concrete, {"i": "d", "p": "p", "m": "sm"})
        assert ok == []

    def test_identity_map_ok(self, t, train):
        assert check_refinement(train, train, {i: i for i in train.sorted_ids}) == []

    def test_label_violation_reported(self, t, train):
        single = pat(t, "M", [("m", "Model")])
        violations = check_refinement(single, train, {"m": "s"})
        assert [v.kind for v in violations] == ["label-not-below"]

    def test_missing_image_and_edge_reported(self, t, train):
        two = pat(t, "two", [("a", "Symbol"), ("b", "Model")], [("a", "b")])
        violations = check_refinement(two, train, {"a": "s"})
        kinds = {v.kind for v in violations}
        assert kinds == {"missing-image"}
        violations = check_refinement(two, train, {"a": "s", "b": "m"})
        assert [v.kind for v in violations] == ["edge-not-preserved"]

    def test_taxonomy_mismatch_rejected(self, t, train):
        other = default_taxonomy().extend("Class: Embedding SubClassOf: Transformation")
        q = build_pattern("q", other, [("m", other.lookup("Model"))], [])
        with pytest.raises(TaxonomyMismatchError):
            check_refinement(q, train, {"m": "m"})


class TestFindHomomorphisms:
    def test_single_model_into_train(self, t, train):
        src = pat(t, "Model", [("m0", "Model")])
        maps = find_homomorphisms(src, train)
        assert maps == [{"m0": "m"}]

    def test_single_model_into_semantic_deduction(self, t, semantic_deduction):
        src = pat(t, "Model", [("m0", "Model")])
        maps = find_homomorphisms(src, semantic_deduction)
        assert maps == [{"m0": "sm"}]

    def test_single_node_to_itself(self, t):
        src = pat(t, "one", [("x", "Actor")])
        assert find_homomorphisms(src, src) == [{"x": "x"}]

    def test_limit_respected(self, t, semantic_deduction):
        src = pat(t, "Symbol", [("s", "Symbol")])
        assert len(find_homomorphisms(src, semantic_deduction, limit=1)) == 1
        assert len(find_homomorphisms(src, semantic_deduction)) == 2

    def test_agrees_with_exhaustive_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            t = random_taxonomy(rng, rng.randint(2, 8))
            src = random_pattern(rng, t, "src", rng.randint(1, 4), 0.35)
            tgt = random_pattern(rng, t, "tgt", rng.randint(1, 5), 0.35)
            got = {tuple(sorted(m.items())) for m in find_homomorphisms(src, tgt)}
            assert got == all_homomorphisms_oracle(src, tgt)

    def test_every_result_passes_check(self, t, train, semantic_deduction):
        rng = random.Random(29)
        for _ in range(30):
            tax = random_taxonomy(rng, rng.randint(2, 8))
            src = random_pattern(rng, tax, "src", rng.randint(1, 4), 0.4)
            tgt = random_pattern(rng, tax, "tgt", rng.randint(1, 5), 0.4)
            for m in find_homomorphisms(src, tgt):
                assert check_refinement(src, tgt, m) == []

    def test_deterministic_order(self, t, semantic_deduction):
        src = pat(t, "Symbol", [("s", "Symbol")])
        maps = find_homomorphisms(src, semantic_deduction)
        assert maps == [{"s": "s1"}, {"s": "s2"}]


class TestInferRefinement:
    def test_unique_map_inferred(self, t, train):
        src = pat(t, "Model", [("m0", "Model")])
        r = infer_refinement("R1", src, train)
        assert r.node_map == {"m0": "m"}

    def test_ambiguous_lists_two_witnesses(self, t, semantic_deduction):
        src = pat(t, "Symbol", [("s", "Symbol")])
        with pytest.raises(AmbiguousRefinementError) as e:
            infer_refinement("R", src, semantic_deduction)
        assert e.value.witnesses == ({"s": "s1"}, {"s": "s2"})
        for m in e.value.witnesses:
            assert check_refinement(src, semantic_deduction, m) == []

    def test_no_map_reported(self, t, train):
        src = pat(t, "Actor", [("a", "Actor")])
        with pytest.raises(NoRefinementError):
            infer_refinement("R", src, train)


class TestComposition:
    def test_composition_closure(self):
        rng = random.Random(31)
        found = 0
        while found < 15:
            t = random_taxonomy(rng, rng.randint(3, 8))
            p1 = random_pattern(rng, t, "p1", rng.randint(1, 3), 0.4)
            p2 = random_pattern(rng, t, "p2", rng.randint(1, 4), 0.4)
            p3 = random_pattern(rng, t, "p3", rng.randint(1, 4), 0.4)
            maps12 = find_homomorphisms(p1, p2, limit=3)
            maps23 = find_homomorphisms(p2, p3, limit=3)
            for phi in maps12:
                for psi in maps23:
                    comp = {n: psi[phi[n]] for n in phi}
                    assert check_refinement(p1, p3, comp) == []
                    found += 1


def top_pattern(t, name, ids, edges=()):
    return build_pattern(name, t, [(i, t.top) for i in ids], list(edges))


def complete_digraph(t, name, n):
    ids = [f"{name.lower()}{i}" for i in range(n)]
    return top_pattern(t, name, ids,
                       [(a, b) for a in ids for b in ids if a != b])


def cycle_into_dag(t, k, n, seed):
    """A directed k-cycle and a random n-node DAG (each node links to up
    to four later nodes of a shuffled order), all labels top."""
    rng = random.Random(seed)
    cyc = [f"c{i}" for i in range(k)]
    order = [f"d{i}" for i in range(n)]
    rng.shuffle(order)
    edges = [(a, b) for i, a in enumerate(order)
             for b in rng.sample(order[i + 1:], min(4, n - i - 1))]
    return (top_pattern(t, "Cyc", cyc, zip(cyc, cyc[1:] + cyc[:1])),
            top_pattern(t, "Dag", order, edges))


class TestSearchBudget:
    @pytest.fixture
    def budget(self, monkeypatch):
        def set_budget(n):
            monkeypatch.setattr(nesypat.pattern, "SEARCH_BUDGET", n)
        return set_budget

    def test_pigeonhole_exceeds_budget(self, t, budget):
        # No map K5 -> K4 exists, but every arc of K5 has support in K4,
        # so only the search (156 steps) can tell.
        k5, k4 = complete_digraph(t, "K", 5), complete_digraph(t, "L", 4)
        with pytest.raises(NoRefinementError):
            infer_refinement("R", k5, k4)
        budget(10)
        with pytest.raises(SearchBudgetError):
            infer_refinement("R", k5, k4)

    def test_check_places_budget_error_at_refinement(self, tmp_path, budget):
        budget(10)
        lines = ["logic NeSyPatterns"]
        for name, n in (("K5", 5), ("K4", 4)):
            ids = [f"v{i}" for i in range(n)]
            lines.append(f"pattern {name} = data ontohub:NeSyPatterns.omn")
            lines += [f"  {a} : NeSy_Pattern_Element -> {b} : NeSy_Pattern_Element;"
                      for a in ids for b in ids if a != b]
            lines.append("end")
        row = len(lines) + 1
        lines.append("refinement R = K5 refined to K4 end")
        doc = tmp_path / "pigeon.nesy"
        doc.write_text("\n".join(lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        assert cmd_check(str(doc), Catalog.default(), out=out, err=err) == 1
        assert err.getvalue().startswith(f"{doc}:{row}:1: error: ")
        assert "gave up" in err.getvalue()

    def test_unbounded_enumeration_exceeds_budget(self, t, budget):
        budget(10)
        six = top_pattern(t, "Six", [f"i{k}" for k in range(6)])
        with pytest.raises(SearchBudgetError):
            find_homomorphisms(six, six, limit=None)

    def test_budget_counts_propagation(self, t, budget):
        # Each of the 60 candidates for the first node of the 60-cycle
        # propagates about 30 nodes round a 30-cycle before it fails, so
        # the search takes 1920 steps while trying few candidates.
        def cycles(name, sizes):
            ids = [[f"{name}{c}_{i}" for i in range(n)]
                   for c, n in enumerate(sizes)]
            return top_pattern(t, name, sum(ids, []),
                               [e for c in ids for e in zip(c, c[1:] + c[:1])])

        budget(500)
        assert isomorphic(cycles("a", [60]), cycles("b", [60]))
        with pytest.raises(SearchBudgetError):
            isomorphic(cycles("a", [60]), cycles("b", [30, 30]))

    def test_budget_counts_kept_maps(self, t, budget):
        # A 12-node chain has 3 * 2**11 = 6144 maps into K3, each found
        # after a few steps of search but holding 12 nodes.
        ids = [f"l{i:02d}" for i in range(12)]
        chain = top_pattern(t, "Chain", ids, zip(ids, ids[1:]))
        k3 = complete_digraph(t, "K", 3)
        assert len(find_homomorphisms(chain, k3)) == 6144
        budget(40_000)
        with pytest.raises(SearchBudgetError):
            find_homomorphisms(chain, k3)

    def test_root_propagation_decides_cycle_into_dag(self, t, budget):
        budget(0)
        cyc, dag = cycle_into_dag(t, 10, 40, seed=3)
        with pytest.raises(NoRefinementError):
            infer_refinement("R", cyc, dag)


class TestLargeInputs:
    """5000-node patterns, well past the default recursion limit."""

    @pytest.fixture(scope="class")
    def chain(self, t):
        ids = [f"l{i}" for i in range(5000)]
        return top_pattern(t, "Chain", ids, zip(ids, ids[1:]))

    def test_chain_into_two_cycle_has_two_maps(self, t, chain):
        two = pat(t, "Two", [("a", "Data"), ("b", "Training")],
                  [("a", "b"), ("b", "a")])
        maps = find_homomorphisms(chain, two)
        assert len(maps) == 2
        for m in maps:
            assert m["l0"] != m["l1"] and m["l4998"] != m["l4999"]
            assert check_refinement(chain, two, m) == []

    def test_chain_into_single_edge_has_none(self, t, chain):
        edge = pat(t, "Edge", [("a", "Data"), ("b", "Training")], [("a", "b")])
        assert find_homomorphisms(chain, edge) == []
