import copy
import pickle
import random
import tracemalloc
from pathlib import Path

import pytest

import nesypat
from helpers import isomorphic_oracle, random_pattern
from nesypat import Catalog, parse, resolve
from nesypat.emitters import emit_manchester
from nesypat.errors import (
    DuplicateNodeError,
    SelfLoopError,
    UnknownLabelError,
    UnknownNodeError,
)
from nesypat.pattern import build_pattern, isomorphic
from nesypat.taxonomy import ClassRef, default_taxonomy, parse_taxonomy


@pytest.fixture(scope="module")
def t():
    return default_taxonomy()


def chain_pattern(t, name, labels, ids=None):
    ids = ids or [f"n{i}" for i in range(len(labels))]
    nodes = [(i, t.lookup(l)) for i, l in zip(ids, labels)]
    edges = [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
    return build_pattern(name, t, nodes, edges)


class TestBuildPattern:
    def test_train_shaped_pattern(self, t):
        p = chain_pattern(t, "Train", ["Symbol", "Training", "Model"],
                          ids=["s", "tr", "m"])
        assert len(p.labels) == 3
        assert p.edges == {("s", "tr"), ("tr", "m")}

    def test_single_node_no_edges(self, t):
        p = build_pattern("Model", t, [("m", t.lookup("Model"))], [])
        assert len(p.labels) == 1 and not p.edges

    def test_self_loop_rejected(self, t):
        with pytest.raises(SelfLoopError):
            build_pattern("bad", t, [("s", t.lookup("Symbol"))], [("s", "s")])

    def test_unknown_label_rejected(self, t):
        with pytest.raises(UnknownLabelError):
            build_pattern("bad", t, [("x", ClassRef("urn:o#Q", "Q"))], [])

    def test_duplicate_id_same_label_idempotent(self, t):
        p = build_pattern("p", t,
                          [("a", t.lookup("Symbol")), ("a", t.lookup("Symbol"))], [])
        assert len(p.labels) == 1

    def test_duplicate_id_other_label_rejected(self, t):
        with pytest.raises(DuplicateNodeError):
            build_pattern("p", t,
                          [("a", t.lookup("Symbol")), ("a", t.lookup("Data"))], [])

    def test_undeclared_endpoint_rejected(self, t):
        with pytest.raises(UnknownNodeError):
            build_pattern("p", t, [("a", t.lookup("Symbol"))], [("a", "ghost")])

    def test_duplicate_edges_deduplicated(self, t):
        p = build_pattern("p", t,
                          [("a", t.lookup("Symbol")), ("b", t.lookup("Training"))],
                          [("a", "b"), ("a", "b")])
        assert len(p.edges) == 1

    def test_equal_patterns_hash_equal(self, t):
        p = chain_pattern(t, "p", ["Symbol", "Training", "Model"])
        q = chain_pattern(t, "p", ["Symbol", "Training", "Model"])
        assert p is not q and p == q and hash(p) == hash(q)
        assert p != chain_pattern(t, "q", ["Symbol", "Training", "Model"])

    def test_nodes_is_the_view_of_labels(self, t):
        p = chain_pattern(t, "p", ["Symbol", "Training", "Model"])
        assert p.nodes == p.labels.items() and len(p.nodes) == 3
        assert "PatternNode" not in nesypat.__all__

    def test_10000_chain_retained_memory(self, t):
        # Measured 1.3 MiB on Python 3.11; a second node map as a set of
        # (id, class) tuples takes it to 2.4 MiB.
        ids = [f"n{i}" for i in range(10000)]
        nodes = [(i, t.lookup(("Data", "Training")[k % 2]))
                 for k, i in enumerate(ids)]
        edges = list(zip(ids, ids[1:]))
        tracemalloc.start()
        try:
            p = build_pattern("chain", t, nodes, edges)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(p.labels) == 10000 and len(p.edges) == 9999
        assert retained < 1.8 * 2**20

    def test_invariants_on_random_patterns(self, t):
        rng = random.Random(3)
        for _ in range(50):
            p = random_pattern(rng, t, "r", rng.randint(1, 7))
            ids = p.labels.keys()
            for a, b in p.edges:
                assert a != b
                assert a in ids and b in ids


class TestIsomorphic:
    def test_renaming_is_isomorphic(self, t):
        p = chain_pattern(t, "p", ["Symbol", "Training", "Model"])
        q = chain_pattern(t, "q", ["Symbol", "Training", "Model"],
                          ids=["x", "y", "z"])
        assert isomorphic(p, q)

    def test_label_change_breaks_isomorphism(self, t):
        p = chain_pattern(t, "p", ["Symbol", "Training", "Model"])
        q = chain_pattern(t, "q", ["Symbol", "Training", "Semantic_Model"])
        assert not isomorphic(p, q)

    def test_reversed_chain_not_isomorphic(self, t):
        # Oracle: all 6 bijections of a 3-chain fail against its reversal
        # when labels differ per position.
        p = chain_pattern(t, "p", ["Symbol", "Training", "Model"])
        nodes = [("a", t.lookup("Symbol")), ("b", t.lookup("Training")),
                 ("c", t.lookup("Model"))]
        q = build_pattern("q", t, nodes, [("c", "b"), ("b", "a")])
        assert isomorphic_oracle(p, q) is False
        assert not isomorphic(p, q)

    def test_matches_bruteforce_oracle(self, t):
        rng = random.Random(5)
        agree_true = 0
        for _ in range(120):
            n = rng.randint(1, 5)
            p = random_pattern(rng, t, "p", n, edge_prob=0.4)
            if rng.random() < 0.5:
                # permuted copy of p, sometimes mutated
                perm = {f"n{i}": f"m{j}" for i, j in
                        enumerate(rng.sample(range(n), n))}
                nodes = [(perm[i], label) for i, label in p.labels.items()]
                edges = [(perm[a], perm[b]) for a, b in p.edges]
                q = build_pattern("q", t, nodes, edges)
            else:
                q = random_pattern(rng, t, "q", rng.randint(1, 5), edge_prob=0.4)
            expected = isomorphic_oracle(p, q)
            assert isomorphic(p, q) == expected
            agree_true += expected
        assert agree_true > 20  # the generator produced real positives

    def test_cycle_not_isomorphic_to_two_shorter_cycles(self, t):
        # Same degrees and labels, and the 6-cycle wraps twice around
        # either 3-cycle, but no bijection exists.
        top = t.top
        six = build_pattern("six", t, [(f"a{i}", top) for i in range(6)],
                            [(f"a{i}", f"a{(i + 1) % 6}") for i in range(6)])
        two = build_pattern("two", t, [(f"b{i}", top) for i in range(6)],
                            [(f"b{i}", f"b{(i + 1) % 3 + i // 3 * 3}")
                             for i in range(6)])
        assert isomorphic_oracle(six, two) is False
        assert not isomorphic(six, two) and not isomorphic(two, six)

    def test_node_out_of_images_stays_unassigned(self, t):
        # Signatures and edge counts agree, but q has one Symbol->Model
        # edge where p has a third Symbol->Training.  Three nodes of p
        # share two images per label, so the one-to-one search keeps
        # choosing nodes that have no unused image left; each must go
        # back to the unassigned ones, or the search reports a map that
        # sends two nodes to one.
        def pat(name, crossed):
            a, b, c, d = (t.lookup(x) for x in
                          ("Symbol", "Training", "Data", "Model"))
            nodes = [("0w1", t.top), ("0w2", t.top)]
            edges = []
            for g, cross in enumerate(crossed):
                ids = [f"{x}{g}" for x in "abcd"]
                nodes += zip(ids, (a, b, c, d))
                edges += ([(ids[0], ids[3]), (ids[2], ids[1])] if cross
                          else [(ids[0], ids[1]), (ids[2], ids[3])])
            return build_pattern(name, t, nodes, edges)

        p, q = pat("p", [False] * 3), pat("q", [False, False, True])
        def label_pairs(x):
            return sorted((x.labels[a].iri, x.labels[b].iri) for a, b in x.edges)
        assert label_pairs(p) != label_pairs(q)
        assert not isomorphic(p, q) and not isomorphic(q, p)

    def test_same_ids_swapped_edge(self, t):
        # The identity on ids is no bijection here, but swapping a and b is.
        data = t.lookup("Data")
        nodes = [("a", data), ("b", data)]
        p = build_pattern("p", t, nodes, [("a", "b")])
        q = build_pattern("q", t, nodes, [("b", "a")])
        assert isomorphic(p, q) and isomorphic(q, p)

    def test_same_ids_decided_without_search(self, t, monkeypatch):
        # A copy with the same ids, built over a taxonomy read back from
        # its Manchester text, is decided before the map search, which
        # would spend its budget writing the map down.
        p = chain_pattern(t, "p", ["Symbol", "Training", "Model"])
        u = parse_taxonomy(emit_manchester(t))
        q = chain_pattern(u, "q", ["Symbol", "Training", "Model"])
        assert u is not t and q.labels["n0"] is not p.labels["n0"]
        monkeypatch.setattr("nesypat.pattern.SEARCH_BUDGET", 0)
        assert isomorphic(p, q) and isomorphic(q, p)

    def test_5000_node_chain(self, t):
        labels = ["Data", "Training"] * 2500
        p = chain_pattern(t, "p", labels)
        q = chain_pattern(t, "q", labels, ids=[f"x{4999 - i}" for i in range(5000)])
        assert isomorphic(p, q)
        swapped = labels[:2500] + ["Training", "Data"] + labels[2502:]
        assert not isomorphic(p, chain_pattern(t, "r", swapped))

    def test_equivalence_relation(self, t):
        rng = random.Random(9)
        pats = [random_pattern(rng, t, f"p{i}", rng.randint(1, 4), 0.5)
                for i in range(12)]
        for a in pats:
            assert isomorphic(a, a)
            for b in pats:
                assert isomorphic(a, b) == isomorphic(b, a)
                for c in pats:
                    if isomorphic(a, b) and isomorphic(b, c):
                        assert isomorphic(a, c)


COPIES = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]


def corpus_library():
    corpus = Path(__file__).resolve().parents[1] / "src" / "nesypat" / "corpus"
    return resolve(parse((corpus / "hybrid_model.nesy").read_text()),
                   Catalog.default())


class TestCopy:
    @pytest.mark.parametrize("copier", COPIES)
    def test_corpus_pattern_round_trips(self, copier):
        for p in corpus_library().patterns.values():
            back = copier(p)
            assert back == p and hash(back) == hash(p)
            assert back.sorted_ids == p.sorted_ids

    def test_attributes_cannot_be_assigned(self):
        p = next(iter(corpus_library().patterns.values()))
        with pytest.raises(AttributeError, match="Pattern is immutable"):
            p.name = "Other"
        assert p.name != "Other"

    def test_resolved_library_deep_copies(self):
        lib = corpus_library()
        back = copy.deepcopy(lib)
        assert back.patterns and back.refinements
        for attr in ("taxonomies", "patterns", "refinements", "networks",
                     "combine_defs"):
            assert getattr(back, attr) == getattr(lib, attr), attr
