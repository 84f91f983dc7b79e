"""Property tests of the map search behind ``find_homomorphisms`` and
``isomorphic``, judged by the brute-force oracles in ``helpers``."""

from hypothesis import given, settings, strategies as st

from helpers import (
    all_homomorphisms_oracle,
    isomorphic_oracle,
    random_pattern,
    random_taxonomy,
)
from nesypat.pattern import build_pattern, isomorphic
from nesypat.refinement import check_refinement, find_homomorphisms

SETTINGS = settings(deadline=None)


@st.composite
def pattern_pairs(draw, max_src=4, max_tgt=5):
    """Two random patterns over one random taxonomy."""
    rng = draw(st.randoms(use_true_random=False))
    t = random_taxonomy(rng, draw(st.integers(1, 6)))
    p = random_pattern(rng, t, "p", draw(st.integers(1, max_src)),
                       draw(st.sampled_from([0.0, 0.3, 0.6])))
    q = random_pattern(rng, t, "q", draw(st.integers(1, max_tgt)),
                       draw(st.sampled_from([0.0, 0.3, 0.6])))
    return p, q


@st.composite
def cycles_into_dags(draw):
    """A directed cycle and a random DAG, both labeled with the top class."""
    rng = draw(st.randoms(use_true_random=False))
    t = random_taxonomy(rng, 1)
    k, n = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    cyc = [f"c{i}" for i in range(k)]
    dag = [f"d{i}" for i in range(n)]
    edges = [(a, b) for i, a in enumerate(dag) for b in dag[i + 1:]
             if rng.random() < 0.5]
    return (build_pattern("cyc", t, [(c, t.top) for c in cyc],
                          zip(cyc, cyc[1:] + cyc[:1])),
            build_pattern("dag", t, [(d, t.top) for d in dag], edges))


@st.composite
def isomorphism_pairs(draw):
    """Patterns of at most six nodes; half the time ``q`` is ``p``
    renamed by a random permutation, with one edge possibly reversed."""
    p, q = draw(pattern_pairs(max_src=6, max_tgt=6))
    if draw(st.booleans()):
        rng = draw(st.randoms(use_true_random=False))
        ids = list(p.sorted_ids)
        perm = dict(zip(ids, rng.sample([f"m{i}" for i in ids], len(ids))))
        edges = [(perm[a], perm[b]) for a, b in sorted(p.edges)]
        if edges and draw(st.booleans()):
            a, b = edges.pop()
            if (b, a) not in edges:
                edges.append((b, a))
            else:
                edges.append((a, b))
        q = build_pattern("q", p.taxonomy,
                          [(perm[i], p.labels[i]) for i in ids], edges)
    return p, q


def as_set(maps):
    return {tuple(sorted(m.items())) for m in maps}


@SETTINGS
@given(st.one_of(pattern_pairs(), cycles_into_dags()))
def test_all_maps_equal_oracle(pair):
    src, tgt = pair
    maps = find_homomorphisms(src, tgt)
    assert len(maps) == len(as_set(maps))
    assert as_set(maps) == all_homomorphisms_oracle(src, tgt)


@SETTINGS
@given(pattern_pairs(), st.integers(0, 4))
def test_limit_gives_first_maps_sorted(pair, k):
    src, tgt = pair
    total = len(all_homomorphisms_oracle(src, tgt))
    maps = find_homomorphisms(src, tgt, limit=k)
    assert len(maps) == min(k, total) == len(as_set(maps))
    keys = [tuple(m[i] for i in src.sorted_ids) for m in maps]
    assert keys == sorted(keys)
    for m in maps:
        assert check_refinement(src, tgt, m) == []


@SETTINGS
@given(isomorphism_pairs())
def test_isomorphic_equals_oracle_and_is_symmetric(pair):
    p, q = pair
    expected = isomorphic_oracle(p, q)
    assert isomorphic(p, q) == expected
    assert isomorphic(q, p) == expected
