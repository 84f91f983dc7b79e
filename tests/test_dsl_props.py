"""Property test of the pretty-printer: emitted libraries parse and
resolve back to the same content."""

from hypothesis import given, settings, strategies as st

from nesypat.catalog import Catalog
from nesypat.dsl import _safe_ids, emit_dsl, parse, resolve
from nesypat.library import Library
from nesypat.pattern import build_pattern, isomorphic
from nesypat.refinement import Refinement, find_homomorphisms
from nesypat.taxonomy import default_taxonomy

SETTINGS = settings(deadline=None)

NODE_IDS = ["a", "b-1", "a_b", "a-b", "1x", "n_1x", "", "n", "x y", "é",
            "a.b", "anon1", "end", "n_end", "data", "to", "_"]


@st.composite
def libraries(draw):
    """Patterns over the bundled taxonomy with node ids that are not all
    identifiers, and refinements between them with explicit maps."""
    t = default_taxonomy()
    classes = sorted(t.classes, key=lambda c: c.local_name)
    lib = Library()
    for i in range(draw(st.integers(1, 3))):
        ids = draw(st.lists(st.sampled_from(NODE_IDS), min_size=1, max_size=5,
                            unique=True))
        nodes = [(n, draw(st.sampled_from(classes))) for n in ids]
        edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                              .filter(lambda e: e[0] != e[1]), max_size=6))
        lib.patterns[f"P{i}"] = build_pattern(f"P{i}", t, nodes, edges)
    names = sorted(lib.patterns)
    for j in range(draw(st.integers(0, 3))):
        src = lib.patterns[draw(st.sampled_from(names))]
        tgt = lib.patterns[draw(st.sampled_from(names))]
        maps = find_homomorphisms(src, tgt, limit=4)
        if maps:
            lib.refinements[f"R{j}"] = Refinement(f"R{j}", src, tgt,
                                                  draw(st.sampled_from(maps)))
    return lib


@SETTINGS
@given(libraries())
def test_emit_parse_resolve_round_trips(lib):
    lib2 = resolve(parse(emit_dsl(lib)), Catalog.default())
    assert set(lib2.patterns) == set(lib.patterns)
    for name, p in lib.patterns.items():
        q = lib2.patterns[name]
        assert isomorphic(p, q), name
        assert set(q.labels) == set(_safe_ids(p).values())
    assert set(lib2.refinements) == set(lib.refinements)
    for name, r in lib.refinements.items():
        r2 = lib2.refinements[name]
        assert (r2.source.name, r2.target.name) == (r.source.name, r.target.name)
        src_ids, tgt_ids = _safe_ids(r.source), _safe_ids(r.target)
        assert r2.node_map == {src_ids[a]: tgt_ids[b]
                               for a, b in r.node_map.items()}
