"""Property test of the pretty-printer: emitted libraries parse and
resolve back to the same content, and print again as the same text."""

import random
import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from helpers import random_dsl_document, reference_safe_names
from nesypat import Library, build_network
from nesypat.catalog import Catalog
from nesypat.dsl import (
    _KEYWORDS,
    _declared_names,
    _safe_names,
    emit_dsl,
    parse,
    resolve,
)
from nesypat.pattern import (
    Refinement,
    build_pattern,
    find_homomorphisms,
    isomorphic,
)
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
        assert set(q.labels) == set(_safe_names(p.sorted_ids).values())
    assert set(lib2.refinements) == set(lib.refinements)
    for name, r in lib.refinements.items():
        r2 = lib2.refinements[name]
        assert (r2.source.name, r2.target.name) == (r.source.name, r.target.name)
        src_ids = _safe_names(r.source.sorted_ids)
        tgt_ids = _safe_names(r.target.sorted_ids)
        assert r2.node_map == {src_ids[a]: tgt_ids[b]
                               for a, b in r.node_map.items()}


CORPUS = Path(__file__).resolve().parents[1] / "src" / "nesypat" / "corpus"
CORPUS_TEXTS = [p.read_text() for p in sorted(CORPUS.glob("*.nesy"))]

#: A printed pattern's name and body.
BODY = re.compile(r"^pattern (\S+) = data [^\n]*\n(.*?)^end$", re.M | re.S)


def assert_prints_chains(lib):
    """``emit_dsl(lib)`` is a fixed point of reading back and printing
    again, each pattern body holds one arrow per edge, and a node is
    printed alone only when no edge touches it."""
    text = emit_dsl(lib)
    assert emit_dsl(resolve(parse(text), Catalog.default())) == text
    bodies = BODY.findall(text)
    assert {name for name, _ in bodies} == set(lib.patterns) - set(lib.combine_defs)
    for name, body in bodies:
        p = lib.patterns[name]
        ids = _safe_names(p.sorted_ids)
        assert body.count(" -> ") == len(p.edges), name
        touched = {ids[n] for edge in p.edges for n in edge}
        for line in body.splitlines():
            if " -> " not in line:
                assert line.split(" : ")[0].strip() not in touched, (name, line)


@SETTINGS
@given(st.sampled_from(CORPUS_TEXTS)
       | st.integers(0, 2**16).map(lambda seed: random_dsl_document(random.Random(seed))))
def test_printed_chains_read_back_to_the_same_print(text):
    assert_prints_chains(resolve(parse(text), Catalog.default()))


@SETTINGS
@given(libraries())
def test_printed_chains_of_renamed_ids_read_back_to_the_same_print(lib):
    # Renaming can change the order of the ids, and the print with it,
    # so the library read back once is the one whose print is fixed.
    assert_prints_chains(resolve(parse(emit_dsl(lib)), Catalog.default()))


#: Declaration names, most of which ``parse`` rejects.
DECL_NAMES = ["P", "P-1", "P_1", "end", "n_end", "data", "combine", "1x",
              "n_1x", "", "n", "é", "x y", "N.1", "R", "_"]


@SETTINGS
@given(st.lists(st.sampled_from(DECL_NAMES) | st.text(max_size=4)))
def test_safe_names_match_reference(names):
    assert list(_safe_names(names).items()) == list(reference_safe_names(names).items())


@st.composite
def named_libraries(draw):
    """Libraries whose pattern, refinement, network and combine-defined
    names are drawn from DECL_NAMES, with networks over them."""
    t = default_taxonomy()
    classes = sorted(t.classes, key=lambda c: c.local_name)
    names = draw(st.permutations(DECL_NAMES))
    n_pat, n_ref, n_comb = (draw(st.integers(1, 3)), draw(st.integers(0, 3)),
                            draw(st.integers(0, 2)))
    pat_names = names[:n_pat]
    ref_names = names[n_pat:n_pat + n_ref]
    comb_names = names[n_pat + n_ref:n_pat + n_ref + n_comb]
    lib = Library()
    for name in pat_names:
        ids = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                            unique=True))
        nodes = [(n, draw(st.sampled_from(classes))) for n in ids]
        edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                              .filter(lambda e: e[0] != e[1]), max_size=3))
        lib.patterns[name] = build_pattern(name, t, nodes, edges)
    for name in ref_names:
        src = lib.patterns[draw(st.sampled_from(pat_names))]
        tgt = lib.patterns[draw(st.sampled_from(pat_names))]
        maps = find_homomorphisms(src, tgt, limit=2)
        if maps:
            lib.refinements[name] = Refinement(name, src, tgt,
                                               draw(st.sampled_from(maps)))
    members = pat_names + sorted(lib.refinements)
    for name in draw(st.lists(st.sampled_from(DECL_NAMES), max_size=2,
                              unique=True)):
        chosen = draw(st.lists(st.sampled_from(members), min_size=1,
                               unique=True))
        lib.networks[name] = build_network(name, chosen, lib)
    for name in comb_names:
        if lib.networks:
            lib.combine_defs[name] = draw(st.sampled_from(sorted(lib.networks)))
    return lib


@SETTINGS
@given(named_libraries())
def test_emit_renames_unparseable_declaration_names(lib):
    names = _safe_names(_declared_names(lib))
    assert len(set(names.values())) == len(names)
    for name, safe in names.items():
        assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", safe)
        assert safe not in _KEYWORDS
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) and name not in _KEYWORDS:
            assert safe == name

    lib2 = resolve(parse(emit_dsl(lib)), Catalog.default())
    assert set(lib2.patterns) == {names[n] for n in lib.patterns}
    for name, p in lib.patterns.items():
        assert isomorphic(p, lib2.patterns[names[name]]), name
    assert set(lib2.refinements) == {names[n] for n in lib.refinements}
    for name, r in lib.refinements.items():
        r2 = lib2.refinements[names[name]]
        assert (r2.source.name, r2.target.name) == (names[r.source.name],
                                                    names[r.target.name])
        src_ids = _safe_names(r.source.sorted_ids)
        tgt_ids = _safe_names(r.target.sorted_ids)
        assert r2.node_map == {src_ids[a]: tgt_ids[b]
                               for a, b in r.node_map.items()}
    assert set(lib2.networks) == {names[n] for n in lib.networks}
    for name, net in lib.networks.items():
        net2 = lib2.networks[names[name]]
        assert set(net2.patterns) == {names[p] for p in net.patterns}
        assert set(net2.refinements) == {names[r] for r in net.refinements}
    assert lib2.combine_defs == {names[c]: names[n]
                                 for c, n in lib.combine_defs.items()}


CLASSES = ["Data", "Training", "Model", "Symbol", "Instance"]


@st.composite
def pattern_documents(draw):
    """Documents of one to three patterns whose bodies mix anonymous and
    recurring named nodes (some named ``anonN``), repeat their first
    chain, and in some extend the ontology inline by ``Extra``.  Returns
    the text and each pattern's node classes and edges, with anonymous
    nodes named as ``resolve`` names them."""
    blocks, expected = ["logic NeSyPatterns"], {}
    for i in range(draw(st.integers(1, 3))):
        extended = draw(st.booleans())
        classes = CLASSES + ["Extra"] * extended
        ids = draw(st.lists(st.sampled_from(["a", "b", "c", "anon1", "anon3"]),
                            min_size=1, unique=True))
        cls_of = {n: draw(st.sampled_from(classes)) for n in ids}
        ref = st.sampled_from(ids) | st.sampled_from(classes).map(lambda c: (c,))
        chains = draw(st.lists(st.lists(ref, min_size=1, max_size=4),
                               min_size=1, max_size=4))
        # Drop a named node that follows itself: that would be a self-loop.
        chains = [[r for k, r in enumerate(c)
                   if k == 0 or isinstance(r, tuple) or r != c[k - 1]]
                  for c in chains]
        chains.append(chains[0])
        named = {r for c in chains for r in c if not isinstance(r, tuple)}
        anon, labels, edges = 0, {}, set()
        for chain in chains:
            prev = None
            for r in chain:
                if isinstance(r, tuple):
                    anon += 1
                    while f"anon{anon}" in named:
                        anon += 1
                    node, labels[f"anon{anon}"] = f"anon{anon}", r[0]
                else:
                    node, labels[r] = r, cls_of[r]
                if prev is not None:
                    edges.add((prev, node))
                prev = node
        expected[f"P{i}"] = (labels, edges)
        data = ("{ ontohub:NeSyPatterns.omn then Class: Extra SubClassOf: Model }"
                if extended else "ontohub:NeSyPatterns.omn")
        body = "\n".join(
            "  " + " -> ".join(r[0] if isinstance(r, tuple) else f"{r} : {cls_of[r]}"
                               for r in chain) + ";"
            for chain in chains)
        blocks.append(f"pattern P{i} = data {data}\n{body}\nend")
    return "\n".join(blocks) + "\n", expected


@SETTINGS
@given(pattern_documents())
def test_resolved_patterns_pass_build_pattern(case):
    """``resolve`` builds each pattern without ``build_pattern``; the
    validating constructor accepts it and gives an equal one."""
    text, expected = case
    lib = resolve(parse(text), Catalog.default())
    assert set(lib.patterns) == set(expected)
    for name, p in lib.patterns.items():
        labels, edges = expected[name]
        assert {n: c.local_name for n, c in p.labels.items()} == labels
        assert p.edges == edges
        assert p == build_pattern(p.name, p.taxonomy, p.labels.items(), p.edges)
