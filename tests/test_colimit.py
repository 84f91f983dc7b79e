import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    equivalence_classes_oracle,
    glb_oracle,
    make_random_network,
    random_pattern,
    reference_combine,
)
from pathlib import Path

from nesypat import Library, Network, colimit
from nesypat.catalog import Catalog
from nesypat.colimit import combination_result, combine, evaluate_combines
from nesypat.dsl import parse, resolve
from nesypat.errors import (
    DegenerateLoopError,
    TaxonomyMismatchError,
    UndefinedColimitError,
    UnknownClassError,
    UnknownNameError,
)
from nesypat.pattern import (
    Pattern,
    Refinement,
    build_pattern,
    check_refinement,
    isomorphic,
)
from nesypat.taxonomy import ClassRef, Taxonomy, default_taxonomy

SETTINGS = settings(deadline=None)


@pytest.fixture(scope="module")
def t():
    return default_taxonomy()


def pat(t, name, labeled_nodes, edges=()):
    nodes = [(i, t.lookup(l)) for i, l in labeled_nodes]
    return build_pattern(name, t, nodes, list(edges))


def net_of(name, patterns, refinements):
    return Network(name,
                   {p.name: p for p in patterns},
                   {r.name: r for r in refinements})


@pytest.fixture()
def glued_model_network(t):
    """One abstract Model node refined into a training leg and a deduction leg."""
    model = pat(t, "Model", [("m0", "Model")])
    train = pat(t, "Train",
                [("s", "Symbol"), ("tr", "Training"), ("m", "Model")],
                [("s", "tr"), ("tr", "m")])
    sd = pat(t, "SemanticDeduction",
             [("s1", "Symbol"), ("d", "Deduction"), ("s2", "Symbol"),
              ("sm", "Semantic_Model")],
             [("s1", "d"), ("d", "s2"), ("sm", "d")])
    r1 = Refinement("R1", model, train, {"m0": "m"})
    r2 = Refinement("R2", model, sd, {"m0": "sm"})
    return net_of("N", [model, train, sd], [r1, r2])


class TestCombine:
    def test_glued_network_shape_and_labels(self, t, glued_model_network):
        result = combine(glued_model_network)
        p = result.pattern
        assert len(p.nodes) == 6
        assert len(p.edges) == 5
        expected = pat(t, "expected",
                       [("a", "Symbol"), ("b", "Training"), ("m", "Semantic_Model"),
                        ("c", "Symbol"), ("d", "Deduction"), ("e", "Symbol")],
                       [("a", "b"), ("b", "m"), ("c", "d"), ("d", "e"), ("m", "d")])
        assert isomorphic(p, expected)

    def test_merged_node_class(self, glued_model_network):
        result = combine(glued_model_network)
        merged = [c for c, members in result.classes.items() if len(members) > 1]
        assert merged == ["m0"]
        assert result.classes["m0"] == {
            ("Model", "m0"), ("Train", "m"), ("SemanticDeduction", "sm")}
        assert result.pattern.labels["m0"].local_name == "Semantic_Model"

    def test_equal_qualified_names_get_distinct_ids(self, t):
        # Each class keeps its own id; merged, 'a.b' + 'c' and 'a' +
        # 'b.c' tie as 'a.b.c', and the smaller (pattern, id) names them.
        ab = pat(t, "a.b", [("c", "Model")])
        a = pat(t, "a", [("b.c", "Data")])
        result = combine(net_of("N", [ab, a], []))
        assert result.injections == {"a": {"b.c": "b.c"}, "a.b": {"c": "c"}}
        assert sorted(result.pattern.labels) == ["b.c", "c"]
        a = pat(t, "a", [("b.c", "Model")])
        result = combine(net_of("N", [ab, a], [Refinement("R", ab, a, {"c": "b.c"})]))
        assert result.injections == {"a": {"b.c": "b.c"}, "a.b": {"c": "b.c"}}

    def test_single_pattern_network_is_isomorphic_copy(self, t):
        train = pat(t, "Train",
                    [("s", "Symbol"), ("tr", "Training"), ("m", "Model")],
                    [("s", "tr"), ("tr", "m")])
        result = combine(net_of("One", [train], []))
        assert isomorphic(result.pattern, train)
        inj = result.injections["Train"]
        assert sorted(inj) == ["m", "s", "tr"]
        assert len(set(inj.values())) == 3

    def test_network_without_members_rejected(self):
        with pytest.raises(ValueError, match="network 'E' has no member patterns"):
            combine(Network("E", {}, {}))

    def test_no_refinements_gives_disjoint_union(self, t):
        rng = random.Random(41)
        for _ in range(10):
            pats = [random_pattern(rng, t, f"p{i}", rng.randint(1, 4), 0.3)
                    for i in range(rng.randint(1, 3))]
            result = combine(net_of("U", pats, []))
            assert len(result.pattern.nodes) == sum(len(p.nodes) for p in pats)

    def test_semantic_statistical_clash_undefined(self, t):
        model = pat(t, "M", [("m0", "Model")])
        sem = pat(t, "A", [("x", "Semantic_Model")])
        stat = pat(t, "B", [("y", "Statistical_Model")])
        net = net_of("Clash", [model, sem, stat],
                     [Refinement("RA", model, sem, {"m0": "x"}),
                      Refinement("RB", model, stat, {"m0": "y"})])
        with pytest.raises(UndefinedColimitError) as e:
            combine(net)
        shown = {l.local_name for l in e.value.labels}
        assert {"Semantic_Model", "Statistical_Model"} <= shown

    @pytest.mark.parametrize("fragment, why", [
        ("", "they have no common lower bound"),
        ("Class: B7 SubClassOf: Semantic_Model, Statistical_Model\n"
         "Class: B3 SubClassOf: Semantic_Model, Statistical_Model",
         "their maximal common lower bounds are B3, B7"),
    ])
    def test_undefined_says_why(self, t, fragment, why):
        ext = t.extend(fragment)
        sem = pat(ext, "A", [("x", "Semantic_Model")])
        stat = pat(ext, "B", [("y", "Statistical_Model")])
        model = pat(ext, "M", [("m0", "Model")])
        net = net_of("Clash", [model, sem, stat],
                     [Refinement("RA", model, sem, {"m0": "x"}),
                      Refinement("RB", model, stat, {"m0": "y"})])
        with pytest.raises(UndefinedColimitError) as e:
            combine(net)
        assert e.value.message == (
            "no infimum of labels {Model, Semantic_Model, Statistical_Model} "
            "for merged nodes {A.x, B.y, M.m0}; the combination is not "
            f"defined: {why}")

    def test_hybrid_extension_makes_clash_defined(self, t):
        ext = t.extend("Class: Hybrid_Model SubClassOf: Semantic_Model, Statistical_Model")
        model = pat(ext, "M", [("m0", "Model")])
        sem = pat(ext, "A", [("x", "Semantic_Model")])
        stat = pat(ext, "B", [("y", "Statistical_Model")])
        net = net_of("Glue", [model, sem, stat],
                     [Refinement("RA", model, sem, {"m0": "x"}),
                      Refinement("RB", model, stat, {"m0": "y"})])
        result = combine(net)
        assert len(result.pattern.nodes) == 1
        (node,) = result.pattern.nodes
        assert node.label.local_name == "Hybrid_Model"

    def test_degenerate_loop_rejected(self, t):
        single = pat(t, "S", [("s0", "Model")])
        edgy = pat(t, "T", [("x", "Model"), ("y", "Semantic_Model")], [("x", "y")])
        net = net_of("Loop", [single, edgy],
                     [Refinement("RX", single, edgy, {"s0": "x"}),
                      Refinement("RY", single, edgy, {"s0": "y"})])
        with pytest.raises(DegenerateLoopError):
            combine(net)


class TestCombineInvariants:
    def test_cocone_injections_and_label_minimality(self):
        rng = random.Random(43)
        successes = 0
        for _ in range(120):
            net = make_random_network(rng)
            try:
                result = combine(net)
            except (UndefinedColimitError, DegenerateLoopError):
                continue
            successes += 1
            # cocone property
            for r in net.refinements.values():
                mu_i = result.injections[r.source.name]
                mu_j = result.injections[r.target.name]
                for n, img in r.node_map.items():
                    assert mu_j[img] == mu_i[n]
            # injections are refinements
            for pname, p in net.patterns.items():
                assert check_refinement(p, result.pattern,
                                        result.injections[pname]) == []
            # labels are the brute-force greatest lower bounds
            taxonomy = next(iter(net.patterns.values())).taxonomy
            for cname, members in result.classes.items():
                member_labels = [net.patterns[p].labels[n] for p, n in members]
                assert result.pattern.labels[cname] == glb_oracle(
                    taxonomy, member_labels)
        assert successes >= 40

    def test_equivalence_matches_fixpoint_oracle(self):
        rng = random.Random(47)
        checked = 0
        for _ in range(60):
            net = make_random_network(rng)
            pairs = []
            elements = [(p, n) for p in net.patterns
                        for n in net.patterns[p].sorted_ids]
            for r in net.refinements.values():
                for n, img in r.node_map.items():
                    pairs.append(((r.source.name, n), (r.target.name, img)))
            expected = equivalence_classes_oracle(elements, pairs)
            try:
                result = combine(net)
            except UndefinedColimitError:
                continue
            except DegenerateLoopError:
                continue
            got = {frozenset(m) for m in result.classes.values()}
            assert got == expected
            checked += 1
        assert checked >= 20

    def test_member_order_permutation_gives_isomorphic_result(self, t):
        rng = random.Random(53)
        for _ in range(20):
            net = make_random_network(rng)
            names = list(net.patterns)
            rng.shuffle(names)
            shuffled = Network(net.name,
                               {n: net.patterns[n] for n in names},
                               dict(net.refinements))
            try:
                a = combine(net)
            except (UndefinedColimitError, DegenerateLoopError):
                continue
            b = combine(shuffled)
            assert isomorphic(a.pattern, b.pattern)
            assert a.pattern == b.pattern  # naming is order-independent too


# A plain pattern and one over an inline extension of the same ontology
# that adds an axiom but no class; ``{name}`` names the plain one.
MIXED_DOC = """logic NeSyPatterns
pattern {name} = data ontohub:NeSyPatterns.omn
  a : Symbol;
end
pattern B = data {{ ontohub:NeSyPatterns.omn then Class: Symbol SubClassOf: Model }}
  b : Model;
end
refinement R = B refined to {name} end
network N = {name}, B, R end
pattern C = combine N end
"""


@pytest.mark.parametrize("name", ["A", "Z"])
def test_members_over_two_taxonomies_never_combine(name):
    with pytest.raises(TaxonomyMismatchError) as e:
        evaluate_combines(resolve(parse(MIXED_DOC.format(name=name)),
                                  Catalog.default()))
    assert (e.value.message, e.value.line, e.value.col) == (
        f"patterns 'B' and {name!r} use different taxonomies", 8, 1)


@st.composite
def random_networks(draw):
    return make_random_network(draw(st.randoms(use_true_random=False)))


def with_members(net, patterns):
    """``net`` with each member ``p`` and its refinements' ends replaced
    by ``patterns[p]``."""
    return Network(
        net.name,
        {p.name: p for p in sorted(patterns.values(), key=lambda p: p.name)},
        {k: r._replace(source=patterns[r.source.name],
                       target=patterns[r.target.name])
         for k, r in net.refinements.items()})


def renamed(net, names):
    """``net`` with each member ``p`` renamed ``names[p]``."""
    return with_members(net, {old: Pattern(names[old], p.taxonomy, p.labels, p.edges)
                              for old, p in net.patterns.items()})


def outcome(net):
    """The combined pattern, or the class of the error that stops it."""
    try:
        return combine(net).pattern
    except (UndefinedColimitError, DegenerateLoopError) as e:
        return type(e)


@SETTINGS
@given(random_networks())
def test_renaming_members_changes_no_combination(net):
    old = sorted(net.patterns)
    names = dict(zip(old, [f"q{i}" for i in reversed(range(len(old)))]))
    a, b = outcome(net), outcome(renamed(net, names))
    if isinstance(a, Pattern):
        assert isinstance(b, Pattern) and isomorphic(a, b)
    else:
        assert a is b


@SETTINGS
@given(random_networks(), st.data())
def test_one_member_over_an_extra_axiom_never_combines(net, data):
    assume(len(net.patterns) >= 2)
    t = next(iter(net.patterns.values())).taxonomy
    by_iri = sorted(t.classes, key=lambda c: c.iri)
    incomparable = [(a, b) for a in by_iri for b in by_iri
                    if not t.leq(a, b) and not t.leq(b, a)]
    assume(incomparable)
    edge = data.draw(st.sampled_from(incomparable))
    variant = Taxonomy(t.classes, t.subclass_edges | {edge}, t.top, t.namespace)
    odd = net.patterns[data.draw(st.sampled_from(sorted(net.patterns)))]
    mixed = with_members(net, {
        **net.patterns, odd.name: Pattern(odd.name, variant, odd.labels, odd.edges)})
    names = sorted(mixed.patterns)
    for order in itertools.permutations(names):
        with pytest.raises(TaxonomyMismatchError):
            combine(renamed(mixed, dict(zip(names, order))))


@SETTINGS
@given(random_networks())
def test_identities_and_composites_are_refinements(net):
    for p in net.patterns.values():
        assert check_refinement(p, p, {n: n for n in p.sorted_ids}) == []
    for r in net.refinements.values():
        for s in net.refinements.values():
            if r.target.name == s.source.name:
                composite = {n: s.node_map[img] for n, img in r.node_map.items()}
                assert check_refinement(r.source, s.target, composite) == []


def closed_part(net, part):
    """``part`` with the target of every refinement whose source it holds."""
    part = set(part)
    while more := {r.target.name for r in net.refinements.values()
                   if r.source.name in part} - part:
        part |= more
    return part


def combine_in_stages(net, part):
    """Combine the members of ``net`` in the closed ``part`` first, then
    that combination with the other members: each refinement into
    ``part`` is composed with the injection of its target, and the other
    refinements outside ``part`` are kept as they are."""
    first = combine(net_of("part", [net.patterns[p] for p in sorted(part)],
                           [r for r in net.refinements.values()
                            if r.source.name in part]), "S")
    refinements = [r if r.target.name not in part else
                   Refinement(r.name, r.source, first.pattern,
                              {n: first.injections[r.target.name][img]
                               for n, img in r.node_map.items()})
                   for r in net.refinements.values() if r.source.name not in part]
    rest = [p for name, p in net.patterns.items() if name not in part]
    return combine(net_of("staged", [first.pattern, *rest], refinements)).pattern


@st.composite
def proper_closed_parts(draw, net):
    """A nonempty proper part of ``net``'s members closed as
    ``closed_part`` closes it, drawn upward from the refinement graph's
    sinks: a member's strongly connected component may join once every
    member it reaches outside it has joined.  Rejects a network whose
    members all reach each other."""
    reach = {p: closed_part(net, {p}) for p in net.patterns}
    scc = {p: {q for q in reach[p] if p in reach[q]} for p in reach}
    # A member reaches all that each member it reaches does, so ordered
    # by how many members each reaches, a member comes after every one
    # it reaches outside its component: sinks first, sources last.
    order = sorted(reach, key=lambda p: (len(reach[p]), p))
    assume(scc[order[0]] != reach.keys())
    part = set()
    for p in order:
        if p not in part and reach[p] - scc[p] <= part and draw(st.booleans()):
            part |= scc[p]
    if not part:
        part = scc[order[0]]  # a sink component: it reaches nothing else
    elif part == reach.keys():
        part -= scc[order[-1]]  # a source component: nothing else reaches it
    return part


@SETTINGS
@given(random_networks(), st.data())
def test_combining_in_stages_agrees_with_combining_at_once(net, data):
    # The pasting of colimits: where both stages are defined, the
    # one-step combination is defined and the same up to isomorphism.
    part = data.draw(proper_closed_parts(net))
    assert part == closed_part(net, part) and 0 < len(part) < len(net.patterns)
    try:
        staged = combine_in_stages(net, part)
    except (UndefinedColimitError, DegenerateLoopError):
        assume(False)
    assert isomorphic(combine(net).pattern, staged)


def test_stages_can_be_undefined_where_one_step_is_defined(t):
    # Semantic_Model and Statistical_Model have two maximal lower bounds.
    # T glues them and has no infimum; O also glues a B3 node into A's,
    # and B3 is the infimum of all four labels.
    ext = t.extend("Class: B7 SubClassOf: Semantic_Model, Statistical_Model\n"
                   "Class: B3 SubClassOf: Semantic_Model, Statistical_Model")
    top, a, b = (pat(ext, "T", [("t", "Model")]),
                 pat(ext, "A", [("a", "Semantic_Model")]),
                 pat(ext, "B", [("b", "Statistical_Model")]))
    o, x = pat(ext, "O", [("o", "Model")]), pat(ext, "X", [("x", "B3")])
    net = net_of("Diamond", [top, a, b, o, x],
                 [Refinement("RA", top, a, {"t": "a"}),
                  Refinement("RB", top, b, {"t": "b"}),
                  Refinement("OA", o, a, {"o": "a"}),
                  Refinement("OX", o, x, {"o": "x"})])
    (node,) = combine(net).pattern.nodes
    assert node.label.local_name == "B3"
    assert closed_part(net, {"T"}) == {"T", "A", "B"}
    with pytest.raises(UndefinedColimitError):
        combine_in_stages(net, {"T", "A", "B"})


#: Two classes below both Semantic_Model and Statistical_Model, so these
#: two have no infimum.
DIAMOND = ("Class: B7 SubClassOf: Semantic_Model, Statistical_Model\n"
           "Class: B3 SubClassOf: Semantic_Model, Statistical_Model")


@st.composite
def planted_diamonds(draw):
    """The network of ``test_stages_can_be_undefined_where_one_step_is_defined``
    under drawn names, with unrelated members beside it: T's node is
    refined into A's Semantic_Model node and B's Statistical_Model
    node, and O's node into one of those two and into X's node, whose
    label is the drawn one of the two maximal lower bounds.  The labels
    of T and O are drawn among those their refinements allow.  Returns
    the network, a closed part that holds T, A, B and perhaps some
    unrelated members, T's name and node id, and the drawn bound."""
    ext = default_taxonomy().extend(DIAMOND)
    rng = draw(st.randoms(use_true_random=False))
    extra = draw(st.integers(0, 3))
    names = draw(st.lists(st.text("ab.-xyT", min_size=1, max_size=3),
                          min_size=5 + extra, max_size=5 + extra, unique=True))
    ids = draw(st.lists(st.text("ab.-xyt", min_size=1, max_size=3),
                        min_size=5, max_size=5))
    bound = draw(st.sampled_from(["B3", "B7"]))
    into_a = draw(st.booleans())  # O's node goes into A's, else into B's
    labels = [draw(st.sampled_from(["Model", "NeSy_Pattern_Element"])),
              "Semantic_Model", "Statistical_Model",
              draw(st.sampled_from(["Semantic_Model" if into_a else "Statistical_Model",
                                    "Model", "NeSy_Pattern_Element"])),
              bound]
    t, a, b, o, x = (pat(ext, name, [(i, label)])
                     for name, i, label in zip(names, ids, labels))
    tn, an, bn, on, xn = ids
    refinements = [Refinement("RA", t, a, {tn: an}), Refinement("RB", t, b, {tn: bn}),
                   Refinement("OV", o, a, {on: an}) if into_a
                   else Refinement("OV", o, b, {on: bn}),
                   Refinement("OX", o, x, {on: xn})]
    others = [random_pattern(rng, ext, name, rng.randint(1, 3)) for name in names[5:]]
    part = {t.name, a.name, b.name} | {p.name for p in others if draw(st.booleans())}
    net = net_of("Diamond", draw(st.permutations([t, a, b, o, x, *others])),
                 draw(st.permutations(refinements)))
    return net, part, (t.name, tn), bound


@SETTINGS
@given(planted_diamonds())
def test_drawn_stages_can_be_undefined_where_one_step_is_defined(case):
    net, part, (t_name, t_node), bound = case
    result = combine(net)
    assert result.pattern.labels[result.injections[t_name][t_node]].local_name == bound
    assert closed_part(net, part) == part
    with pytest.raises(UndefinedColimitError):
        combine_in_stages(net, part)


def assert_matches_reference(net):
    """``combine(net)`` gives what ``reference_combine(net)`` gives: the
    same pattern with the same label objects, injections and classes,
    or an error of the same type, message, members and labels."""
    try:
        want = reference_combine(net)
    except (UndefinedColimitError, DegenerateLoopError, UnknownClassError) as e:
        with pytest.raises(type(e)) as got:
            combine(net)
        assert type(got.value) is type(e)
        assert got.value.message == e.message
        for attr in ("members", "labels"):
            assert getattr(got.value, attr, None) == getattr(e, attr, None)
        return
    got = combine(net)
    assert got.pattern == want.pattern
    assert all(got.pattern.labels[n] is c for n, c in want.pattern.labels.items())
    assert got.injections == want.injections
    assert got.classes == want.classes


@SETTINGS
@given(random_networks())
def test_combine_matches_reference(net):
    assert_matches_reference(net)


#: Pattern names and node ids whose qualified names clash ('a.b' + 'c'
#: against 'a' + 'b.c') or sort apart from their pattern names ('-' sorts
#: below '.').
CLASHING_PATTERN_NAMES = ("a", "a.b", "A", "A-")
CLASHING_NODE_IDS = ("c", "b.c", "c_", "b.c_", "-", "x", "x_")


def respelled(net, pattern_names, node_ids):
    """``net`` with each member ``p`` renamed ``pattern_names[p]`` and
    its node ``n`` renamed ``node_ids[p][n]``, refinements following."""
    patterns = {}
    for old, p in net.patterns.items():
        ids = node_ids[old]
        patterns[old] = Pattern(pattern_names[old], p.taxonomy,
                                {ids[n]: label for n, label in p.labels.items()},
                                frozenset((ids[a], ids[b]) for a, b in p.edges))
    refinements = {
        k: Refinement(r.name, patterns[r.source.name], patterns[r.target.name],
                      {node_ids[r.source.name][n]: node_ids[r.target.name][img]
                       for n, img in r.node_map.items()})
        for k, r in net.refinements.items()}
    return Network(net.name, {p.name: p for p in patterns.values()}, refinements)


@SETTINGS
@given(random_networks(), st.data())
def test_combine_matches_reference_on_clashing_names(net, data):
    old = sorted(net.patterns)
    pattern_names = dict(zip(old, data.draw(st.permutations(CLASHING_PATTERN_NAMES))))
    node_ids = {p: dict(zip(net.patterns[p].sorted_ids,
                            data.draw(st.permutations(CLASHING_NODE_IDS))))
                for p in old}
    assert_matches_reference(respelled(net, pattern_names, node_ids))


NOPE = ClassRef("urn:elsewhere#Nope", "Nope")


class TestAgainstReference:
    def test_equal_ids_clash_inside_merged_classes(self, t):
        # Classes in their namers' order: 'a.c' (merged with 'm.u') keeps
        # 'c'; 'a.c_2' owns 'c_2', so the class named by 'b.c' (merged
        # with 'm.w') passes over it to 'c_3', and 'd.c' takes 'c_4'.
        a = pat(t, "a", [("c", "Data"), ("c_2", "Model")], [("c", "c_2")])
        b = pat(t, "b", [("c", "Training"), ("x", "Model")], [("c", "x")])
        d = pat(t, "d", [("c", "Symbol")])
        m = pat(t, "m", [("u", "Data"), ("w", "Training"), ("y", "Model")])
        net = net_of("N", [a, b, d, m],
                     [Refinement("R", m, b, {"w": "c", "y": "x"}),
                      Refinement("S", m, a, {"u": "c"})])
        assert_matches_reference(net)
        result = combine(net)
        assert result.injections == {"a": {"c": "c", "c_2": "c_2"},
                                     "b": {"c": "c_3", "x": "x"},
                                     "d": {"c": "c_4"},
                                     "m": {"u": "c", "w": "c_3", "y": "x"}}
        assert {n: l.local_name for n, l in result.pattern.labels.items()} == {
            "c": "Data", "c_2": "Model", "c_3": "Training", "x": "Model",
            "c_4": "Symbol"}
        assert result.pattern.edges == {("c", "c_2"), ("c_3", "x")}

    def test_merged_name_below_the_first_member_by_arena(self, t):
        # 'A' < 'A-' as pattern names, but 'A-.y' < 'A.x' as qualified ones.
        a = pat(t, "A", [("x", "Model"), ("z", "Data")], [("z", "x")])
        dash = pat(t, "A-", [("y", "Semantic_Model")])
        net = net_of("N", [a, dash], [Refinement("R", a, dash, {"x": "y"})])
        assert_matches_reference(net)
        result = combine(net)
        assert result.injections == {"A": {"x": "y", "z": "z"}, "A-": {"y": "y"}}
        assert result.classes == {"y": {("A", "x"), ("A-", "y")},
                                  "z": {("A", "z")}}
        assert result.pattern.labels["y"].local_name == "Semantic_Model"

    def test_name_argument_names_the_pattern(self, glued_model_network):
        default, named = combine(glued_model_network), combine(glued_model_network, "G")
        assert default.pattern.name == "combine(N)"
        assert named.pattern.name == "G"
        assert (named.pattern.labels, named.pattern.edges, named.injections,
                named.classes) == (default.pattern.labels, default.pattern.edges,
                                   default.injections, default.classes)

    @pytest.mark.parametrize("merged", [False, True])
    def test_unknown_label_raises_as_before(self, t, merged):
        odd = Pattern("Odd", t, {"o": NOPE}, frozenset())
        model = pat(t, "M", [("m", "Model")])
        refs = [Refinement("R", model, odd, {"m": "o"})] if merged else []
        net = net_of("N", [model, odd], refs)
        assert_matches_reference(net)
        with pytest.raises(UnknownClassError,
                           match="class 'Nope' is not in this taxonomy"):
            combine(net)

    def test_label_is_the_taxonomy_class(self, t):
        # A label equal to a class by IRI but spelled otherwise comes out
        # as the taxonomy's own class, merged or not.
        alias = ClassRef(t.lookup("Model").iri, "Modell")
        odd = Pattern("Odd", t, {"o": alias, "p": alias}, frozenset())
        model = pat(t, "M", [("m", "Model")])
        net = net_of("N", [model, odd], [Refinement("R", model, odd, {"m": "o"})])
        assert_matches_reference(net)
        labels = combine(net).pattern.labels
        assert [labels[n] is t.lookup("Model") for n in sorted(labels)] == [True, True]

    @pytest.mark.parametrize("merged", [False, True])
    @pytest.mark.parametrize("odd_name, error", [
        ("A", UnknownClassError), ("Z", UndefinedColimitError)])
    def test_first_failing_class_by_name_raises(self, t, odd_name, error, merged):
        # An unknown label in one class, alone or beside a known one, and
        # no infimum in another: the class whose name sorts first decides
        # the error.
        odd = Pattern(odd_name, t, {"o": NOPE}, frozenset())
        model = pat(t, "M", [("m0", "Model")])
        sem = pat(t, "S", [("x", "Semantic_Model")])
        stat = pat(t, "T", [("y", "Statistical_Model")])
        members = [odd, model, sem, stat]
        refs = [Refinement("RA", model, sem, {"m0": "x"}),
                Refinement("RB", model, stat, {"m0": "y"})]
        if merged:
            known = pat(t, odd_name + "b", [("w", "Model")])
            members.append(known)
            refs.append(Refinement("RO", known, odd, {"w": "o"}))
        net = net_of("N", members, refs)
        assert_matches_reference(net)
        with pytest.raises(error):
            combine(net)

    def test_first_unknown_label_by_class_name_raises(self, t):
        # Pattern 'A' comes first in the arena, but 'A-.y' < 'A.x'.
        a = Pattern("A", t, {"x": NOPE}, frozenset())
        dash = Pattern("A-", t, {"y": ClassRef("urn:elsewhere#Gone", "Gone")},
                       frozenset())
        net = net_of("N", [a, dash], [])
        assert_matches_reference(net)
        with pytest.raises(UnknownClassError, match="'Gone'"):
            combine(net)

    def test_first_degenerate_edge_raises(self, t):
        single = pat(t, "S", [("s0", "Model")])
        edgy = pat(t, "T", [("x", "Model"), ("y", "Model"), ("z", "Model")],
                   [("x", "y"), ("z", "y"), ("y", "z")])
        net = net_of("Loop", [single, edgy],
                     [Refinement("RX", single, edgy, {"s0": "x"}),
                      Refinement("RY", single, edgy, {"s0": "y"}),
                      Refinement("RZ", single, edgy, {"s0": "z"})])
        assert_matches_reference(net)
        with pytest.raises(DegenerateLoopError) as e:
            combine(net)
        assert e.value.message.startswith("edge ('x', 'y') of pattern 'T'")


class TestEvaluateCombines:
    def test_materializes_combines(self, t, glued_model_network):
        lib = Library(
            patterns={p.name: p for p in glued_model_network.patterns.values()},
            refinements=dict(glued_model_network.refinements),
            networks={"N": glued_model_network},
            combine_defs={"SemanticGenerateAndTrain": "N"},
        )
        out = evaluate_combines(lib)
        assert "SemanticGenerateAndTrain" in out.patterns
        assert len(out.patterns["SemanticGenerateAndTrain"].nodes) == 6
        assert "SemanticGenerateAndTrain" not in lib.patterns  # input untouched

    def test_library_without_combines_unchanged(self, t):
        p = pat(t, "P", [("a", "Model")])
        lib = Library(patterns={"P": p})
        out = evaluate_combines(lib)
        assert out.patterns == lib.patterns

    def test_unknown_network_rejected(self):
        with pytest.raises(UnknownNameError) as e:
            evaluate_combines(Library(combine_defs={"X": "Missing"}))
        assert e.value.message == ("combine-defined pattern 'X' references "
                                   "unknown network 'Missing'")

    def test_error_prefixed_with_pattern_name(self, t):
        model = pat(t, "M", [("m0", "Model")])
        sem = pat(t, "A", [("x", "Semantic_Model")])
        stat = pat(t, "B", [("y", "Statistical_Model")])
        net = net_of("Clash", [model, sem, stat],
                     [Refinement("RA", model, sem, {"m0": "x"}),
                      Refinement("RB", model, stat, {"m0": "y"})])
        lib = Library(patterns={p.name: p for p in (model, sem, stat)},
                      refinements=dict(net.refinements),
                      networks={"Clash": net},
                      combine_defs={"Broken": "Clash"})
        with pytest.raises(UndefinedColimitError) as e:
            evaluate_combines(lib)
        assert e.value.message.startswith("Broken: ")

    def test_each_definition_combines_the_patterns_its_network_holds(self, t):
        base = pat(t, "Base", [("m", "Model")])
        net1 = net_of("N1", [base], [])
        # N2 holds a one-node stub named "Mid", and "Outer" combines
        # that stub, not the combination of N1.
        stub_mid = pat(t, "Mid", [("m", "Model")])
        net2 = net_of("N2", [stub_mid], [])
        lib = Library(patterns={"Base": base},
                      networks={"N1": net1, "N2": net2},
                      combine_defs={"Mid": "N1", "Outer": "N2"})
        out = evaluate_combines(lib)
        assert isomorphic(out.patterns["Mid"], base)
        assert isomorphic(out.patterns["Outer"], base)


FIG_DOC = (Path(__file__).resolve().parents[1] / "src" / "nesypat" / "corpus"
           / "semantic_generate_and_train.nesy").read_text()


@pytest.fixture()
def count_combines(monkeypatch):
    # Every combination, through combine or the evaluator, is one call
    # of the function that glues the network.
    calls = []
    glue = colimit._combine

    def counting(net, name=None):
        calls.append(net.name)
        return glue(net, name)

    monkeypatch.setattr(colimit, "_combine", counting)
    return calls


class TestEvaluator:
    def test_only_a_combination_result_builds_the_embedding(self, monkeypatch):
        # evaluate_combines keeps only the combined patterns, so it never
        # builds the injections and preimage classes.
        built = []
        glue = colimit._combine

        def recording(net, name=None):
            pattern, embedding = glue(net, name)

            def counted():
                built.append(name)
                return embedding()

            return pattern, counted

        monkeypatch.setattr(colimit, "_combine", recording)
        lib = resolve(parse(FIG_DOC), Catalog.default())
        out = evaluate_combines(lib)
        assert built == []
        res = combination_result(lib, "SemanticGenerateAndTrain")
        assert built == ["SemanticGenerateAndTrain"]
        assert res.pattern == out.patterns["SemanticGenerateAndTrain"]
        assert res == combine(lib.networks["N"], "SemanticGenerateAndTrain")
        assert set(res.injections) == set(lib.networks["N"].patterns)
        assert len(res.classes) == len(res.pattern.nodes) == 6

    def test_combination_result_combines_once(self, count_combines):
        lib = resolve(parse(FIG_DOC), Catalog.default())
        count_combines.clear()
        res = combination_result(lib, "SemanticGenerateAndTrain")
        assert count_combines == ["N"]
        assert res.pattern.name == "SemanticGenerateAndTrain"
        assert len(res.pattern.nodes) == 6
        assert "SemanticGenerateAndTrain" not in lib.patterns  # input untouched

    def test_combination_result_of_a_plain_pattern_is_rejected(self):
        lib = resolve(parse(FIG_DOC), Catalog.default())
        with pytest.raises(UnknownNameError,
                           match="pattern 'Train' is not combine-defined"):
            combination_result(lib, "Train")

    def test_each_definition_combines_once_in_name_order(self, t, count_combines):
        # N2 holds a one-node stub named "Mid", not the combination of N1.
        base = pat(t, "Base", [("m", "Model")])
        stub_mid = pat(t, "Mid", [("m", "Model")])
        lib = Library(patterns={"Base": base},
                      networks={"N1": net_of("N1", [base], []),
                                "N2": net_of("N2", [stub_mid], [])},
                      combine_defs={"Mid": "N1", "Outer": "N2"})
        out = evaluate_combines(lib)
        assert count_combines == ["N1", "N2"]
        count_combines.clear()
        again = evaluate_combines(out)
        assert count_combines == []
        assert again.patterns == out.patterns
        res = combination_result(out, "Outer")
        assert count_combines == ["N2"]
        assert res.pattern == out.patterns["Outer"]

    def test_library_pattern_materializes_on_first_use(self, t, count_combines):
        base = pat(t, "Base", [("m", "Model")])
        lib = Library(patterns={"Base": base},
                      networks={"N1": net_of("N1", [base], [])},
                      combine_defs={"Mid": "N1"})
        assert lib.has_pattern("Mid")
        mid = lib.pattern("Mid")
        assert lib.patterns["Mid"] is mid
        assert lib.pattern("Mid") is mid
        assert count_combines == ["N1"]

    @pytest.mark.parametrize("names", [("A", "B"), ("A", "B", "C")])
    def test_names_in_a_cycle_combine_the_members_held(self, t, names):
        # Each network holds a stub named after the next definition; a
        # network is combined with the patterns it holds, so the names
        # form no dependency and every definition combines on its own.
        networks, combine_defs = {}, {}
        for name, nxt in zip(names, names[1:] + names[:1]):
            networks[f"N{name}"] = net_of(f"N{name}",
                                          [pat(t, nxt, [("m", "Model")])], [])
            combine_defs[name] = f"N{name}"
        lib = Library(networks=networks, combine_defs=combine_defs)
        out = evaluate_combines(lib)
        assert set(out.patterns) == set(names)
        for name in names:
            expected = combine(networks[f"N{name}"], name).pattern
            assert out.patterns[name] == expected
            assert combination_result(lib, name).pattern == expected
            assert lib.pattern(name) == expected

    def test_error_records_failing_declaration(self, t):
        model = pat(t, "M", [("m0", "Model")])
        sem = pat(t, "A", [("x", "Semantic_Model")])
        stat = pat(t, "B", [("y", "Statistical_Model")])
        clash = net_of("Clash", [model, sem, stat],
                       [Refinement("RA", model, sem, {"m0": "x"}),
                        Refinement("RB", model, stat, {"m0": "y"})])
        stub = pat(t, "Broken", [("m", "Model")])
        lib = Library(patterns={p.name: p for p in (model, sem, stat)},
                      networks={"Clash": clash,
                                "Wrap": net_of("Wrap", [stub], [])},
                      combine_defs={"Broken": "Clash", "Outer": "Wrap"})
        for call in (evaluate_combines,
                     lambda lib: combination_result(lib, "Broken"),
                     lambda lib: lib.pattern("Broken")):
            with pytest.raises(UndefinedColimitError) as e:
                call(lib)
            assert e.value.decl == "Broken"
            assert e.value.message.startswith("Broken: no infimum")
        # "Outer" combines the one-node stub its network holds, not "Broken".
        outer = combination_result(lib, "Outer").pattern
        assert outer == combine(lib.networks["Wrap"], "Outer").pattern
        assert len(outer.labels) == 1

