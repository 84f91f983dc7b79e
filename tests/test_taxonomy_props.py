"""Property tests of the taxonomy lattice operations, judged by the
brute-force oracles in ``helpers``, and of the Manchester reader."""

import random
import re

from hypothesis import given, settings, strategies as st

from helpers import glb_oracle, random_taxonomy, reachable_oracle
from nesypat.emitters import emit_manchester
from nesypat.taxonomy import ClassRef, Taxonomy, parse_taxonomy

SETTINGS = settings(deadline=None)


def banded_chain(rng: random.Random, depth: int, band: int) -> Taxonomy:
    """A chain K{depth} < ... < K1 < top plus band classes, each below
    two chain classes; K10 sorting before K2 keeps IRI order apart from
    the subclass order."""
    ns = "urn:band#"
    top = ClassRef(ns + "M", "M")
    ks = [top] + [ClassRef(f"{ns}K{i}", f"K{i}") for i in range(1, depth + 1)]
    edges = {(ks[i], ks[i - 1]) for i in range(1, depth + 1)}
    classes = list(ks)
    for j in range(band):
        b = ClassRef(f"{ns}B{j}", f"B{j}")
        classes.append(b)
        edges |= {(b, ks[i]) for i in rng.sample(range(1, depth + 1), min(2, depth))}
    return Taxonomy(classes, edges, top, ns)


@st.composite
def banded_chains(draw):
    rng = draw(st.randoms(use_true_random=False))
    return banded_chain(rng, draw(st.integers(1, 12)), draw(st.integers(0, 6)))


@st.composite
def taxonomies(draw):
    """A random DAG or a banded chain, perhaps built from its classes in
    shuffled order, so that some class comes before a superclass."""
    rng = draw(st.randoms(use_true_random=False))
    t = (random_taxonomy(rng, draw(st.integers(1, 12))) if draw(st.booleans())
         else draw(banded_chains()))
    if draw(st.booleans()):
        classes = sorted(t.classes, key=lambda c: c.iri)
        rng.shuffle(classes)
        t = Taxonomy(classes, t.subclass_edges, t.top, t.namespace)
    return t


@st.composite
def label_sets(draw):
    t = draw(taxonomies())
    cs = sorted(t.classes, key=lambda c: c.iri)
    return t, draw(st.lists(st.sampled_from(cs), min_size=1, max_size=3))


def maximal_lower_bounds_oracle(t: Taxonomy, labels) -> list:
    edges = t.subclass_edges
    lower = [c for c in t.classes
             if all(reachable_oracle(edges, c, x) for x in labels)]
    return sorted((c for c in lower
                   if not any(d != c and reachable_oracle(edges, c, d)
                              for d in lower)),
                  key=lambda c: c.iri)


@SETTINGS
@given(taxonomies())
def test_leq_is_reachability(t):
    for a in t.classes:
        for b in t.classes:
            assert t.leq(a, b) == reachable_oracle(t.subclass_edges, a, b)


@SETTINGS
@given(label_sets())
def test_infimum_is_glb(case):
    t, labels = case
    assert t.infimum(labels) == glb_oracle(t, labels)


@SETTINGS
@given(label_sets())
def test_maximal_lower_bounds_are_the_maximal_elements(case):
    t, labels = case
    assert t.maximal_lower_bounds(labels) == maximal_lower_bounds_oracle(t, labels)


@st.composite
def extensions(draw, bases=taxonomies()):
    """A taxonomy and a Manchester fragment that adds new classes below
    old and new ones, perhaps in reverse order, so that a later frame
    declares a superclass; perhaps a new class Z with an old class
    below it; and perhaps a subclass axiom between old classes.  No
    axiom closes a cycle."""
    t = draw(bases)
    rng = draw(st.randoms(use_true_random=False))
    names = sorted(c.local_name for c in t.classes)
    edges = {(a.local_name, b.local_name) for a, b in t.subclass_edges}
    frames = []
    for i in range(draw(st.integers(0, 4))):
        supers = rng.sample(names, min(len(names), rng.randint(1, 2)))
        frames.append(f"Class: N{i} SubClassOf: {', '.join(supers)}")
        edges |= {(f"N{i}", s) for s in supers}
        names.append(f"N{i}")
    if draw(st.booleans()):
        frames.reverse()
    old = sorted(t.classes, key=lambda c: c.iri)
    if draw(st.booleans()):
        a = rng.choice(old).local_name
        allowed = [n for n in names if not reachable_oracle(edges, n, a)]
        if allowed:
            supers = rng.sample(allowed, min(len(allowed), rng.randint(1, 2)))
            frames += [f"Class: Z SubClassOf: {', '.join(supers)}",
                       f"Class: {a} SubClassOf: Z"]
            edges |= {("Z", s) for s in supers} | {(a, "Z")}
    if draw(st.booleans()):
        a, b = rng.choice(old).local_name, rng.choice(old).local_name
        if not reachable_oracle(edges, b, a):
            frames.append(f"Class: {a} SubClassOf: {b}")
    return t, "\n".join(frames)


@SETTINGS
@given(extensions())
def test_extend_is_monotone_and_leaves_the_base_alone(case):
    t, fragment = case
    state = (t.classes, t.subclass_edges, t.top, hash(t))
    order = {(a, b) for a in t.classes for b in t.classes if t.leq(a, b)}
    ext = t.extend(fragment)
    assert t.classes <= ext.classes
    assert all(ext.leq(a, b) for a, b in order)
    assert (t.classes, t.subclass_edges, t.top, hash(t)) == state
    assert order == {(a, b) for a in t.classes for b in t.classes if t.leq(a, b)}


@SETTINGS
@given(extensions(), st.data())
def test_extension_answers_by_its_own_edges(case, data):
    t, fragment = case
    ext = t.extend(fragment)
    edges = ext.subclass_edges
    cs = sorted(ext.classes, key=lambda c: c.iri)
    for a in cs:
        for b in cs:
            assert ext.leq(a, b) == reachable_oracle(edges, a, b)
    labels = data.draw(st.lists(st.sampled_from(cs), min_size=1, max_size=3))
    assert ext.infimum(labels) == glb_oracle(ext, labels)
    assert ext.maximal_lower_bounds(labels) == maximal_lower_bounds_oracle(ext, labels)


#: A class name in ``emit_manchester`` text of the generated taxonomies.
_CLASS_NAME = re.compile(r"\b(?:M|[BCK][0-9]+)\b")


@st.composite
def respellings(draw):
    """The Manchester text of a taxonomy, and the same text with each
    class name written bare, as ``:Name`` or as ``<IRI>`` at random."""
    t = draw(taxonomies())
    rng = draw(st.randoms(use_true_random=False))
    text = emit_manchester(t)
    spellings = ("{}", ":{}", "<" + t.namespace + "{}>")
    return t, text, _CLASS_NAME.sub(
        lambda m: rng.choice(spellings).format(m.group()), text)


@SETTINGS
@given(respellings())
def test_every_spelling_of_a_class_names_that_class(case):
    t, text, respelled = case
    assert parse_taxonomy(respelled) == parse_taxonomy(text) == t


@SETTINGS
@given(extensions(banded_chains()))
def test_extending_a_read_taxonomy_is_reading_both_texts(case):
    t, fragment = case
    text = emit_manchester(t)
    assert (parse_taxonomy(text).extend(fragment)
            == parse_taxonomy(text + "\n" + fragment))
