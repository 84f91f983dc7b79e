import copy
import pickle
import random
import re
import time
import tracemalloc

import pytest

from helpers import (
    glb_oracle,
    random_taxonomy,
    reachable_oracle,
    reference_parse_taxonomy,
)
from nesypat import taxonomy
from nesypat.errors import CycleError, ParseError, UnknownClassError, _positions
from nesypat.taxonomy import (
    ClassRef,
    TOP_LOCAL_NAME,
    Taxonomy,
    _tokenize_manchester,
    default_taxonomy,
    parse_taxonomy,
)


def chain(n):
    """Classes, edges and top of the chain K{n} < ... < K1 < top."""
    top = ClassRef("urn:chain#T", "T")
    ks = [top] + [ClassRef(f"urn:chain#K{i}", f"K{i}") for i in range(1, n + 1)]
    return ks, {(ks[i], ks[i - 1]) for i in range(1, n + 1)}, top


@pytest.fixture(scope="module")
def default():
    return default_taxonomy()


def cls(t, name):
    return t.lookup(name)


class TestDefaultTaxonomy:
    def test_instances_are_symbols_or_data(self, default):
        assert default.leq(cls(default, "Data"), cls(default, "Instance"))
        assert default.leq(cls(default, "Symbol"), cls(default, "Instance"))

    def test_processes_include_training_and_deduction(self, default):
        assert default.leq(cls(default, "Training"), cls(default, "Process"))
        assert default.leq(cls(default, "Deduction"), cls(default, "Process"))
        assert default.leq(cls(default, "Transformation"), cls(default, "Process"))

    def test_everything_below_top(self, default):
        for c in default.classes:
            assert default.leq(c, default.top)

    def test_actor_below_top(self, default):
        assert default.leq(cls(default, "Actor"), cls(default, "NeSy_Pattern_Element"))

    def test_class_count(self, default):
        assert len(default.classes) == 12


class TestLeq:
    def test_semantic_model_below_model(self, default):
        assert default.leq(cls(default, "Semantic_Model"), cls(default, "Model"))

    def test_reflexive(self, default):
        for c in default.classes:
            assert default.leq(c, c)

    def test_symbol_not_below_model(self, default):
        # Frozen via reachable_oracle over the default edge set.
        assert reachable_oracle(default.subclass_edges,
                                cls(default, "Symbol"),
                                cls(default, "Model")) is False
        assert default.leq(cls(default, "Symbol"), cls(default, "Model")) is False

    def test_unknown_class_rejected(self, default):
        stranger = ClassRef("urn:other#X", "X")
        with pytest.raises(UnknownClassError):
            default.leq(stranger, default.top)
        for query in (lambda: default.leq(default.top, stranger),
                      lambda: default.infimum([default.lookup("Model"), stranger]),
                      lambda: default.maximal_lower_bounds([stranger])):
            with pytest.raises(UnknownClassError,
                               match="class 'X' is not in this taxonomy"):
                query()

    def test_matches_reachability_oracle_on_random_dags(self):
        rng = random.Random(7)
        for _ in range(25):
            t = random_taxonomy(rng, rng.randint(2, 12))
            classes = sorted(t.classes, key=lambda c: c.local_name)
            for a in classes:
                for b in classes:
                    assert t.leq(a, b) == reachable_oracle(t.subclass_edges, a, b)

    def test_partial_order_properties(self):
        rng = random.Random(11)
        for _ in range(15):
            t = random_taxonomy(rng, rng.randint(2, 10))
            cs = sorted(t.classes, key=lambda c: c.local_name)
            for a in cs:
                assert t.leq(a, a)
                for b in cs:
                    if t.leq(a, b) and t.leq(b, a):
                        assert a == b  # antisymmetry
                    for c in cs:
                        if t.leq(a, b) and t.leq(b, c):
                            assert t.leq(a, c)  # transitivity


class TestInfimum:
    def test_model_and_semantic_model(self, default):
        got = default.infimum({cls(default, "Model"), cls(default, "Semantic_Model")})
        assert got == cls(default, "Semantic_Model")

    def test_semantic_vs_statistical_undefined(self, default):
        got = default.infimum({cls(default, "Semantic_Model"),
                               cls(default, "Statistical_Model")})
        assert got is None

    def test_singleton(self, default):
        for c in default.classes:
            assert default.infimum({c}) == c

    def test_hybrid_extension_defines_it(self, default):
        ext = default.extend(
            "Class: Hybrid_Model SubClassOf: Semantic_Model SubClassOf: Statistical_Model")
        got = ext.infimum({cls(ext, "Semantic_Model"), cls(ext, "Statistical_Model")})
        assert got == cls(ext, "Hybrid_Model")

    def test_empty_label_set_rejected(self, default):
        with pytest.raises(ValueError, match="infimum of an empty label set"):
            default.infimum([])

    def test_permutation_and_duplication_invariance(self, default):
        a, b = cls(default, "Model"), cls(default, "Semantic_Model")
        assert default.infimum([a, b]) == default.infimum([b, a])
        assert default.infimum([a, b, a, b]) == default.infimum([a, b])

    def test_lower_bound_laws_when_defined(self):
        rng = random.Random(13)
        for _ in range(20):
            t = random_taxonomy(rng, rng.randint(2, 10))
            cs = sorted(t.classes, key=lambda c: c.local_name)
            for a in cs:
                for b in cs:
                    inf = t.infimum({a, b})
                    if inf is None:
                        continue
                    assert t.leq(inf, a) and t.leq(inf, b)
                    for d in cs:
                        if t.leq(d, a) and t.leq(d, b):
                            assert t.leq(d, inf)

    def test_matches_glb_oracle_on_random_dags(self):
        rng = random.Random(17)
        for _ in range(10):
            t = random_taxonomy(rng, rng.randint(2, 12))
            cs = sorted(t.classes, key=lambda c: c.local_name)
            for a in cs:
                for b in cs:
                    assert t.infimum({a, b}) == glb_oracle(t, [a, b])


class TestParseTaxonomy:
    def test_fig8_style_class_frame(self):
        t = parse_taxonomy("Class: Embedding SubClassOf: Transformation")
        assert t.leq(t.lookup("Embedding"), t.lookup("Transformation"))

    def test_colonless_class_keyword(self):
        t = parse_taxonomy("Class Embedding SubClassOf: Transformation")
        assert t.leq(t.lookup("Embedding"), t.lookup("Transformation"))

    def test_empty_body_gives_top_only(self):
        t = parse_taxonomy("")
        assert t.classes == {t.top}

    def test_cycle_detected(self):
        lines = [f"Class: C{i} SubClassOf: Top" for i in range(8)]
        lines += ["Class: A SubClassOf: B", "Class: B SubClassOf: A"]
        with pytest.raises(CycleError):
            parse_taxonomy("\n".join(lines))

    def test_prefix_and_ontology_header(self):
        text = """
        Prefix: : <urn:zoo#>
        Ontology: <urn:zoo>
        Class: Animal
        Class: Cat SubClassOf: Animal
        """
        t = parse_taxonomy(text)
        cat = t.lookup("Cat")
        assert cat.iri == "urn:zoo#Cat"
        assert t.leq(cat, t.lookup("Animal"))
        assert t.top == t.lookup("Animal")  # unique root becomes top

    @pytest.mark.parametrize("animal", ["<urn:zoo#Animal>", "z:Animal", ":Animal"])
    def test_every_spelling_names_one_class(self, animal):
        t = parse_taxonomy("Prefix: : <urn:zoo#>\nPrefix: z: <urn:zoo#>\n"
                           f"Class: Animal\nClass: Cat SubClassOf: {animal}")
        assert t == parse_taxonomy("Prefix: : <urn:zoo#>\n"
                                   "Class: Animal\nClass: Cat SubClassOf: Animal")
        assert t.top == t.lookup("Animal")
        assert len(t.classes) == 2

    def test_iri_without_fragment_named_by_its_last_segment(self):
        t = parse_taxonomy("Class: <urn:x/ns/Foo>\n")
        assert t.lookup("Foo").iri == "urn:x/ns/Foo"

    def test_quoted_names_normalize_spaces(self):
        t = parse_taxonomy("Class: 'Semantic Model' SubClassOf: Model")
        assert t.has_local("Semantic_Model")

    def test_quoted_name_holding_a_colon_is_a_bare_name(self):
        t = parse_taxonomy("Class: 'a:b'")
        (c,) = t.classes
        assert c.local_name == "a:b"
        assert c.iri == t.namespace + "a:b"

    def test_quoted_iri_is_a_bare_name(self):
        t = parse_taxonomy("Class: '<urn:x#A>' Class: B SubClassOf: A")
        assert len(t.classes) == 4
        assert t.has_local("<urn:x#A>")
        assert t.lookup("A").iri == t.namespace + "A"
        assert t.leq(t.lookup("B"), t.lookup("A"))

    def test_unknown_entries_warned_and_skipped(self):
        diags = []
        t = parse_taxonomy(
            "Class: A\n  Annotations: rdfs:comment \"hi there\"\n"
            "  SubClassOf: B\nClass: B", diagnostics=diags)
        assert t.leq(t.lookup("A"), t.lookup("B"))
        assert any(d.severity == "warning" for d in diags)

    def test_complex_expression_skipped_with_warning(self):
        diags = []
        t = parse_taxonomy(
            "Class: A SubClassOf: p some B\nClass: B", diagnostics=diags)
        assert not t.leq(t.lookup("A"), t.lookup("B"))
        assert any("class expression" in d.message for d in diags)

    def test_top_element_name_below_a_root_is_not_the_top(self):
        t = parse_taxonomy(f"Class: {TOP_LOCAL_NAME} SubClassOf: A")
        assert t.top == t.lookup("A")
        assert t.leq(t.lookup(TOP_LOCAL_NAME), t.top)
        # With two roots, the fresh root would be the class below one.
        with pytest.raises(CycleError):
            parse_taxonomy(f"Class: {TOP_LOCAL_NAME} SubClassOf: A\nClass: B")
        with pytest.raises(ParseError) as e:
            parse_taxonomy("Prefix: x: <urn:x#>\n"
                           f"Class: x:{TOP_LOCAL_NAME} SubClassOf: A\nClass: B")
        assert (e.value.message, e.value.line, e.value.col) == (
            f"IRI <{default_taxonomy().namespace}{TOP_LOCAL_NAME}> has the local "
            f"name '{TOP_LOCAL_NAME}' of <urn:x#{TOP_LOCAL_NAME}>", 2, 8)

    def test_undeclared_superclass_is_auto_declared(self):
        t = parse_taxonomy("Class: A SubClassOf: B")
        assert t.leq(t.lookup("A"), t.lookup("B"))
        assert t.leq(t.lookup("B"), t.top)

    @pytest.mark.parametrize("text, error, message, line, col", [
        ("Class: ,", ParseError, "expected a class name, found ','", 1, 8),
        ("Prefix: p: q", ParseError, "expected <IRI> in prefix declaration", 1, 12),
        ("Class: A\nClass: B SubClassOf: q:A", UnknownClassError,
         "undeclared prefix 'q' in 'q:A'", 2, 22),
        ("Class: A\nClass: B SubClassOf: :A", UnknownClassError,
         "undeclared prefix '' in ':A'", 2, 22),
        ("Prefix: p: <urn:p#>\nClass: p:<urn:q>\n", ParseError,
         "malformed prefixed name", 2, 8),
    ])
    def test_error_placed_in_the_named_file(self, text, error, message, line, col):
        with pytest.raises(error) as e:
            parse_taxonomy(text, source_name="f.omn")
        assert (e.value.message, e.value.line, e.value.col,
                e.value.source_name) == (message, line, col, "f.omn")

    def test_error_placed_before_a_warning_read_first(self):
        diags = []
        with pytest.raises(UnknownClassError) as e:
            parse_taxonomy("Class: q:C\n  EquivalentTo: B\n", diags)
        assert (e.value.message, e.value.line, e.value.col) == (
            "undeclared prefix 'q' in 'q:C'", 1, 8)
        assert [(d.message, d.line, d.col) for d in diags] == [
            ("EquivalentTo entries are skipped", 2, 3)]

    def test_version_iri_is_read_past(self):
        t = parse_taxonomy("Ontology: <urn:o> <urn:o/1>\nClass: A")
        assert t.lookup("A").iri == "urn:o#A"

    def test_unsupported_expression_skipped_with_warning(self):
        diags = []
        t = parse_taxonomy("Class: A SubClassOf: (B)\nClass: B", diagnostics=diags)
        assert not t.leq(t.lookup("A"), t.lookup("B"))
        assert [(d.message, d.line, d.col) for d in diags] == [
            ("unsupported class expression skipped", 1, 22)]

    def test_malformed_frame_has_position(self):
        with pytest.raises(ParseError) as e:
            parse_taxonomy("Class: A\n  (")
        assert e.value.line == 2

    def test_multiple_parents_comma_list(self):
        t = parse_taxonomy("Class: A SubClassOf: B, C")
        assert t.leq(t.lookup("A"), t.lookup("B"))
        assert t.leq(t.lookup("A"), t.lookup("C"))

    def test_misc_tokens_keep_values_and_positions(self):
        text = "Class: A\n  Annotations: v 12.5e-3 (x) 7 ; 0x1F"
        at = _positions(text)
        misc, offset = [], 0
        for ws, tok in _tokenize_manchester(text):
            offset += len(ws)
            if re.match(r"[^A-Za-z_:,<']", tok):
                misc.append((tok, *at(offset)))
            offset += len(tok)
        assert misc == [("12.5e-3", 2, 18), ("(", 2, 26), (")", 2, 28),
                        ("7", 2, 30), (";", 2, 32), ("0x1F", 2, 34)]

    def test_position_after_string_literal_spanning_lines(self):
        with pytest.raises(ParseError) as e:
            parse_taxonomy('Class: A\n Annotations: rdfs:comment "two\nlines"\n'
                           'Class: B\n  (')
        assert e.value.message == "malformed frame near '('"
        assert (e.value.line, e.value.col) == (5, 3)

    def test_position_after_iri_spanning_lines(self):
        text = "Class: <urn:x#\nA> Class: B"
        at = _positions(text)
        placed, offset = [], 0
        for ws, tok in _tokenize_manchester(text):
            offset += len(ws)
            placed.append((tok, *at(offset)))
            offset += len(tok)
        assert placed[2:4] == [("<urn:x#\nA>", 1, 8), ("Class", 2, 4)]

    def test_trailing_whitespace_is_read_once(self):
        # A token's leading whitespace is part of its match; were the
        # search to run into trailing whitespace, it would backtrack
        # over the run at each of its characters (about 40 s here).
        text = "Class: A" + " \n\t" * 7000
        start = time.process_time()
        toks = _tokenize_manchester(text)
        assert time.process_time() - start < 1.0
        assert toks == [("", "Class"), ("", ":"), (" ", "A"), (text[8:], "")]


class TestUnusableLocalNames:
    """A class whose local name is empty, holds whitespace or belongs to
    another IRI is a ParseError at the name, not a ValueError."""

    @pytest.mark.parametrize("text, message, col", [
        ("Class: <urn:x#>", "IRI <urn:x#> has no local name", 8),
        ("Class: <urn:x#a\tb>", "IRI <urn:x#a\\tb> has whitespace in its local name", 8),
        ("Class: A SubClassOf: <urn:x#\n>",
         "IRI <urn:x#\\n> has whitespace in its local name", 22),
        ("Class: ''", f"IRI <{default_taxonomy().namespace}> has no local name", 8),
        ("Class: <urn:a#X> Class: X",
         f"IRI <{default_taxonomy().namespace}X> has the local name 'X' of "
         "<urn:a#X>", 25),
    ])
    def test_parse_taxonomy(self, text, message, col):
        with pytest.raises(ParseError) as e:
            parse_taxonomy(text)
        assert e.value.message == message
        assert (e.value.line, e.value.col) == (1, col)

    def test_prefixed_name_placed_at_its_use(self):
        with pytest.raises(ParseError) as e:
            parse_taxonomy("Prefix: p: <urn:a#b\tc>\nClass: p:X")
        assert e.value.message == "IRI <urn:a#b\\tcX> has whitespace in its local name"
        assert (e.value.line, e.value.col) == (2, 8)

    def test_extend(self, default):
        with pytest.raises(ParseError) as e:
            default.extend("Class: <urn:x#>")
        assert (e.value.message, e.value.line, e.value.col) == (
            "IRI <urn:x#> has no local name", 1, 8)
        with pytest.raises(ParseError) as e:
            default.extend("Class: E\nClass: <urn:b#Model>")
        assert (e.value.line, e.value.col) == (2, 8)
        assert e.value.message.startswith(
            "IRI <urn:b#Model> has the local name 'Model' of <")


class TestExtend:
    def test_is_value_semantic(self, default):
        before = set(default.classes)
        ext = default.extend("Class: Embedding SubClassOf: Transformation")
        assert set(default.classes) == before
        assert ext.has_local("Embedding")

    def test_empty_fragment_is_identity(self, default):
        assert default.extend("") == default
        assert default.extend("   \n ") == default

    def test_transitive_leq_through_extension(self, default):
        ext = default.extend("Class Embedding SubClassOf: Transformation")
        assert ext.leq(ext.lookup("Embedding"), ext.lookup("Process"))

    def test_unknown_target_rejected(self, default):
        with pytest.raises(UnknownClassError):
            default.extend("Class: X SubClassOf: NoSuchClass")

    @pytest.mark.parametrize("fragment, message, line, col", [
        ("Class: X SubClassOf: NoSuchClass",
         "unknown class 'NoSuchClass' in extension", 1, 22),
        ("\nClass: A SubClassOf: B", "unknown class 'B' in extension", 2, 22),
        ("Class: E SubClassOf: p:X", "undeclared prefix 'p' in 'p:X'", 1, 22),
    ])
    def test_unknown_name_placed_at_the_name(self, default, fragment, message,
                                             line, col):
        with pytest.raises(UnknownClassError) as e:
            default.extend(fragment)
        assert (e.value.message, e.value.line, e.value.col) == (message, line, col)

    def test_base_class_named_by_iri(self, default):
        ext = default.extend(f"Class: E SubClassOf: <{default.namespace}Model>")
        assert ext.leq(ext.lookup("E"), ext.lookup("Model"))
        assert len(ext.classes) == len(default.classes) + 1

    def test_monotone(self, default):
        ext = default.extend("Class: Hybrid_Model SubClassOf: Semantic_Model, Statistical_Model")
        for a in default.classes:
            for b in default.classes:
                if default.leq(a, b):
                    assert ext.leq(a, b)

    def test_axiom_on_a_base_class_leaves_the_base_alone(self):
        ks, edges, top = chain(3)
        x = ClassRef("urn:chain#X", "X")
        base = Taxonomy([*ks, x], edges | {(x, top)}, top)
        ext = base.extend("Class: X SubClassOf: K3")
        assert ext.leq(x, ks[3]) and not base.leq(x, ks[3])
        assert base.subclass_edges == edges | {(x, top)}
        assert ext.subclass_edges == base.subclass_edges | {(x, ks[3])}

    def test_new_root_goes_under_top(self, default):
        ext = default.extend("Class: Gadget")
        assert ext.leq(ext.lookup("Gadget"), ext.top)



COPIES = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]


class TestCopy:
    @pytest.mark.parametrize("copier", COPIES)
    def test_default_taxonomy_round_trips(self, default, copier):
        back = copier(default)
        assert back == default
        assert back.leq(back.lookup("Transformation"), back.lookup("Process"))

    def test_class_ref_attributes_cannot_be_assigned(self, default):
        model = default.lookup("Model")
        with pytest.raises(AttributeError, match="ClassRef is immutable"):
            model.local_name = "Other"
        assert model.local_name == "Model"

    def test_taxonomy_attributes_cannot_be_assigned(self, default):
        top = default.top
        with pytest.raises(AttributeError, match="Taxonomy is immutable"):
            default.top = default.lookup("Model")
        assert default.top is top

    @pytest.mark.parametrize("copier", COPIES)
    def test_extended_taxonomy_round_trips(self, default, copier):
        ext = default.extend("Class: E SubClassOf: Model\nClass: F SubClassOf: E")
        back = copier(ext)
        assert back == ext and back != default
        assert back.leq(back.lookup("F"), back.lookup("Model"))


class TestTaxonomyInvariants:
    def test_edge_endpoints_must_be_declared(self):
        a, b = ClassRef("urn:x#A", "A"), ClassRef("urn:x#B", "B")
        with pytest.raises(ValueError):
            Taxonomy({a}, {(a, b)}, a)

    def test_constructed_cycle_rejected(self):
        a, b = ClassRef("urn:x#A", "A"), ClassRef("urn:x#B", "B")
        top = ClassRef("urn:x#T", "T")
        with pytest.raises(CycleError):
            Taxonomy({a, b, top}, {(a, b), (b, a), (a, top)}, top)

    def test_unreachable_top_rejected(self):
        a = ClassRef("urn:x#A", "A")
        top = ClassRef("urn:x#T", "T")
        with pytest.raises(ValueError):
            Taxonomy({a, top}, set(), top)

    def test_top_must_be_a_class(self):
        model = default_taxonomy().lookup("Model")
        with pytest.raises(ValueError, match="top class must be a member of classes"):
            Taxonomy({model}, set(), ClassRef("urn:other#X", "X"))

    def test_duplicate_local_name_rejected(self):
        a, b = ClassRef("urn:a#T", "T"), ClassRef("urn:b#T", "T")
        with pytest.raises(ValueError,
                           match="duplicate local name 'T' for distinct IRIs"):
            Taxonomy({a, b}, {(b, a)}, a)

    def test_class_local_name_without_whitespace(self):
        with pytest.raises(ValueError, match="bad local name 'a b'"):
            ClassRef("urn:x#a b", "a b")

    def test_cycle_error_names_a_class_on_the_cycle(self):
        # Z1 <-> Z2 <= A <= top; top and A sort before the cycle, and the
        # top is left over by a subclasses-first topological sort too.
        top, a, z1, z2 = (ClassRef(f"urn:x#{n}", n)
                          for n in (TOP_LOCAL_NAME, "A", "Z1", "Z2"))
        with pytest.raises(CycleError) as e:
            Taxonomy({top, a, z1, z2},
                     {(z1, z2), (z2, z1), (z2, a), (a, top)}, top)
        assert e.value.message == "subclass axioms form a cycle through Z1"

    def test_errors_name_the_first_class_by_iri(self):
        # Ids follow the order classes are read or given in; the class an
        # error names does not.
        with pytest.raises(CycleError) as e:
            parse_taxonomy("Class: Z2 SubClassOf: Z1\nClass: Z1 SubClassOf: Z2")
        assert e.value.message == "subclass axioms form a cycle through Z1"
        top, a, b = (ClassRef(f"urn:x#{n}", n) for n in "TAB")
        with pytest.raises(ValueError, match="class A does not reach the top class"):
            Taxonomy([top, b, a], [], top)
        t1, t2, u1, u2 = (ClassRef(f"urn:{ns}#{n}", n)
                          for ns, n in ("bT", "cT", "aU", "dU"))
        with pytest.raises(ValueError, match="duplicate local name 'T'"):
            Taxonomy([u2, u1, t1, t2], [(u2, t1), (u1, t1), (t2, t1)], t1)

    def test_self_loop_is_a_cycle(self):
        a, top = ClassRef("urn:x#A", "A"), ClassRef("urn:x#T", "T")
        with pytest.raises(CycleError) as e:
            Taxonomy({a, top}, {(a, a), (a, top)}, top)
        assert e.value.message == "subclass axioms form a cycle through A"


class TestDeepChains:
    def test_5000_chain(self):
        ks, edges, top = chain(5000)
        t = Taxonomy(ks, edges, top)
        assert t.leq(ks[5000], top)
        assert not t.leq(top, ks[5000])
        assert t.infimum({ks[1], ks[4999]}) == ks[4999]

    @pytest.mark.parametrize("n, mib", [(3000, 10), (10000, 16)])
    def test_chain_build_memory(self, n, mib):
        ks, edges, top = chain(n)
        tracemalloc.start()
        try:
            Taxonomy(ks, edges, top)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20

    def test_chain_extend_memory(self):
        # A 10,000-class chain extended below its bottom by 10,000 more:
        # 34 MiB measured, most of it the 20,000 classes' down-sets.
        ks, edges, top = chain(10000)
        base = Taxonomy(ks, edges, top)
        tracemalloc.start()
        try:
            ext = base.extend(chain_fragment("E", 10000, "K10000"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        e1, e5000, e10000 = (ext.lookup(f"E{i}") for i in (1, 5000, 10000))
        assert ext.leq(e10000, top) and ext.leq(e1, ks[10000])
        assert not ext.leq(ks[10000], e1)
        assert ext.infimum({ks[5000], e5000}) == e5000
        assert ext.infimum({ks[1], ks[10000], e1}) == e1
        assert ext.maximal_lower_bounds({top, e5000}) == [e5000]
        assert len(ext.classes) == 20001


def chain_fragment(name, n, below):
    """Manchester frames of the chain {name}{n} < ... < {name}1 < {below}."""
    return "\n".join(f"Class: {name}{i} SubClassOf: {f'{name}{i - 1}' if i > 1 else below}"
                     for i in range(1, n + 1))


def chain_and_band_text(depth=200, band=120):
    """A chain K{depth} < ... < K1 < Top and band classes, each below two
    chain classes, as Manchester text: 321 classes by default."""
    rng = random.Random(5)
    lines = ["Prefix: : <urn:deep#>", "Class: Top", chain_fragment("K", depth, "Top")]
    for j in range(band):
        a, b = rng.sample(range(1, depth + 1), 2)
        lines.append(f"Class: B{j} SubClassOf: K{a}, K{b}")
    return "\n".join(lines)


class TestIntegerIds:
    """Reading and extending run on ids: no ClassRef is hashed, and the
    class and edge sets are built only when asked for."""

    def test_reading_hashes_no_class(self, monkeypatch):
        ks, edges, top = chain(10000)
        base = Taxonomy(ks, edges, top)
        hashed = []
        real_hash = ClassRef.__hash__

        def counting_hash(c):
            hashed.append(c)
            return real_hash(c)

        monkeypatch.setattr(ClassRef, "__hash__", counting_hash)
        t = parse_taxonomy(chain_and_band_text())
        ext = base.extend(chain_fragment("E", 300, "K10000"))
        assert hashed == []
        assert repr(t) == "Taxonomy(321 classes, top=Top)"
        assert ext.leq(ext.lookup("E300"), ks[1]) and not ext.leq(ks[1], ext.lookup("E1"))
        assert base._classes is None and base._edges is None
        monkeypatch.undo()
        assert len(ext.classes) == 10301 and (ext.lookup("E1"), ks[10000]) in ext.subclass_edges

    def test_plain_frames_need_no_tokens_and_no_name_check(self, monkeypatch):
        # Each frame of the chain-and-band text and of a 300-class chain
        # below it is one frame match: nothing is tokenized, and no class
        # goes through ClassRef's local-name check.
        calls = []
        real_tokenize, real_init = taxonomy._tokenize_manchester, ClassRef.__init__

        def counting_tokenize(*args):
            calls.append("tokenize")
            return real_tokenize(*args)

        def counting_init(self, *args):
            calls.append("init")
            real_init(self, *args)

        monkeypatch.setattr(taxonomy, "_tokenize_manchester", counting_tokenize)
        monkeypatch.setattr(ClassRef, "__init__", counting_init)
        t = parse_taxonomy(chain_and_band_text())
        ext = t.extend(chain_fragment("E", 300, "K200"))
        assert calls == []
        # A quoted name sends the reader to the token walk.
        parse_taxonomy(chain_and_band_text() + "\nClass: 'q'")
        assert calls == ["tokenize"]
        monkeypatch.undo()
        assert repr(t) == "Taxonomy(321 classes, top=Top)" and len(ext.classes) == 621
        assert ext.leq(ext.lookup("E300"), t.lookup("K1"))
        assert not ext.leq(t.lookup("B0"), ext.lookup("E1"))
        assert t.lookup("K7") == ClassRef("urn:deep#K7", "K7")

    @pytest.mark.parametrize("k", [0, 1, 2, 150, 319, 320])
    def test_annotations_in_frame_k_placed_as_reference(self, k):
        # Frame k sends the reader from frame matches to the token walk;
        # its warning, and the taxonomy, are the reference reader's.
        lines = chain_and_band_text().split("\n")
        head, sub, supers = lines[k + 1].partition(" SubClassOf: ")
        lines[k + 1] = f'{head}\n  Annotations: rdfs:comment "frame {k}"{sub}{supers}'
        text = "\n".join(lines)
        got, want = [], []
        t = parse_taxonomy(text, got, source_name="f.omn")
        assert t == reference_parse_taxonomy(text, want, source_name="f.omn")
        assert got == want
        assert [(d.line, d.col, d.message) for d in got] == [
            (k + 3, 3, "Annotations entries are skipped")]
