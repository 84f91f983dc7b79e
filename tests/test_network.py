import pytest

from nesypat import Library, Network, build_network
from nesypat.colimit import validate_network
from nesypat.errors import (
    NetworkTypeError,
    TaxonomyMismatchError,
    UnknownNameError,
)
from nesypat.pattern import Refinement, build_pattern
from nesypat.taxonomy import default_taxonomy


@pytest.fixture(scope="module")
def t():
    return default_taxonomy()


def pat(t, name, labeled_nodes, edges=()):
    nodes = [(i, t.lookup(l)) for i, l in labeled_nodes]
    return build_pattern(name, t, nodes, list(edges))


@pytest.fixture()
def lib(t):
    model = pat(t, "Model", [("m0", "Model")])
    train = pat(t, "Train",
                [("s", "Symbol"), ("tr", "Training"), ("m", "Model")],
                [("s", "tr"), ("tr", "m")])
    sd = pat(t, "SemanticDeduction",
             [("s1", "Symbol"), ("d", "Deduction"), ("s2", "Symbol"),
              ("sm", "Semantic_Model")],
             [("s1", "d"), ("d", "s2"), ("sm", "d")])
    return Library(
        patterns={"Model": model, "Train": train, "SemanticDeduction": sd},
        refinements={
            "R1": Refinement("R1", model, train, {"m0": "m"}),
            "R2": Refinement("R2", model, sd, {"m0": "sm"}),
        },
    )


class TestBuildNetwork:
    def test_refinements_pull_in_their_patterns(self, lib):
        net = build_network("N", ["Train", "SemanticDeduction", "R1", "R2"], lib)
        assert set(net.patterns) == {"Model", "Train", "SemanticDeduction"}
        assert set(net.refinements) == {"R1", "R2"}

    def test_single_pattern_network(self, lib):
        net = build_network("One", ["Train"], lib)
        assert set(net.patterns) == {"Train"}
        assert not net.refinements

    def test_unknown_member_rejected(self, lib):
        with pytest.raises(UnknownNameError):
            build_network("N", ["Nope"], lib)

    def test_order_and_duplicates_irrelevant(self, lib):
        a = build_network("N", ["Train", "SemanticDeduction", "R1", "R2"], lib)
        b = build_network("N", ["R2", "R1", "SemanticDeduction", "Train", "Train"], lib)
        assert a == b

    def test_taxonomy_mismatch_rejected(self, t, lib):
        ext = t.extend("Class: Embedding SubClassOf: Transformation")
        foreign = pat(ext, "Foreign", [("e", "Embedding")])
        lib.patterns["Foreign"] = foreign
        with pytest.raises(TaxonomyMismatchError):
            build_network("N", ["Train", "Foreign"], lib)

    def test_conflicting_member_name_rejected(self, t, lib):
        # A pattern named like a refinement endpoint but structurally different.
        other_model = pat(t, "Model", [("z", "Symbol")])
        lib.patterns["Model"] = other_model
        with pytest.raises(NetworkTypeError):
            build_network("N", ["Model", "R1"], lib)

    def test_validate_rejects_nonmember_endpoints(self, t, lib):
        r1 = lib.refinements["R1"]
        broken = Network("N", {"Train": lib.patterns["Train"]}, {"R1": r1})
        with pytest.raises(NetworkTypeError):
            validate_network(broken)
