"""Toolkit for neural-symbolic design patterns.

Parses libraries of class-labeled pattern graphs written in a DOL-style
text language, checks refinements (label-tightening graph homomorphisms)
and networks for well-formedness against an ontology-derived class
taxonomy, and computes pattern combinations by gluing networks along
their refinements.
"""

from .catalog import Catalog, load_catalog
from .colimit import (
    CombinationResult,
    Library,
    Network,
    build_network,
    combination_result,
    combine,
    evaluate_combines,
)
from .dsl import Document, emit_dsl, parse, resolve
from .emitters import (
    AboxTriples,
    emit_abox,
    emit_dot,
    emit_json,
    emit_manchester,
    pattern_from_json,
)
from .errors import (
    AmbiguousRefinementError,
    CatalogMissError,
    CycleError,
    DegenerateLoopError,
    Diagnostic,
    DuplicateNameError,
    DuplicateNodeError,
    InvalidRefinementError,
    LabelMismatchError,
    NesyError,
    NetworkTypeError,
    NoRefinementError,
    ParseError,
    SearchBudgetError,
    SelfLoopError,
    TaxonomyMismatchError,
    UndefinedColimitError,
    UnknownClassError,
    UnknownLabelError,
    UnknownNameError,
    UnknownNodeError,
)
from .pattern import (
    Pattern,
    PatternNode,
    Refinement,
    Violation,
    build_pattern,
    check_refinement,
    find_homomorphisms,
    infer_refinement,
    isomorphic,
)
from .taxonomy import (
    ClassRef,
    Taxonomy,
    default_taxonomy,
    parse_taxonomy,
)

__version__ = "0.1.0"

__all__ = [
    "AboxTriples", "AmbiguousRefinementError", "Catalog", "CatalogMissError",
    "ClassRef", "CombinationResult", "CycleError",
    "DegenerateLoopError", "Diagnostic", "Document", "DuplicateNameError",
    "DuplicateNodeError", "InvalidRefinementError", "LabelMismatchError",
    "Library", "NesyError", "Network", "NetworkTypeError", "NoRefinementError",
    "ParseError", "Pattern", "PatternNode", "Refinement", "SearchBudgetError",
    "SelfLoopError",
    "Taxonomy", "TaxonomyMismatchError", "UndefinedColimitError",
    "UnknownClassError", "UnknownLabelError", "UnknownNameError",
    "UnknownNodeError", "Violation",
    "build_network", "build_pattern", "check_refinement", "combination_result",
    "combine", "default_taxonomy", "emit_abox", "emit_dot", "emit_dsl",
    "emit_json", "emit_manchester", "evaluate_combines", "find_homomorphisms",
    "infer_refinement", "isomorphic", "load_catalog", "parse",
    "parse_taxonomy", "pattern_from_json", "resolve",
]
