"""The Library: everything one parsed document declares."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnknownNameError
from .network import Network
from .pattern import Pattern
from .refinement import Refinement
from .taxonomy import Taxonomy


@dataclass
class Library:
    """Resolved content of one document.

    ``taxonomies`` is keyed by the normalized ontology-reference text of
    the data clauses that produced each taxonomy.  ``combine_defs`` maps a
    pattern name to the network it combines.  A combine-defined name that
    is also in ``patterns`` counts as materialized; ``pattern()``
    materializes one into ``patterns`` on first use, as resolving does for
    every combine-defined pattern a later declaration references.
    ``colimit.evaluate_combines`` materializes all of them into a copy.
    """

    taxonomies: dict[str, Taxonomy] = field(default_factory=dict)
    patterns: dict[str, Pattern] = field(default_factory=dict)
    refinements: dict[str, Refinement] = field(default_factory=dict)
    networks: dict[str, Network] = field(default_factory=dict)
    combine_defs: dict[str, str] = field(default_factory=dict)

    def has_pattern(self, name: str) -> bool:
        return name in self.patterns or name in self.combine_defs

    def pattern(self, name: str) -> Pattern:
        if name not in self.patterns and name in self.combine_defs:
            from .colimit import _evaluate  # colimit imports this module
            _evaluate(self, (name,), self.patterns)
        try:
            return self.patterns[name]
        except KeyError:
            raise UnknownNameError(f"unknown pattern {name!r}") from None
