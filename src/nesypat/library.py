"""The Library: everything one parsed document declares."""

from __future__ import annotations

from .errors import UnknownNameError
from .network import Network
from .pattern import Pattern
from .refinement import Refinement
from .taxonomy import Taxonomy


class Library:
    """Resolved content of one document.

    ``taxonomies`` is keyed by the normalized ontology-reference text of
    the data clauses that produced each taxonomy.  ``combine_defs`` maps a
    pattern name to the network it combines.  A combine-defined name that
    is also in ``patterns`` counts as materialized; ``pattern()``
    materializes one into ``patterns`` on first use, combining its network
    once with the member patterns it holds, as resolving does for every
    combine-defined pattern a later declaration references.
    ``colimit.evaluate_combines`` materializes all of them, in name order,
    into a copy.  Each map defaults to a new empty dict.
    """

    __slots__ = ("taxonomies", "patterns", "refinements", "networks",
                 "combine_defs")

    def __init__(self, taxonomies: dict[str, Taxonomy] | None = None,
                 patterns: dict[str, Pattern] | None = None,
                 refinements: dict[str, Refinement] | None = None,
                 networks: dict[str, Network] | None = None,
                 combine_defs: dict[str, str] | None = None):
        self.taxonomies = {} if taxonomies is None else taxonomies
        self.patterns = {} if patterns is None else patterns
        self.refinements = {} if refinements is None else refinements
        self.networks = {} if networks is None else networks
        self.combine_defs = {} if combine_defs is None else combine_defs

    def __repr__(self):
        return (f"Library({len(self.patterns)} patterns, "
                f"{len(self.refinements)} refinements, "
                f"{len(self.networks)} networks, "
                f"{len(self.combine_defs)} combine-defined)")

    def has_pattern(self, name: str) -> bool:
        return name in self.patterns or name in self.combine_defs

    def pattern(self, name: str) -> Pattern:
        if name not in self.patterns and name in self.combine_defs:
            from .colimit import _combine_def  # colimit imports this module
            self.patterns[name] = _combine_def(self, name)[0]
        try:
            return self.patterns[name]
        except KeyError:
            raise UnknownNameError(f"unknown pattern {name!r}") from None
