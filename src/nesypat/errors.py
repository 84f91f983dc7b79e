"""Exception hierarchy and diagnostic records shared by all modules."""

from __future__ import annotations

from typing import NamedTuple


def _positions(text: str):
    """A function from an offset into ``text`` to its 1-based
    ``(line, col)``: only ``"\\n"`` starts a line, and a column counts
    characters from the start of its line.  Offsets asked in increasing
    order cost only the text between them; a smaller offset starts again
    from the top."""
    seen, line, line_start = 0, 1, 0  # line_start: offset of line's first char

    def at(offset: int) -> tuple[int, int]:
        nonlocal seen, line, line_start
        if offset < seen:
            seen, line, line_start = 0, 1, 0
        last_nl = text.rfind("\n", seen, offset)
        if last_nl >= 0:
            line += text.count("\n", seen, last_nl) + 1
            line_start = last_nl + 1
        seen = offset
        return line, offset - line_start + 1

    return at


class Diagnostic(NamedTuple):
    """One user-facing message, printable as ``file:line:col: severity: message``."""

    severity: str  # "error" or "warning"
    message: str
    line: int = 0
    col: int = 0
    file: str = "<input>"

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.severity}: {self.message}"


class NesyError(Exception):
    """Base class for all toolkit errors.

    ``line``/``col`` are 1-based source positions when the error can be
    traced back to input text, else None.  ``source_name`` names the
    file that position lies in when it is not the document being read,
    such as a catalog-mapped ontology.  ``decl`` names the pattern
    declaration whose evaluation failed, when known.
    """

    def __init__(self, message: str, *, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.source_name: str | None = None
        self.decl: str | None = None

    def at(self, line: int | None, col: int | None) -> "NesyError":
        """Attach a source position (kept if already set) and return self."""
        if self.line is None:
            self.line = line
            self.col = col
        return self

    def in_file(self, name: str) -> "NesyError":
        """Record the file a positioned error lies in and return self."""
        if self.line is not None:
            self.source_name = name
        return self

    def in_decl(self, name: str) -> "NesyError":
        """Record the failing declaration, prefix its name to the message
        and return self."""
        self.decl = name
        self.message = f"{name}: {self.message}"
        self.args = (self.message,)
        return self


class ParseError(NesyError):
    """Malformed input text; position-annotated, with the expected-token set."""

    def __init__(self, message: str, *, line: int, col: int,
                 expected: tuple[str, ...] = ()):
        super().__init__(message, line=line, col=col)
        self.expected = expected


class CycleError(NesyError):
    """Subclass axioms form a cycle, so the class order is not a partial order."""


class UnknownClassError(NesyError):
    """A class name or reference is not part of the taxonomy at hand."""


class SelfLoopError(NesyError):
    """An edge from a node to itself, which simple graphs forbid."""


class UnknownLabelError(NesyError):
    """A node label is not a class of the pattern's taxonomy."""


class DuplicateNodeError(NesyError):
    """A node id is reused with a different label."""


class UnknownNodeError(NesyError):
    """An edge endpoint or map key references a node that was never declared."""


class UnknownNameError(NesyError):
    """A declaration references a pattern/refinement/network name that does not resolve."""


class DuplicateNameError(NesyError):
    """A pattern/refinement/network name is declared twice."""


class LabelMismatchError(NesyError):
    """A node identifier recurs with a different class token."""


class CatalogMissError(NesyError):
    """An ontology reference cannot be resolved through the catalog."""


class TaxonomyMismatchError(NesyError):
    """Two patterns that must share one taxonomy do not."""


class NetworkTypeError(NesyError):
    """A network edge is not a refinement between member patterns."""


class InvalidRefinementError(NesyError):
    """An explicitly declared node map violates the refinement conditions."""

    def __init__(self, message: str, violations=(), **kw):
        super().__init__(message, **kw)
        self.violations = tuple(violations)


class NoRefinementError(NesyError):
    """No valid refinement map exists between the two patterns."""


class SearchBudgetError(NesyError):
    """A map search took more steps than its fixed budget allows."""


class AmbiguousRefinementError(NesyError):
    """More than one valid refinement map exists; carries two witnesses."""

    def __init__(self, message: str, witnesses=(), **kw):
        super().__init__(message, **kw)
        self.witnesses = tuple(witnesses)


class UndefinedColimitError(NesyError):
    """A merged node class has no greatest common lower bound of its labels."""

    def __init__(self, message: str, members=(), labels=(), **kw):
        super().__init__(message, **kw)
        self.members = tuple(members)
        self.labels = tuple(labels)


class DegenerateLoopError(NesyError):
    """Quotienting merged both endpoints of an edge into a self-loop."""

    def __init__(self, message: str, members=(), **kw):
        super().__init__(message, **kw)
        self.members = tuple(members)
