"""Command-line front end: check documents, combine patterns, infer maps.

Results go to standard out; every diagnostic goes to standard error as
``file:line:col: severity: message``, but for a failure to read the
document or the catalog file, which has no place in the document.  Exit
codes: 0 on success, 1 when a document fails a check (or, reported as an
internal error, when the toolkit itself fails), 2 on I/O or catalog
failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .catalog import Catalog, load_catalog
from .colimit import Library, combination_result, evaluate_combines
from .dsl import _pattern_positions, emit_dsl, parse, resolve
from .emitters import emit_abox, emit_dot, emit_json
from .errors import CatalogMissError, Diagnostic, NesyError
from .pattern import infer_refinement

FORMATS = ("dot", "json", "dsl", "abox")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_IO = 2

#: The default ``Diagnostic.file``: a message placed in the document itself.
_DOCUMENT = "<input>"


def _print_diag(err, path: str, d: Diagnostic) -> None:
    """Print ``d`` against its own file, or against the document at
    ``path`` when it names none."""
    print(d._replace(file=path) if d.file == _DOCUMENT else d, file=err)


def _error_diag(e: NesyError, fallback: tuple[int, int] = (1, 1)) -> Diagnostic:
    line = e.line if e.line is not None else fallback[0]
    col = e.col if e.col is not None else fallback[1]
    return Diagnostic("error", e.message, line, col, e.source_name or _DOCUMENT)


def _run(path: str, catalog: Catalog, err, action) -> int:
    """Read, parse and resolve a document, print its warnings, then call
    ``action(lib, positions)``, where ``positions`` maps each pattern name
    to its declaration; map every failure to a diagnostic and an exit code.

    When resolving fails, the warnings gathered so far are printed before
    its error.  An error from ``action`` is placed at the declaration of
    the pattern it arose in, else at 1:1.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        print(f"nesypat: error: cannot read {path}: {e}", file=err)
        return EXIT_IO
    diagnostics: list[Diagnostic] = []  # the warnings, then any error
    try:
        doc = parse(text, source_name=path)
        lib = resolve(doc, catalog, diagnostics=diagnostics)
    except NesyError as e:  # a catalog miss is placed at its data clause
        diagnostics.append(_error_diag(e))
        return EXIT_IO if isinstance(e, CatalogMissError) else EXIT_CHECK_FAILED
    finally:
        for d in diagnostics:
            _print_diag(err, path, d)
    positions = _pattern_positions(doc)
    try:
        action(lib, positions)
    except NesyError as e:
        _print_diag(err, path, _error_diag(e, positions.get(e.decl, (1, 1))))
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_check(path: str, catalog: Catalog, out=None, err=None) -> int:
    """Parse and resolve a document, check every refinement and network,
    and evaluate all combine-definitions."""
    return _run(path, catalog, err or sys.stderr,
                lambda lib, positions: evaluate_combines(lib))


def cmd_combine(path: str, pattern_name: str, fmt: str, catalog: Catalog,
                out=None, err=None) -> int:
    """Materialize one pattern (combining it if combine-defined) and print
    it in the requested format."""
    out = out or sys.stdout
    err = err or sys.stderr
    if fmt not in FORMATS:
        print(f"nesypat: error: unknown format {fmt!r}", file=err)
        return EXIT_CHECK_FAILED

    def show(lib: Library, positions) -> None:
        if pattern_name in lib.combine_defs:
            payload = combination_result(lib, pattern_name)
            pattern = payload.pattern
        else:
            pattern = payload = lib.pattern(pattern_name)
        if fmt == "dot":
            out.write(emit_dot(pattern))
        elif fmt == "json":
            out.write(emit_json(payload))
        elif fmt == "dsl":
            out.write(emit_dsl(Library(taxonomies=dict(lib.taxonomies),
                                       patterns={pattern.name: pattern})))
        else:
            abox_warnings: list[Diagnostic] = []
            line, col = positions[pattern_name]
            try:
                rendered = emit_abox(pattern, abox_warnings).render()
            except NesyError as e:
                raise e.at(line, col)
            for w in abox_warnings:
                _print_diag(err, path, w._replace(line=line, col=col))
            out.write(rendered)

    return _run(path, catalog, err, show)


def cmd_infer(path: str, from_name: str, to_name: str, catalog: Catalog,
              out=None, err=None) -> int:
    """Infer the unique refinement map between two patterns of a document."""
    out = out or sys.stdout

    def show(lib: Library, positions) -> None:
        src = lib.pattern(from_name)
        tgt = lib.pattern(to_name)
        refinement = infer_refinement(f"{from_name}->{to_name}", src, tgt)
        for a, b in sorted(refinement.node_map.items()):
            print(f"{a} |-> {b}", file=out)

    return _run(path, catalog, err or sys.stderr, show)


def _make_catalog(args) -> Catalog:
    path = args.catalog or os.environ.get("NESY_CATALOG")
    catalog = load_catalog(path) if path else Catalog.default()
    if args.allow_fetch:
        catalog.allow_fetch = True
    return catalog


def build_arg_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--catalog", metavar="PATH",
                        help="catalog file mapping prefixes and ontology IRIs "
                             "(default: $NESY_CATALOG or the built-in catalog)")
    common.add_argument("--allow-fetch", action="store_true",
                        help="fetch unmapped ontology IRIs over HTTP")
    parser = argparse.ArgumentParser(
        prog="nesypat",
        description="Check, combine and query neural-symbolic design "
                    "pattern documents.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("check", parents=[common],
                       help="check a document for well-formedness")
    p.add_argument("file")
    p = sub.add_parser("combine", parents=[common],
                       help="materialize a pattern and print it")
    p.add_argument("file")
    p.add_argument("--pattern", required=True, metavar="NAME")
    p.add_argument("--format", choices=FORMATS, default="json")
    p = sub.add_parser("infer", parents=[common],
                       help="infer the refinement map between two patterns")
    p.add_argument("file")
    p.add_argument("--from", dest="from_name", required=True, metavar="P")
    p.add_argument("--to", dest="to_name", required=True, metavar="Q")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        catalog = _make_catalog(args)
        if args.command == "check":
            return cmd_check(args.file, catalog)
        if args.command == "combine":
            return cmd_combine(args.file, args.pattern, args.format, catalog)
        return cmd_infer(args.file, args.from_name, args.to_name, catalog)
    except CatalogMissError as e:
        print(f"nesypat: error: {e.message}", file=sys.stderr)
        return EXIT_IO
    except Exception as e:  # a defect, not bad input: one line, no traceback
        print(f"nesypat: internal error: {type(e).__name__}: {e}",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
