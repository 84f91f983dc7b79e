"""Resolution of ontology references (CURIEs and IRIs) to taxonomies."""

from __future__ import annotations

from pathlib import Path

from .errors import CatalogMissError, Diagnostic
from .taxonomy import Taxonomy, default_taxonomy, parse_taxonomy

#: IRIs served by the built-in route to the bundled taxonomy.
BUILTIN_IRIS = (
    "https://ontohub.org/meta/NeSyPatterns.omn",
    "https://ontohub.org/meta/NeSyPatterns",
)

_DEFAULT_PREFIXES = {"ontohub": "https://ontohub.org/meta/"}


class Catalog:
    """Maps CURIE prefixes to IRI bases and IRIs to local ontology files.

    IRIs without a file mapping fall back to the built-in route for the
    bundled pattern-element ontology; anything else is fetched over HTTP
    only when ``allow_fetch`` is set, and is a CatalogMissError otherwise.
    Both maps default to a new empty dict.
    """

    __slots__ = ("prefixes", "mappings", "allow_fetch", "_cache")

    def __init__(self, prefixes: dict[str, str] | None = None,
                 mappings: dict[str, str] | None = None,
                 allow_fetch: bool = False):
        self.prefixes = {} if prefixes is None else prefixes
        self.mappings = {} if mappings is None else mappings
        self.allow_fetch = allow_fetch
        self._cache: dict[str, Taxonomy] = {}

    def __repr__(self):
        return (f"Catalog(prefixes={self.prefixes!r}, "
                f"mappings={self.mappings!r}, allow_fetch={self.allow_fetch!r})")

    @classmethod
    def default(cls) -> "Catalog":
        return cls(prefixes=dict(_DEFAULT_PREFIXES))

    def expand(self, ref: str) -> str:
        """Expand a CURIE through the prefix table; IRIs pass through."""
        if "://" in ref or ref in self.mappings:
            return ref
        if ":" in ref:
            pfx, rest = ref.split(":", 1)
            if pfx in self.prefixes:
                return self.prefixes[pfx] + rest
            raise CatalogMissError(f"undeclared CURIE prefix {pfx!r} in {ref!r}")
        raise CatalogMissError(f"ontology reference {ref!r} is neither a "
                               f"CURIE with a known prefix nor an IRI")

    def resolve_taxonomy(self, ref: str,
                         diagnostics: list[Diagnostic] | None = None) -> Taxonomy:
        iri = self.expand(ref)
        if iri in self._cache:
            return self._cache[iri]
        if iri in self.mappings:
            path = Path(self.mappings[iri])
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as e:
                raise CatalogMissError(f"cannot read mapped file {path}: {e}")
            taxonomy = parse_taxonomy(text, diagnostics, source_name=str(path))
        elif iri in BUILTIN_IRIS:
            taxonomy = default_taxonomy()
        elif self.allow_fetch:
            taxonomy = self._fetch(iri, diagnostics)
        else:
            raise CatalogMissError(
                f"no catalog mapping for {iri!r} (fetching is disabled)")
        self._cache[iri] = taxonomy
        return taxonomy

    def _fetch(self, iri: str, diagnostics) -> Taxonomy:
        from urllib.request import urlopen

        try:
            with urlopen(iri, timeout=30) as resp:
                text = resp.read().decode("utf-8")
        except Exception as e:
            raise CatalogMissError(f"failed to fetch {iri!r}: {e}")
        return parse_taxonomy(text, diagnostics, source_name=iri)


def load_catalog(path) -> Catalog:
    """Read a catalog file: JSON with "prefixes", "mappings" and
    optionally "allow_fetch", a JSON boolean (default false).  Mapped
    paths must exist and be readable."""
    import json

    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as e:
        raise CatalogMissError(f"cannot read catalog {path}: {e}")
    except json.JSONDecodeError as e:
        raise CatalogMissError(f"malformed catalog {path}: {e}")
    if not isinstance(data, dict):
        raise CatalogMissError(f"malformed catalog {path}: expected a JSON object")
    prefixes = data.get("prefixes", {})
    mappings = data.get("mappings", {})
    allow_fetch = data.get("allow_fetch", False)
    if allow_fetch is not True and allow_fetch is not False:
        raise CatalogMissError(
            f"malformed catalog {path}: allow_fetch must be true or false")
    if (not isinstance(prefixes, dict)
            or not all(isinstance(v, str) for v in prefixes.values())
            or not isinstance(mappings, dict)
            or not all(isinstance(v, str) for v in mappings.values())):
        raise CatalogMissError(
            f"malformed catalog {path}: prefixes and mappings must map "
            f"strings to strings")
    base = path.parent
    resolved = {}
    for iri, target in mappings.items():
        target_path = Path(target)
        if not target_path.is_absolute():
            target_path = base / target_path
        if not target_path.is_file():
            raise CatalogMissError(
                f"catalog {path}: mapped file {target_path} is not readable")
        resolved[iri] = str(target_path)
    return Catalog(prefixes=dict(prefixes), mappings=resolved,
                   allow_fetch=allow_fetch)
