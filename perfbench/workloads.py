"""Seeded input generators for the four benchmark workloads.

Nothing here imports nesypat.  Every document's expected verdict and
every combined pattern's node and edge count is derived from the way
the document is built:

* a directed cycle has no homomorphic image in a DAG, so refining a
  k-cycle into a DAG has no refinement (``NoRefinementError``);
* a path of length k maps only onto walks of length k, so one such path
  among shorter decoy paths gives a unique refinement and two copies of
  it an ambiguous one (``AmbiguousRefinementError``);
* two sibling classes with no common subclass have no infimum, so
  gluing them gives ``UndefinedColimitError``;
* two classes on one chain meet at the lower one.

Why each workload exists (each is the other's idle case):

``deep_taxonomy``
    A deep subclass chain with a band of multiply inherited classes,
    built from a catalog-mapped ``.omn`` file in every document; one
    document in eight also extends it inline with a longer chain, a
    second, larger build.
    Taxonomy build and ``infimum`` dominate; parsing and refinement
    search are idle.
``refinement_search``
    Refinements without ``via`` maps, so every map is searched for:
    planted-unique, ambiguous and no-solution cases, the last being a
    directed k-cycle into a random DAG, where the backtracking search
    is exponential.  Small cycles finish within the limit; a few at the
    ROADMAP's sizes (8 -> 30, 9 -> 35) do not.  The unique cases also
    run the emitters and the emit_dsl -> parse -> resolve -> isomorphic
    round trip, and one document of the set combines a chain longer than
    the interpreter's recursion limit, the known emitter defect.  The
    taxonomy is the bundled 12-class one, so taxonomy work is trivial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

TOP = "NeSy_Pattern_Element"

BUILTIN = "ontohub:NeSyPatterns.omn"


@dataclass
class Case:
    """One generated document and what the program must answer on it."""

    text: str
    verdict: str = "ok"  # "ok" or the NesyError subclass name
    #: combine-defined pattern name -> (nodes, edges) of its combination
    combined: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: declaration index resolve fails on, when the verdict comes from it
    fail_decl: int | None = None
    #: run the emitters and the emit/parse/resolve round trip
    round_trip: bool = False
    #: seconds allowed, when not the workload's per-document limit
    limit: float | None = None


def rng_for(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _pattern(name: str, data: str, nodes, edges) -> str:
    """Source of a pattern with every node declared as ``id : Class``."""
    labels = dict(nodes)
    lines = [f"pattern {name} = data {data}"]
    lines += [f"  {n} : {c};" for n, c in nodes]
    lines += [f"  {a} : {labels[a]} -> {b} : {labels[b]};" for a, b in edges]
    lines.append("end")
    return "\n".join(lines)


# -- deep_taxonomy ----------------------------------------------------------------

DEEP_IRI = "urn:nesypat-bench:deep.omn"
DEEP_PREFIX = "deep"
DEEP_REF = "deep:deep.omn"


@dataclass
class DeepOntology:
    """A chain K1 < ... < K{depth} below the top plus band classes, each
    with two chain parents.  ``reach[b]`` is the deepest chain level a
    band class sits below (B <= K_i iff i <= reach[b])."""

    text: str
    depth: int
    reach: dict[str, int]


def deep_ontology(seed: int, depth: int = 200, band: int = 120) -> DeepOntology:
    rng = rng_for(seed, "deep_taxonomy-ontology", 0)
    lines = [f"Prefix: : <{DEEP_IRI}#>", f"Ontology: <{DEEP_IRI}>", "",
             f"Class: {TOP}", ""]
    for i in range(1, depth + 1):
        parent = f"K{i - 1}" if i > 1 else TOP
        lines += [f"Class: K{i}", f"    SubClassOf: {parent}", ""]
    reach = {}
    for j in range(band):
        a, b = rng.sample(range(1, depth + 1), 2)
        reach[f"B{j}"] = max(a, b)
        lines += [f"Class: B{j}", f"    SubClassOf: K{a}, K{b}", ""]
    return DeepOntology("\n".join(lines), depth, reach)


def deep_taxonomy_case(ont: DeepOntology, seed: int, index: int, *,
                       combines: int = 8, clash: bool = False,
                       extension: int = 0) -> Case:
    """Combines of three-node paths whose labels sit deep in the chain
    or in the band.  With ``extension`` the document also extends the
    ontology inline: that many new classes continue the chain below its
    deepest class (a second, larger build) and one more class sits below
    a chain class and a band class, glued through.  With ``clash`` a
    last combine glues two band classes, which have no common subclass."""
    rng = rng_for(seed, "deep_taxonomy", index)
    depth = ont.depth
    bands = sorted(ont.reach)
    blocks = ["logic NeSyPatterns"]
    combined: dict[str, tuple[int, int]] = {}
    path = [("i0", "i1"), ("i1", "i2")]
    for m in range(combines):
        # Abstract labels K_p; leg labels are deeper chain classes or band
        # classes below every chain label the node merges with.
        tops = sorted(rng.sample(range(depth // 2, depth - 10), 3))
        legs = []
        for _ in range(2):
            legs.append([rng.randint(p, depth) for p in tops])
        labels_per_node = []
        for k, p in enumerate(tops):
            deepest = max(leg[k] for leg in legs)
            below = [b for b in bands if ont.reach[b] >= deepest]
            use_band = below and rng.random() < 0.3
            labels_per_node.append((p, deepest, rng.choice(below) if use_band else None))
        name = f"M{m}"
        blocks.append(_pattern(f"{name}_a", DEEP_REF,
                               [(f"i{k}", f"K{p}") for k, p in enumerate(tops)], path))
        for j, leg in enumerate(legs):
            nodes = []
            for k, (p, deepest, band_cls) in enumerate(labels_per_node):
                cls = f"K{leg[k]}"
                if band_cls is not None and j == 1:
                    cls = band_cls
                nodes.append((f"i{k}", cls))
            blocks.append(_pattern(f"{name}_l{j}", DEEP_REF, nodes, path))
            blocks.append(f"refinement {name}_r{j} = {name}_a refined to "
                          f"{name}_l{j} via i0 |-> i0, i1 |-> i1, i2 |-> i2 end")
        blocks.append(f"network {name}_net = {name}_r0, {name}_r1 end")
        blocks.append(f"pattern {name} = combine {name}_net end")
        combined[name] = (3, 2)

    if extension:
        # Hyb sits below K_q and a band class b that is not below K_q, so
        # K_p, K_q and b meet only at Hyb.  The E chain continues K{depth}.
        b = rng.choice([x for x in bands if depth // 2 < ont.reach[x] < depth - 1])
        p = rng.randint(1, ont.reach[b])
        q = rng.randint(ont.reach[b] + 1, depth)
        frames = [f"Class: E{i} SubClassOf: {f'E{i - 1}' if i > 1 else f'K{depth}'}"
                  for i in range(1, extension + 1)]
        frames.append(f"Class: Hyb SubClassOf: K{q}, {b}")
        ext = f"{{ {DEEP_REF} then {' '.join(frames)} }}"
        blocks.append(_pattern("X_a", ext, [("x", f"K{p}")], []))
        blocks.append(_pattern("X_l0", ext, [("x", f"K{q}")], []))
        blocks.append(_pattern("X_l1", ext, [("x", b)], []))
        for j in range(2):
            blocks.append(f"refinement X_r{j} = X_a refined to X_l{j} via x |-> x end")
        blocks.append("network X_net = X_r0, X_r1 end")
        blocks.append("pattern X = combine X_net end")
        combined["X"] = (1, 0)
    verdict = "ok"
    if clash:
        u, v = rng.sample(bands, 2)
        top = rng.randint(1, min(ont.reach[u], ont.reach[v]))
        blocks.append(_pattern("Z_a", DEEP_REF, [("z", f"K{top}")], []))
        blocks.append(_pattern("Z_l0", DEEP_REF, [("z", u)], []))
        blocks.append(_pattern("Z_l1", DEEP_REF, [("z", v)], []))
        for j in range(2):
            blocks.append(f"refinement Z_r{j} = Z_a refined to Z_l{j} via z |-> z end")
        blocks.append("network Z_net = Z_r0, Z_r1 end")
        blocks.append("pattern Zclash = combine Z_net end")
        verdict = "UndefinedColimitError"
    return Case("\n".join(blocks) + "\n", verdict, combined)


def deep_taxonomy_round(ont: DeepOntology, seed: int, round_no: int,
                        size: int = 8, extension: int = 300,
                        **sizes) -> list[Case]:
    """One round of ``size`` documents; the seed picks the one that
    extends the ontology inline and another that ends in a clash."""
    ext, clash = rng_for(seed, "deep_taxonomy-round", round_no).sample(range(size), 2)
    return [deep_taxonomy_case(ont, seed, round_no * size + i, clash=(i == clash),
                               extension=extension if i == ext else 0, **sizes)
            for i in range(size)]


# -- refinement_search ------------------------------------------------------------

def _top_nodes(ids):
    return [(n, TOP) for n in ids]


def planted_path_case(seed: int, index: int, *, k: int = 8, n: int = 30,
                      copies: int = 1) -> Case:
    """A path of length k refined into a target holding ``copies`` paths
    of length k among decoy paths of length < k; all labels are top."""
    rng = rng_for(seed, "refinement_search", index)
    src_ids = [f"p{i}" for i in range(k + 1)]
    src_edges = list(zip(src_ids, src_ids[1:]))
    lengths = [k] * copies
    while sum(x + 1 for x in lengths) < n:
        room = n - sum(x + 1 for x in lengths)
        lengths.append(rng.randint(1, min(k - 1, room - 1)) if room > 1 else 0)
    order = list(range(n))
    rng.shuffle(order)
    ids = iter(f"t{i}" for i in order)
    tgt_nodes, tgt_edges = [], []
    for length in lengths:
        path = [next(ids) for _ in range(length + 1)]
        tgt_nodes += path
        tgt_edges += list(zip(path, path[1:]))
    blocks = ["logic NeSyPatterns",
              _pattern("Src", BUILTIN, _top_nodes(src_ids), src_edges),
              _pattern("Tgt", BUILTIN, _top_nodes(tgt_nodes), tgt_edges),
              "refinement R = Src refined to Tgt end",
              "network N = R end",
              "pattern C = combine N end"]
    text = "\n".join(blocks) + "\n"
    if copies == 1:
        # Every source node merges with its image: the target survives.
        return Case(text, combined={"C": (len(tgt_nodes), len(tgt_edges))},
                    round_trip=True)
    return Case(text, "AmbiguousRefinementError", fail_decl=2)


def cycle_into_dag_case(seed: int, index: int, *, k: int, n: int,
                        out_degree: int = 4) -> Case:
    """A directed k-cycle refined into a random n-node DAG (each node
    links to ``out_degree`` later nodes of a hidden topological order).
    A cycle's image is a closed walk, which a DAG has none of."""
    rng = rng_for(seed, "refinement_search", index)
    cyc = [f"c{i}" for i in range(k)]
    topo = [f"d{i}" for i in range(n)]
    rng.shuffle(topo)
    edges = []
    for i, a in enumerate(topo):
        later = topo[i + 1:]
        edges += [(a, b) for b in rng.sample(later, min(out_degree, len(later)))]
    blocks = ["logic NeSyPatterns",
              _pattern("Cyc", BUILTIN, _top_nodes(cyc),
                       list(zip(cyc, cyc[1:] + cyc[:1]))),
              _pattern("Dag", BUILTIN, _top_nodes(sorted(topo)), edges),
              "refinement R = Cyc refined to Dag end"]
    return Case("\n".join(blocks) + "\n", "NoRefinementError", fail_decl=2)


def long_chain_case(length: int = 1500) -> Case:
    """A chain of ``length`` nodes glued to a one-node pattern through a
    ``via`` map: the combination is the chain itself.  Parsing the chain
    alone takes about half the search limit, so this document gets a
    limit of its own, long enough to reach the emitters."""
    nodes = [(f"l{i}", ("Data", "Training")[i % 2]) for i in range(length)]
    blocks = ["logic NeSyPatterns",
              f"pattern Long = data {BUILTIN}\n  "
              + " -> ".join(f"{n} : {c}" for n, c in nodes) + ";\nend",
              _pattern("Head", BUILTIN, [("h", "Instance")], []),
              "refinement R = Head refined to Long via h |-> l0 end",
              "network N = R end",
              "pattern C = combine N end"]
    return Case("\n".join(blocks) + "\n", combined={"C": (length, length - 1)},
                round_trip=True, limit=2.0)


def refinement_round(seed: int, round_no: int, k: int = 8, n: int = 30,
                     cycle=(6, 20), **sizes) -> list[Case]:
    """Three unique and two ambiguous planted paths and two no-solution
    cycles small enough to finish within the limit."""
    base = round_no * 8
    cases = [planted_path_case(seed, base + i, k=k, n=n, copies=1 + i // 3)
             for i in range(5)]
    cases += [cycle_into_dag_case(seed, base + i, k=cycle[0], n=cycle[1])
              for i in (5, 6)]
    return cases


def refinement_cliffs(seed: int, cliffs=((8, 30), (8, 30), (9, 35), (9, 35)),
                      chain: int = 1500, **sizes) -> list[Case]:
    """The known defects, once per set: no-solution cycles at the
    ROADMAP's sizes, where the search is exponential, and a chain longer
    than the recursion limit."""
    cases = [cycle_into_dag_case(seed, 10_000 + i, k=k, n=n)
             for i, (k, n) in enumerate(cliffs)]
    return cases + [long_chain_case(chain)]


#: Tiny inputs for the smoke test: every code path, none of the cost.
SMOKE_SIZES = {
    "deep_taxonomy": {"combines": 3, "extension": 20},
    "deep_ontology": {"depth": 60, "band": 30},
    "refinement_search": {"k": 4, "n": 12, "cycle": (3, 8),
                          "cliffs": ((4, 10), (5, 12)), "chain": 1500},
}
