"""Entry points at 10^4 nodes or declarations, each with a wall bound
and a tracemalloc bound.

The wall bounds leave room for a slow CI machine and still sit well
under what a quadratic design takes: a reader that tokenized the rest
of the text again behind each `data` clause took 0.6 s for 500 and 3 s
for 1,000 of the declarations below (shared 2-vCPU VM).  The memory
bounds leave half again or more over the peaks measured on Python 3.11,
except where a comment gives a tighter one and why.
"""

import json
import time
import tracemalloc

from nesypat import (
    Catalog,
    combination_result,
    emit_abox,
    emit_dot,
    emit_dsl,
    emit_json,
    emit_manchester,
    evaluate_combines,
    isomorphic,
    parse,
    parse_taxonomy,
    resolve,
)


def measure(fn):
    """``fn()``'s result, the wall time of one call and the tracemalloc
    peak of another."""
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, wall, peak


def chain_document(n: int, labels=("Data", "Training")) -> str:
    return ("logic NeSyPatterns\npattern P = data ontohub:NeSyPatterns.omn\n"
            + " -> ".join(f"n{i} : {labels[i % len(labels)]}"
                          for i in range(n))
            + ";\nend\n")


def glued_chain_document(n: int) -> str:
    """An ``n``-chain joined to a one-node pattern by a `via` map and
    combined: the combination is the chain, one class merging two nodes."""
    return (chain_document(n)
            + "pattern H = data ontohub:NeSyPatterns.omn\n  h : Instance;\nend\n"
            "refinement R = H refined to P via h |-> n0 end\n"
            "network N = R end\npattern C = combine N end\n")


def clauses_document(n: int) -> str:
    """``n`` patterns, each with its own `data` clause; one in ten
    extends the ontology inline."""
    blocks = ["logic NeSyPatterns"]
    for i in range(n):
        if i % 10:
            data, cls = "ontohub:NeSyPatterns.omn", "Data"
        else:
            data = (f"{{ ontohub:NeSyPatterns.omn then Class: E{i} "
                    "SubClassOf: Model }")
            cls = f"E{i}"
        blocks.append(f"pattern P{i} = data {data}\n  a : {cls} -> b : Model;\nend")
    return "\n".join(blocks) + "\n"


def class_chain_text(n: int) -> str:
    """Manchester text of the chain K(n-1) < ... < K1 < K0."""
    return ("Prefix: : <urn:chain#>\nOntology: <urn:chain>\nClass: K0\n"
            + "\n".join(f"Class: K{i} SubClassOf: K{i - 1}" for i in range(1, n)))


class TestReader:
    def test_parse_10000_chain(self):
        # 0.02 s and a 2.3 MiB peak measured; 3.4 MiB when pattern
        # bodies were split into tokens.
        text = chain_document(10000)
        doc, wall, peak = measure(lambda: parse(text))
        refs = doc.declarations[0].chains[0].refs
        assert len(refs) == 10000
        assert refs[-1] == ("n9999", "Training", 3, 178871)
        assert wall < 2.0
        assert peak < 5 * 2**20

    def test_parse_emit_dsl_of_10000_chain(self):
        # The printed form lists each node, then each edge with both of
        # its ends: 3n - 2 = 29,998 node references.  0.11 s and an
        # 8.2 MiB peak measured; 0.17 s and 11.6 MiB when pattern bodies
        # were split into tokens.
        text = emit_dsl(resolve(parse(chain_document(10000)), Catalog.default()))
        doc, wall, peak = measure(lambda: parse(text))
        refs = [r for chain in doc.declarations[0].chains for r in chain.refs]
        assert len(refs) == 29998
        assert refs[-2:] == [("n9998", "Data", 20002, 3),
                             ("n9999", "Training", 20002, 19)]
        assert wall < 2.0
        assert peak < 13 * 2**20

    def test_parse_2000_data_clauses(self):
        # 0.06 s and a 1.4 MiB peak measured.
        text = clauses_document(2000)
        doc, wall, peak = measure(lambda: parse(text))
        decls = doc.declarations
        assert len(decls) == 2000
        assert sum(d.ont.extension is not None for d in decls) == 200
        last = decls[-1]
        assert (last.name, last.line, last.col) == ("P1999", 5999, 1)
        assert last.chains[0].refs[1][1:] == ("Model", 6000, 15)
        ont = decls[1990].ont
        assert ont.extension == "Class: E1990 SubClassOf: Model "
        assert (ont.line, ont.col, ont.ext_line, ont.ext_col) == (5972, 24, 5972, 54)
        assert wall < 2.0
        assert peak < 3 * 2**20


class TestIsomorphic:
    def test_10000_chain_against_its_round_trip(self):
        # Both directions: 0.009 s and a 96-byte peak measured.  Before
        # the identity on node ids was tried first, the map search built
        # n-bit domains for the n equally labeled nodes: 0.65 s and a
        # 40.0 MiB peak.
        lib = resolve(parse(chain_document(10000, ("Training",))),
                      Catalog.default())
        back = resolve(parse(emit_dsl(lib)), Catalog.default())
        p, q = lib.patterns["P"], back.patterns["P"]
        assert len(q.labels) == 10000 and len(q.edges) == 9999
        same, wall, peak = measure(lambda: (isomorphic(p, q), isomorphic(q, p)))
        assert same == (True, True)
        assert wall < 0.3
        assert peak < 2**20


class TestCombine:
    # 0.02-0.05 s and a 6.8-7.2 MiB peak measured on Python 3.10-3.13,
    # where a union-find find per lookup, an infimum per class and the
    # classes sorted by name took 0.05-0.1 s and 8.7-9.0 MiB.  Most of
    # the peak is the result itself (a one-member frozenset per class),
    # so the memory bound sits below the old peak instead of half again
    # over the new one.
    def test_evaluate_combines_of_10000_chain(self):
        lib = resolve(parse(glued_chain_document(10000)), Catalog.default())
        out, wall, peak = measure(lambda: evaluate_combines(lib))
        c = out.patterns["C"]
        assert (c.name, len(c.labels), len(c.edges)) == ("C", 10000, 9999)
        assert c.labels["H.h"].local_name == "Data"
        assert ("H.h", "P.n1") in c.edges
        assert wall < 1.0
        assert peak < 8.5 * 2**20

    def test_combination_result_of_10000_chain(self):
        lib = resolve(parse(glued_chain_document(10000)), Catalog.default())
        res, wall, peak = measure(lambda: combination_result(lib, "C"))
        assert res.pattern.name == "C"
        assert res.classes["H.h"] == {("H", "h"), ("P", "n0")}
        assert res.injections["P"]["n9999"] == "P.n9999"
        assert res.injections["H"] == {"h": "H.h"}
        assert len(res.classes) == 10000
        assert wall < 1.0
        assert peak < 8.5 * 2**20


class TestResolve:
    # 0.005 s and a 1.36 MiB peak measured for the chain, 0.01 s and
    # 1.36 MiB for its printed form, when the resolver builds the pattern
    # it has checked.  A second, validating pass over every node and edge
    # took 0.01 and 0.016 s with a 2.59 MiB peak for each, so the memory
    # bound sits below that old peak.
    def test_resolve_10000_chain(self):
        doc = parse(chain_document(10000))
        lib, wall, peak = measure(lambda: resolve(doc, Catalog.default()))
        p = lib.patterns["P"]
        assert (len(p.labels), len(p.edges)) == (10000, 9999)
        assert p.labels["n9999"].local_name == "Training"
        assert ("n9998", "n9999") in p.edges
        assert wall < 0.5
        assert peak < 2.2 * 2**20

    def test_resolve_emit_dsl_of_10000_chain(self):
        lib = resolve(parse(chain_document(10000)), Catalog.default())
        doc = parse(emit_dsl(lib))
        back, wall, peak = measure(lambda: resolve(doc, Catalog.default()))
        assert back.patterns["P"] == lib.patterns["P"]
        assert wall < 0.5
        assert peak < 2.2 * 2**20

    def test_resolve_infers_the_one_map_of_10000_chain(self):
        # 0.035 s and a 4.5 MiB peak measured.  The chain's labels
        # alternate, so its one map into the 2-cycle is forced by n0.
        doc = parse(chain_document(10000)
                    + "pattern L = data ontohub:NeSyPatterns.omn\n"
                    "  a : Data -> b : Training -> a : Data;\nend\n"
                    "refinement R = P refined to L end\n")
        lib, wall, peak = measure(lambda: resolve(doc, Catalog.default()))
        node_map = lib.refinements["R"].node_map
        assert len(node_map) == 10000
        assert (node_map["n0"], node_map["n9999"]) == ("a", "b")
        assert set(node_map.values()) == {"a", "b"}
        assert wall < 1.0
        assert peak < 7 * 2**20


class TestEmit:
    @staticmethod
    def chain():
        return resolve(parse(chain_document(10000)), Catalog.default())

    def test_emit_json_of_10000_chain(self):
        # 0.02 s and a 5.6 MiB peak measured.
        p = self.chain().patterns["P"]
        text, wall, peak = measure(lambda: emit_json(p))
        obj = json.loads(text)
        assert (len(obj["nodes"]), len(obj["edges"])) == (10000, 9999)
        assert obj["nodes"][-1] == {"id": "n9999", "label": "Training"}
        assert wall < 1.0
        assert peak < 8.5 * 2**20

    def test_emit_dot_of_10000_chain(self):
        # 0.02-0.03 s and a 3.1 MiB peak measured.
        p = self.chain().patterns["P"]
        text, wall, peak = measure(lambda: emit_dot(p))
        lines = text.splitlines()
        assert len(lines) == 20001
        assert lines[1] == '  "n0" [label="n0 : Data", shape=box];'
        assert lines[-2] == '  "n9998" -> "n9999";'
        assert wall < 1.0
        assert peak < 4.7 * 2**20

    def test_emit_abox_of_10000_chain(self):
        # 0.03 s and a 4.7 MiB peak measured.
        p = self.chain().patterns["P"]
        abox, wall, peak = measure(lambda: emit_abox(p))
        assert (len(abox.memberships), len(abox.links)) == (10000, 9999)
        assert abox.lines[:4] == ("n0 : Data", "providesInput(n0,n1)",
                                  "n1 : Training", "hasOutput(n1,n2)")
        assert abox.lines[-1] == "n9999 : Training"
        assert wall < 1.0
        assert peak < 7 * 2**20

    def test_emit_dsl_of_10000_chain(self):
        # 0.015 s and a 2.3 MiB peak measured.
        lib = self.chain()
        text, wall, peak = measure(lambda: emit_dsl(lib))
        lines = text.splitlines()
        assert len(lines) == 20003
        assert lines[-2:] == ["  n9998 : Data -> n9999 : Training;", "end"]
        assert wall < 1.0
        assert peak < 3.5 * 2**20


class TestTaxonomy:
    def test_parse_taxonomy_of_10000_class_chain(self):
        # 0.1 s and a 11.9 MiB peak measured, most of it the classes'
        # down-sets (n^2 / 2 bits).
        text = class_chain_text(10000)
        t, wall, peak = measure(lambda: parse_taxonomy(text))
        k0, k9999 = t.lookup("K0"), t.lookup("K9999")
        assert len(t.classes) == 10000 and t.top == k0
        assert t.leq(k9999, k0) and not t.leq(k0, k9999)
        assert wall < 2.0
        assert peak < 18 * 2**20

    def test_parse_taxonomy_of_10000_class_chain_by_tokens(self):
        # An Annotations entry in the first class frame sends all the
        # text after the header to the token walk.  0.09-0.19 s and a
        # 12.0 MiB peak measured (2 vCPUs, Python 3.11).  The bounds are
        # half again over the peak and over the slowest run at the 1.8x
        # slowdown a shared machine shows for seconds at a time.
        text = class_chain_text(10000).replace(
            "Class: K0\n", 'Class: K0 Annotations: rdfs:comment "root"\n', 1)

        def read():
            diags = []
            return parse_taxonomy(text, diags), diags

        (t, diags), wall, peak = measure(read)
        assert [(d.line, d.col, d.message) for d in diags] == [
            (3, 11, "Annotations entries are skipped")]
        k0, k9999 = t.lookup("K0"), t.lookup("K9999")
        assert len(t.classes) == 10000 and t.top == k0
        assert t.leq(k9999, k0) and not t.leq(k0, k9999)
        assert wall < 0.5
        assert peak < 18 * 2**20

    def test_emit_manchester_of_10000_class_chain(self):
        # 0.05-0.07 s and a 2.8 MiB peak measured.
        t = parse_taxonomy(class_chain_text(10000))
        text, wall, peak = measure(lambda: emit_manchester(t))
        lines = text.splitlines()
        assert len(lines) == 30000
        assert lines[:3] == ["Prefix: : <urn:chain#>", "", "Class: K0"]
        assert lines[-2:] == ["Class: K9999", "    SubClassOf: K9998"]
        assert wall < 1.0
        assert peak < 4.2 * 2**20
