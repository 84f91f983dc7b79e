"""Runs one workload in a fresh process and prints its raw samples.

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--smoke]
    python perfbench/worker.py --probe

``run.py`` starts this with ``src`` on PYTHONPATH and turns the JSON
object printed last into metrics.  The loop is closed with one client:
each document starts after the previous verdict.  The seed fixes a set
of documents, which the worker passes over a fixed number of times
(SECONDS over the workload's nominal pass time); each document reports
its median pass.  ``--probe`` only times the set-up (import nesypat,
build the default catalog and taxonomy).

Times are CPU time of this process (``time.process_time``), scaled to
a fixed machine speed.  The work is single-threaded and reads only a few
small files, so CPU time is its cost without the time the machine gives
to other processes.  But a shared machine also runs the same
instructions up to 1.8 times slower for seconds at a time, when other
tenants load the core and its caches.  So a fixed calibration job runs
before every document: pure Python shaped like the workloads' hot loops
(see ``calibration``), which calls no nesypat code, so no change to
nesypat moves it.  A document's time is multiplied by
CALIBRATION_NOMINAL_S over the median calibration time of the
documents around it.
"""

import os
import sys
import time


def setup():
    """Import nesypat and build what every command starts with.

    Runs before the benchmark's own modules are imported, so that the
    import time includes every module nesypat pulls in.  Returns
    (import seconds, set-up seconds).
    """
    t0 = time.process_time()
    import nesypat
    t1 = time.process_time()
    nesypat.Catalog.default()
    nesypat.default_taxonomy()
    return t1 - t0, time.process_time() - t0


if __name__ == "__main__":
    IMPORT_S, SETUP_S = setup()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import nesypat as nz  # noqa: E402  (already imported by setup)
from nesypat.dsl import NetworkDecl, PatternDecl, RefinementDecl  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Per-document limit in CPU seconds at the nominal speed (see
#: CALIBRATION_NOMINAL_S); a verdict after it counts as undecided.  The
#: refinement limit sits between the 6 -> 20 and 8 -> 30 no-solution
#: searches on the seed commit (tens of milliseconds and over 0.2 s), so
#: the exponential cliff shows in decided_share.
LIMITS = {"deep_taxonomy": 30.0, "refinement_search": 0.1}
#: The wall-clock alarm that stops a document fires at this many times
#: its CPU limit.
WALL_SLACK = 2.0
#: Rounds of documents in a run's fixed set.  Each set holds over a
#: hundred documents and fewer than ten undecided ones, so the tail
#: percentile (ten samples beyond it) is a real upper percentile and
#: lands on a document that finished: on deep_taxonomy among the
#: thirteen inline extensions, on refinement_search among the 32
#: 6 -> 20 searches.
SET_ROUNDS = {"deep_taxonomy": 13, "refinement_search": 16}
#: Wall seconds of one pass over the set on the seed commit (2-vCPU Xeon
#: VM).  A run makes --seconds / PASS_SECONDS passes, a count that does
#: not depend on the speed of the code measured: a faster build gets no
#: extra passes to take its medians over.
PASS_SECONDS = {"deep_taxonomy": 10.0, "refinement_search": 4.0}
#: A run stops early once its wall time passes this many times
#: --seconds, so a much slower build still ends within the run limit.
OVERRUN = 2.2
#: Classes in the calibration job, and its CPU seconds at the speed all
#: times are scaled to (its usual time on an idle 2-vCPU Xeon VM).
CALIBRATION_CLASSES = 80
CALIBRATION_NOMINAL_S = 0.003
#: Documents on each side whose calibration times a document is scaled by.
CALIBRATION_WINDOW = 5


@dataclass(frozen=True)
class _Class:
    name: str


def calibration() -> float:
    """CPU seconds of the calibration job, in two halves shaped like the
    two workloads' hot loops: the ancestor sets of a chain of classes,
    found by depth-first search as a taxonomy build does, and a
    recursive count of the simple paths of four edges in a small DAG,
    as a backtracking map search does."""
    start = time.process_time()
    chain = [_Class(f"C{i}") for i in range(CALIBRATION_CLASSES)]
    parents = {c: {chain[i - 1]} if i else set() for i, c in enumerate(chain)}
    up = {}
    for c in chain:
        seen = {c}
        stack = list(parents[c])
        while stack:
            p = stack.pop()
            if p not in seen:
                seen.add(p)
                stack.extend(parents[p])
        up[c] = frozenset(seen)
    dag = chain[:30]
    succ = {c: [dag[j] for j in (i + 1, i + 2, i + 5) if j < len(dag)]
            for i, c in enumerate(dag)}

    def paths(node, depth, used):
        if depth == 4:
            return 1
        total = 0
        for nxt in succ[node]:
            if nxt not in used:
                used.add(nxt)
                total += paths(nxt, depth + 1, used)
                used.discard(nxt)
        return total

    for c in dag:
        paths(c, 0, {c})
    return time.process_time() - start


def typical(times: list[float]) -> float:
    """Median of the calibration times above zero, or the nominal time
    if none is: a clock that did not advance must not be divided by."""
    return statistics.median([t for t in times if t > 0] or [CALIBRATION_NOMINAL_S])


def scale(runs: list[list[dict]]) -> None:
    """Set each sample's ``scaled`` time: its CPU time at the nominal
    machine speed, judged by the calibration runs next to it."""
    seq = [s for run in runs for s in run]
    refs = [s["calibration"] for s in seq]
    w = CALIBRATION_WINDOW
    for i, s in enumerate(seq):
        speed = CALIBRATION_NOMINAL_S / typical(refs[max(0, i - w):i + w + 1])
        s["scaled"] = s["seconds"] * speed


class DocTimeout(BaseException):
    """Raised by the interval timer when a document passes its limit."""


class WrongAnswer(Exception):
    """An output differs from the answer derived by the generator."""


class Deadline:
    """Interrupts the main thread after a number of wall seconds
    (SIGALRM).  Not a CPU-time timer: while ITIMER_PROF is armed, Linux
    advances the process CPU clock only at scheduler ticks, which would
    round every document's time to a few milliseconds."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise DocTimeout()

    @contextmanager
    def __call__(self, seconds: float):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


class Runner:
    def __init__(self, workload: str, seed: int, tmp: Path, smoke: bool = False):
        self.sizes = workloads.SMOKE_SIZES[workload] if smoke else {}
        self.workload = workload
        self.seed = seed
        self.limit = LIMITS[workload]
        self.deadline = Deadline()
        self.recent: list[float] = []  # the last calibration times
        self.tracer = Tracer(False)
        self.catalog_path = None
        self.deep = None
        if workload == "deep_taxonomy":
            self.deep = workloads.deep_ontology(
                seed, **(workloads.SMOKE_SIZES["deep_ontology"] if smoke else {}))
            omn = tmp / "deep.omn"
            omn.write_text(self.deep.text, encoding="utf-8")
            self.catalog_path = tmp / "catalog.json"
            self.catalog_path.write_text(json.dumps({
                "prefixes": {workloads.DEEP_PREFIX: "urn:nesypat-bench:"},
                "mappings": {workloads.DEEP_IRI: str(omn)}}), encoding="utf-8")
        self.items = [item for r in range(SET_ROUNDS[workload])
                      for item in self.round(r)]
        if workload == "refinement_search":
            self.items += workloads.refinement_cliffs(seed, **self.sizes)

    def catalog(self):
        """A fresh catalog per document: the CLI starts cold, too."""
        if self.workload == "deep_taxonomy":
            return nz.load_catalog(self.catalog_path)
        return nz.Catalog.default()

    # -- the loop -----------------------------------------------------------

    def round(self, r: int):
        """The documents of round ``r``."""
        if self.workload == "deep_taxonomy":
            return workloads.deep_taxonomy_round(self.deep, self.seed, r,
                                                 **self.sizes)
        return workloads.refinement_round(self.seed, r, **self.sizes)

    def run(self, passes: int, seconds: float) -> list[list[dict]]:
        """Pass over the document set ``passes`` times, or fewer if the
        wall time passes OVERRUN times ``seconds``; at least once.
        Returns the samples of each pass."""
        runs: list[list[dict]] = []
        t0 = time.perf_counter()
        while not runs or (len(runs) < passes and
                           time.perf_counter() - t0 <= OVERRUN * seconds):
            runs.append([self.run_item(item) for item in self.items])
        return runs

    def run_item(self, item) -> dict:
        # Each document starts on a collected heap, as in a fresh CLI
        # process; otherwise one document's garbage slows the next.
        gc.collect()
        reference = calibration()
        self.recent = self.recent[-2 * CALIBRATION_WINDOW:] + [reference]
        wall = time.perf_counter()
        start = time.process_time()
        state: dict = {}
        wrong = None
        limit = item.limit or self.limit
        # The limit holds at the nominal speed, like the scaled times.  It
        # is checked on CPU time afterwards; the alarm only stops a
        # document that has run well past it.
        cpu_limit = limit * typical(self.recent) / CALIBRATION_NOMINAL_S
        try:
            with self.deadline(WALL_SLACK * cpu_limit):
                got = self.pipeline(item, state)
        except DocTimeout:
            got = "timeout"
        except WrongAnswer as e:
            got, wrong = "wrong", str(e)
        except nz.NesyError as e:
            got = type(e).__name__
        except Exception as e:  # a crash is a missing answer, not a verdict
            got = "crash:" + type(e).__name__
        seconds = time.process_time() - start
        if wrong is None and got != item.verdict and not got.startswith(
                ("timeout", "crash:")):
            wrong = f"verdict {got}, expected {item.verdict}"
        if self.tracer.enabled:
            self.replay(item, state)
        self.tracer.doc += 1
        return {"seconds": seconds, "calibration": reference,
                "wall": time.perf_counter() - wall,
                "outcome": got, "wrong": wrong, "limit": limit,
                "decided": wrong is None and got == item.verdict
                and seconds <= cpu_limit}

    # -- in-process pipeline ----------------------------------------------------

    def pipeline(self, case, st: dict) -> str:
        """parse -> resolve -> evaluate_combines, as ``nesypat check``
        does; round-trip documents also run the emitters on every
        combination and the emit_dsl -> parse -> resolve -> isomorphic
        round trip."""
        tr = self.tracer
        with tr.span("dsl.parse"):
            doc = nz.parse(case.text)
        tr.count("dsl.parse.kib", len(case.text) / 1024)
        with tr.span("dsl.resolve") as rid:
            st["resolves"] = [(doc, rid, None)]
            lib = nz.resolve(doc, self.catalog(), diagnostics=[])
        st["resolves"] = [(doc, rid, lib)]
        with tr.span("colimit.evaluate_combines") as eid:
            st["evaluates"] = [(eid, lib, None)]
            ev = nz.evaluate_combines(lib)
        st["evaluates"] = [(eid, lib, ev)]
        for name in sorted(lib.combine_defs):
            self.check_counts(case, name, ev.patterns[name])
        if set(case.combined) != set(lib.combine_defs):
            raise WrongAnswer("combine-defined patterns differ from the generator's")
        if not case.round_trip:
            return "ok"

        for name in sorted(lib.combine_defs):
            with tr.span("colimit.combination_result"):
                res = nz.combination_result(lib, name)
            self.check_counts(case, name, res.pattern)
            with tr.span("emitters.emit_json"):
                nz.emit_json(res)
            with tr.span("emitters.emit_dot"):
                nz.emit_dot(res.pattern)
            with tr.span("emitters.emit_abox"):
                nz.emit_abox(res.pattern, [])
        with tr.span("dsl.emit_dsl"):
            text = nz.emit_dsl(lib)
        with tr.span("dsl.parse"):
            doc2 = nz.parse(text)
        tr.count("dsl.parse.kib", len(text) / 1024)
        with tr.span("dsl.resolve") as rid2:
            lib2 = nz.resolve(doc2, self.catalog(), diagnostics=[])
        st["resolves"].append((doc2, rid2, lib2))
        with tr.span("colimit.evaluate_combines") as eid2:
            ev2 = nz.evaluate_combines(lib2)
        st["evaluates"].append((eid2, lib2, ev2))
        for name in sorted(ev.patterns):
            if name not in ev2.patterns:
                raise WrongAnswer(f"round trip lost pattern {name}")
            with tr.span("pattern.isomorphic"):
                same = nz.isomorphic(ev.patterns[name], ev2.patterns[name])
            if not same:
                raise WrongAnswer(f"round trip of {name} is not isomorphic")
        return "ok"

    @staticmethod
    def check_counts(case, name: str, pattern) -> None:
        got = (len(pattern.nodes), len(pattern.edges))
        if case.combined.get(name) != got:
            raise WrongAnswer(f"{name} has (nodes, edges) {got}, "
                              f"expected {case.combined.get(name)}")

    # -- replays (traced run only) ---------------------------------------------------

    def replay(self, case, st: dict) -> None:
        """Call again, each under its own span, the layer functions that
        resolve and evaluate_combines call internally, on the same inputs."""
        for doc, rid, lib in st.get("resolves", ()):
            if rid is not None:
                self.replay_resolve(rid, doc, lib, case.fail_decl)
        for eid, lib, ev in st.get("evaluates", ()):
            if eid is not None:
                self.replay_evaluate(eid, lib, ev)

    def replay_resolve(self, rid, doc, lib, fail_decl) -> None:
        tr = self.tracer
        decls = doc.declarations
        if lib is None:
            # resolve raised: rebuild the library it had before the
            # failing declaration, untimed, and replay up to that one.
            if fail_decl is None:
                return
            try:
                lib = nz.resolve(nz.Document(decls[:fail_decl]), self.catalog())
            except nz.NesyError:
                return
            decls = decls[:fail_decl + 1]
        bases: dict = {}
        extended: set = set()
        for d in decls:
            if isinstance(d, PatternDecl) and d.ont is not None:
                base = self.replay_base(rid, d.ont.base, bases)
                key = d.ont.key()
                if d.ont.extension is not None and key not in extended:
                    extended.add(key)
                    ext = d.ont.extension
                    with tr.span("taxonomy.build", parent=rid):
                        t = base.extend(ext, [])
                    self.note_taxonomy(t, lambda: base.extend(ext, []))
            elif isinstance(d, RefinementDecl):
                self.replay_refinement(rid, d, lib)
            elif isinstance(d, NetworkDecl) and d.name in lib.networks:
                with tr.span("network.build_network", parent=rid):
                    nz.build_network(d.name, d.members, lib)
        for name, netname in sorted(lib.combine_defs.items()):
            if name in lib.patterns:  # materialized because a later declaration used it
                net = lib.networks[netname]
                with tr.span("colimit.combine", parent=rid) as cid:
                    res = nz.combine(net)
                self.replay_infima(cid, res, net.patterns)

    def replay_base(self, rid, ref: str, bases: dict):
        tr = self.tracer
        cat = self.catalog()
        iri = cat.expand(ref)
        if iri not in bases:
            with tr.span("catalog.resolve_taxonomy", parent=rid) as cid:
                cat.resolve_taxonomy(ref)
            if iri in cat.mappings:
                path = cat.mappings[iri]
                text = Path(path).read_text(encoding="utf-8")
                build = lambda: nz.parse_taxonomy(text, [], source_name=path)  # noqa: E731
            else:
                build = nz.default_taxonomy
            with tr.span("taxonomy.build", parent=cid):
                bases[iri] = build()
            self.note_taxonomy(bases[iri], build)
        return bases[iri]

    def note_taxonomy(self, t, build) -> None:
        """Class count of every build; peak traced memory of the builds
        of the first document, measured in an extra untimed build."""
        tr = self.tracer
        tr.counts["taxonomy.classes"] = max(tr.counts.get("taxonomy.classes", 0),
                                            len(t.classes))
        if tr.doc == 0:
            tracemalloc.start()
            build()
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            tr.counts["taxonomy.build.peak_mib"] = max(
                tr.counts.get("taxonomy.build.peak_mib", 0), peak)

    def replay_refinement(self, rid, d, lib) -> None:
        tr = self.tracer
        src, tgt = lib.patterns.get(d.source), lib.patterns.get(d.target)
        if src is None or tgt is None:
            return
        if d.explicit_map is not None:
            node_map = dict(d.explicit_map)
            with tr.span("refinement.check", parent=rid) as sid:
                nz.check_refinement(src, tgt, node_map)
            pairs = [(tgt.labels[node_map[n]], src.labels[n])
                     for n in src.sorted_ids if node_map.get(n) in tgt.labels]
        else:
            with tr.span("refinement.infer", parent=rid) as sid:
                try:
                    with self.deadline(WALL_SLACK * self.limit):
                        nz.infer_refinement(d.name, src, tgt)
                except (nz.NesyError, DocTimeout):
                    pass
            pairs = [(tgt.labels[m], src.labels[n])
                     for n in src.sorted_ids for m in tgt.sorted_ids]
        with tr.span("taxonomy.leq", parent=sid, calls=len(pairs)):
            for a, b in pairs:
                src.taxonomy.leq(a, b)

    def replay_evaluate(self, eid, lib, ev) -> None:
        """infimum of every merged class that evaluate_combines labelled;
        the classes come from an untimed combination_result."""
        patterns = ev.patterns if ev is not None else lib.patterns
        for name in sorted(lib.combine_defs):
            try:
                res = nz.combination_result(lib, name)
            except nz.NesyError:
                continue
            self.replay_infima(eid, res, patterns)

    def replay_infima(self, parent, res, patterns) -> None:
        tr = self.tracer
        label_sets = [{patterns[p].labels[n] for p, n in members}
                      for members in res.classes.values()
                      if all(p in patterns for p, _ in members)]
        t = res.pattern.taxonomy
        with tr.span("taxonomy.infimum", parent=parent, calls=len(label_sets)):
            for labels in label_sets:
                t.infimum(labels)
        tr.count("colimit.arena_nodes", sum(len(m) for m in res.classes.values()))
        tr.count("colimit.merged_nodes", len(res.classes))

    # -- per-layer metrics ----------------------------------------------------------

    def layer_metrics(self, docs: int) -> dict:
        """Per-layer metrics of the traced run.  Times, calls and node
        counts are per document, so a faster layer does not show as more
        total work done in the same seconds."""
        tr = self.tracer
        out: dict = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for name in FUNCTIONS:
            busy, calls, longest = tr.busy(name)
            put(f"{name}.busy_s", busy / docs, "s")
            put(f"{name}.calls", calls / docs, "count")
            if name == "refinement.infer":
                put("refinement.infer.max_ms", longest * 1000, "ms")
        parse_busy = tr.busy("dsl.parse")[0]
        put("dsl.parse.kib_per_s",
            tr.counts.get("dsl.parse.kib", 0) / parse_busy if parse_busy else 0,
            "KiB/s")
        put("taxonomy.build.peak_mib", tr.counts.get("taxonomy.build.peak_mib", 0),
            "MiB")
        put("taxonomy.classes", tr.counts.get("taxonomy.classes", 0), "count")
        for name in ("colimit.arena_nodes", "colimit.merged_nodes"):
            put(name, tr.counts.get(name, 0) / docs, "count")
        selves = tr.self_times()
        for layer in LAYERS:
            put(f"{layer}.self_s", sum(v for k, v in selves.items()
                                       if k.split(".")[0] == layer) / docs, "s")
        return out


#: The nesypat functions the traced run puts spans around, as
#: ``<module>.<function>``.
FUNCTIONS = ("dsl.parse", "dsl.resolve", "dsl.emit_dsl",
             "catalog.resolve_taxonomy", "taxonomy.build", "taxonomy.infimum",
             "taxonomy.leq", "refinement.infer", "refinement.check",
             "pattern.isomorphic", "network.build_network",
             "colimit.evaluate_combines", "colimit.combination_result",
             "colimit.combine", "emitters.emit_json", "emitters.emit_dot",
             "emitters.emit_abox")
#: Modules under src/nesypat/ the traced run attributes time to.
LAYERS = ("dsl", "catalog", "taxonomy", "refinement", "pattern", "network",
          "colimit", "emitters")


def per_document(runs: list[list[dict]]) -> list[dict]:
    """One sample per document: its median pass by scaled time (the
    lower middle one of an even count).  A wrong answer in any pass
    makes the document wrong."""
    scale(runs)
    out = []
    for tries in zip(*runs):
        best = dict(sorted(tries, key=lambda t: t["scaled"])[(len(tries) - 1) // 2])
        best["passes"] = len(tries)
        best["wrong_passes"] = sum(1 for t in tries if t["wrong"])
        best["wrong"] = next((t["wrong"] for t in tries if t["wrong"]), None)
        best["decided"] = best["decided"] and best["wrong"] is None
        out.append(best)
    return out


def main(argv) -> int:
    if argv == ["--probe"]:
        speed = CALIBRATION_NOMINAL_S / typical([calibration() for _ in range(15)])
        print(json.dumps({"import_s": IMPORT_S * speed,
                          "setup_s": SETUP_S * speed}))
        return 0
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    smoke = argv[4:] == ["--smoke"]
    root = Path.cwd()
    src = (root / "src").resolve()
    if Path(nz.__file__).resolve().parent.parent != src:
        print(f"worker: nesypat imported from {nz.__file__}, not {src}",
              file=sys.stderr)
        return 2
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    tmp = out_dir / f"tmp-{workload}-{os.getpid()}"
    tmp.mkdir()
    try:
        runner = Runner(workload, seed, tmp, smoke)
        result = {"limit_s": runner.limit}
        if not trace:
            passes = max(1, round(seconds / PASS_SECONDS[workload]))
            result["samples"] = per_document(runner.run(passes, seconds))
            result["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        else:
            # Tracing and the replays make a pass about three times
            # slower: one traced pass, then one untraced for the overhead.
            runner.tracer = Tracer(True)
            traced = runner.run(1, seconds)
            runner.tracer.enabled = False
            untraced = runner.run(1, seconds)
            result["samples"] = per_document(traced)
            metrics = runner.layer_metrics(sum(map(len, traced)))
            metrics["trace.overhead_ratio"] = {
                "value": sum(s["wall"] for run in traced for s in run)
                / sum(s["wall"] for run in untraced for s in run),
                "unit": "ratio"}
            result["layers"] = metrics
            spans = out_dir / f"spans-{workload}-{seed}.jsonl"
            runner.tracer.write(spans)
            result["span_file"] = str(spans.relative_to(root))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
