"""Re-measures the single-case baselines that ROADMAP.md quotes.

    python3 perfbench/roadmap_probes.py     (from the root of a checkout)

These are one-off probes, not benchmark metrics: BASELINE.md compares
their output with the ROADMAP's numbers.
"""

import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import nesypat  # noqa: E402
import workloads  # noqa: E402


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def chain_taxonomy(n: int) -> None:
    text = workloads.deep_ontology(0, depth=n, band=0).text
    build, tax = timed(nesypat.parse_taxonomy, text)
    tracemalloc.start()
    nesypat.parse_taxonomy(text)
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    pairs = [[tax.lookup(f"K{(37 * i) % n + 1}"),
              tax.lookup(f"K{(91 * i) % n + 1}")] for i in range(50)]
    inf, _ = timed(lambda: [tax.infimum(p) for p in pairs])
    print(f"{n}-chain taxonomy: build {build:.2f} s, peak {peak:.0f} MiB, "
          f"50 infimum calls {inf:.2f} s")


def cycle_search(k: int, n: int, docs: int = 9) -> None:
    times = []
    for seed in range(docs):
        case = workloads.cycle_into_dag_case(seed, 0, k=k, n=n)
        lib = nesypat.resolve(nesypat.Document(nesypat.parse(case.text).declarations[:2]))
        t, _ = timed(nesypat.find_homomorphisms, lib.patterns["Cyc"],
                     lib.patterns["Dag"], 2)
        times.append(t)
    print(f"{k}->{n} no-solution search: median {statistics.median(times):.3f} s "
          f"over {docs} DAGs (min {min(times):.3f}, max {max(times):.3f})")


def large_document(patterns: int = 800) -> None:
    blocks = ["logic NeSyPatterns"]
    for i in range(patterns):
        blocks.append(f"pattern P{i} = data {workloads.BUILTIN}\n"
                      "  a : Data -> b : Training -> c : Model;\n"
                      "  b : Training -> d : Symbol;\nend")
        blocks.append(f"refinement R{i} = P{i} refined to P{i} "
                      "via a |-> a, b |-> b, c |-> c, d |-> d end")
    text = "\n".join(blocks)
    parse, doc = timed(nesypat.parse, text)
    resolve, _ = timed(nesypat.resolve, doc)
    print(f"{2 * patterns}-declaration document ({len(text) // 1024} KiB): "
          f"parse {parse:.2f} s, resolve {resolve:.2f} s")


def cli_check(runs: int = 9) -> None:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    corpus = ROOT / "src" / "nesypat" / "corpus" / "hybrid_model.nesy"

    def median_run(cmd):
        return statistics.median(
            timed(lambda: subprocess.run(cmd, env=env, check=True,
                                         capture_output=True))[0]
            for _ in range(runs))
    check = median_run([sys.executable, "-m", "nesypat", "check", str(corpus)])
    bare = median_run([sys.executable, "-c", "pass"])
    print(f"nesypat check hybrid_model.nesy: median {check * 1000:.0f} ms, "
          f"bare interpreter {bare * 1000:.0f} ms")


if __name__ == "__main__":
    chain_taxonomy(1000)
    cycle_search(6, 20)
    cycle_search(8, 30)
    cycle_search(9, 35)
    large_document()
    cli_check()
