"""The nesypat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports nesypat from ``src``.
It times set-up in fresh processes, runs the workload in one more fresh
process (``worker.py``), checks every answer against the one the
generator derived, prints each metric with its unit and, last, one JSON
line with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same documents with a span around every call into nesypat, writes the
spans to ``perfbench/out/`` and reports the per-layer metrics.
``--smoke`` shrinks every input, for the smoke test only.

Each run passes over a fixed, seeded set of documents a fixed number of
times (``--seconds`` over the workload's nominal pass time) and takes
every document's median pass.  Times are CPU seconds of the process
that does the work, scaled to a fixed machine speed by a calibration
job run next to every document (see ``worker.py``), so neither time the
machine gives to other processes nor the slower moments of a shared
core count.  ``attempted`` counts document runs over all passes;
``failed`` counts wrong answers, which also make ``correct`` false and
the exit code 1.  A document that crashes or passes its time limit has
no answer; it lowers ``decided_share`` and counts as slower than the
limit in the verdict-time percentiles.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("deep_taxonomy", "refinement_search")
#: Fresh processes that time set-up, half before and half after the
#: workload; their median is reported.
PROBES = 16
#: Whole-run limit for the worker, inside the 180 s a run may take.
WORKER_TIMEOUT = 150


def run_probe(cmd: list[str], root: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=60, check=True)


def probes(root: Path, env: dict, trace: bool, count: int) -> dict:
    """Set-up and import times from fresh processes; with tracing, also
    the wall time of a bare interpreter and of ``nesypat check`` on a
    bundled corpus file, the start-up a command-line user pays."""
    corpus = root / "src" / "nesypat" / "corpus" / "hybrid_model.nesy"
    out = {"setup": [], "import": [], "start": [], "check": []}
    for _ in range(count):
        got = json.loads(run_probe([sys.executable, str(HERE / "worker.py"),
                                    "--probe"], root, env).stdout)
        out["setup"].append(got["setup_s"])
        out["import"].append(got["import_s"])
        if trace:
            for key, cmd in (("start", ["-c", "pass"]),
                             ("check", ["-m", "nesypat", "check", str(corpus)])):
                t0 = time.perf_counter()
                run_probe([sys.executable, *cmd], root, env)
                out[key].append(time.perf_counter() - t0)
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile)."""
    xs = sorted(values)
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, list[str]]:
    samples = result["samples"]
    limit = result["limit_s"]
    decided = [s for s in samples if s["decided"]]
    # An undecided document counts as missing the limit.
    times = [s["scaled"] if s["decided"] else max(s["scaled"], s["limit"])
             for s in samples]
    tail_value, pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "docs_per_s": (len(decided) / sum(s["scaled"] for s in samples), "1/s"),
        "verdict_p50_ms": (statistics.median(times) * 1000, "ms"),
        "verdict_tail_ms": (tail_value * 1000, "ms"),
        "decided_share": (len(decided) / len(samples), "ratio"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }
    notes = [f"{len(samples)} documents, median of {samples[0]['passes']} passes each",
             f"verdict_tail_ms is p{pct:.1f} of {len(samples)} verdicts "
             f"(per-document limit {limit * 1000:g} ms)",
             f"setup_s is the median of {len(setup)} fresh processes"]
    return metrics, notes


def per_layer(result: dict, probe: dict) -> tuple[dict, list[str]]:
    metrics = {k: (v["value"], v["unit"]) for k, v in result["layers"].items()}
    metrics["cli.python_start_ms"] = (statistics.median(probe["start"]) * 1000, "ms")
    metrics["cli.import_ms"] = (statistics.median(probe["import"]) * 1000, "ms")
    metrics["cli.process_p50_ms"] = (statistics.median(probe["check"]) * 1000, "ms")
    selves = {name[:-len(".self_s")]: value
              for name, (value, _) in metrics.items() if name.endswith(".self_s")}
    total = sum(selves.values()) or 1.0
    notes = ["layer  self time per document (s)  share"]
    notes += [f"{layer:<10} {s:8.4f} {100 * s / total:7.1f} %"
              for layer, s in sorted(selves.items(), key=lambda kv: -kv[1])]
    notes.append(f"spans written to {result['span_file']}")
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nesypat" / "__init__.py").is_file():
        print("run.py: no src/nesypat here; run from the root of a nesypat "
              "checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)

    probe = probes(root, env, bool(args.trace), PROBES // 2)
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           str(args.seed), repr(args.seconds), str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"run.py: the {args.workload} worker ran over {WORKER_TIMEOUT} s",
              file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"run.py: the {args.workload} worker exited with "
              f"{proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])
    for key, values in probes(root, env, bool(args.trace), PROBES // 2).items():
        probe[key] += values

    if args.trace:
        metrics, notes = per_layer(result, probe)
    else:
        metrics, notes = end_to_end(result, probe["setup"])
    samples = result["samples"]
    wrong = [s["wrong"] for s in samples if s["wrong"]]
    outcomes: dict[str, int] = {}
    for s in samples:
        outcomes[s["outcome"]] = outcomes.get(s["outcome"], 0) + 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("outcomes " + ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items())))
    for message in wrong[:10]:
        print(f"WRONG: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(s["passes"] for s in samples),
        "failed": sum(s["wrong_passes"] for s in samples),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
