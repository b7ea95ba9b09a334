"""qdiscord benchmark: four workloads, end-to-end metrics, per-layer traced timings.

    python3 perfbench/run.py --workload ensemble_batch --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each workload runs in fresh child processes, one at a time, single-threaded:
SETUP_SAMPLES processes that only set up (import qdiscord, draw the inputs),
the last of which goes on to the timed loop.  The timed loop cycles over the
seeded calls, at least once, until --seconds have passed; it is a closed
loop with one caller.  Times are CPU times at reference host speed (see
hostspeed.py).  With --trace 0 the result's metrics are the end-to-end ones,
with --trace 1 the per-layer ones from a separate traced run.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Earlier lines echo the first failures as
replayable specs, any layer that made no calls where it should have, and the
provenance block.  The full result, with the recorded spans of a traced run,
goes to perfbench/out/.  The benchmark exits non-zero without a result when
the library source is missing or a child process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "qdiscord"
OUT_DIR = HERE / "out"
WORKLOADS = ("ensemble_batch", "pure_sweep", "oracle_verify", "geo_scan")
SETUP_SAMPLES = 7
# A one-workload run must end within 180 s; its children get what is left of this.
DEADLINE_S = 170.0
SINGLE_THREAD = {name: "1" for name in
                 ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def run_child(workload: str, seed: int, seconds: float, mode: str, smoke: bool, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), repr(seconds), mode, str(OUT_DIR)]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, cwd=ROOT, env={**os.environ, **SINGLE_THREAD}, stdout=subprocess.PIPE,
                          timeout=max(deadline - time.monotonic(), 1.0), check=True)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, deadline: float) -> dict:
    if trace:
        return run_child(workload, seed, seconds, "trace", smoke, deadline)
    samples = 1 if smoke else SETUP_SAMPLES
    setups = [run_child(workload, seed, seconds, "setup", smoke, deadline)["setup_s"] for _ in range(samples - 1)]
    result = run_child(workload, seed, seconds, "plain", smoke, deadline)
    result["setup_samples_s"] = setups + [result["setup_s"]]
    result["setup_s"] = statistics.median(result["setup_samples_s"])
    return result


def end_to_end(result: dict) -> dict:
    return {
        "throughput_per_s": {"value": result["items_per_pass"] / result["pass_s"], "unit": "1/s"},
        "latency_p50_ms": {"value": result["latency_p50_ms"], "unit": "ms"},
        "latency_p99_ms": {"value": result["latency_p99_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": result["setup_s"], "unit": "s"},
    }


def per_layer(workload: str, result: dict, expected: dict) -> tuple[dict, list]:
    layers = result["layers"]
    idle = [layer for layer in expected[workload] if layers[f"{layer}.calls"] == 0]
    values = dict(layers)
    values["trace.overhead"] = result["scaled_s"] / result["untraced_scaled_s"]
    values["trace.idle_layers"] = len(idle)
    values["failed_ratio"] = result["failed"] / result["attempted"]
    units = {"self_ms": "ms/item", "calls": "calls/item", "failed": "failures/item",
             "axes_per_call": "axes/call", "us_per_axis": "us/axis", "evaluations": "evals/call",
             "polish_evaluations": "evals/call", "overhead": "ratio", "idle_layers": "count",
             "failed_ratio": "ratio"}
    metrics = {name: {"value": value, "unit": units[name.rsplit(".", 1)[-1]]} for name, value in values.items()}
    return metrics, idle


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, seconds: float, trace: bool, smoke: bool, results: dict) -> dict:
    workloads = {}
    for name, r in results.items():
        info = r.get("first_pass_info", [])
        entry = {key: r[key] for key in ("calls_per_pass", "items_per_pass", "calls_run", "items_run",
                                         "attempted", "failed", "check_failed", "latency_samples",
                                         "cpu_s", "scaled_s", "wall_s", "kernel_samples",
                                         "kernel_median_s") if key in r}
        digests = [i["csv_sha256"] for i in info if "csv_sha256" in i]
        if digests:
            entry["csv_sha256"] = hashlib.sha256("".join(digests).encode()).hexdigest()
        suites = {}
        for i in info:
            for suite, (passed, total) in i.get("suites", {}).items():
                p, t = suites.get(suite, (0, 0))
                suites[suite] = (p + passed, t + total)
        if suites:
            entry["verify_suites_first_pass"] = {s: {"pass": p, "total": t} for s, (p, t) in suites.items()}
        if "setup_samples_s" in r:
            entry["setup_samples_s"] = r["setup_samples_s"]
        workloads[name] = entry
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": next(iter(results.values()))["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"qdiscord source not found at {PACKAGE}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    expected = json.loads((HERE / "layers.json").read_text())["expected_active"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)

    results, lines, summaries = {}, [], {}
    for name in names:
        r = run_workload(name, args.seed, args.seconds, trace, args.smoke, time.monotonic() + DEADLINE_S)
        results[name] = r
        if trace:
            metrics, idle = per_layer(name, r, expected)
            lines += [f"warning: layer {layer} made no calls on {name}, where it is expected to work"
                      for layer in idle]
        else:
            metrics = end_to_end(r)
        lines += [f"failure {name}: {json.dumps(f)}" for f in r["failures"]]
        summaries[name] = {"correct": r["check_failed"] == 0, "attempted": r["attempted"],
                           "failed": r["failed"], "metrics": metrics}
    prov = provenance(args.seed, args.seconds, trace, args.smoke, results)
    lines.append("provenance: " + json.dumps(prov))

    if len(names) == 1:
        final = summaries[names[0]]
    else:
        lines += [f"result {name}: {json.dumps(s)}" for name, s in summaries.items()]
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{n}.{m}": v for n, s in summaries.items() for m, v in s["metrics"].items()},
        }
    report = {"provenance": prov, "results": summaries,
              "wrapped": {n: r["wrapped"] for n, r in results.items() if trace},
              "spans": {n: r["spans"] for n, r in results.items() if trace}}
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report) + "\n")
    print("\n".join(lines))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
