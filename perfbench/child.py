"""One workload in a fresh process: set up, run the timed loop, print a JSON result.

    python3 perfbench/child.py WORKLOAD SEED SECONDS MODE OUT_DIR [--smoke]

MODE is "setup" (set up and stop), "plain" (timed loop, tracing off) or
"trace" (untraced passes for at least SECONDS/2, then the same passes traced).
setup_s is the CPU time the process has used when the timed loop starts:
interpreter start, importing numpy and qdiscord, and drawing the inputs.
Times in the timed loop are CPU times at reference host speed (see
hostspeed.py).
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import qdiscord  # noqa: E402

if not Path(qdiscord.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"qdiscord was imported from {qdiscord.__file__}, not from {SRC}")

import hostspeed  # noqa: E402
import workloads  # noqa: E402

# Failure reports kept per run; the rest are only counted.
MAX_FAILURE_REPORTS = 5
# Workload CPU time between two calibration samples.
CALIBRATE_EVERY_S = 0.008


def run_calls(workload, calls, *, min_seconds=None, count=None, whole_passes=False, tracer=None):
    """Cycle over calls: until min_seconds of wall time have passed and every call
    has run once (and, with whole_passes, a pass has ended), or until exactly
    `count` calls have run.

    Each call is timed from outside and its output checked afterwards.  The
    first pass over the calls gives attempted, failed and the failure reports;
    later passes repeat the same inputs for timing and are checked too, so a
    check failure in any pass makes the run incorrect.
    """
    took, kernel_s, kernel_after, infos, failures = [], [], [], [], []
    attempted = failed = check_failed = items_run = done = 0
    since_kernel = 0.0
    start = time.perf_counter()
    while (done < count) if count is not None else (
            done < len(calls) or time.perf_counter() - start < min_seconds
            or (whole_passes and done % len(calls))):
        call = calls[done % len(calls)]
        first = done < len(calls)
        if tracer is not None:
            tracer.item = done
        began = time.process_time()
        try:
            output = workload.run(call)
            error = None
        except Exception as exc:  # a library failure is counted, and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        took.append(time.process_time() - began)
        since_kernel += took[-1]
        if since_kernel >= CALIBRATE_EVERY_S:
            kernel_s.append(hostspeed.sample())
            kernel_after.append(done)
            since_kernel = 0.0
        if error is None:
            check = workload.check(call, output)
            check_failed += check.failed
            if first:
                infos.append(check.info)
        else:
            items = workload.items_in(call)
            check = workloads.Check(items, items, [{"reason": error, **workload.spec(call)}])
        if first:
            attempted += check.items
            failed += check.failed
            failures.extend(check.failures[: MAX_FAILURE_REPORTS - len(failures)])
        items_run += check.items
        done += 1
    if not kernel_s:
        kernel_s.append(hostspeed.sample())
        kernel_after.append(done - 1)
    scaled = np.asarray(took) * hostspeed.local_scales(kernel_s, kernel_after, done)
    # Each call's latency is the low median of its repeats, so that with two
    # repeats one stall of the host does not count; their sum is one pass.
    per_call = [statistics.median_low(scaled[i::len(calls)].tolist()) for i in range(len(calls))]
    p50, p99 = np.percentile(per_call, [50, 99]) * 1e3
    return {
        "calls_run": done,
        "items_run": items_run,
        "attempted": attempted,
        "failed": failed,
        "check_failed": check_failed,
        "pass_s": sum(per_call),
        "scaled_s": float(scaled.sum()),
        "cpu_s": float(np.sum(took)),
        "wall_s": time.perf_counter() - start,
        "kernel_samples": len(kernel_s),
        "kernel_median_s": float(np.median(kernel_s)),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "latency_samples": len(per_call),
        "failures": failures,
        "first_pass_info": infos,
    }


def layer_metrics(tracer, items: int) -> dict:
    """Per-item self time, calls and failures per layer, plus the named extra counts."""
    out = {}
    for layer, st in tracer.stats.items():
        out[f"{layer}.self_ms"] = st.self_s * 1e3 / items
        out[f"{layer}.calls"] = st.calls / items
        out[f"{layer}.failed"] = st.failed / items
    m, d, o = tracer.stats["measurement"], tracer.stats["discord"], tracer.stats["oracle"]
    out["measurement.axes_per_call"] = m.axes / m.calls if m.calls else 0.0
    out["measurement.us_per_axis"] = m.self_s * 1e6 / m.axes if m.axes else 0.0
    out["discord.evaluations"] = d.evaluations / d.results if d.results else 0.0
    out["oracle.evaluations"] = o.evaluations / o.results if o.results else 0.0
    out["oracle.polish_evaluations"] = (o.evaluations - o.grid) / o.results if o.results else 0.0
    return out


def main(argv) -> None:
    name, seed, seconds, mode, out_dir = argv[:5]
    smoke = "--smoke" in argv[5:]
    workload = workloads.WORKLOADS[name]
    out_dir = Path(out_dir)
    count = workload.smoke_calls_per_pass if smoke else workload.calls_per_pass
    calls = workload.make_calls(np.random.default_rng(int(seed)), count, out_dir, smoke)
    result = {"setup_s": time.process_time(), "numpy": np.__version__,
              "calls_per_pass": len(calls), "items_per_pass": sum(workload.items_in(c) for c in calls)}
    if mode == "plain":
        result.update(run_calls(workload, calls, min_seconds=float(seconds)))
    elif mode == "trace":
        from tracer import Tracer  # only traced runs load it, so it stays out of setup_s

        # Whole passes, so that the per-item counts repeat exactly at a fixed seed.
        plain = run_calls(workload, calls, min_seconds=float(seconds) / 2.0, whole_passes=True)
        tracer = Tracer()
        tracer.install()
        traced = run_calls(workload, calls, count=plain["calls_run"], tracer=tracer)
        result.update(traced)
        result["untraced_scaled_s"] = plain["scaled_s"]
        result["layers"] = layer_metrics(tracer, traced["items_run"])
        result["wrapped"] = tracer.wrapped
        result["spans"] = tracer.span_records()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
