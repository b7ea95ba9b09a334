"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ensemble_batch --seeds 1-10 --seconds 25 [--json FILE]

Runs one untraced benchmark run per seed, one after the other, and prints,
per end-to-end metric, the median of the runs and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median.  With --json the per-run values and the summary are written
to FILE, in the form baseline.json keeps them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                              cwd=HERE.parent, capture_output=True, text=True, check=True)
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()),
              flush=True)
    metrics = {name: {"unit": m["unit"], **summary([r["metrics"][name]["value"] for r in runs])}
               for name, m in runs[0]["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name}: median {m['median']:.6g} {m['unit']}, spread {m['spread']:.4f}")
    if args.json:
        args.json.write_text(json.dumps({
            "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
            "metrics": metrics}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
