"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench

The library's own suite does not collect these (pytest's testpaths is tests/).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Counts that must repeat exactly at a fixed seed.
EXACT = ("discord.evaluations", "oracle.evaluations", "measurement.calls", "failed_ratio")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def results(trace: int) -> dict:
    done = bench("--workload", "all", "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    per_workload = {}
    for line in lines:
        if line.startswith("result "):
            name, body = line[len("result "):].split(": ", 1)
            per_workload[name] = json.loads(body)
    assert sorted(per_workload) == sorted(WORKLOADS)
    return per_workload


def test_untraced_run_reports_every_end_to_end_metric_with_its_unit():
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for name, res in results(0).items():
        assert res["correct"], name
        assert res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected, name
        assert all(v["value"] > 0 for v in res["metrics"].values()), name


def test_traced_run_reports_every_layer_and_repeats_its_counts():
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    first, second = results(1), results(1)
    for name in WORKLOADS:
        metrics = first[name]["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == expected, name
        assert metrics["trace.idle_layers"]["value"] == 0, name
        for key in EXACT:
            assert metrics[key]["value"] == second[name]["metrics"][key]["value"], (name, key)


def test_exits_non_zero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
