"""The four benchmark workloads: seeded inputs, the timed call, output checks.

Inputs are drawn here from the workload seed with numpy alone, so the library
receives only finished ensembles or CLI argv, and a change to the library's
own random helpers cannot change what is measured.

Each workload is a list of calls made once per pass.  A call is timed from
outside; its output is checked afterwards, outside the timed window, against
references computed here rather than by the library under test.  A call
covers one item (ensemble_batch, geo_scan) or several (pure_sweep: one CSV row
per theta, oracle_verify: one verify trial each).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import qdiscord

# Hard-region ensembles: the regions the library's test suite filters out.
HARD_KINDS = ("near_collinear", "near_identical", "extreme_weight", "tiny_norm")
# One call in ten is a random pure pair (ensemble_batch), one in ten a hard-region
# ensemble (ensemble_batch and geo_scan); the rest are random_ensemble draws.
MIX_SHARE = 0.1
SWEEP_STEPS = 20
VERIFY_TRIALS = 2


@dataclass(frozen=True)
class Check:
    """Outcome of checking one call: items covered, items failed, failure reports.

    info carries what a call reports beyond pass/fail (a CSV digest, verify's
    per-suite counts).
    """

    items: int
    failed: int
    failures: list
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    calls_per_pass: int
    smoke_calls_per_pass: int
    make_calls: Callable  # (rng, count, out_dir, smoke) -> list of call inputs
    run: Callable  # call input -> output (the timed part)
    check: Callable  # (call input, output) -> Check
    items_in: Callable  # call input -> items it covers
    spec: Callable  # call input -> replayable description


# ---------------------------------------------------------------------------
# Seeded ensembles
# ---------------------------------------------------------------------------

def _spheres(rng, count: int) -> np.ndarray:
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _balls(rng, count: int) -> np.ndarray:
    return _spheres(rng, count) * rng.uniform(size=(count, 1)) ** (1.0 / 3.0)


def _sphere(rng) -> np.ndarray:
    return _spheres(rng, 1)[0]


def _ball(rng) -> np.ndarray:
    return _balls(rng, 1)[0]


def _perpendicular(rng, u) -> np.ndarray:
    v = rng.normal(size=3)
    v -= (v @ u) / (u @ u) * u
    return v / np.linalg.norm(v)


def _into_ball(v) -> np.ndarray:
    return v / max(1.0, float(np.linalg.norm(v)))


def _hard_ensemble(rng, kind: str):
    l0 = float(rng.uniform())
    a, b = _ball(rng), _ball(rng)
    eps = 10.0 ** rng.uniform(-12.0, -6.0)
    if kind == "near_collinear":
        b = _into_ball(rng.uniform(-1.0, 1.0) * a + eps * _perpendicular(rng, a))
    elif kind == "near_identical":
        b = _into_ball(a + eps * _sphere(rng))
    elif kind == "extreme_weight":
        l0 = 10.0 ** rng.uniform(-12.0, -4.0)
        if rng.uniform() < 0.5:
            l0 = 1.0 - l0
    else:  # tiny_norm
        a = _sphere(rng) * 10.0 ** rng.uniform(-12.0, -4.0)
    return kind, l0, a, b


def _ensemble_mix(rng, count: int, pure_share: float):
    """count ensembles: fixed shares of pure pairs and hard-region kinds, shuffled."""
    n_pure = int(round(count * pure_share))
    n_hard = int(round(count * MIX_SHARE))
    n_random = count - n_pure - n_hard
    weights = rng.uniform(size=n_pure + n_random).tolist()
    a = np.concatenate([_spheres(rng, n_pure), _balls(rng, n_random)])
    b = np.concatenate([_spheres(rng, n_pure), _balls(rng, n_random)])
    kinds = ["pure"] * n_pure + ["random"] * n_random
    calls = [(kind, l0, ai, bi) for kind, l0, ai, bi in zip(kinds, weights, a, b)]
    calls += [_hard_ensemble(rng, HARD_KINDS[i % len(HARD_KINDS)]) for i in range(n_hard)]
    return [calls[i] for i in rng.permutation(count)]


def _ensemble(call):
    _, l0, a, b = call
    return qdiscord.QubitEnsemble(l0, 1.0 - l0, a, b)


def _ensemble_spec(call) -> dict:
    kind, l0, a, b = call
    return {"kind": kind, "spec": {"weights": [l0, 1.0 - l0], "bloch": [a.tolist(), b.tolist()]}}


def _one(call) -> int:
    return 1


# ---------------------------------------------------------------------------
# References computed by the benchmark
# ---------------------------------------------------------------------------

def _h(p: float) -> float:
    p = min(max(p, 0.0), 1.0)
    return -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


def _mutual_information_at(ens, n) -> float:
    """I(label; outcome) for the projective measurement along the axis n."""
    l0, l1 = ens.lambda0, ens.lambda1
    ta, tb = float(np.dot(ens.a, n)), float(np.dot(ens.b, n))
    joint = [l0 * (1 + ta) / 2, l0 * (1 - ta) / 2, l1 * (1 + tb) / 2, l1 * (1 - tb) / 2]
    plus, minus = joint[0] + joint[2], joint[1] + joint[3]
    xlog = lambda x: x * math.log2(x) if x > 1e-300 else 0.0
    cond = sum(xlog(x) for x in (plus, minus)) - sum(xlog(x) for x in joint)
    return _h(l0) - cond


def _koashi_winter(l0: float, a, b) -> float:
    """Closed-form discord of a pure pair (purification + entanglement of formation)."""
    overlap = math.sqrt(max(0.0, (1.0 + float(np.dot(a, b))) / 2.0))
    c = 2.0 * math.sqrt(l0 * (1.0 - l0)) * overlap
    eof = _h((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)
    split = math.sqrt(max(0.0, 1.0 - 4.0 * l0 * (1.0 - l0) * (1.0 - overlap * overlap)))
    return eof + _h((1.0 + split) / 2.0) - _h(l0)


def _geo_rank2(ens) -> float:
    """Geometric discord D / (t + sqrt(t^2 - 4D)) of the rank-2 purity form."""
    w0, w1 = ens.lambda0**2, ens.lambda1**2
    t = w0 * float(ens.a @ ens.a) + w1 * float(ens.b @ ens.b)
    d = w0 * w1 * float(np.sum(np.cross(ens.a, ens.b) ** 2))
    return 0.0 if t <= 0.0 else d / (t + math.sqrt(max(t * t - 4.0 * d, 0.0)))


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _verdict(call, problems) -> Check:
    if not problems:
        return Check(1, 0, [])
    return Check(1, 1, [{"reason": "; ".join(problems), **_ensemble_spec(call)}])


# ---------------------------------------------------------------------------
# ensemble_batch
# ---------------------------------------------------------------------------

def _batch_calls(rng, count, out_dir, smoke):
    return _ensemble_mix(rng, count, pure_share=MIX_SHARE)


def _batch_run(call):
    ens = _ensemble(call)
    return ens, qdiscord.holevo_chi(ens), qdiscord.quantum_discord(ens), qdiscord.geometric_discord(ens)


def _batch_check(call, output) -> Check:
    ens, chi, disc, geo = output
    problems = []
    i_acc = _mutual_information_at(ens, disc.n_opt)
    if not _finite(chi, disc.value, geo.value, i_acc, *disc.n_opt, *geo.n_opt):
        problems.append("non-finite value")
    else:
        if disc.value < 0.0:
            problems.append(f"negative discord {disc.value:.3e}")
        if i_acc > chi + 1e-10:
            problems.append(f"I_acc {i_acc:.17g} exceeds chi {chi:.17g}")
        if abs(disc.value - (chi - i_acc)) > 1e-10:
            problems.append(f"discord {disc.value:.17g} != chi - I_acc {chi - i_acc:.17g}")
        geo_ref = _geo_rank2(ens)
        if abs(geo.value - geo_ref) > 1e-10:
            problems.append(f"geometric discord {geo.value:.17g} != rank-2 form {geo_ref:.17g}")
        if call[0] == "pure":
            ref = _koashi_winter(ens.lambda0, ens.a, ens.b)
            if abs(disc.value - ref) > 1e-6:
                problems.append(f"discord {disc.value:.17g} != Koashi-Winter {ref:.17g}")
    return _verdict(call, problems)


# ---------------------------------------------------------------------------
# geo_scan
# ---------------------------------------------------------------------------

def _geo_calls(rng, count, out_dir, smoke):
    return _ensemble_mix(rng, count, pure_share=0.0)


def _geo_run(call):
    ens = _ensemble(call)
    return ens, qdiscord.geometric_discord(ens)


def _geo_check(call, output) -> Check:
    ens, geo = output
    ref = _geo_rank2(ens)
    problems = []
    if not _finite(geo.value, *geo.n_opt):
        problems.append("non-finite value")
    elif abs(geo.value - ref) > 1e-10:
        problems.append(f"geometric discord {geo.value:.17g} != rank-2 form {ref:.17g}")
    return _verdict(call, problems)


# ---------------------------------------------------------------------------
# pure_sweep: `qdiscord sweep` in-process, serial, CSV via --output
# ---------------------------------------------------------------------------

def _sweep_calls(rng, count, out_dir, smoke):
    import qdiscord.cli  # noqa: F401  (imported during set-up, not in the first timed call)

    steps = 5 if smoke else SWEEP_STEPS
    path = str(out_dir / "sweep.csv")
    calls = []
    for _ in range(count):
        start = float(rng.uniform(0.0, 0.1))
        stop = float(rng.uniform(math.pi / 2 - 0.1, math.pi / 2))
        calls.append(["sweep", "--start", repr(start), "--stop", repr(stop),
                      "--steps", str(steps), "--output", path])
    return calls


def _cli_run(argv):
    return qdiscord.cli.main(list(argv))


def _mirror_discord(theta: float) -> float:
    return _h((1.0 + math.sin(theta)) / 2.0) + _h((1.0 + math.cos(theta)) / 2.0) - 1.0


def _mirror_geo(theta: float) -> float:
    return (1.0 - abs(math.cos(2.0 * theta))) / 8.0


def _sweep_check(argv, code) -> Check:
    steps = _argv_int(argv, "--steps")
    data = _take_output(argv)
    if code != 0 or data is None:
        return Check(steps, steps, [{"reason": f"exit code {code}", "argv": argv}])
    lines = data.decode("ascii").splitlines()
    header = lines[0].split(",")
    col = {name: header.index(name) for name in
           ("theta", "discord", "discord_closed_form", "geo_discord", "geo_closed_form")}
    failures = []
    failed = max(steps - (len(lines) - 1), 0)
    for line in lines[1:]:
        row = [float(x) for x in line.split(",")]
        theta = row[col["theta"]]
        if not _finite(*row):
            problem = "non-finite value"
        elif abs(row[col["discord"]] - row[col["discord_closed_form"]]) > 1e-6:
            problem = "discord differs from discord_closed_form by more than 1e-6"
        elif abs(row[col["geo_discord"]] - row[col["geo_closed_form"]]) > 1e-10:
            problem = "geo_discord differs from geo_closed_form by more than 1e-10"
        elif abs(row[col["discord_closed_form"]] - _mirror_discord(theta)) > 1e-9:
            problem = "discord_closed_form differs from the mirror-pair closed form"
        elif abs(row[col["geo_closed_form"]] - _mirror_geo(theta)) > 1e-10:
            problem = "geo_closed_form differs from (1 - |cos 2 theta|)/8"
        else:
            continue
        failed += 1
        failures.append({"reason": problem, "pure_pair": {"theta": theta, "lambda0": 0.5}})
    return Check(steps, failed, failures, {"csv_sha256": hashlib.sha256(data).hexdigest()})


def _take_output(argv) -> bytes | None:
    """Read and remove the call's --output file, so a stale file is never checked."""
    path = argv[argv.index("--output") + 1]
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    os.remove(path)
    return data


# ---------------------------------------------------------------------------
# oracle_verify: `qdiscord verify` in-process at the default grid and tolerances
# ---------------------------------------------------------------------------

_SUITE_LINE = re.compile(r"^suite (\S+): (\d+)/(\d+) pass")
_FAIL_LINE = re.compile(r"^FAIL (\S+) trial=(\d+) residual=(\S+) spec=(.*)$")


def _verify_calls(rng, count, out_dir, smoke):
    import qdiscord.cli  # noqa: F401  (imported during set-up, not in the first timed call)

    trials = 1 if smoke else VERIFY_TRIALS
    path = str(out_dir / "verify.txt")
    return [["verify", "--seed", str(int(rng.integers(2**31))), "--trials", str(trials),
             "--output", path] for _ in range(count)]


def _parse_verify(text: str):
    """Per-suite (passed, total) counts and FAIL lines from verify output."""
    suites, fails = {}, []
    for line in text.splitlines():
        m = _SUITE_LINE.match(line)
        if m:
            suites[m.group(1)] = (int(m.group(2)), int(m.group(3)))
        m = _FAIL_LINE.match(line)
        if m:
            fails.append({"suite": m.group(1), "trial": int(m.group(2)),
                          "residual": float(m.group(3)), "spec": json.loads(m.group(4))})
    return suites, fails


def _verify_check(argv, code) -> Check:
    trials = _argv_int(argv, "--trials")
    data = _take_output(argv)
    suites, fails = _parse_verify(data.decode("ascii") if data else "")
    if code == 0 and data is not None and not fails:
        return Check(trials, 0, [], {"suites": suites})
    failures = [{"reason": f"suite {f['suite']} residual {f['residual']:.6e}",
                 "argv": argv, "trial": f["trial"], "spec": f["spec"]} for f in fails]
    failures = failures or [{"reason": f"exit code {code}", "argv": argv}]
    return Check(trials, len({f["trial"] for f in fails}) or trials, failures, {"suites": suites})


def _argv_int(argv, flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _argv_spec(argv) -> dict:
    return {"argv": list(argv)}


def _argv_items(argv) -> int:
    return _argv_int(argv, "--steps" if argv[0] == "sweep" else "--trials")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ensemble_batch", 1000, 12, _batch_calls, _batch_run,
                 _batch_check, _one, _ensemble_spec),
        Workload("pure_sweep", 10, 1, _sweep_calls, _cli_run,
                 _sweep_check, _argv_items, _argv_spec),
        Workload("oracle_verify", 40, 1, _verify_calls, _cli_run,
                 _verify_check, _argv_items, _argv_spec),
        Workload("geo_scan", 5_000, 40, _geo_calls, _geo_run,
                 _geo_check, _one, _ensemble_spec),
    )
}
