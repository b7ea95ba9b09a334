"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
from scipy.stats import spearmanr

from qdiscord import (
    QubitEnsemble,
    accessible_information,
    binary_entropy,
    brute_force_accessible,
    brute_force_geo,
    classical_mutual_information,
    cq_state_entropy,
    discord_pure_koashi_winter,
    example_discord_closed_form,
    example_geo_closed_form,
    geo_stationarity_residual,
    geometric_discord,
    holevo_chi,
    pure_overlap,
    quantum_discord,
    quantum_mutual_information,
    random_ensemble,
    random_pure_pair,
    stationarity_residual,
    von_neumann_entropy,
)
from qdiscord.cli import main as cli_main
from qdiscord.ensemble import _sphere_point
from conftest import nondegenerate, rotate_about

X = np.array([1.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num}: {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_1_complementarity_with_oracle():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst_identity = 0.0
    worst_excess = 0.0
    worst_oracle = 0.0
    for _ in range(200):
        ens = random_ensemble(rng)
        chi = holevo_chi(ens)
        acc = accessible_information(ens)
        disc = quantum_discord(ens)
        worst_identity = max(worst_identity, abs(chi - acc.value - disc.value))
        worst_excess = max(worst_excess, acc.value - chi)
        oracle = brute_force_accessible(ens, 10_000)
        worst_oracle = max(worst_oracle, abs(acc.value - oracle.value))
    elapsed = time.perf_counter() - start
    ok = (
        worst_identity <= 1e-10
        and worst_excess <= 1e-10
        and worst_oracle <= 1e-5
        and elapsed < 30.0
    )
    _report(
        1,
        "complementarity chi - i_acc - d = 0 on 200 random ensembles",
        ok,
        f"identity {worst_identity:.2e}, excess {worst_excess:.2e}, "
        f"oracle {worst_oracle:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_koashi_winter():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        ens = random_pure_pair(rng)
        kw = discord_pure_koashi_winter(ens.lambda0, pure_overlap(ens.a, ens.b))
        worst = max(worst, abs(quantum_discord(ens).value - kw.discord))
    _report(
        2,
        "closed-form discord of pure pairs matches the optimizer to 1e-6",
        worst <= 1e-6,
        f"worst {worst:.2e}",
    )


def test_criterion_3_mirror_family_closed_form():
    thetas = np.linspace(0.0, np.pi / 2, 100)
    worst = 0.0
    axis_ok = True
    for i, theta in enumerate(thetas):
        res = quantum_discord(QubitEnsemble.pure_pair(theta))
        worst = max(worst, abs(res.value - example_discord_closed_form(theta)))
        if 0 < i < 99:
            axis_ok = axis_ok and abs(res.n_opt @ X) >= 1.0 - 1e-6
    _report(
        3,
        "mirror-family discord matches h((1+sin)/2)+h((1+cos)/2)-1 with x-axis optimum",
        worst <= 1e-6 and axis_ok,
        f"worst {worst:.2e}, axis_ok {axis_ok}",
    )


def test_criterion_4_geometric_closed_form():
    thetas = np.linspace(0.0, np.pi / 2, 100)
    worst_eigen = 0.0
    worst_oracle = 0.0
    axis_ok = True
    for theta in thetas:
        ens = QubitEnsemble.pure_pair(theta)
        closed = example_geo_closed_form(theta)
        res = geometric_discord(ens)
        worst_eigen = max(worst_eigen, abs(res.value - closed))
        worst_oracle = max(worst_oracle, abs(brute_force_geo(ens, 10_000).value - closed))
        if theta < np.pi / 4 - 1e-3:
            axis_ok = axis_ok and abs(res.n_opt @ Z) >= 1.0 - 1e-12
        elif theta > np.pi / 4 + 1e-3:
            axis_ok = axis_ok and abs(res.n_opt @ X) >= 1.0 - 1e-12
    _report(
        4,
        "geometric discord matches (1-|cos 2t|)/8 with the axis transition at pi/4",
        worst_eigen <= 1e-10 and worst_oracle <= 1e-5 and axis_ok,
        f"eigen {worst_eigen:.2e}, oracle {worst_oracle:.2e}, axis_ok {axis_ok}",
    )


def _perpendicular(u):
    """The unit vector along the coordinate axis of u's smallest component, made normal to u."""
    e = np.eye(3)[np.argmin(np.abs(u))]
    w = e - (e @ u) * u
    return w / np.linalg.norm(w)


def test_criterion_5_stationarity_and_sensitivity():
    rng = np.random.default_rng(5)
    two_degrees = np.deg2rad(2.0)
    kept = 0
    worst_opt = 0.0
    sensitive = 0
    while kept < 200:
        ens = random_ensemble(rng)
        if not nondegenerate(ens):
            continue
        kept += 1
        acc = accessible_information(ens)
        geo = geometric_discord(ens)
        worst_opt = max(worst_opt, acc.stationarity_residual, geo.stationarity_residual)
        rot_a = rotate_about(_perpendicular(acc.n_opt), two_degrees)
        rot_g = rotate_about(_perpendicular(geo.n_opt), two_degrees)
        if (
            stationarity_residual(ens, rot_a @ acc.n_opt) > 1e-4
            and geo_stationarity_residual(ens, rot_g @ geo.n_opt) > 1e-4
        ):
            sensitive += 1
    rate = sensitive / kept
    _report(
        5,
        "optimizer axes are stationary to 1e-6 and 2-degree perturbations are detected",
        worst_opt <= 1e-6 and rate >= 0.95,
        f"worst residual {worst_opt:.2e}, sensitivity {rate:.1%}",
    )


def test_criterion_6_holevo_bound():
    rng = np.random.default_rng(6)
    violations = 0
    worst = -np.inf
    for _ in range(10_000):
        ens = random_ensemble(rng)
        margin = classical_mutual_information(ens, _sphere_point(rng)) - holevo_chi(ens)
        worst = max(worst, margin)
        if margin > 1e-12:
            violations += 1
    _report(
        6,
        "measured information never exceeds the Holevo quantity (10^4 pairs)",
        violations == 0,
        f"violations {violations}, worst margin {worst:.2e}",
    )


def test_criterion_7_entropy_identities():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10_000):
        ens = random_ensemble(rng)
        formula = (
            binary_entropy(ens.lambda0)
            + ens.lambda0 * von_neumann_entropy(ens.a)
            + ens.lambda1 * von_neumann_entropy(ens.b)
        )
        worst = max(
            worst,
            abs(cq_state_entropy(ens) - formula),
            abs(holevo_chi(ens) - quantum_mutual_information(ens)),
        )
    _report(
        7,
        "two-route joint entropy and mutual-information identities hold to 1e-12",
        worst <= 1e-12,
        f"worst {worst:.2e}",
    )


def test_criterion_8_sweep_reproduction(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = cli_main(
        ["sweep", "--start", "0", "--stop", repr(np.pi / 2), "--steps", "101",
         "--output", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    disc = data[:, header.index("discord")]
    geo = data[:, header.index("geo_discord")]
    chi = data[:, header.index("chi")]
    iacc = data[:, header.index("i_acc")]
    rows_ok = np.all(np.abs(disc - (chi - iacc)) <= 1e-10)
    ends_ok = max(disc[0], disc[-1], geo[0], geo[-1]) <= 1e-10
    peak_ok = (
        int(np.argmax(disc)) == 50
        and int(np.argmax(geo)) == 50
        and abs(disc[50] - 0.201752) <= 1e-5
        and abs(geo[50] - 0.125) <= 1e-8
    )
    rho = spearmanr(disc[: 51], geo[: 51]).statistic
    ranks_equal = np.array_equal(np.argsort(disc[:51]), np.argsort(geo[:51]))
    _report(
        8,
        "sweep CSV: zeros at the ends, joint peak at pi/4, Spearman rho = 1 below pi/4",
        bool(rows_ok and ends_ok and peak_ok and ranks_equal and rho >= 1.0 - 1e-12),
        f"rho {rho}, peak d {disc[50]:.6f}, peak g {geo[50]:.9f}",
    )


def test_criterion_9_landscape_reproduction(tmp_path, capsys):
    ok = True
    details = []
    for theta in (np.pi / 6, np.pi / 4, np.pi / 3, 1.0, 1.4):
        out_path = tmp_path / f"landscape_{theta:.3f}.csv"
        code = cli_main(
            ["landscape", "--theta", repr(theta), "--delta-steps", "73",
             "--output", str(out_path)]
        )
        capsys.readouterr()
        assert code == 0
        lines = out_path.read_text().strip().split("\n")[1:]
        rows = np.array([[float(x) for x in line.split(",")] for line in lines])
        deltas, rough = rows[:, 1], rows[:, 2]
        best = deltas[int(np.argmin(rough))]
        step = deltas[1] - deltas[0]
        near = min(abs(best), abs(best - np.pi), abs(best - 2 * np.pi))
        ok = ok and near <= step + 1e-12
        details.append(f"{theta:.2f}->{best:.2f}")
    _report(
        9,
        "landscape minima sit at delta in {0, pi} for every theta",
        ok,
        ", ".join(details),
    )
