import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import qdiscord.discord as discord

from qdiscord import (
    QubitEnsemble,
    binary_entropy,
    accessible_information,
    average_state_eigen_split,
    check_analytic_conditions,
    classical_mutual_information,
    concurrence_pure_ensemble,
    discord_pure_koashi_winter,
    eof_from_concurrence,
    example_discord_closed_form,
    holevo_chi,
    pure_overlap,
    quantum_discord,
    random_ensemble,
    random_pure_pair,
    shannon_entropy,
    stationarity_residual,
)
from conftest import near_degenerate_ensembles, nondegenerate, random_rotation, rotate_ensemble

# Frozen from an independent arbitrary-precision evaluation (mpmath, 40 digits)
EOF_AT_HALF = 0.354578902665269884            # h((2+sqrt(3))/4)
KW_HALF_HALF = 0.165857027124402748           # eof + h(3/4) - 1
D_PI4 = 0.201752073385712202                  # 2 h((2+sqrt(2))/4) - 1
MI_PI4 = 0.399123963307143899                 # 1 - h((2+sqrt(2))/4)
# Residual of the optimality defect at theta=pi/3 for the tilted axis
# (1/2, 0, sqrt(3)/2); direct substitution, mpmath
STAT_TILTED_PI3 = 1.28440008262670237

X = np.array([1.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def test_concurrence_pure_ensemble():
    for theta in (0.2, 0.9, 1.5):
        assert concurrence_pure_ensemble(0.5, np.cos(theta)) == pytest.approx(
            np.cos(theta), abs=1e-15
        )
    assert concurrence_pure_ensemble(0.3, 0.0) == 0.0
    assert concurrence_pure_ensemble(0.9, 0.5) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(ValueError):
        concurrence_pure_ensemble(1.2, 0.5)
    with pytest.raises(ValueError):
        concurrence_pure_ensemble(0.5, -0.2)


def test_eof_from_concurrence():
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(1.0) == 1.0
    assert eof_from_concurrence(0.5) == pytest.approx(EOF_AT_HALF, abs=1e-15)
    with pytest.raises(ValueError):
        eof_from_concurrence(1.5)


def test_average_state_eigen_split():
    assert average_state_eigen_split(0.5, 0.0) == pytest.approx((0.5, 0.5), abs=1e-15)
    assert average_state_eigen_split(0.5, 1.0) == pytest.approx((1.0, 0.0), abs=1e-15)
    assert average_state_eigen_split(0.5, 0.5) == pytest.approx((0.75, 0.25), abs=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: binary_entropy(x),
        lambda x: binary_entropy([0.2, x]),
        lambda x: shannon_entropy([x, 1.0]),
        lambda x: shannon_entropy([x, 0.0]),
        lambda x: concurrence_pure_ensemble(x, 0.5),
        lambda x: concurrence_pure_ensemble(0.5, x),
        lambda x: eof_from_concurrence(x),
        lambda x: average_state_eigen_split(x, 0.5),
        lambda x: average_state_eigen_split(0.5, x),
        lambda x: discord_pure_koashi_winter(x, 0.5),
        lambda x: discord_pure_koashi_winter(0.5, x),
    ],
    ids=[
        "binary_entropy",
        "binary_entropy_array",
        "shannon_entropy",
        "shannon_entropy_with_zero",
        "concurrence_lambda0",
        "concurrence_overlap",
        "eof",
        "eigen_split_lambda0",
        "eigen_split_overlap",
        "koashi_winter_lambda0",
        "koashi_winter_overlap",
    ],
)
def test_non_finite_arguments_are_rejected(call, bad):
    with pytest.raises(ValueError):
        call(bad)


def test_koashi_winter_breakdown():
    kw = discord_pure_koashi_winter(0.5, 0.0)
    assert kw.discord == pytest.approx(0.0, abs=1e-15)
    kw = discord_pure_koashi_winter(0.5, 0.5)
    assert kw.discord == pytest.approx(KW_HALF_HALF, abs=1e-15)
    assert kw.eof == pytest.approx(EOF_AT_HALF, abs=1e-15)
    kw = discord_pure_koashi_winter(0.5, np.cos(np.pi / 4))
    assert kw.discord == pytest.approx(D_PI4, abs=1e-14)
    # the breakdown must be internally consistent
    assert kw.discord == pytest.approx(kw.eof + kw.s_b - kw.s_ab, abs=1e-12)
    assert 0.0 <= kw.concurrence <= 1.0


def test_example_discord_closed_form():
    assert example_discord_closed_form(0.0) == pytest.approx(0.0, abs=1e-15)
    assert example_discord_closed_form(np.pi / 2) == pytest.approx(0.0, abs=1e-14)
    assert example_discord_closed_form(np.pi / 3) == pytest.approx(KW_HALF_HALF, abs=1e-15)
    assert example_discord_closed_form(np.pi / 4) == pytest.approx(D_PI4, abs=1e-15)
    # mirror symmetry about pi/4 (up to trig rounding)
    for theta in np.linspace(0.0, np.pi / 2, 37):
        assert example_discord_closed_form(theta) == pytest.approx(
            example_discord_closed_form(np.pi / 2 - theta), abs=1e-15
        )
    # agrees with the purification closed form at equal weights
    for theta in np.linspace(0.0, np.pi, 61):
        kw = discord_pure_koashi_winter(0.5, abs(np.cos(theta)))
        assert example_discord_closed_form(theta) == pytest.approx(kw.discord, abs=1e-13)


def test_accessible_information_orthogonal_pair():
    res = accessible_information(QubitEnsemble.pure_pair(np.pi / 2))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert abs(res.n_opt @ X) == pytest.approx(1.0, abs=1e-6)
    assert not res.degenerate


def test_accessible_information_identical_states():
    res = accessible_information(QubitEnsemble(0.5, 0.5, [0, 0.6, 0.1], [0, 0.6, 0.1]))
    assert res.value == pytest.approx(0.0, abs=1e-14)
    assert res.degenerate
    # deterministic canonical axis: same output on repeated runs
    res2 = accessible_information(QubitEnsemble(0.5, 0.5, [0, 0.6, 0.1], [0, 0.6, 0.1]))
    np.testing.assert_array_equal(res.n_opt, res2.n_opt)


def test_accessible_information_pi4():
    res = accessible_information(QubitEnsemble.pure_pair(np.pi / 4))
    assert res.value == pytest.approx(MI_PI4, abs=1e-12)
    assert abs(res.n_opt @ X) == pytest.approx(1.0, abs=1e-6)
    # matches a direct evaluation at the known optimal axis
    direct = classical_mutual_information(QubitEnsemble.pure_pair(np.pi / 4), X)
    assert res.value == pytest.approx(direct, abs=1e-12)


def test_quantum_discord_values():
    assert quantum_discord(QubitEnsemble.pure_pair(np.pi / 2)).value == pytest.approx(0.0, abs=1e-12)
    assert quantum_discord(QubitEnsemble.pure_pair(np.pi / 4)).value == pytest.approx(D_PI4, abs=1e-12)
    res = quantum_discord(QubitEnsemble(0.5, 0.5, [0, 0, 0.5], [0, 0, -0.5]))
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert abs(res.n_opt @ Z) == pytest.approx(1.0, abs=1e-6)


def test_discord_complementarity_random(rng):
    for _ in range(100):
        ens = random_ensemble(rng)
        chi = holevo_chi(ens)
        acc = accessible_information(ens)
        d = quantum_discord(ens)
        assert d.value >= 0.0
        assert acc.value <= chi + 1e-10
        assert abs(chi - acc.value - d.value) <= 1e-10
        np.testing.assert_array_equal(acc.n_opt, d.n_opt)


def test_discord_matches_koashi_winter_random(rng):
    for _ in range(60):
        ens = random_pure_pair(rng)
        kw = discord_pure_koashi_winter(ens.lambda0, pure_overlap(ens.a, ens.b))
        assert quantum_discord(ens).value == pytest.approx(kw.discord, abs=1e-6)


def test_optimal_axis_is_x_for_mirror_family():
    for theta in np.linspace(0.05, np.pi / 2 - 0.05, 21):
        res = accessible_information(QubitEnsemble.pure_pair(theta))
        assert abs(res.n_opt @ X) >= 1.0 - 1e-6


def test_stationarity_residual_mirror_pair_at_x():
    # the shared optimal axis: the log-odds are exact inverses and the
    # perpendicular components coincide, so the defect cancels exactly
    for theta in (0.1, 0.7, 1.2, 1.5):
        ens = QubitEnsemble.pure_pair(theta)
        assert stationarity_residual(ens, X) <= 1e-15


def test_stationarity_residual_identical_states(rng):
    ens = QubitEnsemble(0.3, 0.7, [0, 0, 0.5], [0, 0, 0.5])
    for _ in range(10):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        assert stationarity_residual(ens, n) <= 1e-12


def test_stationarity_residual_symmetry_axis_is_critical():
    # z is a genuine critical point of the mirror family (the information
    # minimum): both log-odds vanish there, so the defect is zero
    ens = QubitEnsemble.pure_pair(np.pi / 3)
    assert stationarity_residual(ens, Z) <= 1e-15


def test_stationarity_residual_tilted_axis():
    ens = QubitEnsemble.pure_pair(np.pi / 3)
    tilted = np.array([0.5, 0.0, np.sqrt(3.0) / 2.0])
    assert stationarity_residual(ens, tilted) == pytest.approx(STAT_TILTED_PI3, abs=1e-12)


def test_stationarity_residual_at_optimizer_output(rng):
    count = 0
    while count < 60:
        ens = random_ensemble(rng)
        if not nondegenerate(ens):
            continue
        count += 1
        res = accessible_information(ens)
        assert res.stationarity_residual <= 1e-6


def test_check_analytic_conditions_mirror_pair():
    for theta in (0.4, 1.0):
        report = check_analytic_conditions(QubitEnsemble.pure_pair(theta), X)
        assert report.odds_inverse_holds
        assert not report.perp_balance_holds  # perp parts add up along z
        assert report.residual <= 1e-12
        assert not report.singular
    # at theta = pi/2 the perpendicular parts vanish as well
    report = check_analytic_conditions(QubitEnsemble.pure_pair(np.pi / 2), X)
    assert report.odds_inverse_holds and report.perp_balance_holds


def test_check_analytic_conditions_mixed_mirror_pair():
    # mixed states with |a| = |b| and the average orthogonal to the axis
    a = 0.7 * np.array([np.sin(0.8), 0.0, np.cos(0.8)])
    b = 0.7 * np.array([-np.sin(0.8), 0.0, np.cos(0.8)])
    report = check_analytic_conditions(QubitEnsemble(0.5, 0.5, a, b), X)
    assert report.odds_inverse_holds
    assert report.residual <= 1e-12


def test_check_analytic_conditions_identical_states():
    # identical states: every axis is stationary; the weighted perpendicular
    # balance holds only when the states carry no perpendicular part at all
    report = check_analytic_conditions(QubitEnsemble(0.5, 0.5, [0, 0, 0], [0, 0, 0]), X)
    assert report.odds_inverse_holds and report.perp_balance_holds
    report = check_analytic_conditions(
        QubitEnsemble(0.5, 0.5, [0, 0, 0.6], [0, 0, 0.6]), X
    )
    assert report.odds_inverse_holds
    assert report.residual <= 1e-12
    assert report.perp_balance_residual == pytest.approx(0.6, abs=1e-12)


def test_stationarity_flags_boundary_axes():
    # measuring a pure state along its own axis clamps a log factor
    ens = QubitEnsemble(0.5, 0.5, [0, 0, 1.0], [0.6, 0, 0])
    report = check_analytic_conditions(ens, Z)
    assert report.singular
    assert np.isfinite(report.residual)


def test_optimization_result_metadata(rng):
    ens = random_ensemble(rng)
    res = accessible_information(ens)
    assert res.method == "in-plane golden-section"
    assert res.evaluations >= 720
    assert np.linalg.norm(res.n_opt) == pytest.approx(1.0, abs=1e-12)
    assert res.stationarity_residual >= 0.0


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_rotation_covariance_of_optimum(seed):
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng)
    if not nondegenerate(ens):
        return
    rot = random_rotation(rng)
    res = accessible_information(ens)
    res_rot = accessible_information(rotate_ensemble(ens, rot))
    assert res_rot.value == pytest.approx(res.value, abs=1e-9)
    assert abs((rot @ res.n_opt) @ res_rot.n_opt) == pytest.approx(1.0, abs=1e-6)


def test_degenerate_weight_ensembles():
    res = quantum_discord(QubitEnsemble(1.0, 0.0, [0, 0, 0.8], [0.5, 0, 0]))
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert accessible_information(QubitEnsemble(0.0, 1.0, [0, 0, 0.8], [0.5, 0, 0])).value == pytest.approx(
        0.0, abs=1e-12
    )


@given(ens=near_degenerate_ensembles())
@settings(max_examples=60, deadline=None)
def test_near_degenerate_pairs(ens):
    chi = holevo_chi(ens)
    acc = accessible_information(ens)
    disc = quantum_discord(ens)
    assert np.linalg.norm(acc.n_opt) == pytest.approx(1.0, abs=1e-12)
    assert acc.value <= chi + 1e-12
    assert disc.value >= 0.0
    assert abs(chi - acc.value - disc.value) <= 1e-10


# Nearly identical pair whose round-off ripple gives its scan 26 bracketed peaks.
MULTI_PEAK = QubitEnsemble(
    0.5359919582166901,
    1.0 - 0.5359919582166901,
    [-0.3978495526046214, -0.636048782670871, 0.5438527645538032],
    [-0.397850014598044, -0.6360482517814259, 0.5438520774223549],
)
# A tolerance at the nominal bracket width after 40 golden steps: round-off
# puts some brackets just above it and some just below, so they finish one
# step apart.
SPLIT_TOL = 2.0 * discord._DPHI * discord._INVPHI**40


def _bits(res):
    return (
        res.n_opt.tobytes(),
        float(res.value).hex(),
        float(res.stationarity_residual).hex(),
        res.evaluations,
        res.degenerate,
        res.method,
    )


@pytest.mark.parametrize("tol", [discord._ANGLE_TOL, SPLIT_TOL], ids=["default", "split"])
def test_golden_lockstep_follows_scalar_golden_section(rng, tol):
    """Each lockstep row takes the scalar _golden_max steps on the public objective."""
    ensembles = [random_ensemble(rng) for _ in range(6)] + [MULTI_PEAK]
    brackets = [
        (ens, *discord._plane_basis(ens), float(phi0))
        for ens in ensembles
        for phi0 in discord._PHIS[[0, 1, 200, 359, 360, 601, 719]]
    ]
    ens_, u1, u2, phi0 = zip(*brackets)
    with mock.patch.object(discord, "_ANGLE_TOL", tol):
        phi, vals, used = discord._golden_lockstep(
            np.array(phi0),
            np.array(u1),
            np.array(u2),
            np.array([e.a for e in ens_]),
            np.array([e.b for e in ens_]),
            np.array([0.5 * e.lambda0 for e in ens_]),
            np.array([0.5 * e.lambda1 for e in ens_]),
            np.array([binary_entropy(e.lambda0) for e in ens_]),
        )
    for k, (ens, b1, b2, p0) in enumerate(brackets):
        with mock.patch.object(discord, "_ANGLE_TOL", tol):
            x, fx, evals = discord._golden_max(
                lambda p: classical_mutual_information(ens, np.cos(p) * b1 + np.sin(p) * b2),
                p0 - discord._DPHI,
                p0 + discord._DPHI,
            )
        assert (float(x).hex(), float(fx).hex(), evals) == (
            float(phi[k]).hex(), float(vals[k]).hex(), int(used[k])
        ), k
    assert len(set(used.tolist())) == (1 if tol == discord._ANGLE_TOL else 2)


@given(seed=st.integers(0, 2**32 - 1), extra=st.lists(near_degenerate_ensembles(), max_size=4))
@settings(max_examples=6, deadline=None)
def test_batch_matches_single_calls(seed, extra):
    """One mixed batch gives the results of one-ensemble calls, to the bit."""
    rng = np.random.default_rng(seed)
    batch = (
        [random_ensemble(rng) for _ in range(4)]
        + [random_pure_pair(rng) for _ in range(2)]
        + [QubitEnsemble(0.4, 0.6, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])]  # flat objective
        + [QubitEnsemble(0.0, 1.0, [0, 0, 0.8], [0.5, 0, 0])]
        + [QubitEnsemble(1.0, 0.0, [0.3, 0, 0.4], [0, 0.6, 0])]
        + [MULTI_PEAK]
        + extra
    )
    batch = [batch[i] for i in rng.permutation(len(batch))]
    for tol in (discord._ANGLE_TOL, SPLIT_TOL):
        with mock.patch.object(discord, "_ANGLE_TOL", tol):
            together = discord._accessible_information_batch(batch)
            alone = [accessible_information(ens) for ens in batch]
        assert [_bits(r) for r in together] == [_bits(r) for r in alone]
    evaluations = {ens: r.evaluations for ens, r in zip(batch, together)}
    assert evaluations[MULTI_PEAK] < 720 + 26 * 51  # SPLIT_TOL stops before step 48
