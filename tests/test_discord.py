import json
import math
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import qdiscord.discord as discord
from qdiscord.ensemble import _EnsembleArrays

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
    geo_choice_classifier,
    geometric_discord,
    holevo_chi,
    pure_overlap,
    quantum_discord,
    random_ensemble,
    random_pure_pair,
    shannon_entropy,
    stationarity_residual,
)
from conftest import (
    hard_region_ensemble,
    hard_region_ensembles,
    near_degenerate_ensembles,
    nondegenerate,
    random_rotation,
    rotate_ensemble,
    seeded_hard_inputs,
)

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


def test_round_off_can_put_accessible_information_above_chi():
    """Two identical pure states: chi is 0, the information 2^-51, and the discord clamps to 0.

    The [0, chi] range of the docstring holds up to this round-off: the
    information keeps it, and _holevo_gap clamps it out of the discord.
    """
    ens = QubitEnsemble.pure_pair(0.0)
    chi, acc = holevo_chi(ens), accessible_information(ens)
    assert chi == 0.0
    assert acc.value == 2.0**-51
    assert acc.degenerate
    assert quantum_discord(ens).value == 0.0
    assert discord._holevo_gap(chi, acc.value) == 0.0


def test_two_maximally_mixed_states_take_the_x_tie_break():
    """a = b = 0: the plane basis falls back to (x, y), and the flat scan picks x."""
    ens = QubitEnsemble(0.5, 0.5, [0, 0, 0], [0, 0, 0])
    u1, u2 = (u[0] for u in discord._plane_basis_rows(ens.a[None], ens.b[None]))
    np.testing.assert_array_equal(u1, X)
    np.testing.assert_array_equal(u2, [0.0, 1.0, 0.0])
    res = accessible_information(ens)
    assert res.value == 0.0
    np.testing.assert_array_equal(res.n_opt, X)
    assert res.degenerate


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
        assert res.stationarity_residual <= 1e-10


@given(ens=hard_region_ensembles())
@settings(max_examples=100, deadline=None)
def test_stationarity_residual_at_optimizer_output_in_hard_region(ens):
    """Non-degenerate optima are stationary to 1e-10 plus the defect's own rounding.

    Evaluating the defect at n carries an error of about
    sum_i lambda_i eps |v_i_perp| / ((1 - |v_i.n|) ln 2), from the rounding of
    v_i.n inside its log.  That exceeds 1e-10 only within about 2e-11 of a
    pure state's own axis, where extreme weights put the optimum.
    """
    res = accessible_information(ens)
    if res.degenerate:
        return
    n = res.n_opt
    rounding = 0.0
    for lam, v in ((ens.lambda0, ens.a), (ens.lambda1, ens.b)):
        vn = float(v @ n)
        gap = max(1.0 - abs(vn), discord._LOG_CLAMP)
        rounding += lam * np.finfo(float).eps * np.linalg.norm(v - vn * n) / (gap * np.log(2.0))
    assert res.stationarity_residual <= 1e-10 + 4.0 * rounding


# Around x the mirror pair's information is flat to order theta^4, so round-off
# in the slope moves its root by about eps / theta^3: on a 20 001-point grid
# |n_opt_z| first exceeds 1e-12 below theta = 0.097 (and above pi - 0.097).
MIRROR_FLOOR = 0.12


def test_mirror_pair_optimum_is_x_to_round_off():
    for theta in np.linspace(MIRROR_FLOOR, np.pi - MIRROR_FLOOR, 301):
        n = accessible_information(QubitEnsemble.pure_pair(theta)).n_opt
        assert abs(n[2]) <= 1e-12 and n[0] > 0.0, theta


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


def test_mixed_mirror_pair_against_mpmath():
    """chi, I_acc and the discord of equal-weight mixed mirror pairs, to 1e-14 absolute.

    The pair has norms r and half-angle theta: I_acc = 1 - h((1 + r sin t)/2)
    and chi = h((1 + r cos t)/2) - h((1 + r)/2).  The I_acc form is the
    information of the axis along a - b, optimal only numerically (no proof
    is known for mixed states).  The 50-digit reference is taken from the
    float inputs themselves: |a - b|/2, |a + b|/2, |a| and |b|.  No relative
    bound is asserted: where the discord is far below 1e-16 the gap of two
    rounded entropies cannot hold it.
    """
    mpmath = pytest.importorskip("mpmath")

    def h(p):
        return -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2) if 0 < p < 1 else 0

    def norm(v):
        return mpmath.sqrt(sum(x * x for x in v))

    rng = np.random.default_rng(2013)
    with mpmath.workdps(50):
        for r in np.geomspace(1e-3, 1.0, 7):
            for theta in np.geomspace(1e-4, np.pi / 2, 9):
                a = r * np.array([np.sin(theta), 0.0, np.cos(theta)])
                b = r * np.array([-np.sin(theta), 0.0, np.cos(theta)])
                for rot in (np.eye(3), random_rotation(rng)):
                    ens = QubitEnsemble(0.5, 0.5, rot @ a, rot @ b)
                    ma, mb = ([mpmath.mpf(float(x)) for x in v] for v in (ens.a, ens.b))
                    s = norm([x - y for x, y in zip(ma, mb)]) / 2
                    c = norm([x + y for x, y in zip(ma, mb)]) / 2
                    na, nb = (min(norm(v), 1) for v in (ma, mb))
                    chi = h((1 + c) / 2) - (h((1 + na) / 2) + h((1 + nb) / 2)) / 2
                    i_acc = 1 - h((1 + s) / 2)
                    got = (holevo_chi(ens), accessible_information(ens).value, quantum_discord(ens).value)
                    for value, want in zip(got, (chi, i_acc, chi - i_acc)):
                        assert abs(value - float(want)) <= 1e-14, (r, theta, value, want)


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


def test_one_ensemble_reports_hold_python_scalars():
    """Every field of a one-ensemble report is a Python float, bool or str, so JSON takes it."""
    ens = QubitEnsemble.pure_pair(0.4)
    reports = [
        check_analytic_conditions(ens, X),
        check_analytic_conditions(QubitEnsemble(0.5, 0.5, [0, 0, 1.0], [0.6, 0, 0]), Z),
        geo_choice_classifier(ens, geometric_discord(ens).n_opt),
        discord_pure_koashi_winter(0.3, 0.5),
        discord_pure_koashi_winter(1.0, 0.0),
    ]
    for report in reports:
        fields = vars(report)
        assert all(type(v) in (float, bool, str) for v in fields.values()), fields
        assert json.loads(json.dumps(fields)) == fields
    assert all(type(x) is float for x in average_state_eigen_split(0.3, 0.5))
    # Array calls keep their arrays.
    kw = discord_pure_koashi_winter(np.array([0.3, 0.5]), np.array([0.5, 1.0]))
    assert all(isinstance(v, np.ndarray) and v.shape == (2,) for v in vars(kw).values())


def test_optimization_result_metadata(rng):
    ens = random_ensemble(rng)
    res = accessible_information(ens)
    assert res.method == "in-plane root search"
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


def _record(name, calls):
    """Patch a discord function to run as before and append (args, result) of each call to calls."""
    real = getattr(discord, name)

    def record(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    return mock.patch.object(discord, name, record)


def _bits(res, k=None):
    """The fields of a one-ensemble result, or of row k of a block's result."""

    def row(x):
        return x if k is None else x[k]

    return (
        row(res.n_opt).tobytes(),
        float(row(res.value)).hex(),
        float(row(res.stationarity_residual)).hex(),
        int(row(res.evaluations)),
        bool(row(res.degenerate)),
        res.method,
    )


@pytest.mark.host_bits
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(st.one_of(near_degenerate_ensembles(), hard_region_ensembles()), max_size=4),
)
@settings(max_examples=6, deadline=None)
def test_batch_matches_single_calls(seed, extra):
    """accessible_information of a mixed block gives the one-ensemble results, to the bit.

    MULTI_PEAK and NO_SIGN_CHANGE give brackets whose slope changes no sign,
    which keep their scan points, in the same batch as brackets with a root.
    """
    rng = np.random.default_rng(seed)
    batch = (
        [random_ensemble(rng) for _ in range(4)]
        + [random_pure_pair(rng) for _ in range(2)]
        + [QubitEnsemble(0.4, 0.6, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])]  # flat objective
        + [QubitEnsemble(0.0, 1.0, [0, 0, 0.8], [0.5, 0, 0])]
        + [QubitEnsemble(1.0, 0.0, [0.3, 0, 0.4], [0, 0.6, 0])]
        + [MULTI_PEAK, NO_SIGN_CHANGE]
        + extra
    )
    batch = [batch[i] for i in rng.permutation(len(batch))]
    roots, picks = [], []
    with _record("_slope_root", roots), _record("_pick_rows", picks):
        together = accessible_information(_EnsembleArrays.of(batch))
    [(_, (phi, _))] = roots
    # 24 of MULTI_PEAK's 26 brackets and one of NO_SIGN_CHANGE's two have no root.
    assert 25 <= np.isnan(phi).sum() < phi.size
    # Rows of several brackets: the brackets are re-indexed to their rows and picked.
    assert picks
    alone = [accessible_information(ens) for ens in batch]
    assert [_bits(together, k) for k in range(len(batch))] == [_bits(r) for r in alone]
    evaluations = dict(zip(batch, together.evaluations.tolist()))
    # 720 + 24 * 3 + 54 with numpy's AVX-512 dispatch, 720 + 24 * 3 + 37 without:
    # round-off moves the two root searches.
    assert evaluations[MULTI_PEAK] <= 846


# Extreme weight whose scan has two peaks; at one of them the slope has the
# same sign at both ends of the bracket.
NO_SIGN_CHANGE = QubitEnsemble(
    0.999999999998447,
    1.0 - 0.999999999998447,
    [-0.6402497869212368, 0.2326847591463648, 0.6862908155260443],
    [-0.46379146448667813, 0.32677865351271496, -0.5194114513211634],
)


@pytest.mark.host_bits
def test_bracket_without_sign_change_keeps_its_scan_point():
    """The bracket with no root of the slope gets the scan axis and the public objective there."""
    polished, roots = [], []
    with _record("_polish", polished), _record("_slope_root", roots):
        accessible_information(NO_SIGN_CHANGE)
    [((phi0, u1, u2, *_), (axes, vals, used))] = polished
    [(_, (phi, _))] = roots
    assert phi0.size == 2
    [k] = np.flatnonzero(np.isnan(phi))
    assert used[k] == 3  # the slope at both ends, then the value
    unit = discord._unit_axes(np.cos(phi0[k]) * u1[k] + np.sin(phi0[k]) * u2[k])
    np.testing.assert_array_equal(axes[k], unit)
    assert float(vals[k]).hex() == float(classical_mutual_information(NO_SIGN_CHANGE, unit)).hex()


def _flat_draw(rng, kind):
    """An extreme-weight or a tiny-norm ensemble, eps log-uniform in [1e-12, 1e-2].

    Extreme weights are hard_region_ensemble's (l0 = eps or 1 - eps, each
    state pure or of uniform norm); tiny norms have |a|, |b| log-uniform in
    [1e-12, 1e-3] and a uniform l0.
    """
    eps = 10.0 ** rng.uniform(-12.0, -2.0)
    if kind == "extreme_weight":
        return hard_region_ensemble(rng, kind, eps, (eps, 1.0 - eps)[rng.integers(2)])
    d = rng.normal(size=(2, 3))
    a, b = d / np.linalg.norm(d, axis=1, keepdims=True) * 10.0 ** rng.uniform(-12.0, -3.0, (2, 1))
    l0 = rng.uniform()
    return QubitEnsemble(l0, 1.0 - l0, a, b)


@pytest.mark.parametrize("kind", ["extreme_weight", "tiny_norm"])
def test_flat_objectives_reach_the_dense_in_plane_maximum(kind):
    """On objectives flat to about 1e-12 the value is the best of 2^14 in-plane angles, to round-off.

    These are the rows whose brackets can show no sign change of the slope
    and keep their scan points; the draws must give some such brackets.
    """
    rng = np.random.default_rng(3)
    phis = np.linspace(0.0, np.pi, 2**14, endpoint=False)[:, None]
    # A lone call's brackets go one at a time through _slope_root_one.
    roots = []
    with _record("_slope_root_one", roots):
        for _ in range(40):
            ens = _flat_draw(rng, kind)
            u1, u2 = (u[0] for u in discord._plane_basis_rows(ens.a[None], ens.b[None]))
            dense = classical_mutual_information(ens, np.cos(phis) * u1 + np.sin(phis) * u2)
            assert accessible_information(ens).value >= dense.max() - 1e-13, ens
    assert sum(math.isnan(phi) for _, (phi, _) in roots) >= 5


def _bracket_mix(rng, count):
    """seeded_hard_inputs, count draws of each of _flat_draw's kinds, MULTI_PEAK and NO_SIGN_CHANGE."""
    flat = [_flat_draw(rng, kind) for kind in ("extreme_weight", "tiny_norm") for _ in range(count)]
    return [MULTI_PEAK, NO_SIGN_CHANGE] + seeded_hard_inputs(rng, count) + flat


@pytest.mark.host_bits
def test_blocks_of_many_brackets_match_single_calls():
    """Blocks of 17 and of over 512 rows give each row its one-ensemble result, to the bit.

    The small block holds NO_SIGN_CHANGE and one-bracket draws, 18
    brackets in all.  The large one is _bracket_mix: MULTI_PEAK's round-off
    ripple gives brackets of many steps, NO_SIGN_CHANGE and the flat draws
    brackets without a root.
    """
    rng = np.random.default_rng(29)
    single = []  # draws with one bracket, which a lone call searches with one _slope_root_one call
    while len(single) < 16:
        roots = []
        with _record("_slope_root_one", roots):
            accessible_information(ens := random_ensemble(rng))
        if len(roots) == 1:
            single.append(ens)
    # NO_SIGN_CHANGE brings two brackets, one of them without a root.
    small = [NO_SIGN_CHANGE] + single
    mix = _bracket_mix(np.random.default_rng(28), 60)
    assert len(mix) >= 512
    for block, brackets in ((small, len(small) + 1), (mix, None)):
        roots = []
        with _record("_slope_root", roots):
            together = accessible_information(_EnsembleArrays.of(block))
        [(args, (phi, evals))] = roots
        assert brackets is None or phi.size == brackets
        assert [_bits(together, k) for k in range(len(block))] == [_bits(accessible_information(e)) for e in block]
    assert np.isnan(phi).sum() >= 25 and evals.max() >= 18


@pytest.mark.host_bits
def test_blocks_of_one_bracket_per_row_match_single_calls():
    """A block whose rows have one bracket each polishes its arrays as they are, skips the pick, and gives each row its one-ensemble result.

    Blocks of 3 and 40 rows take the one-slice scan and the sliced scan.
    """
    rng = np.random.default_rng(30)
    single = []  # draws with one bracket, which a lone call searches with one _slope_root_one call
    for ens in seeded_hard_inputs(rng, 10) + [random_ensemble(rng) for _ in range(30)]:
        roots = []
        with _record("_slope_root_one", roots):
            accessible_information(ens)
        if len(roots) == 1:
            single.append(ens)
    assert len(single) >= 40
    for block in (single[:3], single[-40:]):
        polished, picks = [], []
        with _record("_polish", polished), _record("_pick_rows", picks):
            together = accessible_information(_EnsembleArrays.of(block))
        [((phi0, u1, *_), _)] = polished
        assert phi0.size == len(u1) == len(block)
        assert picks == []
        assert [_bits(together, k) for k in range(len(block))] == [_bits(accessible_information(e)) for e in block]
    # As many brackets as rows, but both of one row: the other is flat and capped.
    flat = QubitEnsemble(0.4, 0.6, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
    for block in ([NO_SIGN_CHANGE, flat], [flat, NO_SIGN_CHANGE]):
        picks = []
        with _record("_pick_rows", picks):
            together = accessible_information(_EnsembleArrays.of(block))
        assert len(picks) == 2
        assert [_bits(together, k) for k in range(len(block))] == [_bits(accessible_information(e)) for e in block]


def _rolled_peaks(vals):
    return np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))


def test_scan_peaks_match_the_rolled_comparison(rng):
    """Peaks by wrapped slices equal those of np.roll, including across the wrap."""
    count = discord._SCAN_POINTS
    phis = discord._PHIS
    scans = [rng.random(count) for _ in range(10)]
    scans += [np.round(3.0 * rng.random(count)) for _ in range(5)]  # many ties
    scans += [np.zeros(count), np.full(count, 0.3)]  # flat
    # Plateaus at both ends, which meet across the wrap, above, below and
    # level with the points next to them.
    for level in (2.0, -2.0, np.sin(2.0 * phis[10])):
        for lead, tail in ((10, 10), (1, 25), (25, 1)):
            vals = np.sin(2.0 * phis)
            vals[:lead] = level
            vals[count - tail :] = level
            scans.append(vals)
    # Single maxima on either side of the wrap.
    scans += [np.cos(2.0 * phis), np.cos(2.0 * (phis + discord._DPHI))]
    for vals in scans:
        np.testing.assert_array_equal(np.flatnonzero(discord._scan_peaks(vals)), _rolled_peaks(vals))
    # Every scan at once, one row each, as the search takes them.
    np.testing.assert_array_equal(
        discord._scan_peaks(np.array(scans)), np.array([discord._scan_peaks(v) for v in scans])
    )
    assert np.flatnonzero(discord._scan_peaks(scans[-2])).tolist() == [0]
    assert np.flatnonzero(discord._scan_peaks(scans[-1])).tolist() == [count - 1]
