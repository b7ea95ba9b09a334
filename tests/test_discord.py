import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import qdiscord.discord as discord
from qdiscord.ensemble import _EnsembleArrays
from qdiscord.measurement import _row_constants, _row_objective

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
from conftest import (
    golden_max,
    hard_region_ensembles,
    near_degenerate_ensembles,
    nondegenerate,
    random_rotation,
    rotate_ensemble,
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


def test_two_maximally_mixed_states_take_the_x_tie_break():
    """a = b = 0: the plane basis falls back to (x, y), and the flat scan picks x."""
    ens = QubitEnsemble(0.5, 0.5, [0, 0, 0], [0, 0, 0])
    u1, u2 = discord._plane_basis(ens)
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
# A tolerance at the nominal bracket width after 40 golden steps: round-off
# puts some brackets just above it and some just below, so they finish one
# step apart.
SPLIT_TOL = 2.0 * discord._DPHI * discord._INVPHI**40


def _spy(name):
    """Patch a discord function with a mock that records its calls and runs it."""
    return mock.patch.object(discord, name, wraps=getattr(discord, name))


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
@pytest.mark.parametrize("tol", [discord._ANGLE_TOL, SPLIT_TOL], ids=["default", "split"])
def test_golden_lockstep_follows_scalar_golden_section(rng, tol):
    """Each lockstep row takes the scalar golden-section steps on the public objective."""
    ensembles = [random_ensemble(rng) for _ in range(6)] + [MULTI_PEAK]
    brackets = [
        (ens, *discord._plane_basis(ens), float(phi0))
        for ens in ensembles
        for phi0 in discord._PHIS[[0, 1, 200, 359, 360, 601, 719]]
    ]
    ens_, u1, u2, phi0 = zip(*brackets)
    u1, u2 = np.array(u1), np.array(u2)
    consts = _row_constants(_EnsembleArrays.of(ens_), False)
    phi0 = np.array(phi0)
    with mock.patch.object(discord, "_ANGLE_TOL", tol):
        phi, vals, used = discord._golden_lockstep(
            lambda p: _row_objective(consts)(discord._plane_axes(p, u1, u2)),
            phi0 - discord._DPHI,
            phi0 + discord._DPHI,
        )
    for k, (ens, b1, b2, p0) in enumerate(brackets):
        x, fx, evals = golden_max(
            lambda p: classical_mutual_information(ens, np.cos(p) * b1 + np.sin(p) * b2),
            p0 - discord._DPHI,
            p0 + discord._DPHI,
            tol,
        )
        assert (float(x).hex(), float(fx).hex(), evals) == (
            float(phi[k]).hex(), float(vals[k]).hex(), int(used[k])
        ), k
    assert len(set(used.tolist())) == (1 if tol == discord._ANGLE_TOL else 2)


@pytest.mark.host_bits
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(st.one_of(near_degenerate_ensembles(), hard_region_ensembles()), max_size=4),
)
@settings(max_examples=6, deadline=None)
def test_batch_matches_single_calls(seed, extra):
    """accessible_information of a mixed block gives the one-ensemble results, to the bit.

    MULTI_PEAK and NO_SIGN_CHANGE send brackets to the golden-section fallback
    and the others to the root search, in the same batch.
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
    for tol in (discord._ANGLE_TOL, SPLIT_TOL):
        with (
            mock.patch.object(discord, "_ANGLE_TOL", tol),
            _spy("_slope_root_lockstep") as root,
            _spy("_golden_lockstep") as golden,
        ):
            together = accessible_information(_EnsembleArrays.of(batch))
        # 24 of MULTI_PEAK's 26 brackets and one of NO_SIGN_CHANGE's two fall back.
        assert 25 <= golden.call_args.args[1].size < root.call_args.args[0].size
        with mock.patch.object(discord, "_ANGLE_TOL", tol):
            alone = [accessible_information(ens) for ens in batch]
        assert [_bits(together, k) for k in range(len(batch))] == [_bits(r) for r in alone]
    evaluations = dict(zip(batch, together.evaluations.tolist()))
    # 2046 at the default tolerance: SPLIT_TOL stops the golden-section brackets early
    assert evaluations[MULTI_PEAK] < 720 + 26 * 51


# Extreme weight whose scan has two peaks; at one of them the slope has the
# same sign at both ends of the bracket.
NO_SIGN_CHANGE = QubitEnsemble(
    0.999999999998447,
    1.0 - 0.999999999998447,
    [-0.6402497869212368, 0.2326847591463648, 0.6862908155260443],
    [-0.46379146448667813, 0.32677865351271496, -0.5194114513211634],
)


@pytest.mark.host_bits
def test_bracket_without_sign_change_keeps_golden_section():
    """The fallback row gets the scalar golden-section result on the public objective."""
    polished = []

    def polish(*rows, real=discord._polish):
        polished.append((rows, real(*rows)))
        return polished[-1][1]

    with mock.patch.object(discord, "_polish", polish), _spy("_golden_lockstep") as golden:
        accessible_information(NO_SIGN_CHANGE)
    [((phi0, u1, u2, *_), (axes, vals, used))] = polished
    assert phi0.size == 2
    [k] = np.flatnonzero(phi0 - discord._DPHI == golden.call_args.args[1])
    x, fx, evals = golden_max(
        lambda p: classical_mutual_information(
            NO_SIGN_CHANGE, np.cos(p) * u1[k] + np.sin(p) * u2[k]
        ),
        phi0[k] - discord._DPHI,
        phi0[k] + discord._DPHI,
        discord._ANGLE_TOL,
    )
    assert float(vals[k]).hex() == float(fx).hex()
    unit = discord._unit_axes(np.cos(x) * u1[k] + np.sin(x) * u2[k])
    np.testing.assert_array_equal(axes[k], unit)
    assert used[k] == 2 + evals  # the slope at both ends, then golden section


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
