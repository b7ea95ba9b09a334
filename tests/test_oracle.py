import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import qdiscord.discord as discord
import qdiscord.oracle as oracle
from qdiscord import (
    QubitEnsemble,
    accessible_information,
    brute_force_accessible,
    brute_force_geo,
    canonical_axis,
    classical_mutual_information,
    ensemble_purity,
    fibonacci_sphere,
    geo_stationarity_residual,
    geometric_discord,
    holevo_chi,
    post_measurement_purity,
    quantum_discord,
    random_ensemble,
    random_pure_pair,
    stationarity_residual,
)
from qdiscord.ensemble import _EnsembleArrays

from conftest import golden_max, hard_region_ensembles, near_degenerate_ensembles

# h((2+sqrt(2))/4) based, frozen from mpmath
MI_PI4 = 0.399123963307143899


def _max_nn_angle(points: np.ndarray) -> float:
    dist, _ = cKDTree(points).query(points, k=2)
    return float(np.max(2.0 * np.arcsin(np.clip(dist[:, 1] / 2.0, 0.0, 1.0))))


def test_fibonacci_two_points_are_antipodal():
    grid = fibonacci_sphere(2)
    assert grid.shape == (2, 3)
    np.testing.assert_allclose(grid[0], -grid[1], atol=1e-15)


@pytest.mark.parametrize("count", [2, 3, 10, 101, 1000])
def test_fibonacci_unit_norms(count):
    grid = fibonacci_sphere(count)
    assert grid.shape == (count, 3)
    np.testing.assert_allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-12)


def test_fibonacci_rejects_tiny_grids():
    with pytest.raises(ValueError):
        fibonacci_sphere(1)


def test_fibonacci_deterministic():
    np.testing.assert_array_equal(fibonacci_sphere(500), fibonacci_sphere(500))


def test_fibonacci_spacing_regression():
    # measured once and frozen: the lattice stays below C/sqrt(N) with C ~ 3.6
    assert _max_nn_angle(fibonacci_sphere(10_000)) < 0.04
    for count in (100, 1000, 10_000):
        assert _max_nn_angle(fibonacci_sphere(count)) < 3.6 / np.sqrt(count)


def test_brute_force_accessible_examples():
    res = brute_force_accessible(QubitEnsemble.pure_pair(np.pi / 2), 10_000)
    assert res.value == pytest.approx(1.0, abs=1e-6)
    res = brute_force_accessible(QubitEnsemble.pure_pair(np.pi / 4), 10_000)
    assert res.value == pytest.approx(MI_PI4, abs=1e-5)
    assert abs(res.n_opt[0]) == pytest.approx(1.0, abs=1e-4)
    res = brute_force_accessible(QubitEnsemble(0.5, 0.5, [0, 0.3, 0.4], [0, 0.3, 0.4]), 2_000)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_brute_force_geo_examples():
    res = brute_force_geo(QubitEnsemble.pure_pair(np.pi / 6), 10_000)
    assert res.value == pytest.approx(0.0625, abs=1e-6)
    res = brute_force_geo(QubitEnsemble.pure_pair(np.pi / 4), 10_000)
    assert res.value == pytest.approx(0.125, abs=1e-6)
    res = brute_force_geo(QubitEnsemble(0.4, 0.6, [0, 0, 0.9], [0, 0, 0.45]), 2_000)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_oracle_never_beats_the_optimizer(rng):
    for _ in range(40):
        ens = random_ensemble(rng)
        acc = accessible_information(ens)
        geo = geometric_discord(ens)
        oracle_acc = brute_force_accessible(ens, 2_000)
        oracle_geo = brute_force_geo(ens, 2_000)
        # a grid cannot beat a true maximum beyond refinement tolerance
        assert oracle_acc.value <= acc.value + 1e-6
        assert oracle_geo.value >= geo.value - 1e-6
        # and with the polish it should essentially reach it
        assert oracle_acc.value == pytest.approx(acc.value, abs=1e-5)
        assert oracle_geo.value == pytest.approx(geo.value, abs=1e-5)


@given(ens=hard_region_ensembles())
@settings(max_examples=40, deadline=None)
def test_hard_region_ensembles_agree_with_oracle(ens):
    """Extreme weights, pure states and tiny norms, checked against the default grid."""
    chi = holevo_chi(ens)
    acc = accessible_information(ens)
    disc = quantum_discord(ens)
    geo = geometric_discord(ens)
    oracle_acc = brute_force_accessible(ens)
    oracle_geo = brute_force_geo(ens)
    for res in (acc, disc, geo):
        assert np.linalg.norm(res.n_opt) == pytest.approx(1.0, abs=1e-12)
    assert acc.value <= chi + 1e-12
    assert abs(chi - acc.value - disc.value) <= 1e-10
    assert abs(acc.value - oracle_acc.value) <= 1e-5
    assert oracle_acc.value - acc.value <= 1e-6
    assert abs(geo.value - oracle_geo.value) <= 1e-5
    assert geo.value - oracle_geo.value <= 1e-6


def test_oracle_converges_with_grid_size(rng):
    # non-strict improvement in expectation across decades of N
    deficits = {n: [] for n in (100, 1000, 10_000)}
    for _ in range(15):
        ens = random_ensemble(rng)
        acc = accessible_information(ens)
        for n in deficits:
            deficits[n].append(acc.value - brute_force_accessible(ens, n).value)
    means = [np.mean(deficits[n]) for n in (100, 1000, 10_000)]
    assert means[1] <= means[0] + 1e-9
    assert means[2] <= means[1] + 1e-9
    assert abs(means[2]) <= 1e-5


def test_oracle_result_metadata():
    res = brute_force_accessible(QubitEnsemble.pure_pair(1.0), 500)
    assert res.method == "full-sphere grid + refine"
    assert res.evaluations >= 500
    assert np.linalg.norm(res.n_opt) == pytest.approx(1.0, abs=1e-12)


def _polish_reference(objective, start, halfwidth):
    """The oracle's polish for one row, on the public objective and scalar golden section.

    Up to three sweeps of two tangent line searches, re-deriving the frame
    after each accepted move and stopping once a sweep gains < 1e-15.
    """
    p = np.array(start, dtype=float)
    best = float(objective(p))
    evals = 1
    for _ in range(3):
        gained = 0.0
        t1 = discord._any_perpendicular(p)
        t2 = np.cross(p, t1)
        for t in (t1, t2):
            alpha, val, used = golden_max(
                lambda a, axis=t, center=p: float(objective(np.cos(a) * center + np.sin(a) * axis)),
                -halfwidth,
                halfwidth,
                discord._ANGLE_TOL,
            )
            evals += used
            if val > best:
                gained = max(gained, val - best)
                p = np.cos(alpha) * p + np.sin(alpha) * t
                p /= np.linalg.norm(p)
                best = val
        if gained < 1e-15:
            break
    return p, best, evals


def _reference_bits(ens, grid_size, geo):
    """brute_force_geo (geo) or brute_force_accessible bits, one row by the scalar polish."""
    public = post_measurement_purity if geo else classical_mutual_information
    grid = fibonacci_sphere(grid_size)
    vals = public(ens, grid)
    k = int(np.argmax(vals))
    axis, value, evals = _polish_reference(
        lambda n: public(ens, n), grid[k], oracle._BRACKET_SCALE / np.sqrt(grid_size)
    )
    axis = canonical_axis(axis)
    value = max(value, float(vals[k]))
    if geo:
        value = max(ensemble_purity(ens) - value, 0.0)
        residual = geo_stationarity_residual(ens, axis)
    else:
        residual = stationarity_residual(ens, axis)
    return axis.tobytes(), float(value).hex(), float(residual).hex(), grid_size + evals


def _bits(res):
    return (
        res.n_opt.tobytes(),
        float(res.value).hex(),
        float(res.stationarity_residual).hex(),
        res.evaluations,
    )


COLUMNS = (
    ("n_opt", float),
    ("value", float),
    ("stationarity_residual", float),
    ("evaluations", int),
    ("degenerate", bool),
)


def _column_bits(columns):
    return [(c.dtype.str, c.shape, c.tobytes()) for c in columns]


@pytest.mark.host_bits
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(
        st.one_of(near_degenerate_ensembles(), hard_region_ensembles()), min_size=1, max_size=3
    ),
    grid_size=st.sampled_from([2, 300, 10_000]),
)
@settings(max_examples=5, deadline=None)
def test_mixed_oracle_batch_matches_one_row_calls_and_the_scalar_polish(seed, extra, grid_size):
    """Rows of both objectives polished together give each row's own result, to the bit."""
    rng = np.random.default_rng(seed)
    ensembles = [random_ensemble(rng) for _ in range(4)]
    ensembles += [random_pure_pair(rng) for _ in range(2)] + extra
    acc_rows = [ensembles[i] for i in rng.permutation(len(ensembles))]
    geo_rows = [ensembles[i] for i in rng.permutation(len(ensembles))[:-1]]
    rows = acc_rows + geo_rows
    purity = np.arange(len(rows)) >= len(acc_rows)
    block = oracle._brute_force_batch(_EnsembleArrays.of(rows), purity, grid_size)
    lone = [
        brute_force_geo(ens, grid_size) if geo else brute_force_accessible(ens, grid_size)
        for ens, geo in zip(rows, purity)
    ]
    # Every field but method is a column whose row k is the lone call on row k,
    # which gives Python scalars.
    assert block.method == oracle.FULL_SPHERE_METHOD
    assert all(type(getattr(r, f)) is t for r in lone for f, t in COLUMNS[1:])
    assert _column_bits(getattr(block, f) for f, _ in COLUMNS) == _column_bits(
        np.array([getattr(r, f) for r in lone], dtype=dtype) for f, dtype in COLUMNS
    )
    assert [_bits(r) for r in lone] == [
        _reference_bits(ens, grid_size, geo) for ens, geo in zip(rows, purity)
    ]
