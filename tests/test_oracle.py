from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

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

from conftest import (
    hard_region_ensembles,
    near_degenerate_ensembles,
    seeded_hard_inputs,
)

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


@pytest.mark.parametrize("count", [2.5, 100.0, np.float64(10.0), "10"])
def test_fibonacci_takes_an_integer_count_only(count):
    """A float count fails with its value in the message, here and through the oracle."""
    with pytest.raises(TypeError, match="integer count of points, got"):
        fibonacci_sphere(count)
    with pytest.raises(TypeError, match="integer count of points, got"):
        brute_force_accessible(QubitEnsemble.pure_pair(0.7), count)


def test_fibonacci_takes_numpy_integers():
    np.testing.assert_array_equal(fibonacci_sphere(np.int64(101)), fibonacci_sphere(101))
    result = brute_force_accessible(QubitEnsemble.pure_pair(0.7), np.int32(100))
    assert type(result.evaluations) is int


def test_fibonacci_deterministic():
    np.testing.assert_array_equal(fibonacci_sphere(500), fibonacci_sphere(500))


def test_fibonacci_sphere_returns_a_fresh_writable_array():
    cached, _ = oracle._grid(400)
    grid = fibonacci_sphere(400)
    assert grid.flags.writeable and grid is not cached
    grid[0] = 0.0
    np.testing.assert_array_equal(cached, fibonacci_sphere(400))


def test_cached_grid_is_read_only():
    for array in oracle._grid(400):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
        with pytest.raises(ValueError):
            array *= 2.0


def test_cached_grid_gives_the_bits_of_a_cold_call():
    """Oracle results at 10^4 points match a call on a fresh cache, also after another size."""
    ens = random_ensemble(np.random.default_rng(5))

    def bits():
        return [_bits(f(ens, 10_000)) for f in (brute_force_accessible, brute_force_geo)]

    oracle._grid.cache_clear()
    cold = bits()
    assert oracle._grid.cache_info().misses == 1
    assert bits() == cold
    assert oracle._grid.cache_info().hits >= 1
    brute_force_accessible(ens, 400)
    assert bits() == cold
    assert oracle._grid.cache_info().misses == 3


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


def test_polish_leaves_a_critical_grid_point():
    """At grid size 2 the start is the z pole, where the gradient of this pair vanishes by symmetry.

    The pole is the information minimum and a saddle of the purity, so no
    model step leaves it; the polish gets away by moving to a better stencil
    point.
    """
    ens = QubitEnsemble.pure_pair(1.2)
    assert brute_force_accessible(ens, 2).value == pytest.approx(accessible_information(ens).value, abs=1e-12)
    assert brute_force_geo(ens, 2).value == pytest.approx(geometric_discord(ens).value, abs=1e-12)


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


@pytest.mark.parametrize("grid_size", [300, 1000, 10_000])
def test_oracle_reaches_the_optimizers_on_seeded_hard_inputs(grid_size):
    """The polish reaches the in-plane optimum and the geometric closed form, and never beats them."""
    rows = _EnsembleArrays.of(seeded_hard_inputs(np.random.default_rng(15), 100))
    acc, geo = accessible_information(rows).value, geometric_discord(rows).value
    oracle_acc = oracle.brute_force_batch(rows, False, grid_size).value
    oracle_geo = oracle.brute_force_batch(rows, True, grid_size).value
    assert np.abs(oracle_acc - acc).max() <= 1e-9
    assert np.abs(oracle_geo - geo).max() <= 1e-9
    assert (oracle_acc - acc).max() <= 1e-12
    assert (geo - oracle_geo).max() <= 1e-12


def test_oracle_result_metadata():
    res = brute_force_accessible(QubitEnsemble.pure_pair(1.0), 500)
    assert res.method == "full-sphere grid + refine"
    assert res.evaluations >= 500
    assert np.linalg.norm(res.n_opt) == pytest.approx(1.0, abs=1e-12)


# The oracle's stencil, in units of its spacing along the tangent pair (t1, t2).
STENCIL = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def _unit(v):
    return v / np.sqrt((v * v).sum(axis=-1, keepdims=True))


def _polish_reference(objective, start, floor, radius):
    """The oracle's polish for one row, on the public objective, one scalar step at a time.

    Up to 40 rounds.  Each takes the tangent pair at p, the 8-point stencil
    of spacing h = radius clipped to [1e-5, 1e-3], the central-difference
    gradient g and Hessian H there, and the step s solving
    (sigma - H) s = g with sigma = max(0, mu + |g|/radius), mu the larger
    eigenvalue of H, cut back to the radius; it moves to the best of the
    nine new points if that beats the best value.  The radius becomes twice
    the step after a step that gained, a quarter of it after one that did
    not, and at least h after a move to a stencil point.  The row stops once
    its step is below 1e-10 and no stencil point moved it.
    """
    p, best, evals = np.array(start, dtype=float), float(floor), 0
    for _ in range(40):
        k = int(np.argmin(np.abs(p)))
        w = -p[k] * p
        w[k] += 1.0
        t1 = _unit(w)
        t2 = np.cross(p, t1)
        h = min(max(radius, 1e-5), 1e-3)
        points = [_unit(p + h * (c1 * t1 + c2 * t2)) for c1, c2 in STENCIL]
        f = [float(v) for v in objective(np.array(points))]
        fx, fxm, fy, fym, fpp, fpm, fmp, fmm = f
        g1, g2 = (fx - fxm) / (2.0 * h), (fy - fym) / (2.0 * h)
        h11 = (fx - 2.0 * best + fxm) / (h * h)
        h22 = (fy - 2.0 * best + fym) / (h * h)
        h12 = (fpp - fpm - fmp + fmm) / (4.0 * (h * h))
        half = 0.5 * (h11 - h22)
        mu = 0.5 * (h11 + h22) + np.sqrt(half * half + h12 * h12)  # the larger eigenvalue
        sigma = max(mu + np.sqrt(g1 * g1 + g2 * g2) / radius, 0.0)
        a11, a22 = sigma - h11, sigma - h22
        v1, v2 = a22 * g1 + h12 * g2, h12 * g1 + a11 * g2
        det = a11 * a22 - h12 * h12
        scale = max(det, np.sqrt(v1 * v1 + v2 * v2) / radius, np.finfo(float).tiny)
        s1, s2 = v1 / scale, v2 / scale
        end = _unit(p + s1 * t1 + s2 * t2)
        f_end = float(objective(end))
        evals += 9
        points.append(end)
        f.append(f_end)
        won = int(np.argmax(f))
        by_stencil = f[won] > best and won < 8
        step = np.sqrt(s1 * s1 + s2 * s2)
        radius = 2.0 * step if f_end > best else 0.25 * step
        if by_stencil:
            radius = max(radius, h)
        if f[won] > best:
            p, best = points[won], f[won]
        if step < 1e-10 and not by_stencil:
            break
    return p, best, evals


def _reference_bits(ens, grid_size, geo):
    """brute_force_geo (geo) or brute_force_accessible bits, one row by the scalar polish."""
    public = post_measurement_purity if geo else classical_mutual_information
    grid = fibonacci_sphere(grid_size)
    vals = public(ens, grid)
    k = int(np.argmax(vals))
    axis, value, evals = _polish_reference(
        lambda n: public(ens, n), grid[k], vals[k], oracle._RADIUS_SCALE / np.sqrt(grid_size)
    )
    axis = canonical_axis(axis)
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
    block = oracle.brute_force_batch(_EnsembleArrays.of(rows), purity, grid_size)
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


def test_mixed_oracle_batch_reads_a_purity_flag_as_a_bool():
    """An integer flag picks the same objective per row as a bool one, in the constants and in the finish."""
    rng = np.random.default_rng(3)
    ensembles = [random_ensemble(rng) for _ in range(2)]
    rows = _EnsembleArrays.of(ensembles)
    want = oracle.brute_force_batch(rows, [False, True], 2000)
    got = oracle.brute_force_batch(rows, [0, 1], 2000)
    assert _column_bits(getattr(got, f) for f, _ in COLUMNS) == _column_bits(getattr(want, f) for f, _ in COLUMNS)
    assert got.value[1] == pytest.approx(geometric_discord(ensembles[1]).value, abs=1e-9)
    assert got.value[0] == pytest.approx(accessible_information(ensembles[0]).value, abs=1e-9)
    one = oracle.brute_force_batch(rows, 1, 2000)
    assert _column_bits([one.value]) == _column_bits([oracle.brute_force_batch(rows, True, 2000).value])


@pytest.mark.parametrize("purity", [[True, False, True], [True], [[True, False]]])
def test_mixed_oracle_batch_needs_one_purity_flag_or_one_per_row(purity):
    rows = _EnsembleArrays.of([random_ensemble(np.random.default_rng(3)) for _ in range(2)])
    with pytest.raises(ValueError, match="purity"):
        oracle.brute_force_batch(rows, purity, 100)


@pytest.mark.parametrize("purity", [False, True])
def test_empty_oracle_batch_runs_no_polish_round(purity):
    """A block of no rows gives empty columns, and its polish stops before a round."""
    with mock.patch.object(oracle, "_tangent_frames", wraps=oracle._tangent_frames) as frames:
        result = oracle.brute_force_batch(_EnsembleArrays.of([]), purity, 300)
    assert frames.call_count == 0
    assert result.n_opt.shape == (0, 3)
    assert _column_bits(getattr(result, f) for f, _ in COLUMNS[1:]) == _column_bits(
        np.empty(0, dtype=dtype) for _, dtype in COLUMNS[1:]
    )
