import numpy as np
import pytest
from scipy.spatial import cKDTree

from qdiscord import (
    QubitEnsemble,
    accessible_information,
    brute_force_accessible,
    brute_force_geo,
    fibonacci_sphere,
    geometric_discord,
    random_ensemble,
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
