import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscord import (
    binary_entropy,
    example_pair_bloch,
    pure_overlap,
    purity,
    shannon_entropy,
    von_neumann_entropy,
)
from conftest import random_rotation

# Frozen against an independent arbitrary-precision evaluation (mpmath, 40 digits).
H_THREE_QUARTERS = 0.811278124459132864


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.75) == pytest.approx(H_THREE_QUARTERS, abs=1e-15)
    assert binary_entropy(0.25) == pytest.approx(H_THREE_QUARTERS, abs=1e-15)


def test_binary_entropy_matches_arbitrary_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def href(p):
        p = mp.mpf(p)
        if p == 0 or p == 1:
            return 0.0
        return float(-p * mp.log(p, 2) - (1 - p) * mp.log(1 - p, 2))

    for p in np.linspace(0.0, 1.0, 41):
        assert binary_entropy(p) == pytest.approx(href(p), abs=1e-15)


def test_binary_entropy_accepts_arrays():
    p = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(binary_entropy(p), [0.0, 1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("bad", [-1e-6, 1.0 + 1e-6, 2.0, -3.0])
def test_binary_entropy_domain(bad):
    with pytest.raises(ValueError):
        binary_entropy(bad)


def test_binary_entropy_clamps_roundoff():
    assert binary_entropy(1.0 + 1e-13) == 0.0
    assert binary_entropy(-1e-13) == 0.0


def test_von_neumann_entropy_values():
    assert von_neumann_entropy([0.0, 0.0, 0.0]) == 1.0
    assert von_neumann_entropy([1.0, 0.0, 0.0]) == 0.0
    assert von_neumann_entropy([0.0, 0.0, 0.5]) == pytest.approx(H_THREE_QUARTERS, abs=1e-15)
    with pytest.raises(ValueError):
        von_neumann_entropy([1.0, 1e-3, 0.0])


def test_purity_values():
    assert purity([0.0, 0.0, 1.0]) == 1.0
    assert purity([0.0, 0.0, 0.0]) == 0.5
    assert purity([0.6, 0.0, 0.0]) == pytest.approx(0.68, abs=1e-15)


def test_pure_overlap_values():
    a = np.array([0.0, 1.0, 0.0])
    assert pure_overlap(a, a) == pytest.approx(1.0, abs=1e-12)
    assert pure_overlap(a, -a) == pytest.approx(0.0, abs=1e-8)
    for theta in (0.3, 1.0, 2.2):
        va, vb = example_pair_bloch(theta)
        assert pure_overlap(va, vb) == pytest.approx(abs(np.cos(theta)), abs=1e-12)
    with pytest.raises(ValueError):
        pure_overlap([0.5, 0.0, 0.0], a)


def test_example_pair_bloch():
    a, b = example_pair_bloch(0.0)
    np.testing.assert_allclose(a, [0, 0, 1])
    np.testing.assert_allclose(b, [0, 0, 1])
    a, b = example_pair_bloch(np.pi / 2)
    np.testing.assert_allclose(a, [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(b, [-1, 0, 0], atol=1e-15)
    a, b = example_pair_bloch(np.pi / 4)
    s = np.sqrt(2) / 2
    np.testing.assert_allclose(a, [s, 0, s], atol=1e-15)
    np.testing.assert_allclose(b, [-s, 0, s], atol=1e-15)
    with pytest.raises(ValueError):
        example_pair_bloch(-0.1)
    with pytest.raises(ValueError):
        example_pair_bloch(np.pi + 0.1)


def test_shannon_entropy():
    assert shannon_entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0, abs=1e-15)
    assert shannon_entropy([1.0, 0.0]) == 0.0


def test_entropy_purity_boundary_characterization():
    # S = 0 iff pure, S = 1 iff maximally mixed
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        assert von_neumann_entropy(v) <= 1e-9
        r = v * rng.uniform(0.05, 0.95)
        assert von_neumann_entropy(r) > 1e-9
        assert purity(r) < 1.0


@given(
    n1=st.floats(0.0, 0.9),
    step=st.floats(1e-6, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_entropy_and_purity_monotone_in_norm(n1, step, seed):
    n2 = min(n1 + step, 1.0)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    assert von_neumann_entropy(n1 * v) > von_neumann_entropy(n2 * v)
    assert purity(n1 * v) < purity(n2 * v)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_rotation_invariance(seed):
    rng = np.random.default_rng(seed)
    rot = random_rotation(rng)
    r = rng.normal(size=3)
    r *= rng.uniform() / np.linalg.norm(r)
    assert von_neumann_entropy(rot @ r) == pytest.approx(von_neumann_entropy(r), abs=1e-12)
    assert purity(rot @ r) == pytest.approx(purity(r), abs=1e-12)
    a = rng.normal(size=3)
    a /= np.linalg.norm(a)
    b = rng.normal(size=3)
    b /= np.linalg.norm(b)
    assert pure_overlap(rot @ a, rot @ b) == pytest.approx(pure_overlap(a, b), abs=1e-9)
    # overlap squared is the half-shifted inner product
    assert pure_overlap(a, b) ** 2 == pytest.approx((1 + a @ b) / 2, abs=1e-12)
