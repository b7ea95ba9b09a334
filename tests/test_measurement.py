import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscord import (
    QubitEnsemble,
    average_state,
    binary_entropy,
    canonical_axis,
    check_analytic_conditions,
    classical_mutual_information,
    conditional_entropy,
    ensemble_purity,
    geo_choice_classifier,
    geo_stationarity_residual,
    holevo_chi,
    post_measurement_purity,
    random_ensemble,
    stationarity_residual,
)
from conftest import random_rotation, rotate_ensemble

# h((2+sqrt(2))/4), frozen from mpmath
S_COND_PI4 = 0.600876036692856101
X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def test_canonical_axis():
    np.testing.assert_allclose(canonical_axis([0, 0, -1.0]), Z)
    np.testing.assert_allclose(canonical_axis([-1.0, 0, 0]), X)
    np.testing.assert_allclose(canonical_axis([0, -1.0, 0]), Y)
    v = np.array([0.3, -0.2, 0.5])
    v /= np.linalg.norm(v)
    np.testing.assert_allclose(canonical_axis(-v), v)


BATCHED_AXIS_FUNCTIONS = (conditional_entropy, classical_mutual_information, post_measurement_purity)
SINGLE_AXIS_FUNCTIONS = (
    stationarity_residual,
    check_analytic_conditions,
    geo_stationarity_residual,
    geo_choice_classifier,
)
BAD_AXES = {
    "non_unit": [0.0, 0.0, 0.9],
    "nan": [np.nan, 0.0, 0.0],
    "inf": [np.inf, 0.0, 0.0],
    "trailing_dim_2": [1.0, 0.0],
}


@pytest.mark.parametrize(
    "func, axis",
    [
        pytest.param(f, axis, id=f"{f.__name__}-{name}")
        for f in BATCHED_AXIS_FUNCTIONS + SINGLE_AXIS_FUNCTIONS
        for name, axis in BAD_AXES.items()
    ]
    + [
        pytest.param(f, [X, Y], id=f"{f.__name__}-batch")
        for f in SINGLE_AXIS_FUNCTIONS
    ],
)
def test_bad_axes_are_rejected(func, axis):
    with pytest.raises(ValueError, match="measurement axes|Bloch vector"):
        func(QubitEnsemble.pure_pair(1.0), axis)


def test_conditional_entropy_values():
    assert conditional_entropy(QubitEnsemble.pure_pair(np.pi / 2), X) == pytest.approx(0.0, abs=1e-15)
    ens = QubitEnsemble.pure_pair(1.1, 0.3)
    assert conditional_entropy(ens, Y) == pytest.approx(binary_entropy(0.3), abs=1e-14)
    assert conditional_entropy(QubitEnsemble.pure_pair(np.pi / 4), X) == pytest.approx(
        S_COND_PI4, abs=1e-15
    )


def test_classical_mutual_information_values():
    assert classical_mutual_information(QubitEnsemble.pure_pair(np.pi / 2), X) == pytest.approx(
        1.0, abs=1e-15
    )
    ens = QubitEnsemble.pure_pair(0.8)
    assert classical_mutual_information(ens, Y) == pytest.approx(0.0, abs=1e-14)
    assert classical_mutual_information(QubitEnsemble.pure_pair(np.pi / 4), X) == pytest.approx(
        1.0 - S_COND_PI4, abs=1e-15
    )


# The outcome statistics of a measurement along n: p+ = (1 + c.n)/2 with c the
# average Bloch vector, and the label distributions q(.|+-) show up through the
# conditional entropy p+ H(q(.|+)) + p- H(q(.|-)).


def test_outcome_stats_orthogonal_pair():
    # outcomes equally likely, each one naming the label for sure
    ens = QubitEnsemble.pure_pair(np.pi / 2)
    assert 0.5 * (1.0 + average_state(ens) @ X) == pytest.approx(0.5, abs=1e-15)
    assert conditional_entropy(ens, X) == pytest.approx(0.0, abs=1e-15)
    assert classical_mutual_information(ens, X) == pytest.approx(1.0, abs=1e-15)


def test_outcome_stats_uninformative_axis(rng):
    # along the normal of span{a, b} both outcomes are equally likely for either
    # label, so q(.|+-) = (lambda0, lambda1) and the outcome says nothing
    for _ in range(20):
        ens = random_ensemble(rng)
        plane = np.cross(ens.a, ens.b)
        if np.linalg.norm(plane) < 1e-6:
            continue
        n = plane / np.linalg.norm(plane)
        assert 0.5 * (1.0 + average_state(ens) @ n) == pytest.approx(0.5, abs=1e-12)
        assert conditional_entropy(ens, n) == pytest.approx(
            binary_entropy(ens.lambda0), abs=1e-12
        )
        assert classical_mutual_information(ens, n) == pytest.approx(0.0, abs=1e-12)


def test_outcome_stats_mixed_case():
    # p+ = 3/4 with labels (2/3, 1/3), p- = 1/4 with label 1 for sure
    ens = QubitEnsemble(0.5, 0.5, [0, 0, 1.0], [0, 0, 0.0])
    assert 0.5 * (1.0 + average_state(ens) @ Z) == pytest.approx(0.75, abs=1e-15)
    assert conditional_entropy(ens, Z) == pytest.approx(0.75 * binary_entropy(2 / 3), abs=1e-15)


def test_outcome_stats_zero_probability_branch():
    # both states at the north pole: the minus outcome never fires and
    # contributes nothing, so the outcome leaves the label fully uncertain
    ens = QubitEnsemble(0.5, 0.5, [0, 0, 1.0], [0, 0, 1.0])
    assert 0.5 * (1.0 + average_state(ens) @ Z) == pytest.approx(1.0, abs=1e-15)
    assert conditional_entropy(ens, Z) == pytest.approx(1.0, abs=1e-15)
    assert classical_mutual_information(ens, Z) == pytest.approx(0.0, abs=1e-15)


def test_post_measurement_purity_values():
    ens = QubitEnsemble(0.5, 0.5, [0, 0, 1.0], [0, 0, 1.0])
    assert post_measurement_purity(ens, Z) == pytest.approx(0.5, abs=1e-15)
    ens = QubitEnsemble(0.5, 0.5, [1.0, 0, 0], [0, 1.0, 0])
    assert post_measurement_purity(ens, Z) == pytest.approx(0.25, abs=1e-15)
    ens = QubitEnsemble.pure_pair(np.pi / 3)
    assert post_measurement_purity(ens, Z) == pytest.approx(0.3125, abs=1e-15)


def test_batched_axes_match_scalar_calls(rng):
    ens = random_ensemble(rng)
    axes = rng.normal(size=(40, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    batched_s = conditional_entropy(ens, axes)
    batched_i = classical_mutual_information(ens, axes)
    batched_p = post_measurement_purity(ens, axes)
    for k in range(40):
        assert batched_s[k] == pytest.approx(conditional_entropy(ens, axes[k]), abs=1e-15)
        assert batched_i[k] == pytest.approx(classical_mutual_information(ens, axes[k]), abs=1e-15)
        assert batched_p[k] == pytest.approx(post_measurement_purity(ens, axes[k]), abs=1e-15)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_randomized_measurement_properties(seed):
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    s = conditional_entropy(ens, n)
    mi = classical_mutual_information(ens, n)
    # antipodal invariance
    assert conditional_entropy(ens, -n) == pytest.approx(s, abs=1e-15)
    assert post_measurement_purity(ens, -n) == pytest.approx(
        post_measurement_purity(ens, n), abs=1e-15
    )
    # the Holevo quantity bounds every measured mutual information
    assert mi <= holevo_chi(ens) + 1e-12
    # two-route consistency with the conditional entropy
    assert mi + s == pytest.approx(binary_entropy(ens.lambda0), abs=5e-16)
    # measuring never increases purity
    assert post_measurement_purity(ens, n) <= ensemble_purity(ens) + 1e-15
    # simultaneous rotation leaves every scalar unchanged
    rot = random_rotation(rng)
    rotated = rotate_ensemble(ens, rot)
    assert conditional_entropy(rotated, rot @ n) == pytest.approx(s, abs=1e-11)
    assert post_measurement_purity(rotated, rot @ n) == pytest.approx(
        post_measurement_purity(ens, n), abs=1e-11
    )
