import numpy as np
import pytest
from hypothesis import given, settings

from qdiscord import (
    QubitEnsemble,
    average_state,
    binary_entropy,
    cq_state_entropy,
    cq_state_spectrum,
    holevo_chi,
    quantum_mutual_information,
    random_ensemble,
    von_neumann_entropy,
)
from conftest import hard_region_ensembles, random_rotation, rotate_ensemble

CHI_HALF_MIXED = 0.188721875540867136  # 1 - h(3/4), frozen from mpmath


def test_ensemble_validation():
    with pytest.raises(ValueError):
        QubitEnsemble(0.7, 0.7, [0, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        QubitEnsemble(-0.1, 1.1, [0, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        QubitEnsemble(0.5, 0.5, [0, 0, 1.1], [0, 0, 0])
    ens = QubitEnsemble(1.0 + 1e-13, -1e-13, [0, 0, 1], [0, 0, 0])
    assert ens.lambda0 == 1.0 and ens.lambda1 == 0.0
    for weights in ((np.nan, 0.5), (0.5, np.nan), (np.inf, -np.inf)):
        with pytest.raises(ValueError, match="weights must be finite"):
            QubitEnsemble(*weights, [0, 0, 0.5], [0, 0, -0.5])


def test_average_state():
    ens = QubitEnsemble(0.5, 0.5, [1, 0, 0], [-1, 0, 0])
    np.testing.assert_allclose(average_state(ens), [0, 0, 0], atol=1e-15)
    for theta in (0.2, 1.0, 1.4):
        ens = QubitEnsemble.pure_pair(theta)
        np.testing.assert_allclose(average_state(ens), [0, 0, np.cos(theta)], atol=1e-15)
    ens = QubitEnsemble(1.0, 0.0, [0.3, 0.2, 0.1], [0, 0, 1])
    np.testing.assert_allclose(average_state(ens), [0.3, 0.2, 0.1], atol=1e-16)


def test_holevo_chi_values():
    assert holevo_chi(QubitEnsemble(0.5, 0.5, [1, 0, 0], [-1, 0, 0])) == pytest.approx(1.0, abs=1e-15)
    assert holevo_chi(QubitEnsemble(0.5, 0.5, [0, 0.7, 0.1], [0, 0.7, 0.1])) == pytest.approx(0.0, abs=1e-15)
    assert holevo_chi(QubitEnsemble(0.5, 0.5, [0, 0, 0.5], [0, 0, -0.5])) == pytest.approx(
        CHI_HALF_MIXED, abs=1e-15
    )


def test_cq_state_entropy_values():
    # norm of a float-pure state can sit one ulp below 1, leaking ~3e-15 bits
    assert cq_state_entropy(QubitEnsemble.pure_pair(0.9)) == pytest.approx(1.0, abs=1e-14)
    assert cq_state_entropy(QubitEnsemble(1.0, 0.0, [0, 0, 1], [0, 0, 0])) == pytest.approx(0.0, abs=1e-15)
    assert cq_state_entropy(QubitEnsemble(0.5, 0.5, [0, 0, 0], [0, 0, 0])) == pytest.approx(2.0, abs=1e-15)


@given(ens=hard_region_ensembles())
@settings(max_examples=50, deadline=None)
def test_cq_state_entropy_passes_the_distribution_check(ens):
    """The spectrum cq_state_entropy hands shannon_entropy is accepted, hard region included."""
    formula = (
        binary_entropy(ens.lambda0)
        + ens.lambda0 * von_neumann_entropy(ens.a)
        + ens.lambda1 * von_neumann_entropy(ens.b)
    )
    assert cq_state_entropy(ens) == pytest.approx(formula, abs=1e-12)


def test_cq_state_entropy_at_the_weight_slack():
    # weights that sum to 1 only within the 1e-12 slack the ensemble accepts
    for l1 in (0.5 + 9e-13, 0.5 - 9e-13):
        ens = QubitEnsemble(0.5, l1, [0, 0, 0.3], [0.6, 0, 0])
        assert cq_state_entropy(ens) == pytest.approx(
            1.0 + 0.5 * von_neumann_entropy(ens.a) + 0.5 * von_neumann_entropy(ens.b), abs=1e-11
        )


def test_cq_state_spectrum_is_a_distribution(rng):
    for _ in range(100):
        spec = cq_state_spectrum(random_ensemble(rng))
        assert spec.shape == (4,)
        assert np.all(spec >= 0)
        assert np.sum(spec) == pytest.approx(1.0, abs=1e-12)


def test_quantum_mutual_information_equals_chi():
    cases = [
        QubitEnsemble(0.5, 0.5, [1, 0, 0], [-1, 0, 0]),
        QubitEnsemble(0.5, 0.5, [0, 0.7, 0.1], [0, 0.7, 0.1]),
        QubitEnsemble(0.5, 0.5, [0, 0, 0.5], [0, 0, -0.5]),
        QubitEnsemble(1.0, 0.0, [0.2, 0.1, 0.4], [0, 0, 0.9]),
    ]
    for ens in cases:
        assert quantum_mutual_information(ens) == pytest.approx(holevo_chi(ens), abs=1e-12)
    assert quantum_mutual_information(cases[3]) == pytest.approx(0.0, abs=1e-15)
    assert quantum_mutual_information(cases[2]) == pytest.approx(CHI_HALF_MIXED, abs=1e-14)


def test_two_route_identities_randomized(rng):
    # spectrum route vs formula route, and chi vs mutual information
    for _ in range(500):
        ens = random_ensemble(rng)
        formula = (
            binary_entropy(ens.lambda0)
            + ens.lambda0 * von_neumann_entropy(ens.a)
            + ens.lambda1 * von_neumann_entropy(ens.b)
        )
        assert abs(cq_state_entropy(ens) - formula) <= 1e-12
        assert abs(quantum_mutual_information(ens) - holevo_chi(ens)) <= 1e-12


def test_holevo_bounds_and_symmetries(rng):
    for _ in range(200):
        ens = random_ensemble(rng)
        chi = holevo_chi(ens)
        assert 0.0 <= chi <= binary_entropy(ens.lambda0) + 1e-12
        swapped = QubitEnsemble(ens.lambda1, ens.lambda0, ens.b, ens.a)
        assert holevo_chi(swapped) == pytest.approx(chi, abs=1e-12)
        rot = random_rotation(rng)
        assert holevo_chi(rotate_ensemble(ens, rot)) == pytest.approx(chi, abs=1e-11)


def test_degenerate_ensembles_are_valid():
    # boundary cases of sweeps, not errors
    assert holevo_chi(QubitEnsemble(0.0, 1.0, [0, 0, 1], [0.1, 0, 0])) == pytest.approx(0.0, abs=1e-15)
    assert holevo_chi(QubitEnsemble.pure_pair(0.0)) == pytest.approx(0.0, abs=1e-15)
