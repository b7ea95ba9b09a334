import copy
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings

from qdiscord import (
    QubitEnsemble,
    accessible_information,
    average_state,
    binary_entropy,
    brute_force_accessible,
    brute_force_geo,
    check_analytic_conditions,
    classical_mutual_information,
    cq_state_entropy,
    cq_state_spectrum,
    ensemble_purity,
    geometric_discord,
    holevo_chi,
    post_measurement_purity,
    quadratic_form,
    quantum_discord,
    quantum_mutual_information,
    random_ensemble,
    stationarity_residual,
    von_neumann_entropy,
)
from conftest import hard_region_ensembles, random_rotation, rotate_ensemble, seeded_hard_inputs

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


def test_an_ensemble_keeps_its_vectors_when_the_callers_change():
    """The vectors are read-only copies: a write to the caller's array, or to the ensemble's, changes nothing."""
    a = np.array([0.0, 0.0, 0.5])
    ens = QubitEnsemble(0.5, 0.5, a, [0.0, 0.5, 0.0])
    chi, discord = holevo_chi(ens), quantum_discord(ens).value
    a[:] = [3.0, 0.0, 0.0]
    assert ens.a.tolist() == [0.0, 0.0, 0.5]
    fresh = QubitEnsemble(0.5, 0.5, [0.0, 0.0, 0.5], [0.0, 0.5, 0.0])
    assert holevo_chi(ens) == holevo_chi(fresh) == chi > 0.0
    assert quantum_discord(ens).value == quantum_discord(fresh).value == discord >= 0.0
    for v in (ens.a, ens.b):
        assert not v.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 1.0


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))])
def test_copies_go_through_the_constructor(duplicate):
    """copy, deepcopy and pickle check the vectors again, keep them read-only and start with nothing kept."""
    ens = QubitEnsemble(0.3, 0.7, [0.1, 0.2, 0.3], [-0.4, 0.0, 0.5])
    chi = holevo_chi(ens)
    twin = duplicate(ens)
    assert type(twin) is QubitEnsemble and twin is not ens
    assert (twin.lambda0, twin.lambda1) == (ens.lambda0, ens.lambda1)
    assert twin.a.tobytes() == ens.a.tobytes() and twin.b.tobytes() == ens.b.tobytes()
    assert not (twin.a.flags.writeable or twin.b.flags.writeable)
    # chi keeps the average state it reads, not the one-row block.
    assert not ({"_rows", "_chi", "_average"} & vars(twin).keys()) and {"_chi", "_average"} <= vars(ens).keys()
    assert holevo_chi(twin) == chi
    # An ensemble whose vector was forced past the constructor does not survive a copy.
    bad = object.__new__(QubitEnsemble)
    vars(bad).update(lambda0=0.5, lambda1=0.5, a=np.array([3.0, 0.0, 0.0]), b=np.zeros(3))
    with pytest.raises(ValueError, match="exceeds 1"):
        duplicate(bad)


def _lone_calls(ens, oracles=False):
    """Every one-ensemble call, each a thunk of ens returning the bytes of its result; both oracles too if asked."""

    def result(r):
        return (np.asarray(r.n_opt).tobytes(), float(r.value).hex(), float(r.stationarity_residual).hex(),
                r.evaluations, r.degenerate, r.method)

    n = np.array([0.48, -0.6, 0.64])
    calls = {
        "holevo_chi": lambda: float(holevo_chi(ens)).hex(),
        "quantum_discord": lambda: result(quantum_discord(ens)),
        "accessible_information": lambda: result(accessible_information(ens)),
        "geometric_discord": lambda: result(geometric_discord(ens)),
        "stationarity_residual": lambda: float(stationarity_residual(ens, n)).hex(),
        "check_analytic_conditions": lambda: repr(check_analytic_conditions(ens, n)),
        "cq_state_spectrum": lambda: cq_state_spectrum(ens).tobytes(),
        "cq_state_entropy": lambda: float(cq_state_entropy(ens)).hex(),
        "quantum_mutual_information": lambda: float(quantum_mutual_information(ens)).hex(),
        "ensemble_purity": lambda: float(ensemble_purity(ens)).hex(),
        "quadratic_form": lambda: repr(quadratic_form(ens)),
        "classical_mutual_information": lambda: np.asarray(classical_mutual_information(ens, n)).tobytes(),
        "post_measurement_purity": lambda: np.asarray(post_measurement_purity(ens, n)).tobytes(),
    }
    if oracles:
        calls["brute_force_accessible"] = lambda: result(brute_force_accessible(ens, 200))
        calls["brute_force_geo"] = lambda: result(brute_force_geo(ens, 200))
    return calls


def _fresh(ens):
    return QubitEnsemble(ens.lambda0, ens.lambda1, ens.a, ens.b)


@pytest.mark.host_bits
def test_kept_block_and_chi_give_the_bits_of_a_fresh_ensemble():
    """Each lone call made after all the others on one ensemble has the bits of that call on a fresh equal ensemble.

    1 000 seeded ensembles: random, pure, hard-region and near-degenerate,
    each taking the calls in its own order; every 50th also takes both oracles.
    """
    rng = np.random.default_rng(31)
    ensembles = seeded_hard_inputs(rng, 125)
    assert len(ensembles) == 1000
    for i, ens in enumerate(ensembles):
        oracles = i % 50 == 0
        calls = _lone_calls(ens, oracles)
        order = rng.permutation(list(calls))
        for name in order:
            calls[name]()
        assert vars(ens).keys() >= {"_rows", "_chi"}
        for name in order:
            assert calls[name]() == _lone_calls(_fresh(ens), oracles)[name](), (name, ens)


@pytest.mark.host_bits
def test_threads_on_one_ensemble_get_the_serial_bits():
    """Threads that call on one new ensemble at once, each through every lone call, get the serial results.

    Four threads, more than the cores CI has, with a short switch interval,
    so that one builds the kept block or chi while another reads it.
    """
    rng = np.random.default_rng(32)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for ens in seeded_hard_inputs(rng, 4):
            serial = {name: call() for name, call in _lone_calls(_fresh(ens)).items()}
            start, seen = threading.Barrier(4), []

            def work():
                calls = _lone_calls(ens)
                start.wait(timeout=60)
                seen.append({name: call() for name, call in calls.items()})

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert seen == [serial] * 4
    finally:
        sys.setswitchinterval(interval)


def test_calls_return_arrays_of_their_own():
    """Two calls on one ensemble return distinct n_opt arrays, so a caller's write to one reaches nothing else."""
    ens = random_ensemble(np.random.default_rng(33))
    for measure in (quantum_discord, accessible_information, geometric_discord):
        first, second = measure(ens).n_opt, measure(ens).n_opt
        assert not np.shares_memory(first, second)
        kept = second.copy()
        first[:] = np.nan
        assert measure(ens).n_opt.tobytes() == second.tobytes() == kept.tobytes()
    assert not np.shares_memory(cq_state_spectrum(ens), cq_state_spectrum(ens))


def test_the_kept_block_is_read_only():
    """The kept one-row block, its average state and the ensemble's own are read-only, so a stage that wrote into them would fail loudly."""
    ens = random_ensemble(np.random.default_rng(34))
    holevo_chi(ens)
    quantum_discord(ens)
    rows = ens._rows
    assert rows is ens._rows and rows.average is rows.average
    assert rows.a.tobytes() == ens.a.tobytes() and rows.b.tobytes() == ens.b.tobytes()
    assert (rows.lambda0[0], rows.lambda1[0]) == (ens.lambda0, ens.lambda1)
    assert rows.average[0].tobytes() == ens._average.tobytes() == average_state(ens).tobytes()
    for array in (rows.lambda0, rows.lambda1, rows.a, rows.b, rows.average, ens._average):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
