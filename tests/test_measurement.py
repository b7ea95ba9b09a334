from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdiscord.measurement as measurement

from qdiscord import (
    QubitEnsemble,
    average_state,
    binary_entropy,
    canonical_axis,
    check_analytic_conditions,
    classical_mutual_information,
    conditional_entropy,
    ensemble_purity,
    fibonacci_sphere,
    geo_choice_classifier,
    geo_stationarity_residual,
    holevo_chi,
    post_measurement_purity,
    random_ensemble,
    random_pure_pair,
    stationarity_residual,
)
from qdiscord.ensemble import _EnsembleArrays
from qdiscord.measurement import _row_constants, _row_constants_one, _RowObjective, _unit_axes
from conftest import hard_region_ensembles, random_rotation, rotate_ensemble, seeded_hard_inputs

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


def _constants(rows):
    """_row_constants of a list of (ensemble, purity) rows."""
    return _row_constants(_EnsembleArrays.of([ens for ens, _ in rows]), [geo for _, geo in rows])


def _assert_rows_match_public(rows, rng):
    """The row kernel at one axis per row equals that row's public objective, to the bit."""
    raw = rng.normal(size=(len(rows), 3))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    # Half the rows sit on a state's own axis, where a joint probability is 0.
    for k in range(0, len(rows), 2):
        v = rows[k][0].a if np.linalg.norm(rows[k][0].a) > 0.5 else rows[k][0].b
        if np.linalg.norm(v) > 0.5:
            raw[k] = v / np.linalg.norm(v)
    got = _RowObjective(_constants(rows))(_unit_axes(raw))
    want = [
        (post_measurement_purity if geo else classical_mutual_information)(ens, n)
        for (ens, geo), n in zip(rows, raw)
    ]
    assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


EDGE_WEIGHTS = [
    QubitEnsemble(0.0, 1.0, [0, 0, 0.8], [0.5, 0, 0]),
    QubitEnsemble(1.0, 0.0, [0.3, 0, 0.4], [0, 0.6, 0]),
    QubitEnsemble(1.0, 0.0, [0, 0, 1.0], [1.0, 0, 0]),
]


@pytest.mark.host_bits
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(hard_region_ensembles(), min_size=1, max_size=4),
)
@settings(max_examples=20, deadline=None)
def test_row_objective_matches_the_public_objectives(seed, extra):
    """Information and purity rows, mixed or alone, give the public values bit for bit."""
    rng = np.random.default_rng(seed)
    ensembles = [random_ensemble(rng) for _ in range(3)]
    ensembles += [random_pure_pair(rng) for _ in range(2)] + EDGE_WEIGHTS + extra
    info = [(ens, False) for ens in ensembles]
    purity = [(ens, True) for ens in ensembles]
    mixed = [(info + purity)[i] for i in rng.permutation(2 * len(ensembles))]
    # No row with h(lambda0) > 0 and no purity row; a purity row with lambda1 = 0.
    edges = ([(ens, False) for ens in EDGE_WEIGHTS], [(EDGE_WEIGHTS[1], True)])
    for rows in (mixed, info, purity, info[:1], purity[:1], *edges):
        _assert_rows_match_public(rows, rng)


@pytest.mark.host_bits
def test_row_objective_skips_the_information_term_when_every_h_is_zero(rng):
    """Every h(lambda0) 0 and a purity row: no entropy is computed, and the values match."""
    ensembles = [random_ensemble(rng) for _ in range(3)] + [random_pure_pair(rng)]
    rows = [(ens, False) for ens in EDGE_WEIGHTS] + [(ens, True) for ens in ensembles]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    _assert_rows_match_public(rows, rng)
    _assert_rows_match_public(rows[:1], rng)
    axes = rng.normal(size=(len(rows) + 1, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    for batch, calls in ((rows, 0), (rows + [(ensembles[0], False)], 1)):
        with mock.patch.object(
            measurement, "_conditional_entropy", wraps=measurement._conditional_entropy
        ) as entropy:
            _RowObjective(_constants(batch))(axes[: len(batch)])
        assert entropy.call_count == calls


@pytest.mark.host_bits
def test_row_constants_of_one_flag_match_a_flag_per_row(rng):
    """A bool purity flag gives the constants of an array of that flag, and a lone ensemble those of its one-row block, each entry's float.hex included.

    Signed zeros count: a weight of -0.0 gives a half weight of -0.0.
    """
    ensembles = seeded_hard_inputs(rng, 5) + EDGE_WEIGHTS
    ensembles += [QubitEnsemble(-0.0, 1.0, [0, 0, 0.8], [0.5, 0, 0]), QubitEnsemble(1.0, -0.0, [0.3, 0, 0.4], [0, 0, 0])]
    rows = _EnsembleArrays.of(ensembles)

    def bits(consts):
        return [(c.dtype.str, c.shape, [float(x).hex() for x in c.ravel()]) for c in consts]

    for flag in (False, True):
        assert bits(_row_constants(rows, flag)) == bits(_row_constants(rows, np.full(len(rows), flag)))
    assert "-0x0.0p+0" in bits(_row_constants(rows, False))[2][2]
    for ens in ensembles:
        assert bits(_row_constants_one(ens)) == bits(_row_constants(ens._rows, False))


def _own_axis(ens):
    """A unit axis along the longer Bloch vector of ens, or None if both are short."""
    v = ens.a if np.linalg.norm(ens.a) >= np.linalg.norm(ens.b) else ens.b
    return v / np.linalg.norm(v) if np.linalg.norm(v) > 0.5 else None


@pytest.mark.host_bits
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(hard_region_ensembles(), min_size=1, max_size=4),
)
@settings(max_examples=8, deadline=None)
def test_row_objective_on_a_batch_of_axes_per_row_matches_the_public_objectives(seed, extra):
    """Axes of shape (rows, ..., 3): row k's values are its public objective at n[k], to the bit.

    Each row takes 1, 720 or (4, 9) random axes, the first of them on a
    state's own axis where there is one, or the 10^4-point Fibonacci grid.
    """
    rng = np.random.default_rng(seed)
    ensembles = [random_ensemble(rng) for _ in range(3)]
    ensembles += [random_pure_pair(rng) for _ in range(2)] + EDGE_WEIGHTS + extra
    info = [(ens, False) for ens in ensembles]
    purity = [(ens, True) for ens in ensembles]
    mixed = [(info + purity)[i] for i in rng.permutation(2 * len(ensembles))]
    grid = fibonacci_sphere(10_000)
    for rows in (mixed, info, purity):
        batches = [rng.normal(size=(len(rows), *shape, 3)) for shape in ((1,), (720,), (4, 9))]
        for raw in batches:
            raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
            for (ens, _), n in zip(rows, raw.reshape(len(rows), -1, 3)):
                if (v := _own_axis(ens)) is not None:
                    n[0] = v
        batches.append(np.repeat(grid[None], len(rows), axis=0))
        for raw in batches:
            got = _RowObjective(_constants(rows))(_unit_axes(raw))
            assert got.shape == raw.shape[:-1]
            for (ens, geo), n, values in zip(rows, raw, got):
                want = (post_measurement_purity if geo else classical_mutual_information)(ens, n)
                # The bits, as .hex() compares them, without 10^5 calls of it.
                np.testing.assert_array_equal(values.view(np.uint64), want.view(np.uint64))


@pytest.mark.host_bits
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(hard_region_ensembles(), min_size=1, max_size=4),
)
@settings(max_examples=8, deadline=None)
def test_row_objective_at_axes_is_its_projection_form_at_their_projections(seed, extra):
    """The axis form at n equals the projection form at (n @ a, n @ b), row by row, to the bit.

    Each row takes 1, 720 or 2 881 random axes; 2 881 go in pieces.
    """
    rng = np.random.default_rng(seed)
    ensembles = [random_ensemble(rng) for _ in range(3)]
    ensembles += [random_pure_pair(rng) for _ in range(2)] + EDGE_WEIGHTS + extra
    info = [(ens, False) for ens in ensembles]
    purity = [(ens, True) for ens in ensembles]
    mixed = [(info + purity)[i] for i in rng.permutation(2 * len(ensembles))]
    for rows in (mixed, info, purity):
        consts = _constants(rows)
        for count in (1, 720, 2881):
            raw = rng.normal(size=(len(rows), count, 3))
            n = _unit_axes(raw / np.linalg.norm(raw, axis=-1, keepdims=True))
            ta, tb = ((n @ v[:, :, None])[..., 0] for v in consts[:2])
            got = _RowObjective(consts)(n)
            want = _RowObjective(consts).projections(ta, tb)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.host_bits
@pytest.mark.parametrize("rows", [1, 2, 9])
@pytest.mark.parametrize("objective", [classical_mutual_information, post_measurement_purity])
def test_public_objectives_of_a_block_match_their_one_ensemble_calls(objective, rows, rng):
    """A block with one axis per row, or a batch per row, gives each row's one-ensemble bits."""
    ensembles = [random_ensemble(rng) for _ in range(rows - 1)] + EDGE_WEIGHTS[:1]
    block = _EnsembleArrays.of(ensembles)
    for shape in ((), (5,)):
        axes = rng.normal(size=(rows, *shape, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        got = objective(block, axes)
        assert got.shape == (rows, *shape)
        want = np.array([objective(ens, n) for ens, n in zip(ensembles, axes)])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_public_objectives_of_a_block_need_one_batch_of_axes_per_row(rng):
    block = _EnsembleArrays.of([random_ensemble(rng) for _ in range(2)])
    for axes in (Z, np.array([X, Y, Z]), np.array([X, Y, Z, X])):
        with pytest.raises(ValueError, match="one batch per row"):
            classical_mutual_information(block, axes)
    with pytest.raises(ValueError, match="unit vectors"):
        post_measurement_purity(block, np.array([X, 2.0 * Y]))


@pytest.mark.host_bits
def test_cross_matches_np_cross_bit_for_bit(rng):
    """Of two (N, 3) blocks and of two 3-vectors."""
    u, v = rng.normal(size=(2, 50, 3))
    np.testing.assert_array_equal(measurement._cross(u, v).view(np.uint64), np.cross(u, v).view(np.uint64))
    for x, y in zip(u, v):
        assert measurement._cross(x, y).tobytes() == np.cross(x, y).tobytes()


def _unit_batch(rng, shape):
    n = rng.normal(size=(*shape, 3))
    return _unit_axes(n / np.linalg.norm(n, axis=-1, keepdims=True))


def test_a_kernel_result_outlives_the_next_kernel_call(rng):
    """Every result the row kernel hands out is an array of its own, never a view of the working set.

    Each pass reuses the working set of its thread, so a result held in it
    would change under the next call of the same shape.
    """
    rows = _EnsembleArrays.of([random_ensemble(rng) for _ in range(19)] + [random_pure_pair(rng)])
    first, second = _unit_batch(rng, (20, 720)), _unit_batch(rng, (20, 720))
    for purity in (False, True, np.arange(20) % 3 == 0):
        consts = _row_constants(rows, purity)
        objective, on_projections = _RowObjective(consts), _RowObjective(consts).projections
        projections = [tuple((n @ v[:, :, None])[..., 0] for v in consts[:2]) for n in (first, second)]
        calls = [
            (objective, (first,), (second,)),
            (objective, (first[:, :1],), (second[:, :1],)),
            (on_projections, *projections),
        ]
        for evaluate, args, again in calls:
            got = evaluate(*args)
            held = got.copy()
            assert not np.shares_memory(got, measurement._WORK.floats)
            evaluate(*again)
            assert got.tobytes() == held.tobytes()
    ens = random_ensemble(rng)
    for public in (conditional_entropy, classical_mutual_information, post_measurement_purity):
        got = public(ens, first[0])
        held = got.copy()
        public(ens, second[0])
        assert got.tobytes() == held.tobytes()


def test_threads_evaluating_different_blocks_at_once_get_the_bits_of_serial_calls(rng):
    """Each thread evaluates in a working set of its own.

    Four threads, more than the cores here, each take the scan and polish of
    accessible_information and a one-pass kernel call on a block of their
    own, over and over with a short switch interval, so their passes
    interleave; numpy releases the interpreter lock inside each large step.
    Every result must have the bits of the serial call.  A working set
    shared by the threads would let one thread's pass overwrite another's
    intermediates.
    """
    import sys
    import threading

    from qdiscord import accessible_information

    def work(rows, axes):
        acc = accessible_information(rows)
        values = classical_mutual_information(rows, axes)
        return acc.n_opt.tobytes() + acc.value.tobytes() + values.tobytes()

    jobs = []
    for _ in range(4):
        rows = _EnsembleArrays.of([random_ensemble(rng) for _ in range(20)])
        jobs.append((rows, _unit_batch(rng, (20, 720))))
    serial = [work(*job) for job in jobs]
    mismatches = []

    def run(k):
        for _ in range(15):
            if work(*jobs[k]) != serial[k]:
                mismatches.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
