"""Array forms of the per-ensemble stages against their scalar forms, bit for bit.

A block of ensembles runs each stage as one array pass: holevo_chi, the
Koashi-Winter discord, the plane basis, the 720-point scan, the pick, the
stationarity residual and the geometric discord.  Each row
must get the bits of the scalar form, which the tests here write out (or
call) one ensemble at a time, so that no result depends on the block it was
computed in.  The measures (holevo_chi, accessible_information,
quantum_discord, geometric_discord and ensemble_purity) take the block
through their public names, and every field of a block's result is a column
whose row k is the one-ensemble call on ensemble k.
"""

import dataclasses
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdiscord.discord as discord
from qdiscord import (
    OptimizationResult,
    QubitEnsemble,
    accessible_information,
    canonical_axis,
    classical_mutual_information,
    discord_pure_koashi_winter,
    ensemble_purity,
    geometric_discord,
    holevo_chi,
    quantum_discord,
    random_ensemble,
    random_pure_pair,
)
from qdiscord.ensemble import _EnsembleArrays, average_state
from qdiscord.measurement import _SIGN_TOL, _row_constants, _unit_axes, _unit_perp_parts
from qdiscord.qstate import pure_overlap, von_neumann_entropy

from conftest import hard_region_ensembles, near_degenerate_ensembles

pytestmark = pytest.mark.host_bits

# Rows that take the branches: a flat objective, vanishing weights and
# vectors, identical and collinear pairs, and degenerate top eigenspaces.
EDGES = [
    QubitEnsemble(0.4, 0.6, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3]),
    QubitEnsemble(0.0, 1.0, [0, 0, 0.8], [0.5, 0, 0]),
    QubitEnsemble(1.0, 0.0, [0.3, 0, 0.4], [0, 0.6, 0]),
    QubitEnsemble(0.5, 0.5, [0, 0, 0], [0, 0, 0]),
    QubitEnsemble(0.5, 0.5, [0, 0, 0.5], [0, 0, -0.5]),
    QubitEnsemble(0.3, 0.7, [0, 0.6, 0], [0, -0.2, 0]),
    QubitEnsemble.pure_pair(math.pi / 4),
    QubitEnsemble.pure_pair(0.0),
    QubitEnsemble.pure_pair(1e-9, 0.3),
]

# Rows that take the geometric form's branches: M vanishes (top <= tol), a
# tie (gap <= tol, the mirror pair at pi/4 among them), a zero weight and
# signed zeros in the vectors.
GEO_EDGES = EDGES + [
    QubitEnsemble(0.5, 0.5, [0.5, 0, 0], [0, 0.5, 0]),
    QubitEnsemble(0.5, 0.5, [0, 0, 1e-7], [1e-7, 0, 0]),
    QubitEnsemble(0.0, 1.0, [-0.0, 0.3, -0.4], [0.5, -0.0, 0]),
    QubitEnsemble(0.7, 0.3, [-0.0, -0.0, -0.6], [0.2, -0.0, -0.0]),
    QubitEnsemble(0.5, 0.5, [-0.0, 0.6, 0.0], [0.6, -0.0, -0.0]),
]

HARD = st.lists(st.one_of(near_degenerate_ensembles(), hard_region_ensembles()), max_size=6)

MEASURES = (holevo_chi, accessible_information, quantum_discord, geometric_discord, ensemble_purity)


def _block(seed, extra):
    """Random and pure draws, the edge rows and the drawn hard ones, shuffled."""
    rng = np.random.default_rng(seed)
    ensembles = [random_ensemble(rng) for _ in range(6)] + [random_pure_pair(rng) for _ in range(3)]
    ensembles += EDGES + extra
    return [ensembles[i] for i in rng.permutation(len(ensembles))]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _scalar_chi(ens):
    """holevo_chi as its scalar formula, one von_neumann_entropy per state."""
    chi = (
        von_neumann_entropy(average_state(ens))
        - ens.lambda0 * von_neumann_entropy(ens.a)
        - ens.lambda1 * von_neumann_entropy(ens.b)
    )
    return max(float(chi), 0.0)


def _scalar_purity(ens):
    """ensemble_purity as its scalar formula, one squared norm per state."""
    na2 = min(float(ens.a @ ens.a), 1.0)
    nb2 = min(float(ens.b @ ens.b), 1.0)
    return 0.5 * (ens.lambda0**2 * (1.0 + na2) + ens.lambda1**2 * (1.0 + nb2))


def _scalar_search(ens):
    """accessible_information of one ensemble, stage by scalar stage.

    The public objective on the scan, the peaks of that one scan, the polish
    of its own brackets, max over the candidates for the pick and the
    residual of _stationarity_terms.  Returns (axis, value, residual,
    evaluations, degenerate).
    """
    u1, u2 = discord._plane_basis(ens)
    raw = discord._SCAN_COS * u1 + discord._SCAN_SIN * u2
    vals = classical_mutual_information(ens, raw)
    if float(vals.max() - vals.min()) < discord._FLAT_TOL:
        peaks = np.arange(discord._SCAN_POINTS)
    else:
        peaks = np.flatnonzero(discord._scan_peaks(vals))
    if peaks.size > 64:
        candidates = list(zip(vals[peaks].tolist(), _unit_axes(raw)[peaks]))
        evals, hint = discord._SCAN_POINTS, True
    else:
        k = peaks.size
        consts = _row_constants(_EnsembleArrays.of([ens] * k), False)
        axes, values, used = discord._polish(
            discord._PHIS[peaks], np.tile(u1, (k, 1)), np.tile(u2, (k, 1)), consts
        )
        candidates = list(zip(values.tolist(), axes))
        evals, hint = discord._SCAN_POINTS + int(used.sum()), False
    best = max(v for v, _ in candidates)
    tied = [canonical_axis(ax) for v, ax in candidates if v >= best - discord._TIE_TOL]
    n_opt = max(tied, key=lambda ax: (ax[0], ax[1], ax[2]))
    degenerate = hint or any(abs(float(ax @ n_opt)) < 1.0 - 1e-8 for ax in tied)
    parts = _unit_perp_parts(ens, n_opt)
    residual = float(np.linalg.norm(discord._stationarity_terms(ens, *parts)[0]))
    return n_opt, max(best, 0.0), residual, evals, degenerate


def _fields(result, k=None):
    """Each field of a measure's one-ensemble result, or of row k of a block's, as bytes.

    holevo_chi and ensemble_purity return a value, the others an
    OptimizationResult; the method name is one string for a block.  A
    field's dtype is part of its bytes.
    """
    if isinstance(result, OptimizationResult):
        fields = [getattr(result, f.name) for f in dataclasses.fields(result)]
    else:
        fields = [result]
    out = []
    for x in fields:
        if not isinstance(x, str):
            x = np.asarray(x if k is None else x[k])
            x = (x.dtype.str, x.shape, x.tobytes())
        out.append(x)
    return out


def _row_bits(acc, k):
    return (
        acc.n_opt[k].tobytes(),
        float(acc.value[k]).hex(),
        float(acc.stationarity_residual[k]).hex(),
        int(acc.evaluations[k]),
        bool(acc.degenerate[k]),
    )


def test_rows_of_ensembles_and_of_the_sweep_grid_hold_their_fields():
    rng = np.random.default_rng(7)
    ensembles = [random_ensemble(rng) for _ in range(5)] + EDGES
    rows = _EnsembleArrays.of(ensembles)
    assert len(rows) == len(ensembles)
    for k, ens in enumerate(ensembles):
        got = rows.ensemble(k)
        assert (got.lambda0, got.lambda1) == (ens.lambda0, ens.lambda1)
        assert (_bits(got.a), _bits(got.b)) == (_bits(ens.a), _bits(ens.b))
    thetas = np.concatenate([np.linspace(0.0, np.pi, 97), [1e-300, np.nextafter(np.pi, 0.0)]])
    for lambda0 in (0.5, 0.3, 1.0, -0.0, 1.0 + 1e-13):
        rows = _EnsembleArrays.pure_pairs(thetas, lambda0)
        for k, theta in enumerate(thetas):
            ens = QubitEnsemble.pure_pair(float(theta), lambda0)
            assert (_bits(rows.lambda0[k]), _bits(rows.lambda1[k])) == (
                _bits(ens.lambda0),
                _bits(ens.lambda1),
            )
            assert (_bits(rows.a[k]), _bits(rows.b[k])) == (_bits(ens.a), _bits(ens.b))
    assert len(_EnsembleArrays.of([])) == 0
    with pytest.raises(ValueError, match="theta"):
        _EnsembleArrays.pure_pairs([0.5, 3.2], 0.5)
    with pytest.raises(ValueError, match="weights"):
        _EnsembleArrays.pure_pairs([0.5], 1.5)


@given(seed=st.integers(0, 2**32 - 1), extra=HARD)
@settings(max_examples=10, deadline=None)
def test_holevo_chi_of_a_block_matches_the_scalar_formula(seed, extra):
    ensembles = _block(seed, extra)
    rows = _EnsembleArrays.of(ensembles)
    assert _bits(holevo_chi(rows)) == _bits([_scalar_chi(ens) for ens in ensembles])


@given(seed=st.integers(0, 2**32 - 1), extra=HARD)
@settings(max_examples=10, deadline=None)
def test_ensemble_purity_of_a_block_matches_the_scalar_formula(seed, extra):
    ensembles = _block(seed, extra) + GEO_EDGES
    rows = _EnsembleArrays.of(ensembles)
    assert _bits(ensemble_purity(rows)) == _bits([_scalar_purity(ens) for ens in ensembles])


@given(seed=st.integers(0, 2**32 - 1), extra=HARD)
@settings(max_examples=10, deadline=None)
def test_koashi_winter_on_arrays_matches_its_scalar_calls(seed, extra):
    # The block's ensembles with both states pushed out to the sphere.
    pure = [
        QubitEnsemble(ens.lambda0, ens.lambda1, *(v / np.linalg.norm(v) for v in (ens.a, ens.b)))
        for ens in _block(seed, extra)
        if min(np.linalg.norm(ens.a), np.linalg.norm(ens.b)) > 0.0
    ]
    lambda0 = np.array([ens.lambda0 for ens in pure] + [0.0, -0.0, 1.0, 0.5, 0.5])
    overlap = np.array([pure_overlap(ens.a, ens.b) for ens in pure] + [0.5, 0.5, 0.5, 0.0, 1.0])

    def fields(kw):
        return tuple(_bits(x) for x in astuple(kw))

    want = [fields(discord_pure_koashi_winter(l0, ov)) for l0, ov in zip(lambda0, overlap)]
    got = discord_pure_koashi_winter(lambda0, overlap)
    assert [tuple(_bits(x) for x in row) for row in zip(*astuple(got))] == want
    # The sweep's form: one weight for every row.
    want = [_bits(discord_pure_koashi_winter(0.3, ov).discord) for ov in overlap]
    got = discord_pure_koashi_winter(0.3, overlap).discord
    assert [_bits(x) for x in got] == want
    with pytest.raises(ValueError, match="overlap"):
        discord_pure_koashi_winter(0.3, np.array([0.5, np.nan]))


@given(seed=st.integers(0, 2**32 - 1), extra=HARD)
@settings(max_examples=10, deadline=None)
def test_plane_basis_and_canonical_rows_match_the_scalar_forms(seed, extra):
    ensembles = _block(seed, extra)
    u1, u2 = discord._plane_basis_rows(_EnsembleArrays.of(ensembles))
    for k, ens in enumerate(ensembles):
        assert (_bits(u1[k]), _bits(u2[k])) == tuple(map(_bits, discord._plane_basis(ens)))
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(64, 3))
    # Components at, inside and beyond the sign tolerance, and signed zeros.
    axes[rng.random((64, 3)) < 0.4] = 0.0
    axes[rng.random((64, 3)) < 0.2] = -0.0
    small = rng.choice([_SIGN_TOL, -_SIGN_TOL, 0.5 * _SIGN_TOL, -2.0 * _SIGN_TOL], size=(64, 3))
    axes = np.where(rng.random((64, 3)) < 0.3, small, axes)
    got = canonical_axis(axes)
    assert [row.tobytes() for row in got] == [canonical_axis(ax).tobytes() for ax in axes]


def _geo_bits(result, k=None):
    """Axis bytes, value and residual of a one-ensemble result, or of row k of a block's."""
    fields = (result.n_opt, result.value, result.stationarity_residual)
    n_opt, value, residual = fields if k is None else (f[k] for f in fields)
    return n_opt.tobytes(), float(value).hex(), float(residual).hex()


@given(seed=st.integers(0, 2**32 - 1), extra=HARD)
@settings(max_examples=10, deadline=None)
def test_geometric_discord_of_a_block_matches_its_one_ensemble_calls(seed, extra):
    ensembles = _block(seed, extra) + GEO_EDGES
    got = geometric_discord(_EnsembleArrays.of(ensembles))
    assert got.n_opt.shape == (len(ensembles), 3)
    assert got.value.shape == got.stationarity_residual.shape == (len(ensembles),)
    assert got.evaluations.tolist() == [1] * len(ensembles)
    for k, ens in enumerate(ensembles):
        assert _geo_bits(got, k) == _geo_bits(geometric_discord(ens))
    # The sweep's rows, straight from its angle grid.
    rng = np.random.default_rng(seed)
    thetas = np.concatenate([np.linspace(0.0, np.pi, 41), rng.uniform(0.0, np.pi, 16), [np.pi / 4]])
    lambda0 = float(rng.choice([0.5, 0.3, 1e-9, 1.0]))
    got = geometric_discord(_EnsembleArrays.pure_pairs(thetas, lambda0))
    for k, theta in enumerate(thetas.tolist()):
        assert _geo_bits(got, k) == _geo_bits(geometric_discord(QubitEnsemble.pure_pair(theta, lambda0)))


def test_geometric_discord_of_a_row_does_not_depend_on_the_block():
    """Rows of a 512-row block match those of blocks of 1, 7 and 20 rows, to the bit."""
    rng = np.random.default_rng(4048)
    ensembles = [random_ensemble(rng) for _ in range(380)] + [random_pure_pair(rng) for _ in range(80)]
    ensembles += GEO_EDGES
    ensembles += [QubitEnsemble.pure_pair(t, 0.3) for t in rng.uniform(0, np.pi, 512 - len(ensembles))]
    ensembles = [ensembles[i] for i in rng.permutation(len(ensembles))]
    assert len(ensembles) == 512

    def run(block):
        result = geometric_discord(_EnsembleArrays.of(block))
        return [_geo_bits(result, k) for k in range(len(block))]

    whole = run(ensembles)
    for count in (1, 7, 20):
        for start in (0, 101, 512 - count):
            assert run(ensembles[start : start + count]) == whole[start : start + count]


@given(seed=st.integers(0, 2**32 - 1), extra=HARD)
@settings(max_examples=6, deadline=None)
def test_every_measure_of_a_block_matches_its_one_ensemble_calls(seed, extra):
    """Every field of every measure, row by row, with the bits and types of the lone call."""
    ensembles = _block(seed, extra) + GEO_EDGES
    rows = _EnsembleArrays.of(ensembles)
    for measure in MEASURES:
        block = measure(rows)
        for k, ens in enumerate(ensembles):
            assert _fields(block, k) == _fields(measure(ens)), (measure.__name__, k)
        columns = [block] if isinstance(block, np.ndarray) else astuple(block)
        assert all(len(c) == len(ensembles) for c in columns if not isinstance(c, str))


def test_pick_rows_matches_max_over_candidates():
    """Heavy ties, equal leading components and signed zeros pick as max does."""
    rng = np.random.default_rng(11)
    pool = np.array(
        [[0.6, 0.8, 0.0], [0.6, -0.8, 0.0], [0.6, 0.0, 0.8], [-0.6, -0.0, -0.8], [0.0, 0.0, 1.0],
         [-0.0, 1.0, 0.0], [1.0, 0.0, -0.0], [0.6, 0.8, -0.0], [0.28, 0.96, 0.0]]
    )
    owner = np.sort(rng.integers(0, 40, size=200))
    vals = np.round(rng.random(200), 1) + rng.choice([0.0, 1e-11, 1e-9], size=200)
    axes = pool[rng.integers(0, len(pool), size=200)]
    rows, n_opt, best, degenerate, starts = discord._pick_rows(owner, vals, axes)
    assert rows.tolist() == sorted(set(owner.tolist()))
    for j, row in enumerate(rows):
        mine = owner == row
        candidates = list(zip(vals[mine].tolist(), axes[mine]))
        top = max(v for v, _ in candidates)
        tied = [canonical_axis(ax) for v, ax in candidates if v >= top - discord._TIE_TOL]
        want = max(tied, key=lambda ax: (ax[0], ax[1], ax[2]))
        apart = any(abs(float(ax @ want)) < 1.0 - 1e-8 for ax in tied)
        assert (n_opt[j].tobytes(), float(best[j]).hex(), bool(degenerate[j])) == (
            want.tobytes(), float(top).hex(), apart
        )
        assert starts[j] == np.flatnonzero(mine)[0]


@given(seed=st.integers(0, 2**32 - 1), extra=HARD)
@settings(max_examples=6, deadline=None)
def test_scan_and_search_rows_match_one_ensemble_at_a_time(seed, extra):
    """Scan values and peaks, picked axes, values, evaluations, flags and residuals."""
    ensembles = _block(seed, extra)
    rows = _EnsembleArrays.of(ensembles)
    scans = []

    def peaks(vals, real=discord._scan_peaks):
        scans.append(vals.copy())
        return real(vals)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discord, "_scan_peaks", peaks)
        acc = accessible_information(rows)
    vals = np.concatenate(scans)  # the scan's slices, in order
    assert len(scans) == -(-len(ensembles) // discord._SCAN_ROWS)
    u1, u2 = discord._plane_basis_rows(rows)
    for k, ens in enumerate(ensembles):
        want = classical_mutual_information(ens, discord._SCAN_COS * u1[k] + discord._SCAN_SIN * u2[k])
        assert _bits(vals[k]) == _bits(want)
        rolled = (want >= np.roll(want, 1)) & (want >= np.roll(want, -1))
        assert (discord._scan_peaks(vals)[k] == rolled).all()
        n_opt, value, residual, evals, degenerate = _scalar_search(ens)
        assert _row_bits(acc, k) == (
            n_opt.tobytes(), float(value).hex(), float(residual).hex(), evals, degenerate
        )


def test_a_row_does_not_depend_on_the_block_or_the_scan_slices():
    """Rows of a 512-row block match those of smaller blocks, to the bit.

    Blocks of 1, 63, 64 and 65 rows, and of one scan slice and one row either
    side of it, start at offsets that put the slice boundaries elsewhere.
    """
    rng = np.random.default_rng(2024)
    ensembles = [random_ensemble(rng) for _ in range(400)] + [random_pure_pair(rng) for _ in range(80)]
    ensembles += EDGES + [QubitEnsemble.pure_pair(t) for t in rng.uniform(0, np.pi, 32 - len(EDGES))]
    ensembles = [ensembles[i] for i in rng.permutation(len(ensembles))]
    assert len(ensembles) == 512

    def run(block):
        rows = _EnsembleArrays.of(block)
        results = [measure(rows) for measure in MEASURES]
        return [[_fields(result, k) for result in results] for k in range(len(block))]

    whole = run(ensembles)
    size = discord._SCAN_ROWS
    blocks = [(0, 1), (511, 1), (0, 63), (0, 64), (0, 65), (200, 65)]
    blocks += [(0, size - 1), (0, size), (0, size + 1), (size // 2, size + 1)]
    for start, count in blocks:
        assert run(ensembles[start : start + count]) == whole[start : start + count]
