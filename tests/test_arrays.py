"""Array forms of the per-ensemble stages against their scalar forms, bit for bit.

A block of ensembles runs each stage as one array pass: holevo_chi, the
Koashi-Winter discord, the plane basis, the 720-point scan, the pick, the
stationarity residual and the geometric discord.  Each row
must get the bits of the scalar form, which the tests here write out (or
call) one ensemble at a time, so that no result depends on the block it was
computed in.  The plane basis and the stationarity defect have no scalar
form in the library; _scalar_plane_basis and _scalar_defect write them
out.  The measures (holevo_chi, accessible_information,
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

import qdiscord.cli as cli
import qdiscord.discord as discord
import qdiscord.geodiscord as geodiscord
import qdiscord.measurement as measurement
from qdiscord import (
    AnalyticConditionsReport,
    OptimizationResult,
    QubitEnsemble,
    accessible_information,
    binary_entropy,
    canonical_axis,
    check_analytic_conditions,
    classical_mutual_information,
    cq_state_entropy,
    cq_state_spectrum,
    discord_pure_koashi_winter,
    ensemble_purity,
    geometric_discord,
    holevo_chi,
    post_measurement_purity,
    quadratic_form,
    quantum_discord,
    quantum_mutual_information,
    random_ensemble,
    random_pure_pair,
    shannon_entropy,
    stationarity_residual,
)
from qdiscord.ensemble import _EnsembleArrays, average_state
from qdiscord.measurement import _SIGN_TOL, _row_constants, _unit_axes
from qdiscord.oracle import brute_force_batch, fibonacci_sphere
from qdiscord.qstate import _pure_overlaps, _row_dot, pure_overlap, von_neumann_entropy

from conftest import (
    hard_region_ensembles,
    near_degenerate_ensembles,
    planes_tilted_about_y,
    random_planes,
    seeded_hard_inputs,
)
from test_discord import MULTI_PEAK, NO_SIGN_CHANGE, _flat_draw

pytestmark = pytest.mark.host_bits

# How far a scan value, the row kernel at the projections cos(phi) (v.u1) +
# sin(phi) (v.u2), may lie from the public objective at the unit axis of
# that point.  The plane basis is orthonormal only to 1e-12 on nearly
# collinear pairs (the threshold of its second pass), so the projections are
# those of an axis whose norm can differ from 1 by about that much; measured
# up to 4.3e-13 on nearly collinear pure pairs and 4.9e-15 elsewhere.
SCAN_TOL = 1e-12

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

# Rows that take the geometric form's branches: ties (gap <= tol * top: the
# mirror pair at pi/4, a pair of Bloch norm 1e-7 and M = 0 among them), a
# zero weight and signed zeros in the vectors.
GEO_EDGES = EDGES + [
    QubitEnsemble(0.5, 0.5, [0.5, 0, 0], [0, 0.5, 0]),
    QubitEnsemble(0.5, 0.5, [0, 0, 1e-7], [1e-7, 0, 0]),
    QubitEnsemble(0.0, 1.0, [-0.0, 0.3, -0.4], [0.5, -0.0, 0]),
    QubitEnsemble(0.7, 0.3, [-0.0, -0.0, -0.6], [0.2, -0.0, -0.0]),
    QubitEnsemble(0.5, 0.5, [-0.0, 0.6, 0.0], [0.6, -0.0, -0.0]),
]


def _near_collinear(eps):
    """0.8 u and 0.4 u moved off it by eps along a fixed normal direction."""
    u = np.array([0.3, -0.5, 0.7]) / np.linalg.norm([0.3, -0.5, 0.7])
    d = np.array([0.5, 0.3, 0.0]) / np.linalg.norm([0.5, 0.3, 0.0])
    return QubitEnsemble(0.4, 0.6, 0.8 * u, 0.4 * u + eps * d)


# Rows that take each branch of the plane basis: vanishing pairs; a zero
# vector beside a non-zero one, identical, parallel and antiparallel pairs
# (collinear); u1 whose two smallest |components| tie, so that the first of
# them must win; near-collinear pairs (the second pass); and signed zeros.
PLANE_EDGES = [
    QubitEnsemble(0.5, 0.5, [0, 0, 0], [0, 0, 0]),
    QubitEnsemble(0.5, 0.5, [-0.0, 0.0, -0.0], [0.0, -0.0, -0.0]),
    QubitEnsemble(0.3, 0.7, [1e-13, 0, 0], [0, -1e-13, 0]),
    QubitEnsemble(0.5, 0.5, [0, 0, 0], [0, 0.5, 0]),
    QubitEnsemble(0.2, 0.8, [0.3, -0.4, 0.1], [0, 0, 0]),
    QubitEnsemble(0.4, 0.6, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3]),
    QubitEnsemble(0.4, 0.6, [0.2, 0.4, 0.6], [0.1, 0.2, 0.3]),
    QubitEnsemble(0.6, 0.4, [0.3, -0.6, 0.2], [-0.15, 0.3, -0.1]),
    QubitEnsemble(0.5, 0.5, [0, 0, 0.5], [0, 0, -0.5]),
    QubitEnsemble(0.3, 0.7, [0.2, -0.2, 0.6], [0.1, -0.1, 0.3]),
    QubitEnsemble(0.3, 0.7, [-0.4, 0.4, 0.4], [0.2, -0.2, -0.2]),
    QubitEnsemble(0.5, 0.5, [0.6, 0.0, -0.0], [-0.3, -0.0, 0.0]),
    QubitEnsemble(0.5, 0.5, [-0.0, 0.5, 0.0], [0.0, 0.5, -0.0]),
    QubitEnsemble(0.5, 0.5, [-0.0, 0.3, -0.0], [0.0, -0.0, 0.4]),
    QubitEnsemble(0.7, 0.3, [0.0, -0.0, -0.6], [-0.0, 0.2, 0.0]),
] + [_near_collinear(10.0**-k) for k in range(10, 17)]

PLANE_BRANCHES = {"plain", "second pass", "collinear", "vanishing"}

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


def _bloch_columns(ensembles):
    """The (N, 3) columns a and b of a block of ensembles, as the plane helpers take them."""
    rows = _EnsembleArrays.of(ensembles)
    return rows.a, rows.b


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


def _scalar_plane_basis(ens):
    """The orthonormal basis (u1, u2) of span{a, b} of one ensemble, and the branch it takes.

    u1 is the longer vector made unit and u2 the other made normal to it,
    with a second pass where the first leaves it visibly off normal.  A
    collinear pair takes the coordinate axis of u1's smallest component
    made normal to u1, and a vanishing pair (x, y).
    """
    a, b = ens.a, ens.b
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if max(na, nb) <= 1e-12:
        return np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), "vanishing"
    u1, other = (a / na, b) if na >= nb else (b / nb, a)
    w = other - (other @ u1) * u1
    branch = "plain"
    if abs(float(w @ u1)) > 1e-12 * float(np.linalg.norm(w)):
        w = w - (w @ u1) * u1
        branch = "second pass"
    nw = float(np.linalg.norm(w))
    if nw > 1e-13:
        return u1, w / nw, branch
    e = np.zeros(3)
    e[int(np.argmin(np.abs(u1)))] = 1.0
    w = e - (e @ u1) * u1
    return u1, w / np.linalg.norm(w), "collinear"


def _scalar_lex_max_rep(p, q):
    """Lexicographically largest canonical unit vector in span{p, q}, for an orthonormal pair."""
    for axis in (0, 1, 2):
        g0, g1 = float(p[axis]), float(q[axis])
        glen = np.hypot(g0, g1)
        if glen <= _SIGN_TOL:
            continue
        vstar = (g0 * p + g1 * q) / glen
        if vstar[2] >= -_SIGN_TOL:
            return canonical_axis(vstar)
        # The coordinate maximizer points below the z = 0 plane, so the best
        # normalized representative lies on the span's z = 0 line.
        u0 = q * p[2] - p * q[2]
        return canonical_axis(u0 / np.linalg.norm(u0))
    raise ValueError("degenerate basis for tie-break")


def _scalar_tie_axis(ens):
    """The top axis of a row whose top eigenvalue of M ties, one ensemble at a time.

    x where M vanishes (top <= 1e-12, an absolute bound, which holds the
    same rows as top = 0 at normal scale), else _scalar_lex_max_rep of the
    plane basis.
    """
    ga, gb = ens.lambda0 * ens.a, ens.lambda1 * ens.b
    p, q, r = float(ga @ ga), float(gb @ gb), float(ga @ gb)
    if 0.5 * (p + q + math.hypot(p - q, 2.0 * r)) <= 1e-12:
        return np.array([1.0, 0.0, 0.0])
    u1, u2, _ = _scalar_plane_basis(ens)
    return _scalar_lex_max_rep(u1, u2)


def _scalar_defect(ens, n):
    """stationarity_residual at the unit axis n: the norm of l0 log2(t0) a_perp + l1 log2(t1) b_perp."""
    an, bn = float(ens.a @ n), float(ens.b @ n)
    log_t0, log_t1 = discord._log_odds(np.array([an, bn, float(average_state(ens) @ n)]))
    vec = ens.lambda0 * log_t0 * (ens.a - an * n) + ens.lambda1 * log_t1 * (ens.b - bn * n)
    return float(np.linalg.norm(vec))


def _scalar_scan(ens, u1, u2):
    """The 720-point scan of one ensemble on the plane (u1, u2): the row kernel at its projections.

    The projections of a and b at phi are cos(phi) (v.u1) + sin(phi) (v.u2),
    each dot taken once as the in-plane record spells it, (v * u).sum().
    """
    ta, tb = ((v * u1).sum() * discord._SCAN_COS.T + (v * u2).sum() * discord._SCAN_SIN.T for v in (ens.a, ens.b))
    consts = _row_constants(_EnsembleArrays.of([ens]), False)
    return measurement._RowObjective(consts).projections(ta, tb)[0]


def _scalar_search(ens):
    """accessible_information of one ensemble, stage by scalar stage.

    The row kernel on the scan's projections, the peaks of that one scan,
    the polish of its own brackets, max over the candidates (a capped scan's
    at the unit axes of its points) for the pick and the residual of
    _scalar_defect.  Returns (axis, value, residual, evaluations,
    degenerate).
    """
    u1, u2, _ = _scalar_plane_basis(ens)
    raw = discord._SCAN_COS * u1 + discord._SCAN_SIN * u2
    vals = _scalar_scan(ens, u1, u2)
    if float(vals.max() - vals.min()) < discord._FLAT_TOL:
        peaks = np.arange(discord._SCAN_POINTS)
    else:
        peaks = np.flatnonzero(discord._scan_peaks(vals))
    if peaks.size > 64:
        candidates = list(zip(vals[peaks].tolist(), _unit_axes(raw)[peaks]))
        evals, hint = discord._SCAN_POINTS, True
    else:
        k = peaks.size
        rows = _EnsembleArrays.of([ens] * k)
        objective = measurement._RowObjective(_row_constants(rows, False))
        plane = discord._Plane.of(np.tile(u1, (k, 1)), np.tile(u2, (k, 1)), objective, rows.average)
        axes, values, used = discord._polish(discord._PHIS[peaks], plane)
        candidates = list(zip(values.tolist(), axes))
        evals, hint = discord._SCAN_POINTS + int(used.sum()), False
    best = max(v for v, _ in candidates)
    tied = [canonical_axis(ax) for v, ax in candidates if v >= best - discord._TIE_TOL]
    n_opt = max(tied, key=lambda ax: (ax[0], ax[1], ax[2]))
    degenerate = hint or any(abs(float(ax @ n_opt)) < 1.0 - 1e-8 for ax in tied)
    return n_opt, max(best, 0.0), _scalar_defect(ens, n_opt), evals, degenerate


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
        got = QubitEnsemble(rows.lambda0[k], rows.lambda1[k], rows.a[k], rows.b[k])
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


def _scalar_spectrum(ens):
    """cq_state_spectrum as its scalar formula, one np.linalg.norm per state."""
    na, nb = (min(float(np.linalg.norm(v)), 1.0) for v in (ens.a, ens.b))
    l0, l1 = ens.lambda0, ens.lambda1
    return np.array([l0 * (1.0 + na), l0 * (1.0 - na), l1 * (1.0 + nb), l1 * (1.0 - nb)]) / 2.0


@pytest.mark.host_bits
@given(seed=st.integers(0, 2**32 - 1), extra=HARD)
@settings(max_examples=10, deadline=None)
def test_verify_routes_of_a_block_match_their_scalar_formulas(seed, extra):
    """The block forms behind verify's entropy identities, eigen residual and pure-pair overlaps, row by row.

    cq_state_spectrum, cq_state_entropy, quantum_mutual_information and
    quadratic_form of a block give each row the bits of the scalar formula
    and of the one-ensemble call; so do verify's _entropy_gap and
    _eigen_residual columns, and _pure_overlaps against pure_overlap.
    """
    ensembles = _block(seed, extra)
    rows = _EnsembleArrays.of(ensembles)
    spectrum = [_scalar_spectrum(ens) for ens in ensembles]
    entropy = [shannon_entropy(p) for p in spectrum]
    assert _bits(cq_state_spectrum(rows)) == _bits(spectrum) == _bits([cq_state_spectrum(e) for e in ensembles])
    assert _bits(cq_state_entropy(rows)) == _bits(entropy) == _bits([cq_state_entropy(e) for e in ensembles])
    mutual = [
        binary_entropy(e.lambda0) + von_neumann_entropy(average_state(e)) - h for e, h in zip(ensembles, entropy)
    ]
    assert _bits(quantum_mutual_information(rows)) == _bits(mutual)
    assert _bits([quantum_mutual_information(e) for e in ensembles]) == _bits(mutual)
    gap = [
        h - (binary_entropy(e.lambda0) + e.lambda0 * von_neumann_entropy(e.a) + e.lambda1 * von_neumann_entropy(e.b))
        for e, h in zip(ensembles, entropy)
    ]
    assert _bits(cli._entropy_gap(rows)) == _bits(gap)
    form = quadratic_form(rows)
    residual = []
    for k, ens in enumerate(ensembles):
        m = ens.lambda0**2 * np.outer(ens.a, ens.a) + ens.lambda1**2 * np.outer(ens.b, ens.b)
        top, _, v, _ = geodiscord._top_eigenpair(ens)
        lone = quadratic_form(ens)
        assert _bits(form.m[k]) == _bits(lone.m) == _bits(m)
        assert _bits(form.top_eigenvalue[k]) == _bits(lone.top_eigenvalue) == _bits(top)
        assert type(lone.top_eigenvalue) is float
        assert _bits(form.top_eigenvector[k]) == _bits(lone.top_eigenvector) == _bits(v)
        residual.append(float(np.linalg.norm(m @ v - top * v)))
    assert _bits(cli._eigen_residual(rows)) == _bits(residual)
    pure = [e for e in ensembles if abs(np.linalg.norm(e.a) - 1.0) <= 1e-9 and abs(np.linalg.norm(e.b) - 1.0) <= 1e-9]
    pure_rows = _EnsembleArrays.of(pure)
    assert _bits(_pure_overlaps(pure_rows.a, pure_rows.b)) == _bits([pure_overlap(e.a, e.b) for e in pure])


@given(seed=st.integers(0, 2**32 - 1), extra=HARD)
@settings(max_examples=10, deadline=None)
def test_plane_basis_and_canonical_rows_match_the_scalar_forms(seed, extra):
    ensembles = _block(seed, extra) + PLANE_EDGES
    u1, u2 = discord._plane_basis_rows(*_bloch_columns(ensembles))
    branches = []
    for k, ens in enumerate(ensembles):
        *want, branch = _scalar_plane_basis(ens)
        assert (_bits(u1[k]), _bits(u2[k])) == tuple(map(_bits, want)), k
        branches.append(branch)
    # The edge rows take every branch, whatever the draws.
    assert set(branches[-len(PLANE_EDGES) :]) == PLANE_BRANCHES
    ties = [np.sort(np.abs(u))[:2] for u, b in zip(u1, branches) if b == "collinear"]
    assert any(x == y for x, y in ties)
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(64, 3))
    # Components at, inside and beyond the sign tolerance, and signed zeros.
    axes[rng.random((64, 3)) < 0.4] = 0.0
    axes[rng.random((64, 3)) < 0.2] = -0.0
    small = rng.choice([_SIGN_TOL, -_SIGN_TOL, 0.5 * _SIGN_TOL, -2.0 * _SIGN_TOL], size=(64, 3))
    axes = np.where(rng.random((64, 3)) < 0.3, small, axes)
    got = canonical_axis(axes)
    assert [row.tobytes() for row in got] == [canonical_axis(ax).tobytes() for ax in axes]


@given(seed=st.integers(0, 2**32 - 1), extra=HARD)
@settings(max_examples=10, deadline=None)
def test_stationarity_residual_matches_the_scalar_defect(seed, extra):
    """The one-row residual and the report's, at random axes and at each row's optimum.

    Both squash the axis they are given once, as _unit_axes does.
    """
    ensembles = _block(seed, extra) + PLANE_EDGES
    axes = np.random.default_rng(seed).normal(size=(len(ensembles), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    optima = accessible_information(_EnsembleArrays.of(ensembles)).n_opt
    for ens, n, n_opt in zip(ensembles, axes, optima):
        for axis in (n, n_opt):
            want = float(_scalar_defect(ens, _unit_axes(axis))).hex()
            assert float(stationarity_residual(ens, axis)).hex() == want
            assert float(check_analytic_conditions(ens, axis).residual).hex() == want


def _report_bits(report):
    """The fields of an AnalyticConditionsReport, each with its type: floats as hex, bools as they are."""
    return [(type(x).__name__, x.hex() if isinstance(x, float) else x) for x in astuple(report)]


def _lone_result_bits(result):
    """_row_bits of a one-ensemble OptimizationResult, whose fields must have the types of a one-ensemble call."""
    assert (type(result.value), type(result.stationarity_residual)) == (float, float)
    assert (type(result.evaluations), type(result.degenerate)) == (int, bool)
    assert result.n_opt.shape == (3,) and result.n_opt.dtype == float
    return (
        result.n_opt.tobytes(),
        result.value.hex(),
        result.stationarity_residual.hex(),
        result.evaluations,
        result.degenerate,
    )


def _one_row_block_fields(ens, n):
    """The lone calls' fields as the one-row block gives them, at n and at the optimum.

    The reports are built from the block's stages, as check_analytic_conditions built them on the block.
    """
    rows = _EnsembleArrays.of([ens])
    acc, disc = accessible_information(rows), quantum_discord(rows)
    fields = [float(holevo_chi(rows)[0]).hex(), _row_bits(acc, 0), _row_bits(disc, 0)]
    for axis in (_unit_axes(n), _unit_axes(acc.n_opt[0])):
        x = _row_dot(np.array((rows.a, rows.b, rows.average)), axis[None])[:, 0]
        log_t0, log_t1 = discord._log_odds(x)
        odds = float(abs(log_t0 + log_t1))
        perp = float(np.linalg.norm(ens.lambda0 * (ens.a - x[0] * axis) + ens.lambda1 * (ens.b - x[1] * axis)))
        report = AnalyticConditionsReport(
            float(discord._stationarity_rows(rows, axis[None])[0]), odds, odds <= discord._CONDITION_TOL, perp,
            perp <= discord._CONDITION_TOL, bool((np.abs(x) > 1.0 - discord._LOG_CLAMP).any()), discord._CONDITION_TOL,
        )
        fields += [report.residual.hex(), _report_bits(report)]
    return fields


def _lone_fields(ens, n):
    """The lone calls' fields: chi and the discord on one new ensemble, the search, residuals and reports on another."""
    first, second = (QubitEnsemble(ens.lambda0, ens.lambda1, ens.a, ens.b) for _ in range(2))
    chi = holevo_chi(first)
    assert type(chi) is float
    disc = quantum_discord(first)
    acc = accessible_information(second)
    fields = [chi.hex(), _lone_result_bits(acc), _lone_result_bits(disc)]
    for axis in (n, acc.n_opt):
        residual = stationarity_residual(second, axis)
        assert type(residual) is float
        fields += [residual.hex(), _report_bits(check_analytic_conditions(second, axis))]
    return fields


def _fall_through(ens):
    """Why a lone search leaves its body for the block's stages, or None.

    The reasons are a rare plane basis (its branch), a capped scan and a scan of more than one bracket.
    """
    branch = _scalar_plane_basis(ens)[2]
    if branch != "plain":
        return branch
    rows = _EnsembleArrays.of([ens])
    u1, u2 = discord._plane_basis_rows(rows.a, rows.b)
    objective = measurement._RowObjective(_row_constants(rows, False))
    brackets, capped = discord._scan_slice(discord._Plane.of(u1, u2, objective, rows.average))
    if capped is not None:
        return "capped"
    return None if np.count_nonzero(brackets) == 1 else "brackets"


def test_a_lone_ensemble_gets_the_bits_of_its_one_row_block(monkeypatch):
    """Every field of the lone calls has the bits of the one-row block's, whether or not the lone body runs.

    The lone body runs on the common row, a plane basis of one
    Gram-Schmidt pass and a scan of one bracket and no cap; a spy on the
    block's stages shows that it does, and that every other row falls
    through to them.  The rows are seeded_hard_inputs, both kinds of
    _flat_draw, PLANE_EDGES, MULTI_PEAK and NO_SIGN_CHANGE, which between
    them take every reason to fall through.
    """
    rng = np.random.default_rng(32)
    ensembles = [MULTI_PEAK, NO_SIGN_CHANGE] + PLANE_EDGES + seeded_hard_inputs(rng, 40)
    ensembles += [_flat_draw(rng, kind) for kind in ("extreme_weight", "tiny_norm") for _ in range(40)]
    axes = rng.normal(size=(len(ensembles), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    block_optimum, fell = discord._block_optimum, []
    monkeypatch.setattr(discord, "_block_optimum", lambda *args: fell.append(args) or block_optimum(*args))
    reasons = []
    for ens, n in zip(ensembles, axes):
        want = _one_row_block_fields(ens, n)
        fell.clear()
        accessible_information(QubitEnsemble(ens.lambda0, ens.lambda1, ens.a, ens.b))
        reasons.append(_fall_through(ens))
        assert len(fell) == (reasons[-1] is not None), (reasons[-1], ens)
        assert _lone_fields(ens, n) == want, ens
    assert set(reasons) == {None, "second pass", "collinear", "vanishing", "capped", "brackets"}
    assert reasons.count(None) >= len(ensembles) // 2


def test_an_empty_block_gives_empty_columns():
    rows = _EnsembleArrays.of([])
    results = [measure(rows) for measure in MEASURES] + [brute_force_batch(rows, False, 100)]
    for result in results:
        columns = [result] if isinstance(result, np.ndarray) else astuple(result)
        assert all(len(c) == 0 for c in columns if not isinstance(c, str))
    assert classical_mutual_information(rows, np.zeros((0, 3))).shape == (0,)
    assert post_measurement_purity(rows, np.zeros((0, 4, 3))).shape == (0, 4)


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


def test_tie_rows_take_the_scalar_tie_break():
    """The array tie-break against _scalar_tie_axis, bit for bit, in every form that reports the axis.

    The rows: tie pairs (l0 |a| = l1 |b|, a normal to b) on random planes, a
    quarter of them normal to x, and on planes tilted about y, whose
    tie-break is decided inside the sign tolerance; and the tie rows of
    GEO_EDGES, which must hold at least one tie at M = 0 and one beside it.
    """
    rng = np.random.default_rng(2010)
    planes = [*random_planes(rng, 300), *planes_tilted_about_y(rng, 300)]
    scales = rng.uniform(0.05, 1.0, len(planes))
    ensembles = [QubitEnsemble(0.5, 0.5, s * u, s * w) for s, (u, w) in zip(scales, planes)]
    edges = [ens for ens in GEO_EDGES if geometric_discord(ens).degenerate]
    assert {quadratic_form(ens).top_eigenvalue > 0.0 for ens in edges} == {False, True}
    ensembles += edges
    rows = _EnsembleArrays.of(ensembles)
    block = geometric_discord(rows)
    assert block.degenerate.all()
    top = np.array([quadratic_form(ens).top_eigenvalue for ens in ensembles])
    step = geodiscord._tie_axes(rows.a, rows.b, top)
    for k, ens in enumerate(ensembles):
        want = _scalar_tie_axis(ens).tobytes()
        assert step[k].tobytes() == block.n_opt[k].tobytes() == want, k
        assert geometric_discord(ens).n_opt.tobytes() == want, k
        assert quadratic_form(ens).top_eigenvector.tobytes() == want, k
    # The step on the planes' bases themselves.
    bases = [QubitEnsemble(0.5, 0.5, u, w) for u, w in planes]
    step = geodiscord._tie_axes(*_bloch_columns(bases), np.ones(len(bases)))
    for k, ens in enumerate(bases):
        assert step[k].tobytes() == _scalar_tie_axis(ens).tobytes(), k


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
    # One candidate per row: it is the row's pick, and no axis ties with it.
    rows, n_opt, best, degenerate, starts = discord._pick_rows(np.arange(len(pool)), vals[: len(pool)], pool)
    assert n_opt.tobytes() == canonical_axis(pool).tobytes()
    assert degenerate.dtype == bool and not degenerate.any()


@given(seed=st.integers(0, 2**32 - 1), extra=HARD)
@settings(max_examples=6, deadline=None)
def test_scan_and_search_rows_match_one_ensemble_at_a_time(seed, extra):
    """Scan values and peaks, picked axes, values, evaluations, flags and residuals.

    A scan value has the bits of the row kernel at its projections, and
    lies within SCAN_TOL of the public objective at its 3-D axis.  The rows
    of PLANE_EDGES scan on every branch of the plane basis.
    """
    ensembles = _block(seed, extra) + PLANE_EDGES
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
    u1, u2 = discord._plane_basis_rows(rows.a, rows.b)
    for k, ens in enumerate(ensembles):
        want = _scalar_scan(ens, u1[k], u2[k])
        assert _bits(vals[k]) == _bits(want)
        at_axes = classical_mutual_information(ens, discord._SCAN_COS * u1[k] + discord._SCAN_SIN * u2[k])
        assert np.abs(want - at_axes).max() <= SCAN_TOL
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


def _whole_pass(consts, *batch, projections=False):
    """The row kernel's values at a batch (axes, or projections) in one pass, with no budget to split it.

    The pass has a working set of its own, dropped after it.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measurement, "_PASS_AXES", 10**12)
        patch.setattr(measurement, "_WORK", measurement._WorkingSet())
        objective = measurement._RowObjective(consts)
        return (objective.projections if projections else objective)(*batch)


def test_pieces_cover_the_batch_within_the_budget_and_never_hold_one_axis():
    budget = measurement._PASS_AXES
    cases = [(1, budget + 1), (3, 2 * budget + 1), (2, 10_000), (1, 1_000_000)]
    for rows, count in cases + [(budget // 720 + 1, 720), (budget // 8 + 1, 8)]:
        pieces = measurement._pieces(rows, count)
        covered = np.zeros((rows, count), dtype=int)
        for part, axes in pieces:
            covered[part, axes] += 1
            size = covered[part, axes].size
            assert 2 <= size <= budget
        assert (covered == 1).all(), (rows, count)
        assert len(pieces) > 1
    assert measurement._pieces(budget, 1) == [(slice(0, budget), slice(None))]


@pytest.mark.parametrize("count", [10_000, 2881, 5761, 1441])
def test_the_kernel_in_pieces_matches_one_whole_pass_on_a_grid(count):
    """Information and purity rows on count axes, one row or several to a call.

    10 000 axes, the default oracle grid, are one pass a row.  1 441, 2 881
    and 5 761 are named at a budget of 1 440 and scaled to the budget: one
    over a multiple of it, split into two, three and five equal pieces.
    The Fibonacci grid ends on a pole, where a lone axis would give the
    same bits anyway, so random axes run too.
    """
    rng = np.random.default_rng(count)
    if count % 1440 == 1:
        count = (count - 1) // 1440 * measurement._PASS_AXES + 1
    ensembles = [random_ensemble(rng) for _ in range(4)] + [random_pure_pair(rng)] + EDGES[:3]
    raw = rng.normal(size=(count, 3))
    for grid in (_unit_axes(fibonacci_sphere(count)), _unit_axes(raw / np.linalg.norm(raw, axis=1, keepdims=True))):
        for purity in (False, True, np.arange(len(ensembles)) % 2 == 0):
            consts = _row_constants(_EnsembleArrays.of(ensembles), purity)
            for k in range(len(ensembles)):
                row = tuple(c[k : k + 1] for c in consts)
                assert _bits(measurement._RowObjective(row)(grid)) == _bits(_whole_pass(row, grid))
            axes = np.repeat(grid[None], len(ensembles), axis=0)
            assert _bits(measurement._RowObjective(consts)(axes)) == _bits(_whole_pass(consts, axes))


def test_the_kernel_in_pieces_matches_one_whole_pass_over_many_rows():
    """Calls of many rows over the budget: 1, 8 or 720 axes a row, split by whole rows."""
    rng = np.random.default_rng(33)
    ensembles = [random_ensemble(rng) for _ in range(500)] + [random_pure_pair(rng) for _ in range(100)]
    ensembles += EDGES * 4
    for purity in (False, True, rng.uniform(size=len(ensembles)) < 0.5):
        consts = _row_constants(_EnsembleArrays.of(ensembles), purity)
        for shape in ((1,), (8,), (2, 4)):
            raw = rng.normal(size=(len(ensembles), *shape, 3))
            n = _unit_axes(raw / np.linalg.norm(raw, axis=-1, keepdims=True))
            assert _bits(measurement._RowObjective(consts)(n)) == _bits(_whole_pass(consts, n))
        part = tuple(c[:9] for c in consts)
        u1, u2 = discord._plane_basis_rows(*_bloch_columns(ensembles[:9]))
        n = _unit_axes(discord._SCAN_COS * u1[:, None] + discord._SCAN_SIN * u2[:, None])
        assert _bits(measurement._RowObjective(part)(n)) == _bits(_whole_pass(part, n))


def test_the_kernel_on_projections_in_pieces_matches_one_whole_pass():
    """The kernel on projections over the budget, split by whole rows or into equal pieces of a row.

    The scan's 720 projections a row go twenty rows to a pass, so a scan
    slice is one pass; twice the budget plus one a row go in three pieces
    of each row.
    """
    assert discord._SCAN_ROWS * discord._SCAN_POINTS == measurement._PASS_AXES
    rng = np.random.default_rng(720)
    ensembles = [random_ensemble(rng) for _ in range(500)] + [random_pure_pair(rng) for _ in range(100)]
    ensembles += EDGES * 4
    rows = _EnsembleArrays.of(ensembles)
    u1, u2 = discord._plane_basis_rows(rows.a, rows.b)
    scan = [
        _row_dot(v, u1)[:, None] * discord._SCAN_COS.T + _row_dot(v, u2)[:, None] * discord._SCAN_SIN.T
        for v in (rows.a, rows.b)
    ]
    raw = rng.normal(size=(9, 2 * measurement._PASS_AXES + 1, 3))
    n = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    many = [(n @ v[:9, :, None])[..., 0] for v in (rows.a, rows.b)]
    for purity in (False, True, rng.uniform(size=len(ensembles)) < 0.5):
        consts = _row_constants(rows, purity)
        first = tuple(c[:9] for c in consts)
        for consts, (ta, tb) in ((consts, scan), (first, many)):
            got = measurement._RowObjective(consts).projections(ta, tb)
            assert _bits(got) == _bits(_whole_pass(consts, ta, tb, projections=True))
