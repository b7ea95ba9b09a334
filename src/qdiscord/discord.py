"""Accessible information, quantum discord, and the optimal-measurement search.

Quantum discord of a two-state ensemble is the gap between the Holevo bound
and the accessible information; both sides share one optimal measurement
axis.  For two states the information quantities depend on the axis n only
through (a.n, b.n), so an optimal axis always exists in span{a, b}.  The
search below exploits that plane restriction; the full-sphere grid oracle
(see the oracle module) exists to verify the restriction rather than trust
it.

accessible_information and quantum_discord take one ensemble, or a block of
them as a struct of arrays (_EnsembleArrays: lambda0 and lambda1 of shape
(N,), a and b of shape (N, 3)) whose result holds a column per field; a
lone ensemble's common row has a body of its own (below).  The search runs
each stage, whatever the block's size, as one array pass over it: the plane bases, the 720-point
angular scan on the rows of the row kernel of the measurement module
(_row_constants, _RowObjective), which the oracle shares, its peaks, and at
the end each row's pick and stationarity residual.  The scan builds no
axes: a scan point phi of a row's plane (u1, u2) has the projections
cos(phi) (v.u1) + sin(phi) (v.u2) for v = a, b, so each row's four
in-plane dots, taken once, give the projections of all 720 points, and the
kernel's projection form evaluates them.  The scan runs _SCAN_ROWS rows at
a time, derived from the row kernel's budget (measurement._PASS_AXES): a
slice is as many 720-point rows as one pass of the kernel takes, twenty,
and its projections and values go into the kernel's working set, which
every slice reuses (_scan_slice).  So the scan allocates nothing that
grows with the block, and the steps taken once a slice (its projections,
peaks and cap) stay few.  Every scan peak becomes a bracket one scan step wide
on either side.  The brackets of all ensembles are then polished by one
root search on the slope dI/dphi, which is the paper's stationarity
condition sum_i lambda_i log2(t_i) v_i_perp = 0 (Fuchs and Caves'
condition for two mixed states) taken along the plane: Illinois steps,
safeguarded by the bracket and by bisection, that place the axis to
round-off in about six steps.  The search is written once, for one
bracket in Python floats (_slope_root_one), and every bracket of a call
goes through it in turn, so each costs only its own steps and no numpy
call on arrays of one element.  A bracket whose
ends show no sign change of the slope keeps its scan angle; that happens
only where the objective is flat to round-off, so the scan point is as
good as any.  Every bracket's axis then gets one evaluation of the row
kernel for its value.

Each stage is written once, for a block: a rare branch (the plane basis of
a nearly collinear, collinear or vanishing pair) is a masked step on the
rows that take it.  Every operation is row by row, so a row's result does
not depend on the block it was computed in.  A block skips only the steps
that would be an identity on it, never a stage: a block whose rows have one
bracket each, in row order, is polished on its arrays as they are, with no
re-indexing and no pick.

A lone ensemble has a one-row body of its own (_lone_optimum,
_stationarity_one and quantum_discord's clamp), because numpy costs about
a microsecond a call whatever the length of the array, and a one-row block
spent most of its time building, indexing and reading back arrays of one
element.  The body takes the common row: a plane basis of one Gram-Schmidt
pass and a scan of exactly one bracket and no cap, 948 of the benchmark's
1 000 seed-1 ensemble_batch inputs.  It computes the plane basis, the
slope's in-plane projections, the optimal axis and its canonical sign, the
stationarity defect and the discord's clamp on Python floats, where each
+, -, *, / and sqrt is one exactly rounded IEEE operation, with no fused
multiply-add, in the order of the block's; numpy's three-term sums run left
to right, as Python's (x + y) + z does.  numpy stays where it fixes bits:
the BLAS dots that _row_dot takes, the ufuncs log2, artanh, cos and sin on
scalars or short lists, and the row kernel's two passes, the scan and the
final value.  So every field of a lone call has the bits of its one-row
block.  Any other row goes on through the block's stages from the row
kernel, basis and scan the body built, so each rare branch has one owner.
stationarity_residual and check_analytic_conditions take their defect from
the same body.

For ensembles of two pure states the optimization can be skipped entirely:
purifying with an ancilla qubit turns the discord into an entanglement of
formation plus marginal entropies, all closed form and elementwise over
arrays of overlaps, which the sweep passes a block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ensemble import QubitEnsemble, _EnsembleArrays, holevo_chi
from .measurement import (
    _PASS_AXES,
    _WORK,
    _normalized,
    _row_constants,
    _row_constants_one,
    _RowObjective,
    _unit_axes,
    canonical_axis,
)
from .qstate import NORM_SLACK, _binary_entropy, _half_angle, _row_dot, as_bloch, binary_entropy

IN_PLANE_METHOD = "in-plane root search"
# A sufficient optimality condition holds when its residual is at most this.
_CONDITION_TOL = 1e-8

_SCAN_POINTS = 720
# Rows per slice of the scan: as many as one pass of the row kernel takes.
_SCAN_ROWS = _PASS_AXES // _SCAN_POINTS
_TIE_TOL = 1e-10
# The root search stops once a bracket is this narrow: a few ulps of an angle.
_ROOT_TOL = 1e-14
_FLAT_TOL = 1e-14
_PHIS = np.linspace(0.0, np.pi, _SCAN_POINTS, endpoint=False)
_SCAN_COS = np.cos(_PHIS)[:, None]
_SCAN_SIN = np.sin(_PHIS)[:, None]
# Half-width of a scan bracket: one scan step.
_DPHI = np.pi / _SCAN_POINTS
# Factors (1 +/- v.n) are kept at least this far from 0 before entering a
# log; axes that trip the clamp sit on the boundary where the variational
# condition is meaningless, and are reported as singular instead of crashing.
_LOG_CLAMP = 1e-15
# log2((1 + x)/(1 - x)) = _LOG2_ODDS artanh(x)
_LOG2_ODDS = float(2.0 / np.log(2.0))


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Optimal measurement axis with its objective value and diagnostics.

    degenerate is set when several well-separated axes tie at the optimum
    (the reported axis is then the deterministic tie-break winner).  For a
    block every field but method is a column, row k the call on ensemble k.
    """

    n_opt: np.ndarray
    value: float
    stationarity_residual: float
    evaluations: int
    method: str
    degenerate: bool = False


@dataclass(frozen=True)
class KoashiWinterBreakdown:
    """Closed-form discord of a pure-state ensemble, with its ingredients.

    discord = eof + s_b - s_ab, where eof is the entanglement of formation
    of the purifying pair, s_b the average-state entropy h(lambda_plus) and
    s_ab the joint entropy h(lambda0).
    """

    concurrence: float
    eof: float
    s_b: float
    s_ab: float
    discord: float


@dataclass(frozen=True)
class AnalyticConditionsReport:
    """The two sufficient optimality conditions at a fixed axis.

    odds_inverse: the outcome odds ratios satisfy t0 = 1/t1.
    perp_balance: lambda0 a_perp + lambda1 b_perp = 0.
    Either one (plus stationarity) identifies an analytically solvable case;
    the full variational residual can vanish without them.
    """

    residual: float
    odds_inverse_residual: float
    odds_inverse_holds: bool
    perp_balance_residual: float
    perp_balance_holds: bool
    singular: bool
    tolerance: float


def _unit_interval(x, name: str):
    """x clamped into [0, 1], after a check that it lies there up to NORM_SLACK.

    Elementwise on an array; a scalar comes back as a float.
    """
    x = np.asarray(x, dtype=float)
    # Written so that NaN fails the test too.
    bad = ~((x >= -NORM_SLACK) & (x <= 1.0 + NORM_SLACK))
    if bad.any():
        raise ValueError(f"{name} must lie in [0, 1], got {x[bad].flat[0]:.17g}")
    # min(max(x, 0.0), 1.0), which keeps a -0.0 as np.clip does not.
    x = np.where(0.0 > x, 0.0, x)
    return _float_or_array(np.where(1.0 < x, 1.0, x))


def _float_or_array(x):
    """x as a Python float when it is a scalar, else the array itself."""
    return float(x) if np.ndim(x) == 0 else x


def _at_least_zero(x):
    """max(0.0, x) elementwise: 0.0 unless x > 0."""
    return np.where(x > 0.0, x, 0.0)


def concurrence_pure_ensemble(lambda0: float, overlap: float) -> float:
    """Concurrence 2 sqrt(lambda0 lambda1) |<phi0|phi1>| of the purifying pair."""
    return _float_or_array(_concurrence(_unit_interval(lambda0, "lambda0"), _unit_interval(overlap, "overlap")))


def _concurrence(l0, ov):
    """concurrence_pure_ensemble of a weight and an overlap in [0, 1] that the caller checked."""
    return 2.0 * np.sqrt(l0 * (1.0 - l0)) * ov


def eof_from_concurrence(concurrence: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2))/2), monotone in C."""
    return _float_or_array(_eof(_unit_interval(concurrence, "concurrence")))


def _eof(c):
    """eof_from_concurrence of a concurrence c in [0, 1] that the caller checked or built."""
    return _binary_entropy((1.0 + np.sqrt(_at_least_zero(1.0 - c * c))) / 2.0)


def average_state_eigen_split(lambda0: float, overlap: float) -> tuple[float, float]:
    """Eigenvalues (1 +/- |c|)/2 of the average state of a pure pair."""
    s = _float_or_array(_split(_unit_interval(lambda0, "lambda0"), _unit_interval(overlap, "overlap")))
    return (1.0 + s) / 2.0, (1.0 - s) / 2.0


def _split(l0, ov):
    """|c| of the average state, from a weight and an overlap in [0, 1] that the caller checked."""
    return np.sqrt(_at_least_zero(1.0 - 4.0 * l0 * (1.0 - l0) * (1.0 - ov * ov)))


def discord_pure_koashi_winter(lambda0: float, overlap: float) -> KoashiWinterBreakdown:
    """Closed-form discord of an ensemble of two pure states.

    No measurement optimization: the value is eof + h(lambda_plus) - h(lambda0)
    via the purification argument.  Elementwise over arrays, each value with
    the bits of its scalar call.  lambda0 and overlap are checked once, here;
    the concurrence and lambda_plus built from them lie in [0, 1], so none
    of the entropies, h(lambda0) included, repeats binary_entropy's checks.
    """
    l0, ov = _unit_interval(lambda0, "lambda0"), _unit_interval(overlap, "overlap")
    c = _float_or_array(_concurrence(l0, ov))
    lam_plus = (1.0 + _float_or_array(_split(l0, ov))) / 2.0
    eof, s_b, s_ab = (_float_or_array(h) for h in (_eof(c), _binary_entropy(lam_plus), _binary_entropy(l0)))
    return KoashiWinterBreakdown(c, eof, s_b, s_ab, eof + s_b - s_ab)


def example_discord_closed_form(theta: float) -> float:
    """Discord of the equal-weight mirror pair: h((1+sin t)/2) + h((1+cos t)/2) - 1."""
    theta = _half_angle(theta)
    return (
        binary_entropy((1.0 + np.sin(theta)) / 2.0)
        + binary_entropy((1.0 + np.cos(theta)) / 2.0)
        - 1.0
    )


# ---------------------------------------------------------------------------
# Variational stationarity of the conditional entropy
# ---------------------------------------------------------------------------

def _log_odds(x):
    """log2(t0), log2(t1) from x = (a.n, b.n, c.n).

    t_i = (1 + v_i.n)(1 - c.n) / ((1 - v_i.n)(1 + c.n)), so log2(t_i) is
    (2/ln 2)(artanh(v_i.n) - artanh(c.n)).  artanh keeps its relative
    precision near 0, where 1 +/- x would round it away, and it is odd, so
    symmetric configurations cancel exactly.  Projections within _LOG_CLAMP
    of +/-1 are clamped there.  x may hold a column of projections per row.
    """
    r = np.arctanh(np.minimum(np.maximum(x, _LOG_CLAMP - 1.0), 1.0 - _LOG_CLAMP))
    return _LOG2_ODDS * (r[0] - r[2]), _LOG2_ODDS * (r[1] - r[2])


def _artanh(x: float) -> float:
    """artanh of a Python float after the clamp of _log_odds, with the bits of its ufunc.

    The clamp is two comparisons, which pass a NaN through, as np.minimum
    and np.maximum do.
    """
    low, high = _LOG_CLAMP - 1.0, 1.0 - _LOG_CLAMP
    return float(np.arctanh(low if x < low else high if x > high else x))


def _stationarity_one(ens: QubitEnsemble, n):
    """_stationarity_rows of a lone ensemble at its unit 3-vector axis n, on Python floats, bit for bit.

    The dots are BLAS dots, as _row_dot takes them, and artanh is numpy's;
    every other step is one exactly rounded operation, in the order of the
    block's.  Returns [a.n, b.n, c.n], log2(t0), log2(t1) and the defect's
    norm.
    """
    x = [float(v.dot(n)) for v in (ens.a, ens.b, ens._average)]
    rc = _artanh(x[2])
    log_t0, log_t1 = _LOG2_ODDS * (_artanh(x[0]) - rc), _LOG2_ODDS * (_artanh(x[1]) - rc)
    w0, w1 = ens.lambda0 * log_t0, ens.lambda1 * log_t1
    parts = zip(ens.a.tolist(), ens.b.tolist(), n.tolist())
    vec = np.array([w0 * (p - x[0] * m) + w1 * (q - x[1] * m) for p, q, m in parts])
    return x, log_t0, log_t1, math.sqrt(vec.dot(vec))


def _stationarity_rows(rows: _EnsembleArrays, n) -> np.ndarray:
    """stationarity_residual of every row at its unit axis n[k], without the checks.

    The norm of the defect l0 log2(t0) a_perp + l1 log2(t1) b_perp, with
    v_perp = v - (v.n) n.
    """
    x = _row_dot(np.array((rows.a, rows.b, rows.average)), n)
    an, bn = x[0], x[1]
    log_t0, log_t1 = _log_odds(x)
    vec = (rows.lambda0 * log_t0)[:, None] * (rows.a - an[:, None] * n) + (
        rows.lambda1 * log_t1
    )[:, None] * (rows.b - bn[:, None] * n)
    return np.sqrt(_row_dot(vec, vec))


def stationarity_residual(ens: QubitEnsemble, n) -> float:
    """Norm of the variational optimality defect at the axis n.

    Vanishes at every interior critical point of the conditional entropy
    (minima, maxima and saddles alike).  Boundary axes where a log factor is
    clamped yield a finite, flagged value; see check_analytic_conditions.
    """
    return _stationarity_one(ens, _unit_axes(as_bloch(n)))[3]


def check_analytic_conditions(ens: QubitEnsemble, n) -> AnalyticConditionsReport:
    """Evaluate the two sufficient optimality conditions at the axis n.

    singular tells whether _log_odds clamped a projection.
    """
    n = _unit_axes(as_bloch(n))
    x, log_t0, log_t1, residual = _stationarity_one(ens, n)
    odds_res = abs(log_t0 + log_t1)
    perp_res = float(np.linalg.norm(ens.lambda0 * (ens.a - x[0] * n) + ens.lambda1 * (ens.b - x[1] * n)))
    return AnalyticConditionsReport(
        residual=residual,
        odds_inverse_residual=odds_res,
        odds_inverse_holds=odds_res <= _CONDITION_TOL,
        perp_balance_residual=perp_res,
        perp_balance_holds=perp_res <= _CONDITION_TOL,
        singular=any(abs(t) > 1.0 - _LOG_CLAMP for t in x),
        tolerance=_CONDITION_TOL,
    )


# ---------------------------------------------------------------------------
# In-plane optimizer
# ---------------------------------------------------------------------------

def _plane_basis_rows(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (u1, u2) of span{a[k], b[k]} for every row k, two arrays of shape (N, 3).

    u1 is the longer vector made unit, u2 the other made normal to it.  Each
    rare branch runs only on its rows: a nearly collinear pair takes a
    second Gram-Schmidt pass, a collinear pair the coordinate axis of u1's
    smallest component (the first of equals) made normal to u1, and a pair
    of vanishing vectors (x, y).
    """
    v = np.array((a, b))
    na, nb = np.sqrt(_row_dot(v, v))
    first = na >= nb
    longer = np.where(first, na, nb)
    vanishing = longer <= 1e-12
    # Rows whose norms vanish divide by 0 here and are set last.
    with np.errstate(divide="ignore", invalid="ignore"):
        u1 = np.where(first[:, None], a, b) / longer[:, None]
        other = np.where(first[:, None], b, a)
        w = other - _row_dot(other, u1)[:, None] * u1
        # The second pass runs only where it is needed, because on flat
        # peaks even a round-off move of the basis moves the optimal axis.
        nw = np.sqrt(_row_dot(w, w))
        again = np.abs(_row_dot(w, u1)) > 1e-12 * nw
        # count_nonzero rather than .any(), here and below: a fraction of its cost on one row.
        if np.count_nonzero(again):
            w[again] -= _row_dot(w[again], u1[again])[:, None] * u1[again]
            nw = np.sqrt(_row_dot(w, w))
        u2 = w / nw[:, None]
    collinear = ~(nw > 1e-13) & ~vanishing
    if np.count_nonzero(collinear):
        u = u1[collinear]
        k = np.argmin(np.abs(u), axis=1)
        w = np.eye(3)[k] - u[np.arange(len(u)), k][:, None] * u
        u2[collinear] = w / np.sqrt(_row_dot(w, w))[:, None]
    if np.count_nonzero(vanishing):
        u1[vanishing], u2[vanishing] = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    return u1, u2


def _plane_basis_one(a, b):
    """_plane_basis_rows of one pair of 3-vectors, bit for bit, or None where a rare branch would run.

    The common pair, neither vanishing nor nearly collinear, takes one
    Gram-Schmidt pass; its dots are BLAS dots, as _row_dot takes them.
    """
    na, nb = math.sqrt(a.dot(a)), math.sqrt(b.dot(b))
    if na < nb:
        a, b, na = b, a, nb
    if not na > 1e-12:
        return None
    u1 = a / na
    w = b - b.dot(u1) * u1
    nw = math.sqrt(w.dot(w))
    if abs(w.dot(u1)) > 1e-12 * nw or not nw > 1e-13:
        return None
    return u1, w / nw


def _pick_rows(owner, vals, axes):
    """The optimum of every row from its candidates: axis, value and degenerate flag.

    owner is sorted and names the row of each candidate, vals and axes its
    value and axis.  A row's value is its best candidate value; the candidates
    within _TIE_TOL of it tie, and the row's axis is the lexicographically
    largest (x, then y, then z) of their canonical axes, the first of equals
    winning.  The row is degenerate when a tied axis is well separated from
    that one.  Returns the arrays of the rows, in order, and the start of
    each row's candidates.
    """
    new = np.concatenate(([True], owner[1:] != owner[:-1]))
    canon = canonical_axis(axes)
    starts = np.flatnonzero(new)
    run = np.cumsum(new) - 1
    best = np.maximum.reduceat(vals, starts)
    tied = vals >= best[run] - _TIE_TOL
    # Sorted by row, each row's tied axes first and the lexicographically
    # largest of them leading; the sort is stable, so the first of equals
    # leads, as with max.
    order = np.lexsort((-canon[:, 2], -canon[:, 1], -canon[:, 0], ~tied, run))
    n_opt = canon[order[starts]]
    apart = tied & (np.abs(_row_dot(canon, n_opt[run])) < 1.0 - 1e-8)
    return owner[starts], n_opt, best, np.logical_or.reduceat(apart, starts), starts


def _scan_peaks(vals):
    """Mask of the points of each cyclic scan (a row of vals) at least as high as both neighbours.

    The scan covers phi in [0, pi), and an axis at phi + pi is the same
    measurement, so the last point and the first are neighbours.
    """
    wrapped = np.concatenate((vals[..., -1:], vals, vals[..., :1]), axis=-1)
    return (vals >= wrapped[..., :-2]) & (vals >= wrapped[..., 2:])


def _scan_slice(u1, u2, objective):
    """The scan of a slice of rows, with their row kernel: its brackets, and the scan points of its capped rows.

    The scan point phi of a row has the projections
    t_v = cos(phi) (v.u1) + sin(phi) (v.u2) for v = a, b, which the row
    kernel takes in place of an axis.  They are elementwise products of
    each row's four in-plane dots with the angles: a (rows, 2) @ (2, 720)
    product would let BLAS pick its path by the row count, and a row's bits
    would depend on its block.  Returns the mask of the scan points that
    start a bracket and, if a row is capped, (row, value, axis) of every
    peak of the capped rows, else None.  The slice's projections and values
    live in the row kernel's working set, and the sine products pass
    through its logs before the kernel needs them; the next pass reuses
    both, so what this returns is in arrays of its own.
    """
    work = _WORK.views((len(u1), _SCAN_POINTS))
    t, vals = work.projections, work.values
    # (a.u, b.u) for u = u1, u2, each pair a column per row, in one stacked product.
    on_u1, on_u2 = _row_dot(np.array((u1, u2))[:, None], np.array(objective.consts[:2]))[..., None]
    np.add(np.multiply(on_u1, _SCAN_COS.T, t), np.multiply(on_u2, _SCAN_SIN.T, work.logs[:2]), t)
    objective.projections(*work.pair, out=vals)
    peaks = _scan_peaks(vals)
    # A flat scan keeps all its points, so the peak cap sends it to the
    # tie-break too.
    peaks[vals.max(axis=1) - vals.min(axis=1) < _FLAT_TOL] = True
    cap = (peaks.sum(axis=1) > 64)[:, None]
    if not cap.any():
        return peaks, None
    i, k = np.nonzero(peaks & cap)
    return peaks & ~cap, (i, vals[i, k], _plane_axes(_SCAN_COS[k], _SCAN_SIN[k], u1[i], u2[i]))


def _plane_axes(cos, sin, u1, u2):
    """Unit axes cos u1 + sin u2, one row per bracket, from columns of cos(phi) and sin(phi)."""
    return _normalized(cos * u1 + sin * u2)


def _slope_root(phi0, u1, u2, a, b, half0, half1):
    """Root of dI/dphi in [phi0 - dphi, phi0 + dphi] for every bracket.

    Row k of every argument describes bracket k: its scan peak phi0, its
    ensemble's plane basis (u1, u2), Bloch vectors (a, b) and half weights.
    The projections (v.u1, v.u2) of v = a, b, c are taken once for all
    brackets; then each bracket goes through _slope_root_one in turn.
    Returns the root per bracket (NaN where the ends do not bracket one)
    and the evaluations per bracket.
    """
    c = 2.0 * (half0[:, None] * a + half1[:, None] * b)  # lambda0 a + lambda1 b, to the bit
    v = np.array((a, b, c))
    on_u1, on_u2 = (v * u1).sum(-1), (v * u2).sum(-1)
    roots = [
        _slope_root_one(*bracket)
        for bracket in zip(phi0.tolist(), on_u1.T.tolist(), on_u2.T.tolist(), half0.tolist(), half1.tolist())
    ]
    return np.array([phi for phi, _ in roots], dtype=float), np.array([n for _, n in roots], dtype=int)


def _slope_root_one(phi0, on_u1, on_u2, half0, half1):
    """The root search of one bracket [phi0 - dphi, phi0 + dphi], in Python floats.

    on_u1 and on_u2 hold (v.u1) and (v.u2) for v = a, b, c, and half0,
    half1 the half weights.  The slope is
    g(phi) = sum_i (lambda_i/2) log2(t_i) (v_i.t) with the plane tangent
    t = -sin(phi) u1 + cos(phi) u2.  A bracket whose ends have g > 0 > g
    takes Illinois steps (regula falsi that halves the slope kept at an end
    that stays for a second step in a row), and a bisection step wherever
    three steps have not halved its width.  It stops once its width is down
    to _ROOT_TOL or its slope is exactly 0.  Each +, -, * and / on Python
    floats is one exactly rounded IEEE operation, as in numpy's elementwise
    loops, with no fused multiply-add, and the clamps pass a NaN through,
    as np.minimum and np.maximum do; cos, sin and artanh (_artanh) go
    through numpy's ufuncs.  Returns the point of smallest |g| (NaN where
    the ends do not bracket a root) and the evaluations.
    """
    (a1, b1, c1), (a2, b2, c2) = on_u1, on_u2
    odds, artanh = _LOG2_ODDS, _artanh

    def slope(phi):
        cos, sin = float(np.cos(phi)), float(np.sin(phi))
        rc = artanh(cos * c1 + sin * c2)
        log_t0, log_t1 = odds * (artanh(cos * a1 + sin * a2) - rc), odds * (artanh(cos * b1 + sin * b2) - rc)
        return half0 * log_t0 * (cos * a2 - sin * a1) + half1 * log_t1 * (cos * b2 - sin * b1)

    lo, hi = phi0 - _DPHI, phi0 + _DPHI
    glo, ghi = slope(lo), slope(hi)
    if not (glo > 0.0 and ghi < 0.0):
        return math.nan, 2
    best, best_g = (lo, glo) if glo < -ghi else (hi, -ghi)
    evals, side = 2, 0.0  # side: g at the last step's point
    back3 = back2 = back1 = math.inf  # widths three, two and one steps back
    while hi - lo > _ROOT_TOL:
        width = hi - lo
        if width > 0.5 * back3:
            x = lo + 0.5 * width
        else:
            x = lo + width * (glo / (glo - ghi))  # glo > 0 > ghi, so no division by 0
        near_lo, near_hi = lo + 0.5 * _ROOT_TOL, hi - 0.5 * _ROOT_TOL
        x = near_lo if x < near_lo else near_hi if x > near_hi else x
        gx = slope(x)
        # Illinois: an end kept for a second step in a row has its slope halved.
        if gx > 0.0:
            lo, glo, ghi = x, gx, 0.5 * ghi if side > 0.0 else ghi
        else:
            hi, ghi, glo = x, gx, 0.5 * glo if side < 0.0 else glo
        side = gx
        if abs(gx) < best_g:
            best, best_g = x, abs(gx)
        back3, back2, back1 = back2, back1, width
        evals += 1
        if gx == 0.0:
            break
    return best, evals


def _polish(phi0, u1, u2, objective):
    """Every bracket's maximum: its axis, value and evaluations.

    Each bracket takes the root of the slope that _slope_root finds; one
    whose ends show no sign change of the slope keeps its scan angle phi0.
    Either way the axis gets one last evaluation of the row kernel of the
    brackets' rows, objective.
    """
    phi, evals = _slope_root(phi0, u1, u2, *objective.consts[:4])
    phi = np.where(np.isnan(phi), phi0, phi)
    n = _plane_axes(np.cos(phi)[:, None], np.sin(phi)[:, None], u1, u2)
    return n, objective(n), evals + 1


def accessible_information(ens) -> OptimizationResult:
    """Maximum classical mutual information over projective measurements.

    Value lies in [0, holevo_chi(ens)] up to round-off of about 1e-15, which
    can put it above holevo_chi: two identical pure states give 2^-51
    against a chi of 0.  _holevo_gap clamps that excess for the discord.
    Degenerate ensembles (identical states or a vanishing weight) give a
    flat objective; the value is then 0 up to that round-off, and the axis
    is the deterministic tie-break representative.

    ens is a QubitEnsemble, or a block of ensembles (_EnsembleArrays) whose
    result has a column per field (see OptimizationResult).  Every row gets
    its plane basis and a 720-point angular scan, which brackets every local
    maximum at least one scan step wide (the objective can have several; a
    narrower one can fall between two scan points).  The scan evaluates the
    row kernel at each point's projections cos(phi) (v.u1) + sin(phi) (v.u2)
    on a and b, not at a 3-D axis; it runs _SCAN_ROWS rows at a time, each
    slice one pass of the kernel in the kernel's working set, so its memory
    does not grow with the block.  Flat objectives and scans
    with more than 64 peaks short-circuit to the tie-break among their scan
    points, whose unit axes are built only then; such a row's value is its
    best scan value.  The brackets of all other rows are polished by
    _polish, which takes them one at a time through one root search; then
    each row picks its candidate.  Where every row has exactly one bracket, in
    row order, that bracket is the row's pick, so the block's arrays go to
    _polish as they are and no pick runs.  A lone ensemble's common row
    takes the same stages in _lone_optimum, with the same bits.
    """
    if not isinstance(ens, _EnsembleArrays):
        return _lone_optimum(ens)
    rows = ens
    consts = _row_constants(rows, False)
    objective = _RowObjective(consts)
    u1, u2 = _plane_basis_rows(rows.a, rows.b)
    brackets = np.empty((len(rows), _SCAN_POINTS), dtype=bool)
    capped = []  # (rows, values, axes) of the scan points of capped rows
    for first in range(0, len(rows), _SCAN_ROWS):
        part = slice(first, first + _SCAN_ROWS)
        brackets[part], points = _scan_slice(u1[part], u2[part], _RowObjective(tuple(c[part] for c in consts)))
        if points is not None:
            i, vals, axes = points
            capped.append((first + i, vals, axes))
    n_opt, value, evals, degenerate = _block_optimum(objective, u1, u2, brackets, capped)
    # Every value is the row kernel's, which is at least 0 already.
    return OptimizationResult(n_opt, value, _stationarity_rows(rows, n_opt), evals, IN_PLANE_METHOD, degenerate)


def _block_optimum(objective, u1, u2, brackets, capped):
    """The optimum of every row of a block from its row kernel, plane bases and scan: the polish and each row's pick.

    capped is a list of (rows, values, axes) of the scan points of capped
    rows.  Returns the columns n_opt, value, evaluations and degenerate.
    """
    rows = len(u1)
    owner, k = np.nonzero(brackets)
    if owner.size == rows and not np.count_nonzero(owner[1:] == owner[:-1]):
        # One bracket per row, in row order (owner is np.arange): each row's
        # arrays and the scan's row kernel go to _polish as they are, and
        # its bracket is its pick, which no axis ties with.
        axes, value, used = _polish(_PHIS[k], u1, u2, objective)
        n_opt, evals, degenerate = canonical_axis(axes), _SCAN_POINTS + used, np.zeros(rows, dtype=bool)
    else:
        n_opt = np.empty((rows, 3))
        value = np.empty(rows)
        evals = np.full(rows, _SCAN_POINTS)
        degenerate = np.zeros(rows, dtype=bool)
        # Not needed for the result, but a polish of no brackets costs about a
        # third of a flat row's call.
        if owner.size:
            owned = _RowObjective(tuple(c[owner] for c in objective.consts))
            axes, vals, used = _polish(_PHIS[k], u1[owner], u2[owner], owned)
            i, axis, best, apart, starts = _pick_rows(owner, vals, axes)
            n_opt[i], value[i], degenerate[i] = axis, best, apart
            evals[i] += np.add.reduceat(used, starts)
        if capped:
            owner, vals, axes = (np.concatenate(c) for c in zip(*capped))
            i, axis, best, _, _ = _pick_rows(owner, vals, axes)
            n_opt[i], value[i], degenerate[i] = axis, best, True
    return n_opt, value, evals, degenerate


def _lone_optimum(ens: QubitEnsemble) -> OptimizationResult:
    """accessible_information of a lone ensemble: the common row on Python floats, any other on the block's stages.

    The common row has a plane basis of one Gram-Schmidt pass
    (_plane_basis_one) and a scan of exactly one bracket and no cap.  Its
    body computes on Python floats, each +, -, *, / and sqrt one exactly
    rounded operation in the order of the block's, so every field has the
    bits of the one-row block.  numpy stays where it fixes bits: the BLAS
    dots, the ufuncs log2, artanh, cos and sin, and the row kernel's two
    passes, the scan (_scan_slice) and the final value, which share one
    _RowObjective.  Any other row goes on to _block_optimum from the row
    kernel, basis and scan built here, the basis of a rare branch from
    _plane_basis_rows; every row takes its residual from _stationarity_one.
    """
    a, b = ens.a, ens.b
    half0, half1 = 0.5 * ens.lambda0, 0.5 * ens.lambda1
    objective = _RowObjective(_row_constants_one(ens))
    basis = _plane_basis_one(a, b)
    u1, u2 = _plane_basis_rows(a[None], b[None]) if basis is None else (basis[0][None], basis[1][None])
    brackets, points = _scan_slice(u1, u2, objective)
    k = np.flatnonzero(brackets)
    if basis is None or points is not None or k.size != 1:
        capped = [] if points is None else [points]
        n_opt, value, evals, degenerate = _block_optimum(objective, u1, u2, brackets, capped)
        n_opt, value, evals, degenerate = n_opt[0], value[0].item(), evals[0].item(), degenerate[0].item()
    else:
        al, bl, p1, p2 = a.tolist(), b.tolist(), basis[0].tolist(), basis[1].tolist()
        # _slope_root's (v.u1, v.u2) for v = a, b and c, each (v * u).sum(-1):
        # numpy sums three terms left to right.
        c = [2.0 * (half0 * x + half1 * y) for x, y in zip(al, bl)]
        on_u1, on_u2 = ([v[0] * u[0] + v[1] * u[1] + v[2] * u[2] for v in (al, bl, c)] for u in (p1, p2))
        phi0 = _PHIS[k[0]].item()
        phi, used = _slope_root_one(phi0, on_u1, on_u2, half0, half1)
        if math.isnan(phi):
            phi = phi0
        cos, sin = float(np.cos(phi)), float(np.sin(phi))
        # _plane_axes: the axis and its norm, a sum of three squares left to right.
        n = [cos * x + sin * y for x, y in zip(p1, p2)]
        norm = math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
        axis = np.array([[x / norm for x in n]])
        n_opt, value, degenerate = canonical_axis(axis[0]), objective(axis)[0].item(), False
        evals = _SCAN_POINTS + used + 1
    return OptimizationResult(n_opt, value, _stationarity_one(ens, n_opt)[3], evals, IN_PLANE_METHOD, degenerate)


def _first_row(result: OptimizationResult) -> OptimizationResult:
    """Row 0 of a block's result, with the Python scalars of a one-ensemble call."""
    return OptimizationResult(
        result.n_opt[0],
        result.value[0].item(),
        result.stationarity_residual[0].item(),
        result.evaluations[0].item(),
        result.method,
        result.degenerate[0].item(),
    )


def _holevo_gap(chi, i_acc):
    """The discord chi - I_acc, elementwise, with round-off in [-1e-10, 0) set to zero."""
    gap = chi - i_acc
    return np.where((-1e-10 <= gap) & (gap < 0.0), 0.0, gap)


def quantum_discord(ens) -> OptimizationResult:
    """Discord as the Holevo-accessible gap, with the shared optimal axis.

    value = holevo_chi - accessible information; nonnegative, with round-off
    in [-1e-10, 0) clamped to zero.  ens is one ensemble or a block, as for
    accessible_information.
    """
    acc = accessible_information(ens)
    if isinstance(ens, _EnsembleArrays):
        return replace(acc, value=_holevo_gap(holevo_chi(ens), acc.value))
    # _holevo_gap on Python floats.
    gap = holevo_chi(ens) - acc.value
    value = 0.0 if -1e-10 <= gap < 0.0 else gap
    return OptimizationResult(acc.n_opt, value, acc.stationarity_residual, acc.evaluations, acc.method, acc.degenerate)
