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
(N,), a and b of shape (N, 3)) whose result holds a column per field; one
ensemble is the block of one row.  The search runs each stage, whatever the
block's size, as one array pass over it: the plane bases, the 720-point
angular scan on the rows of the row kernel of the measurement module
(_row_constants, _row_objective), which the oracle shares, its peaks, and at
the end each row's pick and stationarity residual.  The scan runs
_SCAN_ROWS rows at a time, which bounds its working set.  Every scan peak
becomes a bracket one scan step wide on either side.  The brackets of all
ensembles are then polished in lockstep by a root search on the slope
dI/dphi, which is the paper's stationarity condition
sum_i lambda_i log2(t_i) v_i_perp = 0 (Fuchs and Caves' condition for two
mixed states) taken along the plane: Illinois steps, safeguarded by the
bracket and by bisection, that place the axis to round-off in about six
steps.  A bracket whose ends show no sign change of the slope keeps a
golden-section polish of the value, by _golden_lockstep, the one
golden-section kernel of the package (the oracle's tangent line searches use
it too).  The value objective of that fallback and the final evaluation are
the same row kernel, one axis per row.  Each step of either search is one
vectorised evaluation at every bracket's new point, and a bracket is masked
off once it has converged.

Every array form gives each row the bits of its scalar form, which stays
for the rows that take a rare branch (a plane basis of a nearly collinear
or vanishing pair) and as the reference of the tests; so a row's result
does not depend on the block it was computed in.

For ensembles of two pure states the optimization can be skipped entirely:
purifying with an ancilla qubit turns the discord into an entanglement of
formation plus marginal entropies, all closed form and elementwise over
arrays of overlaps, which the sweep passes a block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ensemble import QubitEnsemble, _EnsembleArrays, average_state, holevo_chi
from .measurement import _perp_parts, _row_constants, _row_objective, _unit_axes, canonical_axis
from .qstate import NORM_SLACK, _half_angle, _row_dot, binary_entropy

IN_PLANE_METHOD = "in-plane root search"
# A sufficient optimality condition holds when its residual is at most this.
_CONDITION_TOL = 1e-8

_SCAN_POINTS = 720
# Rows per slice of the scan.  A slice's axes and entropy terms take about
# 0.1 MB a row; a whole 512-row block would add some 50 MB to the peak, and
# slices of 8 rows ran faster here than slices of 4, 16 or 32.
_SCAN_ROWS = 8
_ANGLE_TOL = 1e-12
_TIE_TOL = 1e-10
# The root search stops once a bracket is this narrow: a few ulps of an angle.
_ROOT_TOL = 1e-14
_FLAT_TOL = 1e-14
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
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
_LOG2_ODDS = 2.0 / np.log(2.0)


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
    x = np.where(1.0 < x, 1.0, x)
    return float(x) if x.ndim == 0 else x


def _at_least_zero(x):
    """max(0.0, x) elementwise: 0.0 unless x > 0."""
    return np.where(x > 0.0, x, 0.0)


def concurrence_pure_ensemble(lambda0: float, overlap: float) -> float:
    """Concurrence 2 sqrt(lambda0 lambda1) |<phi0|phi1>| of the purifying pair."""
    l0 = _unit_interval(lambda0, "lambda0")
    ov = _unit_interval(overlap, "overlap")
    return 2.0 * np.sqrt(l0 * (1.0 - l0)) * ov


def eof_from_concurrence(concurrence: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2))/2), monotone in C."""
    c = _unit_interval(concurrence, "concurrence")
    return binary_entropy((1.0 + np.sqrt(_at_least_zero(1.0 - c * c))) / 2.0)


def average_state_eigen_split(lambda0: float, overlap: float) -> tuple[float, float]:
    """Eigenvalues (1 +/- |c|)/2 of the average state of a pure pair."""
    l0 = _unit_interval(lambda0, "lambda0")
    ov = _unit_interval(overlap, "overlap")
    s = np.sqrt(_at_least_zero(1.0 - 4.0 * l0 * (1.0 - l0) * (1.0 - ov * ov)))
    return (1.0 + s) / 2.0, (1.0 - s) / 2.0


def discord_pure_koashi_winter(lambda0: float, overlap: float) -> KoashiWinterBreakdown:
    """Closed-form discord of an ensemble of two pure states.

    No measurement optimization: the value is eof + h(lambda_plus) - h(lambda0)
    via the purification argument.  Elementwise over arrays, each value with
    the bits of its scalar call.
    """
    c = concurrence_pure_ensemble(lambda0, overlap)
    eof = eof_from_concurrence(c)
    lam_plus, _ = average_state_eigen_split(lambda0, overlap)
    s_b = binary_entropy(lam_plus)
    s_ab = binary_entropy(_unit_interval(lambda0, "lambda0"))
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


def _stationarity_terms(ens: QubitEnsemble, n, an, bn, a_perp, b_perp):
    """Defect vector l0 log2(t0) a_perp + l1 log2(t1) b_perp, the log-odds and the clamp flag.

    Takes the unit axis and the parts that _perp_parts returns for it.
    singular tells whether _log_odds clamped a projection.
    """
    x = np.array([an, bn, float(average_state(ens) @ n)])
    log_t0, log_t1 = _log_odds(x)
    vec = ens.lambda0 * log_t0 * a_perp + ens.lambda1 * log_t1 * b_perp
    return vec, log_t0, log_t1, bool((np.abs(x) > 1.0 - _LOG_CLAMP).any())


def stationarity_residual(ens: QubitEnsemble, n) -> float:
    """Norm of the variational optimality defect at the axis n.

    Vanishes at every interior critical point of the conditional entropy
    (minima, maxima and saddles alike).  Boundary axes where a log factor is
    clamped yield a finite, flagged value; see check_analytic_conditions.
    """
    vec, *_ = _stationarity_terms(ens, *_perp_parts(ens, n))
    return float(np.linalg.norm(vec))


def check_analytic_conditions(ens: QubitEnsemble, n) -> AnalyticConditionsReport:
    """Evaluate the two sufficient optimality conditions at the axis n."""
    parts = _perp_parts(ens, n)
    vec, log_t0, log_t1, singular = _stationarity_terms(ens, *parts)
    a_perp, b_perp = parts[3:]
    odds_res = abs(log_t0 + log_t1)
    perp_res = float(np.linalg.norm(ens.lambda0 * a_perp + ens.lambda1 * b_perp))
    return AnalyticConditionsReport(
        residual=float(np.linalg.norm(vec)),
        odds_inverse_residual=odds_res,
        odds_inverse_holds=odds_res <= _CONDITION_TOL,
        perp_balance_residual=perp_res,
        perp_balance_holds=perp_res <= _CONDITION_TOL,
        singular=singular,
        tolerance=_CONDITION_TOL,
    )


# ---------------------------------------------------------------------------
# In-plane optimizer
# ---------------------------------------------------------------------------

def _any_perpendicular(u: np.ndarray) -> np.ndarray:
    k = int(np.argmin(np.abs(u)))
    e = np.zeros(3)
    e[k] = 1.0
    w = e - (e @ u) * u
    return w / np.linalg.norm(w)


def _plane_basis(ens: QubitEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of span{a, b}, with fallbacks for collinear pairs."""
    a, b = ens.a, ens.b
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if max(na, nb) <= 1e-12:
        return np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    u1, other = (a / na, b) if na >= nb else (b / nb, a)
    w = other - (other @ u1) * u1
    # Nearly collinear pairs need a second pass; it runs only then, because
    # on flat peaks even a round-off move of the basis moves the optimal axis.
    if abs(float(w @ u1)) > 1e-12 * float(np.linalg.norm(w)):
        w = w - (w @ u1) * u1
    nw = float(np.linalg.norm(w))
    if nw > 1e-13:
        return u1, w / nw
    return u1, _any_perpendicular(u1)


def _plane_basis_rows(rows: _EnsembleArrays) -> tuple[np.ndarray, np.ndarray]:
    """_plane_basis of every row of a block, two arrays of shape (N, 3), to the bit.

    Every row takes the first pass; a row that needs a branch of the scalar
    form (both vectors vanish, a second pass, a collinear pair) gets the
    scalar form itself.
    """
    a, b = rows.a, rows.b
    na, nb = np.sqrt(_row_dot(a, a)), np.sqrt(_row_dot(b, b))
    first = na >= nb
    longer = np.where(first, na, nb)
    # Rows whose norms vanish divide by 0 here and are redone below.
    with np.errstate(divide="ignore", invalid="ignore"):
        u1 = np.where(first[:, None], a, b) / longer[:, None]
        other = np.where(first[:, None], b, a)
        w = other - _row_dot(other, u1)[:, None] * u1
        nw = np.sqrt(_row_dot(w, w))
        u2 = w / nw[:, None]
    scalar = (longer <= 1e-12) | (np.abs(_row_dot(w, u1)) > 1e-12 * nw) | ~(nw > 1e-13)
    for k in np.flatnonzero(scalar):
        u1[k], u2[k] = _plane_basis(rows.ensemble(k))
    return u1, u2


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
    if new.all():
        # One candidate per row, the usual case: it is the row's pick.
        apart = np.abs(_row_dot(canon, canon)) < 1.0 - 1e-8
        return owner, canon, vals, apart, np.arange(len(owner))
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


def _plane_axes(phi, u1, u2):
    """Unit axes cos(phi) u1 + sin(phi) u2, one row per bracket."""
    return _unit_axes(np.cos(phi)[:, None] * u1 + np.sin(phi)[:, None] * u2)


def _golden_lockstep(f, lo, hi):
    """Golden-section maximization of f over [lo[k], hi[k]] for every row k at once.

    The one golden-section kernel: it polishes the in-plane brackets whose
    slope shows no sign change, and the oracle's tangent line searches.  f
    maps an array of points, one per row, to the values there.  Each step
    makes one call of f at every row's new point; a row whose width is down
    to _ANGLE_TOL is masked off (its ends stop moving and it stops counting
    evaluations) while the others go on.  Every row takes the steps of a
    scalar golden-section search on its own bracket, so its bits do not
    depend on the other rows.  Returns the midpoints, their values and the
    evaluations per row.
    """
    width = hi - lo
    x1 = hi - _INVPHI * width
    x2 = lo + _INVPHI * width
    f1, f2 = f(x1), f(x2)
    evals = np.full(lo.shape, 3)  # x1, x2 and the final midpoint
    while (active := width > _ANGLE_TOL).any():
        left = f1 >= f2
        lo = np.where(active & ~left, x1, lo)
        hi = np.where(active & left, x2, hi)
        width = hi - lo
        step = _INVPHI * width
        # Only lo and hi are frozen once a row is done; its interior points
        # may move on, as the final midpoint never reads them.
        x = np.where(left, hi - step, lo + step)
        fx = f(x)
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, fx, f2), np.where(left, f1, fx)
        evals += active
    x = 0.5 * (lo + hi)
    return x, f(x), evals


def _slope_root_lockstep(phi0, u1, u2, a, b, half0, half1):
    """Root of dI/dphi in [phi0 - dphi, phi0 + dphi] for every bracket at once.

    Row k of every argument describes bracket k: its scan peak phi0, its
    ensemble's plane basis (u1, u2), Bloch vectors (a, b) and half weights.
    The slope is g(phi) = sum_i (lambda_i/2) log2(t_i) (v_i.t) with the plane
    tangent t = -sin(phi) u1 + cos(phi) u2.  A bracket whose ends have
    g > 0 > g takes Illinois steps (regula falsi that halves the slope kept
    at an end that stays for a second step in a row), and a bisection step
    wherever three steps have not halved its width.  Each step makes one
    vectorised evaluation at every bracket's new point; a bracket is masked
    off once its width is down to _ROOT_TOL or its slope is exactly 0.
    Returns the point of smallest |g| per bracket (NaN where the ends do not
    bracket a root) and the evaluations per bracket.
    """
    # v.n and v.t for v = a, b, c from the projections of v on the basis.
    c = 2.0 * (half0[:, None] * a + half1[:, None] * b)  # lambda0 a + lambda1 b, to the bit
    on_u1, on_u2 = (np.array([(v * u).sum(-1) for v in (a, b, c)]) for u in (u1, u2))

    def slope(phi):
        cos, sin = np.cos(phi), np.sin(phi)
        log_t0, log_t1 = _log_odds(cos * on_u1 + sin * on_u2)
        at, bt = cos * on_u2[:2] - sin * on_u1[:2]
        return half0 * log_t0 * at + half1 * log_t1 * bt

    lo, hi = phi0 - _DPHI, phi0 + _DPHI
    glo, ghi = slope(lo), slope(hi)
    bracketed = (glo > 0.0) & (ghi < 0.0)
    best, best_g = np.where(glo < -ghi, lo, hi), np.minimum(glo, -ghi)
    evals = np.full(phi0.shape, 2)
    side = np.zeros(phi0.shape)  # sign of g at the last step's point
    back = [np.full(phi0.shape, np.inf)] * 3  # widths three, two and one steps back
    active = bracketed & (hi - lo > _ROOT_TOL)
    # Only active rows are read at the end, so the others may run on garbage.
    with np.errstate(divide="ignore", invalid="ignore"):
        while active.any():
            width = hi - lo
            secant = lo + width * (glo / (glo - ghi))
            x = np.where(width > 0.5 * back[0], lo + 0.5 * width, secant)
            # Never closer than half a tolerance to an end: once one end sits
            # on the root, the next step crosses it and closes the bracket.
            x = np.minimum(np.maximum(x, lo + 0.5 * _ROOT_TOL), hi - 0.5 * _ROOT_TOL)
            gx = slope(x)
            up = gx > 0.0
            # Illinois: an end kept for a second step in a row has its slope halved.
            sign = np.sign(gx)
            halve = np.where(sign == side, 0.5, 1.0)
            lo, glo, hi, ghi = (
                np.where(up, x, lo),
                np.where(up, gx, halve * glo),
                np.where(up, hi, x),
                np.where(up, halve * ghi, gx),
            )
            side = sign
            size = np.abs(gx)
            closer = active & (size < best_g)
            best, best_g = np.where(closer, x, best), np.where(closer, size, best_g)
            back = back[1:] + [width]
            evals += active
            active &= (gx != 0.0) & (hi - lo > _ROOT_TOL)
    return np.where(bracketed, best, np.nan), evals


def _polish(phi0, u1, u2, consts):
    """Every bracket's maximum: its axis, value and evaluations.

    Brackets go to _slope_root_lockstep; those whose ends bracket no root of
    the slope keep the value polish of _golden_lockstep on the row objective.
    """
    phi, evals = _slope_root_lockstep(phi0, u1, u2, *consts[:4])
    fallback = np.isnan(phi)
    if fallback.any():
        start, v1, v2 = phi0[fallback], u1[fallback], u2[fallback]
        objective = _row_objective(tuple(c[fallback] for c in consts))
        phi[fallback], _, used = _golden_lockstep(
            lambda p: objective(_plane_axes(p, v1, v2)), start - _DPHI, start + _DPHI
        )
        evals[fallback] += used - 1
    n = _plane_axes(phi, u1, u2)
    return n, _row_objective(consts)(n), evals + 1


def accessible_information(ens) -> OptimizationResult:
    """Maximum classical mutual information over projective measurements.

    Value lies in [0, holevo_chi(ens)].  Degenerate ensembles (identical
    states or a vanishing weight) give a flat objective; the value is then 0
    and the axis is the deterministic tie-break representative.

    ens is a QubitEnsemble, or a block of ensembles (_EnsembleArrays) whose
    result has a column per field (see OptimizationResult).  Every row gets
    its plane basis and a 720-point angular scan, which brackets every local
    maximum (the objective can have several); the scan runs _SCAN_ROWS rows
    at a time, so its working set does not grow with the block.  Flat
    objectives and scans with more than 64 peaks short-circuit to the
    tie-break among their scan points.  The brackets of all other rows are
    polished together by _polish, then each row picks its candidate.
    """
    if not isinstance(ens, _EnsembleArrays):
        return _first_row(accessible_information(_EnsembleArrays.of([ens])))
    rows = ens
    consts = _row_constants(rows, False)
    u1, u2 = _plane_basis_rows(rows)
    brackets = np.empty((len(rows), _SCAN_POINTS), dtype=bool)
    capped = []  # (rows, values, axes) of the scan points of capped rows
    for first in range(0, len(rows), _SCAN_ROWS):
        part = slice(first, first + _SCAN_ROWS)
        n = _unit_axes(_SCAN_COS * u1[part, None] + _SCAN_SIN * u2[part, None])
        vals = _row_objective(tuple(c[part] for c in consts))(n)
        peaks = _scan_peaks(vals)
        # A flat scan keeps all its points, so the peak cap sends it to the
        # tie-break too.
        peaks[vals.max(axis=1) - vals.min(axis=1) < _FLAT_TOL] = True
        cap = (peaks.sum(axis=1) > 64)[:, None]
        brackets[part] = peaks & ~cap
        if cap.any():
            i, k = np.nonzero(peaks & cap)
            capped.append((first + i, vals[i, k], n[i, k]))

    n_opt = np.empty((len(rows), 3))
    value = np.empty(len(rows))
    evals = np.full(len(rows), _SCAN_POINTS)
    degenerate = np.zeros(len(rows), dtype=bool)
    owner, k = np.nonzero(brackets)
    if owner.size:
        axes, vals, used = _polish(_PHIS[k], u1[owner], u2[owner], tuple(c[owner] for c in consts))
        i, axis, best, apart, starts = _pick_rows(owner, vals, axes)
        n_opt[i], value[i], degenerate[i] = axis, best, apart
        evals[i] += np.add.reduceat(used, starts)
    if capped:
        owner, vals, axes = (np.concatenate(c) for c in zip(*capped))
        i, axis, best, _, _ = _pick_rows(owner, vals, axes)
        n_opt[i], value[i], degenerate[i] = axis, best, True
    return OptimizationResult(
        n_opt=n_opt,
        # max(value, 0.0), which keeps a -0.0 as np.maximum does not.
        value=np.where(0.0 > value, 0.0, value),
        stationarity_residual=_stationarity_rows(rows, n_opt),
        evaluations=evals,
        method=IN_PLANE_METHOD,
        degenerate=degenerate,
    )


def _first_row(result: OptimizationResult) -> OptimizationResult:
    """Row 0 of a block's result, with the Python scalars of a one-ensemble call."""
    columns = ("value", "stationarity_residual", "evaluations", "degenerate")
    return replace(result, n_opt=result.n_opt[0], **{c: getattr(result, c)[0].item() for c in columns})


def _stationarity_rows(rows: _EnsembleArrays, n) -> np.ndarray:
    """stationarity_residual of every row at its unit axis n[k], without the checks.

    The defect of _stationarity_terms, in the same order of operations.
    """
    an, bn, cn = (_row_dot(v, n) for v in (rows.a, rows.b, rows.average()))
    log_t0, log_t1 = _log_odds(np.array([an, bn, cn]))
    vec = (rows.lambda0 * log_t0)[:, None] * (rows.a - an[:, None] * n) + (
        rows.lambda1 * log_t1
    )[:, None] * (rows.b - bn[:, None] * n)
    return np.sqrt(_row_dot(vec, vec))


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
    rows = ens if isinstance(ens, _EnsembleArrays) else _EnsembleArrays.of([ens])
    acc = accessible_information(rows)
    result = replace(acc, value=_holevo_gap(holevo_chi(rows), acc.value))
    return result if rows is ens else _first_row(result)
