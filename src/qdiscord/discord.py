"""Accessible information, quantum discord, and the optimal-measurement search.

Quantum discord of a two-state ensemble is the gap between the Holevo bound
and the accessible information; both sides share one optimal measurement
axis.  For two states the information quantities depend on the axis n only
through (a.n, b.n), so an optimal axis always exists in span{a, b}.  The
search below exploits that plane restriction; the full-sphere grid oracle
(see the oracle module) exists to verify the restriction rather than trust
it.

The search takes a list of ensembles.  Each gets its own plane basis and a
720-point angular scan, one ensemble at a time, evaluated on its row of the
row kernel of the measurement module (_row_constants, _row_objective), which
the oracle shares; every scan peak becomes a bracket one scan step wide on
either side.  The brackets of all ensembles are then polished in lockstep by
a root search on the slope dI/dphi, which is the paper's stationarity
condition sum_i lambda_i log2(t_i) v_i_perp = 0 (Fuchs and Caves' condition
for two mixed states) taken along the plane: Illinois steps, safeguarded by
the bracket and by bisection, that place the axis to round-off in about six
steps.  A bracket whose ends show no sign change of the slope keeps a
golden-section polish of the value, by _golden_lockstep, the one
golden-section kernel of the package (the oracle's tangent line searches use
it too).  The value objective of that fallback and the final evaluation are
the same row kernel, one axis per row.  Each step of either search is one
vectorised evaluation at every bracket's new point, a bracket is masked off
once it has converged, and all arithmetic is row by row, so a result does
not depend on the batch it was computed in; accessible_information is the
one-ensemble case.

For ensembles of two pure states the optimization can be skipped entirely:
purifying with an ancilla qubit turns the discord into an entanglement of
formation plus marginal entropies, all closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ensemble import QubitEnsemble, average_state, holevo_chi
from .measurement import (
    _perp_parts,
    _row_constants,
    _row_objective,
    _unit_axes,
    _unit_perp_parts,
    canonical_axis,
)
from .qstate import NORM_SLACK, _half_angle, binary_entropy

IN_PLANE_METHOD = "in-plane root search"
# A sufficient optimality condition holds when its residual is at most this.
_CONDITION_TOL = 1e-8

_SCAN_POINTS = 720
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
    (the reported axis is then the deterministic tie-break winner).
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


def _unit_interval(x, name: str) -> float:
    x = float(x)
    if not -NORM_SLACK <= x <= 1.0 + NORM_SLACK:
        raise ValueError(f"{name} must lie in [0, 1], got {x:.17g}")
    return min(max(x, 0.0), 1.0)


def concurrence_pure_ensemble(lambda0: float, overlap: float) -> float:
    """Concurrence 2 sqrt(lambda0 lambda1) |<phi0|phi1>| of the purifying pair."""
    l0 = _unit_interval(lambda0, "lambda0")
    ov = _unit_interval(overlap, "overlap")
    return 2.0 * np.sqrt(l0 * (1.0 - l0)) * ov


def eof_from_concurrence(concurrence: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2))/2), monotone in C."""
    c = _unit_interval(concurrence, "concurrence")
    return binary_entropy((1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def average_state_eigen_split(lambda0: float, overlap: float) -> tuple[float, float]:
    """Eigenvalues (1 +/- |c|)/2 of the average state of a pure pair."""
    l0 = _unit_interval(lambda0, "lambda0")
    ov = _unit_interval(overlap, "overlap")
    s = np.sqrt(max(0.0, 1.0 - 4.0 * l0 * (1.0 - l0) * (1.0 - ov * ov)))
    return (1.0 + s) / 2.0, (1.0 - s) / 2.0


def discord_pure_koashi_winter(lambda0: float, overlap: float) -> KoashiWinterBreakdown:
    """Closed-form discord of an ensemble of two pure states.

    No measurement optimization: the value is eof + h(lambda_plus) - h(lambda0)
    via the purification argument.
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
    """log2(t0), log2(t1) and whether a factor was clamped, from x = (a.n, b.n, c.n).

    t_i = (1 + v_i.n)(1 - c.n) / ((1 - v_i.n)(1 + c.n)), so log2(t_i) is
    (2/ln 2)(artanh(v_i.n) - artanh(c.n)).  artanh keeps its relative
    precision near 0, where 1 +/- x would round it away, and it is odd, so
    symmetric configurations cancel exactly.  Projections within _LOG_CLAMP
    of +/-1 are clamped there.  x may hold a column of projections per row.
    """
    singular = (np.abs(x) > 1.0 - _LOG_CLAMP).any(axis=0)
    r = np.arctanh(np.minimum(np.maximum(x, _LOG_CLAMP - 1.0), 1.0 - _LOG_CLAMP))
    return _LOG2_ODDS * (r[0] - r[2]), _LOG2_ODDS * (r[1] - r[2]), singular


def _stationarity_terms(ens: QubitEnsemble, n, an, bn, a_perp, b_perp):
    """Defect vector l0 log2(t0) a_perp + l1 log2(t1) b_perp and the log-odds.

    Takes the unit axis and the parts that _perp_parts returns for it.
    """
    log_t0, log_t1, singular = _log_odds(np.array([an, bn, float(average_state(ens) @ n)]))
    vec = ens.lambda0 * log_t0 * a_perp + ens.lambda1 * log_t1 * b_perp
    return vec, log_t0, log_t1, bool(singular)


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


def _pick_candidate(candidates, evals: int, degenerate_hint: bool = False):
    best = max(v for v, _ in candidates)
    tied = [canonical_axis(ax) for v, ax in candidates if v >= best - _TIE_TOL]
    n_opt = max(tied, key=lambda ax: (ax[0], ax[1], ax[2]))
    degenerate = degenerate_hint or any(
        abs(float(ax @ n_opt)) < 1.0 - 1e-8 for ax in tied
    )
    return n_opt, best, evals, degenerate


def _scan_peaks(vals):
    """Indices of the points of a cyclic scan at least as high as both neighbours.

    The scan covers phi in [0, pi), and an axis at phi + pi is the same
    measurement, so the last point and the first are neighbours.
    """
    wrapped = np.concatenate((vals[-1:], vals, vals[:1]))
    return np.flatnonzero((vals >= wrapped[:-2]) & (vals >= wrapped[2:]))


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
        log_t0, log_t1, _ = _log_odds(cos * on_u1 + sin * on_u2)
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
            closer = active & (np.abs(gx) < best_g)
            best, best_g = np.where(closer, x, best), np.where(closer, np.abs(gx), best_g)
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


def _accessible_information_batch(ensembles) -> list[OptimizationResult]:
    """accessible_information of every ensemble, with one lockstep polish.

    Each ensemble gets its own plane basis and 720-point angular scan, which
    brackets every local maximum (the objective can have several).  Flat
    objectives (degenerate ensembles) and scans with more than 64 peaks
    short-circuit to the tie-break.  The brackets of all other ensembles are
    polished together by _polish, then each ensemble picks its candidate.
    """
    picks = [None] * len(ensembles)
    polish = []
    consts = _row_constants([(ens, False) for ens in ensembles])
    for i, ens in enumerate(ensembles):
        u1, u2 = _plane_basis(ens)
        n = _unit_axes(_SCAN_COS * u1 + _SCAN_SIN * u2)
        vals = _row_objective(tuple(c[i : i + 1] for c in consts))(n)
        # A flat scan keeps all its points, so the peak cap sends it to the
        # tie-break too.
        if float(vals.max() - vals.min()) < _FLAT_TOL:
            peaks = np.arange(_SCAN_POINTS)
        else:
            peaks = _scan_peaks(vals)
        if peaks.size > 64:
            picks[i] = _pick_candidate(
                list(zip(vals[peaks].tolist(), n[peaks])), _SCAN_POINTS, degenerate_hint=True
            )
        else:
            polish.append((i, _PHIS[peaks], u1, u2))

    if polish:
        owners, phi0, u1, u2 = zip(*polish)
        counts = [p.size for p in phi0]
        k = np.repeat(np.arange(len(polish)), counts)
        rows, u1, u2 = (np.array(column)[k] for column in (owners, u1, u2))
        axes, vals, used = _polish(np.concatenate(phi0), u1, u2, tuple(c[rows] for c in consts))
        for i, end, count in zip(owners, np.cumsum(counts), counts):
            ks = slice(end - count, end)
            picks[i] = _pick_candidate(
                list(zip(vals[ks].tolist(), axes[ks])), _SCAN_POINTS + int(used[ks].sum())
            )

    return [
        OptimizationResult(
            n_opt=n_opt,
            value=float(max(value, 0.0)),
            # The axis was built as a unit vector here, so it skips the checks.
            stationarity_residual=float(
                np.linalg.norm(_stationarity_terms(ens, *_unit_perp_parts(ens, n_opt))[0])
            ),
            evaluations=evals,
            method=IN_PLANE_METHOD,
            degenerate=degenerate,
        )
        for ens, (n_opt, value, evals, degenerate) in zip(ensembles, picks)
    ]


def accessible_information(ens: QubitEnsemble) -> OptimizationResult:
    """Maximum classical mutual information over projective measurements.

    Value lies in [0, holevo_chi(ens)].  Degenerate ensembles (identical
    states or a vanishing weight) give a flat objective; the value is then 0
    and the axis is the deterministic tie-break representative.
    """
    return _accessible_information_batch([ens])[0]


def _holevo_gap_batch(ensembles) -> list[tuple[float, OptimizationResult, float]]:
    """chi, the accessible-information result and the discord chi - I_acc per ensemble.

    Round-off in [-1e-10, 0) of the gap is set to zero.
    """
    out = []
    for ens, acc in zip(ensembles, _accessible_information_batch(ensembles)):
        chi = holevo_chi(ens)
        gap = chi - acc.value
        out.append((chi, acc, 0.0 if -1e-10 <= gap < 0.0 else gap))
    return out


def quantum_discord(ens: QubitEnsemble) -> OptimizationResult:
    """Discord as the Holevo-accessible gap, with the shared optimal axis.

    value = holevo_chi - accessible information; nonnegative, with round-off
    in [-1e-10, 0) clamped to zero.
    """
    _, acc, gap = _holevo_gap_batch([ens])[0]
    return replace(acc, value=gap)
