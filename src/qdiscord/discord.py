"""Accessible information, quantum discord, and the optimal-measurement search.

Quantum discord of a two-state ensemble is the gap between the Holevo bound
and the accessible information; both sides share one optimal measurement
axis.  For two states the information quantities depend on the axis n only
through (a.n, b.n), so an optimal axis always exists in span{a, b}.  The
search below exploits that plane restriction; the full-sphere grid oracle
(see the oracle module) exists to verify the restriction rather than trust
it.

The search takes a list of ensembles.  Each gets its own plane basis and a
720-point angular scan, one ensemble at a time; every scan peak becomes a
bracket one scan step wide on either side.  The brackets of all ensembles
are then polished by golden section in lockstep: each step is one vectorised
evaluation at every bracket's new point, and a bracket is masked off once its
width is down to the tolerance.  Every bracket takes the same steps, to the
bit, as a scalar golden-section search would, so a result does not depend
on the batch it was computed in; accessible_information is the
one-ensemble case.

For ensembles of two pure states the optimization can be skipped entirely:
purifying with an ancilla qubit turns the discord into an entanglement of
formation plus marginal entropies, all closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ensemble import QubitEnsemble, average_state, holevo_chi
from .measurement import _conditional_entropy, _perp_parts, _unit_axes, canonical_axis
from .qstate import NORM_SLACK, _half_angle, binary_entropy

IN_PLANE_METHOD = "in-plane golden-section"
# A sufficient optimality condition holds when its residual is at most this.
_CONDITION_TOL = 1e-8

_SCAN_POINTS = 720
_ANGLE_TOL = 1e-12
_TIE_TOL = 1e-10
_FLAT_TOL = 1e-14
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_PHIS = np.linspace(0.0, np.pi, _SCAN_POINTS, endpoint=False)
_SCAN_COS = np.cos(_PHIS)[:, None]
_SCAN_SIN = np.sin(_PHIS)[:, None]
# Half-width of a scan bracket: one scan step.
_DPHI = np.pi / _SCAN_POINTS
# Factors (1 +/- v.n) are clamped here before entering a log; axes that
# trip the clamp sit on the boundary where the variational condition is
# meaningless, and are reported as singular instead of crashing.
_LOG_CLAMP = 1e-15


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

def _stationarity_terms(ens: QubitEnsemble, n):
    """Defect vector l0 log2(t0) a_perp + l1 log2(t1) b_perp and the log-odds.

    t_i = (1 + v_i.n)(1 - c.n) / ((1 - v_i.n)(1 + c.n)).  The logs are taken
    factor by factor so that symmetric configurations cancel exactly.
    """
    n, an, bn, a_perp, b_perp = _perp_parts(ens, n)
    cn = float(average_state(ens) @ n)
    factors = np.array([1.0 + an, 1.0 - an, 1.0 + bn, 1.0 - bn, 1.0 + cn, 1.0 - cn])
    singular = bool(np.any(factors < _LOG_CLAMP))
    lg = np.log2(np.maximum(factors, _LOG_CLAMP))
    log_t0 = lg[0] - lg[1] + lg[5] - lg[4]
    log_t1 = lg[2] - lg[3] + lg[5] - lg[4]
    vec = ens.lambda0 * log_t0 * a_perp + ens.lambda1 * log_t1 * b_perp
    return vec, log_t0, log_t1, a_perp, b_perp, singular


def stationarity_residual(ens: QubitEnsemble, n) -> float:
    """Norm of the variational optimality defect at the axis n.

    Vanishes at every interior critical point of the conditional entropy
    (minima, maxima and saddles alike).  Boundary axes where a log factor is
    clamped yield a finite, flagged value; see check_analytic_conditions.
    """
    vec, *_ = _stationarity_terms(ens, n)
    return float(np.linalg.norm(vec))


def check_analytic_conditions(ens: QubitEnsemble, n) -> AnalyticConditionsReport:
    """Evaluate the two sufficient optimality conditions at the axis n."""
    vec, log_t0, log_t1, a_perp, b_perp, singular = _stationarity_terms(ens, n)
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


# Kept scalar for the oracle's polish, which searches one line at a time: as a
# one-row search in the style of _golden_lockstep it made single oracle calls
# 1.3-1.7x (brute_force_accessible) and 2.0-3.1x (brute_force_geo) slower.
def _golden_max(f, lo: float, hi: float):
    """Golden-section maximization on [lo, hi]: returns (x, f(x), evaluations)."""
    width = hi - lo
    x1 = hi - _INVPHI * width
    x2 = lo + _INVPHI * width
    f1, f2 = f(x1), f(x2)
    evals = 2
    while width > _ANGLE_TOL:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            width = hi - lo
            x1 = hi - _INVPHI * width
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            width = hi - lo
            x2 = lo + _INVPHI * width
            f2 = f(x2)
        evals += 1
    x = 0.5 * (lo + hi)
    return x, f(x), evals + 1


def _pick_candidate(candidates, evals: int, degenerate_hint: bool = False):
    best = max(v for v, _ in candidates)
    tied = [canonical_axis(ax) for v, ax in candidates if v >= best - _TIE_TOL]
    n_opt = max(tied, key=lambda ax: (ax[0], ax[1], ax[2]))
    degenerate = degenerate_hint or any(
        abs(float(ax @ n_opt)) < 1.0 - 1e-8 for ax in tied
    )
    return n_opt, best, evals, degenerate


def _golden_lockstep(phi0, u1, u2, a, b, half0, half1, h0):
    """Golden section over [phi0 - dphi, phi0 + dphi] for every bracket at once.

    Row k of every argument describes bracket k: its scan peak phi0, its
    ensemble's plane basis (u1, u2), Bloch vectors (a, b), half weights and
    h(lambda0).  Each step makes one vectorised evaluation at every bracket's
    new point; a bracket whose width is down to _ANGLE_TOL is masked off (its
    ends stop moving and it stops counting evaluations) while the others go
    on.  Every row follows the steps of the scalar _golden_max bit for bit.
    Returns the midpoints, their values and the evaluations per bracket.
    """
    a, b = a[:, :, None], b[:, :, None]

    def information(phi):
        n = _unit_axes(np.cos(phi)[:, None] * u1 + np.sin(phi)[:, None] * u2)[:, None, :]
        s = _conditional_entropy(half0, half1, (n @ a)[:, 0, 0], (n @ b)[:, 0, 0])
        return np.maximum(h0 - s, 0.0)

    lo, hi = phi0 - _DPHI, phi0 + _DPHI
    width = hi - lo
    x1 = hi - _INVPHI * width
    x2 = lo + _INVPHI * width
    f1, f2 = information(x1), information(x2)
    evals = np.full(phi0.shape, 3)  # x1, x2 and the final midpoint
    while (active := width > _ANGLE_TOL).any():
        left = f1 >= f2
        lo = np.where(active & ~left, x1, lo)
        hi = np.where(active & left, x2, hi)
        width = hi - lo
        # Only lo and hi are frozen once a bracket is done; its interior
        # points may move on, as the final midpoint never reads them.
        x1, x2 = (
            np.where(left, hi - _INVPHI * width, x2),
            np.where(left, x1, lo + _INVPHI * width),
        )
        fx = information(np.where(left, x1, x2))
        f1, f2 = np.where(left, fx, f2), np.where(left, f1, fx)
        evals += active
    phi = 0.5 * (lo + hi)
    return phi, information(phi), evals


def _accessible_information_batch(ensembles) -> list[OptimizationResult]:
    """accessible_information of every ensemble, with one lockstep polish.

    Each ensemble gets its own plane basis and 720-point angular scan, which
    brackets every local maximum (the objective can have several).  Flat
    objectives (degenerate ensembles) and scans with more than 64 peaks
    short-circuit to the tie-break.  The brackets of all other ensembles are
    polished together by _golden_lockstep, then each ensemble picks its
    candidate.
    """
    picks = [None] * len(ensembles)
    polish = []
    for i, ens in enumerate(ensembles):
        u1, u2 = _plane_basis(ens)
        half0, half1 = 0.5 * ens.lambda0, 0.5 * ens.lambda1
        h0 = binary_entropy(ens.lambda0)
        axes = _SCAN_COS * u1 + _SCAN_SIN * u2
        n = _unit_axes(axes)
        vals = np.maximum(h0 - _conditional_entropy(half0, half1, n @ ens.a, n @ ens.b), 0.0)
        # A flat scan keeps all its points, so the peak cap sends it to the
        # tie-break too.
        if float(vals.max() - vals.min()) < _FLAT_TOL:
            peaks = np.arange(_SCAN_POINTS)
        else:
            peaks = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
        if peaks.size > 64:
            picks[i] = _pick_candidate(
                list(zip(vals[peaks].tolist(), axes[peaks])), _SCAN_POINTS, degenerate_hint=True
            )
        else:
            polish.append((i, _PHIS[peaks], u1, u2, ens.a, ens.b, (half0, half1, h0)))

    if polish:
        owners, phi0, *columns = zip(*polish)
        counts = [p.size for p in phi0]
        rows = np.repeat(np.arange(len(polish)), counts)
        u1, u2, a, b, consts = (np.array(column)[rows] for column in columns)
        phi, vals, used = _golden_lockstep(np.concatenate(phi0), u1, u2, a, b, *consts.T)
        axes = np.cos(phi)[:, None] * u1 + np.sin(phi)[:, None] * u2
        for i, end, count in zip(owners, np.cumsum(counts), counts):
            ks = slice(end - count, end)
            picks[i] = _pick_candidate(
                list(zip(vals[ks].tolist(), axes[ks])), _SCAN_POINTS + int(used[ks].sum())
            )

    return [
        OptimizationResult(
            n_opt=n_opt,
            value=float(max(value, 0.0)),
            stationarity_residual=stationarity_residual(ens, n_opt),
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
