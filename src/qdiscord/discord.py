"""Accessible information, quantum discord, and the optimal-measurement search.

Quantum discord of a two-state ensemble is the gap between the Holevo bound
and the accessible information; both sides share one optimal measurement
axis.  For two states the information quantities depend on the axis n only
through (a.n, b.n), so an optimal axis always exists in span{a, b}.  The
search below exploits that plane restriction; the full-sphere grid oracle
(see the oracle module) exists to verify the restriction rather than trust
it.

For ensembles of two pure states the optimization can be skipped entirely:
purifying with an ancilla qubit turns the discord into an entanglement of
formation plus marginal entropies, all closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ensemble import QubitEnsemble, average_state, holevo_chi
from .measurement import _unit_axes, canonical_axis, classical_mutual_information
from .qstate import NORM_SLACK, as_bloch, binary_entropy

IN_PLANE_METHOD = "in-plane golden-section"
FULL_SPHERE_METHOD = "full-sphere grid + refine"
EIGENPAIR_METHOD = "closed-form eigenpair"

_SCAN_POINTS = 720
_ANGLE_TOL = 1e-12
_TIE_TOL = 1e-10
_FLAT_TOL = 1e-14
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
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
    if x < -NORM_SLACK or x > 1.0 + NORM_SLACK:
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
    theta = float(theta)
    if not 0.0 <= theta <= np.pi:
        raise ValueError("theta must lie in [0, pi]")
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
    n = _unit_axes(as_bloch(n))
    a, b = ens.a, ens.b
    an, bn = float(a @ n), float(b @ n)
    cn = float(average_state(ens) @ n)
    factors = np.array([1.0 + an, 1.0 - an, 1.0 + bn, 1.0 - bn, 1.0 + cn, 1.0 - cn])
    singular = bool(np.any(factors < _LOG_CLAMP))
    lg = np.log2(np.maximum(factors, _LOG_CLAMP))
    log_t0 = lg[0] - lg[1] + lg[5] - lg[4]
    log_t1 = lg[2] - lg[3] + lg[5] - lg[4]
    a_perp = a - an * n
    b_perp = b - bn * n
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


def check_analytic_conditions(
    ens: QubitEnsemble, n, tolerance: float = 1e-8
) -> AnalyticConditionsReport:
    """Evaluate the two sufficient optimality conditions at the axis n."""
    vec, log_t0, log_t1, a_perp, b_perp, singular = _stationarity_terms(ens, n)
    odds_res = abs(log_t0 + log_t1)
    perp_res = float(np.linalg.norm(ens.lambda0 * a_perp + ens.lambda1 * b_perp))
    return AnalyticConditionsReport(
        residual=float(np.linalg.norm(vec)),
        odds_inverse_residual=odds_res,
        odds_inverse_holds=odds_res <= tolerance,
        perp_balance_residual=perp_res,
        perp_balance_holds=perp_res <= tolerance,
        singular=singular,
        tolerance=tolerance,
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


def _golden_max(f, lo: float, hi: float, tol: float = _ANGLE_TOL):
    """Golden-section maximization on [lo, hi]: returns (x, f(x), evaluations)."""
    width = hi - lo
    x1 = hi - _INVPHI * width
    x2 = lo + _INVPHI * width
    f1, f2 = f(x1), f(x2)
    evals = 2
    while width > tol:
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


def _optimize_in_plane(ens: QubitEnsemble, objective):
    """Maximize a pi-periodic axis objective over unit axes in span{a, b}.

    A 720-point angular scan brackets every local maximum (the objective can
    have several); each bracket is polished by golden section.  Flat
    objectives (degenerate ensembles) short-circuit to the tie-break.
    """
    u1, u2 = _plane_basis(ens)
    phis = np.linspace(0.0, np.pi, _SCAN_POINTS, endpoint=False)
    axes = np.cos(phis)[:, None] * u1 + np.sin(phis)[:, None] * u2
    vals = np.asarray(objective(axes), dtype=float)
    evals = _SCAN_POINTS

    if float(vals.max() - vals.min()) < _FLAT_TOL:
        candidates = [(float(vals[i]), axes[i]) for i in range(_SCAN_POINTS)]
        return _pick_candidate(candidates, evals, degenerate_hint=True)

    is_peak = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    peaks = np.flatnonzero(is_peak)
    if peaks.size > 64:
        candidates = [(float(vals[i]), axes[i]) for i in peaks]
        return _pick_candidate(candidates, evals, degenerate_hint=True)

    def axis_at(phi):
        return np.cos(phi) * u1 + np.sin(phi) * u2

    dphi = np.pi / _SCAN_POINTS
    candidates = []
    for i in peaks:
        phi0 = float(phis[i])
        phi, val, used = _golden_max(
            lambda p: objective(axis_at(p)), phi0 - dphi, phi0 + dphi
        )
        evals += used
        candidates.append((float(val), axis_at(phi)))
    return _pick_candidate(candidates, evals)


def accessible_information(ens: QubitEnsemble) -> OptimizationResult:
    """Maximum classical mutual information over projective measurements.

    Value lies in [0, holevo_chi(ens)].  Degenerate ensembles (identical
    states or a vanishing weight) give a flat objective; the value is then 0
    and the axis is the deterministic tie-break representative.
    """
    n_opt, value, evals, degenerate = _optimize_in_plane(
        ens, lambda axes: classical_mutual_information(ens, axes)
    )
    return OptimizationResult(
        n_opt=n_opt,
        value=float(max(value, 0.0)),
        stationarity_residual=stationarity_residual(ens, n_opt),
        evaluations=evals,
        method=IN_PLANE_METHOD,
        degenerate=degenerate,
    )


def _holevo_gap(ens: QubitEnsemble) -> tuple[float, OptimizationResult, float]:
    """chi, the accessible-information result, and the discord chi - I_acc.

    Round-off in [-1e-10, 0) of the gap is set to zero.
    """
    chi = holevo_chi(ens)
    acc = accessible_information(ens)
    gap = chi - acc.value
    return chi, acc, 0.0 if -1e-10 <= gap < 0.0 else gap


def quantum_discord(ens: QubitEnsemble) -> OptimizationResult:
    """Discord as the Holevo-accessible gap, with the shared optimal axis.

    value = holevo_chi - accessible information; nonnegative, with round-off
    in [-1e-10, 0) clamped to zero.
    """
    _, acc, gap = _holevo_gap(ens)
    return replace(acc, value=gap)
