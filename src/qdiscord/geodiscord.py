"""Geometric discord as the minimum purity deficit over projective measurements.

The post-measurement purity along the axis n is an affine function of the
quadratic form n^T M n with M = lambda0^2 a a^T + lambda1^2 b b^T, so the
sphere optimization is exactly the top eigenpair of M.  M = G G^T with
G = [lambda0 a, lambda1 b] has rank at most 2, so the eigenproblem is the
2x2 Gram matrix of G, solved in closed form (the two-qubit result of
Dakic, Vedral and Brukner).  The geometric discord is half the second
eigenvalue, D / (t + sqrt(t^2 - 4 D)) with t = tr M and D = |l0 a x l1 b|^2,
which keeps full relative accuracy on nearly collinear pairs.  Nothing here
depends on the numerical eigenpackage or on the grid oracle that
cross-checks it.

geometric_discord takes one ensemble, or a block of them as a struct of
arrays (_EnsembleArrays), which it computes in one array pass; every field
of a block's result is a column with one entry per row, the bits of the
one-ensemble call.  sweep passes its blocks; verify, compute and the
one-ensemble callers keep the scalar body, the faster form at one row.
ensemble_purity takes a block too, and the oracle shares _geo_defect_rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discord import _CONDITION_TOL, OptimizationResult, _plane_basis
from .ensemble import QubitEnsemble, _EnsembleArrays
from .measurement import _SIGN_TOL, _normalized, _perp_parts, _unit_perp_parts, canonical_axis
from .qstate import _half_angle, _row_dot

EIGENPAIR_METHOD = "closed-form eigenpair"
# Eigenvalues within this of the top one are treated as a degenerate
# eigenspace and resolved by the lexicographic tie-break.
_EIGEN_GAP_TOL = 1e-12


class NonStationaryAxisError(ValueError):
    """Raised when a branch classification is requested at a non-stationary axis."""

    def __init__(self, residual: float, tolerance: float):
        super().__init__(
            f"axis is not stationary: residual {residual:.3e} exceeds {tolerance:.1e}"
        )
        self.residual = residual
        self.tolerance = tolerance


@dataclass(frozen=True, eq=False)
class GeoQuadraticForm:
    """The purity quadratic form M = l0^2 a a^T + l1^2 b b^T and its top eigenpair."""

    m: np.ndarray
    top_eigenvalue: float
    top_eigenvector: np.ndarray


@dataclass(frozen=True)
class GeoBranchReport:
    """Which sufficient cancellation pattern holds at a stationary axis.

    branch "+": a.n = +b.n together with l0^2 a_perp + l1^2 b_perp = 0.
    branch "-": a.n = -b.n together with l0^2 a_perp - l1^2 b_perp = 0.
    "neither" marks axes that are stationary by some other cancellation.
    """

    branch: str
    plus_dot_residual: float
    plus_perp_residual: float
    plus_holds: bool
    minus_dot_residual: float
    minus_perp_residual: float
    minus_holds: bool
    stationarity_residual: float
    tolerance: float


def ensemble_purity(ens) -> float | np.ndarray:
    """Purity (l0^2 (1+|a|^2) + l1^2 (1+|b|^2))/2 of the label-qubit state, per row for a block."""
    if not isinstance(ens, _EnsembleArrays):
        return float(ensemble_purity(_EnsembleArrays.of([ens]))[0])
    na2, nb2 = (np.minimum(_row_dot(v, v), 1.0) for v in (ens.a, ens.b))
    w0, w1 = ens.squared_weights()
    return 0.5 * (w0 * (1.0 + na2) + w1 * (1.0 + nb2))


def quadratic_form(ens: QubitEnsemble) -> GeoQuadraticForm:
    """Build M from its outer products; the top eigenpair comes from the rank-2 form."""
    m = ens.lambda0**2 * np.outer(ens.a, ens.a) + ens.lambda1**2 * np.outer(ens.b, ens.b)
    w, _, v = _top_eigenpair(ens)
    return GeoQuadraticForm(m=m, top_eigenvalue=w, top_eigenvector=v)


def geometric_discord(ens) -> OptimizationResult:
    """Minimum purity deficit over projective measurements on the qubit.

    value = ensemble_purity - (l0^2 + l1^2)/2 - top_eigenvalue(M)/2, which
    is half the second eigenvalue of M: zero exactly when the two Bloch
    vectors are collinear or a weight vanishes.  The optimal axis is the top
    eigenvector of M.

    ens is a QubitEnsemble, or a block of ensembles (_EnsembleArrays); for a
    block, n_opt has shape (N, 3) and the other fields but method shape
    (N,), row k holding the bits of the call on ensemble k.
    """
    if isinstance(ens, _EnsembleArrays):
        return _geometric_discord_rows(ens)
    _, second, n_opt = _top_eigenpair(ens)
    # The axis was built here, so it skips the checks of _perp_parts; the
    # squash stays, as the residual's last bit follows it.
    parts = _unit_perp_parts(ens, _normalized(n_opt))
    return OptimizationResult(
        n_opt=n_opt,
        value=0.5 * second,
        stationarity_residual=_geo_defect_norm(ens, *parts[1:]),
        evaluations=1,
        method=EIGENPAIR_METHOD,
    )


def _geometric_discord_rows(rows: _EnsembleArrays) -> OptimizationResult:
    """geometric_discord of a block: _top_eigenpair and the residual on arrays.

    Each step is the scalar one row by row, in its order of operations; rows
    with a degenerate top eigenspace take the scalar _top_eigenpair.
    """
    ga = rows.lambda0[:, None] * rows.a
    gb = rows.lambda1[:, None] * rows.b
    p, q, r = _row_dot(ga, ga), _row_dot(gb, gb), _row_dot(ga, gb)
    # math.hypot per row: np.hypot differs from it in the last bit on some pairs.
    gap = np.array([math.hypot(x, y) for x, y in zip((p - q).tolist(), (2.0 * r).tolist())])
    top = 0.5 * (p + q + gap)
    # np.cross, product by product.
    (a0, a1, a2), (b0, b1, b2) = ga.T, gb.T
    cross = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)
    # Rows that vanish or tie divide by 0 here and are redone below.
    with np.errstate(divide="ignore", invalid="ignore"):
        second = np.where(top > 0.0, _row_dot(cross, cross) / top, 0.0)
        larger = p >= q
        c0 = np.where(larger, 0.5 * (p - q + gap), r)
        c1 = np.where(larger, r, 0.5 * (q - p + gap))
        v = c0[:, None] * ga + c1[:, None] * gb
        n_opt = canonical_axis(v / np.sqrt(_row_dot(v, v))[:, None])
    for k in np.flatnonzero((top <= _EIGEN_GAP_TOL) | (gap <= _EIGEN_GAP_TOL)):
        n_opt[k] = _top_eigenpair(rows.ensemble(k))[2]
    return OptimizationResult(
        n_opt=n_opt,
        value=0.5 * second,
        stationarity_residual=_geo_defect_rows(rows, _normalized(n_opt)),
        evaluations=np.ones(len(rows), dtype=int),
        method=EIGENPAIR_METHOD,
        degenerate=np.zeros(len(rows), dtype=bool),
    )


def _geo_defect_rows(rows: _EnsembleArrays, n) -> np.ndarray:
    """geo_stationarity_residual of every row at its unit axis n[k], to the bit."""
    an, bn = _row_dot(rows.a, n), _row_dot(rows.b, n)
    w0, w1 = rows.squared_weights()
    a_perp, b_perp = rows.a - an[:, None] * n, rows.b - bn[:, None] * n
    defect = (w0 * an)[:, None] * a_perp + (w1 * bn)[:, None] * b_perp
    return np.sqrt(_row_dot(defect, defect))


def example_geo_closed_form(theta: float) -> float:
    """Geometric discord of the equal-weight mirror pair: (1 - |cos 2t|)/8."""
    theta = _half_angle(theta)
    return (1.0 - abs(np.cos(2.0 * theta))) / 8.0


def geo_stationarity_residual(ens: QubitEnsemble, n) -> float:
    """Norm of l0^2 (a.n) a_perp + l1^2 (b.n) b_perp at the unit axis n.

    Polynomial in n, so there are no singular configurations; vanishes at
    every critical axis of the post-measurement purity.
    """
    return _geo_defect_norm(ens, *_perp_parts(ens, n)[1:])


def _geo_defect_norm(ens: QubitEnsemble, an, bn, a_perp, b_perp) -> float:
    """Norm of the geometric defect from the parts that _perp_parts returns."""
    return float(np.linalg.norm(ens.lambda0**2 * an * a_perp + ens.lambda1**2 * bn * b_perp))


def geo_choice_classifier(ens: QubitEnsemble, n) -> GeoBranchReport:
    """Classify the cancellation pattern that makes the axis n stationary.

    Rejects non-stationary axes (NonStationaryAxisError carries the
    offending residual).  When both patterns hold simultaneously, the "+"
    branch is reported and both flags stay visible in the report.
    """
    _, an, bn, a_perp, b_perp = _perp_parts(ens, n)
    residual = _geo_defect_norm(ens, an, bn, a_perp, b_perp)
    if residual > _CONDITION_TOL:
        raise NonStationaryAxisError(residual, _CONDITION_TOL)
    w0, w1 = ens.lambda0**2, ens.lambda1**2
    plus_dot = abs(an - bn)
    plus_perp = float(np.linalg.norm(w0 * a_perp + w1 * b_perp))
    minus_dot = abs(an + bn)
    minus_perp = float(np.linalg.norm(w0 * a_perp - w1 * b_perp))
    plus_holds = plus_dot <= _CONDITION_TOL and plus_perp <= _CONDITION_TOL
    minus_holds = minus_dot <= _CONDITION_TOL and minus_perp <= _CONDITION_TOL
    branch = "+" if plus_holds else ("-" if minus_holds else "neither")
    return GeoBranchReport(
        branch=branch,
        plus_dot_residual=plus_dot,
        plus_perp_residual=plus_perp,
        plus_holds=plus_holds,
        minus_dot_residual=minus_dot,
        minus_perp_residual=minus_perp,
        minus_holds=minus_holds,
        stationarity_residual=residual,
        tolerance=_CONDITION_TOL,
    )


# ---------------------------------------------------------------------------
# Rank-2 eigenpair: the 2x2 Gram matrix of G = [l0 a, l1 b]
# ---------------------------------------------------------------------------

def _lex_max_rep_2d(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Lexicographically largest antipode-normalized unit vector in span{p, q}."""
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


def _top_eigenpair(ens: QubitEnsemble) -> tuple[float, float, np.ndarray]:
    """Top and second eigenvalue of M = G G^T and its top axis, G = [l0 a, l1 b].

    M shares its nonzero spectrum with the Gram matrix [[p, r], [r, q]] of G.
    The second eigenvalue comes from det = |l0 a x l1 b|^2 over the top one,
    and the axis from the Gram eigenvector mapped through G, so neither
    subtracts nearly equal numbers when a and b are nearly collinear.
    """
    ga = ens.lambda0 * ens.a
    gb = ens.lambda1 * ens.b
    p, q, r = float(ga @ ga), float(gb @ gb), float(ga @ gb)
    gap = math.hypot(p - q, 2.0 * r)
    top = 0.5 * (p + q + gap)
    cross = np.cross(ga, gb)
    second = float(cross @ cross) / top if top > 0.0 else 0.0
    if top <= _EIGEN_GAP_TOL:
        # M vanishes: every axis ties and x wins the tie-break.
        return top, second, np.array([1.0, 0.0, 0.0])
    if gap <= _EIGEN_GAP_TOL:
        return top, second, _lex_max_rep_2d(*_plane_basis(ens))
    # (p - q + gap)/2 equals top - q, but rounding top first leaks ~1e-17
    # into components that are exactly zero (the mirror pair's x, say).
    if p >= q:
        c0, c1 = 0.5 * (p - q + gap), r
    else:
        c0, c1 = r, 0.5 * (q - p + gap)
    v = c0 * ga + c1 * gb
    return top, second, canonical_axis(v / np.linalg.norm(v))
