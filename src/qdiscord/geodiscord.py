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
one-ensemble call.  sweep and verify pass their blocks; compute and the
one-ensemble callers keep the scalar body, the faster form at one row, but
both give the a and b of a tie of the top eigenvalue to one array step,
_tie_axes.  Both compute from G taken to unit scale by one rule,
_unit_scale: a power of two on the weights, which moves no bit where G is
normal and keeps every Gram entry, cross product and axis clear of
underflow where G is tiny; the eigenvalues are scaled back at the end.
_tie_axes keeps a scale of its own, as at _unit_scale's cap a deep
subnormal tie would take the plane basis's vanishing branch.
ensemble_purity takes a block too, and the oracle shares _geo_defect_rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discord import _CONDITION_TOL, OptimizationResult, _plane_basis_rows
from .ensemble import QubitEnsemble, _EnsembleArrays
from .measurement import _SIGN_TOL, _cross, _normalized, _perp_parts, _unit_perp_parts, canonical_axis
from .qstate import _half_angle, _row_dot

EIGENPAIR_METHOD = "closed-form eigenpair"
# A gap of at most this times the top eigenvalue (M = 0 included) is a tie,
# resolved by the lexicographic tie-break: like the axis, it is scale-free.
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


def quadratic_form(ens) -> GeoQuadraticForm:
    """Build M from its outer products; the top eigenpair comes from the rank-2 form.

    ens is a QubitEnsemble, or a block (_EnsembleArrays) whose form holds
    M of shape (N, 3, 3), the top eigenvalues (N,) and eigenvectors (N, 3),
    row k with the bits of ensemble k's.
    """
    if not isinstance(ens, _EnsembleArrays):
        form = quadratic_form(_EnsembleArrays.of([ens]))
        return GeoQuadraticForm(form.m[0], float(form.top_eigenvalue[0]), form.top_eigenvector[0])
    w0, w1 = ens.squared_weights()
    # Each outer product entry is one product, as np.outer takes it.
    m = w0[:, None, None] * (ens.a[:, :, None] * ens.a[:, None, :]) + w1[:, None, None] * (
        ens.b[:, :, None] * ens.b[:, None, :]
    )
    w, _, v, _ = _top_eigenpair_rows(ens)
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
    _, second, n_opt, tie = _top_eigenpair(ens)
    # The axis was built here, so it skips the checks of _perp_parts; the
    # squash stays, as the residual's last bit follows it.
    parts = _unit_perp_parts(ens, _normalized(n_opt))
    return OptimizationResult(
        n_opt=n_opt,
        value=0.5 * second,
        stationarity_residual=_geo_defect_norm(ens, *parts[1:]),
        evaluations=1,
        method=EIGENPAIR_METHOD,
        degenerate=tie,
    )


def _geometric_discord_rows(rows: _EnsembleArrays) -> OptimizationResult:
    """geometric_discord of a block: _top_eigenpair_rows and the residual on arrays."""
    _, second, n_opt, tie = _top_eigenpair_rows(rows)
    return OptimizationResult(
        n_opt=n_opt,
        value=0.5 * second,
        stationarity_residual=_geo_defect_rows(rows, _normalized(n_opt)),
        evaluations=np.ones(len(rows), dtype=int),
        method=EIGENPAIR_METHOD,
        degenerate=tie,
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
    return float((1.0 - abs(np.cos(2.0 * theta))) / 8.0)


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

def _tie_axes(a, b, top: np.ndarray) -> np.ndarray:
    """The top axis of tied rows from their a and b, shape (N, 3): x where M = 0 (top 0).

    Else every axis of span{a, b} ties, and it is the lexicographically
    largest canonical one, from the plane basis of a and b scaled by a power
    of two: that moves no bit but keeps a tiny pair off its vanishing branch.
    The power is uncapped and takes no weight; G at _unit_scale's capped
    scale would read x, not y, for a yz tie of 2^-1067 components.
    """
    shift = -np.frexp(np.abs(np.hstack((a, b))).max(axis=1))[1][:, None]
    u1, u2 = _plane_basis_rows(np.ldexp(a, shift), np.ldexp(b, shift))
    glen = np.hypot(u1, u2)
    # The first coordinate that varies over the span, and the unit vector maximizing it.
    k = np.argmax(glen > _SIGN_TOL, axis=1)
    g0, g1, glen = (x[np.arange(len(k)), k][:, None] for x in (u1, u2, glen))
    vstar = (g0 * u1 + g1 * u2) / glen
    # Where vstar points below z = 0, the best representative lies on the
    # span's z = 0 line.
    down = vstar[:, 2] < -_SIGN_TOL
    line = u2[down] * u1[down, 2:] - u1[down] * u2[down, 2:]
    vstar[down] = line / np.sqrt(_row_dot(line, line))[:, None]
    return np.where((top > 0.0)[:, None], canonical_axis(vstar), (1.0, 0.0, 0.0))


def _gram(ga, gb):
    """p, q, r of the Gram matrix [[p, r], [r, q]] of G = [ga, gb], its eigenvalue gap and top one, per row."""
    p, q, r = _row_dot(ga, ga), _row_dot(gb, gb), _row_dot(ga, gb)
    # math.hypot per row: np.hypot differs from it in the last bit on some pairs.
    gap = np.array([math.hypot(x, y) for x, y in zip((p - q).tolist(), (2.0 * r).tolist())])
    return p, q, r, gap, 0.5 * (p + q + gap)


def _unit_scale(l0, l1, a, b):
    """The weights 2^shift l0, 2^shift l1 that take G = [l0 a, l1 b] to unit scale, and shift.

    shift is minus the binary exponent of G's largest |entry|,
    max(l0 max|a_i|, l1 max|b_i|) to the bit, as a rounded product is
    monotone in its factor.  It is at most 1023, so the weights stay finite
    where G is subnormal, and a power of two moves no bit of G where G is
    normal.
    """
    big = np.maximum(l0 * abs(a).max(-1), l1 * abs(b).max(-1))
    shift = np.minimum(-np.frexp(big)[1], 1023)
    return np.ldexp(l0, shift), np.ldexp(l1, shift), shift


def _top_eigenpair_rows(rows: _EnsembleArrays):
    """_top_eigenpair of every row of a block, as arrays: each step the scalar one row by row.

    Each row's G is taken to unit scale by the same rule, _unit_scale.
    """
    w0, w1, shift = _unit_scale(rows.lambda0, rows.lambda1, rows.a, rows.b)
    ga, gb = w0[:, None] * rows.a, w1[:, None] * rows.b
    p, q, r, gap, top = _gram(ga, gb)
    cross = _cross(ga, gb)
    # Rows that vanish or tie divide by 0 here and are redone below.
    with np.errstate(divide="ignore", invalid="ignore"):
        second = np.where(top > 0.0, _row_dot(cross, cross) / top, 0.0)
        larger = p >= q
        c0 = np.where(larger, 0.5 * (p - q + gap), r)
        c1 = np.where(larger, r, 0.5 * (q - p + gap))
        v = c0[:, None] * ga + c1[:, None] * gb
        n_opt = canonical_axis(v / np.sqrt(_row_dot(v, v))[:, None])
    tie = gap <= _EIGEN_GAP_TOL * top
    if tie.any():
        n_opt[tie] = _tie_axes(rows.a[tie], rows.b[tie], top[tie])
    return np.ldexp(top, -2 * shift), np.ldexp(second, -2 * shift), n_opt, tie


def _top_eigenpair(ens: QubitEnsemble) -> tuple[float, float, np.ndarray, bool]:
    """Top and second eigenvalue of M = G G^T, its top axis and whether it ties, G = [l0 a, l1 b].

    M shares its nonzero spectrum with the Gram matrix [[p, r], [r, q]] of G.
    The second eigenvalue comes from det = |l0 a x l1 b|^2 over the top one,
    and the axis from the Gram eigenvector mapped through G, so neither
    subtracts nearly equal numbers when a and b are nearly collinear.  All
    of it comes from G at _unit_scale, the eigenvalues scaled back at the end.
    """
    w0, w1, shift = _unit_scale(ens.lambda0, ens.lambda1, ens.a, ens.b)
    ga, gb = w0 * ens.a, w1 * ens.b
    p, q, r = float(ga @ ga), float(gb @ gb), float(ga @ gb)
    gap = math.hypot(p - q, 2.0 * r)
    top = 0.5 * (p + q + gap)
    cross = _cross(ga, gb)
    second = float(cross @ cross) / top if top > 0.0 else 0.0
    eigenvalues = math.ldexp(top, -2 * int(shift)), math.ldexp(second, -2 * int(shift))
    if gap <= _EIGEN_GAP_TOL * top:
        return *eigenvalues, _tie_axes(ens.a[None], ens.b[None], np.array([top]))[0], True
    # (p - q + gap)/2 equals top - q, but rounding top first leaks ~1e-17
    # into components that are exactly zero (the mirror pair's x, say).
    if p >= q:
        c0, c1 = 0.5 * (p - q + gap), r
    else:
        c0, c1 = r, 0.5 * (q - p + gap)
    v = c0 * ga + c1 * gb
    return *eigenvalues, canonical_axis(v / np.linalg.norm(v)), False
