"""Bloch-vector qubit states and the scalar entropy/purity primitives.

A qubit density matrix rho = (1 + r.sigma)/2 is fully described by its real
Bloch vector r with |r| <= 1, and its eigenvalues are (1 +/- |r|)/2.  Every
entropy in this package therefore reduces to the binary entropy of a norm;
no 2x2 matrix is ever built or diagonalized.

Bloch vectors are plain float ndarrays of shape (3,).
"""

from __future__ import annotations

import math

import numpy as np

# Round-off slack accepted on probabilities and Bloch norms before rejecting.
NORM_SLACK = 1e-12
# Unit-norm tolerance for vectors that claim to be pure states.
PURE_TOL = 1e-9
# Below this, x*log2(x) is exactly 0 (continuity of x log x at x = 0).
_XLOG_CUTOFF = 1e-300


def as_bloch(r) -> np.ndarray:
    """Coerce to a finite float 3-vector."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("Bloch vector components must be finite")
    return r


def state_bloch(r) -> np.ndarray:
    """Coerce to a physical state vector: |r| <= 1 up to round-off slack."""
    r = as_bloch(r)
    n = _norm(r)
    if n > 1.0 + NORM_SLACK:
        raise ValueError(f"Bloch norm {n:.17g} exceeds 1 beyond round-off slack")
    return r


def _state_norm(r) -> float:
    """Norm of a physical state vector, clamped into [0, 1]."""
    r = state_bloch(r)
    return min(_norm(r), 1.0)


def _norm(r) -> float:
    """np.linalg.norm of a float 3-vector to the bit, without its per-call overhead.

    Its path for a 1-D vector is the square root of the BLAS dot r.dot(r).
    """
    return math.sqrt(r.dot(r))


def _row_dot(x, y):
    """Row-wise dot products of (..., N, 3) arrays, bit for bit float(x[k] @ y[k]).

    A 3-vector @ is a BLAS dot, and so is each (1, 3) @ (3, 1) product of a
    stacked matmul; (x * y).sum(-1) would sum in another way and can move the
    last bit.  Leading axes broadcast, so one call takes several vectors per
    row.
    """
    return (x[..., None, :] @ y[..., None])[..., 0, 0]


def _neg_xlog2x(x, out=None, zero=None):
    """-x log2(x) elementwise, with the 0 log 0 = 0 convention.

    out and zero, a float and a bool array of x's shape, take the result
    and the mask of the entries set to 0; both are allocated when not given.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out, zero = np.empty_like(x), np.empty(x.shape, dtype=bool)
    # In place, so out and zero are all it writes; -(x log2 x) is
    # (-x) log2 x to the bit.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log2(x, out)
        np.multiply(out, x, out)
    np.negative(out, out)
    # Not x <= cutoff: a NaN is set to 0 too.
    np.greater(x, _XLOG_CUTOFF, zero)
    np.logical_not(zero, zero)
    out[zero] = 0.0
    return out


def binary_entropy(p):
    """Binary entropy h(p) = -p log2 p - (1-p) log2(1-p), in bits.

    Accepts scalars or arrays.  p must lie in [0, 1] up to 1e-12 round-off;
    slightly out-of-range values are clamped, anything further is rejected.
    """
    p = np.asarray(p, dtype=float)
    # Written so that NaN fails the test too.
    if not ((p >= -NORM_SLACK) & (p <= 1.0 + NORM_SLACK)).all():
        raise ValueError("probability outside [0, 1]")
    out = _binary_entropy(np.clip(p, 0.0, 1.0))
    return float(out) if out.ndim == 0 else out


def _binary_entropy(p):
    """binary_entropy of an array p in [0, 1] that the caller built, without its checks.

    On such a p the clip of binary_entropy changes at most the sign of a
    zero, which the value does not see.  p and 1 - p share one _neg_xlog2x
    call.
    """
    t = _neg_xlog2x((p, 1.0 - p))
    return t[0] + t[1]


def shannon_entropy(dist) -> float:
    """Shannon entropy of a discrete distribution, in bits.

    Entries must lie in [0, 1] and sum to 1, each up to 1e-12 round-off.
    """
    dist = np.asarray(dist, dtype=float)
    # Written so that NaN and inf fail the tests too.
    if not ((dist >= -NORM_SLACK) & (dist <= 1.0 + NORM_SLACK)).all():
        raise ValueError("probabilities must lie in [0, 1]")
    if not abs(float(dist.sum()) - 1.0) <= NORM_SLACK:
        raise ValueError("probabilities must sum to 1")
    return float(_shannon_entropy(np.clip(dist, 0.0, None)))


def _shannon_entropy(dist):
    """shannon_entropy of every distribution along the last axis of dist, without its checks.

    Each row's terms are summed in order, as np.sum sums a short one.
    """
    return _neg_xlog2x(dist).sum(axis=-1)


def von_neumann_entropy(r) -> float:
    """Entropy S(rho) in bits of the state with Bloch vector r.

    Equal to h((1 + |r|)/2) because the qubit spectrum is (1 +/- |r|)/2.
    """
    return float(binary_entropy((1.0 + _state_norm(r)) / 2.0))


def _state_entropies(v):
    """von_neumann_entropy of every state vector of v, shape (..., 3), without its checks, bit for bit.

    h((1 + |v|)/2), with the norm a BLAS dot as np.linalg.norm takes it,
    clamped to 1; the block forms of the ensemble module take it.
    """
    return _binary_entropy((1.0 + np.minimum(np.sqrt(_row_dot(v, v)), 1.0)) / 2.0)


def purity(r) -> float:
    """tr(rho^2) = (1 + |r|^2)/2 for the state with Bloch vector r."""
    n = _state_norm(r)
    return (1.0 + n * n) / 2.0


def pure_overlap(a, b) -> float:
    """Overlap magnitude |<phi_a|phi_b>| = sqrt((1 + a.b)/2) of two pure states.

    Defined only for unit Bloch vectors; the sign of the underlying amplitude
    is irrelevant everywhere this quantity is used, so a magnitude is returned.
    """
    a = as_bloch(a)
    b = as_bloch(b)
    if not (_is_pure(a) and _is_pure(b)):
        raise ValueError("pure_overlap requires unit (pure-state) Bloch vectors")
    return float(np.sqrt(max(0.0, (1.0 + float(a @ b)) / 2.0)))


def _pure_overlaps(a, b):
    """pure_overlap of every pair of rows of a and b, shape (..., 3), without its checks, bit for bit."""
    return np.sqrt(np.maximum(0.0, (1.0 + _row_dot(a, b)) / 2.0))


def _is_pure(r) -> bool:
    """Whether the finite vector r has unit norm up to PURE_TOL."""
    return abs(_norm(r) - 1.0) <= PURE_TOL


def _half_angle(theta) -> float:
    """The mirror-pair half-angle theta as a float, checked to lie in [0, pi]."""
    theta = float(theta)
    if not 0.0 <= theta <= np.pi:
        raise ValueError("theta must lie in [0, pi]")
    return theta


def example_pair_bloch(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors of the mirror-symmetric pure pair at half-angle theta.

    The states cos(t/2)|0> +/- sin(t/2)|1> have Bloch vectors
    (sin t, 0, cos t) and (-sin t, 0, cos t); their overlap is cos t.
    """
    theta = _half_angle(theta)
    s, c = np.sin(theta), np.cos(theta)
    return np.array([s, 0.0, c]), np.array([-s, 0.0, c])
