"""Bloch-vector qubit states and the scalar entropy/purity primitives.

A qubit density matrix rho = (1 + r.sigma)/2 is fully described by its real
Bloch vector r with |r| <= 1, and its eigenvalues are (1 +/- |r|)/2.  Every
entropy in this package therefore reduces to the binary entropy of a norm;
no 2x2 matrix is ever built or diagonalized.

Bloch vectors are plain float ndarrays of shape (3,).
"""

from __future__ import annotations

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
    n = float(np.linalg.norm(r))
    if n > 1.0 + NORM_SLACK:
        raise ValueError(f"Bloch norm {n:.17g} exceeds 1 beyond round-off slack")
    return r


def _state_norm(r) -> float:
    """Norm of a physical state vector, clamped into [0, 1]."""
    r = state_bloch(r)
    return min(float(np.linalg.norm(r)), 1.0)


def _neg_xlog2x(x):
    """-x log2(x) elementwise, with the 0 log 0 = 0 convention."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > _XLOG_CUTOFF, -x * np.log2(x), 0.0)


def binary_entropy(p):
    """Binary entropy h(p) = -p log2 p - (1-p) log2(1-p), in bits.

    Accepts scalars or arrays.  p must lie in [0, 1] up to 1e-12 round-off;
    slightly out-of-range values are clamped, anything further is rejected.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < -NORM_SLACK) or np.any(p > 1.0 + NORM_SLACK):
        raise ValueError("probability outside [0, 1]")
    p = np.clip(p, 0.0, 1.0)
    out = _neg_xlog2x(p) + _neg_xlog2x(1.0 - p)
    return float(out) if out.ndim == 0 else out


def shannon_entropy(dist) -> float:
    """Shannon entropy of a discrete distribution, in bits."""
    dist = np.asarray(dist, dtype=float)
    if np.any(dist < -NORM_SLACK):
        raise ValueError("probabilities must be nonnegative")
    return float(np.sum(_neg_xlog2x(np.clip(dist, 0.0, None))))


def von_neumann_entropy(r) -> float:
    """Entropy S(rho) in bits of the state with Bloch vector r.

    Equal to h((1 + |r|)/2) because the qubit spectrum is (1 +/- |r|)/2.
    """
    return float(binary_entropy((1.0 + _state_norm(r)) / 2.0))


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
    if abs(np.linalg.norm(a) - 1.0) > PURE_TOL or abs(np.linalg.norm(b) - 1.0) > PURE_TOL:
        raise ValueError("pure_overlap requires unit (pure-state) Bloch vectors")
    return float(np.sqrt(max(0.0, (1.0 + float(a @ b)) / 2.0)))


def example_pair_bloch(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors of the mirror-symmetric pure pair at half-angle theta.

    The states cos(t/2)|0> +/- sin(t/2)|1> have Bloch vectors
    (sin t, 0, cos t) and (-sin t, 0, cos t); their overlap is cos t.
    """
    theta = float(theta)
    if not 0.0 <= theta <= np.pi:
        raise ValueError("theta must lie in [0, pi]")
    s, c = np.sin(theta), np.cos(theta)
    return np.array([s, 0.0, c]), np.array([-s, 0.0, c])
