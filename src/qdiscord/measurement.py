"""Two-outcome projective measurements on the qubit and what they extract.

A measurement is a unit axis n generating the projectors (1 +/- n.sigma)/2.
The post-measurement conditional states are diagonal in the label basis, so
outcome statistics are ordinary discrete distributions and every quantity
here is exact scalar arithmetic.

All scalar maps broadcast over a trailing (..., 3) batch of axes; this is
what keeps the dense sphere-grid oracle cheap.
"""

from __future__ import annotations

import numpy as np

from .ensemble import QubitEnsemble
from .qstate import _neg_xlog2x, binary_entropy

# Accepted deviation from unit norm before an axis is rejected outright.
UNIT_TOL = 1e-9


def canonical_axis(n, tol: float = 1e-12) -> np.ndarray:
    """Antipode-normalize an axis: sign fixed so n_z > 0, then n_x, then n_y.

    An axis and its antipode define the same measurement up to outcome
    relabeling; this picks the deterministic representative.
    """
    n = np.asarray(n, dtype=float)
    for k in (2, 0, 1):
        if n[k] > tol:
            return n.copy()
        if n[k] < -tol:
            return -n
    return n.copy()


def _unit_axes(n) -> np.ndarray:
    """Validate axes of shape (..., 3) and squash residual norm round-off.

    Callers that take a single axis pass it through as_bloch first, which
    pins the shape to (3,).
    """
    n = np.asarray(n, dtype=float)
    if n.shape[-1:] != (3,):
        raise ValueError("measurement axes must have trailing dimension 3")
    # Bit for bit np.linalg.norm(n, axis=-1), without its per-call overhead.
    norms = np.sqrt((n * n).sum(axis=-1, keepdims=True))
    # Written so that NaN and inf norms fail the test too.
    if not (np.abs(norms - 1.0) <= UNIT_TOL).all():
        raise ValueError("measurement axes must be unit vectors")
    return n / norms


def conditional_entropy(ens: QubitEnsemble, n):
    """Outcome-averaged entropy S(n) = p+ H(q(.|+)) + p- H(q(.|-)), in bits.

    Computed as H(joint) - H(outcome) over the four joint probabilities
    lambda_i (1 +/- v_i.n)/2, so zero-probability outcomes drop out without
    any special casing.  Broadcasts over axes of shape (..., 3).
    """
    n = _unit_axes(n)
    ta = n @ ens.a
    tb = n @ ens.b
    jp0 = 0.5 * ens.lambda0 * (1.0 + ta)
    jm0 = 0.5 * ens.lambda0 * (1.0 - ta)
    jp1 = 0.5 * ens.lambda1 * (1.0 + tb)
    jm1 = 0.5 * ens.lambda1 * (1.0 - tb)
    out = (
        _neg_xlog2x(jp0)
        + _neg_xlog2x(jm0)
        + _neg_xlog2x(jp1)
        + _neg_xlog2x(jm1)
        - _neg_xlog2x(jp0 + jp1)
        - _neg_xlog2x(jm0 + jm1)
    )
    out = np.maximum(out, 0.0)
    return float(out) if out.ndim == 0 else out


def classical_mutual_information(ens: QubitEnsemble, n):
    """Mutual information h(lambda0) - S(n) between the label and the outcome.

    Bounded by the Holevo quantity for every axis.  Broadcasts like
    conditional_entropy.
    """
    out = np.maximum(binary_entropy(ens.lambda0) - conditional_entropy(ens, n), 0.0)
    return float(out) if np.ndim(out) == 0 else out


def post_measurement_purity(ens: QubitEnsemble, n):
    """Purity of the joint state after the unselective measurement along n.

    Equals lambda0^2 (1 + (a.n)^2)/2 + lambda1^2 (1 + (b.n)^2)/2; never
    exceeds the pre-measurement purity.  Broadcasts over (..., 3) axes.
    """
    n = _unit_axes(n)
    ta = n @ ens.a
    tb = n @ ens.b
    out = 0.5 * ens.lambda0**2 * (1.0 + ta * ta) + 0.5 * ens.lambda1**2 * (1.0 + tb * tb)
    return float(out) if out.ndim == 0 else out
