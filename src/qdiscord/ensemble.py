"""Two-state qubit ensembles, their average state, and the Holevo bound.

An ensemble {lambda_i, rho_i} is equivalent to a joint state that correlates
a classical label with the prepared qubit.  That joint state is block
diagonal, so its full spectrum is {lambda_i (1 +/- |v_i|)/2} and is computed
directly; the 4x4 matrix is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import (
    NORM_SLACK,
    binary_entropy,
    example_pair_bloch,
    shannon_entropy,
    state_bloch,
    von_neumann_entropy,
)


@dataclass(frozen=True, eq=False)
class QubitEnsemble:
    """Ensemble of two qubit states: weights (lambda0, lambda1), Bloch vectors (a, b)."""

    lambda0: float
    lambda1: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        l0, l1 = float(self.lambda0), float(self.lambda1)
        if not (math.isfinite(l0) and math.isfinite(l1)):
            raise ValueError(f"ensemble weights must be finite, got ({l0!r}, {l1!r})")
        if min(l0, l1) < -NORM_SLACK:
            raise ValueError("ensemble weights must be nonnegative")
        if abs(l0 + l1 - 1.0) > NORM_SLACK:
            raise ValueError(f"ensemble weights must sum to 1, got {l0 + l1:.17g}")
        object.__setattr__(self, "lambda0", min(max(l0, 0.0), 1.0))
        object.__setattr__(self, "lambda1", min(max(l1, 0.0), 1.0))
        object.__setattr__(self, "a", state_bloch(self.a))
        object.__setattr__(self, "b", state_bloch(self.b))

    @classmethod
    def from_weight(cls, lambda0: float, a, b) -> "QubitEnsemble":
        return cls(lambda0, 1.0 - float(lambda0), a, b)

    @classmethod
    def pure_pair(cls, theta: float, lambda0: float = 0.5) -> "QubitEnsemble":
        """The mirror-symmetric pure pair at half-angle theta."""
        a, b = example_pair_bloch(theta)
        return cls(lambda0, 1.0 - float(lambda0), a, b)


def average_state(ens: QubitEnsemble) -> np.ndarray:
    """Bloch vector c = lambda0 a + lambda1 b of the ensemble average state."""
    return ens.lambda0 * ens.a + ens.lambda1 * ens.b


def holevo_chi(ens: QubitEnsemble) -> float:
    """Holevo bound chi = S(avg) - lambda0 S(a) - lambda1 S(b), in bits.

    Nonnegative by entropy concavity and at most h(lambda0); tiny negative
    round-off is clamped to 0.
    """
    chi = (
        von_neumann_entropy(average_state(ens))
        - ens.lambda0 * von_neumann_entropy(ens.a)
        - ens.lambda1 * von_neumann_entropy(ens.b)
    )
    return max(float(chi), 0.0)


def cq_state_spectrum(ens: QubitEnsemble) -> np.ndarray:
    """The four eigenvalues {lambda_i (1 +/- |v_i|)/2} of the label-qubit joint state.

    Nonnegative and summing to 1; ordering is (a+, a-, b+, b-).
    """
    na = min(float(np.linalg.norm(ens.a)), 1.0)
    nb = min(float(np.linalg.norm(ens.b)), 1.0)
    return np.array(
        [
            ens.lambda0 * (1.0 + na) / 2.0,
            ens.lambda0 * (1.0 - na) / 2.0,
            ens.lambda1 * (1.0 + nb) / 2.0,
            ens.lambda1 * (1.0 - nb) / 2.0,
        ]
    )


def cq_state_entropy(ens: QubitEnsemble) -> float:
    """Entropy of the label-qubit joint state, from its block-diagonal spectrum.

    Equals h(lambda0) + lambda0 S(a) + lambda1 S(b); the spectrum route here is
    deliberately independent of that formula so the identity can be tested.
    """
    return shannon_entropy(cq_state_spectrum(ens))


def quantum_mutual_information(ens: QubitEnsemble) -> float:
    """Mutual information of the label-qubit joint state, in bits.

    I = S(label) + S(avg) - S(joint) with S(label) = h(lambda0).  Computed
    through the joint spectrum rather than through holevo_chi, so the
    equality I = chi is a genuine two-route cross-check.
    """
    return (
        binary_entropy(ens.lambda0)
        + von_neumann_entropy(average_state(ens))
        - cq_state_entropy(ens)
    )


def random_ensemble(rng: np.random.Generator) -> QubitEnsemble:
    """Random ensemble: weight uniform in [0, 1], Bloch vectors uniform in the ball."""
    l0 = float(rng.uniform())
    return QubitEnsemble(l0, 1.0 - l0, _ball_point(rng), _ball_point(rng))


def random_pure_pair(rng: np.random.Generator) -> QubitEnsemble:
    """Random ensemble of two pure states with a uniform weight."""
    l0 = float(rng.uniform())
    return QubitEnsemble(l0, 1.0 - l0, _sphere_point(rng), _sphere_point(rng))


def _sphere_point(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _ball_point(rng: np.random.Generator) -> np.ndarray:
    return _sphere_point(rng) * rng.uniform() ** (1.0 / 3.0)
