"""Two-state qubit ensembles, their average state, and the Holevo bound.

An ensemble {lambda_i, rho_i} is equivalent to a joint state that correlates
a classical label with the prepared qubit.  That joint state is block
diagonal, so its full spectrum is {lambda_i (1 +/- |v_i|)/2} and is computed
directly; the 4x4 matrix is never materialized.  A block of ensembles is a
struct of arrays (_EnsembleArrays), one row each, and holevo_chi of a block
is a column with one value per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import (
    NORM_SLACK,
    _row_dot,
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
    def pure_pair(cls, theta: float, lambda0: float = 0.5) -> "QubitEnsemble":
        """The mirror-symmetric pure pair at half-angle theta."""
        a, b = example_pair_bloch(theta)
        return cls(lambda0, 1.0 - float(lambda0), a, b)


@dataclass(frozen=True, eq=False)
class _EnsembleArrays:
    """A block of ensembles as a struct of arrays, row k holding ensemble k.

    lambda0 and lambda1 have shape (N,), a and b shape (N, 3), with the bits
    of the ensembles' own fields.  The rows are valid ensembles, so the array
    forms that take a block check no vector again.
    """

    lambda0: np.ndarray
    lambda1: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @classmethod
    def of(cls, ensembles) -> "_EnsembleArrays":
        """The rows of a list of ensembles."""
        return cls(
            np.array([ens.lambda0 for ens in ensembles], dtype=float),
            np.array([ens.lambda1 for ens in ensembles], dtype=float),
            np.array([ens.a for ens in ensembles]).reshape(-1, 3),
            np.array([ens.b for ens in ensembles]).reshape(-1, 3),
        )

    @classmethod
    def pure_pairs(cls, thetas, lambda0: float) -> "_EnsembleArrays":
        """The rows of QubitEnsemble.pure_pair(theta, lambda0) for every theta, to the bit."""
        thetas = np.asarray(thetas, dtype=float)
        if not ((thetas >= 0.0) & (thetas <= np.pi)).all():
            raise ValueError("theta must lie in [0, pi]")
        # One pair checks and clamps the weights as every row would.
        first = QubitEnsemble.pure_pair(0.0, lambda0)
        s, c = np.sin(thetas), np.cos(thetas)
        zero = np.zeros_like(s)
        return cls(
            np.full(s.shape, first.lambda0),
            np.full(s.shape, first.lambda1),
            np.stack([s, zero, c], axis=1),
            np.stack([-s, zero, c], axis=1),
        )

    def __len__(self) -> int:
        return len(self.lambda0)

    def average(self) -> np.ndarray:
        """average_state of every row, shape (N, 3)."""
        return self.lambda0[:, None] * self.a + self.lambda1[:, None] * self.b

    def squared_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """lambda0**2 and lambda1**2 of every row, as ens.lambda0**2 computes them.

        That is Python's float power, which differs from numpy's x**2 (x*x)
        in the last bit on some weights.
        """
        return tuple(np.array([x**2 for x in w.tolist()]) for w in (self.lambda0, self.lambda1))

    def ensemble(self, k: int) -> QubitEnsemble:
        """Row k as an ensemble, for the scalar forms."""
        return QubitEnsemble(self.lambda0[k], self.lambda1[k], self.a[k], self.b[k])


def average_state(ens: QubitEnsemble) -> np.ndarray:
    """Bloch vector c = lambda0 a + lambda1 b of the ensemble average state."""
    return ens.lambda0 * ens.a + ens.lambda1 * ens.b


def holevo_chi(ens) -> float | np.ndarray:
    """Holevo bound chi = S(avg) - lambda0 S(a) - lambda1 S(b), in bits.

    Nonnegative by entropy concavity and at most h(lambda0); tiny negative
    round-off is clamped to 0.  ens is a QubitEnsemble, or a block of
    ensembles (_EnsembleArrays) whose entry k has the bits of ensemble k's.

    Each entropy is h((1 + |r|)/2) of a norm clamped to 1, as
    von_neumann_entropy computes it, and the three of a row are combined in
    the same order, so the values are those of the scalar formula.
    """
    if not isinstance(ens, _EnsembleArrays):
        return float(holevo_chi(_EnsembleArrays.of([ens]))[0])
    norms = np.sqrt(np.array([_row_dot(v, v) for v in (ens.average(), ens.a, ens.b)]))
    s_c, s_a, s_b = binary_entropy((1.0 + np.minimum(norms, 1.0)) / 2.0)
    chi = s_c - ens.lambda0 * s_a - ens.lambda1 * s_b
    # max(chi, 0.0), which keeps a -0.0 as np.maximum does not.
    return np.where(0.0 > chi, 0.0, chi)


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
