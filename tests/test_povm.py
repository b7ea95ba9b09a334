"""No rank-1 POVM with 3 or 4 outcomes extracts more than the projective optimum.

Davies (IEEE Trans. Inf. Theory 24, 596, 1978) shows that rank-1 POVMs with
at most d^2 = 4 outcomes reach the accessible information of a qubit
ensemble, while the library searches projective (2-outcome) measurements
only.  Here scipy's Nelder-Mead maximizes the mutual information over
3- and 4-outcome rank-1 POVMs, from the projective optimum and from random
starts, on random, pure and low-purity unequal-weight ensembles.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from qdiscord import QubitEnsemble, accessible_information, random_ensemble, random_pure_pair

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])



def _povm(params):
    """Rank-1 POVM vectors y_k = S^(-1/2) x_k with S = sum_k x_k x_k^dagger.

    params holds Re x_k0, Im x_k0, Re x_k1, Im x_k1 for each k; the elements
    y_k y_k^dagger sum to the identity for every params with S invertible.
    S^(-1/2) = tau (S + delta)^(-1), with delta = sqrt(det S) and
    tau = sqrt(tr S + 2 delta), the closed form of a 2x2 square root.
    """
    x = [(complex(*params[i : i + 2]), complex(*params[i + 2 : i + 4])) for i in range(0, len(params), 4)]
    s00 = sum(abs(u) ** 2 for u, _ in x)
    s11 = sum(abs(v) ** 2 for _, v in x)
    s01 = sum(u * v.conjugate() for u, v in x)
    delta = math.sqrt(s00 * s11 - abs(s01) ** 2)
    tau = math.sqrt(s00 + s11 + 2.0 * delta)
    m00, m11 = s00 + delta, s11 + delta
    c = tau / (m00 * m11 - abs(s01) ** 2)
    return [(c * (m11 * u - s01 * v), c * (m00 * v - s01.conjugate() * u)) for u, v in x]


def _information(params, weights, bloch):
    """Mutual information in bits between the label and the POVM's outcome.

    The probability of outcome k for the state (1 + v.sigma)/2 is
    y_k^dagger (1 + v.sigma) y_k / 2 = (|y_k|^2 + v.m_k)/2, m_k the
    unnormalized Bloch vector of y_k.
    """
    joint = []
    for u, v in _povm(params):
        w = u.conjugate() * v
        m = (2.0 * w.real, 2.0 * w.imag, abs(u) ** 2 - abs(v) ** 2)
        norm = abs(u) ** 2 + abs(v) ** 2
        p = [max(0.5 * (norm + sum(a * b for a, b in zip(r, m))), 0.0) for r in bloch]
        joint.append([lam * q for lam, q in zip(weights, p)])
    outcome = [sum(col) for col in joint]
    h = -sum(q * math.log2(q) for q in outcome if q > 0.0)
    h_cond = -sum(q * math.log2(q / lam) for col in joint for q, lam in zip(col, weights) if q > 0.0)
    return h - h_cond


def _ket(n):
    """The +1 eigenvector of n.sigma."""
    _, vecs = np.linalg.eigh(np.tensordot(n, PAULI, axes=1))
    return vecs[:, 1]


def _starts(rng, n_opt, outcomes, restarts):
    """The projective optimum with small extra elements, then random vectors."""
    plus, minus = _ket(n_opt), _ket(-n_opt)
    extra = 1e-2 * (rng.normal(size=(outcomes - 2, 2)) + 1j * rng.normal(size=(outcomes - 2, 2)))
    x = np.vstack([plus, minus, extra])
    yield np.column_stack([x.real.ravel(), x.imag.ravel()]).ravel()
    for _ in range(restarts):
        yield rng.normal(size=4 * outcomes)


def _ensembles(rng):
    """Three random ensembles, two pure pairs, and two low-purity pairs with weights 0.1 and 0.25."""
    out = [random_ensemble(rng) for _ in range(3)] + [random_pure_pair(rng) for _ in range(2)]
    for l0 in (0.1, 0.25):
        d = rng.normal(size=(2, 3))
        norms = rng.uniform(0.05, 0.3, size=2)
        a, b = d / np.linalg.norm(d, axis=1, keepdims=True) * norms[:, None]
        out.append(QubitEnsemble(l0, 1.0 - l0, a, b))
    return out


@pytest.mark.parametrize("outcomes", [3, 4])
def test_no_povm_beats_the_projective_optimum(outcomes):
    rng = np.random.default_rng(1978)
    for ens in _ensembles(rng):
        acc = accessible_information(ens)
        weights = (ens.lambda0, ens.lambda1)
        bloch = (ens.a.tolist(), ens.b.tolist())
        best = -np.inf
        for x0 in _starts(rng, acc.n_opt, outcomes, restarts=2):
            res = minimize(
                lambda x: -_information(x, weights, bloch),
                x0,
                method="Nelder-Mead",
                options={"maxiter": 3000, "maxfev": 3000, "xatol": 1e-8, "fatol": 1e-14},
            )
            best = max(best, -res.fun)
        # The search reaches the projective optimum and never beats it.
        assert best >= acc.value - 1e-6
        assert best - acc.value <= 1e-9
