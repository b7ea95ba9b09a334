"""Dense full-sphere search: the brute-force cross-check for both optimizers.

The grid deliberately never assumes the span{a, b} plane reduction used by
the fast paths; checking that reduction is this module's whole purpose.  A
Fibonacci lattice keeps the sampling deterministic, so disagreements
reproduce exactly.

Grid resolution: the worst nearest-neighbor spacing of the lattice is below
about 3.6/sqrt(N) radians, so the unpolished grid maximum of a smooth
objective with curvature kappa sits within roughly kappa * 6.5/N of the true
optimum.  The local polish (alternating golden-section line searches along
the two tangent great circles around the best grid point) tightens that to
optimizer precision for every objective used here.
"""

from __future__ import annotations

import numpy as np

from .discord import OptimizationResult, _any_perpendicular, _golden_max, stationarity_residual
from .ensemble import QubitEnsemble
from .geodiscord import ensemble_purity, geo_stationarity_residual
from .measurement import canonical_axis, classical_mutual_information, post_measurement_purity

FULL_SPHERE_METHOD = "full-sphere grid + refine"
GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
# Polish bracket half-width, comfortably above the worst grid spacing.
_BRACKET_SCALE = 5.0
_POLISH_SWEEPS = 3


def fibonacci_sphere(count: int) -> np.ndarray:
    """Fibonacci lattice of count unit vectors, shape (count, 3), pole to pole.

    Including the poles makes count=2 the antipodal pair; spacing between
    neighbors shrinks as 1/sqrt(count).
    """
    if count < 2:
        raise ValueError("a sphere grid needs at least 2 points")
    i = np.arange(count, dtype=float)
    z = 1.0 - 2.0 * i / (count - 1.0)
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = i * GOLDEN_ANGLE
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _polish_pair(objective, start: np.ndarray, halfwidth: float):
    """Golden-section line searches along the two tangent great circles.

    A single local polish around the best grid point, re-deriving the
    tangent frame after each accepted move; no re-gridding.
    """
    p = np.array(start, dtype=float)
    best = float(objective(p))
    evals = 1
    for _ in range(_POLISH_SWEEPS):
        gained = 0.0
        t1 = _any_perpendicular(p)
        t2 = np.cross(p, t1)
        for t in (t1, t2):
            alpha, val, used = _golden_max(
                lambda a, axis=t, center=p: float(
                    objective(np.cos(a) * center + np.sin(a) * axis)
                ),
                -halfwidth,
                halfwidth,
            )
            evals += used
            if val > best:
                gained = max(gained, val - best)
                p = np.cos(alpha) * p + np.sin(alpha) * t
                p /= np.linalg.norm(p)
                best = val
        if gained < 1e-15:
            break
    return p, best, evals


def _grid_maximize(objective, grid_size: int):
    grid = fibonacci_sphere(grid_size)
    vals = np.asarray(objective(grid), dtype=float)
    k = int(np.argmax(vals))  # ties resolve to the lowest point index
    halfwidth = _BRACKET_SCALE / np.sqrt(grid_size)
    axis, value, polish_evals = _polish_pair(objective, grid[k], halfwidth)
    return canonical_axis(axis), max(value, float(vals[k])), grid_size + polish_evals


def brute_force_accessible(ens: QubitEnsemble, grid_size: int = 10_000) -> OptimizationResult:
    """Grid-plus-polish maximum of the classical mutual information."""
    objective = lambda n: classical_mutual_information(ens, n)
    axis, value, evals = _grid_maximize(objective, grid_size)
    return OptimizationResult(
        n_opt=axis,
        value=float(value),
        stationarity_residual=stationarity_residual(ens, axis),
        evaluations=evals,
        method=FULL_SPHERE_METHOD,
    )


def brute_force_geo(ens: QubitEnsemble, grid_size: int = 10_000) -> OptimizationResult:
    """Grid-plus-polish purity deficit (the geometric discord, brute force)."""
    objective = lambda n: post_measurement_purity(ens, n)
    axis, best_purity, evals = _grid_maximize(objective, grid_size)
    deficit = max(ensemble_purity(ens) - float(best_purity), 0.0)
    return OptimizationResult(
        n_opt=axis,
        value=deficit,
        stationarity_residual=geo_stationarity_residual(ens, axis),
        evaluations=evals,
        method=FULL_SPHERE_METHOD,
    )
