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

A batch of rows, each one ensemble with one objective (mutual information or
post-measurement purity), shares one grid, checked once per batch; each row
reads its grid values from its row of measurement._row_objective, bit for
bit as its public objective.  The rows are then polished in lockstep: each
golden-section step evaluates every live row's new point in one vectorised
call of the same row kernel, through the line-search kernel the in-plane
optimizer also uses.  The tangent frames and accepted moves stay row by row,
so every row gets the bits of a search on its own; brute_force_accessible
and brute_force_geo are the one-row case.
"""

from __future__ import annotations

import numpy as np

from .discord import (
    OptimizationResult,
    _any_perpendicular,
    _golden_lockstep,
    _plane_axes,
    stationarity_residual,
)
from .ensemble import QubitEnsemble, _EnsembleArrays
from .geodiscord import ensemble_purity, geo_stationarity_residual
from .measurement import _row_constants, _row_objective, _unit_axes, canonical_axis

FULL_SPHERE_METHOD = "full-sphere grid + refine"
GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
# Polish bracket half-width, comfortably above the worst grid spacing.
_BRACKET_SCALE = 5.0
_POLISH_SWEEPS = 3
# A row ends its sweeps once a sweep gains less than this.
_MIN_GAIN = 1e-15


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


def _polish_rows(start: np.ndarray, consts, halfwidth: float):
    """Golden-section line searches along the two tangent great circles, per row.

    Each row gets a single local polish around its best grid point: up to
    _POLISH_SWEEPS sweeps, re-deriving the tangent frame after each accepted
    move, with no re-gridding.  Both line searches of a sweep run for every
    live row at once.
    """
    p = np.array(start, dtype=float)
    best = _row_objective(consts)(_unit_axes(p))
    evals = np.ones(len(p), dtype=int)
    live = np.arange(len(p))
    for _ in range(_POLISH_SWEEPS):
        objective = _row_objective(tuple(c[live] for c in consts))
        bracket = np.full(live.size, halfwidth)
        gained = np.zeros(live.size)
        t1 = np.array([_any_perpendicular(p[k]) for k in live])
        t2 = np.array([np.cross(p[k], t) for k, t in zip(live, t1)])
        for t in (t1, t2):
            center = p[live]
            alpha, vals, used = _golden_lockstep(
                lambda x: objective(_plane_axes(x, center, t)), -bracket, bracket
            )
            evals[live] += used
            for j in np.flatnonzero(vals > best[live]):
                k = live[j]
                gained[j] = max(gained[j], vals[j] - best[k])
                q = np.cos(alpha[j]) * p[k] + np.sin(alpha[j]) * t[j]
                p[k] = q / np.linalg.norm(q)
                best[k] = vals[j]
        live = live[gained >= _MIN_GAIN]
        if not live.size:
            break
    return p, best, evals


def _brute_force_batch(acc_ensembles, geo_ensembles, grid_size: int = 10_000):
    """brute_force_accessible of every acc_ensembles entry, brute_force_geo of every geo one.

    Each is a row.  The rows share one grid, checked once, and each takes its
    argmax there with its row of the row kernel; their polishes then run in
    lockstep.  A row's result does not depend on the batch.  Returns the two
    lists of results.
    """
    grid = fibonacci_sphere(grid_size)
    unit = _unit_axes(grid)
    ensembles = list(acc_ensembles) + list(geo_ensembles)
    purity = np.arange(len(ensembles)) >= len(acc_ensembles)
    consts = _row_constants(_EnsembleArrays.of(ensembles), purity)
    start, floor = [], []
    for i in range(len(ensembles)):
        vals = _row_objective(tuple(c[i : i + 1] for c in consts))(unit)
        k = int(np.argmax(vals))  # ties resolve to the lowest point index
        start.append(grid[k])
        floor.append(float(vals[k]))
        del vals  # so that two rows' grid values are never alive at once
    halfwidth = _BRACKET_SCALE / np.sqrt(grid_size)
    axes, best, polish_evals = _polish_rows(np.array(start), consts, halfwidth)
    out = []
    for ens, geo, axis, value, lowest, used in zip(
        ensembles, purity, axes, best, floor, polish_evals
    ):
        axis = canonical_axis(axis)
        value = max(float(value), lowest)
        if geo:
            value = max(ensemble_purity(ens) - value, 0.0)
            residual = geo_stationarity_residual(ens, axis)
        else:
            residual = stationarity_residual(ens, axis)
        out.append(
            OptimizationResult(
                n_opt=axis,
                value=value,
                stationarity_residual=residual,
                evaluations=grid_size + int(used),
                method=FULL_SPHERE_METHOD,
            )
        )
    return out[: len(acc_ensembles)], out[len(acc_ensembles) :]


def brute_force_accessible(ens: QubitEnsemble, grid_size: int = 10_000) -> OptimizationResult:
    """Grid-plus-polish maximum of the classical mutual information."""
    return _brute_force_batch([ens], [], grid_size)[0][0]


def brute_force_geo(ens: QubitEnsemble, grid_size: int = 10_000) -> OptimizationResult:
    """Grid-plus-polish purity deficit (the geometric discord, brute force)."""
    return _brute_force_batch([], [ens], grid_size)[1][0]
