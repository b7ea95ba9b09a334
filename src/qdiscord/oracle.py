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
post-measurement purity), shares one grid and is polished in lockstep: each
golden-section step evaluates every live row's new point in one vectorised
call, through the line-search kernel the in-plane optimizer also uses.  The
tangent frames and accepted moves stay row by row, so every row gets the
bits of a search on its own; brute_force_accessible and brute_force_geo are
the one-row case.
"""

from __future__ import annotations

import numpy as np

from .discord import OptimizationResult, _any_perpendicular, _golden_lockstep, stationarity_residual
from .ensemble import QubitEnsemble
from .geodiscord import ensemble_purity, geo_stationarity_residual
from .measurement import (
    _conditional_entropy,
    _unit_axes,
    canonical_axis,
    classical_mutual_information,
    post_measurement_purity,
)
from .qstate import binary_entropy

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


def _row_constants(acc_ensembles, geo_ensembles):
    """Per-row constants of the objectives, computed as the public ones compute them.

    Rows are the mutual-information rows, then the purity rows.  The former
    take the half weights and h(lambda0), the latter the squared weights
    halved; the number of mutual-information rows comes last.
    """
    ensembles = [*acc_ensembles, *geo_ensembles]
    a = np.array([ens.a for ens in ensembles])
    b = np.array([ens.b for ens in ensembles])
    half0 = np.array([0.5 * ens.lambda0 for ens in acc_ensembles])
    half1 = np.array([0.5 * ens.lambda1 for ens in acc_ensembles])
    h0 = np.array([binary_entropy(ens.lambda0) for ens in acc_ensembles])
    sq0 = np.array([0.5 * ens.lambda0**2 for ens in geo_ensembles])
    sq1 = np.array([0.5 * ens.lambda1**2 for ens in geo_ensembles])
    return a, b, half0, half1, h0, sq0, sq1, len(acc_ensembles)


def _row_values(n, a, b, half0, half1, h0, sq0, sq1, split):
    """Row k's objective at the axis n[k], bit for bit as the public objective."""
    m = _unit_axes(n)[:, None, :]
    ta, tb = (m @ a[:, :, None])[:, 0, 0], (m @ b[:, :, None])[:, 0, 0]
    out = np.empty(ta.shape)
    if split:
        out[:split] = np.maximum(h0 - _conditional_entropy(half0, half1, ta[:split], tb[:split]), 0.0)
    if split < out.size:
        tg, ug = ta[split:], tb[split:]
        out[split:] = sq0 * (1.0 + tg * tg) + sq1 * (1.0 + ug * ug)
    return out


def _live_constants(consts, live):
    """The constants of the rows live, an increasing index array."""
    a, b, half0, half1, h0, sq0, sq1, split = consts
    acc, geo = live[live < split], live[live >= split] - split
    return a[live], b[live], half0[acc], half1[acc], h0[acc], sq0[geo], sq1[geo], acc.size


def _polish_rows(start: np.ndarray, consts, halfwidth: float):
    """Golden-section line searches along the two tangent great circles, per row.

    Each row gets a single local polish around its best grid point: up to
    _POLISH_SWEEPS sweeps, re-deriving the tangent frame after each accepted
    move, with no re-gridding.  Both line searches of a sweep run for every
    live row at once.
    """
    p = np.array(start, dtype=float)
    best = _row_values(p, *consts)
    evals = np.ones(len(p), dtype=int)
    live = np.arange(len(p))
    for _ in range(_POLISH_SWEEPS):
        row_consts = _live_constants(consts, live)
        bracket = np.full(live.size, halfwidth)
        gained = np.zeros(live.size)
        t1 = np.array([_any_perpendicular(p[k]) for k in live])
        t2 = np.array([np.cross(p[k], t) for k, t in zip(live, t1)])
        for t in (t1, t2):
            center = p[live]
            alpha, vals, used = _golden_lockstep(
                lambda x: _row_values(
                    np.cos(x)[:, None] * center + np.sin(x)[:, None] * t, *row_consts
                ),
                -bracket,
                bracket,
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

    Each is a row.  The rows share one grid, and each takes its argmax there
    with its public objective; their polishes then run in lockstep.  A row's
    result does not depend on the batch.  Returns the two lists of results.
    """
    grid = fibonacci_sphere(grid_size)
    rows = [(ens, False) for ens in acc_ensembles] + [(ens, True) for ens in geo_ensembles]
    start, floor = [], []
    for ens, geo in rows:
        objective = post_measurement_purity if geo else classical_mutual_information
        vals = np.asarray(objective(ens, grid), dtype=float)
        k = int(np.argmax(vals))  # ties resolve to the lowest point index
        start.append(grid[k])
        floor.append(float(vals[k]))
        del vals  # so that two rows' grid values are never alive at once
    consts = _row_constants(acc_ensembles, geo_ensembles)
    halfwidth = _BRACKET_SCALE / np.sqrt(grid_size)
    axes, best, polish_evals = _polish_rows(np.array(start), consts, halfwidth)
    out = []
    for (ens, geo), axis, value, lowest, used in zip(rows, axes, best, floor, polish_evals):
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
