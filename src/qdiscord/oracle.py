"""Dense full-sphere search: the brute-force cross-check for both optimizers.

The grid deliberately never assumes the span{a, b} plane reduction used by
the fast paths; checking that reduction is this module's whole purpose.  A
Fibonacci lattice keeps the sampling deterministic, so disagreements
reproduce exactly.

Grid resolution: the worst nearest-neighbor spacing of the lattice is below
about 3.6/sqrt(N) radians, so the unpolished grid maximum of a smooth
objective with curvature kappa sits within roughly kappa * 6.5/N of the true
optimum.  The local polish tightens that to optimizer precision for every
objective used here.  It is a derivative-free trust-region method (Conn,
Gould and Toint, Trust-Region Methods, 2000) on the tangent plane of the
best point so far: an 8-point stencil of objective values gives the
central-difference gradient and Hessian of a quadratic model, whose step,
kept inside the trust radius, is tried, and the radius grows after a step
that gains and shrinks after one that does not.  It uses only differences
of objective values, never the plane reduction or the stationarity
condition, and smooth rows reach round-off in about six rounds.

A batch of rows, each one ensemble with one objective (mutual information or
post-measurement purity), shares one grid.  The grid is built and checked
once per grid size in a process, one size at a time (_grid), so up to 48 MB
stays alive after a batch at 10^6 points.  Each row reads its grid values
from its row of measurement._RowObjective, bit for bit as its public
objective.  The kernel takes a grid in pieces of at most _PASS_AXES points,
so the default 10^4-point grid in one pass, and each row writes its values
into one array that the batch owns (8 MB at 10^6 points); the passes keep
their intermediates in the kernel's working set (about 1.8 MB), where one
pass over the whole 10^6 grid held some 170 MB of temporaries.  A verify
at the 10^6 grid peaks about 70 MB above one at the default grid.  The
rows are then polished in lockstep: a
round evaluates every live row's stencil in one call of the same row kernel
and every row's step in one more, and a row that stops is frozen.  Every
operation is row by row, so each row gets the bits of a polish on its own.
The rows come as a block (_EnsembleArrays) to brute_force_batch, whose
result is one OptimizationResult of columns, as for the measures;
brute_force_accessible and brute_force_geo are its one-row case.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .discord import OptimizationResult, _first_row, _stationarity_rows
from .ensemble import QubitEnsemble, _EnsembleArrays
from .geodiscord import _geo_defect_rows, ensemble_purity
from .measurement import _cross, _normalized, _row_constants, _RowObjective, _unit_axes, canonical_axis

FULL_SPHERE_METHOD = "full-sphere grid + refine"
GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
# The first trust radius times sqrt(grid size), comfortably above the worst
# grid spacing.
_RADIUS_SCALE = 5.0
# Stencil spacing bounds: central differences lose to truncation above the
# upper bound and to round-off below the lower one.
_MIN_SPACING, _MAX_SPACING = 1e-5, 1e-3
# A row stops once its step is shorter than this, or after _MAX_ROUNDS rounds.
_MIN_STEP = 1e-10
_MAX_ROUNDS = 40
_TINY = np.finfo(float).tiny
# The stencil, in units of the spacing along (t1, t2).
_STENCIL = np.array(
    [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
)


def fibonacci_sphere(count: int) -> np.ndarray:
    """Fibonacci lattice of count unit vectors, shape (count, 3), pole to pole.

    Including the poles makes count=2 the antipodal pair; spacing between
    neighbors shrinks as 1/sqrt(count).
    """
    try:
        count = operator.index(count)
    except TypeError:
        raise TypeError(f"a sphere grid needs an integer count of points, got {count!r}") from None
    if count < 2:
        raise ValueError(f"a sphere grid needs at least 2 points, got {count}")
    i = np.arange(count, dtype=float)
    z = 1.0 - 2.0 * i / (count - 1.0)
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = i * GOLDEN_ANGLE
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


@functools.lru_cache(maxsize=1)
def _grid(grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """fibonacci_sphere(grid_size) and its _unit_axes form, both read-only.

    Cached for the last grid size asked for, so a process builds and checks
    a grid once however many batches share it.
    """
    grid = fibonacci_sphere(grid_size)
    unit = _unit_axes(grid)
    grid.flags.writeable = unit.flags.writeable = False
    return grid, unit


def _tangent_frames(p):
    """An orthonormal tangent pair (t1, t2) at every row of p, shape (N, 3) each.

    t1 is the part of the coordinate axis of p's smallest component normal
    to p, normalized, and t2 = p x t1.
    """
    rows = np.arange(len(p))
    k = np.argmin(np.abs(p), axis=1)
    w = -p[rows, k][:, None] * p
    w[rows, k] += 1.0
    t1 = _normalized(w)
    return t1, _cross(p, t1)


def _model_steps(f, f0, h, radius):
    """Each row's step along (t1, t2) from its stencil values f, shape (N, 8).

    The gradient g and Hessian H of the quadratic model are central
    differences of spacing h around the centre value f0.  The step solves
    (sigma - H) s = g with sigma = max(0, mu + |g|/radius), mu the larger
    eigenvalue of H.  That is the Newton step where the model is concave and
    the shift is 0; elsewhere the shift turns the step toward the gradient
    and keeps it at most the radius long, and it follows a curved ridge
    where a plain gradient step would zig-zag across it.
    """
    fx, fxm, fy, fym, fpp, fpm, fmp, fmm = f.T
    g1, g2 = (fx - fxm) / (2.0 * h), (fy - fym) / (2.0 * h)
    hh = h * h
    h11 = (fx - 2.0 * f0 + fxm) / hh
    h22 = (fy - 2.0 * f0 + fym) / hh
    h12 = (fpp - fpm - fmp + fmm) / (4.0 * hh)
    half = 0.5 * (h11 - h22)
    mu = 0.5 * (h11 + h22) + np.sqrt(half * half + h12 * h12)
    sigma = np.maximum(mu + np.sqrt(g1 * g1 + g2 * g2) / radius, 0.0)
    a11, a22 = sigma - h11, sigma - h22
    v1, v2 = a22 * g1 + h12 * g2, h12 * g1 + a11 * g2
    # The step is v/det.  Dividing by |v|/radius instead, where that is
    # larger, keeps it inside the radius when round-off leaves the shifted
    # matrix singular, and the floor keeps 0/0 off a zero gradient.
    det = a11 * a22 - h12 * h12
    scale = np.maximum(np.maximum(det, np.sqrt(v1 * v1 + v2 * v2) / radius), _TINY)
    return v1 / scale, v2 / scale


def _polish_rows(start: np.ndarray, floor: np.ndarray, consts, radius: float):
    """Trust-region polish of every row from its best grid point.

    A row holds a point p with its value (floor at the start) and a trust
    radius r.  Each round evaluates every live row's 8-point stencil
    p +/- h t1, p +/- h t2, p +/- h t1 +/- h t2 (normalized; (t1, t2) the
    tangent frame at p, h = r clipped to [_MIN_SPACING, _MAX_SPACING]) in
    one call of the row kernel, takes the model step from it and evaluates
    the step's end in one more call.  The row moves to the best of these
    nine points when it beats the row's value.  r becomes twice the step
    after a step that gained and a quarter of it after one that did not,
    and at least h after a move to a stencil point.  A row stops once its
    step is below _MIN_STEP and no stencil point moved it, or after
    _MAX_ROUNDS rounds; stopped rows are frozen, so no row depends on the
    others.  The live rows' row kernel is built again only when a row stops,
    and the rounds end once no row is live, an empty block's before the first.
    """
    p, best = np.array(start, dtype=float), np.array(floor, dtype=float)
    radii = np.full(len(p), radius)
    evals = np.zeros(len(p), dtype=int)
    live = np.arange(len(p))
    objective = _RowObjective(consts)
    for _ in range(_MAX_ROUNDS):
        if not live.size:
            break
        q, f0, r = p[live], best[live], radii[live]
        t1, t2 = _tangent_frames(q)
        h = np.clip(r, _MIN_SPACING, _MAX_SPACING)
        offsets = _STENCIL[:, :1] * t1[:, None] + _STENCIL[:, 1:] * t2[:, None]
        stencil = _normalized(q[:, None] + h[:, None, None] * offsets)
        # The public objectives squash their axes once more; so does the kernel here.
        f = objective(_normalized(stencil))
        s1, s2 = _model_steps(f, f0, h, r)
        end = _normalized(q + s1[:, None] * t1 + s2[:, None] * t2)
        f_end = objective(_normalized(end))
        evals[live] += len(_STENCIL) + 1
        points = np.concatenate((stencil, end[:, None]), axis=1)
        vals = np.concatenate((f, f_end[:, None]), axis=1)
        won = np.argmax(vals, axis=1)
        pick = np.arange(len(won)), won
        moved = vals[pick] > f0
        by_stencil = moved & (won < len(_STENCIL))
        p[live] = np.where(moved[:, None], points[pick], q)
        best[live] = np.where(moved, vals[pick], f0)
        step = np.sqrt(s1 * s1 + s2 * s2)
        r = np.where(f_end > f0, 2.0 * step, 0.25 * step)
        radii[live] = np.where(by_stencil, np.maximum(r, h), r)
        kept = (step >= _MIN_STEP) | by_stencil
        if not kept.all():
            live = live[kept]
            objective = _RowObjective(tuple(c[live] for c in consts))
    return p, best, evals


def brute_force_batch(rows: _EnsembleArrays, purity, grid_size: int = 10_000) -> OptimizationResult:
    """brute_force_geo of every purity row of a block, brute_force_accessible of every other.

    purity is one flag or one per row, each read as a bool, so one call can
    check both measures of a set of ensembles, as verify does.  The rows
    share the cached grid of _grid, and each takes its argmax there with its
    row of the row kernel; their polishes then run in lockstep.  Row k of
    the result has the bits of the one-row call.
    """
    purity = np.asarray(purity, dtype=bool)
    if purity.shape not in ((), (len(rows),)):
        raise ValueError(f"purity must be one flag or one per row ({len(rows)}), got shape {purity.shape}")
    grid, unit = _grid(grid_size)
    consts = _row_constants(rows, purity)
    start, floor = np.empty((len(rows), 3)), np.empty(len(rows))
    vals = np.empty(grid_size)  # every row's grid values in turn
    for i in range(len(rows)):
        _RowObjective(tuple(c[i : i + 1] for c in consts))(unit, out=vals)
        k = int(np.argmax(vals))  # ties resolve to the lowest point index
        start[i], floor[i] = grid[k], vals[k]
    axes, value, polish_evals = _polish_rows(start, floor, consts, _RADIUS_SCALE / np.sqrt(grid_size))
    n_opt = canonical_axis(axes)
    n = _normalized(n_opt)
    # max(purity - value, 0.0) on the purity rows.
    deficit = ensemble_purity(rows) - value
    return OptimizationResult(
        n_opt=n_opt,
        value=np.where(purity, np.where(0.0 > deficit, 0.0, deficit), value),
        stationarity_residual=np.where(purity, _geo_defect_rows(rows, n), _stationarity_rows(rows, n)),
        evaluations=grid_size + polish_evals,
        method=FULL_SPHERE_METHOD,
        degenerate=np.zeros(len(rows), dtype=bool),
    )


def brute_force_accessible(ens: QubitEnsemble, grid_size: int = 10_000) -> OptimizationResult:
    """Grid-plus-polish maximum of the classical mutual information."""
    return _first_row(brute_force_batch(ens._rows, False, grid_size))


def brute_force_geo(ens: QubitEnsemble, grid_size: int = 10_000) -> OptimizationResult:
    """Grid-plus-polish purity deficit (the geometric discord, brute force)."""
    return _first_row(brute_force_batch(ens._rows, True, grid_size))
