"""Two-outcome projective measurements on the qubit and what they extract.

A measurement is a unit axis n generating the projectors (1 +/- n.sigma)/2.
The post-measurement conditional states are diagonal in the label basis, so
outcome statistics are ordinary discrete distributions and every quantity
here is exact scalar arithmetic.

All scalar maps broadcast over a trailing (..., 3) batch of axes; this is
what keeps the dense sphere-grid oracle cheap.

Both objectives, mutual information and post-measurement purity, are
written once, in one row kernel: _row_constants builds the per-row
constants of a block of ensembles (the struct of arrays of the ensemble
module) with a purity flag per row, or one flag for the whole block, as
the in-plane search and the public objectives pass it, or those of a
lone ensemble from its Python floats (_row_constants_one), and
_RowObjective turns them into the kernel of those rows, a map to each
row's objective.  The objective depends on
an axis n only through the projections (a.n, b.n), so the kernel's core
maps projections (t_a, t_b) per row to the objective, and it has two
entries.  The axis form takes a batch of unit axes per row and projects
them (m @ a, m @ b) before the core: the public objectives are its
one-row case, or a block's rows at a batch of axes each, the discord
module's in-plane polish evaluates one axis per row, and the oracle each
row's grid and the stencils and steps of its polish.  The projection form takes the
projections themselves: the discord module's 720-point scan forms them
from each row's plane, cos(phi) (v.u1) + sin(phi) (v.u2), and builds no
axes.  The two entries share the kernel's per-row columns and term flags,
built once, so a lone search takes the scan and the final value from one
kernel.

One pass of the kernel evaluates at most _PASS_AXES axes or projection
pairs: twenty rows of the scan, or an oracle row's grid at the default
10^4 points.  A larger batch is evaluated in pieces written into one
output.  The pieces are whole rows where a row's batch fits the budget,
else equal pieces of one row's batch, so each piece does the arithmetic of
the whole pass on its part, and no piece holds a single axis: BLAS would
take the axis form's projections through dot instead of gemv, which moves
last bits.

A pass allocates nothing of its own.  Its six joint and outcome terms,
their logs, the mask of the zero terms, the axis form's projections and
the scan's projections and values are written into a working set
(_WorkingSet, about 1.8 MB at the budget), which a thread allocates on its
first pass, grows only for a larger pass, and reuses on every pass after.
Only a call's result goes to a new array, or to the caller's own, so it
outlives the next pass.  Fresh temporaries would cost page faults.  The C
allocator hands the free top of its heap back to the system once it
passes a threshold, which glibc starts at 128 KB and raises to twice the
largest mapped block it has freed, so whether a call's pages survive
depends on what the process did before.  A call whose temporaries pass it
faults every page of them in again on the next call: with fresh
temporaries, passes of this budget took about 305 minor page faults a
warmed 20-row sweep call and 405 a 2-trial verify call, and 2 880-axis
passes about 120 a sweep call where the package was loaded from bytecode.
The working set takes under one either way.  It is held per thread, not
per call, because a block that every call allocates and frees is exactly
what that threshold may hand back, and not per process, so that two
threads evaluating at once never share an intermediate.  What numpy still
allocates itself are the buffers of a step with a broadcast operand, such
as a per-row constant: up to 64 KB each, freed within the step.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .ensemble import QubitEnsemble, _EnsembleArrays
from .qstate import _binary_entropy, _neg_xlog2x, _neg_xlog2x_floats, as_bloch

# Accepted deviation from unit norm before an axis is rejected outright.
UNIT_TOL = 1e-9
# Components within this of zero do not decide the sign of a representative.
_SIGN_TOL = 1e-12
# The most axes (or projection pairs) one pass of the row kernel evaluates: twenty 720-point scan rows.
_PASS_AXES = 14_400
# The working set keeps the views of at most this many pass shapes.
_CACHED_SHAPES = 64


def canonical_axis(n) -> np.ndarray:
    """Antipode-normalize an axis: sign fixed so n_z > 0, then n_x, then n_y.

    An axis and its antipode define the same measurement up to outcome
    relabeling; this picks the deterministic representative.  Takes one
    axis of shape (3,) or a block of shape (N, 3), each row of which gets
    the bits of its one-axis call.
    """
    n = np.asarray(n, dtype=float)
    if n.ndim == 2:
        m = n[:, [2, 0, 1]]
        # The first component, in the order above, beyond _SIGN_TOL (or z).
        lead = m[np.arange(len(m)), np.argmax(np.abs(m) > _SIGN_TOL, axis=1)]
        return np.where((lead < -_SIGN_TOL)[:, None], -n, n)
    for k in (2, 0, 1):
        if n[k] > _SIGN_TOL:
            return n.copy()
        if n[k] < -_SIGN_TOL:
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
    norms = _norms(n)
    # Written so that NaN and inf norms fail the test too.
    if not (np.abs(norms - 1.0) <= UNIT_TOL).all():
        raise ValueError("measurement axes must be unit vectors")
    return n / norms


def _norms(n):
    # Bit for bit np.linalg.norm(n, axis=-1, keepdims=True), without its per-call overhead.
    return np.sqrt((n * n).sum(axis=-1, keepdims=True))


def _normalized(n):
    """The squash of _unit_axes without its checks, for axes the caller built."""
    return n / _norms(n)


def _cross(u, v):
    """Cross product of two 3-vectors or (N, 3) arrays: numpy's cross to the bit, without its per-call overhead."""
    (u0, u1, u2), (v0, v1, v2) = u.T, v.T
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=-1)


def _perp_parts(ens: QubitEnsemble, n):
    """The checked unit axis n, a.n, b.n and the parts of a, b normal to n."""
    return _unit_perp_parts(ens, _unit_axes(as_bloch(n)))


def _unit_perp_parts(ens: QubitEnsemble, n):
    """_perp_parts without the checks, for a unit 3-vector axis the caller built."""
    an, bn = float(ens.a @ n), float(ens.b @ n)
    return n, an, bn, ens.a - an * n, ens.b - bn * n


def _conditional_entropy(half0, half1, ta, tb, work=None):
    """S(n) from the half weights lambda_i/2 and the projections a.n, b.n.

    The one formula behind conditional_entropy and the information term of
    the row kernel.  ta and tb share one shape of at least one dimension,
    which the half weights broadcast against.  The six
    -x log2 x terms go through one call and are summed in a fixed order, so
    every caller gets the same bits for the same axis.  work, the joint
    terms, their logs and the zero mask of a pass (_WorkingSet.views),
    holds every intermediate and the result, in the second joint row;
    without it they are allocated, and the result is an array of its own.
    """
    shape = (6,) + ta.shape
    j, logs, zero = work or (np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool))
    # Each step writes to an array that is not one of its inputs, and names
    # it as the ufunc's last positional argument: on a lone call's arrays an
    # in-place step, out= or an augmented assignment costs about twice as
    # much.  Rows: the joints (+, a), (-, a), (+, b), (-, b), then the
    # outcomes +, -.  1 - t is 1 + (-t) to the bit.
    np.add(ta, 1.0, logs[0])
    np.subtract(1.0, ta, logs[1])
    np.add(tb, 1.0, logs[2])
    np.subtract(1.0, tb, logs[3])
    np.multiply(logs[:2], half0, j[:2])
    np.multiply(logs[2:4], half1, j[2:4])
    np.add(j[:2], j[2:4], j[4:])
    t = _neg_xlog2x(j, logs, zero)
    # The joint terms are spent, so two of their rows take the sum in turn.
    np.add(t[0], t[1], j[0])
    np.add(j[0], t[2], j[1])
    np.add(j[1], t[3], j[0])
    np.subtract(j[0], t[4], j[1])
    np.subtract(j[1], t[5], j[0])
    return np.maximum(j[0], 0.0, out=j[1] if work else None)


def conditional_entropy(ens: QubitEnsemble, n):
    """Outcome-averaged entropy S(n) = p+ H(q(.|+)) + p- H(q(.|-)), in bits.

    Computed as H(joint) - H(outcome) over the four joint probabilities
    lambda_i (1 +/- v_i.n)/2, so zero-probability outcomes drop out without
    any special casing.  Broadcasts over axes of shape (..., 3).
    """
    n = _unit_axes(n)
    ta, tb = (np.reshape(n @ v, -1) for v in (ens.a, ens.b))
    out = _conditional_entropy(0.5 * ens.lambda0, 0.5 * ens.lambda1, ta, tb).reshape(n.shape[:-1])
    return float(out) if out.ndim == 0 else out


def classical_mutual_information(ens, n):
    """Mutual information h(lambda0) - S(n) between the label and the outcome.

    Bounded by the Holevo quantity for every axis.  Broadcasts like
    conditional_entropy.  ens may also be a block of N ensembles
    (_EnsembleArrays) with axes of shape (N, ..., 3), row k's at n[k]; each
    value has the bits of the one-ensemble call.
    """
    return _objective(ens, False, n)


class _WorkingSet(threading.local):
    """The row kernel's working set in one thread: the storage of every intermediate of a pass.

    Allocated on a thread's first pass and grown only for a larger pass
    than any before, so at most to _PASS_AXES points; every pass reuses it,
    and no pass allocates an intermediate.  One per thread, so two threads
    that evaluate at once do not share it.
    """

    def __init__(self):
        self.floats, self.flags = np.empty(0), np.empty(0, dtype=bool)
        self.cache = {}

    def views(self, shape):
        """The _Pass views for a pass of that shape.

        The next pass overwrites them, so nothing read after it may live
        here.  The views of the last few shapes are kept, as building them
        costs more than a lone call's pass saves by them.
        """
        views = self.cache.get(shape)
        if views is None:
            size = math.prod(shape)
            if self.floats.size < 15 * size:
                self.floats, self.flags = np.empty(15 * size), np.empty(6 * size, dtype=bool)
                self.cache.clear()
            elif len(self.cache) == _CACHED_SHAPES:
                self.cache.clear()
            f = self.floats
            projections = f[12 * size : 14 * size].reshape(2, *shape)
            views = self.cache[shape] = _Pass(
                f[: 6 * size].reshape(6, *shape),
                f[6 * size : 12 * size].reshape(6, *shape),
                self.flags[: 6 * size].reshape(6, *shape),
                projections,
                tuple(projections),
                tuple(t.reshape(*shape, 1) for t in projections),
                f[14 * size : 15 * size].reshape(shape),
            )
        return views


class _Pass(NamedTuple):
    """Views of the working set for one pass, in disjoint parts of it."""

    joint: np.ndarray  # (6, *shape): the joint and outcome terms
    logs: np.ndarray  # (6, *shape): their -x log2 x
    zero: np.ndarray  # (6, *shape), bool: the mask of the terms set to 0
    projections: np.ndarray  # (2, *shape): the projections a.n and b.n
    pair: tuple  # its two rows, each of shape
    columns: tuple  # its two rows as matrix products' outputs, each (*shape, 1)
    values: np.ndarray  # shape: the scan's values


_WORK = _WorkingSet()


def _row_constants(rows: _EnsembleArrays, purity):
    """Per-row constants of the row objective, for a block and a purity flag per row.

    An information row (purity False) carries lambda_i/2 and h(lambda0), a
    purity row lambda_i^2/2, each computed as the public objective computes
    it; the constants of the other objective are zeros, which make its term
    exactly +0.  purity is one flag for every row or an array of them.
    Returns (a, b, half0, half1, h0, sq0, sq1), one entry per row in each;
    _RowObjective.take builds the kernel of a subset of rows.
    A Python bool for purity skips the np.where of the flag and builds only
    the constants of its objective, with the same bits.
    """
    l0, l1 = rows.lambda0, rows.lambda1
    if isinstance(purity, bool):
        zeros = np.zeros(len(rows))
        if purity:
            return rows.a, rows.b, zeros, zeros, zeros, *(0.5 * w for w in rows.squared_weights())
        return rows.a, rows.b, 0.5 * l0, 0.5 * l1, _binary_entropy(l0), zeros, zeros
    info = ~np.asarray(purity)
    half0, half1, h0 = (np.where(info, c, 0.0) for c in (0.5 * l0, 0.5 * l1, _binary_entropy(l0)))
    sq0, sq1 = (np.where(info, 0.0, 0.5 * w) for w in rows.squared_weights())
    return rows.a, rows.b, half0, half1, h0, sq0, sq1


def _row_constants_one(ens: QubitEnsemble):
    """_row_constants(ens._rows, False) of a lone ensemble, bit for bit, from its Python floats.

    h(lambda0) is _binary_entropy's sum of the two -x log2 x terms, taken on
    Python floats (_neg_xlog2x_floats), so no one-row block is built.
    """
    l0 = ens.lambda0
    h = _neg_xlog2x_floats([l0, 1.0 - l0])
    zeros = np.zeros(1)
    return ens.a[None], ens.b[None], *np.array([[0.5 * l0], [0.5 * ens.lambda1], [h[0] + h[1]]]), zeros, zeros


class _RowObjective:
    """The objective of the rows of consts, as a map from a batch of unit axes per row, or from their projections.

    The one row kernel of the package, and the only place either objective
    is written: in its core, which maps each row's projections
    (t_a, t_b) = (a.n, b.n) to the sum of both terms, one of which is +0 on
    every row.  It has two entries, which share the per-row columns and the
    term flags, both built once here.  The axis form, the call, maps axes n
    of shape (rows, ..., 3) to an array of shape (rows, ...) holding row
    k's objective at each of the axes n[k], bit for bit as its public
    objective; a single row takes axes of any shape (..., 3).  It takes
    m @ a and m @ b, then the core.  projections maps (t_a, t_b) of shape
    (rows, count) and is the core alone, as the in-plane scan calls it.  A
    term whose constants are 0 on every row is skipped, decided once here
    rather than at every call: the purity term when there is no purity row,
    else the information term when no row has h(lambda0) > 0.  A batch of
    more than _PASS_AXES axes or projection pairs is evaluated in the pieces
    of _pieces, each with those same terms.  Every intermediate of a pass
    lives in the calling thread's working set (_WorkingSet); the values go
    to out, if given, else to a new array, so a result outlives the next
    call.  take gives the kernel of some of the rows.
    """

    def __init__(self, consts):
        self.consts = consts
        a, b, half0, half1, h0, sq0, sq1 = consts
        # count_nonzero costs a fraction of .any(), which the one-row scans feel.
        self.purity, self.info = np.count_nonzero(sq1) or np.count_nonzero(sq0), np.count_nonzero(h0)
        self.columns = tuple(c[:, None] for c in consts[2:])
        self.vectors_and_columns = (a[:, :, None], b[:, :, None]) + self.columns

    def take(self, rows):
        """The kernel of the rows that rows (index array, mask or slice) picks."""
        return _RowObjective(tuple(c[rows] for c in self.consts))

    def _core(self, ta, tb, half0, half1, h0, sq0, sq1, out=None, work=None):
        j, logs, zero = (work or _WORK.views(ta.shape))[:3]
        if self.purity:
            # sq0 (1 + ta^2) + sq1 (1 + tb^2), each product and sum as written.
            np.multiply(ta, ta, logs[0])
            np.multiply(tb, tb, logs[1])
            np.add(logs[:2], 1.0, j[:2])
            np.multiply(j[0], sq0, logs[0])
            np.multiply(j[1], sq1, logs[1])
            out = np.add(logs[0], logs[1], out)
            if not self.info:
                return out
        s = _conditional_entropy(half0, half1, ta, tb, (j, logs, zero))
        np.subtract(h0, s, j[0])
        if not self.purity:
            return np.maximum(j[0], 0.0, out=out)
        return np.add(out, np.maximum(j[0], 0.0, out=j[1]), out)

    def projections(self, ta, tb, out=None):
        """The objective at the projections (t_a, t_b), each of shape (rows, count)."""
        return _in_pieces(self._core, (ta, tb), self.columns, out)

    def _evaluate(self, m, a, b, *rest, out=None):
        # A dot per row for one axis, a matrix-vector product for a batch:
        # the public objectives' bits, which einsum or a sum of products
        # would move in the last place.  The products go to the working
        # set in the layout of a new array's, so BLAS takes the same path.
        work = _WORK.views(m.shape[:2])
        ta, tb = work.columns
        np.matmul(m, a, ta)
        np.matmul(m, b, tb)
        return self._core(*work.pair, *rest, out=out, work=work)

    def __call__(self, n, out=None):
        # An empty block has no batch to infer.
        shape = len(self.consts[0]), -1 if len(self.consts[0]) else 0
        m = n.reshape(*shape, 3)
        values = None if out is None else out.reshape(shape)
        return _in_pieces(self._evaluate, (m,), self.vectors_and_columns, values).reshape(n.shape[:-1])


def _in_pieces(evaluate, batch, columns, out=None):
    """evaluate(*batch, *columns, out=) over a batch of shape (rows, count, ...), in the pieces of _pieces.

    Each array of batch holds the rows' batches, each of columns one entry
    per row; a batch within _PASS_AXES is one call, a larger one is written
    into out (a new array if None) piece by piece.
    """
    rows, count = batch[0].shape[:2]
    if rows * count <= _PASS_AXES:
        return evaluate(*batch, *columns, out=out)
    if out is None:
        out = np.empty((rows, count))
    for part, axes in _pieces(rows, count):
        evaluate(*(x[part, axes] for x in batch), *(c[part] for c in columns), out=out[part, axes])
    return out


def _pieces(rows: int, count: int):
    """The (row slice, axis slice) of each pass over rows rows of count axes each.

    Whole rows, as many as _PASS_AXES holds, where one row's batch fits;
    else each row in ceil(count / _PASS_AXES) equal pieces, which differ by
    at most one axis and so hold at least _PASS_AXES / 2 each.
    """
    if count <= _PASS_AXES:
        step = _PASS_AXES // count
        return [(slice(i, i + step), slice(None)) for i in range(0, rows, step)]
    pieces = -(-count // _PASS_AXES)
    bounds = [count * i // pieces for i in range(pieces + 1)]
    return [(slice(i, i + 1), slice(lo, hi)) for i in range(rows) for lo, hi in zip(bounds, bounds[1:])]


def post_measurement_purity(ens, n):
    """Purity of the joint state after the unselective measurement along n.

    Equals lambda0^2 (1 + (a.n)^2)/2 + lambda1^2 (1 + (b.n)^2)/2; never
    exceeds the pre-measurement purity.  Broadcasts over (..., 3) axes, and
    takes a block like classical_mutual_information.
    """
    return _objective(ens, True, n)


def _objective(ens, purity: bool, n):
    """A public objective: the row kernel at the checked axes n, of one ensemble or a block."""
    n = _unit_axes(n)
    if isinstance(ens, _EnsembleArrays):
        if n.ndim < 2 or len(n) != len(ens):
            raise ValueError("a block of ensembles needs axes of shape (N, ..., 3), one batch per row")
        return _RowObjective(_row_constants(ens, purity))(n)
    out = _RowObjective(_row_constants(ens._rows, purity))(n)
    return float(out) if out.ndim == 0 else out
