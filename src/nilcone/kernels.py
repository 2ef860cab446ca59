"""Batch float kernels: the group law, dilations and quasi-norms.

The exact Fraction layer is the reference implementation; these kernels
run its tables over float64 arrays for Monte Carlo work.  bch_batch
evaluates the law's one table (GroupLaw.table, which the exact lane
multiplies by) through IntPolys.column: a loop over the terms of the
law, each term formed by repeated multiplication of whole coordinate
columns, so every row sees the same sequence of float operations
whatever the batch size or memory layout, as a scalar float product does.

Column order.  The kernels read and write whole coordinate columns
x[:, v] of (n, m) batches, so the lane keeps its batches in Fortran
(column) order, where each column is contiguous.  Each kernel writes
into the buffers its caller gives (out, and a scratch column for the
terms of IntPolys.column); a caller that gives none gets fresh
column-major arrays, made in the kernel's first lines.  bch_batch never
copies its operands: a row-major caller gets the same bits through
strided reads.  It is the one product: a (1, m) operand on either side
acts on every row of the other, its coordinates as scalars, with no
broadcast copy.

Batch size and the workspace.  Each kernel call costs a few microseconds
of numpy and Python overhead per coordinate whatever its row count, and
a batch whose columns outgrow L2 runs slower per row, so the float lane
runs blocks of BLOCK_ROWS = 2^14 rows (128 KiB per float64 column):
the samples that coupling.domain_blocks streams to main-theorem, the
iterates and the mean abelianization, the phi estimate's samples,
kappa_grid's (sample, grid point) rows.  A block's kernels, sampler
to quasi-norm, write into workspace(): four (2^14, m) buffers and two
scratch columns, kept at module level between calls.
Arrays of that size made and freed per block or per call go back to the
operating system between depths, and cost a minor page fault per 4 KiB
when touched again: at 2^16 samples, a depth's time again.  Every
kernel works row by row, so a row's bits do not depend on its block;
the guards that read a batch's maxima (the precision limit of the float
peel, the 2^53 bound of the float exp map) read a block's.

Lattice digits are peeled by wordmetric; reduce_batch, the earlier peel
by m sequential products, is kept for the benchmark figures.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import StructuralError
from .bch import GroupLaw
from .ratlin import IntPolys


def law_table(law: GroupLaw) -> IntPolys:
    """GroupLaw.table, kept as the name the benchmark calls it by."""
    return law.table


BLOCK_ROWS = 1 << 14  # rows of one float-lane block


class Workspace(NamedTuple):
    """Column-major float64 buffers for a batch of rows: four (rows, m)
    arrays a, b, c, d and two (rows,) scratch columns s, t."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    s: np.ndarray
    t: np.ndarray

    @classmethod
    def fresh(cls, rows: int, m: int) -> "Workspace":
        return cls(*(np.empty((rows, m), order="F") for _ in range(4)),
                   np.empty(rows), np.empty(rows))


_STORAGE: list[np.ndarray] = []  # behind workspace(), kept between calls


def workspace(rows: int, m: int) -> Workspace:
    """The float lane's one shared Workspace, as views of rows <= BLOCK_ROWS
    rows.  Its storage is grown to the largest m asked for and then kept,
    so a block allocates nothing; each call's views overwrite the last's."""
    if rows > BLOCK_ROWS:
        raise ValueError(f"a workspace holds at most {BLOCK_ROWS} rows")
    if not _STORAGE or _STORAGE[0].size < BLOCK_ROWS * m:
        _STORAGE[:] = ([np.empty(BLOCK_ROWS * m) for _ in range(4)]
                       + [np.empty(BLOCK_ROWS) for _ in range(2)])
    return Workspace(*(b[:rows * m].reshape((rows, m), order="F") for b in _STORAGE[:4]),
                     *(c[:rows] for c in _STORAGE[4:]))


def bch_batch(tab: IntPolys, x: np.ndarray, y: np.ndarray,
              out: np.ndarray | None = None, term: np.ndarray | None = None) -> np.ndarray:
    """Row-wise group product of (n, m) arrays, or of a (1, m) and an (n, m),
    into out ((n, m), column-major) with term as the scratch column."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = len(tab.terms)
    if (x.ndim != 2 or y.ndim != 2 or not x.shape[1] == y.shape[1] == m
            or (1 not in (len(x), len(y)) and len(x) != len(y))):
        raise ValueError("bch_batch expects (n, dim) arrays with n equal or 1")
    n = max(len(x), len(y))
    out = np.empty((n, m), order="F") if out is None else out
    term = np.empty(n) if term is None else term
    np.add(x, y, out=out)
    cols = [x[:, v] for v in range(m)] + [y[:, v] for v in range(m)]
    for k, terms in enumerate(tab.flat):
        if terms:  # a coordinate without nonlinear terms is x + y
            tab.column(k, cols, out[:, k], term, unit=True, start=out[:, k])
    return out


def reduce_batch(tab: IntPolys, gen_logs: np.ndarray, leads: np.ndarray,
                 omega: np.ndarray, side: str = "right",
                 mode: str = "floor") -> tuple[np.ndarray, np.ndarray]:
    """Peel Mal'cev digits off each row of omega.

    side "right" factors omega = y * u(digits) with y in the box (the
    remainder rem), peeling divisor-sized digits coordinate by
    coordinate; side "left" factors omega = u(digits) * y.  mode
    "floor" lands remainders in [0, lead); "round" (half to even)
    centres them in [-lead/2, lead/2].  A digit that is not finite or
    does not fit in int64 raises StructuralError.  Both outputs are
    column-major.
    """
    p = np.asarray(omega, dtype=np.float64, order="F")
    if p.ndim != 2 or p.shape[1] != len(tab.terms):
        raise ValueError("reduce_batch expects an (n, dim) array")
    gen_logs = np.asarray(gen_logs, dtype=np.float64)
    leads = np.asarray(leads, dtype=np.float64)
    right = {"right": True, "left": False}[side]
    floor = {"floor": True, "round": False}[mode]
    digits = np.zeros(p.shape, dtype=np.int64, order="F")
    for i in range(len(tab.terms)):
        q = p[:, i] / leads[i]
        c = np.floor(q) if floor else np.rint(q)
        # NaN fails the comparison too; past 2^63 the int64 cast is garbage
        if not np.all(np.abs(c) < 2.0 ** 63):
            raise StructuralError(
                f"digit {i} is not finite or does not fit in int64")
        digits[:, i] = c
        step = np.multiply.outer(gen_logs[i], -c).T  # column-major
        p = bch_batch(tab, p, step) if right else bch_batch(tab, step, p)
    return digits, p


def dilate_batch(degrees, t: float, x: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Apply the grading dilation coordinatewise to an (n, m) array."""
    scale = np.asarray([float(t) ** d for d in degrees], dtype=np.float64)
    return np.multiply(np.asarray(x, dtype=np.float64), scale[None, :], out=out)


def quasi_norm_batch(degrees, x: np.ndarray, out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """Homogeneous quasi-norm max_i |x_i|^(1/d_i) per row, into out with
    scratch as the scratch column."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(len(x)) if out is None else out
    scratch = np.empty(len(x)) if scratch is None else scratch
    for i, d in enumerate(degrees):
        col = np.abs(x[:, i], out=scratch if i else out)
        if d != 1:
            np.power(col, 1.0 / d, out=col)
        if i:
            np.maximum(out, col, out=out)
    return out
