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
(column) order, where each column is contiguous.  Arrays are made
column-major where they are created: coupling.domain_samples, the grid
and the phi images in derivative, and the digits, remainders and
coordinates of wordmetric.peel_batch and digit_coords; elementwise
results keep their inputs' layout.
bch_batch never copies: a row-major caller gets the same bits through
strided reads, where a copy would cost more than a small product.  It is
the one product: a (1, m) operand on either side acts on every row of
the other, its coordinates as scalars, with no broadcast copy.

Batch size.  Each kernel call costs a few microseconds of numpy and
Python overhead per coordinate whatever its row count, and a batch whose
columns outgrow L2 runs slower per row, so the float lane runs blocks of
derivative._BLOCK_ROWS = 2^14 rows (128 KiB per float64 column): samples
in derivative._scaled_dist, (sample, grid point) rows in kappa_grid.
Every kernel works row by row, so a row's bits do not depend on its
block; the guards that read a batch's maxima (the precision limit of
wordmetric.peel_batch, the int64 bound of digit_coords) read a block's.

Lattice digits are peeled by wordmetric.peel_batch; reduce_batch, the
earlier peel by m sequential products, is kept for the benchmark figures.
"""

from __future__ import annotations

import numpy as np

from .algebra import StructuralError
from .bch import GroupLaw
from .ratlin import IntPolys


def law_table(law: GroupLaw) -> IntPolys:
    """The law's one polynomial table, the one the exact lane multiplies by."""
    return law.table


def bch_batch(tab: IntPolys, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise group product of (n, m) arrays, or of a (1, m) and an (n, m)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = len(tab.terms)
    if (x.ndim != 2 or y.ndim != 2 or not x.shape[1] == y.shape[1] == m
            or (1 not in (len(x), len(y)) and len(x) != len(y))):
        raise ValueError("bch_batch expects (n, dim) arrays with n equal or 1")
    z = x + y
    cols = [x[:, v] for v in range(m)] + [y[:, v] for v in range(m)]
    for k, terms in enumerate(tab.flat):
        if terms:  # a coordinate without nonlinear terms is x + y
            tab.column(k, cols, acc=z[:, k], unit=True)
    return z


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


def dilate_batch(degrees, t: float, x: np.ndarray) -> np.ndarray:
    """Apply the grading dilation coordinatewise to an (n, m) array."""
    scale = np.asarray([float(t) ** d for d in degrees], dtype=np.float64)
    return np.asarray(x, dtype=np.float64) * scale[None, :]


def quasi_norm_batch(degrees, x: np.ndarray) -> np.ndarray:
    """Homogeneous quasi-norm max_i |x_i|^(1/d_i) per row."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape[0], dtype=np.float64)
    for i, d in enumerate(degrees):
        np.maximum(out, np.abs(x[:, i]) ** (1.0 / d), out=out)
    return out
