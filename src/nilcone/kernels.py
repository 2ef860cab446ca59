"""Batch float kernels: the group law, dilations and quasi-norms.

The exact Fraction layer is the reference implementation; these kernels
run the same polynomial tables over float64 arrays for Monte Carlo
work.  Every kernel is vectorised over rows with numpy: a loop over the
terms of the law, each term formed by repeated multiplication of whole
coordinate columns, so every row sees the same sequence of float
operations whatever the batch size or memory layout.

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

Lattice digits are peeled by wordmetric.peel_batch; reduce_batch, the
earlier peel by m sequential products, is kept for the benchmark figures.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .algebra import StructuralError
from .bch import GroupLaw


class KernelTable:
    """Flattened nonlinear terms of a polynomial group law.

    terms holds one (out, coeff, factors) triple per term: the term
    adds coeff * prod(vals[v] for v in factors) to coordinate out,
    where vals is the length-2m concatenation of the two factors and a
    variable repeats once per power.  The linear part of the law is
    always the coordinate sum and is handled separately.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, law: GroupLaw):
        self.dim = law.dim
        self.terms = tuple(
            (k, float(c), tuple(v for v, e in mono for _ in range(e)))
            for k, poly in enumerate(law.polys) for mono, c in poly)


law_table = cache(KernelTable)  # GroupLaw is frozen: keyed by content


# ---------------------------------------------------------------- kernels

def _bch_numpy(tab: KernelTable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise product; a (1, m) operand acts on every row of the other."""
    z = x + y
    cols = [x[:, v] for v in range(tab.dim)] + [y[:, v] for v in range(tab.dim)]
    for k, coeff, factors in tab.terms:
        term = coeff * cols[factors[0]]
        for v in factors[1:]:
            if term.size < cols[v].size:  # a one-row operand's term widens
                term = term * cols[v]
            else:
                term *= cols[v]
        z[:, k] += term
    return z


def _outer(c: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The column-major (n, m) array c[r] * row[j]."""
    return np.multiply.outer(row, c).T


def bch_batch(tab: KernelTable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise group product of (n, m) arrays, or of a (1, m) and an (n, m)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if (x.ndim != 2 or y.ndim != 2 or not x.shape[1] == y.shape[1] == tab.dim
            or (1 not in (len(x), len(y)) and len(x) != len(y))):
        raise ValueError("bch_batch expects (n, dim) arrays with n equal or 1")
    return _bch_numpy(tab, x, y)


def reduce_batch(tab: KernelTable, gen_logs: np.ndarray, leads: np.ndarray,
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
    if p.ndim != 2 or p.shape[1] != tab.dim:
        raise ValueError("reduce_batch expects an (n, dim) array")
    gen_logs = np.asarray(gen_logs, dtype=np.float64)
    leads = np.asarray(leads, dtype=np.float64)
    right = {"right": True, "left": False}[side]
    floor = {"floor": True, "round": False}[mode]
    digits = np.zeros(p.shape, dtype=np.int64, order="F")
    for i in range(tab.dim):
        q = p[:, i] / leads[i]
        c = np.floor(q) if floor else np.rint(q)
        # NaN fails the comparison too; past 2^63 the int64 cast is garbage
        if not np.all(np.abs(c) < 2.0 ** 63):
            raise StructuralError(
                f"digit {i} is not finite or does not fit in int64")
        digits[:, i] = c
        step = _outer(-c, gen_logs[i])
        p = _bch_numpy(tab, p, step) if right else _bch_numpy(tab, step, p)
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
