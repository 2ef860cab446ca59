"""Batch float kernels: group law and lattice digit peeling.

The exact Fraction layer is the reference implementation; these kernels
run the same polynomial tables over float64 arrays for Monte Carlo
work.  Every kernel is vectorised over rows with numpy: a loop over the
terms of the law, each term formed by repeated multiplication of whole
columns, so every row sees the same sequence of float operations.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .algebra import StructuralError
from .bch import GroupLaw


class KernelTable:
    """Flattened nonlinear terms of a polynomial group law.

    Term t writes coeff[t] * prod_s vals[var_idx[s]] ** var_pow[s]
    (s in ptr[t]:ptr[t+1]) into coordinate out_idx[t]; vals is the
    length-2m concatenation of the two factors.  The linear part of the
    law is always the coordinate sum and is handled separately.
    """

    __slots__ = ("dim", "out_idx", "coeff", "ptr", "var_idx", "var_pow")

    def __init__(self, law: GroupLaw):
        self.dim = law.dim
        out_idx, coeff, ptr, var_idx, var_pow = [], [], [0], [], []
        for k, terms in enumerate(law.polys):
            for mono, c in terms:
                out_idx.append(k)
                coeff.append(float(c))
                for v, e in mono:
                    var_idx.append(v)
                    var_pow.append(e)
                ptr.append(len(var_idx))
        self.out_idx = np.asarray(out_idx, dtype=np.int64)
        self.coeff = np.asarray(coeff, dtype=np.float64)
        self.ptr = np.asarray(ptr, dtype=np.int64)
        self.var_idx = np.asarray(var_idx, dtype=np.int64)
        self.var_pow = np.asarray(var_pow, dtype=np.int64)


law_table = cache(KernelTable)  # GroupLaw is frozen: keyed by content


# ---------------------------------------------------------------- kernels

def _bch_numpy(tab: KernelTable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = x + y
    m = tab.dim
    for t in range(tab.out_idx.shape[0]):
        term = np.full(x.shape[0], tab.coeff[t])
        for s in range(tab.ptr[t], tab.ptr[t + 1]):
            v = tab.var_idx[s]
            col = x[:, v] if v < m else y[:, v - m]
            for _ in range(tab.var_pow[s]):
                term = term * col
        z[:, tab.out_idx[t]] += term
    return z


def bch_batch(tab: KernelTable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise group product of two (n, m) coordinate arrays."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 2 or x.shape[1] != tab.dim:
        raise ValueError("bch_batch expects matching (n, dim) arrays")
    return _bch_numpy(tab, x, y)


def translate_batch(tab: KernelTable, g: np.ndarray, x: np.ndarray,
                    side: str = "left") -> np.ndarray:
    """Multiply every row of x by the single point g on the given side."""
    g = np.ascontiguousarray(g, dtype=np.float64).reshape(1, -1)
    gb = np.broadcast_to(g, x.shape).copy()
    if side == "left":
        return bch_batch(tab, gb, x)
    if side == "right":
        return bch_batch(tab, x, gb)
    raise ValueError(f"unknown side {side!r}")


def reduce_batch(tab: KernelTable, gen_logs: np.ndarray, leads: np.ndarray,
                 omega: np.ndarray, side: str = "right",
                 mode: str = "floor") -> tuple[np.ndarray, np.ndarray]:
    """Peel Mal'cev digits off each row of omega.

    side "right" factors omega = y * u(digits) with y in the box (the
    remainder rem), peeling divisor-sized digits coordinate by
    coordinate; side "left" factors omega = u(digits) * y.  mode
    "floor" lands remainders in [0, lead); "round" (half to even)
    centres them in [-lead/2, lead/2].  A digit that is not finite or
    does not fit in int64 raises StructuralError.
    """
    omega = np.ascontiguousarray(omega, dtype=np.float64)
    if omega.ndim != 2 or omega.shape[1] != tab.dim:
        raise ValueError("reduce_batch expects an (n, dim) array")
    gen_logs = np.ascontiguousarray(gen_logs, dtype=np.float64)
    leads = np.ascontiguousarray(leads, dtype=np.float64)
    right = {"right": True, "left": False}[side]
    floor = {"floor": True, "round": False}[mode]
    n, m = omega.shape
    p = omega.astype(np.float64, copy=True)
    digits = np.zeros((n, m), dtype=np.int64)
    for i in range(m):
        q = p[:, i] / leads[i]
        c = np.floor(q) if floor else np.rint(q)
        # NaN fails the comparison too; past 2^63 the int64 cast is garbage
        if not np.all(np.abs(c) < 2.0 ** 63):
            raise StructuralError(
                f"digit {i} is not finite or does not fit in int64")
        digits[:, i] = c.astype(np.int64)
        step = (-c)[:, None] * gen_logs[i][None, :]
        p = _bch_numpy(tab, p, step) if right else _bch_numpy(tab, step, p)
    return digits, p


def fold_digits(tab: KernelTable, gen_logs: np.ndarray, digits: np.ndarray,
                order: str = "asc", sign: int = 1) -> np.ndarray:
    """Evaluate prod_i u_i^(sign * digits_i) over rows, in index order."""
    digits = np.asarray(digits, dtype=np.float64)
    n, m = digits.shape
    p = np.zeros((n, m), dtype=np.float64)
    idx = range(m) if order == "asc" else range(m - 1, -1, -1)
    for i in idx:
        step = (sign * digits[:, i])[:, None] * gen_logs[i][None, :]
        p = bch_batch(tab, p, step)
    return p


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
