"""Quasi-norms, exponent fits, the horizontal generators and their words.

The smooth side of the geometry: everything here lives on the ambient
group or its associated graded group (the Carnot group carrying the
dilations).  Word metrics and lattice machinery are in wordmetric.py.

horizontal_factorization writes a graded-group point as a word of
dilated horizontal generators, one pass at a time on the float graded
law (kernels.bch_batch on one-row arrays).  The derivative map does not
use it (it is linear in exponential coordinates, see derivative.py); it
is an independent oracle that the derivative is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import product

import numpy as np

from .algebra import StructuralError
from .bch import GroupPoint, NilpotentGroup, get_group
from .kernels import bch_batch
from .ratlin import Mat, spanning_inverse


def quasi_norm_m(grad, g) -> float:
    """Homogeneous quasi-norm max_i |x_i|**(1/d_i) for a Gradation."""
    best = 0.0
    for c, d in zip(g, grad.degrees):
        v = abs(float(c)) ** (1.0 / d)
        if v > best:
            best = v
    return best


def fit_exponent(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(float(x)), math.log(float(y))) for x, y in zip(xs, ys)
           if float(x) > 0 and float(y) > 0]
    if len(pts) < 2:
        raise ValueError("need at least two positive points to fit an exponent")
    n = len(pts)
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    num = sum((p[0] - mx) * (p[1] - my) for p in pts)
    den = sum((p[0] - mx) ** 2 for p in pts)
    return num / den


# ----------------------------------------------------------- factorization

class FactorizationError(RuntimeError):
    """Raised when the peeling loop fails to absorb the residual."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class Factorization:
    """A word in dilated horizontal generators multiplying to a point.

    Each term is (generator index, float exponent a > 0) meaning the
    dilated generator delta_a(s_index); indices 0..d-1 are the degree-one
    coordinate generators, d..2d-1 their inverses.
    """

    terms: tuple[tuple[int, float], ...]


def generating_set(group: NilpotentGroup) -> list[GroupPoint]:
    """The 2d horizontal coordinate generators, inverses in the back half."""
    return [GroupPoint(Fraction(sign * (k == j)) for k in range(group.dim))
            for sign in (1, -1) for j in range(group.abelian_dim)]


def _letter(group: NilpotentGroup, idx: int, a: float) -> tuple:
    """Coordinates of the dilated generator delta_a(s_idx)."""
    d = group.abelian_dim
    j, c = (idx, a) if idx < d else (idx - d, -a)
    return tuple(c if k == j else 0.0 for k in range(group.dim))


def _invert_word(d: int, letters: tuple) -> tuple:
    return tuple(i + d if i < d else i - d for i in reversed(letters))


def _nested_word(d: int, seq) -> tuple:
    """Generator indices of the commutator word a b a^{-1} b^{-1} nested
    along seq: a is the letter seq[0], b the word of seq[1:]."""
    if len(seq) == 1:
        return (seq[0],)
    a = (seq[0],)
    b = _nested_word(d, seq[1:])
    return a + b + _invert_word(d, a) + _invert_word(d, b)


@cache  # get_group: one group object per content
def _gadgets(group: NilpotentGroup) -> dict[int, tuple[list[tuple], Mat]]:
    """Per degree k >= 2: commutator gadget words spanning the degree-k
    layer, and the exact inverse of the matrix whose columns are the
    words' layer vectors."""
    d = group.abelian_dim
    gens = generating_set(group)
    out = {}
    for level in sorted(set(group.degrees) - {1}):
        cols = [k for k, deg in enumerate(group.degrees) if deg == level]
        words = (_nested_word(d, seq) for seq in product(range(d), repeat=level))
        points = ((w, reduce(group.law_graded.mul, (gens[i] for i in w))) for w in words)
        try:
            out[level] = spanning_inverse(
                ((w, tuple(p[k] for k in cols)) for w, p in points), len(cols))
        except ValueError:
            raise StructuralError(f"gadget words do not span degree-{level} "
                                  f"layer of {group.name}") from None
    return out


def horizontal_factorization(group, g, order: str = "asc",
                             max_passes: int = 50,
                             tol: float = 1e-12) -> Factorization:
    """Factor a graded-group point as a word of dilated generators, in floats.

    Each pass peels the residual's lowest degree whose coordinates are
    not all within ``tol``: abelian coordinates (in ascending or
    descending coordinate order) become single dilated generators; a
    degree-k layer is matched by its commutator gadget words, each
    dilated as a whole by |t|**(1/k) for the exact coefficient t of the
    float residual.  The cross terms each emission introduces live in
    strictly higher degrees, so repeated passes absorb them.  Raises
    FactorizationError when the residual is not finite, or not within
    ``tol`` after ``max_passes`` passes.
    """
    group = get_group(group)
    if len(g) != group.dim:
        raise StructuralError(f"expected {group.dim} coordinates for {group.name}")
    if order not in ("asc", "desc"):
        raise StructuralError(f"unknown factorization order {order!r}")
    target = np.asarray([g], dtype=np.float64)
    ab = [k for k, deg in enumerate(group.degrees) if deg == 1]
    if order == "desc":
        ab.reverse()
    tab = group.law_graded.table
    d = group.abelian_dim
    terms: list[tuple[int, float]] = []
    acc = np.zeros((1, group.dim))

    def emit(idx: int, a: float) -> None:
        nonlocal acc
        terms.append((idx, a))
        acc = bch_batch(tab, acc, [_letter(group, idx, a)])

    def residual() -> tuple[tuple, list[int]]:
        r = tuple(bch_batch(tab, -acc, target)[0].tolist())
        return r, [k for k, c in enumerate(r) if not abs(c) <= tol]

    for _ in range(max_passes):
        r, loud = residual()
        if not loud or not all(math.isfinite(c) for c in r):
            break
        level = min(group.degrees[k] for k in loud)
        if level == 1:
            for j in ab:
                if j in loud:
                    emit(j if r[j] > 0 else j + d, abs(r[j]))
            continue
        words, inv = _gadgets(group)[level]
        vec = [Fraction(r[k]) for k, deg in enumerate(group.degrees) if deg == level]
        for word, row in zip(words, inv):
            t = float(sum(a * v for a, v in zip(row, vec)))
            if t:
                root = abs(t) ** (1.0 / level)
                for idx in word if t > 0 else _invert_word(d, word):
                    emit(idx, root)
    else:  # max_passes used up: the residual after the last emissions
        r, loud = residual()
    if loud:
        raise FactorizationError(
            f"factorization failed to converge for {group.name}", residual=r)
    return Factorization(terms=tuple(terms))
