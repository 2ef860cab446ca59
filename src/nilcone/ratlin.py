"""Small exact linear algebra over the rationals, and the integer table.

Everything in the algebra layer runs on ``fractions.Fraction`` so that
structural facts (Jacobi, nilpotency, basis adaptation) are decided
exactly, never by thresholding floats.  Matrices are plain tuples of
tuples, row convention: ``rows[i]`` is the i-th vector.

IntPolys is the package's one polynomial table: polynomials with
rational coefficients kept as integer numerators, evaluated exactly on
integer numerators with one Fraction per coordinate at the end.  It holds
the BCH product's nonlinear terms, the twist automorphism, both
directions of the adapted-basis change and the Mal'cev exp map and peel.
Its column loop, the only numpy polynomial loop, runs the same tables on
int64 and float64 arrays: the batch product, the float peel and exp map,
and the Cayley ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

# A monomial is a sorted tuple of (variable, exponent).
Mono = tuple[tuple[int, int], ...]
Poly = dict[Mono, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)
INT64_LIMIT = 1 << 63


def poly_mul(a: Poly, b: Poly) -> Poly:
    """The product of two polynomials."""
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            merged: dict[int, int] = {}
            for v, e in ma:
                merged[v] = merged.get(v, 0) + e
            for v, e in mb:
                merged[v] = merged.get(v, 0) + e
            key = tuple(sorted(merged.items()))
            c = ca * cb
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
    return {k: c for k, c in out.items() if c != 0}


def poly_axpy(target: Poly, scale: Fraction, src: Poly) -> None:
    """target += scale * src, in place, dropping zero terms."""
    for mono, c in src.items():
        v = target.get(mono, Fraction(0)) + scale * c
        if v == 0:
            target.pop(mono, None)
        else:
            target[mono] = v


class CapExceeded(RuntimeError):
    """BFS state count, or an int64 digit computation, exceeded its cap."""


def as_vec(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


def as_mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(as_vec(r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def numerators(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of Fractions (or ints) over their least common
    denominator."""
    d = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form with the leftmost-pivot rule.

    Returns the nonzero rows (leading coefficient 1, pivot columns
    cleared above and below) and the pivot column indices.  The output
    is a canonical basis of the row span, which is what makes basis
    adaptation reproducible.
    """
    m = [list(r) for r in rows]
    if not m:
        return (), ()
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return as_mat(m[: len(pivots)]), tuple(pivots)


def mat_inv(m: Mat) -> Mat:
    """Inverse of a square rational matrix via Gauss-Jordan."""
    n = len(m)
    aug = [list(m[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    reduced, pivots = rref(aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return tuple(tuple(reduced[i][n:]) for i in range(n))


def spanning_inverse(keyed_vectors, size: int) -> tuple[list, Mat]:
    """The keys of the first ``size`` linearly independent vectors of
    (key, vector) pairs, in order, and the inverse of the matrix with
    those vectors as columns.  Raises ValueError when they do not span.
    """
    keys, vectors = [], []
    for key, vec in keyed_vectors:
        if any(vec) and len(rref(vectors + [vec])[0]) == len(vectors) + 1:
            keys.append(key)
            vectors.append(vec)
            if len(vectors) == size:
                return keys, mat_inv(tuple(zip(*vectors)))
    raise ValueError(f"the vectors span fewer than {size} dimensions")


@dataclass(frozen=True)
class IntPolys:
    """Polynomials as integer numerators over dens[k].

    Variables below `scaled` stand for numerators over one common
    denominator d (the coordinates of a point); the rest are integers
    (digits).  Each term (coefficient, pad, mono) carries the power d^pad
    that lifts it to tops[k], the top degree of coordinate k in the
    scaled variables, so coordinate k is numerator / (dens[k] d^tops[k]).
    """

    what: str  # names the map in an overflow error
    dens: tuple[int, ...]
    tops: tuple[int, ...]
    terms: tuple[tuple[tuple[int, int, Mono], ...], ...]

    @classmethod
    def of(cls, what: str, polys: list[Poly], scaled: int = 0) -> "IntPolys":
        dens = tuple(math.lcm(*(c.denominator for c in p.values())) for p in polys)
        degs = [{mono: sum(e for v, e in mono if v < scaled) for mono in p}
                for p in polys]
        tops = tuple(max(deg.values(), default=0) for deg in degs)
        return cls(what, dens, tops, tuple(
            tuple((int(c * den), top - deg[mono], mono) for mono, c in p.items())
            for p, den, top, deg in zip(polys, dens, tops, degs)))

    @classmethod
    def linear(cls, what: str, m) -> "IntPolys":
        """The map v -> m v of a rational matrix."""
        return cls.of(what, [{((j, 1),): c for j, c in enumerate(row) if c}
                             for row in m], scaled=len(m[0]))

    def powers(self, d: int) -> list[int]:
        """d^0 .. d^max(tops), for value."""
        pows = [1]
        for _ in range(max(self.tops, default=0)):
            pows.append(pows[-1] * d)
        return pows

    def value(self, k: int, vals, pows) -> tuple[int, int]:
        """Coordinate k at the Python ints vals, as (numerator, denominator),
        where scaled variables are numerators over d and pows = powers(d)."""
        acc = 0
        for c, pad, mono in self.terms[k]:
            term = c * pows[pad] if pad else c
            for v, e in mono:
                term *= vals[v] ** e if e > 1 else vals[v]
            acc += term
        return acc, self.dens[k] * pows[self.tops[k]]

    def at(self, point) -> Vec:
        """The polynomials at a point of Fractions or ints, exactly.

        A point with a non-integer coordinate needs every variable scaled.
        """
        vals, d = numerators(point)
        pows = self.powers(d)
        return tuple(Fraction(*self.value(k, vals, pows))
                     for k in range(len(self.terms)))

    @cached_property
    def flat(self) -> tuple[tuple[tuple[int, float, tuple[int, ...]], ...], ...]:
        """Per coordinate, (numerator, numerator / dens[k], factors) per term,
        a variable repeated in factors once per power."""
        return tuple(
            tuple((c, c / den, tuple(v for v, e in mono for _ in range(e)))
                  for c, _, mono in terms)
            for terms, den in zip(self.terms, self.dens))

    def bound(self, k: int, top) -> int | float:
        """sum |numerator| * prod top[v]^e over the terms of coordinate k: with
        top[v] >= max|cols[v]| it bounds every term and partial sum of column."""
        return sum(abs(c) * math.prod(top[v] ** e for v, e in mono)
                   for c, _, mono in self.terms[k])

    def column(self, k: int, cols, out: np.ndarray, term: np.ndarray,
               unit: bool = False, start=0) -> np.ndarray:
        """Coordinate k into out, variable v the int64 or float64 column
        cols[v]: the numerator, or with unit the value (coefficients
        numerator / dens[k] in float), added to start (0, or a column such
        as out itself).  Each term is formed left to right, coefficient
        first, in the scratch column term and added, so out is
        start + t_0 + t_1 + ... and nothing is allocated.  Columns may mix
        n rows and one row: a one-row factor multiplies as a scalar, and a
        coefficient 1 is not multiplied, 1 * x being x."""
        acc = start
        for num, coef, factors in self.flat[k]:
            t = coef if unit else num  # a scalar until an n-row factor
            for v in factors:
                c = cols[v] if len(cols[v]) > 1 else cols[v][0]
                if isinstance(t, np.ndarray):  # term, or an input column
                    t = np.multiply(t, c, out=term)
                elif np.ndim(c):
                    t = c if t == 1 else np.multiply(t, c, out=term)
                else:
                    t = t * c
            acc = np.add(acc, t, out=out)
        if acc is not out:  # no terms
            out[...] = start
        return out

    def numerators(self, rows: np.ndarray) -> np.ndarray:
        """Column-major numerators at each int64 digit row, refusing any
        int64 overflow by the bound."""
        cols = [rows[:, v] for v in range(rows.shape[1])]
        top = [int(np.abs(c).max(initial=0)) for c in cols]
        out = np.empty((len(rows), len(self.terms)), dtype=np.int64, order="F")
        term = np.empty(len(rows), dtype=np.int64)
        for k in range(len(self.terms)):
            if self.bound(k, top) >= INT64_LIMIT:
                raise CapExceeded(f"{self.what} coordinate {k} could pass int64 "
                                  f"at digits up to {max(top)}")
            self.column(k, cols, out[:, k], term)
        return out
