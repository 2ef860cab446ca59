"""Small exact linear algebra over the rationals, and the integer table.

Everything in the algebra layer runs on ``fractions.Fraction`` so that
structural facts (Jacobi, nilpotency, basis adaptation) are decided
exactly, never by thresholding floats.  Matrices are plain tuples of
tuples, row convention: ``rows[i]`` is the i-th vector.

IntPolys is the package's one polynomial table: polynomials with
rational coefficients kept as integer numerators.  It holds the BCH
product's nonlinear terms, the twist automorphism, both directions of
the adapted-basis change and the Mal'cev exp map and peel.  The exact
lane's point is (integer numerators, one common denominator): numerators
splits a point into it once, IntPolys.exact maps it to the next such
point, and fractions builds the Fractions once, at the API edge.  On a
2-core x86 machine (Python 3.11) this took one adapted-basis change
(IntPolys.at) on a 3- to 5-vector from 6.3-9.1 us to 3.9-5.7 us.  Its
column loop, the only numpy polynomial loop, runs the same tables on
int64 and float64 arrays: the batch product, the float peel and exp map,
and the Cayley ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

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


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def numerators(v: Sequence) -> tuple[list[int], int]:
    """The exact lane's point of the rationals v: integer numerators over
    their least common denominator, read exactly from Fractions, ints,
    bools, floats and whatever else Fraction() takes (numpy integers)."""
    try:
        pairs = [x.as_integer_ratio() for x in v]
    except AttributeError:
        pairs = [Fraction(x).as_integer_ratio() for x in v]
    d = math.lcm(*[q for _, q in pairs])
    return [p * (d // q) for p, q in pairs], d


def fractions(nums: Sequence[int], den: int) -> Vec:
    """The Fractions of an exact lane point: the API edge."""
    return tuple([Fraction(n, den) for n in nums])


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
    return tuple(tuple(Fraction(x) for x in r) for r in m[: len(pivots)]), tuple(pivots)


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


def _source(terms) -> str:
    """The (c, pad, mono) terms as one Python expression in the ints v and
    d: sum c d^pad prod v[var]^e."""
    return " + ".join("*".join(
        [str(c)] * (c != 1) + [_power("d", pad)] * (pad > 0)
        + [_power(f"v[{v}]", e) for v, e in mono]) or "1"
        for c, pad, mono in terms) or "0"


def _power(base: str, e: int) -> str:
    return f"{base}**{e}" if e > 1 else base if e else "1"


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

    @cached_property
    def values(self) -> tuple:
        """Per coordinate k, the function (vals, d) -> (numerator, dens[k]
        d^tops[k]) of coordinate k at the Python ints vals, the scaled
        variables numerators over d: Python source built from the terms
        and compiled once, 3-8x faster than a loop over them."""
        return eval("".join(f"lambda v, d: ({_source(terms)}, {dk}*{_power('d', t)}), "
                            for terms, dk, t in zip(self.terms, self.dens, self.tops)))

    @cached_property
    def exact(self):
        """The function (vals, d=1) -> the polynomials at the exact lane's
        point vals / d (the scaled variables; the rest are integers), as
        numerators over the one denominator lcm(dens) d^max(tops) with no
        lcm or gcd taken; compiled as values is."""
        den, top = math.lcm(*self.dens), max(self.tops, default=0)
        lifted = (_source([(c * (den // dk), pad + top - t, mono) for c, pad, mono in terms])
                  for terms, dk, t in zip(self.terms, self.dens, self.tops))
        return eval(f"lambda v, d=1: ([{', '.join(lifted)}], {den}*{_power('d', top)})")

    def at(self, point) -> Vec:
        """The polynomials at a point of rationals, as Fractions: the edge
        over exact.  A point with a non-integer coordinate needs every
        variable scaled."""
        return fractions(*self.exact(*numerators(point)))

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
