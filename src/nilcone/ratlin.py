"""Small exact linear algebra over the rationals.

Everything in the algebra layer runs on ``fractions.Fraction`` so that
structural facts (Jacobi, nilpotency, basis adaptation) are decided
exactly, never by thresholding floats.  Matrices are plain tuples of
tuples, row convention: ``rows[i]`` is the i-th vector.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_vec(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


def as_mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(as_vec(r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))

def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def numerators(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of Fractions over their least common denominator."""
    d = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


class IntMat:
    """A rational matrix as integer numerators over one denominator.

    apply multiplies a column vector of rationals exactly, with integer
    arithmetic up to one Fraction per output entry.
    """

    __slots__ = ("den", "rows")

    def __init__(self, m: Mat):
        self.den = math.lcm(*(Fraction(x).denominator for row in m for x in row))
        self.rows = tuple(tuple(int(Fraction(x) * self.den) for x in row) for row in m)

    def apply(self, v) -> Vec:
        nums, d = numerators([x if type(x) is Fraction else Fraction(x) for x in v])
        den = self.den * d
        return tuple(Fraction(sum(a * n for a, n in zip(row, nums)), den)
                     for row in self.rows)


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


def solve_in_basis(basis: Mat, v: Vec) -> Vec:
    """Coefficients of v as a combination of the basis rows.

    Raises ValueError when v is outside the span or the rows are
    dependent (callers only pass genuine bases).
    """
    n = len(basis)
    dim = len(v)
    # Solve basis^T c = v by row reducing [basis^T | v].
    aug = [[basis[j][i] for j in range(n)] + [v[i]] for i in range(dim)]
    reduced, pivots = rref(aug)
    coeffs = [ZERO] * n
    for row, p in zip(reduced, pivots):
        if p == n:
            raise ValueError("vector not in span of basis")
        coeffs[p] = row[n]
    return tuple(coeffs)


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
