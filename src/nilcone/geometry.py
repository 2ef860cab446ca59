"""Scaling maps, quasi-norms and horizontal factorization.

The smooth side of the geometry: everything here lives on the ambient
group or its associated graded group (the Carnot group carrying the
dilations).  Word metrics and lattice machinery are in wordmetric.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .algebra import StructuralError
from .bch import GroupPoint, NilpotentGroup, get_group
from .kernels import bch_batch, law_table
from .ratlin import mat_inv, rref


def quasi_norm_m(grad, g) -> float:
    """Homogeneous quasi-norm max_i |x_i|**(1/d_i) for a Gradation."""
    coords = g.coords if isinstance(g, GroupPoint) else tuple(g)
    best = 0.0
    for c, d in zip(coords, grad.degrees):
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

    algebra: str
    terms: tuple[tuple[int, float], ...]

    def __len__(self) -> int:
        return len(self.terms)


def generating_set(group: NilpotentGroup) -> list[GroupPoint]:
    """The 2d horizontal coordinate generators, inverses in the back half."""
    d = group.abelian_dim
    m = group.dim
    out = []
    for sign in (1, -1):
        for j in range(d):
            coords = tuple(
                Fraction(sign) if k == j else Fraction(0) for k in range(m)
            )
            out.append(GroupPoint(coords, "graded", group.name))
    return out


def evaluate_factorization(group: NilpotentGroup, fact: Factorization) -> GroupPoint:
    """The product of a factorization's dilated generators, in floats."""
    law = group.law_graded
    d = group.abelian_dim
    acc = (0.0,) * group.dim
    for idx, a in fact.terms:
        j = idx if idx < d else idx - d
        sign = 1.0 if idx < d else -1.0
        acc = law.mul(acc, tuple(sign * a if k == j else 0.0
                                 for k in range(group.dim)))
    return GroupPoint(acc, "graded", group.name)


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


class _GadgetBasis:
    """Per-degree commutator gadget words spanning each graded level.

    Each level keeps its words and the exact inverse of the matrix whose
    columns are the words' level vectors, as integers over one common
    denominator, so a solve is one integer matrix-vector product.
    """

    def __init__(self, group: NilpotentGroup):
        self.words: dict[int, list[tuple]] = {}
        self.inverses: dict[int, tuple] = {}
        d = group.abelian_dim
        gens = [s.coords for s in generating_set(group)]
        law = group.law_graded
        idx_by_level: dict[int, list[int]] = {}
        for k, deg in enumerate(group.degrees):
            idx_by_level.setdefault(deg, []).append(k)
        for level in sorted(idx_by_level):
            if level == 1:
                continue
            coords_idx = idx_by_level[level]
            words, vectors = [], []
            for seq in _lex_sequences(d, level):
                w = _nested_word(d, seq)
                full = law.identity()
                for idx in w:
                    full = law.mul(full, gens[idx])
                vec = tuple(full[i] for i in coords_idx)
                if all(v == 0 for v in vec):
                    continue
                if len(rref(tuple(vectors) + (vec,))[0]) == len(vectors) + 1:
                    words.append(w)
                    vectors.append(vec)
                if len(vectors) == len(coords_idx):
                    break
            if len(vectors) < len(coords_idx):
                raise StructuralError(
                    f"gadget words do not span degree-{level} layer of {group.name}"
                )
            self.words[level] = words
            inv = mat_inv(tuple(zip(*vectors)))
            den = math.lcm(*(c.denominator for row in inv for c in row))
            self.inverses[level] = ([[int(c * den) for c in row] for row in inv], den)

    def solve(self, level: int, target_vec) -> tuple[list[int], int]:
        """Exact coefficients of target_vec over the level's words.

        target_vec holds float residual coordinates.  Returns integer
        numerators over one positive denominator, so a float coefficient
        is one correctly rounded division: the value float() of the
        Fraction gives.
        """
        num, den = self.inverses[level]
        ratios = [v.as_integer_ratio() for v in target_vec]
        scale = math.lcm(*(q for _, q in ratios))
        ints = [p * (scale // q) for p, q in ratios]
        return [sum(a * b for a, b in zip(row, ints)) for row in num], den * scale


def _lex_sequences(d: int, length: int):
    seq = [0] * length
    while True:
        yield tuple(seq)
        i = length - 1
        while i >= 0 and seq[i] == d - 1:
            seq[i] = 0
            i -= 1
        if i < 0:
            return
        seq[i] += 1


_gadgets = cache(_GadgetBasis)  # get_group: one group object per content


def _abelian_order(group: NilpotentGroup, order: str) -> list[int]:
    ab_indices = [k for k, deg in enumerate(group.degrees) if deg == 1]
    if order == "asc":
        return ab_indices
    if order == "desc":
        return ab_indices[::-1]
    raise StructuralError(f"unknown factorization order {order!r}")


@np.errstate(over="ignore", invalid="ignore")  # non-finite residuals raise below
def factorization_batch(group, points, order: str = "asc",
                        max_passes: int = 50,
                        tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Float factorization of every row of an (n, m) array of points.

    Each row is factored as a word of dilated horizontal generators,
    with the same float operations as on its own.  In every pass a row
    peels its lowest degree whose residual coordinates are not all
    within ``tol``: abelian coordinates (in ascending or descending
    coordinate order) become single dilated generators; a degree-k
    level is matched by its commutator gadget words, each dilated as a
    whole by |t|**(1/k) for the exact coefficient t of the float
    residual.  The cross terms each emission introduces live in
    strictly higher degrees, so repeated passes absorb them.

    Returns (letters, exponents), two (n, S) arrays: row i's word is the
    generator indices letters[i, s] with exponents exponents[i, s] in
    slot order, where exponent 0 marks a slot the row skips.  Raises
    FactorizationError when a row's residual is not finite, or not
    within ``tol`` after ``max_passes`` passes.
    """
    group = get_group(group)
    target = np.asarray(points, dtype=np.float64, order="F")
    if target.ndim != 2 or target.shape[1] != group.dim:
        raise StructuralError(f"expected rows of {group.dim} coordinates for {group.name}")
    n, m = target.shape
    ab_indices = _abelian_order(group, order)
    tab = law_table(group.law_graded)
    gadgets = _gadgets(group)
    d = group.abelian_dim
    degrees = np.asarray(group.degrees, dtype=np.float64)
    rows = np.arange(n)
    letters: list[np.ndarray] = []
    exponents: list[np.ndarray] = []

    def emit(idx: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Record one letter slot and return its rows' coordinates."""
        letters.append(idx)
        exponents.append(a)
        coords = np.zeros((n, m), order="F")
        coords[rows, np.where(idx < d, idx, idx - d)] = np.where(idx < d, a, -a)
        return coords

    acc = np.zeros((n, m), order="F")
    for _ in range(max_passes):
        r = bch_batch(tab, -acc, target)
        loud = np.abs(r) > tol
        if not loud.any() or not np.isfinite(r).all():
            break
        # a row with no loud coordinate has level inf and emits nothing
        level_of = np.where(loud, degrees, np.inf).min(axis=1)
        abelian = level_of == 1
        for j in ab_indices:
            go = abelian & loud[:, j]
            if go.any():
                idx = np.where(r[:, j] > 0, j, j + d)
                acc = bch_batch(tab, acc, emit(idx, np.where(go, np.abs(r[:, j]), 0.0)))
        for level, words in gadgets.words.items():
            sel = np.nonzero(level_of == level)[0]
            if sel.size == 0:
                continue
            cols = [k for k, deg in enumerate(group.degrees) if deg == level]
            sols = [gadgets.solve(level, row)
                    for row in r[np.ix_(sel, cols)].tolist()]
            for wi, word in enumerate(words):
                root = np.zeros(n)
                # Python's float power: numpy's vectorised ** can round
                # differently in the last bit
                root[sel] = [abs(t[wi] / den) ** (1.0 / level) for t, den in sols]
                if not root.any():
                    continue
                negative = np.zeros(n, dtype=bool)
                negative[sel] = [t[wi] < 0 for t, _ in sols]
                inverse = _invert_word(d, word)
                w = np.zeros((n, m), order="F")
                for up, down in zip(word, inverse):
                    w = bch_batch(tab, w, emit(np.where(negative, down, up), root))
                acc = bch_batch(tab, acc, w)
    else:  # max_passes used up: the residual after the last emissions
        r = bch_batch(tab, -acc, target)
    bad = np.nonzero(~(np.abs(r) <= tol).all(axis=1))[0]
    if bad.size:
        raise FactorizationError(
            f"factorization failed to converge for {group.name} "
            f"on {bad.size} of {n} points",
            residual=tuple(float(c) for c in r[bad[0]]))
    if not letters:
        return np.zeros((n, 0), dtype=np.int64), np.zeros((n, 0))
    return np.stack(letters, axis=1), np.stack(exponents, axis=1)


def horizontal_factorization(group, g, order: str = "asc",
                             max_passes: int = 50,
                             tol: float = 1e-12) -> Factorization:
    """Factor one graded-group point as a word of dilated generators.

    The one-row case of factorization_batch, with the skipped slots
    dropped from the word.
    """
    group = get_group(group)
    coords = g.coords if isinstance(g, GroupPoint) else tuple(g)
    letters, exps = factorization_batch(
        group, [tuple(float(c) for c in coords)], order, max_passes, tol)
    return Factorization(algebra=group.name, terms=tuple(
        (int(i), float(a)) for i, a in zip(letters[0], exps[0]) if a != 0))
