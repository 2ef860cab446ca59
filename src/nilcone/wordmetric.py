"""Lattices in Mal'cev coordinates, word metrics, and digit reduction.

A lattice is presented by a triangular Mal'cev basis u_1..u_m: u_i has
zero coordinates below position i and a nonzero leading coefficient at
position i.  Lattice elements are exactly the products
u_m^{c_m} * ... * u_1^{c_1} with integer digits c, and the digits are
recovered by coordinate-by-coordinate peeling, which also yields the
fundamental box of the left and right translation actions.

The Cayley ball runs on the digits alone (P. Hall's integer-valued
polynomials).  Once per lattice, on its first ball query, the BCH tables
give two sets of polynomials in the digits: the exponential coordinates
of the point (the exp map) and, for each generator s, the digits of
c * s (a generator step, found by a symbolic right peel whose remainder
must vanish).  Both are kept as integer numerators over one denominator
per coordinate and evaluated on int64 digit arrays; an evaluation or a
packed row key that could pass int64 is refused with CapExceeded.  On a
2-core machine (Python 3.11, numpy 2.4) the heisenberg3 ball profile and
Guivarc'h constants take 0.2 s + 0.1 s at radius 24 (141,225 states),
where the rational breadth-first search took 13-18 s, and the radius-48
profile (2,268,225 states) takes about 3.5 s with a peak resident set of
207 MiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .algebra import StructuralError
from .bch import GroupPoint, Mono, Poly, _poly_axpy, _poly_mul, get_group


class CapExceeded(RuntimeError):
    """BFS state count, or an int64 digit computation, exceeded its cap."""


DEFAULT_RADIUS_CAP = 25
DEFAULT_STATE_CAP = 10_000_000
_INT64_LIMIT = 1 << 63


@dataclass(frozen=True)
class LatticeSpec:
    """A cocompact lattice with a triangular Mal'cev basis.

    basis rows are the exponential coordinates of u_1..u_m; generators
    is the word-metric generating set S.
    """

    name: str
    group: str
    basis: tuple[tuple[Fraction, ...], ...]
    generators: tuple[GroupPoint, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def leads(self) -> tuple[Fraction, ...]:
        return tuple(self.basis[i][i] for i in range(self.dim))

    def float_basis(self) -> tuple[np.ndarray, np.ndarray]:
        logs = np.array([[float(c) for c in row] for row in self.basis],
                        dtype=np.float64)
        leads = np.array([float(v) for v in self.leads()], dtype=np.float64)
        return logs, leads


def standard_lattice(group, name: str | None = None) -> LatticeSpec:
    """Integer lattice from coordinate generators and their commutators.

    Degree-one basis vectors are the coordinate generators; each deeper
    basis vector is a group commutator of earlier ones, chosen so the
    basis is triangular.  The generators are the degree-one basis
    vectors and their inverses.
    """
    grp = get_group(group)
    m, d = grp.dim, grp.abelian_dim
    law = grp.law_group
    basis: list[tuple] = []
    for k in range(m):
        if grp.degrees[k] == 1:
            basis.append(tuple(Fraction(1 if j == k else 0) for j in range(m)))
            continue
        found = None
        for i in range(k):
            for j in range(k):
                if grp.degrees[i] + grp.degrees[j] != grp.degrees[k]:
                    continue
                cand = law.comm(basis[i], basis[j])
                if cand[k] == 0:
                    continue
                if any(cand[p] != 0 for p in range(k)):
                    continue
                found = cand
                break
            if found is not None:
                break
        if found is None:
            raise StructuralError(
                f"no triangular commutator basis vector for coordinate {k}"
            )
        if found[k] < 0:
            found = law.inv(found)
        basis.append(tuple(found))
    gens = []
    for j in range(d):
        gens.append(GroupPoint(basis[j], "group", grp.name))
        gens.append(GroupPoint(law.inv(basis[j]), "group", grp.name))
    return LatticeSpec(
        name=name or f"{grp.name}-lattice",
        group=grp.name,
        basis=tuple(basis),
        generators=tuple(gens),
    )


def fraction_coords(g, dim: int | None = None) -> tuple[Fraction, ...]:
    """Coordinates of a GroupPoint or sequence as Fractions.

    With dim given, a point of any other length is a StructuralError.
    """
    coords = g.coords if isinstance(g, GroupPoint) else tuple(g)
    if dim is not None and len(coords) != dim:
        raise StructuralError(f"expected {dim} coordinates")
    return tuple(Fraction(c) for c in coords)


def _round_half_even(q: Fraction) -> int:
    f = q - (q.numerator // q.denominator)
    n = q.numerator // q.denominator
    if f > Fraction(1, 2) or (f == Fraction(1, 2) and n % 2 == 1):
        return n + 1
    return n


def _peel(lat: LatticeSpec, coords, mode: str, side: str):
    grp = get_group(lat.group)
    law = grp.law_group
    p = fraction_coords(coords, lat.dim)
    leads = lat.leads()
    digits = []
    for i in range(lat.dim):
        q = p[i] / leads[i]
        c = q.numerator // q.denominator if mode == "floor" else _round_half_even(q)
        digits.append(c)
        if c != 0:
            step = law.pow(lat.basis[i], -c)
            p = law.mul(p, step) if side == "right" else law.mul(step, p)
    return tuple(digits), tuple(p)


def right_peel(lat: LatticeSpec, coords, mode: str = "floor"):
    """Digits and remainder, peeling lattice factors off the right.

    Reconstruction is remainder * u_m^{c_m} * ... * u_1^{c_1}: the peel
    divides off u_1 first, so basis factors stack in descending order.
    """
    return _peel(lat, coords, mode, "right")


def left_peel(lat: LatticeSpec, coords, mode: str = "floor"):
    """Digits and remainder, peeling lattice factors off the left.

    Reconstruction is u_1^{c_1} * ... * u_m^{c_m} * remainder, the
    mirror of right_peel with ascending basis order.
    """
    return _peel(lat, coords, mode, "left")


def digits_to_point(lat: LatticeSpec, digits, order: str = "desc") -> GroupPoint:
    """Lattice point with the given digits.

    order "desc" composes u_m^{c_m} * ... * u_1^{c_1} (the right_peel
    convention, the default everywhere digits come from a right
    reduction); "asc" is the left_peel convention.
    """
    grp = get_group(lat.group)
    law = grp.law_group
    acc = law.identity()
    idx = range(len(digits) - 1, -1, -1) if order == "desc" else range(len(digits))
    for i in idx:
        c = digits[i]
        if c != 0:
            acc = law.mul(acc, law.pow(lat.basis[i], int(c)))
    return GroupPoint(acc, "group", lat.group)


def member(lat: LatticeSpec, g) -> bool:
    _, rem = right_peel(lat, g)
    return all(c == 0 for c in rem)


def point_digits(lat: LatticeSpec, g) -> tuple[int, ...]:
    digits, rem = right_peel(lat, g)
    if any(c != 0 for c in rem):
        raise StructuralError("point is not in the lattice")
    return digits


def round_to_lattice(lat: LatticeSpec, g) -> GroupPoint:
    """Nearest-digit lattice point (peeling order, ties to even)."""
    digits, _ = right_peel(lat, g, mode="round")
    return digits_to_point(lat, digits)


# ------------------------------------------------------------ digit polynomials

def _scaled(poly: Poly, c) -> Poly:
    return {mono: v * c for mono, v in poly.items()} if c else {}


def _poly_point_mul(law, a: list[Poly], b: list[Poly]) -> list[Poly]:
    """Group product of two points whose coordinates are digit polynomials."""
    vals = a + b
    out = []
    for k, terms in enumerate(law.polys):
        acc: Poly = {}
        _poly_axpy(acc, Fraction(1), a[k])
        _poly_axpy(acc, Fraction(1), b[k])
        for mono, c in terms:
            term: Poly = {(): Fraction(1)}
            for v, e in mono:
                for _ in range(e):
                    term = _poly_mul(term, vals[v])
            _poly_axpy(acc, c, term)
        out.append(acc)
    return out


@dataclass(frozen=True)
class _IntPolys:
    """Polynomials in the digits as integer numerators over dens[k]."""

    what: str  # names the map in an overflow error
    dens: tuple[int, ...]
    terms: tuple[tuple[tuple[int, Mono], ...], ...]

    @classmethod
    def of(cls, what: str, polys: list[Poly]) -> "_IntPolys":
        dens = tuple(math.lcm(*(c.denominator for c in p.values())) for p in polys)
        return cls(what, dens, tuple(
            tuple((int(c * den), mono) for mono, c in p.items())
            for p, den in zip(polys, dens)))

    def numerators(self, rows: np.ndarray) -> np.ndarray:
        """Numerators at each int64 digit row, refusing any int64 overflow.

        The bound sums |coefficient| * prod max|c_v|^e over the terms, so
        it also bounds every partial product and partial sum.
        """
        top = [int(v) for v in np.abs(rows).max(axis=0)]
        out = np.empty((len(rows), len(self.terms)), dtype=np.int64)
        for k, terms in enumerate(self.terms):
            bound = sum(abs(c) * math.prod(top[v] ** e for v, e in mono)
                        for c, mono in terms)
            if bound >= _INT64_LIMIT:
                raise CapExceeded(
                    f"{self.what} coordinate {k} could pass int64 at digits up to "
                    f"{max(top)}")
            acc = np.zeros(len(rows), dtype=np.int64)
            for c, mono in terms:
                term = c
                for v, e in mono:
                    for _ in range(e):
                        term = term * rows[:, v]
                acc += term
            out[:, k] = acc
        return out


def _exp_and_steps(lat: LatticeSpec) -> tuple[_IntPolys, list[_IntPolys]]:
    """The exp map and every generator step of a lattice, exactly."""
    law = get_group(lat.group).law_group
    m = lat.dim
    point: list[Poly] = [{} for _ in range(m)]
    for i in reversed(range(m)):  # u_m^{c_m} * ... * u_1^{c_1}
        point = _poly_point_mul(law, point, [_scaled({((i, 1),): Fraction(1)}, b)
                                             for b in lat.basis[i]])
    leads = lat.leads()
    steps = []
    for s in lat.generators:
        if not member(lat, s):
            raise StructuralError(f"generator {s.coords} is not a lattice point")
        p = _poly_point_mul(law, point, [_scaled({(): Fraction(1)}, c)
                                         for c in fraction_coords(s, m)])
        digits = []
        for i in range(m):  # the right peel, on polynomials
            q = _scaled(p[i], 1 / leads[i])
            digits.append(q)
            p = _poly_point_mul(law, p, [_scaled(q, -b) for b in lat.basis[i]])
        if any(p):
            raise StructuralError(f"generator {s.coords} leaves a peel remainder")
        steps.append(_IntPolys.of("generator step", digits))
    return _IntPolys.of("exp map", point), steps


# ------------------------------------------------------------------ row keys

class _RowIndex:
    """Exact lookup of int64 rows: one packed int64 key per row, sorted."""

    def __init__(self, table: np.ndarray):
        self.lo = table.min(axis=0)
        self.span = table.max(axis=0) - self.lo + 1
        if math.prod(int(s) for s in self.span) >= _INT64_LIMIT:
            raise CapExceeded(f"packed row keys over spans {self.span.tolist()} "
                              f"would pass int64")
        keys = self._pack(table)
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]

    def _pack(self, rows: np.ndarray) -> np.ndarray:
        key = np.zeros(len(rows), dtype=np.int64)
        for j, s in enumerate(self.span):
            key = key * s + (rows[:, j] - self.lo[j])
        return key

    def first_rows(self) -> np.ndarray:
        """Table position of the first row of each distinct key."""
        new = np.ones(len(self.keys), dtype=bool)
        new[1:] = self.keys[1:] != self.keys[:-1]
        return self.order[new]

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Table position of each row, or -1 where the table lacks it."""
        out = np.full(len(rows), -1, dtype=np.int64)
        inside = np.flatnonzero(np.all((rows >= self.lo) & (rows < self.lo + self.span),
                                       axis=1))
        keys = self._pack(rows[inside])
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        hit = self.keys[pos] == keys
        out[inside[hit]] = self.order[pos[hit]]
        return out


# ------------------------------------------------------------------- BFS

class _DigitBall:
    """Cayley ball of a lattice on int64 digits, grown a layer at a time.

    layers[r] holds the digit rows of word length r in first-seen order:
    frontier order, then generator order.
    """

    def __init__(self, lat: LatticeSpec):
        self.lat = lat
        self.exp, self.steps = _exp_and_steps(lat)
        law = get_group(lat.group).law_group
        gens = {fraction_coords(s, lat.dim) for s in lat.generators}
        # A neighbour of layer r lies in layer r-1, r or r+1 when S = S^-1.
        self.symmetric = all(law.inv(s) in gens for s in gens)
        self.layers = [np.zeros((1, lat.dim), dtype=np.int64)]
        self.size = 1
        self._index: tuple[int, _RowIndex, np.ndarray] | None = None

    @property
    def radius(self) -> int:
        return len(self.layers) - 1

    @property
    def dist(self) -> np.ndarray:
        """Word length of every state, in breadth-first order."""
        return np.repeat(np.arange(len(self.layers)), [len(x) for x in self.layers])

    def grow(self, radius: int, state_cap: int = DEFAULT_STATE_CAP) -> None:
        while self.radius < radius and len(self.layers[-1]):
            front = self.layers[-1]
            cand = np.stack(
                [s.numerators(front) // np.array(s.dens)
                 for s in self.steps], axis=1).reshape(-1, self.lat.dim)
            seen = self.layers[-2:] if self.symmetric else self.layers
            table = np.concatenate(seen + [cand])
            first = _RowIndex(table).first_rows()
            n_seen = len(table) - len(cand)
            layer = cand[np.sort(first[first >= n_seen]) - n_seen]
            if self.size + len(layer) > state_cap:
                raise CapExceeded(
                    f"ball at radius {self.radius + 1} exceeds {state_cap} states")
            self.layers.append(layer)
            self.size += len(layer)

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """Word length of each digit row inside the ball, or -1."""
        if self._index is None or self._index[0] != self.radius:
            ends = np.cumsum([len(x) for x in self.layers])
            self._index = (self.radius, _RowIndex(np.concatenate(self.layers)), ends)
        _, index, ends = self._index
        pos = index.find(rows)
        return np.where(pos >= 0, np.searchsorted(ends, pos, side="right"), -1)

    def quasi_norms(self, nums: np.ndarray) -> np.ndarray:
        """max_k |x_k|^(1/d_k) per row of exp numerators, as quasi_norm_m.

        The power is Python's float ** on each distinct value, so every
        row gets the bits quasi_norm_m gives its Fraction coordinates.
        """
        qn = np.zeros(len(nums), dtype=np.float64)
        degrees = get_group(self.lat.group).degrees
        for k, (den, d) in enumerate(zip(self.exp.dens, degrees)):
            vals, inv = np.unique(np.abs(nums[:, k]), return_inverse=True)
            roots = np.array([(v / den) ** (1.0 / d) for v in vals.tolist()],
                             dtype=np.float64)
            np.maximum(qn, roots[inv.reshape(-1)], out=qn)
        return qn


_BALL_CACHES: dict[LatticeSpec, _DigitBall] = {}  # LatticeSpec is frozen


def _ball(lat: LatticeSpec) -> _DigitBall:
    ball = _BALL_CACHES.get(lat)
    if ball is None:
        ball = _BALL_CACHES[lat] = _DigitBall(lat)
    return ball


def ball_points(lat: LatticeSpec, radius: int) -> list[tuple]:
    """Lattice points of word length <= radius, identity first.

    Points come in breadth-first order, each layer multiplying the
    previous one by every generator on the right in generator order.
    """
    ball = _ball(lat)
    ball.grow(radius)
    nums = ball.exp.numerators(np.concatenate(ball.layers[:radius + 1]))
    return [tuple(Fraction(v, d) for v, d in zip(row, ball.exp.dens))
            for row in nums.tolist()]


def word_norms(lat: LatticeSpec, digit_rows, radius_cap: int = DEFAULT_RADIUS_CAP,
               state_cap: int = DEFAULT_STATE_CAP) -> np.ndarray:
    """Exact word length of each digit row, or -1 beyond radius_cap.

    A row inside the cached ball is answered at any length; the ball
    grows up to radius_cap only while some row is still missing.
    """
    ball = _ball(lat)
    rows = np.asarray(digit_rows, dtype=np.int64).reshape(-1, lat.dim)
    out = ball.locate(rows)
    while (out < 0).any() and ball.radius < radius_cap and len(ball.layers[-1]):
        ball.grow(ball.radius + 1, state_cap)
        miss = np.flatnonzero(out < 0)
        out[miss[_RowIndex(ball.layers[-1]).find(rows[miss]) >= 0]] = ball.radius
    return out


def word_norm_bfs(lat: LatticeSpec, g, radius_cap: int = DEFAULT_RADIUS_CAP,
                  state_cap: int = DEFAULT_STATE_CAP) -> int | None:
    """Exact word length of a lattice point, or None beyond radius_cap."""
    digits = point_digits(lat, g)
    if any(abs(c) >= _INT64_LIMIT for c in digits):
        return None  # farther than any ball whose digits fit in int64
    w = int(word_norms(lat, [digits], radius_cap, state_cap)[0])
    return None if w < 0 else w


def digit_quasi_norms(lat: LatticeSpec, digit_rows) -> np.ndarray:
    """quasi_norm_m of the lattice points with the given digit rows."""
    ball = _ball(lat)
    rows = np.asarray(digit_rows, dtype=np.int64).reshape(-1, lat.dim)
    return ball.quasi_norms(ball.exp.numerators(rows))


@dataclass(frozen=True)
class BallProfile:
    """Cumulative ball sizes and per-coordinate maxima by radius."""

    lattice: str
    rows: tuple[tuple, ...]  # (n, ball_size, max_coord_1..m)

    def sizes(self) -> list[int]:
        return [row[1] for row in self.rows]

    def csv_rows(self):
        m = len(self.rows[0]) - 2 if self.rows else 0
        header = ["n", "ball_size"] + [f"max_coord_{i + 1}" for i in range(m)]
        return header, [list(r) for r in self.rows]


def ball_profile(lat: LatticeSpec, radius: int,
                 state_cap: int = DEFAULT_STATE_CAP) -> BallProfile:
    if radius < 0:
        raise StructuralError(f"ball radius must be >= 0, got {radius}")
    ball = _ball(lat)
    ball.grow(radius, state_cap)
    rows = []
    total = 0
    top = [0] * lat.dim  # largest |exp numerator| so far, per coordinate
    for n, layer in enumerate(ball.layers[:radius + 1]):
        total += len(layer)
        nums = ball.exp.numerators(layer)
        top = [max(t, int(v)) for t, v in zip(top, np.abs(nums).max(axis=0))]
        rows.append((n, total) + tuple(t / d for t, d in zip(top, ball.exp.dens)))
    return BallProfile(lattice=lat.name, rows=tuple(rows))


@dataclass(frozen=True)
class GuivarchConstants:
    """Empirical constants of the word-metric/quasi-norm sandwich."""

    radius: int
    c_low: float
    c_high: float
    com_ratio: float | None


def guivarch_constants(lat: LatticeSpec, radius: int,
                       state_cap: int = DEFAULT_STATE_CAP) -> GuivarchConstants:
    """Extremal ratios over the radius-ball.

    c_low bounds |g|_m <= c_low |g|_Gamma, c_high bounds
    |g|_Gamma <= c_high (|g|_m + 1); com_ratio is the largest ratio
    |g_com|_Gamma / |g|_Gamma over ball points g whose commutator
    projection g_com (the degree-one coordinates zeroed) is itself a
    point of the same radius ball.
    """
    if radius < 1:
        raise StructuralError(f"Guivarc'h radius must be >= 1, got {radius}")
    grp = get_group(lat.group)
    ball = _ball(lat)
    ball.grow(radius, state_cap)
    layers = ball.layers[1:radius + 1]
    dist = np.repeat(np.arange(1.0, len(layers) + 1), [len(x) for x in layers])
    nums = ball.exp.numerators(np.concatenate(layers))
    qn = ball.quasi_norms(nums)
    c_low = float(np.max(qn / dist))
    c_high = float(np.max(dist / (qn + 1.0)))
    # A lookup among the ball's exp coordinates can only hit lattice
    # points, and a warmer shared cache cannot change the answer.
    proj = nums.copy()
    proj[:, [i for i, d in enumerate(grp.degrees) if d == 1]] = 0
    rows = np.flatnonzero(np.any(proj != 0, axis=1))
    hit = _RowIndex(nums).find(proj[rows])
    found = hit >= 0
    com_ratio = (float(np.max(dist[hit[found]] / dist[rows[found]]))
                 if found.any() else None)
    return GuivarchConstants(radius=radius, c_low=c_low, c_high=c_high,
                             com_ratio=com_ratio)


# A name stays bound to one set of structure constants (bch.get_group),
# so the name keys the lattice.
@cache
def builtin_lattice(group_name: str) -> LatticeSpec:
    return standard_lattice(group_name)
