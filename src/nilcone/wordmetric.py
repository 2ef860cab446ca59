"""Lattices in Mal'cev coordinates, word metrics, and digit reduction.

A lattice is presented by a triangular Mal'cev basis u_1..u_m: u_i has
zero coordinates below position i and leading coefficient eta_i at
position i (the divisor).  Lattice elements are exactly the products
u_1^{c_1} * ... * u_m^{c_m} with integer digits c, and the digits are
recovered by coordinate-by-coordinate peeling, which also yields the
fundamental box of the left and right translation actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import takewhile

import numpy as np

from .algebra import StructuralError
from .bch import GroupPoint, get_group
from .geometry import quasi_norm_m


class CapExceeded(RuntimeError):
    """BFS state count exceeded the configured memory cap."""


DEFAULT_RADIUS_CAP = 25
DEFAULT_STATE_CAP = 10_000_000


@dataclass(frozen=True)
class LatticeSpec:
    """A cocompact lattice with a triangular Mal'cev basis.

    divisors lists eta_i for every coordinate (1 on the abelian block);
    basis rows are the exponential coordinates of u_1..u_m; generators
    is the symmetric word-metric generating set S.
    """

    name: str
    group: str
    divisors: tuple[int, ...]
    basis: tuple[tuple[Fraction, ...], ...]
    generators: tuple[GroupPoint, ...]

    @property
    def dim(self) -> int:
        return len(self.divisors)

    def leads(self) -> tuple[Fraction, ...]:
        return tuple(self.basis[i][i] for i in range(self.dim))

    def float_basis(self) -> tuple[np.ndarray, np.ndarray]:
        logs = np.array([[float(c) for c in row] for row in self.basis],
                        dtype=np.float64)
        leads = np.array([float(v) for v in self.leads()], dtype=np.float64)
        return logs, leads


def standard_lattice(group, divisors=None, name: str | None = None) -> LatticeSpec:
    """Integer lattice from coordinate generators and their commutators.

    Degree-one basis vectors are the coordinate generators; each deeper
    basis vector is a group commutator of earlier ones, chosen so the
    basis is triangular.  Divisors (indexed past the abelian block, or
    full length) scale the corresponding basis elements.
    """
    grp = get_group(group)
    m, d = grp.dim, grp.abelian_dim
    law = grp.law_group
    if divisors is None:
        divs = [1] * m
    else:
        divisors = list(divisors)
        if len(divisors) == m - d:
            divs = [1] * d + divisors
        elif len(divisors) == m:
            divs = divisors
        else:
            raise StructuralError(
                f"expected {m - d} or {m} divisors, got {len(divisors)}"
            )
    if any(int(e) != e or e < 1 for e in divs):
        raise StructuralError("divisors must be integers >= 1")
    if any(e != 1 for e in divs[:d]):
        raise StructuralError("abelian divisors must be 1")
    divs = [int(e) for e in divs]

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
    scaled = [law.pow(b, e) for b, e in zip(basis, divs)]
    grp_name = grp.name
    gens = []
    for j in range(d):
        gens.append(GroupPoint(scaled[j], "group", grp_name))
        gens.append(GroupPoint(law.inv(scaled[j]), "group", grp_name))
    return LatticeSpec(
        name=name or f"{grp_name}-lattice",
        group=grp_name,
        divisors=tuple(divs),
        basis=tuple(tuple(row) for row in scaled),
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


# ------------------------------------------------------------------- BFS

class _BallCache:
    """Incrementally expanded Cayley ball shared by metric queries."""

    def __init__(self, lat: LatticeSpec):
        self.lat = lat
        self.law = get_group(lat.group).law_group
        ident = self.law.identity()
        self.dist: dict[tuple, int] = {self._key(ident): 0}
        self.coords: dict[tuple, tuple] = {self._key(ident): ident}
        self.frontier: list[tuple] = [ident]
        self.radius = 0

    @staticmethod
    def _key(coords) -> tuple:
        return tuple((c.numerator, c.denominator) for c in coords)

    def ensure_radius(self, radius: int, state_cap: int = DEFAULT_STATE_CAP):
        while self.radius < radius and self.frontier:
            nxt = []
            r = self.radius + 1
            for g in self.frontier:
                for s in self.lat.generators:
                    h = self.law.mul(g, s.coords)
                    k = self._key(h)
                    if k not in self.dist:
                        self.dist[k] = r
                        self.coords[k] = h
                        nxt.append(h)
            if len(self.dist) > state_cap:
                raise CapExceeded(
                    f"ball at radius {r} exceeds {state_cap} states"
                )
            self.frontier = nxt
            self.radius = r

    def lookup(self, coords) -> int | None:
        return self.dist.get(self._key(coords))


_BALL_CACHES: dict[LatticeSpec, _BallCache] = {}  # LatticeSpec is frozen


def _ball_cache(lat: LatticeSpec) -> _BallCache:
    cache = _BALL_CACHES.get(lat)
    if cache is None:
        cache = _BALL_CACHES[lat] = _BallCache(lat)
    return cache


def ball_points(lat: LatticeSpec, radius: int) -> list[tuple]:
    """Lattice points of word length <= radius, identity first.

    Points come in breadth-first order, each layer multiplying the
    previous one by every generator on the right in generator order.
    """
    cache = _ball_cache(lat)
    cache.ensure_radius(radius)
    # dist is filled in breadth-first order: stop at the first farther point
    inside = takewhile(lambda kd: kd[1] <= radius, cache.dist.items())
    return [cache.coords[k] for k, _ in inside]


def word_norm_bfs(lat: LatticeSpec, g, radius_cap: int = DEFAULT_RADIUS_CAP,
                  state_cap: int = DEFAULT_STATE_CAP) -> int | None:
    """Exact word length of a lattice point, or None beyond radius_cap."""
    coords = fraction_coords(g, lat.dim)
    if not member(lat, coords):
        raise StructuralError("word_norm_bfs: point is not in the lattice")
    cache = _ball_cache(lat)
    found = cache.lookup(coords)
    if found is not None:
        return found
    while cache.radius < radius_cap:
        cache.ensure_radius(cache.radius + 1, state_cap)
        found = cache.lookup(coords)
        if found is not None:
            return found
        if not cache.frontier:
            break
    return None


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
    cache = _ball_cache(lat)
    cache.ensure_radius(radius, state_cap)
    m = lat.dim
    counts = [0] * (radius + 1)
    maxima = [[0.0] * m for _ in range(radius + 1)]
    for k, dist in cache.dist.items():
        if dist > radius:
            continue
        counts[dist] += 1
        for i in range(m):
            num, den = k[i]
            v = abs(num / den)
            if v > maxima[dist][i]:
                maxima[dist][i] = v
    rows = []
    total = 0
    running = [0.0] * m
    for n in range(radius + 1):
        total += counts[n]
        for i in range(m):
            running[i] = max(running[i], maxima[n][i])
        rows.append((n, total) + tuple(running))
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
    lattice point inside the computed ball.
    """
    grp = get_group(lat.group)
    grad = grp.grad
    cache = _ball_cache(lat)
    cache.ensure_radius(radius, state_cap)
    deg1 = [i for i, d in enumerate(grp.degrees) if d == 1]
    c_low = 0.0
    c_high = 0.0
    com_ratio = None
    for key, dist in cache.dist.items():
        if dist == 0 or dist > radius:
            continue
        coords = cache.coords[key]
        qn = quasi_norm_m(grad, coords)
        c_low = max(c_low, qn / dist)
        c_high = max(c_high, dist / (qn + 1.0))
        proj = tuple(Fraction(0) if i in deg1 else c for i, c in enumerate(coords))
        if any(c != 0 for c in proj) and member(lat, proj):
            pd = cache.lookup(proj)
            # A warmer shared cache must not change the answer: only
            # projections inside the same radius ball participate.
            if pd is not None and pd <= radius:
                r = pd / dist
                com_ratio = r if com_ratio is None else max(com_ratio, r)
    return GuivarchConstants(radius=radius, c_low=c_low, c_high=c_high,
                             com_ratio=com_ratio)


# A name stays bound to one set of structure constants (bch.get_group),
# so names and divisors key the lattice.
_builtin_lattice = cache(standard_lattice)


def builtin_lattice(group_name: str, divisors=None) -> LatticeSpec:
    return _builtin_lattice(group_name, tuple(divisors) if divisors else None)
