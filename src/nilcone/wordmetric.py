"""Lattices in Mal'cev coordinates, word metrics, and digit reduction.

A lattice is presented by a triangular Mal'cev basis u_1..u_m: u_i has
zero coordinates below position i and a nonzero leading coefficient at
position i.  Lattice elements are exactly the products
u_m^{c_m} * ... * u_1^{c_1} with integer digits c, and the digits are
recovered by coordinate-by-coordinate peeling, which also yields the
fundamental box of the left and right translation actions.

The exact lane runs on P. Hall's integer-valued polynomials, derived
once per lattice from the BCH tables (LatticeSpec.polys) and kept as
ratlin.IntPolys tables: the exp map (the exponential coordinates of the
point with digits c, in either order) and, per peeling side, q_i
(coordinate i of the partly peeled point over lead_i, a polynomial in
the point and the earlier digits).  The peel evaluates q_i on integer
numerators over the point's common denominator, takes c_i = floor(q_i)
(or the nearest integer) and reads remainder coordinate i as
lead_i * (q_i - c_i): the basis is triangular and graded, so no later
step moves it.  member() and point_digits() are integrality checks of
the q_i, and digits_to_point evaluates the exp map on Python ints; no
GroupLaw product is formed.  The float lane's one peel (peel_batch,
peel_coords) and its exp map (digit_coords: integer numerators on
float64 digits, exact below 2^53 and refused past it), and the ball
below, run the same tables through the one column loop
(IntPolys.column), each guarding its own term bound (IntPolys.bound)
first.

The Cayley ball runs on the digits alone.  For each generator s the
digits of c * s (a generator step) are the right-peel polynomials
composed with the exp map times s.  Exp map and steps are evaluated on
int64 digit arrays; an evaluation or a packed row key that could pass
int64 is refused with CapExceeded.  On a 2-core machine (Python 3.11,
numpy 2.4) the heisenberg3 ball profile and Guivarc'h constants take
0.2 s + 0.1 s at radius 24 (141,225 states), where the rational
breadth-first search took 13-18 s, and the radius-48 profile (2,268,225
states) takes about 3.5 s with a peak resident set of 207 MiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .algebra import StructuralError
from .bch import GroupPoint, coords_of, get_group
from .kernels import Workspace
from .ratlin import INT64_LIMIT, CapExceeded, IntPolys, Poly, numerators, poly_axpy, poly_mul


class PrecisionLimit(StructuralError):
    """A float batch too large in magnitude for exact digits."""


# Float peel digits match the exact lane while every term and partial sum
# of q_i, in lattice units, leaves FRACTION_BITS of a double's 53 bits
# below the binary point: a batch is refused once the term bound of some
# q_i (IntPolys.column) reaches 2^(53 - FRACTION_BITS).  A bound on the
# point's coordinates alone let heisenberg gamma = (2^24, 2^24, 0)
# through, whose q_2 terms reach 2^48.6: 6 of 400 float digits differed.
FRACTION_BITS = 12
_FLOAT_DIGIT_LIMIT = 2.0 ** (53 - FRACTION_BITS)


def _float_guard(k: int, mag: float) -> None:
    """Refuse coordinate k at mag lattice units (or NaN) past the limit."""
    if not mag < _FLOAT_DIGIT_LIMIT:
        raise PrecisionLimit(
            f"coordinate {k} of the point to peel reaches {mag:.3g} lattice "
            f"units, past 2^{53 - FRACTION_BITS}: fewer than {FRACTION_BITS} "
            f"fraction bits are left for exact float digits")


def _float_or_inf(c) -> float:
    try:
        return float(c)
    except OverflowError:  # an exact value past the float range
        return math.inf if c > 0 else -math.inf


def lane_coords(lat: LatticeSpec, coords) -> np.ndarray:
    """Float coordinates of an exact point of lat, refused with PrecisionLimit,
    before any float use, where one over its lead passes the peel's limit."""
    out = np.asarray([_float_or_inf(c) for c in coords], dtype=np.float64)
    for k, (c, lead) in enumerate(zip(out, lat.leads())):
        _float_guard(k, abs(c) / float(lead))
    return out


DEFAULT_RADIUS_CAP = 25
STATE_CAP = 10_000_000  # states of one lattice's cached Cayley ball


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

    @cached_property
    def polys(self) -> "_DigitPolys":
        """Exp-map and peel polynomials, derived on first use and kept."""
        return _DigitPolys(self)

    def float_basis(self) -> tuple[np.ndarray, np.ndarray]:
        logs = np.array([[float(c) for c in row] for row in self.basis],
                        dtype=np.float64)
        leads = np.array([float(v) for v in self.leads()], dtype=np.float64)
        return logs, leads


def standard_lattice(group) -> LatticeSpec:
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
        gens.append(GroupPoint(basis[j]))
        gens.append(GroupPoint(law.inv(basis[j])))
    return LatticeSpec(
        name=f"{grp.name}-lattice",
        group=grp.name,
        basis=tuple(basis),
        generators=tuple(gens),
    )


def fraction_coords(g, dim: int | None = None) -> tuple[Fraction, ...]:
    """Coordinates of a GroupPoint or sequence as Fractions.

    With dim given, a point of any other length is a StructuralError.
    """
    coords = coords_of(g)
    if dim is not None and len(coords) != dim:
        raise StructuralError(f"expected {dim} coordinates")
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


def _peel_numerators(lat: LatticeSpec, coords, mode: str, side: str):
    """Digits c_i and each q_i = num_i / den_i of a peel, on Python ints.

    q_i is coordinate i of the partly peeled point divided by lead_i, a
    polynomial in the point and the earlier digits (LatticeSpec.polys).
    Its remainder coordinate lead_i * (q_i - c_i) is final: the basis is
    triangular and graded, so no later peel step moves coordinate i.
    """
    tables = lat.polys.peel[side]
    vals, d = numerators(fraction_coords(coords, lat.dim))
    pows = tables.powers(d)
    digits, nums, dens = [], [], []
    for i in range(lat.dim):
        num, den = tables.value(i, vals, pows)
        c, r = divmod(num, den)
        if mode != "floor" and (2 * r > den or (2 * r == den and c % 2)):
            c += 1  # round half to even
        digits.append(c)
        nums.append(num)
        dens.append(den)
        vals.append(c)
    return digits, nums, dens


def peel(lat: LatticeSpec, coords, mode: str = "floor", side: str = "right"):
    """Digits and remainder of a point, peeling lattice factors off one side.

    Side "right" reconstructs remainder * u_m^{c_m} * ... * u_1^{c_1}
    (u_1 is divided off first, so basis factors stack in descending
    order); side "left" reconstructs u_1^{c_1} * ... * u_m^{c_m} *
    remainder.  Mode "floor" lands remainder coordinate i in [0, lead_i),
    "round" (half to even) in [-lead_i/2, lead_i/2].
    """
    digits, nums, dens = _peel_numerators(lat, coords, mode, side)
    rem = tuple(Fraction(e.numerator * (num - c * den), e.denominator * den)
                for e, c, num, den in zip(lat.leads(), digits, nums, dens))
    return tuple(digits), rem


def right_peel(lat: LatticeSpec, coords):
    """The floor peel off the right, the peel of every reduction to the domain."""
    return peel(lat, coords, "floor", "right")


def peel_digits(lat: LatticeSpec, coords, mode: str = "floor",
                side: str = "right") -> tuple[int, ...]:
    """The digits of a peel alone, without forming its remainder."""
    return tuple(_peel_numerators(lat, coords, mode, side)[0])


def digits_to_point(lat: LatticeSpec, digits, order: str = "desc") -> GroupPoint:
    """Lattice point with the given digits.

    order "desc" composes u_m^{c_m} * ... * u_1^{c_1} (the right_peel
    convention, the default everywhere digits come from a right
    reduction); "asc" is the left peel's convention.  The exp-map
    polynomials are evaluated on Python ints, so any digit size is exact.
    """
    vals = [int(c) for c in digits]
    if len(vals) != lat.dim:
        raise StructuralError(f"expected {lat.dim} digits, got {len(vals)}")
    return GroupPoint(lat.polys.exp[order].at(vals))


def _integral_digits(lat: LatticeSpec, g):
    """The digits of g, or None when g is not a lattice point."""
    digits, nums, dens = _peel_numerators(lat, g, "floor", "right")
    return None if any(n % d for n, d in zip(nums, dens)) else tuple(digits)


def member(lat: LatticeSpec, g) -> bool:
    """Whether g is a lattice point: every q_i of the right peel is an integer."""
    return _integral_digits(lat, g) is not None


def point_digits(lat: LatticeSpec, g) -> tuple[int, ...]:
    digits = _integral_digits(lat, g)
    if digits is None:
        raise StructuralError("point is not in the lattice")
    return digits


def round_to_lattice(lat: LatticeSpec, g) -> GroupPoint:
    """Nearest-digit lattice point (peeling order, ties to even)."""
    return digits_to_point(lat, peel_digits(lat, g, mode="round"))


def _abs_max(col: np.ndarray):
    """max |col|, 0 for an empty column and NaN where col holds one."""
    return max(col.max(initial=0.0), -col.min(initial=0.0))


def _peel_columns(lat: LatticeSpec, omega, mode: str, side: str, qs, digits, term):
    """The float peel of the rows of omega: q_i into the column qs[i] and
    the digits c_i (the floor or nearest integer of q_i) into the (n, m)
    column-major digits, with term as the scratch column; returns digits.
    Each q_i is the exact lane's polynomial evaluated on float columns of
    the point and of the earlier digits.  A batch (a caller's block) whose
    q_i terms could reach 2^(53 - FRACTION_BITS) lattice units by its
    column maxima, or that holds a NaN, is refused with PrecisionLimit
    before q_i is formed."""
    w = np.asarray(omega, dtype=np.float64, order="F")
    if w.ndim != 2 or w.shape[1] != lat.dim:
        raise ValueError("a float peel expects an (n, dim) array")
    tables = lat.polys.peel[side]
    rounding = {"floor": np.floor, "round": np.rint}[mode]
    cols = [w[:, v] for v in range(lat.dim)]
    top = [_abs_max(c) for c in cols]
    for i, den in enumerate(tables.dens):
        _float_guard(i, tables.bound(i, top) / den)
        q = tables.column(i, cols, qs[i], term)
        if den != 1:
            q /= den
        cols.append(rounding(q, out=digits[:, i]))
        top.append(_abs_max(cols[-1]))
    return digits


def peel_batch(lat: LatticeSpec, omega, mode: str = "floor", side: str = "right"):
    """peel over the float rows of omega: int64 digits and remainders,
    column-major, refused as _peel_columns refuses."""
    work = Workspace.fresh(len(omega), lat.dim)
    qs = work.b.T  # qs[i] is column i
    digits = _peel_columns(lat, omega, mode, side, qs, work.d, work.s)
    rem = [float(lead) * (q - c) for lead, q, c in zip(lat.leads(), qs, digits.T)]
    return digits.astype(np.int64), np.array(rem).T


def peel_coords(lat: LatticeSpec, omega, mode: str = "floor",
                side: str = "right", work: Workspace | None = None) -> np.ndarray:
    """Float coordinates of the lattice point each row of omega peels to:
    digit_coords of the peel's own float digits, in order "desc" on the
    right side and "asc" on the left.  They land in work.a, the digits in
    work.d and the scratch in work.s and work.t, so omega may lie in
    work.b or work.c; without work, in fresh arrays."""
    work = work or Workspace.fresh(len(omega), lat.dim)
    digits = _peel_columns(lat, omega, mode, side, [work.t] * lat.dim, work.d, work.s)
    return digit_coords(lat, digits, "desc" if side == "right" else "asc",
                        out=work.a, term=work.s)


def digit_coords(lat: LatticeSpec, digits, order: str = "desc",
                 out: np.ndarray | None = None, term: np.ndarray | None = None) -> np.ndarray:
    """Float coordinates of the lattice points with the given digit rows,
    into out (column-major) with term as the scratch column: the exp map of
    digits_to_point, integer numerators evaluated on float64 digit
    columns, then divided once.  Below 2^53 every term and partial sum of
    integers is exact in float64, so a batch whose numerator bound
    (IntPolys.bound at its digit maxima) reaches 2^53 is refused with
    PrecisionLimit."""
    exp = lat.polys.exp[order]
    d = np.asarray(digits, dtype=np.float64, order="F")
    cols = [d[:, v] for v in range(lat.dim)]
    top = [int(_abs_max(c)) for c in cols]
    out = np.empty(d.shape, order="F") if out is None else out
    term = np.empty(len(d)) if term is None else term
    for k, den in enumerate(exp.dens):
        bound = exp.bound(k, top)
        if bound >= 1 << 53:
            raise PrecisionLimit(f"coordinate {k} of the lattice point reaches "
                                 f"{bound:.3g} numerator units, past 2^53: its "
                                 f"float exp map would not be exact")
        acc = exp.column(k, cols, out[:, k], term)
        if den != 1:
            acc /= den
    return out


# ------------------------------------------------------------ digit polynomials

def _scaled(poly: Poly, c) -> Poly:
    return {mono: v * c for mono, v in poly.items()} if c else {}


def _compose(poly, subs: list[Poly], powers: dict | None = None) -> Poly:
    """The polynomial poly (a dict or its items) with variable v set to subs[v].

    powers caches subs[v]^e; callers may share it across polynomials
    whose subs agree on the variables both use.
    """
    out: Poly = {}
    powers = {} if powers is None else powers
    items = poly.items() if isinstance(poly, dict) else poly
    for mono, c in items:
        if any(not subs[v] for v, _ in mono):
            continue  # a zero factor
        term: Poly = {(): Fraction(1)}
        for v, e in mono:
            if (v, e) not in powers:
                base = {(): Fraction(1)}
                for _ in range(e):
                    base = poly_mul(base, subs[v])
                powers[v, e] = base
            term = poly_mul(term, powers[v, e])
        poly_axpy(out, c, term)
    return out


def _poly_point_mul(law, a: list[Poly], b: list[Poly]) -> list[Poly]:
    """Group product of two points whose coordinates are polynomials."""
    out = []
    for k, terms in enumerate(law.polys):
        acc = _compose(terms, a + b)
        poly_axpy(acc, Fraction(1), a[k])
        poly_axpy(acc, Fraction(1), b[k])
        out.append(acc)
    return out


def _basis_power(lat: LatticeSpec, i: int, exponent: Poly) -> list[Poly]:
    """u_i raised to a polynomial exponent, coordinatewise."""
    return [_scaled(exponent, b) for b in lat.basis[i]]


def _exp_polys(law, lat: LatticeSpec, order: str) -> list[Poly]:
    """Exp coordinates of the product of u_i^{c_i} in the given order."""
    m = lat.dim
    point: list[Poly] = [{} for _ in range(m)]
    for i in (reversed(range(m)) if order == "desc" else range(m)):
        point = _poly_point_mul(law, point, _basis_power(lat, i, {((i, 1),): Fraction(1)}))
    return point


def _peel_polys(law, lat: LatticeSpec, side: str) -> list[Poly]:
    """q_0..q_{m-1} of a peel off the given side, checking at each step
    that peeling u_i fixes the coordinates below i and moves coordinate
    i by -lead_i c_i, which makes every remainder coordinate final."""
    m = lat.dim
    p: list[Poly] = [{((k, 1),): Fraction(1)} for k in range(m)]
    qs = []
    for i, lead in enumerate(lat.leads()):
        qs.append(_scaled(p[i], 1 / lead))
        if i == m - 1:
            break
        step = _basis_power(lat, i, {((m + i, 1),): Fraction(-1)})
        nxt = _poly_point_mul(law, p, step) if side == "right" else _poly_point_mul(
            law, step, p)
        moved = dict(p[i])
        poly_axpy(moved, -lead, {((m + i, 1),): Fraction(1)})
        if nxt[:i] != p[:i] or nxt[i] != moved:
            raise StructuralError(
                f"basis vector {i} is not triangular in graded coordinates")
        p = nxt
    return qs


class _DigitPolys:
    """The digit polynomials of one lattice, derived once from the BCH tables.

    exp[order] gives the exponential coordinates of the lattice point
    with digits c (variables 0..m-1), "desc" for u_m^{c_m}...u_1^{c_1}
    and "asc" for u_1^{c_1}...u_m^{c_m}.  peel[side] gives q_i, coordinate
    i of the point w (variables 0..m-1) after peeling u_1..u_{i-1} off
    that side, divided by lead_i, as a polynomial in w and the earlier
    digits c_0..c_{i-1} (variables m..2m-1).
    """

    def __init__(self, lat: LatticeSpec):
        self.law = get_group(lat.group).law_group
        self.exp_desc = _exp_polys(self.law, lat, "desc")
        self.peel_right = _peel_polys(self.law, lat, "right")
        self.exp = {"desc": IntPolys.of("exp map", self.exp_desc),
                    "asc": IntPolys.of("exp map", _exp_polys(self.law, lat, "asc"))}
        self.peel = {
            "right": IntPolys.of("peel", self.peel_right, scaled=lat.dim),
            "left": IntPolys.of("peel", _peel_polys(self.law, lat, "left"),
                                 scaled=lat.dim)}

    def generator_step(self, s) -> IntPolys:
        """Digits of c * s as polynomials in the digits c: the right-peel
        polynomials composed with the exp map times the lattice point s."""
        point = _poly_point_mul(self.law, self.exp_desc,
                                [_scaled({(): Fraction(1)}, c) for c in s])
        digits: list[Poly] = []
        powers: dict = {}
        for q in self.peel_right:
            digits.append(_compose(q, point + digits, powers))
        return IntPolys.of("generator step", digits)


# ------------------------------------------------------------------ row keys

class _RowIndex:
    """Exact lookup of int64 rows: one packed int64 key per row, sorted."""

    def __init__(self, table: np.ndarray):
        self.lo = table.min(axis=0)
        self.span = table.max(axis=0) - self.lo + 1
        if math.prod(int(s) for s in self.span) >= INT64_LIMIT:
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
        polys = lat.polys
        self.exp = polys.exp["desc"]
        self.steps = []
        for s in lat.generators:
            if not member(lat, s):
                raise StructuralError(f"generator {s.coords} is not a lattice point")
            self.steps.append(polys.generator_step(fraction_coords(s, lat.dim)))
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

    def grow(self, radius: int) -> None:
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
            if self.size + len(layer) > STATE_CAP:
                raise CapExceeded(
                    f"ball at radius {self.radius + 1} exceeds {STATE_CAP} states")
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


def word_norms(lat: LatticeSpec, digit_rows, radius_cap: int) -> np.ndarray:
    """Exact word length of each digit row, or -1 beyond radius_cap.

    A row inside the cached ball is answered at any length; the ball
    grows up to radius_cap only while some row is still missing.
    """
    ball = _ball(lat)
    rows = np.asarray(digit_rows, dtype=np.int64).reshape(-1, lat.dim)
    out = ball.locate(rows)
    while (out < 0).any() and ball.radius < radius_cap and len(ball.layers[-1]):
        ball.grow(ball.radius + 1)
        miss = np.flatnonzero(out < 0)
        out[miss[_RowIndex(ball.layers[-1]).find(rows[miss]) >= 0]] = ball.radius
    return out


def word_norm_bfs(lat: LatticeSpec, g) -> int | None:
    """Exact word length of a lattice point, or None beyond
    DEFAULT_RADIUS_CAP (read at each call)."""
    digits = point_digits(lat, g)
    if any(abs(c) >= INT64_LIMIT for c in digits):
        return None  # farther than any ball whose digits fit in int64
    w = int(word_norms(lat, [digits], DEFAULT_RADIUS_CAP)[0])
    return None if w < 0 else w


def digit_quasi_norms(lat: LatticeSpec, digit_rows) -> np.ndarray:
    """quasi_norm_m of the lattice points with the given digit rows."""
    ball = _ball(lat)
    rows = np.asarray(digit_rows, dtype=np.int64).reshape(-1, lat.dim)
    return ball.quasi_norms(ball.exp.numerators(rows))


@dataclass(frozen=True)
class BallProfile:
    """Cumulative ball sizes and per-coordinate maxima by radius."""

    rows: tuple[tuple, ...]  # (n, ball_size, max_coord_1..m)

    def sizes(self) -> list[int]:
        return [row[1] for row in self.rows]

    def csv_rows(self):
        m = len(self.rows[0]) - 2 if self.rows else 0
        header = ["n", "ball_size"] + [f"max_coord_{i + 1}" for i in range(m)]
        return header, [list(r) for r in self.rows]


def ball_profile(lat: LatticeSpec, radius: int) -> BallProfile:
    if radius < 0:
        raise StructuralError(f"ball radius must be >= 0, got {radius}")
    ball = _ball(lat)
    ball.grow(radius)
    rows = []
    total = 0
    top = [0] * lat.dim  # largest |exp numerator| so far, per coordinate
    for n, layer in enumerate(ball.layers[:radius + 1]):
        total += len(layer)
        nums = ball.exp.numerators(layer)
        top = [max(t, int(v)) for t, v in zip(top, np.abs(nums).max(axis=0))]
        rows.append((n, total) + tuple(t / d for t, d in zip(top, ball.exp.dens)))
    return BallProfile(rows=tuple(rows))


@dataclass(frozen=True)
class GuivarchConstants:
    """Empirical constants of the word-metric/quasi-norm sandwich."""

    radius: int
    c_low: float
    c_high: float
    com_ratio: float | None


def guivarch_constants(lat: LatticeSpec, radius: int) -> GuivarchConstants:
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
    ball.grow(radius)
    layers = ball.layers[1:radius + 1]
    dist = np.repeat(np.arange(1.0, len(layers) + 1), [len(x) for x in layers])
    nums = ball.exp.numerators(np.concatenate(layers))
    qn = ball.quasi_norms(nums)
    c_low = float(np.max(qn / dist))
    c_high = float(np.max(dist / (qn + 1.0)))
    # A lookup among the ball's exp coordinates can only hit lattice
    # points, and a warmer shared cache cannot change the answer.
    proj = nums.copy()
    proj[:, :grp.abelian_dim] = 0  # degree one comes first
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
