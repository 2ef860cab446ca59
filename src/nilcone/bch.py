"""Group law in exponential coordinates via the Baker-Campbell-Hausdorff series.

For a nilpotent algebra of step r the Dynkin expansion truncates at
bracket depth r, so log(exp(u)exp(v)) is a polynomial map.  The
coefficients are computed once per algebra as exact rational
polynomials in the 2m coordinate variables, and kept as one
ratlin.IntPolys table of the nonlinear terms (GroupLaw.table), the linear
part added apart.  Rational operands (Fractions, ints, bools, numpy
integers) are multiplied through it on the exact lane's point, integer
numerators over one denominator (GroupLaw.exact_mul), and GroupLaw.mul
builds the product's Fractions only at its return: 6.7-8.9 us a call on
2-core x86 (Python 3.11), 8.0-11.6 us while the table was read term by
term.  An operand with a float coordinate is multiplied through the
table's float coefficients, term by term, as kernels.bch_batch does on
float columns.

A group element is its coordinate tuple (GroupPoint only wraps it), and
every product is GroupLaw.mul, inv, pow or comm on coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from hashlib import sha256
from math import factorial, lcm, prod
from numbers import Rational

from .algebra import (
    BUILTIN_ALGEBRAS,
    Gradation,
    NilpotentAlgebraSpec,
    StructuralError,
    Tensor,
    builtin_algebra,
    gradation,
    lower_central_series,
)
from .ratlin import IntPolys, Poly, fractions, numerators, poly_axpy, poly_mul

MAX_STEP = 6
_EXACT = frozenset((Fraction, int))  # tested before the slower numbers.Rational


def _poly_bracket(tensor: Tensor, dim: int, u: list[Poly], v: list[Poly]) -> list[Poly]:
    out: list[Poly] = [{} for _ in range(dim)]
    for (i, j), coeffs in tensor.items():
        if not u[i] and not v[j] and not u[j] and not v[i]:
            continue
        f: Poly = {}
        poly_axpy(f, Fraction(1), poly_mul(u[i], v[j]))
        poly_axpy(f, Fraction(-1), poly_mul(u[j], v[i]))
        if not f:
            continue
        for k, c in coeffs.items():
            poly_axpy(out[k], c, f)
    return out


@lru_cache(maxsize=None)
def dynkin_word_coefficients(max_len: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Rational weight of each letter word in the Dynkin expansion.

    Words are tuples over {0, 1} (0 = left letter, 1 = right letter) of
    length at most ``max_len``; the associated Lie monomial is the
    right-nested bracket of the letters.  Weights aggregate the Dynkin
    double sum over all block decompositions of the word.
    """
    if max_len > MAX_STEP:
        raise StructuralError(f"BCH truncation supports step <= {MAX_STEP}")
    acc: dict[tuple[int, ...], Fraction] = {}

    def extend(word: tuple[int, ...], n_blocks: int, fact_prod: int) -> None:
        for p in range(0, max_len - len(word) + 1):
            for q in range(0, max_len - len(word) - p + 1):
                if p + q == 0:
                    continue
                w = word + (0,) * p + (1,) * q
                f = fact_prod * factorial(p) * factorial(q)
                n = n_blocks + 1
                sign = Fraction(-1) ** (n - 1)
                weight = sign / (n * len(w) * f)
                acc[w] = acc.get(w, Fraction(0)) + weight
                extend(w, n, f)

    extend((), 0, 1)
    return tuple(sorted((w, c) for w, c in acc.items() if c != 0))


def bch_polynomials(tensor: Tensor, dim: int, step: int) -> list[Poly]:
    """Coordinatewise polynomials of the product log(exp(u) exp(v)), with
    variables 0..m-1 the coordinates of u and m..2m-1 those of v."""
    x_vec: list[Poly] = [{((k, 1),): Fraction(1)} for k in range(dim)]
    y_vec: list[Poly] = [{((dim + k, 1),): Fraction(1)} for k in range(dim)]
    letters = (x_vec, y_vec)
    out: list[Poly] = [{} for _ in range(dim)]
    for word, weight in dynkin_word_coefficients(step):
        cur = letters[word[-1]]
        for letter in reversed(word[:-1]):
            cur = _poly_bracket(tensor, dim, letters[letter], cur)
            if all(not p for p in cur):
                break
        else:
            for k in range(dim):
                if cur[k]:
                    poly_axpy(out[k], weight, cur[k])
    return out


@dataclass(frozen=True)
class GroupLaw:
    """Multiplication, inverse, powers for one algebra and one bracket.

    ``law`` is "group" for the original bracket or "graded" for the
    associated graded one.  Coordinates are exponential coordinates in
    the adapted basis; scalars may be Fractions (exact) or floats.
    """

    law: str
    dim: int
    polys: tuple  # tuple of (mono, coeff) tuples per coordinate

    @cached_property
    def table(self) -> IntPolys:
        """The nonlinear terms over integer numerators; see exact_mul."""
        return IntPolys.of(f"{self.law} law", [dict(t) for t in self.polys],
                           scaled=2 * self.dim)

    def identity(self) -> tuple:
        return (Fraction(0),) * self.dim

    def mul(self, a, b) -> tuple:
        vals = (*a, *b)
        if _EXACT.issuperset(map(type, vals)) or all(isinstance(x, Rational) for x in vals):
            return fractions(*self.exact_mul(*numerators(vals)))
        out = []
        for k, terms in enumerate(self.table.flat):
            acc = a[k] + b[k]
            for _, coef, factors in terms:  # left to right, as bch_batch
                acc = acc + prod((vals[v] for v in factors), start=coef)
            out.append(acc)
        return tuple(out)

    def exact_mul(self, vals: list[int], d: int) -> tuple[list[int], int]:
        """The product of the exact lane's points a and b, given as their
        numerators vals (a's, then b's) over one d, over one denominator:
        the linear part (n_k + n_{m+k}) / d plus the table's terms."""
        m = self.dim
        nums, den = self.table.exact(vals, d)
        den = lcm(den, d)  # den itself, or d where the law has no terms
        lift = den // d
        return [n + (vals[k] + vals[m + k]) * lift for k, n in enumerate(nums)], den

    def inv(self, a) -> tuple:
        return tuple(-c for c in a)

    def pow(self, a, n) -> tuple:
        # exp(x)^n = exp(n x) along the one-parameter subgroup
        return tuple(n * c for c in a)

    def comm(self, a, b) -> tuple:
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))


def _freeze_polys(polys: list[Poly], dim: int) -> tuple:
    """Drop the linear part (handled additively) and sort terms."""
    frozen = []
    for k in range(dim):
        terms = []
        for mono, c in polys[k].items():
            if mono == ((k, 1),) or mono == ((dim + k, 1),):
                if c != 1:
                    raise StructuralError("BCH linear part is not the sum map")
                continue
            total = sum(e for _, e in mono)
            if total < 2:
                raise StructuralError("unexpected linear cross term in BCH")
            terms.append((mono, c))
        frozen.append(tuple(sorted(terms)))
    return tuple(frozen)


class NilpotentGroup:
    """A simply connected nilpotent group in adapted exponential coordinates.

    Wraps a validated algebra presentation together with its gradation,
    and exposes the polynomial group law for both the original and the
    associated graded bracket.  All coordinates used by this object and
    everything downstream are with respect to the adapted basis.
    """

    def __init__(self, spec: NilpotentAlgebraSpec, name: str):
        self.input_spec = spec
        self.grad: Gradation = gradation(spec)
        self.name = name
        self.dim = spec.dim
        self.step = self.grad.step
        self.degrees = self.grad.degrees
        self.abelian_dim = self.grad.abelian_dim
        if self.step > MAX_STEP:
            raise StructuralError(f"step {self.step} exceeds supported bound {MAX_STEP}")
        group_polys = bch_polynomials(self.grad.adapted_tensor, self.dim, self.step)
        graded_polys = bch_polynomials(self.grad.graded_tensor, self.dim, self.step)
        self.law_group = GroupLaw(
            law="group",
            dim=self.dim,
            polys=_freeze_polys(group_polys, self.dim),
        )
        self.law_graded = GroupLaw(
            law="graded",
            dim=self.dim,
            polys=_freeze_polys(graded_polys, self.dim),
        )

    def law(self, tag: str) -> GroupLaw:
        if tag == "group":
            return self.law_group
        if tag == "graded":
            return self.law_graded
        raise StructuralError(f"unknown law tag {tag!r}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"NilpotentGroup({self.name}, dim={self.dim}, step={self.step})"


# The one group registry: groups by canonical structure constants, and
# every name a group was asked for bound to its group.
_GROUPS: dict[tuple, NilpotentGroup] = {}
_GROUPS_BY_NAME: dict[str, NilpotentGroup] = {}


def _structure_key(spec: NilpotentAlgebraSpec) -> tuple:
    return (spec.dim, tuple(sorted(
        (pair, tuple(sorted(coeffs.items()))) for pair, coeffs in spec.tensor().items()
    )))


def get_group(name_or_spec) -> NilpotentGroup:
    """The group of a name or an algebra spec, identified by content.

    Equal structure constants give one NilpotentGroup under every name.
    A name stays bound to its first constants (a built-in name to the
    built-in ones), and reusing it for others raises StructuralError.
    An unnamed spec is named "algebra<dim>-<digest of its constants>".
    """
    if isinstance(name_or_spec, str):
        grp = _GROUPS_BY_NAME.get(name_or_spec)
        return grp if grp is not None else get_group(builtin_algebra(name_or_spec))
    if isinstance(name_or_spec, NilpotentGroup):
        return name_or_spec
    if not isinstance(name_or_spec, NilpotentAlgebraSpec):
        return get_group(str(name_or_spec))
    spec = name_or_spec
    key = _structure_key(spec)
    name = spec.name or f"algebra{spec.dim}-{sha256(repr(key).encode()).hexdigest()[:12]}"
    bound = _GROUPS_BY_NAME.get(name)
    first = bound.input_spec if bound is not None else BUILTIN_ALGEBRAS.get(name)
    if first is not None and _structure_key(first) != key:
        raise StructuralError(f"algebra name {name!r} is bound to other structure constants")
    grp = _GROUPS.get(key)
    if grp is None:
        grp = _GROUPS[key] = NilpotentGroup(spec, name)  # validates the spec
    elif spec != grp.input_spec:
        # an invalid presentation can share its tensor with a valid one
        lower_central_series(spec)
    _GROUPS_BY_NAME[name] = grp
    return grp


@dataclass(frozen=True)
class GroupPoint:
    """A group element as its exponential coordinates in the adapted basis;
    its group and its law (original or graded) are the caller's."""

    coords: tuple


def coords_of(g) -> tuple:
    """The coordinates of a GroupPoint or of any sequence, as a tuple."""
    return g.coords if isinstance(g, GroupPoint) else tuple(g)
