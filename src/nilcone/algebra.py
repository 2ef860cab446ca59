"""Finite dimensional nilpotent Lie algebras over the rationals.

A structure-constant presentation is validated exactly (antisymmetry,
Jacobi, nilpotency), its lower central series is computed by rational
row reduction, and a basis adapted to the series is derived together
with the coordinate degrees and the associated graded bracket.  All of
this is exact; floats never enter at this layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import ratlin
from .ratlin import Mat, Vec

# Structure constants: canonical form keeps only i < j (0-based), each
# value a map target-index -> nonzero rational coefficient.
Tensor = dict[tuple[int, int], dict[int, Fraction]]
MAX_JSON_DIM = 1000  # validation builds dim x dim Fraction matrices first


class StructuralError(ValueError):
    """Raised when an input object violates its structural contract."""


def _parse_rational(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise StructuralError(f"coefficient {v!r} has a zero denominator") from None
    if isinstance(v, float):
        raise StructuralError(
            f"structure constants must be exact rationals, got float {v!r}"
        )
    raise StructuralError(f"cannot interpret {v!r} as a rational")


@dataclass(frozen=True)
class NilpotentAlgebraSpec:
    """Presentation of a Lie algebra by rational structure constants.

    ``brackets`` holds [X_i, X_j] for i < j in 1-based indices, as a
    mapping (i, j) -> {k: coefficient}.  Pairs not listed bracket to
    zero.  The presentation basis need not be adapted to the lower
    central series; adaptation happens in :func:`gradation`.
    """

    dim: int
    brackets: tuple[tuple[tuple[int, int], tuple[tuple[int, Fraction], ...]], ...]
    name: str = ""

    @staticmethod
    def from_brackets(dim: int, brackets: dict, name: str = "") -> "NilpotentAlgebraSpec":
        canon = []
        for (i, j), coeffs in sorted(brackets.items()):
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise StructuralError(f"bracket index ({i},{j}) out of range 1..{dim}")
            entries = tuple(
                sorted((int(k), _parse_rational(c)) for k, c in coeffs.items() if _parse_rational(c) != 0)
            )
            for k, _ in entries:
                if not (1 <= k <= dim):
                    raise StructuralError(f"bracket target {k} out of range 1..{dim}")
            if entries:
                canon.append(((i, j), entries))
        return NilpotentAlgebraSpec(dim=dim, brackets=tuple(canon), name=name)

    def tensor(self) -> Tensor:
        """0-based canonical tensor with only i < j entries."""
        t: Tensor = {}
        for (i, j), entries in self.brackets:
            a, b = i - 1, j - 1
            sign = Fraction(1)
            if a == b:
                # recorded as a violation by validate_algebra; skip here
                continue
            if a > b:
                a, b = b, a
                sign = Fraction(-1)
            acc = t.setdefault((a, b), {})
            for k, c in entries:
                acc[k - 1] = acc.get(k - 1, Fraction(0)) + sign * c
        return {key: {k: c for k, c in val.items() if c != 0} for key, val in t.items() if val}

    @staticmethod
    def from_json_dict(obj: dict) -> "NilpotentAlgebraSpec":
        """The presentation of a JSON object; any malformed part is a
        StructuralError."""
        try:
            dim = obj["dim"]
            if (isinstance(dim, bool) or not isinstance(dim, int)
                    or not 1 <= dim <= MAX_JSON_DIM):
                raise StructuralError(
                    f"dim must be an integer from 1 to {MAX_JSON_DIM}, got {dim!r}")
            brackets: dict = {}
            for entry in obj.get("brackets", []):
                i, j = int(entry["i"]), int(entry["j"])
                coeffs = {int(k): _parse_rational(v) for k, v in entry["coeffs"].items()}
                if (i, j) in brackets:
                    raise StructuralError(f"duplicate bracket entry for ({i},{j})")
                brackets[i, j] = coeffs
            return NilpotentAlgebraSpec.from_brackets(dim, brackets, name=obj.get("name", ""))
        except KeyError as exc:
            raise StructuralError(f"malformed algebra JSON: missing key {exc}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise StructuralError(f"malformed algebra JSON: {exc}") from exc


def bracket(tensor: Tensor, dim: int, v: Vec, w: Vec) -> Vec:
    """[v, w] for coordinate vectors with respect to the presentation basis."""
    out = [Fraction(0)] * dim
    for (i, j), coeffs in tensor.items():
        f = v[i] * w[j] - v[j] * w[i]
        if f:
            for k, c in coeffs.items():
                out[k] += c * f
    return tuple(out)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    dim: int
    step: int | None
    jacobi_violations: tuple[tuple[int, int, int], ...]
    nonnilpotent_witness: Mat | None
    messages: tuple[str, ...]
    # g^1, g^2, ... to the fixed point, when the bracket passed the checks
    series_terms: tuple[Mat, ...] = field(default=(), repr=False)


def validate_algebra(spec: NilpotentAlgebraSpec) -> ValidationReport:
    """Exact validation: antisymmetry, Jacobi, nilpotency.

    Jacobi is checked on the basis triples, which suffices by
    trilinearity; a triple none of whose pairs brackets to nonzero
    satisfies it trivially and is skipped.  Nilpotency is decided by
    running the lower central series to a fixed point; a nonzero stable
    subspace is returned as witness.
    """
    messages: list[str] = []
    seen: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), entries in spec.brackets:
        if i == j:
            messages.append(f"[X{i},X{i}] must vanish")
            continue
        seen[(i, j)] = dict(entries)
    for (i, j), coeffs in seen.items():
        mirror = seen.get((j, i))
        if mirror is not None:
            for k in set(coeffs) | set(mirror):
                if coeffs.get(k, Fraction(0)) != -mirror.get(k, Fraction(0)):
                    messages.append(f"[X{i},X{j}] and [X{j},X{i}] are not opposite")
                    break
    antisymmetric = not messages  # each message so far is an antisymmetry violation

    tensor = spec.tensor()
    dim = spec.dim
    basis = ratlin.identity(dim)
    jacobi: list[tuple[int, int, int]] = []
    triples = {tuple(sorted((i, j, k))) for i, j in tensor for k in range(dim)
               if k != i and k != j}
    for a, b, c in sorted(triples):
        lhs = bracket(tensor, dim, basis[a], bracket(tensor, dim, basis[b], basis[c]))
        mid = bracket(tensor, dim, basis[b], bracket(tensor, dim, basis[c], basis[a]))
        rhs = bracket(tensor, dim, basis[c], bracket(tensor, dim, basis[a], basis[b]))
        if any(x + y + z for x, y, z in zip(lhs, mid, rhs)):
            jacobi.append((a + 1, b + 1, c + 1))
    if jacobi:
        messages.append(f"Jacobi fails on {len(jacobi)} basis triples")

    step: int | None = None
    witness: Mat | None = None
    terms: list[Mat] = []
    if antisymmetric and not jacobi:
        terms = _series_terms(tensor, dim)
        if terms[-1]:
            witness = terms[-1]
            messages.append("lower central series stabilises at a nonzero subspace")
        else:
            step = len(terms) - 1
    ok = antisymmetric and not jacobi and witness is None
    return ValidationReport(
        ok=ok,
        dim=dim,
        step=step,
        jacobi_violations=tuple(jacobi),
        nonnilpotent_witness=witness,
        messages=tuple(messages),
        series_terms=tuple(terms),
    )


def _series_terms(tensor: Tensor, dim: int) -> list[Mat]:
    """g^1, g^2, ... iterated to a fixed point; final entry may be nonzero."""
    full = ratlin.identity(dim)  # g^1, already in reduced row echelon form
    terms = [full]
    active = sorted({i for pair in tensor for i in pair})  # other e_i bracket to 0
    while True:
        generated = [bracket(tensor, dim, full[i], w)
                     for i in active for w in terms[-1]]
        nxt, _ = ratlin.rref([g for g in generated if any(g)])
        terms.append(nxt)
        if len(nxt) == 0 or len(nxt) == len(terms[-2]):
            return terms


@dataclass(frozen=True)
class LowerCentralSeries:
    """Row-reduced bases of g^1 > g^2 > ... > g^r, and the step r."""

    terms: tuple[Mat, ...]
    step: int


def lower_central_series(spec: NilpotentAlgebraSpec) -> LowerCentralSeries:
    report = validate_algebra(spec)
    if not report.ok:
        raise StructuralError(f"invalid algebra {spec.name!r}: {'; '.join(report.messages)}")
    return LowerCentralSeries(terms=report.series_terms[:-1], step=report.step)


@dataclass(frozen=True)
class Gradation:
    """Adapted basis data for a nilpotent algebra.

    ``adapted_basis`` rows express the adapted vectors in presentation
    coordinates, ordered by non-decreasing degree; ``degrees[k]`` is the
    layer of the k-th adapted vector.  Derived on construction:
    ``adapted_tensor`` rewrites the original bracket in the adapted basis
    and ``graded_tensor`` keeps only the weight-homogeneous part (targets
    with d_k = d_i + d_j), which is the bracket of the associated graded
    algebra.
    """

    spec: NilpotentAlgebraSpec
    series: LowerCentralSeries
    degrees: tuple[int, ...]
    adapted_basis: Mat
    adapted_inverse: Mat
    adapted_tensor: Tensor = field(init=False, repr=False)
    graded_tensor: Tensor = field(init=False, repr=False)
    # to_adapted and from_adapted, as linear integer tables
    _changes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dim, basis, degrees = self.dim, self.adapted_basis, self.degrees
        to_adapted = ratlin.IntPolys.linear("to_adapted", self.adapted_inverse)
        object.__setattr__(self, "_changes", (
            to_adapted, ratlin.IntPolys.linear("from_adapted", tuple(zip(*basis)))))
        tensor = self.spec.tensor()
        adapted: Tensor = {}
        for a in range(dim):
            for b in range(a + 1, dim):
                vec = bracket(tensor, dim, basis[a], basis[b])
                entry = {k: c for k, c in enumerate(to_adapted.at(vec)) if c != 0}
                if entry:
                    adapted[(a, b)] = entry
        graded: Tensor = {}
        for (a, b), coeffs in adapted.items():
            kept = {
                k: c for k, c in coeffs.items() if degrees[k] == degrees[a] + degrees[b]
            }
            if kept:
                graded[(a, b)] = kept
        # Superadditivity of degrees makes dropped targets strictly deeper;
        # a shallower target would contradict [g^i, g^j] <= g^{i+j}.
        for (a, b), coeffs in adapted.items():
            for k in coeffs:
                if degrees[k] < degrees[a] + degrees[b]:
                    raise StructuralError(
                        f"bracket target X{k+1} shallower than degree sum at ({a+1},{b+1})"
                    )
        object.__setattr__(self, "adapted_tensor", adapted)
        object.__setattr__(self, "graded_tensor", graded)

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def step(self) -> int:
        return self.series.step

    @property
    def abelian_dim(self) -> int:
        return sum(1 for d in self.degrees if d == 1)

    def to_adapted(self, v: Vec) -> Vec:
        """Coordinates of a presentation-basis vector in the adapted basis."""
        return self._changes[0].at(v)

    def from_adapted(self, v: Vec) -> Vec:
        return self._changes[1].at(v)


def gradation(spec: NilpotentAlgebraSpec) -> Gradation:
    """Adapted basis, degrees and graded bracket for a validated algebra.

    The splitting is the deterministic one obtained from the leftmost
    pivot RREF of each series term: layer V_i keeps the rows of
    RREF(g^i) whose pivot is not a pivot of g^{i+1} (pivot sets nest, so
    this is a genuine complement).
    """
    series = lower_central_series(spec)
    dim = spec.dim
    echelons = [ratlin.rref(term) for term in series.terms]
    pivot_sets = [set(pivots) for _, pivots in echelons]
    pivot_sets.append(set())  # g^{r+1} = 0

    adapted_rows: list[Vec] = []
    degrees: list[int] = []
    for layer, (rows, pivots) in enumerate(echelons):
        for row, p in zip(rows, pivots):
            if p not in pivot_sets[layer + 1]:
                adapted_rows.append(row)
                degrees.append(layer + 1)
    if len(adapted_rows) != dim:
        raise StructuralError("adapted basis construction lost rank")

    basis = tuple(adapted_rows)
    return Gradation(
        spec=spec,
        series=series,
        degrees=tuple(degrees),
        adapted_basis=basis,
        adapted_inverse=ratlin.mat_inv(tuple(zip(*basis))),  # of the column matrix
    )


def dilation_adapted(grad: Gradation, v: Vec, t: Fraction) -> Vec:
    """delta_t in adapted coordinates: scales layer-i entries by t^i."""
    return tuple(t ** grad.degrees[k] * v[k] for k in range(grad.dim))


def bracket_t(
    spec: NilpotentAlgebraSpec, grad: Gradation, v: Vec, w: Vec, t
) -> Vec:
    """Bracket conjugated by the dilation: delta_{1/t}([delta_t v, delta_t w]).

    Inputs and output are in presentation coordinates.  For rational t
    the computation is exact.  As t grows this converges to
    :func:`graded_bracket` with defect O(1/t), and equals it for all t
    when the adapted tensor is already weight homogeneous.
    """
    t = _parse_rational(t) if not isinstance(t, Fraction) else t
    if t <= 0:
        raise StructuralError("dilation parameter must be positive")
    va = dilation_adapted(grad, grad.to_adapted(v), t)
    wa = dilation_adapted(grad, grad.to_adapted(w), t)
    res = bracket(grad.adapted_tensor, grad.dim, va, wa)
    res = dilation_adapted(grad, res, Fraction(1) / t)
    return grad.from_adapted(res)


def graded_bracket(grad: Gradation, v: Vec, w: Vec) -> Vec:
    """Bracket of the associated graded algebra, presentation coordinates."""
    va = grad.to_adapted(v)
    wa = grad.to_adapted(w)
    res = bracket(grad.graded_tensor, grad.dim, va, wa)
    return grad.from_adapted(res)


def _builtin_specs() -> dict[str, NilpotentAlgebraSpec]:
    mk = NilpotentAlgebraSpec.from_brackets
    return {
        "heisenberg3": mk(3, {(1, 2): {3: 1}}, name="heisenberg3"),
        "heisenberg5": mk(5, {(1, 2): {5: 1}, (3, 4): {5: 1}}, name="heisenberg5"),
        "engel4": mk(4, {(1, 2): {3: 1}, (1, 3): {4: 1}}, name="engel4"),
        "free_nilpotent_2_3": mk(
            5,
            {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 3): {5: 1}},
            name="free_nilpotent_2_3",
        ),
        # Engel law written on a basis whose degree-2 axis carries a
        # degree-3 shear component: the adapted tensor is genuinely
        # inhomogeneous, so the dilated bracket has a 1/t defect.
        "engel4_sheared": mk(
            4,
            {(1, 2): {3: 1, 4: 1}, (1, 3): {4: 1}},
            name="engel4_sheared",
        ),
        "abelian2": mk(2, {}, name="abelian2"),
    }


BUILTIN_ALGEBRAS = _builtin_specs()


def builtin_algebra(name: str) -> NilpotentAlgebraSpec:
    try:
        return BUILTIN_ALGEBRAS[name]
    except KeyError:
        raise StructuralError(
            f"unknown algebra {name!r}; built-ins: {', '.join(sorted(BUILTIN_ALGEBRAS))}"
        ) from None
