"""Algebra presentations, validation, gradation, and dilations."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from nilcone import algebra, ratlin
from nilcone.algebra import (
    BUILTIN_ALGEBRAS,
    NilpotentAlgebraSpec,
    StructuralError,
    bracket,
    bracket_t,
    dilation_adapted,
    graded_bracket,
    gradation,
    lower_central_series,
    validate_algebra,
)


# Heisenberg on the basis f1 = e1, f2 = e2, f3 = e1 + e3, where the
# central direction hides inside f3 - f1: the adapted basis is not the
# presentation basis.
SHEARED_H3 = NilpotentAlgebraSpec.from_brackets(
    3, {(1, 2): {1: -1, 3: 1}, (2, 3): {1: 1, 3: -1}}, name="sheared_h3")


def rand_vec(rng, dim, span=8):
    return tuple(Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 5))
                 for _ in range(dim))


def test_builtins_all_validate():
    for name, spec in BUILTIN_ALGEBRAS.items():
        report = validate_algebra(spec)
        assert report.ok, (name, report.messages)


def test_heisenberg_shape():
    grad = gradation(BUILTIN_ALGEBRAS["heisenberg3"])
    assert grad.degrees == (1, 1, 2)
    assert grad.step == 2
    assert grad.abelian_dim == 2


def test_engel_lower_central_series_frozen():
    spec = BUILTIN_ALGEBRAS["engel4"]
    series = lower_central_series(spec)
    # spans: g^2 = <e3, e4>, g^3 = <e4>
    assert series.step == 3
    assert len(series.terms) == 3
    e3 = tuple(Fraction(int(i == 2)) for i in range(4))
    e4 = tuple(Fraction(int(i == 3)) for i in range(4))
    assert sorted(tuple(v) for v in series.terms[2]) == [e4]
    assert sorted(tuple(v) for v in series.terms[1]) == sorted([e3, e4])
    assert gradation(spec).degrees == (1, 1, 2, 3)


def test_free_nilpotent_degrees():
    grad = gradation(BUILTIN_ALGEBRAS["free_nilpotent_2_3"])
    assert grad.degrees == (1, 1, 2, 3, 3)
    assert grad.step == 3


def test_rejects_non_jacobi_table():
    spec = NilpotentAlgebraSpec.from_brackets(
        4, {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 3): {4: 1}, (1, 4): {3: 1}},
        name="broken")
    report = validate_algebra(spec)
    assert not report.ok


def test_rejects_non_nilpotent_table():
    spec = NilpotentAlgebraSpec.from_brackets(2, {(1, 2): {2: 1}}, name="ax+b")
    report = validate_algebra(spec)
    assert not report.ok
    assert report.nonnilpotent_witness is not None


def _random_spec(rng):
    dim = rng.randint(3, 6)
    brackets = {}
    for _ in range(rng.randint(0, 5)):
        i, j = rng.sample(range(1, dim + 1), 2)
        brackets[i, j] = {rng.randint(1, dim): rng.choice((-2, -1, 1, Fraction(1, 2)))}
    return NilpotentAlgebraSpec.from_brackets(dim, brackets)


def test_jacobi_violations_match_brute_force():
    rng = random.Random(7)
    violated = 0
    for _ in range(200):
        spec = _random_spec(rng)
        tensor, dim = spec.tensor(), spec.dim
        e = [tuple(Fraction(int(k == i)) for k in range(dim)) for i in range(dim)]

        def br(v, w):
            return bracket(tensor, dim, v, w)

        want = tuple(
            (a + 1, b + 1, c + 1) for a, b, c in combinations(range(dim), 3)
            if any(x + y + z for x, y, z in zip(br(e[a], br(e[b], e[c])),
                                                 br(e[b], br(e[c], e[a])),
                                                 br(e[c], br(e[a], e[b])))))
        assert validate_algebra(spec).jacobi_violations == want
        violated += bool(want)
    assert violated > 50


def test_jacobi_skips_triples_of_commuting_pairs(monkeypatch):
    # the lower central series may bracket dim^2 pairs; Jacobi adds none here
    dim = 120
    calls = []

    def counted(*args):
        calls.append(1)
        assert len(calls) <= dim * dim, "Jacobi bracketed a commuting triple"
        return bracket(*args)

    monkeypatch.setattr(algebra, "bracket", counted)
    assert validate_algebra(NilpotentAlgebraSpec.from_brackets(dim, {})).ok


def test_series_brackets_only_unit_vectors_of_some_pair(monkeypatch):
    # every [e_i, w] was formed and then dropped as zero: 160,000 brackets
    # of length-400 vectors, about 11 s of `algebra check` on this spec
    def counted(*args):
        raise AssertionError("bracketed a unit vector that no pair names")

    rows = []  # per rref call; g^1, the identity, is already row-reduced
    rref = ratlin.rref
    monkeypatch.setattr(algebra, "bracket", counted)
    monkeypatch.setattr(ratlin, "rref", lambda m: rows.append(len(m)) or rref(m))
    report = validate_algebra(NilpotentAlgebraSpec.from_brackets(400, {}))
    assert report.ok and report.step == 1
    assert sum(rows) == 0


def _all_pairs_series(tensor, dim):
    """The lower central series bracketing every unit vector with each row."""
    unit = ratlin.identity(dim)
    terms = [ratlin.rref(unit)[0]]
    while True:
        brs = (bracket(tensor, dim, x, w) for x in unit for w in terms[-1])
        terms.append(ratlin.rref([v for v in brs if any(v)])[0])
        if len(terms[-1]) in (0, len(terms[-2])):
            return terms


def test_series_terms_match_the_all_pairs_series():
    rng = random.Random(11)
    steps = set()
    for _ in range(200):
        spec = _random_spec(rng)
        want = _all_pairs_series(spec.tensor(), spec.dim)
        assert algebra._series_terms(spec.tensor(), spec.dim) == want
        steps.add(len(want))
    assert len(steps) >= 3  # abelian, nilpotent of several steps, or not


def test_gradation_rejects_invalid():
    spec = NilpotentAlgebraSpec.from_brackets(2, {(1, 2): {2: 1}}, name="bad")
    with pytest.raises(StructuralError):
        gradation(spec)


def test_sheared_presentation_readapts():
    # Still validates and re-adapts to degrees (1, 1, 2).
    report = validate_algebra(SHEARED_H3)
    assert report.ok, report.messages
    assert gradation(SHEARED_H3).degrees == (1, 1, 2)


def test_adapted_round_trip():
    # the builtins' adapted basis is the presentation basis; sheared_h3's is not
    rng = random.Random(5)
    for spec in (*BUILTIN_ALGEBRAS.values(), SHEARED_H3):
        grad = gradation(spec)
        for _ in range(20):
            v = rand_vec(rng, grad.dim)
            assert grad.from_adapted(grad.to_adapted(v)) == v


def test_dilation_is_graded_automorphism():
    rng = random.Random(7)
    for spec in BUILTIN_ALGEBRAS.values():
        grad = gradation(spec)
        for _ in range(40):
            v = grad.to_adapted(rand_vec(rng, grad.dim))
            w = grad.to_adapted(rand_vec(rng, grad.dim))
            t = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
            lhs = dilation_adapted(
                grad, bracket(grad.graded_tensor, grad.dim, v, w), t)
            rhs = bracket(grad.graded_tensor, grad.dim,
                          dilation_adapted(grad, v, t),
                          dilation_adapted(grad, w, t))
            assert lhs == rhs


def test_bracket_t_defect_halves_on_sheared_engel():
    spec = BUILTIN_ALGEBRAS["engel4_sheared"]
    grad = gradation(spec)
    rng = random.Random(11)
    v = rand_vec(rng, 4)
    w = rand_vec(rng, 4)
    limit = graded_bracket(grad, v, w)

    def defect(t):
        bt = bracket_t(spec, grad, v, w, Fraction(t))
        return max(abs(a - b) for a, b in zip(bt, limit))

    d4, d8, d16 = defect(4), defect(8), defect(16)
    assert d4 > 0
    assert Fraction(1, 3) < d8 / d4 < Fraction(2, 3)
    assert Fraction(1, 3) < d16 / d8 < Fraction(2, 3)


def test_bracket_t_equals_graded_when_homogeneous():
    spec = BUILTIN_ALGEBRAS["heisenberg3"]
    grad = gradation(spec)
    rng = random.Random(13)
    for _ in range(20):
        v = rand_vec(rng, 3)
        w = rand_vec(rng, 3)
        assert bracket_t(spec, grad, v, w, Fraction(7, 2)) == \
            graded_bracket(grad, v, w)


def test_abelian_has_no_brackets():
    grad = gradation(BUILTIN_ALGEBRAS["abelian2"])
    assert grad.degrees == (1, 1)
    assert grad.step == 1
