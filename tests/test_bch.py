"""Polynomial group laws: axioms, closed forms, and matrix-model oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_models import MODELS
from nilcone.algebra import NilpotentAlgebraSpec, StructuralError
from nilcone.bch import get_group
from nilcone.kernels import bch_batch

GROUPS = ("heisenberg3", "heisenberg5", "engel4", "free_nilpotent_2_3",
          "abelian2")


def rand_pt(rng, dim, denom=6):
    return tuple(Fraction(rng.randrange(-10, 11), rng.randrange(1, denom))
                 for _ in range(dim))


@pytest.mark.parametrize("name", GROUPS)
def test_group_axioms_exact(name):
    grp = get_group(name)
    law = grp.law_group
    rng = random.Random(hash(name) & 0xFFFF)
    e = law.identity()
    for _ in range(200):
        a = rand_pt(rng, grp.dim)
        b = rand_pt(rng, grp.dim)
        c = rand_pt(rng, grp.dim)
        assert law.mul(law.mul(a, b), c) == law.mul(a, law.mul(b, c))
        assert law.mul(a, e) == a
        assert law.mul(e, a) == a
        assert law.mul(a, law.inv(a)) == e


def test_heisenberg_closed_form():
    law = get_group("heisenberg3").law_group
    rng = random.Random(1)
    for _ in range(200):
        x = rand_pt(rng, 3)
        y = rand_pt(rng, 3)
        expected = (
            x[0] + y[0],
            x[1] + y[1],
            x[2] + y[2] + Fraction(1, 2) * (x[0] * y[1] - x[1] * y[0]),
        )
        assert law.mul(x, y) == expected


def term_by_term(law, a, b):
    """Reference: the law's BCH table evaluated one term at a time."""
    vals = tuple(a) + tuple(b)
    out = [x + y for x, y in zip(a, b)]
    for k, terms in enumerate(law.polys):
        for mono, c in terms:
            term = c
            for v, e in mono:
                for _ in range(e):
                    term = term * vals[v]
            out[k] = out[k] + term
    return tuple(out)


@pytest.mark.parametrize("name", ("heisenberg3", "engel4", "free_nilpotent_2_3",
                                  "engel4_sheared"))
@pytest.mark.parametrize("tag", ("group", "graded"))
def test_mul_matches_term_by_term(name, tag):
    grp = get_group(name)
    law = grp.law(tag)
    e = law.identity()
    rng = random.Random(17)

    def big():
        return Fraction(rng.randrange(-10 ** 30, 10 ** 30),
                        rng.randrange(1, 10 ** 25))

    for _ in range(100):
        a = rand_pt(rng, grp.dim)
        b = tuple(big() for _ in range(grp.dim))
        for x, y in ((a, b), (b, a), (a, e), (e, b), (a, rand_pt(rng, grp.dim))):
            got = law.mul(x, y)
            assert got == term_by_term(law, x, y)
            assert all(type(v) is Fraction for v in got)
        # Float operands are read exactly: the product is the exact
        # product of the floats' values.  The float product is bch_batch's,
        # bitwise the loop above on floats (repr of a float round-trips
        # exactly and names the type).
        fa = tuple(float(v) for v in a)
        fb = tuple(rng.uniform(-10.0, 10.0) for _ in range(grp.dim))
        for x, y in ((fa, fb), (a, fb), (fa, b), (e, fb)):
            got = law.mul(x, y)
            assert got == term_by_term(law, tuple(map(Fraction, x)), tuple(map(Fraction, y)))
            assert all(type(v) is Fraction for v in got)
            fx, fy = tuple(map(float, x)), tuple(map(float, y))
            assert list(map(repr, bch_batch(law.table, [fx], [fy])[0].tolist())) == \
                list(map(repr, term_by_term(law, fx, fy)))


def filiform(step):
    """The filiform algebra [X1, Xk] = X(k+1) of the given step."""
    dim = step + 1
    return NilpotentAlgebraSpec.from_brackets(
        dim, {(1, k): {k + 1: 1} for k in range(2, dim)}, name=f"filiform{dim}")


@pytest.mark.parametrize("step", (4, 5, 6))
@pytest.mark.parametrize("tag", ("group", "graded"))
def test_filiform_products_up_to_the_top_step(step, tag):
    # the integer table at BCH degrees 4 to 6, which no builtin reaches
    grp = get_group(filiform(step))
    assert grp.step == step
    law = grp.law(tag)
    rng = random.Random(step)
    for _ in range(30):
        a, b, c = (rand_pt(rng, grp.dim) for _ in range(3))
        ab = law.mul(a, b)
        assert ab == term_by_term(law, a, b)
        assert all(type(v) is Fraction for v in ab)
        assert law.mul(ab, c) == law.mul(a, law.mul(b, c))


def test_step_seven_is_refused():
    with pytest.raises(StructuralError, match="step 7"):
        get_group(filiform(7))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_matrix_model_oracle_agreement(name):
    grp = get_group(name)
    law = grp.law_group
    oracle = MODELS[name]
    rng = random.Random(99)
    for _ in range(200):
        a = rand_pt(rng, grp.dim)
        b = rand_pt(rng, grp.dim)
        assert law.mul(a, b) == tuple(oracle(a, b))


@pytest.mark.parametrize("name", GROUPS)
def test_power_and_commutator(name):
    grp = get_group(name)
    law = grp.law_group
    rng = random.Random(3)
    for _ in range(50):
        a = rand_pt(rng, grp.dim)
        b = rand_pt(rng, grp.dim)
        acc = law.identity()
        for _ in range(5):
            acc = law.mul(acc, a)
        assert law.pow(a, 5) == acc
        assert law.pow(a, -3) == law.inv(law.pow(a, 3))
        expected = law.mul(law.mul(law.inv(a), law.inv(b)), law.mul(a, b))
        assert law.comm(a, b) == expected


def test_graded_law_dilation_automorphism():
    rng = random.Random(8)
    for name in GROUPS:
        grp = get_group(name)
        law = grp.law_graded
        degrees = grp.degrees
        for _ in range(40):
            a = rand_pt(rng, grp.dim)
            b = rand_pt(rng, grp.dim)
            t = Fraction(rng.randrange(1, 7), rng.randrange(1, 4))

            def dil(v):
                return tuple(t ** d * c for d, c in zip(degrees, v))

            assert law.mul(dil(a), dil(b)) == dil(law.mul(a, b))


def test_heisenberg_graded_equals_group():
    grp = get_group("heisenberg3")
    rng = random.Random(2)
    for _ in range(50):
        a = rand_pt(rng, 3)
        b = rand_pt(rng, 3)
        assert grp.law_group.mul(a, b) == grp.law_graded.mul(a, b)


coord = st.fractions(
    min_value=-8, max_value=8,
    max_denominator=16,
)


@settings(max_examples=60, deadline=None)
@given(st.tuples(coord, coord, coord), st.tuples(coord, coord, coord))
def test_heisenberg_inverse_property(a, b):
    law = get_group("heisenberg3").law_group
    prod = law.mul(a, b)
    assert law.mul(prod, law.inv(b)) == a


@settings(max_examples=40, deadline=None)
@given(st.tuples(coord, coord, coord, coord),
       st.tuples(coord, coord, coord, coord),
       st.tuples(coord, coord, coord, coord))
def test_engel_associativity_property(a, b, c):
    law = get_group("engel4").law_group
    assert law.mul(law.mul(a, b), c) == law.mul(a, law.mul(b, c))


def test_rational_operands_of_any_type_take_the_exact_product():
    law = get_group("heisenberg3").law_group
    half = (Fraction(1), Fraction(1), Fraction(1, 2))
    numpy_ints = (np.int64(1), np.int64(0), np.int64(0))
    mixed = (True, np.int32(0), Fraction(0))
    for a in ((True, 0, 0), numpy_ints, mixed):
        got = law.mul(a, (0, 1, 0))
        assert got == half and all(type(c) is Fraction for c in got), a
    got = law.mul((np.int64(2), False, 0), (Fraction(1, 3), np.int64(-1), True))
    assert got == law.mul((2, 0, 0), (Fraction(1, 3), -1, 1))
    assert all(type(c) is Fraction for c in got)
    # a float is read exactly, and the product is exact
    for a in ((1.0, 0, 0), (np.float64(1), np.int64(0), 0), (True, 0, 0.0)):
        got = law.mul(a, (0, 1, 0))
        assert got == half and all(type(c) is Fraction for c in got), a
    got = law.mul((0.1, 0, 0), (0, 1 / 3, 0))
    assert got == (Fraction(0.1), Fraction(1 / 3), Fraction(0.1) * Fraction(1 / 3) / 2)
