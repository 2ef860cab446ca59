"""Scaling maps, quasi-norms and horizontal factorization."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from factorization_oracle import evaluate_factorization

from nilcone import get_group
from nilcone.algebra import dilation_adapted
from nilcone.derivative import _graded_dist
from nilcone.geometry import (
    FactorizationError,
    fit_exponent,
    generating_set,
    horizontal_factorization,
    quasi_norm_m,
)

NONABELIAN = ("heisenberg3", "engel4", "heisenberg5", "free_nilpotent_2_3")


def rand_fractions(rng, dim, denom=12, span=5):
    return tuple(
        Fraction(rng.randrange(-span * denom, span * denom + 1), denom)
        for _ in range(dim)
    )


@pytest.mark.parametrize("name", NONABELIAN)
def test_quasi_norm_homogeneity_exact(name):
    grp = get_group(name)
    rng = random.Random(101)
    for t in (Fraction(2), Fraction(3, 2), Fraction(1, 4)):
        for _ in range(20):
            coords = rand_fractions(rng, grp.dim)
            scaled = tuple(t ** d * c for d, c in zip(grp.degrees, coords))
            want = float(t) * quasi_norm_m(grp.grad, coords)
            assert quasi_norm_m(grp.grad, scaled) == pytest.approx(want, rel=1e-12)


def test_generating_set_is_symmetric_horizontal():
    grp = get_group("heisenberg5")
    gens = generating_set(grp)
    d = grp.abelian_dim
    assert len(gens) == 2 * d
    for j in range(d):
        plus = gens[j].coords
        minus = gens[d + j].coords
        assert sum(1 for c in plus if c != 0) == 1
        assert tuple(-c for c in plus) == minus


def test_single_generator_factorization_is_one_term():
    grp = get_group("heisenberg3")
    f = horizontal_factorization(grp, (2.5, 0.0, 0.0))
    assert f.terms == ((0, 2.5),)
    g = horizontal_factorization(grp, (0.0, -1.75, 0.0))
    assert g.terms == ((3, 1.75),)


def test_center_element_is_four_term_commutator_word():
    grp = get_group("heisenberg3")
    f = horizontal_factorization(grp, (0, 0, Fraction(1)))
    assert f.terms == ((0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0))
    assert evaluate_factorization(grp, f) == (0, 0, 1)


@pytest.mark.parametrize("name", NONABELIAN)
@pytest.mark.parametrize("order", ["asc", "desc"])
def test_uniform_reconstruction(name, order):
    grp = get_group(name)
    rng = random.Random(103)
    worst = 0.0
    for _ in range(40):
        coords = tuple(rng.uniform(-3, 3) for _ in range(grp.dim))
        f = horizontal_factorization(grp, coords, order=order)
        back = evaluate_factorization(grp, f)
        worst = max(worst, max(abs(float(a) - b) for a, b in zip(back, coords)))
    assert worst <= 1e-9


def test_failure_carries_residual():
    grp = get_group("heisenberg3")
    with pytest.raises(FactorizationError) as exc:
        horizontal_factorization(grp, (0.3, -0.7, 0.11), max_passes=1)
    res = exc.value.residual
    assert len(res) == grp.dim
    assert max(abs(float(c)) for c in res) > 1e-12


def _edge_rows(grp):
    """All-zero, zero abelian part, sub-tolerance and negative-gadget rows."""
    d, m = grp.abelian_dim, grp.dim
    higher = tuple(0.75 - 0.5 * k for k in range(m - d))
    return [
        (0.0,) * m,
        (0.0,) * d + higher,
        (1e-13,) + (1.25,) * (d - 1) + (0.5,) * (m - d - 1) + (1e-13,),
        (0.0,) * d + (1e-13,) * (m - d - 1) + (0.5,),
        (0.0,) * (m - 1) + (-1.5,),
        (0.75, -1.25) + (0.0,) * (d - 2) + tuple(-v for v in higher),
    ]


@pytest.mark.parametrize("name", NONABELIAN)
@pytest.mark.parametrize("order", ["asc", "desc"])
def test_edge_rows_factor_and_reconstruct(name, order):
    grp = get_group(name)
    rng = random.Random(107)
    rows = _edge_rows(grp) + [
        tuple(rng.uniform(-2, 2) for _ in range(grp.dim)) for _ in range(6)]
    for row in rows:
        f = horizontal_factorization(grp, row, order=order)
        assert all(a > 0 for _, a in f.terms)
        back = evaluate_factorization(grp, f)
        assert max(abs(a - b) for a, b in zip(back, row)) <= 1e-9
    assert horizontal_factorization(grp, rows[0], order=order).terms == ()


def test_factorization_refuses_points_of_the_wrong_width():
    from nilcone import StructuralError
    grp = get_group("heisenberg3")
    for bad in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0)):
        with pytest.raises(StructuralError):
            horizontal_factorization(grp, bad)


def test_non_finite_points_do_not_factor():
    grp = get_group("heisenberg3")
    for bad in ((math.nan, 0.0, 0.0), (0.0, 0.0, math.inf)):
        with pytest.raises(FactorizationError):
            horizontal_factorization(grp, bad)


def test_proxy_distance_left_invariance():
    grp = get_group("heisenberg3")
    law = grp.law_graded
    rng = random.Random(105)
    for _ in range(20):
        g, h, k = (tuple(rng.uniform(-2, 2) for _ in range(3)) for _ in range(3))
        d0 = _graded_dist(grp, np.asarray([g]), np.asarray(h))
        kg, kh = (np.asarray(law.mul(k, p), dtype=np.float64) for p in (g, h))
        d1 = _graded_dist(grp, kg[None], kh)
        assert abs(d0[0] - d1[0]) <= 1e-9


# scl_n, the scaling map into the cone, is the dilation delta_{1/n}

def test_scl_rescales_by_degree():
    grad = get_group("heisenberg3").grad
    s = dilation_adapted(grad, (8, 4, 16), Fraction(1, 4))
    assert s == (Fraction(2), Fraction(1), Fraction(1))


def test_scl_same_depth_product_identity_exact():
    """delta_{1/n} is an automorphism, so rescaling splits products exactly."""
    grp = get_group("engel4")
    law = grp.law_group
    graded = grp.law_graded
    rng = random.Random(106)
    for n in (3, 8, 17):
        g = rand_fractions(rng, grp.dim)
        h = rand_fractions(rng, grp.dim)
        t = Fraction(1, n)
        prod = dilation_adapted(grp.grad, law.mul(g, h), t)
        split = graded.mul(dilation_adapted(grp.grad, g, t),
                           dilation_adapted(grp.grad, h, t))
        assert prod == split


def test_scl_power_families_converge_to_abelianized_product():
    """delta_{1/n}(g^n h^n) approaches the graded product of the horizontal parts."""
    grp = get_group("heisenberg3")
    law = grp.law_group
    graded = grp.law_graded
    rng = random.Random(107)
    for _ in range(10):
        g = rand_fractions(rng, 3)
        h = rand_fractions(rng, 3)
        limit = graded.mul((g[0], g[1], 0), (h[0], h[1], 0))
        defects = []
        for n in (4, 8, 16, 32, 64):
            a = dilation_adapted(grp.grad, law.mul(law.pow(g, n), law.pow(h, n)),
                                 Fraction(1, n))
            ac = tuple(float(c) for c in a)
            lc = tuple(float(c) for c in limit)
            diff = grp.law_graded.mul(grp.law_graded.inv(ac), lc)
            defects.append(quasi_norm_m(grp.grad, diff))
        assert all(b <= a + 1e-12 for a, b in zip(defects, defects[1:]))
        assert defects[-1] <= max(defects[0], 1e-12)


def test_fit_exponent_recovers_slope():
    xs = [1, 2, 4, 8, 16]
    ys = [3.0 * x ** 2.5 for x in xs]
    assert abs(fit_exponent(xs, ys) - 2.5) <= 1e-9
    with pytest.raises(ValueError):
        fit_exponent([1.0], [2.0])


def test_quasi_norm_zero_and_units():
    grp = get_group("heisenberg3")
    assert quasi_norm_m(grp.grad, (0, 0, 0)) == 0.0
    assert quasi_norm_m(grp.grad, (1, 0, 0)) == 1.0
    assert abs(quasi_norm_m(grp.grad, (0, 0, 4)) - 2.0) <= 1e-12
