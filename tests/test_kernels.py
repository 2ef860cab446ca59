"""Vectorized kernels against the exact group law."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_bch import term_by_term
from nilcone import (
    build_phi,
    builtin_coupling,
    builtin_lattice,
    domain_samples,
    get_group,
    phi_batch,
)
from nilcone.algebra import BUILTIN_ALGEBRAS, StructuralError
from nilcone.geometry import quasi_norm_m
from nilcone.kernels import (
    bch_batch,
    dilate_batch,
    law_table,
    quasi_norm_batch,
    reduce_batch,
)
from nilcone.ratlin import IntPolys
from nilcone.wordmetric import (
    PrecisionLimit,
    digit_coords,
    digits_to_point,
    peel,
    peel_batch,
    peel_coords,
)

GROUPS = ("abelian2", "heisenberg3", "engel4", "heisenberg5", "free_nilpotent_2_3")


def dyadic_rows(rng, n, dim, span=4, denom=16):
    """Random points whose coordinates are exact in float64."""
    ints = rng.integers(-span * denom, span * denom + 1, size=(n, dim))
    return ints.astype(np.float64) / denom


def exact_mul_rows(law, x, y):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        a = tuple(Fraction(v).limit_denominator(1 << 30) for v in x[i])
        b = tuple(Fraction(v).limit_denominator(1 << 30) for v in y[i])
        out[i] = [float(c) for c in law.mul(a, b)]
    return out


@pytest.mark.parametrize("name", GROUPS)
def test_bch_batch_matches_exact_law(name):
    grp = get_group(name)
    tab = law_table(grp.law_group)
    rng = np.random.default_rng(11)
    x = dyadic_rows(rng, 80, grp.dim)
    y = dyadic_rows(rng, 80, grp.dim)
    got = bch_batch(tab, x, y)
    want = exact_mul_rows(grp.law_group, x, y)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("name", GROUPS)
def test_graded_table_matches_exact_law(name):
    grp = get_group(name)
    tab = law_table(grp.law_graded)
    rng = np.random.default_rng(12)
    x = dyadic_rows(rng, 60, grp.dim)
    y = dyadic_rows(rng, 60, grp.dim)
    got = bch_batch(tab, x, y)
    want = exact_mul_rows(grp.law_graded, x, y)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("mode", ["floor", "round"])
def test_reduce_batch_matches_exact_peel(side, mode):
    lat = builtin_lattice("heisenberg3")
    grp = get_group(lat.group)
    tab = law_table(grp.law_group)
    gen_logs, leads = lat.float_basis()
    rng = np.random.default_rng(16)
    omega = dyadic_rows(rng, 50, grp.dim, span=3, denom=8)
    digits, rem = reduce_batch(tab, gen_logs, leads, omega, side=side, mode=mode)
    for i in range(omega.shape[0]):
        coords = tuple(Fraction(v).limit_denominator(1 << 20) for v in omega[i])
        d, r = peel(lat, coords, mode=mode, side=side)
        assert tuple(digits[i]) == d
        assert np.max(np.abs(rem[i] - [float(c) for c in r])) <= 1e-10


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(GROUPS), side=st.sampled_from(["right", "left"]),
       mode=st.sampled_from(["floor", "round"]), bits=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_peel_batch_matches_the_exact_peel(name, side, mode, bits, seed):
    # Dyadic points with few fraction bits keep every float term exact up
    # to the bound, so each row the bound lets through must give the
    # exact digits, ties included.  Row magnitudes t^degree run from 1 to
    # past the bound, where rows are refused.
    lat = builtin_lattice(name)
    grp = get_group(lat.group)
    rng = np.random.default_rng(seed)
    t = 2.0 ** rng.uniform(0, 45 / max(grp.degrees), size=(30, 1))
    scale = t ** np.asarray(grp.degrees, dtype=np.float64) * 2 ** bits
    omega = np.round(rng.uniform(-1, 1, size=(30, lat.dim)) * scale) / 2 ** bits
    for row in omega:
        try:
            digits, rem = peel_batch(lat, row[None], mode=mode, side=side)
        except PrecisionLimit:
            continue
        d, r = peel(lat, tuple(Fraction(v) for v in row), mode=mode, side=side)
        assert tuple(digits[0]) == d
        assert np.max(np.abs(rem[0] - [float(c) for c in r])) <= 2.0 ** -12


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(GROUPS), side=st.sampled_from(["right", "left"]),
       mode=st.sampled_from(["floor", "round"]), bits=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_peel_coords_equal_the_coords_of_the_peeled_digits(name, side, mode, bits,
                                                            seed):
    # peel_coords runs the exp map on the peel's own float digit columns:
    # each row is refused where peel_batch or digit_coords refuses it, and
    # otherwise has the bits of digit_coords on peel_batch's int64 digits
    # and the exact lattice point, rounded once.  Rows as in the peel test.
    lat = builtin_lattice(name)
    grp = get_group(lat.group)
    order = "desc" if side == "right" else "asc"
    rng = np.random.default_rng(seed)
    t = 2.0 ** rng.uniform(0, 45 / max(grp.degrees), size=(30, 1))
    scale = t ** np.asarray(grp.degrees, dtype=np.float64) * 2 ** bits
    omega = np.round(rng.uniform(-1, 1, size=(30, lat.dim)) * scale) / 2 ** bits
    for row in omega:
        try:
            digits, _ = peel_batch(lat, row[None], mode=mode, side=side)
            want = digit_coords(lat, digits, order=order)
        except PrecisionLimit:
            with pytest.raises(PrecisionLimit):
                peel_coords(lat, row[None], mode=mode, side=side)
            continue
        got = peel_coords(lat, row[None], mode=mode, side=side)
        assert got.tobytes() == want.tobytes()
        point = digits_to_point(lat, digits[0], order=order)
        assert got[0].tolist() == [float(c) for c in point.coords]


def test_float_exp_map_is_refused_where_a_numerator_reaches_2_53():
    # heisenberg3's coordinate 2 has the numerator term c1 * c2
    lat = builtin_lattice("heisenberg3")
    digits = np.array([[1 << 26, 1 << 26, 0]])  # bound 2^52
    want = digits_to_point(lat, digits[0])
    assert digit_coords(lat, digits)[0].tolist() == [float(c) for c in want.coords]
    with pytest.raises(PrecisionLimit, match=r"coordinate 2 .* past 2\^53"):
        digit_coords(lat, np.array([[1 << 26, 1 << 27, 0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0 ** 41])
def test_peel_batch_refuses_non_finite_and_huge_rows(bad):
    lat = builtin_lattice("heisenberg3")
    with pytest.raises(PrecisionLimit, match="coordinate 0 of the point to peel"):
        peel_batch(lat, np.asarray([[0.5, 0.5, 0.5], [bad, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        peel_batch(lat, np.zeros(3))


def test_digit_coords_match_exact_points():
    lat = builtin_lattice("engel4")
    rng = np.random.default_rng(17)
    digits = rng.integers(-4000, 4001, size=(40, lat.dim))
    for order in ("asc", "desc"):
        got = digit_coords(lat, digits, order=order)
        for i in range(digits.shape[0]):
            want = digits_to_point(lat, tuple(int(c) for c in digits[i]), order=order)
            assert got[i].tolist() == [float(c) for c in want.coords]


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e20, 2.0 ** 63])
def test_reduce_batch_refuses_digits_outside_int64(bad):
    lat = builtin_lattice("heisenberg3")
    tab = law_table(get_group(lat.group).law_group)
    gen_logs, leads = lat.float_basis()
    omega = np.asarray([[0.5, 0.5, 0.5], [bad, 0.0, 0.0]])
    with pytest.raises(StructuralError, match="int64"):
        reduce_batch(tab, gen_logs, leads, omega)
    ok, _ = reduce_batch(tab, gen_logs, leads, np.asarray([[2.0 ** 62, 0.0, 0.0]]))
    assert ok[0, 0] == 2 ** 62


@pytest.mark.parametrize("name", GROUPS)
def test_dilate_and_quasi_norm_batch_match_scalar(name):
    grp = get_group(name)
    degrees = np.asarray(grp.grad.degrees, dtype=np.float64)
    rng = np.random.default_rng(18)
    x = rng.normal(size=(30, grp.dim))
    for t in (0.5, 2.0, 3.0):
        got = dilate_batch(degrees, t, x)
        for i in range(x.shape[0]):
            want = [float(t) ** d * v for d, v in zip(grp.grad.degrees, x[i])]
            assert np.max(np.abs(got[i] - want)) <= 1e-12
    norms = quasi_norm_batch(degrees, x)
    for i in range(x.shape[0]):
        assert abs(norms[i] - quasi_norm_m(grp.grad, tuple(x[i]))) <= 1e-12


def test_translate_batch_matches_mul():
    # translation by one point is bch_batch with a one-row operand
    grp = get_group("heisenberg5")
    law = grp.law_group
    tab = law_table(law)
    rng = np.random.default_rng(19)
    g = dyadic_rows(rng, 1, grp.dim)[0]
    x = dyadic_rows(rng, 25, grp.dim)
    left = bch_batch(tab, g[None], x)
    right = bch_batch(tab, x, g[None])
    gt = tuple(Fraction(v).limit_denominator(1 << 20) for v in g)
    for i in range(x.shape[0]):
        xt = tuple(Fraction(v).limit_denominator(1 << 20) for v in x[i])
        want_l = [float(c) for c in law.mul(gt, xt)]
        want_r = [float(c) for c in law.mul(xt, gt)]
        assert np.max(np.abs(left[i] - want_l)) <= 1e-12
        assert np.max(np.abs(right[i] - want_r)) <= 1e-12


@pytest.mark.parametrize("name", sorted(BUILTIN_ALGEBRAS))
@pytest.mark.parametrize("tag", ("group", "graded"))
def test_scalar_and_batch_products_agree_bitwise(name, tag):
    # the batch product against the law's table read one term at a time on
    # floats: same coefficients, same float operations, also where a (1, m)
    # operand acts on every row of the other
    law = get_group(name).law(tag)
    tab = law_table(law)
    rng = np.random.default_rng(29)
    x = rng.normal(size=(40, law.dim)) * 3.0
    y = rng.normal(size=(40, law.dim)) * 3.0
    g = rng.normal(size=(1, law.dim)) * 3.0
    for a, b in ((x, y), (y, x), (g, x), (x, g)):
        got = bch_batch(tab, a, b)
        for i in range(len(got)):
            want = term_by_term(law, a[min(i, len(a) - 1)].tolist(),
                                b[min(i, len(b) - 1)].tolist())
            assert got[i].tobytes() == np.asarray(want, dtype=np.float64).tobytes()


def _column_by_terms(tab, k, cols, acc, unit):
    """IntPolys.column as its terms added one by one to zeros or to acc."""
    out = np.zeros(len(cols[0]), dtype=cols[0].dtype) if acc is None else acc.copy()
    for num, coef, factors in tab.flat[k]:
        term = coef if unit else num
        for v in factors:
            term = term * cols[v]
        out += term
    return out


@pytest.mark.parametrize("dtype", (np.int64, np.float64))
@pytest.mark.parametrize("with_acc", (False, True))
def test_column_equals_the_sum_of_its_terms(dtype, with_acc):
    F = Fraction
    tab = IntPolys.of("test", [
        {((0, 1), (1, 1)): F(1, 3), ((1, 2),): F(-2), ((0, 1),): F(5, 2)},
        {(): F(3), ((0, 1),): F(1), ((1, 1),): F(-1)},  # a constant first
        {((0, 1),): F(-1), ((0, 2),): F(-2)},  # every term 0 where x0 = 0
        {((1, 1),): F(1), ((0, 1),): F(-1)},  # sums to 0 where x0 = x1
        {},
    ])
    rng = np.random.default_rng(41)
    x0 = rng.integers(-9, 10, size=64).astype(dtype)
    x0[:8] = 0
    x1 = rng.integers(-9, 10, size=64).astype(dtype)
    x1[8:16] = x0[8:16]
    for cols in ([x0, x1], [x0, x1[:1]]):  # n rows, and n rows with one row
        for k in range(len(tab.terms)):
            for unit in ((False, True) if dtype is np.float64 else (False,)):
                acc = rng.integers(-5, 6, size=64).astype(dtype) if with_acc else None
                want = _column_by_terms(tab, k, cols, acc, unit)
                got = tab.column(k, cols, np.empty(64, dtype), np.empty(64, dtype), unit,
                                 0 if acc is None else acc)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert not any(np.shares_memory(got, c) for c in cols)
                assert got.tobytes() == want.tobytes()


def test_bch_batch_rejects_mismatched_rows():
    tab = law_table(get_group("heisenberg3").law_group)
    with pytest.raises(ValueError):
        bch_batch(tab, np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        bch_batch(tab, np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        bch_batch(tab, np.zeros(3), np.zeros((2, 3)))


def test_reduce_batch_rejects_bad_shape():
    lat = builtin_lattice("heisenberg3")
    grp = get_group(lat.group)
    tab = law_table(grp.law_group)
    gen_logs, leads = lat.float_basis()
    with pytest.raises(ValueError):
        reduce_batch(tab, gen_logs, leads, np.zeros(3))


# ------------------------------------------------------------ memory layout

LAYOUT_GROUPS = ("heisenberg3", "engel4", "free_nilpotent_2_3")


def _layout_outputs(name, x, y, g, digits):
    """Every batch kernel's outputs on one input set, in a fixed order."""
    lat = builtin_lattice(name)
    tab = law_table(get_group(name).law_group)
    outs = [bch_batch(tab, x, y), bch_batch(tab, g[None], x), bch_batch(tab, x, g[None])]
    for side in ("left", "right"):
        for mode in ("floor", "round"):
            outs.extend(peel_batch(lat, x, mode=mode, side=side))
            outs.append(peel_coords(lat, x, mode=mode, side=side))
    for order in ("asc", "desc"):
        outs.append(digit_coords(lat, digits, order=order))
    return outs


def _same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


@settings(max_examples=6, deadline=None)
@given(name=st.sampled_from(LAYOUT_GROUPS), n=st.integers(1, 257),
       scale=st.sampled_from([1e-3, 1.0, 7.0, 1e3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_layouts_and_single_rows_give_the_same_bits(name, n, scale, seed):
    dim = get_group(name).dim
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim)) * scale
    y = rng.normal(size=(n, dim)) * scale
    g = rng.normal(size=dim) * scale
    digits = rng.integers(-40, 41, size=(n, dim))
    c_order = _layout_outputs(name, x, y, g, digits)
    f_order = _layout_outputs(name, np.asfortranarray(x), np.asfortranarray(y),
                              g, np.asfortranarray(digits))
    assert all(_same_bits(a, b) for a, b in zip(c_order, f_order))
    for i in range(n):
        one = _layout_outputs(name, x[i:i + 1], y[i:i + 1], g, digits[i:i + 1])
        assert all(_same_bits(a[i:i + 1], b) for a, b in zip(c_order, one))


def test_batch_lane_outputs_are_column_major():
    # the kernels read whole columns; a silently row-major lane is slower
    cp = builtin_coupling("engel-identity")
    grp = cp.ambient()
    lat = cp.lambda_lattice
    for side in ("alpha", "beta"):
        assert domain_samples(cp, 100, 1, 4, side=side).flags.f_contiguous
    twisted = builtin_coupling("heisenberg-shear")
    assert domain_samples(twisted, 100, 1, 4).flags.f_contiguous
    x = np.random.default_rng(3).normal(size=(100, grp.dim))  # row-major input
    digits, rem = peel_batch(lat, x)
    assert digits.flags.f_contiguous and rem.flags.f_contiguous
    assert digit_coords(lat, digits).flags.f_contiguous
    assert digit_coords(lat, np.ascontiguousarray(digits)).flags.f_contiguous
    assert peel_coords(lat, x).flags.f_contiguous
    deriv = build_phi(cp, 256, 1)
    assert phi_batch(deriv, x).flags.f_contiguous
