"""Vectorized kernels against the exact group law."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcone import (
    build_phi,
    builtin_coupling,
    builtin_lattice,
    domain_samples,
    get_group,
    phi_batch,
)
from nilcone.algebra import StructuralError
from nilcone.geometry import quasi_norm_m
from nilcone.kernels import (
    bch_batch,
    dilate_batch,
    fold_digits,
    law_table,
    quasi_norm_batch,
    reduce_batch,
)
from nilcone.wordmetric import digits_to_point, left_peel, right_peel

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
    peel = right_peel if side == "right" else left_peel
    for i in range(omega.shape[0]):
        coords = tuple(Fraction(v).limit_denominator(1 << 20) for v in omega[i])
        d, r = peel(lat, coords, mode=mode)
        assert tuple(digits[i]) == d
        assert np.max(np.abs(rem[i] - [float(c) for c in r])) <= 1e-10


def test_fold_digits_matches_exact_word():
    lat = builtin_lattice("engel4")
    grp = get_group(lat.group)
    tab = law_table(grp.law_group)
    gen_logs, _ = lat.float_basis()
    rng = np.random.default_rng(17)
    digits = rng.integers(-4, 5, size=(40, grp.dim))
    for order in ("asc", "desc"):
        folded = fold_digits(tab, gen_logs, digits.astype(np.float64), order=order)
        for i in range(digits.shape[0]):
            want = digits_to_point(lat, tuple(int(c) for c in digits[i]), order=order)
            ref = np.asarray([float(c) for c in want.coords])
            assert np.max(np.abs(folded[i] - ref)) <= 1e-9


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
    gen_logs, leads = lat.float_basis()
    outs = [bch_batch(tab, x, y), bch_batch(tab, g[None], x), bch_batch(tab, x, g[None])]
    for side in ("left", "right"):
        for mode in ("floor", "round"):
            outs.extend(reduce_batch(tab, gen_logs, leads, x, side=side, mode=mode))
    for order in ("asc", "desc"):
        outs.append(fold_digits(tab, gen_logs, digits, order=order))
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
    tab = law_table(grp.law_group)
    gen_logs, leads = lat.float_basis()
    for side in ("alpha", "beta"):
        assert domain_samples(cp, 100, 1, 4, side=side).flags.f_contiguous
    twisted = builtin_coupling("heisenberg-shear")
    assert domain_samples(twisted, 100, 1, 4).flags.f_contiguous
    x = np.random.default_rng(3).normal(size=(100, grp.dim))  # row-major input
    digits, rem = reduce_batch(tab, gen_logs, leads, x)
    assert digits.flags.f_contiguous and rem.flags.f_contiguous
    assert fold_digits(tab, gen_logs, digits).flags.f_contiguous
    deriv = build_phi(cp, 256, 1)
    assert phi_batch(deriv, x).flags.f_contiguous
