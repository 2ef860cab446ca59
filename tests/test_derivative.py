"""The analytic pipeline: mean abelianization, Phi, and its experiments."""

import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcone import derivative
from nilcone.bch import get_group
from nilcone.coupling import (
    DEFAULT_WORKERS,
    alpha,
    builtin_coupling,
    coupling_kernels,
    domain_blocks,
    domain_samples,
    seed_lineage,
)
from nilcone.derivative import (
    BoxError,
    GeneratorImageTable,
    IterateReport,
    IterateRow,
    PansuDerivative,
    StructuralError,
    _TAG_ITERATES,
    _TAG_KAPPA,
    _TAG_MEAN_AB,
    _TAG_RECUR,
    _convergence_row,
    _graded_dist,
    _median,
    _quasi_ball_grid,
    _scaled_dist,
    arbitrary_element_experiment,
    build_phi,
    gamma_sequence,
    homomorphism_check,
    inverse_check,
    iterate_diagnostics,
    kappa_grid,
    main_theorem_experiment,
    mean_abelianization,
    median3_smooth,
    nondecreasing,
    parse_schedule,
    phi_apply,
    phi_batch,
    recurrence_search,
    strictly_decreasing,
)
from nilcone.geometry import (
    generating_set,
    horizontal_factorization,
    quasi_norm_m,
)
from nilcone.kernels import BLOCK_ROWS, Workspace, bch_batch, dilate_batch
from nilcone.kernels import quasi_norm_batch
from nilcone.wordmetric import (
    PrecisionLimit,
    ball_points,
    builtin_lattice,
    digit_coords,
    lane_coords,
    peel_batch,
)


def test_mean_abelianization_identity_gamma_is_zero():
    c = builtin_coupling("heisenberg-identity")
    m = mean_abelianization(c, (0, 0, 0), 64, 5)
    assert m.vector == (0.0, 0.0, 0.0)
    assert m.ci == (0.0, 0.0, 0.0)


def test_mean_abelianization_abelian_exact():
    c = builtin_coupling("z2-identity")
    m = mean_abelianization(c, (3, -2), 128, 5)
    assert m.vector == (3.0, -2.0)
    assert m.ci == (0.0, 0.0)


def test_mean_abelianization_matches_grid_quadrature():
    """Monte Carlo mean against a deterministic grid average of alpha."""
    c = builtin_coupling("heisenberg-identity")
    m = mean_abelianization(c, (1, 0, 0), 512, 5)
    k = 8
    acc = [Fraction(0), Fraction(0)]
    for i in range(k):
        for j in range(k):
            for l in range(k):
                x = (Fraction(2 * i + 1, 2 * k), Fraction(2 * j + 1, 2 * k),
                     Fraction(2 * l + 1, 2 * k))
                lam = alpha(c, (1, 0, 0), x)
                acc[0] += lam.coords[0]
                acc[1] += lam.coords[1]
    grid = (float(acc[0] / k ** 3), float(acc[1] / k ** 3))
    assert abs(m.vector[0] - grid[0]) <= m.ci[0] + 1e-12
    assert abs(m.vector[1] - grid[1]) <= m.ci[1] + 1e-12


def test_cocycle_ergodic_average_identity_coupling():
    # on the identity coupling the abelian part of alpha(gamma^n, x) is n
    # times gamma's, so every sample's ergodic average is the mean
    c = builtin_coupling("heisenberg-identity")
    for gamma in ((1, 0, 0), (0, 1, 0)):
        rep = iterate_diagnostics(c, gamma, (8, 16), 64, 3)
        assert rep.mean_ab == tuple(float(v) for v in gamma)
        assert [r.median_ab_dev for r in rep.rows] == [0.0, 0.0]


PHI_EXPECTED = {
    "heisenberg-identity": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    "heisenberg-scale2": ((2.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    "heisenberg-shear": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
}


@pytest.mark.parametrize("name", sorted(PHI_EXPECTED))
def test_build_phi_generator_images(name):
    c = builtin_coupling(name)
    phi = build_phi(c, 512, 11)
    want = PHI_EXPECTED[name]
    assert phi.table.entries[0] == want[0]
    assert phi.table.entries[1] == want[1]
    d = len(want)
    for j in range(d):
        plus = phi.table.entries[j]
        minus = phi.table.entries[d + j]
        ci = phi.table.cis[j]
        for a, b, h in zip(plus, minus, ci):
            assert abs(a + b) <= 2 * h + 1e-9


def test_build_phi_engel_identity():
    c = builtin_coupling("engel-identity")
    phi = build_phi(c, 256, 11)
    assert phi.table.entries[0] == (1.0, 0.0, 0.0, 0.0)
    assert phi.table.entries[1] == (0.0, 1.0, 0.0, 0.0)


def test_phi_apply_identity_and_homogeneity():
    c = builtin_coupling("heisenberg-identity")
    phi = build_phi(c, 512, 11)
    e = phi_apply(phi, (0.0, 0.0, 0.0))
    assert e.coords == (0.0, 0.0, 0.0)
    grp = get_group("heisenberg3")
    rng = random.Random(41)
    for _ in range(10):
        g = tuple(rng.uniform(-2, 2) for _ in range(3))
        lhs = phi_apply(phi, tuple(2.0 ** d * v for d, v in zip(grp.degrees, g)))
        rhs = phi_apply(phi, g)
        scaled = tuple(2.0 ** d * v for d, v in zip(grp.degrees, rhs.coords))
        diff = grp.law_graded.mul(grp.law_graded.inv(lhs.coords), scaled)
        assert quasi_norm_m(grp.grad, diff) <= 1e-6


def _word_image(phi, fact):
    """The product, in phi's graded group, of the generator images
    along a factorization word, each dilated by its exponent."""
    law = get_group(phi.group).law_graded
    acc = (0.0,) * law.dim
    for idx, a in fact.terms:
        acc = law.mul(acc, tuple(a * v for v in phi.table.entries[idx]))
    return acc


def test_phi_apply_order_insensitive():
    # phi does not depend on the order in which a point is factored: the
    # image products along the ascending and the descending word agree
    c = builtin_coupling("heisenberg-scale2")
    phi = build_phi(c, 2048, 11)
    grp = get_group("heisenberg3")
    rng = random.Random(43)
    for _ in range(10):
        g = tuple(rng.uniform(-1, 1) for _ in range(3))
        img = phi_apply(phi, g).coords
        for order in ("asc", "desc"):
            word = _word_image(phi, horizontal_factorization(grp, g, order=order))
            diff = grp.law_graded.mul(grp.law_graded.inv(img), word)
            assert quasi_norm_m(grp.grad, diff) <= 0.05


# (coupling, quasi-ball radius, grid step): a coarse grid of each builtin
GRIDS = (
    ("heisenberg-identity", 2.0, 1.0),
    ("heisenberg-scale2", 2.0, 1.0),
    ("heisenberg-shear", 2.0, 1.0),
    ("z2-identity", 2.0, 0.5),
    ("engel-identity", 1.5, 1.0),
)


@pytest.mark.parametrize("name,radius,step", GRIDS)
@pytest.mark.parametrize("order", ["asc", "desc"])
def test_batch_phi_matches_one_row_bitwise(name, radius, step, order):
    # the batch image of a grid row is its one-row image, and both are
    # within 1e-12 of the product of dilated images along the row's
    # factorization word
    c = builtin_coupling(name)
    grp = c.ambient()
    phi = build_phi(c, 512, 11)
    grid = _quasi_ball_grid(grp, radius, step)
    images = phi_batch(phi, grid)
    for i, p in enumerate(grid.tolist()):
        one = phi_apply(phi, p).coords
        assert [v.hex() for v in images[i].tolist()] == [v.hex() for v in one]
        word = _word_image(phi, horizontal_factorization(grp, p, order=order))
        assert max(abs(a - b) for a, b in zip(one, word)) <= 1e-12 * max(1.0, *map(abs, one))


_SMALL = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _phi_and_points(draw):
    """A derivative on one group whose degree-one block A respects the
    group's relations, two bounded points and a dilation."""
    name = draw(st.sampled_from(["heisenberg3", "engel4", "free_nilpotent_2_3"]))
    grp = get_group(name)
    a = [[draw(_SMALL) for _ in range(2)] for _ in range(2)]
    if name == "engel4":  # [X2, X3] = 0 needs no X1 part in the image of X2
        a[0][1] = 0.0
    entries = [tuple(a[i][j] for i in range(2)) + (0.0,) * (grp.dim - 2)
               for j in range(2)]
    entries += [tuple(-v for v in e) for e in entries]
    table = GeneratorImageTable(
        coupling=name, side="alpha", entries=tuple(entries),
        cis=tuple((0.0,) * grp.dim for _ in entries), samples=1, seed=0)
    phi = PansuDerivative(table=table, group=name)
    points = [tuple(draw(_SMALL) / 2 ** (d - 1) for d in grp.degrees)
              for _ in range(2)]
    return phi, points, draw(st.floats(0.25, 4.0))


@settings(max_examples=60, deadline=None)
@given(_phi_and_points())
def test_phi_is_a_graded_homomorphism_equal_to_the_word_product(case):
    phi, (g, h), t = case
    grp = get_group(phi.group)
    law = grp.law_graded

    def close(u, v):
        scale = max(1.0, *map(abs, u), *map(abs, v))
        return max(abs(a - b) for a, b in zip(u, v)) <= 1e-9 * scale

    img = phi_apply(phi, g).coords
    assert close(phi_apply(phi, law.mul(g, h)).coords,
                 law.mul(img, phi_apply(phi, h).coords))
    dil = tuple(t ** d * v for d, v in zip(grp.degrees, g))
    assert close(phi_apply(phi, dil).coords,
                 tuple(t ** d * v for d, v in zip(grp.degrees, img)))
    for order in ("asc", "desc"):
        word = _word_image(phi, horizontal_factorization(grp, g, order=order))
        assert close(img, word)


def test_over_cap_grid_is_refused_before_any_array(monkeypatch):
    # heisenberg3 at radius 1000 and step 0.001 would need a 2e9-point axis
    def no_arrays(*args, **kwargs):
        raise AssertionError("an axis was built before the cap check")

    monkeypatch.setattr("nilcone.derivative.np.arange", no_arrays)
    with pytest.raises(StructuralError, match="exceeds cap"):
        _quasi_ball_grid(get_group("heisenberg3"), 1000.0, 0.001)


@pytest.mark.parametrize("radius, step", [(1e308, 0.5), (2.0, 1e-300)])
def test_huge_grid_is_refused_naming_radius_and_step(radius, step):
    # these used to end in "cannot convert float infinity to integer" and
    # in a count of about 300 digits
    with pytest.raises(StructuralError) as info:
        _quasi_ball_grid(get_group("heisenberg3"), radius, step)
    assert str(info.value) == (
        f"grid of radius {radius} and step {step} exceeds cap 200000 points")


def _identity_engel_phi():
    grp = get_group("engel4")
    entries = tuple(tuple(float(v) for v in s.coords) for s in generating_set(grp))
    table = GeneratorImageTable(
        coupling="engel-identity", side="alpha", entries=entries,
        cis=tuple((0.0,) * grp.dim for _ in entries), samples=1, seed=0)
    return PansuDerivative(table=table, group="engel4")


def test_phi_engel_images_frozen_bitwise():
    # the identity map returns every point of the engel grid bit for bit
    phi = _identity_engel_phi()
    grid = _quasi_ball_grid(get_group("engel4"), 2.0, 0.5)
    images = phi_batch(phi, grid)
    assert np.array_equal(images.view(np.int64), grid.view(np.int64))
    for p in grid[::997].tolist():
        assert phi_apply(phi, p).coords == tuple(p)


def test_gamma_sequence_frozen_values():
    grp = get_group("heisenberg3")
    lat = builtin_lattice("heisenberg3")
    for n in (1, 5, 12):
        assert gamma_sequence(grp.grad, lat, (1, 0, 0), n).coords == (n, 0, 0)
    # delta_6 (1, 1, 0) is a lattice point; delta_7 of it is not (49/2)
    assert gamma_sequence(grp.grad, lat, (1, 1, 0), 6).coords == (6, 6, 0)
    assert gamma_sequence(grp.grad, lat, (1, 1, 0), 7).coords == (
        7, 7, Fraction(-1, 2))
    # nearest digits, not floors: delta_3 of it is (2.1, -2.1, 2.7)
    assert gamma_sequence(grp.grad, lat, (0.7, -0.7, 0.3), 3).coords == (2, -2, 3)


def test_gamma_sequence_rescales_to_target():
    grp = get_group("heisenberg3")
    lat = builtin_lattice("heisenberg3")

    def dists(g):
        out = []
        for n in (8, 32, 128):
            gn = gamma_sequence(grp.grad, lat, g, n)
            scaled = tuple(float(c) / n ** d for c, d in zip(gn.coords, grp.degrees))
            diff = grp.law_graded.mul(grp.law_graded.inv(scaled), g)
            out.append(quasi_norm_m(grp.grad, diff))
        return out

    # at even depths delta_n (1, 1, 0) is a lattice point, rounded to itself
    assert dists((1.0, 1.0, 0.0)) == [0.0, 0.0, 0.0]
    off = dists((1.0, 1.0, 1 / 3))  # on no dilated lattice
    assert strictly_decreasing(off)
    assert off[-1] <= 0.1


def test_main_theorem_experiment_converges():
    c = builtin_coupling("heisenberg-identity")
    phi = build_phi(c, 512, 11)
    rep = main_theorem_experiment(c, phi, (1, 0, 0), (8, 16, 32), 0.2, 256, 13)
    fracs = [r.fraction_within_eps for r in rep.rows]
    assert nondecreasing(median3_smooth(fracs))
    assert fracs[-1] >= 0.9
    meds = [r.median_proxy_dist for r in rep.rows]
    assert strictly_decreasing(meds)
    assert [r.n for r in rep.rows] == [8, 16, 32]
    header, rows = rep.csv_rows()
    assert header == ["n", "samples", "fraction_within_eps",
                      "median_proxy_dist", "seed"]
    assert len(rows) == 3


def test_main_theorem_control_fails():
    c = builtin_coupling("heisenberg-identity")
    phi = build_phi(c, 512, 11)
    rep = main_theorem_experiment(c, phi, (1, 0, 0), (8, 16), 0.2, 256, 13,
                                  target=(5.0, 5.0, 0.0))
    assert all(r.fraction_within_eps <= 0.2 for r in rep.rows)


def test_main_theorem_perturbation_robust():
    c = builtin_coupling("heisenberg-identity")
    phi = build_phi(c, 512, 11)
    rep = main_theorem_experiment(c, phi, (1, 0, 0), (16, 32), 0.2, 128, 13,
                                  perturb_digits=(0, 1, 0))
    assert rep.rows[-1].fraction_within_eps >= 0.8


def test_iterate_diagnostics_decreasing():
    c = builtin_coupling("heisenberg-identity")
    rep = iterate_diagnostics(c, (1, 1, 0), (8, 16, 32, 64), 512, 23)
    assert rep.mean_ab[:2] == (1.0, 1.0)
    com = [r.median_com_over_n for r in rep.rows]
    scl_d = [r.median_scl_dist for r in rep.rows]
    assert strictly_decreasing(com)
    assert strictly_decreasing(scl_d)


def test_kappa_grid_converges():
    c = builtin_coupling("heisenberg-identity")
    phi = build_phi(c, 512, 11)
    rep = kappa_grid(c, phi, 32, (8, 16, 32), 1.0, 1.0, 17, 0.3)
    assert rep.grid_size > 0
    fracs = [r.fraction_within_eps for r in rep.rows]
    assert nondecreasing(median3_smooth(fracs))
    assert fracs[-1] >= 0.9


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0, 1e6),
                       min_size=1, max_size=40),
       nans=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_median_equals_np_median_bitwise(values, nans, seed):
    # non-negative like every distance it reads; ties come from the few
    # sampled values, odd and even sizes and size 1 from the lengths
    a = np.abs(np.asarray(values))
    assert np.float64(_median(a)).tobytes() == np.median(a).tobytes()
    rng = np.random.default_rng(seed)
    with_nan = np.insert(a, rng.integers(0, a.size + 1, size=nans), np.nan)
    assert math.isnan(_median(with_nan)) and math.isnan(np.median(with_nan))


def _kappa_sups_by_sample(c, deriv, x_samples, n_list, radius, step, seed):
    """kappa's sups as one pipeline per sample, in the samples' order."""
    grp = c.ambient()
    ck = coupling_kernels(c)
    grid = _quasi_ball_grid(grp, radius, step)
    phi_vals = phi_batch(deriv, grid)
    sups = []
    for i, n in enumerate(n_list):
        dil = dilate_batch(grp.degrees, float(n), grid)
        digits, _ = peel_batch(ck.gamma_lattice, dil, mode="round")
        jn = digit_coords(ck.gamma_lattice, digits)
        x = domain_samples(c, x_samples, seed, DEFAULT_WORKERS, _TAG_KAPPA, i)
        for row in x:
            dg, _ = ck.reduce(bch_batch(ck.table, jn, row[None]))
            scaled = dilate_batch(grp.degrees, 1.0 / n, digit_coords(ck.lambda_lattice, dg))
            sups.append(_graded_dist(grp, scaled, phi_vals).max())
    return np.asarray(sups)


@pytest.mark.parametrize("name, x_samples, radius, step, block", [
    ("heisenberg-identity", 25, 2.0, 0.5, 11),  # 1,377 points; a short last block
    ("heisenberg-shear", 15, 2.0, 0.5, 11),  # twisted
    ("engel-identity", 5, 1.5, 0.5, 2),  # 5,733 points
    ("heisenberg-identity", 3, 2.0, 0.2, 1),  # 18,081 points: one sample a pass
    ("engel-identity", 3, 2.0, 0.5, 1),  # 45,441 points: 3 chunks, the last short
])
def test_blocked_kappa_equals_the_per_sample_loop_bitwise(
        monkeypatch, name, x_samples, radius, step, block):
    c = builtin_coupling(name)
    deriv = build_phi(c, 256, 3)
    seen = []

    def record(n, dist, eps, seed):
        seen.append(dist.copy())
        return _convergence_row(n, dist, eps, seed)
    monkeypatch.setattr(derivative, "_convergence_row", record)
    rep = kappa_grid(c, deriv, x_samples, (8, 32), radius, step, 13, 0.3)
    assert max(1, BLOCK_ROWS // rep.grid_size) == block
    want = _kappa_sups_by_sample(c, deriv, x_samples, (8, 32), radius, step, 13)
    assert np.concatenate(seen).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["heisenberg-shear", "engel-identity"])
def test_blocked_scaled_dist_equals_one_whole_batch_pass(name):
    # three blocks, the last one 77 rows
    c = builtin_coupling(name)
    grp = c.ambient()
    ck = coupling_kernels(c)
    g = tuple(1.0 if d == 1 else 0.5 ** d for d in grp.degrees)
    gam = [float(v) for v in gamma_sequence(grp.grad, c.gamma_lattice, g, 64).coords]
    target = phi_batch(build_phi(c, 256, 3), [g])[0]
    n = 2 * BLOCK_ROWS + 77
    x = domain_samples(c, n, 5)
    lam = ck.alpha_coords(np.asarray(gam)[None], x, Workspace.fresh(n, grp.dim))
    want = _graded_dist(grp, dilate_batch(grp.degrees, 1 / 64, lam), target)
    got = _scaled_dist(ck, grp, gam, (x[i:i + BLOCK_ROWS] for i in range(0, n, BLOCK_ROWS)),
                       n, 64.0, target)
    assert got.tobytes() == want.tobytes()
    # the streamed samples of the same seed, never an n-row array
    streamed = _scaled_dist(ck, grp, gam, domain_blocks(c, n, 5), n, 64.0, target)
    assert streamed.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["heisenberg-shear", "engel-identity"])
def test_blocked_iterates_and_mean_equal_one_whole_batch_pass(monkeypatch, name):
    # two blocks, the last one 3 rows, on a twisted and an untwisted coupling
    c = builtin_coupling(name)
    grp = c.ambient()
    ck = coupling_kernels(c)
    d = grp.abelian_dim
    n = BLOCK_ROWS + 3
    gamma = (1, 1) + (0,) * (grp.dim - 2)

    def one_pass(gam, *tags):
        x = domain_samples(c, n, 5, DEFAULT_WORKERS, *tags)
        return ck.alpha_coords(np.asarray(gam, dtype=np.float64)[None], x,
                               Workspace.fresh(n, grp.dim))

    ab = one_pass(gamma, _TAG_MEAN_AB)[:, :d]
    mean = mean_abelianization(c, gamma, n, 5)
    assert mean.vector[:d] == tuple(float(col.mean()) for col in ab.T)
    assert mean.ci[:d] == tuple(1.96 * float(col.std(ddof=1)) / math.sqrt(n)
                                for col in ab.T)
    target = np.asarray(mean.vector)
    want = []
    for i, depth in enumerate((8, 64)):
        lam = one_pass([depth * v for v in gamma], _TAG_ITERATES, i)
        com = lam.copy()
        com[:, :d] = 0.0
        want += [np.sqrt(((lam[:, :d] / depth - target[:d]) ** 2).sum(axis=1)),
                 quasi_norm_batch(grp.degrees, com) / depth,
                 _graded_dist(grp, dilate_batch(grp.degrees, 1 / depth, lam), target)]
    seen = []

    def record(a):
        seen.append(a.copy())
        return _median(a)
    monkeypatch.setattr(derivative, "_median", record)
    iterate_diagnostics(c, gamma, (8, 64), n, 5)
    assert [a.tobytes() for a in seen] == [a.tobytes() for a in want]


@pytest.mark.parametrize("name", ["heisenberg-shear", "engel-identity"])
def test_main_theorem_allocates_less_than_one_sample_array(name):
    # the samples are streamed block by block and every block's kernels
    # write into the shared workspace: what is left is the distances
    c = builtin_coupling(name)
    grp = c.ambient()
    phi = build_phi(c, 256, 3)
    g = tuple(1.0 if d == 1 else 0.5 ** d for d in grp.degrees)
    main_theorem_experiment(c, phi, g, (8, 16, 32), 0.2, 1 << 16, 7)  # warm caches
    tracemalloc.start()
    try:
        main_theorem_experiment(c, phi, g, (8, 16, 32), 0.2, 1 << 16, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 16) * grp.dim * 8


def test_main_theorem_past_the_precision_limit_is_refused_in_blocks():
    c = builtin_coupling("engel-identity")
    with pytest.raises(PrecisionLimit, match="at depth 16384, coordinate 3"):
        main_theorem_experiment(c, build_phi(c, 256, 3), (1, 0.5, 0.25, 0.125),
                                (8, 1 << 14), 0.2, 2 * BLOCK_ROWS + 77, 7)


def test_kappa_without_samples_is_refused():
    c = builtin_coupling("heisenberg-identity")
    with pytest.raises(StructuralError, match="at least one sample"):
        kappa_grid(c, build_phi(c, 256, 3), 0, (8,), 1.0, 0.5, 13, 0.3)


@pytest.mark.parametrize("name, box, inside", [
    ("heisenberg-identity", "0:1,0:0.5,0:0.5", True),
    ("heisenberg-identity", "0:1.02,0:0.5,0:0.5", False),
    ("heisenberg-shear", "0:0.5,0:0.5,0:0.5", True),  # its image reaches x1 + x3 = 1
    ("heisenberg-shear", "0:1,0:0.5,0:0.5", False),  # (1, 0, 0.5) maps to x3 = 1.5
])
def test_recurrence_box_is_checked_at_its_corners(name, box, inside):
    # a box partly outside the domain used to pass when no sample fell outside
    c = builtin_coupling(name)
    pairs = tuple(tuple(float(v) for v in p.split(":")) for p in box.split(","))
    for seed in (1, 2, 3):
        if inside:
            rep = recurrence_search(c, (1, 0, 0), 0.3, pairs, 2, 4, seed)
            assert len(rep.first_depths) == 4
        else:
            with pytest.raises(BoxError, match="not inside"):
                recurrence_search(c, (1, 0, 0), 0.3, pairs, 2, 4, seed)


def _first_depths_by_candidate(c, g, delta, box, horizon, samples, seed):
    """recurrence_search's first depths with one reduce per candidate, in
    order, each on the samples still active, stopping once none is left."""
    grp = c.ambient()
    ck = coupling_kernels(c)
    lo, hi = (np.asarray(v, dtype=np.float64) for v in zip(*box))
    rng = np.random.Generator(np.random.PCG64(seed_lineage(seed, _TAG_RECUR)))
    x = rng.uniform(lo, hi, size=(samples, grp.dim))
    perts = np.asarray([[float(v) for v in p] for p in ball_points(c.gamma_lattice, 3)])
    first = np.full(samples, -1)
    active = np.arange(samples)
    for n in range(1, horizon + 1):
        gam = gamma_sequence(grp.grad, c.gamma_lattice, g, n)
        cands = bch_batch(ck.table, lane_coords(c.gamma_lattice, gam.coords)[None], perts)
        dist = _graded_dist(grp, dilate_batch(grp.degrees, 1.0 / n, cands),
                            np.asarray(g, dtype=np.float64))
        for ci in np.nonzero(dist < delta)[0]:
            if active.size == 0:
                break
            _, xprime = ck.reduce(bch_batch(ck.table, cands[ci][None], x[active]))
            inside = np.all((xprime >= lo) & (xprime < hi), axis=1)
            first[active[inside]] = n
            active = active[~inside]
        if active.size == 0:
            break
    return tuple(int(v) for v in first)


@pytest.mark.parametrize("name", ["heisenberg-identity", "heisenberg-scale2",
                                  "heisenberg-shear", "z2-identity", "engel-identity"])
def test_recurrence_batch_per_depth_equals_the_candidate_loop(name):
    c = builtin_coupling(name)
    dim = c.ambient().dim
    g = (1.0,) + (0.0,) * (dim - 1)
    box = ((0.0, 0.5),) * dim
    for seed in (1, 2, 3):
        rep = recurrence_search(c, g, 0.3, box, 12, 40, seed)
        want = _first_depths_by_candidate(c, g, 0.3, box, 12, 40, seed)
        assert rep.first_depths == want
        assert any(d > 0 for d in want)


def test_recurrence_search_returns_quickly():
    c = builtin_coupling("heisenberg-identity")
    box = ((0.0, 0.5), (0.0, 0.5), (0.0, 0.5))
    rep = recurrence_search(c, (1, 0, 0), 0.3, box, 64, 50, 19)
    assert rep.success_fraction >= 0.9
    assert len(rep.first_depths) == 50
    assert all(d >= 1 for d in rep.first_depths if d > 0)


def test_arbitrary_element_experiment():
    c = builtin_coupling("heisenberg-identity")
    word = ((0, parse_schedule("n")), (1, parse_schedule("sqrt")))
    rep = arbitrary_element_experiment(c, word, (8, 16, 32), 128, 31, 0.2)
    fracs = [r.fraction_within_eps for r in rep.rows]
    assert nondecreasing(median3_smooth(fracs))
    assert fracs[-1] >= 0.8


def test_homomorphism_check_identity_coupling():
    c = builtin_coupling("heisenberg-identity")
    phi = build_phi(c, 512, 11)
    rng = random.Random(7)
    pairs = [
        (tuple(rng.uniform(-1, 1) for _ in range(3)),
         tuple(rng.uniform(-1, 1) for _ in range(3)))
        for _ in range(50)
    ]
    rep = homomorphism_check(phi, pairs)
    assert rep.ok
    assert rep.max_defect <= 1e-6
    assert rep.count == 50


def test_inverse_check_scale2():
    c = builtin_coupling("heisenberg-scale2")
    phi = build_phi(c, 1 << 14, 11)
    psi = build_phi(c, 1 << 14, 11, side="beta")
    assert abs(psi.table.entries[0][0] - 0.5) <= 0.01
    rng = random.Random(7)
    pts = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(40)]
    rep = inverse_check(phi, psi, pts)
    assert rep.ok
    assert rep.max_defect <= 0.05


def test_parse_schedule():
    assert parse_schedule("n")(12) == 12
    assert parse_schedule("sqrt")(16) == 4
    assert parse_schedule("log")(64) >= 1
    assert parse_schedule("3n")(5) == 15
    with pytest.raises(StructuralError):
        parse_schedule("cube")


def test_sequence_helpers():
    assert median3_smooth([1.0]) == [1.0]
    assert median3_smooth([3.0, 1.0, 2.0, 5.0]) == [3.0, 2.0, 2.0, 5.0]
    assert median3_smooth([0.1, 0.9, 0.2, 0.8]) == [0.1, 0.2, 0.8, 0.8]
    assert nondecreasing([1, 1, 2, 3])
    assert not nondecreasing([1, 2, 1.5])
    assert strictly_decreasing([3, 2, 1])
    assert not strictly_decreasing([3, 3, 1])


@pytest.mark.parametrize("medians, ok", [
    ([0.3, 0.0, 0.0], True),   # a median already at 0 may stay there
    ([0.3, 0.1], True),
    ([0.3, 0.3], False),       # a positive median must fall strictly
    ([0.0, 0.1], False),
])
def test_iterate_medians_decreasing(medians, ok):
    rows = tuple(IterateRow(n=8 * 2 ** i, samples=1, median_ab_dev=0.0,
                            median_com_over_n=v, median_scl_dist=v, seed=0)
                 for i, v in enumerate(medians))
    rep = IterateReport(rows=rows, mean_ab=(), seed=0)
    assert rep.medians_decreasing() is ok
    # the verdict needs both columns
    flat = tuple(replace(r, median_scl_dist=1.0) for r in rows)
    assert replace(rep, rows=flat).medians_decreasing() is False
