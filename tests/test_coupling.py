"""Measure couplings: reduction, cocycles, induced actions, integrability."""

import fractions
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_models import MODELS
from nilcone.coupling import (
    AutomorphismSpec,
    CouplingSpec,
    StructuralError,
    _sample_blocks,
    alpha,
    beta,
    builtin_coupling,
    builtin_twist,
    coupling_from_json,
    coupling_kernels,
    domain_blocks,
    domain_samples,
    in_domain,
    induced_action,
    integrability_estimate,
    ks_statistic,
    lambda_action,
    make_coupling,
    reduce_to_domain,
    validate_automorphism,
    verify_coupling,
)
from nilcone import wordmetric
from nilcone.bch import get_group
from nilcone.derivative import gamma_sequence, mean_abelianization
from nilcone.kernels import BLOCK_ROWS, Workspace, workspace
from nilcone.wordmetric import (
    LatticeSpec,
    PrecisionLimit,
    _ball,
    ball_profile,
    builtin_lattice,
    digits_to_point,
    member,
    standard_lattice,
)

BUILTINS = (
    "engel-identity",
    "heisenberg-identity",
    "heisenberg-scale2",
    "heisenberg-shear",
    "z2-identity",
)


@pytest.mark.parametrize("name", BUILTINS)
def test_verify_coupling_builtins(name):
    report = verify_coupling(builtin_coupling(name), samples=64, seed=1,
                             triple_count=60)
    assert report.ok, [c for c in report.checks if not c[1]]


def test_reduce_frozen_example():
    c = builtin_coupling("heisenberg-identity")
    omega = (Fraction(3, 2), Fraction(1, 2), Fraction(3, 4))
    x, lam = reduce_to_domain(c, omega)
    assert x.coords == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert lam.coords == (1, 0, 1)
    assert in_domain(c, x.coords)
    assert lambda_action(c, lam, omega) == x.coords
    x2, lam2 = reduce_to_domain(c, x.coords)
    assert x2.coords == x.coords
    assert all(c == 0 for c in lam2.coords)


def test_reduce_in_box_is_identity():
    c = builtin_coupling("heisenberg-identity")
    omega = (Fraction(1, 4), Fraction(2, 3), Fraction(9, 10))
    x, lam = reduce_to_domain(c, omega)
    assert x.coords == omega
    assert all(v == 0 for v in lam.coords)


@pytest.mark.parametrize("name", ["heisenberg-scale2", "heisenberg-shear"])
def test_twisted_reduction_reconstructs(name):
    c = builtin_coupling(name)
    rng = random.Random(31)
    for _ in range(40):
        omega = tuple(Fraction(rng.randrange(-512, 512), 64) for _ in range(3))
        x, lam = reduce_to_domain(c, omega)
        assert all(d.denominator == 1 for d in lam.coords) or member(
            c.lambda_lattice, lam.coords
        )
        assert lambda_action(c, lam, omega) == x.coords
        assert in_domain(c, x.coords)
        x2, lam2 = reduce_to_domain(c, x.coords)
        assert x2.coords == x.coords and all(v == 0 for v in lam2.coords)


def test_alpha_frozen_and_unique():
    c = builtin_coupling("heisenberg-identity")
    x = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    lam = alpha(c, (1, 0, 0), x)
    assert lam.coords == (1, 0, 1)
    law = get_group("heisenberg3").law_group
    omega = law.mul((Fraction(1), Fraction(0), Fraction(0)), x)
    hits = 0
    for digs in itertools.product(range(-3, 4), repeat=3):
        cand = digits_to_point(c.lambda_lattice, digs)
        if in_domain(c, lambda_action(c, cand, omega)):
            hits += 1
    assert hits == 1


def test_alpha_identity_is_identity():
    for name in BUILTINS:
        c = builtin_coupling(name)
        dim = c.ambient().dim
        e = tuple(Fraction(0) for _ in range(dim))
        x = tuple(Fraction(1, 3) for _ in range(dim))
        xx, _ = reduce_to_domain(c, x)
        assert alpha(c, e, xx.coords).coords == e


@pytest.mark.parametrize("name", BUILTINS)
def test_cocycle_identity_exact(name):
    c = builtin_coupling(name)
    grp = c.ambient()
    law = grp.law_group
    rng = random.Random(32)

    def rand_gamma():
        digs = tuple(rng.randint(-3, 3) for _ in range(grp.dim))
        return digits_to_point(c.gamma_lattice, digs).coords

    for _ in range(60):
        g1, g2 = rand_gamma(), rand_gamma()
        raw = tuple(Fraction(rng.randrange(0, 64), 64) for _ in range(grp.dim))
        x, _ = reduce_to_domain(c, raw)
        x2 = induced_action(c, g2, x.coords)
        lhs = alpha(c, law.mul(g1, g2), x.coords).coords
        rhs = law.mul(alpha(c, g1, x2.coords).coords, alpha(c, g2, x.coords).coords)
        assert lhs == tuple(rhs)


def test_actions_commute_exactly():
    for name in BUILTINS:
        c = builtin_coupling(name)
        grp = c.ambient()
        law = grp.law_group
        rng = random.Random(33)
        for _ in range(20):
            g = digits_to_point(
                c.gamma_lattice, tuple(rng.randint(-2, 2) for _ in range(grp.dim))
            ).coords
            lam = digits_to_point(
                c.lambda_lattice, tuple(rng.randint(-2, 2) for _ in range(grp.dim))
            )
            w = tuple(Fraction(rng.randrange(-128, 128), 32) for _ in range(grp.dim))
            lhs = lambda_action(c, lam, law.mul(g, w))
            rhs = law.mul(g, lambda_action(c, lam, w))
            assert lhs == rhs


def test_beta_inverts_alpha_on_qualifying_points():
    for name in ("heisenberg-identity", "heisenberg-scale2"):
        c = builtin_coupling(name)
        grp = c.ambient()
        rng = random.Random(34)
        y_leads = c.gamma_lattice.leads()
        qualify = agree = 0
        for _ in range(150):
            digs = tuple(rng.randint(-1, 1) for _ in range(grp.dim))
            g = digits_to_point(c.gamma_lattice, digs)
            raw = tuple(Fraction(rng.randrange(0, 64), 64) for _ in range(grp.dim))
            x, _ = reduce_to_domain(c, raw)
            x2 = induced_action(c, g.coords, x.coords)
            if not all(0 <= v < e for v, e in zip(x.coords, y_leads)):
                continue
            if not all(0 <= v < e for v, e in zip(x2.coords, y_leads)):
                continue
            qualify += 1
            lam = alpha(c, g.coords, x.coords)
            if beta(c, lam.coords, x.coords).coords == g.coords:
                agree += 1
        assert qualify > 20
        assert agree == qualify


def test_induced_action_identity_and_composition():
    c = builtin_coupling("heisenberg-shear")
    grp = c.ambient()
    law = grp.law_group
    rng = random.Random(35)
    e = tuple(Fraction(0) for _ in range(3))
    for _ in range(25):
        raw = tuple(Fraction(rng.randrange(0, 64), 64) for _ in range(3))
        x, _ = reduce_to_domain(c, raw)
        assert induced_action(c, e, x.coords).coords == x.coords
        g1 = digits_to_point(c.gamma_lattice,
                             tuple(rng.randint(-2, 2) for _ in range(3))).coords
        g2 = digits_to_point(c.gamma_lattice,
                             tuple(rng.randint(-2, 2) for _ in range(3))).coords
        lhs = induced_action(c, law.mul(g1, g2), x.coords).coords
        rhs = induced_action(c, g1, induced_action(c, g2, x.coords).coords).coords
        assert lhs == rhs


def test_induced_action_preserves_uniformity():
    c = builtin_coupling("heisenberg-identity")
    n = 20000
    xs = domain_samples(c, n, 77)
    grp = c.ambient()
    law = grp.law_group
    moved = np.empty_like(xs)
    for i in range(n):
        x = tuple(Fraction(v).limit_denominator(1 << 24) for v in xs[i])
        moved[i] = [float(v) for v in induced_action(c, (1, 0, 0), x).coords]
    fresh = domain_samples(c, n, 78)
    for j in range(3):
        assert ks_statistic(moved[:, j], fresh[:, j]) < 0.05


def test_domain_samples_reproducible():
    c = builtin_coupling("heisenberg-identity")
    a = domain_samples(c, 512, 21, 4)
    b = domain_samples(c, 512, 21, 4)
    assert a.tobytes() == b.tobytes()
    d = domain_samples(c, 512, 22, 4)
    assert a.tobytes() != d.tobytes()
    t = domain_samples(c, 512, 21, 4, 7)
    assert a.tobytes() != t.tobytes()
    assert a.min() >= 0.0 and a.max() < 1.0


def test_domain_samples_beta_side_is_the_gamma_box():
    c = builtin_coupling("heisenberg-identity")
    a = domain_samples(c, 512, 21, 4, 3)
    b = domain_samples(c, 512, 21, 4, 3, side="beta")
    assert a.tobytes() == b.tobytes()
    c = builtin_coupling("heisenberg-scale2")
    a = domain_samples(c, 512, 21, 4, 3)
    b = domain_samples(c, 512, 21, 4, 3, side="beta")
    leads = [float(v) for v in c.gamma_lattice.leads()]
    assert all(0.0 <= v < lead for row in b for v, lead in zip(row, leads))
    theta_inv = c.twist.inverse().float_matrix()
    assert a.tobytes() == (b @ theta_inv.T).tobytes()
    with pytest.raises(StructuralError):
        domain_samples(c, 16, 21, side="gamma")
    with pytest.raises(StructuralError):
        domain_samples(c, 16, 21, 0)


def _index4_coupling():
    """heisenberg3 acted on by its index-4 sublattice: leads 2, 1, 2 (every
    builtin lattice has leads 1)."""
    basis = tuple(tuple(Fraction(v) for v in row)
                  for row in ((2, 0, 0), (0, 1, 0), (0, 0, 2)))
    return CouplingSpec("heisenberg-index4", "heisenberg3", builtin_lattice("heisenberg3"),
                        LatticeSpec("heisenberg3-index4", "heisenberg3", basis, ()), None)


def test_abelian_mean_ci_covers_the_exact_image_at_its_level():
    # On the index-4 coupling the abelian image of e1 is 0 or 2 with
    # probability 1/2 each: mean 1, sd 1.  Over 200 seeds the 95% CI must
    # cover 1 about 190 times; the band is 190 +- 4 sigma, sigma =
    # sqrt(200 * 0.95 * 0.05) = 3.08.  188 here; a half-width divided by
    # n in place of sqrt(n) covers 9.
    c = _index4_coupling()
    covered = 0
    for seed in range(200):
        m = mean_abelianization(c, (1, 0, 0), 1024, seed)
        covered += abs(m.vector[0] - 1) <= m.ci[0]
    assert 178 <= covered <= 198


@pytest.mark.parametrize("name", ("heisenberg-identity", "heisenberg-shear",
                                  "engel-identity", "heisenberg-index4"))
@pytest.mark.parametrize("side", ("alpha", "beta"))
@pytest.mark.parametrize("n, workers", ((1, 4), (7, 4), (1023, 4), (10, 3),
                                        (2 * BLOCK_ROWS + 77, 4), (2 * BLOCK_ROWS + 77, 3)))
def test_domain_samples_equal_rng_uniform_bitwise(name, side, n, workers):
    c = _index4_coupling() if name == "heisenberg-index4" else builtin_coupling(name)
    lat = c.lambda_lattice if side == "alpha" else c.gamma_lattice
    leads = np.asarray([float(v) for v in lat.leads()])
    chunks = []
    for w in range(workers):
        size = n // workers + (w < n % workers)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(31, spawn_key=(5, w))))
        chunks.append(rng.uniform(np.zeros_like(leads), leads, size=(size, len(leads))))
    want = np.concatenate(chunks)
    if side == "alpha" and c.twist is not None:
        want = (c.twist.inverse().float_matrix() @ want.T).T
    got = domain_samples(c, n, 31, workers, 5, side=side)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the same stream read in blocks of the shared workspace, across the
    # boundaries of blocks and of worker streams
    if workers == 4 and side == "alpha":
        blocks = domain_blocks(c, n, 31, 5)
    else:  # the reader behind domain_blocks, with its other arguments
        blocks = _sample_blocks(c, n, 31, workers, (5,), side, BLOCK_ROWS,
                                lambda k, m: workspace(k, m)[:2])
    sizes, parts = [], []
    for block in blocks:
        assert block.flags.f_contiguous
        sizes.append(len(block))
        parts.append(block.copy(order="F"))
    assert sizes == [min(BLOCK_ROWS, n - i) for i in range(0, n, BLOCK_ROWS)]
    assert np.concatenate(parts).tobytes() == want.tobytes()


def test_twist_inverse_computed_once():
    tw = builtin_twist("shear")
    assert tw.inverse() is tw.inverse()
    assert tw.inverse().apply(tw.apply((1, 2, 3))) == (1, 2, 3)


def test_domain_marginals_uniform():
    c = builtin_coupling("heisenberg-identity")
    xs = domain_samples(c, 20000, 55)
    grid = (np.arange(20000) + 0.5) / 20000
    for j in range(3):
        assert ks_statistic(xs[:, j], grid) < 0.02


def test_abelian_identity_cocycle_is_translation():
    c = builtin_coupling("z2-identity")
    rng = random.Random(36)
    for _ in range(30):
        g = (rng.randint(-5, 5), rng.randint(-5, 5))
        x = (Fraction(rng.randrange(0, 64), 64), Fraction(rng.randrange(0, 64), 64))
        lam = alpha(c, g, x)
        assert lam.coords == g
    rep = integrability_estimate(c, (1, 0), 4000, 6)
    assert rep.mean == 1.0 and rep.max_norm == 1.0


def test_integrability_identity_coupling_bounded():
    c = builtin_coupling("heisenberg-identity")
    rep = integrability_estimate(c, (1, 0, 0), 10000, 3)
    assert rep.max_norm == 3.0
    assert 1.9 <= rep.mean <= 2.1
    assert rep.ci_low <= rep.mean <= rep.ci_high
    assert rep.samples == 10000 and rep.seed == 3


# (mean, ci_low, ci_high, max_norm) at 1000 samples and seed 8, recorded
# with the rational word-norm proxy.  Every gamma but the shear one sends
# its cocycle to word length 25 or more, past every ball the suite grows,
# so the Guivarc'h fallback answers whatever the shared balls hold.
INTEGRABILITY_PINS = {
    ("heisenberg-identity", (40, 0, 0)): (
        "0x1.e039af3624474p+6", "0x1.e039af3624474p+6",
        "0x1.e039af3624474p+6", "0x1.e039af3624475p+6"),
    ("heisenberg-shear", (1, 1, 0)): (
        "0x1.8e5604189374cp+1", "0x1.85dcf420755d3p+1",
        "0x1.96cf1410b18c5p+1", "0x1.8000000000000p+2"),
    ("engel-identity", (25, 0, 0, 0)): (
        "0x1.a000000000000p+6", "0x1.a000000000000p+6",
        "0x1.a000000000000p+6", "0x1.a000000000000p+6"),
    ("heisenberg-scale2", (3, 0, 1601)): (
        "0x1.5167e034912e5p+7", "0x1.516664347d4b4p+7",
        "0x1.51695c34a5116p+7", "0x1.518f02c7a78f9p+7"),
}


@pytest.mark.parametrize("case", list(INTEGRABILITY_PINS), ids=lambda c: c[0])
def test_integrability_reports_match_pins(case):
    rep = integrability_estimate(builtin_coupling(case[0]), case[1], 1000, 8)
    got = tuple(v.hex() for v in (rep.mean, rep.ci_low, rep.ci_high, rep.max_norm))
    assert got == INTEGRABILITY_PINS[case]


def test_word_norm_proxy_ignores_a_warmer_ball(monkeypatch):
    # the proxy used to answer from however far the shared ball had grown:
    # 46.85 in a fresh process, 16.94 after a radius-18 profile
    monkeypatch.setattr(wordmetric, "_BALL_CACHES", {})
    c = builtin_coupling("heisenberg-identity")
    fresh = integrability_estimate(c, (15, 0, 0), 1000, 8)
    ball_profile(c.lambda_lattice, 18)
    warm = integrability_estimate(c, (15, 0, 0), 1000, 8)
    assert warm == fresh
    assert abs(fresh.mean - 46.85) < 0.01


@pytest.mark.parametrize("name", BUILTINS)
def test_float_digits_refused_past_the_precision_limit(name):
    # n = 2^12 keeps every builtin coupling far inside the limit; on
    # engel-identity n = 2^20 puts the degree-3 coordinate near 2^57,
    # where 100 of 100 float digits disagreed with the exact lane
    c = builtin_coupling(name)
    grp = c.ambient()
    ck = coupling_kernels(c)
    g = tuple(1.0 if d == 1 else 0.5 ** d for d in grp.degrees)
    x = domain_samples(c, 50, 3)
    gam = gamma_sequence(grp.grad, c.gamma_lattice, g, 1 << 12)
    ck.alpha_digits(gam.coords, x)
    work = Workspace.fresh(len(x), grp.dim)
    ck.beta_coords(np.asarray([float(v) for v in gam.coords])[None], x, work)
    if name == "engel-identity":
        deep = gamma_sequence(grp.grad, c.gamma_lattice, g, 1 << 20)
        with pytest.raises(PrecisionLimit, match="coordinate 3 .* reaches"):
            ck.alpha_digits(deep.coords, x)
        with pytest.raises(PrecisionLimit, match="coordinate 3 .* reaches"):
            ck.beta_coords(np.asarray([float(v) for v in deep.coords])[None], x, work)


@pytest.mark.parametrize("e", [20, 24])
def test_float_digits_equal_the_exact_lane_or_are_refused(e):
    # gamma = (2^24, 2^24, 0) passed the earlier guard on the point's own
    # coordinates, yet 6 of these 400 float digits differed from the exact lane;
    # its peel terms reach about 2^48 lattice units
    c = builtin_coupling("heisenberg-identity")
    ck = coupling_kernels(c)
    x = domain_samples(c, 400, 3)
    gam = (2 ** e, 2 ** e, 0)
    try:
        digits, _ = ck.alpha_digits(gam, x)
    except PrecisionLimit:
        assert e == 24
        return
    for i, row in enumerate(x):
        want = alpha(c, gam, tuple(Fraction(v) for v in row))
        assert digits_to_point(c.lambda_lattice, digits[i]).coords == want.coords


def test_integrability_growth_subadditive():
    c = builtin_coupling("heisenberg-identity")
    means = []
    for k in (1, 2, 4, 8):
        g = digits_to_point(c.gamma_lattice, (k, 0, 0))
        means.append(integrability_estimate(c, g.coords, 2000, 5).mean)
    m1 = means[0]
    for k, m in zip((1, 2, 4, 8), means):
        assert m <= k * (m1 + 0.05)
    ratios = [m / k for k, m in zip((1, 2, 4, 8), means)]
    assert all(b <= a + 0.02 for a, b in zip(ratios, ratios[1:]))


def test_coupling_json_round_trip():
    c = builtin_coupling("heisenberg-scale2")
    obj = {"group": "heisenberg3", "twist": "scale2", "domain": "malcev_box"}
    c2 = coupling_from_json(obj)
    assert c2.twist.matrix == c.twist.matrix
    plain = coupling_from_json({"group": "heisenberg3", "twist": None})
    assert plain.twist is None
    with pytest.raises(StructuralError):
        coupling_from_json({"twist": "scale2"})
    with pytest.raises(StructuralError):
        coupling_from_json({"group": "heisenberg3", "domain": "ball"})
    for twist in (5, ["scale2"]):  # an AttributeError before twists were checked
        with pytest.raises(StructuralError, match="twist must be null or"):
            coupling_from_json({"group": "heisenberg3", "twist": twist})
    with pytest.raises(StructuralError):
        make_coupling("heisenberg3", twist="spin")


def test_bad_twist_matrix_rejected():
    grp = get_group("heisenberg3")
    bad = AutomorphismSpec(
        name="bad",
        matrix=(
            (Fraction(2), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        ),
    )
    with pytest.raises(StructuralError):
        validate_automorphism(grp, bad, builtin_lattice("heisenberg3"))
    with pytest.raises(StructuralError):
        builtin_twist("rotation")


def test_ks_statistic_behaves():
    a = (np.arange(1000) + 0.5) / 1000
    assert ks_statistic(a, a) == 0.0
    assert ks_statistic(a, a + 0.5) >= 0.45


def test_equal_specs_built_apart_share_one_cache_entry():
    a, b = make_coupling("heisenberg3", "shear"), make_coupling("heisenberg3", "shear")
    assert a is not b and a == b and hash(a) == hash(b)
    assert coupling_kernels(a) is coupling_kernels(b)
    la, lb = standard_lattice("engel4"), standard_lattice("engel4")
    assert la is not lb and la == lb and hash(la) == hash(lb)
    assert _ball(la) is _ball(lb)
    # the hash is kept, and equality still reads the content
    assert a.__dict__["_hash"] == hash(a) and la.__dict__["_hash"] == hash(la)
    assert a != make_coupling("heisenberg3", "scale2")
    assert la != standard_lattice("heisenberg3")


@pytest.mark.parametrize("name", ["heisenberg-shear", "engel-identity"])
def test_exact_calls_build_fractions_only_for_what_they_return(name):
    """Each exact call builds at most dim Fractions per point it returns,
    counted by wrapping Fraction.__new__ (Fraction arithmetic builds its
    results through it too), so no intermediate point comes back as
    Fractions."""
    c = builtin_coupling(name)
    law, dim = c.ambient().law_group, c.ambient().dim
    gam = digits_to_point(c.gamma_lattice, [2, -1, 3, 1][:dim]).coords
    x = reduce_to_domain(c, [Fraction(k, 64) for k in (17, 5, 60, 33)][:dim])[0].coords
    lam = alpha(c, gam, x).coords
    omega = law.mul(gam, x)
    twist, v = c.twist or builtin_twist("shear"), (1, Fraction(1, 2), 3)
    calls = {  # name: (call, points returned)
        "alpha": (lambda: alpha(c, gam, x), 1),
        "induced_action": (lambda: induced_action(c, gam, x), 1),
        "beta": (lambda: beta(c, lam, x), 1),
        "GroupLaw.mul": (lambda: law.mul(gam, x), 1),
        "GroupLaw.mul ints": (lambda: law.mul([3, 1, 2, 5][:dim], [1, 2, 0, 7][:dim]), 1),
        "reduce_to_domain": (lambda: reduce_to_domain(c, omega), 2),
        "lambda_action": (lambda: lambda_action(c, lam, x), 1),
        "in_domain": (lambda: in_domain(c, x), 0),
        "digits_to_point": (lambda: digits_to_point(c.lambda_lattice, [1, -2, 3, 0][:dim]), 1),
        "AutomorphismSpec.apply": (lambda: twist.apply(v), 1),
    }
    for call, _ in calls.values():
        call()  # tables are built on first use
    made = []
    new = fractions.Fraction.__dict__["__new__"]

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new.__func__(cls, *args, **kwargs)

    over = {}
    fractions.Fraction.__new__ = counting_new
    try:
        for label, (call, points) in calls.items():
            made.clear()
            call()
            if len(made) > (len(v) if label == "AutomorphismSpec.apply" else dim) * points:
                over[label] = len(made)
    finally:
        fractions.Fraction.__new__ = new
    assert over == {}


def _model_mul(group: str, a, b) -> tuple:
    """The product by the test's matrix model, or by coordinate sums on
    the abelian group: nothing of the package's exact lane."""
    if group == "abelian2":
        return tuple(Fraction(p) + q for p, q in zip(a, b))
    return tuple(MODELS[group](a, b))


def _matvec(m, v) -> tuple:
    return tuple(sum((Fraction(e) * c for e, c in zip(row, v)), Fraction(0)) for row in m)


_small_rational = st.fractions(min_value=-4, max_value=4, max_denominator=64)
_float_rational = st.floats(min_value=-4, max_value=4).map(Fraction)  # 2^-52 steps


@pytest.mark.parametrize("name", BUILTINS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_cocycle_against_an_independent_product(name, data):
    """gamma x = x' twist^-1(lam) with lam = alpha(gamma, x) and
    x' = induced_action(gamma, x), checked as twist(gamma x) = twist(x') lam
    through the matrix model; twist(x') lies in the box [0, lead); and the
    mirror: lambda_action(lam, y) = y twist^-1(lam)^-1, and beta(lam, y)
    moves it into the gamma box.  The twist is applied by Fraction
    arithmetic here."""
    c = builtin_coupling(name)
    grp = c.ambient()
    m = grp.dim
    theta = c.twist.matrix if c.twist is not None else [
        [int(i == j) for j in range(m)] for i in range(m)]
    if data.draw(st.booleans(), label="deep"):
        g = data.draw(st.tuples(*[st.floats(-1, 1).map(lambda v: round(v, 3))] * m), label="g")
        n = data.draw(st.integers(1, 1 << 24), label="n")
        gam = gamma_sequence(grp.grad, c.gamma_lattice, g, n).coords
    else:
        digs = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m), label="digits")
        gam = digits_to_point(c.gamma_lattice, digs).coords
    point = st.tuples(*[st.one_of(_small_rational, _float_rational)] * m)
    x, y = data.draw(point, label="x"), data.draw(point, label="y")

    lam = alpha(c, gam, x).coords
    x2 = induced_action(c, gam, x).coords
    assert _matvec(theta, _model_mul(grp.name, gam, x)) == _model_mul(
        grp.name, _matvec(theta, x2), lam)
    assert all(0 <= v < e for v, e in zip(_matvec(theta, x2), c.lambda_lattice.leads()))

    moved = lambda_action(c, lam, y)
    assert _matvec(theta, moved) == _model_mul(
        grp.name, _matvec(theta, y), tuple(-v for v in lam))
    back = _model_mul(grp.name, beta(c, lam, y).coords, moved)
    assert all(0 <= v < e for v, e in zip(back, c.gamma_lattice.leads()))
