"""End-to-end acceptance gate.

One test per shipping criterion.  Each prints a single verdict line of
the form ``criterion NN PASS <label> [<seconds> s]`` (visible with
``pytest -s`` or in the captured output of a failure) and then asserts,
so a red run names exactly which guarantee broke.  All sample counts and
seeds are fixed; the whole file is deterministic and reruns print
identical numbers, apart from the elapsed seconds.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from matrix_models import MODELS
from nilcone import get_group
from nilcone.algebra import (
    BUILTIN_ALGEBRAS,
    bracket,
    bracket_t,
    dilation_adapted,
    graded_bracket,
    gradation,
)
from nilcone.cli import main as cli_main
from nilcone.coupling import (
    alpha,
    beta,
    builtin_coupling,
    coupling_kernels,
    domain_samples,
    induced_action,
    ks_statistic,
    lambda_action,
    reduce_to_domain,
)
from nilcone.derivative import (
    build_phi,
    homomorphism_check,
    inverse_check,
    iterate_diagnostics,
    kappa_grid,
    main_theorem_experiment,
    median3_smooth,
    nondecreasing,
    phi_apply,
    recurrence_search,
    strictly_decreasing,
)
from nilcone.geometry import (
    fit_exponent,
    generating_set,
    horizontal_factorization,
    quasi_norm_m,
)
from nilcone.wordmetric import (
    ball_profile,
    builtin_lattice,
    digits_to_point,
    guivarch_constants,
)

EXACT_GROUPS = ("heisenberg3", "heisenberg5", "engel4", "free_nilpotent_2_3")
HEISENBERG_COUPLINGS = ("heisenberg-identity", "heisenberg-scale2",
                        "heisenberg-shear")
ALL_COUPLINGS = HEISENBERG_COUPLINGS + ("z2-identity", "engel-identity")

_PHI_CACHE: dict[tuple[str, str], object] = {}


def _phi(name: str, side: str = "alpha"):
    key = (name, side)
    if key not in _PHI_CACHE:
        _PHI_CACHE[key] = build_phi(builtin_coupling(name), 1 << 14, 11,
                                    side=side)
    return _PHI_CACHE[key]


_CLOCK = {"start": 0.0}


@pytest.fixture(autouse=True)
def _criterion_clock():
    _CLOCK["start"] = time.perf_counter()


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    """Print the verdict line with the criterion's own elapsed seconds."""
    state = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    elapsed = time.perf_counter() - _CLOCK["start"]
    print(f"criterion {num:02d} {state} {label}{tail} [{elapsed:.1f} s]")
    assert ok, f"criterion {num:02d} {label}{tail}"


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-24, 25), rng.choice((1, 2, 3, 4, 6)))


def _rand_vec(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    return tuple(_rand_fraction(rng) for _ in range(dim))


def test_criterion_01_exact_algebra():
    start = time.perf_counter()
    for name in EXACT_GROUPS:
        grp = get_group(name)
        law = grp.law_group
        grad = grp.grad
        d = grp.dim
        rng = random.Random(1234)
        for _ in range(1000):
            a = _rand_vec(rng, d)
            b = _rand_vec(rng, d)
            c = _rand_vec(rng, d)
            ab = law.mul(a, b)
            assert law.mul(ab, c) == law.mul(a, law.mul(b, c))
            assert law.mul(a, law.identity()) == a
            assert law.mul(a, law.inv(a)) == law.identity()

            aa = grad.to_adapted(a)
            bb = grad.to_adapted(b)
            cc = grad.to_adapted(c)
            for tens in (grad.adapted_tensor, grad.graded_tensor):
                cyc = tuple(
                    x + y + z
                    for x, y, z in zip(
                        bracket(tens, d, aa, bracket(tens, d, bb, cc)),
                        bracket(tens, d, bb, bracket(tens, d, cc, aa)),
                        bracket(tens, d, cc, bracket(tens, d, aa, bb)),
                    )
                )
                assert all(v == 0 for v in cyc)

            t = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
            dil_ab = grad.from_adapted(
                dilation_adapted(grad, grad.to_adapted(ab), t))
            dil_a = grad.from_adapted(dilation_adapted(grad, aa, t))
            dil_b = grad.from_adapted(dilation_adapted(grad, bb, t))
            assert dil_ab == law.mul(dil_a, dil_b)

            m, n = rng.randrange(-4, 5), rng.randrange(-4, 5)
            assert law.pow(a, m + n) == law.mul(law.pow(a, m), law.pow(a, n))
            assert law.comm(a, b) == law.mul(
                law.mul(law.inv(a), law.inv(b)), ab)

    for name in ("heisenberg3", "engel4"):
        grp = get_group(name)
        law = grp.law_group
        oracle = MODELS[name]
        rng = random.Random(99)
        for _ in range(1000):
            a = _rand_vec(rng, grp.dim)
            b = _rand_vec(rng, grp.dim)
            assert law.mul(a, b) == tuple(oracle(a, b))

    elapsed = time.perf_counter() - start
    in_budget = elapsed <= 10.0
    detail = "within 10s" if in_budget else "over 10s budget"
    _verdict(1, "exact group laws, brackets, dilations, matrix oracles",
             in_budget, f"{detail} ({elapsed:.1f} s)")


def test_criterion_02_graded_limit_halving():
    spec = BUILTIN_ALGEBRAS["engel4_sheared"]
    grad = gradation(spec)
    rng = random.Random(17)
    checked = 0
    worst_lo, worst_hi = Fraction(1), Fraction(0)
    for _ in range(200):
        if checked == 100:
            break
        v = _rand_vec(rng, 4)
        w = _rand_vec(rng, 4)
        limit = graded_bracket(grad, v, w)

        def defect(t):
            bt = bracket_t(spec, grad, v, w, Fraction(t))
            return max(abs(x - y) for x, y in zip(bt, limit))

        prev = defect(2)
        if prev == 0:
            continue
        for k in range(2, 11):
            cur = defect(1 << k)
            ratio = cur / prev
            worst_lo = min(worst_lo, ratio)
            worst_hi = max(worst_hi, ratio)
            assert Fraction(3, 8) <= ratio <= Fraction(5, 8)
            prev = cur
        checked += 1
    _verdict(2, "dilated bracket defect halves as t doubles",
             checked == 100,
             f"ratios in [{float(worst_lo):.3f}, {float(worst_hi):.3f}]")


def test_criterion_03_heisenberg_geometry():
    lat = builtin_lattice("heisenberg3")
    g24 = guivarch_constants(lat, 24)
    g12 = guivarch_constants(lat, 12)
    bp = ball_profile(lat, 20)
    radii = list(range(10, 21))
    sizes = [bp.rows[r][1] for r in radii]
    third = [bp.rows[r][4] for r in radii]
    growth = fit_exponent(radii, sizes)
    central = fit_exponent(radii, third)

    def rel(a, b):
        return abs(a - b) / max(a, b)

    stable = (
        rel(g12.c_low, g24.c_low) <= 0.25
        and rel(g12.c_high, g24.c_high) <= 0.25
        and g12.com_ratio is not None
        and g24.com_ratio is not None
        and rel(g12.com_ratio, g24.com_ratio) <= 0.25
    )
    ok = abs(growth - 4.0) <= 0.2 and abs(central - 2.0) <= 0.2 and stable
    _verdict(3, "ball growth, central growth, sandwich constants", ok,
             f"exp {growth:.3f}, central {central:.3f}, "
             f"com ratio {g24.com_ratio}")


def test_criterion_04_coupling_suite():
    # The whole block takes 4.4-6.0 s on a 2-core machine (Python 3.11),
    # with the exact lane on integer numerators from each call's input to
    # its return; 8.7-11.2 s while every exact map built Fractions that the
    # next one split again, and 32-38 s while the peel and the lattice
    # points were GroupLaw.pow/mul chains over Fractions.  The engel law is
    # the one expensive multiply, so it runs a reduced but still
    # four-digit batch.
    triple_counts = {name: 10_000 for name in ALL_COUPLINGS}
    triple_counts["engel-identity"] = 2_000

    for name in ALL_COUPLINGS:
        c = builtin_coupling(name)
        grp = c.ambient()
        law = grp.law_group
        rng = random.Random(32)

        def rand_gamma():
            digs = tuple(rng.randint(-3, 3) for _ in range(grp.dim))
            return digits_to_point(c.gamma_lattice, digs).coords

        for _ in range(triple_counts[name]):
            g1, g2 = rand_gamma(), rand_gamma()
            raw = tuple(
                Fraction(rng.randrange(0, 64), 64) for _ in range(grp.dim))
            x, _ = reduce_to_domain(c, raw)
            x2 = induced_action(c, g2, x.coords)
            lhs = alpha(c, law.mul(g1, g2), x.coords).coords
            rhs = law.mul(alpha(c, g1, x2.coords).coords,
                          alpha(c, g2, x.coords).coords)
            assert lhs == tuple(rhs)

        theta_inv = c.twist.inverse() if c.twist is not None else None
        leads = c.lambda_lattice.leads()
        for _ in range(200):
            g = rand_gamma()
            ldigs = tuple(rng.randint(-3, 3) for _ in range(grp.dim))
            lam = digits_to_point(c.lambda_lattice, ldigs)
            u = tuple(e * Fraction(rng.randrange(0, 256), 256) for e in leads)
            w = tuple(theta_inv.apply(u)) if theta_inv is not None else u
            assert lambda_action(c, lam, law.mul(g, w)) == tuple(
                law.mul(g, lambda_action(c, lam, w)))

    worst_ks = 0.0
    for name in ALL_COUPLINGS:
        c = builtin_coupling(name)
        grp = c.ambient()
        ck = coupling_kernels(c)
        xs = domain_samples(c, 100_000, 77)
        gen = tuple(float(v) for v in c.gamma_lattice.generators[0].coords)
        _, moved = ck.alpha_digits(gen, xs)
        fresh = domain_samples(c, 100_000, 78)
        for j in range(grp.dim):
            worst_ks = max(worst_ks, ks_statistic(moved[:, j], fresh[:, j]))
    assert worst_ks < 0.02

    for name in ("heisenberg-identity", "heisenberg-scale2"):
        c = builtin_coupling(name)
        grp = c.ambient()
        rng = random.Random(34)
        y_leads = c.gamma_lattice.leads()
        qualify = agree = 0
        for _ in range(300):
            digs = tuple(rng.randint(-1, 1) for _ in range(grp.dim))
            g = digits_to_point(c.gamma_lattice, digs)
            raw = tuple(
                Fraction(rng.randrange(0, 64), 64) for _ in range(grp.dim))
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
        assert qualify > 50 and agree == qualify

    _verdict(4, "cocycle identity, commutation, pushforward, inversion",
             True, f"max KS {worst_ks:.4f} at 1e5 samples")


def test_criterion_05_iterate_decay():
    c = builtin_coupling("heisenberg-identity")
    rep = iterate_diagnostics(c, (1, 1, 0), (8, 16, 32, 64), 4096, 7)
    com = [r.median_com_over_n for r in rep.rows]
    scl = [r.median_scl_dist for r in rep.rows]
    ok = strictly_decreasing(com) and strictly_decreasing(scl)
    _verdict(5, "commutator-part and rescaled-distance medians decay", ok,
             f"com/n {com[0]:.3f}->{com[-1]:.3f}, "
             f"dist {scl[0]:.3f}->{scl[-1]:.3f}")


def _abelian_twist_prediction(c, gen):
    """Generator image implied directly by the declared twist matrix."""
    grp = c.ambient()
    ab = {i for i, d in enumerate(grp.degrees) if d == 1}
    if c.twist is None:
        img = tuple(Fraction(v) for v in gen.coords)
    else:
        img = c.twist.apply(gen.coords)
    return tuple(float(img[i]) if i in ab else 0.0 for i in range(grp.dim))


def test_criterion_06_generator_image_recovery():
    worst = 0.0
    for name in HEISENBERG_COUPLINGS:
        c = builtin_coupling(name)
        deriv = _phi(name)
        for k, gen in enumerate(generating_set(c.ambient())):
            expected = _abelian_twist_prediction(c, gen)
            got = deriv.table.entries[k]
            for e, g in zip(expected, got):
                tol = 0.05 * max(1.0, abs(e))
                worst = max(worst, abs(e - g))
                assert abs(e - g) <= tol, (name, k, expected, got)
    _verdict(6, "estimated generator images match the declared twists",
             True, f"worst entry error {worst:.2e}")


def test_criterion_07_rescaled_cocycle_convergence():
    grp = get_group("heisenberg3")
    law = grp.law_group
    e1 = (1.0, 0.0, 0.0)
    e2 = (0.0, 1.0, 0.0)
    e12 = tuple(float(v) for v in law.mul((1, 0, 0), (0, 1, 0)))
    finals = []
    for name in HEISENBERG_COUPLINGS:
        c = builtin_coupling(name)
        deriv = _phi(name)
        for g in (e1, e2, e12):
            rep = main_theorem_experiment(
                c, deriv, g, (8, 16, 32, 64), 0.2, 512, 101)
            fracs = [r.fraction_within_eps for r in rep.rows]
            assert nondecreasing(median3_smooth(fracs))
            assert fracs[-1] >= 0.9, (name, g, fracs)
            finals.append(fracs[-1])
        ctl = main_theorem_experiment(
            c, deriv, e1, (8, 16, 32, 64), 0.2, 512, 101,
            target=(2.5, -2.5, 0.0))
        assert ctl.rows[-1].fraction_within_eps <= 0.2, name
    _verdict(7, "nine generator runs converge, controls stay rejected",
             True, f"min final fraction {min(finals):.3f}")


def test_criterion_08_derivative_structure():
    grp = get_group("heisenberg3")
    phi = _phi("heisenberg-scale2")
    psi = _phi("heisenberg-scale2", side="beta")

    rng = random.Random(23)
    pairs = []
    while len(pairs) < 100:
        g = tuple(rng.uniform(-1, 1) for _ in range(3))
        h = tuple(rng.uniform(-1, 1) for _ in range(3))
        if (quasi_norm_m(grp.grad, g) <= 1.0
                and quasi_norm_m(grp.grad, h) <= 1.0):
            pairs.append((g, h))
    hom = homomorphism_check(phi, pairs)
    assert hom.ok and hom.count == 100

    grid = [
        (a / 2, b / 2, z / 4)
        for a in range(-2, 3)
        for b in range(-2, 3)
        for z in range(-4, 5)
        if quasi_norm_m(grp.grad, (a / 2, b / 2, z / 4)) <= 1.0
    ]
    inv = inverse_check(phi, psi, grid)
    assert inv.ok

    # phi against the product of the dilated generator images along the
    # ascending and the descending factorization word of each point
    gl = grp.law_graded
    worst_order = 0.0
    for g in grid:
        img = phi_apply(phi, g).coords
        for order in ("asc", "desc"):
            word = gl.identity()
            for idx, a in horizontal_factorization(grp, g, order=order).terms:
                word = gl.mul(word, tuple(a * v for v in phi.table.entries[idx]))
            diff = gl.mul(gl.inv(img), word)
            worst_order = max(worst_order, quasi_norm_m(grp.grad, diff))
    assert worst_order <= 0.05

    _verdict(8, "homomorphism, round-trip, and order defects in tolerance",
             True,
             f"hom {hom.max_defect:.2e}, inverse {inv.max_defect:.4f}, "
             f"order {worst_order:.2e}")


def test_criterion_09_sup_grid_convergence():
    c = builtin_coupling("heisenberg-identity")
    rep = kappa_grid(c, _phi("heisenberg-identity"), x_samples=64,
                     n_list=(8, 16, 32, 64), radius=2.0, grid_step=0.5,
                     seed=17, eps=0.3)
    ok = rep.threshold_ok() and rep.monotone_ok()
    _verdict(9, "sup-over-grid distance controlled on the radius-2 ball",
             ok, f"fractions {rep.fractions()}")


def test_criterion_10_recurrence():
    c = builtin_coupling("heisenberg-identity")
    rep = recurrence_search(c, (1.0, 0.0, 0.0), 0.3, ((0.0, 0.5),) * 3,
                            horizon=256, samples=200, seed=5)
    ok = rep.success_fraction >= 0.9
    _verdict(10, "cone-constrained return words found for most samples",
             ok, f"success {rep.success_fraction:.3f}, "
             f"max depth {max(rep.first_depths)}")


GOLDEN_COMMANDS = (
    ["experiment", "main-theorem", "--coupling", "heisenberg-identity",
     "--n", "8,16,32", "--samples", "256", "--g", "e1", "--eps", "0.2",
     "--phi-samples", "1024", "--seed", "4"],
    ["derivative", "kappa", "--coupling", "heisenberg-identity",
     "--samples", "16", "--phi-samples", "512", "--n", "8,16,32",
     "--radius", "1", "--grid-step", "1", "--eps", "0.3", "--seed", "17"],
    ["derivative", "recurrence", "--coupling", "heisenberg-identity",
     "--g", "e1", "--delta", "0.3", "--box", "0:0.5,0:0.5,0:0.5",
     "--horizon", "64", "--samples", "40", "--seed", "19"],
)


def test_criterion_11_reproducible_artifacts(tmp_path):
    compared = 0
    for i, cmd in enumerate(GOLDEN_COMMANDS):
        first = tmp_path / f"run{i}a"
        second = tmp_path / f"run{i}b"
        assert cli_main(cmd + ["--out", str(first)]) == 0
        assert cli_main(cmd + ["--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()
            compared += 1
    _verdict(11, "golden runs byte-identical across invocations",
             compared >= 5, f"{compared} artifacts compared")
