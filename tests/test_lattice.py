"""Lattices: digit peeling, word metrics, ball growth, Guivarc'h ratios."""

import hashlib
import itertools
import math
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcone import (
    StructuralError,
    builtin_lattice,
    get_group,
    round_to_lattice,
    wordmetric,
)
from nilcone.algebra import BUILTIN_ALGEBRAS
from nilcone.bch import GroupPoint
from nilcone.geometry import quasi_norm_m
from nilcone.wordmetric import (
    CapExceeded,
    LatticeSpec,
    _ball,
    ball_points,
    ball_profile,
    digit_quasi_norms,
    digits_to_point,
    guivarch_constants,
    peel,
    member,
    point_digits,
    right_peel,
    word_norm_bfs,
    word_norms,
)


def brute_force_ball_sizes(lat, radius):
    """Independent count: expand every generator word, dedupe on coords."""
    law = get_group(lat.group).law_group
    seen = {tuple(Fraction(0) for _ in range(lat.dim)): 0}
    layer = [tuple(Fraction(0) for _ in range(lat.dim))]
    sizes = [1]
    for r in range(1, radius + 1):
        nxt = []
        for g in layer:
            for s in lat.generators:
                h = law.mul(g, s.coords)
                if h not in seen:
                    seen[h] = r
                    nxt.append(h)
        layer = nxt
        sizes.append(sizes[-1] + len(nxt))
    return tuple(sizes)


def test_right_peel_frozen_example():
    lat = builtin_lattice("heisenberg3")
    digits, rem = right_peel(lat, (Fraction(3, 2), Fraction(1, 2), Fraction(3, 4)))
    assert digits == (1, 0, 1)
    assert rem == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert all(0 <= c < 1 for c in rem)


def test_left_peel_frozen_example():
    lat = builtin_lattice("heisenberg3")
    digits, rem = peel(lat, (Fraction(3, 2), Fraction(1, 2), Fraction(3, 4)), side="left")
    assert digits == (1, 0, 0)
    assert rem == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("name", ["heisenberg3", "engel4", "heisenberg5"])
def test_peel_reconstruction_identity(name):
    lat = builtin_lattice(name)
    grp = get_group(name)
    law = grp.law_group
    rng = random.Random(201)
    for _ in range(25):
        coords = tuple(
            Fraction(rng.randrange(-40, 41), 8) for _ in range(lat.dim)
        )
        d, rem = right_peel(lat, coords)
        back = rem
        for i in range(lat.dim - 1, -1, -1):
            back = law.mul(back, law.pow(lat.basis[i], d[i]))
        assert back == coords
        d, rem = peel(lat, coords, side="left")
        back = rem
        for i in range(lat.dim - 1, -1, -1):
            back = law.mul(law.pow(lat.basis[i], d[i]), back)
        assert back == coords


@pytest.mark.parametrize("name", ["heisenberg3", "engel4"])
def test_ball_points_radius_three(name):
    lat = builtin_lattice(name)
    pts = ball_points(lat, 3)
    assert len(pts) == 53
    assert len(set(pts)) == 53
    assert pts[0] == tuple(Fraction(0) for _ in range(lat.dim))
    assert all(word_norm_bfs(lat, p) <= 3 for p in pts)
    # a cache already grown further gives the same prefix
    assert len(ball_points(lat, 5)) > 53
    assert ball_points(lat, 3) == pts


def test_member_closed_under_products():
    lat = builtin_lattice("heisenberg3")
    law = get_group("heisenberg3").law_group
    rng = random.Random(202)
    for _ in range(30):
        digits = tuple(rng.randrange(-5, 6) for _ in range(3))
        g = digits_to_point(lat, digits)
        assert member(lat, g.coords)
        h = digits_to_point(lat, tuple(rng.randrange(-5, 6) for _ in range(3)))
        assert member(lat, law.mul(g.coords, h.coords))
        assert member(lat, law.inv(g.coords))
    assert not member(lat, (Fraction(1, 3), 0, 0))


def test_point_digits_round_trip():
    lat = builtin_lattice("engel4")
    rng = random.Random(203)
    for _ in range(20):
        digits = tuple(rng.randrange(-4, 5) for _ in range(4))
        g = digits_to_point(lat, digits)
        assert point_digits(lat, g.coords) == digits
    with pytest.raises(StructuralError):
        point_digits(lat, (Fraction(1, 2), 0, 0, 0))


def test_digits_to_point_orders_differ():
    lat = builtin_lattice("heisenberg3")
    law = get_group("heisenberg3").law_group
    digits = (2, 3, 1)
    desc = digits_to_point(lat, digits, order="desc")
    asc = digits_to_point(lat, digits, order="asc")
    x, y, z = lat.basis
    want_desc = law.mul(law.mul(law.pow(z, 1), law.pow(y, 3)), law.pow(x, 2))
    want_asc = law.mul(law.mul(law.pow(x, 2), law.pow(y, 3)), law.pow(z, 1))
    assert desc.coords == want_desc
    assert asc.coords == want_asc
    assert desc.coords != asc.coords


def test_word_norm_center_is_four():
    lat = builtin_lattice("heisenberg3")
    assert word_norm_bfs(lat, (0, 0, 1)) == 4
    assert word_norm_bfs(lat, (0, 0, 0)) == 0
    assert word_norm_bfs(lat, (1, 0, 0)) == 1
    with pytest.raises(StructuralError):
        word_norm_bfs(lat, (Fraction(1, 2), 0, 0))


def test_word_norm_none_beyond_radius_cap(monkeypatch):
    # The ball cache is shared per lattice structure and other tests
    # may have grown it; the probe point must sit beyond any radius
    # requested elsewhere in the suite for the cap to be observable.
    monkeypatch.setattr(wordmetric, "DEFAULT_RADIUS_CAP", 5)
    lat = builtin_lattice("heisenberg3")
    assert word_norm_bfs(lat, (30, 0, 0)) is None
    # digits past int64 are farther than any ball the digit lane holds
    assert word_norm_bfs(lat, (1 << 70, 0, 0)) is None


def test_ball_profile_matches_brute_force():
    lat = builtin_lattice("heisenberg3")
    bp = ball_profile(lat, 4)
    assert tuple(bp.sizes()) == brute_force_ball_sizes(lat, 4)
    assert bp.sizes() == [1, 5, 17, 53, 135]


def test_one_sided_generators_match_brute_force():
    # S != S^-1: the ball deduplicates against every layer, not the last two
    law = get_group("heisenberg3").law_group
    lat = builtin_lattice("heisenberg3")
    e1, e2 = lat.generators[0], lat.generators[2]
    back = GroupPoint(law.inv(law.mul(e1.coords, e2.coords)))
    lat = LatticeSpec(name="one-sided", group=lat.group, basis=lat.basis,
                      generators=(e1, e2, back))
    assert tuple(ball_profile(lat, 6).sizes()) == brute_force_ball_sizes(lat, 6)


def test_abelian_ball_closed_form():
    lat = builtin_lattice("abelian2")
    bp = ball_profile(lat, 8)
    assert bp.sizes() == [2 * n * n + 2 * n + 1 for n in range(9)]


def test_ball_profile_coordinate_maxima_monotone():
    lat = builtin_lattice("heisenberg3")
    bp = ball_profile(lat, 6)
    for i in range(2, len(bp.rows[0])):
        col = [row[i] for row in bp.rows]
        assert all(b >= a for a, b in zip(col, col[1:]))
    assert bp.rows[-1][2] == 6.0


def test_round_to_lattice_fixed_points_and_ties():
    lat = builtin_lattice("heisenberg3")
    g = digits_to_point(lat, (2, -1, 3))
    assert round_to_lattice(lat, g.coords).coords == g.coords
    assert round_to_lattice(lat, (0.5, 0.0, 0.0)).coords == (0, 0, 0)
    assert round_to_lattice(lat, (1.5, 0.0, 0.0)).coords == (2, 0, 0)


@pytest.mark.parametrize("name", ["heisenberg3", "engel4", "heisenberg5"])
def test_round_to_lattice_bounded_remainder(name):
    # The contract is a deterministic bounded remainder, not local
    # minimality; the right-difference g * res^{-1} is exactly the peel
    # remainder, whose digits sit in [-1/2, 1/2].
    lat = builtin_lattice(name)
    grp = get_group(name)
    law = grp.law_group
    bound = 0.5 ** (1.0 / grp.step) + 1e-9
    rng = random.Random(204)
    for _ in range(120):
        g = tuple(rng.uniform(-10, 10) for _ in range(grp.dim))
        res = round_to_lattice(lat, g)
        pf = tuple(float(c) for c in res.coords)
        assert quasi_norm_m(grp.grad, law.mul(g, law.inv(pf))) <= bound


def test_guivarch_constants_frozen_and_sandwich():
    lat = builtin_lattice("heisenberg3")
    gc = guivarch_constants(lat, 6)
    assert gc.c_low >= 1.0
    assert gc.c_high >= 2.0
    assert gc.com_ratio == 1.5
    grp = get_group("heisenberg3")
    for digits in ((1, 0, 0), (0, 0, 1), (2, 1, 0), (1, 1, 1)):
        g = digits_to_point(lat, digits)
        wn = word_norm_bfs(lat, g.coords)
        qn = quasi_norm_m(grp.grad, g.coords)
        assert qn <= gc.c_low * wn + 1e-12
        assert wn <= gc.c_high * (qn + 1.0) + 1e-12


def test_guivarch_stability_across_radii():
    lat = builtin_lattice("heisenberg3")
    a = guivarch_constants(lat, 5)
    b = guivarch_constants(lat, 7)
    assert abs(a.c_low - b.c_low) <= 0.5
    assert abs(a.c_high - b.c_high) <= 1.0


def test_state_cap_raises(monkeypatch):
    lat = builtin_lattice("heisenberg5")
    monkeypatch.setattr(wordmetric, "STATE_CAP", 50)
    with pytest.raises(CapExceeded, match="exceeds 50 states"):
        ball_profile(lat, 4)


def test_radius_below_the_first_layer_is_refused():
    lat = builtin_lattice("heisenberg3")
    with pytest.raises(StructuralError, match="radius"):
        ball_profile(lat, -3)
    with pytest.raises(StructuralError, match="radius"):
        guivarch_constants(lat, 0)
    assert ball_profile(lat, 0).rows == ((0, 1, 0.0, 0.0, 0.0),)


# --------------------------------------------------------- the digit lane

BUILTIN_NAMES = sorted(BUILTIN_ALGEBRAS)
PINS = json.loads((Path(__file__).parent / "ball_pins.json").read_text())


def _digit_rows(lat, count, seed, bound):
    rng = random.Random(seed)
    return np.array([[rng.randint(-bound, bound) for _ in range(lat.dim)]
                     for _ in range(count)], dtype=np.int64)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_generator_steps_are_integer_valued(name):
    # The step numerators are divisible by their denominators, so
    # c -> digits(c * s) stays integral on 400 digit rows up to 40.
    ball = _ball(builtin_lattice(name))
    rows = _digit_rows(ball.lat, 400, 211, bound=40)
    for step in ball.steps:
        nums = step.numerators(rows)
        assert not np.any(nums % np.array(step.dens))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(BUILTIN_NAMES),
       digits=st.lists(st.integers(-50, 50), min_size=5, max_size=5))
def test_digit_polynomials_match_the_exact_lane(name, digits):
    lat = builtin_lattice(name)
    law = get_group(name).law_group
    ball = _ball(lat)
    c = tuple(digits[:lat.dim])
    point = digits_to_point(lat, c).coords
    row = np.array([c], dtype=np.int64)
    nums = ball.exp.numerators(row)[0]
    assert tuple(Fraction(int(v), d) for v, d in zip(nums, ball.exp.dens)) == point
    for s, step in zip(lat.generators, ball.steps):
        got = step.numerators(row)[0] // np.array(step.dens)
        digits_cs, rem = right_peel(lat, law.mul(point, s.coords))
        assert all(v == 0 for v in rem)
        assert tuple(int(v) for v in got) == digits_cs


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_ball_outputs_match_pins(name):
    # Recorded from the rational breadth-first search the digit ball
    # replaced: profile rows, Guivarc'h constants and ball points at a
    # small radius, and the word norm of every digit row in {-1, 0, 1}^m.
    pin = PINS[name]
    lat = builtin_lattice(name)
    r = pin["radius"]
    rows = [[row[0], row[1]] + [v.hex() for v in row[2:]]
            for row in ball_profile(lat, r).rows]
    assert rows == pin["rows"]
    gc = guivarch_constants(lat, r)
    assert [gc.c_low.hex(), gc.c_high.hex(),
            None if gc.com_ratio is None else gc.com_ratio.hex()] == pin["guivarch"]
    pts = ball_points(lat, r)
    digest = hashlib.sha256(repr(
        [tuple((c.numerator, c.denominator) for c in p) for p in pts]).encode())
    assert [len(pts), digest.hexdigest()[:16]] == pin["points"]
    queries = itertools.product((-1, 0, 1), repeat=lat.dim)
    assert [word_norm_bfs(lat, digits_to_point(lat, q).coords)
            for q in queries] == pin["norms"]


@pytest.mark.parametrize("name", ["heisenberg3", "engel4"])
def test_digit_quasi_norms_match_quasi_norm_m(name):
    # the same bits as the Fraction coordinates give, also where numpy's
    # vectorised power would round differently
    lat = builtin_lattice(name)
    grad = get_group(name).grad
    rng = random.Random(213)
    rows = np.array([[rng.randint(-5, 5) if d == 1 else rng.randint(-10**6, 10**6)
                      for d in grad.degrees] for _ in range(2000)], dtype=np.int64)
    want = [quasi_norm_m(grad, digits_to_point(lat, r).coords) for r in rows.tolist()]
    assert digit_quasi_norms(lat, rows).tolist() == want


def test_word_norms_of_digit_rows_match_word_norm_bfs(monkeypatch):
    # every row is answered on its own: repeated rows, and a row past
    # radius 12, get in the batch what they get alone
    monkeypatch.setattr(wordmetric, "DEFAULT_RADIUS_CAP", 6)
    lat = builtin_lattice("engel4")
    some = _digit_rows(lat, 60, 212, bound=2)
    rows = np.concatenate([some, some[::-1], some[:5], [[0, 0, 0, 10**6]]])
    batch = word_norms(lat, rows, radius_cap=6)
    assert batch[-1] == -1
    for row, w in zip(rows.tolist(), batch.tolist()):
        one = word_norm_bfs(lat, digits_to_point(lat, row).coords)
        assert w == (-1 if one is None else one)
    assert digit_quasi_norms(lat, rows).tolist() == [
        digit_quasi_norms(lat, [row])[0] for row in rows.tolist()]


def test_digit_overflow_is_refused_not_wrapped():
    grp = get_group("heisenberg3")
    big = 1 << 40
    gens = tuple(GroupPoint(tuple(Fraction(v) for v in coords))
                 for coords in ((big, 0, 0), (-big, 0, 0), (0, 1, 0), (0, -1, 0)))
    lat = LatticeSpec(name="wide", group=grp.name,
                      basis=builtin_lattice("heisenberg3").basis, generators=gens)
    assert ball_profile(lat, 1).sizes() == [1, 5]
    # at radius 2 the digits span 2^42 x 5 x 2^41 values: no int64 row key
    with pytest.raises(CapExceeded, match="int64"):
        ball_profile(lat, 2)
    # the exp map's c1 * c2 term would reach 2^124
    with pytest.raises(CapExceeded, match="int64"):
        _ball(lat).exp.numerators(np.array([[1 << 62, 1 << 62, 0]]))


# ------------------------------------------------- the exact lane on integers

def _reference_peel(lat, coords, mode, side):
    """The Fraction peel the integer polynomials replaced: q_i read off the
    partly peeled point, then one law.pow and one law.mul per digit."""
    law = get_group(lat.group).law_group
    p = tuple(Fraction(c) for c in coords)
    digits, qs = [], []
    for i, lead in enumerate(lat.leads()):
        q = p[i] / lead
        c = math.floor(q) if mode == "floor" else round(q)  # round: half to even
        digits.append(c)
        qs.append(q)
        step = law.pow(lat.basis[i], -c)
        p = law.mul(p, step) if side == "right" else law.mul(step, p)
    return tuple(digits), p, qs


def _basis_product(lat, digits, order):
    law = get_group(lat.group).law_group
    idx = range(lat.dim) if order == "asc" else reversed(range(lat.dim))
    acc = law.identity()
    for i in idx:
        acc = law.mul(acc, law.pow(lat.basis[i], digits[i]))
    return acc


_rationals = st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 360))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(BUILTIN_NAMES), side=st.sampled_from(["right", "left"]),
       mode=st.sampled_from(["floor", "round"]),
       coords=st.lists(_rationals, min_size=5, max_size=5))
def test_integer_peel_reconstructs_and_lands_in_the_box(name, side, mode, coords):
    lat = builtin_lattice(name)
    law = get_group(name).law_group
    w = tuple(coords[:lat.dim])
    digits, rem = peel(lat, w, mode, side)
    want_digits, want_rem, _ = _reference_peel(lat, w, mode, side)
    assert digits == want_digits and rem == want_rem
    assert all(type(c) is int for c in digits)
    back = rem
    for i in reversed(range(lat.dim)):
        u = law.pow(lat.basis[i], digits[i])
        back = law.mul(back, u) if side == "right" else law.mul(u, back)
    assert back == w
    for r, lead in zip(rem, lat.leads()):
        assert (0 <= r < lead) if mode == "floor" else (-lead / 2 <= r <= lead / 2)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_digits_to_point_matches_basis_products_on_the_ball(name):
    lat = builtin_lattice(name)
    ball = _ball(lat)
    ball.grow(4)
    for row in np.concatenate(ball.layers[:5]).tolist():
        for order in ("asc", "desc"):
            assert digits_to_point(lat, row, order).coords == _basis_product(
                lat, row, order)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(BUILTIN_NAMES),
       digits=st.lists(st.integers(-20, 20), min_size=5, max_size=5),
       offset=st.lists(st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3])),
                       min_size=5, max_size=5))
def test_member_is_integrality_of_every_q(name, digits, offset):
    lat = builtin_lattice(name)
    law = get_group(name).law_group
    g = law.mul(_basis_product(lat, digits[:lat.dim], "desc"), tuple(offset[:lat.dim]))
    _, _, qs = _reference_peel(lat, g, "floor", "right")
    integral = all(q.denominator == 1 for q in qs)
    assert member(lat, g) == integral
    if integral:
        assert point_digits(lat, g) == tuple(int(q) for q in qs)
    else:
        with pytest.raises(StructuralError):
            point_digits(lat, g)


def test_non_triangular_basis_is_refused():
    grp = get_group("heisenberg3")
    basis = ((Fraction(1), Fraction(0), Fraction(0)),
             (Fraction(1), Fraction(1), Fraction(0)),
             (Fraction(0), Fraction(0), Fraction(1)))
    lat = LatticeSpec(name="skew", group=grp.name, basis=basis, generators=())
    with pytest.raises(StructuralError, match="triangular"):
        right_peel(lat, (0, 0, 0))
