"""Lattices: digit peeling, word metrics, ball growth, Guivarc'h ratios."""

import random
from fractions import Fraction

import pytest

from nilcone import (
    StructuralError,
    builtin_lattice,
    get_group,
    round_to_lattice,
    standard_lattice,
)
from nilcone.geometry import quasi_norm_m
from nilcone.wordmetric import (
    CapExceeded,
    ball_points,
    ball_profile,
    digits_to_point,
    guivarch_constants,
    left_peel,
    member,
    point_digits,
    right_peel,
    word_norm_bfs,
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
    digits, rem = left_peel(lat, (Fraction(3, 2), Fraction(1, 2), Fraction(3, 4)))
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
        d, rem = left_peel(lat, coords)
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


def test_word_norm_none_beyond_radius_cap():
    # The ball cache is shared per lattice structure and other tests
    # may have grown it; the probe point must sit beyond any radius
    # requested elsewhere in the suite for the cap to be observable.
    lat = builtin_lattice("heisenberg3")
    assert word_norm_bfs(lat, (30, 0, 0), radius_cap=5) is None


def test_ball_profile_matches_brute_force():
    lat = builtin_lattice("heisenberg3")
    bp = ball_profile(lat, 4)
    assert tuple(bp.sizes()) == brute_force_ball_sizes(lat, 4)
    assert bp.sizes() == [1, 5, 17, 53, 135]


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


def test_divisor_lattice_membership():
    lat = builtin_lattice("heisenberg3", divisors=(1, 1, 2))
    assert lat.leads() == (1, 1, 2)
    assert member(lat, (0, 0, 2))
    assert not member(lat, (0, 0, 1))
    out = round_to_lattice(lat, (0.3, 0.7, 2.6))
    assert member(lat, out.coords)
    digits = point_digits(lat, out.coords)
    assert digits == (0, 1, 1)


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


def test_state_cap_raises():
    lat = builtin_lattice("heisenberg5", divisors=(1, 1, 1, 1, 2))
    with pytest.raises(CapExceeded):
        ball_profile(lat, 4, state_cap=50)


def test_standard_lattice_validates_divisors():
    with pytest.raises(StructuralError):
        standard_lattice("heisenberg3", divisors=(1, 1))
    with pytest.raises(StructuralError):
        standard_lattice("heisenberg3", divisors=(1, 1, 0))
