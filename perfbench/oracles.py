"""Reference computations written apart from nilcone.

Nothing here imports the package.  Group products come from literal
products of unipotent matrices (exact ``Fraction`` exp and log), ball
sizes from a breadth-first search over integer matrix entries, and
growth exponents from a plain least-squares fit, so agreement with the
package is evidence, not a tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ------------------------------------------------------------ matrices


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(i, j + 1)) for j in range(n)]
            for i in range(n)]


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _exp_nilpotent(m):
    """exp of a strictly upper triangular matrix; the series stops at n."""
    n = len(m)
    out = _identity(n)
    term = _identity(n)
    for k in range(1, n):
        term = _mat_mul(term, m)
        inv_fact = Fraction(1, math.factorial(k))
        out = [[out[i][j] + inv_fact * term[i][j] for j in range(n)]
               for i in range(n)]
    return out


def _log_unitriangular(g):
    """log of a unitriangular matrix; the Mercator series stops at n."""
    n = len(g)
    delta = [[g[i][j] - int(i == j) for j in range(n)] for i in range(n)]
    out = [[Fraction(0)] * n for _ in range(n)]
    term = _identity(n)
    for k in range(1, n):
        term = _mat_mul(term, delta)
        c = Fraction((-1) ** (k + 1), k)
        out = [[out[i][j] + c * term[i][j] for j in range(n)] for i in range(n)]
    return out


class MatrixModel:
    """A faithful nilpotent matrix representation of one builtin algebra.

    ``basis[k]`` lists the (row, column, coefficient) entries of the
    matrix of X_{k+1}; ``readback[k]`` lists the (row, column, sign)
    entries whose signed sum recovers coordinate k from a logarithm.
    Every other entry of a logarithm must vanish or repeat a
    coordinate, which ``coords`` checks.
    """

    def __init__(self, name, size, basis, readback):
        self.name = name
        self.size = size
        self.basis = basis
        self.readback = readback

    def log_matrix(self, coords):
        m = [[Fraction(0)] * self.size for _ in range(self.size)]
        for x, entries in zip(coords, self.basis):
            for i, j, c in entries:
                m[i][j] += c * Fraction(x)
        return m

    def coords(self, log):
        out = tuple(sum((s * log[i][j] for i, j, s in entries), Fraction(0))
                    for entries in self.readback)
        if self.log_matrix(out) != log:
            raise ArithmeticError(f"{self.name}: product left the model's span")
        return out

    def mul(self, a, b):
        """log(exp(a) exp(b)) in the algebra's coordinates, exact."""
        prod = _mat_mul(_exp_nilpotent(self.log_matrix(a)),
                        _exp_nilpotent(self.log_matrix(b)))
        return self.coords(_log_unitriangular(prod))


MODELS = {
    # [X1, X2] = X3 with X1 = E12, X2 = E23, X3 = E13.
    "heisenberg3": MatrixModel(
        "heisenberg3", 3,
        basis=[[(0, 1, 1)], [(1, 2, 1)], [(0, 2, 1)]],
        readback=[[(0, 1, 1)], [(1, 2, 1)], [(0, 2, 1)]],
    ),
    # [X1, X2] = X5, [X3, X4] = X5 with X1 = E12, X2 = E24, X3 = E13,
    # X4 = E34, X5 = E14.
    "heisenberg5": MatrixModel(
        "heisenberg5", 4,
        basis=[[(0, 1, 1)], [(1, 3, 1)], [(0, 2, 1)], [(2, 3, 1)], [(0, 3, 1)]],
        readback=[[(0, 1, 1)], [(1, 3, 1)], [(0, 2, 1)], [(2, 3, 1)], [(0, 3, 1)]],
    ),
    # [X1, X2] = X3, [X1, X3] = X4 with X1 = E12 + E23 + E34, X2 = E34,
    # X3 = E24, X4 = E14.
    "engel4": MatrixModel(
        "engel4", 4,
        basis=[[(0, 1, 1), (1, 2, 1), (2, 3, 1)], [(2, 3, 1)], [(1, 3, 1)],
               [(0, 3, 1)]],
        readback=[[(0, 1, 1)], [(2, 3, 1), (0, 1, -1)], [(1, 3, 1)], [(0, 3, 1)]],
    ),
}


# ------------------------------------------------------------- balls

def model_ball_sizes(model, gens, radius):
    """Cumulative Cayley-ball sizes of the lattice of exp(±X_1) .. exp(±X_gens).

    States are exponential coordinates; every product goes through the
    matrix model.
    """
    m = len(model.basis)
    steps = [tuple(Fraction(sign * (k == j)) for k in range(m))
             for j in range(gens) for sign in (1, -1)]
    start = (Fraction(0),) * m
    seen = {start}
    frontier = [start]
    sizes = [1]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for s in steps:
                h = model.mul(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
        sizes.append(len(seen))
    return sizes


def heisenberg3_ball(radius):
    """Cayley ball of the integer Heisenberg group, generators x^±1, y^±1.

    A state (a, b, c) is the matrix [[1, a, c], [0, 1, b], [0, 0, 1]];
    right multiplication by x^±1 adds ±1 to a, by y^±1 adds ±1 to b
    and ±a to c.  Returns the cumulative sizes by radius, the largest
    |z| by radius, where z = c - ab/2 is the exponential coordinate of
    the centre, and a dict from state to word length.
    """
    dist = {(0, 0, 0): 0}
    frontier = [(0, 0, 0)]
    sizes = [1]
    zmax = [0.0]
    for r in range(1, radius + 1):
        nxt = []
        for a, b, c in frontier:
            for s in ((a + 1, b, c), (a - 1, b, c), (a, b + 1, c + a),
                      (a, b - 1, c - a)):
                if s not in dist:
                    dist[s] = r
                    nxt.append(s)
        frontier = nxt
        sizes.append(len(dist))
        zmax.append(max([zmax[-1]] + [abs(c - a * b / 2) for a, b, c in nxt]))
    return sizes, zmax, dist


def heisenberg3_exp_coords(state):
    """Exponential coordinates of an integer Heisenberg state."""
    a, b, c = state
    return (Fraction(a), Fraction(b), Fraction(c) - Fraction(a * b, 2))


def heisenberg5_ball_sizes(radius):
    """Cumulative Cayley-ball sizes of the integer 5-dim Heisenberg group.

    States (a1, a2, a3, a4, c) are 4x4 unitriangular integer matrices
    with a1, a3, a2, a4, c in entries (0,1), (0,2), (1,3), (2,3), (0,3).
    Right multiplication by the four generators and their inverses
    shifts one a_k by ±1; the second and fourth also shift c by ±a1 and
    ±a3.
    """
    start = (0, 0, 0, 0, 0)
    seen = {start}
    frontier = [start]
    sizes = [1]
    for _ in range(radius):
        nxt = []
        for a1, a2, a3, a4, c in frontier:
            for s in ((a1 + 1, a2, a3, a4, c), (a1 - 1, a2, a3, a4, c),
                      (a1, a2 + 1, a3, a4, c + a1), (a1, a2 - 1, a3, a4, c - a1),
                      (a1, a2, a3 + 1, a4, c), (a1, a2, a3 - 1, a4, c),
                      (a1, a2, a3, a4 + 1, c + a3), (a1, a2, a3, a4 - 1, c - a3)):
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
        sizes.append(len(seen))
    return sizes


def loglog_slope(xs, ys):
    """Least-squares slope of log y against log x."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys)]
    mx = sum(p for p, _ in pts) / len(pts)
    my = sum(q for _, q in pts) / len(pts)
    num = sum((p - mx) * (q - my) for p, q in pts)
    return num / sum((p - mx) ** 2 for p, _ in pts)
