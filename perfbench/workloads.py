"""The four workloads: their inputs, set-up, operations and checks.

Each workload draws its inputs from the run seed when it is created,
builds its package fixtures in ``setup`` (called on a fresh import of
nilcone), runs a fixed list of operations per round in ``round`` and
checks the outputs against computations made apart from the program
(``oracles``) or against properties the paper states.  Package calls go
through module attributes (``nc.coupling.alpha``) so that the traced run
sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import resource
import warnings
from fractions import Fraction
from pathlib import Path

from . import oracles

# Degrees of the builtin groups the workloads use; inputs are drawn
# before the package is imported.
DEGREES = {
    "heisenberg3": (1, 1, 2),
    "heisenberg5": (1, 1, 1, 1, 2),
    "engel4": (1, 1, 2, 3),
    "free_nilpotent_2_3": (1, 1, 2, 3, 3),
    "abelian2": (1, 1),
}
COUPLING_GROUPS = {
    "heisenberg-identity": "heisenberg3",
    "heisenberg-scale2": "heisenberg3",
    "heisenberg-shear": "heisenberg3",
    "z2-identity": "abelian2",
    "engel-identity": "engel4",
}

GOLDEN_ARGV = ["experiment", "main-theorem", "--coupling", "heisenberg-identity",
               "--n", "8,16,32", "--samples", "256", "--g", "e1", "--eps", "0.2",
               "--phi-samples", "1024", "--seed", "4"]
GOLDEN_STEM = "main-theorem_heisenberg-identity_seed4"
GOLDEN_PREFIXES = {"csv": "154ff23cc18b1a31", "json": "bf4c5feac54e8213",
                   "svg": "7aa7c72733ecaaf3"}


class Checks:
    """Outcome of every correctness check of a run."""

    def __init__(self):
        self.passed = 0
        self.failed = 0
        self.failures: list[str] = []  # the first few, for the report

    def require(self, ok, what: str) -> None:
        if ok:
            self.passed += 1
            return
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


class Tally:
    """Work done and operations attempted in one round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rows = 0
        self.exact_checks = 0
        self.ball_states = 0
        self.cache_states = 0

    def op(self, label: str, fn) -> None:
        """Run one operation; an exception or a False result fails it."""
        self.attempted += 1
        try:
            ok = fn()
        except Exception as exc:  # an operation that raises is a failed one
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return
        if ok is False:
            self.failed += 1
            self.errors.append(f"{label}: silent mismatch")


def _cone_point(rng: random.Random, degrees) -> tuple[float, ...]:
    """A cone point with abelian part in [-1, 1] and the rest in [-1/2, 1/2]."""
    return tuple(round(rng.uniform(-1, 1) if d == 1 else rng.uniform(-0.5, 0.5), 3)
                 for d in degrees)


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def _ball_states(nc) -> int:
    return sum(len(c.dist) for c in nc.wordmetric._BALL_CACHES.values())


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


class Workload:
    name = ""
    groups: tuple[str, ...] = ()
    couplings: tuple[str, ...] = ()

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.seeds: dict[str, object] = {"run": seed}
        self.notes: dict[str, object] = {}  # observations for the manifest
        self.nc = None
        self.bytes_per_state = 0.0
        self.golden: dict[str, str] = {}

    def setup(self, nc) -> None:
        """Build the groups, couplings, lattices and kernel tables used."""
        self.nc = nc
        for g in self.groups:
            grp = nc.bch.get_group(g)
            nc.wordmetric.builtin_lattice(g)
            # fills the gadget-word cache of the factorization
            nc.geometry.horizontal_factorization(grp, (1.0,) * grp.dim)
        for c in self.couplings:
            nc.coupling.coupling_kernels(nc.coupling.builtin_coupling(c))

    def verify(self, checks: Checks) -> None:
        """Checks made once per run, outside the timed rounds."""

    def round(self, tally: Tally, checks: Checks) -> None:
        raise NotImplementedError

    # -------------------------------------------------- shared operations

    def _check_generator_images(self, checks, cp, deriv) -> None:
        """Generator images equal the twist's image of each generator."""
        grp = cp.ambient()
        d = grp.abelian_dim
        matrix = cp.twist.matrix if cp.twist is not None else None
        for idx, (entry, ci) in enumerate(zip(deriv.table.entries, deriv.table.cis)):
            j, sign = (idx, 1) if idx < d else (idx - d, -1)
            for i in range(d):
                col = matrix[i][j] if matrix is not None else int(i == j)
                want = sign * float(col)
                checks.require(abs(entry[i] - want) <= ci[i] + 1e-12,
                               f"{cp.name}: image of generator {idx} coord {i} "
                               f"{entry[i]} vs twist {want} (ci {ci[i]})")

    def _check_digits(self, tally, checks, cp, gamma_coords, x, label) -> None:
        """Batch cocycle digits agree with the exact lane on every row."""
        nc = self.nc
        digits, _ = nc.coupling.coupling_kernels(cp).alpha_digits(gamma_coords, x)
        for row, got in zip(x, digits):
            lam = nc.coupling.alpha(cp, gamma_coords, tuple(Fraction(v) for v in row))
            want = nc.wordmetric.point_digits(cp.lambda_lattice, lam.coords)
            checks.require(tuple(int(v) for v in got) == want,
                           f"{label}: batch digits {tuple(got)} vs exact {want}")
        tally.rows += len(x)
        tally.exact_checks += len(x)

    def _ball_op(self, tally, checks, group, radius, oracle_sizes, guivarch=True):
        """Cold ball profile (and Guivarc'h constants) of a builtin lattice."""
        nc = self.nc
        lat = nc.wordmetric.builtin_lattice(group)
        before = _ball_states(nc)
        rss0 = rss_bytes()
        prof = nc.wordmetric.ball_profile(lat, radius)
        grown = _ball_states(nc) - before
        if grown >= 10_000 and not self.bytes_per_state:
            self.bytes_per_state = (rss_bytes() - rss0) / grown
        tally.cache_states += grown
        tally.ball_states += grown
        sizes = prof.sizes()
        n = min(len(oracle_sizes), len(sizes))
        checks.require(sizes[:n] == list(oracle_sizes[:n]),
                       f"{group}: ball sizes {sizes[:n]} vs oracle {oracle_sizes[:n]}")
        tally.exact_checks += 1
        gc = nc.wordmetric.guivarch_constants(lat, radius) if guivarch else None
        if gc is not None:
            checks.require(0 < gc.c_low <= 1.0 + 1e-12 and 1.0 <= gc.c_high < math.inf,
                           f"{group}: Guivarc'h constants {gc}")
        return prof, gc


# ------------------------------------------------------------ main-theorem

class MainTheorem(Workload):
    """Rescaled cocycle against the derivative, through the batch kernels."""

    name = "main-theorem"
    groups = ("heisenberg3", "engel4")
    couplings = ("heisenberg-identity", "heisenberg-scale2", "heisenberg-shear",
                 "engel-identity")
    # engel4 gets one more depth: over 3,000 seeded cone points about 1%
    # are still below a 0.9 fraction at n = 256, none at n = 512
    n_lists = {"heisenberg3": (8, 16, 32, 64, 128, 256),
               "engel4": (8, 16, 32, 64, 128, 256, 512)}
    samples = 1 << 16
    phi_samples = 1 << 14
    control_samples = 1 << 12
    points_per_coupling = 2
    digit_rows = 8
    recurrence = dict(delta=0.3, horizon=32, samples=40, max_word_len=3)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        rng = random.Random(f"{self.name}/{seed}")
        self.cases = []
        for cp in self.couplings:
            for _ in range(self.points_per_coupling):
                g = _cone_point(rng, DEGREES[COUPLING_GROUPS[cp]])
                self.cases.append((cp, g, _seed(rng)))
        self.seeds["cases"] = [[cp, list(g), s] for cp, g, s in self.cases]
        # recurrence_search enumerates the radius-3 ball of the lattice
        r = self.recurrence["max_word_len"]
        self.perturbation_states = {
            "heisenberg3": oracles.heisenberg3_ball(r)[0][r],
            "engel4": oracles.model_ball_sizes(oracles.MODELS["engel4"], 2, r)[r],
        }

    def verify(self, checks):
        """The README golden run twice, byte for byte."""
        digests = []
        for rep in range(2):
            out = self.out_dir / f"golden{rep}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.nc.cli.main(GOLDEN_ARGV + ["--out", str(out)])
            checks.require(code == 0, f"golden run exit code {code}")
            digests.append({ext: hashlib.sha256(
                (out / f"{GOLDEN_STEM}.{ext}").read_bytes()).hexdigest()[:16]
                for ext in GOLDEN_PREFIXES})
        checks.require(digests[0] == digests[1],
                       f"golden artifacts differ between runs: {digests}")
        self.golden = digests[0]

    def round(self, tally, checks):
        for k, (cp_name, g, seed) in enumerate(self.cases):
            tally.op(f"{cp_name} g={g}",
                     lambda: self._op(tally, checks, k, cp_name, g, seed))

    def _op(self, tally, checks, k, cp_name, g, seed):
        nc = self.nc
        d = nc.derivative
        cp = nc.coupling.builtin_coupling(cp_name)
        grp = cp.ambient()
        deriv = d.build_phi(cp, self.phi_samples, seed)
        self._check_generator_images(checks, cp, deriv)
        n_list = self.n_lists[grp.name]
        rep = d.main_theorem_experiment(cp, deriv, g, n_list, 0.2,
                                        self.samples, seed)
        checks.require(rep.fractions()[-1] >= 0.9,
                       f"{cp_name} g={g}: fraction {rep.fractions()}")
        phi_g = d.phi_apply(deriv, g).coords
        control = (phi_g[0] + 1.0,) + tuple(phi_g[1:])
        ctl = d.main_theorem_experiment(cp, deriv, g, n_list[-1:], 0.2,
                                        self.control_samples, seed, target=control)
        checks.require(ctl.fractions()[-1] <= 0.2,
                       f"{cp_name} g={g}: control fraction {ctl.fractions()}")
        e1 = tuple(float(i == 0) for i in range(grp.dim))
        r = self.recurrence
        rec = d.recurrence_search(cp, e1, r["delta"], ((0.0, 0.5),) * grp.dim,
                                  r["horizon"], r["samples"], seed,
                                  max_word_len=r["max_word_len"])
        depths = rec.first_depths
        checks.require(
            len(depths) == r["samples"]
            and all(v == -1 or 1 <= v <= r["horizon"] for v in depths)
            and rec.success_fraction == sum(v > 0 for v in depths) / len(depths),
            f"{cp_name}: recurrence success {rec.success_fraction} "
            f"disagrees with first depths {depths}")
        tally.ball_states += self.perturbation_states[grp.name]
        header, rows = rep.csv_rows()
        stem = self.out_dir / "reports" / f"{cp_name}_{k}"
        written = [
            nc.reports.write_csv(f"{stem}.csv", header, rows),
            nc.reports.write_json(f"{stem}.json", rep.summary()),
            nc.reports.write_svg(f"{stem}.svg", [x.n for x in rep.rows],
                                 rep.fractions(), title="fraction within eps"),
        ]
        checks.require(all(p.stat().st_size > 0 for p in written),
                       f"{cp_name}: empty report")
        for i, n in enumerate(n_list):
            gam = d.gamma_sequence(grp.grad, cp.gamma_lattice, g, n)
            x = nc.coupling.domain_samples(cp, self.digit_rows, seed, 4, 9000 + i)
            self._check_digits(tally, checks, cp, gam.coords, x,
                               f"{cp_name} n={n}")
        tally.rows += (self.phi_samples * 2 * grp.abelian_dim
                       + self.samples * len(n_list) + self.control_samples)


# --------------------------------------------------------------- kappa-grid

def quasi_ball_grid_size(degrees, radius, step) -> int:
    """Grid points with coordinates in step*Z and quasi-norm <= radius."""
    axes = []
    for d in degrees:
        k = int(math.floor(radius ** d / step))
        axes.append([i * step for i in range(-k, k + 1)])
    count = 0

    def walk(i, best):
        nonlocal count
        if i == len(axes):
            count += 1
            return
        for v in axes[i]:
            q = abs(v) ** (1.0 / degrees[i])
            if max(best, q) <= radius + 1e-12:
                walk(i + 1, max(best, q))
    walk(0, 0.0)
    return count


class KappaGrid(Workload):
    """Sup over a grid of the rescaled cocycle, through float phi_apply."""

    name = "kappa-grid"
    groups = ("heisenberg3", "engel4")
    couplings = ("engel-identity", "heisenberg-identity")
    phi_samples = 1 << 14
    # (coupling, x samples, depths, radius, grid step); the heisenberg
    # entry is the CLI default of `nilcone derivative kappa`.
    grids = (
        ("engel-identity", 16, (8, 16, 32, 64, 128), 1.5, 0.5),
        ("heisenberg-identity", 200, (8, 16, 32, 64), 2.0, 0.5),
    )
    phi_points = 32
    digit_pairs = 4
    ball_radius = 6

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        rng = random.Random(f"{self.name}/{seed}")
        self.cases = []
        for cp, xs, ns, radius, step in self.grids:
            degrees = DEGREES[COUPLING_GROUPS[cp]]
            size = quasi_ball_grid_size(degrees, radius, step)
            probes = []
            while len(probes) < self.phi_points:
                p = tuple(rng.randint(-int(radius ** d / step), int(radius ** d / step))
                          * step for d in degrees)
                if max(abs(v) ** (1.0 / d) for v, d in zip(p, degrees)) <= radius:
                    probes.append(p)
            self.cases.append((cp, xs, ns, radius, step, _seed(rng), size, probes))
        self.seeds["kappa"] = [c[5] for c in self.cases]
        self.ball_sizes = oracles.heisenberg3_ball(self.ball_radius)[0]

    def round(self, tally, checks):
        for cp, xs, ns, radius, step, seed, size, probes in self.cases:
            tally.op(f"kappa {cp}", lambda: self._op(
                tally, checks, cp, xs, ns, radius, step, seed, size, probes))
        # Word-metric scale of the quasi-norm proxy that kappa measures in.
        tally.op("guivarch heisenberg3", lambda: self._ball_op(
            tally, checks, "heisenberg3", self.ball_radius, self.ball_sizes))

    def _op(self, tally, checks, cp_name, xs, ns, radius, step, seed, size, probes):
        nc = self.nc
        d = nc.derivative
        cp = nc.coupling.builtin_coupling(cp_name)
        grp = cp.ambient()
        deriv = d.build_phi(cp, self.phi_samples, seed)
        self._check_generator_images(checks, cp, deriv)
        rep = d.kappa_grid(cp, deriv, xs, ns, radius, step, seed, eps=0.3)
        med = [r.median_proxy_dist for r in rep.rows]
        checks.require(med[-1] < med[0], f"{cp_name}: median sup {med} does not fall")
        checks.require(rep.grid_size == size,
                       f"{cp_name}: grid size {rep.grid_size} vs {size}")
        for p in probes:
            img = d.phi_apply(deriv, p).coords
            checks.require(max(abs(a - b) for a, b in zip(img, p)) <= 1e-9,
                           f"{cp_name}: phi({p}) = {img}, not the identity")
        # Cocycles at lattice roundings of dilated grid points, batch vs exact.
        x = nc.coupling.domain_samples(cp, self.digit_pairs, seed, 4, 9100)
        for n in ns:
            for p in probes[:1]:
                dil = tuple(Fraction(v) * n ** deg for v, deg in zip(p, grp.degrees))
                j = nc.wordmetric.round_to_lattice(cp.gamma_lattice, dil)
                self._check_digits(tally, checks, cp, j.coords, x,
                                   f"{cp_name} n={n} g={p}")
        tally.rows += (self.phi_samples * 2 * grp.abelian_dim
                       + xs * rep.grid_size * len(ns))


# ------------------------------------------------------------ exact-cocycle

class ExactCocycle(Workload):
    """Rational cocycle identities and group laws in the Fraction lane."""

    name = "exact-cocycle"
    groups = ("heisenberg3", "heisenberg5", "engel4", "free_nilpotent_2_3",
              "abelian2")
    couplings = tuple(COUPLING_GROUPS)
    triples = 120
    pairs = 60
    balls = {"heisenberg3": 6, "engel4": 4}
    # Deep cross-lane probes: fixed inputs, independent of the run seed.
    probe_coupling = "engel-identity"
    probe_point = (1.0, 0.5, 0.25, 0.125)
    probe_depths = (1 << 20, 1 << 24)
    probe_rows = 100
    probe_seed = 20150908

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        rng = random.Random(f"{self.name}/{seed}")
        self.triple_inputs = {}
        for cp in self.couplings:
            m = len(DEGREES[COUPLING_GROUPS[cp]])
            self.triple_inputs[cp] = [
                (tuple(rng.randint(-3, 3) for _ in range(m)),
                 tuple(rng.randint(-3, 3) for _ in range(m)),
                 tuple(Fraction(rng.randrange(256), 256) for _ in range(m)))
                for _ in range(self.triples)]
        self.pair_inputs = {}
        for g in ("heisenberg3", "heisenberg5", "engel4", "free_nilpotent_2_3"):
            m = len(DEGREES[g])
            self.pair_inputs[g] = [
                tuple(tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 6))
                            for _ in range(m)) for _ in range(3))
                for _ in range(self.pairs)]
        self.ball_sizes = {
            "heisenberg3": oracles.heisenberg3_ball(self.balls["heisenberg3"])[0],
            "engel4": oracles.model_ball_sizes(oracles.MODELS["engel4"], 2,
                                               self.balls["engel4"]),
        }

    def round(self, tally, checks):
        for cp in self.couplings:
            tally.op(f"cocycle {cp}", lambda: self._cocycle_op(tally, checks, cp))
        for g, inputs in self.pair_inputs.items():
            tally.op(f"group law {g}", lambda: self._law_op(tally, checks, g, inputs))
        for g, r in self.balls.items():
            tally.op(f"ball {g}", lambda: self._ball_op(
                tally, checks, g, r, self.ball_sizes[g], guivarch=False))
        for n in self.probe_depths:
            tally.op(f"deep probe n=2^{n.bit_length() - 1}",
                     lambda: self._probe(tally, n))

    def _cocycle_op(self, tally, checks, cp_name):
        """alpha(g1 g2, x) = alpha(g1, g2.x) alpha(g2, x), exactly."""
        nc = self.nc
        c = nc.coupling
        cp = c.builtin_coupling(cp_name)
        law = cp.ambient().law_group
        lat = cp.gamma_lattice
        inverse = cp.twist.inverse() if cp.twist is not None else None
        for d1, d2, u in self.triple_inputs[cp_name]:
            g1 = nc.wordmetric.digits_to_point(lat, d1)
            g2 = nc.wordmetric.digits_to_point(lat, d2)
            x = inverse.apply(u) if inverse is not None else u
            x2 = c.induced_action(cp, g2, x)
            lhs = c.alpha(cp, law.mul(g1.coords, g2.coords), x)
            rhs = law.mul(c.alpha(cp, g1, x2).coords, c.alpha(cp, g2, x).coords)
            checks.require(lhs.coords == rhs, f"{cp_name}: cocycle identity at "
                           f"{d1}, {d2}, {u}")
            checks.require(c.in_domain(cp, x2.coords),
                           f"{cp_name}: induced point {x2.coords} outside domain")
        tally.exact_checks += 2 * len(self.triple_inputs[cp_name])

    def _law_op(self, tally, checks, group, inputs):
        """Products against a matrix model; axioms where there is none."""
        law = self.nc.bch.get_group(group).law_group
        model = oracles.MODELS.get(group)
        zero = law.identity()
        for a, b, c in inputs:
            ab = law.mul(a, b)
            if model is not None:
                checks.require(ab == model.mul(a, b),
                               f"{group}: product {a} * {b} disagrees with matrices")
            else:
                checks.require(law.mul(ab, c) == law.mul(a, law.mul(b, c)),
                               f"{group}: associativity at {a}, {b}, {c}")
            checks.require(law.mul(a, law.inv(a)) == zero,
                           f"{group}: inverse at {a}")
            checks.require(law.mul(law.pow(a, 2), law.pow(a, 3)) == law.pow(a, 5),
                           f"{group}: one-parameter subgroup at {a}")
        tally.exact_checks += 3 * len(inputs)

    def _probe(self, tally, n):
        """Batch digits at depth n against the exact lane; refusal passes."""
        nc = self.nc
        cp = nc.coupling.builtin_coupling(self.probe_coupling)
        grp = cp.ambient()
        gam = nc.derivative.gamma_sequence(grp.grad, cp.gamma_lattice,
                                           self.probe_point, n)
        x = nc.coupling.domain_samples(cp, self.probe_rows, self.probe_seed, 4, 1)
        tally.rows += self.probe_rows
        try:
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                digits, _ = nc.coupling.coupling_kernels(cp).alpha_digits(gam.coords, x)
        except Exception as exc:  # an explicit refusal is the wanted behaviour
            self.notes[f"probe n={n}"] = f"refused: {type(exc).__name__}: {exc}"
            return True
        agree = 0
        for row, got in zip(x, digits):
            lam = nc.coupling.alpha(cp, gam.coords, tuple(Fraction(v) for v in row))
            agree += tuple(int(v) for v in got) == nc.wordmetric.point_digits(
                cp.lambda_lattice, lam.coords)
        tally.exact_checks += len(x)
        self.notes[f"probe n={n}"] = (f"{len(x) - agree} of {len(x)} rows disagree, "
                                      f"{len(seen)} warnings")
        return agree == len(x)


# ---------------------------------------------------------------- word-ball

class WordBall(Workload):
    """Cold Cayley balls, Guivarc'h constants and the word-norm proxy."""

    name = "word-ball"
    groups = ("heisenberg3", "engel4", "heisenberg5")
    couplings = ("heisenberg-identity",)
    radii = {"heisenberg3": 18, "engel4": 8, "heisenberg5": 6}
    norm_checks = 64
    integrability_samples = 4096

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        rng = random.Random(f"{self.name}/{seed}")
        sizes, zmax, dist = oracles.heisenberg3_ball(self.radii["heisenberg3"])
        self.h3_sizes, self.h3_zmax = sizes, zmax
        states = sorted(dist)
        self.h3_sample = [(s, dist[s]) for s in rng.sample(states, self.norm_checks)]
        del dist, states
        self.other_sizes = {
            "engel4": oracles.model_ball_sizes(oracles.MODELS["engel4"], 2, 3),
            "heisenberg5": oracles.heisenberg5_ball_sizes(self.radii["heisenberg5"]),
        }
        self.integrability_seed = _seed(rng)
        self.seeds["integrability"] = self.integrability_seed
        self.seeds["norm_sample"] = [list(s) for s, _ in self.h3_sample[:4]]

    def round(self, tally, checks):
        tally.op("ball heisenberg3", lambda: self._heisenberg3(tally, checks))
        for g in ("engel4", "heisenberg5"):
            tally.op(f"ball {g}", lambda: self._ball_op(
                tally, checks, g, self.radii[g], self.other_sizes[g]))
        tally.op("integrability", lambda: self._integrability(tally, checks))

    def _heisenberg3(self, tally, checks):
        nc = self.nc
        radius = self.radii["heisenberg3"]
        prof, _ = self._ball_op(tally, checks, "heisenberg3", radius, self.h3_sizes)
        rs = list(range(radius // 2, radius + 1))
        growth = oracles.loglog_slope(rs, [prof.sizes()[r] for r in rs])
        central = oracles.loglog_slope(rs, [prof.rows[r][4] for r in rs])
        checks.require(abs(growth - 4) <= 0.2, f"heisenberg3 growth exponent {growth}")
        checks.require(abs(central - 2) <= 0.2, f"heisenberg3 central exponent {central}")
        checks.require([row[4] for row in prof.rows] == self.h3_zmax,
                       "heisenberg3 central maxima disagree with the oracle")
        lat = nc.wordmetric.builtin_lattice("heisenberg3")
        for state, want in self.h3_sample:
            got = nc.wordmetric.word_norm_bfs(lat, oracles.heisenberg3_exp_coords(state))
            checks.require(got == want, f"word norm of {state}: {got} vs {want}")
        tally.exact_checks += 3 + len(self.h3_sample)

    def _integrability(self, tally, checks):
        """Word-norm proxy of alpha(s, .) for the four generators."""
        nc = self.nc
        cp = nc.coupling.builtin_coupling("heisenberg-identity")
        grp = cp.ambient()
        for s in nc.geometry.generating_set(grp):
            rep = nc.coupling.integrability_estimate(
                cp, s, self.integrability_samples, self.integrability_seed)
            checks.require(1.0 <= rep.mean <= rep.max_norm and
                           rep.ci_low <= rep.mean <= rep.ci_high,
                           f"integrability of {s.coords}: {rep}")
            tally.rows += self.integrability_samples


WORKLOADS = {w.name: w for w in (MainTheorem, KappaGrid, ExactCocycle, WordBall)}
