"""Couplings of two lattices acting on the ambient group.

Omega is the group itself with Haar measure (Lebesgue in exponential
coordinates).  The first lattice acts by left multiplication, the
second by right multiplication through the inverse of an optional
automorphism twist: lam sends omega to omega * twist^{-1}(lam)^{-1}.
Reduction to the fundamental domain of the right action is exact digit
peeling after pushing forward through the twist; the left action's
domain is the plain Mal'cev box.

The exact layer runs on integers: the twist, the peel and the cocycle's
lattice point are ratlin.IntPolys tables (the twist a linear one), so
one reduction forms no GroupLaw product.  The float layer runs the same
polynomials on float64 columns (peel_batch, peel_coords), its twist a
float matrix around the peel; PrecisionLimit refuses a batch past the
peel's limit or the exp map's 2^53.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from . import ratlin
from .algebra import StructuralError, bracket
from .bch import GroupPoint, NilpotentGroup, coords_of, get_group
from .kernels import BLOCK_ROWS, Workspace, bch_batch, workspace
from .wordmetric import (
    LatticeSpec,
    builtin_lattice,
    digit_quasi_norms,
    digits_to_point,
    fraction_coords,
    guivarch_constants,
    member,
    peel_batch,
    peel_coords,
    peel_digits,
    right_peel,
    word_norms,
)


@dataclass(frozen=True)
class AutomorphismSpec:
    """A rational Lie algebra automorphism acting on log coordinates."""

    name: str
    matrix: tuple[tuple[Fraction, ...], ...]

    def apply(self, coords):
        return self._table.at(coords)

    @cached_property
    def _table(self) -> ratlin.IntPolys:
        return ratlin.IntPolys.linear(f"twist {self.name}", self.matrix)

    def inverse(self) -> "AutomorphismSpec":
        return self._inverse

    @cached_property
    def _inverse(self) -> "AutomorphismSpec":
        # computed once per spec: reduction and the lattice action use it
        # on every call
        return AutomorphismSpec(
            name=f"{self.name}-inverse", matrix=ratlin.mat_inv(self.matrix)
        )

    def float_matrix(self) -> np.ndarray:
        return np.array([[float(c) for c in row] for row in self.matrix],
                        dtype=np.float64)


def validate_automorphism(group: NilpotentGroup, auto: AutomorphismSpec,
                          lattice: LatticeSpec) -> None:
    """Check the bracket identity exactly, plus lattice compatibility."""
    m = group.dim
    if len(auto.matrix) != m or any(len(r) != m for r in auto.matrix):
        raise StructuralError("automorphism matrix has wrong shape")
    tensor = group.grad.adapted_tensor
    basis = ratlin.identity(m)
    for i in range(m):
        for j in range(i + 1, m):
            lhs = auto.apply(bracket(tensor, m, basis[i], basis[j]))
            rhs = bracket(tensor, m, auto.apply(basis[i]), auto.apply(basis[j]))
            if lhs != rhs:
                raise StructuralError(
                    f"matrix is not a Lie algebra automorphism at pair ({i},{j})"
                )
    ratlin.mat_inv(auto.matrix)  # raises if singular
    for g in lattice.generators:
        if not member(lattice, auto.apply(g.coords)):
            raise StructuralError(
                "automorphism does not preserve the lattice on generators"
            )


_BUILTIN_TWISTS: dict[str, tuple[tuple[int, ...], ...]] = {
    # column j is the image of the j-th coordinate direction
    "scale2": ((2, 0, 0), (0, 1, 0), (0, 0, 2)),
    "shear": ((1, 0, 0), (0, 1, 0), (1, 0, 1)),
}


def builtin_twist(name: str) -> AutomorphismSpec:
    if name not in _BUILTIN_TWISTS:
        raise StructuralError(f"unknown twist {name!r}")
    return AutomorphismSpec(name=name, matrix=tuple(
        tuple(Fraction(v) for v in row) for row in _BUILTIN_TWISTS[name]))


@dataclass(frozen=True)
class CouplingSpec:
    """Two lattice actions on the ambient group, with reduction data."""

    name: str
    group: str
    gamma_lattice: LatticeSpec
    lambda_lattice: LatticeSpec
    twist: AutomorphismSpec | None

    def ambient(self) -> NilpotentGroup:
        return get_group(self.group)


def make_coupling(group: str, twist: str | None = None,
                  name: str | None = None) -> CouplingSpec:
    """The coupling of a group's standard lattice with itself, twisted by
    the builtin twist of that name, if any."""
    grp = get_group(group)
    lat = builtin_lattice(grp.name)
    if twist is not None:
        twist = builtin_twist(twist)
        validate_automorphism(grp, twist, lat)
    label = name or (f"{grp.name}-{twist.name}" if twist else f"{grp.name}-identity")
    return CouplingSpec(
        name=label,
        group=grp.name,
        gamma_lattice=lat,
        lambda_lattice=lat,
        twist=twist,
    )


_BUILTIN_COUPLINGS = {
    "heisenberg-identity": ("heisenberg3", None),
    "heisenberg-scale2": ("heisenberg3", "scale2"),
    "heisenberg-shear": ("heisenberg3", "shear"),
    "z2-identity": ("abelian2", None),
    "engel-identity": ("engel4", None),
}

@cache
def builtin_coupling(name: str) -> CouplingSpec:
    if name not in _BUILTIN_COUPLINGS:
        raise StructuralError(
            f"unknown coupling {name!r}; known: {sorted(_BUILTIN_COUPLINGS)}"
        )
    group, twist = _BUILTIN_COUPLINGS[name]
    return make_coupling(group, twist, name=name)


def coupling_from_json(obj: dict) -> CouplingSpec:
    if not isinstance(obj, dict) or "group" not in obj:
        raise StructuralError("coupling JSON needs a 'group' field")
    domain = obj.get("domain", "malcev_box")
    if domain != "malcev_box":
        raise StructuralError(f"unknown domain convention {domain!r}")
    twist = obj.get("twist")
    if not (twist is None or isinstance(twist, str)):
        raise StructuralError(f"twist must be null or a twist name, got {twist!r}")
    return make_coupling(obj["group"], twist)


# ------------------------------------------------------------ exact layer

def _reduce(coupling: CouplingSpec, omega) -> tuple[tuple[int, ...], GroupPoint]:
    """Digits of the lattice element returning omega to the domain, and
    the domain point it lands on."""
    twist = coupling.twist
    coords = fraction_coords(omega)
    digits, u = right_peel(coupling.lambda_lattice,
                           twist.apply(coords) if twist is not None else coords)
    x = twist.inverse().apply(u) if twist is not None else u
    return digits, GroupPoint(tuple(x))


def reduce_to_domain(coupling: CouplingSpec, omega) -> tuple[GroupPoint, GroupPoint]:
    """Domain representative and the right-lattice element moving to it.

    Returns (x, lam) with omega = x * twist^{-1}(lam); equivalently the
    lam-action applied to omega lands on x in the domain.  Exact for
    rational input.
    """
    digits, x = _reduce(coupling, omega)
    return x, digits_to_point(coupling.lambda_lattice, digits)


def lambda_action(coupling: CouplingSpec, lam, omega) -> tuple:
    """Apply the right-lattice action of lam to a point (exact)."""
    law = coupling.ambient().law_group
    lam_coords = fraction_coords(lam)
    if coupling.twist is not None:
        lam_coords = coupling.twist.inverse().apply(lam_coords)
    return law.mul(fraction_coords(omega), law.inv(lam_coords))


def in_domain(coupling: CouplingSpec, coords) -> bool:
    c = fraction_coords(coords)
    w = coupling.twist.apply(c) if coupling.twist is not None else c
    leads = coupling.lambda_lattice.leads()
    return all(0 <= w[i] < leads[i] for i in range(len(w)))


def _moved(coupling: CouplingSpec, gamma, x) -> tuple:
    law = coupling.ambient().law_group
    return law.mul(fraction_coords(gamma), fraction_coords(x))


def alpha(coupling: CouplingSpec, gamma, x) -> GroupPoint:
    """The right-lattice element returning gamma * x to the domain.

    Only the digits of the peel are formed, not its remainder.
    """
    w = _moved(coupling, gamma, x)
    if coupling.twist is not None:
        w = coupling.twist.apply(w)
    lat = coupling.lambda_lattice
    return digits_to_point(lat, peel_digits(lat, w))


def induced_action(coupling: CouplingSpec, gamma, x) -> GroupPoint:
    """Domain representative of gamma * x."""
    return _reduce(coupling, _moved(coupling, gamma, x))[1]


def beta(coupling: CouplingSpec, lam, y) -> GroupPoint:
    """Mirror cocycle: the left-lattice element for the lam-action on y."""
    moved = lambda_action(coupling, lam, y)
    digits = peel_digits(coupling.gamma_lattice, moved, side="left")
    hat = digits_to_point(coupling.gamma_lattice, digits, order="asc")
    return GroupPoint(coupling.ambient().law_group.inv(hat.coords))


# ------------------------------------------------------------ float layer

class CouplingKernels:
    """Float batch evaluation of the cocycles for Monte Carlo work."""

    def __init__(self, coupling: CouplingSpec):
        self.table = coupling.ambient().law_group.table
        self.gamma_lattice = coupling.gamma_lattice
        self.lambda_lattice = coupling.lambda_lattice
        self.gamma_leads = coupling.gamma_lattice.float_basis()[1]
        self.lambda_logs, self.lambda_leads = coupling.lambda_lattice.float_basis()
        self.twisted = coupling.twist is not None
        if self.twisted:  # theta is read only for a twisted coupling
            self.theta = coupling.twist.float_matrix()
            self.theta_inv = coupling.twist.inverse().float_matrix()

    def reduce(self, omega: np.ndarray):
        """Batch reduce_to_domain: returns (digits, x), column-major.

        A batch past the float lane's precision limit raises PrecisionLimit.
        """
        w = (self.theta @ omega.T).T if self.twisted else omega
        digits, u = peel_batch(self.lambda_lattice, w)
        x = (self.theta_inv @ u.T).T if self.twisted else u
        return digits, x

    def alpha_digits(self, gamma_coords, x: np.ndarray):
        """Digits of alpha(gamma, x_i) and the induced-action images."""
        g = np.asarray([float(c) for c in gamma_coords], dtype=np.float64)
        return self.reduce(bch_batch(self.table, g[None], x))

    def alpha_coords(self, gamma: np.ndarray, x: np.ndarray, work: Workspace) -> np.ndarray:
        """Coordinates of alpha(gamma_i, x_i) for a (1, m) or an (n, m)
        gamma, column-major, without digits or induced-action images.  Every
        step writes into work (x may be work.a): the product into work.b,
        its twist into work.c and the peel as peel_coords does, the
        coordinates into work.a."""
        w = bch_batch(self.table, gamma, x, out=work.b, term=work.s)
        if self.twisted:
            w = np.matmul(self.theta, w.T, out=work.c.T).T
        return peel_coords(self.lambda_lattice, w, work=work)

    def beta_coords(self, lam: np.ndarray, y: np.ndarray, work: Workspace) -> np.ndarray:
        """Coordinates of beta(lam_i, y_i), column-major, for a (1, m) or an
        (n, m) lam: the inverse of the left peel's lattice point, written
        into work as alpha_coords writes (y may be work.a)."""
        if self.twisted:
            lam = lam @ self.theta_inv.T
        moved = bch_batch(self.table, y, -lam, out=work.b, term=work.s)
        coords = peel_coords(self.gamma_lattice, moved, side="left", work=work)
        return np.negative(coords, out=coords)


coupling_kernels = cache(CouplingKernels)  # CouplingSpec is frozen: keyed by content


# --------------------------------------------------------------- sampling

# The worker count shapes the sample stream, so every caller that draws
# samples defaults to this one value.
DEFAULT_WORKERS = 4


def seed_lineage(seed: int, *tags: int) -> np.random.SeedSequence:
    """Documented split rule: child = SeedSequence(seed, spawn_key=tags)."""
    return np.random.SeedSequence(int(seed), spawn_key=tuple(int(t) for t in tags))


def _sample_blocks(coupling: CouplingSpec, n: int, seed: int, workers: int, tags,
                   side: str, rows: int, buffers):
    """The stream of domain_samples in blocks of rows rows (the last one
    shorter), each a column-major (k, m) array x from buffers(k, m) = (x, u),
    u holding a twisted block before the twist.  Worker w's PCG64 stream
    is drawn in order, in pieces of at most BLOCK_ROWS rows, into the
    workspace's buffer c as a C-order array, and each column is scaled
    into the block.  The arguments are checked here, before any draw."""
    if n < 1:
        raise StructuralError("need at least one sample")
    if workers < 1:
        raise StructuralError("workers must be >= 1")
    ck = coupling_kernels(coupling)
    if side == "alpha":
        leads = ck.lambda_leads
    elif side == "beta":
        leads = ck.gamma_leads
    else:
        raise StructuralError(f"unknown cocycle side {side!r}")
    m = len(leads)
    twisted = side == "alpha" and ck.twisted
    base, rem = divmod(n, workers)
    # the first rem workers draw one more row
    streams = ((np.random.Generator(np.random.PCG64(seed_lineage(seed, *tags, w))),
                base + (w < rem)) for w in range(workers))

    def blocks():
        rng, left = next(streams)
        for start in range(0, n, rows):
            k = min(rows, n - start)
            x, u = buffers(k, m)
            box = u if twisted else x
            done = 0
            while done < k:
                while not left:
                    rng, left = next(streams)
                size = min(k - done, left, BLOCK_ROWS)
                draws = workspace(size, m).c.T.reshape(size, m)
                rng.random(out=draws)
                # the bits of rng.uniform(0, leads), which computes 0.0 + leads * U;
                # column by column, 5x faster than one multiply from C to F order
                for j, lead in enumerate(leads):
                    np.multiply(draws[:, j], lead, out=box[done:done + size, j])
                done += size
                left -= size
            if twisted:
                np.matmul(ck.theta_inv, u.T, out=x.T)
            yield x
    return blocks()


def domain_samples(coupling: CouplingSpec, n: int, seed: int,
                   workers: int = DEFAULT_WORKERS, *tags: int,
                   side: str = "alpha") -> np.ndarray:
    """Uniform samples of the fundamental domain of one lattice action.

    side "alpha" samples the right-action domain (the lambda box pulled
    back through the twist), side "beta" the left-action domain (the
    plain gamma box).  Per-worker streams come from the documented seed
    split; chunks are written in worker order, so output is a pure
    function of (seed, workers, tags).  Workers shape the stream only;
    execution is sequential.  All n rows are one block of the stream
    domain_blocks reads, in a fresh column-major array, the layout of the
    batch kernels.

    The package passes DEFAULT_WORKERS; workers stays positional because
    the benchmark passes 4 there, which would otherwise become a spawn tag.
    """
    return next(_sample_blocks(coupling, n, seed, workers, tags, side, n, lambda k, m: (
        np.empty((k, m), order="F"), np.empty((k, m), order="F"))))


def domain_blocks(coupling: CouplingSpec, n: int, seed: int, *tags: int):
    """The rows of domain_samples(coupling, n, seed, DEFAULT_WORKERS, *tags)
    in order, in blocks of BLOCK_ROWS rows (the last one shorter), with no
    n-row array: each block is buffer a of the shared kernels.workspace
    (b holds a twisted block before the twist), valid until the next
    block is drawn or a kernel writes there."""
    return _sample_blocks(coupling, n, seed, DEFAULT_WORKERS, tags, "alpha", BLOCK_ROWS,
                          lambda k, m: workspace(k, m)[:2])


# ------------------------------------------------------------ diagnostics

def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (no p-value needed)."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    ca = np.searchsorted(a, grid, side="right") / a.size
    cb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(ca - cb)))


@dataclass(frozen=True)
class IntegrabilityReport:
    generator: str
    mean: float
    ci_low: float
    ci_high: float
    max_norm: float
    samples: int
    seed: int

    @staticmethod
    def csv_rows(reports) -> tuple[list[str], list[list]]:
        """The integrability CSV: its header, then a row per report."""
        return (["generator", "mean_norm", "ci_low", "ci_high", "samples", "seed"],
                [[r.generator, r.mean, r.ci_low, r.ci_high, r.samples, r.seed]
                 for r in reports])


_EXACT_NORM_RADIUS = 12


def _word_norm_proxy(coupling: CouplingSpec, digit_rows: np.ndarray) -> np.ndarray:
    """Word norms of lattice points given by digit rows, with fallback.

    Uses the exact norm up to word length 12 and the quasi-norm scaled by
    the empirical Guivarc'h constant beyond it, also where a ball grown
    further by other queries knows the exact norm: the result depends
    only on the rows.
    """
    lat = coupling.lambda_lattice
    norms = word_norms(lat, digit_rows, radius_cap=_EXACT_NORM_RADIUS).astype(np.float64)
    far = (norms < 0) | (norms > _EXACT_NORM_RADIUS)
    if far.any():
        c_high = guivarch_constants(lat, 8).c_high
        norms[far] = c_high * (digit_quasi_norms(lat, digit_rows[far]) + 1.0)
    return norms


def integrability_estimate(coupling: CouplingSpec, s, samples: int, seed: int,
                           label: str | None = None) -> IntegrabilityReport:
    """Monte Carlo mean word norm of alpha(s, .) with a normal CI."""
    ck = coupling_kernels(coupling)
    x = domain_samples(coupling, samples, seed)
    coords = coords_of(s)
    digits, _ = ck.alpha_digits(coords, x)
    norms = _word_norm_proxy(coupling, digits)
    mean = float(norms.mean())
    sd = float(norms.std(ddof=1)) if samples > 1 else 0.0
    half = 1.96 * sd / np.sqrt(samples)
    return IntegrabilityReport(
        generator=label or ",".join(str(c) for c in coords),
        mean=mean, ci_low=mean - half, ci_high=mean + half,
        max_norm=float(norms.max()), samples=samples, seed=seed,
    )


@dataclass(frozen=True)
class CouplingVerification:
    coupling: str
    ok: bool
    checks: tuple[tuple[str, bool, str], ...]


def verify_coupling(coupling: CouplingSpec, samples: int, seed: int,
                    triple_count: int) -> CouplingVerification:
    """Structural checks: twist validity, commutation, cocycle identity,
    reconstruction, idempotency, and the beta-alpha inversion."""
    grp = coupling.ambient()
    law = grp.law_group
    rng = random.Random(seed)
    checks = []

    theta_inv = coupling.twist.inverse() if coupling.twist is not None else None
    leads = coupling.lambda_lattice.leads()

    def rand_x():
        u = tuple(e * Fraction(rng.randrange(0, 256), 256) for e in leads)
        return tuple(theta_inv.apply(u)) if theta_inv is not None else u

    def rand_point(scale=3, lat=coupling.gamma_lattice):
        digs = [rng.randint(-scale, scale) for _ in range(grp.dim)]
        return digits_to_point(lat, digs)

    if coupling.twist is not None:
        try:
            validate_automorphism(grp, coupling.twist, coupling.lambda_lattice)
            checks.append(("twist_automorphism", True, "exact"))
        except StructuralError as e:
            checks.append(("twist_automorphism", False, str(e)))
    else:
        checks.append(("twist_automorphism", True, "identity twist"))

    ok = True
    for _ in range(min(samples, 64)):
        g, l, w = rand_point(2).coords, rand_point(2, coupling.lambda_lattice), rand_x()
        lhs = lambda_action(coupling, l, law.mul(g, w))
        rhs = law.mul(g, lambda_action(coupling, l, w))
        if lhs != rhs:
            ok = False
            break
    checks.append(("actions_commute", ok, "exact on random pairs"))

    ok = True
    for _ in range(min(samples, 64)):
        w = tuple(Fraction(rng.randrange(-2048, 2048), 256) for _ in range(grp.dim))
        x, lam = reduce_to_domain(coupling, w)
        if lambda_action(coupling, lam, w) != x.coords:
            ok = False
            break
        if not in_domain(coupling, x.coords):
            ok = False
            break
        x2, lam2 = reduce_to_domain(coupling, x.coords)
        if x2.coords != x.coords or any(c != 0 for c in lam2.coords):
            ok = False
            break
    checks.append(("reduce_reconstruction_idempotent", ok, "exact"))

    ok = True
    for _ in range(triple_count):
        g1, g2, x = rand_point(), rand_point(), rand_x()
        x2 = induced_action(coupling, g2, x)
        lhs = alpha(coupling, law.mul(g1.coords, g2.coords), x)
        rhs = law.mul(alpha(coupling, g1, x2).coords, alpha(coupling, g2, x).coords)
        if lhs.coords != tuple(rhs):
            ok = False
            break
    checks.append(("cocycle_identity", ok, f"exact on {triple_count} triples"))

    qualify = 0
    agree = 0
    # y-side roles need both points inside the left-action box
    y_leads = coupling.gamma_lattice.leads()
    for _ in range(triple_count):
        g, x = rand_point(1), rand_x()
        x2 = induced_action(coupling, g, x)
        if not all(0 <= c < e for c, e in zip(x2.coords, y_leads)):
            continue
        if not all(0 <= c < e for c, e in zip(x, y_leads)):
            continue
        qualify += 1
        lam = alpha(coupling, g, x)
        if beta(coupling, lam, x).coords == g.coords:
            agree += 1
    checks.append(("beta_inverts_alpha", agree == qualify,
                   f"{agree}/{qualify} qualifying"))

    return CouplingVerification(
        coupling=coupling.name,
        ok=all(c[1] for c in checks),
        checks=tuple(checks),
    )
