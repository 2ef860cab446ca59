"""Averaged abelianization, iterate asymptotics, and the derivative map.

The pipeline: estimate the mean abelianized cocycle on the horizontal
generators, extend it to the whole graded group as the graded
Lie-algebra map those images fix (the derivative map, linear in
exponential coordinates), then run the convergence experiments that
probe the scaled cocycle against that map.  Every lattice approximant
of a cone point g at depth n is the Mal'cev rounding of delta_n g.

Convergence in measure has no finite-sample certificate, so "with high
probability" is operationalized as a threshold on the acceptance
fraction at the largest depth plus a monotone trend after median-of-3
smoothing; the proxy metric is always the quasi-norm of the graded
difference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

from .algebra import StructuralError, bracket
from .bch import GroupPoint, NilpotentGroup, get_group
from .coupling import (
    DEFAULT_WORKERS,
    CouplingKernels,
    CouplingSpec,
    _check_precision,
    coupling_kernels,
    domain_samples,
    seed_lineage,
)
from .geometry import generating_set, quasi_norm_m
from .kernels import bch_batch, dilate_batch, law_table, quasi_norm_batch
from .ratlin import identity, spanning_inverse
from .wordmetric import PrecisionLimit, ball_points, digits_to_point, peel_coords
from .wordmetric import round_to_lattice

# spawn-key tags keeping the per-operation sample streams disjoint; they
# seed those streams, so a tag's value never changes
_TAG_MEAN_AB = 0
_TAG_ITERATES = 1
_TAG_MAIN = 2
_TAG_KAPPA = 3
_TAG_RECUR = 4
_TAG_WORD = 6

# Rows per float-lane block in _scaled_dist and kappa_grid: 2^14 float64 rows
# are 128 KiB per coordinate column, which stays in L2 through every kernel.
_BLOCK_ROWS = 1 << 14


def median3_smooth(values):
    """Median-of-3 smoothing with clamped ends."""
    v = list(values)
    if len(v) < 3:
        return v
    out = [v[0]]
    for i in range(1, len(v) - 1):
        out.append(sorted(v[i - 1:i + 2])[1])
    out.append(v[-1])
    return out


def nondecreasing(values, tol: float = 1e-9) -> bool:
    v = list(values)
    return all(b >= a - tol for a, b in zip(v, v[1:]))


def strictly_decreasing(values) -> bool:
    v = list(values)
    return all(b < a for a, b in zip(v, v[1:]))


def _coords_of(g) -> tuple:
    return g.coords if isinstance(g, GroupPoint) else tuple(g)


def _float_coords(g) -> np.ndarray:
    return np.asarray([float(c) for c in _coords_of(g)], dtype=np.float64)


def _abelian_indices(grp: NilpotentGroup) -> list[int]:
    return [i for i, d in enumerate(grp.degrees) if d == 1]


def _graded_dist(grp: NilpotentGroup, points: np.ndarray,
                 target: np.ndarray) -> np.ndarray:
    """Proxy distances from each row to its target row, or to one target
    point, in the graded group."""
    diff = bch_batch(law_table(grp.law_graded), -points, np.atleast_2d(target))
    return quasi_norm_batch(grp.degrees, diff)


# ------------------------------------------------------- mean abelianization

@dataclass(frozen=True)
class MeanAbelianization:
    """Monte Carlo estimate of the averaged abelianized cocycle."""

    vector: tuple[float, ...]
    ci: tuple[float, ...]
    samples: int
    seed: int


def _abelian_mean_ci(ck: CouplingKernels, grp: NilpotentGroup, gamma_coords,
                     x: np.ndarray, side: str
                     ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Sample mean and 95% normal half-width of the abelian cocycle coords
    (side "alpha" or "beta", checked where x was drawn)."""
    samples = x.shape[0]
    g = _float_coords(gamma_coords)[None]
    lam = ck.alpha_coords(g, x) if side == "alpha" else ck.beta_coords(g, x)
    vec = [0.0] * grp.dim
    ci = [0.0] * grp.dim
    for i in _abelian_indices(grp):
        col = lam[:, i]
        vec[i] = float(col.mean())
        sd = float(col.std(ddof=1)) if samples > 1 else 0.0
        ci[i] = 1.96 * sd / math.sqrt(samples)
    return tuple(vec), tuple(ci)


def mean_abelianization(coupling: CouplingSpec, gamma, samples: int, seed: int,
                        workers: int = DEFAULT_WORKERS,
                        side: str = "alpha") -> MeanAbelianization:
    """Average of the abelian coordinates of the cocycle at gamma."""
    if samples < 1:
        raise StructuralError("samples must be >= 1")
    x = domain_samples(coupling, samples, seed, workers, _TAG_MEAN_AB, side=side)
    vec, ci = _abelian_mean_ci(coupling_kernels(coupling), coupling.ambient(),
                               _coords_of(gamma), x, side)
    return MeanAbelianization(vector=vec, ci=ci, samples=samples, seed=seed)


# ------------------------------------------------------------ derivative map

@dataclass(frozen=True)
class GeneratorImageTable:
    """Estimated abelianized images of the 2d horizontal generators."""

    coupling: str
    side: str
    entries: tuple[tuple[float, ...], ...]
    cis: tuple[tuple[float, ...], ...]
    samples: int
    seed: int


@dataclass(frozen=True)
class PansuDerivative:
    """The derivative map assembled from generator images.

    A graded group homomorphism is linear in exponential coordinates:
    ``linear`` is the graded Lie-algebra map whose degree-one block is
    the symmetrized images (img(s) - img(s^-1)) / 2 and whose deeper
    blocks follow from the graded bracket.  A degree-one block that
    breaks a relation of the source (engel4's [X2, X3] = 0 needs the X1
    part of the image of X2 to vanish) is kept as it is; the defect
    shows in homomorphism_check.
    """

    table: GeneratorImageTable
    source: str
    target: str
    linear: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "linear", _linear_map(
            get_group(self.source), get_group(self.target), self.table.entries))


@cache  # get_group: one group object per content
def _bracket_pairs(grp: NilpotentGroup) -> dict[int, tuple[list, np.ndarray]]:
    """Per degree k >= 2: pairs (i, j) of a degree-one and a degree-(k-1)
    basis vector whose graded brackets span the degree-k layer, and the
    inverse of the matrix whose columns are those brackets there."""
    unit = identity(grp.dim)
    out = {}
    for level in sorted(set(grp.degrees) - {1}):
        cols = [k for k, deg in enumerate(grp.degrees) if deg == level]
        pairs = [(i, j) for i in range(grp.abelian_dim) for j in range(grp.dim)
                 if grp.degrees[j] == level - 1]
        brackets = (bracket(grp.grad.graded_tensor, grp.dim, unit[i], unit[j])
                    for i, j in pairs)
        pairs, inv = spanning_inverse(
            ((p, tuple(br[k] for k in cols)) for p, br in zip(pairs, brackets)),
            len(cols))
        out[level] = (pairs, np.array(inv, dtype=np.float64))
    return out


def _linear_map(src: NilpotentGroup, tgt: NilpotentGroup, entries) -> np.ndarray:
    """The graded Lie-algebra map fixed by the generator images."""
    d = src.abelian_dim
    images = np.asarray(entries, dtype=np.float64)
    lin = np.zeros((tgt.dim, src.dim))
    lin[:, :d] = ((images[:d] - images[d:]) / 2).T
    for level, (pairs, inv) in _bracket_pairs(src).items():
        cols = [k for k, deg in enumerate(src.degrees) if deg == level]
        brackets = np.array(
            [bracket(tgt.grad.graded_tensor, tgt.dim, lin[:, i], lin[:, j])
             for i, j in pairs], dtype=np.float64).T
        lin[:, cols] = brackets @ inv
    return lin


def build_phi(coupling: CouplingSpec, samples: int, seed: int,
              workers: int = DEFAULT_WORKERS,
              side: str = "alpha") -> PansuDerivative:
    """Estimate generator images and wrap them as the derivative map."""
    grp = coupling.ambient()
    x = domain_samples(coupling, samples, seed, workers, _TAG_MEAN_AB, side=side)
    ck = coupling_kernels(coupling)
    images = [_abelian_mean_ci(ck, grp, s.coords, x, side)
              for s in generating_set(grp)]
    entries = [vec for vec, _ in images]
    cis = [ci for _, ci in images]
    table = GeneratorImageTable(
        coupling=coupling.name, side=side, entries=tuple(entries),
        cis=tuple(cis), samples=samples, seed=seed,
    )
    return PansuDerivative(table=table, source=grp.name, target=grp.name)


@np.errstate(over="ignore")  # an overflowed image is inf; callers refuse it
def phi_batch(deriv: PansuDerivative, points) -> np.ndarray:
    """Images of the rows of an (n, m) array under the derivative map,
    column-major."""
    return (deriv.linear @ np.asarray(points, dtype=np.float64).T).T


def phi_apply(deriv: PansuDerivative, g) -> GroupPoint:
    """Image of a graded-group point under the derivative map."""
    img = phi_batch(deriv, _float_coords(g)[None, :])[0]
    return GroupPoint(tuple(img.tolist()), "graded", get_group(deriv.target).name)


# ---------------------------------------------------------------- reports

@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    samples: int
    fraction_within_eps: float
    median_proxy_dist: float
    seed: int


def _median(a: np.ndarray) -> float:
    """np.median of a 1-d array by one selection at the middle, where
    np.median also selects the end to find NaNs: NaN selects last."""
    h = a.size // 2
    p = np.partition(a, h)
    if np.isnan(p[h:].max()):
        return math.nan
    return float(p[h] if a.size % 2 else (p[:h].max() + p[h]) / 2)


def _convergence_row(n: int, dist: np.ndarray, eps: float, seed: int) -> ConvergenceRow:
    """The depth-n row of a per-sample distance array."""
    return ConvergenceRow(n=int(n), samples=dist.size,
                          fraction_within_eps=float((dist < eps).mean()),
                          median_proxy_dist=_median(dist), seed=seed)


class _ConvergenceRows:
    """Acceptance checks and CSV rows shared by reports of ConvergenceRows."""

    rows: tuple[ConvergenceRow, ...]

    def fractions(self):
        return [r.fraction_within_eps for r in self.rows]

    def threshold_ok(self, threshold: float = 0.9) -> bool:
        return bool(self.rows) and self.rows[-1].fraction_within_eps >= threshold

    def monotone_ok(self, tol: float = 1e-9) -> bool:
        return nondecreasing(median3_smooth(self.fractions()), tol)

    def csv_rows(self):
        header = ["n", "samples", "fraction_within_eps",
                  "median_proxy_dist", "seed"]
        return header, [
            [r.n, r.samples, r.fraction_within_eps, r.median_proxy_dist, r.seed]
            for r in self.rows
        ]


@dataclass
class ConvergenceReport(_ConvergenceRows):
    """Per-depth acceptance fractions and medians for one experiment."""

    experiment: str
    rows: tuple[ConvergenceRow, ...]
    seed: int
    eps: float
    meta: dict = field(default_factory=dict)

    def medians(self):
        return [r.median_proxy_dist for r in self.rows]

    def summary(self) -> dict:
        return {
            "experiment": self.experiment,
            "eps": self.eps,
            "seed": self.seed,
            "rows": [
                {
                    "n": r.n,
                    "samples": r.samples,
                    "fraction_within_eps": r.fraction_within_eps,
                    "median_proxy_dist": r.median_proxy_dist,
                }
                for r in self.rows
            ],
            "threshold_ok": self.threshold_ok(),
            "monotone_ok": self.monotone_ok(),
            **{k: v for k, v in self.meta.items() if isinstance(v, (str, int, float))},
        }


# ------------------------------------------------------- iterate asymptotics

@dataclass(frozen=True)
class IterateRow:
    n: int
    samples: int
    median_ab_dev: float
    median_com_over_n: float
    median_scl_dist: float
    seed: int


@dataclass
class IterateReport:
    coupling: str
    gamma: tuple
    rows: tuple[IterateRow, ...]
    mean_ab: tuple[float, ...]
    seed: int

    def medians_decreasing(self) -> bool:
        """Both decaying medians, commutator part and distance, fall strictly."""
        return (strictly_decreasing([r.median_com_over_n for r in self.rows])
                and strictly_decreasing([r.median_scl_dist for r in self.rows]))

    def csv_rows(self):
        header = ["n", "samples", "median_ab_dev", "median_com_over_n",
                  "median_scl_dist", "seed"]
        return header, [
            [r.n, r.samples, r.median_ab_dev, r.median_com_over_n,
             r.median_scl_dist, r.seed]
            for r in self.rows
        ]


def iterate_diagnostics(coupling: CouplingSpec, gamma, n_list, samples: int,
                        seed: int, workers: int = DEFAULT_WORKERS) -> IterateReport:
    """Distributions of the three iterate statistics per depth.

    Per sample x and depth n: deviation of the ergodic average from the
    mean abelianization, the commutator-part quasi-norm over n, and the
    proxy distance of the rescaled cocycle to the mean.
    """
    grp = coupling.ambient()
    gcoords = _float_coords(gamma)
    abar = mean_abelianization(coupling, gamma, samples, seed, workers)
    target = np.asarray(abar.vector, dtype=np.float64)
    ab = _abelian_indices(grp)
    com_mask = np.ones(grp.dim, dtype=bool)
    com_mask[ab] = False
    rows = []
    ck = coupling_kernels(coupling)
    for i, n in enumerate(n_list):
        x = domain_samples(coupling, samples, seed, workers, _TAG_ITERATES, i)
        lam = ck.alpha_coords(n * gcoords[None], x)
        avg = lam[:, ab] / n
        a_dev = np.sqrt(((avg - target[ab]) ** 2).sum(axis=1))
        com = lam.copy()
        com[:, ~com_mask] = 0.0
        b = quasi_norm_batch(grp.degrees, com) / n
        scaled = dilate_batch(grp.degrees, 1.0 / n, lam)
        c = _graded_dist(grp, scaled, target)
        rows.append(IterateRow(
            n=int(n), samples=samples,
            median_ab_dev=_median(a_dev),
            median_com_over_n=_median(b),
            median_scl_dist=_median(c),
            seed=seed,
        ))
    return IterateReport(
        coupling=coupling.name,
        gamma=tuple(float(v) for v in gcoords),
        rows=tuple(rows),
        mean_ab=abar.vector,
        seed=seed,
    )


# ----------------------------------------------------------- gamma sequences

def _lattice_word(lattice, terms) -> GroupPoint:
    """The lattice word of (letter, integer exponent) pairs, in order.

    Letters 0..d-1 are the degree-one basis elements of the lattice and
    d..2d-1 their inverses.
    """
    grp = get_group(lattice.group)
    law = grp.law_group
    d = grp.abelian_dim
    acc = law.identity()
    for idx, e in terms:
        if e:
            acc = law.mul(acc, law.pow(lattice.basis[idx % d], e if idx < d else -e))
    return GroupPoint(acc, "group", grp.name)


def gamma_sequence(grad, lattice, g, n: int) -> GroupPoint:
    """The depth-n lattice approximant: the Mal'cev rounding of delta_n g,
    computed exactly."""
    dil = tuple(Fraction(c) * n ** deg for c, deg in zip(_coords_of(g), grad.degrees))
    return round_to_lattice(lattice, dil)


def _lane_coords(ck: CouplingKernels, coords) -> np.ndarray:
    """Float coordinates of an exact lattice point, refused with
    PrecisionLimit past the float lane's limit before any float use."""
    out = np.asarray([_float_or_inf(c) for c in coords], dtype=np.float64)
    _check_precision(out[None], ck.gamma_leads)
    return out


def _float_or_inf(c) -> float:
    try:
        return float(c)
    except OverflowError:  # an exact value past the float range
        return math.inf if c > 0 else -math.inf


def _scaled_dist(ck: CouplingKernels, grp: NilpotentGroup, gamma_coords,
                 x: np.ndarray, s: float, target: np.ndarray) -> np.ndarray:
    """Per-sample distance of the cocycle at gamma, dilated by 1/s, to target."""
    g = _float_coords(gamma_coords)[None]
    dist = np.empty(len(x))
    for i in range(0, len(x), _BLOCK_ROWS):
        lam = ck.alpha_coords(g, x[i:i + _BLOCK_ROWS])
        dist[i:i + len(lam)] = _graded_dist(
            grp, dilate_batch(grp.degrees, 1.0 / s, lam), target)
    return dist


# ------------------------------------------------------- theorem experiments

def main_theorem_experiment(coupling: CouplingSpec, deriv: PansuDerivative,
                            g, n_list, eps: float, samples: int, seed: int,
                            workers: int = DEFAULT_WORKERS,
                            target=None, perturb_digits=None) -> ConvergenceReport:
    """Acceptance fraction of the rescaled cocycle against the derivative.

    For each depth n the lattice approximant of g moves uniform domain
    samples; the cocycle value is rescaled by n and compared to the
    derivative image (or an explicit target override, e.g. for control
    runs).  perturb_digits optionally left-multiplies the approximant
    by a fixed lattice word to exercise sequence-independence.
    """
    grp = coupling.ambient()
    target_coords = _float_coords(phi_apply(deriv, g) if target is None else target)
    lattice = coupling.gamma_lattice
    pert = (None if perturb_digits is None
            else digits_to_point(lattice, perturb_digits).coords)
    ck = coupling_kernels(coupling)
    rows = []
    try:
        for i, n in enumerate(n_list):
            gam = gamma_sequence(grp.grad, lattice, g, int(n)).coords
            if pert is not None:
                gam = grp.law_group.mul(pert, gam)
            gam_coords = _lane_coords(ck, gam)
            x = domain_samples(coupling, samples, seed, workers, _TAG_MAIN, i)
            dist = _scaled_dist(ck, grp, gam_coords, x, float(n), target_coords)
            rows.append(_convergence_row(n, dist, eps, seed))
    except PrecisionLimit as exc:
        raise PrecisionLimit(f"at depth {n}, {exc}") from exc
    return ConvergenceReport(
        experiment="main-theorem", rows=tuple(rows), seed=seed, eps=eps,
        meta={"coupling": coupling.name,
              "g": ",".join(str(float(c)) for c in _coords_of(g))},
    )


@dataclass
class DefectReport:
    """Max proxy defect over a family of checks."""

    kind: str
    max_defect: float
    tolerance: float
    count: int

    @property
    def ok(self) -> bool:
        return self.max_defect <= self.tolerance


def homomorphism_check(deriv: PansuDerivative, pairs,
                       tolerance: float = 0.1) -> DefectReport:
    """Compare the image of a product with the product of images."""
    src = get_group(deriv.source)
    tgt = get_group(deriv.target)
    tgt_tab = law_table(tgt.law_graded)
    gh = np.asarray([(_float_coords(g), _float_coords(h)) for g, h in pairs])
    k = gh.shape[0]
    g, h = gh.reshape(k, 2, src.dim).transpose(1, 0, 2)
    gh_prod = bch_batch(law_table(src.law_graded), g, h)
    imgs = phi_batch(deriv, np.concatenate([gh_prod, g, h]))
    lhs, fg, fh = imgs[:k], imgs[k:2 * k], imgs[2 * k:]
    diff = bch_batch(tgt_tab, -lhs, bch_batch(tgt_tab, fg, fh))
    worst = max([0.0] + [quasi_norm_m(tgt.grad, row) for row in diff.tolist()])
    return DefectReport(kind="homomorphism", max_defect=worst,
                        tolerance=tolerance, count=k)


def inverse_check(phi: PansuDerivative, psi: PansuDerivative, points,
                  tolerance: float = 0.1) -> DefectReport:
    """Round-trip defect of the two derivative maps."""
    src = get_group(phi.source)
    pts = np.asarray([_float_coords(g) for g in points]).reshape(-1, src.dim)
    back = phi_batch(psi, phi_batch(phi, pts))
    diff = bch_batch(law_table(src.law_graded), -back, pts)
    worst = max([0.0] + [quasi_norm_m(src.grad, row) for row in diff.tolist()])
    return DefectReport(kind="inverse", max_defect=worst,
                        tolerance=tolerance, count=pts.shape[0])


# ----------------------------------------------------------------- kappa map

@dataclass
class KappaReport(_ConvergenceRows):
    """Sup-distance convergence of the rounded-dilation cocycle map."""

    coupling: str
    radius: float
    grid_step: float
    grid_size: int
    eps: float
    rows: tuple[ConvergenceRow, ...]
    seed: int


def _axis_extent(radius: float, d: int, step: float, cap: int) -> int:
    """Grid points on one side of an axis, clamped at cap."""
    try:
        extent = radius ** d / step
    except OverflowError:  # radius ** d past the float range
        extent = math.inf
    return int(math.floor(min(extent, cap)))


def _quasi_ball_grid(grp: NilpotentGroup, radius: float, step: float,
                     cap: int = 200_000) -> np.ndarray:
    if not (radius > 0 and step > 0):
        raise StructuralError(
            f"grid radius and step must be positive, got {radius} and {step}")
    ks = [_axis_extent(radius, d, step, cap) for d in grp.degrees]
    if math.prod(2 * k + 1 for k in ks) > cap:  # checked before any array exists
        raise StructuralError(
            f"grid of radius {radius} and step {step} exceeds cap {cap} points")
    axes = [np.arange(-k, k + 1, dtype=np.float64) * step for k in ks]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts_t = np.stack([m.reshape(-1) for m in mesh])  # (m, size): rows are columns
    keep = quasi_norm_batch(grp.degrees, pts_t.T) <= radius + 1e-12
    return pts_t[:, keep].T


def kappa_grid(coupling: CouplingSpec, deriv: PansuDerivative,
               x_samples: int, n_list, radius: float, grid_step: float,
               seed: int, eps: float = 0.3,
               workers: int = DEFAULT_WORKERS) -> KappaReport:
    """Per-sample sup distance over a grid between kappa and the derivative.

    kappa_{x,n}(g) rescales the cocycle at the lattice rounding of the
    n-dilated grid point; the report tracks the fraction of samples
    whose sup-distance over the whole grid stays below eps.

    Each pass runs at most _BLOCK_ROWS (sample, grid point) rows, whose
    columns stay in cache: B = _BLOCK_ROWS // grid size samples of a small
    grid (paying each kernel call's fixed cost once per B samples), or one
    sample and a chunk of _BLOCK_ROWS points of a larger grid, whose sup is
    the max over its chunks.  Every kernel works row by row, so each sup
    has the bits of a one-sample pass; only the guards (the peel's
    precision limit, the exp map's 2^53 bound) read the pass's maxima.
    """
    grp = coupling.ambient()
    ck = coupling_kernels(coupling)
    grid = _quasi_ball_grid(grp, radius, grid_step)
    size = len(grid)
    block = max(1, min(x_samples, _BLOCK_ROWS // size))
    chunk = min(size, _BLOCK_ROWS)  # grid points a pass; below size, B is 1
    phi_vals = np.asfortranarray(np.tile(phi_batch(deriv, grid), (block, 1)))
    rows = []
    try:
        for i, n in enumerate(n_list):
            n = int(n)
            dil = dilate_batch(grp.degrees, float(n), grid)
            jn = peel_coords(ck.gamma_lattice, dil, mode="round")
            jn = np.asfortranarray(np.tile(jn, (block, 1)))
            x = domain_samples(coupling, x_samples, seed, workers, _TAG_KAPPA, i)
            sups = np.empty((x_samples, -(-size // chunk)))  # a column a chunk
            for start, lo in itertools.product(range(0, x_samples, block),
                                               range(0, size, chunk)):
                b, c = min(block, x_samples - start), min(chunk, size - lo)
                # each sample's row, c times, column-major
                xs = np.repeat(x[start:start + b].T, c, axis=1).T
                lam = ck.alpha_coords(jn[lo:lo + b * c], xs)
                scaled = dilate_batch(grp.degrees, 1.0 / n, lam)
                dist = _graded_dist(grp, scaled, phi_vals[lo:lo + b * c])
                sups[start:start + b, lo // chunk] = dist.reshape(b, c).max(axis=1)
            rows.append(_convergence_row(n, sups.max(axis=1), eps, seed))
    except PrecisionLimit as exc:
        raise PrecisionLimit(f"at depth {n}, {exc}") from exc
    return KappaReport(
        coupling=coupling.name, radius=float(radius),
        grid_step=float(grid_step), grid_size=size,
        eps=eps, rows=tuple(rows), seed=seed,
    )


# --------------------------------------------------------------- recurrence

class BoxError(StructuralError):
    """A recurrence box that is empty or leaves the fundamental domain."""


@dataclass
class RecurrenceReport:
    coupling: str
    g: tuple
    delta: float
    horizon: int
    samples: int
    success_fraction: float
    first_depths: tuple[int, ...]
    seed: int

    def csv_rows(self):
        header = ["sample", "first_depth"]
        return header, [[i, d] for i, d in enumerate(self.first_depths)]


def recurrence_search(coupling: CouplingSpec, g, delta: float, box_a,
                      horizon: int, samples: int, seed: int,
                      max_word_len: int = 3) -> RecurrenceReport:
    """Return-time search: lattice words close to g in the cone that send
    each sample back into the target sub-box.

    Candidates at depth n are the gamma_sequence approximant of g times
    lattice perturbation words of bounded length, filtered by the
    rescaled proxy distance to g; a sample succeeds at the first depth
    where some candidate's induced action lands it back in the box.
    Exhausting the horizon counts as failure, not an error.
    """
    if samples < 1:
        raise StructuralError("samples must be >= 1")
    grp = coupling.ambient()
    ck = coupling_kernels(coupling)
    lo = np.asarray([float(a) for a, _ in box_a], dtype=np.float64)
    hi = np.asarray([float(b) for _, b in box_a], dtype=np.float64)
    if lo.shape != (grp.dim,) or np.any(hi <= lo):
        raise BoxError("box must be per-coordinate (low, high) pairs, low < high")
    # The domain is the lambda box [0, lead) pulled back through the twist,
    # a linear map, so a box lies in its closure when all 2^m corners do.
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    w = corners @ ck.theta.T if ck.twisted else corners
    if not np.all((w >= 0) & (w <= ck.lambda_leads)):  # NaN fails too
        raise BoxError("box is not inside the fundamental domain")
    rng = np.random.Generator(np.random.PCG64(seed_lineage(seed, _TAG_RECUR)))
    x = rng.uniform(lo, hi, size=(samples, grp.dim))
    target = _float_coords(g)
    perts = np.asarray(
        [[float(c) for c in p] for p in ball_points(coupling.gamma_lattice, max_word_len)],
        dtype=np.float64,
    )
    tab = ck.table
    first = np.full(samples, -1, dtype=np.int64)
    active = np.arange(samples)
    try:
        for n in range(1, horizon + 1):
            gam = gamma_sequence(grp.grad, coupling.gamma_lattice, g, n)
            cands = bch_batch(tab, _lane_coords(ck, gam.coords)[None], perts)
            scaled = dilate_batch(grp.degrees, 1.0 / n, cands)
            dist = _graded_dist(grp, scaled, target)
            for ci in np.nonzero(dist < delta)[0]:
                if active.size == 0:
                    break
                _, xprime = ck.reduce(bch_batch(tab, cands[ci][None], x[active]))
                inside = np.all((xprime >= lo) & (xprime < hi), axis=1)
                first[active[inside]] = n
                active = active[~inside]
            if active.size == 0:
                break
    except PrecisionLimit as exc:
        raise PrecisionLimit(f"at depth {n}, {exc}") from exc
    return RecurrenceReport(
        coupling=coupling.name, g=tuple(float(v) for v in target),
        delta=float(delta), horizon=int(horizon), samples=samples,
        success_fraction=float((first > 0).mean()),
        first_depths=tuple(int(v) for v in first),
        seed=seed,
    )


# ------------------------------------------------------ arbitrary elements

_SCHEDULES = {
    "n": lambda n: int(n),
    "sqrt": lambda n: max(1, math.isqrt(int(n))),
    "log": lambda n: max(1, int(math.log2(n))),
}


def parse_schedule(token):
    """Integer-valued depth schedules: 'n', 'sqrt', 'log', or 'k*n'."""
    if callable(token):
        return token
    t = str(token).strip().lower()
    if t in _SCHEDULES:
        return _SCHEDULES[t]
    if t.endswith("n") and t[:-1].isdigit():
        k = int(t[:-1])
        return lambda n, _k=k: _k * int(n)
    raise StructuralError(f"unknown schedule {token!r}")


def arbitrary_element_experiment(coupling: CouplingSpec, word, n_list,
                                 samples: int, seed: int,
                                 eps: float = 0.2,
                                 workers: int = DEFAULT_WORKERS,
                                 abar_samples: int = 1 << 14) -> ConvergenceReport:
    """Fixed-order generator words with diverging exponent schedules.

    word is a list of (generator index, schedule); the cocycle at
    gamma_n = prod s_i^{a_i(n)} is compared against the product of
    correspondingly dilated generator images, after rescaling both by
    the largest exponent.
    """
    grp = coupling.ambient()
    d = grp.abelian_dim
    graded = grp.law_graded
    parsed = []
    for idx, sched in word:
        idx = int(idx)
        if not 0 <= idx < 2 * d:
            raise StructuralError(f"generator index {idx} out of range")
        parsed.append((idx, parse_schedule(sched)))
    deriv = build_phi(coupling, abar_samples, seed, workers)
    images = deriv.table.entries
    ck = coupling_kernels(coupling)
    rows = []
    for i, n in enumerate(n_list):
        n = int(n)
        terms = [(idx, sched(n)) for idx, sched in parsed]
        big = max(e for _, e in terms)
        gam = _lattice_word(coupling.gamma_lattice, terms)
        tgt = (0.0,) * grp.dim
        for idx, e in terms:
            tgt = graded.mul(tgt, tuple(e * v for v in images[idx]))
        x = domain_samples(coupling, samples, seed, workers, _TAG_WORD, i)
        dist = _scaled_dist(ck, grp, gam.coords, x, big,
                            dilate_batch(grp.degrees, 1.0 / big, [tgt]))
        rows.append(_convergence_row(n, dist, eps, seed))
    return ConvergenceReport(
        experiment="arbitrary-word", rows=tuple(rows), seed=seed, eps=eps,
        meta={"coupling": coupling.name,
              "word": ";".join(f"{idx}" for idx, _ in parsed)},
    )
