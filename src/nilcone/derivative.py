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
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache

import numpy as np

from .algebra import StructuralError, bracket
from .bch import GroupPoint, NilpotentGroup, coords_of, get_group
from .coupling import (
    DEFAULT_WORKERS,
    CouplingKernels,
    CouplingSpec,
    coupling_kernels,
    domain_blocks,
    domain_samples,
    seed_lineage,
)
from .geometry import generating_set
from .kernels import BLOCK_ROWS, Workspace, bch_batch, dilate_batch
from .kernels import quasi_norm_batch, workspace
from .ratlin import identity, spanning_inverse
from .wordmetric import PrecisionLimit, ball_points, digits_to_point, lane_coords
from .wordmetric import peel_coords, round_to_lattice

# spawn-key tags keeping the per-operation sample streams disjoint; they
# seed those streams, so a tag's value never changes
_TAG_MEAN_AB = 0
_TAG_ITERATES = 1
_TAG_MAIN = 2
_TAG_KAPPA = 3
_TAG_RECUR = 4
_TAG_WORD = 6

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


def nondecreasing(values) -> bool:
    """No step falls by more than 1e-9."""
    v = list(values)
    return all(b >= a - 1e-9 for a, b in zip(v, v[1:]))


def strictly_decreasing(values) -> bool:
    v = list(values)
    return all(b < a for a, b in zip(v, v[1:]))


def _float_coords(g) -> np.ndarray:
    return np.asarray([float(c) for c in coords_of(g)], dtype=np.float64)


def _graded_dist(grp: NilpotentGroup, points: np.ndarray, target: np.ndarray,
                 work: Workspace | None = None, out: np.ndarray | None = None
                 ) -> np.ndarray:
    """Proxy distances from each row to its target row, or to one target
    point, in the graded group, into out.  With work, points is work.a,
    negated there, and the product goes to work.b; without, points is
    left as it is and the arrays are fresh."""
    work = work or Workspace.fresh(len(points), grp.dim)
    diff = bch_batch(grp.law_graded.table, np.negative(points, out=work.a),
                     np.atleast_2d(target), out=work.b, term=work.s)
    return quasi_norm_batch(grp.degrees, diff, out=out, scratch=work.s)


# ------------------------------------------------------- mean abelianization

@dataclass(frozen=True)
class MeanAbelianization:
    """Monte Carlo estimate of the averaged abelianized cocycle."""

    vector: tuple[float, ...]
    ci: tuple[float, ...]


def _cocycle_blocks(ck: CouplingKernels, gamma, blocks, side: str):
    """The cocycle (side "alpha" or "beta") at gamma over blocks of at most
    BLOCK_ROWS sample rows, in order, each on the shared workspace: per
    block, its slice of the sample rows, lam (in work.a) and work."""
    g = _float_coords(gamma)[None]
    cocycle = ck.alpha_coords if side == "alpha" else ck.beta_coords
    start = 0
    for x in blocks:
        work = workspace(len(x), ck.lambda_lattice.dim)
        yield slice(start, start + len(x)), cocycle(g, x, work), work
        start += len(x)


def _abelian_mean_ci(ck: CouplingKernels, grp: NilpotentGroup, gamma, blocks,
                     samples: int, side: str
                     ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Sample mean and 95% normal half-width of the abelian cocycle coords,
    the first abelian_dim, over the samples of blocks."""
    ab = np.empty((samples, grp.abelian_dim), order="F")
    for rows, lam, _ in _cocycle_blocks(ck, gamma, blocks, side):
        ab[rows] = lam[:, :grp.abelian_dim]
    vec = [0.0] * grp.dim
    ci = [0.0] * grp.dim
    for i in range(grp.abelian_dim):
        col = ab[:, i]
        vec[i] = float(col.mean())
        sd = float(col.std(ddof=1)) if samples > 1 else 0.0
        ci[i] = 1.96 * sd / math.sqrt(samples)
    return tuple(vec), tuple(ci)


def mean_abelianization(coupling: CouplingSpec, gamma, samples: int,
                        seed: int) -> MeanAbelianization:
    """Average of the abelian coordinates of the cocycle alpha at gamma."""
    vec, ci = _abelian_mean_ci(coupling_kernels(coupling), coupling.ambient(), gamma,
                               domain_blocks(coupling, samples, seed, _TAG_MEAN_AB),
                               samples, "alpha")
    return MeanAbelianization(vector=vec, ci=ci)


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
    blocks follow from the graded bracket.  It maps the graded group
    named ``group``, the coupling's ambient group, to itself.  A
    degree-one block that breaks a relation of the group (engel4's
    [X2, X3] = 0 needs the X1 part of the image of X2 to vanish) is kept
    as it is; the defect shows in homomorphism_check.
    """

    table: GeneratorImageTable
    group: str
    linear: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "linear", _linear_map(
            get_group(self.group), self.table.entries))


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


def _linear_map(grp: NilpotentGroup, entries) -> np.ndarray:
    """The graded Lie-algebra map fixed by the generator images."""
    d = grp.abelian_dim
    images = np.asarray(entries, dtype=np.float64)
    lin = np.zeros((grp.dim, grp.dim))
    lin[:, :d] = ((images[:d] - images[d:]) / 2).T
    for level, (pairs, inv) in _bracket_pairs(grp).items():
        cols = [k for k, deg in enumerate(grp.degrees) if deg == level]
        brackets = np.array(
            [bracket(grp.grad.graded_tensor, grp.dim, lin[:, i], lin[:, j])
             for i, j in pairs], dtype=np.float64).T
        lin[:, cols] = brackets @ inv
    return lin


def build_phi(coupling: CouplingSpec, samples: int, seed: int,
              side: str = "alpha") -> PansuDerivative:
    """Estimate generator images and wrap them as the derivative map."""
    grp = coupling.ambient()
    x = domain_samples(coupling, samples, seed, DEFAULT_WORKERS, _TAG_MEAN_AB, side=side)
    ck = coupling_kernels(coupling)
    images = [_abelian_mean_ci(ck, grp, s.coords,
                               (x[i:i + BLOCK_ROWS] for i in range(0, samples, BLOCK_ROWS)),
                               samples, side)
              for s in generating_set(grp)]
    entries = [vec for vec, _ in images]
    cis = [ci for _, ci in images]
    table = GeneratorImageTable(
        coupling=coupling.name, side=side, entries=tuple(entries),
        cis=tuple(cis), samples=samples, seed=seed,
    )
    return PansuDerivative(table=table, group=grp.name)


@np.errstate(over="ignore")  # an overflowed image is inf; callers refuse it
def phi_batch(deriv: PansuDerivative, points) -> np.ndarray:
    """Images of the rows of an (n, m) array under the derivative map,
    column-major."""
    return (deriv.linear @ np.asarray(points, dtype=np.float64).T).T


def phi_apply(deriv: PansuDerivative, g) -> GroupPoint:
    """Image of a graded-group point under the derivative map."""
    img = phi_batch(deriv, _float_coords(g)[None, :])[0]
    return GroupPoint(tuple(img.tolist()))


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
    np.median also selects the end to find NaNs: NaN selects last.  The
    selection is made in place, so a is left reordered."""
    h = a.size // 2
    a.partition(h)
    if np.isnan(a[h:].max()):
        return math.nan
    return float(a[h] if a.size % 2 else (a[:h].max() + a[h]) / 2)


def _csv_rows(row_type, rows) -> tuple[list[str], list[list]]:
    """A report's CSV: its row dataclass's fields, then each row's values."""
    header = [f.name for f in fields(row_type)]
    return header, [[getattr(r, name) for name in header] for r in rows]


def _convergence_row(n: int, dist: np.ndarray, eps: float, seed: int) -> ConvergenceRow:
    """The depth-n row of a per-sample distance array."""
    return ConvergenceRow(n=n, samples=dist.size,
                          fraction_within_eps=float((dist < eps).mean()),
                          median_proxy_dist=_median(dist), seed=seed)


@dataclass
class ConvergenceReport:
    """Per-depth acceptance fractions and medians for one experiment."""

    experiment: str
    rows: tuple[ConvergenceRow, ...]
    seed: int
    eps: float
    meta: dict = field(default_factory=dict)

    def fractions(self):
        return [r.fraction_within_eps for r in self.rows]

    def threshold_ok(self) -> bool:
        """At least 0.9 of the samples lie within eps at the last depth."""
        return bool(self.rows) and self.rows[-1].fraction_within_eps >= 0.9

    def monotone_ok(self) -> bool:
        return nondecreasing(median3_smooth(self.fractions()))

    def medians_decreasing_or_flat(self) -> bool:
        """The arbitrary-word verdict: no median rises by more than 1e-12
        and the last stays below the first plus 1e-12."""
        vals = [r.median_proxy_dist for r in self.rows]
        return (all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
                and vals[-1] < vals[0] + 1e-12)

    def csv_rows(self):
        return _csv_rows(ConvergenceRow, self.rows)

    def summary(self) -> dict:
        header, rows = self.csv_rows()
        return {
            "experiment": self.experiment,
            "eps": self.eps,
            "seed": self.seed,
            "rows": [{k: v for k, v in zip(header, row) if k != "seed"}
                     for row in rows],
            "threshold_ok": self.threshold_ok(),
            "monotone_ok": self.monotone_ok(),
            **{k: v for k, v in self.meta.items() if isinstance(v, (str, int, float))},
        }


def _depth_rows(n_list, row_at) -> tuple:
    """row_at(n, i) at each depth n, the i-th, which spawns that depth's
    sample stream; a PrecisionLimit, or a depth past the float range, is
    refused naming it."""
    rows = []
    for i, n in enumerate(n_list):
        n = int(n)
        try:
            rows.append(row_at(n, i))
        except (PrecisionLimit, OverflowError) as exc:
            raise PrecisionLimit(f"at depth {n}, {exc}") from exc
    return tuple(rows)


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
    rows: tuple[IterateRow, ...]
    mean_ab: tuple[float, ...]

    def medians_decreasing(self) -> bool:
        """Both decaying medians, commutator part and distance, fall strictly
        from depth to depth, or stay at exactly 0 once there."""
        return all(b < a or a == b == 0
                   for col in ([r.median_com_over_n for r in self.rows],
                               [r.median_scl_dist for r in self.rows])
                   for a, b in zip(col, col[1:]))

    def csv_rows(self):
        return _csv_rows(IterateRow, self.rows)


def iterate_diagnostics(coupling: CouplingSpec, gamma, n_list, samples: int,
                        seed: int) -> IterateReport:
    """Distributions of the three iterate statistics per depth.

    Per sample x and depth n: deviation of the ergodic average from the
    mean abelianization, the commutator-part quasi-norm over n, and the
    proxy distance of the rescaled cocycle to the mean.
    """
    grp = coupling.ambient()
    gcoords = _float_coords(gamma)
    abar = mean_abelianization(coupling, gamma, samples, seed)
    target = np.asarray(abar.vector, dtype=np.float64)
    d = grp.abelian_dim  # degree one comes first
    ck = coupling_kernels(coupling)

    def row_at(n: int, i: int) -> IterateRow:
        stats = np.empty((3, samples))  # a_dev, com/n, the scaled distance
        blocks = domain_blocks(coupling, samples, seed, _TAG_ITERATES, i)
        for rows, lam, work in _cocycle_blocks(ck, n * gcoords, blocks, "alpha"):
            stats[0, rows] = np.sqrt(((lam[:, :d] / n - target[:d]) ** 2).sum(axis=1))
            work.c[:] = lam
            work.c[:, :d] = 0.0  # the commutator part
            quasi_norm_batch(grp.degrees, work.c, out=stats[1, rows], scratch=work.s)
            stats[1, rows] /= n
            # last: _graded_dist negates lam, in work.a, in place
            _graded_dist(grp, dilate_batch(grp.degrees, 1.0 / n, lam, out=lam), target,
                         work, out=stats[2, rows])
        a_dev, b, c = map(_median, stats)
        return IterateRow(n=n, samples=samples, median_ab_dev=a_dev,
                          median_com_over_n=b, median_scl_dist=c, seed=seed)

    return IterateReport(
        rows=_depth_rows(n_list, row_at),
        mean_ab=abar.vector,
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
    return GroupPoint(acc)


def gamma_sequence(grad, lattice, g, n: int) -> GroupPoint:
    """The depth-n lattice approximant: the Mal'cev rounding of delta_n g,
    computed exactly."""
    dil = tuple(Fraction(c) * n ** deg for c, deg in zip(coords_of(g), grad.degrees))
    return round_to_lattice(lattice, dil)


def _scaled_dist(ck: CouplingKernels, grp: NilpotentGroup, gamma_coords,
                 blocks, n: int, s: float, target: np.ndarray) -> np.ndarray:
    """Per-sample distance of the cocycle at gamma, dilated by 1/s, to target,
    over the n samples of blocks; only the n distances are allocated."""
    dist = np.empty(n)
    for rows, lam, work in _cocycle_blocks(ck, gamma_coords, blocks, "alpha"):
        _graded_dist(grp, dilate_batch(grp.degrees, 1.0 / s, lam, out=lam), target,
                     work, out=dist[rows])
    return dist


# ------------------------------------------------------- theorem experiments

def main_theorem_experiment(coupling: CouplingSpec, deriv: PansuDerivative,
                            g, n_list, eps: float, samples: int, seed: int,
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

    def row_at(n: int, i: int) -> ConvergenceRow:
        gam = gamma_sequence(grp.grad, lattice, g, n).coords
        if pert is not None:
            gam = grp.law_group.mul(pert, gam)
        dist = _scaled_dist(ck, grp, lane_coords(lattice, gam),
                            domain_blocks(coupling, samples, seed, _TAG_MAIN, i),
                            samples, float(n), target_coords)
        return _convergence_row(n, dist, eps, seed)

    rows = _depth_rows(n_list, row_at)
    return ConvergenceReport(
        experiment="main-theorem", rows=rows, seed=seed, eps=eps,
        meta={"coupling": coupling.name,
              "g": ",".join(str(float(c)) for c in coords_of(g))},
    )


@dataclass
class DefectReport:
    """Max proxy defect over a family of checks; ok up to 0.1."""

    max_defect: float
    count: int

    @property
    def ok(self) -> bool:
        return self.max_defect <= 0.1


def homomorphism_check(deriv: PansuDerivative, pairs) -> DefectReport:
    """Compare the image of a product with the product of images."""
    grp = get_group(deriv.group)
    table = grp.law_graded.table
    gh = np.asarray([(_float_coords(g), _float_coords(h)) for g, h in pairs])
    k = gh.shape[0]
    g, h = gh.reshape(k, 2, grp.dim).transpose(1, 0, 2)
    imgs = phi_batch(deriv, np.concatenate([bch_batch(table, g, h), g, h]))
    lhs, fg, fh = imgs[:k], imgs[k:2 * k], imgs[2 * k:]
    worst = float(_graded_dist(grp, lhs, bch_batch(table, fg, fh)).max(initial=0.0))
    return DefectReport(max_defect=worst, count=k)


def inverse_check(phi: PansuDerivative, psi: PansuDerivative, points) -> DefectReport:
    """Round-trip defect of the two derivative maps."""
    grp = get_group(phi.group)
    pts = np.asarray([_float_coords(g) for g in points]).reshape(-1, grp.dim)
    back = phi_batch(psi, phi_batch(phi, pts))
    worst = float(_graded_dist(grp, back, pts).max(initial=0.0))
    return DefectReport(max_defect=worst, count=pts.shape[0])


# ----------------------------------------------------------------- kappa map

@dataclass(kw_only=True)
class KappaReport(ConvergenceReport):
    """Sup-distance convergence of the rounded-dilation cocycle map."""

    grid_size: int


_GRID_CAP = 200_000  # points of one kappa grid


def _axis_extent(radius: float, d: int, step: float) -> int:
    """Grid points on one side of an axis, clamped at _GRID_CAP."""
    try:
        extent = radius ** d / step
    except OverflowError:  # radius ** d past the float range
        extent = math.inf
    return int(math.floor(min(extent, _GRID_CAP)))


def _quasi_ball_grid(grp: NilpotentGroup, radius: float, step: float) -> np.ndarray:
    if not (radius > 0 and step > 0):
        raise StructuralError(
            f"grid radius and step must be positive, got {radius} and {step}")
    ks = [_axis_extent(radius, d, step) for d in grp.degrees]
    if math.prod(2 * k + 1 for k in ks) > _GRID_CAP:  # checked before any array exists
        raise StructuralError(
            f"grid of radius {radius} and step {step} exceeds cap {_GRID_CAP} points")
    axes = [np.arange(-k, k + 1, dtype=np.float64) * step for k in ks]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts_t = np.stack([m.reshape(-1) for m in mesh])  # (m, size): rows are columns
    keep = quasi_norm_batch(grp.degrees, pts_t.T) <= radius + 1e-12
    return pts_t[:, keep].T


def kappa_grid(coupling: CouplingSpec, deriv: PansuDerivative,
               x_samples: int, n_list, radius: float, grid_step: float,
               seed: int, eps: float) -> KappaReport:
    """Per-sample sup distance over a grid between kappa and the derivative.

    kappa_{x,n}(g) rescales the cocycle at the lattice rounding of the
    n-dilated grid point; the report tracks the fraction of samples
    whose sup-distance over the whole grid stays below eps.

    Each pass runs at most BLOCK_ROWS (sample, grid point) rows on the
    shared workspace, whose columns stay in cache: B = BLOCK_ROWS // grid
    size samples of a small grid (paying each kernel call's fixed cost
    once per B samples), or one sample and a chunk of BLOCK_ROWS points of
    a larger grid, whose sup is the max over its chunks.  Every kernel works row by row, so each sup
    has the bits of a one-sample pass; only the guards (the peel's
    precision limit, the exp map's 2^53 bound) read the pass's maxima.
    """
    grp = coupling.ambient()
    ck = coupling_kernels(coupling)
    grid = _quasi_ball_grid(grp, radius, grid_step)
    size = len(grid)
    block = max(1, min(x_samples, BLOCK_ROWS // size))
    chunk = min(size, BLOCK_ROWS)  # grid points a pass; below size, B is 1
    phi_vals = np.asfortranarray(np.tile(phi_batch(deriv, grid), (block, 1)))

    def row_at(n: int, i: int) -> ConvergenceRow:
        x = domain_samples(coupling, x_samples, seed, DEFAULT_WORKERS, _TAG_KAPPA, i)
        dil = dilate_batch(grp.degrees, float(n), grid)
        jn = peel_coords(ck.gamma_lattice, dil, mode="round")
        jn = np.asfortranarray(np.tile(jn, (block, 1)))
        sups = np.empty((x_samples, -(-size // chunk)))  # a column a chunk
        for start, lo in itertools.product(range(0, x_samples, block),
                                           range(0, size, chunk)):
            b, c = min(block, x_samples - start), min(chunk, size - lo)
            work = workspace(b * c, grp.dim)
            for j in range(grp.dim):  # each sample's row, c times
                work.a[:, j].reshape(b, c)[:] = x[start:start + b, j, None]
            lam = ck.alpha_coords(jn[lo:lo + b * c], work.a, work)
            dilate_batch(grp.degrees, 1.0 / n, lam, out=lam)
            dist = _graded_dist(grp, lam, phi_vals[lo:lo + b * c], work, out=work.t)
            sups[start:start + b, lo // chunk] = dist.reshape(b, c).max(axis=1)
        return _convergence_row(n, sups.max(axis=1), eps, seed)

    return KappaReport(
        experiment="kappa", seed=seed, eps=eps, meta={"coupling": coupling.name},
        rows=_depth_rows(n_list, row_at),
        grid_size=size)


# --------------------------------------------------------------- recurrence

class BoxError(StructuralError):
    """A recurrence box that is empty or leaves the fundamental domain."""


@dataclass
class RecurrenceReport:
    samples: int
    success_fraction: float
    first_depths: tuple[int, ...]

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

    Each depth runs every candidate on every sample still active as one
    batch.  The float peel's precision limit reads the whole batch, so a
    depth can be refused with PrecisionLimit over a candidate that a
    candidate-by-candidate search would not have reached, every sample
    having succeeded through an earlier one.
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
            cands = bch_batch(tab, lane_coords(coupling.gamma_lattice, gam.coords)[None],
                              perts)
            scaled = dilate_batch(grp.degrees, 1.0 / n, cands)
            near = cands[_graded_dist(grp, scaled, target) < delta]
            # row (c, j): candidate c moving active sample j
            _, xprime = ck.reduce(bch_batch(tab, np.repeat(near, active.size, axis=0),
                                            np.tile(x[active], (len(near), 1))))
            inside = np.all((xprime >= lo) & (xprime < hi), axis=1)
            hit = inside.reshape(len(near), active.size).any(axis=0)
            first[active[hit]] = n
            active = active[~hit]
            if active.size == 0:
                break
    except PrecisionLimit as exc:
        raise PrecisionLimit(f"at depth {n}, {exc}") from exc
    return RecurrenceReport(
        samples=samples,
        success_fraction=float((first > 0).mean()),
        first_depths=tuple(int(v) for v in first),
    )


# ------------------------------------------------------ arbitrary elements

_SCHEDULES = {
    "n": lambda n: int(n),
    "sqrt": lambda n: max(1, math.isqrt(int(n))),
    "log": lambda n: max(1, int(math.log2(n))),
}


def parse_schedule(token: str):
    """Integer-valued depth schedules: 'n', 'sqrt', 'log', or 'k*n' with
    k >= 1, each at least 1 at every depth."""
    t = token.strip().lower()
    if t in _SCHEDULES:
        return _SCHEDULES[t]
    if t.endswith("n") and t[:-1].isdigit() and int(t[:-1]) >= 1:
        k = int(t[:-1])
        return lambda n, _k=k: _k * int(n)
    raise StructuralError(f"unknown schedule {token!r}")


def arbitrary_element_experiment(coupling: CouplingSpec, word, n_list,
                                 samples: int, seed: int,
                                 eps: float) -> ConvergenceReport:
    """Fixed-order generator words with diverging exponent schedules.

    word is a list of parsed (generator index, schedule) pairs: an index
    in 0..2d-1 and a function of parse_schedule.  The cocycle at
    gamma_n = prod s_i^{a_i(n)} is compared against the product of
    correspondingly dilated generator images, estimated from 2^14
    samples, after rescaling both by the largest exponent.
    """
    grp = coupling.ambient()
    graded = grp.law_graded
    deriv = build_phi(coupling, 1 << 14, seed)
    images = deriv.table.entries
    lattice = coupling.gamma_lattice
    ck = coupling_kernels(coupling)

    def row_at(n: int, i: int) -> ConvergenceRow:
        terms = [(idx, sched(n)) for idx, sched in word]
        big = max(e for _, e in terms)
        # refused before the target's float products can overflow
        gam = lane_coords(lattice, _lattice_word(lattice, terms).coords)
        tgt = (0.0,) * grp.dim
        for idx, e in terms:
            tgt = graded.mul(tgt, tuple(e * v for v in images[idx]))
        dist = _scaled_dist(ck, grp, gam, domain_blocks(coupling, samples, seed, _TAG_WORD, i),
                            samples, big, dilate_batch(grp.degrees, 1.0 / big, [tgt]))
        return _convergence_row(n, dist, eps, seed)

    rows = _depth_rows(n_list, row_at)
    return ConvergenceReport(
        experiment="arbitrary-word", rows=rows, seed=seed, eps=eps,
        meta={"coupling": coupling.name,
              "word": ";".join(f"{idx}" for idx, _ in word)},
    )
