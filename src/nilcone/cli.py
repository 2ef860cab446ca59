"""Command-line front end: configs in, CSV/JSON/SVG artifacts out.

Exit codes: 0 success, 1 structural/config error, 2 assertion failure
(a trend or threshold an experiment was asked to certify did not hold).
Every subcommand accepts --dry-run, which prints the resolved plan and
performs no computation.  Identical configs and seeds produce
byte-identical artifacts; the worker count is part of the config (it
shapes the sample stream), so it defaults to a fixed 4 rather than to
machine parallelism.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import reports
from .algebra import StructuralError, builtin_algebra, validate_algebra
from .algebra import NilpotentAlgebraSpec
from .bch import get_group
from .coupling import (
    DEFAULT_WORKERS,
    CouplingSpec,
    builtin_coupling,
    coupling_from_json,
    integrability_estimate,
    verify_coupling,
)
from .derivative import (
    arbitrary_element_experiment,
    build_phi,
    iterate_diagnostics,
    kappa_grid,
    main_theorem_experiment,
    mean_abelianization,
    phi_apply,
    recurrence_search,
)
from .geometry import generating_set
from .wordmetric import (
    CapExceeded,
    PrecisionLimit,
    ball_profile,
    builtin_lattice,
    guivarch_constants,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ASSERTION = 2


class AssertionFailed(RuntimeError):
    """An experiment-level trend or threshold did not hold."""


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


# ------------------------------------------------------------- arg parsing

def _parse_int_list(spec) -> list[int]:
    try:
        if isinstance(spec, str):
            vals = [int(t) for t in spec.split(",") if t.strip()]
        else:
            vals = [int(v) for v in spec]
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"bad integer list {spec!r}") from exc
    if not vals or vals[0] < 1 or any(b <= a for a, b in zip(vals, vals[1:])):
        raise StructuralError(
            f"n list must be nonempty, ascending and >= 1, got {spec!r}")
    return vals


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a threshold must be finite."""
    val = float(text)
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return val


def _parse_scalar(tok: str):
    try:
        return Fraction(tok)
    except ValueError:
        val = float(tok)
    if not math.isfinite(val):
        raise StructuralError(f"coordinate {tok.strip()!r} is not finite")
    return val


def _parse_point(group, text: str) -> tuple:
    """Point syntax: 'e2', 'e1*e2', or comma-separated coordinates."""
    grp = get_group(group)
    law = grp.law_group
    text = text.strip()
    if "," in text:
        coords = tuple(_parse_scalar(t) for t in text.split(","))
        if len(coords) != grp.dim:
            raise StructuralError(
                f"expected {grp.dim} coordinates, got {len(coords)}")
        return coords
    acc = law.identity()
    for tok in text.split("*"):
        tok = tok.strip()
        neg = tok.startswith("-")
        if neg:
            tok = tok[1:]
        if not (tok.startswith("e") and tok[1:].isdigit()):
            raise StructuralError(f"bad point token {tok!r}")
        k = int(tok[1:])
        if not 1 <= k <= grp.dim:
            raise StructuralError(f"basis index {k} out of range")
        pt = tuple(Fraction(1 if i == k - 1 else 0) for i in range(grp.dim))
        if neg:
            pt = law.inv(pt)
        acc = law.mul(acc, pt)
    return acc


def _parse_g(group, text: str) -> tuple:
    """Parse a --g cone point, naming it on failure; its coordinates must
    convert to finite floats, as the derivative and the float lane read them."""
    try:
        g = _parse_point(group, text)
        for c in g:
            float(c)  # OverflowError past the float range
    except (StructuralError, ValueError, OverflowError) as exc:
        raise StructuralError(f"--g {text!r}: {exc}") from exc
    return g


@contextlib.contextmanager
def _naming_g(text: str):
    """Name --g and its value when its approximants pass the float lane's limit."""
    try:
        yield
    except PrecisionLimit as exc:
        raise StructuralError(f"--g {text!r}: {exc}") from exc


def _parse_box(text: str, dim: int):
    pairs = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        pairs.append((_parse_scalar(lo), _parse_scalar(hi)))
    if len(pairs) != dim:
        raise StructuralError(f"box needs {dim} lo:hi pairs")
    return tuple(pairs)


def _parse_word(text: str):
    word = []
    for part in text.split(","):
        tok, _, sched = part.partition(":")
        tok = tok.strip()
        idx = int(tok[1:]) - 1 if tok[:1] in ("e", "s") and tok[1:].isdigit() else int(tok)
        word.append((idx, sched.strip() or "n"))
    return word


def _read_json(flag: str, path: str, parse=lambda obj: obj):
    """The JSON document at path, passed through parse; errors name flag and path."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, ValueError, StructuralError) as exc:
        raise StructuralError(f"{flag} {path!r}: {exc}") from exc


def _load_coupling(ref: str) -> CouplingSpec:
    if ref.endswith(".json") or Path(ref).is_file():
        return _read_json("--coupling", ref, coupling_from_json)
    return builtin_coupling(ref)


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("NILCONE_OUT")
    return Path(env) if env else Path("out")


def _plan(args, **extra) -> dict:
    plan = {k: v for k, v in vars(args).items()
            if k not in ("func", "dry_run") and v is not None}
    plan.update(extra)
    return {k: (str(v) if isinstance(v, Path) else v)
            for k, v in sorted(plan.items())}


def _emit_plan(args, **extra) -> bool:
    if getattr(args, "dry_run", False):
        print("plan " + json.dumps(_plan(args, **extra), sort_keys=True))
        return True
    return False


def _add_common(p, seed: bool = False, workers: bool = True):
    p.add_argument("--dry-run", action="store_true",
                   help="print the resolved plan and exit")
    p.add_argument("--out", default=None,
                   help="artifact directory (default $NILCONE_OUT or ./out)")
    if workers:
        p.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                       help="worker streams shaping the sample split")
    if seed:
        p.add_argument("--seed", type=int, required=True,
                       help="root seed (required, no implicit entropy)")


# ------------------------------------------------------------- subcommands

def _cmd_algebra_check(args) -> int:
    if args.json:
        spec = NilpotentAlgebraSpec.from_json(
            Path(args.json).read_text(encoding="utf-8"))
    else:
        spec = builtin_algebra(args.algebra)
    if _emit_plan(args, algebra=spec.name):
        return EXIT_OK
    report = validate_algebra(spec)
    print(f"algebra {spec.name}: dim {report.dim}, step {report.step}")
    for msg in report.messages:
        print(msg)
    if not report.ok:
        return EXIT_ASSERTION
    print("ok")
    return EXIT_OK


def _cmd_group(args) -> int:
    grp = get_group(args.group)
    law = grp.law(args.law)
    if _emit_plan(args):
        return EXIT_OK
    x = _parse_point(grp, args.x)
    if args.op == "mul":
        res = law.mul(x, _parse_point(grp, args.y))
    elif args.op == "comm":
        res = law.comm(x, _parse_point(grp, args.y))
    else:
        res = law.pow(x, args.k)
    print(",".join(str(c) for c in res))
    return EXIT_OK


def _at_radius(query, lat, radius: int):
    """Run a ball query; a radius it refuses is reported as the flag's."""
    try:
        return query(lat, radius)
    except StructuralError as exc:
        raise StructuralError(f"--radius {radius}: {exc}") from None


def _cmd_metric_ball(args) -> int:
    lat = builtin_lattice(args.lattice)
    if _emit_plan(args, lattice=lat.name):
        return EXIT_OK
    prof = _at_radius(ball_profile, lat, args.radius)
    header, rows = prof.csv_rows()
    path = reports.write_csv(
        _out_dir(args) / f"ball_{lat.name}_r{args.radius}.csv", header, rows)
    print(f"wrote {path}")
    print(f"ball sizes: {prof.sizes()}")
    return EXIT_OK


def _cmd_metric_guivarch(args) -> int:
    lat = builtin_lattice(args.lattice)
    if _emit_plan(args, lattice=lat.name):
        return EXIT_OK
    gc = _at_radius(guivarch_constants, lat, args.radius)
    obj = {"lattice": lat.name, "radius": args.radius, "c_low": gc.c_low,
           "c_high": gc.c_high, "com_ratio": gc.com_ratio}
    path = reports.write_json(
        _out_dir(args) / f"guivarch_{lat.name}_r{args.radius}.json", obj)
    print(f"wrote {path}")
    print(f"c_low={gc.c_low} c_high={gc.c_high} com_ratio={gc.com_ratio}")
    return EXIT_OK


def _cmd_coupling_verify(args) -> int:
    cp = _load_coupling(args.coupling)
    if _emit_plan(args, coupling=cp.name):
        return EXIT_OK
    ver = verify_coupling(cp, samples=args.samples, seed=args.seed,
                          triple_count=args.triples)
    for name, ok, detail in ver.checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    obj = {"coupling": cp.name, "ok": ver.ok,
           "checks": [{"name": n, "ok": o, "detail": d}
                      for n, o, d in ver.checks]}
    path = reports.write_json(
        _out_dir(args) / f"verify_{cp.name}_seed{args.seed}.json", obj)
    print(f"wrote {path}")
    return EXIT_OK if ver.ok else EXIT_ASSERTION


def _cmd_derivative_estimate(args) -> int:
    cp = _load_coupling(args.coupling)
    if _emit_plan(args, coupling=cp.name):
        return EXIT_OK
    grp = cp.ambient()
    gens = generating_set(grp)
    header = ["generator", "mean_norm", "ci_low", "ci_high", "samples", "seed"]
    rows = []
    for i, s in enumerate(gens):
        label = f"s{i + 1}" if i < grp.abelian_dim else f"s{i - grp.abelian_dim + 1}_inv"
        rep = integrability_estimate(cp, s, args.samples, args.seed,
                                     args.workers, label=label)
        rows.append(rep.csv_row())
        print(f"{label}: mean |alpha| = {rep.mean:.4f} "
              f"[{rep.ci_low:.4f}, {rep.ci_high:.4f}]")
    path = reports.write_csv(
        _out_dir(args) / f"integrability_{cp.name}_seed{args.seed}.csv",
        header, rows)
    print(f"wrote {path}")
    if args.gamma:
        ma = mean_abelianization(cp, _parse_point(grp, args.gamma),
                                 args.samples, args.seed, args.workers)
        print("mean abelianization:",
              ",".join(repr(v) for v in ma.vector))
    return EXIT_OK


def _cmd_derivative_phi(args) -> int:
    cp = _load_coupling(args.coupling)
    if _emit_plan(args, coupling=cp.name):
        return EXIT_OK
    grp = cp.ambient()
    g = _parse_g(grp, args.g) if args.g else None
    deriv = build_phi(cp, args.samples, args.seed, args.workers,
                      side=args.side)
    img = None if g is None else phi_apply(deriv, g).coords
    if img is not None and not all(math.isfinite(c) for c in img):
        raise StructuralError(f"--g {args.g!r}: its image {img} is not finite")
    obj = {
        "coupling": cp.name,
        "side": args.side,
        "samples": args.samples,
        "seed": args.seed,
        "entries": [list(e) for e in deriv.table.entries],
        "cis": [list(c) for c in deriv.table.cis],
    }
    path = reports.write_json(
        _out_dir(args) / f"phi_{cp.name}_{args.side}_seed{args.seed}.json", obj)
    print(f"wrote {path}")
    for i, e in enumerate(deriv.table.entries):
        print(f"gen {i}: {[round(v, 6) for v in e]}")
    if img is not None:
        print("phi(g):", ",".join(repr(c) for c in img))
    return EXIT_OK


def _cmd_derivative_kappa(args) -> int:
    cp = _load_coupling(args.coupling)
    if _emit_plan(args, coupling=cp.name):
        return EXIT_OK
    deriv = build_phi(cp, args.phi_samples, args.seed, args.workers)
    rep = kappa_grid(cp, deriv, args.samples, _parse_int_list(args.n),
                     args.radius, args.grid_step, args.seed, eps=args.eps,
                     workers=args.workers)
    header, rows = rep.csv_rows()
    path = reports.write_csv(
        _out_dir(args) / f"kappa_{cp.name}_seed{args.seed}.csv", header, rows)
    print(f"wrote {path} (grid size {rep.grid_size})")
    for r in rep.rows:
        print(f"n={r.n} fraction={r.fraction_within_eps} "
              f"median_sup={r.median_proxy_dist}")
    if not (rep.threshold_ok() and rep.monotone_ok()):
        raise AssertionFailed("kappa sup-distance trend/threshold violated")
    return EXIT_OK


def _cmd_derivative_recurrence(args) -> int:
    cp = _load_coupling(args.coupling)
    if _emit_plan(args, coupling=cp.name):
        return EXIT_OK
    grp = cp.ambient()
    box = _parse_box(args.box, grp.dim)
    with _naming_g(args.g):
        rep = recurrence_search(cp, _parse_g(grp, args.g), args.delta, box,
                                args.horizon, args.samples, args.seed)
    header, rows = rep.csv_rows()
    path = reports.write_csv(
        _out_dir(args) / f"recurrence_{cp.name}_seed{args.seed}.csv",
        header, rows)
    print(f"wrote {path}")
    print(f"success fraction {rep.success_fraction} over {rep.samples} samples")
    if rep.success_fraction < args.min_success:
        raise AssertionFailed(
            f"recurrence success {rep.success_fraction} < {args.min_success}")
    return EXIT_OK


def _run_main_theorem(args, cp: CouplingSpec) -> int:
    grp = cp.ambient()
    g = _parse_g(grp, args.g)
    deriv = build_phi(cp, args.phi_samples, args.seed, args.workers)
    target = None
    if args.target:
        target = tuple(_parse_scalar(t) for t in args.target.split(","))
    with _naming_g(args.g):
        rep = main_theorem_experiment(
            cp, deriv, g, _parse_int_list(args.n), args.eps, args.samples,
            args.seed, args.workers, target=target)
    header, rows = rep.csv_rows()
    stem = f"main-theorem_{cp.name}_seed{args.seed}"
    path = reports.write_csv(_out_dir(args) / f"{stem}.csv", header, rows)
    reports.write_json(_out_dir(args) / f"{stem}.json", rep.summary())
    reports.write_svg(_out_dir(args) / f"{stem}.svg",
                      [r.n for r in rep.rows], rep.fractions(),
                      title="fraction within eps")
    print(f"wrote {path}")
    for r in rep.rows:
        print(f"n={r.n} fraction={r.fraction_within_eps} "
              f"median={r.median_proxy_dist}")
    if not (rep.threshold_ok() and rep.monotone_ok()):
        raise AssertionFailed("acceptance fraction trend/threshold violated")
    return EXIT_OK


def _run_iterates(args, cp: CouplingSpec) -> int:
    grp = cp.ambient()
    gamma = _parse_point(grp, args.gamma)
    rep = iterate_diagnostics(cp, gamma, _parse_int_list(args.n),
                              args.samples, args.seed, args.workers)
    header, rows = rep.csv_rows()
    stem = f"iterates_{cp.name}_seed{args.seed}"
    path = reports.write_csv(_out_dir(args) / f"{stem}.csv", header, rows)
    print(f"wrote {path}")
    for r in rep.rows:
        print(f"n={r.n} ab_dev={r.median_ab_dev} com/n={r.median_com_over_n} "
              f"scl_dist={r.median_scl_dist}")
    if not rep.medians_decreasing():
        raise AssertionFailed("iterate medians are not decreasing")
    return EXIT_OK


def _run_arbitrary_word(args, cp: CouplingSpec) -> int:
    word = _parse_word(args.word)
    rep = arbitrary_element_experiment(cp, word, _parse_int_list(args.n),
                                       args.samples, args.seed, eps=args.eps,
                                       workers=args.workers)
    header, rows = rep.csv_rows()
    stem = f"arbitrary-word_{cp.name}_seed{args.seed}"
    path = reports.write_csv(_out_dir(args) / f"{stem}.csv", header, rows)
    print(f"wrote {path}")
    for r in rep.rows:
        print(f"n={r.n} fraction={r.fraction_within_eps} "
              f"median={r.median_proxy_dist}")
    if not strictly_decreasing_or_flat(rep.medians()):
        raise AssertionFailed("normalized word medians are not decreasing")
    return EXIT_OK


def strictly_decreasing_or_flat(vals, tol: float = 1e-12) -> bool:
    return all(b <= a + tol for a, b in zip(vals, vals[1:])) and vals[-1] < vals[0] + tol


_EXPERIMENTS = {
    "main-theorem": _run_main_theorem,
    "iterates": _run_iterates,
    "arbitrary-word": _run_arbitrary_word,
}


def _cmd_experiment(args) -> int:
    cp = _load_coupling(args.coupling)
    if _emit_plan(args, coupling=cp.name, experiment=args.experiment):
        return EXIT_OK
    return _EXPERIMENTS[args.experiment](args, cp)


# The flags of the run command that a config file may also set, with the
# type a config value must have: a float flag also takes an integer.
_RUN_FLAGS = {
    "coupling": str, "experiment": str, "g": str, "gamma": str, "word": str,
    "n": str, "samples": int, "eps": float, "target": str, "phi_samples": int,
    "out": str, "workers": int, "seed": int,
}
_JSON_TYPES = {str: "string", int: "integer", float: "number"}

_RUN_DEFAULTS = {
    "g": "e1",
    "gamma": "e1*e2",
    "word": "e1:n,e2:sqrt",
    "n": "8,16,32,64",
    "samples": 4096,
    "eps": 0.2,
    "phi_samples": 1 << 14,
    "workers": DEFAULT_WORKERS,
}


def _config_value(key: str, val, kind: type):
    """A config value as its flag's type, refusing any other JSON type."""
    allowed = (int, float) if kind is float else kind
    if (isinstance(val, bool) or not isinstance(val, allowed)
            or kind is float and not math.isfinite(val)):
        raise StructuralError(f"config key {key!r} must be a finite JSON "
                              f"{_JSON_TYPES[kind]}, got {val!r}")
    return kind(val)


def _cmd_run(args) -> int:
    if args.config:
        cfg = _read_json("--config", args.config)
        if not isinstance(cfg, dict):
            raise StructuralError("config must be a JSON object")
        for key, val in cfg.items():
            attr = key.replace("-", "_")
            if attr not in _RUN_FLAGS:
                raise StructuralError(f"unknown config key {key!r}")
            if getattr(args, attr) is None:
                setattr(args, attr, _config_value(key, val, _RUN_FLAGS[attr]))
    for attr, default in _RUN_DEFAULTS.items():
        if getattr(args, attr) is None:
            setattr(args, attr, default)
    if args.seed is None:
        raise StructuralError("seed is required (no implicit entropy)")
    if args.experiment is not None and args.experiment not in _EXPERIMENTS:
        raise StructuralError(f"unknown experiment {args.experiment!r}")
    missing = [k for k in ("coupling", "experiment") if not getattr(args, k)]
    if missing:
        raise StructuralError(f"missing config keys: {', '.join(missing)}")
    if args.samples < 1:
        raise StructuralError("samples must be >= 1")
    cp = _load_coupling(args.coupling)
    if _emit_plan(args, coupling=cp.name):
        return EXIT_OK
    return _EXPERIMENTS[args.experiment](args, cp)


# ------------------------------------------------------------ parser tree

def _group(sub, name: str):
    """A subcommand group: the subparsers of command name."""
    return sub.add_parser(name).add_subparsers(dest="subcommand", required=True,
                                               parser_class=_Parser)


def build_parser() -> _Parser:
    root = _Parser(prog="nilcone",
                   description="cocycle geometry experiments over nilpotent groups")
    sub = root.add_subparsers(dest="command", required=True,
                              parser_class=_Parser)

    alg_sub = _group(sub, "algebra")
    p = alg_sub.add_parser("check",
                           help="validate an algebra presentation")
    p.add_argument("--algebra", default="heisenberg3")
    p.add_argument("--json", default=None, help="presentation JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_algebra_check)

    grp_sub = _group(sub, "group")
    for op in ("mul", "pow", "comm"):
        p = grp_sub.add_parser(op,
                               help=f"group {op} in exact coordinates")
        p.add_argument("--group", default="heisenberg3")
        p.add_argument("--law", choices=("group", "graded"), default="group")
        p.add_argument("--x", required=True, help="point (e1, e1*e2, or coords)")
        if op == "pow":
            p.add_argument("--k", type=int, required=True)
        else:
            p.add_argument("--y", required=True)
        _add_common(p)
        p.set_defaults(func=_cmd_group, op=op)

    met_sub = _group(sub, "metric")
    p = met_sub.add_parser("ball",
                           help="word-metric ball profile CSV")
    p.add_argument("--lattice", default="heisenberg3")
    p.add_argument("--radius", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=_cmd_metric_ball)
    p = met_sub.add_parser("guivarch",
                           help="word metric vs quasi-norm sandwich constants")
    p.add_argument("--lattice", default="heisenberg3")
    p.add_argument("--radius", type=int, default=12)
    _add_common(p)
    p.set_defaults(func=_cmd_metric_guivarch)

    cp_sub = _group(sub, "coupling")
    p = cp_sub.add_parser("verify",
                          help="structural checks on a coupling")
    p.add_argument("--coupling", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--triples", type=int, default=200)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_coupling_verify)

    dv_sub = _group(sub, "derivative")
    p = dv_sub.add_parser("estimate",
                          help="integrability and mean abelianization")
    p.add_argument("--coupling", required=True)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--gamma", default=None)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_derivative_estimate)
    p = dv_sub.add_parser("phi",
                          help="estimate the derivative map")
    p.add_argument("--coupling", required=True)
    p.add_argument("--samples", type=int, default=1 << 14)
    p.add_argument("--side", choices=("alpha", "beta"), default="alpha")
    p.add_argument("--g", default=None, help="optionally apply to this point")
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_derivative_phi)
    p = dv_sub.add_parser("kappa",
                          help="sup-distance grids for the rescaled cocycle")
    p.add_argument("--coupling", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--phi-samples", type=int, default=1 << 14)
    p.add_argument("--n", default="8,16,32,64")
    p.add_argument("--radius", type=_finite_float, default=2.0)
    p.add_argument("--grid-step", type=_finite_float, default=0.5)
    p.add_argument("--eps", type=_finite_float, default=0.3)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_derivative_kappa)
    p = dv_sub.add_parser("recurrence",
                          help="lattice return-time search near a cone point")
    p.add_argument("--coupling", required=True)
    p.add_argument("--g", default="e1")
    p.add_argument("--delta", type=_finite_float, default=0.3)
    p.add_argument("--box", default="0:0.5,0:0.5,0:0.5")
    p.add_argument("--horizon", type=int, default=256)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--min-success", type=_finite_float, default=0.0)
    # recurrence_search draws every sample from one stream
    _add_common(p, seed=True, workers=False)
    p.set_defaults(func=_cmd_derivative_recurrence)

    ex_sub = _group(sub, "experiment")
    for name in ("main-theorem", "iterates", "arbitrary-word"):
        p = ex_sub.add_parser(name,
                              help=f"run the {name} experiment")
        p.add_argument("--coupling", required=True)
        p.add_argument("--n", default="8,16,32,64")
        p.add_argument("--samples", type=int, default=4096)
        if name == "main-theorem":
            p.add_argument("--g", default="e1")
            p.add_argument("--eps", type=_finite_float, default=0.2)
            p.add_argument("--target", default=None,
                           help="override target coords (control runs)")
            p.add_argument("--phi-samples", type=int, default=1 << 14)
        elif name == "iterates":
            p.add_argument("--gamma", default="e1*e2")
        else:
            p.add_argument("--word", default="e1:n,e2:sqrt")
            p.add_argument("--eps", type=_finite_float, default=0.2)
        _add_common(p, seed=True)
        p.set_defaults(func=_cmd_experiment, experiment=name)

    p = sub.add_parser("run",
                       help="config-driven experiment run")
    p.add_argument("--config", default=None, help="RunConfig JSON file")
    for dest, kind in _RUN_FLAGS.items():
        p.add_argument("--" + dest.replace("_", "-"), default=None,
                       type={str: None, float: _finite_float}.get(kind, kind))
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=_cmd_run)

    return root


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_ERROR
    try:
        return args.func(args)
    except AssertionFailed as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except (StructuralError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, ValueError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
