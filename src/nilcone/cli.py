"""Command-line front end: configs in, CSV/JSON/SVG artifacts out.

Exit codes: 0 success, 1 structural/config error, 2 assertion failure
(a trend or threshold an experiment was asked to certify did not hold).
Every subcommand accepts --dry-run, which prints the resolved plan and
performs no computation.  Identical configs and seeds produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import reports
from .algebra import StructuralError, builtin_algebra, validate_algebra
from .algebra import NilpotentAlgebraSpec
from .bch import get_group
from .coupling import (
    CouplingSpec,
    IntegrabilityReport,
    builtin_coupling,
    coupling_from_json,
    integrability_estimate,
    verify_coupling,
)
from .derivative import (
    BoxError,
    arbitrary_element_experiment,
    build_phi,
    iterate_diagnostics,
    kappa_grid,
    main_theorem_experiment,
    mean_abelianization,
    parse_schedule,
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

def _parse_int_list(text: str) -> list[int]:
    """--n: ascending depths >= 1."""
    try:
        vals = [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise StructuralError(f"--n {text!r}: not a list of integers") from exc
    if not vals or vals[0] < 1 or any(b <= a for a, b in zip(vals, vals[1:])):
        raise StructuralError(
            f"--n {text!r}: depths must be nonempty, ascending and >= 1")
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
    except ZeroDivisionError:
        raise StructuralError(f"coordinate {tok.strip()!r} has a zero denominator") from None
    except ValueError:
        val = float(tok)
    if not math.isfinite(val):
        raise StructuralError(f"coordinate {tok.strip()!r} is not finite")
    return val


@contextlib.contextmanager
def _naming(flag: str, text, errors=(StructuralError, ValueError, OverflowError)):
    """Name the flag and its value in the errors its value raises."""
    try:
        yield
    except errors as exc:
        raise StructuralError(f"{flag} {text!r}: {exc}") from exc


def _parse_point(group, flag: str, text: str, finite: bool = False) -> tuple:
    """Point syntax: 'e2', 'e1*e2', or comma-separated coordinates; errors
    name the flag.  A finite point (a cone point) must convert to finite
    floats, as the derivative and the float lane read it."""
    grp = get_group(group)
    law = grp.law_group
    with _naming(flag, text):
        if "," in text:
            pt = tuple(_parse_scalar(t) for t in text.split(","))
            if len(pt) != grp.dim:
                raise StructuralError(f"expected {grp.dim} coordinates, got {len(pt)}")
        else:
            pt = law.identity()
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
                e = tuple(Fraction(1 if i == k - 1 else 0) for i in range(grp.dim))
                pt = law.mul(pt, law.inv(e) if neg else e)
        if finite:
            for c in pt:
                float(c)  # OverflowError past the float range
    return pt


def _parse_box(text: str, dim: int):
    with _naming("--box", text):
        pairs = []
        for part in text.split(","):
            lo, _, hi = part.partition(":")
            pair = (_parse_scalar(lo), _parse_scalar(hi))
            for v in pair:
                float(v)  # OverflowError past the float range
            pairs.append(pair)
        if len(pairs) != dim:
            raise StructuralError(f"box needs {dim} lo:hi pairs")
    return tuple(pairs)


# The accepted range of each bounded flag.  An eps or delta of 0 or less
# admits no distance, and a success fraction lies in [0, 1].
_FLAG_RANGES = {
    **dict.fromkeys(("samples", "phi_samples", "triples", "horizon"),
                    (">= 1", lambda v: v >= 1)),
    "seed": (">= 0", lambda v: v >= 0),
    **dict.fromkeys(("eps", "delta"), ("> 0", lambda v: v > 0)),
    "min_success": ("in [0, 1]", lambda v: 0 <= v <= 1),
}


def _require_ranges(args) -> None:
    """Refuse any bounded flag outside its range, naming the flag."""
    for name, (bound, ok) in _FLAG_RANGES.items():
        val = getattr(args, name, None)
        if val is not None and not ok(val):
            raise StructuralError(f"--{name.replace('_', '-')} must be {bound}, got {val}")


def _parse_word(grp, text: str):
    """--word: letter:schedule pairs, a letter e<k>, s<k> or a 0-based index."""
    word = []
    with _naming("--word", text):
        for part in text.split(","):
            tok, _, sched = part.partition(":")
            tok = tok.strip()
            idx = (int(tok[1:]) - 1 if tok[:1] in ("e", "s") and tok[1:].isdigit()
                   else int(tok))
            if not 0 <= idx < 2 * grp.abelian_dim:
                raise StructuralError(f"generator index {idx} out of range")
            word.append((idx, parse_schedule(sched.strip() or "n")))
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


def _add_common(p, seed: bool = False):
    p.add_argument("--dry-run", action="store_true",
                   help="print the resolved plan and exit")
    p.add_argument("--out", default=None,
                   help="artifact directory (default $NILCONE_OUT or ./out)")
    if seed:
        p.add_argument("--seed", type=int, required=True,
                       help="root seed (required, no implicit entropy)")


# ------------------------------------------------------------- subcommands

def _cmd_algebra_check(args) -> int:
    if args.json:
        spec = _read_json("--json", args.json, NilpotentAlgebraSpec.from_json_dict)
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
    x = _parse_point(grp, "--x", args.x)
    if args.op == "mul":
        res = law.mul(x, _parse_point(grp, "--y", args.y))
    elif args.op == "comm":
        res = law.comm(x, _parse_point(grp, "--y", args.y))
    else:
        res = law.pow(x, args.k)
    print(",".join(str(c) for c in res))
    return EXIT_OK


def _cmd_metric_ball(args) -> int:
    lat = builtin_lattice(args.lattice)
    if _emit_plan(args, lattice=lat.name):
        return EXIT_OK
    with _naming("--radius", args.radius, StructuralError):
        prof = ball_profile(lat, args.radius)
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
    with _naming("--radius", args.radius, StructuralError):
        gc = guivarch_constants(lat, args.radius)
    path = reports.write_json(
        _out_dir(args) / f"guivarch_{lat.name}_r{args.radius}.json",
        {"lattice": lat.name, **asdict(gc)})
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
    obj = {"coupling": ver.coupling, "ok": ver.ok,
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
    ma = None
    if args.gamma:  # refused before any artifact is written
        gamma = _parse_point(grp, "--gamma", args.gamma, finite=True)
        with _naming("--gamma", args.gamma, PrecisionLimit):
            ma = mean_abelianization(cp, gamma, args.samples, args.seed)
    reps = []
    for i, s in enumerate(generating_set(grp)):
        label = f"s{i + 1}" if i < grp.abelian_dim else f"s{i - grp.abelian_dim + 1}_inv"
        rep = integrability_estimate(cp, s, args.samples, args.seed, label=label)
        reps.append(rep)
        print(f"{label}: mean |alpha| = {rep.mean:.4f} "
              f"[{rep.ci_low:.4f}, {rep.ci_high:.4f}]")
    path = reports.write_csv(
        _out_dir(args) / f"integrability_{cp.name}_seed{args.seed}.csv",
        *IntegrabilityReport.csv_rows(reps))
    print(f"wrote {path}")
    if ma is not None:
        print("mean abelianization:", ",".join(repr(v) for v in ma.vector))
    return EXIT_OK


def _cmd_derivative_phi(args) -> int:
    cp = _load_coupling(args.coupling)
    if _emit_plan(args, coupling=cp.name):
        return EXIT_OK
    grp = cp.ambient()
    g = _parse_point(grp, "--g", args.g, finite=True) if args.g else None
    deriv = build_phi(cp, args.samples, args.seed, side=args.side)
    img = None if g is None else phi_apply(deriv, g).coords
    if img is not None and not all(math.isfinite(c) for c in img):
        raise StructuralError(f"--g {args.g!r}: its image {img} is not finite")
    path = reports.write_json(
        _out_dir(args) / f"phi_{cp.name}_{args.side}_seed{args.seed}.json",
        asdict(deriv.table))
    print(f"wrote {path}")
    for i, e in enumerate(deriv.table.entries):
        print(f"gen {i}: {[round(v, 6) for v in e]}")
    if img is not None:
        print("phi(g):", ",".join(repr(c) for c in img))
    return EXIT_OK


def _cmd_derivative_kappa(args) -> int:
    cp = _load_coupling(args.coupling)
    for flag, val in (("--radius", args.radius), ("--grid-step", args.grid_step)):
        if not val > 0:
            raise StructuralError(f"{flag} must be > 0, got {val}")
    if _emit_plan(args, coupling=cp.name):
        return EXIT_OK
    n_list = _parse_int_list(args.n)
    deriv = build_phi(cp, args.phi_samples, args.seed)
    rep = kappa_grid(cp, deriv, args.samples, n_list,
                     args.radius, args.grid_step, args.seed, eps=args.eps)
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
    grp = cp.ambient()
    args.box = ",".join(["0:0.5"] * grp.dim) if args.box is None else args.box
    if _emit_plan(args, coupling=cp.name):
        return EXIT_OK
    box = _parse_box(args.box, grp.dim)
    g = _parse_point(grp, "--g", args.g, finite=True)
    with _naming("--g", args.g, PrecisionLimit), _naming("--box", args.box, BoxError):
        rep = recurrence_search(cp, g, args.delta, box, args.horizon,
                                args.samples, args.seed)
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
    g = _parse_point(grp, "--g", args.g, finite=True)
    target = (_parse_point(grp, "--target", args.target, finite=True)
              if args.target else None)
    n_list = _parse_int_list(args.n)
    deriv = build_phi(cp, args.phi_samples, args.seed)
    with _naming("--g", args.g, PrecisionLimit):
        rep = main_theorem_experiment(
            cp, deriv, g, n_list, args.eps, args.samples, args.seed, target=target)
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
    gamma = _parse_point(grp, "--gamma", args.gamma, finite=True)
    n_list = _parse_int_list(args.n)
    with _naming("--gamma", args.gamma, PrecisionLimit):
        rep = iterate_diagnostics(cp, gamma, n_list, args.samples, args.seed)
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
    word = _parse_word(cp.ambient(), args.word)
    rep = arbitrary_element_experiment(cp, word, _parse_int_list(args.n),
                                       args.samples, args.seed, eps=args.eps)
    header, rows = rep.csv_rows()
    stem = f"arbitrary-word_{cp.name}_seed{args.seed}"
    path = reports.write_csv(_out_dir(args) / f"{stem}.csv", header, rows)
    print(f"wrote {path}")
    for r in rep.rows:
        print(f"n={r.n} fraction={r.fraction_within_eps} "
              f"median={r.median_proxy_dist}")
    if not rep.medians_decreasing_or_flat():
        raise AssertionFailed("normalized word medians are not decreasing")
    return EXIT_OK


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


# The JSON type a config value must have, by the argparse type of the flag
# it sets: a float flag also takes an integer.
_JSON_TYPES = {None: (str, "string"), int: (int, "integer"),
               _finite_float: ((int, float), "number")}


def _config_value(key: str, val, action):
    """A config value as the type of the flag it sets, refusing any other."""
    allowed, kind = _JSON_TYPES[action.type]
    if (isinstance(val, bool) or not isinstance(val, allowed)
            or kind == "number" and not math.isfinite(val)):
        raise StructuralError(f"config key {key!r} must be a finite JSON "
                              f"{kind}, got {val!r}")
    return float(val) if kind == "number" else val


def _cmd_run(flags: dict, args) -> int:
    """flags holds the action declaring each flag of run (an experiment
    subcommand's, or run's own --experiment): a config value must have its
    type, and its default fills a flag still unset."""
    if args.config:
        cfg = _read_json("--config", args.config)
        if not isinstance(cfg, dict):
            raise StructuralError("config must be a JSON object")
        for key, val in cfg.items():
            attr = key.replace("-", "_")
            if attr not in flags:
                raise StructuralError(f"unknown config key {key!r}")
            if getattr(args, attr) is None:
                setattr(args, attr, _config_value(key, val, flags[attr]))
    for attr, action in flags.items():
        if getattr(args, attr) is None:
            setattr(args, attr, action.default)
    if args.seed is None:
        raise StructuralError("seed is required (no implicit entropy)")
    if args.experiment is not None and args.experiment not in _EXPERIMENTS:
        raise StructuralError(f"unknown experiment {args.experiment!r}")
    missing = [k for k in ("coupling", "experiment") if not getattr(args, k)]
    if missing:
        raise StructuralError(f"missing config keys: {', '.join(missing)}")
    _require_ranges(args)  # the config's values too
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
    p.add_argument("--box", default=None, help="default 0:0.5 per coordinate")
    p.add_argument("--horizon", type=int, default=256)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--min-success", type=_finite_float, default=0.0)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_derivative_recurrence)

    ex_sub = _group(sub, "experiment")
    run_flags = {}  # each experiment flag's action, by dest: run takes them all
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
        for a in p._actions:
            if a.option_strings and a.dest not in ("help", "dry_run"):
                run_flags.setdefault(a.dest, a)

    # run's flags are unset (None) until the config and then the
    # experiment defaults fill them
    p = sub.add_parser("run",
                       help="config-driven experiment run")
    p.add_argument("--config", default=None, help="RunConfig JSON file")
    for a in run_flags.values():
        p.add_argument(*a.option_strings, default=None, type=a.type, help=a.help)
    run_flags["experiment"] = p.add_argument("--experiment", default=None)
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=functools.partial(_cmd_run, run_flags))

    return root


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_ERROR
    try:
        _require_ranges(args)
        return args.func(args)
    except AssertionFailed as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except (CapExceeded, MemoryError, OSError, ValueError, KeyError,
            OverflowError) as exc:  # StructuralError is a ValueError too
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
