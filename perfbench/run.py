"""Run one benchmark workload in this process and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload main-theorem --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the current directory, never
from anywhere else; without it the run stops with exit code 2.  The run
sets the package up several times (each time on a fresh import, so every
module cache starts empty), makes its once-per-run checks, then repeats
whole rounds of the workload's operations until ``--seconds`` have
passed.  With ``--trace 1`` it spends the first half of that time on
untraced rounds, then sets up again with every public nilcone function
wrapped and reports the per-layer metrics instead of the end-to-end
ones.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, the run manifest and the trace go
to ``.perfbench_out/<workload>-seed<seed>-trace<trace>/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path

_PROCESS_T0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import tracer as tracing  # noqa: E402
from perfbench.workloads import GOLDEN_PREFIXES, WORKLOADS, Checks, Tally  # noqa: E402

SETUPS_PER_ROUND = 2
SETUP_SPANS = ("bch.get_group", "algebra.gradation")
MODULES = ("algebra", "bch", "cli", "coupling", "derivative", "geometry",
           "kernels", "ratlin", "reports", "wordmetric")
LAYERS = tuple(m for m in MODULES if m != "cli")  # cli runs only in checks


def fresh_package(src: Path) -> types.SimpleNamespace:
    """Import nilcone anew: drop every nilcone module, then import them all."""
    for name in [m for m in sys.modules if m == "nilcone" or m.startswith("nilcone.")]:
        del sys.modules[name]
    pkg = importlib.import_module("nilcone")
    if Path(pkg.__file__).resolve().parent != (src / "nilcone").resolve():
        raise SystemExit(f"nilcone imported from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(
        package=pkg, **{m: importlib.import_module(f"nilcone.{m}") for m in MODULES})


def setup_once(wl, src: Path, tracer=None) -> float:
    """One cold set-up on a fresh import; returns its wall time."""
    if wl.nc is not None:
        wl.nc.wordmetric._BALL_CACHES.clear()
        wl.nc = None
    gc.collect()
    t0 = time.perf_counter()
    nc = fresh_package(src)
    if tracer is not None:
        tracer.wrapped = tracing.install(
            tracer, [nc.package] + [getattr(nc, m) for m in MODULES])
    wl.setup(nc)
    return time.perf_counter() - t0


@dataclass
class Round:
    setup_s: list
    run_s: float
    tally: Tally
    setup_spans: dict


def run_rounds(wl, src, checks, seconds, started, tracer=None) -> list[Round]:
    """Whole rounds, each on fresh set-ups, until seconds have passed.

    With a tracer, the last set-up of each round and the round itself
    are traced; the set-up's spans are kept apart from the round's.
    """
    rounds = []
    while True:
        setups = [setup_once(wl, src) for _ in range(SETUPS_PER_ROUND - 1)]
        if tracer is not None:
            tracer.reset()
        setups.append(setup_once(wl, src, tracer))
        spans = {}
        if tracer is not None:
            spans = {s: tracer.inclusive_s(s) for s in SETUP_SPANS}
            tracer.reset()
        tally = Tally()
        t0 = time.perf_counter()
        wl.round(tally, checks)
        rounds.append(Round(setups, time.perf_counter() - t0, tally, spans))
        if time.perf_counter() - started >= seconds:
            return rounds


def end_to_end(setups, rounds) -> dict:
    # The mean, not the median: the host alternates between a fast and a
    # slow speed in phases as long as a run, and a median over a few
    # rounds snaps to one speed where the mean weighs both by their time.
    run_s = statistics.fmean(r.run_s for r in rounds)
    last = rounds[-1].tally
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "MiB"),
        "cocycle_rows_per_s": (last.rows / run_s, "rows/s"),
        "exact_checks_per_s": (last.exact_checks / run_s, "checks/s"),
        "ball_states_per_s": (last.ball_states / run_s, "states/s"),
    }


def per_layer(tr, untraced, traced, wl) -> dict:
    """Layer metrics of the last traced round and of its set-up."""
    last = traced[-1]
    tally = last.tally
    c = tr.counters

    def calls(span):
        return (tr.calls(span), "count")

    def per_call_us(span):
        n = tr.calls(span)
        return (tr.inclusive_s(span) / n * 1e6 if n else 0.0, "us")

    def seconds(*spans):
        return (sum(tr.inclusive_s(s) for s in spans), "s")

    def mrows_per_s(span):
        t = tr.inclusive_s(span)
        return (c.get(span + ":rows", 0) / t / 1e6 if t else 0.0, "Mrows/s")

    ball_s = tr.inclusive_s("wordmetric.ball_profile")
    bch_calls = tr.calls("kernels.bch_batch")
    m = {
        "bch.mul_exact_calls": calls("bch.GroupLaw.mul[exact]"),
        "bch.mul_exact_us": per_call_us("bch.GroupLaw.mul[exact]"),
        "bch.mul_float_calls": calls("bch.GroupLaw.mul[float]"),
        "bch.mul_float_us": per_call_us("bch.GroupLaw.mul[float]"),
        "bch.get_group_s": (last.setup_spans["bch.get_group"], "s"),
        "algebra.gradation_s": (last.setup_spans["algebra.gradation"], "s"),
        "ratlin.mat_inv_calls": calls("ratlin.mat_inv"),
        "ratlin.rref_calls": calls("ratlin.rref"),
        "wordmetric.bfs_states": (tally.cache_states, "count"),
        "wordmetric.bfs_states_per_s": (tally.cache_states / ball_s if ball_s else 0.0,
                                        "states/s"),
        "wordmetric.bytes_per_state": (wl.bytes_per_state, "B/state"),
        "wordmetric.right_peel_calls": calls("wordmetric.right_peel"),
        "wordmetric.right_peel_us": per_call_us("wordmetric.right_peel"),
        "wordmetric.member_calls": calls("wordmetric.member"),
        "wordmetric.guivarch_s": seconds("wordmetric.guivarch_constants"),
        "coupling.alpha_calls": calls("coupling.alpha"),
        "coupling.alpha_us": per_call_us("coupling.alpha"),
        "coupling.reduce_to_domain_us": per_call_us("coupling.reduce_to_domain"),
        "coupling.domain_samples_mrows_per_s": mrows_per_s("coupling.domain_samples"),
        "kernels.bch_batch_rows": (c.get("kernels.bch_batch:rows", 0), "count"),
        "kernels.bch_batch_mrows_per_s": mrows_per_s("kernels.bch_batch"),
        "kernels.reduce_batch_rows": (c.get("kernels.reduce_batch:rows", 0), "count"),
        "kernels.reduce_batch_mrows_per_s": mrows_per_s("kernels.reduce_batch"),
        "kernels.fold_digits_mrows_per_s": mrows_per_s("kernels.fold_digits"),
        "kernels.translate_batch_calls": calls("kernels.translate_batch"),
        "kernels.rows_per_call": (c.get("kernels.bch_batch:rows", 0) / bch_calls
                                  if bch_calls else 0.0, "count"),
        "geometry.factorization_calls": calls("geometry.horizontal_factorization"),
        "geometry.factorization_us": per_call_us("geometry.horizontal_factorization"),
        "derivative.phi_apply_calls": calls("derivative.phi_apply"),
        "derivative.phi_apply_us": per_call_us("derivative.phi_apply"),
        "derivative.build_phi_s": seconds("derivative.build_phi"),
        "derivative.gamma_sequence_s": seconds("derivative.gamma_sequence"),
        "reports.bytes_written": (c.get("reports:bytes", 0), "B"),
        "reports.write_s": seconds("reports.write_csv", "reports.write_json",
                                   "reports.write_svg"),
    }
    self_s = tr.self_s_by_layer()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    top = sum(e[1] for (parent, _), e in tr.edges.items() if parent == "") / 1e9
    m["perfbench.self_s"] = (last.run_s - top, "s")
    traced_s = statistics.median(r.run_s for r in traced)
    m["trace.run_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - statistics.median(r.run_s for r in untraced), "s")
    m["trace.wrapped_functions"] = (tr.wrapped, "count")
    return m


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def numba_imports() -> bool:
    if importlib.util.find_spec("numba") is None:
        return False
    try:
        importlib.import_module("numba")
    except Exception:  # any import failure means the lane cannot run
        return False
    return True


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "nilcone" / "__init__.py").is_file():
        print(f"error: no nilcone package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  imported once, outside every set-up

    out_dir = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, out_dir)

    # A traced run makes its once-per-run checks traced too, so that the
    # golden run shows that tracing leaves the artifacts' bytes alone.
    tr = tracing.Tracer() if args.trace else None
    setups = [setup_once(wl, src, tr)]
    first_op_s = time.perf_counter() - _PROCESS_T0
    checks = Checks()
    wl.verify(checks)

    started = time.perf_counter()
    trace_dump = None
    if not args.trace:
        rounds = run_rounds(wl, src, checks, args.seconds, started)
        metrics = end_to_end(setups + [t for r in rounds for t in r.setup_s], rounds)
    else:
        untraced = run_rounds(wl, src, checks, args.seconds / 2, started)
        traced = run_rounds(wl, src, checks, args.seconds, started, tr)
        metrics = per_layer(tr, untraced, traced, wl)
        trace_dump = tr.dump()
        rounds = untraced + traced

    setups += [t for r in rounds for t in r.setup_s]
    attempted = sum(r.tally.attempted for r in rounds)
    failed = sum(r.tally.failed for r in rounds)
    errors = sorted({e for r in rounds for e in r.tally.errors})
    result = {
        "correct": checks.failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_imports": numba_imports(),
        "seeds": wl.seeds,
        "attempted": attempted,
        "failed": failed,
        "failed_operations": errors,
        "checks_passed": checks.passed,
        "checks_failed": checks.failed,
        "check_failures": checks.failures,
        "setup_s": setups,
        "process_to_first_operation_s": first_op_s,
        "round_s": [r.run_s for r in rounds],
        "golden_sha256_prefixes": wl.golden,
        "notes": wl.notes,
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if trace_dump is not None:
        (out_dir / "trace.json").write_text(json.dumps(trace_dump, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} operations attempted {attempted} failed {failed} "
          f"over {len(rounds)} rounds")
    for e in errors:
        print(f"  failed operation: {e}")
    if wl.golden:
        same = wl.golden == GOLDEN_PREFIXES
        print(f"golden sha256 prefixes {wl.golden} "
              f"({'as recorded' if same else 'CHANGED from the recorded ones'})")
    print(f"checks passed {checks.passed} failed {checks.failed}")
    for f in checks.failures:
        print(f"  check failed: {f}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
