"""Reference figures for the baseline quantities listed in ROADMAP.md.

Usage, from the root of a checkout:

    python3 perfbench/reference.py

Measures, with the package imported from ``src/``: exact
``GroupLaw.mul`` per call on four groups, ``bch_batch`` and
``reduce_batch`` throughput at 200,000 rows (the figures of
``benchmarks/bench_kernels.py``), the cold heisenberg3 Cayley ball at
radius 24 with its Guivarc'h constants, and ``nilcone derivative kappa``
with default flags on engel-identity (over a minute).  Prints one line
per figure and, last, all of them as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import rss_bytes  # noqa: E402


def _best_of(fn, repeats=5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def exact_mul_us(bch, group: str, pairs: int = 2000) -> float:
    law = bch.get_group(group).law_group
    rng = random.Random(7)
    args = [tuple(tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 6))
                        for _ in range(law.dim)) for _ in range(2))
            for _ in range(pairs)]

    def run():
        for a, b in args:
            law.mul(a, b)
    return statistics.median(_best_of(run, 1) for _ in range(5)) / pairs * 1e6


def kernel_mrows_per_s(np, nc, rows: int = 200_000) -> dict:
    out = {}
    rng = np.random.default_rng(7)
    for group in ("heisenberg3", "engel4", "free_nilpotent_2_3"):
        grp = nc.bch.get_group(group)
        tab = nc.kernels.law_table(grp.law_group)
        x = rng.uniform(-2.0, 2.0, (rows, grp.dim))
        y = rng.uniform(-2.0, 2.0, (rows, grp.dim))
        out[f"bch_batch {group}"] = rows / _best_of(
            lambda: nc.kernels.bch_batch(tab, x, y)) / 1e6
    ck = nc.coupling.coupling_kernels(nc.coupling.builtin_coupling("heisenberg-identity"))
    omega = rng.uniform(-8.0, 8.0, (rows, 3))
    out["reduce_batch heisenberg3"] = rows / _best_of(
        lambda: nc.kernels.reduce_batch(ck.table, ck.lambda_logs, ck.lambda_leads,
                                        omega)) / 1e6
    return out


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "nilcone" / "__init__.py").is_file():
        print(f"error: no nilcone package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    t0 = time.perf_counter()
    import nilcone
    from nilcone import bch, cli, wordmetric
    figures = {"import_nilcone_s": time.perf_counter() - t0}
    for group in ("heisenberg3", "heisenberg5", "engel4", "free_nilpotent_2_3"):
        figures[f"mul_exact_us {group}"] = exact_mul_us(bch, group)
    for key, value in kernel_mrows_per_s(np, nilcone).items():
        figures[f"{key} Mrows/s"] = value

    lat = wordmetric.builtin_lattice("heisenberg3")
    rss0 = rss_bytes()
    t0 = time.perf_counter()
    prof = wordmetric.ball_profile(lat, 24)
    figures["ball heisenberg3 r24 s"] = time.perf_counter() - t0
    figures["ball heisenberg3 r24 states"] = prof.sizes()[-1]
    figures["ball heisenberg3 r24 rss_growth_mib"] = (rss_bytes() - rss0) / 2 ** 20
    t0 = time.perf_counter()
    wordmetric.guivarch_constants(lat, 24)
    figures["guivarch heisenberg3 r24 s"] = time.perf_counter() - t0

    out = Path.cwd() / ".perfbench_out" / "reference"
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["derivative", "kappa", "--coupling", "engel-identity",
                         "--seed", "1", "--out", str(out)])
    figures["derivative kappa engel-identity defaults s"] = time.perf_counter() - t0
    figures["derivative kappa engel-identity exit code"] = code

    for key, value in figures.items():
        print(f"{key}: {value:.4g}" if isinstance(value, float) else f"{key}: {value}")
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
