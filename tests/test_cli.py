"""Command line entry points, exit codes, and artifact determinism."""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcone import cli
from nilcone.cli import build_parser, main

GOLDEN = [
    "experiment", "main-theorem",
    "--coupling", "heisenberg-identity",
    "--n", "8,16,32",
    "--samples", "256",
    "--g", "e1",
    "--eps", "0.2",
    "--phi-samples", "1024",
    "--seed", "4",
]


def test_group_mul_exact(capsys):
    rc = main(["group", "mul", "--group", "heisenberg3",
               "--x", "1,0,0", "--y", "0,1,0"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1,1,1/2"


def test_group_pow_and_comm(capsys):
    assert main(["group", "pow", "--group", "heisenberg3",
                 "--x", "e1*e2", "--k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3,3,3/2"
    assert main(["group", "comm", "--group", "heisenberg3",
                 "--x", "e1", "--y", "e2"]) == 0
    assert capsys.readouterr().out.strip() == "0,0,1"


def test_group_mul_rejects_bad_point(capsys):
    assert main(["group", "mul", "--group", "heisenberg3",
                 "--x", "1,0", "--y", "0,1,0"]) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_algebra_check(capsys):
    assert main(["algebra", "check", "--algebra", "engel4"]) == 0
    out = capsys.readouterr().out
    assert "dim 4" in out and "step 3" in out and "ok" in out


HEISENBERG_JSON = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]}
BAD_ALGEBRA_FILES = {
    # the bracket cases ended in TypeError, AttributeError and
    # ZeroDivisionError tracebacks, the missing "j" in "error: 'j'", the
    # missing file in an Errno line naming no flag; the dims printed "ok"
    "brackets 5": {**HEISENBERG_JSON, "brackets": 5},
    "brackets [5]": {**HEISENBERG_JSON, "brackets": [5]},
    "coeffs 5": {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": 5}]},
    "zero denominator": {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1/0"}}]},
    "no j": {"dim": 3, "brackets": [{"i": 1, "coeffs": {"3": "1"}}]},
    "dim -2": {**HEISENBERG_JSON, "dim": -2},
    "dim 0": {"dim": 0},
    "dim true": {"dim": True},
    # validation builds dim x dim Fraction matrices before any check
    "dim 1001": {"dim": 1001},
    "not JSON": '{"dim": ',
    "missing file": None,
}


@pytest.mark.parametrize("case", list(BAD_ALGEBRA_FILES))
def test_algebra_check_refuses_a_bad_json_file_naming_the_flag(tmp_path, capsys, case):
    path = tmp_path / "algebra.json"
    content = BAD_ALGEBRA_FILES[case]
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    rc = main(["algebra", "check", "--json", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: --json {str(path)!r}: ")
    assert "Traceback" not in err


def test_algebra_check_reads_a_json_file(tmp_path, capsys):
    # a coefficient string may be a fraction; read as 0 it would leave
    # an abelian algebra of step 1
    half = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1/2"}}]}
    for spec in (HEISENBERG_JSON, half):
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(spec))
        assert main(["algebra", "check", "--json", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("dim 3, step 2") and out[-1] == "ok"


def test_metric_ball_artifact(tmp_path, capsys):
    rc = main(["metric", "ball", "--lattice", "heisenberg3",
               "--radius", "3", "--out", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "ball_heisenberg3-lattice_r3.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "n,ball_size,max_coord_1,max_coord_2,max_coord_3"
    assert lines[1].startswith("0,1,")
    assert "[1, 5, 17, 53]" in capsys.readouterr().out


def test_metric_guivarch_artifact(tmp_path):
    rc = main(["metric", "guivarch", "--lattice", "abelian2",
               "--radius", "4", "--out", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "guivarch_abelian2-lattice_r4.json").read_text())
    assert obj["radius"] == 4
    assert obj["c_low"] >= 1.0


@pytest.mark.parametrize("argv", [["ball", "--radius", "-3"],
                                  ["guivarch", "--radius", "0"]])
def test_metric_refuses_an_empty_ball(tmp_path, capsys, argv):
    # both used to exit 0 with an empty CSV or c_low=0.0 c_high=0.0
    rc = main(["metric"] + argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: --radius {argv[-1]}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_coupling_verify_artifact(tmp_path):
    rc = main(["coupling", "verify", "--coupling", "z2-identity",
               "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "verify_z2-identity_seed1.json").read_text())
    assert obj["ok"] is True


def test_coupling_verify_reads_json_file(tmp_path, capsys):
    cp_path = tmp_path / "cp.json"
    cp_path.write_text(json.dumps({"group": "heisenberg3", "twist": "scale2"}))
    rc = main(["coupling", "verify", "--coupling", str(cp_path), "--seed", "1",
               "--samples", "20", "--triples", "20", "--out", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "verify_heisenberg3-scale2_seed1.json").read_text())
    assert obj["ok"] is True
    capsys.readouterr()
    # a twist neither null nor a string ended in an AttributeError traceback
    for text in ('{"group": ', "[1, 2]", '{"group": "heisenberg3", "twist": 5}',
                 '{"group": "heisenberg3", "twist": ["scale2"]}'):
        cp_path.write_text(text)
        rc = main(["coupling", "verify", "--coupling", str(cp_path),
                   "--seed", "1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: --coupling {str(cp_path)!r}: ")
        assert "Traceback" not in err


def test_derivative_estimate_csv_columns(tmp_path):
    rc = main(["derivative", "estimate", "--coupling", "z2-identity",
               "--samples", "400", "--gamma", "e1", "--seed", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "integrability_z2-identity_seed2.csv").read_text().splitlines()
    assert lines[0] == "generator,mean_norm,ci_low,ci_high,samples,seed"
    assert len(lines) >= 3


def test_derivative_phi_json(tmp_path, capsys):
    rc = main(["derivative", "phi", "--coupling", "heisenberg-scale2",
               "--samples", "1024", "--seed", "3", "--g", "e1*e2",
               "--out", str(tmp_path)])
    assert rc == 0
    obj = json.loads(
        (tmp_path / "phi_heisenberg-scale2_alpha_seed3.json").read_text()
    )
    assert obj["entries"][0] == [2.0, 0.0, 0.0]
    assert "phi(g): 2.0,1.0,1.0" in capsys.readouterr().out


def test_golden_run_writes_csv_and_passes(tmp_path):
    rc = main(GOLDEN + ["--out", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "main-theorem_heisenberg-identity_seed4.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "n,samples,fraction_within_eps,median_proxy_dist,seed"
    assert len(lines) == 4
    assert (tmp_path / "main-theorem_heisenberg-identity_seed4.svg").exists()
    assert (tmp_path / "main-theorem_heisenberg-identity_seed4.json").exists()


def test_golden_run_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(GOLDEN + ["--out", str(out1)]) == 0
    assert main(GOLDEN + ["--out", str(out2)]) == 0
    name = "main-theorem_heisenberg-identity_seed4.csv"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _recorded_golden_prefixes() -> dict:
    """GOLDEN_PREFIXES of perfbench/workloads.py, read from its source."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "GOLDEN_PREFIXES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no GOLDEN_PREFIXES")


def test_golden_run_matches_the_recorded_prefixes(tmp_path):
    # the first 16 hex digits of each artifact's sha256, as recorded
    prefixes = _recorded_golden_prefixes()
    assert sorted(prefixes) == ["csv", "json", "svg"]
    assert main(GOLDEN + ["--out", str(tmp_path)]) == 0
    stem = "main-theorem_heisenberg-identity_seed4"
    got = {ext: hashlib.sha256((tmp_path / f"{stem}.{ext}").read_bytes()).hexdigest()[:16]
           for ext in prefixes}
    assert got == prefixes


def test_control_target_fails_with_exit_two(tmp_path):
    rc = main(["experiment", "main-theorem", "--coupling", "heisenberg-identity",
               "--n", "8,16", "--samples", "128", "--g", "e1", "--eps", "0.2",
               "--target", "5,5,0", "--phi-samples", "512", "--seed", "4",
               "--out", str(tmp_path)])
    assert rc == 2


def test_iterates_on_a_converged_coupling_exits_0(tmp_path, capsys):
    # on z2-identity the commutator part and the distance are 0 at every depth
    rc = main(["experiment", "iterates", "--coupling", "z2-identity",
               "--seed", "1", "--samples", "64", "--n", "8,16",
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "com/n=0.0 scl_dist=0.0" in out
    assert rc == 0


def test_run_requires_seed(capsys):
    rc = main(["run", "--experiment", "main-theorem",
               "--coupling", "heisenberg-identity"])
    assert rc == 1
    assert "seed" in capsys.readouterr().err


def test_unknown_coupling_is_usage_error(capsys):
    rc = main(["coupling", "verify", "--coupling", "nope", "--seed", "1"])
    assert rc == 1
    assert "unknown coupling" in capsys.readouterr().err


def test_run_unknown_experiment(capsys):
    rc = main(["run", "--experiment", "warp", "--seed", "1"])
    assert rc == 1
    assert "unknown experiment" in capsys.readouterr().err


def test_run_with_config_file(tmp_path):
    cfg = {
        "experiment": "iterates",
        "coupling": "heisenberg-identity",
        "n": "8,16",
        "samples": 128,
        "gamma": "e1*e2",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path), "--seed", "7",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "iterates_heisenberg-identity_seed7.csv").exists()


def test_run_flag_overrides_config(tmp_path, capsys):
    cfg = {
        "experiment": "iterates",
        "coupling": "heisenberg-identity",
        "n": "8,16",
        "samples": 128,
        "gamma": "e1",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path), "--seed", "7",
               "--dry-run", "--samples", "64", "--out", str(tmp_path)])
    assert rc == 0
    plan = json.loads(capsys.readouterr().out.strip()[5:])
    assert plan["samples"] == 64


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"experiment": "iterates", "volume": 11}))
    rc = main(["run", "--config", str(cfg_path), "--seed", "7"])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


BAD_CONFIGS = {
    "string eps": {"eps": "0.2"},
    "string phi_samples": {"phi_samples": "256"},
    "integer coupling": {"coupling": 5},
    "boolean samples": {"samples": True},
    # ran, and exited 2 with "assertion failed"
    "zero eps": {"eps": 0},
    "not an object": [1, 2],
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_run_refuses_config_values_of_the_wrong_type(tmp_path, capsys, case):
    bad = BAD_CONFIGS[case]
    cfg = bad
    if isinstance(bad, dict):
        cfg = {"experiment": "main-theorem", "coupling": "heisenberg-identity",
               "n": "8,16", "samples": 64, "phi_samples": 256, **bad}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path), "--seed", "7",
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ")
    assert not list(tmp_path.glob("*.csv"))


def test_out_env_var_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("NILCONE_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    rc = main(["metric", "ball", "--lattice", "abelian2", "--radius", "2"])
    assert rc == 0
    assert (tmp_path / "envout" / "ball_abelian2-lattice_r2.csv").exists()


def test_recurrence_command(tmp_path):
    rc = main(["derivative", "recurrence", "--coupling", "heisenberg-identity",
               "--g", "e1", "--delta", "0.3", "--box", "0:0.5,0:0.5,0:0.5",
               "--horizon", "64", "--samples", "40", "--seed", "19",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (
        tmp_path / "recurrence_heisenberg-identity_seed19.csv"
    ).read_text().splitlines()
    assert lines[0] == "sample,first_depth"
    assert len(lines) == 41


@pytest.mark.parametrize("name", ["heisenberg-identity", "heisenberg-scale2",
                                  "heisenberg-shear", "z2-identity", "engel-identity"])
def test_recurrence_default_box_fits_every_builtin_coupling(tmp_path, capsys, name):
    # the default box was three 0:0.5 pairs, refused on engel4 and abelian2
    rc = main(["derivative", "recurrence", "--coupling", name, "--horizon", "4",
               "--samples", "4", "--seed", "2", "--out", str(tmp_path)])
    assert "box needs" not in capsys.readouterr().err
    assert rc == 0


def test_kappa_command(tmp_path):
    rc = main(["derivative", "kappa", "--coupling", "heisenberg-identity",
               "--samples", "16", "--phi-samples", "512", "--n", "8,16,32",
               "--radius", "1", "--grid-step", "1", "--eps", "0.3",
               "--seed", "17", "--out", str(tmp_path)])
    assert rc == 0
    lines = (
        tmp_path / "kappa_heisenberg-identity_seed17.csv"
    ).read_text().splitlines()
    assert lines[0] == "n,samples,fraction_within_eps,median_proxy_dist,seed"


DEEP = str(10 ** 30)
DEEPEST = str(10 ** 200)
DEEP_DEPTH_RUNS = {
    # --g 1,1,0 at depth 2^24 reported fraction 1.0 from float digits that
    # differed from the exact lane; the peel terms reach about 2^48
    "main-theorem": (["experiment", "main-theorem", "--g", "1,1,0", "--n", "8,16777216"],
                     "error: --g '1,1,0': at depth 16777216, coordinate 2 "),
    "kappa": (["derivative", "kappa", "--n", "8,16777216"],
              "error: at depth 16777216, coordinate 2 "),
    # these three named no depth; the last also printed a numpy
    # RuntimeWarning and then a float division error
    "iterates": (["experiment", "iterates", "--gamma", "e1", "--n", f"8,{DEEP}"],
                 f"error: --gamma 'e1': at depth {DEEP}, coordinate 0 "),
    "arbitrary-word": (["experiment", "arbitrary-word", "--word", "e1:n,e2:n",
                        "--n", "8,100000000"], "error: at depth 100000000, coordinate 2 "),
    "arbitrary-word past the float range": (
        ["experiment", "arbitrary-word", "--word", "e1:n,e2:n", "--n", f"8,{DEEPEST}"],
        f"error: at depth {DEEPEST}, coordinate 0 "),
    # a float overflow of the depth itself named no depth
    "iterates past the float range": (
        ["experiment", "iterates", "--gamma", "e1", "--n", f"8,{10 ** 400}"],
        f"error: --gamma 'e1': at depth {10 ** 400}, "),
    "kappa past the float range": (["derivative", "kappa", "--n", f"8,{DEEPEST}"],
                                   f"error: at depth {DEEPEST}, "),
}


@pytest.mark.parametrize("case", list(DEEP_DEPTH_RUNS))
def test_deep_depths_are_refused_naming_the_depth(tmp_path, capsys, case):
    args, message = DEEP_DEPTH_RUNS[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(args + ["--coupling", "heisenberg-identity", "--seed", "1",
                          "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err
    assert [str(w.message) for w in caught] == []
    assert not list(tmp_path.iterdir())


def test_arbitrary_word_command(tmp_path):
    rc = main(["experiment", "arbitrary-word", "--coupling",
               "heisenberg-identity", "--word", "e1:n,e2:sqrt",
               "--n", "8,16,32", "--samples", "128", "--seed", "31",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "arbitrary-word_heisenberg-identity_seed31.csv").exists()


def test_usage_error_returns_one(capsys):
    assert main(["group", "mul", "--group", "heisenberg3", "--x", "1,0,0"]) == 1
    assert main(["nosuchcommand"]) == 1


EMPTY_OR_ZERO_RUNS = {
    "kappa depth 0": ["derivative", "kappa", "--n", "0,1"],
    "kappa grid step 0": ["derivative", "kappa", "--grid-step", "0"],
    "kappa negative radius": ["derivative", "kappa", "--radius", "-1"],
    "main-theorem depth 0": ["experiment", "main-theorem", "--n", "0,8"],
    "recurrence no samples": ["derivative", "recurrence", "--samples", "0"],
}


@pytest.mark.parametrize("case", list(EMPTY_OR_ZERO_RUNS))
def test_zero_depths_and_empty_runs_are_refused(tmp_path, capsys, case):
    rc = main(EMPTY_OR_ZERO_RUNS[case] + [
        "--coupling", "heisenberg-identity", "--seed", "1",
        "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert "success fraction" not in captured.out


POINT_REFUSALS = {
    # finite points whose approximants pass the float lane's precision
    # limit are refused before the digit peel, naming the option and value
    "1e300,0,0": "--g '1e300,0,0': at depth 1, coordinate 0 of the point to peel "
                 "reaches 1e+300",
    "1e20,0,0": "--g '1e20,0,0': at depth 1, coordinate 0 of the point to peel "
                "reaches 1e+20",
    "1e300,1e300,0": "--g '1e300,1e300,0': at depth 1, coordinate 0 of the point "
                     "to peel reaches 1e+300",
    "nan,0,0": "--g 'nan,0,0': coordinate 'nan' is not finite",
}


@pytest.mark.parametrize("g", list(POINT_REFUSALS))
def test_recurrence_refuses_overflowed_or_nonfinite_point(tmp_path, capsys, g):
    # digits past int64, an overflowing float conversion and NaN used to
    # report success or end in a traceback; a point that cannot be parsed
    # is refused while parsing, and an approximant past the float lane's
    # limit before any float use, naming the option and value
    rc = main(["derivative", "recurrence", "--coupling", "heisenberg-identity",
               "--g", g, "--horizon", "8", "--samples", "10", "--seed", "19",
               "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "success fraction" not in captured.out
    assert "Traceback" not in captured.err
    assert f"error: {POINT_REFUSALS[g]}" in captured.err


def test_phi_refuses_overflowed_image_before_writing(tmp_path, capsys):
    # scale2 doubles the first coordinate: 2e308 overflows to inf
    rc = main(["derivative", "phi", "--coupling", "heisenberg-scale2",
               "--samples", "64", "--seed", "1", "--g", "1e308,0,0",
               "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: --g '1e308,0,0': its image (inf, 0.0, 0.0) is not finite" in captured.err
    assert "Traceback" not in captured.err
    assert not list(tmp_path.iterdir())  # refused before any artifact


def test_phi_maps_a_huge_finite_point(tmp_path, capsys):
    # the linear map needs no factorization, so a point far out maps
    rc = main(["derivative", "phi", "--coupling", "heisenberg-identity",
               "--samples", "64", "--seed", "1", "--g", "1e300,1e300,0",
               "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "phi(g): 1e+300,1e+300,0.0" in captured.out


def test_run_config_file_errors_name_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"seed": ')
    for path in (cfg_path, tmp_path / "missing.json"):
        rc = main(["run", "--config", str(path), "--seed", "7"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: --config {str(path)!r}: ")


NONFINITE_THRESHOLDS = {
    "main-theorem eps inf": ["experiment", "main-theorem", "--eps", "inf"],
    "main-theorem eps nan": ["experiment", "main-theorem", "--eps", "nan"],
    "arbitrary-word eps -inf": ["experiment", "arbitrary-word", "--eps", "-inf"],
    "recurrence delta nan": ["derivative", "recurrence", "--delta", "nan"],
    "recurrence min-success nan": ["derivative", "recurrence",
                                   "--min-success", "nan"],
    "kappa eps inf": ["derivative", "kappa", "--eps", "inf"],
    "kappa radius nan": ["derivative", "kappa", "--radius", "nan"],
    "run eps nan": ["run", "--experiment", "main-theorem", "--eps", "nan"],
    "config eps NaN": {"eps": float("nan")},
    "config eps Infinity": {"eps": float("inf")},
}


@pytest.mark.parametrize("case", list(NONFINITE_THRESHOLDS))
def test_nonfinite_thresholds_are_refused(tmp_path, capsys, case):
    # a NaN or infinite threshold used to pass every check or fail only
    # after the artifacts were written
    argv = NONFINITE_THRESHOLDS[case]
    if isinstance(argv, dict):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "main-theorem", **argv}))
        argv = ["run", "--config", str(cfg_path)]
    rc = main(argv + ["--coupling", "heisenberg-identity", "--seed", "1",
                      "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


FUZZ_COMMANDS = {
    "kappa": (["derivative", "kappa", "--samples", "2", "--phi-samples", "64",
               "--n", "2,4", "--radius", "1", "--grid-step", "1"],
              {"--samples": "int", "--phi-samples": "int", "--radius": "float",
               "--grid-step": "float", "--eps": "float"}),
    "recurrence": (["derivative", "recurrence", "--horizon", "4", "--samples", "4"],
                   {"--delta": "float", "--horizon": "int", "--samples": "int",
                    "--min-success": "float"}),
    "main-theorem": (["experiment", "main-theorem", "--samples", "16",
                      "--phi-samples", "64", "--n", "2,4"],
                     {"--samples": "int", "--phi-samples": "int", "--eps": "float"}),
}
FUZZ_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "nan", "-nan", "inf", "-inf", "1e308", "-1e308",
                     "abc", "", "1,2", "0x10"]),
    st.floats(-4, 4).map(repr),
    st.integers(-3, 12).map(str),
)


@settings(max_examples=30, deadline=None)
@given(command=st.sampled_from(sorted(FUZZ_COMMANDS)), data=st.data())
def test_numeric_flags_fuzz_exit_cleanly(command, data):
    base, flags = FUZZ_COMMANDS[command]
    flag = data.draw(st.sampled_from(sorted(flags)))
    value = data.draw(FUZZ_VALUES)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(
            io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(base + [flag, value, "--coupling", "heisenberg-identity",
                          "--seed", "3", "--out", out])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    try:
        finite = math.isfinite(float(value))
    except ValueError:
        finite = True  # malformed text: refused as a usage error
    if flags[flag] == "float" and not finite:
        assert rc == 1 and "error: " in err.getvalue()


def test_run_defaults_match_the_experiment_defaults(capsys):
    # run takes its flags and their defaults from the experiment
    # subcommands; a dry run of each shows both resolved, so a flag of
    # run that lost its experiment's default shows here
    common = ["--coupling", "heisenberg-identity", "--seed", "1", "--dry-run"]
    for experiment in ("main-theorem", "iterates", "arbitrary-word"):
        plans = []
        for argv in (["run", "--experiment", experiment], ["experiment", experiment]):
            assert main(argv + common) == 0
            plans.append(json.loads(capsys.readouterr().out.strip()[5:]))
        run, sub = plans
        shared = set(run) & set(sub) - {"command"}  # "run" vs "experiment"
        assert shared >= {"n", "samples"}
        assert {k: run[k] for k in shared} == {k: sub[k] for k in shared}


SEEDED = ["--coupling", "heisenberg-identity", "--seed", "1"]
FLAG_REFUSALS = {
    # a zero denominator used to end in a ZeroDivisionError traceback
    "pow --x": (["group", "pow", "--k", "3", "--x", "1/0,0,0"], "--x '1/0,0,0'"),
    "mul --y": (["group", "mul", "--x", "e1", "--y", "0,1/0,0"], "--y '0,1/0,0'"),
    "phi --g": (["derivative", "phi"] + SEEDED + ["--g", "1/0,0,0"], "--g '1/0,0,0'"),
    "recurrence --g": (["derivative", "recurrence"] + SEEDED + ["--g", "1/0,0,0"],
                       "--g '1/0,0,0'"),
    "recurrence --box": (["derivative", "recurrence"] + SEEDED
                         + ["--box", "0:1/0,0:1,0:1"], "--box '0:1/0,0:1,0:1'"),
    "main-theorem --g": (["experiment", "main-theorem"] + SEEDED + ["--g", "1/0,0,0"],
                         "--g '1/0,0,0'"),
    "iterates --gamma": (["experiment", "iterates"] + SEEDED + ["--gamma", "1/0,0,0"],
                         "--gamma '1/0,0,0'"),
    # estimate used to write its CSV before it read --gamma
    "estimate --gamma": (["derivative", "estimate"] + SEEDED + ["--gamma", "0,1e400,0"],
                         "--gamma '0,1e400,0'"),
    "recurrence --box 1e400": (["derivative", "recurrence"] + SEEDED
                               + ["--box", "0:1,0:1e400,0:1"], "--box '0:1,0:1e400,0:1'"),
    "run --target": (["run", "--experiment", "main-theorem"] + SEEDED
                     + ["--target", "1/0,0,0"], "--target '1/0,0,0'"),
    # a target of the wrong length used to fail inside bch_batch
    "main-theorem --target": (["experiment", "main-theorem"] + SEEDED
                              + ["--target", "1,2"], "--target '1,2': expected 3"),
    # zero and negative counts used to report success after no work
    "verify --samples": (["coupling", "verify"] + SEEDED
                         + ["--samples", "-5", "--triples", "-1"], "--samples must be >= 1"),
    "verify --triples": (["coupling", "verify"] + SEEDED + ["--triples", "0"],
                         "--triples must be >= 1"),
    "recurrence --horizon": (["derivative", "recurrence"] + SEEDED
                             + ["--horizon", "0"], "--horizon must be >= 1"),
    # these named no flag: numpy's message for a negative seed, and the
    # box, grid, depth and word checks of the experiments
    "verify --seed": (["coupling", "verify", "--coupling", "heisenberg-identity",
                       "--seed", "-1"], "--seed must be >= 0"),
    "estimate --seed": (["derivative", "estimate", "--coupling", "heisenberg-identity",
                         "--seed", "-1"], "--seed must be >= 0"),
    "run --seed": (["run", "--experiment", "main-theorem", "--coupling",
                    "heisenberg-identity", "--seed", "-1"], "--seed must be >= 0"),
    "recurrence empty --box": (["derivative", "recurrence"] + SEEDED
                               + ["--box", "0:1,0:0,0:1"], "--box '0:1,0:0,0:1'"),
    "recurrence outside --box": (["derivative", "recurrence"] + SEEDED
                                 + ["--box", "0:2,0:1,0:1"], "--box '0:2,0:1,0:1'"),
    "recurrence far --box": (["derivative", "recurrence"] + SEEDED
                             + ["--box", "0:1,0:1e300,0:1"], "--box '0:1,0:1e300,0:1'"),
    # checked on 4 random samples, none of which fell outside
    "recurrence edge --box": (["derivative", "recurrence"] + SEEDED
                              + ["--samples", "4", "--horizon", "8",
                                 "--box", "0:1.02,0:0.5,0:0.5"],
                              "--box '0:1.02,0:0.5,0:0.5'"),
    "kappa --radius": (["derivative", "kappa"] + SEEDED + ["--radius", "0"],
                       "--radius must be > 0"),
    "kappa --grid-step": (["derivative", "kappa"] + SEEDED + ["--grid-step", "-1"],
                          "--grid-step must be > 0"),
    "kappa --n": (["derivative", "kappa"] + SEEDED + ["--n", "0"], "--n '0'"),
    "main-theorem --n": (["experiment", "main-theorem"] + SEEDED + ["--n", "8,4"],
                         "--n '8,4'"),
    "arbitrary-word --word": (["experiment", "arbitrary-word"] + SEEDED
                              + ["--word", "x"], "--word 'x'"),
    "arbitrary-word --word index": (["experiment", "arbitrary-word"] + SEEDED
                                    + ["--word", "e9:n"], "--word 'e9:n'"),
    "arbitrary-word --word schedule": (["experiment", "arbitrary-word"] + SEEDED
                                       + ["--word", "e1:bogus"], "--word 'e1:bogus'"),
    # a zero multiple of n ended in a ZeroDivisionError traceback
    "arbitrary-word --word 0n": (["experiment", "arbitrary-word"] + SEEDED
                                 + ["--word", "e1:0n"], "--word 'e1:0n'"),
    # thresholds that no run can meet, or that every run meets: each exited
    # 0 or 2 with a verdict, or 2 with "assertion failed"
    "recurrence --delta 0": (["derivative", "recurrence"] + SEEDED + ["--delta", "0"],
                             "--delta must be > 0"),
    "recurrence --delta -1": (["derivative", "recurrence"] + SEEDED + ["--delta", "-1"],
                              "--delta must be > 0"),
    "recurrence --min-success -1": (["derivative", "recurrence"] + SEEDED
                                    + ["--min-success", "-1"],
                                    "--min-success must be in [0, 1]"),
    "recurrence --min-success 2": (["derivative", "recurrence"] + SEEDED
                                   + ["--min-success", "2"],
                                   "--min-success must be in [0, 1]"),
    "main-theorem --eps 0": (["experiment", "main-theorem"] + SEEDED + ["--eps", "0"],
                             "--eps must be > 0"),
    "kappa --eps 0": (["derivative", "kappa"] + SEEDED + ["--eps", "0"],
                      "--eps must be > 0"),
    "arbitrary-word --eps -1": (["experiment", "arbitrary-word"] + SEEDED
                                + ["--eps", "-1"], "--eps must be > 0"),
}


@pytest.mark.parametrize("case", list(FLAG_REFUSALS))
def test_bad_values_are_refused_naming_the_flag(tmp_path, capsys, case):
    argv, message = FLAG_REFUSALS[case]
    rc = main(argv + ["--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"error: {message}")
    assert "Traceback" not in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["derivative estimate", "experiment iterates"])
def test_a_gamma_past_the_precision_limit_is_refused_naming_it(tmp_path, capsys, command):
    # estimate wrote its integrability CSV before refusing; neither named --gamma
    rc = main(command.split() + SEEDED
              + ["--samples", "64", "--gamma", "1e300,0,0", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: --gamma '1e300,0,0': ")
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


OVERSIZED_RUNS = {
    # each ended in a numpy _ArrayMemoryError traceback; the patched step
    # raises it here without allocating
    "main-theorem": (["experiment", "main-theorem", "--phi-samples", "64"], "build_phi"),
    "estimate": (["derivative", "estimate"], "integrability_estimate"),
    "kappa": (["derivative", "kappa"], "build_phi"),
}


@pytest.mark.parametrize("case", list(OVERSIZED_RUNS))
def test_a_count_past_memory_is_an_error_not_a_traceback(tmp_path, capsys, monkeypatch,
                                                          case):
    argv, step = OVERSIZED_RUNS[case]
    message = ("Unable to allocate 224. GiB for an array with shape "
               "(10000000000, 3) and data type float64")

    def oversized(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr(cli, step, oversized)
    rc = main(argv + SEEDED + ["--samples", "10000000000", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def _leaf_commands(parser, prefix=()):
    """(argv prefix, parser) of every subcommand below parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield list(prefix), parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_commands(child, prefix + (name,))


LEAVES = {" ".join(argv): parser for argv, parser in _leaf_commands(build_parser())}
# Each swept value goes into one coordinate of a point flag's value.
POINT_FLAGS = {"--x": "{},0,0", "--y": "0,{},0", "--g": "{},0,0",
               "--gamma": "0,{},0", "--target": "{},0,0", "--box": "0:1,0:{},0:1",
               "--n": "{}"}
# Values for required flags and small sample counts, for each subcommand
# that has the flag; a swept flag given again overrides its entry.
TINY = {"--coupling": "heisenberg-identity", "--seed": "1", "--x": "e1",
        "--y": "e2", "--k": "2", "--experiment": "main-theorem", "--samples": "4",
        "--phi-samples": "32", "--triples": "2", "--n": "2,4", "--horizon": "2",
        "--radius": "1", "--grid-step": "1"}
SWEEP_VALUES = ("1/0", "nan", "1e400", "0", "-1")


def _tiny_args(parser) -> list[str]:
    """The TINY values of the flags a subcommand has."""
    given = {a.option_strings[0] for a in parser._actions if a.option_strings}
    return [t for flag in sorted(given & set(TINY)) for t in (flag, TINY[flag])]


@pytest.mark.parametrize("command", list(LEAVES))
def test_dry_run_emits_plan_without_artifacts(tmp_path, capsys, command):
    out = tmp_path / "never"
    rc = main(command.split() + _tiny_args(LEAVES[command])
              + ["--dry-run", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert len(lines) == 1 and lines[0].startswith("plan {")
    plan = json.loads(lines[0][5:])
    assert plan["command"] == command.split()[0]
    assert plan.get("seed", 1) == 1  # the TINY seed, where the command has one
    assert not out.exists()


@pytest.mark.parametrize("command", list(LEAVES))
def test_commands_that_split_no_samples_take_no_workers(tmp_path, capsys, command):
    # every sample stream is split from --seed alone, so no subcommand
    # takes --workers (seven did, each shaping its streams with it)
    rc = main(command.split() + _tiny_args(LEAVES[command])
              + ["--workers", "7", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unrecognized arguments: --workers 7" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def _swept_flags(parser) -> list[str]:
    """The numeric and point flags of a subcommand."""
    return sorted(a.option_strings[0] for a in parser._actions if a.option_strings
                  and (a.type is not None or a.option_strings[0] in POINT_FLAGS))


@pytest.mark.parametrize("command", [c for c, p in LEAVES.items() if _swept_flags(p)])
def test_every_numeric_and_point_flag_exits_without_a_traceback(tmp_path, command):
    # and every refusal (exit 1) names the swept flag
    parser = LEAVES[command]
    base = _tiny_args(parser)
    bad = []
    for flag in _swept_flags(parser):
        for value in SWEEP_VALUES:
            text = POINT_FLAGS.get(flag, "{}").format(value)
            argv = command.split() + base + [flag, text, "--out", str(tmp_path)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except Exception as exc:  # what the console would print as a traceback
                    rc = f"{type(exc).__name__}: {exc}"
            if rc not in (0, 1, 2) or "Traceback" in err.getvalue():
                bad.append(f"{flag} {text}: {rc}")
            elif rc == 1 and flag not in err.getvalue():
                bad.append(f"{flag} {text}: {err.getvalue().strip()}")
    assert bad == []
