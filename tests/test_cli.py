"""Command line entry points, exit codes, and artifact determinism."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcone.cli import main

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
    for text in ('{"group": ', "[1, 2]"):
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


def test_control_target_fails_with_exit_two(tmp_path):
    rc = main(["experiment", "main-theorem", "--coupling", "heisenberg-identity",
               "--n", "8,16", "--samples", "128", "--g", "e1", "--eps", "0.2",
               "--target", "5,5,0", "--phi-samples", "512", "--seed", "4",
               "--out", str(tmp_path)])
    assert rc == 2


def test_dry_run_emits_plan_without_artifacts(tmp_path, capsys):
    out = tmp_path / "never"
    rc = main(["experiment", "iterates", "--coupling", "heisenberg-identity",
               "--n", "8,16", "--samples", "64", "--gamma", "e1",
               "--seed", "9", "--dry-run", "--out", str(out)])
    assert rc == 0
    plan_line = capsys.readouterr().out.strip()
    assert plan_line.startswith("plan {")
    plan = json.loads(plan_line[5:])
    assert plan["experiment"] == "iterates"
    assert plan["seed"] == 9
    assert not out.exists()


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
    "string workers": {"workers": "2"},
    "integer coupling": {"coupling": 5},
    "boolean samples": {"samples": True},
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
    # the search draws from one stream, so the command takes no --workers
    assert main(["derivative", "recurrence", "--coupling",
                 "heisenberg-identity", "--seed", "19", "--workers", "4",
                 "--out", str(tmp_path)]) == 1


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


DEEP_DEPTH_RUNS = {
    # --g 1,1,0 at depth 2^24 reported fraction 1.0 from float digits that
    # differed from the exact lane; the peel terms reach about 2^48
    "main-theorem": (["experiment", "main-theorem", "--g", "1,1,0"],
                     "error: --g '1,1,0': at depth 16777216, coordinate 2 "),
    "kappa": (["derivative", "kappa"], "error: at depth 16777216, coordinate 2 "),
}


@pytest.mark.parametrize("case", list(DEEP_DEPTH_RUNS))
def test_deep_depths_are_refused_naming_the_depth(tmp_path, capsys, case):
    args, message = DEEP_DEPTH_RUNS[case]
    rc = main(args + ["--coupling", "heisenberg-identity", "--n", "8,16777216",
                      "--seed", "1", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err
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


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_nonpositive_workers_is_structural_error(tmp_path, capsys, workers):
    rc = main(["derivative", "phi", "--coupling", "heisenberg-identity",
               "--samples", "64", "--seed", "1", "--workers", workers,
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "workers must be >= 1" in err
    assert "Traceback" not in err


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
