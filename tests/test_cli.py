import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rcbounds
from rcbounds.cli import main

GARCH = {"kind": "garch11", "omega": 0.05, "alpha": 0.10, "beta": 0.85}
IID_UNIF = {"kind": "iid", "innovation": {"kind": "uniform", "dim": 1,
                                          "scale": 1.0}}

LIN_CLASS = {"family": "linear", "n_state": 3, "n_input": 1, "n_out": 1,
             "lam_a": 0.6, "lam_c": 0.6, "lam_zeta": 0.3, "l_h": 1.0,
             "l_h0": 0.2, "input_bound": 1.0,
             "input_second_moment": 1.0 / 3.0}

GEO_INPUTS = {"r": 0.3, "l_l": 1.0, "l_h": 1.0, "l_h0": 0.0, "l_r": 1.0,
              "m_f": 2.0, "n_out": 1, "c_rc": 2.0,
              "e_loss_zero": 0.5, "y_l2_moment": 1.0,
              "profile": {"regime": "geometric", "c_z": 0.3, "rate_z": 0.5,
                          "c_y": 0.0, "rate_y": 0.5, "exact_zero_y": True}}


def child_env():
    """Environment for a fresh interpreter that can import this rcbounds.

    pytest's `pythonpath` setting reaches only the running interpreter, so
    the directory holding the package goes on the child's PYTHONPATH.
    """
    src = str(Path(rcbounds.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json",
                       {"process": GARCH, "n": 40, "n_paths": 3, "seed": 11,
                        "prefix": "sim", "profile_mc": 500})
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code, report, _ = run_cli(capsys, ["simulate", "--config", cfg,
                                           "--out", str(out)])
        assert code == 0
        assert report["n"] == 40 and report["n_paths"] == 3
        outs.append(((out / "sim.csv").read_bytes(),
                     (out / "sim_profile.json").read_bytes()))
    assert outs[0] == outs[1]


def test_simulate_seed_flag_changes_output(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json",
                       {"process": GARCH, "n": 30, "seed": 1,
                        "prefix": "s", "profile_mc": 200})
    code, _, _ = run_cli(capsys, ["simulate", "--config", cfg, "--out",
                                  str(tmp_path / "a")])
    assert code == 0
    code, _, _ = run_cli(capsys, ["simulate", "--config", cfg, "--out",
                                  str(tmp_path / "b"), "--seed", "2"])
    assert code == 0
    a = (tmp_path / "a" / "s.csv").read_bytes()
    b = (tmp_path / "b" / "s.csv").read_bytes()
    assert a != b


def test_simulate_garch_profile_sidecar(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json",
                       {"process": GARCH, "n": 16, "seed": 0, "prefix": "g",
                        "profile_mc": 200})
    code, report, _ = run_cli(capsys, ["simulate", "--config", cfg,
                                       "--out", str(tmp_path)])
    assert code == 0 and report["regime"] == "geometric"
    prof = json.loads((tmp_path / "g_profile.json").read_text())
    assert abs(prof["rate_z"] - 0.95) < 1e-12


def test_simulate_arfima_sidecar_has_alpha(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json",
                       {"process": {"kind": "arfima", "d": 0.3,
                                    "trunc": 2000},
                        "n": 16, "seed": 0, "prefix": "arf"})
    code, report, _ = run_cli(capsys, ["simulate", "--config", cfg,
                                       "--out", str(tmp_path)])
    assert code == 0 and report["regime"] == "algebraic"
    prof = json.loads((tmp_path / "arf_profile.json").read_text())
    assert abs(prof["alpha_z"] - 0.2) < 1e-12


def test_bound_report_schema(tmp_path, capsys):
    cfg = write_config(tmp_path, "bound.json",
                       {"case": "geometric", "n": 4096, "delta": 0.1,
                        "inputs": GEO_INPUTS, "prefix": "b"})
    code, report, _ = run_cli(capsys, ["bound", "--config", cfg,
                                       "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "b.json").read_text())
    for key in ("C0", "C1", "C2", "C3abs", "lambda_max", "tau", "k",
                "bound", "case", "n", "delta", "valid"):
        assert key in data
    assert data["valid"] is True
    assert abs(data["bound"] - report["bound"]) < 1e-15


def test_bound_curve_decreases(tmp_path, capsys):
    cfg = write_config(tmp_path, "bound.json",
                       {"case": "geometric", "n": 1024, "delta": 0.1,
                        "inputs": GEO_INPUTS, "prefix": "b"})
    code, report, _ = run_cli(capsys, ["bound", "--config", cfg,
                                       "--out", str(tmp_path),
                                       "--curve", "1000:100000:4"])
    assert code == 0 and report["curve_points"] == 4
    lines = (tmp_path / "b_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "n,bound,valid"
    vals = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_samplesize_inverts_bound(tmp_path, capsys):
    cfg = write_config(tmp_path, "ss.json",
                       {"case": "geometric", "delta": 0.1, "epsilon": 5.0,
                        "n_cap": 10 ** 6, "inputs": GEO_INPUTS,
                        "prefix": "ss"})
    code, report, _ = run_cli(capsys, ["samplesize", "--config", cfg,
                                       "--out", str(tmp_path)])
    assert code == 0
    assert report["n_min"] is not None
    assert report["bound_at_n_min"] <= 5.0


def test_set_override_dotted(tmp_path, capsys):
    cfg = write_config(tmp_path, "bound.json",
                       {"case": "geometric", "n": 64, "delta": 0.1,
                        "inputs": GEO_INPUTS, "prefix": "o"})
    code, base, _ = run_cli(capsys, ["bound", "--config", cfg,
                                     "--out", str(tmp_path / "x")])
    code2, shifted, _ = run_cli(capsys, ["bound", "--config", cfg,
                                         "--out", str(tmp_path / "y"),
                                         "--set", "n=100000",
                                         "--set", "inputs.profile.c_z=0.0",
                                         "--set",
                                         "inputs.profile.exact_zero_z=true"])
    assert code == 0 and code2 == 0
    assert shifted["bound"] < base["bound"]


def test_config_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code, report, err = run_cli(capsys, ["bound", "--config", missing])
    assert code == 2 and report is None and "config error" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run_cli(capsys, ["bound", "--config", str(broken)])
    assert code == 2 and "config error" in err

    unknown = write_config(tmp_path, "unknown.json",
                           {"case": "geometric", "n": 64, "delta": 0.1,
                            "inputs": GEO_INPUTS, "bogus": 1})
    code, _, err = run_cli(capsys, ["bound", "--config", unknown,
                                    "--out", str(tmp_path)])
    assert code == 2 and "bogus" in err

    bad_case = write_config(tmp_path, "case.json",
                            {"case": "mystery", "n": 64, "delta": 0.1,
                             "inputs": GEO_INPUTS})
    code, _, err = run_cli(capsys, ["bound", "--config", bad_case,
                                    "--out", str(tmp_path)])
    assert code == 2

    bad_delta = write_config(tmp_path, "delta.json",
                             {"case": "geometric", "n": 64, "delta": 1.5,
                              "inputs": GEO_INPUTS})
    code, _, err = run_cli(capsys, ["bound", "--config", bad_delta,
                                    "--out", str(tmp_path)])
    assert code == 2 and "delta" in err


def test_runtime_error_exits_three(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    cfg = write_config(tmp_path, "bound.json",
                       {"case": "geometric", "n": 64, "delta": 0.1,
                        "inputs": GEO_INPUTS})
    code, report, err = run_cli(capsys, ["bound", "--config", cfg,
                                         "--out", str(blocker)])
    assert code == 3 and report is None and "runtime error" in err


def test_validate_lipschitz_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, "lip.json",
                       {"kind": "lipschitz", "class": LIN_CLASS,
                        "input_bound": 1.7320508075688772,
                        "n_pairs": 60, "seed": 5, "prefix": "lip"})
    code, report, _ = run_cli(capsys, ["validate", "--config", cfg,
                                       "--out", str(tmp_path)])
    assert code == 0
    assert report["pass"] is True
    data = json.loads((tmp_path / "lip.json").read_text())
    assert data["worst_ratio"] <= 1.0 + 1e-9


def test_validate_failing_expectation_exits_four(tmp_path, capsys):
    cfg = write_config(tmp_path, "theta.json",
                       {"kind": "theta", "process": GARCH,
                        "taus": [1, 2, 4], "n_mc": 400, "seed": 3,
                        "decay": "geometric",
                        "expect": {"rate_max": 0.01}, "prefix": "th"})
    code, report, _ = run_cli(capsys, ["validate", "--config", cfg,
                                       "--out", str(tmp_path)])
    assert code == 4
    assert report["pass"] is False


def test_validate_jobs_do_not_change_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, "theta.json",
                       {"kind": "theta", "process": GARCH,
                        "taus": [1, 2, 4, 8], "n_mc": 300, "seed": 9,
                        "decay": "geometric", "prefix": "th"})
    blobs = []
    for jobs, sub in (("1", "a"), ("3", "b")):
        out = tmp_path / sub
        code, _, _ = run_cli(capsys, ["validate", "--config", cfg,
                                      "--out", str(out), "--jobs", jobs])
        assert code == 0
        blobs.append((out / "th.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"process": IID_UNIF, "n": 8, "seed": 0,
                               "prefix": "m", "profile_mc": 100}))
    proc = subprocess.run(
        [sys.executable, "-m", "rcbounds.cli", "simulate",
         "--config", str(cfg), "--out", str(tmp_path)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "simulate"
    assert (tmp_path / "m.csv").exists()


def test_import_loads_neither_scipy_signal_nor_stats():
    # both cost import time on every CLI call and no code path needs them
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rcbounds; print(sorted(m for m in sys.modules "
         "if m in ('scipy.signal', 'scipy.stats')))"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
