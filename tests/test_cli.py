import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rcbounds
from rcbounds import processes
from rcbounds.bounds import PhiFunction, risk_bound
from rcbounds.cli import (
    _coverage_profile,
    bound_inputs_from_spec,
    class_from_spec,
    main,
)
from rcbounds.processes import (
    InnovationLaw,
    Moment,
    dependence_params,
    model_from_spec,
)
from rcbounds.specs import ConfigError, _from_spec, _pos_int, to_spec

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


UNIF_Z, UNIF_Y = InnovationLaw("uniform", 1, 1.0), InnovationLaw("uniform", 1, 0.8)

# the acceptance suite's uniform and algebraic constant-chain fixtures
CHAIN_INPUTS = {
    "r": 0.3, "l_l": 0.9, "l_h": 0.8, "l_h0": 0.1, "l_r": 1.2, "m_f": 1.5,
    "n_out": 2, "c_rc": 1.7, "e_loss_zero": 0.4, "y_l2_moment": 0.9,
    "phi": {"kind": "power", "p": 2.0},
    "profile": {
        "regime": "lipschitz", "c_z": 1.4, "rate_z": 0.5, "c_y": 1.2,
        "rate_y": 0.4, "l_z": 0.7, "l_y": 0.9,
        "w_z": {"kind": "geometric", "param": 0.5},
        "w_y": {"kind": "geometric", "param": 0.4},
        "xi_mean_abs_z": UNIF_Z.mean_abs_norm().value,
        "xi_mean_abs_y": UNIF_Y.mean_abs_norm().value,
        "xi_second_z": UNIF_Z.second_moment().value,
        "xi_second_y": UNIF_Y.second_moment().value,
        "xi_bound_z": 1.0, "xi_bound_y": 0.8,
        "xi_law_z": {"kind": "uniform", "dim": 1, "scale": 1.0},
        "xi_law_y": {"kind": "uniform", "dim": 1, "scale": 0.8}}}

ALGEBRAIC_INPUTS = {
    "r": 0.5, "l_l": 1.0, "l_h": 0.9, "l_h0": 0.05, "l_r": 1.1, "m_f": 1.8,
    "n_out": 3, "c_rc": 2.0, "e_loss_zero": 0.6, "y_l2_moment": 1.2,
    "profile": {"regime": "algebraic", "c_z": 0.9, "rate_z": 0.3,
                "c_y": 0.7, "rate_y": 0.45}}


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


def test_simulate_sidecar_reads_back_as_profile(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json",
                       {"process": GARCH, "n": 16, "seed": 0, "prefix": "g",
                        "profile_mc": 200})
    assert run_cli(capsys, ["simulate", "--config", cfg,
                            "--out", str(tmp_path)])[0] == 0
    sidecar = json.loads((tmp_path / "g_profile.json").read_text())
    assert sidecar["c_z"]["provenance"] == "mc"
    prof = _from_spec(processes.DependenceProfile, sidecar, "profile spec")
    assert prof.c_z.provenance == "mc" and prof.c_y.provenance == "mc"
    assert to_spec(prof) == sidecar
    # a moment without provenance keeps the default; an unknown one fails
    for c_z, provenance in (({"value": 1.0, "std_error": 0.1}, "mc"),
                            ({"value": 1.0}, "analytic"), (1.0, "analytic")):
        prof = _from_spec(processes.DependenceProfile,
                          dict(sidecar, c_z=c_z), "profile spec")
        assert prof.c_z.provenance == provenance
    bad = dict(sidecar, c_z=dict(sidecar["c_z"], provenance="guess"))
    with pytest.raises(ConfigError, match="provenance"):
        _from_spec(processes.DependenceProfile, bad, "profile spec")


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


def test_samplesize_derives_its_constants_once(tmp_path, capsys, monkeypatch):
    # the search and the bound at n_min share the request's one derivation
    from rcbounds import bounds, cli

    calls = []
    derive = bounds.expected_gap_constants

    def counting(*args, **kwargs):
        calls.append(args)
        return derive(*args, **kwargs)

    monkeypatch.setattr(bounds, "expected_gap_constants", counting)
    monkeypatch.setattr(cli, "expected_gap_constants", counting)
    cfg = write_config(tmp_path, "ss.json",
                       {"case": "geometric", "delta": 0.1, "epsilon": 5.0,
                        "n_cap": 10 ** 6, "inputs": GEO_INPUTS,
                        "prefix": "ss"})
    code, report, _ = run_cli(capsys, ["samplesize", "--config", cfg,
                                       "--out", str(tmp_path)])
    assert code == 0 and report["n_min"] is not None
    assert len(calls) == 1


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


@pytest.mark.parametrize("process, key", [
    ({"kind": "ma"}, "coeffs"),
    ({"kind": "garch11", "omega": 0.05, "beta": 0.85}, "alpha"),
    ({"kind": "arfima", "trunc": 100}, "d"),
    ({"kind": "var1"}, "a"),
])
def test_process_spec_missing_key_exits_two(tmp_path, capsys, process, key):
    cfg = write_config(tmp_path, "sim.json",
                       {"process": process, "n": 8, "seed": 0, "prefix": "m"})
    code, report, err = run_cli(capsys, ["simulate", "--config", cfg,
                                         "--out", str(tmp_path)])
    assert code == 2 and report is None and "config error" in err
    assert repr(key) in err


ESN_CLASS = {"family": "esn", "n_state": 3, "n_input": 1, "n_out": 1,
             "row_a": [0.2, 0.2, 0.2], "row_c": [0.5, 0.5, 0.5],
             "row_zeta": [0.1, 0.1, 0.1], "l_h": 1.0, "l_h0": 0.5,
             "input_bound": 1.0}
SAS_CLASS = {"family": "sas", "n_state": 2, "n_input": 1, "n_out": 1,
             "alphas_p": [[0], [1]], "alphas_q": [[0], [2]], "lam_sas": 0.45,
             "c_sas": 0.8, "input_bound": 1.0, "l_h": 1.0, "l_h0": 0.5}
RANDOM_ESN_CLASS = {"family": "random_esn", "n_state": 4, "n_input": 1,
                    "n_out": 1, "a": 0.5, "c_scale": 1.0, "zeta_scale": 0.5,
                    "l_h": 1.0, "l_h0": 0.5, "base_seed": 3}


@pytest.mark.parametrize("klass", [ESN_CLASS, SAS_CLASS, RANDOM_ESN_CLASS],
                         ids=["esn", "sas", "random_esn"])
def test_validate_lipschitz_builds_each_family(tmp_path, capsys, klass):
    # 8 sampled members, the cap-saturating one and the zero readout
    cfg = write_config(tmp_path, "lip.json",
                       {"kind": "lipschitz", "class": klass, "input_bound": 1,
                        "n_pairs": 20, "history": 16, "prefix": "lip"})
    code, report, _ = run_cli(capsys, ["validate", "--config", cfg,
                                       "--out", str(tmp_path)])
    assert code == 0 and report["n_systems"] == 10


def test_sas_class_spec_needs_input_bound(tmp_path, capsys):
    klass = {k: v for k, v in SAS_CLASS.items() if k != "input_bound"}
    cfg = write_config(tmp_path, "lip.json",
                       {"kind": "lipschitz", "class": klass, "input_bound": 1,
                        "n_pairs": 20, "history": 16, "prefix": "lip"})
    code, report, err = run_cli(capsys, ["validate", "--config", cfg,
                                         "--out", str(tmp_path)])
    assert code == 2 and report is None and "input_bound" in err


def test_sas_class_spec_refuses_input_second_moment(tmp_path, capsys):
    # a state affine class has no such field, so the setting must not be
    # dropped without a word
    klass = dict(SAS_CLASS, input_second_moment=0.5)
    cfg = write_config(tmp_path, "lip.json",
                       {"kind": "lipschitz", "class": klass, "input_bound": 1,
                        "n_pairs": 20, "history": 16, "prefix": "lip"})
    code, report, err = run_cli(capsys, ["validate", "--config", cfg,
                                         "--out", str(tmp_path)])
    assert code == 2 and report is None and "input_second_moment" in err


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


def test_validate_rademacher_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path, "rad.json",
                       {"kind": "rademacher", "class": LIN_CLASS,
                        "process": IID_UNIF, "ks": [4, 16], "n_rep": 6,
                        "n_random": 3, "history": 24, "seed": 2,
                        "prefix": "rad"})
    blobs = []
    for jobs, sub in (("1", "a"), ("2", "b")):
        out = tmp_path / sub
        code, report, _ = run_cli(capsys, ["validate", "--config", cfg,
                                           "--out", str(out), "--jobs", jobs])
        assert code == 0 and report["pass"] is True
        blobs.append((out / "rad.json").read_bytes())
    assert blobs[0] == blobs[1]
    data = json.loads(blobs[0])
    assert data["kind"] == "rademacher" and data["c_rc"] > 0
    assert [row["k"] for row in data["rows"]] == [4, 16]
    for row in data["rows"]:
        assert 0 < row["estimate"] <= row["cap"] + 3 * row["std_error"]
        assert row["std_error"] > 0 and row["pass"] is True
        assert row["cap"] == pytest.approx(data["c_rc"] / row["k"] ** 0.5)
        assert row["scaled"] == pytest.approx(row["estimate"] * row["k"] ** 0.5)


@pytest.mark.parametrize("klass", [LIN_CLASS, ESN_CLASS], ids=["linear", "esn"])
def test_validate_truncation_end_to_end(tmp_path, capsys, klass):
    cfg = write_config(tmp_path, "trunc.json",
                       {"kind": "truncation", "class": klass,
                        "process": IID_UNIF,
                        "y_law": {"kind": "uniform", "dim": 1, "scale": 1.0},
                        "ns": [4, 32], "n_trials": 8, "n_random": 3,
                        "seed": 1, "prefix": "tr"})
    code, report, _ = run_cli(capsys, ["validate", "--config", cfg,
                                       "--out", str(tmp_path)])
    assert code == 0 and report["pass"] is True
    data = json.loads((tmp_path / "tr.json").read_text())
    assert data["kind"] == "truncation" and data["ns"] == [4, 32]
    # three sampled members and the cap-saturating one
    assert data["n_trials"] == 8 and data["n_candidates"] == 4
    assert data["violations"] == 0 and data["tolerance"] > 0
    for n in ("4", "32"):
        assert 0 < data["max_gap"][n] <= data["bounds"][n] + data["tolerance"]
    assert data["bounds"]["32"] < data["bounds"]["4"]


def test_consistency_derives_its_profile_once(tmp_path, capsys, monkeypatch):
    # GARCH(1,1) has no closed-form E|Z_0|: each profile is a Monte Carlo run
    calls = []
    derive = processes.dependence_params
    monkeypatch.setattr(processes, "dependence_params",
                        lambda *a, **kw: calls.append(kw) or derive(*a, **kw))
    cfg = write_config(tmp_path, "cons.json", {
        "kind": "consistency", "case": "geometric", "ns": [64, 128, 256],
        "class": dict(LIN_CLASS, input_bound=5.0, input_second_moment=1.0),
        "process": GARCH, "profile_mc": 2000, "n_trials": 4, "n_random": 2,
        "history": 20, "n_pool": 200, "prefix": "cons",
        "target": {"kind": "independent",
                   "law": {"kind": "gaussian", "dim": 1, "scale": 0.7}}})
    code, report, _ = run_cli(capsys, ["validate", "--config", cfg,
                                       "--out", str(tmp_path)])
    assert code in (0, 4) and len(report["rows"]) == 3
    assert len(calls) == 1


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


def test_import_loads_no_numpy():
    # bound and samplesize are float arithmetic: numpy loads only with the
    # simulation layers that simulate and validate import when they run
    code = ("import sys\n"
            "import rcbounds\n"
            "print('numpy' in sys.modules)\n"
            "rcbounds.bounds.risk_bound  # a layer loads on first access\n"
            "import rcbounds.cli\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_every_exported_name_resolves():
    for name in rcbounds.__all__:
        value = getattr(rcbounds, name)
        home = sys.modules[value.__module__]
        assert getattr(home, name) is value
        assert name in dir(rcbounds)
    with pytest.raises(AttributeError):
        rcbounds.no_such_name


def test_import_loads_no_scipy_module():
    # no module of the package imports scipy; the tests keep it as their
    # reference, and nothing loads it on import
    code = ("import sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "import rcbounds\n"
            "print(loaded())\n"
            "import rcbounds.cli\n"
            "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]


_CHILD = """
import json, sys
if sys.argv[1] != "plain":
    sys.modules[sys.argv[1]] = None  # any import of it raises ImportError
from rcbounds.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[2])]))
"""


def test_bound_and_samplesize_run_without_scipy(tmp_path):
    requests = []
    for case in ("bounded", "phi_moment", "geometric", "algebraic"):
        spec = ALGEBRAIC_INPUTS if case == "algebraic" else CHAIN_INPUTS
        eps = 1.01 * risk_bound(bound_inputs_from_spec(spec), 50_000, 0.1,
                                case).total
        requests.append(("bound", {"case": case, "n": 4096, "delta": 0.1,
                                   "inputs": spec, "prefix": f"b_{case}"},
                         ["--curve", "1000:100000:16"]))
        requests.append(("samplesize", {"case": case, "delta": 0.1,
                                        "epsilon": eps, "inputs": spec,
                                        "prefix": f"s_{case}"}, []))
    # an exp moment function with Gaussian innovations: the norm mgf in
    # closed form (one dimension) and as a series (two)
    laws = {"z": InnovationLaw("gaussian", 2, 0.5),
            "y": InnovationLaw("gaussian", 1, 0.4)}
    profile = dict(CHAIN_INPUTS["profile"])
    for role, law in laws.items():
        profile.update({f"xi_law_{role}": to_spec(law),
                        f"xi_mean_abs_{role}": law.mean_abs_norm().value,
                        f"xi_second_{role}": law.second_moment().value})
        del profile[f"xi_bound_{role}"]
    spec = dict(CHAIN_INPUTS, phi={"kind": "exp"}, profile=profile)
    requests.append(("bound", {"case": "phi_moment", "n": 4096, "delta": 0.1,
                               "inputs": spec, "prefix": "b_exp_gauss"}, []))
    artifacts = {}
    for mode in ("scipy", "numpy", "plain"):
        out = tmp_path / mode
        argvs = [[cmd, "--config",
                  write_config(tmp_path, f"{cfg['prefix']}.json", cfg),
                  "--out", str(out)] + extra for cmd, cfg, extra in requests]
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, mode, json.dumps(argvs)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0] * 9
        artifacts[mode] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(artifacts["numpy"]) == 13  # 9 reports and 4 curves
    assert artifacts["scipy"] == artifacts["numpy"] == artifacts["plain"]


def test_bound_report_lists_input_provenance(tmp_path, capsys):
    inputs = dict(GEO_INPUTS, e_loss_zero={"value": 0.5, "std_error": 0.01})
    for name, spec in (("exact", GEO_INPUTS), ("mc", inputs)):
        cfg = write_config(tmp_path, f"{name}.json",
                           {"case": "geometric", "n": 4096, "delta": 0.1,
                            "inputs": spec, "prefix": name})
        code, _, _ = run_cli(capsys, ["bound", "--config", cfg,
                                      "--out", str(tmp_path)])
        assert code == 0
    assert json.loads((tmp_path / "exact.json").read_text())["provenance"] == []
    data = json.loads((tmp_path / "mc.json").read_text())
    assert data["provenance"] == ["mc moment input"]


def test_samplesize_report_lists_input_provenance(tmp_path, capsys):
    inputs = dict(GEO_INPUTS, e_loss_zero={"value": 0.5, "std_error": 0.01})
    for name, spec in (("exact", GEO_INPUTS), ("mc", inputs)):
        cfg = write_config(tmp_path, f"{name}.json",
                           {"case": "geometric", "delta": 0.1, "epsilon": 5.0,
                            "inputs": spec, "prefix": name})
        code, _, _ = run_cli(capsys, ["samplesize", "--config", cfg,
                                      "--out", str(tmp_path)])
        assert code == 0
    assert json.loads((tmp_path / "exact.json").read_text())["provenance"] == []
    data = json.loads((tmp_path / "mc.json").read_text())
    assert data["n_min"] is not None
    assert data["provenance"] == ["mc moment input"]


@pytest.mark.parametrize("law, r", [
    ({"kind": "laplace", "dim": 1, "scale": 1.0}, 0.3),
    ({"kind": "gaussian", "dim": 1, "scale": 1.0}, 0.99),
    ({"kind": "gaussian", "dim": 2, "scale": 1.0}, 0.99),
], ids=["laplace", "gaussian_1d", "chi_2d"])
def test_diverging_moment_function_expectation_is_a_vacuous_report(
        tmp_path, capsys, law, r):
    # an exp moment function on these laws has an infinite expectation (or
    # one past the float range): no certificate, and no error either
    profile = dict(CHAIN_INPUTS["profile"], xi_law_z=law, xi_law_y=law)
    inputs = dict(CHAIN_INPUTS, r=r, phi={"kind": "exp"}, profile=profile)
    diverging = ("diverging moment-function expectation "
                 "E[Phi(2 c_mom_z ||xi_z||)^2]")
    for command, config in (
            ("bound", {"case": "phi_moment", "n": 10 ** 4, "delta": 0.1}),
            ("samplesize", {"case": "phi_moment", "delta": 0.1,
                            "epsilon": 50.0})):
        cfg = write_config(tmp_path, f"{command}.json",
                           dict(config, inputs=inputs))
        code, report, err = run_cli(capsys, [command, "--config", cfg,
                                             "--out", str(tmp_path)])
        assert code == 0, err
        data = json.loads(Path(report["report"]).read_text())
        assert diverging in data["provenance"]
        if command == "bound":
            assert report["bound"] is None and report["valid"] is False
            assert data["bound"] is None and data["valid"] is False
        else:
            assert report["n_min"] is None and data["n_min"] is None


BOUND = {"case": "geometric", "n": 64, "delta": 0.1, "inputs": GEO_INPUTS}
SAMPLESIZE = {"case": "geometric", "delta": 0.1, "epsilon": 5.0,
              "inputs": GEO_INPUTS}
LIPSCHITZ = {"kind": "lipschitz", "input_bound": 1, "n_pairs": 20,
             "history": 16}
COVERAGE = {"kind": "coverage", "class": LIN_CLASS, "process": IID_UNIF,
            "case": "bounded", "n": 256, "n_trials": 8, "n_random": 4,
            "history": 40, "n_pool": 2000, "erm_iters": 10, "seed": 0}
THETA = {"kind": "theta", "process": GARCH, "taus": [1, 2, 4], "n_mc": 50,
         "decay": "geometric", "expect": {"exponent": 0.9}}
RADEMACHER = {"kind": "rademacher", "class": LIN_CLASS, "process": IID_UNIF,
              "ks": [4], "n_rep": 4, "n_random": 2, "history": 10}
TRUNCATION = {"kind": "truncation", "class": LIN_CLASS, "process": IID_UNIF,
              "y_law": {"kind": "uniform"}, "ns": [8], "n_trials": 4,
              "n_random": 2}
CONSISTENCY = {"kind": "consistency", "case": "geometric", "ns": [64, 128],
               "class": LIN_CLASS, "process": IID_UNIF,
               "target": {"kind": "teacher"}, "n_trials": 4, "n_random": 2,
               "history": 20, "n_pool": 200}


def test_coverage_report_gives_pool_std_error(tmp_path, capsys):
    runs = {
        # teacher targets on i.i.d. inputs: every true risk is closed form
        "closed": dict(COVERAGE, target={"kind": "teacher"},
                       case="geometric", profile_mc=500, fit_erm=False),
        # GARCH(1,1) inputs have no closed form: the pool gives them
        "garch": {**COVERAGE, "case": "geometric", "n_pool": 500,
                  "profile_mc": 500,
                  "class": dict(LIN_CLASS, input_bound=5.0,
                                input_second_moment=1.0),
                  "process": {"kind": "garch11", "omega": 0.05,
                              "alpha": 0.10, "beta": 0.85},
                  "target": {"kind": "independent",
                             "law": {"kind": "gaussian", "dim": 1,
                                     "scale": 0.7}}},
    }
    errors = {}
    for name, config in runs.items():
        cfg = write_config(tmp_path, f"{name}.json",
                           dict(config, prefix=name))
        code, report, _ = run_cli(capsys, ["validate", "--config", cfg,
                                           "--out", str(tmp_path)])
        assert code == 0
        errors[name] = report["pool_std_error"]
    assert errors["closed"] is None
    assert isinstance(errors["garch"], float) and errors["garch"] > 0


def test_coverage_unbounded_independent_target_is_refused(tmp_path, capsys):
    # gaussian targets have no bound, so the bounded case does not apply;
    # the y-role used to copy the inputs' xi_bound = 1 and report a pass
    target = {"kind": "independent",
              "law": {"kind": "gaussian", "dim": 1, "scale": 3.0}}
    cfg = write_config(tmp_path, "cov.json", dict(COVERAGE, target=target))
    code, report, err = run_cli(capsys, ["validate", "--config", cfg,
                                         "--out", str(tmp_path)])
    assert code in (2, 3) and report is None
    assert "xi_bound_y" in err and "target" in err


@pytest.mark.parametrize("command, config", [
    ("validate", dict(COVERAGE, target={"kind": "teacher"}, profile_mc=500)),
    ("validate", dict(CONSISTENCY, case="bounded")),
    ("bound", dict(BOUND, case="bounded")),
    ("samplesize", dict(SAMPLESIZE, case="bounded")),
], ids=["coverage", "consistency", "bound", "samplesize"])
def test_case_its_profile_cannot_serve_exits_two(tmp_path, capsys, monkeypatch,
                                                 command, config):
    # a teacher target's profile is geometric, and so is the inputs'
    # profile of bound and samplesize; the bounded case needs a lipschitz
    # one, which no candidate or ERM fit can change
    from rcbounds import validation

    def candidate_work(*args, **kwargs):
        raise AssertionError("candidate work ran")

    monkeypatch.setattr(validation, "risk_gap_experiment", candidate_work)
    monkeypatch.setattr(validation, "consistency_curve", candidate_work)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "bad.json", config)
    code, report, err = run_cli(capsys, [command, "--config", cfg,
                                         "--out", str(out)])
    assert code == 2 and report is None
    assert "config error" in err and "needs a lipschitz profile" in err
    assert list(out.iterdir()) == []


def test_coverage_independent_target_profile_from_target_law(tmp_path,
                                                             capsys):
    target = {"kind": "independent",
              "law": {"kind": "uniform", "dim": 1, "scale": 0.8}}
    config = dict(COVERAGE, target=target, prefix="cov")
    model = model_from_spec(IID_UNIF)
    prof = _coverage_profile(config, None, model, 0, 20_000)
    inputs = dependence_params(model, seed=5)
    assert prof.xi_bound_z == 1.0 and prof.xi_bound_y == 0.8
    assert prof.xi_law_z == UNIF_Z and prof.xi_law_y == UNIF_Y
    assert prof.xi_mean_abs_y.value == UNIF_Y.mean_abs_norm().value
    assert (prof.c_z, prof.xi_mean_abs_z) == (inputs.c_z, inputs.xi_mean_abs_z)
    cfg = write_config(tmp_path, "cov.json", config)
    code, report, _ = run_cli(capsys, ["validate", "--config", cfg,
                                       "--out", str(tmp_path)])
    assert code == 0 and report["case"] == "bounded" and report["pass"]


def test_empty_target_law_reads_as_standard_gaussian():
    # an innovation law defaults its kind like its other fields
    config = dict(COVERAGE, target={"kind": "independent", "law": {}})
    prof = _coverage_profile(config, None, model_from_spec(IID_UNIF), 0,
                             20_000)
    assert prof.xi_law_y == InnovationLaw("gaussian", 1, 1.0)
    assert prof.xi_law_z == UNIF_Z


def test_coverage_independent_target_y_role_is_exact_zero(tmp_path, capsys):
    target = {"kind": "independent",
              "law": {"kind": "gaussian", "dim": 1, "scale": 0.5}}
    config = dict(COVERAGE, process=GARCH, target=target, case="geometric",
                  profile_mc=2000, prefix="cov")
    model = model_from_spec(GARCH)
    prof = _coverage_profile(config, None, model, 0, 2000)
    inputs = dependence_params(model, n_mc=2000, seed=5)
    assert prof.exact_zero_y and prof.c_y == Moment(0.0, 0.0, "exact-zero")
    assert (prof.regime, prof.c_z, prof.rate_z) == ("geometric", inputs.c_z,
                                                     inputs.rate_z)
    # the same run with the y-role copied from the inputs
    copied = {"regime": "geometric", "rate_z": inputs.rate_z,
              "rate_y": inputs.rate_y,
              "c_z": {"value": inputs.c_z.value,
                      "std_error": inputs.c_z.std_error},
              "c_y": {"value": inputs.c_y.value,
                      "std_error": inputs.c_y.std_error}}
    reports = []
    for name, cfg in (("zero.json", config),
                      ("copied.json", dict(config, profile=copied))):
        code, report, _ = run_cli(capsys, [
            "validate", "--config", write_config(tmp_path, name, cfg),
            "--out", str(tmp_path)])
        assert code == 0 and report["coverage"] == 1.0
        reports.append(report)
    zero, old = reports
    assert zero["gaps"] == old["gaps"]
    assert zero["bound"] < old["bound"]


@pytest.mark.parametrize("command, config, override", [
    ("bound", BOUND, "inputs.r=x"),
    ("bound", BOUND, "inputs.profile.rate_z=x"),
    ("validate", {**LIPSCHITZ, "class": LIN_CLASS}, "class.lam_a=null"),
    ("validate", {**LIPSCHITZ, "class": ESN_CLASS}, "class.row_a=x"),
    ("validate", {**LIPSCHITZ, "class": SAS_CLASS}, "class.c_sas=[1]"),
    ("validate", {**LIPSCHITZ, "class": RANDOM_ESN_CLASS},
     "class.base_seed=x"),
    ("validate", dict(COVERAGE, target={"kind": "teacher"}), "loss.l_l=null"),
    ("validate", dict(COVERAGE, target={"kind": "teacher"},
                      phi={"kind": "power"}), "phi.p=x"),
    ("validate", dict(COVERAGE, target={"kind": "independent",
                                        "law": {"kind": "uniform"}}),
     "target.law.scale=[]"),
    # a boolean is a JSON true or false: the text "False" is no boolean
    ("bound", BOUND, "inputs.profile.exact_zero_y=False"),
    ("validate", dict(COVERAGE, target={"kind": "teacher"}), "fit_erm=no"),
    # each target kind refuses the keys of the other
    ("validate", dict(COVERAGE, target={"kind": "teacher"}, case="geometric",
                      profile_mc=500, fit_erm=False),
     'target.law={"kind": "bogus-law"}'),
    ("validate", dict(COVERAGE, target={"kind": "independent",
                                        "law": {"kind": "uniform"}}),
     'target.noise={"kind": "uniform"}'),
    ("validate", dict(COVERAGE, target={"kind": "independent",
                                        "law": {"kind": "uniform"}}),
     "target.teacher_seed=3"),
], ids=["inputs", "profile", "linear", "esn", "sas", "random_esn", "loss",
        "phi", "target_law", "bool-text", "fit_erm-text", "teacher-law",
        "independent-noise", "independent-teacher_seed"])
def test_malformed_block_value_exits_two(tmp_path, capsys, command, config,
                                         override):
    cfg = write_config(tmp_path, "cfg.json", config)
    code, report, err = run_cli(capsys, [command, "--config", cfg, "--out",
                                         str(tmp_path), "--set", override])
    assert code == 2 and report is None and "config error" in err


@pytest.mark.parametrize("command, config, override", [
    ("simulate", {"process": IID_UNIF, "n": 4}, "seed=x"),
    ("simulate", {"process": IID_UNIF, "n": 4}, "seed=-1"),
    ("validate", LIPSCHITZ, "seed=-1"),
    ("validate", dict(COVERAGE, target={"kind": "teacher"}), "seed=1.5x"),
    ("validate", dict(COVERAGE, target={"kind": "teacher"}),
     "class.l_h=Infinity"),
    ("validate", dict(LIPSCHITZ, **{"class": ESN_CLASS}), "class.spec_a=-1"),
    ("validate", dict(LIPSCHITZ, **{"class": SAS_CLASS}),
     "class.c_sas=Infinity"),
    ("validate", dict(COVERAGE, target={"kind": "independent",
                                        "law": {"kind": "uniform"}}),
     "target.law.scale=Infinity"),
    ("bound", BOUND, "inputs.profile.l_z=-1"),
    ("validate", THETA, "expect.rate_max=x"),
    ("validate", THETA, "expect.exponent=x"),
    ("validate", THETA, "expect.tol=x"),
    ("simulate", {"process": IID_UNIF, "n": 4}, "nominal_rate=x"),
    ("simulate", {"process": IID_UNIF, "n": 4}, "nominal_rate=2"),
    ("validate", dict(LIPSCHITZ, **{"class": LIN_CLASS}),
     "input_bound=Infinity"),
    # bound and samplesize read their seed and prefix by the rule of the
    # other commands, and epsilon is finite
    ("bound", BOUND, "seed=-1"),
    ("bound", BOUND, "seed=1.5"),
    ("samplesize", SAMPLESIZE, "seed=x"),
    ("samplesize", SAMPLESIZE, "epsilon=Infinity"),
    ("bound", BOUND, "prefix=null"),
    ("samplesize", SAMPLESIZE, "prefix=true"),
    ("simulate", {"process": IID_UNIF, "n": 4}, "prefix=7"),
    ("validate", dict(LIPSCHITZ, **{"class": LIN_CLASS}), "prefix=null"),
    # a boolean is no count: true used to read as 1 (a 1-step path, 1 pair,
    # a 1-state class)
    ("simulate", {"process": IID_UNIF, "n": 4}, "n=true"),
    ("validate", dict(LIPSCHITZ, **{"class": LIN_CLASS}), "n_pairs=true"),
    ("validate", dict(LIPSCHITZ, **{"class": LIN_CLASS}), "class.n_state=true"),
], ids=["seed-text", "seed-negative", "validate-seed-negative",
        "validate-seed-text", "linear-l_h-inf", "esn-spec_a-negative",
        "sas-c_sas-inf", "law-scale-inf", "profile-l_z-negative",
        "expect-rate_max-text", "expect-exponent-text", "expect-tol-text",
        "nominal_rate-text", "nominal_rate-out-of-range",
        "input_bound-inf", "bound-seed-negative", "bound-seed-fraction",
        "samplesize-seed-text", "epsilon-inf", "prefix-null",
        "prefix-bool", "prefix-number", "validate-prefix-null",
        "simulate-n-bool", "n_pairs-bool", "class-n_state-bool"])
def test_bad_seed_cap_or_profile_exits_two(tmp_path, capsys, command, config,
                                           override):
    cfg = write_config(tmp_path, "cfg.json", config)
    code, report, err = run_cli(capsys, [command, "--config", cfg, "--out",
                                         str(tmp_path), "--set", override])
    assert code == 2 and report is None and "config error" in err


@pytest.mark.parametrize("config, key", [
    (LIPSCHITZ, "bogus"), (LIPSCHITZ, "process"), (THETA, "class"),
    (COVERAGE, "y_law"), (TRUNCATION, "target"),
])
def test_validate_unknown_key_exits_two(tmp_path, capsys, config, key):
    # a key is a setting of its kind or one of the model blocks it reads
    cfg = write_config(tmp_path, "cfg.json", dict(config, **{key: 1}))
    code, report, err = run_cli(capsys, ["validate", "--config", cfg,
                                         "--out", str(tmp_path)])
    assert code == 2 and report is None and repr(key) in err


@pytest.mark.parametrize("config, override", [
    (RADEMACHER, "ks=[]"), (RADEMACHER, "ks=4"), (THETA, "taus=[]"),
    (THETA, "taus=3"), (TRUNCATION, "ns=[]"), (CONSISTENCY, "ns=[]"),
], ids=["ks-empty", "ks-scalar", "taus-empty", "taus-scalar",
        "truncation-ns-empty", "consistency-ns-empty"])
def test_empty_or_scalar_grid_exits_two(tmp_path, capsys, config, override):
    # a run over no cells would pass vacuously, and a scalar is no grid
    cfg = write_config(tmp_path, "cfg.json", config)
    code, report, err = run_cli(capsys, ["validate", "--config", cfg, "--out",
                                         str(tmp_path), "--set", override])
    assert code == 2 and report is None and "config error" in err


@pytest.mark.parametrize("config, override", [
    (RADEMACHER, "ks=[2.7]"), (THETA, "taus=[1, 2.5, 4]"),
    (BOUND, "n=512.9"), (COVERAGE, "n=64.5"),
], ids=["ks-entry", "taus-entry", "bound-n", "coverage-n"])
def test_non_integral_count_exits_two(tmp_path, capsys, config, override):
    # 2.7 used to run as k = 2 and 512.9 as n = 512
    command = "bound" if config is BOUND else "validate"
    cfg = write_config(tmp_path, "cfg.json", config)
    code, report, err = run_cli(capsys, [command, "--config", cfg, "--out",
                                         str(tmp_path), "--set", override])
    assert code == 2 and report is None and "must be an integer" in err


def test_integral_counts_read_as_before():
    for value in (512, 512.0, "512", " 512 "):
        assert _pos_int(value, "n") == 512
    for value in (512.9, "512.0", "x", None, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="n must be an integer"):
            _pos_int(value, "n")


WIDE_ESN = dict(ESN_CLASS, n_input=2, input_second_moment=2.0 / 3.0)


@pytest.mark.parametrize("config", [
    {"kind": "rademacher", "class": WIDE_ESN, "process": IID_UNIF, "ks": [4],
     "n_rep": 4, "n_random": 2, "history": 10},
    dict(COVERAGE, target={"kind": "teacher"},
         **{"class": dict(LIN_CLASS, n_input=2)}),
    {"kind": "truncation", "class": WIDE_ESN, "process": IID_UNIF,
     "y_law": {"kind": "uniform"}, "ns": [8], "n_trials": 4, "n_random": 2},
    {"kind": "consistency", "case": "bounded", "ns": [64, 128],
     "class": dict(LIN_CLASS, n_input=2), "process": IID_UNIF,
     "target": {"kind": "teacher"}, "n_trials": 4, "n_random": 2,
     "history": 20, "n_pool": 200},
], ids=["rademacher", "coverage", "truncation", "consistency"])
def test_class_input_width_must_match_the_process(tmp_path, capsys, config):
    # a 2-input class on a scalar process is a config error, not a run
    # whose filters broadcast one input column into both input rows
    cfg = write_config(tmp_path, "cfg.json", config)
    code, report, err = run_cli(capsys, ["validate", "--config", cfg,
                                         "--out", str(tmp_path)])
    assert code == 2 and report is None and "n_input" in err


def test_negative_seed_flag_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {"process": IID_UNIF, "n": 4})
    code, report, err = run_cli(capsys, ["simulate", "--config", cfg, "--out",
                                         str(tmp_path), "--seed", "-1"])
    assert code == 2 and report is None and "seed" in err


def test_block_defaults_and_zero_caps_follow_the_types():
    # a zero readout cap is a valid class, and phi's kind has a default
    for klass in (LIN_CLASS, ESN_CLASS, SAS_CLASS, RANDOM_ESN_CLASS):
        assert class_from_spec(dict(klass, l_h=0)).l_h == 0
    assert class_from_spec(dict(RANDOM_ESN_CLASS, c_scale=0)).c_scale == 0
    inputs = bound_inputs_from_spec(dict(CHAIN_INPUTS, phi={}))
    assert inputs.phi == PhiFunction("power", 2.0)
