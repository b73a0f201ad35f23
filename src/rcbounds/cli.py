"""Configuration-driven command line front end.

Subcommands: simulate | bound | samplesize | validate.  Each invocation
reads one JSON config (overridable with repeated ``--set key=value``),
writes its artifacts (JSON reports, plot-ready CSV) under ``--out``, and
prints a one-line JSON summary to stdout.  Identical configs produce
byte-identical artifacts; ``--jobs`` only changes how many workers grind
through grid-shaped Monte Carlo work, never the numbers.

Exit codes: 0 success, 2 config error, 3 runtime error, 4 a validation
experiment ran to completion but its pass condition failed.
"""

import argparse
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .bounds import (
    _CASES,
    BoundInputs,
    PhiFunction,
    bound_from_constants,
    expected_gap_constants,
    min_sample_size,
    rademacher_constant,
    risk_bound,
)
from .learning import IndependentJoint, LossFunction, TeacherJoint
from .processes import (
    DependenceProfile,
    IIDProcess,
    InnovationLaw,
    Moment,
    batch_paths,
    combine_profiles,
    dependence_params,
    estimate_theta,
    fit_theta_decay,
    model_from_spec,
)
from .reservoir import (
    Activation,
    EchoStateClass,
    LinearClass,
    StateAffineClass,
    random_esn,
    sample_from_class,
)
from .validation import (
    consistency_curve,
    history_lipschitz_check,
    mc_rademacher,
    risk_gap_experiment,
    teacher_target_profile,
    truncation_gap_experiment,
)

__all__ = [
    "ConfigError",
    "main",
    "run_bound",
    "run_samplesize",
    "run_simulate",
    "run_validate",
]


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _check_keys(spec, allowed, where):
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")


def _require(spec, key, where):
    if key not in spec:
        raise ConfigError(f"missing key {key!r} in {where}")
    return spec[key]


def _case(config, where):
    case = str(_require(config, "case", where))
    if case not in _CASES:
        raise ConfigError(f"case must be one of {list(_CASES)}")
    return case


def _cfg(build, *args, **kwargs):
    """Run a constructor on config data; its ValueErrors are config errors."""
    try:
        return build(*args, **kwargs)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _pos_int(value, where, minimum=1):
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be an integer") from None
    if n < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")
    return n


def _seed(config):
    """The config's top-level seed (default 0), an integer >= 0."""
    return _pos_int(config.get("seed", 0), "seed", minimum=0)


def _pos_float(value, where):
    x = _read(float, value, where)
    if not x > 0:
        raise ConfigError(f"{where} must be > 0")
    return x


def _prob(value, where):
    x = _read(float, value, where)
    if not 0 < x < 1:
        raise ConfigError(f"{where} must lie in (0, 1)")
    return x


def _moment(value, where):
    # a config value with a std error is treated like an MC estimate
    try:
        if isinstance(value, dict):
            _check_keys(value, {"value", "std_error"}, where)
            v = float(_require(value, "value", where))
            se = float(value.get("std_error", 0.0))
        else:
            v, se = float(value), 0.0
        return Moment(v, se, "mc" if se > 0 else "analytic")
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read(typ, value, where):
    """One config value read as the annotated type of its field."""
    if typ is int:
        return _pos_int(value, where)
    if typ is Moment:
        return _moment(value, where)
    if dataclasses.is_dataclass(typ) and typ is not Activation:
        return _from_spec(typ, value, f"{where} spec")
    try:
        return typ(value)  # float, str, bool, tuple, Activation
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _from_spec(cls, spec, where):
    """A frozen dataclass built from a config block.

    The keys are the fields of cls; a field without a default is
    required, a null leaves a field that defaults to None unset, and each
    value is read by the field's annotated type.
    """
    fields = dataclasses.fields(cls)
    _check_keys(spec, [f.name for f in fields], where)
    kwargs = {}
    for f in fields:
        if f.name in spec and not (spec[f.name] is None and f.default is None):
            kwargs[f.name] = _read(f.type, spec[f.name], f.name)
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"missing key {f.name!r} in {where}")
    return _cfg(cls, **kwargs)


_FAMILIES = {"linear": LinearClass, "esn": EchoStateClass,
             "sas": StateAffineClass}
# random_esn's spec describes a draw (entry_law, base_seed), not the fields
# of RandomEchoStateClass
_RANDOM_ESN_REQUIRED = {"n_state": int, "n_input": int, "n_out": int,
                        "a": float, "c_scale": float, "zeta_scale": float,
                        "l_h": float, "l_h0": float}
_RANDOM_ESN_OPTIONAL = {"activation": Activation, "input_bound": float,
                        "input_second_moment": Moment}


def _random_esn_from_spec(spec, where):
    _check_keys(spec, {*_RANDOM_ESN_REQUIRED, *_RANDOM_ESN_OPTIONAL,
                       "entry_law", "base_seed"}, where)
    kw = {key: _read(typ, _require(spec, key, where), key)
          for key, typ in _RANDOM_ESN_REQUIRED.items()}
    kw.update({key: _read(typ, spec[key], key)
               for key, typ in _RANDOM_ESN_OPTIONAL.items()
               if spec.get(key) is not None})
    return _cfg(random_esn, entry_law=str(spec.get("entry_law", "gaussian")),
                seed=_pos_int(spec.get("base_seed", 0), "base_seed", minimum=0),
                **kw)


def class_from_spec(spec):
    """Build a hypothesis class from a JSON-style dict: "family" picks the
    class and the other keys are its fields."""
    if not isinstance(spec, dict):
        raise ConfigError("class spec must be a JSON object")
    family = str(_require(spec, "family", "class spec"))
    fields = {k: v for k, v in spec.items() if k != "family"}
    where = f"{family} class spec"
    if family == "random_esn":
        return _random_esn_from_spec(fields, where)
    if family not in _FAMILIES:
        raise ConfigError(f"unknown class family {family!r}")
    return _from_spec(_FAMILIES[family], fields, where)


def loss_from_spec(spec):
    return _from_spec(LossFunction, spec, "loss spec")


def profile_from_spec(spec):
    """Explicit numeric dependence profile; moments may carry std errors."""
    return _from_spec(DependenceProfile, spec, "profile spec")


def bound_inputs_from_spec(spec):
    return _from_spec(BoundInputs, spec, "inputs spec")


def _load_config(path, overrides, seed_flag):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {dotted!r} crosses a non-object")
        node[keys[-1]] = value
    if seed_flag is not None:
        config["seed"] = int(seed_flag)
    return config


# ---------------------------------------------------------------------------
# deterministic artifact writers
# ---------------------------------------------------------------------------


def _scrub(obj):
    """JSON-safe copy: numpy scalars to python, non-finite floats to None."""
    if isinstance(obj, dict):
        return {str(k): _scrub(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_scrub(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_scrub(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else None
    return obj


def _write_json(path, obj):
    data = json.dumps(_scrub(obj), sort_keys=True, indent=2) + "\n"
    Path(path).write_bytes(data.encode("utf-8"))


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _moment_json(m):
    if m is None:
        return None
    return {"value": m.value, "std_error": m.std_error,
            "provenance": m.provenance}


def _profile_json(prof):
    out = {"regime": prof.regime, "c_z": _moment_json(prof.c_z),
           "rate_z": prof.rate_z, "c_y": _moment_json(prof.c_y),
           "rate_y": prof.rate_y, "exact_zero_z": prof.exact_zero_z,
           "exact_zero_y": prof.exact_zero_y}
    if prof.regime == "algebraic":
        out["alpha_z"] = prof.rate_z
        out["alpha_y"] = prof.rate_y
    if prof.l_z is not None:
        out["l_z"] = prof.l_z
        out["l_y"] = prof.l_y
        out["xi_mean_abs_z"] = _moment_json(prof.xi_mean_abs_z)
        out["xi_second_z"] = _moment_json(prof.xi_second_z)
        out["xi_bound_z"] = prof.xi_bound_z
    return out


def _prefix(config, default):
    prefix = str(config.get("prefix", default))
    if not re.fullmatch(r"[A-Za-z0-9._-]+", prefix):
        raise ConfigError("prefix must match [A-Za-z0-9._-]+")
    return prefix


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def run_simulate(config, out_dir):
    allowed = {"process", "n", "n_paths", "burn_in", "seed", "prefix",
               "profile_mc", "nominal_rate"}
    _check_keys(config, allowed, "simulate config")
    model = _cfg(model_from_spec, _require(config, "process", "simulate config"))
    n = _pos_int(_require(config, "n", "simulate config"), "n")
    n_paths = _pos_int(config.get("n_paths", 1), "n_paths")
    seed = _seed(config)
    burn_in = (None if config.get("burn_in") is None
               else _pos_int(config["burn_in"], "burn_in", minimum=0))
    prefix = _prefix(config, "path")

    paths = batch_paths(model, n_paths, n, burn_in=burn_in, seed=seed)
    d = paths.shape[2]
    header = (["path"] if n_paths > 1 else []) + ["t"] + [f"z{i}" for i in range(d)]
    rows = []
    for b in range(n_paths):
        for t in range(n):
            lead = [b, t] if n_paths > 1 else [t]
            rows.append(lead + [float(v) for v in paths[b, t]])
    csv_path = out_dir / f"{prefix}.csv"
    _write_csv(csv_path, header, rows)

    prof = dependence_params(model, n_mc=_pos_int(config.get("profile_mc", 20000),
                                                  "profile_mc", minimum=2),
                             seed=seed,
                             nominal_rate=float(config.get("nominal_rate", 0.5)))
    sidecar = _profile_json(prof)
    sidecar_path = out_dir / f"{prefix}_profile.json"
    _write_json(sidecar_path, sidecar)
    return {"command": "simulate", "csv": str(csv_path),
            "sidecar": str(sidecar_path), "n": n, "n_paths": n_paths,
            "dim": d, "regime": prof.regime}


# ---------------------------------------------------------------------------
# bound / samplesize
# ---------------------------------------------------------------------------


def _bound_report_json(report):
    c = report.constants
    out = {"case": report.case, "n": report.n, "delta": report.delta,
           "bound": report.total, "valid": report.valid, "tau": report.tau,
           "k": report.k, "terms": dict(report.terms or {}),
           "C0": c.c0, "C1": c.c1, "C2": c.c2, "C3": c.c3,
           "C3abs": c.c3_abs, "lambda_max": c.lambda_max,
           "M": c.big_m, "B": c.b, "C_RC": c.c_rc, "r": c.r}
    if c.alpha is not None:
        out["alpha"] = c.alpha
        out["gamma_alpha"] = c.gamma_alpha
        out["C1abs"] = c.c1_abs
    if c.c_bd is not None:
        out["C_bd"] = c.c_bd
    out["provenance"] = list(c.provenance)
    return out


def _parse_curve(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("--curve expects N1:N2:STEPS")
    n1 = _pos_int(parts[0], "curve N1")
    n2 = _pos_int(parts[1], "curve N2")
    steps = _pos_int(parts[2], "curve STEPS")
    if n2 < n1:
        raise ConfigError("curve needs N2 >= N1")
    if steps == 1:
        return [n1]
    grid = np.geomspace(n1, n2, steps)
    out = []
    for v in grid:
        ni = int(round(v))
        if not out or ni > out[-1]:
            out.append(ni)
    return out


def run_bound(config, out_dir, curve_flag):
    allowed = {"case", "n", "delta", "inputs", "curve", "prefix", "seed"}
    _check_keys(config, allowed, "bound config")
    case = _case(config, "bound config")
    n = _pos_int(_require(config, "n", "bound config"), "n")
    delta = _prob(_require(config, "delta", "bound config"), "delta")
    inputs = bound_inputs_from_spec(_require(config, "inputs", "bound config"))
    prefix = _prefix(config, "bound")

    report = risk_bound(inputs, n, delta, case)
    out = _bound_report_json(report)
    json_path = out_dir / f"{prefix}.json"
    _write_json(json_path, out)
    result = {"command": "bound", "report": str(json_path),
              "bound": report.total, "valid": report.valid, "case": case}

    curve = curve_flag if curve_flag is not None else config.get("curve")
    if curve is not None:
        grid = _parse_curve(str(curve))
        rows = []
        for ni in grid:
            rep = risk_bound(inputs, ni, delta, case)
            rows.append([ni, rep.total, rep.valid])
        csv_path = out_dir / f"{prefix}_curve.csv"
        _write_csv(csv_path, ["n", "bound", "valid"], rows)
        result["curve_csv"] = str(csv_path)
        result["curve_points"] = len(rows)
    return result


def run_samplesize(config, out_dir):
    allowed = {"case", "delta", "epsilon", "n_cap", "inputs", "prefix", "seed"}
    _check_keys(config, allowed, "samplesize config")
    case = _case(config, "samplesize config")
    delta = _prob(_require(config, "delta", "samplesize config"), "delta")
    epsilon = _pos_float(_require(config, "epsilon", "samplesize config"),
                         "epsilon")
    n_cap = _pos_int(config.get("n_cap", 10 ** 12), "n_cap")
    inputs = bound_inputs_from_spec(_require(config, "inputs",
                                             "samplesize config"))
    prefix = _prefix(config, "samplesize")

    consts = expected_gap_constants(inputs, case)
    n_min = min_sample_size(inputs, case, epsilon, delta, n_cap=n_cap)
    out = {"command": "samplesize", "case": case, "delta": delta,
           "epsilon": epsilon, "n_cap": n_cap,
           "n_min": None if n_min is None else int(n_min)}
    if n_min is not None:
        out["bound_at_n_min"] = bound_from_constants(consts, n_min, delta).total
    out["provenance"] = list(consts.provenance)
    json_path = out_dir / f"{prefix}.json"
    _write_json(json_path, out)
    out["report"] = str(json_path)
    return out


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _pmap(fn, payloads, jobs):
    """Order-stable map; each payload carries its own seeds, so the
    results do not depend on the worker count."""
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(fn, payloads))


def _joint_from_spec(target, klass, model):
    _check_keys(target, {"kind", "law", "noise", "teacher_seed"}, "target spec")
    kind = str(_require(target, "kind", "target spec"))
    if kind == "independent":
        law = _from_spec(InnovationLaw, _require(target, "law", "target spec"),
                         "target law")
        return _cfg(IndependentJoint, model, law)
    if kind == "teacher":
        seed = _pos_int(target.get("teacher_seed", 0), "teacher_seed", minimum=0)
        teacher = sample_from_class(klass, n=1, seed=seed)[0]
        noise = (None if target.get("noise") is None
                 else _from_spec(InnovationLaw, target["noise"], "teacher noise"))
        return _cfg(TeacherJoint, model, teacher, noise_law=noise)
    raise ConfigError("target kind must be 'independent' or 'teacher'")


def _coverage_profile(config, klass, model, seed):
    if config.get("profile") is not None:
        return profile_from_spec(config["profile"])
    n_mc = _pos_int(config.get("profile_mc", 20000), "profile_mc", minimum=2)
    z_prof = dependence_params(model, n_mc=n_mc, seed=seed + 5)
    target = _require(config, "target", "validate config")
    if target.get("kind") == "teacher":
        return _cfg(teacher_target_profile, z_prof, klass)
    # an independent target is an i.i.d. process of its own law: its theta
    # is exactly zero, and the lipschitz y-role (l_y, w_y, xi_*_y) must
    # describe that law
    if z_prof.regime != "lipschitz":
        return dataclasses.replace(z_prof, c_y=Moment(0.0, 0.0, "exact-zero"),
                                   exact_zero_y=True)
    y_law = _from_spec(InnovationLaw, _require(target, "law", "target spec"),
                       "target law")
    y_prof = dependence_params(IIDProcess(y_law), n_mc=n_mc, seed=seed + 5)
    return combine_profiles(z_prof, y_prof)


def _loss_and_phi(config):
    phi = config.get("phi")
    return (loss_from_spec(config.get("loss", {})),
            None if phi is None else _from_spec(PhiFunction, phi, "phi spec"))


def _experiment(config, seed):
    """(klass, joint, profile, loss, phi) of a coverage or consistency config."""
    klass = class_from_spec(_require(config, "class", "validate config"))
    model = _cfg(model_from_spec, _require(config, "process", "validate config"))
    joint = _joint_from_spec(_require(config, "target", "validate config"),
                             klass, model)
    loss, phi = _loss_and_phi(config)
    return klass, joint, _coverage_profile(config, klass, model, seed), loss, phi


def _rademacher_cell(payload):
    klass = class_from_spec(payload["class"])
    model = model_from_spec(payload["process"])
    est = mc_rademacher(klass, model, payload["k"], n_rep=payload["n_rep"],
                        history=payload["history"], seed=payload["cell_seed"],
                        n_random=payload["n_random"])
    return {"k": payload["k"], "estimate": est.value,
            "std_error": est.std_error}


def _theta_cell(payload):
    model = model_from_spec(payload["process"])
    est = estimate_theta(model, payload["tau"], n_mc=payload["n_mc"],
                         history=payload["history"],
                         seed=payload["cell_seed"])
    return {"tau": payload["tau"], "value": est.value,
            "std_error": est.std_error, "provenance": est.provenance}


def _consistency_cell(payload):
    seed = payload["seed"]
    klass, joint, prof, loss, phi = _experiment(payload["config"], seed)
    return consistency_curve(
        klass, joint, loss, prof, payload["config"]["case"], [payload["n"]],
        n_trials=payload["n_trials"], delta=payload["delta"],
        n_random=payload["n_random"], seed=seed, history=payload["history"],
        n_pool=payload["n_pool"], phi=phi)[0]


def _validate_rademacher(config, jobs):
    allowed = {"kind", "class", "process", "ks", "n_rep", "n_random",
               "history", "seed", "prefix"}
    _check_keys(config, allowed, "validate config")
    klass = class_from_spec(_require(config, "class", "validate config"))
    _cfg(model_from_spec, _require(config, "process", "validate config"))
    ks = [_pos_int(k, "ks entry") for k in _require(config, "ks", "validate config")]
    seed = _seed(config)
    n_rep = _pos_int(config.get("n_rep", 64), "n_rep")
    n_random = _pos_int(config.get("n_random", 16), "n_random")
    history = (None if config.get("history") is None
               else _pos_int(config["history"], "history"))
    c_rc = _cfg(rademacher_constant, klass)
    payloads = [{"class": config["class"], "process": config["process"],
                 "k": k, "n_rep": n_rep, "n_random": n_random,
                 "history": history, "cell_seed": seed + 1009 * k + 17}
                for k in ks]
    rows = _pmap(_rademacher_cell, payloads, jobs)
    for row in rows:
        cap = c_rc / math.sqrt(row["k"])
        row["cap"] = cap
        row["scaled"] = row["estimate"] * math.sqrt(row["k"])
        row["pass"] = row["estimate"] <= cap + 3 * row["std_error"]
    passed = all(row["pass"] for row in rows)
    return {"kind": "rademacher", "c_rc": c_rc, "rows": rows,
            "pass": passed}


def _validate_coverage(config, jobs):
    allowed = {"kind", "class", "process", "target", "loss", "case", "n",
               "delta", "n_trials", "n_random", "history", "n_pool",
               "erm_iters", "fit_erm", "seed", "profile", "profile_mc",
               "phi", "prefix"}
    _check_keys(config, allowed, "validate config")
    case = _case(config, "validate config")
    seed = _seed(config)
    klass, joint, prof, loss, phi = _experiment(config, seed)
    cov = risk_gap_experiment(
        klass, joint, loss, prof, case,
        n=_pos_int(_require(config, "n", "validate config"), "n"),
        n_trials=_pos_int(config.get("n_trials", 200), "n_trials"),
        delta=_prob(config.get("delta", 0.1), "delta"),
        n_random=_pos_int(config.get("n_random", 10), "n_random"),
        seed=seed,
        history=_pos_int(config.get("history", 200), "history"),
        n_pool=_pos_int(config.get("n_pool", 20000), "n_pool", minimum=2),
        fit_erm=bool(config.get("fit_erm", True)),
        erm_iters=_pos_int(config.get("erm_iters", 100), "erm_iters"),
        phi=phi)
    return {"kind": "coverage", "case": cov.case, "n": cov.n,
            "delta": cov.delta, "n_trials": cov.n_trials,
            "coverage": cov.coverage, "bound": cov.bound,
            "median_gap": cov.median_gap, "max_gap": cov.max_gap,
            "slack": cov.slack, "gaps": list(cov.gaps),
            "pool_std_error": cov.pool_std_error,
            "pass": cov.coverage == 1.0 and cov.slack > 1.0}


def _validate_truncation(config, jobs):
    allowed = {"kind", "class", "process", "y_law", "ns", "n_trials",
               "n_random", "loss", "seed", "prefix"}
    _check_keys(config, allowed, "validate config")
    klass = class_from_spec(_require(config, "class", "validate config"))
    model = _cfg(model_from_spec, _require(config, "process", "validate config"))
    y_law = _from_spec(InnovationLaw, _require(config, "y_law",
                                               "validate config"), "y_law")
    ns = tuple(_pos_int(n, "ns entry") for n in _require(config, "ns",
                                                         "validate config"))
    loss = (loss_from_spec(config["loss"]) if config.get("loss") is not None
            else None)
    res = truncation_gap_experiment(
        klass, model, y_law, ns=ns,
        n_trials=_pos_int(config.get("n_trials", 100), "n_trials"),
        n_random=_pos_int(config.get("n_random", 50), "n_random"),
        loss=loss, seed=_seed(config))
    return {"kind": "truncation", "ns": list(res["ns"]),
            "bounds": {str(n): res["bounds"][n] for n in res["ns"]},
            "max_gap": {str(n): res["max_gap"][n] for n in res["ns"]},
            "violations": res["violations"], "tolerance": res["tolerance"],
            "n_trials": res["n_trials"], "n_candidates": res["n_candidates"],
            "pass": res["violations"] == 0}


def _validate_lipschitz(config, jobs):
    allowed = {"kind", "class", "input_bound", "n_pairs", "history", "seed",
               "prefix"}
    _check_keys(config, allowed, "validate config")
    klass = class_from_spec(_require(config, "class", "validate config"))
    res = history_lipschitz_check(
        klass,
        input_bound=_pos_float(_require(config, "input_bound",
                                        "validate config"), "input_bound"),
        n_pairs=_pos_int(config.get("n_pairs", 200), "n_pairs"),
        history=_pos_int(config.get("history", 64), "history"),
        seed=_seed(config))
    return {"kind": "lipschitz", "worst_ratio": res["worst_ratio"],
            "n_pairs": res["n_pairs"], "n_systems": res["n_systems"],
            "pass": res["worst_ratio"] <= 1.0 + 1e-9}


def _validate_theta(config, jobs):
    allowed = {"kind", "process", "taus", "n_mc", "history", "seed", "decay",
               "expect", "prefix"}
    _check_keys(config, allowed, "validate config")
    _cfg(model_from_spec, _require(config, "process", "validate config"))
    taus = [_pos_int(t, "taus entry") for t in _require(config, "taus",
                                                        "validate config")]
    decay = str(_require(config, "decay", "validate config"))
    if decay not in ("geometric", "algebraic"):
        raise ConfigError("decay must be 'geometric' or 'algebraic'")
    seed = _seed(config)
    n_mc = _pos_int(config.get("n_mc", 10000), "n_mc", minimum=2)
    history = (None if config.get("history") is None
               else _pos_int(config["history"], "history"))
    payloads = [{"process": config["process"], "tau": tau, "n_mc": n_mc,
                 "history": history, "cell_seed": seed + 7919 * tau}
                for tau in taus]
    rows = _pmap(_theta_cell, payloads, jobs)
    fit = fit_theta_decay([(row["tau"], row["value"]) for row in rows], decay)
    out = {"kind": "theta", "decay": decay, "theta": rows,
           "fit": {"c": fit.c, "rate": fit.rate, "exact_zero": fit.exact_zero,
                   "n_used": fit.n_used}}
    expect = config.get("expect")
    passed = True
    if expect is not None:
        _check_keys(expect, {"rate_max", "exponent", "tol"}, "expect spec")
        if "rate_max" in expect:
            passed = passed and fit.rate <= float(expect["rate_max"])
        if "exponent" in expect:
            tol = float(expect.get("tol", 0.08))
            passed = passed and abs(fit.rate - float(expect["exponent"])) <= tol
        out["expect"] = expect
    out["pass"] = passed
    return out


def _validate_consistency(config, jobs):
    allowed = {"kind", "class", "process", "target", "loss", "case", "ns",
               "n_trials", "n_random", "delta", "history", "n_pool", "seed",
               "profile", "profile_mc", "phi", "prefix"}
    _check_keys(config, allowed, "validate config")
    case = _case(config, "validate config")
    class_from_spec(_require(config, "class", "validate config"))
    _cfg(model_from_spec, _require(config, "process", "validate config"))
    _require(config, "target", "validate config")
    _loss_and_phi(config)
    ns = [_pos_int(n, "ns entry") for n in _require(config, "ns",
                                                    "validate config")]
    seed = _seed(config)
    shared = {"n_trials": _pos_int(config.get("n_trials", 30), "n_trials"),
              "delta": _prob(config.get("delta", 0.1), "delta"),
              "n_random": _pos_int(config.get("n_random", 8), "n_random"),
              "history": _pos_int(config.get("history", 200), "history"),
              "n_pool": _pos_int(config.get("n_pool", 20000), "n_pool",
                                 minimum=2)}
    payloads = [dict(shared, config=config, seed=seed, n=n) for n in ns]
    rows = _pmap(_consistency_cell, payloads, jobs)
    bounds = [row["bound"] for row in rows]
    medians = [row["median_gap"] for row in rows]
    passed = (all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
              and all(m2 < m1 for m1, m2 in zip(medians, medians[1:])))
    return {"kind": "consistency", "case": case, "rows": rows, "pass": passed}


_VALIDATORS = {
    "rademacher": _validate_rademacher,
    "coverage": _validate_coverage,
    "truncation": _validate_truncation,
    "lipschitz": _validate_lipschitz,
    "theta": _validate_theta,
    "consistency": _validate_consistency,
}


def run_validate(config, out_dir, jobs):
    kind = str(_require(config, "kind", "validate config"))
    if kind not in _VALIDATORS:
        raise ConfigError(f"validate kind must be one of {list(_VALIDATORS)}")
    prefix = _prefix(config, f"validate_{kind}")
    report = _VALIDATORS[kind](config, jobs)
    json_path = out_dir / f"{prefix}.json"
    _write_json(json_path, report)
    report["report"] = str(json_path)
    report["command"] = "validate"
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rcbounds",
        description="simulate dependent processes, evaluate risk "
                    "certificates, solve for sample sizes, and run "
                    "Monte Carlo validation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "bound", "samplesize", "validate"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", default=".", help="artifact directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--jobs", type=int, default=1,
                         help="worker count for grid-shaped experiments")
        cmd.add_argument("--set", action="append", default=[],
                         metavar="K=V", dest="overrides",
                         help="override a config entry (dotted keys)")
        if name == "bound":
            cmd.add_argument("--curve", default=None, metavar="N1:N2:STEPS",
                             help="emit a bound-vs-n CSV on a log grid")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config, args.overrides, args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            report = run_simulate(config, out_dir)
        elif args.command == "bound":
            report = run_bound(config, out_dir, args.curve)
        elif args.command == "samplesize":
            report = run_samplesize(config, out_dir)
        else:
            report = run_validate(config, out_dir, max(1, args.jobs))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001  - any failure past config is runtime
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    sys.stdout.write(json.dumps(_scrub(report), sort_keys=True) + "\n")
    if args.command == "validate" and not report.get("pass", False):
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
