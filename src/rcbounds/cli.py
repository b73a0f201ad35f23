"""Configuration-driven command line front end.

Subcommands: simulate | bound | samplesize | validate.  Each invocation
reads one JSON config (overridable with repeated ``--set key=value``),
writes its artifacts (JSON reports, plot-ready CSV) under ``--out``, and
prints a one-line JSON summary to stdout.  Identical configs produce
byte-identical artifacts; ``--jobs`` only changes how many workers grind
through grid-shaped Monte Carlo work, never the numbers.

Every config key is read as a field of a type: seed and prefix of
_RunSettings, the others of the subcommand's settings type (for validate,
its kind's) or, in a model block, of the block's own type (rcbounds.specs).

Exit codes: 0 success, 2 config error, 3 runtime error, 4 a validation
experiment ran to completion but its pass condition failed.

bound and samplesize run on the standard library and the certificate chain
alone; simulate and validate import the simulation layers (and numpy) when
they run, and so does each grid cell a --jobs worker runs.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .bounds import (
    BoundInputs,
    BoundSettings,
    PhiFunction,
    SamplesizeSettings,
    _Settings,
    bound_from_constants,
    check_case_regime,
    expected_gap_constants,
    min_sample_size_from_constants,
    rademacher_constant,
)
from .dependence import DependenceProfile, InnovationLaw, Moment
from .specs import ConfigError, _cfg, _from_spec, _pick, _pos_int, to_spec

__all__ = [
    "ConfigError",
    "main",
    "run_bound",
    "run_samplesize",
    "run_simulate",
    "run_validate",
]


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RunSettings(_Settings):
    """What every command's config holds besides its command's settings:
    the seed of its draws and the stem of its artifacts' file names."""

    prefix: str
    seed: int = 0


def _read_config(config, command, settings_type, prefix, blocks=()):
    """A config's run settings (default prefix prefix) and settings_type,
    read from the fields of their types; the command reads the blocks."""
    run = {"prefix": prefix} | {k: config[k] for k in ("seed", "prefix")
                                if k in config}
    rest = {k: v for k, v in config.items()
            if k not in ("seed", "prefix", *blocks)}
    return (_from_spec(_RunSettings, run, f"{command} config"),
            _from_spec(settings_type, rest, f"{command} config"))


def class_from_spec(spec):
    """Build a hypothesis class from a JSON-style dict: "family" picks the
    class and the other keys are its fields; random_esn's are the draw of
    its template (RandomEchoStateDraw)."""
    from . import reservoir

    families = {"linear": reservoir.LinearClass, "esn": reservoir.EchoStateClass,
                "sas": reservoir.StateAffineClass,
                "random_esn": reservoir.RandomEchoStateDraw}
    family, klass = _pick(spec, "family", families, "class spec")
    return _cfg(klass.draw) if family == "random_esn" else klass


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


def _python(v):
    """A numpy array or scalar as the python lists and numbers its tolist
    gives; anything else unchanged."""
    return v.tolist() if hasattr(v, "tolist") else v


def _scrub(obj):
    """JSON-safe copy: numpy values to python, non-finite floats to None."""
    obj = _python(obj)
    if isinstance(obj, dict):
        return {str(k): _scrub(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_scrub(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    return obj


def _write_json(path, obj):
    data = json.dumps(_scrub(obj), sort_keys=True, indent=2) + "\n"
    Path(path).write_bytes(data.encode("utf-8"))


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in map(_python, row)))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _profile_json(prof):
    keys = ["regime", "c_z", "rate_z", "c_y", "rate_y", "exact_zero_z",
            "exact_zero_y"]
    if prof.l_z is not None:
        keys += ["l_z", "l_y", "xi_mean_abs_z", "xi_second_z", "xi_bound_z"]
    out = {key: to_spec(getattr(prof, key)) for key in keys}
    if prof.regime == "algebraic":
        out.update(alpha_z=prof.rate_z, alpha_y=prof.rate_y)
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def run_simulate(config, out_dir):
    from .processes import (
        SimulateSettings,
        batch_paths,
        dependence_params,
        model_from_spec,
    )

    run, settings = _read_config(config, "simulate", SimulateSettings, "path",
                                 ("process",))
    model = model_from_spec(config.get("process"))
    n, n_paths, prefix = settings.n, settings.n_paths, run.prefix
    paths = batch_paths(model, n_paths, n, burn_in=settings.burn_in,
                        seed=run.seed)
    d = paths.shape[2]
    header = (["path"] if n_paths > 1 else []) + ["t"] + [f"z{i}" for i in range(d)]
    rows = []
    for b in range(n_paths):
        for t in range(n):
            lead = [b, t] if n_paths > 1 else [t]
            rows.append(lead + [float(v) for v in paths[b, t]])
    csv_path = out_dir / f"{prefix}.csv"
    _write_csv(csv_path, header, rows)

    prof = dependence_params(model, n_mc=settings.profile_mc, seed=run.seed,
                             nominal_rate=settings.nominal_rate)
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
    # numpy's geomspace(n1, n2, steps): 10 ** (i step + log10 n1) with both
    # endpoints pinned
    lo = math.log10(n1)
    step = (math.log10(n2) - lo) / (steps - 1)
    grid = [n1] + [10.0 ** (i * step + lo) for i in range(1, steps - 1)] + [n2]
    out = []
    for v in grid:
        ni = int(round(v))
        if not out or ni > out[-1]:
            out.append(ni)
    return out


def run_bound(config, out_dir, curve_flag):
    run, settings = _read_config(config, "bound", BoundSettings, "bound")
    case, delta = settings.case, settings.delta
    _cfg(check_case_regime, case, settings.inputs.profile.regime)
    consts = expected_gap_constants(settings.inputs, case)
    report = bound_from_constants(consts, settings.n, delta)
    out = _bound_report_json(report)
    json_path = out_dir / f"{run.prefix}.json"
    _write_json(json_path, out)
    result = {"command": "bound", "report": str(json_path),
              "bound": report.total, "valid": report.valid, "case": case}

    curve = curve_flag if curve_flag is not None else settings.curve
    if curve is not None:
        grid = _parse_curve(curve)
        rows = []
        for ni in grid:
            rep = bound_from_constants(consts, ni, delta)
            rows.append([ni, rep.total, rep.valid])
        csv_path = out_dir / f"{run.prefix}_curve.csv"
        _write_csv(csv_path, ["n", "bound", "valid"], rows)
        result["curve_csv"] = str(csv_path)
        result["curve_points"] = len(rows)
    return result


def run_samplesize(config, out_dir):
    run, settings = _read_config(config, "samplesize", SamplesizeSettings,
                                 "samplesize")
    case, delta = settings.case, settings.delta
    _cfg(check_case_regime, case, settings.inputs.profile.regime)
    consts = expected_gap_constants(settings.inputs, case)
    n_min = min_sample_size_from_constants(consts, settings.epsilon, delta,
                                           settings.n_cap)
    out = {"command": "samplesize", "case": case, "delta": delta,
           "epsilon": settings.epsilon, "n_cap": settings.n_cap,
           "n_min": None if n_min is None else int(n_min)}
    if n_min is not None:
        out["bound_at_n_min"] = bound_from_constants(consts, n_min, delta).total
    out["provenance"] = list(consts.provenance)
    json_path = out_dir / f"{run.prefix}.json"
    _write_json(json_path, out)
    out["report"] = str(json_path)
    return out


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _pmap(fn, items, jobs):
    """Order-stable map; each cell derives its own seeds from its item, so
    the results do not depend on the worker count."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def _class_and_model(config):
    """The class and process of a config; a filter of n_input inputs needs
    a process of that dimension."""
    from .processes import model_from_spec

    klass = class_from_spec(config.get("class"))
    model = model_from_spec(config.get("process"))
    if klass.n_input != model.dim:
        raise ConfigError(f"class n_input {klass.n_input} does not match the "
                          f"process dimension {model.dim}")
    return klass, model


def _coverage_profile(config, klass, model, seed, n_mc):
    """The config's dependence profile, or one derived from n_mc draws."""
    from .processes import IIDProcess, combine_profiles, dependence_params
    from .validation import _TARGETS, teacher_target_profile

    if config.get("profile") is not None:
        return _from_spec(DependenceProfile, config["profile"], "profile spec")
    z_prof = dependence_params(model, n_mc=n_mc, seed=seed + 5)
    kind, target = _pick(config.get("target"), "kind", _TARGETS, "target spec")
    if kind == "teacher":
        return _cfg(teacher_target_profile, z_prof, klass)
    # an independent target is an i.i.d. process of its own law: its theta
    # is exactly zero, and the lipschitz y-role (l_y, w_y, xi_*_y) must
    # describe that law
    if z_prof.regime != "lipschitz":
        return dataclasses.replace(z_prof, c_y=Moment(0.0, 0.0, "exact-zero"),
                                   exact_zero_y=True)
    y_prof = dependence_params(IIDProcess(target.law), n_mc=n_mc, seed=seed + 5)
    return combine_profiles(z_prof, y_prof)


def _loss(config):
    from .learning import LossFunction

    return _from_spec(LossFunction, config.get("loss", {}), "loss spec")


def _experiment(config, settings, seed):
    """The klass, joint, loss, phi and profile keywords of a coverage or
    consistency run; a case its profile's regime cannot serve is a config
    error, raised before any candidate work."""
    from .learning import IndependentJoint, TeacherJoint
    from .reservoir import sample_from_class
    from .validation import _TARGETS

    klass, model = _class_and_model(config)
    kind, target = _pick(config.get("target"), "kind", _TARGETS, "target spec")
    if kind == "teacher":
        teacher = sample_from_class(klass, n=1, seed=target.seed)[0]
        joint = _cfg(TeacherJoint, model, teacher, noise_law=target.noise)
    else:
        joint = _cfg(IndependentJoint, model, target.law)
    phi = config.get("phi")
    experiment = dict(
        klass=klass, joint=joint, loss=_loss(config),
        phi=None if phi is None else _from_spec(PhiFunction, phi, "phi spec"),
        profile=_coverage_profile(config, klass, model, seed,
                                  settings.profile_mc))
    _cfg(check_case_regime, settings.case, experiment["profile"].regime)
    return experiment


def _rademacher_cell(klass, model, settings, seed, k):
    from .validation import mc_rademacher

    est = mc_rademacher(klass, model, k, seed=seed + 1009 * k + 17,
                        n_rep=settings.n_rep, n_random=settings.n_random,
                        history=settings.history)
    return {"k": k, "estimate": est.value, "std_error": est.std_error}


def _theta_cell(model, settings, seed, tau):
    from .processes import estimate_theta

    est = estimate_theta(model, tau, n_mc=settings.n_mc,
                         history=settings.history, seed=seed + 7919 * tau)
    return {"tau": tau, "value": est.value, "std_error": est.std_error,
            "provenance": est.provenance}


def _consistency_cell(experiment, settings, seed, n):
    from .validation import consistency_curve

    one = dataclasses.replace(settings, ns=(n,))
    return consistency_curve(seed=seed, **experiment,
                             **dataclasses.asdict(one))[0]


def _validate_rademacher(config, settings, seed, jobs):
    klass, model = _class_and_model(config)
    c_rc = _cfg(rademacher_constant, klass)
    rows = _pmap(functools.partial(_rademacher_cell, klass, model, settings,
                                   seed), settings.ks, jobs)
    for row in rows:
        cap = c_rc / math.sqrt(row["k"])
        row["cap"] = cap
        row["scaled"] = row["estimate"] * math.sqrt(row["k"])
        row["pass"] = row["estimate"] <= cap + 3 * row["std_error"]
    return {"c_rc": c_rc, "rows": rows, "pass": all(r["pass"] for r in rows)}


def _validate_coverage(config, settings, seed, jobs):
    from .validation import risk_gap_experiment

    cov = risk_gap_experiment(seed=seed, **_experiment(config, settings, seed),
                              **dataclasses.asdict(settings))
    return {**dataclasses.asdict(cov), "pass": cov.coverage == 1.0 and cov.slack > 1.0}


def _validate_truncation(config, settings, seed, jobs):
    from .validation import truncation_gap_experiment

    klass, model = _class_and_model(config)
    y_law = _from_spec(InnovationLaw, config.get("y_law"), "y_law spec")
    res = truncation_gap_experiment(klass, model, y_law, loss=_loss(config),
                                    seed=seed, **dataclasses.asdict(settings))
    return {**res, "pass": res["violations"] == 0}


def _validate_lipschitz(config, settings, seed, jobs):
    from .validation import history_lipschitz_check

    res = history_lipschitz_check(
        class_from_spec(config.get("class")),
        seed=seed, **dataclasses.asdict(settings))
    return {**res, "pass": res["worst_ratio"] <= 1.0 + 1e-9}


def _validate_theta(config, settings, seed, jobs):
    from .processes import fit_theta_decay, model_from_spec

    model = model_from_spec(config.get("process"))
    rows = _pmap(functools.partial(_theta_cell, model, settings, seed),
                 settings.taus, jobs)
    fit = fit_theta_decay([(row["tau"], row["value"]) for row in rows],
                          settings.decay)
    expect = settings.expect
    out = {"decay": settings.decay, "theta": rows, "fit": to_spec(fit),
           "pass": expect is None or expect.met_by(fit.rate)}
    if expect is not None:
        out["expect"] = config["expect"]  # as given
    return out


def _validate_consistency(config, settings, seed, jobs):
    # one experiment, its profile included, for every cell
    experiment = _experiment(config, settings, seed)
    rows = _pmap(functools.partial(_consistency_cell, experiment, settings,
                                   seed), settings.ns, jobs)
    # the bound and the median gap both fall strictly along ns
    passed = all(b["bound"] < a["bound"] and b["median_gap"] < a["median_gap"]
                 for a, b in zip(rows, rows[1:]))
    return {"case": settings.case, "rows": rows, "pass": passed}


_EXPERIMENT_BLOCKS = ("class", "process", "target", "loss", "profile", "phi")

# kind: (its settings type in rcbounds.validation, the model blocks its
# config may hold besides the settings, its run)
_VALIDATORS = {
    "rademacher": ("RademacherSettings", ("class", "process"),
                   _validate_rademacher),
    "coverage": ("CoverageSettings", _EXPERIMENT_BLOCKS, _validate_coverage),
    "truncation": ("TruncationSettings", ("class", "process", "y_law", "loss"),
                   _validate_truncation),
    "lipschitz": ("LipschitzSettings", ("class",), _validate_lipschitz),
    "theta": ("ThetaSettings", ("process",), _validate_theta),
    "consistency": ("ConsistencySettings", _EXPERIMENT_BLOCKS,
                    _validate_consistency),
}


def run_validate(config, out_dir, jobs):
    from . import validation

    kind = str(config.get("kind"))
    if kind not in _VALIDATORS:
        raise ConfigError(f"validate kind must be one of {list(_VALIDATORS)}")
    settings_type, blocks, validate = _VALIDATORS[kind]
    run, settings = _read_config(config, "validate",
                                 getattr(validation, settings_type),
                                 f"validate_{kind}", ("kind", *blocks))
    report = {"kind": kind, **validate(config, settings, run.seed, jobs)}
    json_path = out_dir / f"{run.prefix}.json"
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
