"""Span tracing at the layer boundaries of rcbounds, from outside the package.

The tracer replaces each traced public function by a wrapper at every name
a caller looks it up under (``rcbounds.validation.iterate_states_batch`` as
well as ``rcbounds.reservoir.iterate_states_batch``), so calls between
modules are recorded too.  Per-step helpers such as ``state_update`` are not
wrapped.  Spans stay in memory (name, start, end, parent span, pass id and a
few counts read from the arguments) until the owner writes them out.
"""

import inspect
import json
import sys
import time

# layer -> public functions whose calls are recorded
TRACED = {
    "processes": ("batch_paths", "estimate_theta", "dependence_params"),
    "reservoir": ("iterate_states_batch", "zero_input_fixed_point",
                  "sample_from_class"),
    "learning": ("fit_readout_erm", "exact_risk", "sample_joint",
                 "sample_joint_paths"),
    "bounds": ("expected_gap_constants", "bound_from_constants",
               "min_sample_size"),
    "validation": ("mc_rademacher", "risk_gap_experiment", "candidate_set"),
    "cli": ("main",),
}

LAYERS = tuple(TRACED)

_FAMILY = {"LinearReservoir": "linear", "EchoStateReservoir": "esn",
           "StateAffineReservoir": "sas"}


def _extra_steps(model, burn_in):
    """Steps batch_paths simulates beyond the n it returns, per its
    documented defaults: burn-in for the recursive models, the lag order
    for MA, and the truncation order for ARFIMA."""
    kind = type(model).__name__
    if kind == "MAProcess":
        return len(model.coeffs)
    if kind in ("VAR1Process", "GARCHProcess"):
        return 500 if burn_in is None else burn_in
    if kind == "ARFIMAProcess":
        return model.trunc if not burn_in else burn_in
    return 0


def _counts(qualname, args, result, raised):
    """Work counts recorded with one span, read from arguments and result."""
    if qualname == "reservoir.iterate_states_batch":
        z = args["inputs"]
        return {"family": _FAMILY.get(type(args["system"]).__name__, "other"),
                "state_steps": int(z.shape[0]) * int(z.shape[1])}
    if qualname == "processes.batch_paths" and not raised:
        b, n, d = result.shape
        extra = _extra_steps(args["model"], args["burn_in"])
        return {"values": int(result.size),
                "simulated": int(b) * (int(n) + extra) * int(d)}
    if qualname == "processes.estimate_theta":
        return {"trials": int(args["n_mc"])}
    if qualname == "learning.exact_risk":
        return {"hit": not raised}
    return {}


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._stack = []
        self._patched = []

    def _wrap(self, qualname, fn):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = {"name": qualname, "parent": stack[-1] if stack else -1,
                    "pass": self.pass_id, "start": time.perf_counter()}
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            result, raised = None, False
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised = True
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(_counts(qualname, bound.arguments, result, raised))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every traced function in every loaded rcbounds module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "rcbounds" or name.startswith("rcbounds."))
                   and m is not None]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"rcbounds.{layer}")
            if home is None:
                continue
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def self_times(spans):
    """Per-span duration minus the part its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def _per_layer_names():
    names = []
    for layer, fns in TRACED.items():
        for fn in fns:
            names += [(f"{layer}.{fn}.calls", "count"),
                      (f"{layer}.{fn}.self_s", "s")]
    names += [
        ("processes.batch_paths.values", "count"),
        ("processes.batch_paths.kept_ratio", "ratio"),
        ("processes.estimate_theta.trials", "count"),
        ("reservoir.iterate_states_batch.state_steps", "count"),
        ("reservoir.iterate_states_batch.linear.self_s", "s"),
        ("reservoir.iterate_states_batch.esn.self_s", "s"),
        ("reservoir.iterate_states_batch.sas.self_s", "s"),
        ("learning.exact_risk.hit_ratio", "ratio"),
        ("bounds.constants_per_request", "count"),
        ("cli.import_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    names += [(f"{layer}.share_pct", "%") for layer in LAYERS]
    return names


# every per-layer metric with its unit; counts and times are per traced pass
PER_LAYER = _per_layer_names()


def layer_metrics(spans, n_passes, n_requests, traced_wall_s, overhead_s,
                  import_s=0.0):
    """Per-layer metrics from the spans of n_passes traced passes.

    traced_wall_s is the total duration of those passes and n_requests the
    operations (cli: requests) they made.  A ratio whose layer is never
    called reads 0.
    """
    vals = {name: 0.0 for name, _ in PER_LAYER}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    kept = simulated = hits = 0
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        vals[f"{name}.calls"] += 1
        vals[f"{name}.self_s"] += own
        layer_self[name.split(".")[0]] += own
        if name == "reservoir.iterate_states_batch":
            vals["reservoir.iterate_states_batch.state_steps"] += span["state_steps"]
            fam = f"reservoir.iterate_states_batch.{span['family']}.self_s"
            if fam in vals:
                vals[fam] += own
        elif name == "processes.batch_paths" and "values" in span:
            kept += span["values"]
            simulated += span["simulated"]
        elif name == "processes.estimate_theta":
            vals["processes.estimate_theta.trials"] += span["trials"]
        elif name == "learning.exact_risk":
            hits += span["hit"]
    constants = vals["bounds.expected_gap_constants.calls"]
    risk_calls = vals["learning.exact_risk.calls"]
    out = {}
    for name, unit in PER_LAYER:
        if unit in ("count", "s"):
            out[name] = vals[name] / n_passes
    out["processes.batch_paths.values"] = kept / n_passes
    out["processes.batch_paths.kept_ratio"] = kept / simulated if simulated else 0.0
    out["learning.exact_risk.hit_ratio"] = hits / risk_calls if risk_calls else 0.0
    out["bounds.constants_per_request"] = constants / n_requests
    out["cli.import_s"] = import_s
    out["trace.overhead_s"] = overhead_s
    for layer in LAYERS:
        out[f"{layer}.share_pct"] = 100.0 * layer_self[layer] / traced_wall_s
    return out
