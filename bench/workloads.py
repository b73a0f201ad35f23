"""The four benchmark workloads: set-up, one pass of operations, checks.

Each workload is a single closed-loop client: it submits one operation,
waits for the result, then submits the next.  A pass is the workload's
fixed-size job (its list of operations); worker.py repeats passes for the
measured time.  Every internal seed is derived from the benchmark seed, and
every pass of one run repeats the same inputs.

Package functions are looked up through their modules at call time
(``validation.mc_rademacher``), so the tracer's wrappers see every call.
"""

import json
import math
import os
import random
import subprocess
import sys

from rcbounds import bounds, learning, processes, reservoir, validation

# relative tolerance of the acceptance suite's constant-chain oracle,
# i.e. agreement to ten significant digits
CHAIN_RTOL = 5e-10

UNIF = processes.InnovationLaw("uniform", 1, 1.0)
M2_UNIF = processes.Moment(1.0 / 3.0, 0.0, "analytic")
ABS = learning.LossFunction("absolute")


def _base(seed):
    return 1_000_003 * seed


def _rel(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# rademacher: block Rademacher complexity of three filter families
# ---------------------------------------------------------------------------


def acceptance_families():
    """The linear, echo-state and state-affine classes of the acceptance
    suite's Rademacher criterion."""
    return {
        "linear": reservoir.LinearClass(
            n_state=3, n_input=1, n_out=1, lam_a=0.6, lam_c=0.8, lam_zeta=0.4,
            l_h=1.0, l_h0=0.5, input_bound=1.0, input_second_moment=M2_UNIF),
        "esn": reservoir.EchoStateClass(
            n_state=3, n_input=1, n_out=1, row_a=(0.2,) * 3, row_c=(0.5,) * 3,
            row_zeta=(0.1,) * 3, l_h=1.0, l_h0=0.5, spec_a=0.6, spec_c=0.9,
            input_bound=1.0, input_second_moment=M2_UNIF),
        "sas": reservoir.StateAffineClass(
            n_state=2, n_input=1, n_out=1, alphas_p=((0,), (1,)),
            alphas_q=((0,), (2,)), lam_sas=0.45, c_sas=0.8, input_bound=1.0,
            l_h=1.0, l_h0=0.5),
    }


class Rademacher:
    """mc_rademacher over 16 random, one boundary and one zero candidate
    per family, k blocks of i.i.d. uniform histories of length 48."""

    name = "rademacher"
    work_unit = "filter state-steps (candidates x paths x history steps)"

    def __init__(self, seed, smoke):
        self.ks = (16, 64) if smoke else (16, 64, 256, 1024)
        self.n_rep = 2 if smoke else 8
        self.history = 48
        self.seed = _base(seed)
        self.model = processes.IIDProcess(UNIF)
        self.families = acceptance_families()
        self.c_rc = {name: bounds.rademacher_constant(klass)
                     for name, klass in self.families.items()}
        self.cands = {
            name: validation.candidate_set(klass, n_random=16,
                                           seed=self.seed + 11 + i)
            for i, (name, klass) in enumerate(self.families.items())}

    def ops(self):
        out = []
        for name, cands in self.cands.items():
            for k in self.ks:
                work = len(cands) * self.n_rep * k * self.history
                out.append((f"{name}/k={k}",
                            lambda c=cands, k=k: validation.mc_rademacher(
                                c, self.model, k, n_rep=self.n_rep,
                                history=self.history, seed=self.seed + 13 + k),
                            work))
        return out

    def summary(self, label, est):
        return {"value": est.value, "std_error": est.std_error}

    def check(self, label, est, ref):
        name, k = label.split("/k=")
        k = int(k)
        c_rc = self.c_rc[name]
        bad = []
        if not (math.isfinite(est.value) and math.isfinite(est.std_error)):
            bad.append(f"{label}: estimate not finite")
        elif est.value > c_rc / math.sqrt(k) + 3.0 * est.std_error:
            bad.append(f"{label}: {est.value} above c_rc/sqrt(k) + 3 se")
        if ref is not None:
            tol = 3.0 * math.hypot(est.std_error, ref["std_error"])
            if not abs(est.value - ref["value"]) <= tol:
                bad.append(f"{label}: {est.value} vs reference "
                           f"{ref['value']} beyond 3 se")
        return bad


# ---------------------------------------------------------------------------
# coverage: realized sup generalization gaps against the certificate
# ---------------------------------------------------------------------------


class Coverage:
    """risk_gap_experiment at n = 512 for the geometric teacher case and the
    algebraic ARFIMA(0.3) case of the acceptance suite's coverage criterion."""

    name = "coverage"
    work_unit = "training trials"

    def __init__(self, seed, smoke):
        self.n = 64 if smoke else 512
        self.n_trials = 4 if smoke else 100
        # ARFIMA pool: each path draws trunc + history = 4200 innovations
        self.n_pool = 200 if smoke else 5000
        self.seed = _base(seed)
        self.teacher_klass = reservoir.LinearClass(
            n_state=4, n_input=1, n_out=1, lam_a=0.6, lam_c=0.6, lam_zeta=0.3,
            l_h=1.0, l_h0=0.2, input_bound=1.0, input_second_moment=M2_UNIF)
        teacher = reservoir.sample_from_class(self.teacher_klass, n=1,
                                              seed=self.seed + 7)[0]
        self.iid = processes.IIDProcess(UNIF)
        self.teacher_joint = learning.TeacherJoint(
            self.iid, teacher,
            noise_law=processes.InnovationLaw("gaussian", 1, 0.05))
        self.arfima = processes.ARFIMAProcess(d_frac=0.3, trunc=4000)
        self.alg_klass = reservoir.LinearClass(
            n_state=4, n_input=1, n_out=1, lam_a=0.5, lam_c=0.5, lam_zeta=0.2,
            l_h=1.0, l_h0=0.2, input_bound=5.0,
            input_second_moment=processes.Moment(1.3, 0.0, "analytic"))
        self.alg_joint = learning.IndependentJoint(
            self.arfima, processes.InnovationLaw("gaussian", 1, 0.7))

    def _geometric(self):
        prof = validation.teacher_target_profile(
            processes.dependence_params(self.iid), self.teacher_klass)
        return validation.risk_gap_experiment(
            self.teacher_klass, self.teacher_joint, ABS, prof, "geometric",
            n=self.n, n_trials=self.n_trials, delta=0.1, seed=self.seed + 31,
            n_pool=self.n_pool)

    def _algebraic(self):
        zp = processes.dependence_params(self.arfima)
        # targets are drawn independently of the inputs: y-role exactly zero
        prof = processes.DependenceProfile(
            regime="algebraic", c_z=zp.c_z, rate_z=zp.rate_z,
            c_y=processes.Moment(0.0, 0.0, "exact-zero"), rate_y=zp.rate_z,
            exact_zero_y=True)
        return validation.risk_gap_experiment(
            self.alg_klass, self.alg_joint, ABS, prof, "algebraic", n=self.n,
            n_trials=self.n_trials, delta=0.1, seed=self.seed + 41,
            n_pool=self.n_pool)

    def ops(self):
        return [("geometric", self._geometric, self.n_trials),
                ("algebraic", self._algebraic, self.n_trials)]

    def summary(self, label, res):
        return {"coverage": res.coverage, "bound": res.bound,
                "max_gap": res.max_gap}

    def check(self, label, res, ref):
        # risk_gap_experiment itself raises if a fitted readout leaves the
        # class caps, which counts as a failed operation
        bad = []
        if res.coverage != 1.0:
            bad.append(f"{label}: coverage {res.coverage} < 1")
        if not res.bound / res.max_gap > 1.0:
            bad.append(f"{label}: slack bound/max_gap "
                       f"{res.bound / res.max_gap} <= 1")
        if ref is not None:
            # the algebraic bound is closed form; the geometric one uses
            # Monte Carlo moments of the teacher's targets (~1% standard
            # error on this pool), so it gets a statistical tolerance
            rtol = CHAIN_RTOL if label == "algebraic" else 0.05
            if res.coverage != ref["coverage"]:
                bad.append(f"{label}: coverage differs from reference")
            if _rel(res.bound, ref["bound"]) > rtol:
                bad.append(f"{label}: bound {res.bound} vs reference "
                           f"{ref['bound']}")
        return bad


# ---------------------------------------------------------------------------
# theta: coupled Monte Carlo estimates of the dependence coefficients
# ---------------------------------------------------------------------------


class Theta:
    """estimate_theta at tau = 1, 2, ..., 128 plus fit_theta_decay, for
    GARCH(1,1)(0.05, 0.10, 0.85) and ARFIMA(0.3)."""

    name = "theta"
    work_unit = "coupled Monte Carlo trials"

    def __init__(self, seed, smoke):
        self.n_mc = 1000 if smoke else 5000
        self.taus = tuple(2 ** i for i in range(8))
        self.seed = _base(seed)
        self.models = {
            "garch": (processes.GARCHProcess(omega=0.05, alpha=0.10,
                                             beta=0.85), "geometric"),
            "arfima": (processes.ARFIMAProcess(d_frac=0.3, trunc=4000),
                       "algebraic"),
        }

    def _sweep(self, j0, model, regime):
        # trial i of estimate_theta uses seed + i: keep the streams disjoint
        vals = [(tau, processes.estimate_theta(
                    model, tau, n_mc=self.n_mc,
                    seed=self.seed + 100_000 * (j0 + j)))
                for j, tau in enumerate(self.taus)]
        return processes.fit_theta_decay(vals, regime)

    def ops(self):
        out = []
        for i, (name, (model, regime)) in enumerate(self.models.items()):
            out.append((name,
                        lambda j0=len(self.taus) * i, m=model, r=regime:
                        self._sweep(j0, m, r),
                        self.n_mc * len(self.taus)))
        return out

    def summary(self, label, fit):
        return {"rate": fit.rate}

    def check(self, label, fit, ref):
        # tolerances of the acceptance suite's decay-rate criterion
        bad = []
        if fit.exact_zero or not math.isfinite(fit.rate):
            bad.append(f"{label}: no decay fitted")
        elif label == "garch":
            if fit.rate > 0.98:
                bad.append(f"garch: rate {fit.rate} > 0.98")
            if ref is not None and abs(fit.rate - ref["rate"]) > 0.03:
                bad.append(f"garch: rate {fit.rate} vs reference {ref['rate']}")
        else:
            if abs(fit.rate - 0.2) > 0.08:
                bad.append(f"arfima: exponent {fit.rate} not within 0.08 of 0.2")
            if ref is not None and abs(fit.rate - ref["rate"]) > 0.08:
                bad.append(f"arfima: exponent {fit.rate} vs reference "
                           f"{ref['rate']}")
        return bad


# ---------------------------------------------------------------------------
# cli: cold certificate requests through the command line
# ---------------------------------------------------------------------------


def _lipschitz_inputs():
    """Constants of the acceptance suite's uniform chain fixture."""
    law_z, law_y = UNIF, processes.InnovationLaw("uniform", 1, 0.8)
    return {
        "r": 0.3, "l_l": 0.9, "l_h": 0.8, "l_h0": 0.1, "l_r": 1.2, "m_f": 1.5,
        "n_out": 2, "c_rc": 1.7, "e_loss_zero": 0.4, "y_l2_moment": 0.9,
        "phi": {"kind": "power", "p": 2.0},
        "profile": {
            "regime": "lipschitz", "c_z": 1.4, "rate_z": 0.5, "c_y": 1.2,
            "rate_y": 0.4, "l_z": 0.7, "l_y": 0.9,
            "w_z": {"kind": "geometric", "param": 0.5},
            "w_y": {"kind": "geometric", "param": 0.4},
            "xi_mean_abs_z": law_z.mean_abs_norm().value,
            "xi_mean_abs_y": law_y.mean_abs_norm().value,
            "xi_second_z": law_z.second_moment().value,
            "xi_second_y": law_y.second_moment().value,
            "xi_bound_z": 1.0, "xi_bound_y": 0.8,
            "xi_law_z": {"kind": "uniform", "dim": 1, "scale": 1.0},
            "xi_law_y": {"kind": "uniform", "dim": 1, "scale": 0.8}}}


def _algebraic_inputs():
    """The acceptance suite's algebraic chain fixture at r = 0.99999."""
    return {
        "r": 0.99999, "l_l": 1.0, "l_h": 0.9, "l_h0": 0.05, "l_r": 1.1,
        "m_f": 1.8, "n_out": 3, "c_rc": 2.0, "e_loss_zero": 0.6,
        "y_l2_moment": 1.2,
        "profile": {"regime": "algebraic", "c_z": 0.9, "rate_z": 0.3,
                    "c_y": 0.7, "rate_y": 0.45}}


class Cli:
    """Cold ``python -m rcbounds.cli`` processes, one at a time, cycling
    through bound --curve and samplesize for each of the four cases."""

    name = "cli"
    work_unit = "requests"
    DELTA = 0.1

    def __init__(self, seed, smoke, out_dir, trace_child=None):
        self.out_dir = out_dir
        self.trace_child = trace_child
        self.curve = "1000:100000:8" if smoke else "1000:100000:64"
        rng = random.Random(_base(seed))
        spec = {"bounded": _lipschitz_inputs(),
                "phi_moment": _lipschitz_inputs(),
                "geometric": _lipschitz_inputs(),
                "algebraic": _algebraic_inputs()}
        # only this workload imports the CLI module; the others' set-up
        # stays what an in-process user pays
        from rcbounds.cli import bound_inputs_from_spec

        self.inputs = {c: bound_inputs_from_spec(s)
                       for c, s in spec.items()}
        kinds = ([("bound", "bounded"), ("samplesize", "phi_moment"),
                  ("samplesize", "geometric"), ("bound", "algebraic")]
                 if smoke else
                 [(cmd, case) for case in spec
                  for cmd in ("bound", "samplesize")])
        os.makedirs(out_dir, exist_ok=True)
        self.requests = []
        for cmd, case in kinds:
            label = f"{cmd}/{case}"
            prefix = f"{cmd}_{case}"
            if cmd == "bound":
                config = {"case": case, "n": rng.randint(1000, 100_000),
                          "delta": self.DELTA, "inputs": spec[case],
                          "prefix": prefix}
                extra = ["--curve", self.curve]
            else:
                n_target = rng.randint(1000, 1_000_000)
                eps = 1.01 * bounds.risk_bound(self.inputs[case], n_target,
                                               self.DELTA, case).total
                config = {"case": case, "delta": self.DELTA, "epsilon": eps,
                          "inputs": spec[case], "prefix": prefix}
                extra = []
            path = os.path.join(out_dir, f"config_{prefix}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv = [cmd, "--config", path, "--out", out_dir] + extra
            self.requests.append((label, config, argv))
        self._expected = {}

    def _run(self, argv, traced):
        """One request; returns its exit code, summary and artifacts."""
        if traced:
            spans_path = os.path.join(self.out_dir, "spans.json")
            cmd = [sys.executable, self.trace_child, spans_path] + argv
        else:
            cmd = [sys.executable, "-m", "rcbounds.cli"] + argv
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=150)
        out = {"code": proc.returncode, "stderr": proc.stderr[-2000:]}
        if proc.returncode != 0:
            return out
        out["summary"] = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(out["summary"]["report"], encoding="utf-8") as fh:
            out["report"] = json.load(fh)
        if "curve_csv" in out["summary"]:
            with open(out["summary"]["curve_csv"], encoding="utf-8") as fh:
                rows = fh.read().split()
            out["curve"] = [(int(n), float(b), v == "True")
                            for n, b, v in (r.split(",") for r in rows[1:])]
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                out["trace"] = json.load(fh)
        return out

    def ops(self, traced=False):
        return [(label, lambda a=argv: self._run(a, traced), 1)
                for label, _, argv in self.requests]

    def summary(self, label, res):
        if "summary" not in res:
            return {}
        if label.startswith("bound/"):
            return {"bound": res["summary"]["bound"]}
        return {"n_min": res["summary"]["n_min"]}

    def _reference_bound(self, case, n):
        key = (case, n)
        if key not in self._expected:
            rep = bounds.risk_bound(self.inputs[case], n, self.DELTA, case)
            self._expected[key] = (rep.total, rep.valid)
        return self._expected[key]

    def check(self, label, res, ref):
        if res["code"] != 0:
            return [f"{label}: exit code {res['code']}: {res['stderr']}"]
        config = next(c for l, c, _ in self.requests if l == label)
        case = config["case"]
        bad = []
        if label.startswith("bound/"):
            points = [(config["n"], res["summary"]["bound"], None),
                      (config["n"], res["report"]["bound"], None)]
            points += res["curve"]
            if len(res["curve"]) != res["summary"]["curve_points"]:
                bad.append(f"{label}: curve has {len(res['curve'])} rows")
            for n, got, valid in points:
                want, want_valid = self._reference_bound(case, n)
                if valid is not None and valid != want_valid:
                    bad.append(f"{label}: validity differs at n={n}")
                if _rel(got, want) > CHAIN_RTOL:
                    bad.append(f"{label}: bound {got} != in-process {want} "
                               f"at n={n}")
            if ref is not None and _rel(res["summary"]["bound"],
                                        ref["bound"]) > CHAIN_RTOL:
                bad.append(f"{label}: bound differs from reference")
            return bad
        n_min, eps = res["summary"]["n_min"], config["epsilon"]
        if n_min is None:
            return [f"{label}: no sample size found"]
        consts = bounds.expected_gap_constants(self.inputs[case], case)
        rep = bounds.bound_from_constants(consts, n_min, self.DELTA)
        if not (rep.valid and rep.total <= eps):
            bad.append(f"{label}: bound at n_min={n_min} exceeds epsilon")
        if n_min > 1:
            prev = bounds.bound_from_constants(consts, n_min - 1, self.DELTA)
            if prev.valid and prev.total <= eps:
                bad.append(f"{label}: n_min={n_min} is not the smallest")
        if ref is not None and n_min != ref["n_min"]:
            bad.append(f"{label}: n_min {n_min} vs reference {ref['n_min']}")
        return bad


WORKLOADS = {w.name: w for w in (Rademacher, Coverage, Theta, Cli)}
