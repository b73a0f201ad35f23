"""Monte Carlo experiments that stress-test the certificate chain.

Each experiment pits a proved inequality against simulation: block
Rademacher complexity against its class constant, the zero-padding risk
gap against its deterministic envelope, realized generalization gaps
against the high-probability certificate, and the history-Lipschitz
inequality of contracting filters against sampled history pairs.  Sup
norms over a hypothesis class are approximated from below by finite
candidate sets (random members, cap-saturating members, and fitted
readouts), so an experiment can refute a bound but never certify more
than the candidates show.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    bound_inputs_from_class,
    c_zero,
    rademacher_constant,
    risk_bound,
    truncation_risk_gap,
)
from .learning import (
    _gaussian_risks,
    _pool_losses,
    exact_risk,
    fit_readout_erm,
    sample_joint,
    sample_joint_paths,
)
from .processes import DependenceProfile, Moment, batch_paths
from .reservoir import (
    Hypothesis,
    Readout,
    _scaled,
    bound_M_F,
    contraction_modulus,
    input_lipschitz,
    iterate_states_batch,
    sample_from_class,
    zero_input_fixed_point,
)

__all__ = [
    "CoverageResult",
    "candidate_set",
    "mc_rademacher",
    "expected_loss_at_zero",
    "target_l2_moment",
    "teacher_target_profile",
    "risk_gap_experiment",
    "truncation_gap_experiment",
    "history_lipschitz_check",
    "consistency_curve",
]


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of a coverage experiment at one (n, delta)."""

    case: str
    n: int
    delta: float
    n_trials: int
    coverage: float
    bound: float
    median_gap: float
    max_gap: float
    slack: float
    gaps: tuple = ()
    # largest standard error of a true risk estimated on the Monte Carlo
    # pool (candidates and ERM fits); None when no pool was drawn
    pool_std_error: float | None = None


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------


def _push_to_caps(klass, hyp):
    """A member whose binding cap constraints are active (boundary point)."""
    ro = hyp.readout
    w = _scaled(ro.w, klass.l_h, lambda m: np.linalg.norm(m, 2))
    a = _scaled(ro.a, klass.l_h0, np.linalg.norm)
    if klass.l_h0 > 0 and np.linalg.norm(a) == 0.0:
        a = np.full(klass.n_out, klass.l_h0 / math.sqrt(klass.n_out))
    return Hypothesis(klass.saturate(hyp.reservoir), Readout(w, a))


def candidate_set(klass, n_random=12, seed=0, include_zero=True):
    """Finite probe set inside the class: random draws, a cap-saturating
    member, and the zero readout (the constant-zero hypothesis)."""
    cands = sample_from_class(klass, n_random, seed)
    cands.append(_push_to_caps(klass, cands[0]))
    if include_zero:
        base = cands[-1].reservoir
        cands.append(Hypothesis(base, Readout(
            np.zeros((klass.n_out, klass.n_state)), np.zeros(klass.n_out))))
    for h in cands:
        if not klass.contains(h):
            raise RuntimeError("candidate escaped its class caps")
    return cands


# ---------------------------------------------------------------------------
# block Rademacher complexity
# ---------------------------------------------------------------------------


def mc_rademacher(candidates, model, k, n_rep=64, history=None, seed=0,
                  n_random=16):
    """Monte Carlo estimate of the block Rademacher complexity at k blocks.

    (1/k) E sup_H || sum_j eps_j H(Z_j) ||_2 with the sup over a finite
    candidate set (a class is expanded via candidate_set) and Z_j fresh
    stationary histories per repetition.  Returns a Moment with the
    repetition standard error.
    """
    if k < 1 or n_rep < 1:
        raise ValueError("k and n_rep must be >= 1")
    if not isinstance(candidates, (list, tuple)):
        candidates = candidate_set(candidates, n_random=n_random,
                                   seed=seed + 7919)
    if history is None:
        history = 200
    d = model.dim

    # chunk repetitions so the path block stays below ~2e7 floats
    per_rep = k * history * d
    chunk = max(1, min(n_rep, int(2e7 // max(per_rep, 1)) or 1))
    sups = np.empty(n_rep)
    sign_rng = np.random.default_rng(seed + 1)
    done = 0
    while done < n_rep:
        b = min(chunk, n_rep - done)
        z = batch_paths(model, b * k, history, seed=seed + 100_000 + done)
        outs = []
        for hyp in candidates:
            x0 = zero_input_fixed_point(hyp.reservoir)
            finals = iterate_states_batch(hyp.reservoir, z, x0=x0)
            outs.append(hyp.readout(finals).reshape(b, k, -1))
        eps = sign_rng.integers(0, 2, size=(b, k)) * 2.0 - 1.0
        best = np.zeros(b)
        for o in outs:
            sums = np.einsum("bk,bkm->bm", eps, o)
            np.maximum(best, np.linalg.norm(sums, axis=1), out=best)
        sups[done : done + b] = best / k
        done += b
    se = float(sups.std(ddof=1) / math.sqrt(n_rep)) if n_rep > 1 else 0.0
    return Moment(float(sups.mean()), se, "mc")


# ---------------------------------------------------------------------------
# joint-law moments
# ---------------------------------------------------------------------------


def expected_loss_at_zero(joint, loss, n_mc=20000, history=200, seed=0):
    """E|L(0, Y_0)| as a Moment; analytic for independent scalar targets."""
    if joint.teacher is None and joint.noise.dim == 1:
        law = joint.noise
        per = {"gaussian": law.scale * math.sqrt(2.0 / math.pi),
               "uniform": law.scale / 2.0,
               "laplace": law.scale}[law.kind]
        if loss.kind == "absolute":
            return Moment(loss.l_l * per, 0.0, "analytic")
    _, y = sample_joint(joint, n_mc, history, seed)
    vals = loss.per_sample(np.zeros_like(y), y)
    return Moment(float(vals.mean()),
                  float(vals.std(ddof=1) / math.sqrt(n_mc)), "mc")


def target_l2_moment(joint, n_mc=20000, history=200, seed=0):
    """E[||Y_0||_2^2]^(1/2) as a Moment; analytic for independent targets."""
    if joint.teacher is None:
        m2 = joint.noise.norm_power_moment(2.0)
        if m2 is not None:
            return Moment(math.sqrt(float(m2)), 0.0, "analytic")
    _, y = sample_joint(joint, n_mc, history, seed)
    sq = np.sum(np.atleast_2d(y) ** 2, axis=-1)
    mean = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(n_mc))
    return Moment(math.sqrt(mean), se / (2.0 * math.sqrt(mean)) if mean > 0
                  else 0.0, "mc")


def teacher_target_profile(z_profile, teacher_klass_or_caps):
    """Dependence envelope of targets generated by a contracting teacher.

    Coupling two input paths that agree on the last tau steps moves the
    teacher output by at most l_h (2 m_f r^tau + l_r sum r^l theta_z),
    which stays geometric: rate max(r, rate_z) with an explicit constant
    (requiring r != rate_z when inputs mix).  Pass either a class or a
    dict with keys r, m_f, l_r, l_h.
    """
    t = teacher_klass_or_caps
    if isinstance(t, dict):
        r, m_f, l_r, l_h = t["r"], t["m_f"], t["l_r"], t["l_h"]
    else:
        r, m_f, l_r, l_h = t.r, t.m_f, t.l_r, t.l_h
    if z_profile.regime == "algebraic":
        raise ValueError("teacher target envelopes support geometric inputs")
    if z_profile.exact_zero_z:
        return DependenceProfile(
            regime="geometric", c_z=z_profile.c_z, rate_z=z_profile.rate_z,
            c_y=Moment(2.0 * l_h * m_f, 0.0, "analytic"),
            rate_y=max(r, 1e-6),
            exact_zero_z=True, exact_zero_y=(r == 0.0))
    lam_z = z_profile.rate_z
    if r >= lam_z:
        raise ValueError("need teacher r < input rate for a clean envelope")
    cz = z_profile.c_z.value
    c_y = l_h * (2.0 * m_f + l_r * cz / (1.0 - r / lam_z))
    return DependenceProfile(
        regime="geometric", c_z=z_profile.c_z, rate_z=lam_z,
        c_y=Moment(c_y, 0.0, "analytic"), rate_y=lam_z,
        exact_zero_z=z_profile.exact_zero_z, exact_zero_y=False)


# ---------------------------------------------------------------------------
# risk-gap coverage
# ---------------------------------------------------------------------------


def _lazy_pool(joint, n_pool, history, seed):
    """The stationary (z, y) pool sample_joint(joint, n_pool, history, seed),
    drawn on the first call and returned again by every later one."""

    @functools.cache
    def pool():
        z, y = sample_joint(joint, n_pool, history, seed)
        return z, np.atleast_2d(np.asarray(y, dtype=float))

    return pool


def _max_std_error(per_sample):
    """Largest standard error of the means along the last (sample) axis."""
    n = per_sample.shape[-1]
    return float(per_sample.std(axis=-1, ddof=1).max() / math.sqrt(n))


def _pool_risks(res, readouts, loss, pool):
    """Mean losses of readouts on one reservoir over the stationary pool,
    which pool() draws on first use, from one pass of the pool through the
    reservoir; with the largest standard error of those means."""
    per = _pool_losses(res, readouts, *pool(), loss)
    return per.mean(axis=-1), _max_std_error(per)


def _by_reservoir(candidates, indices):
    """The given candidate indices grouped by shared reservoir, in order."""
    groups = {}
    for i in indices:
        groups.setdefault(id(candidates[i].reservoir), []).append(i)
    return list(groups.values())


def _true_risks(candidates, joint, loss, pool):
    """Per-candidate statistical risks: exact where the closed form
    applies, otherwise the mean loss on the stationary pool, which pool()
    draws only then, with one pool pass per reservoir.  Returns the risks
    and the largest standard error of the pool means (None when every
    closed form applied)."""
    out = np.empty(len(candidates))
    on_pool = []  # candidates without a closed form
    for i, hyp in enumerate(candidates):
        try:
            out[i] = exact_risk(hyp, joint, loss).value
        except ValueError:
            on_pool.append(i)
    std_error = None
    for idx in _by_reservoir(candidates, on_pool):
        out[idx], se = _pool_risks(candidates[idx[0]].reservoir,
                                   [candidates[i].readout for i in idx],
                                   loss, pool)
        std_error = max(std_error or 0.0, se)
    return out, std_error


def _empirical_risks(candidates, z_train, y_train, loss):
    """Zero-padded empirical risks, batched over trials: (n_cand, n_trials),
    from one window_outputs call per reservoir."""
    out = np.empty((len(candidates), len(z_train)))
    for idx in _by_reservoir(candidates, range(len(candidates))):
        preds = candidates[idx[0]].reservoir.window_outputs(
            z_train, [candidates[i].readout for i in idx])
        out[idx] = loss.risk(preds, y_train)
    return out


def risk_gap_experiment(klass, joint, loss, profile, case, n, n_trials=200,
                        delta=0.1, n_random=10, seed=0, history=200,
                        n_pool=20000, fit_erm=True, erm_iters=100, phi=None):
    """Coverage of the risk certificate by realized sup generalization gaps.

    Per trial: one training series of length n, the sup over the candidate
    set (plus an ERM-fitted readout on a fixed reservoir) of
    statistical risk minus zero-padded empirical risk.  Coverage is the
    fraction of trials with sup-gap <= bound.

    True risks use the closed forms of exact_risk where they apply, and
    otherwise one stationary pool of n_pool pairs, shared by the
    candidates and the ERM fits, drawn only if one of them needs it and
    passed once through each reservoir that does.  The ERM fits share one
    reservoir and take their risks from its one stationary covariance
    under inputs with a Gaussian moving-average form (i.i.d. Gaussian,
    Gaussian MA, ARFIMA); under other inputs, uniform ones included, they
    use the pool.
    Seed offsets: + 11 the loss at zero e0, + 12 the target moment yl2,
    + 14 the training series, + 15 the pool, + 16 the ERM starts.
    """
    candidates = candidate_set(klass, n_random=n_random, seed=seed)
    e0 = expected_loss_at_zero(joint, loss, n_mc=n_pool, history=history,
                               seed=seed + 11)
    yl2 = target_l2_moment(joint, n_mc=n_pool, history=history, seed=seed + 12)
    inputs = bound_inputs_from_class(klass, loss, profile, e0, yl2, phi=phi)
    report = risk_bound(inputs, n, delta, case)

    pool = _lazy_pool(joint, n_pool, history, seed + 15)
    true_r, pool_se = _true_risks(candidates, joint, loss, pool)
    z_train, y_train = sample_joint_paths(joint, n_trials, n, history=history,
                                          seed=seed + 14)
    emp = _empirical_risks(candidates, z_train, y_train, loss)
    gaps = (true_r[:, None] - emp).max(axis=0)

    if fit_erm:
        erm_res = candidates[0].reservoir
        states = iterate_states_batch(erm_res, z_train,
                                      x0=zero_input_fixed_point(erm_res),
                                      return_all=True)
        fits = fit_readout_erm(states, y_train, caps=(klass.l_h, klass.l_h0),
                               loss=loss, n_iter=erm_iters, n_restarts=2,
                               seed=seed + 16)
        for ro in fits:
            if not klass.contains(Hypothesis(erm_res, ro)):
                raise RuntimeError("fitted readout escaped the class caps")
        # one stationary covariance serves every fit; a per-fit quadrature
        # (uniform inputs) would cost more than the pool
        try:
            r_true = _gaussian_risks(erm_res, fits, joint, loss)
        except ValueError:
            r_true, se = _pool_risks(erm_res, fits, loss, pool)
            pool_se = max(pool_se or 0.0, se)
        w = np.stack([ro.w for ro in fits])  # (n_trials, m, N)
        a = np.stack([ro.a for ro in fits])[:, None, :]
        r_emp = loss.risk(states @ w.swapaxes(1, 2) + a, y_train)
        gaps = np.maximum(gaps, r_true - r_emp)

    covered = gaps <= report.total
    med = float(np.median(gaps))
    return CoverageResult(
        case=case, n=n, delta=delta, n_trials=n_trials,
        coverage=float(covered.mean()), bound=report.total, median_gap=med,
        max_gap=float(gaps.max()),
        slack=report.total / med if med > 0 else math.inf,
        gaps=tuple(float(g) for g in gaps), pool_std_error=pool_se)


# ---------------------------------------------------------------------------
# truncation gap
# ---------------------------------------------------------------------------


def truncation_gap_experiment(klass, model, y_law, ns=(10, 100, 1000),
                              n_trials=100, n_random=50, loss=None, seed=0):
    """Zero-padding gap versus its deterministic envelope.

    For each trial path and candidate, compares the zero-padded empirical
    risk on the window against the same risk opened with a long warm
    prefix (a proxy for the full past, off by at most the reported
    tolerance), across the sample sizes ns.  Returns per-n maxima, the
    envelope values, and the total violation count.
    """
    from .learning import LossFunction

    if loss is None:
        loss = LossFunction(kind="absolute")
    candidates = candidate_set(klass, n_random=n_random, seed=seed,
                               include_zero=False)
    r, m_f, l_h = klass.r, klass.m_f, klass.l_h
    c0 = c_zero(r, loss.l_l, l_h, m_f)
    if r > 0:
        pre = max(8, int(math.ceil(math.log(1e-11 / max(2 * loss.l_l * l_h
                                                        * m_f, 1e-11))
                                   / math.log(r))))
    else:
        pre = 1
    tol = 2.0 * loss.l_l * l_h * m_f * r ** pre + 1e-12

    n_max = max(ns)
    z = batch_paths(model, n_trials, pre + n_max, seed=seed + 3)
    rng = np.random.default_rng(seed + 4)
    y = y_law.sample(rng, n_trials, pre + n_max)

    sup_gaps = {n: np.zeros(n_trials) for n in ns}
    for hyp in candidates:
        x0 = zero_input_fixed_point(hyp.reservoir)
        warm = iterate_states_batch(hyp.reservoir, z, x0=x0, return_all=True)
        for n in ns:
            w_states = warm[:, pre : pre + n]
            w_pred = w_states.reshape(n_trials * n, -1) @ hyp.readout.w.T \
                + hyp.readout.a
            cold = iterate_states_batch(hyp.reservoir, z[:, pre : pre + n],
                                        x0=x0, return_all=True)
            c_pred = cold.reshape(n_trials * n, -1) @ hyp.readout.w.T \
                + hyp.readout.a
            tgt = y[:, pre : pre + n].reshape(n_trials * n, -1)
            rw = loss.per_sample(w_pred, tgt).reshape(n_trials, n).mean(axis=1)
            rc = loss.per_sample(c_pred, tgt).reshape(n_trials, n).mean(axis=1)
            np.maximum(sup_gaps[n], np.abs(rw - rc), out=sup_gaps[n])

    bounds = {n: truncation_risk_gap(c0, r, n) for n in ns}
    violations = int(sum((sup_gaps[n] > bounds[n] + tol).sum() for n in ns))
    return {"ns": tuple(ns),
            "bounds": {n: bounds[n] for n in ns},
            "max_gap": {n: float(sup_gaps[n].max()) for n in ns},
            "violations": violations,
            "tolerance": tol,
            "n_trials": n_trials,
            "n_candidates": len(candidates)}


# ---------------------------------------------------------------------------
# history-Lipschitz inequality
# ---------------------------------------------------------------------------


def history_lipschitz_check(systems, input_bound, n_pairs=200, history=64,
                            seed=0):
    """Worst ratio of realized state deviation to the history envelope.

    For pairs of input histories sharing a random-length recent stretch,
    the final-state distance must stay below
    min_i (2 r^i m_f + l_r sum_{j<i} r^j ||z_{-j} - z'_{-j}||).  The
    envelope is floored at the roundoff scale of the recursion (the
    contracted exact difference can sit below machine epsilon while the
    computed one carries accumulated float noise).  Sound means a worst
    ratio <= 1 up to that floor.
    """
    if not isinstance(systems, (list, tuple)):
        systems = [h.reservoir for h in candidate_set(systems, n_random=8,
                                                      seed=seed)]
    worst = 0.0
    rng = np.random.default_rng(seed)
    for sys_i, system in enumerate(systems):
        r = contraction_modulus(system, input_bound)
        m_f = bound_M_F(system, input_bound)
        l_r = input_lipschitz(system, input_bound, m_f)
        d = system.n_input
        t = history
        z = rng.uniform(-input_bound, input_bound, (n_pairs, t, d))
        z2 = z.copy()
        fresh = rng.uniform(-input_bound, input_bound, (n_pairs, t, d))
        shared = rng.integers(0, t, size=n_pairs)  # recent steps kept equal
        time_idx = np.arange(t)[None, :]
        old = time_idx < (t - shared)[:, None]
        z2[old] = fresh[old]

        xa = iterate_states_batch(system, z, return_all=False)
        xb = iterate_states_batch(system, z2, return_all=False)
        diff = np.linalg.norm(xa - xb, axis=1)

        dz = np.linalg.norm(z - z2, axis=2)[:, ::-1]  # lag order: j = 0 newest
        pows = r ** np.arange(t)
        csum = np.cumsum(pows[None, :] * dz, axis=1)
        i_pows = r ** np.arange(1, t + 1)
        env = 2.0 * i_pows[None, :] * m_f + l_r * csum
        best_env = env.min(axis=1)
        # t steps of arithmetic at state scale m_f leave roundoff of this
        # order in diff even when the exact difference is far smaller
        noise = t * np.finfo(float).eps * max(1.0, 2.0 * m_f)
        ratio = diff / np.maximum(best_env, noise)
        worst = max(worst, float(ratio.max()))
    return {"worst_ratio": worst, "n_pairs": n_pairs,
            "n_systems": len(systems)}


# ---------------------------------------------------------------------------
# consistency along n
# ---------------------------------------------------------------------------


def consistency_curve(klass, joint, loss, profile, case, ns, n_trials=30,
                      delta=0.1, n_random=8, seed=0, history=200,
                      n_pool=20000, phi=None):
    """Certificate and realized sup-gap medians along a sample-size grid.

    Returns one dict per n with the bound, the median and max sup-gap over
    trials, and the coverage at this delta.  True risks use the closed
    forms when available, falling back to one shared Monte Carlo pool
    (seed + 23), drawn only if a candidate needs it.
    Training draws are seeded by the value of n, so a row does not depend
    on where its n sits in the grid (rows for a repeated n coincide).
    """
    candidates = candidate_set(klass, n_random=n_random, seed=seed)
    e0 = expected_loss_at_zero(joint, loss, n_mc=n_pool, history=history,
                               seed=seed + 21)
    yl2 = target_l2_moment(joint, n_mc=n_pool, history=history, seed=seed + 22)
    inputs = bound_inputs_from_class(klass, loss, profile, e0, yl2, phi=phi)
    true_r, _ = _true_risks(candidates, joint, loss,
                            _lazy_pool(joint, n_pool, history, seed + 23))

    rows = []
    for n in ns:
        report = risk_bound(inputs, int(n), delta, case)
        z_train, y_train = sample_joint_paths(joint, n_trials, int(n),
                                              history=history,
                                              seed=seed + 1009 * int(n) + 1000)
        emp = _empirical_risks(candidates, z_train, y_train, loss)
        gaps = (true_r[:, None] - emp).max(axis=0)
        med = float(np.median(gaps))
        rows.append({"n": int(n), "bound": report.total,
                     "median_gap": med, "max_gap": float(gaps.max()),
                     "coverage": float((gaps <= report.total).mean())})
    return rows
