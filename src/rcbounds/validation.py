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

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    _Settings,
    bound_inputs_from_class,
    c_zero,
    risk_bound,
    truncation_risk_gap,
)
from .learning import (
    LossFunction,
    _gaussian_risks,
    _joint_blocks,
    _pool_losses,
    exact_risk,
    fit_readout_erm,
    sample_joint_paths,
)
from .dependence import InnovationLaw
from .processes import (
    _MC_FLOATS,
    _PROFILE_MC,
    DependenceProfile,
    Moment,
    _path_blocks,
    _std_error,
    batch_paths,
)
from .reservoir import (
    Hypothesis,
    Readout,
    _scaled,
    final_outputs,
    iterate_states_batch,
    sample_from_class,
    zero_input_fixed_point,
)

__all__ = [
    "ConsistencySettings",
    "CoverageResult",
    "CoverageSettings",
    "LipschitzSettings",
    "RademacherSettings",
    "ThetaExpect",
    "ThetaSettings",
    "TruncationSettings",
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
# settings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RademacherSettings(_Settings):
    """mc_rademacher at each block count in ks."""

    ks: tuple
    n_rep: int = 64
    n_random: int = 16
    history: int = 200


@dataclass(frozen=True, kw_only=True)
class _RiskSettings(_Settings):
    """What coverage and consistency runs share."""

    case: str
    delta: float = 0.1
    history: int = 200
    n_pool: int = 20000
    profile_mc: int = _PROFILE_MC  # draws for a profile the config does not give


@dataclass(frozen=True, kw_only=True)
class CoverageSettings(_RiskSettings):
    """risk_gap_experiment at one n."""

    n: int
    n_trials: int = 200
    n_random: int = 10
    fit_erm: bool = True
    erm_iters: int = 100


@dataclass(frozen=True)
class TruncationSettings(_Settings):
    """truncation_gap_experiment at the sample sizes ns."""

    ns: tuple
    n_trials: int = 100
    n_random: int = 50


@dataclass(frozen=True)
class LipschitzSettings(_Settings):
    """history_lipschitz_check on inputs in the ball of radius input_bound."""

    input_bound: float
    n_pairs: int = 200
    history: int = 64


@dataclass(frozen=True)
class ThetaExpect:
    """The pass rule of a theta run: the fitted rate is at most rate_max
    and within tol of exponent; a rule left unset always holds."""

    rate_max: float = None
    exponent: float = None
    tol: float = 0.08

    def met_by(self, rate):
        return ((self.rate_max is None or rate <= self.rate_max)
                and (self.exponent is None
                     or abs(rate - self.exponent) <= self.tol))


@dataclass(frozen=True)
class ThetaSettings(_Settings):
    """estimate_theta at each lag in taus, then a fit of the decay law."""

    taus: tuple
    decay: str
    n_mc: int = 10_000
    history: int = None
    expect: ThetaExpect = None


@dataclass(frozen=True, kw_only=True)
class ConsistencySettings(_RiskSettings):
    """consistency_curve along the sample sizes ns."""

    ns: tuple
    n_trials: int = 30
    n_random: int = 8


@dataclass(frozen=True)
class IndependentTarget:
    """A target of kind "independent": i.i.d. draws of law, apart from Z."""

    law: InnovationLaw


@dataclass(frozen=True)
class TeacherTarget(_Settings):
    """A target block of kind "teacher": targets that a class member drawn
    at teacher_seed makes of the inputs, plus noise when one is given."""

    noise: InnovationLaw = None
    seed: int = field(default=0, metadata={"key": "teacher_seed"})


_TARGETS = {"independent": IndependentTarget, "teacher": TeacherTarget}


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


def _by_reservoir(candidates, indices=None):
    """The candidates at the given indices (default: all) grouped by shared
    reservoir, in order, as (reservoir, readouts, indices) triples, so that
    each reservoir runs once."""
    groups = {}
    for i in range(len(candidates)) if indices is None else indices:
        groups.setdefault(id(candidates[i].reservoir), []).append(i)
    return [(candidates[idx[0]].reservoir,
             [candidates[i].readout for i in idx], idx)
            for idx in groups.values()]


# ---------------------------------------------------------------------------
# block Rademacher complexity
# ---------------------------------------------------------------------------


def mc_rademacher(candidates, model, k, seed=0, **settings):
    """Monte Carlo estimate of the block Rademacher complexity at k blocks.

    (1/k) E sup_H || sum_j eps_j H(Z_j) ||_2 with the sup over a finite
    candidate set (a class is expanded via candidate_set) and Z_j fresh
    stationary histories per repetition: the paths of the stream
    seed + 100_000, one block of _path_blocks at a time read by one
    final_outputs pass per reservoir, and signs from the stream seed + 1.
    A repetition's outputs are held until its last path is read, so it may
    span blocks and the estimate does not depend on the block size.
    settings are the other fields of RademacherSettings.  Returns a Moment
    with the repetition standard error.
    """
    s = RademacherSettings(ks=(k,), **settings)
    k, n_rep, history = s.ks[0], s.n_rep, s.history
    if not isinstance(candidates, (list, tuple)):
        candidates = candidate_set(candidates, n_random=s.n_random,
                                   seed=seed + 7919)
    # a zero readout's sums have norm 0, where the sup starts
    groups = _by_reservoir(candidates, [
        i for i, h in enumerate(candidates)
        if h.readout.w.any() or h.readout.a.any()])

    n_paths = n_rep * k
    signs = np.random.default_rng(seed + 1).integers(0, 2, size=(n_rep, k))
    eps = signs * 2.0 - 1.0
    sups = np.zeros(n_rep)
    held = [[] for _ in groups]  # per group: outputs (paths, readouts, m)
    done, drawn = 0, 0  # repetitions summed, paths drawn
    for z in _path_blocks(model, n_paths, history, n_paths, seed=seed + 100_000):
        drawn += len(z)
        b = drawn // k - done  # repetitions whose last path is drawn
        best = sups[done:done + b]
        for out, (res, readouts, _) in zip(held, groups):
            out.append(final_outputs(res, z, readouts).swapaxes(0, 1))
            outs = out[0] if len(out) == 1 else np.concatenate(out)
            for j in range(len(readouts)):
                sums = np.einsum("bk,bkm->bm", eps[done:done + b],
                                 outs[:b * k, j].reshape(b, k, outs.shape[2]))
                np.maximum(best, np.linalg.norm(sums, axis=1), out=best)
            out[:] = [outs[b * k:]]
        done += b
    sups /= k
    return Moment(float(sups.mean()), float(_std_error(sups)), "mc")


# ---------------------------------------------------------------------------
# joint-law moments
# ---------------------------------------------------------------------------


def expected_loss_at_zero(joint, loss, n_mc, history, seed=0):
    """E|L(0, Y_0)| as a Moment: analytic for the absolute loss of
    independent scalar targets, else a Monte Carlo mean over the targets of
    sample_joint(joint, n_mc, history, seed), taken one block of
    _joint_blocks at a time (memory O(_MC_FLOATS + n_mc))."""
    if joint.teacher is None and joint.noise.dim == 1:
        law = joint.noise
        per = {"gaussian": law.scale * math.sqrt(2.0 / math.pi),
               "uniform": law.scale / 2.0,
               "laplace": law.scale}[law.kind]
        if loss.kind == "absolute":
            return Moment(loss.l_l * per, 0.0, "analytic")
    blocks = _joint_blocks(joint, n_mc, history, seed)
    vals = np.concatenate([loss.per_sample(np.zeros_like(y), y)
                           for _, y in blocks])
    return Moment(float(vals.mean()), float(_std_error(vals)), "mc")


def target_l2_moment(joint, n_mc, history, seed=0):
    """E[||Y_0||_2^2]^(1/2) as a Moment: analytic for independent targets,
    else a Monte Carlo mean over the targets of sample_joint(joint, n_mc,
    history, seed), taken one block of _joint_blocks at a time."""
    if joint.teacher is None:
        m2 = joint.noise.norm_power_moment(2.0)
        if m2 is not None:
            return Moment(math.sqrt(float(m2)), 0.0, "analytic")
    blocks = _joint_blocks(joint, n_mc, history, seed)
    sq = np.concatenate([np.sum(np.atleast_2d(y) ** 2, axis=-1)
                         for _, y in blocks])
    mean = float(sq.mean())
    se = float(_std_error(sq))
    return Moment(math.sqrt(mean), se / (2.0 * math.sqrt(mean)) if mean > 0
                  else 0.0, "mc")


def teacher_target_profile(z_profile, klass):
    """Dependence envelope of targets generated by a contracting teacher
    drawn from klass.

    Coupling two input paths that agree on the last tau steps moves the
    teacher output by at most l_h (2 m_f r^tau + l_r sum r^l theta_z),
    which stays geometric: rate max(r, rate_z) with an explicit constant
    (requiring r < rate_z when inputs mix), from the class constants.
    """
    r, m_f, l_r, l_h = klass.r, klass.m_f, klass.l_r, klass.l_h
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


def _max_std_error(per_sample):
    """Largest standard error of the means along the last (sample) axis of
    the (k, n) per_sample, taken over chunks of rows of about _MC_FLOATS
    floats so that the deviations are never formed for every row at once.

    Each row's deviation is summed as in one pass over the whole array: a
    chunk keeps at least two rows when k does (the last one may overlap the
    one before), as numpy sums a lone strided row pairwise but a stack of
    rows one sample at a time.
    """
    k, n = per_sample.shape
    rows = max(2, _MC_FLOATS // n)
    return float(max(_std_error(per_sample[min(i, max(0, k - 2)):i + rows]).max()
                     for i in range(0, k, rows)))


def _pool_risks(groups, joint, loss, pool):
    """Mean losses of each group's readouts on its reservoir, for groups of
    (reservoir, readouts), over the stationary pool sample_joint(joint,
    n_pool, history, seed), pool = (n_pool, history, seed); with the
    largest standard error of those means.

    One pass over the pool's blocks (_joint_blocks) runs each block once
    through each group's reservoir and keeps only the per-sample losses,
    so memory is O(_MC_FLOATS + n_pool k) for k readouts in all, not
    O(n_pool history d).  The losses are kept sample-major, the layout of
    _pool_losses on the whole pool, so that the means and standard errors
    are summed in the same order.  With no group nothing is drawn: no
    means and a standard error of None.
    """
    if not groups:
        return [], None
    n_pool = pool[0]
    per = [np.empty((n_pool, len(readouts))) for _, readouts in groups]
    lo = 0
    for z, y in _joint_blocks(joint, *pool):
        for out, (res, readouts) in zip(per, groups):
            out[lo:lo + len(z)] = _pool_losses(res, readouts, z, y, loss).T
        lo += len(z)
    return ([p.T.mean(axis=-1) for p in per],
            max(_max_std_error(p.T) for p in per))


def _true_risks(candidates, joint, loss, pool, extra=()):
    """Per-candidate statistical risks: exact where the closed form
    applies, otherwise the mean loss on the stationary pool (_pool_risks),
    whose one pass also serves the extra (reservoir, readouts) groups and
    is made only when some candidate or extra group needs it; candidates
    without a closed form share that pass grouped by reservoir.  Returns
    the candidates' risks, the pool means of each extra group, and the
    largest standard error of the pool means (None when no pass was made).
    """
    out = np.empty(len(candidates))
    on_pool = []  # candidates without a closed form
    for i, hyp in enumerate(candidates):
        try:
            out[i] = exact_risk(hyp, joint, loss).value
        except ValueError:
            on_pool.append(i)
    groups = _by_reservoir(candidates, on_pool)
    means, std_error = _pool_risks(
        [(res, readouts) for res, readouts, _ in groups] + list(extra),
        joint, loss, pool)
    for (_, _, idx), mean in zip(groups, means):
        out[idx] = mean
    return out, means[len(groups):], std_error


def _empirical_risks(candidates, z_train, y_train, loss):
    """Zero-padded empirical risks, batched over trials: (n_cand, n_trials),
    from one window_outputs call per reservoir."""
    out = np.empty((len(candidates), len(z_train)))
    for res, readouts, idx in _by_reservoir(candidates):
        out[idx] = loss.risk(res.window_outputs(z_train, readouts), y_train)
    return out


def risk_gap_experiment(klass, joint, loss, profile, case, n, seed=0,
                        phi=None, **settings):
    """Coverage of the risk certificate by realized sup generalization gaps.

    Per trial: one training series of length n, the sup over the candidate
    set (plus an ERM-fitted readout on a fixed reservoir) of
    statistical risk minus zero-padded empirical risk.  Coverage is the
    fraction of trials with sup-gap <= bound.

    True risks use the closed forms of exact_risk where they apply, and
    otherwise one stationary pool of n_pool pairs, shared by the
    candidates and the ERM fits, drawn only if one of them needs it.  The
    fits are made first, so that one pass over the pool's blocks serves
    every reservoir that needs it; memory is O(_MC_FLOATS + n_pool k) for
    k pool readouts, not O(n_pool history d) (_pool_risks).  The ERM fits
    share one reservoir and take their risks from its one stationary
    covariance under inputs with a Gaussian moving-average form (i.i.d.
    Gaussian, Gaussian MA, ARFIMA); under other inputs, uniform ones
    included, they use the pool.  settings are the other fields of
    CoverageSettings.  Seed offsets: + 11 the loss at zero e0, + 12 the
    target moment yl2, + 14 the training series, + 15 the pool, + 16 the
    ERM starts.
    """
    s = CoverageSettings(case=case, n=n, **settings)
    history, n_pool = s.history, s.n_pool
    candidates = candidate_set(klass, n_random=s.n_random, seed=seed)
    e0 = expected_loss_at_zero(joint, loss, n_mc=n_pool, history=history,
                               seed=seed + 11)
    yl2 = target_l2_moment(joint, n_mc=n_pool, history=history, seed=seed + 12)
    inputs = bound_inputs_from_class(klass, loss, profile, e0, yl2, phi=phi)
    report = risk_bound(inputs, s.n, s.delta, s.case)

    z_train, y_train = sample_joint_paths(joint, s.n_trials, s.n,
                                          history=history, seed=seed + 14)
    erm_pool = []  # the ERM fits' group, when they need the pool
    if s.fit_erm:
        erm_res = candidates[0].reservoir
        states = iterate_states_batch(erm_res, z_train,
                                      x0=zero_input_fixed_point(erm_res),
                                      return_all=True)
        fits = fit_readout_erm(states, y_train, caps=(klass.l_h, klass.l_h0),
                               loss=loss, n_iter=s.erm_iters, n_restarts=2,
                               seed=seed + 16)
        # candidate_set checked erm_res against the reservoir caps
        for ro in fits:
            if not klass.contains_readout(ro):
                raise RuntimeError("fitted readout escaped the class caps")
        # one stationary covariance serves every fit; a per-fit quadrature
        # (uniform inputs) would cost more than the pool
        try:
            r_true = _gaussian_risks(erm_res, fits, joint, loss)
        except ValueError:
            erm_pool = [(erm_res, fits)]
    true_r, erm_means, pool_se = _true_risks(
        candidates, joint, loss, (n_pool, history, seed + 15), erm_pool)
    emp = _empirical_risks(candidates, z_train, y_train, loss)
    gaps = (true_r[:, None] - emp).max(axis=0)

    if s.fit_erm:
        if erm_pool:
            r_true = erm_means[0]
        w = np.stack([ro.w for ro in fits])  # (n_trials, m, N)
        a = np.stack([ro.a for ro in fits])[:, None, :]
        r_emp = loss.risk(states @ w.swapaxes(1, 2) + a, y_train)
        gaps = np.maximum(gaps, r_true - r_emp)

    covered = gaps <= report.total
    med = float(np.median(gaps))
    return CoverageResult(
        case=s.case, n=s.n, delta=s.delta, n_trials=s.n_trials,
        coverage=float(covered.mean()), bound=report.total, median_gap=med,
        max_gap=float(gaps.max()),
        slack=report.total / med if med > 0 else math.inf,
        gaps=tuple(float(g) for g in gaps), pool_std_error=pool_se)


# ---------------------------------------------------------------------------
# truncation gap
# ---------------------------------------------------------------------------


def truncation_gap_experiment(klass, model, y_law, ns, loss=LossFunction(),
                              seed=0, **settings):
    """Zero-padding gap versus its deterministic envelope.

    For each trial path and candidate, compares the zero-padded empirical
    risk on the window against the same risk opened with a long warm
    prefix (a proxy for the full past, off by at most the reported
    tolerance), across the sample sizes ns.  settings are the other fields
    of TruncationSettings.  Returns per-n maxima, the envelope values, and
    the total violation count.
    """
    s = TruncationSettings(ns=ns, **settings)
    ns, n_trials = s.ns, s.n_trials
    candidates = candidate_set(klass, n_random=s.n_random, seed=seed,
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

    # a cold window's first n outputs are the length-n window's, so one
    # warm and one cold pass per reservoir serve every n
    sup_gaps = {n: np.zeros(n_trials) for n in ns}
    tgt = y[:, pre:]
    for res, readouts, _ in _by_reservoir(candidates):
        warm = res.window_outputs(z, readouts)[:, :, pre:]
        cold = res.window_outputs(z[:, pre:], readouts)
        for n in ns:
            rw = loss.risk(warm[:, :, :n], tgt[:, :n])
            rc = loss.risk(cold[:, :, :n], tgt[:, :n])
            np.maximum(sup_gaps[n], np.abs(rw - rc).max(axis=0),
                       out=sup_gaps[n])

    bounds = {n: truncation_risk_gap(c0, r, n) for n in ns}
    violations = int(sum((sup_gaps[n] > bounds[n] + tol).sum() for n in ns))
    return {"ns": ns,
            "bounds": {n: bounds[n] for n in ns},
            "max_gap": {n: float(sup_gaps[n].max()) for n in ns},
            "violations": violations,
            "tolerance": tol,
            "n_trials": n_trials,
            "n_candidates": len(candidates)}


# ---------------------------------------------------------------------------
# history-Lipschitz inequality
# ---------------------------------------------------------------------------


def history_lipschitz_check(klass, input_bound, seed=0, **settings):
    """Worst ratio of realized state deviation to the history envelope.

    Over the reservoirs of candidate_set(klass, 8, seed), for pairs of
    input histories sharing a random-length recent stretch,
    the final-state distance must stay below
    min_i (2 r^i m_f + l_r sum_{j<i} r^j ||z_{-j} - z'_{-j}||).  The
    envelope is floored at the roundoff scale of the recursion (the
    contracted exact difference can sit below machine epsilon while the
    computed one carries accumulated float noise).  Sound means a worst
    ratio <= 1 up to that floor.  settings are the other fields of
    LipschitzSettings.
    """
    s = LipschitzSettings(input_bound=input_bound, **settings)
    input_bound, n_pairs, t = s.input_bound, s.n_pairs, s.history
    systems = [h.reservoir for h in candidate_set(klass, n_random=8, seed=seed)]
    worst = 0.0
    rng = np.random.default_rng(seed)
    for sys_i, system in enumerate(systems):
        r = system.contraction_modulus(input_bound)
        m_f = system.bound_M_F(input_bound)
        l_r = system.input_lipschitz(input_bound, m_f)
        d = system.n_input
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


def consistency_curve(klass, joint, loss, profile, case, ns, seed=0, phi=None,
                      **settings):
    """Certificate and realized sup-gap medians along a sample-size grid.

    Returns one dict per n with the bound, the median and max sup-gap over
    trials, and the coverage at this delta.  True risks use the closed
    forms when available, falling back to one shared Monte Carlo pool
    (seed + 23), drawn only if a candidate needs it and taken in one pass
    over its blocks: memory O(_MC_FLOATS + n_pool k) for k candidates on
    the pool, not O(n_pool history d) (_pool_risks).
    Training draws are seeded by the value of n, so a row does not depend
    on where its n sits in the grid (rows for a repeated n coincide).
    settings are the other fields of ConsistencySettings.
    """
    s = ConsistencySettings(case=case, ns=ns, **settings)
    history, n_pool = s.history, s.n_pool
    candidates = candidate_set(klass, n_random=s.n_random, seed=seed)
    e0 = expected_loss_at_zero(joint, loss, n_mc=n_pool, history=history,
                               seed=seed + 21)
    yl2 = target_l2_moment(joint, n_mc=n_pool, history=history, seed=seed + 22)
    inputs = bound_inputs_from_class(klass, loss, profile, e0, yl2, phi=phi)
    true_r, _, _ = _true_risks(candidates, joint, loss,
                               (n_pool, history, seed + 23))

    rows = []
    for n in s.ns:
        report = risk_bound(inputs, n, s.delta, s.case)
        z_train, y_train = sample_joint_paths(joint, s.n_trials, n,
                                              history=history,
                                              seed=seed + 1009 * n + 1000)
        emp = _empirical_risks(candidates, z_train, y_train, loss)
        gaps = (true_r[:, None] - emp).max(axis=0)
        med = float(np.median(gaps))
        rows.append({"n": n, "bound": report.total,
                     "median_gap": med, "max_gap": float(gaps.max()),
                     "coverage": float((gaps <= report.total).mean())})
    return rows
