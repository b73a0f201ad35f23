"""Losses, empirical and statistical risks, and constrained readout fitting.

The certified losses have the separable form L(x, y) = sum_i f_i(x_i - y_i)
with f_i = (l_l / sqrt(m)) g and g a 1-Lipschitz scalar function vanishing
at 0; then |L(x, y) - L(x', y')| <= l_l (||x - x'||_2 + ||y - y'||_2).
The squared loss is provided for convenience but flagged uncertified (its
g is not Lipschitz), and the certificate routines reject it.

Empirical risks follow the truncated-sample convention: the input window
(z_1, ..., z_n) is preceded by an all-zero past, so the recursion opens at
the zero-input fixed point of the state map and the whole risk costs one
forward pass (for a linear reservoir, one FFT convolution).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .processes import Moment, _next_fast_len, batch_paths
from .reservoir import (
    Hypothesis,
    LinearReservoir,
    Readout,
    _as_inputs,
    _powers,
    iterate_states_batch,
    zero_input_fixed_point,
)

__all__ = [
    "LossFunction",
    "loss_value",
    "empirical_risk",
    "idealized_empirical_risk",
    "IndependentJoint",
    "TeacherJoint",
    "sample_joint",
    "sample_joint_paths",
    "statistical_risk_mc",
    "exact_risk",
    "fit_readout_erm",
]


@dataclass(frozen=True)
class LossFunction:
    """Separable loss L(x, y) = (l_l / sqrt(m)) sum_i g(x_i - y_i).

    kind "absolute": g(u) = |u|
    kind "huber":    g(u) = u^2/2 below delta, delta (|u| - delta/2) above;
                     1-Lipschitz iff delta <= 1
    kind "pinball":  g(u) = max(quantile * u, (quantile - 1) * u)
    kind "squared":  g(u) = u^2, NOT Lipschitz; certified is False and the
                     certificate chain refuses it
    """

    kind: str = "absolute"
    l_l: float = 1.0
    delta: float = 1.0
    quantile: float = 0.5

    def __post_init__(self):
        if self.kind not in ("absolute", "huber", "pinball", "squared"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.l_l <= 0:
            raise ValueError("l_l must be > 0")
        if self.kind == "huber" and not 0.0 < self.delta <= 1.0:
            raise ValueError("huber delta must lie in (0, 1] to keep g 1-Lipschitz")
        if self.kind == "pinball" and not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must lie in (0, 1)")

    @property
    def certified(self):
        return self.kind != "squared"

    def g(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "absolute":
            return np.abs(u)
        if self.kind == "huber":
            a = np.abs(u)
            return np.where(a <= self.delta, 0.5 * u ** 2,
                            self.delta * (a - 0.5 * self.delta))
        if self.kind == "pinball":
            return np.maximum(self.quantile * u, (self.quantile - 1.0) * u)
        return u ** 2

    def g_prime(self, u):
        """A subgradient of g (used by the ERM solver)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "absolute":
            return np.sign(u)
        if self.kind == "huber":
            return np.clip(u, -self.delta, self.delta)
        if self.kind == "pinball":
            return np.where(u >= 0, self.quantile, self.quantile - 1.0)
        return 2.0 * u

    def per_sample(self, pred, target):
        """Loss of each row of pred against target, shape (n,)."""
        pred = _as_columns(pred)
        target = _as_columns(target)
        if pred.shape != target.shape:
            raise ValueError("pred and target must have matching shapes")
        m = pred.shape[1]
        return self.l_l / np.sqrt(m) * self.g(pred - target).sum(axis=1)

    def risk(self, pred, target):
        """Average loss over the sample axis of (..., n, m) predictions and
        targets (broadcast against each other), shape (...)."""
        m = pred.shape[-1]
        return (self.l_l / np.sqrt(m)
                * self.g(pred - target).sum(axis=-1)).mean(axis=-1)


def loss_value(loss, x, y):
    """L(x, y) for single vectors x, y."""
    return float(loss.per_sample(np.atleast_1d(x)[None, :],
                                 np.atleast_1d(y)[None, :])[0])


def _as_columns(y):
    """Coerce targets to shape (n, m); a flat vector becomes (n, 1)."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        return y[:, None]
    if y.ndim != 2:
        raise ValueError("targets must be (n,) or (n, m)")
    return y


def _window(hyp, inputs):
    """Readout outputs along the window, recursion opened at the
    zero-input fixed point (all-zero past): window_outputs on a batch of
    one, the path the experiments take."""
    z = _as_inputs(hyp.reservoir, inputs)
    return hyp.reservoir.window_outputs(z[None], [hyp.readout])[0, 0]


def empirical_risk(hyp, inputs, targets, loss):
    """Average loss over the window under the zero-padded past convention.

    inputs: (n, d) window (oldest first); targets: (n, m).  The prediction
    at step t uses inputs[0..t] only, so the whole risk is one forward pass.
    """
    targets = _as_columns(targets)
    preds = _window(hyp, inputs)
    if preds.shape[0] != targets.shape[0]:
        raise ValueError("inputs and targets must have the same length")
    return float(loss.per_sample(preds, targets).mean())


def idealized_empirical_risk(hyp, inputs, targets, pre_inputs, loss):
    """Average loss with the window preceded by an explicit pre-history.

    pre_inputs (p, d) approximates the unobserved infinite past; with p = 0
    this reduces exactly to empirical_risk.  The neglected tail beyond the
    pre-history is zero padded (contributing at most r^p M_F in state).
    """
    targets = _as_columns(targets)
    pre_inputs = np.asarray(pre_inputs, dtype=float)
    if pre_inputs.size == 0:
        return empirical_risk(hyp, inputs, targets, loss)
    pre_inputs = np.atleast_2d(pre_inputs)
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    full = np.vstack([pre_inputs, inputs])
    preds = _window(hyp, full)[pre_inputs.shape[0]:]
    return float(loss.per_sample(preds, targets).mean())


# ---------------------------------------------------------------------------
# joint input/target models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependentJoint:
    """Inputs from z_model; targets i.i.d. from y_law, independent of z.

    Its target side reads like a teacher joint's: no teacher, and the
    target itself as the noise.
    """

    z_model: object
    y_law: object

    teacher = None

    @property
    def noise(self):
        return self.y_law

    @property
    def n_out(self):
        return self.y_law.dim


@dataclass(frozen=True)
class TeacherJoint:
    """Targets produced by a fixed teacher hypothesis driven by the inputs.

    Y_t = teacher(Z up to t) + noise_t (noise optional, i.i.d.).  The
    teacher recursion opens at its zero-input fixed point after `history`
    steps, so Y_0 approximates a stationary functional of the input past.
    """

    z_model: object
    teacher: Hypothesis
    noise_law: object = None

    @property
    def noise(self):
        return self.noise_law

    @property
    def n_out(self):
        return self.teacher.readout.w.shape[0]


def _targets(joint, z, rng, every_step):
    """Targets along input paths z (paths, n, d): the teacher's readout
    (when the joint has a teacher) plus i.i.d. noise drawn from rng, at
    the final time of each path or, with every_step, at every time."""
    shape = z.shape[:2] if every_step else z.shape[:1]
    noise = None if joint.noise is None else joint.noise.sample(rng, *shape)
    if joint.teacher is None:
        return noise
    res, ro = joint.teacher.reservoir, joint.teacher.readout
    if every_step:
        y = res.window_outputs(z, [ro])[0]
    else:
        y = ro(iterate_states_batch(res, z, x0=zero_input_fixed_point(res)))
    return y if noise is None else y + noise


def sample_joint(joint, n_mc, history, seed=0):
    """n_mc independent (input history, target) pairs.

    Returns (Z, Y) with Z of shape (n_mc, history, d) (oldest first) and Y
    of shape (n_mc, m): the target paired with the window's final time.
    """
    if history < 1:
        raise ValueError("history must be >= 1")
    z = batch_paths(joint.z_model, n_mc, history, seed=seed)
    rng = np.random.default_rng(seed + n_mc + 1)  # target noise stream
    return z, _targets(joint, z, rng, every_step=False)


def sample_joint_paths(joint, n_trials, n, history=200, seed=0):
    """Paired training series: n_trials runs of (z_t, y_t) for t = 1..n.

    Returns (Z, Y) with shapes (n_trials, n, d) and (n_trials, n, m).  For
    a teacher joint the target at each time reads out the teacher state
    driven by the extra `history` prefix steps (discarded afterwards), so
    the pairs sit close to the stationary joint law.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = history + n
    z = batch_paths(joint.z_model, n_trials, total, seed=seed)
    rng = np.random.default_rng(seed + n_trials + 1)
    y = _targets(joint, z, rng, every_step=True)
    return z[:, history:], y[:, history:]


def statistical_risk_mc(hyp, joint, loss, n_mc=2000, history=200, seed=0):
    """Monte Carlo estimate of the statistical risk E[L(H(Z), Y_0)].

    Histories of the given length open at the hypothesis' zero-input fixed
    point; the truncation error in each prediction is at most
    l_h * r^history * (M_F + ||x*||).  Returns a Moment with provenance
    "mc".
    """
    z, y = sample_joint(joint, n_mc, history, seed)
    vals = _pool_losses(hyp.reservoir, [hyp.readout], z, y, loss)[0]
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    return Moment(mean, se, "mc")


def _pool_losses(res, readouts, z, y, loss):
    """Per-sample losses (k, n_pool) of k readouts on one reservoir over
    the pool of (history, target) pairs z (n_pool, history, d) and y
    (n_pool, m): the final states from one pass of the histories, opened
    at the zero-input fixed point, and every readout's predictions from
    one (n_pool, N) @ (N, k m) product."""
    states = iterate_states_batch(res, z, x0=zero_input_fixed_point(res))
    w = np.stack([ro.w for ro in readouts])  # (k, m, N)
    a = np.stack([ro.a for ro in readouts])[:, None, :]
    pred = (states @ w.reshape(-1, w.shape[2]).T).reshape(
        len(states), len(readouts), -1).swapaxes(0, 1) + a
    # per-sample losses: the risk over a length-1 sample axis
    return loss.risk(pred[..., None, :], _as_columns(y)[:, None, :])


def _folded_normal_mean(mu, var):
    # E|X| for X ~ N(mu, var)
    if var <= 0:
        return abs(mu)
    return (np.sqrt(2.0 * var / np.pi) * np.exp(-mu ** 2 / (2.0 * var))
            + mu * math.erf(mu / np.sqrt(2.0 * var)))


def _mean_abs_cf(deltas, gauss_var, mu):
    """E|X| for X = mu + sum_i U(-deltas_i, deltas_i) + N(0, gauss_var).

    Uses E|X| = (2/pi) int_0^inf (1 - Re phi_X(t)) / t^2 dt; the tail
    beyond T contributes 1/T plus a remainder below 1e-13 once the
    envelope prod min(1, 1/(d_i t)) exp(-gauss_var t^2 / 2) is small
    enough.  Degenerate sums (no terms, or one uniform and no gaussian)
    take their closed forms instead.
    """
    from scipy.integrate import IntegrationWarning, quad

    d = np.abs(np.asarray(deltas, dtype=float).ravel())
    d = d[d > 0]
    var = float(np.sum(d ** 2) / 3.0 + gauss_var)
    if var <= 0:
        return abs(mu)
    if d.size == 0:
        return _folded_normal_mean(mu, gauss_var)
    if d.size == 1 and gauss_var == 0.0:
        a = d[0]
        if abs(mu) >= a:
            return abs(mu)
        return (a * a + mu * mu) / (2.0 * a)

    t0 = 1e-4 / math.sqrt(var)
    second = 0.5 * (var + mu * mu)

    def integrand(t):
        if t < t0:
            return second
        x = d * t
        phi = (float(np.prod(np.sinc(x / np.pi)))
               * math.exp(-0.5 * gauss_var * t * t) * math.cos(mu * t))
        return (1.0 - phi) / (t * t)

    def envelope(t):
        dt = d * t
        val = float(np.prod(np.minimum(1.0, 1.0 / np.maximum(dt, 1e-300))))
        return val * math.exp(-0.5 * gauss_var * t * t)

    t_hi = 10.0 / math.sqrt(var)
    while envelope(t_hi) / t_hi > 1e-13 and t_hi < 1e12:
        t_hi *= 2.0
    with warnings.catch_warnings():
        # long oscillatory ranges trip quadpack's roundoff heuristic while
        # the achieved accuracy (checked against closed forms) is ~1e-10
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, 0.0, t_hi, limit=500, epsabs=1e-11,
                      epsrel=1e-10)
    return 2.0 / math.pi * (val + 1.0 / t_hi)


# longest kappa chain the uniform-input closed form evaluates, and its tail
_KAPPA_TERMS = 100_000
_KAPPA_TOL = 1e-16


def _lrc_kappa_chain(res, readout):
    """Rows kappa_j = w A^j C of the linear prediction as a (J, d) array,
    truncated once the spectral tail falls below _KAPPA_TOL, plus the
    constant w x* + a at the fixed point x*.  Raises ValueError when that
    takes more than _KAPPA_TERMS terms (|||A|||_2 close to 1), rather than
    dropping the tail."""
    rho = float(np.linalg.norm(res.a, 2))
    if rho >= 1.0:
        raise ValueError("need |||A|||_2 < 1")
    wn = float(np.linalg.norm(readout.w)) * float(np.linalg.norm(res.c, 2))
    j_max = 1
    if wn > 0 and rho > 0:
        j_max = max(1, int(math.ceil(math.log(_KAPPA_TOL / (wn / (1 - rho)))
                                     / math.log(rho))))
    if j_max > _KAPPA_TERMS:
        raise ValueError(f"the kappa chain needs {j_max} terms, more than "
                         f"{_KAPPA_TERMS}")
    rows = (readout.w @ _powers(res.a, res.c, j_max))[:, 0]
    const = float((readout.w @ res.zero_input_fixed_point() + readout.a)[0])
    return rows, const


def exact_risk(hyp, joint, loss):
    """Closed-form statistical risk for linear scalar-output hypotheses.

    Requires the absolute loss, a linear reservoir with scalar output and
    scalar targets: draws independent of the inputs, or a linear teacher
    plus optional i.i.d. noise.  Inputs with a Gaussian moving-average form
    (z_model.gaussian_ma(): i.i.d. Gaussian, Gaussian MA(q), ARFIMA) with
    gaussian targets (or noise) reduce to a folded-normal mean via the
    stationary state covariance, the hypothesis state stacked with the
    teacher's when there is one.  I.i.d. uniform inputs with gaussian or
    uniform targets (or noise) reduce to a characteristic-function
    quadrature over the prediction-error law.  Raises ValueError outside
    this scope, which includes uniform inputs whose kappa chain needs more
    than _KAPPA_TERMS terms.
    """
    zm = joint.z_model
    if zm.kind == "iid" and zm.law.kind == "uniform":
        _check_scope(hyp.reservoir, [hyp.readout], joint, loss)
        return _exact_risk_uniform(hyp, joint, loss)
    risk = _gaussian_risks(hyp.reservoir, [hyp.readout], joint, loss)[0]
    return Moment(float(risk), 0.0, "analytic")


def _check_scope(res, readouts, joint, loss):
    if loss.kind != "absolute":
        raise ValueError("exact_risk needs the absolute loss")
    if (not isinstance(res, LinearReservoir)
            or any(ro.w.shape[0] != 1 for ro in readouts)):
        raise ValueError("exact_risk needs a linear reservoir with scalar output")
    teacher = joint.teacher
    if teacher is not None and not isinstance(teacher.reservoir, LinearReservoir):
        raise ValueError("exact_risk needs a linear teacher")
    if joint.n_out != 1:
        raise ValueError("exact_risk needs scalar targets")


def _gaussian_risks(res, readouts, joint, loss):
    """exact_risk of each readout on one linear reservoir under inputs with
    a Gaussian moving-average form, from one stationary covariance of the
    state (stacked with the teacher's), shape (len(readouts),).

    Raises ValueError outside exact_risk's scope or when the inputs have no
    Gaussian moving-average form.
    """
    _check_scope(res, readouts, joint, loss)
    ma = joint.z_model.gaussian_ma()
    if ma is None:
        raise ValueError("exact_risk needs gaussian linear or i.i.d. uniform "
                         "inputs")
    teacher, noise = joint.teacher, joint.noise
    if noise is not None and noise.kind != "gaussian":
        raise ValueError("gaussian inputs need gaussian targets or noise")
    kernel, scale = ma

    # stationary mean of the prediction error, and the state whose
    # stationary covariance gives its variance
    mu_h = res.zero_input_fixed_point()
    a, c = res.a, res.c
    if teacher is not None:
        tres, tro = teacher.reservoir, teacher.readout
        n1, n2 = res.n_state, tres.n_state
        a = np.zeros((n1 + n2, n1 + n2))
        a[:n1, :n1] = res.a
        a[n1:, n1:] = tres.a
        c = np.vstack([res.c, tres.c])
        mu_t = tres.zero_input_fixed_point()
    cov = _stationary_covariance(a, c, kernel, scale ** 2)
    risks = np.empty(len(readouts))
    for i, ro in enumerate(readouts):
        mu = ro.w @ mu_h + ro.a
        w = ro.w[0]
        if teacher is not None:
            w = np.concatenate([w, -tro.w[0]])
            mu = mu - tro.w @ mu_t - tro.a
        var = float(w @ cov @ w)
        if noise is not None:
            var += noise.scale ** 2
        risks[i] = loss.l_l * _folded_normal_mean(float(mu[0]), var)
    return risks


def _stationary_covariance(a, c, kernel, s2):
    """Stationary covariance of x_t = A x_{t-1} + C z_t driven by
    z_t = sum_{k<=K} kernel_k xi_{t-k}, xi i.i.d. N(0, s2 I):

        s2 sum_{m<K} G_m G_m^T + solve_discrete_lyapunov(A, s2 G_K G_K^T)

    with G_m = sum_{k<=m} kernel_k A^(m-k) C, the weight of xi_{t-m} in
    x_t (beyond lag K it is A^(m-K) G_K).  The powers A^j C, j <= K, come
    by doubling, and G_0..G_K from one FFT convolution along the lag axis.
    At K = 0 this is the Lyapunov solve of i.i.d. inputs alone.
    """
    from scipy.linalg import solve_discrete_lyapunov

    k = kernel.size - 1
    if k == 0:
        g = kernel[0] * c
        return solve_discrete_lyapunov(a, s2 * (g @ g.T))
    powers = _powers(a, c, k + 1)  # A^j C
    size = _next_fast_len(2 * k + 1)
    spec = np.fft.rfft(powers, size, axis=0)
    spec *= np.fft.rfft(kernel, size)[:, None, None]
    g = np.fft.irfft(spec, size, axis=0)[:k + 1]
    head = g[:k].transpose(1, 0, 2).reshape(c.shape[0], -1)
    return s2 * (head @ head.T) + solve_discrete_lyapunov(a, s2 * (g[k] @ g[k].T))


def _exact_risk_uniform(hyp, joint, loss):
    # prediction error = sum of independent scaled uniforms (one per input
    # coordinate per lag, and the noise when uniform) plus optional gaussian
    # noise plus a constant
    scale = joint.z_model.law.scale
    kap, mu = _lrc_kappa_chain(hyp.reservoir, hyp.readout)
    if joint.teacher is not None:
        kap_t, mu_t = _lrc_kappa_chain(joint.teacher.reservoir,
                                       joint.teacher.readout)
        diff = np.zeros((max(kap.shape[0], kap_t.shape[0]), kap.shape[1]))
        diff[: kap.shape[0]] = kap
        diff[: kap_t.shape[0]] -= kap_t
        kap, mu = diff, mu - mu_t
    deltas = list(np.abs(kap.ravel()) * scale)
    gv = 0.0
    kind = None if joint.noise is None else joint.noise.kind
    if kind == "gaussian":
        gv = joint.noise.scale ** 2
    elif kind == "uniform":
        deltas.append(joint.noise.scale)
    elif kind is not None:
        raise ValueError("targets must be gaussian or uniform")
    return Moment(loss.l_l * _mean_abs_cf(deltas, gv, mu), 0.0, "analytic")


# ---------------------------------------------------------------------------
# constrained empirical risk minimization over readouts
# ---------------------------------------------------------------------------


def _project_spectral(w, cap):
    """Project each (m, N) matrix of the stack w onto |||W|||_2 <= cap."""
    flat = w.reshape(w.shape[:-2] + (-1,))
    if w.shape[-2] == 1:
        # one row: the spectral norm is the euclidean norm
        return _project_ball(flat, cap).reshape(w.shape)
    try:
        u, s, vt = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError:
        # the frobenius ball lies inside the spectral one
        return _project_ball(flat, cap).reshape(w.shape)
    clipped = (u * np.minimum(s, cap)[..., None, :]) @ vt
    return np.where((s[..., 0] <= cap)[..., None, None], w, clipped)


def _project_ball(a, cap):
    """Project each row of a onto the euclidean ball of radius cap."""
    n = np.sqrt(np.sum(a ** 2, axis=-1))
    return a * np.minimum(1.0, cap / np.maximum(n, 1e-300))[..., None]


def fit_readout_erm(states, targets, caps, loss, n_iter=300, n_restarts=5,
                    seed=0, tol=1e-6):
    """Empirical risk minimizer over affine readouts h(x) = W x + a with
    |||W|||_2 <= caps[0] and ||a||_2 <= caps[1].

    Projected subgradient descent from n_restarts >= 1 starts (a clipped
    least-squares solution, zero, and random draws), keeping the best
    projected iterate; for the scalar absolute loss the offset is polished
    to the clamped median of the residuals, which is exactly optimal at
    fixed W.  The objective is convex, so the best iterate is within the
    step-size resolution of the optimum.

    states (n, N) with targets (n,) or (n, m) returns one Readout.  A
    leading trial axis, states (T, n, N) with targets (T, n) or (T, n, m),
    fits the T trials at once and returns a list of T Readouts; trial t
    draws its random starts from default_rng(seed + t) and stops on its own
    once its subgradient norm falls to tol, so it equals the single fit of
    its slice with seed + t.

    All starts of all trials iterate as one stack, each start stopping on
    its own; the best iterate is the earliest one, starts taken in order,
    that attains the least risk, as if the starts ran one after another.
    """
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    x = np.asarray(states, dtype=float)
    single = x.ndim <= 2
    if single:
        x = np.atleast_2d(x)[None]
        y = _as_columns(targets)[None]
    else:
        y = np.asarray(targets, dtype=float)
        if y.ndim == 2:
            y = y[..., None]
    if x.ndim != 3 or y.ndim != 3 or x.shape[:2] != y.shape[:2]:
        raise ValueError("states and targets must have the same length")
    l_h, l_h0 = float(caps[0]), float(caps[1])
    if l_h < 0 or l_h0 < 0:
        raise ValueError("caps must be >= 0")
    n_trials, n, n_state = x.shape
    m = y.shape[2]

    # feature-major states whose last row is ones, so that a readout
    # [W | a] of shape (m, N + 1) predicts in one product and the offset
    # gradient is the last column of the W gradient
    xt = np.ones((n_trials, n_state + 1, n))
    xt[:, :n_state] = x.swapaxes(1, 2)
    yt = y.swapaxes(1, 2)[:, None]  # (T, 1, m, n)
    rows = n_restarts * m
    c_loss = loss.l_l / np.sqrt(m)

    def residuals(wa):
        """Predictions minus targets of the stack wa (T, S, m, N + 1)."""
        pred = (wa.reshape(n_trials, rows, n_state + 1) @ xt).reshape(
            n_trials, n_restarts, m, n)
        pred -= yt
        return pred

    def risk(resid):
        return loss.g(resid).sum(axis=(2, 3)) * (c_loss / n)

    def polish_offset(wa):
        wa[..., n_state] = 0.0
        if l_h0 == 0.0:
            return
        resid = -residuals(wa)
        if loss.kind == "absolute":
            centre = np.median(resid, axis=-1)
        elif loss.kind in ("squared", "huber"):
            centre = resid.mean(axis=-1)
        else:
            centre = np.quantile(resid, loss.quantile, axis=-1)
        wa[..., n_state] = _project_ball(centre, l_h0)

    # each start's offset is polished before use, so a start is its W alone
    wa = np.zeros((n_trials, n_restarts, m, n_state + 1))
    wls = np.stack([np.linalg.lstsq(xt[t].T, y[t], rcond=None)[0]
                    for t in range(n_trials)])
    wa[:, 0, :, :n_state] = _project_spectral(
        wls[:, :n_state].swapaxes(1, 2), l_h)
    rngs = [np.random.default_rng(seed + t) for t in range(n_trials)]
    for s in range(2, n_restarts):
        draws = []
        for rng in rngs:
            draws.append(rng.standard_normal((m, n_state)))
            rng.standard_normal(m)  # the offset draw, kept for the stream
        wa[:, s, :, :n_state] = _project_spectral(np.stack(draws) * l_h, l_h)

    best_val = np.full((n_trials, n_restarts), np.inf)
    best_wa = np.zeros_like(wa)

    def keep(better, cur, wa):
        best_val[better] = cur[better]
        best_wa[better] = wa[better]

    scale = max(l_h, l_h0, 1.0)
    polish_offset(wa)
    # one residual per iterate serves its risk and the next subgradient
    resid = residuals(wa)
    cur = risk(resid)
    keep(cur < best_val, cur, wa)
    live = np.ones((n_trials, n_restarts), dtype=bool)
    for k in range(n_iter):
        gmat = loss.g_prime(resid).reshape(n_trials, rows, n)
        grad = (gmat @ xt.swapaxes(1, 2)).reshape(wa.shape) * (c_loss / n)
        gn = np.sqrt(np.sum(grad ** 2, axis=(2, 3)))
        live &= gn > tol  # a start stops for good at its first small step
        if not live.any():
            break
        step = scale / (np.sqrt(k + 1.0) * np.where(live, gn, 1.0))
        nxt = wa - step[..., None, None] * grad
        nxt[..., :n_state] = _project_spectral(nxt[..., :n_state], l_h)
        nxt[..., n_state] = _project_ball(nxt[..., n_state], l_h0)
        wa = np.where(live[..., None, None], nxt, wa)
        resid = residuals(wa)
        cur = risk(resid)
        keep(live & (cur < best_val), cur, wa)
    polish_offset(wa)
    cur = risk(residuals(wa))
    keep(cur < best_val, cur, wa)

    # the first start attaining the least risk, as a later start kept only
    # a strictly smaller one when they ran in turn
    best = best_wa[np.arange(n_trials), best_val.argmin(axis=1)]
    fits = [Readout(best[t, :, :n_state], best[t, :, n_state])
            for t in range(n_trials)]
    return fits[0] if single else fits
