"""Finite-sample risk certificates for contracting reservoir classes.

The generalization gap between the statistical risk and the zero-padded
empirical risk over a hypothesis class splits into a deterministic
truncation part and a stochastic part.  This module derives every constant
of that chain from interpretable inputs (class caps, loss modulus,
dependence envelopes of the data) and packages the final high-probability
certificates:

  bound(n, delta) = truncation + expectation decay + deviation

in four flavours keyed by the dependence assumption on the data:

  "bounded"     Lipschitz functionals of bounded i.i.d. innovations;
                sub-gaussian style deviation with constant c_bd
  "phi_moment"  Lipschitz functionals with a convex moment function Phi;
                deviation via truncated-difference martingale moments
  "geometric"   geometrically decaying coupling coefficients; Markov
                deviation at the price of a 2/delta factor
  "algebraic"   polynomially decaying coupling coefficients; Markov
                deviation, valid for every sample size

Every constant is plain float arithmetic so reports are bit-reproducible.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .processes import DependenceProfile, Moment
from .reservoir import StateAffineClass

__all__ = [
    "PhiFunction",
    "BoundInputs",
    "ChainConstants",
    "BoundReport",
    "rademacher_constant",
    "expected_scale_caps",
    "geometric_envelope",
    "c_zero",
    "truncation_risk_gap",
    "block_bias",
    "block_length",
    "gamma_alpha",
    "algebraic_tail_constant",
    "expected_gap_constants",
    "expectation_gap_bound",
    "bound_from_constants",
    "risk_bound",
    "min_sample_size",
    "bound_inputs_from_class",
]

_CASES = ("bounded", "phi_moment", "geometric", "algebraic")
_RATE_FLOOR = 1e-12


@dataclass(frozen=True)
class PhiFunction:
    """Convex moment function: x^p with p > 1, or exp(x) - 1."""

    kind: str = "power"
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in ("power", "exp"):
            raise ValueError(f"unknown moment function {self.kind!r}")
        if self.kind == "power" and self.p <= 1.0:
            raise ValueError("power moment function needs p > 1")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return x ** self.p
        return np.expm1(x)

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        if (y < 0).any():
            raise ValueError("moment function inverse needs y >= 0")
        if self.kind == "power":
            return y ** (1.0 / self.p)
        return np.log1p(y)


# ---------------------------------------------------------------------------
# class-level complexity constant
# ---------------------------------------------------------------------------


def _as_value(x):
    return x.value if isinstance(x, Moment) else float(x)


def rademacher_constant(klass, input_second_moment=None):
    """Constant c with block Rademacher complexity <= c / sqrt(k).

    Uses the class caps; unbounded-input families additionally need the
    second moment E||Z_0||_2^2 (a Moment or float), either passed here or
    stored on the class.  State affine classes, being uniformly bounded on
    their input box, need no moment.
    """
    if isinstance(klass, StateAffineClass):
        return klass.l_h * klass.m_f + klass.l_h0

    if input_second_moment is None:
        input_second_moment = klass.input_second_moment
    if input_second_moment is None:
        raise ValueError("need E||Z_0||^2 for this family")
    z2 = math.sqrt(_as_value(input_second_moment))

    # (A, C, zeta) classes: the linear class is the echo state one with
    # Lip(sigma) = 1, and a random template's lam_a is its cap a
    if klass.lam_a >= 1.0:
        raise ValueError("summed row caps must stay below 1")
    return (klass.l_h * (klass.lam_c * z2 + klass.lam_zeta)
            / (1.0 - klass.lam_a) + klass.l_h0)


def expected_scale_caps(n_state, n_input, entry_law="gaussian"):
    """Analytic per-unit-scale expectations for a random template.

    Returns (e_lam_c, e_lam_zeta), the expectations of
    sum_l ||C_l||_2 and sum_l |zeta_l| for i.i.d. unit-scale entries;
    multiply by c_scale resp. zeta_scale and the activation Lipschitz
    constant for the class caps.  gaussian rows use the chi mean; the
    scalar laws use E|entry| = 1/2 (uniform) resp. 1 (laplace).
    """
    if entry_law == "gaussian":
        row = math.sqrt(2.0) * math.exp(math.lgamma((n_input + 1) / 2)
                                        - math.lgamma(n_input / 2))
        ent = math.sqrt(2.0 / math.pi)
    elif entry_law == "uniform":
        if n_input != 1:
            raise ValueError("uniform rows have no closed form beyond d = 1")
        row, ent = 0.5, 0.5
    elif entry_law == "laplace":
        if n_input != 1:
            raise ValueError("laplace rows have no closed form beyond d = 1")
        row, ent = 1.0, 1.0
    else:
        raise ValueError(f"unknown entry law {entry_law!r}")
    return n_state * row, n_state * ent


# ---------------------------------------------------------------------------
# dependence plumbing
# ---------------------------------------------------------------------------


def geometric_envelope(profile):
    """Geometric envelopes implied by functional-Lipschitz dependence data.

    For a Lipschitz functional of i.i.d. innovations with strictly
    decreasing weights, replacing innovations beyond lag tau changes the
    value by at most 2 L E||xi|| sum_{j>=tau} w_j <= C d_w^tau with
    C = 2 L E||xi|| / (1 - d_w); only geometric weights have d_w < 1.
    Profiles already in envelope form pass through unchanged.
    """
    if profile.regime != "lipschitz":
        return profile
    for w, name in ((profile.w_z, "w_z"), (profile.w_y, "w_y")):
        if w.d_w >= 1.0:
            raise ValueError(f"{name} has decay ratio 1; no geometric envelope")
    c_z = 2.0 * profile.l_z * profile.xi_mean_abs_z.value / (1.0 - profile.w_z.d_w)
    c_y = 2.0 * profile.l_y * profile.xi_mean_abs_y.value / (1.0 - profile.w_y.d_w)
    return DependenceProfile(
        regime="geometric",
        c_z=Moment(c_z, 2.0 * profile.l_z * profile.xi_mean_abs_z.std_error
                   / (1.0 - profile.w_z.d_w), profile.xi_mean_abs_z.provenance),
        rate_z=profile.w_z.d_w,
        c_y=Moment(c_y, 2.0 * profile.l_y * profile.xi_mean_abs_y.std_error
                   / (1.0 - profile.w_y.d_w), profile.xi_mean_abs_y.provenance),
        rate_y=profile.w_y.d_w,
        exact_zero_z=profile.exact_zero_z, exact_zero_y=profile.exact_zero_y,
        l_z=profile.l_z, l_y=profile.l_y, w_z=profile.w_z, w_y=profile.w_y,
        xi_mean_abs_z=profile.xi_mean_abs_z, xi_mean_abs_y=profile.xi_mean_abs_y,
        xi_second_z=profile.xi_second_z, xi_second_y=profile.xi_second_y,
        xi_bound_z=profile.xi_bound_z, xi_bound_y=profile.xi_bound_y,
        xi_law_z=profile.xi_law_z, xi_law_y=profile.xi_law_y)


# ---------------------------------------------------------------------------
# inputs and constants containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundInputs:
    """Everything the certificate chain consumes, as plain scalars.

    r:        contraction modulus of the class, in [0, 1)
    l_l:      loss modulus (the loss is l_l-Lipschitz in each argument)
    l_h:      readout Lipschitz cap; l_h0: readout offset cap ||h(0)||
    l_r:      input-to-state Lipschitz modulus of the class
    m_f:      invariant state-ball radius
    n_out:    target dimension m
    c_rc:     Rademacher constant of the class (see rademacher_constant)
    profile:  dependence envelopes of the data (z and y roles)
    e_loss_zero:  E|L(0, Y_0)| as a Moment
    y_l2_moment:  E[||Y_0||_2^2]^(1/2) as a Moment (absolute-gap chains)
    phi:      moment function for the "phi_moment" case
    """

    r: float
    l_l: float
    l_h: float
    l_h0: float
    l_r: float
    m_f: float
    n_out: int
    c_rc: float
    profile: DependenceProfile
    e_loss_zero: Moment
    y_l2_moment: Moment = None
    phi: PhiFunction = None

    def __post_init__(self):
        if not 0.0 <= self.r < 1.0:
            raise ValueError("r must lie in [0, 1)")
        for name in ("l_l", "l_h", "l_h0", "l_r", "m_f", "c_rc"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.n_out < 1:
            raise ValueError("n_out must be >= 1")
        if self.e_loss_zero.value < 0:
            raise ValueError("e_loss_zero must be >= 0")


@dataclass(frozen=True)
class ChainConstants:
    """Derived constants of one certificate case, all plain floats."""

    case: str
    r: float
    c0: float
    big_m: float
    b: float
    c_rc: float
    lambda_max: float = None
    c1: float = None
    c2: float = None
    c3: float = None
    c3_abs: float = None
    alpha: float = None
    alpha_z: float = None
    gamma_alpha: float = None
    c_alpha: float = None
    c1_abs: float = None
    c_bd: float = None
    c_mom_z: float = None
    c_mom_y: float = None
    c_phi: float = None
    phi: PhiFunction = None
    provenance: tuple = ()


@dataclass(frozen=True)
class BoundReport:
    """One evaluated certificate: the total and its per-term split."""

    case: str
    n: int
    delta: float
    total: float
    valid: bool
    terms: dict = field(default_factory=dict)
    tau: int = None
    k: int = None
    constants: ChainConstants = None


# ---------------------------------------------------------------------------
# chain pieces
# ---------------------------------------------------------------------------


def c_zero(r, l_l, l_h, m_f):
    """Constant of the truncation gap: sup over the class of the
    difference between zero-padded and full-past empirical risks is at
    most c_zero (1 - r^n) / n almost surely."""
    if not 0.0 <= r < 1.0:
        raise ValueError("r must lie in [0, 1)")
    return 2.0 * r * l_l * l_h * m_f / (1.0 - r)


def truncation_risk_gap(c0, r, n):
    """c0 (1 - r^n) / n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return c0 * (1.0 - r ** n) / n


def block_bias(tau, r, l_l, l_h, l_r, m_f, profile):
    """Dependence bias of one block of length tau.

    l_l (2 r^tau m_f l_h + theta_y(tau)
         + l_r l_h sum_{l=0}^{tau-1} r^l theta_z(tau - l)).

    Under a geometric-type envelope theta_z(s) = c lam^s the sum is the
    geometric series c lam sum_{l<tau} r^l lam^(tau-1-l), taken in closed
    form; an algebraic envelope (tau ~ n^beta) is summed term by term.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    prof = geometric_envelope(profile)
    if prof.regime == "algebraic":
        ls = np.arange(tau)
        conv = float(np.sum(r ** ls * prof.theta_envelope("z", tau - ls)))
    elif prof.exact_zero_z:
        conv = 0.0
    else:
        conv = prof.c_z.value * prof.rate_z * _power_sum(r, prof.rate_z, tau)
    theta_y = float(prof.theta_envelope("y", tau))
    return l_l * (2.0 * r ** tau * m_f * l_h + theta_y + l_r * l_h * conv)


def _power_sum(x, y, tau):
    """sum_{l<tau} x^l y^(tau-1-l) for 0 <= x, y with max(x, y) > 0.

    The sum is symmetric in x and y.  With hi = max(x, y) and
    q = min(x, y) / hi = e^u it is hi^(tau-1) expm1(tau u) / expm1(u),
    which stays accurate as q -> 1 and is hi^(tau-1) tau at q = 1.
    """
    hi, lo = max(x, y), min(x, y)
    if lo == hi:
        return hi ** (tau - 1) * tau
    if lo == 0.0:
        return hi ** (tau - 1)
    u = math.log1p((lo - hi) / hi)
    return hi ** (tau - 1) * (math.expm1(tau * u) / math.expm1(u))


def block_length(n, lambda_max=None, alpha=None):
    """Prescribed block split (tau, k) with k tau <= n.

    Geometric-type dependence: tau = floor(log n / log(1 / lambda_max)),
    clamped to at least 1.  Algebraic dependence with exponent alpha:
    tau = floor(n^beta) with beta = 1 / (2 alpha + 1).  Exactly one of
    lambda_max, alpha must be given.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if (lambda_max is None) == (alpha is None):
        raise ValueError("pass exactly one of lambda_max, alpha")
    if lambda_max is not None:
        if not 0.0 < lambda_max < 1.0:
            raise ValueError("lambda_max must lie in (0, 1)")
        lam = max(lambda_max, _RATE_FLOOR)
        tau = int(math.floor(math.log(n) / math.log(1.0 / lam)))
    else:
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        beta = 1.0 / (2.0 * alpha + 1.0)
        tau = int(math.floor(n ** beta))
    tau = max(1, min(tau, n))
    return tau, max(1, n // tau)


def gamma_alpha(r, alpha_z):
    """max over integer tau >= 1 of log(tau) alpha_z / log(1/r) - tau / 4.

    The objective is concave in tau with continuous maximizer
    4 alpha_z / log(1/r), so the integer max sits at its floor or ceil
    (clamped to tau >= 1).
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    if alpha_z <= 0:
        raise ValueError("alpha_z must be > 0")
    log_inv = math.log(1.0 / r)
    peak = 4.0 * alpha_z / log_inv
    taus = {max(1, math.floor(peak)), max(1, math.ceil(peak))}
    return max(math.log(t) * alpha_z / log_inv - t / 4.0 for t in taus)


def algebraic_tail_constant(r, alpha_z, gamma=None):
    """max(2^alpha_z, r^(-gamma_alpha)) / (1 - sqrt(r))."""
    if gamma is None:
        gamma = gamma_alpha(r, alpha_z)
    return max(2.0 ** alpha_z, r ** (-gamma)) / (1.0 - math.sqrt(r))


# ---------------------------------------------------------------------------
# moment-function expectations (phi_moment case)
# ---------------------------------------------------------------------------


def _norm_mgf(law, t):
    """E[exp(t ||xi||_2)] in closed form or by quadrature on the norm
    density; inf when the moment diverges."""
    d, s = law.dim, law.scale
    if law.kind == "laplace":
        if d != 1:
            raise ValueError("laplace norm mgf needs d = 1")
        if t * s >= 1.0:
            return math.inf
        return 1.0 / (1.0 - t * s)
    if law.kind == "uniform":
        if d != 1:
            raise ValueError("uniform norm mgf needs d = 1")
        if t == 0.0:
            return 1.0
        return (math.exp(t * s) - 1.0) / (t * s)
    # gaussian: ||xi|| / s is chi_d; integrate the density
    from scipy.integrate import quad

    logc = (1.0 - d / 2.0) * math.log(2.0) - math.lgamma(d / 2.0)

    def dens(x):
        return math.exp(logc + (d - 1.0) * math.log(x) - x * x / 2.0
                        + t * s * x) if x > 0 else 0.0

    val, _ = quad(dens, 0.0, max(50.0, 10.0 * abs(t) * s + 50.0), limit=200)
    return val


def _phi_norm_moment(phi, law, c):
    """E[Phi(c ||xi||)] (c >= 0), analytic where possible."""
    if c == 0.0:
        return 0.0
    if phi.kind == "power":
        m = law.norm_power_moment(phi.p)
        if m is None:
            raise ValueError("no closed-form norm moment for this law")
        return c ** phi.p * float(m)
    return _norm_mgf(law, c) - 1.0


def _phi_sq_norm_moment(phi, law, c):
    """E[Phi(c ||xi||)^2]."""
    if c == 0.0:
        return 0.0
    if phi.kind == "power":
        m = law.norm_power_moment(2.0 * phi.p)
        if m is None:
            raise ValueError("no closed-form norm moment for this law")
        return c ** (2.0 * phi.p) * float(m)
    # (e^x - 1)^2 = e^{2x} - 2 e^x + 1
    return _norm_mgf(law, 2.0 * c) - 2.0 * _norm_mgf(law, c) + 1.0


# ---------------------------------------------------------------------------
# constants per case
# ---------------------------------------------------------------------------


def _effective_rates(prof, r):
    rates = [r]
    if not prof.exact_zero_z:
        rates.append(prof.rate_z)
    if not prof.exact_zero_y:
        rates.append(prof.rate_y)
    return max(max(rates), _RATE_FLOOR)


def expected_gap_constants(inputs, case):
    """Constants of the expected sup-gap decay for the given case.

    Cases "bounded", "phi_moment" and "geometric" share the
    geometric-rate shape c1/n + c2 log(n)/n + c3 sqrt(log(n)/n) (with the
    absolute-gap variant c3_abs); "algebraic" yields
    c1 n^(-1/(2 + 1/alpha)) + c2 n^(-2/(2 + 1/alpha)).  Functional-
    Lipschitz profiles are first converted to their geometric envelopes.
    """
    if case not in _CASES:
        raise ValueError(f"unknown case {case!r}")
    prov = []
    prof = inputs.profile
    if case in ("bounded", "phi_moment"):
        if prof.regime != "lipschitz":
            raise ValueError(f"case {case!r} needs a lipschitz profile")
    if case == "geometric" and prof.regime == "algebraic":
        raise ValueError("geometric case cannot use an algebraic profile")
    if case == "algebraic" and prof.regime != "algebraic":
        raise ValueError("algebraic case needs an algebraic profile")

    r = inputs.r
    c0 = c_zero(r, inputs.l_l, inputs.l_h, inputs.m_f)
    big_m = (inputs.l_l * inputs.l_h * inputs.m_f + inputs.e_loss_zero.value
             + inputs.l_h0 * inputs.l_l)
    b = 2.0 * math.sqrt(inputs.n_out) * inputs.l_l
    for m in (inputs.e_loss_zero, inputs.y_l2_moment):
        if isinstance(m, Moment) and m.provenance != "analytic":
            prov.append(f"{m.provenance} moment input")

    y_l2 = inputs.y_l2_moment.value if inputs.y_l2_moment is not None else None

    if case == "algebraic":
        alphas = []
        if not prof.exact_zero_z:
            alphas.append(prof.rate_z)
        if not prof.exact_zero_y:
            alphas.append(prof.rate_y)
        if not alphas:
            raise ValueError("algebraic case needs a nonzero decay role")
        alpha = min(alphas)
        if r > 0:
            gam = gamma_alpha(r, prof.rate_z)
            c_al = algebraic_tail_constant(r, prof.rate_z, gam)
            rg = r ** (-gam)
        else:
            # r -> 0 limits: the maximizer collapses to tau = 1
            gam, c_al, rg = -0.25, 2.0 ** prof.rate_z, 0.0
        c_z = 0.0 if prof.exact_zero_z else prof.c_z.value
        c_y = 0.0 if prof.exact_zero_y else prof.c_y.value
        c1 = (inputs.l_l * (2.0 * inputs.m_f * inputs.l_h * rg
                            + inputs.l_r * inputs.l_h * c_z * c_al + c_y)
              + b * inputs.c_rc)
        c2 = 2.0 * big_m
        if y_l2 is None:
            raise ValueError("algebraic case needs y_l2_moment")
        c1_abs = c1 + 4.0 * inputs.l_l * y_l2 + b * inputs.c_rc
        return ChainConstants(
            case=case, r=r, c0=c0, big_m=big_m, b=b, c_rc=inputs.c_rc,
            alpha=alpha, alpha_z=prof.rate_z, gamma_alpha=gam, c_alpha=c_al,
            c1=c1, c2=c2, c1_abs=c1_abs, provenance=tuple(prov))

    env = geometric_envelope(prof)
    lam = _effective_rates(env, r)
    if lam >= 1.0:
        raise ValueError("effective decay rate must stay below 1")
    log_inv = math.log(1.0 / lam)
    c_z = 0.0 if env.exact_zero_z else env.c_z.value
    c_y = 0.0 if env.exact_zero_y else env.c_y.value
    c1 = (2.0 * inputs.m_f * inputs.l_l * inputs.l_h + inputs.l_l * c_y) / lam
    c2 = (2.0 * big_m / log_inv
          + inputs.l_l * inputs.l_r * inputs.l_h * c_z / (lam * log_inv))
    c3 = b * inputs.c_rc / math.sqrt(log_inv)
    c3_abs = None
    if y_l2 is not None:
        c3_abs = 2.0 * c3 + 4.0 * inputs.l_l * y_l2 / math.sqrt(log_inv)

    extra = {}
    if case == "geometric":
        if c3_abs is None:
            raise ValueError("geometric case needs y_l2_moment")
    elif case == "bounded":
        for name, role, bound in (("xi_bound_z", "input", prof.xi_bound_z),
                                  ("xi_bound_y", "target", prof.xi_bound_y)):
            if bound is None:
                raise ValueError(f"bounded case needs bounded {role} "
                                 f"innovations ({name} is missing)")
        m_bar = max(prof.xi_bound_z, prof.xi_bound_y)
        w1z = prof.w_z.l1_norm
        w1y = prof.w_y.l1_norm
        extra["c_bd"] = 2.0 * inputs.l_l * (
            inputs.l_h / (1.0 - r) * (inputs.m_f * r
                                      + inputs.l_r * m_bar * prof.l_z * w1z)
            + m_bar * prof.l_y * w1y)
    elif case == "phi_moment":
        if inputs.phi is None:
            raise ValueError("phi_moment case needs a moment function")
        if prof.xi_law_z is None or prof.xi_law_y is None:
            raise ValueError("phi_moment case needs the innovation laws")
        c_mom_z = (inputs.l_l * inputs.l_h * inputs.l_r / (1.0 - r)
                   * prof.l_z * prof.w_z.l1_norm)
        c_mom_y = inputs.l_l * prof.l_y * prof.w_y.l1_norm
        c_phi = 0.0
        for c_mom, law in ((c_mom_y, prof.xi_law_y), (c_mom_z, prof.xi_law_z)):
            c_phi += (math.sqrt(_phi_sq_norm_moment(inputs.phi, law, 2.0 * c_mom))
                      * math.sqrt(_phi_norm_moment(inputs.phi, law, 1.0)))
        extra.update(c_mom_z=c_mom_z, c_mom_y=c_mom_y, c_phi=c_phi,
                     phi=inputs.phi)
        if inputs.phi.kind == "exp" and "gaussian" in (prof.xi_law_z.kind,
                                                       prof.xi_law_y.kind):
            prov.append("quadrature moment-function expectation")

    return ChainConstants(
        case=case, r=r, c0=c0, big_m=big_m, b=b, c_rc=inputs.c_rc,
        lambda_max=lam, c1=c1, c2=c2, c3=c3, c3_abs=c3_abs,
        provenance=tuple(prov), **extra)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def expectation_gap_bound(inputs, n, tau=None, absolute=False):
    """Expected sup-gap bound at an explicit block split (generic form).

    (k tau / n) a_tau + B (k tau / n) R_k + 2 M (n - k tau) / n with
    R_k <= c_rc / sqrt(k); the absolute variant doubles the complexity
    term and adds (4 tau sqrt(k) / n) l_l E[||Y||^2]^(1/2).  tau defaults
    to the prescribed block length for the profile's regime.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    prof = inputs.profile
    if tau is None:
        if prof.regime == "algebraic":
            alphas = [a for a, z in ((prof.rate_z, prof.exact_zero_z),
                                     (prof.rate_y, prof.exact_zero_y)) if not z]
            tau, k = block_length(n, alpha=min(alphas) if alphas else 1.0)
        else:
            env = geometric_envelope(prof)
            tau, k = block_length(n, lambda_max=_effective_rates(env, inputs.r))
    else:
        tau = max(1, min(int(tau), n))
        k = max(1, n // tau)
    a_t = block_bias(tau, inputs.r, inputs.l_l, inputs.l_h, inputs.l_r,
                     inputs.m_f, prof)
    big_m = (inputs.l_l * inputs.l_h * inputs.m_f + inputs.e_loss_zero.value
             + inputs.l_h0 * inputs.l_l)
    b = 2.0 * math.sqrt(inputs.n_out) * inputs.l_l
    cover = k * tau / n
    rad = b * cover * inputs.c_rc / math.sqrt(k)
    total = cover * a_t + rad + 2.0 * big_m * (n - k * tau) / n
    if absolute:
        if inputs.y_l2_moment is None:
            raise ValueError("absolute variant needs y_l2_moment")
        total += rad + 4.0 * tau * math.sqrt(k) / n * inputs.l_l \
            * inputs.y_l2_moment.value
    return total


def _geometric_validity(n, lam):
    return math.log(n) < n * math.log(1.0 / lam)


def bound_from_constants(consts, n, delta):
    """Evaluate a derived-constants bundle at sample size n and level delta.

    Outside a case's validity region (the geometric-rate cases need
    log n < n log(1/lambda_max)) the report carries total = inf and
    valid = False.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    case = consts.case
    terms = {"truncation": truncation_risk_gap(consts.c0, consts.r, n)}
    tau = k = None

    if case == "algebraic":
        a = consts.alpha
        rate1 = n ** (-1.0 / (2.0 + 1.0 / a))
        rate2 = n ** (-2.0 / (2.0 + 1.0 / a))
        terms["expectation"] = consts.c1_abs * rate1 + consts.c2 * rate2
        terms["deviation_factor"] = 2.0 / delta
        total = terms["truncation"] + (2.0 / delta) * terms["expectation"]
        tau, k = block_length(n, alpha=a)
        return BoundReport(case=case, n=n, delta=delta, total=total,
                           valid=True, terms=terms, tau=tau, k=k,
                           constants=consts)

    lam = consts.lambda_max
    valid = _geometric_validity(n, lam)
    tau, k = block_length(n, lambda_max=lam)
    log_n = math.log(n)
    if not valid:
        return BoundReport(case=case, n=n, delta=delta, total=math.inf,
                           valid=False, terms=terms, tau=tau, k=k,
                           constants=consts)

    if case == "geometric":
        exp_part = (consts.c1 / n + consts.c2 * log_n / n
                    + consts.c3_abs * math.sqrt(log_n) / math.sqrt(n))
        terms["expectation"] = exp_part
        terms["deviation_factor"] = 2.0 / delta
        total = terms["truncation"] + (2.0 / delta) * exp_part
        return BoundReport(case=case, n=n, delta=delta, total=total,
                           valid=True, terms=terms, tau=tau, k=k,
                           constants=consts)

    exp_part = (consts.c1 / n + consts.c2 * log_n / n
                + consts.c3 * math.sqrt(log_n) / math.sqrt(n))
    terms["expectation"] = exp_part

    if case == "bounded":
        dev = consts.c_bd * math.sqrt(math.log(4.0 / delta) / (2.0 * n))
        terms["deviation"] = dev
        total = terms["truncation"] + exp_part + dev
        return BoundReport(case=case, n=n, delta=delta, total=total,
                           valid=True, terms=terms, tau=tau, k=k,
                           constants=consts)

    if case == "phi_moment":
        phi = consts.phi
        lead = consts.c0 + 2.0 * float(phi.inverse(float(n))) \
            * (consts.c_mom_z + consts.c_mom_y)
        b1 = lead * math.sqrt(math.log(8.0 / delta) / (2.0 * n))
        b2 = float(phi.inverse(2.0 * consts.c_phi / (delta * math.sqrt(n))))
        dev = 5.0 * max(b1, b2)
        terms["deviation"] = dev
        total = terms["truncation"] + exp_part + dev
        return BoundReport(case=case, n=n, delta=delta, total=total,
                           valid=True, terms=terms, tau=tau, k=k,
                           constants=consts)

    raise ValueError(f"unknown case {case!r}")


def risk_bound(inputs, n, delta, case):
    """High-probability bound on sup_H (R(H) - hat R_n(H)) at level delta.

    Derives the case constants from the inputs and evaluates them at n.
    """
    return bound_from_constants(expected_gap_constants(inputs, case), n, delta)


def min_sample_size(inputs, case, epsilon, delta, n_cap=10 ** 12):
    """Smallest n with risk_bound(n) <= epsilon, or None below n_cap.

    Every certified case decays monotonically beyond n >= 3 wherever it is
    valid, so a doubling search plus bisection plus a final downward walk
    returns the exact minimum.  (Power moment functions with p < 2 are the
    one shape whose deviation term can grow; there the result is the left
    edge of the admissible stretch the search lands in.)
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    consts = expected_gap_constants(inputs, case)

    def ok(n):
        rep = bound_from_constants(consts, n, delta)
        return rep.valid and rep.total <= epsilon

    for n in (1, 2, 3):
        if n <= n_cap and ok(n):
            return n
    lo, hi = 3, 6
    while hi <= n_cap and not ok(hi):
        lo, hi = hi, hi * 2
    if hi > n_cap:
        if not ok(n_cap):
            return None
        hi = n_cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    while hi > 4 and ok(hi - 1):
        hi -= 1
    return hi


# ---------------------------------------------------------------------------
# assembly from package objects
# ---------------------------------------------------------------------------


def bound_inputs_from_class(klass, loss, profile, e_loss_zero, y_l2_moment=None,
                            phi=None, input_second_moment=None, c_rc=None):
    """Assemble BoundInputs from a hypothesis class and a loss.

    Pulls r, l_r, m_f and the readout caps off the class, computes the
    Rademacher constant (unless an override is given) and rejects
    uncertified losses.
    """
    if not loss.certified:
        raise ValueError("the squared loss is not certified; "
                         "use absolute, huber or pinball")
    if c_rc is None:
        c_rc = rademacher_constant(klass, input_second_moment)
    return BoundInputs(
        r=klass.r, l_l=loss.l_l, l_h=klass.l_h, l_h0=klass.l_h0,
        l_r=klass.l_r, m_f=klass.m_f, n_out=klass.n_out, c_rc=float(c_rc),
        profile=profile, e_loss_zero=e_loss_zero, y_l2_moment=y_l2_moment,
        phi=phi)
