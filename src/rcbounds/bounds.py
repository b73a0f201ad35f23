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

Every constant is plain float arithmetic so reports are bit-reproducible,
and the chain imports no numpy: only block_bias sums a series with it.
"""

import math
import re
from dataclasses import dataclass, field, fields, replace

from .dependence import DependenceProfile, Moment
from .specs import _pos_int

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
    "min_sample_size_from_constants",
    "bound_inputs_from_class",
    "check_case_regime",
]

# each certificate case: the profile regimes that serve it
_CASES = {"bounded": ("lipschitz",), "phi_moment": ("lipschitz",),
          "geometric": ("lipschitz", "geometric"), "algebraic": ("algebraic",)}
# the cases that bound the absolute gap's expectation (so need y_l2_moment)
# and reach level delta by Markov's inequality, at a factor 2 / delta; the
# others add a deviation term to the expectation of the plain gap
_MARKOV = ("geometric", "algebraic")
_N_CAP = 10 ** 12  # the sample-size search's default cap
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

    def inverse(self, y):
        if y < 0:
            raise ValueError("moment function inverse needs y >= 0")
        if self.kind == "exp":
            return math.log1p(y)
        # the correctly rounded square root, which pow may miss by one ulp
        return math.sqrt(y) if self.p == 2.0 else y ** (1.0 / self.p)


# ---------------------------------------------------------------------------
# class-level complexity constant
# ---------------------------------------------------------------------------


def rademacher_constant(klass):
    """Constant c with block Rademacher complexity <= c / sqrt(k), as each
    class states it (klass.rademacher_constant).

    Unbounded-input families additionally need the second moment
    E||Z_0||_2^2 (a Moment or float) stored on the class.  State affine
    classes, being uniformly bounded on their input box, need no moment.
    """
    return klass.rademacher_constant()


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
    env = {}
    for role in ("z", "y"):
        w, lip, xi = (getattr(profile, f"{name}_{role}")
                      for name in ("w", "l", "xi_mean_abs"))
        if w.d_w >= 1.0:
            raise ValueError(f"w_{role} has decay ratio 1; no geometric envelope")
        env[f"c_{role}"] = Moment(2.0 * lip * xi.value / (1.0 - w.d_w),
                                  2.0 * lip * xi.std_error / (1.0 - w.d_w),
                                  xi.provenance)
        env[f"rate_{role}"] = w.d_w
    return replace(profile, regime="geometric", **env)


# ---------------------------------------------------------------------------
# inputs, settings and constants containers
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


# the least value of a count by its field name; any other count is >= 1
_LEAST = {"n_pool": 2, "n_mc": 2, "profile_mc": 2, "seed": 0, "burn_in": 0}


class _Settings:
    """The settings of a command or a validate kind: its config keys with
    their defaults.  Range checks by field name: a grid (ks, taus, ns) is a
    non-empty list of integers >= 1, kept as a tuple; a count is >= its
    _LEAST entry, or else >= 1; delta and nominal_rate lie in (0, 1);
    input_bound and epsilon are finite and > 0; case is a certificate case;
    prefix (an artifact file stem) matches [A-Za-z0-9._-]+."""

    def __post_init__(self):
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if name in ("ks", "taus", "ns"):
                grid = tuple(_pos_int(v, f"{name} entry") for v in value)
                if not grid:
                    raise ValueError(f"{name} must not be empty")
                object.__setattr__(self, name, grid)
            elif (f.type is int and value is not None
                  and value < (least := _LEAST.get(name, 1))):
                raise ValueError(f"{name} must be >= {least}")
            elif name in ("delta", "nominal_rate") and not 0 < value < 1:
                raise ValueError(f"{name} must lie in (0, 1)")
            elif name in ("input_bound", "epsilon") and not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
            elif name == "case" and value not in _CASES:
                raise ValueError(f"case must be one of {list(_CASES)}")
            elif name == "decay" and value not in ("geometric", "algebraic"):
                raise ValueError("decay must be 'geometric' or 'algebraic'")
            elif name == "prefix" and not re.fullmatch(r"[A-Za-z0-9._-]+", value):
                raise ValueError("prefix must match [A-Za-z0-9._-]+")


@dataclass(frozen=True)
class BoundSettings(_Settings):
    """The certificate at n and delta, and along curve (N1:N2:STEPS)."""

    case: str
    n: int
    delta: float
    inputs: BoundInputs
    curve: str = None


@dataclass(frozen=True)
class SamplesizeSettings(_Settings):
    """The least n <= n_cap whose certificate at delta is at most epsilon."""

    case: str
    delta: float
    epsilon: float
    inputs: BoundInputs
    n_cap: int = _N_CAP


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
        import numpy as np

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
    """E[exp(t ||xi||_2)] in closed form or as a positive series; inf when
    the moment diverges or its value leaves the float range."""
    d, u = law.dim, t * law.scale
    if law.kind != "gaussian" and d != 1:
        raise ValueError(f"{law.kind} norm mgf needs d = 1")
    if u == 0.0:
        return 1.0
    if law.kind == "laplace":
        return 1.0 / (1.0 - u) if u < 1.0 else math.inf
    if law.kind == "gaussian" and d > 1:
        # R = ||xi|| / s is chi_d
        return _chi_mgf_series(d, u)
    try:
        if law.kind == "uniform":
            return (math.exp(u) - 1.0) / u
        # 2 e^(u^2/2) Phi(u)
        return math.exp(u * u / 2.0) * math.erfc(-u / math.sqrt(2.0))
    except OverflowError:
        return math.inf


def _chi_mgf_series(d, u):
    """E[exp(u R)] for R ~ chi_d and u > 0 as the positive series
    sum_k u^k E[R^k] / k!, E[R^k] = 2^(k/2) Gamma((d+k)/2) / Gamma(d/2).

    Each term is u^2 (d+k) / ((k+1)(k+2)) times the one two places back,
    so no term exceeds the sum, and the sum is inf once a term overflows.
    The ratio is below 1/2 once k > 2 (u^2 + d); the sum stops past there
    when the last two terms are below 1e-17 of the largest, which bounds
    what is left at 2e-17 of it.
    """
    terms = [1.0, u * math.sqrt(2.0) * math.exp(
        math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))]
    top, k, u2 = max(terms), 0, u * u
    while k <= 2.0 * (u2 + d) or max(terms[-2:]) >= 1e-17 * top:
        terms.append(terms[-2] * u2 * (d + k) / ((k + 1.0) * (k + 2.0)))
        top = max(top, terms[-1])
        if top == math.inf:
            return math.inf
        k += 1
    return math.fsum(terms)


def _phi_norm_moment(phi, law, c, q=1):
    """E[Phi(c ||xi||)^q] for c >= 0 and q in {1, 2}, analytic where
    possible; inf when it diverges or leaves the float range."""
    if c == 0.0:
        return 0.0
    if phi.kind == "power":
        # E[||c xi||^(q p)] is the law's moment at scale c s, whose log form
        # never meets c^(q p) underflowing to 0 times a moment past the
        # float range (0 * inf = nan)
        scale = c * law.scale
        inside = 0.0 < scale < math.inf  # else c s itself left the range
        m = (replace(law, scale=scale) if inside else law).norm_power_moment(
            q * phi.p)
        if m is None:
            raise ValueError("no closed-form norm moment for this law")
        return float(m) if inside else (math.inf if scale else 0.0)
    top = _norm_mgf(law, q * c)  # raises for a law without a closed form
    if c * law.scale * math.sqrt(law.dim) < 0.01:
        # (e^x - 1)^q = sum_{k>=1} (q^k - q (q-1)^k) x^k / k!; at small c
        # the mgf forms below cancel to rounding noise, or below zero
        return math.fsum((q ** k - q * (q - 1) ** k) * c ** k
                         * law.norm_power_moment(k) / math.factorial(k)
                         for k in range(1, 24))
    if q == 1 or top == math.inf:
        return top - 1.0
    # (e^x - 1)^2 = e^{2x} - 2 e^x + 1
    return top - 2.0 * _norm_mgf(law, c) + 1.0


# ---------------------------------------------------------------------------
# constants per case
# ---------------------------------------------------------------------------


def _decay_rates(env, r):
    """(lambda_max, alpha) of a profile in envelope form, the other one
    None.  An algebraic profile decays at the least exponent alpha of its
    roles that are not exact zero; any other at lambda_max, the largest of
    r and those roles' rates (at least _RATE_FLOOR)."""
    rates = [rate for rate, zero in ((env.rate_z, env.exact_zero_z),
                                     (env.rate_y, env.exact_zero_y))
             if not zero]
    if env.regime != "algebraic":
        return max(max([r] + rates), _RATE_FLOOR), None
    if not rates:
        raise ValueError("algebraic case needs a nonzero decay role")
    return None, min(rates)


def _shared_constants(inputs):
    """c0 = c_zero, M = l_l l_h m_f + E|L(0, Y)| + l_h0 l_l (the loss cap)
    and B = 2 sqrt(m) l_l (the complexity factor) of every case."""
    c0 = c_zero(inputs.r, inputs.l_l, inputs.l_h, inputs.m_f)
    big_m = (inputs.l_l * inputs.l_h * inputs.m_f + inputs.e_loss_zero.value
             + inputs.l_h0 * inputs.l_l)
    return c0, big_m, 2.0 * math.sqrt(inputs.n_out) * inputs.l_l


def check_case_regime(case, regime):
    """Raise ValueError unless the case is known and a profile of this
    regime serves it (_CASES)."""
    if case not in _CASES:
        raise ValueError(f"unknown case {case!r}")
    if regime not in _CASES[case]:
        article = "an" if case == "algebraic" else "a"
        raise ValueError(f"case {case!r} needs {article} "
                         f"{' or '.join(_CASES[case])} profile")


def expected_gap_constants(inputs, case):
    """Constants of the expected sup-gap decay for the given case.

    Cases "bounded", "phi_moment" and "geometric" share the
    geometric-rate shape c1/n + c2 log(n)/n + c3 sqrt(log(n)/n) (with the
    absolute-gap variant c3_abs); "algebraic" yields
    c1 n^(-1/(2 + 1/alpha)) + c2 n^(-2/(2 + 1/alpha)).  Functional-
    Lipschitz profiles are first converted to their geometric envelopes.
    """
    prof, r, l_l, l_h = inputs.profile, inputs.r, inputs.l_l, inputs.l_h
    check_case_regime(case, prof.regime)
    c0, big_m, b = _shared_constants(inputs)
    env = geometric_envelope(prof)
    lam, alpha = _decay_rates(env, r)
    y_l2 = inputs.y_l2_moment
    if y_l2 is None and case in _MARKOV:
        raise ValueError(f"{case} case needs y_l2_moment")
    prov = [f"{m.provenance} moment input" for m in (inputs.e_loss_zero, y_l2)
            if m is not None and m.provenance != "analytic"]
    c_z = 0.0 if env.exact_zero_z else env.c_z.value
    c_y = 0.0 if env.exact_zero_y else env.c_y.value

    if case == "algebraic":
        if r > 0:
            gam = gamma_alpha(r, prof.rate_z)
            c_al = algebraic_tail_constant(r, prof.rate_z, gam)
            rg = r ** (-gam)
        else:
            # r -> 0 limits: the maximizer collapses to tau = 1
            gam, c_al, rg = -0.25, 2.0 ** prof.rate_z, 0.0
        c1 = (l_l * (2.0 * inputs.m_f * l_h * rg
                     + inputs.l_r * l_h * c_z * c_al + c_y)
              + b * inputs.c_rc)
        shape = dict(c1=c1, c2=2.0 * big_m, alpha_z=prof.rate_z,
                     gamma_alpha=gam, c_alpha=c_al,
                     c1_abs=c1 + 4.0 * l_l * y_l2.value + b * inputs.c_rc)
    else:
        log_inv = math.log(1.0 / lam)
        c3 = b * inputs.c_rc / math.sqrt(log_inv)
        shape = dict(
            c1=(2.0 * inputs.m_f * l_l * l_h + l_l * c_y) / lam,
            c2=(2.0 * big_m / log_inv
                + l_l * inputs.l_r * l_h * c_z / (lam * log_inv)),
            c3=c3, c3_abs=None)
        if y_l2 is not None:
            shape["c3_abs"] = (2.0 * c3
                               + 4.0 * l_l * y_l2.value / math.sqrt(log_inv))

    if case == "bounded":
        for name, role, bound in (("xi_bound_z", "input", prof.xi_bound_z),
                                  ("xi_bound_y", "target", prof.xi_bound_y)):
            if bound is None:
                raise ValueError(f"bounded case needs bounded {role} "
                                 f"innovations ({name} is missing)")
        m_bar = max(prof.xi_bound_z, prof.xi_bound_y)
        w1z, w1y = prof.w_z.l1_norm, prof.w_y.l1_norm
        shape["c_bd"] = 2.0 * l_l * (
            l_h / (1.0 - r) * (inputs.m_f * r + inputs.l_r * m_bar * prof.l_z * w1z)
            + m_bar * prof.l_y * w1y)
    elif case == "phi_moment":
        phi = inputs.phi
        if phi is None:
            raise ValueError("phi_moment case needs a moment function")
        if prof.xi_law_z is None or prof.xi_law_y is None:
            raise ValueError("phi_moment case needs the innovation laws")
        c_mom_z = (l_l * l_h * inputs.l_r / (1.0 - r)
                   * prof.l_z * prof.w_z.l1_norm)
        c_mom_y = l_l * prof.l_y * prof.w_y.l1_norm
        c_phi = 0.0
        for role, c_mom, law in (("y", c_mom_y, prof.xi_law_y),
                                 ("z", c_mom_z, prof.xi_law_z)):
            if c_mom == 0.0:
                continue  # the role adds nothing, whatever its law
            moments = {
                f"E[Phi(2 c_mom_{role} ||xi_{role}||)^2]":
                    _phi_norm_moment(phi, law, 2.0 * c_mom, 2),
                f"E[Phi(||xi_{role}||)]": _phi_norm_moment(phi, law, 1.0)}
            # a nan counts as diverging, so max(b1, nan) never drops b2
            diverging = [name for name, v in moments.items()
                         if not v < math.inf]
            prov += [f"diverging moment-function expectation {name}"
                     for name in diverging]
            sq, one = moments.values()
            c_phi += math.inf if diverging else math.sqrt(sq) * math.sqrt(one)
        shape.update(c_mom_z=c_mom_z, c_mom_y=c_mom_y, c_phi=c_phi, phi=phi)
        if phi.kind == "exp" and any(
                law.kind == "gaussian" and law.dim > 1
                for law in (prof.xi_law_z, prof.xi_law_y)):
            prov.append("series moment-function expectation")

    return ChainConstants(
        case=case, r=r, c0=c0, big_m=big_m, b=b, c_rc=inputs.c_rc,
        lambda_max=lam, alpha=alpha, provenance=tuple(prov), **shape)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def expectation_gap_bound(inputs, n, tau=None, absolute=False):
    """Expected sup-gap bound at an explicit block split (generic form).

    (k tau / n) a_tau + B (k tau / n) R_k + 2 M (n - k tau) / n with
    R_k <= c_rc / sqrt(k); the absolute variant doubles the complexity
    term and adds (4 tau sqrt(k) / n) l_l E[||Y||^2]^(1/2).  tau defaults
    to the prescribed block length, the one bound_from_constants reports.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    prof = inputs.profile
    if tau is None:
        tau, k = block_length(n, *_decay_rates(geometric_envelope(prof),
                                               inputs.r))
    else:
        tau = max(1, min(int(tau), n))
        k = max(1, n // tau)
    a_t = block_bias(tau, inputs.r, inputs.l_l, inputs.l_h, inputs.l_r,
                     inputs.m_f, prof)
    _, big_m, b = _shared_constants(inputs)
    cover = k * tau / n
    rad = b * cover * inputs.c_rc / math.sqrt(k)
    total = cover * a_t + rad + 2.0 * big_m * (n - k * tau) / n
    if absolute:
        if inputs.y_l2_moment is None:
            raise ValueError("absolute variant needs y_l2_moment")
        total += rad + 4.0 * tau * math.sqrt(k) / n * inputs.l_l \
            * inputs.y_l2_moment.value
    return total


def bound_from_constants(consts, n, delta):
    """Evaluate a derived-constants bundle at sample size n and level delta.

    The case picks its expectation shape and either the Markov factor
    2 / delta (_MARKOV) or an added deviation term.  Outside a case's
    validity region (the geometric-rate cases need log n < n
    log(1/lambda_max)) and wherever the total is not finite, say for a
    diverging moment-function expectation, the report carries
    total = inf and valid = False.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    c, case = consts, consts.case
    if case not in _CASES:
        raise ValueError(f"unknown case {case!r}")
    terms = {"truncation": truncation_risk_gap(c.c0, c.r, n)}
    tau, k = block_length(n, c.lambda_max, c.alpha)
    total = math.inf
    if c.lambda_max is None or math.log(n) < n * math.log(1.0 / c.lambda_max):
        if case == "algebraic":
            e = 2.0 + 1.0 / c.alpha
            terms["expectation"] = (c.c1_abs * n ** (-1.0 / e)
                                    + c.c2 * n ** (-2.0 / e))
        else:
            log_n = math.log(n)
            c3 = c.c3_abs if case in _MARKOV else c.c3
            terms["expectation"] = (c.c1 / n + c.c2 * log_n / n
                                    + c3 * math.sqrt(log_n) / math.sqrt(n))
        if case in _MARKOV:
            terms["deviation_factor"] = 2.0 / delta
            total = terms["truncation"] + (2.0 / delta) * terms["expectation"]
        else:
            if case == "bounded":
                dev = c.c_bd * math.sqrt(math.log(4.0 / delta) / (2.0 * n))
            else:
                lead = (c.c0 + 2.0 * c.phi.inverse(float(n))
                        * (c.c_mom_z + c.c_mom_y))
                b1 = lead * math.sqrt(math.log(8.0 / delta) / (2.0 * n))
                b2 = c.phi.inverse(2.0 * c.c_phi / (delta * math.sqrt(n)))
                dev = 5.0 * max(b1, b2)
            terms["deviation"] = dev
            total = terms["truncation"] + terms["expectation"] + dev
    return BoundReport(case=case, n=n, delta=delta, total=total,
                       valid=math.isfinite(total), terms=terms, tau=tau, k=k,
                       constants=consts)


def risk_bound(inputs, n, delta, case):
    """High-probability bound on sup_H (R(H) - hat R_n(H)) at level delta.

    Derives the case constants from the inputs and evaluates them at n.
    """
    return bound_from_constants(expected_gap_constants(inputs, case), n, delta)


def min_sample_size(inputs, case, epsilon, delta, n_cap=_N_CAP):
    """Smallest n with risk_bound(n) <= epsilon, or None below n_cap.

    Derives the case constants from the inputs and searches them with
    min_sample_size_from_constants.
    """
    return min_sample_size_from_constants(
        expected_gap_constants(inputs, case), epsilon, delta, n_cap)


def min_sample_size_from_constants(consts, epsilon, delta, n_cap=_N_CAP):
    """Smallest n with bound_from_constants(consts, n, delta) <= epsilon, or
    None below n_cap.

    Every certified case decays monotonically beyond n >= 3 wherever it is
    valid, so a doubling search plus bisection plus a final downward walk
    returns the exact minimum.  (Power moment functions with p < 2 are the
    one shape whose deviation term can grow; there the result is the left
    edge of the admissible stretch the search lands in.)
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")

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
                            phi=None):
    """Assemble BoundInputs from a hypothesis class and a loss.

    Pulls r, l_r, m_f, the readout caps and the Rademacher constant off the
    class and rejects uncertified losses.
    """
    if not loss.certified:
        raise ValueError("the squared loss is not certified; "
                         "use absolute, huber or pinball")
    return BoundInputs(
        r=klass.r, l_l=loss.l_l, l_h=klass.l_h, l_h0=klass.l_h0,
        l_r=klass.l_r, m_f=klass.m_f, n_out=klass.n_out,
        c_rc=float(rademacher_constant(klass)),
        profile=profile, e_loss_zero=e_loss_zero, y_l2_moment=y_l2_moment,
        phi=phi)
