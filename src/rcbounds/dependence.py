"""Value types of the dependence data that the certificate chain reads.

A Moment (a scalar with its provenance), a WeightingSequence (the weights of
a functional-Lipschitz process), an InnovationLaw (a named innovation
distribution with its norm moments) and a DependenceProfile (the decay
envelopes of the input and target roles).  Every rule here is scalar
arithmetic on floats, so the chain evaluates without numpy;
rcbounds.processes re-exports all four next to the process models that
produce them.
"""

import math
from dataclasses import dataclass

__all__ = ["Moment", "WeightingSequence", "InnovationLaw", "DependenceProfile"]


@dataclass(frozen=True)
class Moment:
    """A scalar moment together with how it was obtained.

    provenance is one of "analytic", "quadrature", "mc", "exact-zero";
    std_error is nonzero only for "mc".  Left unset, the provenance is
    "mc" when there is a std error and "analytic" otherwise.
    """

    value: float
    std_error: float = 0.0
    provenance: str = None

    def __post_init__(self):
        if self.provenance is None:
            object.__setattr__(self, "provenance",
                               "mc" if self.std_error > 0 else "analytic")
        if not math.isfinite(self.value):
            raise ValueError("moment value must be finite")
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")
        if self.provenance not in ("analytic", "quadrature", "mc", "exact-zero"):
            raise ValueError(f"unknown provenance {self.provenance!r}")


@dataclass(frozen=True)
class WeightingSequence:
    """Strictly decreasing weights w_0 = 1 > w_1 > ... > 0 in closed form.

    kind "geometric": w_j = param**j with param in (0, 1).
    kind "polynomial": w_j = (1 + j)**(-param) with param > 1.

    Exposes the decay ratio d_w = sup w_{j+1} / w_j and the l1 norm
    sum_j w_j.  Only geometric sequences have d_w < 1; the polynomial family
    has d_w = 1 (its ratio (1+j)/(2+j) -> 1), which disqualifies it from the
    bound chains that divide by 1 - d_w.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind == "geometric":
            if not 0.0 < self.param < 1.0:
                raise ValueError("geometric weighting needs param in (0, 1)")
        elif self.kind == "polynomial":
            if self.param <= 1.0:
                raise ValueError("polynomial weighting needs param > 1")
        else:
            raise ValueError(f"unknown weighting kind {self.kind!r}")

    def value(self, j):
        if self.kind == "geometric":
            return self.param ** j
        return (1.0 + j) ** (-self.param)

    @property
    def d_w(self):
        if self.kind == "geometric":
            return self.param
        return 1.0

    @property
    def l1_norm(self):
        if self.kind == "geometric":
            return 1.0 / (1.0 - self.param)
        return _zeta(self.param)


# B_2, B_4, ..., B_20: the Bernoulli numbers of the Euler-Maclaurin tail in
# _zeta
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330)


def _zeta(p):
    """Riemann zeta(p) for p > 1 by Euler-Maclaurin at n = 10: the terms
    k < n summed, the rest as n^(1-p)/(p-1) + n^-p/2 plus the corrections
    B_2j/(2j)! p (p+1) ... (p+2j-2) n^(1-p-2j), j = 1..10.  The first
    correction left out is below 1e-19 for every p > 1."""
    n = 10
    terms = [k ** -p for k in range(1, n)]
    terms += [n ** (1.0 - p) / (p - 1.0), 0.5 * n ** -p]
    rising, power = p, n ** (-1.0 - p)  # p (p+1) ... (p+2j-2), n^(1-p-2j)
    for j, b in enumerate(_BERNOULLI, 1):
        if power == 0.0:
            break
        terms.append(b / math.factorial(2 * j) * rising * power)
        rising *= (p + 2 * j - 1) * (p + 2 * j)
        power /= n * n
    return math.fsum(terms)


# past e^700 a factor of norm_power_moment's closed forms may leave the
# float range (e^709.78), so there it takes the logarithm instead
_LOG_FACTOR_MAX = 700.0


@dataclass(frozen=True)
class InnovationLaw:
    """Named innovation distribution on R^dim with moment descriptors.

    kind "gaussian": i.i.d. N(0, scale^2) coordinates.
    kind "uniform":  i.i.d. uniform on [-scale, scale]  (bounded support).
    kind "laplace":  i.i.d. Laplace with scale parameter `scale`.
    """

    kind: str = "gaussian"
    dim: int = 1
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "laplace"):
            raise ValueError(f"unknown innovation kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be finite and > 0")

    def sample(self, rng, *shape):
        """Draws of shape shape + (dim,) from a numpy Generator."""
        full = tuple(shape) + (self.dim,)
        if self.kind == "gaussian":
            return self.scale * rng.standard_normal(full)
        if self.kind == "uniform":
            return rng.uniform(-self.scale, self.scale, full)
        return rng.laplace(0.0, self.scale, full)

    def norm_power_moment(self, power):
        """E[||xi||_2^power] in closed form, or None when not available;
        inf once the moment leaves the float range."""
        if power < 0:
            raise ValueError("power must be >= 0")
        if power == 0:
            return 1.0
        d, s, q = self.dim, self.scale, float(power)
        if d > 1 and self.kind != "gaussian" and q != 2.0:
            return None
        log_s, log_unit = q * math.log(s), self._log_unit_moment(q)
        if max(abs(log_s), log_unit) > _LOG_FACTOR_MAX:
            # s^q or E[(||xi||/s)^q] leaves the float range (or its integer
            # form grows past a float); the logarithm of their product does not
            try:
                return math.exp(log_s + log_unit)
            except OverflowError:
                return math.inf
        if self.kind == "gaussian":
            # ||xi||/s is chi_d distributed; at even q its moment is the
            # integer d (d + 2) ... (d + q - 2), exact in floating point
            if q % 2 == 0:
                return s ** q * math.prod(range(d, d + int(q), 2))
            return (s ** q * 2.0 ** (q / 2)
                    * math.exp(math.lgamma((d + q) / 2) - math.lgamma(d / 2)))
        if d == 1:
            if self.kind == "uniform":
                return s ** q / (q + 1.0)
            return s ** q * math.exp(log_unit)  # |Laplace| is exponential
        if self.kind == "uniform":
            return d * s ** 2 / 3.0
        return d * 2.0 * s ** 2

    def _log_unit_moment(self, q):
        """log E[(||xi||_2 / scale)^q] where norm_power_moment has a closed
        form: 2^(q/2) Gamma((d + q)/2) / Gamma(d/2) for the chi_d norm of a
        Gaussian, Gamma(q + 1) for |Laplace|, 1/(q + 1) for |uniform|."""
        d = self.dim
        if self.kind == "gaussian":
            return (q / 2 * math.log(2.0) + math.lgamma((d + q) / 2)
                    - math.lgamma(d / 2))
        if d > 1:
            return math.log(d / 3.0 if self.kind == "uniform" else 2.0 * d)
        if self.kind == "uniform":
            return -math.log(q + 1.0)
        return math.lgamma(q + 1.0)

    def mean_abs_norm(self):
        """E[||xi||_2] as a Moment (analytic when closed-form exists)."""
        v = self.norm_power_moment(1)
        if v is None:
            return None
        return Moment(float(v), 0.0, "analytic")

    def second_moment(self):
        """E[||xi||_2^2]; closed form for the whole catalog."""
        return Moment(float(self.norm_power_moment(2)), 0.0, "analytic")

    def bound(self):
        """sup ||xi||_2, or None for unbounded support."""
        if self.kind == "uniform":
            return self.scale * math.sqrt(self.dim)
        return None


@dataclass(frozen=True)
class DependenceProfile:
    """Decay envelopes theta^I(tau) for the input (z) and target (y) roles.

    regime "geometric": theta^I(tau) <= c_I * rate_I^tau, rate in (0, 1).
    regime "algebraic": theta^I(tau) <= c_I * tau^(-rate_I), rate > 0.
    regime "lipschitz": additionally carries the functional-Lipschitz data
    (l_I, w_I, innovation moments) from which a geometric envelope with
    c_I = 2 l_I E||xi^I|| / (1 - d_w) and rate d_w is derived.

    A profile built from a single process fills both roles identically; use
    rcbounds.processes.combine_profiles to pair an input process with a
    target process.
    """

    regime: str
    c_z: Moment
    rate_z: float
    c_y: Moment
    rate_y: float
    exact_zero_z: bool = False
    exact_zero_y: bool = False
    l_z: float = None
    l_y: float = None
    w_z: WeightingSequence = None
    w_y: WeightingSequence = None
    xi_mean_abs_z: Moment = None
    xi_mean_abs_y: Moment = None
    xi_second_z: Moment = None
    xi_second_y: Moment = None
    xi_bound_z: float = None
    xi_bound_y: float = None
    xi_law_z: InnovationLaw = None
    xi_law_y: InnovationLaw = None

    def __post_init__(self):
        if self.regime not in ("lipschitz", "geometric", "algebraic"):
            raise ValueError(f"unknown regime {self.regime!r}")
        for c, rate in ((self.c_z, self.rate_z), (self.c_y, self.rate_y)):
            if c.value < 0:
                raise ValueError("envelope constants must be >= 0")
            if self.regime == "algebraic":
                if rate <= 0:
                    raise ValueError("algebraic regime needs rate > 0")
            elif not 0.0 < rate < 1.0:
                raise ValueError("geometric-type regime needs rate in (0, 1)")
        if self.regime == "lipschitz":
            for name, v in (("l_z", self.l_z), ("l_y", self.l_y),
                            ("w_z", self.w_z), ("w_y", self.w_y),
                            ("xi_mean_abs_z", self.xi_mean_abs_z),
                            ("xi_mean_abs_y", self.xi_mean_abs_y)):
                if v is None:
                    raise ValueError(f"lipschitz regime requires {name}")
        for name, v in (("l_z", self.l_z), ("l_y", self.l_y)):
            if v is not None and not 0 <= v < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name, m in (("xi_mean_abs_z", self.xi_mean_abs_z),
                        ("xi_mean_abs_y", self.xi_mean_abs_y)):
            if m is not None and m.value < 0:
                raise ValueError(f"{name} must be >= 0")

    def theta_envelope(self, which, tau):
        """Envelope value for theta^which(tau), which in {'z', 'y'}; tau is
        a number or a numpy array of lags."""
        if which == "z":
            c, rate, zero = self.c_z.value, self.rate_z, self.exact_zero_z
        elif which == "y":
            c, rate, zero = self.c_y.value, self.rate_y, self.exact_zero_y
        else:
            raise ValueError("which must be 'z' or 'y'")
        if zero:
            return 0.0 * tau
        if self.regime == "algebraic":
            return c * tau ** (-rate)
        return c * rate ** tau
