"""Weakly dependent stochastic process generators and dependence coefficients.

Every process here is a causal Bernoulli shift Z_t = G(..., xi_{t-1}, xi_t)
driven by i.i.d. innovations, and each model states its G once, as

    innovations(rng, *shape)  i.i.d. innovations; time on the last axis of
                              shape, plus one trailing axis for the
                              innovation's coordinates
    transform(xi, n)          the last n values of the path that xi drives,
                              shape xi.shape[:-2] + (n, dim)
    lag(burn_in)              innovations drawn before the n returned values
    dim, burn_in              output dimension and default burn-in

Three generic drivers use nothing else and one chunking rule (blocks of
about _CHUNK_FLOATS innovation floats): batch_paths simulates paths, moment
E||Z_0||^order and estimate_theta the coupling coefficient

    theta(tau) = E|| G(..., xi_{-1}, xi_0)
                    - G(..., xi~_{-tau-1}, xi~_{-tau}, xi_{-tau+1}, ..., xi_0) ||_2

(innovations at times <= -tau replaced by an independent copy).  Each model
also states its closed forms once: dependence(mean_abs, nominal_rate), its
decay envelope theta(tau) <= C * lambda^tau or C * tau^(-alpha) as a
DependenceProfile (mean_abs() gives E||Z_0||_2 where C needs it);
analytic_moment(order), E||Z_0||_2^order or None; gaussian_ma(), its
Gaussian moving-average form (kernel phi_0..phi_K, scale s) with
Z_t = sum_k phi_k xi_{t-k} and xi i.i.d. N(0, s^2 I), or None; and kind,
spec() and from_spec(spec), its JSON spec.  dependence_params,
analytic_moment, model_to_spec and model_from_spec are generic over these
members.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Moment",
    "WeightingSequence",
    "InnovationLaw",
    "IIDProcess",
    "MAProcess",
    "VAR1Process",
    "GARCHProcess",
    "ARFIMAProcess",
    "DependenceProfile",
    "ThetaFit",
    "generate_path",
    "batch_paths",
    "estimate_theta",
    "dependence_params",
    "combine_profiles",
    "moment",
    "analytic_moment",
    "fit_theta_decay",
    "arfima_coefficients",
    "model_from_spec",
    "model_to_spec",
]

# Innovation floats per driver block; an FFT transform holds about three.
_CHUNK_FLOATS = 2_000_000


@dataclass(frozen=True)
class Moment:
    """A scalar moment together with how it was obtained.

    provenance is one of "analytic", "quadrature", "mc", "exact-zero";
    std_error is nonzero only for "mc".
    """

    value: float
    std_error: float = 0.0
    provenance: str = "analytic"

    def __post_init__(self):
        if not np.isfinite(self.value):
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

    Exposes the inverse decay ratio l_w = sup w_j / w_{j+1}, the decay ratio
    d_w = sup w_{j+1} / w_j and the l1 norm sum_j w_j.  Only geometric
    sequences have d_w < 1; the polynomial family has d_w = 1 (its ratio
    (1+j)/(2+j) -> 1), which disqualifies it from the bound chains that
    divide by 1 - d_w.
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
        j = np.asarray(j, dtype=float)
        if self.kind == "geometric":
            return self.param ** j
        return (1.0 + j) ** (-self.param)

    @property
    def l_w(self):
        # sup_j w_j / w_{j+1}; attained at j -> inf (geometric) resp. j = 0.
        if self.kind == "geometric":
            return 1.0 / self.param
        return 2.0 ** self.param

    @property
    def d_w(self):
        if self.kind == "geometric":
            return self.param
        return 1.0

    @property
    def l1_norm(self):
        if self.kind == "geometric":
            return 1.0 / (1.0 - self.param)
        from scipy.special import zeta

        return float(zeta(self.param, 1))


@dataclass(frozen=True)
class InnovationLaw:
    """Named innovation distribution on R^dim with moment descriptors.

    kind "gaussian": i.i.d. N(0, scale^2) coordinates.
    kind "uniform":  i.i.d. uniform on [-scale, scale]  (bounded support).
    kind "laplace":  i.i.d. Laplace with scale parameter `scale`.
    """

    kind: str
    dim: int = 1
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "laplace"):
            raise ValueError(f"unknown innovation kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0 < self.scale < np.inf:
            raise ValueError("scale must be finite and > 0")

    def sample(self, rng, *shape):
        full = tuple(shape) + (self.dim,)
        if self.kind == "gaussian":
            return self.scale * rng.standard_normal(full)
        if self.kind == "uniform":
            return rng.uniform(-self.scale, self.scale, full)
        return rng.laplace(0.0, self.scale, full)

    def norm_power_moment(self, power):
        """E[||xi||_2^power] in closed form, or None when not available."""
        if power < 0:
            raise ValueError("power must be >= 0")
        if power == 0:
            return 1.0
        d, s, q = self.dim, self.scale, float(power)
        if self.kind == "gaussian":
            # ||xi||/s is chi_d distributed; at even q its moment is the
            # integer d (d + 2) ... (d + q - 2), exact in floating point
            if q % 2 == 0:
                return s ** q * math.prod(range(d, d + int(q), 2))
            return (s ** q * 2.0 ** (q / 2)
                    * np.exp(math.lgamma((d + q) / 2) - math.lgamma(d / 2)))
        if d == 1:
            if self.kind == "uniform":
                return s ** q / (q + 1.0)
            return s ** q * np.exp(math.lgamma(q + 1.0))  # |Laplace| is exponential
        if self.kind == "uniform" and q == 2.0:
            return d * s ** 2 / 3.0
        if self.kind == "laplace" and q == 2.0:
            return d * 2.0 * s ** 2
        return None

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
            return self.scale * np.sqrt(self.dim)
        return None


# ---------------------------------------------------------------------------
# process models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IIDProcess:
    """Z_t = xi_t with i.i.d. innovations."""

    law: InnovationLaw
    burn_in = 0
    kind = "iid"

    @property
    def dim(self):
        return self.law.dim

    def lag(self, burn_in):
        return 0

    def innovations(self, rng, *shape):
        return self.law.sample(rng, *shape)

    def transform(self, xi, n):
        return xi[..., -n:, :]

    def dependence(self, mean_abs, nominal_rate):
        """Exactly independent: a lipschitz profile with l = 1 and the
        exact-zero flags set, reported at the nominal rate."""
        # Z_0 is the innovation, so E||xi|| is c (Monte Carlo for the laws
        # without a closed form)
        c, law = mean_abs(), self.law
        c2 = Moment(2 * c.value, 2 * c.std_error, c.provenance)
        w = WeightingSequence("geometric", nominal_rate)
        return DependenceProfile(
            regime="lipschitz", c_z=c2, rate_z=nominal_rate, c_y=c2,
            rate_y=nominal_rate, exact_zero_z=True, exact_zero_y=True,
            l_z=1.0, l_y=1.0, w_z=w, w_y=w, xi_mean_abs_z=c, xi_mean_abs_y=c,
            xi_second_z=law.second_moment(), xi_second_y=law.second_moment(),
            xi_bound_z=law.bound(), xi_bound_y=law.bound(),
            xi_law_z=law, xi_law_y=law)

    def analytic_moment(self, order):
        return self.law.mean_abs_norm() if order == 1 else self.law.second_moment()

    def gaussian_ma(self):
        return (np.ones(1), self.law.scale) if self.law.kind == "gaussian" else None

    def spec(self):
        return {"innovation": _law_to_spec(self.law)}

    @classmethod
    def from_spec(cls, spec):
        _fields(spec, (), ("innovation",))
        return cls(_law_from_spec(spec.get("innovation", {})))


@dataclass(frozen=True)
class MAProcess:
    """Finite moving average Z_t = xi_t + sum_j coeffs[j] xi_{t-1-j}, scalar."""

    coeffs: tuple
    law: InnovationLaw
    burn_in = 0
    dim = 1
    kind = "ma"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("MAProcess needs at least one lag coefficient")
        if self.law.dim != 1:
            raise ValueError("MAProcess is scalar; law.dim must be 1")
        object.__setattr__(self, "_kernel", np.concatenate(([1.0], self.coeffs)))

    def lag(self, burn_in):
        return len(self.coeffs)

    def innovations(self, rng, *shape):
        return self.law.sample(rng, *shape)

    def transform(self, xi, n):
        return _filter(xi[..., 0], self._kernel, n)

    def dependence(self, mean_abs, nominal_rate):
        """Geometric at the nominal rate, with the smallest constant that
        covers theta(tau) for tau <= q (theta is zero beyond the order q)."""
        q = len(self.coeffs)
        if self.law.kind == "gaussian":
            # the coupled difference is N(0, 2 s^2 sum_{k>=tau} kernel_k^2)
            tails = np.array([np.sum(self._kernel[t:] ** 2) for t in range(1, q + 1)])
            thetas = np.sqrt(2.0 / np.pi) * np.sqrt(2.0 * (self.law.scale ** 2) * tails)
            c = Moment(float(np.max(thetas / nominal_rate ** np.arange(1, q + 1))),
                       0.0, "analytic")
        else:
            # crude but valid: theta(tau) <= 2 E||Z_0|| for every tau
            m = mean_abs()
            c = Moment(2 * m.value / nominal_rate ** q,
                       2 * m.std_error / nominal_rate ** q, m.provenance)
        return _symmetric("geometric", c, nominal_rate)

    def analytic_moment(self, order):
        if self.law.kind != "gaussian":
            return None
        return _gaussian_moment(float(self.law.scale ** 2 * np.sum(self._kernel ** 2)),
                                order)

    def gaussian_ma(self):
        return (self._kernel, self.law.scale) if self.law.kind == "gaussian" else None

    def spec(self):
        return {"coeffs": list(self.coeffs), "innovation": _law_to_spec(self.law)}

    @classmethod
    def from_spec(cls, spec):
        coeffs, = _fields(spec, ("coeffs",), ("innovation",))
        return cls(tuple(coeffs), _law_from_spec(spec.get("innovation", {})))


@dataclass(frozen=True)
class VAR1Process:
    """First order autoregression Z_t = s_t A Z_{t-1} + eta_t.

    The i.i.d. scalar multipliers s_t (scale_law, or identically 1 when None)
    make the coefficient matrix time varying; stationarity requires
    E|s_0| * |||A|||_2 < 1.  The recursion starts at Z = 0.
    """

    a_base: np.ndarray
    noise: InnovationLaw
    scale_law: InnovationLaw = None
    burn_in = 500
    kind = "var1"

    def __post_init__(self):
        a = np.asarray(self.a_base, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("a_base must be a square matrix")
        object.__setattr__(self, "a_base", a)
        if self.noise.dim != a.shape[0]:
            raise ValueError("noise dimension must match a_base")
        if self.scale_law is not None and self.scale_law.dim != 1:
            raise ValueError("scale_law must be scalar")
        if self.mean_coeff_norm() >= 1.0:
            raise ValueError("expected coefficient norm E|s| * |||A|||_2 must be < 1")

    def mean_coeff_norm(self):
        spec = float(np.linalg.norm(self.a_base, 2))
        if self.scale_law is None:
            return spec
        m1 = self.scale_law.norm_power_moment(1)
        if m1 is None:
            raise ValueError("scale_law must have a closed-form mean absolute value")
        return float(m1) * spec

    @property
    def dim(self):
        return self.noise.dim

    def lag(self, burn_in):
        return burn_in

    def innovations(self, rng, *shape):
        """eta_t in the first dim coordinates, the multiplier s_t last."""
        eta = self.noise.sample(rng, *shape)
        if self.scale_law is None:
            s = np.ones(tuple(shape) + (1,))
        else:
            s = self.scale_law.sample(rng, *shape)
        return np.concatenate([eta, s], axis=-1)

    def transform(self, xi, n):
        d, steps = self.dim, xi.shape[-2]
        out = np.empty(xi.shape[:-2] + (n, d))
        z = np.zeros(xi.shape[:-2] + (d,))
        for t in range(steps):
            # z A^T by columns: a matmul's rounding depends on the row count
            za = sum(z[..., k, None] * self.a_base[:, k] for k in range(d))
            z = xi[..., t, d:] * za + xi[..., t, :d]
            if t >= steps - n:
                out[..., t - steps + n, :] = z
        return out

    def dependence(self, mean_abs, nominal_rate):
        """Geometric at rate E|s| |||A|||_2."""
        return _geometric(mean_abs(), self.mean_coeff_norm(), nominal_rate)

    def analytic_moment(self, order):
        if self.scale_law is not None or order != 2:
            return None
        # vec stationary covariance: S = A S A^T + Cov(eta)
        d = self.noise.dim
        cov_eta = np.eye(d) * (self.noise.norm_power_moment(2) / d)
        m = np.eye(d * d) - np.kron(self.a_base, self.a_base)
        s = np.linalg.solve(m, cov_eta.reshape(-1)).reshape(d, d)
        return Moment(float(np.trace(s)), 0.0, "analytic")

    def gaussian_ma(self):
        return None

    def spec(self):
        out = {"a": self.a_base.tolist(), "innovation": _law_to_spec(self.noise)}
        if self.scale_law is not None:
            out["scale_innovation"] = _law_to_spec(self.scale_law)
        return out

    @classmethod
    def from_spec(cls, spec):
        a, = _fields(spec, ("a",), ("innovation", "scale_innovation"))
        scale_law = (_law_from_spec(spec["scale_innovation"])
                     if "scale_innovation" in spec else None)
        return cls(np.asarray(a, dtype=float),
                   _law_from_spec(spec.get("innovation", {"dim": len(a)})), scale_law)


@dataclass(frozen=True)
class GARCHProcess:
    """GARCH(1,1): r_t = sigma_t eps_t, sigma_t^2 = omega + alpha r_{t-1}^2 + beta sigma_{t-1}^2.

    eps_t are standard normal.  representation "returns" exposes the scalar
    path r_t; "squared" exposes the two dimensional state (r_t^2, sigma_t^2)
    whose companion-matrix form makes the geometric dependence rate
    alpha + beta explicit.  The recursion starts at the stationary variance.
    """

    omega: float
    alpha: float
    beta: float
    representation: str = "returns"
    burn_in = 500
    kind = "garch11"

    def __post_init__(self):
        if self.omega < 0 or self.alpha < 0 or self.beta < 0:
            raise ValueError("omega, alpha, beta must be >= 0")
        if self.alpha + self.beta >= 1.0:
            raise ValueError("alpha + beta must be < 1 for second order stationarity")
        if self.representation not in ("returns", "squared"):
            raise ValueError("representation must be 'returns' or 'squared'")

    @property
    def stationary_variance(self):
        return self.omega / (1.0 - self.alpha - self.beta)

    @property
    def dim(self):
        return 2 if self.representation == "squared" else 1

    def lag(self, burn_in):
        return burn_in

    def innovations(self, rng, *shape):
        return rng.standard_normal(tuple(shape) + (1,))

    def transform(self, xi, n):
        eps = xi[..., 0]
        steps = eps.shape[-1]
        s2 = np.full(eps.shape[:-1], self.stationary_variance)
        r2 = s2
        kept = np.empty(eps.shape[:-1] + (n,))  # the last n variances only
        for t in range(steps):
            s2 = self.omega + self.alpha * r2 + self.beta * s2
            r2 = s2 * eps[..., t] ** 2
            if t >= steps - n:
                kept[..., t - steps + n] = s2
        r = np.sqrt(kept) * eps[..., steps - n:]
        if self.representation == "squared":
            return np.stack([r ** 2, kept], axis=-1)
        return r[..., None]

    def dependence(self, mean_abs, nominal_rate):
        """Geometric at rate alpha + beta (the companion form's)."""
        return _geometric(mean_abs(), self.alpha + self.beta, nominal_rate)

    def analytic_moment(self, order):
        if order == 2 and self.representation == "returns":
            # E[r^2] = E[sigma^2] = stationary variance
            return Moment(self.stationary_variance, 0.0, "analytic")
        return None

    def gaussian_ma(self):
        return None

    def spec(self):
        return {"omega": self.omega, "alpha": self.alpha, "beta": self.beta,
                "representation": self.representation}

    @classmethod
    def from_spec(cls, spec):
        omega, alpha, beta = _fields(spec, ("omega", "alpha", "beta"),
                                     ("representation",))
        return cls(float(omega), float(alpha), float(beta),
                   spec.get("representation", "returns"))


@dataclass(frozen=True)
class ARFIMAProcess:
    """Fractionally integrated noise via its truncated MA(inf) representation.

    Z_t = sum_{k=0}^{trunc} phi_k eps_{t-k} with phi_k = Gamma(k+d) /
    (Gamma(k+1) Gamma(d)) and standard normal innovations.  The neglected
    tail carries an O(trunc^(d - 1/2)) error.
    """

    d_frac: float
    trunc: int = 10_000
    dim = 1
    kind = "arfima"

    def __post_init__(self):
        if not -0.5 < self.d_frac < 0.5:
            raise ValueError("d_frac must lie in (-1/2, 1/2)")
        if self.trunc < 1:
            raise ValueError("trunc must be >= 1")
        # phi_0..phi_trunc once; transform takes the prefix its lag needs
        object.__setattr__(self, "_phi", arfima_coefficients(self.d_frac, self.trunc))

    @property
    def burn_in(self):
        return self.trunc

    def lag(self, burn_in):
        """Truncation order: burn_in capped at trunc, 0 selecting trunc."""
        return min(burn_in, self.trunc) if burn_in > 0 else self.trunc

    def innovations(self, rng, *shape):
        return rng.standard_normal(tuple(shape) + (1,))

    def transform(self, xi, n):
        # the innovations before the n values set the truncation order
        return _filter(xi[..., 0], self._phi[:xi.shape[-2] - n + 1], n)

    def dependence(self, mean_abs, nominal_rate):
        """Algebraic with exponent 1/2 - d_frac and an analytic constant."""
        alpha = 0.5 - self.d_frac
        tail_sq = np.cumsum(self._phi[::-1] ** 2)[::-1]  # sum_{k>=t} phi_k^2
        taus = np.arange(1, self.trunc + 1, dtype=float)
        theta = 2.0 / np.sqrt(np.pi) * np.sqrt(tail_sq[1:])
        c = Moment(float(np.max(theta * taus ** alpha)), 0.0, "analytic")
        return _symmetric("algebraic", c, alpha)

    def analytic_moment(self, order):
        return _gaussian_moment(float(np.sum(self._phi ** 2)), order)

    def gaussian_ma(self):
        return self._phi, 1.0

    def spec(self):
        return {"d": self.d_frac, "trunc": self.trunc}

    @classmethod
    def from_spec(cls, spec):
        d, = _fields(spec, ("d",), ("trunc",))
        return cls(float(d), int(spec.get("trunc", 10_000)))


def _symmetric(regime, c, rate, exact_zero=False):
    """A profile whose z- and y-roles are the same envelope c, rate."""
    return DependenceProfile(regime=regime, c_z=c, rate_z=rate, c_y=c, rate_y=rate,
                             exact_zero_z=exact_zero, exact_zero_y=exact_zero)


def _geometric(mean_abs, lam, nominal_rate):
    """Geometric envelope 2 E||Z_0|| lam^tau; lam = 0 means independent
    and is reported at the nominal rate with the exact-zero flags set."""
    c = Moment(2 * mean_abs.value, 2 * mean_abs.std_error, mean_abs.provenance)
    if lam <= 0.0:
        return _symmetric("geometric", c, nominal_rate, exact_zero=True)
    return _symmetric("geometric", c, lam)


def _gaussian_moment(var, order):
    """E|Z|^order (order 1 or 2) of a centred scalar Gaussian of variance var."""
    if order == 2:
        return Moment(var, 0.0, "analytic")
    return Moment(float(np.sqrt(2 * var / np.pi)), 0.0, "analytic")


def arfima_coefficients(d_frac, count):
    """First `count`+1 moving average coefficients phi_0..phi_count.

    Computed by the ratio recursion phi_k = phi_{k-1} (k - 1 + d) / k, which
    is exact and avoids gamma overflow.
    """
    phi = np.empty(count + 1)
    phi[0] = 1.0
    for k in range(1, count + 1):
        phi[k] = phi[k - 1] * (k - 1 + d_frac) / k
    return phi


def _filter(x, kernel, n):
    """Last n values of the causal filter sum_k kernel[k] x_{t-k}, shape
    x.shape[:-1] + (n, 1), for x with time on its last axis and at least
    len(kernel) - 1 values before the n kept ones.

    One value is a dot product with the last len(kernel) entries.  Paths
    take one circular FFT convolution of length >= x.shape[-1], exact on
    every output past the first len(kernel) - 1 (only those wrap around).
    Memory is O(output + x), as the drivers pass blocks of about
    _CHUNK_FLOATS floats; a row's values do not depend on its block.
    """
    steps = x.shape[-1]
    if n == 1:
        return (x[..., steps - kernel.size:] @ kernel[::-1])[..., None, None]
    size = _next_fast_len(steps)
    spec = np.fft.rfft(x, size)
    spec *= np.fft.rfft(kernel, size)
    return np.fft.irfft(spec, size)[..., steps - n:steps, None]


def _next_fast_len(n):
    """Smallest 5-smooth integer 2^a 3^b 5^c >= n (n >= 1), the length
    scipy.fft.next_fast_len(n, real=True) picks for a real transform."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^k >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _lag(model, burn_in):
    if burn_in is None:
        burn_in = model.burn_in
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    return model.lag(burn_in)


def generate_path(model, n, burn_in=None, seed=0):
    """Simulate a length-n path, shape (n, d), deterministic per seed.

    The same draw as path 0 of batch_paths(model, 1, n, burn_in, seed).
    """
    return batch_paths(model, 1, n, burn_in, seed)[0]


def batch_paths(model, n_paths, n, burn_in=None, seed=0):
    """n_paths independent length-n paths at once, shape (n_paths, n, d).

    One rng stream per call draws model.lag(burn_in) + n innovations per
    path, in row chunks of about _CHUNK_FLOATS floats, each transformed into
    the result: memory is O(output + chunk).  Rows of a model that draws its
    innovations in one call (all but VAR1 with a scale_law) do not depend on
    the chunk size.  burn_in: steps discarded by the recursions (VAR1,
    GARCH); ARFIMA's truncation order, capped at model.trunc (0 selects
    model.trunc).  None selects model.burn_in.
    """
    if n_paths < 1 or n < 1:
        raise ValueError("n_paths and n must be >= 1")
    rng = np.random.default_rng(seed)
    steps = _lag(model, burn_in) + n
    chunk = max(1, _CHUNK_FLOATS // steps)
    out = np.empty((n_paths, n, model.dim))
    for block in np.split(out, range(chunk, n_paths, chunk)):
        block[:] = model.transform(model.innovations(rng, len(block), steps), n)
    return out


# ---------------------------------------------------------------------------
# theta estimation
# ---------------------------------------------------------------------------


def _mc_mean(draw, values, n_mc, seed):
    """Mean and standard error of values(xi) over n_mc trials.

    One rng = default_rng(seed) serves the whole estimate: trial i is the
    i-th consecutive draw(rng), one complete draw per trial in stream order,
    so its value does not depend on chunking.  Trials are written along the
    leading axis of one buffer of about _CHUNK_FLOATS innovation floats,
    chunk by chunk, and the n_mc values are reduced once, so neither does
    the estimate.
    """
    rng = np.random.default_rng(seed)
    first = draw(rng)  # trial 0, which also sizes the chunk buffer
    size = min(n_mc, max(1, _CHUNK_FLOATS // first.size))
    buf = np.empty((size,) + first.shape)
    buf[0] = first
    vals = np.empty(n_mc)
    for lo in range(0, n_mc, size):
        hi = min(n_mc, lo + size)
        for i in range(max(lo, 1), hi):
            buf[i - lo] = draw(rng)
        vals[lo:hi] = values(buf[:hi - lo])
    return Moment(float(vals.mean()), float(vals.std() / np.sqrt(n_mc)), "mc")


def estimate_theta(model, tau, n_mc=10_000, history=None, seed=0):
    """Monte Carlo estimate of the coupling coefficient theta(tau).

    One rng = default_rng(seed) serves all n_mc trials; trial i takes the
    i-th consecutive draw of two histories of
    L = model.lag(history) + 1 innovations at times -L+1 .. 0 (history
    defaults to max(200, 10 tau)).  The second keeps its own draws at times
    <= -tau and takes the first's at the tau times after; one transform of
    both gives the coupled pair, so the truncation bias is shared.

    Returns a Moment with provenance "mc", or "exact-zero" when the coupling
    provably has no effect because no innovation at a time <= -tau is in
    the history (model.lag(history) < tau: IID always, finite MA beyond its
    order, ARFIMA beyond its truncation).
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if n_mc < 2:
        raise ValueError("n_mc must be >= 2")
    if history is None:
        history = max(200, 10 * tau)
    if history < tau:
        raise ValueError("history must be >= tau")
    steps = model.lag(history) + 1
    if steps <= tau:
        return Moment(0.0, 0.0, "exact-zero")

    def values(xi):
        # the second history takes the first's last tau innovations; the
        # reshape then puts each trial's (original, coupled) rows in a row
        xi[:, 2 * steps - tau:] = xi[:, steps - tau:steps]
        z = model.transform(xi.reshape(2 * len(xi), steps, -1), 1)[:, 0]
        return np.linalg.norm(z[0::2] - z[1::2], axis=-1)

    return _mc_mean(lambda rng: model.innovations(rng, 2 * steps), values, n_mc, seed)


# ---------------------------------------------------------------------------
# dependence profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DependenceProfile:
    """Decay envelopes theta^I(tau) for the input (z) and target (y) roles.

    regime "geometric": theta^I(tau) <= c_I * rate_I^tau, rate in (0, 1).
    regime "algebraic": theta^I(tau) <= c_I * tau^(-rate_I), rate > 0.
    regime "lipschitz": additionally carries the functional-Lipschitz data
    (l_I, w_I, innovation moments) from which a geometric envelope with
    c_I = 2 l_I E||xi^I|| / (1 - d_w) and rate d_w is derived.

    A profile built from a single process fills both roles identically; use
    combine_profiles to pair an input process with a target process.
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
            if v is not None and not 0 <= v < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name, m in (("xi_mean_abs_z", self.xi_mean_abs_z),
                        ("xi_mean_abs_y", self.xi_mean_abs_y)):
            if m is not None and m.value < 0:
                raise ValueError(f"{name} must be >= 0")

    def theta_envelope(self, which, tau):
        """Envelope value for theta^which(tau), which in {'z', 'y'}."""
        tau = np.asarray(tau, dtype=float)
        if which == "z":
            c, rate, zero = self.c_z.value, self.rate_z, self.exact_zero_z
        elif which == "y":
            c, rate, zero = self.c_y.value, self.rate_y, self.exact_zero_y
        else:
            raise ValueError("which must be 'z' or 'y'")
        if zero:
            return np.zeros_like(tau)
        if self.regime == "algebraic":
            return c * tau ** (-rate)
        return c * rate ** tau


def _mean_abs_z0(model, n_mc, seed):
    analytic = analytic_moment(model, 1)
    if analytic is not None:
        return analytic
    return moment(model, 1, n_mc=n_mc, seed=seed)


def dependence_params(model, n_mc=20_000, seed=0, nominal_rate=0.5):
    """Analytic dependence profile of a built-in model, model.dependence.

    Envelope constants requiring E||Z_0||_2 are Monte Carlo estimated
    (provenance "mc", n_mc trials at seed) when no closed form exists.
    """
    return model.dependence(lambda: _mean_abs_z0(model, n_mc, seed), nominal_rate)


def combine_profiles(z_profile, y_profile):
    """Joint profile: z-role from z_profile, y-role from y_profile.

    The two profiles must share a regime (the bound chains require both
    processes under the same assumption).
    """
    if z_profile.regime != y_profile.regime:
        raise ValueError("profiles must share a regime to be combined")
    p, q = z_profile, y_profile
    return DependenceProfile(
        regime=p.regime, c_z=p.c_z, rate_z=p.rate_z, c_y=q.c_y, rate_y=q.rate_y,
        exact_zero_z=p.exact_zero_z, exact_zero_y=q.exact_zero_y,
        l_z=p.l_z, l_y=q.l_y, w_z=p.w_z, w_y=q.w_y,
        xi_mean_abs_z=p.xi_mean_abs_z, xi_mean_abs_y=q.xi_mean_abs_y,
        xi_second_z=p.xi_second_z, xi_second_y=q.xi_second_y,
        xi_bound_z=p.xi_bound_z, xi_bound_y=q.xi_bound_y,
        xi_law_z=p.xi_law_z, xi_law_y=q.xi_law_y)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def analytic_moment(model, order):
    """Closed-form E||Z_0||_2^order when available, else None."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    return model.analytic_moment(order)


def moment(model, order, n_mc=10_000, seed=0, burn_in=None):
    """Monte Carlo E||Z_0||_2^order over independent stationary draws.

    Trial i is the last value of batch_paths(model, 1, 1, burn_in, rng),
    with one rng = default_rng(seed) shared by the n_mc trials in order.
    Returns a Moment with provenance "mc" and the standard error of the
    mean.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if n_mc < 2:
        raise ValueError("n_mc must be >= 2")
    steps = _lag(model, burn_in) + 1

    def values(xi):
        return np.linalg.norm(model.transform(xi, 1)[:, 0], axis=-1) ** order

    return _mc_mean(lambda rng: model.innovations(rng, steps), values, n_mc, seed)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaFit:
    """Least-squares fit of a decay envelope to estimated theta values."""

    c: float
    rate: float
    exact_zero: bool
    n_used: int


def fit_theta_decay(theta_values, regime):
    """Fit log theta against tau (geometric) or log tau (algebraic).

    theta_values: iterable of (tau, theta) with theta a float or a Moment.
    Exact zeros are excluded from the fit; if every value is zero the result
    is flagged exact_zero (the process is exactly independent at the probed
    lags).
    """
    if regime not in ("geometric", "algebraic"):
        raise ValueError("regime must be 'geometric' or 'algebraic'")
    taus = []
    vals = []
    for tau, th in theta_values:
        v = th.value if isinstance(th, Moment) else float(th)
        if v < 0:
            raise ValueError("theta values must be >= 0")
        if v > 0:
            taus.append(float(tau))
            vals.append(v)
    if not vals:
        return ThetaFit(c=0.0, rate=0.0, exact_zero=True, n_used=0)
    if len(vals) < 3:
        raise ValueError("need at least 3 positive theta values to fit")
    taus = np.asarray(taus)
    logv = np.log(vals)
    x = taus if regime == "geometric" else np.log(taus)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, logv, rcond=None)
    if regime == "geometric":
        return ThetaFit(c=float(np.exp(coef[0])), rate=float(np.exp(coef[1])),
                        exact_zero=False, n_used=len(vals))
    return ThetaFit(c=float(np.exp(coef[0])), rate=float(-coef[1]),
                    exact_zero=False, n_used=len(vals))


# ---------------------------------------------------------------------------
# JSON specs (CLI plumbing)
# ---------------------------------------------------------------------------

_LAW_KEYS = {"kind", "dim", "scale"}


def _law_from_spec(spec):
    if not isinstance(spec, dict):
        raise ValueError("innovation spec must be an object")
    unknown = set(spec) - _LAW_KEYS
    if unknown:
        raise ValueError(f"unknown innovation keys: {sorted(unknown)}")
    return InnovationLaw(kind=spec.get("kind", "gaussian"),
                         dim=int(spec.get("dim", 1)),
                         scale=float(spec.get("scale", 1.0)))


def model_from_spec(spec):
    """Build a process model from a JSON-style dict; unknown keys rejected."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("process spec must be an object with a 'kind'")
    for model in _MODELS:
        if model.kind == spec["kind"]:
            return model.from_spec(spec)
    raise ValueError(f"unknown process kind {spec['kind']!r}")


def model_to_spec(model):
    """Inverse of model_from_spec (matrices as nested lists)."""
    return {"kind": model.kind, **model.spec()}


def _law_to_spec(law):
    return {"kind": law.kind, "dim": law.dim, "scale": law.scale}


def _fields(spec, required, optional):
    """Values of a process spec's required keys, in order; an unknown or a
    missing key raises ValueError naming it."""
    unknown = set(spec) - {"kind", *required, *optional}
    if unknown:
        raise ValueError(f"unknown keys in process spec: {sorted(unknown)}")
    for key in required:
        if key not in spec:
            raise ValueError(f"missing key {key!r} in {spec['kind']} process spec")
    return [spec[key] for key in required]


_MODELS = (IIDProcess, MAProcess, VAR1Process, GARCHProcess, ARFIMAProcess)
