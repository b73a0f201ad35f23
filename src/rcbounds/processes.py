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

Three generic drivers use these members.  batch_paths simulates paths in
row chunks of about _CHUNK_FLOATS innovation floats; moment E||Z_0||^order
and estimate_theta the coupling coefficient

    theta(tau) = E|| G(..., xi_{-1}, xi_0)
                    - G(..., xi~_{-tau-1}, xi~_{-tau}, xi_{-tau+1}, ..., xi_0) ||_2

(innovations at times <= -tau replaced by an independent copy) are Monte
Carlo means over blocks of trials, block j drawn from the j-th spawned
child of SeedSequence(seed), the blocks shared among the usable CPUs
(_mc_mean): an estimate depends on its arguments alone.  estimate_theta
draws nothing where no innovation at a time <= -tau is in the history
("exact-zero") or where the model has a Gaussian moving-average form
(gaussian_ma, below): there theta(tau) is exact ("analytic"), from the
same _gaussian_theta that the ARFIMA and Gaussian MA envelopes use.

Each model also states its closed forms once: dependence(mean_abs,
nominal_rate), its decay envelope theta(tau) <= C * lambda^tau or
C * tau^(-alpha) as a DependenceProfile (mean_abs() gives E||Z_0||_2 where
C needs it); analytic_moment(order), E||Z_0||_2^order or None;
gaussian_ma(), its Gaussian moving-average form (kernel phi_0..phi_K,
scale s) with Z_t = sum_k phi_k xi_{t-k} and xi i.i.d. N(0, s^2 I), or
None; and kind, the name of its JSON spec, whose other keys are its fields
(rcbounds.specs).
dependence_params, analytic_moment, model_to_spec and model_from_spec are
generic over these members.  The value types the models report (Moment,
WeightingSequence, InnovationLaw, DependenceProfile) live in the numpy-free
rcbounds.dependence and are re-exported here.
"""

import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dependence import DependenceProfile, InnovationLaw, Moment, WeightingSequence
from .bounds import _Settings
from .specs import _pick, to_spec

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
# The Monte Carlo means keep no more than this many in flight at once.
_CHUNK_FLOATS = 2_000_000
# Trials and innovation floats per Monte Carlo block, one stream each; 2 MB
# blocks, as 8 MB ones raised two threads' peak RSS on the theta benchmark
# by about 10 MB.  The streamed pools of stationary pairs (learning,
# validation) take blocks of as many input floats.
_MC_BLOCK = 256
_MC_FLOATS = 1 << 18
# Steps per time tile of the GARCH recursion: the time loop squares one
# tile of innovations at a time, and the closed-form last variance takes
# one tile of products at a time.
_GARCH_TILE = 64
# dependence_params defaults: Monte Carlo draws for E||Z_0|| and the rate
# reported for exactly independent processes
_PROFILE_MC = 20_000
_NOMINAL_RATE = 0.5


# ---------------------------------------------------------------------------
# process models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IIDProcess:
    """Z_t = xi_t with i.i.d. innovations."""

    law: InnovationLaw = field(default=InnovationLaw(),
                               metadata={"key": "innovation"})
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


@dataclass(frozen=True)
class MAProcess:
    """Finite moving average Z_t = xi_t + sum_j coeffs[j] xi_{t-1-j}, scalar."""

    coeffs: tuple
    law: InnovationLaw = field(default=InnovationLaw(),
                               metadata={"key": "innovation"})
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
            thetas = _gaussian_theta(self._kernel, self.law.scale)[1:]
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


@dataclass(frozen=True)
class VAR1Process:
    """First order autoregression Z_t = s_t A Z_{t-1} + eta_t.

    The i.i.d. scalar multipliers s_t (scale_law, or identically 1 when None)
    make the coefficient matrix time varying; stationarity requires
    E|s_0| * |||A|||_2 < 1.  noise defaults to standard Gaussian eta_t of
    the matrix's dimension.  The recursion starts at Z = 0.  a_base is kept
    as a tuple of rows, so models of equal matrices compare and hash equal.
    """

    a_base: tuple = field(metadata={"key": "a"})
    noise: InnovationLaw = field(default=None, metadata={"key": "innovation"})
    scale_law: InnovationLaw = field(default=None,
                                     metadata={"key": "scale_innovation"})
    burn_in = 500
    kind = "var1"

    def __post_init__(self):
        a = np.array(self.a_base, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("a_base must be a square matrix")
        object.__setattr__(self, "a_base", tuple(map(tuple, a.tolist())))
        object.__setattr__(self, "_a", a)
        if self.noise is None:
            object.__setattr__(self, "noise", InnovationLaw(dim=a.shape[0]))
        if self.noise.dim != a.shape[0]:
            raise ValueError("noise dimension must match a_base")
        if self.scale_law is not None and self.scale_law.dim != 1:
            raise ValueError("scale_law must be scalar")
        if self.mean_coeff_norm() >= 1.0:
            raise ValueError("expected coefficient norm E|s| * |||A|||_2 must be < 1")

    def mean_coeff_norm(self):
        spec = float(np.linalg.norm(self._a, 2))
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
            za = sum(z[..., k, None] * self._a[:, k] for k in range(d))
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
        # the stationary covariance S = A S A^T + Cov(eta)
        d = self.noise.dim
        cov_eta = np.eye(d) * (self.noise.norm_power_moment(2) / d)
        s = _lyapunov_sum(self._a, cov_eta)
        return Moment(float(np.trace(s)), 0.0, "analytic")

    def gaussian_ma(self):
        return None


@dataclass(frozen=True)
class GARCHProcess:
    """GARCH(1,1): r_t = sigma_t eps_t, sigma_t^2 = omega + alpha r_{t-1}^2 + beta sigma_{t-1}^2.

    eps_t are standard normal.  representation "returns" exposes the scalar
    path r_t; "squared" exposes the two dimensional state (r_t^2, sigma_t^2)
    whose companion-matrix form makes the geometric dependence rate
    alpha + beta explicit.  The recursion starts at the stationary variance.

    Paths (n > 1) step through time, squaring one _GARCH_TILE tile of
    innovations at a time; a closed form for every step would divide by
    products that underflow.  A one-step transform (estimate_theta, moment)
    takes the last variance in closed form, one tile of products at a time.
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
        kept = self._last_variance(eps) if n == 1 else self._variances(eps, n)
        r = np.sqrt(kept) * eps[..., steps - n:]
        if self.representation == "squared":
            return np.stack([r ** 2, kept], axis=-1)
        return r[..., None]

    def _variances(self, eps, n):
        """The last n variances of the time loop, shape eps.shape[:-1] + (n,)."""
        steps, batch = eps.shape[-1], eps.shape[:-1]
        s2 = np.full(batch, self.stationary_variance)
        r2 = s2.copy()
        kept = np.empty((n,) + batch)  # the last n variances, time-major
        sq = np.empty((min(steps, _GARCH_TILE),) + batch)
        for lo in range(0, steps, _GARCH_TILE):
            # eps^2 of one tile of steps, time-major and contiguous
            tile = sq[:min(steps - lo, _GARCH_TILE)]
            np.square(np.moveaxis(eps[..., lo:lo + len(tile)], -1, 0), out=tile)
            for t, eps2 in enumerate(tile, lo):
                # s2 = (omega + alpha r2) + beta s2, then r2 = s2 eps^2
                r2 *= self.alpha
                r2 += self.omega
                s2 *= self.beta
                s2 += r2
                np.multiply(s2, eps2, out=r2)
                if t >= steps - n:
                    kept[t - steps + n] = s2
        return np.moveaxis(kept, 0, -1)

    def _last_variance(self, eps):
        """The time loop's last variance, shape eps.shape[:-1] + (1,).

        With a_t = alpha eps_t^2 + beta, the loop's s2_t = omega + a_{t-1}
        s2_{t-1} unrolls over S steps to s2_{S-1} = omega (c_0 + ... +
        c_{S-2}) + c_{S-1} s2_0, c_k the product of the last k of a_0 ..
        a_{S-2} (c_0 = 1).  The c_k are taken backwards in time, one tile
        of _GARCH_TILE steps at a time, each row carrying its running
        product and sum.  One step gives s2_0 itself, alpha = beta = 0
        gives omega exactly.
        """
        steps, batch = eps.shape[-1], eps.shape[:-1]
        total, prod = np.zeros(batch + (1,)), np.ones(batch + (1,))
        buf = np.empty(batch + (min(steps - 1, _GARCH_TILE),))
        for hi in range(steps - 1, 0, -_GARCH_TILE):
            lo = max(hi - _GARCH_TILE, 0)
            # with prod = c_k, the products of the tile's w = hi - lo a's,
            # latest first, are c_{k+1} / c_k .. c_{k+w} / c_k; the sum
            # takes c_k .. c_{k+w-1}, and c_{k+w} is the next tile's prod
            c = buf[..., :hi - lo]
            np.square(eps[..., lo:hi][..., ::-1], out=c)
            c *= self.alpha
            c += self.beta
            np.multiply.accumulate(c, axis=-1, out=c)
            total += prod * (1.0 + np.sum(c[..., :-1], axis=-1, keepdims=True))
            prod *= c[..., -1:]
        # s2_0: the time loop's first step from the stationary variance
        v = self.stationary_variance
        return self.omega * total + prod * (self.beta * v + (self.alpha * v + self.omega))

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


@dataclass(frozen=True)
class ARFIMAProcess:
    """Fractionally integrated noise via its truncated MA(inf) representation.

    Z_t = sum_{k=0}^{trunc} phi_k eps_{t-k} with phi_k = Gamma(k+d) /
    (Gamma(k+1) Gamma(d)) and standard normal innovations.  The neglected
    tail carries an O(trunc^(d - 1/2)) error.
    """

    d_frac: float = field(metadata={"key": "d"})
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
        taus = np.arange(1, self.trunc + 1, dtype=float)
        theta = _gaussian_theta(self._phi, 1.0)[1:]
        c = Moment(float(np.max(theta * taus ** alpha)), 0.0, "analytic")
        return _symmetric("algebraic", c, alpha)

    def analytic_moment(self, order):
        return _gaussian_moment(float(np.sum(self._phi ** 2)), order)

    def gaussian_ma(self):
        return self._phi, 1.0


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


def _gaussian_theta(kernel, scale):
    """theta(tau) at tau = 0, 1, ..., len(kernel) - 1 of the Gaussian moving
    average Z_t = sum_k kernel_k xi_{t-k}, xi i.i.d. N(0, scale^2): the
    coupled difference is N(0, 2 scale^2 sum_{k>=tau} kernel_k^2), so
    theta(tau) = (2/sqrt(pi)) scale sqrt(sum_{k>=tau} kernel_k^2)."""
    tail_sq = np.cumsum(kernel[::-1] ** 2)[::-1]  # sum_{k>=tau} kernel_k^2
    return 2.0 / np.sqrt(np.pi) * scale * np.sqrt(tail_sq)


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
    _CHUNK_FLOATS floats; a row's values do not depend on its block.  The
    result is a copy of the n kept values, so the (rows, size) inverse
    transform is freed on return rather than held by a view.
    """
    steps = x.shape[-1]
    if n == 1:
        return (x[..., steps - kernel.size:] @ kernel[::-1])[..., None, None]
    size = _next_fast_len(steps)
    spec = np.fft.rfft(x, size)
    spec *= np.fft.rfft(kernel, size)
    return np.fft.irfft(spec, size)[..., steps - n:steps, None].copy()


def _lyapunov_sum(a, q):
    """X = sum_{j>=0} A^j Q A^jT, the solution of X = A X A^T + Q, by
    squared doubling: X <- X + A_k X A_k^T, A_k <- A_k^2 sums the first
    2^(k+1) terms after k squarings, until a step leaves X unchanged.
    Raises ValueError when that takes more than 64 squarings."""
    x = q
    for _ in range(64):
        nxt = x + a @ x @ a.T
        if np.array_equal(nxt, x):
            return x
        x, a = nxt, a @ a
    raise ValueError("the Lyapunov sum did not converge in 64 squarings")


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
    out = np.empty((n_paths, n, model.dim))
    lo = 0
    for block in _path_blocks(model, n_paths, n, n_paths, burn_in, seed):
        out[lo:lo + len(block)] = block
        lo += len(block)
    return out


def _path_blocks(model, n_paths, n, rows, burn_in=None, seed=0):
    """The paths of batch_paths(model, n_paths, n, burn_in, seed) as
    consecutive blocks of at most rows paths, and of at most one chunk of
    _CHUNK_FLOATS innovation floats: the chunk loop of batch_paths, which
    keeps no block.  The blocks concatenate to batch_paths' rows for every
    model that draws its innovations in one call (all but VAR1 with a
    scale_law).  Arguments are checked at the call, and each block is drawn
    when it is taken."""
    if n_paths < 1 or n < 1:
        raise ValueError("n_paths and n must be >= 1")
    rng = np.random.default_rng(seed)
    steps = _lag(model, burn_in) + n
    rows = max(1, min(rows, _CHUNK_FLOATS // steps))
    return (model.transform(model.innovations(rng, min(rows, n_paths - lo),
                                              steps), n)
            for lo in range(0, n_paths, rows))


# ---------------------------------------------------------------------------
# theta estimation
# ---------------------------------------------------------------------------


def _usable_cpus():
    """CPUs this process may run on (its affinity mask where the platform
    reports one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _std_error(vals):
    """Standard errors of the Monte Carlo means along the last axis of vals:
    the sample standard deviation (ddof 1) over sqrt(n); 0 at n = 1."""
    n = vals.shape[-1]
    if n < 2:
        return np.zeros(vals.shape[:-1])
    return vals.std(axis=-1, ddof=1) / math.sqrt(n)


def _mc_mean(draw, values, n_mc, seed):
    """Mean and standard error of values(draw(rng, count)) over n_mc trials.

    draw(rng, count) gives the innovations of count trials along its
    leading axis and values maps them to the count trial values.  The
    trials are cut into consecutive blocks of at most _MC_BLOCK trials and
    _MC_FLOATS innovation floats, a size set by one trial's floats alone;
    block j draws once from its own stream,
    Generator(PCG64(SeedSequence(seed).spawn(n_blocks)[j])).  Blocks run
    on up to _usable_cpus() threads, no more than _CHUNK_FLOATS innovation
    floats in flight; each writes its values to its own slice and the n_mc
    values are reduced once, so the estimate depends on neither the thread
    count nor _CHUNK_FLOATS.
    """
    root = np.random.SeedSequence(seed)
    # a draw of no trial gives the shape, and so the floats, of one trial
    trial = math.prod(draw(np.random.Generator(np.random.PCG64(root)), 0).shape[1:])
    size = max(1, min(_MC_BLOCK, _MC_FLOATS // trial))
    starts = range(0, n_mc, size)
    streams = root.spawn(len(starts))
    vals = np.empty(n_mc)

    def block(lo, stream):
        count = min(size, n_mc - lo)
        rng = np.random.Generator(np.random.PCG64(stream))
        vals[lo:lo + count] = values(draw(rng, count))

    # imported here, not at module load: about 6 ms of import time
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(
        min(_usable_cpus(), len(starts), max(1, _CHUNK_FLOATS // (size * trial))))
    try:
        # list() waits for every block and re-raises a block's error
        list(pool.map(block, starts, streams))
    finally:
        # on an error or an interrupt the blocks still queued do not run
        pool.shutdown(cancel_futures=True)
    return Moment(float(vals.mean()), float(_std_error(vals)), "mc")


def estimate_theta(model, tau, n_mc, history=None, seed=0):
    """The coupling coefficient theta(tau) over a history of L =
    model.lag(history) + 1 innovations at times -L+1 .. 0 (history defaults
    to max(200, 10 tau)).

    Returns "exact-zero" when the coupling provably has no effect because
    no innovation at a time <= -tau is in the history (L <= tau: IID
    always, finite MA beyond its order, ARFIMA beyond its truncation).  A
    model with a Gaussian moving-average form (model.gaussian_ma(): ARFIMA,
    MA with Gaussian innovations) gets its truncated value in closed form,
    _gaussian_theta of the first L kernel coefficients, with provenance
    "analytic" and no draw.  Every other model gets a Monte Carlo mean over
    n_mc trials, provenance "mc": a trial draws two histories in one
    model.innovations(rng, count, 2 L) call per block of trials (_mc_mean:
    block j of SeedSequence(seed)'s spawned streams).  The second history
    keeps its own draws at times <= -tau and takes the first's at the tau
    times after; one transform of both gives the coupled pair, so the
    truncation bias is shared.
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
    gaussian = model.gaussian_ma()
    if gaussian is not None:
        kernel, scale = gaussian
        return Moment(float(_gaussian_theta(kernel[:steps], scale)[tau]), 0.0,
                      "analytic")

    def values(xi):
        # the second history takes the first's last tau innovations; the
        # reshape then puts each trial's (original, coupled) rows in a row
        xi[:, 2 * steps - tau:] = xi[:, steps - tau:steps]
        z = model.transform(xi.reshape(2 * len(xi), steps, -1), 1)[:, 0]
        return np.linalg.norm(z[0::2] - z[1::2], axis=-1)

    return _mc_mean(lambda rng, count: model.innovations(rng, count, 2 * steps),
                    values, n_mc, seed)


# ---------------------------------------------------------------------------
# dependence profiles
# ---------------------------------------------------------------------------


def _mean_abs_z0(model, n_mc, seed):
    analytic = analytic_moment(model, 1)
    if analytic is not None:
        return analytic
    return moment(model, 1, n_mc=n_mc, seed=seed)


def dependence_params(model, n_mc=_PROFILE_MC, seed=0, nominal_rate=_NOMINAL_RATE):
    """Analytic dependence profile of a built-in model, model.dependence.

    Envelope constants requiring E||Z_0||_2 are Monte Carlo estimated
    (provenance "mc", n_mc trials at seed) when no closed form exists.
    """
    return model.dependence(lambda: _mean_abs_z0(model, n_mc, seed), nominal_rate)


@dataclass(frozen=True)
class SimulateSettings(_Settings):
    """batch_paths of n_paths paths of length n, and the dependence_params
    profile of their model from profile_mc draws at nominal_rate."""

    n: int
    n_paths: int = 1
    burn_in: int = None
    profile_mc: int = _PROFILE_MC
    nominal_rate: float = _NOMINAL_RATE


def combine_profiles(z_profile, y_profile):
    """Joint profile: the regime and z-role from z_profile, the y-role (the
    fields named *_y) from y_profile.

    The two profiles must share a regime (the bound chains require both
    processes under the same assumption).
    """
    if z_profile.regime != y_profile.regime:
        raise ValueError("profiles must share a regime to be combined")
    return replace(z_profile, **{f.name: getattr(y_profile, f.name)
                                 for f in fields(y_profile)
                                 if f.name.endswith("_y")})


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

    The trials of block j (_mc_mean) are the one-step paths of
    batch_paths(model, count, 1, burn_in, rng_j), rng_j drawing from the
    j-th spawned stream of SeedSequence(seed).  Returns a Moment with
    provenance "mc" and the standard error of the mean.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if n_mc < 2:
        raise ValueError("n_mc must be >= 2")
    steps = _lag(model, burn_in) + 1

    def values(xi):
        return np.linalg.norm(model.transform(xi, 1)[:, 0], axis=-1) ** order

    return _mc_mean(lambda rng, count: model.innovations(rng, count, steps),
                    values, n_mc, seed)


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
# JSON specs
# ---------------------------------------------------------------------------


def model_from_spec(spec):
    """Build a process model from a JSON-style dict: "kind" picks the model
    and the other keys are its fields; unknown keys are rejected."""
    return _pick(spec, "kind", _MODELS, "process spec")[1]


def model_to_spec(model):
    """Inverse of model_from_spec (matrices as nested lists)."""
    return {"kind": model.kind, **to_spec(model)}


_MODELS = {model.kind: model for model in (
    IIDProcess, MAProcess, VAR1Process, GARCHProcess, ARFIMAProcess)}
