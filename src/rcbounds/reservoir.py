"""Contracting reservoir filters: systems, hypothesis classes, and filters.

A reservoir system is a state map F together with a linear readout
h(x) = W x + a.  Driving F with an input sequence from the zero state (the
semi-infinite past padded with zeros) yields the truncated filter output;
when F is an r-contraction in the state, trajectories from different
initial conditions collapse at rate r^t, so the truncation is benign.

Three families are implemented:

  echo state   x_t = sigma(A x_{t-1} + C z_t + zeta), sigma odd, 1-Lipschitz
  linear       x_t = A x_{t-1} + C z_t + zeta, the echo state map with sigma = id
  state affine x_t = p(z_t) x_{t-1} + q(z_t), p and q polynomials in z with
               matrix (resp. vector) coefficients, inputs in a sup-norm box

Each system states its rules once, as methods: step (the map F, one
product of the system's matrix M with a feature column),
contraction_modulus, bound_M_F, input_lipschitz, zero_input_fixed_point,
states (the batched recursion) and window_outputs (the readout outputs of
a batch of windows opened at the fixed point, whose last step the module
function final_outputs reads off the final states).  Callers call them;
iterate_states_batch runs states on a batch and iterate_states on a batch
of one, so every filter, single path or batched, goes through the one
recursion.  The linear system inherits every echo state rule but the fixed
point, which it solves for, the states, which it forms from A^j [C | zeta]
(final states) or as the zero-start run plus the free response A^t x0 (all
states), and the window outputs, which it convolves with the kernel
w A^j C.

Hypothesis classes are norm-capped boxes around each family; they carry the
derived constants (contraction modulus, state-ball radius, input-Lipschitz
modulus, Rademacher constant) used by the risk certificates.  Each family
states its state-ball radius once (_echo_state_radius, _state_affine_radius),
for members' norms (bound_M_F) and classes' caps (m_f).  Each class
states its cap geometry once: draw_reservoir(rng) draws a member reservoir
inside the caps, saturate(reservoir) gives a member whose binding caps are
active, and contains_reservoir checks the reservoir caps; the readout caps
are one shared rule, contains_readout.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .processes import Moment, _next_fast_len

__all__ = [
    "Activation",
    "MatrixPolynomial",
    "LinearReservoir",
    "EchoStateReservoir",
    "StateAffineReservoir",
    "Readout",
    "Hypothesis",
    "LinearClass",
    "EchoStateClass",
    "StateAffineClass",
    "RandomEchoStateClass",
    "zero_input_fixed_point",
    "final_outputs",
    "default_washout",
    "run_filter",
    "functional",
    "esp_convergence_check",
    "sample_from_class",
    "random_esn",
    "RandomEchoStateDraw",
]

_WASHOUT_TOL = 1e-10
_FIXED_POINT_TOL = 1e-14
_FIXED_POINT_ITERS = 10_000
# paths per block of the batched recursion: one block's feature buffers
# and states stay small next to the caller's (batch, n, d) input array
_PATH_BLOCK = 4096
# paths per tile of the final-state products (_in_whole_tiles): a multiple
# of the path unroll of common BLAS kernels (4 x 8, 16 x 2, 8 x 4)
_TILE = 16


def _as_batch(system, inputs):
    """inputs as a float (batch, n, n_input) array.  The one check of the
    batched entries, iterate_states_batch and window_outputs: an input of
    the wrong width is refused, never broadcast or cut to fit C."""
    z = np.asarray(inputs, dtype=float)
    if z.ndim != 3 or z.shape[2] != system.n_input:
        raise ValueError("batched inputs must be (batch, n, n_input)")
    return z


def _time_loop_states(system, z, x0, return_all=False):
    """system.states of the echo state and state affine systems: final
    states (b, N), or all states (b, n, N), of the paths z (b, n, d) from
    x0 (b, N).  Paths go in blocks of _PATH_BLOCK; system._trajectory
    steps a block as (N, block) columns and reads each step's inputs
    straight from z, so no block of inputs is copied."""
    b, n, _ = z.shape
    out = np.empty((b, n, x0.shape[1]) if return_all else x0.shape)
    for lo in range(0, b, _PATH_BLOCK):
        hi = min(b, lo + _PATH_BLOCK)
        x = x0[lo:hi].T
        for t, x in enumerate(system._trajectory(z[lo:hi], x0[lo:hi])):
            if return_all:
                out[lo:hi, t] = x.T
        if not return_all:
            out[lo:hi] = x.T
    return out


def _time_loop_outputs(system, z, readouts):
    """system.window_outputs of the echo state and state affine systems:
    all states of the windows z (b, n, d) from the zero-input fixed point
    by the time loop, then one product per readout; (k, b, n, m)."""
    z = _as_batch(system, z)
    x0 = np.broadcast_to(system.zero_input_fixed_point(),
                         (z.shape[0], system.n_state))
    states = system.states(z, x0, return_all=True)
    return np.stack([states @ ro.w.T + ro.a for ro in readouts])


@dataclass(frozen=True)
class Activation:
    """Odd 1-Lipschitz scalar nonlinearity applied entrywise.

    kind "tanh" and "clipped_linear" are bounded into [-1, 1]; "identity"
    is unbounded.  All satisfy sigma(0) = 0.  A spec names an activation by
    its kind alone.
    """

    kind: str = "tanh"
    spec_field = "kind"

    def __post_init__(self):
        if self.kind not in ("tanh", "clipped_linear", "identity"):
            raise ValueError(f"unknown activation {self.kind!r}")

    def __call__(self, x, out=None):
        """sigma(x), written into out when one is given (out=x: in place)."""
        if self.kind == "tanh":
            return np.tanh(x, out=out)
        if self.kind == "clipped_linear":
            return np.clip(x, -1.0, 1.0, out=out)
        if out is None or out is x:
            return x
        out[...] = x
        return out

    @property
    def output_bound(self):
        # sup |sigma|, None when unbounded
        return None if self.kind == "identity" else 1.0


def _monomial(z, factors, out):
    """prod z[j]^k over one term's (j, k) factors, written into out; z is
    (d, b) and out (b,).  A term of degree 0 leaves out as it is."""
    for i, (j, k) in enumerate(factors):
        if k < 3:
            power = z[j] ** k if i else np.power(z[j], k, out=out)
        else:  # a chain of products, about 50x faster than the generic pow
            power = np.multiply(z[j], z[j], out=None if i else out)
            for _ in range(k - 2):
                power *= z[j]
        if i:
            out *= power
    return out


@dataclass(frozen=True)
class MatrixPolynomial:
    """sum_t z^alpha_t coeffs[t] with multi-indices alpha_t over R^d inputs.

    alphas: (n_terms, d) nonnegative integers; coeffs: (n_terms, rows, cols).
    """

    alphas: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=int)
        c = np.asarray(self.coeffs, dtype=float)
        if a.ndim != 2:
            raise ValueError("alphas must be (n_terms, n_input)")
        if c.ndim != 3 or c.shape[0] != a.shape[0]:
            raise ValueError("coeffs must be (n_terms, rows, cols)")
        if (a < 0).any():
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "coeffs", c)
        # each term's nonzero exponents as (input row j, power k) pairs
        object.__setattr__(self, "factors", tuple(
            tuple((int(j), int(row[j])) for j in np.flatnonzero(row))
            for row in a))

    @property
    def n_input(self):
        return self.alphas.shape[1]

    def monomials(self, z):
        """z^alpha_t for every term; z is (d,) or a column batch (d, b).

        Returns (n_terms,) or (n_terms, b).  Each monomial is a product of
        scalar integer powers of input rows, so no per-sample exponent
        array is built.
        """
        z = np.asarray(z, dtype=float)
        out = np.ones((len(self.factors),) + z.shape[1:])
        cols = z.reshape(len(z), -1)
        for row, factors in zip(out.reshape(len(out), cols.shape[1]),
                                self.factors):
            _monomial(cols, factors, row)
        return out

    def eval(self, z):
        """Value at a single input z, shape (rows, cols)."""
        return np.tensordot(self.monomials(z), self.coeffs, axes=1)

    def coeff_norms(self):
        return np.array([np.linalg.norm(m, 2) for m in self.coeffs])

    def degrees(self):
        return self.alphas.sum(axis=1)

    def sup_norm_on_box(self, box):
        """Upper bound for sup of the spectral norm over ||z||_inf <= box."""
        return float(np.sum(self.coeff_norms() * box ** self.degrees()))

    def lipschitz_on_box(self, box):
        """Lipschitz modulus in z (euclidean norm) over the box.

        |z^a - z'^a| <= |a|_1 box^(|a|_1 - 1) ||z - z'||_inf termwise.
        """
        deg = self.degrees()
        powers = np.where(deg > 0, box ** np.maximum(deg - 1, 0), 0.0)
        return float(np.sum(self.coeff_norms() * deg * powers))


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


def _echo_state_radius(n_state, activation, input_bound, r, c, zeta):
    """M_F of the echo state family, linear included: the least of sqrt(N)
    sup|sigma| and, for inputs bounded by K = input_bound and r < 1,
    (c K + zeta) / (1 - r), where r, c, zeta bound |||A|||, |||C|||, ||zeta||."""
    radii = []
    if activation.output_bound is not None:
        radii.append(math.sqrt(n_state) * activation.output_bound)
    if input_bound is not None and r < 1.0:
        radii.append((c * input_bound + zeta) / (1.0 - r))
    if not radii:
        raise ValueError("M_F needs a bounded activation or input_bound")
    return float(min(radii))


def _state_affine_radius(m_p, m_q):
    """M_F of the state affine family, M_q / (1 - M_p), from the sup norms
    of p and q over the input box (a member's, or a class's caps)."""
    if m_p >= 1.0:
        raise ValueError("state map is not a contraction on the box")
    return m_q / (1.0 - m_p)


@dataclass(frozen=True)
class EchoStateReservoir:
    """x_t = sigma(A x_{t-1} + C z_t + zeta) with an odd 1-Lipschitz sigma."""

    a: np.ndarray
    c: np.ndarray
    zeta: np.ndarray
    activation: Activation = Activation("tanh")

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        zeta = np.asarray(self.zeta, dtype=float).reshape(-1)
        if a.shape[0] != a.shape[1]:
            raise ValueError("a must be square")
        if c.shape[0] != a.shape[0] or zeta.shape[0] != a.shape[0]:
            raise ValueError("c and zeta must match the state dimension")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "zeta", zeta)
        # the map's matrix M = [A | C | zeta] on the features [x; z; 1]
        object.__setattr__(self, "_m", np.column_stack([a, c, zeta]))

    @property
    def n_state(self):
        return self.a.shape[0]

    @property
    def n_input(self):
        return self.c.shape[1]

    def step(self, x, z):
        """sigma(M [x; z; 1]): x (N,) and z (d,), or column batches (N, b)
        and (d, b)."""
        pre = self._m @ np.concatenate([x, z, np.ones((1,) + x.shape[1:])])
        return self.activation(pre, out=pre)

    def _trajectory(self, z, x0):
        """States x_1, ..., x_n of the paths z (w, n, d) from x0 (w, N), each
        an (N, w) view that a later step overwrites.  Two feature buffers
        [x; z; 1] alternate: a step writes its inputs into one and its
        product into the other's state rows, so no step copies its state."""
        n_state = self.n_state
        f = np.empty((2, self._m.shape[1], z.shape[0]))
        f[:, -1] = 1.0
        f[0, :n_state] = x0.T
        for t in range(z.shape[1]):
            cur, nxt = f[t % 2], f[1 - t % 2]
            cur[n_state:-1] = z[:, t].T
            x = nxt[:n_state]
            np.dot(self._m, cur, out=x)
            yield self.activation(x, out=x)

    def contraction_modulus(self, input_bound=None):
        return float(np.linalg.norm(self.a, 2))

    def bound_M_F(self, input_bound=None):
        """The echo state radius at |||A|||, |||C||| and ||zeta||."""
        return _echo_state_radius(self.n_state, self.activation, input_bound,
                                  self.contraction_modulus(),
                                  self.input_lipschitz(),
                                  float(np.linalg.norm(self.zeta)))

    def input_lipschitz(self, input_bound=None, m_f=None):
        return float(np.linalg.norm(self.c, 2))

    def zero_input_fixed_point(self):
        """Iterates F(., 0) from 0 until a step moves <= _FIXED_POINT_TOL."""
        z0 = np.zeros(self.n_input)
        x = np.zeros(self.n_state)
        for _ in range(_FIXED_POINT_ITERS):
            nxt = self.step(x, z0)
            if np.linalg.norm(nxt - x) <= _FIXED_POINT_TOL:
                return nxt
            x = nxt
        return x

    states = _time_loop_states
    window_outputs = _time_loop_outputs


@dataclass(frozen=True)
class LinearReservoir(EchoStateReservoir):
    """x_t = A x_{t-1} + C z_t + zeta: the echo state map with sigma = id.

    Every rule of the echo state family holds with Lip(sigma) = 1; the
    class is kept for the closed forms only linear maps have (fixed point,
    final-state kernel, output kernel, exact risk).
    """

    activation: Activation = Activation("identity")

    def __post_init__(self):
        if self.activation != Activation("identity"):
            raise ValueError("linear reservoirs have the identity activation")
        super().__post_init__()

    def zero_input_fixed_point(self):
        """(I - A)^(-1) zeta."""
        return np.linalg.solve(np.eye(self.n_state) - self.a, self.zeta)

    def states(self, z, x0, return_all=False):
        """Final states without a time loop: x_n = A^n x0 + sum_{t=1..n}
        A^(n-t) (C z_t + zeta), so with the impulse response A^j [C | zeta],
        j < n, the batch is one (b, n d) @ (n d, N) product.  All states by
        superposition: the echo state time loop from the zero start plus
        the free response A^t x0, so runs from different starts share
        bit-identical drive terms and differ only through A^t x0."""
        if return_all:
            out = super().states(z, np.zeros(x0.shape), True)
            if x0.any():  # A^t x0, one column when every path starts at x0
                start = x0[:1] if (x0 == x0[0]).all() else x0
                free = _powers(self.a, start.T, z.shape[1] + 1)[1:]
                out += free.transpose(2, 0, 1)
            return out
        b, n = z.shape[:2]
        d = self.n_input
        if n == 0:
            return np.array(x0)
        powers = _powers(self.a, np.column_stack([self.c, self.zeta]), n)
        kernel = powers[::-1, :, :d].transpose(0, 2, 1).reshape(n * d, -1)
        return (z.reshape(b, n * d) @ kernel
                + x0 @ np.linalg.matrix_power(self.a, n).T
                + powers[:, :, d].sum(axis=0))

    def window_outputs(self, z, readouts):
        """Outputs without the states: opened at the fixed point x*, the
        window has x_t - x* = sum_{j<t} A^j C z_{t-j}, so readout (w, a)
        gives w x* + a plus the causal convolution of the inputs with its
        kernel w A^j C, j < n.  One rfft of the inputs serves every
        readout; each readout then costs one product and one irfft, taken
        one readout at a time, so that beside the inputs' spectrum only one
        readout's (b, m, size/2 + 1) spectrum is live."""
        z = _as_batch(self, z)
        b, n, d = z.shape
        x_star = self.zero_input_fixed_point()
        out = np.empty((len(readouts), b, n, readouts[0].w.shape[0]))
        if n == 0:
            return out
        powers = _powers(self.a, self.c, n)  # A^j C, (n, N, d)
        size = _next_fast_len(2 * n - 1)
        spec = np.fft.rfft(z.transpose(0, 2, 1), size)  # (b, d, F)
        for i, ro in enumerate(readouts):
            kernel = np.fft.rfft((ro.w @ powers).transpose(1, 2, 0), size)
            prod = spec[:, None, 0] * kernel[:, 0]  # (b, m, F)
            for j in range(1, d):
                prod += spec[:, None, j] * kernel[:, j]
            out[i] = np.fft.irfft(prod, size)[..., :n].transpose(0, 2, 1)
            out[i] += ro.w @ x_star + ro.a
        return out


@dataclass(frozen=True)
class StateAffineReservoir:
    """x_t = p(z_t) x_{t-1} + q(z_t); every rule but the map itself holds
    over the input box ||z||_inf <= input_bound, which it therefore needs."""

    p: MatrixPolynomial
    q: MatrixPolynomial

    def __post_init__(self):
        n = self.p.coeffs.shape[1]
        if self.p.coeffs.shape[2] != n:
            raise ValueError("p must have square coefficients")
        if self.q.coeffs.shape[1] != n or self.q.coeffs.shape[2] != 1:
            raise ValueError("q must have (n_state, 1) coefficients")
        if self.p.n_input != self.q.n_input:
            raise ValueError("p and q must share the input dimension")
        # the map's matrix M = [P_1 ... P_T | Q_1 ... Q_S] on the features
        # [m_1(z) x; ...; m_T(z) x; q's monomials of z]
        object.__setattr__(self, "_m", np.column_stack(
            list(self.p.coeffs) + [self.q.coeffs[:, :, 0].T]))

    @property
    def n_state(self):
        return self.p.coeffs.shape[1]

    @property
    def n_input(self):
        return self.p.n_input

    def step(self, x, z):
        """M [m_1(z) x; ...; q's monomials], that is p(z) x + q(z) with no
        per-sample (N, N) matrix: x (N,) and z (d,), or column batches
        (N, b) and (d, b)."""
        px = self.p.monomials(z)[:, None] * x
        return self._m @ np.concatenate(
            [px.reshape((-1,) + x.shape[1:]), self.q.monomials(z)])

    def _trajectory(self, z, x0):
        """States x_1, ..., x_n of the paths z (w, n, d) from x0 (w, N), each
        an (N, w) view that a later step overwrites.  One feature buffer:
        q's degree-0 rows are written once, and each step writes the
        other rows from x and its inputs, then its product into x."""
        n_p, n_state, w = len(self.p.factors), self.n_state, z.shape[0]
        f = np.empty((self._m.shape[1], w))
        fp = f[:n_p * n_state].reshape(n_p, n_state, w)
        fq = f[n_p * n_state:]
        for row, factors in zip(fq, self.q.factors):
            if not factors:
                row[...] = 1.0
        x = np.array(x0.T, order="C")
        mono = np.empty(w)
        for t in range(z.shape[1]):
            zt = z[:, t].T
            for block, factors in zip(fp, self.p.factors):
                if factors:
                    np.multiply(x, _monomial(zt, factors, mono), out=block)
                else:
                    block[...] = x
            for row, factors in zip(fq, self.q.factors):
                _monomial(zt, factors, row)
            np.dot(self._m, f, out=x)
            yield x

    def contraction_modulus(self, input_bound=None):
        if input_bound is None:
            raise ValueError("state affine systems need input_bound")
        return self.p.sup_norm_on_box(float(input_bound))

    def bound_M_F(self, input_bound=None):
        """The state affine radius at the sup norms of p and q on the box."""
        if input_bound is None:
            raise ValueError("state affine systems need input_bound")
        return _state_affine_radius(self.p.sup_norm_on_box(float(input_bound)),
                                    self.q.sup_norm_on_box(float(input_bound)))

    def input_lipschitz(self, input_bound=None, m_f=None):
        """Holds for states inside the ball of radius m_f (default M_F)."""
        if input_bound is None:
            raise ValueError("state affine systems need input_bound")
        if m_f is None:
            m_f = self.bound_M_F(input_bound)
        return (self.p.lipschitz_on_box(float(input_bound)) * float(m_f)
                + self.q.lipschitz_on_box(float(input_bound)))

    def zero_input_fixed_point(self):
        z0 = np.zeros(self.n_input)
        p0 = self.p.eval(z0)
        q0 = self.q.eval(z0)[:, 0]
        return np.linalg.solve(np.eye(self.n_state) - p0, q0)

    states = _time_loop_states
    window_outputs = _time_loop_outputs


@dataclass(frozen=True)
class Readout:
    """Affine readout h(x) = w x + a."""

    w: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.w, dtype=float))
        a = np.asarray(self.a, dtype=float).reshape(-1)
        if a.shape[0] != w.shape[0]:
            raise ValueError("a must match the output dimension of w")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "a", a)

    def __call__(self, x):
        return np.asarray(x) @ self.w.T + self.a

    @property
    def lipschitz(self):
        return float(np.linalg.norm(self.w, 2))

    @property
    def offset_norm(self):
        return float(np.linalg.norm(self.a))


@dataclass(frozen=True)
class Hypothesis:
    reservoir: object
    readout: Readout


def default_washout(system, input_bound=None):
    """Smallest T with r^T M_F <= 1e-10 (zero-input padding length)."""
    r = system.contraction_modulus(input_bound)
    if r >= 1.0:
        raise ValueError("washout undefined for non-contracting systems")
    m_f = system.bound_M_F(input_bound)
    if m_f <= _WASHOUT_TOL or r == 0.0:
        return 1
    return int(np.ceil(np.log(_WASHOUT_TOL / m_f) / np.log(r)))


def zero_input_fixed_point(system):
    """The unique fixed point of x -> F(x, 0) for a contracting system,
    where a filter driven by a zero-padded past sits when the window opens."""
    return system.zero_input_fixed_point()


def _as_inputs(system, inputs):
    z = np.asarray(inputs, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    if z.ndim != 2 or z.shape[1] != system.n_input:
        raise ValueError("inputs must be (n, n_input)")
    return z


def iterate_states(system, inputs, x0=None):
    """States x_1..x_n (n, N) from x0 (default 0) driven by the given
    inputs (n, n_input): system.states on a batch of one."""
    return iterate_states_batch(system, _as_inputs(system, inputs)[None], x0,
                                return_all=True)[0]


def _powers(a, v, k):
    """A^j v for j < k, shape (k,) + v.shape, for an (N, m) matrix or
    (N, 1) column v.  Built by doubling: A^m V[:m] fills V[m:2m], so k
    powers cost about log2 k matmuls.  k must be >= 1."""
    out = np.empty((k,) + v.shape)
    out[0] = v
    a_m, m = a, 1
    while m < k:
        take = min(m, k - m)
        out[m:m + take] = a_m @ out[:take]
        a_m = a_m @ a_m
        m *= 2
    return out


def _in_whole_tiles(fn, *arrays):
    """fn(*arrays) for arrays whose leading axes hold the same b paths, with
    the paths given to fn a multiple of _TILE at a time: the first
    b - b % _TILE in one call, the rest padded with zero paths to one tile
    of its own (an array whose paths share one row by broadcasting is
    padded with that row).  The results are put together along their
    leading axes.

    A BLAS product rounds the paths of a partial tile, or a lone path, in
    another way than those of whole tiles, so a path's batched result
    would depend on how many paths share its call; in whole tiles it does
    not, as long as every call stays below the size at which the BLAS
    changes its method.
    """
    b = arrays[0].shape[0]
    main = b - b % _TILE
    if main == b:
        return fn(*arrays)

    def padded(a):
        if a.strides[0] == 0:
            return np.broadcast_to(a[0], (_TILE,) + a.shape[1:])
        out = np.zeros((_TILE,) + a.shape[1:])
        out[:b - main] = a[main:]
        return out

    tail = fn(*map(padded, arrays))[:b - main]
    if main == 0:
        return tail
    return np.concatenate([fn(*(a[:main] for a in arrays)), tail])


def iterate_states_batch(system, inputs, x0=None, return_all=False):
    """system.states over inputs (batch, n, n_input) from x0: None (zero
    start), one (N,) start shared by every path, or a (batch, N) array.
    Returns the final states (batch, N), or all states (batch, n, N).
    Final states are formed in whole tiles of paths (_in_whole_tiles), so
    a path's final state does not depend on the batch it came in."""
    z = _as_batch(system, inputs)
    x0 = np.zeros(system.n_state) if x0 is None else np.asarray(x0, dtype=float)
    x0 = np.broadcast_to(x0, (z.shape[0], system.n_state))
    if return_all:
        return system.states(z, x0, True)
    return _in_whole_tiles(system.states, z, x0)


def final_outputs(system, inputs, readouts):
    """The time-0 counterpart of window_outputs: the outputs (k, b, m) of k
    readouts at the last step of the windows inputs (b, n, d) opened at the
    fixed point, from the final states and one (b, N) @ (N, k m) product,
    both in whole tiles of paths (_in_whole_tiles): a path's outputs do not
    depend on the batch it came in."""
    finals = iterate_states_batch(system, inputs,
                                  x0=zero_input_fixed_point(system))
    w = np.stack([ro.w for ro in readouts])  # (k, m, N)
    wt = w.reshape(-1, w.shape[2]).T
    out = _in_whole_tiles(lambda f: f @ wt, finals).reshape(
        len(finals), len(readouts), -1).swapaxes(0, 1)
    out += np.stack([ro.a for ro in readouts])[:, None, :]
    return out


def run_filter(system, inputs, washout=None, readout=None, input_bound=None):
    """Filter outputs over a finite input window with zero-padded past.

    The state starts at zero and `washout` zero inputs are consumed before
    the window, matching a truncated sample whose pre-window inputs are all
    zero.  washout=None picks the smallest T with r^T M_F <= 1e-10 (the
    padding then provably does not matter at that tolerance).  Returns the
    states (n, N), or readout outputs (n, m) when a readout is given.
    """
    z = _as_inputs(system, inputs)
    if washout is None:
        if input_bound is None:
            norms = np.abs(z).max() if z.size else 0.0
            input_bound = float(norms)
        washout = default_washout(system, input_bound)
    if washout < 0:
        raise ValueError("washout must be >= 0")
    if washout:
        pad = np.zeros((washout, system.n_input))
        states = iterate_states(system, np.vstack([pad, z]))[washout:]
    else:
        states = iterate_states(system, z)
    if readout is None:
        return states
    return readout(states)


def functional(system, history, readout=None, input_bound=None):
    """Filter value at time 0 given the finite input history (.., z_-1, z_0).

    Equals the last row of run_filter: the semi-infinite past beyond the
    supplied history is zero padded.
    """
    out = run_filter(system, history, readout=readout, input_bound=input_bound)
    return out[-1]


def esp_convergence_check(system, inputs, x0_a=None, x0_b=None, seed=0,
                          input_bound=None):
    """Track the gap between two trajectories driven by the same inputs.

    Initial states default to independent uniform draws from the invariant
    ball.  Returns a dict with the initial gap, the per-step gaps (t >= 1)
    and the contraction modulus r; contraction means
    gaps[t-1] <= r^t * gap0 up to roundoff.
    """
    z = _as_inputs(system, inputs)
    if input_bound is None:
        input_bound = float(np.abs(z).max()) if z.size else 0.0
    r = system.contraction_modulus(input_bound)
    m_f = system.bound_M_F(input_bound)
    rng = np.random.default_rng(seed)
    if x0_a is None:
        x0_a = _ball_point(rng, system.n_state, m_f)
    if x0_b is None:
        x0_b = _ball_point(rng, system.n_state, m_f)
    sa = iterate_states(system, z, x0=np.asarray(x0_a, dtype=float))
    sb = iterate_states(system, z, x0=np.asarray(x0_b, dtype=float))
    gap0 = float(np.linalg.norm(np.asarray(x0_a) - np.asarray(x0_b)))
    gaps = np.linalg.norm(sa - sb, axis=1)
    return {"gap0": gap0, "gaps": gaps, "r": r}


def _ball_point(rng, n, radius):
    v = rng.standard_normal(n)
    u = rng.uniform() ** (1.0 / n)
    return radius * u * v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# hypothesis classes
# ---------------------------------------------------------------------------


def _check_caps(**caps):
    """Each cap must be a finite number >= 0 (NaN fails the test too)."""
    for name, v in caps.items():
        if not 0.0 <= v < np.inf:
            raise ValueError(f"{name} must be finite and >= 0")


def _check_common(klass):
    _check_caps(l_h=klass.l_h, l_h0=klass.l_h0)
    if min(klass.n_state, klass.n_input, klass.n_out) < 1:
        raise ValueError("n_state, n_input and n_out must be >= 1")


class _ReadoutCaps:
    """The readout caps |||W||| <= l_h, ||a|| <= l_h0 that every class
    shares; each class states its reservoir caps in contains_reservoir.
    The Rademacher constant here is the (A, C, zeta) classes' one; the
    state affine class states its own."""

    def rademacher_constant(self):
        """Constant c with block Rademacher complexity <= c / sqrt(k).

        An (A, C, zeta) class needs the second moment E||Z_0||_2^2 of its
        unbounded inputs (a Moment or float), stored on the class.  The
        linear class is the echo state one with sigma = id, and a random
        template's lam_a is its cap a.
        """
        m = self.input_second_moment
        if m is None:
            raise ValueError("need E||Z_0||^2 for this family")
        z2 = math.sqrt(m.value if isinstance(m, Moment) else float(m))
        if self.lam_a >= 1.0:
            raise ValueError("summed row caps must stay below 1")
        return (self.l_h * (self.lam_c * z2 + self.lam_zeta)
                / (1.0 - self.lam_a) + self.l_h0)

    def contains_readout(self, readout, tol=1e-9):
        return (readout.lipschitz <= self.l_h + tol
                and readout.offset_norm <= self.l_h0 + tol)

    def contains(self, hyp, tol=1e-9):
        return (self.contains_reservoir(hyp.reservoir, tol)
                and self.contains_readout(hyp.readout, tol))


@dataclass(frozen=True)
class LinearClass(_ReadoutCaps):
    """Linear reservoirs with |||A||| <= lam_a < 1, |||C||| <= lam_c,
    ||zeta|| <= lam_zeta, and affine readouts with |||W||| <= l_h,
    ||a|| <= l_h0.  The coefficient boxes are sign symmetric.
    """

    n_state: int
    n_input: int
    n_out: int
    lam_a: float
    lam_c: float
    lam_zeta: float
    l_h: float
    l_h0: float
    input_bound: float = None
    input_second_moment: Moment = None

    def __post_init__(self):
        _check_common(self)
        if not 0.0 <= self.lam_a < 1.0:
            raise ValueError("lam_a must lie in [0, 1)")
        _check_caps(lam_c=self.lam_c, lam_zeta=self.lam_zeta)

    @property
    def r(self):
        return self.lam_a

    @property
    def l_r(self):
        return self.lam_c

    @property
    def m_f(self):
        return _echo_state_radius(self.n_state, Activation("identity"),
                                  self.input_bound, self.lam_a, self.lam_c,
                                  self.lam_zeta)

    def contains_reservoir(self, res, tol=1e-9):
        return (isinstance(res, LinearReservoir)
                and np.linalg.norm(res.a, 2) <= self.lam_a + tol
                and np.linalg.norm(res.c, 2) <= self.lam_c + tol
                and np.linalg.norm(res.zeta) <= self.lam_zeta + tol)

    def draw_reservoir(self, rng):
        n, d = self.n_state, self.n_input
        return LinearReservoir(
            _scaled(rng.uniform(-1.0, 1.0, (n, n)), self.lam_a, _spec_norm, rng),
            _scaled(rng.uniform(-1.0, 1.0, (n, d)), self.lam_c, _spec_norm, rng),
            _scaled(rng.uniform(-1.0, 1.0, (n,)), self.lam_zeta, np.linalg.norm, rng))

    def saturate(self, reservoir):
        """Every cap active: A, C and zeta scaled to lam_a, lam_c, lam_zeta."""
        return LinearReservoir(_scaled(reservoir.a, self.lam_a, _spec_norm),
                               _scaled(reservoir.c, self.lam_c, _spec_norm),
                               _scaled(reservoir.zeta, self.lam_zeta, np.linalg.norm))


@dataclass(frozen=True)
class EchoStateClass(_ReadoutCaps):
    """Echo state systems under per-row caps and a spectral contraction cap.

    Row caps: ||A_l||_inf <= row_a[l], ||C_l||_2 <= row_c[l],
    |zeta_l| <= row_zeta[l] for each state coordinate l; additionally
    |||A|||_2 <= spec_a (default: the Frobenius-style bound
    sqrt(N) ||row_a||_2, which the row caps already imply) and
    |||C|||_2 <= spec_c (default ||row_c||_2).  The activation is odd and
    the boxes are sign symmetric, so the class is closed under sign flips.
    """

    n_state: int
    n_input: int
    n_out: int
    row_a: tuple
    row_c: tuple
    row_zeta: tuple
    l_h: float
    l_h0: float
    activation: Activation = Activation("tanh")
    spec_a: float = None
    spec_c: float = None
    input_bound: float = None
    input_second_moment: Moment = None

    def __post_init__(self):
        _check_common(self)
        for name in ("row_a", "row_c", "row_zeta"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (self.n_state,):
                raise ValueError(f"{name} must have length n_state")
            if not np.all((v >= 0) & (v < np.inf)):
                raise ValueError(f"{name} entries must be finite and >= 0")
            object.__setattr__(self, name, tuple(v))
        if self.spec_a is None:
            object.__setattr__(
                self, "spec_a",
                float(np.sqrt(self.n_state) * np.linalg.norm(self.row_a)))
        if self.spec_c is None:
            object.__setattr__(self, "spec_c", float(np.linalg.norm(self.row_c)))
        _check_caps(spec_a=self.spec_a, spec_c=self.spec_c)

    @property
    def lam_a(self):
        # ell-1 state chain constant; must be < 1 for the class constant
        return float(np.sum(self.row_a))

    @property
    def lam_c(self):
        return float(np.sum(self.row_c))

    @property
    def lam_zeta(self):
        return float(np.sum(self.row_zeta))

    @property
    def r(self):
        return self.spec_a

    @property
    def l_r(self):
        return self.spec_c

    @property
    def m_f(self):
        return _echo_state_radius(self.n_state, self.activation,
                                  self.input_bound, self.r, self.l_r,
                                  float(np.linalg.norm(self.row_zeta)))

    def contains_reservoir(self, res, tol=1e-9):
        if not isinstance(res, EchoStateReservoir):
            return False
        if res.activation != self.activation:
            return False
        row_a = np.abs(res.a).max(axis=1)
        row_c = np.linalg.norm(res.c, axis=1)
        return (np.all(row_a <= np.asarray(self.row_a) + tol)
                and np.all(row_c <= np.asarray(self.row_c) + tol)
                and np.all(np.abs(res.zeta) <= np.asarray(self.row_zeta) + tol)
                and np.linalg.norm(res.a, 2) <= self.spec_a + tol
                and np.linalg.norm(res.c, 2) <= self.spec_c + tol)

    def draw_reservoir(self, rng):
        """Each row drawn inside its row cap, then A and C scaled down onto
        their spectral caps when they exceed them."""
        a = np.stack([_scaled(rng.uniform(-1.0, 1.0, self.n_state), cap,
                              lambda v: np.abs(v).max(), rng)
                      for cap in self.row_a])
        c = np.stack([_scaled(rng.uniform(-1.0, 1.0, self.n_input), cap,
                              np.linalg.norm, rng) for cap in self.row_c])
        zeta = np.array([_scaled(rng.uniform(-1.0, 1.0, 1), cap, np.linalg.norm,
                                 rng)[0] for cap in self.row_zeta])
        return EchoStateReservoir(_spec_capped(a, self.spec_a),
                                  _spec_capped(c, self.spec_c), zeta, self.activation)

    def saturate(self, reservoir):
        """A and C scaled until a row or the spectral cap is active; each
        zeta_l at its cap with the sign of the given zeta_l."""
        a, c, zeta = reservoir.a, reservoir.c, reservoir.zeta
        return EchoStateReservoir(
            _to_binding_cap(a, np.abs(a).max(axis=1), self.row_a, self.spec_a),
            _to_binding_cap(c, np.linalg.norm(c, axis=1), self.row_c, self.spec_c),
            np.where(zeta != 0, np.copysign(self.row_zeta, zeta), self.row_zeta),
            self.activation)


@dataclass(frozen=True)
class StateAffineClass(_ReadoutCaps):
    """State affine systems on a fixed monomial support with summed caps.

    Over the input box ||z||_inf <= input_bound =: K the coefficient caps
    read sum_t |||P_t||| K^deg(t) <= K lam_sas and
    sum_t ||Q_t|| K^deg(t) <= K c_sas, with K lam_sas < 1; coefficient
    signs are unrestricted (sign-symmetric class).  alphas_p / alphas_q fix
    the monomial supports as tuples of exponent tuples.
    """

    n_state: int
    n_input: int
    n_out: int
    alphas_p: tuple
    alphas_q: tuple
    lam_sas: float
    c_sas: float
    input_bound: float
    l_h: float
    l_h0: float

    def __post_init__(self):
        _check_common(self)
        if self.input_bound <= 0:
            raise ValueError("input_bound must be > 0")
        _check_caps(lam_sas=self.lam_sas, c_sas=self.c_sas)
        if self.lam_sas * self.input_bound >= 1.0:
            raise ValueError("need lam_sas * input_bound < 1")
        for name in ("alphas_p", "alphas_q"):
            a = tuple(tuple(int(e) for e in row) for row in getattr(self, name))
            if any(len(row) != self.n_input for row in a) or not a:
                raise ValueError(f"{name} must be nonempty rows of length n_input")
            object.__setattr__(self, name, a)

    @property
    def r(self):
        return self.lam_sas * self.input_bound

    @property
    def m_f(self):
        return _state_affine_radius(self.r, self.c_sas * self.input_bound)

    def rademacher_constant(self):
        """l_h m_f + l_h0: uniformly bounded on its input box, the class
        needs no input moment."""
        return self.l_h * self.m_f + self.l_h0

    @property
    def l_r(self):
        # termwise: sum |||P_t||| deg K^(deg-1) <= max_deg * lam_sas, and the
        # same for q; states stay in the m_f ball.
        dp = max(sum(row) for row in self.alphas_p)
        dq = max(sum(row) for row in self.alphas_q)
        return dp * self.lam_sas * self.m_f + dq * self.c_sas

    def contains_reservoir(self, res, tol=1e-9):
        if not isinstance(res, StateAffineReservoir):
            return False
        k = self.input_bound
        return (res.p.sup_norm_on_box(k) <= k * self.lam_sas + tol
                and res.q.sup_norm_on_box(k) <= k * self.c_sas + tol)

    def draw_reservoir(self, rng):
        k, n = self.input_bound, self.n_state

        def draw(alphas, cols, total_cap):
            # split the summed cap across terms by uniform proportions
            weights = rng.uniform(0.0, 1.0, len(alphas))
            weights *= rng.uniform() / max(weights.sum(), 1e-300)
            coeffs = np.empty((len(alphas), n, cols))
            for t, row in enumerate(alphas):
                cap_t = weights[t] * total_cap / k ** sum(row)
                coeffs[t] = _scaled(rng.uniform(-1.0, 1.0, (n, cols)), cap_t,
                                    _spec_norm, rng)
                # _scaled draws another U(0,1) factor; undo it to keep the split
                nrm = _spec_norm(coeffs[t])
                if nrm > 0:
                    coeffs[t] *= cap_t / nrm
            return MatrixPolynomial(np.asarray(alphas, dtype=int), coeffs)

        return StateAffineReservoir(draw(self.alphas_p, n, k * self.lam_sas),
                                    draw(self.alphas_q, 1, k * self.c_sas))

    def saturate(self, reservoir):
        """p and q scaled to their summed caps K lam_sas and K c_sas."""
        k = self.input_bound

        def to_cap(poly, cap):
            s = poly.sup_norm_on_box(k)
            return poly if s == 0 else MatrixPolynomial(poly.alphas,
                                                        poly.coeffs * (cap / s))

        return StateAffineReservoir(to_cap(reservoir.p, k * self.lam_sas),
                                    to_cap(reservoir.q, k * self.c_sas))


@dataclass(frozen=True)
class RandomEchoStateClass(_ReadoutCaps):
    """Scaled copies of one fixed random echo state template.

    With base matrices (A, C, zeta) the class consists of the systems
    (rho_a A, rho_c C, rho_z zeta) with |rho_a| lam_base_a < a < 1,
    |rho_c| <= c_scale, |rho_z| <= zeta_scale, where lam_base_a is the
    ell-1 row-sum constant of the base A.  Scale intervals are sign
    symmetric and the activation odd.
    """

    base_a: np.ndarray
    base_c: np.ndarray
    base_zeta: np.ndarray
    a: float
    c_scale: float
    zeta_scale: float
    l_h: float
    l_h0: float
    n_out: int
    activation: Activation = Activation("tanh")
    input_second_moment: Moment = None
    input_bound: float = None

    def __post_init__(self):
        lin = LinearReservoir(self.base_a, self.base_c, self.base_zeta)
        object.__setattr__(self, "base_a", lin.a)
        object.__setattr__(self, "base_c", lin.c)
        object.__setattr__(self, "base_zeta", lin.zeta)
        _check_common(self)
        if not 0.0 < self.a < 1.0:
            raise ValueError("a must lie in (0, 1)")
        _check_caps(c_scale=self.c_scale, zeta_scale=self.zeta_scale)
        if self.lam_base_a <= 0.0:
            raise ValueError("base A must be nonzero")

    @property
    def n_state(self):
        return self.base_a.shape[0]

    @property
    def n_input(self):
        return self.base_c.shape[1]

    @property
    def lam_base_a(self):
        return float(np.sum(np.abs(self.base_a).max(axis=1)))

    @property
    def lam_a(self):
        # every member satisfies the row-sum cap with value exactly a
        return self.a

    @property
    def lam_c(self):
        return self.c_scale * float(np.sum(np.linalg.norm(self.base_c, axis=1)))

    @property
    def lam_zeta(self):
        return self.zeta_scale * float(np.sum(np.abs(self.base_zeta)))

    @property
    def rho_a_max(self):
        return self.a / self.lam_base_a

    @property
    def r(self):
        # |||rho A|||_2 <= rho_max |||A|||_2, intersected with 1 (ESP needs
        # the realized spectral radius checked by the caller when >= 1)
        return self.rho_a_max * float(np.linalg.norm(self.base_a, 2))

    @property
    def l_r(self):
        return self.c_scale * float(np.linalg.norm(self.base_c, 2))

    @property
    def m_f(self):
        # the echo state radius of the bounded activation alone: the
        # template's r may reach 1, and its input_bound is not read
        return _echo_state_radius(self.n_state, self.activation, None, self.r,
                                  self.l_r, self.lam_zeta)

    def member(self, rho_a, rho_c, rho_z):
        if abs(rho_a) * self.lam_base_a >= self.a:
            raise ValueError("|rho_a| too large for the contraction cap")
        if abs(rho_c) > self.c_scale or abs(rho_z) > self.zeta_scale:
            raise ValueError("scale outside the class box")
        return EchoStateReservoir(rho_a * self.base_a, rho_c * self.base_c,
                                  rho_z * self.base_zeta, self.activation)

    def contains_reservoir(self, res, tol=1e-9):
        if not isinstance(res, EchoStateReservoir):
            return False
        if res.activation != self.activation:
            return False
        return float(np.sum(np.abs(res.a).max(axis=1))) <= self.a + tol

    def draw_reservoir(self, rng):
        return self.member(rng.uniform(-1.0, 1.0) * self.rho_a_max,
                           rng.uniform(-1.0, 1.0) * self.c_scale,
                           rng.uniform(-1.0, 1.0) * self.zeta_scale)

    def saturate(self, reservoir):
        """The member at the largest scales, rho_a just inside its open cap."""
        return self.member(self.rho_a_max * (1.0 - 1e-9), self.c_scale,
                           self.zeta_scale)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _spec_norm(m):
    return np.linalg.norm(m, 2)


def _scaled(m, cap, norm, rng=None):
    """m rescaled to norm(m) = cap, or to u * cap with u ~ U(0, 1) drawn
    from rng when one is given; zero (and no draw) when cap or norm(m) is 0."""
    cur = norm(m)
    if cur == 0.0 or cap == 0.0:
        return np.zeros_like(m)
    if rng is not None:
        cap = rng.uniform() * cap
    return m * (cap / cur)


def _spec_capped(m, cap):
    """m scaled down onto the spectral cap when it exceeds it."""
    spec = _spec_norm(m)
    return m * (cap / spec) if spec > cap else m


def _to_binding_cap(m, row_norms, row_caps, spec_cap):
    """m times the largest factor that keeps each row norm within its cap
    and the spectral norm within spec_cap, so one of these caps is active."""
    factors = [cap / v for cap, v in zip(row_caps, row_norms) if v > 0]
    spec = _spec_norm(m)
    if spec > 0:
        factors.append(spec_cap / spec)
    return m * min(factors) if factors else m


def _sample_readout(rng, klass):
    w = _scaled(rng.uniform(-1.0, 1.0, (klass.n_out, klass.n_state)), klass.l_h,
                _spec_norm, rng)
    a = _scaled(rng.uniform(-1.0, 1.0, (klass.n_out,)), klass.l_h0, np.linalg.norm, rng)
    return Readout(w, a)


def sample_from_class(klass, n=1, seed=0):
    """Draw n hypotheses uniformly-then-rescaled inside the class caps.

    Matrices are drawn with uniform(-1, 1) entries and rescaled so that each
    capped norm equals u * cap with an independent u ~ U(0, 1); over many
    draws the realized norms sweep out the cap interval without exceeding
    it.  Returns a list of Hypothesis (trial i uses rng seed + i, which
    draws the reservoir with klass.draw_reservoir and then the readout).
    """
    out = []
    for i in range(n):
        rng = np.random.default_rng(seed + i)
        res = klass.draw_reservoir(rng)
        out.append(Hypothesis(res, _sample_readout(rng, klass)))
    return out


@dataclass(frozen=True)
class RandomEchoStateDraw:
    """One random echo state template, which draw() draws and wraps as a
    scaled class; a random_esn class spec, its seed under base_seed.

    Base entries of A, C, zeta are i.i.d. from entry_law ("gaussian",
    "uniform" or "laplace", unit scale).  An all-zero base A is rejected.
    a in (0, 1) caps the row-sum constant of every scaled member.
    """

    n_state: int
    n_input: int
    n_out: int
    a: float
    c_scale: float
    zeta_scale: float
    l_h: float
    l_h0: float
    entry_law: str = "gaussian"
    activation: Activation = None
    seed: int = field(default=0, metadata={"key": "base_seed"})
    input_second_moment: Moment = None
    input_bound: float = None

    def draw(self):
        rng = np.random.default_rng(self.seed)
        if self.entry_law == "gaussian":
            draw = rng.standard_normal
        elif self.entry_law == "uniform":
            draw = lambda size: rng.uniform(-1.0, 1.0, size)
        elif self.entry_law == "laplace":
            draw = lambda size: rng.laplace(0.0, 1.0, size)
        else:
            raise ValueError(f"unknown entry law {self.entry_law!r}")
        base_a = draw((self.n_state, self.n_state))
        if not np.abs(base_a).max() > 0:
            raise ValueError("base A must be nonzero")
        base_c = draw((self.n_state, self.n_input))
        base_zeta = draw((self.n_state,))
        # the class takes the other fields; an unset activation is its tanh
        kw = {key: value for key, value in vars(self).items()
              if key not in ("n_state", "n_input", "entry_law", "seed")
              and value is not None}
        return RandomEchoStateClass(base_a=base_a, base_c=base_c,
                                    base_zeta=base_zeta, **kw)


def random_esn(*args, **kwargs):
    """Draw one random echo state template and wrap it as a scaled class:
    RandomEchoStateDraw(*args, **kwargs).draw()."""
    return RandomEchoStateDraw(*args, **kwargs).draw()
