import concurrent.futures
import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcbounds import processes
from rcbounds.processes import (
    ARFIMAProcess,
    GARCHProcess,
    IIDProcess,
    InnovationLaw,
    MAProcess,
    Moment,
    VAR1Process,
    WeightingSequence,
    analytic_moment,
    arfima_coefficients,
    batch_paths,
    dependence_params,
    estimate_theta,
    fit_theta_decay,
    generate_path,
    model_from_spec,
    model_to_spec,
    moment,
)

GAUSS = InnovationLaw("gaussian", 1, 1.0)


def test_generate_path_deterministic():
    model = GARCHProcess(omega=0.1, alpha=0.1, beta=0.8)
    a = generate_path(model, 64, seed=5)
    b = generate_path(model, 64, seed=5)
    assert np.array_equal(a, b)
    c = generate_path(model, 64, seed=6)
    assert not np.array_equal(a, c)


def test_garch_collapses_to_iid():
    # omega=1, alpha=beta=0 pins sigma_t^2 at 1, so returns are the raw
    # innovations
    model = GARCHProcess(omega=1.0, alpha=0.0, beta=0.0)
    z = generate_path(model, 200000, seed=0)[:, 0]
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.015


def test_garch_rejects_nonstationary():
    with pytest.raises(ValueError):
        GARCHProcess(omega=0.1, alpha=0.5, beta=0.5)


def test_var1_zero_matrix_is_iid_noise():
    model = VAR1Process(a_base=np.zeros((2, 2)),
                        noise=InnovationLaw("gaussian", 2, 1.0))
    z = generate_path(model, 100000, seed=1)
    lag1 = np.mean(z[1:, 0] * z[:-1, 0])
    assert abs(lag1) < 0.02
    assert abs(z.var() - 1.0) < 0.02


def test_arfima_coefficients_start():
    phis = arfima_coefficients(0.3, 3)
    assert phis[0] == 1.0
    assert abs(phis[1] - 0.3) < 1e-15
    assert abs(phis[2] - 0.195) < 1e-15


def test_arfima_coefficient_tail_normalization():
    # Gamma(d) k^(1-d) phi_k -> 1
    from scipy.special import gammaln

    d = 0.3
    k = 10 ** 4
    phis = arfima_coefficients(d, k + 1)
    scaled = math.exp(gammaln(d)) * k ** (1 - d) * phis[k]
    assert abs(scaled - 1.0) <= 0.05


@given(st.floats(min_value=0.05, max_value=0.45),
       st.integers(min_value=2, max_value=60))
@settings(max_examples=40, deadline=None)
def test_arfima_recursion_property(d, count):
    phis = arfima_coefficients(d, count + 1)
    for k in range(1, count + 1):
        assert math.isclose(phis[k], phis[k - 1] * (k - 1 + d) / k,
                            rel_tol=1e-12)


def test_batch_paths_matches_model_statistics():
    model = MAProcess(coeffs=(0.5,), law=GAUSS)
    z = batch_paths(model, 400, 256, seed=3)
    assert z.shape == (400, 256, 1)
    # var of z_t = 1 + 0.25
    assert abs(z.var() - 1.25) < 0.02
    again = batch_paths(model, 400, 256, seed=3)
    assert np.array_equal(z, again)


def test_theta_iid_exactly_zero():
    model = IIDProcess(GAUSS)
    for tau in (1, 5, 17):
        est = estimate_theta(model, tau, n_mc=10, seed=0)
        assert est.value == 0.0
        assert est.provenance == "exact-zero"


def test_theta_ma_beyond_order_zero():
    model = MAProcess(coeffs=(0.5,), law=GAUSS)
    est = estimate_theta(model, 2, n_mc=10, seed=0)
    assert est.value == 0.0
    assert est.provenance == "exact-zero"


def test_theta_ma_lag_one_closed_form():
    # coupling at tau=1 perturbs only the phi*xi_{-1} term:
    # theta(1) = 0.5 E|xi - xi~| = 0.5 * 2/sqrt(pi), taken without a draw
    model = MAProcess(coeffs=(0.5,), law=GAUSS)
    est = estimate_theta(model, 1, n_mc=4000, seed=2)
    want = 0.5641895835477563
    assert abs(est.value - want) <= 1e-15
    assert est.std_error == 0.0 and est.provenance == "analytic"


def _gaussian_theta_by_loop(model, tau, n_mc, seed):
    """Mean and standard error of |Z_0 - Z~_0| over n_mc explicit coupled
    pairs of a Gaussian moving average: Z_0 = sum_k kernel_k xi_{-k} over
    the L = model.lag(history) + 1 innovations at times -L+1 .. 0, and Z~_0
    the same sum with the innovations at times <= -tau drawn afresh."""
    kernel, scale = model.gaussian_ma()
    steps = model.lag(max(200, 10 * tau)) + 1
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(n_mc):
        xi = scale * rng.standard_normal(steps)  # times 0, -1, ..., -L+1
        coupled = np.concatenate([xi[:tau], scale * rng.standard_normal(steps - tau)])
        vals.append(abs(np.dot(kernel[:steps], xi - coupled)))
    return float(np.mean(vals)), float(np.std(vals) / math.sqrt(n_mc))


@pytest.mark.parametrize("model, taus", [
    (ARFIMAProcess(d_frac=0.3, trunc=300), (1, 4, 16, 64)),
    (MAProcess(coeffs=(0.5, -0.3, 0.2), law=InnovationLaw("gaussian", 1, 1.7)),
     (1, 2, 3)),
], ids=["arfima", "ma-gaussian"])
def test_gaussian_theta_matches_explicit_coupling(model, taus):
    for tau in taus:
        est = estimate_theta(model, tau, n_mc=10, seed=0)
        assert est.provenance == "analytic" and est.std_error == 0.0
        mean, se = _gaussian_theta_by_loop(model, tau, 2000, seed=tau)
        assert abs(est.value - mean) <= 3 * se, tau


def test_theta_draws_for_models_without_a_gaussian_form():
    # uniform MA innovations have no Gaussian moving-average form
    est = estimate_theta(SHIFT_MODELS["ma-uniform"], 1, n_mc=50, seed=0)
    assert est.provenance == "mc" and est.std_error > 0


@pytest.mark.parametrize("model, nominal_rate", [
    (ARFIMAProcess(d_frac=0.3, trunc=300), 0.5),
    (MAProcess(coeffs=(0.5, -0.3, 0.2), law=InnovationLaw("gaussian", 1, 1.7)), 0.5),
    (MAProcess(coeffs=(0.9, 0.5, 0.1), law=GAUSS), 0.3),
], ids=["arfima", "ma-gaussian", "ma-slow"])
def test_analytic_theta_meets_the_dependence_envelope(model, nominal_rate):
    # over the whole truncation the envelope's constant is the smallest
    # that covers every exact theta(tau)
    prof = dependence_params(model, nominal_rate=nominal_rate)
    taus = np.arange(1, model.lag(0) + 1)
    theta = np.array([estimate_theta(model, tau, n_mc=10, history=taus[-1]).value
                      for tau in taus])
    ratio = theta / prof.theta_envelope("z", taus) * prof.c_z.value
    assert np.max(ratio) == pytest.approx(prof.c_z.value, rel=1e-14)


def test_dependence_params_garch_rate():
    prof = dependence_params(GARCHProcess(omega=0.05, alpha=0.10, beta=0.85))
    assert prof.regime == "geometric"
    assert abs(prof.rate_z - 0.95) < 1e-12
    assert not prof.exact_zero_z


def test_dependence_params_arfima_exponent():
    prof = dependence_params(ARFIMAProcess(d_frac=0.3, trunc=4000))
    assert prof.regime == "algebraic"
    assert abs(prof.rate_z - 0.2) < 1e-12


def test_dependence_params_iid_exact_zero():
    prof = dependence_params(IIDProcess(GAUSS))
    assert prof.exact_zero_z and prof.exact_zero_y
    assert prof.regime == "lipschitz"
    assert prof.xi_law_z.kind == "gaussian"
    # theta envelope ignores the nominal constant once exact-zero is set
    assert prof.theta_envelope("z", 3) == 0.0
    assert prof.xi_mean_abs_z == GAUSS.mean_abs_norm()


@pytest.mark.parametrize("kind", ["uniform", "laplace"])
def test_dependence_params_iid_without_closed_form_mean(kind):
    # E||xi||_2 has no closed form beyond d = 1: it is estimated instead
    law = InnovationLaw(kind, 2, 1.0)
    prof = dependence_params(IIDProcess(law), n_mc=2000, seed=3)
    m = moment(IIDProcess(law), 1, n_mc=2000, seed=3)
    assert prof.xi_mean_abs_z == prof.xi_mean_abs_y == m
    assert m.provenance == "mc"


def test_ma_mc_constant_carries_its_relative_std_error():
    # a non-gaussian MA(q) scales the Monte Carlo E||Z_0|| by
    # 2 / nominal_rate^q, and its standard error with it
    model = MAProcess(coeffs=(0.4, 0.1), law=InnovationLaw("uniform", 1, 1.0))
    n_mc, seed = 2000, 3
    c_z = dependence_params(model, n_mc=n_mc, seed=seed).c_z
    m = moment(model, 1, n_mc=n_mc, seed=seed)
    assert c_z.provenance == m.provenance == "mc"
    assert c_z.std_error / c_z.value == pytest.approx(m.std_error / m.value,
                                                      rel=1e-12)


def test_moment_iid_and_garch():
    m = moment(IIDProcess(GAUSS), 2, n_mc=20000, seed=0)
    assert abs(m.value - 1.0) <= 3 * m.std_error
    m2 = moment(GARCHProcess(omega=1.0, alpha=0.0, beta=0.0), 2,
                n_mc=20000, seed=1)
    assert abs(m2.value - 1.0) <= 3 * m2.std_error
    # stationary variance omega / (1 - alpha - beta)
    m3 = moment(GARCHProcess(omega=0.1, alpha=0.1, beta=0.8), 2,
                n_mc=40000, seed=2)
    assert abs(m3.value - 1.0) <= 4 * m3.std_error


def test_analytic_moment_closed_forms():
    assert math.isclose(analytic_moment(IIDProcess(GAUSS), 2).value, 1.0,
                        rel_tol=1e-12)
    u = analytic_moment(IIDProcess(InnovationLaw("uniform", 1, 1.0)), 2)
    assert abs(u.value - 1.0 / 3.0) < 1e-15


def test_var1_second_moment_matches_the_kronecker_solve():
    # tr S for S = A S A^T + Cov(eta), against the vec form
    # (I - A (x) A) vec S = vec Cov(eta) on random matrices of norm < 1
    rng = np.random.default_rng(11)
    for _ in range(60):
        d = int(rng.integers(1, 11))
        a = rng.standard_normal((d, d))
        a *= rng.uniform(0.0, 0.98) / np.linalg.norm(a, 2)
        law = InnovationLaw("gaussian", d, rng.uniform(0.2, 2.0))
        cov_eta = np.eye(d) * law.scale ** 2
        vec = np.linalg.solve(np.eye(d * d) - np.kron(a, a), cov_eta.ravel())
        want = float(np.trace(vec.reshape(d, d)))
        got = analytic_moment(VAR1Process(a, noise=law), 2)
        assert got.provenance == "analytic"
        assert abs(got.value - want) <= 1e-13 * want, d


def test_var1_second_moment_of_a_large_state_is_cheap():
    import tracemalloc

    rng = np.random.default_rng(12)
    a = rng.standard_normal((200, 200))
    model = VAR1Process(0.95 * a / np.linalg.norm(a, 2))
    tracemalloc.start()
    try:
        m2 = analytic_moment(model, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the d^2 x d^2 Kronecker system alone would hold 12.8 GB
    assert peak < 4e6
    assert m2.value >= 200.0


def test_fit_theta_decay_exact_inputs():
    taus = range(1, 9)
    geo = fit_theta_decay([(t, 0.7 * 0.95 ** t) for t in taus], "geometric")
    assert abs(geo.rate - 0.95) < 1e-9
    assert abs(geo.c - 0.7) < 1e-9
    alg = fit_theta_decay([(t, 2.0 * t ** -0.2) for t in taus], "algebraic")
    assert abs(alg.rate - 0.2) < 1e-9
    assert abs(alg.c - 2.0) < 1e-9
    zero = fit_theta_decay([(t, 0.0) for t in taus], "geometric")
    assert zero.exact_zero


def test_theta_envelope_shapes():
    prof = dependence_params(GARCHProcess(omega=0.05, alpha=0.1, beta=0.85))
    vals = [prof.theta_envelope("z", t) for t in (1, 2, 4, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    ratio = vals[1] / vals[0]
    assert abs(ratio - 0.95) < 1e-12


@given(st.sampled_from(["geometric", "polynomial"]),
       st.floats(min_value=0.05, max_value=0.9))
@settings(max_examples=30, deadline=None)
def test_weighting_sequences_decrease(kind, raw):
    param = raw if kind == "geometric" else 1.0 + 4.0 * raw
    w = WeightingSequence(kind, param)
    vals = [w.value(j) for j in range(6)]
    assert vals[0] == 1.0
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))
    assert w.l1_norm >= sum(vals) - 1e-12


def test_polynomial_weights_l1_norm_is_zeta():
    # sum_j (1 + j)^-p = zeta(p), computed without scipy
    from scipy.special import zeta

    pairs = [(2.0, math.pi ** 2 / 6), (4.0, math.pi ** 4 / 90)]
    pairs += [(p, float(zeta(p, 1))) for p in (1.01, 1.5, 3.0, 10.0)]
    for p, want in pairs:
        got = WeightingSequence("polynomial", p).l1_norm
        assert abs(got - want) <= 1e-13 * want, p


def test_model_spec_roundtrip():
    models = [
        IIDProcess(InnovationLaw("laplace", 2, 0.7)),
        MAProcess(coeffs=(0.4, 0.1), law=GAUSS),
        VAR1Process(a_base=np.array([[0.3, 0.0], [0.1, 0.2]]),
                    noise=InnovationLaw("gaussian", 2, 1.0)),
        VAR1Process(a_base=np.array([[0.4]]), noise=GAUSS,
                    scale_law=InnovationLaw("uniform", 1, 1.0)),
        GARCHProcess(omega=0.1, alpha=0.05, beta=0.9),
        GARCHProcess(omega=0.1, alpha=0.05, beta=0.9, representation="squared"),
        ARFIMAProcess(d_frac=0.25, trunc=500),
    ]
    for model in models:
        spec = model_to_spec(model)
        back = model_from_spec(spec)
        assert model_to_spec(back) == spec
        # equal specs give equal models, VAR(1) matrices in 1-d and 2-d too
        assert back == model and hash(back) == hash(model)
    assert len({model_from_spec(model_to_spec(m)) for m in models}) == len(models)
    with pytest.raises(ValueError):
        model_from_spec({"kind": "iid", "bogus": 1})


def test_gaussian_ma_forms():
    iid = IIDProcess(InnovationLaw("gaussian", 2, 0.7))
    kernel, scale = iid.gaussian_ma()
    assert kernel.tolist() == [1.0] and scale == 0.7
    ma = MAProcess(coeffs=(0.5, -0.3), law=InnovationLaw("gaussian", 1, 0.6))
    kernel, scale = ma.gaussian_ma()
    assert kernel.tolist() == [1.0, 0.5, -0.3] and scale == 0.6
    arfima = ARFIMAProcess(d_frac=0.3, trunc=50)
    kernel, scale = arfima.gaussian_ma()
    assert np.array_equal(kernel, arfima_coefficients(0.3, 50)) and scale == 1.0
    for model in (IIDProcess(InnovationLaw("uniform", 1, 1.0)),
                  MAProcess(coeffs=(0.5,), law=InnovationLaw("laplace", 1, 1.0)),
                  VAR1Process(a_base=np.array([[0.5]]), noise=GAUSS),
                  GARCHProcess(omega=0.05, alpha=0.10, beta=0.85)):
        assert model.gaussian_ma() is None


@pytest.mark.parametrize("scale", [math.inf, math.nan, 0.0, -1.0])
def test_innovation_law_rejects_a_bad_scale(scale):
    with pytest.raises(ValueError, match="scale"):
        InnovationLaw("gaussian", 1, scale)


@pytest.mark.parametrize("field, value", [
    ("l_z", -1.0), ("l_y", -0.5), ("l_z", math.inf),
    ("xi_mean_abs_z", Moment(-0.1)), ("xi_mean_abs_y", Moment(-2.0)),
])
def test_dependence_profile_rejects_negative_lipschitz_data(field, value):
    prof = dependence_params(IIDProcess(GAUSS))
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(prof, **{field: value})


def test_moment_validation():
    with pytest.raises(ValueError):
        Moment(float("nan"))
    with pytest.raises(ValueError):
        Moment(1.0, -0.5)


# ---------------------------------------------------------------------------
# the Bernoulli-shift protocol: one innovations/transform pair per model
# ---------------------------------------------------------------------------

SHIFT_MODELS = {
    "iid-laplace-2d": IIDProcess(InnovationLaw("laplace", 2, 0.7)),
    "ma-gaussian": MAProcess(coeffs=(0.5, -0.3, 0.2), law=GAUSS),
    "ma-uniform": MAProcess(coeffs=(0.4, 0.1), law=InnovationLaw("uniform", 1, 1.0)),
    "var1-2d": VAR1Process(a_base=np.array([[0.3, 0.1], [0.0, 0.4]]),
                           noise=InnovationLaw("gaussian", 2, 1.0)),
    "var1-1d-scaled": VAR1Process(a_base=np.array([[0.5]]), noise=GAUSS,
                                  scale_law=InnovationLaw("uniform", 1, 1.0)),
    "garch-returns": GARCHProcess(omega=0.05, alpha=0.10, beta=0.85),
    "garch-squared": GARCHProcess(omega=0.05, alpha=0.10, beta=0.85,
                                  representation="squared"),
    "arfima": ARFIMAProcess(d_frac=0.3, trunc=300),
}


def test_process_spec_defaults_and_round_trip():
    # a spec omits what its model defaults: a standard Gaussian law, VAR(1)
    # noise of the matrix's dimension, GARCH returns and ARFIMA's trunc
    assert model_from_spec({"kind": "iid"}).law == GAUSS
    assert model_from_spec({"kind": "ma", "coeffs": [0.5, -0.2]}).law == GAUSS
    var1 = model_from_spec({"kind": "var1", "a": [[0.3, 0.0], [0.1, 0.2]]})
    assert var1.noise == InnovationLaw("gaussian", 2, 1.0)
    assert var1.scale_law is None
    garch = model_from_spec({"kind": "garch11", "omega": 0.05, "alpha": 0.1,
                             "beta": 0.85})
    assert garch.representation == "returns"
    assert model_from_spec({"kind": "arfima", "d": 0.3}).trunc == 10_000
    for model in SHIFT_MODELS.values():
        spec = model_to_spec(model)
        assert model_to_spec(model_from_spec(spec)) == spec


def test_null_scale_innovation_leaves_var1_unscaled():
    var1 = model_from_spec({"kind": "var1", "a": [[0.5]],
                            "scale_innovation": None})
    assert var1.scale_law is None and var1.noise == GAUSS


@pytest.mark.parametrize("name", sorted(SHIFT_MODELS))
def test_generate_path_is_first_batch_path(name):
    model = SHIFT_MODELS[name]
    for burn_in in (None, 0, 7):
        path = generate_path(model, 40, burn_in, seed=4)
        assert path.shape == (40, model.dim)
        assert np.array_equal(path, batch_paths(model, 1, 40, burn_in, seed=4)[0])


def _mc_blocks(n_mc, trial_floats, seed):
    """(count, rng) of each block of a Monte Carlo mean, in trial order:
    blocks of min(_MC_BLOCK, _MC_FLOATS // trial_floats) consecutive trials,
    block j drawing from SeedSequence(seed).spawn(n_blocks)[j]."""
    size = max(1, min(processes._MC_BLOCK, processes._MC_FLOATS // trial_floats))
    counts = [min(size, n_mc - lo) for lo in range(0, n_mc, size)]
    streams = np.random.SeedSequence(seed).spawn(len(counts))
    return [(count, np.random.Generator(np.random.PCG64(stream)))
            for count, stream in zip(counts, streams)]


@pytest.mark.parametrize("name", sorted(SHIFT_MODELS))
def test_moment_is_mean_over_one_step_paths(monkeypatch, name):
    model = SHIFT_MODELS[name]
    n_mc, seed = 40, 9
    # one block of 40 trials, then blocks of 7 and a ragged 5
    for block in (processes._MC_BLOCK, 7):
        monkeypatch.setattr(processes, "_MC_BLOCK", block)
        for burn_in in (None, 7):
            steps = processes._lag(model, burn_in) + 1
            trial = model.innovations(np.random.default_rng(0), 1, steps).size
            for order in (1, 2):
                m = moment(model, order, n_mc=n_mc, seed=seed, burn_in=burn_in)
                # default_rng returns a Generator unaltered: block j's
                # trials are the one-step paths its stream draws at once
                want = np.mean([
                    np.linalg.norm(path[-1]) ** order
                    for count, rng in _mc_blocks(n_mc, trial, seed)
                    for path in batch_paths(model, count, 1, burn_in, rng)])
                assert abs(m.value - want) <= 1e-12 * max(1.0, want)
                assert m.provenance == "mc"


def test_mc_standard_error_of_two_trials_is_half_their_distance():
    # the sample standard deviation (ddof 1) of two values x1, x2 is
    # |x1 - x2| / sqrt(2), so the standard error of their mean is
    # |x1 - x2| / 2
    model, seed = SHIFT_MODELS["garch-squared"], 5
    trial = model.innovations(np.random.default_rng(0), 1,
                              processes._lag(model, None) + 1).size
    x1, x2 = [np.linalg.norm(path[-1])
              for count, rng in _mc_blocks(2, trial, seed)
              for path in batch_paths(model, count, 1, None, rng)]
    m = moment(model, 1, n_mc=2, seed=seed)
    assert x1 != x2
    assert m.value == pytest.approx((x1 + x2) / 2.0, rel=1e-12)
    assert m.std_error == pytest.approx(abs(x1 - x2) / 2.0, rel=1e-12)


def _coupled_theta_by_loop(tau, history, n_mc, seed, step, draw):
    """theta(tau) from two explicit trajectories per trial: trial i is row
    i % b of the draw(rng, count) of its block (count trials of
    2 (history + 1) innovations each, see _mc_blocks); the first half of a
    row drives the original path and the second half, with the original's
    last tau innovations put back, the coupled one."""
    steps = history + 1
    trial = 2 * steps * draw(np.random.default_rng(0), 1)[0].size
    vals = []
    for count, rng in _mc_blocks(n_mc, trial, seed):
        block = draw(rng, count * 2 * steps)
        for xi in block.reshape((count, 2 * steps) + block.shape[1:]):
            orig = xi[:steps]
            coupled = np.concatenate([xi[steps:2 * steps - tau], orig[steps - tau:]])
            vals.append(np.linalg.norm(step(orig) - step(coupled)))
    return float(np.mean(vals))


@pytest.mark.parametrize("name", ["var1-2d", "var1-1d-scaled"])
def test_var1_theta_matches_explicit_coupling(monkeypatch, name):
    model = SHIFT_MODELS[name]
    d = model.noise.dim

    def draw(rng, count):
        # eta_t first, then the multipliers s_t, in one stream
        eta = model.noise.sample(rng, count)
        s = (np.ones((count, 1)) if model.scale_law is None
             else model.scale_law.sample(rng, count))
        return np.hstack([eta, s])

    def step(xi):
        z = np.zeros(d)
        for eta_t, s_t in zip(xi[:, :d], xi[:, d]):
            z = s_t * (model.a_base @ z) + eta_t
        return z

    # one block of 60 trials, then blocks of 7 and a ragged 4
    for block in (processes._MC_BLOCK, 7):
        monkeypatch.setattr(processes, "_MC_BLOCK", block)
        for tau in (1, 4):
            est = estimate_theta(model, tau, n_mc=60, history=25, seed=3)
            want = _coupled_theta_by_loop(tau, 25, 60, 3, step, draw)
            assert est.provenance == "mc"
            assert abs(est.value - want) <= 1e-12 * max(1.0, want)


@pytest.mark.parametrize("representation", ["returns", "squared"])
def test_garch_theta_matches_explicit_coupling(monkeypatch, representation):
    model = GARCHProcess(omega=0.05, alpha=0.10, beta=0.85,
                         representation=representation)

    def step(eps):
        s2 = r2 = model.stationary_variance
        for e in eps:
            s2 = model.omega + model.alpha * r2 + model.beta * s2
            r2 = s2 * e ** 2
        r = math.sqrt(s2) * eps[-1]
        return np.array([r ** 2, s2] if representation == "squared" else [r])

    for block in (processes._MC_BLOCK, 7):
        monkeypatch.setattr(processes, "_MC_BLOCK", block)
        for tau in (1, 6):
            est = estimate_theta(model, tau, n_mc=60, history=30, seed=11)
            want = _coupled_theta_by_loop(
                tau, 30, 60, 11, step,
                lambda rng, count: rng.standard_normal(count))
            assert est.provenance == "mc"
            assert abs(est.value - want) <= 1e-12 * max(1.0, want)


def _loop_last(model, xi):
    # the time loop's last value: a two-step transform keeps it last
    return model.transform(xi, 2)[..., -1:, :]


@pytest.mark.parametrize("representation", ["returns", "squared"])
def test_garch_last_value_matches_the_time_loop(representation):
    persistent = GARCHProcess(omega=0.05, alpha=0.10, beta=0.85,
                              representation=representation)
    # alpha = beta = 0 pins the variance at omega
    flat = GARCHProcess(omega=0.7, alpha=0.0, beta=0.0,
                        representation=representation)
    rng = np.random.default_rng(4)
    for batch in ((5,), (2, 3)):
        for model in (persistent, flat):
            # one step is the loop's first: beta v + (alpha v + omega)
            v = model.stationary_variance
            s2 = np.full(batch + (1,), model.beta * v + (model.alpha * v + model.omega))
            xi = rng.standard_normal(batch + (1, 1))
            r = np.sqrt(s2) * xi[..., 0]
            want = np.stack([r ** 2, s2] if model.dim == 2 else [r], axis=-1)
            assert np.array_equal(model.transform(xi, 1), want)
        for steps in (2, 63, 64, 65, 129, 1281):
            xi = rng.standard_normal(batch + (steps, 1))
            got = persistent.transform(xi, 1)
            assert got.shape == batch + (1, persistent.dim)
            np.testing.assert_allclose(got, _loop_last(persistent, xi),
                                       rtol=1e-14, atol=0)
            assert np.array_equal(flat.transform(xi, 1), _loop_last(flat, xi))


@pytest.mark.parametrize("representation", ["returns", "squared"])
def test_garch_last_value_on_a_long_history_near_unit_persistence(representation):
    # alpha + beta = 0.99 over 20,001 steps: the products of the a_t may
    # underflow, nothing may overflow or turn invalid
    model = GARCHProcess(omega=0.01, alpha=0.2, beta=0.79,
                         representation=representation)
    xi = np.random.default_rng(9).standard_normal((2, 3, 20_001, 1))
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        got = model.transform(xi, 1)
        want = _loop_last(model, xi)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_arfima_burn_in_is_truncation_capped_at_trunc():
    model = ARFIMAProcess(d_frac=0.3, trunc=20)
    default = batch_paths(model, 3, 16, seed=2)
    for burn_in in (0, 20, 50):
        assert np.array_equal(batch_paths(model, 3, 16, burn_in, seed=2), default)
    assert not np.array_equal(batch_paths(model, 3, 16, 10, seed=2), default)
    assert [model.lag(b) for b in (0, 5, 20, 50)] == [20, 5, 20, 20]


def test_theta_exact_zero_beyond_the_models_lag():
    model = ARFIMAProcess(d_frac=0.3, trunc=5)
    beyond = estimate_theta(model, 6, n_mc=10, seed=0)
    assert beyond.value == 0.0 and beyond.provenance == "exact-zero"
    at = estimate_theta(model, 5, n_mc=10, seed=0)
    assert at.value > 0.0 and at.provenance == "analytic"


# ---------------------------------------------------------------------------
# chunking: FFT paths and Monte Carlo means do not depend on the chunk size
# ---------------------------------------------------------------------------

FILTER_MODELS = {
    "ma": (MAProcess(coeffs=(0.5, -0.3, 0.2), law=GAUSS),
           np.array([1.0, 0.5, -0.3, 0.2])),
    "arfima": (ARFIMAProcess(d_frac=0.3, trunc=50),
               arfima_coefficients(0.3, 50)),
}


@pytest.mark.parametrize("name", sorted(FILTER_MODELS))
@pytest.mark.parametrize("n", [1, 2, 20, 80])
def test_filter_matches_explicit_convolution(monkeypatch, name, n):
    model, kernel = FILTER_MODELS[name]
    lag, n_paths, seed = kernel.size - 1, 7, 3
    xi = model.innovations(np.random.default_rng(seed), n_paths, lag + n)[..., 0]
    want = np.stack([np.convolve(row, kernel)[lag:lag + n] for row in xi])
    # a few FFT rows per chunk: 7 paths cross several chunks, the last ragged
    monkeypatch.setattr(processes, "_CHUNK_FLOATS", 3 * (lag + n) + 1)
    got = batch_paths(model, n_paths, n, seed=seed)
    assert got.shape == (n_paths, n, 1)
    assert np.max(np.abs(got[..., 0] - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 80])
def test_filter_keeps_only_its_values(n):
    # the n kept values of a block, bit for bit those of the inverse
    # transform, in an array of their own: a streamed block does not hold
    # its whole (rows, size) inverse transform alive
    kernel = arfima_coefficients(0.3, 50)
    x = np.random.default_rng(4).standard_normal((5, kernel.size + n + 30))
    got = processes._filter(x, kernel, n)
    steps = x.shape[-1]
    size = processes._next_fast_len(steps)
    spec = np.fft.rfft(x, size) * np.fft.rfft(kernel, size)
    assert got.base is None and got.shape == (5, n, 1)
    kept = np.fft.irfft(spec, size)[..., steps - n:steps, None]
    assert np.array_equal(got, kept)


# every model but var1-1d-scaled draws its innovations in one call, so the
# rows do not depend on how batch_paths splits them
ONE_DRAW_MODELS = sorted(set(SHIFT_MODELS) - {"var1-1d-scaled"})


@pytest.mark.parametrize("name", ONE_DRAW_MODELS)
def test_batch_paths_do_not_depend_on_chunk_size(monkeypatch, name):
    model = SHIFT_MODELS[name]
    n_paths, n, burn_in = 7, 20, 30
    steps = model.lag(burn_in) + n
    default = batch_paths(model, n_paths, n, burn_in, seed=6)
    assert default.shape == (n_paths, n, model.dim)
    # one row per chunk, then chunks of 3, 3 and a ragged 1
    for floats in (1, 3 * steps + 1):
        monkeypatch.setattr(processes, "_CHUNK_FLOATS", floats)
        assert np.array_equal(batch_paths(model, n_paths, n, burn_in, seed=6), default)


def test_batch_paths_never_holds_all_innovations():
    import tracemalloc

    model = ARFIMAProcess(d_frac=0.3, trunc=4000)
    n_paths, n = 3000, 200
    tracemalloc.start()
    try:
        z = batch_paths(model, n_paths, n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert z.shape == (n_paths, n, 1)
    # below the (3000, 4200) innovation array that one draw would hold
    assert peak < n_paths * (model.trunc + n) * 8


CHUNK_MODELS = ("iid-laplace-2d", "ma-uniform", "garch-squared", "arfima")


@pytest.mark.parametrize("name", CHUNK_MODELS)
def test_mc_estimates_do_not_depend_on_chunk_size(monkeypatch, name):
    model = SHIFT_MODELS[name]

    def estimates():
        return (moment(model, 1, n_mc=301, seed=3, burn_in=20),
                moment(model, 2, n_mc=301, seed=3, burn_in=20),
                estimate_theta(model, 2, n_mc=301, history=30, seed=5))

    default = estimates()
    for floats in (1, 1000):
        monkeypatch.setattr(processes, "_CHUNK_FLOATS", floats)
        assert estimates() == default


class _CountingPool(concurrent.futures.ThreadPoolExecutor):
    """A ThreadPoolExecutor that records its max_workers in `sizes`."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers)


@pytest.mark.parametrize("name", sorted(SHIFT_MODELS))
def test_mc_estimates_do_not_depend_on_workers(monkeypatch, name):
    model = SHIFT_MODELS[name]

    def estimates():
        return (moment(model, 1, n_mc=301, seed=3, burn_in=20),
                moment(model, 2, n_mc=301, seed=3, burn_in=20),
                estimate_theta(model, 2, n_mc=301, history=30, seed=5))

    # 19 blocks of at most 16 trials; the threads switch often, so a block
    # whose values were lost or misplaced would show
    monkeypatch.setattr(processes, "_MC_BLOCK", 16)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _CountingPool)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # first with the workers this process's CPU affinity allows
        results.append(estimates())
        for workers in (1, 2, 3):
            monkeypatch.setattr(processes, "_usable_cpus", lambda: workers)
            _CountingPool.sizes = []
            results.append(estimates())
            assert _CountingPool.sizes and set(_CountingPool.sizes) == {workers}
    finally:
        sys.setswitchinterval(interval)
    assert all(result == results[0] for result in results)


def test_mc_blocks_stay_within_the_float_budget(monkeypatch):
    model = GARCHProcess(omega=0.05, alpha=0.10, beta=0.85)
    shapes = []
    innovations = GARCHProcess.innovations

    def recording(self, rng, *shape):
        xi = innovations(self, rng, *shape)
        shapes.append(xi.shape)
        return xi

    monkeypatch.setattr(GARCHProcess, "innovations", recording)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _CountingPool)
    monkeypatch.setattr(processes, "_usable_cpus", lambda: 64)
    _CountingPool.sizes = []
    # a history of 10_000 steps: 20_002 floats a trial
    est = estimate_theta(model, 1000, n_mc=100, history=10_000, seed=0)
    assert est.provenance == "mc"
    blocks = [shape for shape in shapes if shape[0] > 0]
    assert len(blocks) > 2 and sum(shape[0] for shape in blocks) == 100
    block_floats = max(math.prod(shape) for shape in blocks)
    assert block_floats <= processes._MC_FLOATS
    # the workers' innovations in flight stay within _CHUNK_FLOATS
    assert _CountingPool.sizes and max(_CountingPool.sizes) > 1
    assert max(_CountingPool.sizes) * block_floats <= processes._CHUNK_FLOATS


@pytest.mark.parametrize("name", ["var1-1d-scaled", "garch-squared", "arfima"])
def test_mc_streams_descend_from_one_seed_sequence(monkeypatch, name):
    model = SHIFT_MODELS[name]
    seeds = []
    pcg64 = np.random.PCG64

    def recording_pcg64(seed):
        seeds.append(seed)
        return pcg64(seed)

    def no_default_rng(seed=None):
        raise AssertionError("a Monte Carlo mean builds no default_rng")

    monkeypatch.setattr(np.random, "PCG64", recording_pcg64)
    monkeypatch.setattr(np.random, "default_rng", no_default_rng)
    probes = [lambda: moment(model, 1, n_mc=50, seed=7, burn_in=10),
              lambda: moment(model, 2, n_mc=50, seed=7)]
    theta = lambda: estimate_theta(model, 2, n_mc=50, history=20, seed=7)
    if model.gaussian_ma() is None:
        probes.append(theta)
    else:
        # ARFIMA's theta is exact: it builds no generator at all
        assert theta().provenance == "analytic" and seeds == []
    for block, n_blocks in ((processes._MC_BLOCK, 1), (7, 8)):
        monkeypatch.setattr(processes, "_MC_BLOCK", block)
        for estimate in probes:
            seeds.clear()
            assert estimate().provenance == "mc"
            # SeedSequence(7) itself, then each of its n_blocks children once
            assert all(isinstance(s, np.random.SeedSequence) and s.entropy == 7
                       for s in seeds)
            assert sorted(s.spawn_key for s in seeds) == (
                [()] + [(j,) for j in range(n_blocks)])


def test_norm_power_moments_past_the_float_range_are_inf():
    # the even Gaussian moment's integer d (d + 2) ... (d + q - 2), the odd
    # one's exp(lgamma) and Laplace's Gamma(q + 1) each outgrow a float
    gauss, laplace = GAUSS, InnovationLaw("laplace", 1, 1.0)
    assert math.isfinite(gauss.norm_power_moment(300))
    assert math.isfinite(gauss.norm_power_moment(301.0))
    assert math.isfinite(laplace.norm_power_moment(170))
    for q in (302, 400, 10 ** 6):
        assert gauss.norm_power_moment(q) == math.inf, q
    for q in (303.0, 401.0, 1e6 + 1.5):
        assert gauss.norm_power_moment(q) == math.inf, q
        assert InnovationLaw("gaussian", 3, 1.0).norm_power_moment(q) == math.inf
    for q in (171, 200, 1e5):
        assert laplace.norm_power_moment(q) == math.inf, q
    assert InnovationLaw("uniform", 1, 3.0).norm_power_moment(700) == math.inf


def test_norm_power_moments_of_a_small_scale_stay_finite():
    # the unit moment leaves the float range, s^q brings it back
    for law, q in ((InnovationLaw("gaussian", 1, 0.1), 400),
                   (InnovationLaw("gaussian", 2, 0.1), 401.0),
                   (InnovationLaw("laplace", 1, 1e-3), 200)):
        d = law.dim
        if law.kind == "gaussian":
            log_unit = (q / 2 * math.log(2.0) + math.lgamma((d + q) / 2)
                        - math.lgamma(d / 2))
        else:
            log_unit = math.lgamma(q + 1.0)
        want = math.exp(q * math.log(law.scale) + log_unit)
        assert law.norm_power_moment(q) == pytest.approx(want, rel=1e-12)


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    for n in range(1, 20001):
        assert processes._next_fast_len(n) == next_fast_len(n, real=True), n


def test_gaussian_even_moments_are_exact():
    # E||xi||^2 = d s^2 and E||xi||^4 = d (d + 2) s^4, bit for bit
    for s in (1.0, 0.7, 1.3):
        for d in range(1, 9):
            law = InnovationLaw("gaussian", d, s)
            assert law.norm_power_moment(2) == d * s ** 2
            assert law.norm_power_moment(4.0) == d * (d + 2) * s ** 4
            assert law.second_moment() == Moment(d * s ** 2, 0.0, "analytic")


def test_special_function_swaps_match_scipy():
    # math.lgamma / math.erf stand in for scipy.special on scalar arguments
    from scipy.special import erf, gammaln

    from rcbounds.bounds import expected_scale_caps
    from rcbounds.learning import _folded_normal_mean

    def close(got, want):
        return abs(got - want) <= 1e-14 * abs(want)

    for d in range(1, 9):
        row = math.sqrt(2.0) * math.exp(gammaln((d + 1) / 2) - gammaln(d / 2))
        e_c, _ = expected_scale_caps(5, d, "gaussian")
        assert close(e_c, 5 * row)
        law = InnovationLaw("gaussian", d, 1.3)
        for q in (0.5, 1.0, 2.0, 3.7):
            want = (1.3 ** q * 2.0 ** (q / 2)
                    * np.exp(gammaln((d + q) / 2) - gammaln(d / 2)))
            assert close(law.norm_power_moment(q), want)
    laplace = InnovationLaw("laplace", 1, 0.7)
    for q in (0.5, 1.0, 2.0, 3.7):
        assert close(laplace.norm_power_moment(q),
                     0.7 ** q * np.exp(gammaln(q + 1.0)))
    for mu, var in ((0.3, 1.2), (-2.0, 0.5), (5.0, 0.1), (0.0, 2.0),
                    (1e-3, 3.0)):
        want = (np.sqrt(2.0 * var / np.pi) * np.exp(-mu ** 2 / (2.0 * var))
                + mu * erf(mu / np.sqrt(2.0 * var)))
        assert close(_folded_normal_mean(mu, var), want)


@pytest.mark.parametrize("model, orders", [
    (MAProcess((0.6, -0.3), InnovationLaw("gaussian", 1, 1.5)), (1, 2)),
    (VAR1Process(((0.5, 0.2), (-0.1, 0.3))), (2,)),
    (GARCHProcess(omega=0.05, alpha=0.1, beta=0.85), (2,)),
    (ARFIMAProcess(d_frac=0.3, trunc=300), (1, 2)),
], ids=["gaussian_ma", "var1", "garch", "arfima"])
def test_analytic_moments_match_monte_carlo(model, orders):
    for order in (1, 2):
        exact = analytic_moment(model, order)
        if order not in orders:
            assert exact is None
            continue
        assert exact.provenance == "analytic" and exact.std_error == 0.0
        mc = moment(model, order, n_mc=20_000, seed=order)
        assert abs(exact.value - mc.value) <= 4.0 * mc.std_error


@pytest.mark.parametrize("scale_law, mean_abs_s", [
    (None, 1.0), (InnovationLaw("uniform", 1, 1.0), 0.5),
], ids=["fixed", "uniform_scale"])
def test_var1_dependence_is_geometric_at_the_coefficient_norm(scale_law,
                                                              mean_abs_s):
    # rate E|s| |||A|||_2 and constant 2 E||Z_0||, a Monte Carlo estimate
    # since no closed form of E||Z_0|| exists
    model = VAR1Process(((0.5, 0.2), (-0.1, 0.3)), scale_law=scale_law)
    rate = mean_abs_s * np.linalg.norm(np.array(model.a_base), 2)
    prof = dependence_params(model, n_mc=2000, seed=6)
    m1 = moment(model, 1, n_mc=2000, seed=6)
    assert prof.regime == "geometric"
    assert prof.rate_z == prof.rate_y == pytest.approx(rate, rel=1e-14)
    assert prof.c_z == prof.c_y == Moment(2 * m1.value, 2 * m1.std_error, "mc")
    assert not (prof.exact_zero_z or prof.exact_zero_y)
