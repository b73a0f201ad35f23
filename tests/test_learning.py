import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcbounds.learning import (
    IndependentJoint,
    LossFunction,
    TeacherJoint,
    empirical_risk,
    exact_risk,
    fit_readout_erm,
    idealized_empirical_risk,
    loss_value,
    statistical_risk_mc,
)
from rcbounds import learning
from rcbounds.learning import (
    _gaussian_risks,
    _lrc_kappa_chain,
    _mean_abs_cf,
    _stationary_covariance,
)
from rcbounds.processes import (
    ARFIMAProcess,
    GARCHProcess,
    IIDProcess,
    InnovationLaw,
    MAProcess,
    VAR1Process,
)
from rcbounds.reservoir import (
    Hypothesis,
    LinearClass,
    LinearReservoir,
    Readout,
    sample_from_class,
)
from rcbounds.processes import Moment

GAUSS = InnovationLaw("gaussian", 1, 1.0)
ABS = LossFunction("absolute", l_l=1.0)


def scalar_hypothesis(a=0.5, c=1.0, w=1.0, bias=0.0):
    res = LinearReservoir(np.array([[a]]), np.array([[c]]), np.zeros(1))
    return Hypothesis(res, Readout(np.array([[w]]), np.array([bias])))


def test_loss_values():
    assert loss_value(ABS, np.array([2.0]), np.array([0.0])) == 2.0
    for kind in ("absolute", "huber", "pinball", "squared"):
        L = LossFunction(kind, l_l=1.0)
        x = np.array([0.3, -0.7])
        assert loss_value(L, x, x) == 0.0
    hub = LossFunction("huber", l_l=1.0, delta=1.0)
    # quadratic branch: u^2 / (2 delta) at u = 0.5
    assert abs(loss_value(hub, np.array([0.5]), np.array([0.0])) - 0.125) < 1e-15


def test_loss_scaling_by_dimension():
    # m coordinates share the budget L_L / sqrt(m)
    x = np.array([1.0, 1.0, 1.0, 1.0])
    val = loss_value(ABS, x, np.zeros(4))
    assert abs(val - 4.0 / 2.0) < 1e-15


def test_pinball_asymmetry():
    pin = LossFunction("pinball", l_l=1.0, quantile=0.3)
    up = loss_value(pin, np.array([1.0]), np.array([0.0]))
    down = loss_value(pin, np.array([0.0]), np.array([1.0]))
    assert abs(up - 0.3) < 1e-15
    assert abs(down - 0.7) < 1e-15


@given(st.integers(min_value=1, max_value=5),
       st.sampled_from(["absolute", "huber", "pinball"]),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=200, deadline=None)
def test_loss_lipschitz_property(m, kind, seed):
    rng = np.random.default_rng(seed)
    L = LossFunction(kind, l_l=1.3, delta=0.7, quantile=0.2)
    x, y, xb, yb = rng.normal(0, 2, (4, m))
    lhs = abs(loss_value(L, x, y) - loss_value(L, xb, yb))
    rhs = 1.3 * (np.linalg.norm(x - xb) + np.linalg.norm(y - yb))
    assert lhs <= rhs + 1e-12


def test_empirical_risk_zero_functional():
    hyp = scalar_hypothesis(w=0.0)
    y = np.array([[1.0], [-2.0], [0.5], [0.0]])
    z = np.zeros((4, 1))
    want = np.abs(y).mean()
    assert abs(empirical_risk(hyp, z, y, ABS) - want) < 1e-15


def test_empirical_risk_single_sample():
    hyp = scalar_hypothesis()
    z = np.array([[0.8]])
    y = np.array([[0.1]])
    # one step from zero state: x = 0.8, H = 0.8
    assert abs(empirical_risk(hyp, z, y, ABS) - 0.7) < 1e-15


def test_empirical_risk_three_step_unroll():
    hyp = scalar_hypothesis(a=0.5, c=1.0)
    z = np.array([[1.0], [-0.5], [2.0]])
    y = np.array([[0.5], [1.0], [-1.0]])
    # states: 1, 0, 2; losses |1-0.5|, |0-1|, |2+1| -> mean 1.5
    assert abs(empirical_risk(hyp, z, y, ABS) - 1.5) < 1e-15


def test_idealized_risk_empty_prefix_matches_truncated():
    hyp = scalar_hypothesis(a=0.4)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(20, 1))
    y = rng.normal(size=(20, 1))
    a = empirical_risk(hyp, z, y, ABS)
    b = idealized_empirical_risk(hyp, z, y, np.zeros((0, 1)), ABS)
    assert a == b


def test_idealized_risk_prefix_depth_bound():
    # extending the pre-history beyond depth P moves the risk by at most
    # L_L * l_h * 2 r^P m_f: the two evaluations share the most recent
    # P window-plus-prefix coordinates
    hyp = scalar_hypothesis(a=0.5, c=1.0)
    rng = np.random.default_rng(1)
    z = rng.uniform(-1, 1, (30, 1))
    y = rng.uniform(-1, 1, (30, 1))
    deep = rng.uniform(-1, 1, (90, 1))
    r_full = idealized_empirical_risk(hyp, z, y, deep, ABS)
    for p in (5, 20, 40):
        r_cut = idealized_empirical_risk(hyp, z, y, deep[-p:], ABS)
        m_f = 2.0
        cap = 1.0 * 1.0 * 2.0 * 0.5 ** p * m_f
        assert abs(r_full - r_cut) <= cap + 1e-15


def test_statistical_risk_constant_match():
    res = LinearReservoir(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1))
    hyp = Hypothesis(res, Readout(np.zeros((1, 1)), np.array([0.7])))
    teacher = Hypothesis(res, Readout(np.zeros((1, 1)), np.array([0.7])))
    joint = TeacherJoint(IIDProcess(GAUSS), teacher)
    est = statistical_risk_mc(hyp, joint, ABS, n_mc=200, seed=0)
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_statistical_risk_zero_vs_normal_targets():
    hyp = scalar_hypothesis(w=0.0)
    joint = IndependentJoint(IIDProcess(GAUSS), GAUSS)
    est = statistical_risk_mc(hyp, joint, ABS, n_mc=4000, seed=1)
    want = math.sqrt(2.0 / math.pi)
    assert abs(est.value - want) <= 3 * est.std_error
    assert est.std_error > 0


UNIF = InnovationLaw("uniform", 1, 1.0)
TEACHER = scalar_hypothesis(a=0.3, c=0.7, w=1.0, bias=-0.2)


def test_sample_joint_is_its_blocks_put_together(monkeypatch):
    # the pairs are batch_paths' rows, the teacher's final outputs of them
    # and noise from the stream seed + n_mc + 1, whatever the block size:
    # one block of all 50 pairs, or blocks of 7 and a last one of 1
    from rcbounds.processes import batch_paths
    from rcbounds.reservoir import final_outputs

    klass = LinearClass(n_state=3, n_input=2, n_out=1, lam_a=0.6, lam_c=0.6,
                        lam_zeta=0.3, l_h=1.0, l_h0=0.2, input_bound=1.0,
                        input_second_moment=Moment(2 / 3, 0.0, "analytic"))
    teacher = sample_from_class(klass, n=1, seed=4)[0]
    joint = TeacherJoint(IIDProcess(InnovationLaw("uniform", 2, 1.0)),
                         teacher, InnovationLaw("gaussian", 1, 0.1))
    z = batch_paths(joint.z_model, 50, 12, seed=3)
    y = (final_outputs(teacher.reservoir, z, [teacher.readout])[0]
         + joint.noise.sample(np.random.default_rng(3 + 50 + 1), 50))
    for rows, sizes in ((50, [50]), (7, [7] * 7 + [1])):
        monkeypatch.setattr(learning, "_MC_FLOATS", rows * 12 * 2)
        blocks = list(learning._joint_blocks(joint, 50, 12, seed=3))
        assert [len(zb) for zb, _ in blocks] == sizes
        got_z, got_y = learning.sample_joint(joint, 50, 12, seed=3)
        assert np.array_equal(got_z, z) and np.array_equal(got_y, y)


@pytest.mark.parametrize("joint", [
    IndependentJoint(IIDProcess(GAUSS), GAUSS),
    IndependentJoint(IIDProcess(UNIF), InnovationLaw("uniform", 1, 0.8)),
    TeacherJoint(IIDProcess(GAUSS), TEACHER, InnovationLaw("gaussian", 1, 0.3)),
    TeacherJoint(IIDProcess(UNIF), TEACHER, InnovationLaw("gaussian", 1, 0.3)),
    TeacherJoint(IIDProcess(UNIF), TEACHER, InnovationLaw("uniform", 1, 0.5)),
    IndependentJoint(ARFIMAProcess(d_frac=0.3, trunc=40), GAUSS),
    IndependentJoint(MAProcess((0.5, -0.3, 0.8),
                               InnovationLaw("gaussian", 1, 0.6)), GAUSS),
    TeacherJoint(ARFIMAProcess(d_frac=0.3, trunc=40), TEACHER,
                 InnovationLaw("gaussian", 1, 0.3)),
], ids=["independent-gaussian_z", "independent-uniform_z",
        "teacher_gaussian_noise-gaussian_z", "teacher_gaussian_noise-uniform_z",
        "teacher_uniform_noise-uniform_z", "independent-arfima_z",
        "independent-ma_z", "teacher_gaussian_noise-arfima_z"])
def test_exact_risk_matches_mc(joint):
    hyp = scalar_hypothesis(a=0.5, c=1.0, w=0.8, bias=0.1)
    exact = exact_risk(hyp, joint, ABS)
    est = statistical_risk_mc(hyp, joint, ABS, n_mc=20000, history=80,
                              seed=2)
    assert abs(est.value - exact.value) <= 4 * est.std_error


def test_exact_risk_keeps_its_iid_gaussian_values():
    # i.i.d. Gaussian inputs take the plain Lyapunov solve, bit for bit
    hyp = scalar_hypothesis(a=0.5, c=1.0, w=0.8, bias=0.1)
    iid = IIDProcess(GAUSS)
    assert exact_risk(hyp, IndependentJoint(iid, GAUSS),
                      ABS).value == 1.0891467124940728
    teacher = TeacherJoint(iid, TEACHER, InnovationLaw("gaussian", 1, 0.3))
    assert exact_risk(hyp, teacher, ABS).value == 0.4080473310865449


@pytest.mark.parametrize("z_model", [
    VAR1Process(a_base=np.array([[0.5]]), noise=GAUSS),
    GARCHProcess(omega=0.05, alpha=0.10, beta=0.85),
    MAProcess((0.5, -0.3), InnovationLaw("laplace", 1, 1.0)),
], ids=["var1", "garch", "laplace_ma"])
def test_exact_risk_refuses_inputs_without_a_gaussian_ma_form(z_model):
    hyp = scalar_hypothesis(a=0.5, c=1.0, w=0.8, bias=0.1)
    with pytest.raises(ValueError):
        exact_risk(hyp, IndependentJoint(z_model, GAUSS), ABS)


def test_stationary_covariance_matches_the_lag_sum():
    # sum_m s^2 G_m G_m^T over lags far past the kernel, G_m written out
    rng = np.random.default_rng(4)
    a = 0.3 * rng.standard_normal((3, 3))
    c = rng.standard_normal((3, 2))
    kernel = ARFIMAProcess(d_frac=0.3, trunc=25)._phi
    powers = [c]
    for _ in range(400):
        powers.append(a @ powers[-1])
    want = sum(g @ g.T for g in (
        sum(kernel[k] * powers[m - k] for k in range(min(m, 25) + 1))
        for m in range(400)))
    got = _stationary_covariance(a, c, kernel, 0.49)
    assert np.max(np.abs(got - 0.49 * want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n, rho, lags", [(12, 0.6, 400), (3, 0.999, 25_000)],
                         ids=["n12", "rho0.999"])
def test_stationary_covariance_matches_the_lag_sum_of_larger_and_slower_states(
        n, rho, lags):
    # G_m = A G_{m-1} + kernel_m C, the weight of xi_{t-m} in x_t, summed
    # over lags far past the kernel; A = rho Q with Q orthogonal decays at
    # exactly rho per step
    rng = np.random.default_rng(5)
    a = rho * np.linalg.qr(rng.standard_normal((n, n)))[0]
    c = rng.standard_normal((n, 2))
    kernel = ARFIMAProcess(d_frac=0.3, trunc=25)._phi
    g = kernel[0] * c
    want = g @ g.T
    for m in range(1, lags):
        g = a @ g
        if m < kernel.size:
            g += kernel[m] * c
        want += g @ g.T
    got = _stationary_covariance(a, c, kernel, 0.49)
    assert np.max(np.abs(got - 0.49 * want)) <= 1e-13 * np.max(np.abs(want))


def _uniform_plus_gaussian_mean_abs(a, var, mu):
    # E|mu + U(-a, a) + N(0, var)|: the folded-normal mean averaged over
    # the uniform, through its antiderivative
    # G(m) = (m^2 + var)/2 erf(m / sqrt(2 var)) + m s pdf(m / s), s^2 = var
    s = math.sqrt(var)

    def antiderivative(m):
        return ((m * m + var) / 2.0 * math.erf(m / (s * math.sqrt(2.0)))
                + m * s * math.exp(-m * m / (2.0 * var))
                / math.sqrt(2.0 * math.pi))

    return (antiderivative(mu + a) - antiderivative(mu - a)) / (2.0 * a)


@pytest.mark.parametrize("deltas, gauss_var, mu, want", [
    # 3 + U(-2, 2) + U(-0.01, 0.01) never changes sign
    ([2.0, 0.01], 0.0, 3.0, 3.0),
    # two U(-1, 1): triangular on [-2, 2]; with mu in [0, 2],
    # E|X| = mu + (2 - mu)^3 / 12
    ([1.0, 1.0], 0.0, 0.3, 0.3 + 1.7 ** 3 / 12.0),
    ([1.0], 0.2, 0.4, _uniform_plus_gaussian_mean_abs(1.0, 0.2, 0.4)),
    # U(-1, 1) covers y = 0.5 + U(-0.2, 0.2) + U(-0.1, 0.1):
    # E|X| = (1 + E y^2) / 2
    ([0.2, 1.0, 0.1], 0.0, 0.5, (1.0 + 0.25 + 0.05 / 3.0) / 2.0),
], ids=["sign_definite", "two_equal_uniforms", "uniform_plus_gaussian",
        "dominant_uniform"])
def test_mean_abs_cf_matches_closed_forms(deltas, gauss_var, mu, want):
    assert abs(_mean_abs_cf(deltas, gauss_var, mu) - want) <= 1e-9 * want


def _uniform_sum_mean_abs(deltas, mu):
    # E|mu + sum_i U(-a_i, a_i)| in exact rationals: with V_i uniform on
    # [0, 1] and b_i = 2 a_i, E (y + sum_i b_i V_i)_+ is the n-fold
    # difference sum_S (-1)^(n - |S|) (y + sum_{i in S} b_i)_+^(n+1) /
    # ((n + 1)! prod_i b_i), and |x| = x_+ + (-x)_+
    b = [2 * Fraction(a) for a in deltas]
    n = len(b)

    def positive_part_mean(y):
        total = Fraction(0)
        for mask in itertools.product((0, 1), repeat=n):
            x = y + sum(bi for bi, m in zip(b, mask) if m)
            if x > 0:
                total += (-1) ** (n - sum(mask)) * x ** (n + 1)
        return total / (math.factorial(n + 1) * math.prod(b))

    # -X = (-y - sum_i b_i) + sum_i b_i (1 - V_i)
    y = Fraction(mu) - sum(Fraction(a) for a in deltas)
    return float(positive_part_mean(y) + positive_part_mean(-y - sum(b)))


@pytest.mark.parametrize("deltas, mu", [
    ([1.0, 1.0], 0.3),
    ([1.0, 1.0, 1.0], 0.3),
    ([0.3, 0.3, 0.3, 0.3], 0.1),
    ([0.489, 0.757], -0.33),
    ([1.835, 0.298], -1.706),
    ([0.909, 1.911, 1.025], -0.299),
    ([1.769, 1.046, 0.721], 1.98),
    ([1.003, 1.978, 0.407, 1.928], 1.204),
    ([1.182, 0.632, 1.36, 0.439], 1.768),
])
def test_mean_abs_cf_meets_its_stated_tolerance(deltas, mu):
    # the stopping rule's |G21 - G10| estimates are no bound: these sums of
    # uniforms land up to 1.4e-9 off the exact value, within the 2e-9 that
    # _mean_abs_cf states; the first is the triangular 0.3 + 1.7^3 / 12
    want = _uniform_sum_mean_abs(deltas, mu)
    assert abs(_mean_abs_cf(deltas, 0.0, mu) - want) <= 2e-9 * want


def test_mean_abs_cf_closed_forms_meet_the_quadrature_at_their_edges():
    # at the edge of each closed form (a = mu + rest for a dominant uniform
    # U(-a, a), mu = sum(deltas) where X never changes sign) the quadrature
    # takes over a step h inside; E|X| is smooth in mu there, with slope
    # mu / a and 1 respectively
    h = 1e-5
    for deltas, mu, slope in (([1.0, 0.2, 0.1], 0.7, 0.7),
                              ([0.6, 0.3, 0.1], 1.0, 1.0)):
        edge = _mean_abs_cf(deltas, 0.0, mu)
        inside = _mean_abs_cf(deltas, 0.0, mu - h)
        assert abs((edge - inside) / h - slope) <= 1e-4


def test_mean_abs_cf_of_a_long_chain_stays_small():
    # 50,000 terms: one (panels, nodes, terms) array would take hundreds of
    # MB, so the sinc product is taken in chunks of terms.  The sum of so
    # many small uniforms is nearly Gaussian.
    deltas = np.full(50_000, 0.005)
    tracemalloc.start()
    try:
        got = _mean_abs_cf(deltas, 0.01, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    var = 50_000 * 0.005 ** 2 / 3.0 + 0.01
    want = (math.sqrt(2.0 * var / math.pi) * math.exp(-0.02 / var)
            + 0.2 * math.erf(0.2 / math.sqrt(2.0 * var)))
    assert abs(got - want) <= 1e-4 * want


def test_mean_abs_cf_raises_past_its_panel_limit(monkeypatch):
    # exact_risk's callers take the pool instead
    monkeypatch.setattr(learning, "_CF_PANELS", 2)
    with pytest.raises(ValueError, match="panels"):
        _mean_abs_cf([1.0, 1.0], 0.0, 0.3)


def test_kappa_chain_matches_its_definition():
    # rows w A^j C written out with one product per lag, and the constant
    # w x* + a at the fixed point x* = A x* + zeta
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3))
    a *= 0.8 / np.linalg.norm(a, 2)
    res = LinearReservoir(a, rng.standard_normal((3, 2)), rng.standard_normal(3))
    ro = Readout(rng.standard_normal((1, 3)), [0.4])
    rows, const = _lrc_kappa_chain(res, ro)
    want, v = [], ro.w
    for _ in range(rows.shape[0]):
        want.append((v @ res.c)[0])
        v = v @ res.a
    assert rows.shape == (len(want), 2) and len(want) > 100
    assert np.abs(rows - np.array(want)).max() <= 1e-14 * np.abs(want).max()
    x_star = np.linalg.solve(np.eye(3) - a, res.zeta)
    assert np.abs(a @ x_star + res.zeta - x_star).max() <= 1e-14
    want_const = float(ro.w[0] @ x_star + 0.4)
    assert abs(const - want_const) <= 1e-14 * max(1.0, abs(want_const))


def test_gaussian_risks_of_many_readouts_match_exact_risk():
    klass = LinearClass(n_state=3, n_input=1, n_out=1, lam_a=0.6, lam_c=0.6,
                        lam_zeta=0.3, l_h=1.0, l_h0=0.2)
    hyps = sample_from_class(klass, 4, seed=5)
    res = hyps[0].reservoir
    readouts = [h.readout for h in hyps]
    for z_model in (IIDProcess(GAUSS), ARFIMAProcess(d_frac=0.3, trunc=60)):
        joint = TeacherJoint(z_model, hyps[1], InnovationLaw("gaussian", 1, 0.3))
        risks = _gaussian_risks(res, readouts, joint, ABS)
        assert risks.tolist() == [exact_risk(Hypothesis(res, ro), joint,
                                             ABS).value for ro in readouts]


def test_erm_median_under_absolute_loss():
    rng = np.random.default_rng(3)
    states = rng.normal(size=(101, 2))
    y = rng.normal(1.3, 0.5, size=(101, 1))
    ro = fit_readout_erm(states, y, (0.0, 10.0), ABS, seed=0)
    assert np.all(ro.w == 0.0)
    med = np.median(y)
    assert abs(ro.a[0] - med) < 2e-3


def test_erm_recovers_linear_teacher():
    rng = np.random.default_rng(4)
    states = rng.normal(size=(300, 3))
    w_star = np.array([[0.5, -0.3, 0.2]])
    y = states @ w_star.T
    ro = fit_readout_erm(states, y, (1.0, 0.5), ABS, seed=0)
    obj = np.abs(states @ ro.w.T + ro.a - y).mean()
    assert obj <= 1e-4


def test_erm_zero_caps_returns_zero():
    rng = np.random.default_rng(5)
    states = rng.normal(size=(50, 2))
    y = rng.normal(size=(50, 1))
    ro = fit_readout_erm(states, y, (0.0, 0.0), ABS, seed=0)
    assert np.all(ro.w == 0.0) and np.all(ro.a == 0.0)


def test_erm_respects_caps():
    rng = np.random.default_rng(6)
    states = rng.normal(size=(120, 3))
    y = rng.normal(0, 5, size=(120, 2))
    caps = (0.4, 0.2)
    ro = fit_readout_erm(states, y, caps, ABS, seed=1)
    assert np.linalg.norm(ro.w, 2) <= caps[0] + 1e-9
    assert np.linalg.norm(ro.a) <= caps[1] + 1e-9


def test_erm_beats_random_feasible_readouts():
    rng = np.random.default_rng(7)
    states = rng.normal(size=(80, 2))
    y = rng.normal(size=(80, 1))
    caps = (0.8, 0.3)
    ro = fit_readout_erm(states, y, caps, ABS, seed=2)
    best = np.abs(states @ ro.w.T + ro.a - y).mean()
    for k in range(1000):
        w = rng.normal(size=(1, 2))
        nw = np.linalg.norm(w, 2)
        if nw > caps[0]:
            w *= rng.uniform() * caps[0] / nw
        a = rng.normal(size=1)
        na = np.linalg.norm(a)
        if na > caps[1]:
            a *= rng.uniform() * caps[1] / na
        other = np.abs(states @ w.T + a - y).mean()
        assert best <= other + 1e-6


def test_erm_risk_dominates_teacher_risk():
    klass = LinearClass(n_state=2, n_input=1, n_out=1, lam_a=0.6, lam_c=0.8,
                        lam_zeta=0.2, l_h=1.0, l_h0=0.3, input_bound=1.0,
                        input_second_moment=Moment(1 / 3, 0.0, "analytic"))
    teacher = sample_from_class(klass, n=1, seed=11)[0]
    joint = TeacherJoint(IIDProcess(InnovationLaw("uniform", 1, 1.0)),
                         teacher, noise_law=InnovationLaw("gaussian", 1, 0.1))
    from rcbounds.learning import sample_joint_paths
    z, y = sample_joint_paths(joint, 1, 400, history=100, seed=12)
    from rcbounds.reservoir import run_filter
    states = run_filter(teacher.reservoir, z[0], washout=100)
    ro = fit_readout_erm(states, y[0], (1.0, 0.3), ABS, seed=3)
    student = Hypothesis(teacher.reservoir, ro)
    r_student = statistical_risk_mc(student, joint, ABS, n_mc=4000,
                                    history=100, seed=13)
    r_teacher = statistical_risk_mc(teacher, joint, ABS, n_mc=4000,
                                    history=100, seed=13)
    # teacher attains the Bayes risk for this noise; the fitted readout
    # cannot beat it beyond MC error
    assert r_student.value >= r_teacher.value - 3 * (
        r_student.std_error + r_teacher.std_error)


def test_loss_validation():
    with pytest.raises(ValueError):
        LossFunction("nonsense")
    with pytest.raises(ValueError):
        LossFunction("pinball", quantile=1.5)
    with pytest.raises(ValueError):
        loss_value(ABS, np.zeros(2), np.zeros(3))


@pytest.mark.parametrize("kind", ["absolute", "squared", "huber", "pinball"])
@pytest.mark.parametrize("m", [1, 2])
def test_erm_batch_matches_single_fits(kind, m):
    loss = LossFunction(kind, quantile=0.3)
    rng = np.random.default_rng(8)
    n_trials, n, n_state = 4, 60, 3
    states = rng.normal(size=(n_trials, n, n_state))
    targets = (states @ rng.normal(size=(n_state, m)) * 0.5
               + rng.standard_t(3, size=(n_trials, n, m)))
    # trials that stop while the others keep iterating: an all-zero one
    # (its subgradient vanishes except under the pinball loss), and a
    # noiseless linear teacher inside the caps, which the least-squares
    # start fits to rounding (a tiny subgradient for squared and huber)
    states[1] = 0.0
    targets[1] = 0.0
    targets[2] = states[2] @ np.full((n_state, m), 0.2) + 0.1
    caps, seed = (0.7, 0.4), 5
    fits = fit_readout_erm(states, targets, caps, loss, n_iter=60,
                           n_restarts=5, seed=seed)
    assert len(fits) == n_trials
    for t, ro in enumerate(fits):
        one = fit_readout_erm(states[t], targets[t], caps, loss, n_iter=60,
                              n_restarts=5, seed=seed + t)
        assert np.max(np.abs(ro.w - one.w)) <= 1e-12
        assert np.max(np.abs(ro.a - one.a)) <= 1e-12
    if kind != "pinball":
        assert np.all(fits[1].w == 0.0) and np.all(fits[1].a == 0.0)



def _erm_problem(m):
    rng = np.random.default_rng(9)
    n_trials, n, n_state = 4, 80, 3
    states = rng.normal(size=(n_trials, n, n_state))
    targets = (states @ rng.normal(size=(n_state, m)) * 0.5
               + rng.standard_t(3, size=(n_trials, n, m)))
    return states, targets


# per-trial objectives of _erm_problem's fits with the starts run one
# after another: {(kind, m): (at n_restarts=2, at n_restarts=5)}
ERM_OBJECTIVES = {
    ("absolute", 1): (
        (1.0113195760293006, 0.9984520860773106,
         0.8764234021746808, 1.3093440290273342),
        (1.0113195760293006, 0.998433049408964,
         0.8764234021746808, 1.3091038508230413),
    ),
    ("absolute", 2): (
        (1.7253929903091947, 1.6979939525199967,
         1.722896842709926, 1.9921402760686049),
        (1.7253929903091947, 1.6979344776116805,
         1.722896842709926, 1.992137255957229),
    ),
    ("squared", 1): (
        (2.0177673669750034, 2.0179414636061694,
         1.4039897869749551, 4.260108471795248),
        (2.0177673669750034, 2.0179414636061694,
         1.4039897869749551, 4.260108471795248),
    ),
    ("squared", 2): (
        (4.2922941444039155, 4.526307839227028,
         3.9490824124414075, 5.712688782933019),
        (4.2922941444039155, 4.526307839227028,
         3.9490824124414075, 5.712688782933018),
    ),
    ("huber", 1): (
        (0.6447424156565719, 0.6237818680307147,
         0.49815823777797974, 0.9024782247176304),
        (0.6447424156565719, 0.6237607626553453,
         0.498100913894692, 0.9024782247176304),
    ),
    ("huber", 2): (
        (1.1687953216266318, 1.1400587947850043,
         1.1566632910698862, 1.4164843049279117),
        (1.1687953216265439, 1.1400587947850043,
         1.1566632910698862, 1.4164843049279117),
    ),
    ("pinball", 1): (
        (0.46970759201891693, 0.4448548388896391,
         0.38268661387044317, 0.6148989055376713),
        (0.46943418929883585, 0.4448548388896391,
         0.38268661387044317, 0.6147879511533504),
    ),
    ("pinball", 2): (
        (0.8356528411970194, 0.8039416463155857,
         0.7844842883341091, 0.9156630492182594),
        (0.8356528411970194, 0.803936871079118,
         0.7844842883341091, 0.9156630492182594),
    ),
}


@pytest.mark.parametrize("kind", ["absolute", "squared", "huber", "pinball"])
@pytest.mark.parametrize("m", [1, 2])
def test_erm_restarts_only_improve_and_keep_their_objectives(kind, m):
    # the first two starts (least squares, zero) are shared by both counts,
    # so more starts can only lower each trial's objective
    loss = LossFunction(kind, quantile=0.3)
    states, targets = _erm_problem(m)
    objs = []
    for n_restarts in (2, 5):
        fits = fit_readout_erm(states, targets, (0.7, 0.4), loss, n_iter=60,
                               n_restarts=n_restarts, seed=5)
        objs.append(np.array([loss.risk(x @ ro.w.T + ro.a, y)
                              for x, y, ro in zip(states, targets, fits)]))
    assert np.all(objs[1] <= objs[0])
    for got, want in zip(objs, ERM_OBJECTIVES[kind, m]):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_erm_honours_the_restart_count():
    # targets zero but for one outlier that drags the least-squares slope
    # onto the cap; the zero start fits the rest exactly and wins, so one
    # restart must keep the clipped least-squares slope
    rng = np.random.default_rng(10)
    states = rng.normal(size=(50, 1))
    y = np.zeros((50, 1))
    y[0] = 1000.0 * np.sign(states[0, 0])
    xa = np.hstack([states, np.ones((50, 1))])
    w_ls = np.linalg.lstsq(xa, y, rcond=None)[0][0, 0]
    assert abs(w_ls) > 1.0
    one = fit_readout_erm(states, y, (1.0, 0.0), ABS, n_iter=0, n_restarts=1)
    two = fit_readout_erm(states, y, (1.0, 0.0), ABS, n_iter=0, n_restarts=2)
    assert abs(one.w[0, 0] - np.sign(w_ls)) <= 1e-15
    assert np.all(two.w == 0.0)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            fit_readout_erm(states, y, (1.0, 0.0), ABS, n_restarts=bad)


def test_exact_risk_refuses_a_kappa_chain_beyond_its_cap():
    from rcbounds.validation import _true_risks

    res = LinearReservoir(np.diag([0.9999, 0.2]), np.ones((2, 1)), np.zeros(2))
    hyp = Hypothesis(res, Readout(np.array([[0.5, 0.5]]), np.zeros(1)))
    unif = InnovationLaw("uniform", 1, 1.0)
    joint = IndependentJoint(IIDProcess(unif), unif)
    with pytest.raises(ValueError, match="kappa chain"):
        exact_risk(hyp, joint, ABS)
    # the candidate falls back to the pool: n_pool 200, history 50, seed 0
    risks, _, std_error = _true_risks([hyp], joint, ABS, (200, 50, 0))
    assert risks.shape == (1,) and np.isfinite(risks[0])
    assert std_error > 0
