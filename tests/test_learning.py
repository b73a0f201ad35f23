import math

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
from rcbounds.processes import IIDProcess, InnovationLaw
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


def test_exact_risk_matches_mc():
    hyp = scalar_hypothesis(a=0.5, c=1.0, w=0.8, bias=0.1)
    joint = IndependentJoint(IIDProcess(GAUSS), GAUSS)
    exact = exact_risk(hyp, joint, ABS)
    est = statistical_risk_mc(hyp, joint, ABS, n_mc=20000, history=80,
                              seed=2)
    assert abs(est.value - exact.value) <= 4 * est.std_error


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


def test_exact_risk_refuses_a_kappa_chain_beyond_its_cap():
    from rcbounds.validation import _true_risks

    res = LinearReservoir(np.diag([0.9999, 0.2]), np.ones((2, 1)), np.zeros(2))
    hyp = Hypothesis(res, Readout(np.array([[0.5, 0.5]]), np.zeros(1)))
    unif = InnovationLaw("uniform", 1, 1.0)
    joint = IndependentJoint(IIDProcess(unif), unif)
    with pytest.raises(ValueError, match="kappa chain"):
        exact_risk(hyp, joint, ABS)
    risks = _true_risks([hyp], joint, ABS, n_pool=200, history=50, seed=0)
    assert risks.shape == (1,) and np.isfinite(risks[0])
