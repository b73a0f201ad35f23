import math

import numpy as np
import pytest

from rcbounds import validation
from rcbounds.bounds import rademacher_constant
from rcbounds.learning import IndependentJoint, LossFunction, TeacherJoint
from rcbounds.processes import (
    ARFIMAProcess,
    DependenceProfile,
    GARCHProcess,
    IIDProcess,
    InnovationLaw,
    Moment,
    dependence_params,
)
from rcbounds.reservoir import (
    EchoStateClass,
    Hypothesis,
    LinearClass,
    LinearReservoir,
    Readout,
    StateAffineClass,
    random_esn,
    sample_from_class,
)
from rcbounds.validation import (
    candidate_set,
    consistency_curve,
    expected_loss_at_zero,
    history_lipschitz_check,
    mc_rademacher,
    risk_gap_experiment,
    target_l2_moment,
    teacher_target_profile,
    truncation_gap_experiment,
)

UNIF = InnovationLaw("uniform", 1, 1.0)
ABS = LossFunction("absolute")
M2_UNIF = Moment(1.0 / 3.0, 0.0, "analytic")


def uniform_linear_class():
    return LinearClass(n_state=4, n_input=1, n_out=1, lam_a=0.6, lam_c=0.6,
                       lam_zeta=0.3, l_h=1.0, l_h0=0.2, input_bound=1.0,
                       input_second_moment=M2_UNIF)


def teacher_setup(seed=7):
    klass = uniform_linear_class()
    teacher = sample_from_class(klass, n=1, seed=seed)[0]
    joint = TeacherJoint(IIDProcess(UNIF), teacher,
                         noise_law=InnovationLaw("gaussian", 1, 0.05))
    prof = teacher_target_profile(dependence_params(IIDProcess(UNIF)), klass)
    return klass, joint, prof


def test_candidate_set_contains_boundary_and_zero():
    klass = uniform_linear_class()
    cands = candidate_set(klass, n_random=6, seed=0)
    assert len(cands) >= 8
    norms_a = [np.linalg.norm(h.reservoir.a, 2) for h in cands]
    assert any(abs(v - klass.lam_a) < 1e-9 for v in norms_a)
    assert any(np.all(h.readout.w == 0.0) and np.all(h.readout.a == 0.0)
               for h in cands)
    for h in cands:
        assert klass.contains(h)


def _row_or_spectral_ratio(klass, res):
    # largest of the row-cap and spectral-cap ratios of A; 1 when one is active
    rows = np.abs(res.a).max(axis=1) / np.asarray(klass.row_a)
    return max(rows.max(), np.linalg.norm(res.a, 2) / klass.spec_a), 1.0


# class factory, and (value, cap) of the cap its boundary member makes active
BOUNDARY_CASES = {
    "linear": (uniform_linear_class,
               lambda k, res: (np.linalg.norm(res.a, 2), k.lam_a)),
    "esn": (lambda: EchoStateClass(
                n_state=3, n_input=1, n_out=1, row_a=(0.2, 0.3, 0.25),
                row_c=(0.5, 0.4, 0.5), row_zeta=(0.1, 0.0, 0.2), l_h=1.0,
                l_h0=0.3, input_bound=1.0, input_second_moment=M2_UNIF),
            _row_or_spectral_ratio),
    "sas": (lambda: StateAffineClass(
                n_state=2, n_input=1, n_out=1, alphas_p=((0,), (1,)),
                alphas_q=((0,), (2,)), lam_sas=0.45, c_sas=0.8,
                input_bound=1.5, l_h=1.0, l_h0=0.5),
            lambda k, res: (res.p.sup_norm_on_box(k.input_bound),
                            k.input_bound * k.lam_sas)),
    "random_esn": (lambda: random_esn(5, 1, 1, a=0.5, c_scale=1.0,
                                      zeta_scale=0.5, l_h=1.0, l_h0=0.5,
                                      seed=7, input_second_moment=M2_UNIF),
                   lambda k, res: (k.activation.lipschitz
                                   * np.sum(np.abs(res.a).max(axis=1)),
                                   k.a * (1.0 - 1e-9))),
}


@pytest.mark.parametrize("family", sorted(BOUNDARY_CASES))
def test_candidate_set_boundary_member_has_binding_cap_active(family):
    make, binding = BOUNDARY_CASES[family]
    klass = make()
    n_random = 5
    for seed in (0, 3):
        boundary = candidate_set(klass, n_random=n_random, seed=seed)[n_random]
        assert klass.contains(boundary)
        value, cap = binding(klass, boundary.reservoir)
        assert value == pytest.approx(cap, rel=1e-12)


def test_mc_rademacher_constant_candidate():
    zero_res = LinearReservoir(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1))
    const = Hypothesis(zero_res, Readout(np.zeros((1, 1)), np.array([0.5])))
    est = mc_rademacher([const], IIDProcess(UNIF), k=1, n_rep=4000, seed=1)
    # sup over {H == 0.5} of |(1/k) sum eps_i 0.5| has mean exactly 0.5 at k=1
    assert abs(est.value - 0.5) <= 4 * est.std_error + 1e-12


def test_mc_rademacher_zero_candidate_exact():
    zero_res = LinearReservoir(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1))
    zero = Hypothesis(zero_res, Readout(np.zeros((1, 1)), np.zeros(1)))
    est = mc_rademacher([zero], IIDProcess(UNIF), k=8, n_rep=50, seed=2)
    assert est.value == 0.0


def test_mc_rademacher_below_class_cap():
    klass = uniform_linear_class()
    c_rc = rademacher_constant(klass)
    for k in (16, 64):
        est = mc_rademacher(klass, IIDProcess(UNIF), k=k, n_rep=48, seed=3,
                            n_random=10)
        assert est.value <= c_rc / math.sqrt(k) + 3 * est.std_error


def test_truncation_gaps_within_envelope():
    klass = uniform_linear_class()
    res = truncation_gap_experiment(klass, IIDProcess(UNIF),
                                    InnovationLaw("gaussian", 1, 1.0),
                                    ns=(10, 100), n_trials=40, n_random=20,
                                    seed=4)
    assert res["violations"] == 0
    assert set(res["bounds"]) == {10, 100}
    # envelope C0 (1 - r^n) / n shrinks with n
    assert res["bounds"][100] < res["bounds"][10]


def test_history_lipschitz_holds_across_seeds():
    klass = uniform_linear_class()
    for sd in (5, 17):
        res = history_lipschitz_check(klass, input_bound=math.sqrt(3.0),
                                      n_pairs=150, seed=sd)
        assert res["worst_ratio"] <= 1.0 + 1e-9
        assert res["n_systems"] > 0


def test_risk_gap_certificate_covers():
    klass, joint, prof = teacher_setup()
    cov = risk_gap_experiment(klass, joint, ABS, prof, "geometric", n=256,
                              n_trials=50, delta=0.1, n_random=6, seed=8,
                              history=120, n_pool=8000, erm_iters=60)
    assert cov.coverage == 1.0
    assert cov.slack > 1.0
    assert cov.max_gap <= cov.bound


def test_risk_gap_experiment_draws_one_pool(monkeypatch):
    seeds = []
    sample_joint = validation.sample_joint

    def counting_sample_joint(joint, n_mc, history, seed=0):
        if seed not in (3 + 11, 3 + 12):  # the e0 and yl2 moments
            seeds.append(seed)
        return sample_joint(joint, n_mc, history, seed)

    monkeypatch.setattr(validation, "sample_joint", counting_sample_joint)
    # GARCH(1,1) inputs: exact_risk declines, so candidates and ERM fits
    # both need the pool
    garch = GARCHProcess(omega=0.05, alpha=0.10, beta=0.85)
    zp = dependence_params(garch, n_mc=500)
    prof = DependenceProfile(regime="geometric", c_z=zp.c_z,
                             rate_z=zp.rate_z,
                             c_y=Moment(0.0, 0.0, "exact-zero"),
                             rate_y=zp.rate_z, exact_zero_y=True)
    klass = LinearClass(n_state=3, n_input=1, n_out=1, lam_a=0.5, lam_c=0.5,
                        lam_zeta=0.2, l_h=1.0, l_h0=0.2, input_bound=5.0,
                        input_second_moment=Moment(1.0, 0.0, "analytic"))
    joint = IndependentJoint(garch, InnovationLaw("gaussian", 1, 0.7))
    cov = risk_gap_experiment(klass, joint, ABS, prof, "geometric", n=64,
                              n_trials=4, n_random=3, seed=3, history=40,
                              n_pool=500, erm_iters=10)
    assert seeds == [3 + 15]
    assert cov.pool_std_error > 0

    # i.i.d. inputs, closed-form risks for every candidate, no ERM: no pool
    seeds.clear()
    klass, joint, prof = teacher_setup()
    cov = risk_gap_experiment(klass, joint, ABS, prof, "geometric", n=64,
                              n_trials=4, n_random=3, seed=3, history=40,
                              n_pool=500, fit_erm=False)
    assert seeds == []
    assert cov.pool_std_error is None


def arfima_setup():
    arfima = ARFIMAProcess(d_frac=0.3, trunc=60)
    zp = dependence_params(arfima)
    prof = DependenceProfile(regime="algebraic", c_z=zp.c_z,
                             rate_z=zp.rate_z,
                             c_y=Moment(0.0, 0.0, "exact-zero"),
                             rate_y=zp.rate_z, exact_zero_y=True)
    klass = LinearClass(n_state=3, n_input=1, n_out=1, lam_a=0.5, lam_c=0.5,
                        lam_zeta=0.2, l_h=1.0, l_h0=0.2, input_bound=5.0,
                        input_second_moment=Moment(1.3, 0.0, "analytic"))
    return klass, IndependentJoint(arfima, InnovationLaw("gaussian", 1, 0.7)), prof


def test_arfima_risk_gap_experiment_draws_no_pool(monkeypatch):
    # ARFIMA inputs have a Gaussian moving-average form: every candidate
    # gets its true risk in closed form, and the ERM fits all take theirs
    # from one stationary covariance
    drawn, batches = [], []
    sample_joint = validation.sample_joint
    gaussian_risks = validation._gaussian_risks

    def counting_sample_joint(joint, n_mc, history, seed=0):
        drawn.append(seed)
        return sample_joint(joint, n_mc, history, seed)

    def counting_gaussian_risks(res, readouts, joint, loss):
        batches.append(len(readouts))
        return gaussian_risks(res, readouts, joint, loss)

    monkeypatch.setattr(validation, "sample_joint", counting_sample_joint)
    monkeypatch.setattr(validation, "_gaussian_risks", counting_gaussian_risks)
    klass, joint, prof = arfima_setup()
    cov = risk_gap_experiment(klass, joint, ABS, prof, "algebraic", n=64,
                              n_trials=4, n_random=3, seed=3, history=40,
                              n_pool=500, erm_iters=10)
    assert drawn == []
    assert batches == [4]
    assert cov.pool_std_error is None
    assert cov.coverage == 1.0


def test_consistency_curve_decreases():
    klass, joint, prof = teacher_setup()
    rows = consistency_curve(klass, joint, ABS, prof, "geometric",
                             ns=(200, 2000, 20000), n_trials=12, n_random=5,
                             seed=9, history=120, n_pool=6000)
    bounds_seq = [row["bound"] for row in rows]
    med_seq = [row["median_gap"] for row in rows]
    assert all(b2 < b1 for b1, b2 in zip(bounds_seq, bounds_seq[1:]))
    assert all(m2 < m1 for m1, m2 in zip(med_seq, med_seq[1:]))
    assert all(row["coverage"] == 1.0 for row in rows)


def test_consistency_rows_keyed_by_n_value():
    # a single-n call reproduces the grid row for that n
    klass, joint, prof = teacher_setup()
    grid = consistency_curve(klass, joint, ABS, prof, "geometric",
                             ns=(200, 2000), n_trials=6, n_random=4,
                             seed=10, history=100, n_pool=4000)
    solo = consistency_curve(klass, joint, ABS, prof, "geometric",
                             ns=(2000,), n_trials=6, n_random=4,
                             seed=10, history=100, n_pool=4000)
    a, b = grid[1], solo[0]
    assert a["n"] == b["n"] == 2000
    assert a["median_gap"] == b["median_gap"]
    assert a["bound"] == b["bound"]


def test_teacher_target_profile_iid_inputs():
    z_prof = dependence_params(IIDProcess(UNIF))
    klass = uniform_linear_class()
    prof = teacher_target_profile(z_prof, klass)
    # the teacher output still carries its own state memory at rate r
    assert prof.regime == "geometric"
    assert prof.exact_zero_z and not prof.exact_zero_y
    assert abs(prof.rate_y - klass.r) < 1e-12
    assert abs(prof.c_y.value - 2.0 * klass.l_h * klass.m_f) < 1e-12


def test_teacher_target_profile_geometric_inputs():
    from rcbounds.processes import GARCHProcess
    z_prof = dependence_params(GARCHProcess(omega=0.05, alpha=0.10,
                                            beta=0.85))
    klass = uniform_linear_class()
    prof = teacher_target_profile(z_prof, klass)
    assert prof.regime == "geometric"
    assert not prof.exact_zero_z
    # the target decay rate cannot be faster than the input decay
    assert prof.rate_y >= z_prof.rate_z - 1e-12
    assert prof.c_y.value > 0
    slow = dict(r=0.99, m_f=1.0, l_r=1.0, l_h=1.0)
    with pytest.raises(ValueError):
        teacher_target_profile(z_prof, slow)


def test_teacher_target_profile_rejects_algebraic():
    z_prof = dependence_params(ARFIMAProcess(d_frac=0.3, trunc=2000))
    with pytest.raises(ValueError):
        teacher_target_profile(z_prof, uniform_linear_class())


def test_expected_loss_and_target_moment_helpers():
    _, joint, _ = teacher_setup()
    e0 = expected_loss_at_zero(joint, ABS, n_mc=4000, history=80, seed=1)
    assert e0.value > 0 and e0.std_error > 0
    m2 = target_l2_moment(joint, n_mc=4000, history=80, seed=2)
    assert m2.value > 0
    # teacher outputs live inside the readout caps plus noise
    klass = uniform_linear_class()
    cap = klass.l_h * klass.m_f + klass.l_h0
    assert math.sqrt(m2.value) <= cap + 3 * 0.05
