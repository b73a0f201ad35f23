import math

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import norm as scipy_norm

from rcbounds import bounds as B
from rcbounds.learning import LossFunction
from rcbounds.processes import (
    DependenceProfile,
    InnovationLaw,
    Moment,
    WeightingSequence,
)
from rcbounds.reservoir import EchoStateClass, LinearClass, StateAffineClass

GEO_HALF = WeightingSequence("geometric", 0.5)
GAUSS = InnovationLaw("gaussian", 1, 1.0)
UNIF = InnovationLaw("uniform", 1, 1.0)


def geometric_profile():
    return DependenceProfile(regime="geometric", c_z=Moment(0.3), rate_z=0.5,
                             c_y=Moment(0.0), rate_y=0.5, exact_zero_y=True)


def lipschitz_profile(law=GAUSS, w_y_rate=0.4, bounded=False):
    return DependenceProfile(
        regime="lipschitz", c_z=Moment(0.0), rate_z=0.5, c_y=Moment(0.0),
        rate_y=0.5, l_z=1.0, l_y=2.0 if not bounded else 1.0,
        w_z=GEO_HALF,
        w_y=WeightingSequence("geometric", w_y_rate),
        xi_mean_abs_z=law.mean_abs_norm(), xi_mean_abs_y=law.mean_abs_norm(),
        xi_second_z=law.second_moment(), xi_second_y=law.second_moment(),
        xi_bound_z=law.bound(), xi_bound_y=law.bound(),
        xi_law_z=law, xi_law_y=law)


def inputs_with(profile, r=0.3, phi=None):
    return B.BoundInputs(r=r, l_l=1.0, l_h=1.0, l_h0=0.0, l_r=1.0, m_f=2.0,
                         n_out=1, c_rc=2.0, profile=profile,
                         e_loss_zero=Moment(0.5), y_l2_moment=Moment(1.0),
                         phi=phi)


def test_rademacher_constant_linear():
    lin = LinearClass(n_state=2, n_input=1, n_out=1, lam_a=0.5, lam_c=1.0,
                      lam_zeta=0.0, l_h=1.0, l_h0=0.0,
                      input_second_moment=Moment(1.0))
    assert abs(B.rademacher_constant(lin) - 2.0) < 1e-14


def test_rademacher_constant_sas_readout_only():
    sas = StateAffineClass(n_state=1, n_input=1, n_out=1,
                           alphas_p=((1,),), alphas_q=((0,),),
                           lam_sas=0.5, c_sas=0.0, input_bound=1.0,
                           l_h=1.0, l_h0=0.7)
    assert abs(B.rademacher_constant(sas) - 0.7) < 1e-14


def test_rademacher_constant_esn_row_caps():
    esn = EchoStateClass(n_state=2, n_input=1, n_out=1,
                         row_a=(0.2, 0.2), row_c=(0.5, 0.5),
                         row_zeta=(0.1, 0.1), l_h=1.5, l_h0=0.2,
                         input_second_moment=Moment(4.0))
    want = (esn.l_h * (esn.lam_c * 2.0 + esn.lam_zeta) / (1 - esn.lam_a)
            + esn.l_h0)
    assert abs(B.rademacher_constant(esn) - want) < 1e-12


def test_block_bias_vanishes_without_dependence():
    prof = DependenceProfile(regime="geometric", c_z=Moment(0.0), rate_z=0.5,
                             c_y=Moment(0.0), rate_y=0.5,
                             exact_zero_z=True, exact_zero_y=True)
    # only the truncation part 2 r^tau l_l l_h m_f / 2 survives
    got = B.block_bias(3, 0.5, 1.0, 1.0, 1.0, 2.0, prof)
    assert abs(got - 0.5) < 1e-14


def test_block_bias_closed_form_matches_the_summed_series():
    # m_f = 0 and an exact-zero y-role leave l_l l_r l_h sum_l r^l theta_z(tau - l)
    def summed(tau, r, lam):
        ls = np.arange(tau)
        return 1.3 * 1.1 * 0.8 * float(np.sum(r ** ls * 0.7 * lam ** (tau - ls)))

    for lam in (0.1, 0.5, 0.9, 0.999):
        prof = DependenceProfile(regime="geometric", c_z=Moment(0.7), rate_z=lam,
                                 c_y=Moment(0.0), rate_y=0.5, exact_zero_y=True)
        for r in (lam, lam + 1e-12, lam - 1e-12, 0.5 * lam, min(0.9999, 1.5 * lam),
                  0.0):
            for tau in (1, 2, 50, 1000):
                got = B.block_bias(tau, r, 1.3, 0.8, 1.1, 0.0, prof)
                want = summed(tau, r, lam)
                assert abs(got - want) <= 1e-12 * want, (lam, r, tau)


def test_block_bias_is_constant_time_near_r_one():
    import time
    import tracemalloc

    inp = inputs_with(geometric_profile(), r=1.0 - 1e-6)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        total = B.expectation_gap_bound(inp, 10 ** 8)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(total) and total > 0
    assert elapsed < 0.1
    assert peak < 2 ** 20


def test_geometric_case_constants():
    cc = B.expected_gap_constants(inputs_with(geometric_profile()),
                                  "geometric")
    assert abs(cc.c1 - 8.0) < 1e-12
    assert abs(cc.lambda_max - 0.5) < 1e-15
    assert abs(cc.c0 - 2 * 0.3 * 2 / 0.7) < 1e-12
    assert abs(cc.big_m - 2.5) < 1e-12
    li = math.log(2.0)
    assert abs(cc.c2 - (2 * 2.5 / li + 0.3 / (0.5 * li))) < 1e-12
    assert abs(cc.c3 - 2 * 2.0 / math.sqrt(li)) < 1e-12
    assert abs(cc.c3_abs - (2 * cc.c3 + 4 / math.sqrt(li))) < 1e-12


def test_gamma_alpha_frozen_values():
    pairs = [((0.5, 1.0), 1.0849625007211563),
             ((0.5, 0.2), -0.25),
             ((0.9, 2.0), 63.20789948198457),
             ((0.99, 0.5), 213.58969838828527),
             ((0.1, 3.0), 0.8469100130080565)]
    for (r, a), want in pairs:
        assert abs(B.gamma_alpha(r, a) - want) < 1e-9


def test_gamma_alpha_matches_brute_force():
    rng = np.random.default_rng(7)
    taus = np.arange(1, 20001, dtype=float)
    for _ in range(50):
        r = rng.uniform(0.05, 0.99)
        a = rng.uniform(0.05, 3.0)
        brute = (np.log(taus) * a / math.log(1 / r) - taus / 4).max()
        assert abs(B.gamma_alpha(r, a) - brute) < 1e-12


def test_gamma_alpha_near_one_is_floor_or_ceil():
    # r = 1 - 1e-7 puts the continuous maximizer near 2e7: the integer max
    # is the better of its floor and ceil; near the peak the objective is
    # flat to within roundoff, so neighbours may tie it up to a few ulps
    r, a = 1.0 - 1e-7, 0.5
    log_inv = math.log(1.0 / r)
    peak = 4.0 * a / log_inv

    def f(t):
        return math.log(t) * a / log_inv - t / 4.0

    lo, hi = math.floor(peak), math.ceil(peak)
    assert lo > 1e7
    want = max(f(lo), f(hi))
    assert B.gamma_alpha(r, a) == want
    window = [f(t) for t in range(lo - 1000, hi + 1001)]
    assert max(window) <= want + 2 * math.ulp(want)
    assert f(1) < want and f(4 * hi) < want


def test_block_length_oracles():
    assert B.block_length(1000, lambda_max=0.5) == (9, 111)
    assert B.block_length(8, lambda_max=0.5) == (3, 2)
    assert B.block_length(10 ** 6, alpha=0.2) == (19306, 51)
    tau, k = B.block_length(4, lambda_max=0.9)
    assert tau >= 1 and k >= 1 and tau * k <= 4


def test_bound_collapses_to_truncation_term():
    synth = B.ChainConstants(case="geometric", r=0.5, c0=3.0, big_m=0.0,
                             b=0.0, c_rc=0.0, lambda_max=0.5, c1=0.0,
                             c2=0.0, c3=0.0, c3_abs=0.0)
    rep = B.bound_from_constants(synth, 100, 0.1)
    assert rep.valid
    assert abs(rep.total - 3.0 * (1 - 0.5 ** 100) / 100) < 1e-15


def test_bound_monotone_in_delta_and_n():
    cc = B.expected_gap_constants(inputs_with(geometric_profile()),
                                  "geometric")
    totals = [B.bound_from_constants(cc, 5000, d).total
              for d in (0.01, 0.05, 0.1, 0.3, 0.9)]
    assert all(a >= b - 1e-15 for a, b in zip(totals, totals[1:]))
    decay = [B.bound_from_constants(cc, n, 0.1).total
             for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 8)]
    assert all(a > b for a, b in zip(decay, decay[1:]))


def test_geometric_envelope_closed_form():
    env = B.geometric_envelope(lipschitz_profile())
    m1 = GAUSS.mean_abs_norm().value
    assert abs(env.c_z.value - 2 * 1.0 * m1 / 0.5) < 1e-12
    assert env.rate_z == 0.5
    assert abs(env.c_y.value - 2 * 2.0 * m1 / 0.6) < 1e-12
    assert env.rate_y == 0.4


def test_lipschitz_profile_evaluates_like_its_envelope():
    prof = lipschitz_profile()
    env = B.geometric_envelope(prof)
    ta = B.risk_bound(inputs_with(prof), 4096, 0.1, "geometric").total
    tb = B.risk_bound(inputs_with(env), 4096, 0.1, "geometric").total
    assert abs(ta - tb) < 1e-12


def test_bounded_case_constant_and_deviation():
    prof = lipschitz_profile(law=UNIF, w_y_rate=0.5, bounded=True)
    inp = inputs_with(prof)
    cc = B.expected_gap_constants(inp, "bounded")
    w1 = GEO_HALF.l1_norm
    want = 2 * 1.0 * (1.0 / 0.7 * (2.0 * 0.3 + w1) + w1)
    assert abs(cc.c_bd - want) < 1e-12
    rep = B.bound_from_constants(cc, 10 ** 4, 0.05)
    manual = cc.c_bd * math.sqrt(math.log(4 / 0.05) / (2 * 10 ** 4))
    assert abs(rep.terms["deviation"] - manual) < 1e-15


def test_phi_inverse():
    assert abs(B.PhiFunction("power", 2.0).inverse(9.0) - 3.0) < 1e-12
    assert abs(B.PhiFunction("exp").inverse(math.e - 1) - 1.0) < 1e-12


def test_phi_norm_moments_gaussian_power():
    phi = B.PhiFunction("power", 2.0)
    c = 0.7
    assert abs(B._phi_norm_moment(phi, GAUSS, c) - c ** 2) < 1e-12
    want = (2 * c) ** 4 * 3.0
    assert abs(B._phi_sq_norm_moment(phi, GAUSS, 2 * c) - want) < 1e-9


def test_norm_mgf_closed_forms():
    for t in (0.3, 1.2):
        closed = 2 * math.exp(t * t / 2) * scipy_norm.cdf(t)
        assert abs(B._norm_mgf(GAUSS, t) - closed) < 1e-8
    assert abs(B._norm_mgf(UNIF, 1.3) - (math.exp(1.3) - 1) / 1.3) < 1e-12
    lap = InnovationLaw("laplace", 1, 0.5)
    assert abs(B._norm_mgf(lap, 1.0) - 2.0) < 1e-12


def test_phi_moment_case_constants_and_deviation():
    phi = B.PhiFunction("power", 2.0)
    inp = inputs_with(lipschitz_profile(), phi=phi)
    cc = B.expected_gap_constants(inp, "phi_moment")
    cmz = 1.0 / 0.7 * GEO_HALF.l1_norm
    cmy = 2.0 * WeightingSequence("geometric", 0.4).l1_norm
    assert abs(cc.c_mom_z - cmz) < 1e-12
    assert abs(cc.c_mom_y - cmy) < 1e-12
    want_cphi = (math.sqrt((2 * cmy) ** 4 * 3) + math.sqrt((2 * cmz) ** 4 * 3))
    assert abs(cc.c_phi - want_cphi) < 1e-8
    rep = B.bound_from_constants(cc, 10 ** 4, 0.05)
    lead = cc.c0 + 2 * math.sqrt(10 ** 4) * (cmz + cmy)
    b1 = lead * math.sqrt(math.log(8 / 0.05) / (2 * 10 ** 4))
    b2 = math.sqrt(2 * cc.c_phi / (0.05 * 100.0))
    assert abs(rep.terms["deviation"] - 5 * max(b1, b2)) < 1e-9


def algebraic_inputs():
    prof = DependenceProfile(regime="algebraic", c_z=Moment(0.6), rate_z=0.2,
                             c_y=Moment(0.0), rate_y=0.2, exact_zero_y=True)
    return inputs_with(prof, r=0.5)


def test_algebraic_case_constants_and_total():
    inp = algebraic_inputs()
    cc = B.expected_gap_constants(inp, "algebraic")
    assert abs(B.gamma_alpha(0.5, 0.2) + 0.25) < 1e-12
    cal = max(2 ** 0.2, 0.5 ** 0.25) / (1 - math.sqrt(0.5))
    assert abs(cc.c_alpha - cal) < 1e-12
    want_c1 = (2 * 2.0 * 0.5 ** 0.25 + 0.6 * cal) + 2 * 2.0
    assert abs(cc.c1 - want_c1) < 1e-12
    assert abs(cc.c1_abs - (want_c1 + 4.0 + 2 * 2.0)) < 1e-12
    n = 10 ** 6
    rep = B.bound_from_constants(cc, n, 0.1)
    ex = cc.c1_abs * n ** (-1 / (2 + 1 / 0.2)) + cc.c2 * n ** (-2 / 7)
    want = cc.c0 * (1 - 0.5 ** n) / n + (2 / 0.1) * ex
    assert abs(rep.total - want) < 1e-12
    assert rep.tau == 19306


def test_expectation_chain_dominated_by_packaged_constants():
    inp_l = inputs_with(lipschitz_profile())
    inp_e = inputs_with(B.geometric_envelope(lipschitz_profile()))
    for inp in (inp_l, inp_e):
        cc = B.expected_gap_constants(inp, "geometric")
        for n in (200, 2000, 20000, 200000):
            unclamped = math.floor(math.log(n) / math.log(1 / cc.lambda_max))
            if unclamped < 1:
                continue
            gen = B.expectation_gap_bound(inp, n, absolute=True)
            packaged = (cc.c1 / n + cc.c2 * math.log(n) / n
                        + cc.c3_abs * math.sqrt(math.log(n) / n))
            assert gen <= packaged + 1e-9
            plain = B.expectation_gap_bound(inp, n, absolute=False)
            packaged_plain = (cc.c1 / n + cc.c2 * math.log(n) / n
                              + cc.c3 * math.sqrt(math.log(n) / n))
            assert plain <= packaged_plain + 1e-9


def test_min_sample_size_boundary():
    inp = inputs_with(B.geometric_envelope(lipschitz_profile()))
    cc = B.expected_gap_constants(inp, "geometric")
    for eps in (5.0, 4.0):
        n_min = B.min_sample_size(inp, "geometric", eps, 0.1, n_cap=10 ** 5)
        assert n_min is not None
        rep = B.bound_from_constants(cc, n_min, 0.1)
        assert rep.valid and rep.total <= eps
        if n_min > 1:
            prev = B.bound_from_constants(cc, n_min - 1, 0.1)
            assert (not prev.valid) or prev.total > eps
        # coarse sweep below the returned n: nothing may qualify
        for n in range(1, n_min, max(1, n_min // 97)):
            r = B.bound_from_constants(cc, n, 0.1)
            assert (not r.valid) or r.total > eps
    # bound at the cap sits above 3, so these targets are out of reach
    assert B.min_sample_size(inp, "geometric", 3.0, 0.1,
                             n_cap=10 ** 5) is None
    assert B.min_sample_size(inp, "geometric", 1e-9, 0.1,
                             n_cap=10 ** 5) is None


def test_min_sample_size_bounded_case():
    prof = lipschitz_profile(law=UNIF, w_y_rate=0.5, bounded=True)
    inp = inputs_with(prof)
    cc = B.expected_gap_constants(inp, "bounded")
    n_min = B.min_sample_size(inp, "bounded", 1.5, 0.1, n_cap=10 ** 6)
    rep = B.bound_from_constants(cc, n_min, 0.1)
    prev = B.bound_from_constants(cc, n_min - 1, 0.1)
    assert rep.valid and rep.total <= 1.5
    assert (not prev.valid) or prev.total > 1.5


def test_validity_region_near_one():
    synth = B.ChainConstants(case="geometric", r=0.5, c0=1.0, big_m=1.0,
                             b=1.0, c_rc=1.0, lambda_max=0.96, c1=1.0,
                             c2=1.0, c3=1.0, c3_abs=1.0)
    mid = B.bound_from_constants(synth, 5, 0.1)
    assert not mid.valid and math.isinf(mid.total)
    assert B.bound_from_constants(synth, 1, 0.1).valid
    assert B.bound_from_constants(synth, 10 ** 4, 0.1).valid


def test_bound_inputs_from_class_assembly():
    lin = LinearClass(n_state=2, n_input=1, n_out=1, lam_a=0.5, lam_c=1.0,
                      lam_zeta=0.0, l_h=1.0, l_h0=0.0, input_bound=1.0,
                      input_second_moment=Moment(1.0))
    loss = LossFunction("absolute", l_l=1.0)
    bi = B.bound_inputs_from_class(lin, loss, geometric_profile(),
                                   Moment(0.5), Moment(1.0))
    assert abs(bi.c_rc - 2.0) < 1e-14
    assert bi.r == 0.5
    assert abs(bi.m_f - 2.0) < 1e-14
    with pytest.raises(ValueError):
        B.bound_inputs_from_class(lin, LossFunction("squared", l_l=1.0),
                                  geometric_profile(), Moment(0.5))


def test_expected_scale_caps_gaussian():
    ec, ez = B.expected_scale_caps(3, 2, "gaussian")
    chi2 = math.sqrt(2) * math.exp(gammaln(1.5) - gammaln(1.0))
    assert abs(ec - 3 * chi2) < 1e-12
    assert abs(ez - 3 * math.sqrt(2 / math.pi)) < 1e-12


def test_risk_bound_report_fields():
    rep = B.risk_bound(inputs_with(geometric_profile()), 2048, 0.1,
                       "geometric")
    assert rep.case == "geometric"
    assert rep.n == 2048 and rep.delta == 0.1
    assert rep.tau >= 1 and rep.k >= 1 and rep.tau * rep.k <= 2048
    composed = (rep.terms["truncation"]
                + rep.terms["deviation_factor"] * rep.terms["expectation"])
    assert abs(composed - rep.total) < 1e-12
    assert abs(rep.terms["deviation_factor"] - 2 / 0.1) < 1e-15
