import dataclasses
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
    combine_profiles,
)
from rcbounds.reservoir import (
    EchoStateClass,
    LinearClass,
    StateAffineClass,
    random_esn,
    sample_from_class,
)

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


def test_envelope_and_combination_pass_every_other_field_through():
    # both rebuild a profile from an existing one, so a field they do not
    # set keeps its value, whatever DependenceProfile gains
    z_prof, y_prof = lipschitz_profile(), lipschitz_profile(UNIF, 0.3, True)
    names = [f.name for f in dataclasses.fields(DependenceProfile)]
    env = B.geometric_envelope(y_prof)
    assert env.regime == "geometric"
    for name in names:
        if name not in ("regime", "c_z", "rate_z", "c_y", "rate_y"):
            assert getattr(env, name) == getattr(y_prof, name), name
    joint = combine_profiles(z_prof, y_prof)
    for name in names:
        role = y_prof if name.endswith("_y") else z_prof
        assert getattr(joint, name) == getattr(role, name), name


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
    assert abs(B._phi_norm_moment(phi, GAUSS, 2 * c, 2) - want) < 1e-9


def test_norm_mgf_closed_forms():
    for t in (0.3, 1.2):
        closed = 2 * math.exp(t * t / 2) * scipy_norm.cdf(t)
        assert abs(B._norm_mgf(GAUSS, t) - closed) < 1e-8
    # ||xi|| / s is chi_2 (Rayleigh) and chi_3 (Maxwell); u = t s
    for t in (0.3, 1.2, 6.0):
        u = 0.5 * t
        cdf = scipy_norm.cdf(u)
        rayleigh = 1 + u * math.sqrt(2 * math.pi) * math.exp(u * u / 2) * cdf
        maxwell = (2 * (1 + u * u) * math.exp(u * u / 2) * cdf
                   + u * math.sqrt(2 / math.pi))
        for d, closed in ((2, rayleigh), (3, maxwell)):
            got = B._norm_mgf(InnovationLaw("gaussian", d, 0.5), t)
            assert abs(got - closed) <= 1e-13 * closed
    assert abs(B._norm_mgf(UNIF, 1.3) - (math.exp(1.3) - 1) / 1.3) < 1e-12
    lap = InnovationLaw("laplace", 1, 0.5)
    assert abs(B._norm_mgf(lap, 1.0) - 2.0) < 1e-12


def test_norm_mgf_is_inf_past_the_float_range():
    lap = InnovationLaw("laplace", 1, 0.5)
    assert B._norm_mgf(lap, 2.0) == B._norm_mgf(lap, 3.0) == math.inf
    for law in (GAUSS, InnovationLaw("gaussian", 2, 1.0), UNIF):
        assert B._norm_mgf(law, 1e3) == math.inf
    # e^(2x) - 2 e^x + 1 would be inf - inf
    assert B._phi_norm_moment(B.PhiFunction("exp"), lap, 4.0, 2) == math.inf
    # E||xi||^400 and c^400 both leave the float range
    steep = B.PhiFunction("power", 200.0)
    assert B._phi_norm_moment(steep, GAUSS, 10.0, 2) == math.inf
    assert B._phi_norm_moment(steep, UNIF, 1e3, 2) == math.inf


def test_exp_moment_of_a_small_argument_does_not_cancel():
    # E[(e^(c R) - 1)^q] ~ c^q E[R^q] as c -> 0, where the mgf forms
    # cancel to rounding noise or below zero
    phi = B.PhiFunction("exp")
    for law in (UNIF, GAUSS, InnovationLaw("laplace", 1, 1.0),
                InnovationLaw("gaussian", 3, 0.7)):
        for q in (1, 2):
            got = B._phi_norm_moment(phi, law, 1e-12, q)
            want = 1e-12 ** q * law.norm_power_moment(q)
            assert abs(got - want) <= 1e-9 * want, (law, q)


@pytest.mark.parametrize("law, r", [
    (InnovationLaw("laplace", 1, 1.0), 0.3),
    (GAUSS, 0.99),
    (InnovationLaw("gaussian", 2, 1.0), 0.99),
], ids=["laplace", "gaussian_1d", "chi_2d"])
def test_diverging_moment_function_expectation_gives_no_certificate(law, r):
    # Laplace(1) has no exponential moment at 2 c_mom >= 1; the Gaussian
    # ones leave the float range at r = 0.99
    inp = inputs_with(lipschitz_profile(law=law), r=r, phi=B.PhiFunction("exp"))
    cc = B.expected_gap_constants(inp, "phi_moment")
    assert cc.c_phi == math.inf
    assert "diverging moment-function expectation E[Phi(2 c_mom_z ||xi_z||)^2]" \
        in cc.provenance
    rep = B.bound_from_constants(cc, 10 ** 4, 0.1)
    assert rep.total == math.inf and not rep.valid
    assert B.min_sample_size_from_constants(cc, 50.0, 0.1) is None


def test_steep_power_moment_of_a_small_weight_keeps_its_deviation_term():
    # 2 c_mom < 0.155: c^400 underflows to 0 while E|xi|^400 passes the float
    # range, so a product of the two gave nan and max(b1, nan) dropped b2
    phi = B.PhiFunction("power", 200.0)
    inp = dataclasses.replace(inputs_with(lipschitz_profile(), phi=phi),
                              l_l=0.01)
    cc = B.expected_gap_constants(inp, "phi_moment")
    assert 2.0 * max(cc.c_mom_y, cc.c_mom_z) < 0.155

    def log_moment(c, q):  # log E[|c xi|^(200 q)], xi ~ N(0, 1)
        k = 200.0 * q
        return (k * math.log(c) + k / 2 * math.log(2.0)
                + gammaln((k + 1) / 2) - gammaln(0.5))

    want = sum(math.exp((log_moment(2.0 * c, 2) + log_moment(1.0, 1)) / 2)
               for c in (cc.c_mom_y, cc.c_mom_z))
    assert 0.0 < cc.c_phi < math.inf
    assert abs(cc.c_phi - want) <= 1e-11 * want
    n, delta = 10 ** 4, 0.1
    rep = B.bound_from_constants(cc, n, delta)
    b2 = phi.inverse(2.0 * cc.c_phi / (delta * math.sqrt(n)))
    assert b2 > 0.0 and rep.terms["deviation"] >= 5.0 * b2
    assert rep.valid and rep.total >= 5.0 * b2
    assert B._phi_norm_moment(phi, GAUSS, 0.1, 2) == pytest.approx(
        math.exp(log_moment(0.1, 2)), rel=1e-11)


def test_a_role_without_weight_adds_nothing_to_c_phi():
    # l_y = 0: the target role adds 0 to c_phi even though its Laplace(1)
    # law has no E[exp ||xi_y||]
    lap = InnovationLaw("laplace", 1, 1.0)
    prof = dataclasses.replace(lipschitz_profile(law=UNIF), l_y=0.0,
                               xi_law_y=lap)
    inp = inputs_with(prof, phi=B.PhiFunction("exp"))
    cc = B.expected_gap_constants(inp, "phi_moment")
    only_z = dataclasses.replace(prof, xi_law_y=UNIF)
    want = B.expected_gap_constants(dataclasses.replace(inp, profile=only_z),
                                    "phi_moment").c_phi
    assert cc.c_mom_y == 0.0 and cc.c_phi == want < math.inf
    assert B.bound_from_constants(cc, 10 ** 4, 0.1).valid


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


M2_UNIF = Moment(1.0 / 3.0)
FOUR_CLASSES = {
    "linear": LinearClass(n_state=3, n_input=2, n_out=1, lam_a=0.6,
                          lam_c=0.8, lam_zeta=0.4, l_h=1.0, l_h0=0.5,
                          input_bound=1.0, input_second_moment=M2_UNIF),
    "esn": EchoStateClass(n_state=3, n_input=2, n_out=1, row_a=(0.2,) * 3,
                          row_c=(0.5,) * 3, row_zeta=(0.1,) * 3, l_h=1.0,
                          l_h0=0.5, spec_a=0.6, spec_c=0.9, input_bound=1.0,
                          input_second_moment=M2_UNIF),
    "sas": StateAffineClass(n_state=2, n_input=1, n_out=1,
                            alphas_p=((0,), (1,)), alphas_q=((0,), (2,)),
                            lam_sas=0.45, c_sas=0.8, input_bound=1.0,
                            l_h=1.0, l_h0=0.5),
    "random_esn": random_esn(4, 2, 1, a=0.6, c_scale=1.0, zeta_scale=0.5,
                             l_h=1.0, l_h0=0.5, seed=3, input_bound=1.0,
                             input_second_moment=M2_UNIF),
}


@pytest.mark.parametrize("klass", FOUR_CLASSES.values(), ids=FOUR_CLASSES)
def test_class_constants_cover_every_member(klass):
    # the class's r, m_f and l_r bound each member's contraction modulus,
    # state-ball radius and input-Lipschitz modulus on the input box K, for
    # sampled members and the cap-saturating one alike
    k = klass.input_bound
    members = [h.reservoir for h in sample_from_class(klass, n=16, seed=4)]
    members.append(klass.saturate(members[0]))
    for res in members:
        assert klass.contains_reservoir(res)
        assert res.contraction_modulus(k) <= klass.r * (1 + 1e-12)
        assert res.bound_M_F(k) <= klass.m_f * (1 + 1e-12)
        assert res.input_lipschitz(k, klass.m_f) <= klass.l_r * (1 + 1e-12)
    inputs = B.bound_inputs_from_class(klass, LossFunction(),
                                       geometric_profile(), Moment(0.5),
                                       Moment(1.0))
    assert (inputs.r, inputs.l_r, inputs.m_f) == (klass.r, klass.l_r,
                                                  klass.m_f)
    assert inputs.c_rc == B.rademacher_constant(klass) > 0
    assert B.risk_bound(inputs, 4096, 0.1, "geometric").total > 0
