import numpy as np
import pytest

from rcbounds import reservoir
from rcbounds.processes import Moment
from rcbounds.reservoir import (
    Activation,
    EchoStateClass,
    EchoStateReservoir,
    LinearClass,
    LinearReservoir,
    MatrixPolynomial,
    RandomEchoStateClass,
    Readout,
    StateAffineClass,
    StateAffineReservoir,
    bound_M_F,
    contraction_modulus,
    esp_convergence_check,
    functional,
    input_lipschitz,
    iterate_states,
    iterate_states_batch,
    random_esn,
    run_filter,
    sample_from_class,
    state_update,
    zero_input_fixed_point,
)

M2 = Moment(1.0 / 3.0, 0.0, "analytic")


def small_linear_class():
    return LinearClass(n_state=3, n_input=2, n_out=1, lam_a=0.6, lam_c=0.8,
                       lam_zeta=0.4, l_h=1.0, l_h0=0.5, input_bound=1.0,
                       input_second_moment=M2)


def small_esn_class():
    return EchoStateClass(n_state=3, n_input=2, n_out=1,
                          row_a=(0.2, 0.2, 0.2), row_c=(0.5, 0.5, 0.5),
                          row_zeta=(0.1, 0.1, 0.1), l_h=1.0, l_h0=0.5,
                          spec_a=0.6, spec_c=0.9, input_bound=1.0,
                          input_second_moment=M2)


def small_sas_class():
    return StateAffineClass(n_state=2, n_input=1, n_out=1,
                            alphas_p=((0,), (1,)), alphas_q=((0,), (2,)),
                            lam_sas=0.45, c_sas=0.8, input_bound=1.0,
                            l_h=1.0, l_h0=0.5)


def test_run_filter_linear_memoryless():
    c = np.array([[1.0, 0.5], [0.0, -1.0]])
    zeta = np.array([0.2, -0.1])
    sys = LinearReservoir(np.zeros((2, 2)), c, zeta)
    z = np.random.default_rng(0).uniform(-1, 1, (7, 2))
    states = run_filter(sys, z, washout=0)
    assert np.allclose(states, z @ c.T + zeta, atol=1e-14)


def test_run_filter_esn_all_zero():
    sys = EchoStateReservoir(np.zeros((3, 3)), np.zeros((3, 1)),
                             np.zeros(3), Activation("tanh"))
    states = run_filter(sys, np.ones((10, 1)) * 0.0, washout=2)
    assert np.all(states == 0.0)


def test_run_filter_scalar_geometric_series():
    sys = LinearReservoir(np.array([[0.5]]), np.array([[1.0]]),
                          np.zeros(1))
    states = run_filter(sys, np.ones((40, 1)), washout=50)
    # washout inputs are zero, so x_t = sum_{j<=t} 0.5^j -> 2
    assert states[0, 0] == 1.0
    partial = sum(0.5 ** j for j in range(40))
    assert abs(states[-1, 0] - partial) < 1e-15
    assert abs(states[-1, 0] - 2.0) < 0.5 ** 38


def test_functional_constant_readout():
    sys = LinearReservoir(np.array([[0.3]]), np.array([[1.0]]), np.zeros(1))
    ro = Readout(np.zeros((2, 1)), np.array([0.7, -0.2]))
    hist = np.random.default_rng(1).uniform(-1, 1, (9, 1))
    out = functional(sys, hist, readout=ro)
    assert np.allclose(out, [0.7, -0.2])


def test_functional_linear_identity_readout():
    c = np.array([[0.4], [0.6]])
    zeta = np.array([0.1, 0.0])
    sys = LinearReservoir(np.zeros((2, 2)), c, zeta)
    ro = Readout(np.eye(2), np.zeros(2))
    hist = np.array([[0.9], [-0.3], [0.25]])
    out = functional(sys, hist, readout=ro)
    # newest input is the last history row
    assert np.allclose(out, c[:, 0] * 0.25 + zeta, atol=1e-14)


def test_functional_sas_constant_polynomials():
    p0 = np.array([[0.3, 0.1], [0.0, 0.2]])
    q0 = np.array([[0.5], [1.0]])
    p = MatrixPolynomial(np.zeros((1, 1)), p0[None])
    q = MatrixPolynomial(np.zeros((1, 1)), q0[None])
    sys = StateAffineReservoir(p, q)
    hist = np.random.default_rng(2).uniform(-1, 1, (5, 1))
    out = functional(sys, hist, input_bound=1.0)
    want = np.linalg.solve(np.eye(2) - p0, q0[:, 0])
    assert np.allclose(out, want, atol=1e-10)
    fp = zero_input_fixed_point(sys)
    assert np.allclose(fp, want, atol=1e-12)


def test_esp_gaps_zero_for_equal_starts():
    sys = LinearReservoir(np.array([[0.5]]), np.array([[1.0]]), np.zeros(1))
    z = np.ones((12, 1))
    res = esp_convergence_check(sys, z, x0_a=[1.5], x0_b=[1.5])
    assert res["gap0"] == 0.0
    assert np.all(res["gaps"] == 0.0)


def test_esp_gaps_scalar_exact_halving():
    sys = LinearReservoir(np.array([[0.5]]), np.array([[1.0]]), np.zeros(1))
    z = np.random.default_rng(3).uniform(-1, 1, (16, 1))
    res = esp_convergence_check(sys, z, x0_a=[2.0], x0_b=[-1.0])
    assert res["gap0"] == 3.0
    want = 3.0 * 0.5 ** np.arange(1, 17)
    assert np.allclose(res["gaps"], want, rtol=1e-13)


def test_esp_gaps_esn_bounded_by_rate():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6))
    a *= 0.9 / np.linalg.norm(a, 2)
    sys = EchoStateReservoir(a, rng.standard_normal((6, 2)),
                             rng.standard_normal(6), Activation("tanh"))
    z = rng.uniform(-1, 1, (60, 2))
    res = esp_convergence_check(sys, z, seed=11)
    assert abs(res["r"] - 0.9) < 1e-12
    env = res["gap0"] * 0.9 ** np.arange(1, 61)
    assert np.all(res["gaps"] <= env * (1 + 1e-9))


def test_bound_m_f_linear():
    sys = LinearReservoir(np.array([[0.5]]), np.array([[1.0]]), np.zeros(1))
    assert abs(bound_M_F(sys, input_bound=1.0) - 2.0) < 1e-14


def test_bound_m_f_esn_bounded_activation():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    a *= 0.5 / np.linalg.norm(a, 2)
    sys = EchoStateReservoir(a, rng.standard_normal((4, 1)) * 10,
                             rng.standard_normal(4) * 10, Activation("tanh"))
    # range bound sqrt(4) * 1 beats the linear-style bound here
    assert abs(bound_M_F(sys, input_bound=1.0) - 2.0) < 1e-14


def test_bound_m_f_sas_ratio():
    p = MatrixPolynomial(np.zeros((1, 1)), np.array([[[0.4]]]))
    q = MatrixPolynomial(np.zeros((1, 1)), np.array([[[1.2]]]))
    sys = StateAffineReservoir(p, q)
    assert abs(bound_M_F(sys, input_bound=1.0) - 2.0) < 1e-14


def test_state_stays_in_m_f_ball():
    rng = np.random.default_rng(6)
    for klass in (small_linear_class(), small_esn_class(), small_sas_class()):
        m_f = klass.m_f
        for hyp in sample_from_class(klass, n=10, seed=8):
            z = rng.uniform(-1, 1, (40, klass.n_input))
            states = run_filter(hyp.reservoir, z, washout=5)
            norms = np.linalg.norm(states, axis=1)
            assert norms.max() <= m_f + 1e-9


def test_sas_eval_poly_cases():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    const = MatrixPolynomial(np.zeros((1, 1)), a[None])
    assert np.array_equal(const.eval([0.3]), a)
    lin = MatrixPolynomial(np.array([[1]]), a[None])
    assert np.allclose(lin.eval([0.5]), 0.5 * a)
    b = np.array([[2.0, 0.0], [0.0, 2.0]])
    mixed = MatrixPolynomial(np.array([[1, 2]]), b[None])
    # z1 * z2^2 at (0.5, -0.5) is 0.125
    assert np.allclose(mixed.eval([0.5, -0.5]), 0.125 * b)


def test_sas_filter_matches_truncated_series():
    klass = small_sas_class()
    hyp = sample_from_class(klass, n=1, seed=12)[0]
    res = hyp.reservoir
    rng = np.random.default_rng(13)
    z = rng.uniform(-1, 1, (30, 1))
    states = run_filter(res, z, washout=0)
    r = klass.r
    m_f = klass.m_f
    for t in (5, 12, 29):
        total = np.zeros(klass.n_state)
        j_max = t
        for j in range(j_max + 1):
            term = res.q.eval(z[t - j])[:, 0]
            for k in reversed(range(j)):
                term = res.p.eval(z[t - k]) @ term
            total += term
        tol = m_f * r ** (j_max + 1) / (1 - r)
        assert np.linalg.norm(states[t] - total) <= tol + 1e-12


def test_sample_constant_class_members():
    klass = LinearClass(n_state=2, n_input=1, n_out=2, lam_a=0.0, lam_c=0.0,
                        lam_zeta=0.0, l_h=0.0, l_h0=0.8, input_bound=1.0,
                        input_second_moment=M2)
    for hyp in sample_from_class(klass, n=5, seed=3):
        assert np.all(hyp.readout.w == 0.0)
        assert np.linalg.norm(hyp.readout.a) <= 0.8 + 1e-12
        z = np.random.default_rng(0).uniform(-1, 1, (6, 1))
        out = run_filter(hyp.reservoir, z, washout=0,
                         readout=hyp.readout)
        assert np.allclose(out, out[0])


def test_sampled_linear_norms_sweep_the_cap():
    klass = small_linear_class()
    norms = [np.linalg.norm(h.reservoir.a, 2)
             for h in sample_from_class(klass, n=1000, seed=4)]
    norms = np.array(norms)
    assert norms.max() <= klass.lam_a * (1 + 1e-12)
    assert norms.max() >= 0.9 * klass.lam_a
    assert norms.min() < 0.1 * klass.lam_a


def test_sampled_members_pass_contains():
    rand = random_esn(5, 2, 1, a=0.5, c_scale=1.0, zeta_scale=0.5, l_h=1.0,
                      l_h0=0.5, seed=7, input_second_moment=M2)
    for klass in (small_linear_class(), small_esn_class(), small_sas_class(),
                  rand):
        for hyp in sample_from_class(klass, n=25, seed=9):
            assert klass.contains(hyp)


def test_random_esn_rejects_zero_base():
    with pytest.raises(ValueError):
        RandomEchoStateClass(base_a=np.zeros((3, 3)),
                             base_c=np.ones((3, 1)), base_zeta=np.zeros(3),
                             a=0.5, c_scale=1.0, zeta_scale=1.0,
                             l_h=1.0, l_h0=0.5, n_out=1)


def test_random_esn_row_sum_cap_is_a():
    klass = random_esn(5, 2, 1, a=0.5, c_scale=1.0, zeta_scale=0.5,
                       l_h=1.0, l_h0=0.5, seed=7,
                       input_second_moment=M2)
    assert klass.lam_a == 0.5
    member = klass.member(klass.rho_a_max, 0.3, 0.1)
    ls = klass.activation.lipschitz
    row_sum = ls * np.sum(np.abs(member.a).max(axis=1))
    assert abs(row_sum - 0.5) < 1e-12


def test_random_esn_lam_c_matches_mc_mean():
    # uniform entries, n_input=1: E||C_row|| = E|u| = 1/2, so the class
    # constant averages to c_scale * N / 2 over template draws
    n, c_scale, draws = 10, 0.7, 400
    vals = np.array([
        random_esn(n, 1, 1, a=0.5, c_scale=c_scale, zeta_scale=0.1,
                   l_h=1.0, l_h0=0.5, entry_law="uniform", seed=1000 + i,
                   input_second_moment=M2).lam_c
        for i in range(draws)])
    want = c_scale * n * 0.5
    se = vals.std(ddof=1) / np.sqrt(draws)
    assert abs(vals.mean() - want) <= 3 * se


def test_random_esn_member_rejects_cap_violation():
    klass = random_esn(4, 1, 1, a=0.5, c_scale=1.0, zeta_scale=0.5,
                       l_h=1.0, l_h0=0.5, seed=2, input_second_moment=M2)
    with pytest.raises(ValueError):
        klass.member(klass.rho_a_max * 1.01, 0.0, 0.0)


def test_class_invariant_validation():
    with pytest.raises(ValueError):
        LinearClass(n_state=2, n_input=1, n_out=1, lam_a=1.0, lam_c=1.0,
                    lam_zeta=0.0, l_h=1.0, l_h0=0.0, input_bound=1.0,
                    input_second_moment=M2)
    with pytest.raises(ValueError):
        StateAffineClass(n_state=2, n_input=1, n_out=1, alphas_p=((0,),),
                         alphas_q=((0,),), lam_sas=1.1, c_sas=1.0,
                         input_bound=1.0, l_h=1.0, l_h0=0.0)


LIN_CAPS = dict(n_state=2, n_input=1, n_out=1, lam_a=0.5, lam_c=1.0,
                lam_zeta=0.2, l_h=1.0, l_h0=0.5)
ESN_CAPS = dict(n_state=2, n_input=1, n_out=1, row_a=(0.2, 0.2),
                row_c=(0.5, 0.5), row_zeta=(0.1, 0.1), l_h=1.0, l_h0=0.5)
SAS_CAPS = dict(n_state=2, n_input=1, n_out=1, alphas_p=((0,),),
                alphas_q=((0,),), lam_sas=0.4, c_sas=1.0, input_bound=1.0,
                l_h=1.0, l_h0=0.5)


@pytest.mark.parametrize("build, caps, bad", [
    (LinearClass, LIN_CAPS, {"l_h": np.inf}),
    (LinearClass, LIN_CAPS, {"l_h0": np.nan}),
    (LinearClass, LIN_CAPS, {"lam_c": np.inf}),
    (EchoStateClass, ESN_CAPS, {"spec_a": -1.0}),
    (EchoStateClass, ESN_CAPS, {"spec_c": -0.5}),
    (EchoStateClass, ESN_CAPS, {"row_c": (0.5, np.inf)}),
    (EchoStateClass, ESN_CAPS, {"l_h": np.inf}),
    (StateAffineClass, SAS_CAPS, {"c_sas": np.inf}),
    (StateAffineClass, SAS_CAPS, {"l_h0": np.inf}),
], ids=["linear-l_h", "linear-l_h0", "linear-lam_c", "esn-spec_a",
        "esn-spec_c", "esn-row_c", "esn-l_h", "sas-c_sas", "sas-l_h0"])
def test_class_rejects_non_finite_or_negative_caps(build, caps, bad):
    with pytest.raises(ValueError, match="finite and >= 0"):
        build(**{**caps, **bad})


def test_random_esn_rejects_non_finite_caps():
    for bad in ({"c_scale": np.inf}, {"l_h": np.inf}):
        with pytest.raises(ValueError, match="finite and >= 0"):
            random_esn(**{"n_state": 3, "n_input": 1, "n_out": 1, "a": 0.5,
                          "c_scale": 1.0, "zeta_scale": 0.5, "l_h": 1.0,
                          "l_h0": 0.5, **bad})


def test_esn_class_rate_uses_spectral_cap():
    klass = small_esn_class()
    assert abs(klass.r - 0.6) < 1e-14
    # row-sum constant for the Rademacher route is the summed row caps
    assert abs(klass.lam_a - 0.6) < 1e-14


def _parity_systems():
    rng = np.random.default_rng(21)
    jordan = 0.5 * np.eye(3) + np.diag([1.0, 1.0], k=1)
    systems = [LinearReservoir(jordan, rng.standard_normal((3, 2)),
                               rng.standard_normal(3))]
    systems += [h.reservoir for h in sample_from_class(small_linear_class(),
                                                       n=1, seed=5)]
    a = rng.standard_normal((4, 4))
    a *= 0.8 / np.linalg.norm(a, 2)
    c, zeta = rng.standard_normal((4, 2)), rng.standard_normal(4)
    systems += [EchoStateReservoir(a, c, zeta, Activation(kind))
                for kind in ("tanh", "clipped_linear", "identity")]
    template = random_esn(4, 2, 1, a=0.6, c_scale=1.0, zeta_scale=0.5,
                          l_h=1.0, l_h0=0.5, seed=3, input_second_moment=M2)
    systems.append(template.member(0.7 * template.rho_a_max, -0.8, 0.4))
    p_alphas = np.array([[0, 0], [1, 0], [1, 2]])
    q_alphas = np.array([[0, 0], [0, 1], [2, 0]])
    p_coeffs = rng.standard_normal((3, 3, 3))
    p_coeffs *= 0.3 / np.linalg.norm(p_coeffs, 2, axis=(1, 2))[:, None, None]
    systems.append(StateAffineReservoir(
        MatrixPolynomial(p_alphas, p_coeffs),
        MatrixPolynomial(q_alphas, rng.standard_normal((3, 3, 1)))))
    return systems


@pytest.mark.parametrize("system", _parity_systems(),
                         ids=["linear_jordan", "linear", "esn_tanh",
                              "esn_clipped", "esn_identity", "esn_random",
                              "sas_mixed"])
def test_batch_recursion_matches_per_path_loop(system):
    # one path block plus 3 paths, so a block boundary is crossed; windows
    # of n = 0 (final states are the starts), 1, 20 and 33 steps (a kernel
    # length that is not a power of two)
    block = reservoir._PATH_BLOCK
    b, n_state = block + 3, system.n_state
    rng = np.random.default_rng(22)
    inputs = {20: rng.uniform(-1, 1, (b, 20, system.n_input))}
    # the per-path reference runs on a sample that straddles the boundary
    paths = sorted(set(range(0, b, 97)) | set(range(block - 3, b)))
    shared = rng.standard_normal(n_state)
    per_path = rng.standard_normal((b, n_state))
    for n in (0, 1, 33):
        inputs[n] = rng.uniform(-1, 1, (b, n, system.n_input))
    for n, z in inputs.items():
        for x0 in (None, shared, per_path):
            rows = np.broadcast_to(0.0 if x0 is None else x0, (b, n_state))
            starts = [None] * b if x0 is None else rows
            want = np.stack([iterate_states(system, z[i], x0=starts[i])
                             for i in paths])
            want_final = want[:, -1] if n else rows[paths]
            finals = iterate_states_batch(system, z, x0=x0)
            states = iterate_states_batch(system, z, x0=x0, return_all=True)
            assert finals.shape == (b, n_state)
            assert states.shape == (b, n, n_state)
            assert np.abs(finals[paths] - want_final).max() <= 1e-12
            if n:
                assert np.abs(states[paths] - want).max() <= 1e-12
    # window outputs of k = 3 readouts from the zero-input fixed point: the
    # time loop's states times each readout, bit for bit, or, for linear
    # systems (their kernel), within 1e-12 of the largest output, also on a
    # long window
    linear = isinstance(system, LinearReservoir)
    if linear:
        inputs[512] = rng.uniform(-1, 1, (b, 512, system.n_input))
    x_star = zero_input_fixed_point(system)
    for n, z in inputs.items():
        states = iterate_states_batch(system, z, x0=x_star, return_all=True)
        for m in (1, 2):
            readouts = [Readout(rng.standard_normal((m, n_state)),
                                rng.standard_normal(m)) for _ in range(3)]
            got = system.window_outputs(z, readouts)
            assert got.shape == (3, b, n, m)
            for out, ro in zip(got, readouts):
                want = states @ ro.w.T + ro.a
                if not linear:
                    assert np.array_equal(out, want)
                elif n:
                    assert (np.abs(out - want).max()
                            <= 1e-12 * np.abs(want).max())


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 9, 33])
def test_powers_match_repeated_products(k):
    # the doubling build of A^j v against A @ (the previous power), on an
    # (N, d) matrix and on an (N, 1) column, for a non-normal A
    rng = np.random.default_rng(25)
    a = rng.standard_normal((4, 4)) + np.diag([1.0, 1.0, 1.0], k=1)
    a *= 0.95 / np.linalg.norm(a, 2)
    for v in (rng.standard_normal((4, 3)), rng.standard_normal((4, 1))):
        want = [v]
        for _ in range(k - 1):
            want.append(a @ want[-1])
        got = reservoir._powers(a, v, k)
        assert got.shape == (k,) + v.shape
        for j in range(k):
            assert np.abs(got[j] - want[j]).max() <= 1e-14 * np.abs(want[j]).max()


def test_sas_step_matches_explicit_polynomial():
    # state_update against p(z) x + q(z) written out term by term, for one
    # path (N,) and for a column batch (N, b)
    sas = _parity_systems()[-1]
    rng = np.random.default_rng(23)
    z = rng.uniform(-1, 1, (2, 5))
    x = rng.standard_normal((3, 5))

    def explicit(poly, zi):
        return sum(np.prod(zi ** a) * c for a, c in zip(poly.alphas, poly.coeffs))

    want = np.stack([explicit(sas.p, z[:, i]) @ x[:, i]
                     + explicit(sas.q, z[:, i])[:, 0] for i in range(5)], axis=1)
    assert np.abs(state_update(sas, x, z) - want).max() <= 1e-14
    assert np.abs(state_update(sas, x[:, 0], z[:, 0]) - want[:, 0]).max() <= 1e-14


def test_linear_reservoir_is_identity_echo_state():
    rng = np.random.default_rng(24)
    a = rng.standard_normal((3, 3))
    a *= 0.7 / np.linalg.norm(a, 2)
    c, zeta = rng.standard_normal((3, 2)), rng.standard_normal(3)
    lin = LinearReservoir(a, c, zeta)
    esn = EchoStateReservoir(a, c, zeta, Activation("identity"))
    x, z = rng.standard_normal((3, 5)), rng.uniform(-1, 1, (2, 5))
    assert np.array_equal(state_update(lin, x, z), state_update(esn, x, z))
    assert np.array_equal(state_update(lin, x[:, 0], z[:, 0]),
                          state_update(esn, x[:, 0], z[:, 0]))
    for fn in (contraction_modulus, bound_M_F, input_lipschitz):
        assert fn(lin, 1.0) == fn(esn, 1.0)
    with pytest.raises(ValueError):
        LinearReservoir(a, c, zeta, Activation("tanh"))


def test_linear_two_starts_contract_without_roundoff_excess():
    # the zero-start response is shared bit for bit by both runs, so their
    # gap is the free response A^t (x_a - x_b) alone, down to roundoff
    klass = LinearClass(n_state=3, n_input=1, n_out=1, lam_a=0.6, lam_c=0.8,
                        lam_zeta=0.4, l_h=1.0, l_h0=0.5, input_bound=1.0,
                        input_second_moment=M2)
    rng = np.random.default_rng(2024)
    for i, hyp in enumerate(sample_from_class(klass, n=400, seed=2024)):
        z = rng.uniform(-1.0, 1.0, (100, 1))
        res = esp_convergence_check(hyp.reservoir, z, seed=2024 + i,
                                    input_bound=1.0)
        t = np.arange(1, res["gaps"].size + 1)
        assert np.all(res["gaps"] <= res["r"] ** t * res["gap0"] * (1.0 + 1e-9))
