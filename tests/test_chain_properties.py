"""Properties of the certificate chain over random valid inputs of all four
cases: the sample-size search returns the least passing n of its search,
and the total is monotone in n and in the class and data constants."""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from rcbounds import bounds as B
from rcbounds.dependence import (
    DependenceProfile,
    InnovationLaw,
    Moment,
    WeightingSequence,
)

CASES = ("bounded", "phi_moment", "geometric", "algebraic")
PROPERTY = settings(max_examples=150, deadline=None)


def unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def laws(draw, bounded):
    if bounded:
        return InnovationLaw("uniform", 1, draw(unit(0.1, 2.0)))
    kind = draw(st.sampled_from(("gaussian", "uniform", "laplace")))
    dim = draw(st.integers(1, 3)) if kind == "gaussian" else 1
    return InnovationLaw(kind, dim, draw(unit(0.1, 2.0)))


@st.composite
def profiles(draw, case):
    if case in ("bounded", "phi_moment"):
        law_z, law_y = draw(laws(case == "bounded")), draw(laws(case == "bounded"))
        return DependenceProfile(
            regime="lipschitz", c_z=Moment(0.0), rate_z=0.5, c_y=Moment(0.0),
            rate_y=0.5, l_z=draw(unit(0.0, 2.0)), l_y=draw(unit(0.0, 2.0)),
            w_z=WeightingSequence("geometric", draw(unit(0.05, 0.95))),
            w_y=WeightingSequence("geometric", draw(unit(0.05, 0.95))),
            xi_mean_abs_z=law_z.mean_abs_norm(),
            xi_mean_abs_y=law_y.mean_abs_norm(),
            xi_bound_z=law_z.bound(), xi_bound_y=law_y.bound(),
            xi_law_z=law_z, xi_law_y=law_y)
    rates = unit(0.05, 0.95) if case == "geometric" else unit(0.05, 2.0)
    zero_z, zero_y = draw(st.sampled_from(((False, False), (True, False),
                                           (False, True))))
    return DependenceProfile(
        regime=case, c_z=Moment(0.0 if zero_z else draw(unit(0.0, 2.0))),
        rate_z=draw(rates), c_y=Moment(0.0 if zero_y else draw(unit(0.0, 2.0))),
        rate_y=draw(rates), exact_zero_z=zero_z, exact_zero_y=zero_y)


@st.composite
def chains(draw):
    """(inputs, case) of a valid chain."""
    case = draw(st.sampled_from(CASES))
    phi = None
    if case == "phi_moment":
        phi = draw(st.one_of(st.just(B.PhiFunction("exp")),
                             unit(1.1, 4.0).map(lambda p: B.PhiFunction("power", p))))
    inputs = B.BoundInputs(
        r=draw(unit(0.0, 0.999)), l_l=draw(unit(0.1, 3.0)),
        l_h=draw(unit(0.1, 3.0)), l_h0=draw(unit(0.0, 1.0)),
        l_r=draw(unit(0.0, 3.0)), m_f=draw(unit(0.0, 5.0)),
        n_out=draw(st.integers(1, 4)), c_rc=draw(unit(0.0, 5.0)),
        profile=draw(profiles(case)), e_loss_zero=Moment(draw(unit(0.0, 2.0))),
        y_l2_moment=Moment(draw(unit(0.1, 2.0))), phi=phi)
    return inputs, case


deltas = unit(0.01, 0.5)
sizes = st.integers(1, 10 ** 9)


def total(inputs, case, n, delta):
    return B.risk_bound(inputs, n, delta, case).total


@PROPERTY
@given(chains(), deltas, sizes, unit(0.5, 2.0))
def test_sample_size_passes_where_one_less_fails(chain, delta, n_target, scale):
    inputs, case = chain
    consts = B.expected_gap_constants(inputs, case)
    rep = B.bound_from_constants(consts, n_target, delta)
    if not rep.valid or rep.total == 0.0:
        return
    eps = scale * rep.total
    n = B.min_sample_size_from_constants(consts, eps, delta)
    if n is None:
        return
    passes = [(r.valid and r.total <= eps)
              for r in (B.bound_from_constants(consts, m, delta)
                        for m in (n, n - 1) if m >= 1)]
    assert passes == [True, False][:len(passes)]


@PROPERTY
@given(chains(), deltas, st.integers(3, 10 ** 9), st.integers(1, 10 ** 9))
def test_total_does_not_increase_in_n(chain, delta, n, step):
    # a power moment function with p < 2 is exempt: its deviation term
    # grows like n^(1/p - 1/2) (min_sample_size_from_constants says so)
    inputs, case = chain
    if inputs.phi is not None and inputs.phi.kind == "power" and inputs.phi.p < 2:
        return
    consts = B.expected_gap_constants(inputs, case)
    near, far = (B.bound_from_constants(consts, m, delta) for m in (n, n + step))
    if near.valid and far.valid:
        assert far.total <= near.total


@PROPERTY
@given(chains(), deltas, sizes, st.sampled_from(("m_f", "l_r", "c_rc", "r")),
       unit(0.0, 1.0))
def test_total_does_not_decrease_in_the_class_constants(chain, delta, n, name,
                                                        share):
    # raise one of m_f, l_r, c_rc and r by a share of its room
    inputs, case = chain
    value = getattr(inputs, name)
    top = 0.999 if name == "r" else 2.0 * value + 1.0
    larger = replace(inputs, **{name: value + share * (top - value)})
    if name == "r" and case != "algebraic" and lambda_max(larger, case) > max(
            lambda_max(inputs, case), B._RATE_FLOOR):
        # where r is the slowest rate, it sets lambda_max, and the
        # geometric-rate shape's c1 = (2 m_f l_l l_h + l_l c_y) / lambda_max
        # falls as it grows: with M = c_rc = c_z = 0 the total falls in r
        return
    assert total(larger, case, n, delta) >= total(inputs, case, n, delta)


def lambda_max(inputs, case):
    return B.expected_gap_constants(inputs, case).lambda_max
