"""Pinned certificate values of the benchmark's two chain fixtures.

The uniform Lipschitz chain serves the bounded, phi_moment (power and exp
moment functions) and geometric cases; the algebraic chain at r = 0.99999
serves the algebraic case.  For each case, tests/chain_snapshot.json holds
the repr of the derived constants, of each report's total, terms, tau and k
over a grid of n and delta, and of the least sample sizes for a few
targets.  Any change to how the chain computes its numbers, down to the
last bit, shows here.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from rcbounds.bounds import (
    PhiFunction,
    bound_from_constants,
    expected_gap_constants,
    min_sample_size_from_constants,
)
from rcbounds.cli import bound_inputs_from_spec
from rcbounds.dependence import InnovationLaw

SNAPSHOT = Path(__file__).with_name("chain_snapshot.json")
NS = (1, 2, 3, 10, 1000, 4096, 10 ** 5, 10 ** 7, 10 ** 12)
DELTAS = (0.01, 0.05, 0.1, 0.5)
EPSILONS = (0.5, 2.0, 10.0, 100.0)


def _lipschitz_inputs():
    law_z, law_y = InnovationLaw("uniform", 1, 1.0), InnovationLaw("uniform", 1, 0.8)
    return bound_inputs_from_spec({
        "r": 0.3, "l_l": 0.9, "l_h": 0.8, "l_h0": 0.1, "l_r": 1.2, "m_f": 1.5,
        "n_out": 2, "c_rc": 1.7, "e_loss_zero": 0.4, "y_l2_moment": 0.9,
        "phi": {"kind": "power", "p": 2.0},
        "profile": {
            "regime": "lipschitz", "c_z": 1.4, "rate_z": 0.5, "c_y": 1.2,
            "rate_y": 0.4, "l_z": 0.7, "l_y": 0.9,
            "w_z": {"kind": "geometric", "param": 0.5},
            "w_y": {"kind": "geometric", "param": 0.4},
            "xi_mean_abs_z": law_z.mean_abs_norm().value,
            "xi_mean_abs_y": law_y.mean_abs_norm().value,
            "xi_second_z": law_z.second_moment().value,
            "xi_second_y": law_y.second_moment().value,
            "xi_bound_z": 1.0, "xi_bound_y": 0.8,
            "xi_law_z": {"kind": "uniform", "dim": 1, "scale": 1.0},
            "xi_law_y": {"kind": "uniform", "dim": 1, "scale": 0.8}}})


def _algebraic_inputs():
    return bound_inputs_from_spec({
        "r": 0.99999, "l_l": 1.0, "l_h": 0.9, "l_h0": 0.05, "l_r": 1.1,
        "m_f": 1.8, "n_out": 3, "c_rc": 2.0, "e_loss_zero": 0.6,
        "y_l2_moment": 1.2,
        "profile": {"regime": "algebraic", "c_z": 0.9, "rate_z": 0.3,
                    "c_y": 0.7, "rate_y": 0.45}})


def _chains():
    """(label, inputs, case) of every pinned chain."""
    lip = _lipschitz_inputs()
    return [("bounded", lip, "bounded"),
            ("phi_moment", lip, "phi_moment"),
            ("phi_moment_exp", replace(lip, phi=PhiFunction("exp")), "phi_moment"),
            ("geometric", lip, "geometric"),
            ("algebraic", _algebraic_inputs(), "algebraic")]


def chain_snapshot(inputs, case):
    """The repr of every value the chain derives for one case."""
    consts = expected_gap_constants(inputs, case)
    out = {"constants": repr(consts)}
    for n in NS:
        for delta in DELTAS:
            rep = bound_from_constants(consts, n, delta)
            out[f"n={n} delta={delta}"] = repr(
                (rep.total, rep.valid, rep.terms, rep.tau, rep.k))
    for eps in EPSILONS:
        out[f"n_min eps={eps}"] = repr(
            min_sample_size_from_constants(consts, eps, 0.1))
    return out


@pytest.mark.parametrize("label,inputs,case", _chains(),
                         ids=[c[0] for c in _chains()])
def test_chain_values_are_pinned(label, inputs, case):
    want = json.loads(SNAPSHOT.read_text(encoding="utf-8"))[label]
    assert chain_snapshot(inputs, case) == want
