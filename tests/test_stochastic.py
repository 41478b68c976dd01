import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrpd.actions import ActionTriple, named_action
from qrpd.game import GamePayoffs
from qrpd.repeated import STRATEGIES, constant
from qrpd.stochastic import (MCConfig, collapse_value, compare_models,
                             markov_value, monte_carlo_payoff,
                             propagator_matrix)

ALLD, ALLH, CTFT = STRATEGIES["ALLD"], STRATEGIES["ALLH"], STRATEGIES["CTFT"]

ANGLE = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True,
                  allow_nan=False)
ALPHA = st.floats(min_value=0.0, max_value=math.pi, exclude_max=True,
                  allow_nan=False)
EPSILON = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)


def test_propagator_mutual_defection_swaps_00_and_11():
    for eps in (0.0, 0.3, math.pi / 4):
        prop = propagator_matrix(named_action("D"), named_action("D"), eps)
        assert prop.transition[0, 3] == pytest.approx(1.0, abs=1e-12)
        assert prop.transition[3, 0] == pytest.approx(1.0, abs=1e-12)


def test_propagator_mutual_cooperation_is_identity():
    prop = propagator_matrix(named_action("C"), named_action("C"), 0.4)
    np.testing.assert_allclose(prop.transition, np.eye(4), atol=1e-12)


def test_propagator_mutual_hadamard_uniform_row():
    prop = propagator_matrix(named_action("H"), named_action("H"), math.pi / 4)
    np.testing.assert_allclose(prop.transition[0], [0.25] * 4, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(t1=ANGLE, a1=ALPHA, p1=ANGLE, t2=ANGLE, a2=ALPHA, p2=ANGLE, eps=EPSILON)
def test_transition_rows_are_stochastic(t1, a1, p1, t2, a2, p2, eps):
    prop = propagator_matrix(ActionTriple(t1, a1, p1), ActionTriple(t2, a2, p2),
                             eps)
    rows = prop.transition.sum(axis=1)
    assert np.max(np.abs(rows - 1.0)) <= 1e-12
    assert np.min(prop.transition) >= 0.0


def test_markov_value_examples(pd_game):
    for eps in (0.0, 0.3, math.pi / 4):
        alice, bob = markov_value(named_action("D"), named_action("D"), eps,
                                  pd_game, 0.5)
        assert alice == pytest.approx(10 / 3, abs=1e-12)
        assert bob == pytest.approx(10 / 3, abs=1e-12)
    alice, _ = markov_value(named_action("C"), named_action("C"), 0.2, pd_game,
                            0.7)
    assert alice == pytest.approx(3 / 0.3, abs=1e-12)


def test_markov_value_at_w_zero_is_first_round_reward(pd_game):
    for pair in (("H", "D"), ("Q", "H")):
        a0, b0 = markov_value(named_action(pair[0]), named_action(pair[1]), 0.4,
                              pd_game, 0.0)
        from qrpd.game import one_shot_payoffs
        ea, eb = one_shot_payoffs(named_action(pair[0]), named_action(pair[1]),
                                  0.4, pd_game)
        assert a0 == pytest.approx(ea, abs=1e-12)
        assert b0 == pytest.approx(eb, abs=1e-12)


def test_markov_value_validates_w(pd_game):
    with pytest.raises(ValueError):
        markov_value(named_action("D"), named_action("D"), 0.3, pd_game, 1.0)


def test_mc_deterministic_trajectories(pd_game):
    res = monte_carlo_payoff(ALLD, ALLD, 0.3, pd_game, 0.5, MCConfig(500, 3))
    assert res.mean[0] == pytest.approx(10 / 3, abs=1e-9)
    assert res.stderr == (0.0, 0.0)
    res = monte_carlo_payoff(CTFT, ALLD, 0.3, pd_game, 0.5, MCConfig(500, 3))
    assert res.mean[0] == pytest.approx(10 / 3, abs=1e-9)
    assert res.mean[1] == pytest.approx(20 / 3, abs=1e-9)
    assert res.stderr == (0.0, 0.0)


def test_mc_single_round_uniform_outcomes(pd_game):
    n = 40000
    res = monte_carlo_payoff(ALLH, ALLH, math.pi / 4, pd_game, 0.0,
                             MCConfig(n, 11))
    expected_stderr = math.sqrt(3.6875 / n)
    assert res.rounds == 1
    for side in (0, 1):
        assert abs(res.mean[side] - 2.25) <= 3 * expected_stderr
        assert res.stderr[side] == pytest.approx(expected_stderr, rel=0.15)


def test_mc_reproducibility(pd_game):
    r1 = monte_carlo_payoff(ALLH, ALLD, 0.4, pd_game, 0.5, MCConfig(2000, 42))
    r2 = monte_carlo_payoff(ALLH, ALLD, 0.4, pd_game, 0.5, MCConfig(2000, 42))
    assert r1 == r2
    r3 = monte_carlo_payoff(ALLH, ALLD, 0.4, pd_game, 0.5, MCConfig(2000, 43))
    assert r3.mean != r1.mean


def test_mc_seeded_values_are_pinned(pd_game):
    """Exact means and standard errors for fixed seeds; any change to how
    uniforms are drawn or consumed moves them."""
    res = monte_carlo_payoff(ALLH, ALLD, 0.3, pd_game, 0.9, MCConfig(2000, 11))
    assert res.rounds == 256
    assert res.mean == (21.973820080257063, 22.672247019537956)
    assert res.stderr == (0.07447402098395953, 0.09672857203253742)
    res = monte_carlo_payoff(CTFT, ALLH, 0.5, pd_game, 0.6, MCConfig(1000, 7))
    assert res.rounds == 51
    assert res.mean == (5.845651318168994, 5.01339113399229)
    assert res.stderr == (0.07886732103666907, 0.07228356046929689)


def test_mc_config_validation():
    with pytest.raises(ValueError):
        MCConfig(0, 1)


def test_markov_agrees_with_mc_for_random_constant_pairs(pd_game):
    rng = np.random.default_rng(2024)
    for k in range(6):
        a = ActionTriple(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi),
                         rng.uniform(0, 2 * math.pi))
        b = ActionTriple(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi),
                         rng.uniform(0, 2 * math.pi))
        eps = rng.uniform(0, math.pi / 2)
        w = rng.uniform(0.1, 0.7)
        mv = markov_value(a, b, eps, pd_game, w)
        mc = monte_carlo_payoff(constant(a), constant(b), eps, pd_game, w,
                                MCConfig(20000, 100 + k))
        for side in (0, 1):
            tol = 3 * max(mc.stderr[side], 1e-9)
            assert abs(mv[side] - mc.mean[side]) <= tol


def test_collapse_value_matches_markov_for_constant_pairs(pd_game):
    a, b = named_action("H"), named_action("Q")
    mv = markov_value(a, b, 0.37, pd_game, 0.6)
    cv = collapse_value(constant(a), constant(b), 0.37, pd_game, 0.6)
    assert cv[0] == pytest.approx(mv[0], abs=1e-9)
    assert cv[1] == pytest.approx(mv[1], abs=1e-9)


def test_compare_models_basis_state_traces(pd_game):
    for eps in (0.0, 0.3, math.pi / 4):
        cmp = compare_models(ALLD, ALLD, eps, pd_game, 0.5)
        assert cmp.basis_state_trace
        assert abs(cmp.difference[0]) < 1e-9
        cmp = compare_models(CTFT, ALLD, eps, pd_game, 0.5)
        assert cmp.basis_state_trace
        assert abs(cmp.difference[0]) < 1e-9
        assert abs(cmp.difference[1]) < 1e-9


def test_compare_models_reports_superposition_gap(pd_game):
    cmp = compare_models(CTFT, ALLH, 0.5, pd_game, 0.5)
    assert not cmp.basis_state_trace
    assert all(math.isfinite(v) for v in cmp.unitary + cmp.collapse)
    # the two readings genuinely differ here; the gap is the deliverable
    assert abs(cmp.difference[0]) > 1e-3
