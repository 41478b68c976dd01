import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrpd.actions import named_action
from qrpd.game import (FOUR_ACTION_ORDER, BasisState, GamePayoffs,
                       env_payoff_matrix, four_action_matrix,
                       one_shot_payoffs, validate_pd)

EPS_GRID = (0.0, 0.2, math.pi / 8, 0.5, math.pi / 4)


def test_validate_pd_standard_game(pd_game):
    report = validate_pd(pd_game)
    assert report.pd_valid
    assert report.defect_gain_vs_cooperator == 2
    assert report.defect_gain_vs_defector == 1


def test_validate_pd_degenerate_and_welfare_violations():
    flat = validate_pd(GamePayoffs(1, 1, 1, 1))
    assert not flat.pd_valid and not flat.ordering_ok
    greedy = validate_pd(GamePayoffs(3, 0, 7, 1))
    assert greedy.ordering_ok and not greedy.welfare_ok and not greedy.pd_valid


def test_payoffs_parse_forms():
    assert GamePayoffs.parse("3,0,5,1") == GamePayoffs(3, 0, 5, 1)
    assert GamePayoffs.parse('{"R":3,"S":0,"T":5,"P":1}') == GamePayoffs(3, 0, 5, 1)
    with pytest.raises(ValueError):
        GamePayoffs.parse("3,0,5")
    with pytest.raises(ValueError):
        GamePayoffs.parse('{"R":null,"S":0,"T":5,"P":1}')
    with pytest.raises(ValueError):
        GamePayoffs.parse('{"R":3,"S":[0],"T":5,"P":1}')


def test_one_shot_examples(pd_game):
    for eps in (0.0, 0.3, math.pi / 4):
        a, b = one_shot_payoffs(named_action("C"), named_action("C"), eps, pd_game)
        assert (a, b) == (pytest.approx(3, abs=1e-12), pytest.approx(3, abs=1e-12))
    a, b = one_shot_payoffs(named_action("Q"), named_action("D"), math.pi / 4,
                            pd_game)
    assert a == pytest.approx(5, abs=1e-12)
    assert b == pytest.approx(0, abs=1e-12)
    for eps in (0.1, 0.6):
        a, b = one_shot_payoffs(named_action("H"), named_action("H"), eps, pd_game)
        assert a == pytest.approx(2.25, abs=1e-12)
        assert b == pytest.approx(2.25, abs=1e-12)


def test_bob_is_the_transposed_game(pd_game):
    for na in FOUR_ACTION_ORDER:
        for nb in FOUR_ACTION_ORDER:
            a1, b1 = one_shot_payoffs(named_action(na), named_action(nb), 0.4,
                                      pd_game)
            a2, b2 = one_shot_payoffs(named_action(nb), named_action(na), 0.4,
                                      pd_game)
            assert b1 == pytest.approx(a2, abs=1e-12)
            assert b2 == pytest.approx(a1, abs=1e-12)


def test_env_payoff_tables(pd_game):
    np.testing.assert_array_equal(env_payoff_matrix(BasisState(0, 0), pd_game),
                                  [[3, 0], [5, 1]])
    np.testing.assert_array_equal(env_payoff_matrix(BasisState(0, 1), pd_game),
                                  [[0, 3], [1, 5]])
    np.testing.assert_array_equal(env_payoff_matrix(BasisState(1, 0), pd_game),
                                  [[5, 1], [3, 0]])
    np.testing.assert_array_equal(env_payoff_matrix(BasisState(1, 1), pd_game),
                                  [[1, 5], [0, 3]])
    with pytest.raises(ValueError):
        BasisState(2, 0)


def test_four_action_classical_block_at_zero_entanglement(pd_game):
    m = four_action_matrix(0.0, pd_game)
    np.testing.assert_allclose(m[:2, :2], [[3, 0], [5, 1]], atol=1e-15)


def test_four_action_spot_entries(pd_game):
    m = four_action_matrix(0.3, pd_game)
    expected_dq = 5 * math.cos(0.6) ** 2 + 0 * math.sin(0.6) ** 2
    assert m[1, 2] == pytest.approx(expected_dq, abs=1e-12)
    for eps in EPS_GRID:
        m = four_action_matrix(eps, pd_game)
        assert m[2, 3] == pytest.approx(1.5, abs=1e-12)


def test_four_action_matrix_matches_engine_everywhere(pd_game):
    for eps in EPS_GRID:
        closed = four_action_matrix(eps, pd_game)
        for i, na in enumerate(FOUR_ACTION_ORDER):
            for j, nb in enumerate(FOUR_ACTION_ORDER):
                engine, _ = one_shot_payoffs(named_action(na), named_action(nb),
                                             eps, pd_game)
                assert closed[i, j] == pytest.approx(engine, abs=1e-12), (na, nb, eps)


def test_supercooperation_pair_not_strict_ne_with_hadamard_present(pd_game):
    m = four_action_matrix(math.pi / 4, pd_game)
    q, h = FOUR_ACTION_ORDER.index("Q"), FOUR_ACTION_ORDER.index("H")
    assert m[h, q] > m[q, q]
    assert m[h, q] == pytest.approx(4.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False))
def test_one_shot_epsilon_symmetry_about_quarter_pi(eps, ):
    g = GamePayoffs(3, 0, 5, 1)
    for na, nb in (("D", "Q"), ("C", "H"), ("H", "D")):
        v1 = one_shot_payoffs(named_action(na), named_action(nb), eps, g)
        v2 = one_shot_payoffs(named_action(na), named_action(nb),
                              math.pi / 2 - eps, g)
        assert v1[0] == pytest.approx(v2[0], abs=1e-12)
        assert v1[1] == pytest.approx(v2[1], abs=1e-12)
