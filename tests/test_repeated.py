import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrpd.actions import ActionTriple, named_action
from qrpd.game import GamePayoffs
from qrpd.qcore import round_operator
from qrpd.repeated import (MAX_ROUNDS, STRATEGIES, PeriodNotFoundError,
                           Strategy, StrategyKind, UnsupportedPairError,
                           classical_periodic_payoff,
                           classical_truncated_payoff,
                           closed_form_meta_matrix, constant, detect_period,
                           engine_meta_matrix, meta_pair, parse_strategy,
                           periodic_payoff, round_schedule, tit_for_tat,
                           trace, truncated_payoff)

ALLC, ALLD, ALLQ = STRATEGIES["ALLC"], STRATEGIES["ALLD"], STRATEGIES["ALLQ"]
ALLH, ALLR3 = STRATEGIES["ALLH"], STRATEGIES["ALLR3"]
CTFT, QTFT = STRATEGIES["CTFT"], STRATEGIES["QTFT"]

EPS_GRID = (0.0, 0.2, math.pi / 8, 0.5, math.pi / 4)
W_GRID = tuple(0.1 * k for k in range(1, 10))

TABULATED = ("classical-tft-alld", "ctft-allq", "ctft-alld", "ctft-allh",
             "qtft-allc", "qtft-alld", "qtft-allh", "allc-allq", "alld-allq",
             "allc-allh", "allc-allr3", "alld-allr3")


# --- strategy mechanics ----------------------------------------------------

def test_parse_strategy_forms():
    assert parse_strategy("ctft") == CTFT
    assert parse_strategy("TFT:Q") == tit_for_tat(named_action("Q"))
    custom = parse_strategy("ALL:pi,pi/2,0")
    assert custom.kind.value == "constant"
    assert custom.action.theta == pytest.approx(math.pi)
    with pytest.raises(KeyError):
        parse_strategy("SOMETIMES")


def _schedule_names(sa, sb, rounds):
    pairs, schedule = round_schedule(sa, sb, rounds)
    return [(pairs[i][0].name, pairs[i][1].name) for i in schedule]


def test_mutual_tft_copies_simultaneously():
    assert _schedule_names(CTFT, QTFT, 4) == [("C", "Q"), ("Q", "C"),
                                              ("C", "Q"), ("Q", "C")]
    assert _schedule_names(CTFT, ALLD, 3) == [("C", "D"), ("D", "D"),
                                              ("D", "D")]
    assert _schedule_names(ALLH, QTFT, 3) == [("H", "Q"), ("H", "H"),
                                              ("H", "H")]
    assert _schedule_names(ALLH, ALLD, 2) == [("H", "D"), ("H", "D")]


TFT_D, TFT_MIXED = parse_strategy("TFT:D"), parse_strategy("TFT:1,0.5,0.2")
LOCKSTEP_PAIRS = ((TFT_D, QTFT), (TFT_MIXED, QTFT), (QTFT, TFT_MIXED),
                  (CTFT, ALLR3), (ALLH, QTFT), (ALLD, ALLR3))


def _lockstep_payoffs(sa, sb, eps, g, rounds):
    """Reference rollout: every round both players react to the other's
    previous action, and that round's sandwich is built afresh."""
    a, b = sa.action, sb.action
    vec = np.zeros(4, dtype=complex)
    vec[0] = 1.0
    out = []
    for _ in range(rounds):
        vec = round_operator(a.unitary(), b.unitary(), eps) @ vec
        probs = np.abs(vec) ** 2
        out.append((probs @ g.alice_vector(), probs @ g.bob_vector()))
        a, b = (b if sa.kind is StrategyKind.TIT_FOR_TAT else a,
                a if sb.kind is StrategyKind.TIT_FOR_TAT else b)
    return np.array(out)


@pytest.mark.parametrize("rounds", (1, 2, 3, 7, 1000))
@pytest.mark.parametrize("sa, sb", LOCKSTEP_PAIRS,
                         ids=lambda s: s.label())
def test_trace_matches_per_round_lockstep_loop(pd_game, sa, sb, rounds):
    expected = _lockstep_payoffs(sa, sb, 0.3, pd_game, rounds)
    np.testing.assert_allclose(trace(sa, sb, 0.3, pd_game, rounds).payoffs,
                               expected, rtol=0, atol=1e-12)


# --- traces ----------------------------------------------------------------

def test_trace_alld_vs_alld_states(pd_game):
    t = trace(ALLD, ALLD, 0.3, pd_game, 2)
    np.testing.assert_allclose(t.probabilities[0], [0, 0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(t.probabilities[1], [1, 0, 0, 0], atol=1e-12)


def test_trace_ctft_vs_alld_states(pd_game):
    t = trace(CTFT, ALLD, 0.7, pd_game, 2)
    np.testing.assert_allclose(t.probabilities[0], [0, 1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(t.probabilities[1], [0, 0, 1, 0], atol=1e-12)


def test_trace_allh_vs_allh_states(pd_game):
    t = trace(ALLH, ALLH, 0.45, pd_game, 2)
    np.testing.assert_allclose(t.probabilities[0], [0.25] * 4, atol=1e-12)
    np.testing.assert_allclose(t.probabilities[1], [1, 0, 0, 0], atol=1e-12)


def test_trace_round_guard(pd_game):
    with pytest.raises(ValueError):
        trace(ALLD, ALLD, 0.3, pd_game, MAX_ROUNDS + 1)
    with pytest.raises(ValueError):
        trace(ALLD, ALLD, 0.3, pd_game, 0)


def test_probabilities_sum_to_one_each_round(pd_game):
    t = trace(CTFT, ALLH, 0.31, pd_game, 50)
    np.testing.assert_allclose(t.probabilities.sum(axis=1), np.ones(50),
                               atol=1e-12)


# --- discounted payoffs ----------------------------------------------------

def test_truncated_mutual_cooperation(pd_game):
    for eps in (0.0, 0.4):
        alice, bob, _ = truncated_payoff(ALLC, ALLC, eps, pd_game, 0.5)
        assert alice == pytest.approx(6.0, abs=1e-9)
        assert bob == pytest.approx(6.0, abs=1e-9)


def test_truncated_ctft_vs_alld(pd_game):
    for eps in (0.0, 0.3, math.pi / 4):
        alice, bob, _ = truncated_payoff(CTFT, ALLD, eps, pd_game, 0.5)
        assert alice == pytest.approx(10 / 3, abs=1e-9)
        assert bob == pytest.approx(20 / 3, abs=1e-9)


def test_truncated_qtft_vs_alld_max_entanglement(pd_game):
    alice, bob, _ = truncated_payoff(QTFT, ALLD, math.pi / 4, pd_game, 0.5)
    assert alice == pytest.approx(20 / 3, abs=1e-9)
    assert bob == pytest.approx(10 / 3, abs=1e-9)


def test_truncated_rejects_bad_inputs(pd_game):
    with pytest.raises(ValueError):
        truncated_payoff(ALLC, ALLC, 0.3, pd_game, 1.0)
    with pytest.raises(ValueError):
        truncated_payoff(ALLC, ALLC, 0.3, pd_game, 0.5, tol=0.0)
    for tol in (math.inf, math.nan, -5.0):
        with pytest.raises(ValueError):
            truncated_payoff(ALLC, ALLC, 0.3, pd_game, 0.5, tol=tol)


def test_w_zero_gives_first_round_payoff(pd_game):
    for pair in ((CTFT, ALLH), (ALLD, ALLQ), (ALLR3, ALLC)):
        alice, bob, rounds = truncated_payoff(pair[0], pair[1], 0.37, pd_game, 0.0)
        t = trace(pair[0], pair[1], 0.37, pd_game, 1)
        assert rounds == 1
        assert alice == pytest.approx(t.payoffs[0, 0], abs=1e-12)
        assert bob == pytest.approx(t.payoffs[0, 1], abs=1e-12)


# --- period detection ------------------------------------------------------

def test_detect_period_constant_benchmark_pairs():
    names = ("C", "D", "Q", "H")
    for na in names:
        for nb in names:
            info = detect_period(constant(named_action(na)),
                                 constant(named_action(nb)), 0.3, 100)
            assert info.preperiod == 0
            if na == nb and na in ("C", "Q"):
                # the environment never leaves |00>, so the least period
                # degenerates to 1 (2 remains a period of the sequence)
                assert info.period == 1
            else:
                assert info.period == 2, (na, nb)


def test_detect_period_r3_and_mixed_pair():
    info = detect_period(ALLR3, ALLR3, 0.3, 200)
    assert (info.preperiod, info.period) == (0, 3)
    mixed_a = constant(ActionTriple(math.pi, math.pi / 2, 0.0))
    mixed_b = constant(ActionTriple(2 * math.pi / 3, math.pi / 2, 0.0))
    info = detect_period(mixed_a, mixed_b, 0.3, 200)
    assert (info.preperiod, info.period) == (0, 6)


def test_detect_period_irrational_rotation_is_aperiodic():
    strat = constant(ActionTriple(1.0, math.pi / 2, 0.0))
    info = detect_period(strat, strat, 0.3, 600)
    assert not info.is_periodic
    assert info.rounds_searched == 600


def test_detect_period_validates_limit():
    with pytest.raises(ValueError):
        detect_period(ALLD, ALLD, 0.3, 1)


# --- periodic resummation --------------------------------------------------

def test_periodic_alld_vs_alld(pd_game):
    for eps in (0.0, 0.2, math.pi / 4):
        alice, bob = periodic_payoff(ALLD, ALLD, eps, pd_game, 0.5)
        assert alice == pytest.approx(10 / 3, abs=1e-12)
        assert bob == pytest.approx(10 / 3, abs=1e-12)


def test_periodic_allh_vs_allh(pd_game):
    alice, bob = periodic_payoff(ALLH, ALLH, 0.3, pd_game, 0.5)
    assert alice == pytest.approx(5.0, abs=1e-12)
    assert bob == pytest.approx(5.0, abs=1e-12)


def test_periodic_allc_vs_allr3(pd_game):
    # rounds pay (R+3S)/4, (R+3S)/4, R repeating; at w = 1/2 that sums to
    # 15/7 for the cooperator and 60/7 for the rotating side
    alice, bob = periodic_payoff(ALLC, ALLR3, 0.4, pd_game, 0.5)
    assert alice == pytest.approx(15 / 7, abs=1e-12)
    assert bob == pytest.approx(60 / 7, abs=1e-12)


def test_periodic_matches_truncated(pd_game):
    # (TFT:D, QTFT) cycles with period 4 at this eps; (TFT:1,0.5,0.2, QTFT)
    # has no cycle within the search limit and is checked against the
    # per-round loop only
    for pair in ((ALLD, ALLR3), (CTFT, ALLH), (QTFT, ALLD), (TFT_D, QTFT)):
        for w in (0.2, 0.6, 0.9):
            pa, pb = periodic_payoff(pair[0], pair[1], 0.33, pd_game, w)
            ta, tb, _ = truncated_payoff(pair[0], pair[1], 0.33, pd_game, w)
            assert pa == pytest.approx(ta, abs=1e-9)
            assert pb == pytest.approx(tb, abs=1e-9)


def test_periodic_raises_for_aperiodic_pair(pd_game):
    strat = constant(ActionTriple(1.0, math.pi / 2, 0.0))
    with pytest.raises(PeriodNotFoundError):
        periodic_payoff(strat, strat, 0.3, pd_game, 0.5, search_limit=300)


# --- closed forms and the pair registry ------------------------------------

def test_ctft_alld_closed_form_at_w08(pd_game):
    m = closed_form_meta_matrix("ctft-alld", 0.8, 0.123, pd_game)
    expected = np.array([[15.0, 100 / 9], [125 / 9, 85 / 9]])
    np.testing.assert_allclose(m, expected, atol=1e-12)


def test_classical_closed_form(pd_game):
    m = closed_form_meta_matrix("classical-tft-alld", 0.5, 0.0, pd_game)
    np.testing.assert_allclose(m, [[6.0, 1.0], [6.0, 2.0]], atol=1e-12)


def test_qtft_allh_is_entanglement_independent(pd_game):
    m1 = closed_form_meta_matrix("qtft-allh", 0.6, 0.05, pd_game)
    m2 = closed_form_meta_matrix("qtft-allh", 0.6, math.pi / 4, pd_game)
    np.testing.assert_allclose(m1, m2, atol=1e-15)


def test_ctft_and_qtft_against_alld_coincide_without_entanglement(pd_game):
    m1 = closed_form_meta_matrix("ctft-alld", 0.45, 0.0, pd_game)
    m2 = closed_form_meta_matrix("qtft-alld", 0.45, 0.0, pd_game)
    np.testing.assert_allclose(m1, m2, atol=1e-12)


def test_ctft_vs_allq_pays_the_one_shot_value_every_round(pd_game):
    # the tit-for-tat side lags the constant side by one gate, so the
    # environment never returns to |00> and no w R bonus round appears
    t = trace(CTFT, ALLQ, 0.3, pd_game, 6)
    expected = 3 * math.cos(0.6) ** 2 + 1 * math.sin(0.6) ** 2
    np.testing.assert_allclose(t.payoffs[:, 0], [expected] * 6, atol=1e-12)
    m = closed_form_meta_matrix("ctft-allq", 0.5, 0.3, pd_game)
    assert m[0, 1] == pytest.approx(expected / 0.5, abs=1e-12)


def test_three_way_agreement_on_full_grid(pd_game):
    for pair in TABULATED:
        for w in W_GRID:
            for eps in EPS_GRID:
                cf = closed_form_meta_matrix(pair, w, eps, pd_game)
                per = engine_meta_matrix(pair, w, eps, pd_game, "periodic")
                tru = engine_meta_matrix(pair, w, eps, pd_game, "truncated")
                np.testing.assert_allclose(cf, per, atol=1e-12,
                                           err_msg=f"{pair} w={w} eps={eps}")
                np.testing.assert_allclose(cf, tru, atol=1e-9,
                                           err_msg=f"{pair} w={w} eps={eps}")


def test_symmetric_pairs_give_equal_payoffs(pd_game):
    for strat in (ALLH, ALLR3, CTFT):
        alice, bob, _ = truncated_payoff(strat, strat, 0.29, pd_game, 0.6)
        assert alice == pytest.approx(bob, abs=1e-12)


def test_pair_registry_flip_and_generic(pd_game):
    m = closed_form_meta_matrix("alld-ctft", 0.8, 0.2, pd_game)
    base = closed_form_meta_matrix("ctft-alld", 0.8, 0.2, pd_game)
    np.testing.assert_allclose(m, base[::-1, ::-1], atol=1e-15)
    generic = closed_form_meta_matrix("allh-alld", 0.5, 0.3, pd_game)
    engine = engine_meta_matrix("allh-alld", 0.5, 0.3, pd_game)
    np.testing.assert_allclose(generic, engine, atol=1e-12)


def test_unknown_pair_raises(pd_game):
    with pytest.raises(UnsupportedPairError):
        meta_pair("allz-alld")
    custom = meta_pair("allr3-ctft")
    assert custom.closed_form is None
    with pytest.raises(UnsupportedPairError):
        closed_form_meta_matrix("allr3-ctft", 0.5, 0.3, pd_game)


def test_engine_handles_pairs_without_closed_form(pd_game):
    m = engine_meta_matrix("allr3-ctft", 0.5, 0.3, pd_game)
    assert np.all(np.isfinite(m))


def test_classical_stream_matches_closed_form(pd_game):
    tft = tit_for_tat(named_action("C"), "TFT")
    for w in (0.0, 0.3, 0.8):
        cf = closed_form_meta_matrix("classical-tft-alld", w, 0.0, pd_game)
        a12, _, _ = classical_truncated_payoff(tft, ALLD, pd_game, w)
        p12 = classical_periodic_payoff(tft, ALLD, pd_game, w)
        assert a12 == pytest.approx(cf[0, 1], abs=1e-9)
        assert p12[0] == pytest.approx(cf[0, 1], abs=1e-12)


def test_classical_stream_rejects_quantum_actions(pd_game):
    with pytest.raises(ValueError):
        classical_truncated_payoff(ALLH, ALLD, pd_game, 0.5)


@settings(max_examples=25, deadline=None)
@given(w=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
       eps=st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False))
def test_cumulative_epsilon_symmetry(w, eps):
    g = GamePayoffs(3, 0, 5, 1)
    a1, b1, _ = truncated_payoff(QTFT, ALLD, eps, g, w, tol=1e-10)
    a2, b2, _ = truncated_payoff(QTFT, ALLD, math.pi / 2 - eps, g, w, tol=1e-10)
    assert a1 == pytest.approx(a2, abs=1e-9)
    assert b1 == pytest.approx(b2, abs=1e-9)
