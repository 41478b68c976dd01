"""Fast checks of the reference evaluator against hand-derived values.

Run with: python3 -m pytest -q benchmark/test_reference.py
"""
import math

import numpy as np
import pytest

import reference as ref

G = (3.0, 0.0, 5.0, 1.0)
R, S, T, P = G
WS = (0.0, 0.3, 0.5, 0.9, 0.99)
EPS = (0.0, 0.2, math.pi / 8, math.pi / 4)


def test_gates_are_unitary():
    for angles in list(ref.NAMED.values()) + [(1.0, 0.4, 2.2)]:
        u = ref.gate(angles)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
    for eps in EPS:
        op = ref.sandwich(ref.NAMED["H"], ref.NAMED["R3"], eps)
        assert np.allclose(op @ op.conj().T, np.eye(4), atol=1e-14)


@pytest.mark.parametrize("w", WS)
@pytest.mark.parametrize("eps", EPS)
def test_ctft_alld_matrix(w, eps):
    # D^2 = -I, so against ALLD the environment alternates between |01> and
    # |10> once CTFT starts copying; ALLD against itself alternates |11>, |00>.
    want = np.array([[R / (1 - w), (S + w * T) / (1 - w ** 2)],
                     [(T + w * S) / (1 - w ** 2), (P + w * R) / (1 - w ** 2)]])
    got = ref.meta_matrices([(ref.PRESETS["CTFT"], ref.PRESETS["ALLD"], w, eps)], G)[0]
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("w", WS)
def test_classical_tft_alld(w):
    tft, alld = ref.PRESETS["CTFT"], ref.PRESETS["ALLD"]
    tail = w * P / (1 - w)
    want = [[R / (1 - w), S + tail], [T + tail, P / (1 - w)]]
    got = ref.meta_matrices([(tft, alld, w, 0.0)], G, classical=True)[0]
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    assert ref.verdict(got) == ("BOTH" if w > (T - R) / (T - P) else "SECOND")


@pytest.mark.parametrize("eps", EPS)
def test_one_shot_c_against_q(eps):
    x = math.cos(2 * eps) ** 2
    alice, bob = ref.one_shot(ref.NAMED["C"], ref.NAMED["Q"], eps, G)
    assert alice == pytest.approx(R * x + P * (1 - x), abs=1e-12)
    assert bob == pytest.approx(R * x + P * (1 - x), abs=1e-12)


def test_allr3_self_play_cycle():
    # R3 commutes with the entangler; R3 (x) R3 lands on |00> every third
    # round and pays (R + 3S + 3T + 9P)/16 on the other two.
    w = 0.7
    mixed = (R + 3 * S + 3 * T + 9 * P) / 16
    want = (mixed * (1 + w) + w ** 2 * R) / (1 - w ** 3)
    r3 = ref.PRESETS["ALLR3"]
    alice, bob = ref.quantum_values([(r3, r3, 0.3)], [w], G)
    assert alice[0] == pytest.approx(want, abs=1e-12)
    assert bob[0] == pytest.approx(want, abs=1e-12)
    probs = ref.probabilities(r3, r3, 0.3, 9)
    assert np.allclose(probs[3:], probs[:6], atol=1e-12)


def test_collapse_of_deterministic_play_matches_accumulation():
    # ALLD against ALLD only visits basis states, so measuring changes nothing.
    d = ref.PRESETS["ALLD"]
    for w in WS:
        q = ref.quantum_values([(d, d, 0.4)], [w], G)
        c = ref.collapse_values([(d, d, 0.4)], [w], G)
        assert c[0][0] == pytest.approx((P + w * R) / (1 - w ** 2), rel=1e-12)
        assert c[0][0] == pytest.approx(q[0][0], rel=1e-12)


def test_collapse_of_constant_play_solves_the_chain():
    # For a constant pair the collapse value from |00> is the first entry of
    # (I - w T)^-1 T r, with T[i, j] = |<j| S |i>|^2.
    h, d = ref.PRESETS["ALLH"], ref.PRESETS["ALLD"]
    for w, eps in ((0.6, 0.0), (0.9, 0.5)):
        trans = (np.abs(ref.sandwich(ref.NAMED["H"], ref.NAMED["D"], eps)) ** 2).T
        assert np.allclose(trans.sum(axis=1), 1.0, atol=1e-14)
        ra, _ = ref.payoff_vectors(G)
        want = np.linalg.solve(np.eye(4) - w * trans, trans @ ra)[0]
        alice, _ = ref.collapse_values([(h, d, eps)], [w], G)
        assert alice[0] == pytest.approx(want, abs=1e-11)
