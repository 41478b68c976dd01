import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrpd.qcore import (ALGEBRA_TOL, TwoQubitState, Unitary2,
                        basis_probabilities, entangler, entangler_adjoint,
                        evolve_round, make_unitary)

ANGLE = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True,
                  allow_nan=False)
ALPHA = st.floats(min_value=0.0, max_value=math.pi, exclude_max=True,
                  allow_nan=False)
EPSILON = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)
WIDE_ANGLE = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi,
                       allow_nan=False)

_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]]),
          np.array([[1, 0], [0, -1]], dtype=complex))

C = make_unitary(0.0, 0.0, 0.0)
D = make_unitary(math.pi, math.pi / 2, 0.0)
Q = make_unitary(math.pi, 0.0, 0.0)
H = make_unitary(math.pi, math.pi / 4, math.pi / 2)


def test_theta_zero_is_identity_regardless_of_other_angles():
    for alpha, phi in [(0.0, 0.0), (1.0, 2.0), (3.0, 5.5)]:
        u = make_unitary(0.0, alpha, phi)
        np.testing.assert_allclose(u.matrix, np.eye(2), atol=1e-15)


def test_dephased_hadamard_entries():
    assert H.gamma == pytest.approx(-1j / math.sqrt(2), abs=1e-15)
    assert H.delta == pytest.approx(-1 / math.sqrt(2), abs=1e-15)


def test_supercooperation_is_phase_times_z():
    np.testing.assert_allclose(Q.matrix, -1j * np.diag([1.0, -1.0]), atol=1e-15)


def test_make_unitary_rejects_non_finite():
    with pytest.raises(ValueError):
        make_unitary(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        make_unitary(0.0, math.inf, 0.0)


def test_angles_fold_into_canonical_ranges():
    u = make_unitary(2 * math.pi + 0.3, 0.4, 2 * math.pi + 0.1)
    v = make_unitary(0.3, 0.4, 0.1)
    np.testing.assert_allclose(u.matrix, v.matrix, atol=1e-12)


def test_entangler_at_zero_is_identity():
    np.testing.assert_allclose(entangler(0.0), np.eye(4), atol=1e-15)


def test_entangler_quarter_pi_makes_bell_like_state():
    state = entangler(math.pi / 4)[:, 0]
    expected = np.array([1.0, 0.0, 0.0, 1j]) / math.sqrt(2)
    np.testing.assert_allclose(state, expected, atol=1e-15)


@pytest.mark.parametrize("eps", [0.1, 0.5, math.pi / 4])
def test_entangler_unitarity(eps):
    j = entangler(eps)
    np.testing.assert_allclose(j @ j.conj().T, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(entangler_adjoint(eps), j.conj().T, atol=1e-15)


def test_entangler_rejects_out_of_range():
    with pytest.raises(ValueError):
        entangler(-0.1)
    with pytest.raises(ValueError):
        entangler(math.pi)


@pytest.mark.parametrize("eps", [0.0, 0.3, math.pi / 4])
def test_mutual_cooperation_leaves_start_state(eps):
    p = basis_probabilities(evolve_round([(C, C)], eps))
    np.testing.assert_allclose(p, [1, 0, 0, 0], atol=1e-12)


@pytest.mark.parametrize("eps", [0.0, 0.3, math.pi / 4])
def test_unilateral_defection_lands_on_01(eps):
    p = basis_probabilities(evolve_round([(C, D)], eps))
    np.testing.assert_allclose(p, [0, 1, 0, 0], atol=1e-12)


@pytest.mark.parametrize("eps", [0.0, 0.3, math.pi / 4])
def test_double_mutual_defection_returns_to_00(eps):
    p = basis_probabilities(evolve_round([(D, D), (D, D)], eps))
    np.testing.assert_allclose(p, [1, 0, 0, 0], atol=1e-12)


def test_evolve_round_rejects_empty_sequence():
    with pytest.raises(ValueError):
        evolve_round([], 0.3)


def test_basis_probabilities_examples():
    np.testing.assert_allclose(
        basis_probabilities(TwoQubitState.basis(0, 0)), [1, 0, 0, 0])
    bell = TwoQubitState(np.array([1.0, 0.0, 0.0, 1j]) / math.sqrt(2))
    np.testing.assert_allclose(basis_probabilities(bell), [0.5, 0, 0, 0.5],
                               atol=1e-15)


def test_cooperate_vs_hadamard_probabilities():
    eps = 0.3
    p = basis_probabilities(evolve_round([(C, H)], eps))
    c2, s2 = math.cos(0.6) ** 2 / 2, math.sin(0.6) ** 2 / 2
    np.testing.assert_allclose(p, [c2, c2, s2, s2], atol=1e-12)


def test_state_norm_is_validated():
    with pytest.raises(ValueError):
        TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0]))


def test_unitary2_rejects_non_unitary():
    with pytest.raises(ValueError):
        Unitary2(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_thousand_round_norm_stability():
    state = evolve_round([(H, D)] * 1000, 0.37)
    norm = float(np.sum(np.abs(state.amplitudes) ** 2))
    assert abs(norm - 1.0) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(theta=ANGLE, alpha=ALPHA, phi=ANGLE)
def test_make_unitary_is_unitary(theta, alpha, phi):
    u = make_unitary(theta, alpha, phi).matrix
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= ALGEBRA_TOL


@settings(max_examples=200, deadline=None)
@given(theta=WIDE_ANGLE, alpha=WIDE_ANGLE, phi=WIDE_ANGLE)
def test_make_unitary_is_the_bloch_rotation(theta, alpha, phi):
    """cos(theta/2) I - i sin(theta/2) n.sigma about the axis
    n = (sin a cos p, sin a sin p, cos a), up to the global sign that the
    theta fold may flip."""
    n = (math.sin(alpha) * math.cos(phi), math.sin(alpha) * math.sin(phi),
         math.cos(alpha))
    n_sigma = sum(c * s for c, s in zip(n, _PAULI))
    ref = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * n_sigma
    u = make_unitary(theta, alpha, phi).matrix
    gap = min(np.max(np.abs(u - ref)), np.max(np.abs(u + ref)))
    assert gap <= 1e-12


@settings(max_examples=40, deadline=None)
@given(theta=ANGLE, alpha=ALPHA, phi=ANGLE, theta2=ANGLE, alpha2=ALPHA,
       eps=EPSILON)
def test_epsilon_mirror_symmetry(theta, alpha, phi, theta2, alpha2, eps):
    ua = make_unitary(theta, alpha, phi)
    ub = make_unitary(theta2, alpha2, 0.7)
    ops = [(ua, ub), (ub, ua), (ua, ua)]
    p1 = basis_probabilities(evolve_round(ops, eps))
    p2 = basis_probabilities(evolve_round(ops, math.pi / 2 - eps))
    assert np.max(np.abs(p1 - p2)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(theta=ANGLE, alpha=ALPHA, phi=ANGLE, chi=ANGLE, eps=EPSILON)
def test_global_phase_insensitivity(theta, alpha, phi, chi, eps):
    u = make_unitary(theta, alpha, phi)
    phased = Unitary2(np.exp(1j * chi) * u.matrix)
    p1 = basis_probabilities(evolve_round([(u, H)], eps))
    p2 = basis_probabilities(evolve_round([(phased, H)], eps))
    assert np.max(np.abs(p1 - p2)) <= 1e-12
