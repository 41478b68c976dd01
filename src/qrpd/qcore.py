"""Two-qubit engine: SU(2) gate construction, the entangling round sandwich,
and measurement probabilities.

Basis order is (|00>, |01>, |10>, |11>) with index 2*a + b; every module in
the package shares it.  Tolerances are absolute: 1e-12 for algebraic
invariants, 1e-9 for engine-level checks.  All values are immutable and all
functions are pure, so everything here is safe to evaluate concurrently.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

ALGEBRA_TOL = 1e-12
ENGINE_TOL = 1e-9

TWO_PI = 2.0 * math.pi

BASIS_LABELS = ("00", "01", "10", "11")

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_XX = np.kron(_X, _X)
_I4 = np.eye(4, dtype=complex)


def basis_index(a: int, b: int) -> int:
    """Index of |ab> in the shared basis order."""
    return 2 * a + b


def _require_finite(**angles: float) -> None:
    for name, value in angles.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def check_epsilon(eps: float) -> float:
    """Validate an entanglement angle, 0 <= eps <= pi/2."""
    eps = float(eps)
    _require_finite(eps=eps)
    if not 0.0 <= eps <= math.pi / 2:
        raise ValueError(f"entanglement angle outside [0, pi/2]: {eps}")
    return eps


@dataclass(frozen=True)
class Unitary2:
    """A single-qubit gate, unitary within 1e-12.

    make_unitary produces the special form [[g, d], [-conj(d), conj(g)]];
    arbitrary unit-modulus phase multiples are also accepted since they
    cannot affect outcome probabilities.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("Unitary2 requires a 2x2 matrix")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ValueError("entries must be finite")
        if np.max(np.abs(m @ m.conj().T - np.eye(2))) > ALGEBRA_TOL:
            raise ValueError("matrix is not unitary within 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def gamma(self) -> complex:
        return complex(self.matrix[0, 0])

    @property
    def delta(self) -> complex:
        return complex(self.matrix[0, 1])


def make_unitary(theta: float, alpha: float, phi: float) -> Unitary2:
    """Build the SU(2) gate rotating by theta about the Bloch axis
    (sin(alpha) cos(phi), sin(alpha) sin(phi), cos(alpha)).

    Entries are g = cos(theta/2) - i cos(alpha) sin(theta/2) and
    d = -i exp(-i phi) sin(alpha) sin(theta/2).  Angles outside the
    canonical ranges are folded mod 2*pi since the map is periodic.
    """
    theta, alpha, phi = float(theta), float(alpha), float(phi)
    _require_finite(theta=theta, alpha=alpha, phi=phi)
    theta %= TWO_PI
    alpha %= TWO_PI
    phi %= TWO_PI
    half = 0.5 * theta
    g = math.cos(half) - 1j * math.cos(alpha) * math.sin(half)
    d = -1j * cmath.exp(-1j * phi) * math.sin(alpha) * math.sin(half)
    return Unitary2(np.array([[g, d], [-d.conjugate(), g.conjugate()]]))


def entangler(eps: float) -> np.ndarray:
    """The two-qubit entangling unitary cos(eps) I + i sin(eps) (X tensor X)."""
    e = check_epsilon(eps)
    j = math.cos(e) * _I4 + 1j * math.sin(e) * _XX
    j.setflags(write=False)
    return j


def entangler_adjoint(eps: float) -> np.ndarray:
    e = check_epsilon(eps)
    j = math.cos(e) * _I4 - 1j * math.sin(e) * _XX
    j.setflags(write=False)
    return j


@dataclass(frozen=True)
class TwoQubitState:
    """Four complex amplitudes over the shared basis, unit norm."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape != (4,):
            raise ValueError("TwoQubitState requires 4 amplitudes")
        norm = float(np.sum(np.abs(amp) ** 2))
        if abs(norm - 1.0) > ALGEBRA_TOL:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def basis(cls, a: int, b: int) -> "TwoQubitState":
        amp = np.zeros(4, dtype=complex)
        amp[basis_index(a, b)] = 1.0
        return cls(amp)

    def probabilities(self) -> np.ndarray:
        return basis_probabilities(self)


def round_operator(uA: Unitary2, uB: Unitary2, eps: float) -> np.ndarray:
    """One-round sandwich J_dagger (uA tensor uB) J."""
    return entangler_adjoint(eps) @ np.kron(uA.matrix, uB.matrix) @ entangler(eps)


def evolve_round(state_ops: Sequence[Tuple[Unitary2, Unitary2]],
                 eps: float) -> TwoQubitState:
    """Apply a sequence of simultaneous gate pairs inside a single
    entangle/disentangle sandwich, starting from |00>.

    The result after m pairs equals the m-round accumulated state of the
    repeated protocol; with a single pair it is the one-shot final state.
    """
    ops = list(state_ops)
    if not ops:
        raise ValueError("state_ops must contain at least one gate pair")
    vec = entangler(eps)[:, 0].copy()
    for uA, uB in ops:
        vec = np.kron(uA.matrix, uB.matrix) @ vec
    vec = entangler_adjoint(eps) @ vec
    return TwoQubitState(vec)


def basis_probabilities(state: TwoQubitState) -> np.ndarray:
    """Squared moduli of the amplitudes; they sum to 1 within 1e-12."""
    amp = state.amplitudes
    p = np.abs(amp) ** 2
    total = float(p.sum())
    if abs(total - 1.0) > ENGINE_TOL:
        raise ValueError(f"state norm broken: probabilities sum to {total!r}")
    return p
