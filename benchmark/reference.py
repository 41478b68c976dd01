"""Reference evaluator for checking qrpd's outputs.

It shares no code with the package: gates are built here from Bloch angles,
the entangler is cos(eps) I + i sin(eps) X(x)X, and each round applies the
sandwich J^dag (A (x) B) J to the accumulated state, starting from |00>.
Discounted series are summed round by round to this module's own horizon,
batched over many evaluations at once.  The collapse reading propagates the
basis-state distribution through the squared moduli of the same sandwich.

A strategy is a tuple (kind, (theta, alpha, phi)) with kind "ALL" (play the
action every round) or "TFT" (open with the action, then copy the
opponent's previous action).  Both players move simultaneously.
"""
from __future__ import annotations

import math

import numpy as np

# Bloch angles (theta, alpha, phi) of the paper's named actions.
NAMED = {
    "C": (0.0, 0.0, 0.0),
    "D": (math.pi, math.pi / 2, 0.0),
    "Q": (math.pi, 0.0, 0.0),
    "H": (math.pi, math.pi / 4, math.pi / 2),
    "R3": (2.0 * math.pi / 3.0, math.pi / 2, 0.0),
}

PRESETS = {
    "ALLC": ("ALL", NAMED["C"]),
    "ALLD": ("ALL", NAMED["D"]),
    "ALLQ": ("ALL", NAMED["Q"]),
    "ALLH": ("ALL", NAMED["H"]),
    "ALLR3": ("ALL", NAMED["R3"]),
    "CTFT": ("TFT", NAMED["C"]),
    "QTFT": ("TFT", NAMED["Q"]),
}

SERIES_TOL = 1e-13

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_XX = np.kron(_SX, _SX)


def gate(angles) -> np.ndarray:
    """exp(-i theta/2 n.sigma) for the axis n = (sin a cos p, sin a sin p, cos a)."""
    theta, alpha, phi = angles
    n_sigma = (math.sin(alpha) * math.cos(phi) * _SX
               + math.sin(alpha) * math.sin(phi) * _SY
               + math.cos(alpha) * _SZ)
    return math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * n_sigma


def entangler(eps) -> np.ndarray:
    """cos(eps) I + i sin(eps) X(x)X, batched over the shape of eps."""
    e = np.asarray(eps, dtype=float)[..., None, None]
    return np.cos(e) * np.eye(4) + 1j * np.sin(e) * _XX


def sandwich(a, b, eps) -> np.ndarray:
    """One round J^dag (A (x) B) J; a and b are angle triples."""
    j = entangler(eps)
    return np.conj(np.swapaxes(j, -1, -2)) @ np.kron(gate(a), gate(b)) @ j


def payoff_vectors(g):
    """Row and column payoffs of the landing states |00>, |01>, |10>, |11>.

    g is one (R, S, T, P) tuple or an (N, 4) array with one tuple per play."""
    R, S, T, P = np.moveaxis(np.asarray(g, dtype=float), -1, 0)
    return np.stack([R, S, T, P], axis=-1), np.stack([R, T, S, P], axis=-1)


def lockstep(sa, sb):
    """Action pairs of rounds 1, 2 and 3 under simultaneous play.

    Round k >= 2 repeats round 2 when k is even and round 3 when k is odd;
    the first rounds are generated by the play rule and that claim is checked.
    """
    def move(strat, own_prev, opp_prev):
        kind, action = strat
        if own_prev is None or kind == "ALL":
            return action
        return opp_prev

    pairs = []
    a = b = None
    for _ in range(5):
        a, b = move(sa, a, b), move(sb, b, a)
        pairs.append((a, b))
    if pairs[3] != pairs[1] or pairs[4] != pairs[2]:
        raise AssertionError("lockstep play is not 2-periodic after round 1")
    return pairs[:3]


def horizon(w: float, g) -> int:
    """Rounds after which the discounted tail is below SERIES_TOL."""
    amax = float(np.max(np.abs(g)))
    if w <= 0.0 or amax == 0.0:
        return 1
    return max(1, math.ceil(math.log(SERIES_TOL * (1.0 - w) / amax) / math.log(w)))


def _round_ops(plays):
    """(N, 3, 4, 4) sandwiches of rounds 1, 2 and 3 for (sa, sb, eps) plays."""
    ops = np.empty((len(plays), 3, 4, 4), dtype=complex)
    for n, (sa, sb, eps) in enumerate(plays):
        for k, (a, b) in enumerate(lockstep(sa, sb)):
            ops[n, k] = sandwich(a, b, eps)
    return ops


def _op_of_round(ops, k):
    return ops[:, 0] if k == 1 else ops[:, 1] if k % 2 == 0 else ops[:, 2]


def quantum_values(plays, ws, g):
    """Discounted (row, column) payoffs of the accumulated-state model for a
    batch of plays (sa, sb, eps), each with its own discount in ws and, when
    g is an (N, 4) array, its own payoffs."""
    if not plays:
        return np.empty(0), np.empty(0)
    ws = np.asarray(ws, dtype=float)
    ra, rb = payoff_vectors(g)
    ops = _round_ops(plays)
    psi = np.zeros((len(plays), 4), dtype=complex)
    psi[:, 0] = 1.0
    alice = np.zeros(len(plays))
    bob = np.zeros(len(plays))
    weight = np.ones(len(plays))
    for k in range(1, horizon(float(ws.max()), g) + 1):
        psi = np.einsum("nij,nj->ni", _op_of_round(ops, k), psi)
        p = np.abs(psi) ** 2
        alice += weight * (p * ra).sum(axis=-1)
        bob += weight * (p * rb).sum(axis=-1)
        weight = weight * ws
    return alice, bob


def probabilities(sa, sb, eps, rounds: int) -> np.ndarray:
    """Outcome probabilities of rounds 1..rounds, shape (rounds, 4)."""
    ops = _round_ops([(sa, sb, eps)])
    psi = np.zeros((1, 4), dtype=complex)
    psi[:, 0] = 1.0
    out = np.empty((rounds, 4))
    for k in range(1, rounds + 1):
        psi = np.einsum("nij,nj->ni", _op_of_round(ops, k), psi)
        out[k - 1] = np.abs(psi[0]) ** 2
    return out


def collapse_values(plays, ws, g):
    """Expected discounted payoffs when every round's outcome is measured and
    the next round starts from the measured basis state."""
    if not plays:
        return np.empty(0), np.empty(0)
    ws = np.asarray(ws, dtype=float)
    ra, rb = payoff_vectors(g)
    # Transition from basis state i to j is |<j| S |i>|^2, so P = |S|^2 transposed.
    trans = np.swapaxes(np.abs(_round_ops(plays)) ** 2, -1, -2)
    dist = np.zeros((len(plays), 4))
    dist[:, 0] = 1.0
    alice = np.zeros(len(plays))
    bob = np.zeros(len(plays))
    weight = np.ones(len(plays))
    for k in range(1, horizon(float(ws.max()), g) + 1):
        dist = np.einsum("ni,nij->nj", dist, _op_of_round(trans, k))
        alice += weight * (dist * ra).sum(axis=-1)
        bob += weight * (dist * rb).sum(axis=-1)
        weight = weight * ws
    return alice, bob


def one_shot(a, b, eps, g):
    """Expected (row, column) payoffs of a single round from |00>."""
    p = np.abs(sandwich(a, b, eps)[:, 0]) ** 2
    ra, rb = payoff_vectors(g)
    return float(p @ ra), float(p @ rb)


def classical_values(sa, sb, w, g):
    """Plain repeated dilemma with C/D actions: payoffs come from the action
    profile itself.  Actions are C (theta = 0) or D."""
    R, S, T, P = g
    table = ((R, S), (T, P))

    def idx(action):
        if action == NAMED["C"]:
            return 0
        if action == NAMED["D"]:
            return 1
        raise ValueError(f"classical play needs C or D, got {action}")

    first, even, odd = [(idx(a), idx(b)) for a, b in lockstep(sa, sb)]
    alice = bob = 0.0
    weight = 1.0
    for k in range(1, horizon(w, g) + 1):
        i, j = first if k == 1 else even if k % 2 == 0 else odd
        alice += weight * table[i][j]
        bob += weight * table[j][i]
        weight *= w
    return alice, bob


def meta_plays(row, col):
    """The four plays behind a 2x2 meta matrix, in order a11, a12, a21, a22."""
    return [(row, row), (row, col), (col, row), (col, col)]


def meta_matrices(cells, g, classical=False):
    """Row-player meta matrices for cells (row, col, w, eps); shape (N, 2, 2)."""
    if classical:
        out = [[classical_values(sa, sb, w, g)[0]
                for sa, sb in meta_plays(row, col)] for row, col, w, _ in cells]
        return np.array(out, dtype=float).reshape(-1, 2, 2)
    plays, ws = [], []
    for row, col, w, eps in cells:
        for sa, sb in meta_plays(row, col):
            plays.append((sa, sb, eps))
            ws.append(w)
    alice, _ = quantum_values(plays, ws, g)
    return alice.reshape(-1, 2, 2)


def verdict(m, tie_tol=1e-9):
    """Strict-NE verdict of a row-player 2x2 meta matrix."""
    first = m[0, 0] > m[1, 0] + tie_tol
    second = m[1, 1] > m[0, 1] + tie_tol
    return ("NEITHER", "FIRST", "SECOND", "BOTH")[int(first) + 2 * int(second)]


def close(value, ref, rel=1e-9) -> bool:
    """Agreement within rel, relative to the size of the value (at least 1)."""
    return abs(value - ref) <= rel * max(1.0, abs(ref))
