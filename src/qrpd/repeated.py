"""Repeated-game engine: reactive strategies and their lockstep round
schedule, round traces under the accumulated-unitary protocol, discounted
payoffs by truncation and by periodic resummation, environment period
detection, and the registry of named strategy pairs with their closed-form
2x2 meta-game matrices.

A round-m state is the full m-round gate product evaluated inside one
entangle/disentangle sandwich; equivalently the one-round sandwich applied
m times, which is how the trace loop computes it.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .actions import ActionTriple, named_action, parse_action
from .game import GamePayoffs, four_action_entry
from .qcore import check_epsilon, round_operator

MAX_ROUNDS = 10 ** 6
PERIOD_TOL = 1e-10
DEFAULT_TRUNCATION_TOL = 1e-12
DEFAULT_PERIOD_LIMIT = 1000


class PeriodNotFoundError(ValueError):
    """No repeating environment cycle within the searched horizon."""


class UnsupportedPairError(KeyError):
    """The strategy pair has no tabulated closed-form meta matrix."""


class StrategyKind(enum.Enum):
    CONSTANT = "constant"
    TIT_FOR_TAT = "tit_for_tat"


@dataclass(frozen=True)
class Strategy:
    """A reactive strategy: a constant action, or tit-for-tat with a fixed
    opening action."""

    kind: StrategyKind
    action: ActionTriple
    name: Optional[str] = None

    def label(self) -> str:
        if self.name:
            return self.name
        inner = self.action.name or (f"{self.action.theta:.6g},"
                                     f"{self.action.alpha:.6g},{self.action.phi:.6g}")
        prefix = "ALL" if self.kind is StrategyKind.CONSTANT else "TFT"
        return f"{prefix}:{inner}"


def constant(action: ActionTriple, name: Optional[str] = None) -> Strategy:
    return Strategy(StrategyKind.CONSTANT, action, name)


def tit_for_tat(first: ActionTriple, name: Optional[str] = None) -> Strategy:
    return Strategy(StrategyKind.TIT_FOR_TAT, first, name)


STRATEGIES: Dict[str, Strategy] = {
    "ALLC": constant(named_action("C"), "ALLC"),
    "ALLD": constant(named_action("D"), "ALLD"),
    "ALLQ": constant(named_action("Q"), "ALLQ"),
    "ALLH": constant(named_action("H"), "ALLH"),
    "ALLR3": constant(named_action("R3"), "ALLR3"),
    "CTFT": tit_for_tat(named_action("C"), "CTFT"),
    "QTFT": tit_for_tat(named_action("Q"), "QTFT"),
}


def parse_strategy(text: str) -> Strategy:
    """Parse a strategy: a preset name, ALL:<theta,alpha,phi>, or
    TFT:<first-action-name>."""
    token = str(text).strip()
    upper = token.upper()
    if upper in STRATEGIES:
        return STRATEGIES[upper]
    if upper.startswith("ALL:"):
        return constant(parse_action(token[4:]))
    if upper.startswith("TFT:"):
        return tit_for_tat(parse_action(token[4:]))
    raise KeyError(f"unknown strategy {text!r}; expected one of "
                   f"{', '.join(sorted(STRATEGIES))}, ALL:<t,a,p> or TFT:<action>")


def round_schedule(stratA: Strategy, stratB: Strategy, rounds: int
                   ) -> Tuple[Tuple[Tuple[ActionTriple, ActionTriple], ...],
                              np.ndarray]:
    """Lockstep play: at each round both players react to the other's
    previous-round action.  Returns the distinct (row, column) action pairs
    in order of first play and, for rounds 1..rounds, the index of the pair
    played.  Play repeats with period at most 2 after at most one opening
    round."""
    a, b = stratA.action, stratB.action
    tft_a = stratA.kind is StrategyKind.TIT_FOR_TAT
    tft_b = stratB.kind is StrategyKind.TIT_FOR_TAT
    m = np.arange(rounds)
    if tft_a and tft_b:
        return ((a, b), (b, a)), m % 2
    if tft_a:
        return ((a, b), (b, b)), (m > 0).astype(np.intp)
    if tft_b:
        return ((a, b), (a, a)), (m > 0).astype(np.intp)
    return ((a, b),), np.zeros(rounds, dtype=np.intp)


@dataclass(frozen=True)
class RoundTrace:
    """Per-round record: accumulated state, outcome probabilities,
    expected (row, column) payoffs."""

    states: np.ndarray          # (rounds, 4) complex amplitudes
    probabilities: np.ndarray   # (rounds, 4)
    payoffs: np.ndarray         # (rounds, 2)


def _check_rounds(rounds: int) -> int:
    rounds = int(rounds)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if rounds > MAX_ROUNDS:
        raise ValueError(f"rounds {rounds} exceeds the guard of {MAX_ROUNDS}")
    return rounds


def check_discount(w: float) -> None:
    """Validate a discount factor, 0 <= w < 1."""
    if not 0.0 <= w < 1.0:
        raise ValueError(f"discount factor must satisfy 0 <= w < 1, got {w}")


def _round_arrays(stratA: Strategy, stratB: Strategy, eps: float,
                  rounds: int) -> Tuple[np.ndarray, np.ndarray]:
    """States and probabilities for rounds 1..rounds."""
    check_epsilon(eps)
    pairs, schedule = round_schedule(stratA, stratB, rounds)
    ops = [round_operator(a.unitary(), b.unitary(), eps) for a, b in pairs]
    states = np.empty((rounds, 4), dtype=complex)
    vec = np.zeros(4, dtype=complex)
    vec[0] = 1.0
    for k, i in enumerate(schedule.tolist()):
        vec = ops[i] @ vec
        states[k] = vec
    return states, np.abs(states) ** 2


def trace(stratA: Strategy, stratB: Strategy, eps: float, g: GamePayoffs,
          rounds: int) -> RoundTrace:
    rounds = _check_rounds(rounds)
    states, probs = _round_arrays(stratA, stratB, eps, rounds)
    payoffs = np.stack([probs @ g.alice_vector(), probs @ g.bob_vector()], axis=1)
    return RoundTrace(states, probs, payoffs)


def truncation_rounds(g: GamePayoffs, w: float, tol: float) -> int:
    """Smallest M with w^M * max|payoff| / (1 - w) below tol."""
    check_discount(w)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    amax = g.max_abs()
    if w == 0.0 or amax == 0.0:
        return 1
    m = max(1, math.ceil(math.log(tol * (1.0 - w) / amax) / math.log(w)))
    while w ** m * amax / (1.0 - w) >= tol:
        m += 1
        if m > MAX_ROUNDS:
            raise ValueError("truncation horizon exceeds the round guard")
    return m


def _discounted(payoffs: np.ndarray, w: float) -> Tuple[float, float]:
    weights = w ** np.arange(payoffs.shape[0])
    return float(weights @ payoffs[:, 0]), float(weights @ payoffs[:, 1])


def truncated_payoff(stratA: Strategy, stratB: Strategy, eps: float,
                     g: GamePayoffs, w: float,
                     tol: float = DEFAULT_TRUNCATION_TOL
                     ) -> Tuple[float, float, int]:
    """Discounted cumulative payoffs summed until the geometric tail bound
    drops below tol; returns (row, column, rounds_used)."""
    m = truncation_rounds(g, w, tol)
    t = trace(stratA, stratB, eps, g, m)
    alice, bob = _discounted(t.payoffs, w)
    return alice, bob, m


def _find_cycle(values: np.ndarray, tol: float) -> Optional[Tuple[int, int]]:
    """Smallest (preperiod, period) with values[i + p] == values[i] for all
    i >= s.  A candidate needs real evidence: at least two full periods
    beyond the preperiod and a match covering half the window, which keeps
    a tail coincidence from masquerading as a short period."""
    n = len(values)
    for p in range(1, n // 2 + 1):
        span = n - p
        # Cheap rejection first.  Any acceptable candidate has s <= n // 2,
        # so late rows must match; early rows may belong to the preperiod
        # and are only consulted in the full scan.
        anchors = {span - 1, min(span - 1, n // 2)}
        if any(np.max(np.abs(values[i + p] - values[i])) > tol for i in anchors):
            continue
        diff = np.max(np.abs(values[p:] - values[:span]), axis=tuple(
            range(1, values.ndim)))
        bad = np.nonzero(diff > tol)[0]
        s = int(bad[-1]) + 1 if bad.size else 0
        if s + 2 * p <= n and s <= n // 2:
            return s, p
    return None


@dataclass(frozen=True)
class PeriodInfo:
    """Detected environment cycle: probability vectors repeat with the given
    period after the preperiod.  period is None when no cycle was found
    within rounds_searched."""

    preperiod: Optional[int]
    period: Optional[int]
    rounds_searched: int

    @property
    def is_periodic(self) -> bool:
        return self.period is not None


def detect_period(stratA: Strategy, stratB: Strategy, eps: float,
                  search_limit: int = DEFAULT_PERIOD_LIMIT) -> PeriodInfo:
    """Scan the per-round outcome distributions for the smallest repeating
    cycle.  Detection runs on probabilities because a full 2*pi rotation
    contributes a global sign at the amplitude level."""
    search_limit = int(search_limit)
    if search_limit < 2:
        raise ValueError("search_limit must be >= 2")
    _check_rounds(search_limit)
    _, probs = _round_arrays(stratA, stratB, eps, search_limit)
    found = _find_cycle(probs, PERIOD_TOL)
    if found is None:
        return PeriodInfo(None, None, search_limit)
    return PeriodInfo(*found, search_limit)


def _resum(payoffs: np.ndarray, s: int, p: int, w: float) -> Tuple[float, float]:
    """head + w^s * (one cycle) / (1 - w^p) for a payoff stream whose rows
    repeat with period p after the first s."""
    head_a, head_b = _discounted(payoffs[:s], w)
    cyc_a, cyc_b = _discounted(payoffs[s:s + p], w)
    scale = w ** s / (1.0 - w ** p)
    return head_a + scale * cyc_a, head_b + scale * cyc_b


def periodic_payoff(stratA: Strategy, stratB: Strategy, eps: float,
                    g: GamePayoffs, w: float,
                    search_limit: int = DEFAULT_PERIOD_LIMIT
                    ) -> Tuple[float, float]:
    """Exact discounted payoffs by geometric resummation of the detected
    cycle: head + w^s * (one cycle) / (1 - w^p)."""
    check_discount(w)
    info = detect_period(stratA, stratB, eps, search_limit)
    if not info.is_periodic:
        raise PeriodNotFoundError(
            f"no environment cycle within {search_limit} rounds for "
            f"{stratA.label()} vs {stratB.label()}")
    s, p = info.preperiod, info.period
    return _resum(trace(stratA, stratB, eps, g, s + p).payoffs, s, p, w)


# ---------------------------------------------------------------------------
# Classical evaluation of the plain repeated dilemma (payoffs accrue from the
# action profile itself, with no environment carried between rounds).

def _classical_action_index(a: ActionTriple) -> int:
    if abs(math.sin(a.theta / 2.0)) <= 1e-12:
        return 0
    d = named_action("D")
    if (abs(a.theta - d.theta) <= 1e-12 and abs(a.alpha - d.alpha) <= 1e-12
            and abs(a.phi - d.phi) <= 1e-12):
        return 1
    raise ValueError(f"classical evaluation is defined for C/D actions only, "
                     f"got {a}")


def classical_payoff_sequence(stratA: Strategy, stratB: Strategy,
                              g: GamePayoffs, rounds: int) -> np.ndarray:
    table = np.array([[g.R, g.S], [g.T, g.P]])
    pairs, schedule = round_schedule(stratA, stratB, rounds)
    index = [(_classical_action_index(a), _classical_action_index(b))
             for a, b in pairs]
    return np.array([(table[i, j], table[j, i]) for i, j in index])[schedule]


def classical_truncated_payoff(stratA: Strategy, stratB: Strategy,
                               g: GamePayoffs, w: float,
                               tol: float = DEFAULT_TRUNCATION_TOL
                               ) -> Tuple[float, float, int]:
    m = truncation_rounds(g, w, tol)
    return (*_discounted(classical_payoff_sequence(stratA, stratB, g, m), w), m)


def classical_periodic_payoff(stratA: Strategy, stratB: Strategy,
                              g: GamePayoffs, w: float,
                              search_limit: int = DEFAULT_PERIOD_LIMIT
                              ) -> Tuple[float, float]:
    check_discount(w)
    pay = classical_payoff_sequence(stratA, stratB, g, search_limit)
    found = _find_cycle(pay, PERIOD_TOL)
    if found is None:
        raise PeriodNotFoundError("no cycle in the classical payoff stream")
    return _resum(pay, *found, w)


# ---------------------------------------------------------------------------
# Named pair registry and closed-form meta matrices.
#
# Closed forms take (w, eps, g) with w and eps broadcastable arrays and
# return (a11, a12, a21, a22), the row player's payoffs.  Every form is
# derived from the pair's round cycle and must agree with both the
# truncated series and the periodic resummation (the tests enforce this
# three-way match entry by entry).

CfResult = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
ClosedForm = Callable[[np.ndarray, np.ndarray, GamePayoffs], CfResult]


def _cos2_sin2(eps):
    x = np.cos(2.0 * np.asarray(eps, dtype=float)) ** 2
    return x, 1.0 - x


def _cf_classical_tft_alld(w, eps, g: GamePayoffs) -> CfResult:
    R, S, T, P = g.R, g.S, g.T, g.P
    w = np.asarray(w, dtype=float)
    tail = w * P / (1.0 - w)
    shape = np.broadcast(w, np.asarray(eps)).shape
    return (np.broadcast_to(R / (1.0 - w), shape),
            np.broadcast_to(S + tail, shape),
            np.broadcast_to(T + tail, shape),
            np.broadcast_to(P / (1.0 - w), shape))


def _cf_c_vs_q(w, eps, g: GamePayoffs) -> CfResult:
    # ctft-allq and qtft-allc: every round pays the one-shot C-vs-Q value.
    # The tit-for-tat side lags the constant side by one gate, so the
    # accumulated pair alternates between (1 x Q)-like and (Q x 1)-like,
    # never returning to identity.
    R, P = g.R, g.P
    x, y = _cos2_sin2(eps)
    w = np.asarray(w, dtype=float)
    diag = R / (1.0 - w)
    off = (R * x + P * y) / (1.0 - w)
    diag, off = np.broadcast_arrays(diag, off)
    return diag, off, off, diag


def _cf_ctft_alld(w, eps, g: GamePayoffs) -> CfResult:
    R, S, T, P = g.R, g.S, g.T, g.P
    w = np.asarray(w, dtype=float)
    d2 = 1.0 - w ** 2
    shape = np.broadcast(w, np.asarray(eps)).shape
    return (np.broadcast_to(R / (1.0 - w), shape),
            np.broadcast_to((S + w * T) / d2, shape),
            np.broadcast_to((T + w * S) / d2, shape),
            np.broadcast_to((P + w * R) / d2, shape))


def _cf_ctft_allh(w, eps, g: GamePayoffs) -> CfResult:
    R, S, T, P = g.R, g.S, g.T, g.P
    x, y = _cos2_sin2(eps)
    w = np.asarray(w, dtype=float)
    d2 = 2.0 * (1.0 - w ** 2)
    a11 = R / (1.0 - w)
    a12 = (x * (R * (1.0 + w) + S + w * T) + y * (P * (1.0 + w) + w * S + T)) / d2
    a21 = (x * (R * (1.0 + w) + T + w * S) + y * (P * (1.0 + w) + w * T + S)) / d2
    a22 = (R + S + T + P + 4.0 * w * R) / (4.0 * (1.0 - w ** 2))
    a11, a12, a21, a22 = np.broadcast_arrays(a11, a12, a21, a22)
    return a11, a12, a21, a22


def _cf_qtft_alld(w, eps, g: GamePayoffs) -> CfResult:
    R, S, T, P = g.R, g.S, g.T, g.P
    x, y = _cos2_sin2(eps)
    w = np.asarray(w, dtype=float)
    d2 = 1.0 - w ** 2
    a11 = R / (1.0 - w)
    a12 = ((S + w * T) * x + (w * S + T) * y) / d2
    a21 = ((T + w * S) * x + (w * T + S) * y) / d2
    a22 = (P + w * R) / d2
    return np.broadcast_arrays(a11, a12, a21, a22)


def _cf_qtft_allh(w, eps, g: GamePayoffs) -> CfResult:
    R, S, T, P = g.R, g.S, g.T, g.P
    w = np.asarray(w, dtype=float)
    d2 = 1.0 - w ** 2
    a11 = R / (1.0 - w)
    a12 = (R * (1.0 + w) + S + w * T) / (2.0 * d2)
    a21 = (R * (1.0 + w) + T + w * S) / (2.0 * d2)
    a22 = ((R + S + T + P) / 4.0 + w * R) / d2
    shape = np.broadcast(w, np.asarray(eps)).shape
    return tuple(np.broadcast_to(v, shape) for v in (a11, a12, a21, a22))


def _cf_constant_pair(nameA: str, nameB: str) -> ClosedForm:
    """Any pair drawn from {C, D, Q, H}: both gates square to the identity
    up to phase, so even rounds land back on |00> and pay R.  The value is
    (one_shot + w R) / (1 - w^2) for every entry."""

    def form(w, eps, g: GamePayoffs) -> CfResult:
        w = np.asarray(w, dtype=float)
        d2 = 1.0 - w ** 2
        wr = w * g.R
        a11 = (four_action_entry(nameA, nameA, eps, g) + wr) / d2
        a12 = (four_action_entry(nameA, nameB, eps, g) + wr) / d2
        a21 = (four_action_entry(nameB, nameA, eps, g) + wr) / d2
        a22 = (four_action_entry(nameB, nameB, eps, g) + wr) / d2
        return np.broadcast_arrays(a11, a12, a21, a22)

    return form


def _r3_self_value(w, g: GamePayoffs):
    # Cycle: two mixed rounds at (R+3S+3T+9P)/16, then a clean return to
    # |00> paying R.
    R, S, T, P = g.R, g.S, g.T, g.P
    mixed = (R + 3.0 * S + 3.0 * T + 9.0 * P) / 16.0
    return (mixed * (1.0 + w) + w ** 2 * R) / (1.0 - w ** 3)


def _cf_allc_allr3(w, eps, g: GamePayoffs) -> CfResult:
    R, S, T, P = g.R, g.S, g.T, g.P
    w = np.asarray(w, dtype=float)
    d3 = 1.0 - w ** 3
    a11 = R / (1.0 - w)
    a12 = ((R + 3.0 * S) * (1.0 + w) / 4.0 + w ** 2 * R) / d3
    a21 = ((R + 3.0 * T) * (1.0 + w) / 4.0 + w ** 2 * R) / d3
    a22 = _r3_self_value(w, g)
    shape = np.broadcast(w, np.asarray(eps)).shape
    return tuple(np.broadcast_to(v, shape) for v in (a11, a12, a21, a22))


def _cf_alld_allr3(w, eps, g: GamePayoffs) -> CfResult:
    # The flip side of the rotation pair: theta = pi has a 2-round cycle and
    # theta = 2*pi/3 a 3-round cycle, so the joint environment repeats every
    # 6 rounds, not 3.
    R, S, T, P = g.R, g.S, g.T, g.P
    w = np.asarray(w, dtype=float)
    d6 = 1.0 - w ** 6
    a11 = (P + w * R) / (1.0 - w ** 2)
    a12 = ((T + 3.0 * P) / 4.0 * (1.0 + w ** 4)
           + (R + 3.0 * S) / 4.0 * (w + w ** 3)
           + T * w ** 2 + R * w ** 5) / d6
    a21 = ((S + 3.0 * P) / 4.0 * (1.0 + w ** 4)
           + (R + 3.0 * T) / 4.0 * (w + w ** 3)
           + S * w ** 2 + R * w ** 5) / d6
    a22 = _r3_self_value(w, g)
    shape = np.broadcast(w, np.asarray(eps)).shape
    return tuple(np.broadcast_to(v, shape) for v in (a11, a12, a21, a22))


@dataclass(frozen=True)
class MetaPair:
    """A named 2x2 meta game: row and column strategies, whether payoffs
    accrue classically, and an optional closed form."""

    key: str
    row: Strategy
    col: Strategy
    classical: bool = False
    closed_form: Optional[ClosedForm] = None


_S = STRATEGIES
_EXPLICIT_PAIRS = {
    "classical-tft-alld": MetaPair("classical-tft-alld",
                                   tit_for_tat(named_action("C"), "TFT"),
                                   _S["ALLD"], classical=True,
                                   closed_form=_cf_classical_tft_alld),
    "ctft-allq": MetaPair("ctft-allq", _S["CTFT"], _S["ALLQ"],
                          closed_form=_cf_c_vs_q),
    "ctft-alld": MetaPair("ctft-alld", _S["CTFT"], _S["ALLD"],
                          closed_form=_cf_ctft_alld),
    "ctft-allh": MetaPair("ctft-allh", _S["CTFT"], _S["ALLH"],
                          closed_form=_cf_ctft_allh),
    "qtft-allc": MetaPair("qtft-allc", _S["QTFT"], _S["ALLC"],
                          closed_form=_cf_c_vs_q),
    "qtft-alld": MetaPair("qtft-alld", _S["QTFT"], _S["ALLD"],
                          closed_form=_cf_qtft_alld),
    "qtft-allh": MetaPair("qtft-allh", _S["QTFT"], _S["ALLH"],
                          closed_form=_cf_qtft_allh),
    "allc-allr3": MetaPair("allc-allr3", _S["ALLC"], _S["ALLR3"],
                           closed_form=_cf_allc_allr3),
    "alld-allr3": MetaPair("alld-allr3", _S["ALLD"], _S["ALLR3"],
                           closed_form=_cf_alld_allr3),
}

_CONSTANT_NAMES = ("ALLC", "ALLD", "ALLQ", "ALLH")
_ACTION_OF = {"ALLC": "C", "ALLD": "D", "ALLQ": "Q", "ALLH": "H"}

TABULATED_PAIRS = tuple(sorted(_EXPLICIT_PAIRS)) + (
    "allc-allq", "alld-allq", "allc-allh")


def _flip(pair: MetaPair, key: str) -> MetaPair:
    form = pair.closed_form
    flipped = None
    if form is not None:
        def flipped(w, eps, g, _form=form):
            a11, a12, a21, a22 = _form(w, eps, g)
            return a22, a21, a12, a11
    return MetaPair(key, pair.col, pair.row, pair.classical, flipped)


def meta_pair(key: str) -> MetaPair:
    """Resolve a pair name such as 'ctft-alld' or 'allh-allc'.  Reversed
    orderings of a tabulated pair flip the matrix; pairs of benchmark
    constants get the generic constant-pair closed form; any other
    'A-B' with parseable strategy halves is engine-only."""
    token = str(key).strip().lower()
    if token in _EXPLICIT_PAIRS:
        return _EXPLICIT_PAIRS[token]
    parts = token.split("-")
    if len(parts) == 2:
        left, right = parts[0].upper(), parts[1].upper()
        reversed_key = f"{parts[1]}-{parts[0]}"
        if reversed_key in _EXPLICIT_PAIRS:
            return _flip(_EXPLICIT_PAIRS[reversed_key], token)
        if left in _CONSTANT_NAMES and right in _CONSTANT_NAMES:
            return MetaPair(token, _S[left], _S[right],
                            closed_form=_cf_constant_pair(_ACTION_OF[left],
                                                          _ACTION_OF[right]))
        try:
            row, col = parse_strategy(parts[0]), parse_strategy(parts[1])
        except KeyError:
            pass
        else:
            return MetaPair(token, row, col, closed_form=None)
    raise UnsupportedPairError(f"unknown strategy pair {key!r}")


def closed_form_meta_matrix(pair: str, w: float, eps: float,
                            g: GamePayoffs) -> np.ndarray:
    """The tabulated 2x2 closed-form matrix of row-player payoffs."""
    spec = meta_pair(pair)
    if spec.closed_form is None:
        raise UnsupportedPairError(f"pair {pair!r} has no closed form")
    check_discount(w)
    check_epsilon(eps)
    with np.errstate(over="ignore", invalid="ignore"):
        a11, a12, a21, a22 = spec.closed_form(w, eps, g)
    return np.array([[float(a11), float(a12)], [float(a21), float(a22)]])


def engine_meta_matrix(pair: str, w: float, eps: float, g: GamePayoffs,
                       method: str = "periodic",
                       tol: float = DEFAULT_TRUNCATION_TOL) -> np.ndarray:
    """The same matrix computed from round dynamics, entry by entry."""
    spec = meta_pair(pair)

    def value(sa: Strategy, sb: Strategy) -> float:
        if spec.classical:
            if method == "truncated":
                return classical_truncated_payoff(sa, sb, g, w, tol)[0]
            return classical_periodic_payoff(sa, sb, g, w)[0]
        if method == "truncated":
            return truncated_payoff(sa, sb, eps, g, w, tol)[0]
        return periodic_payoff(sa, sb, eps, g, w)[0]

    if method not in ("periodic", "truncated"):
        raise ValueError(f"unknown method {method!r}")
    r, c = spec.row, spec.col
    return np.array([[value(r, r), value(r, c)],
                     [value(c, r), value(c, c)]])
