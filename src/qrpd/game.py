"""One-shot layer: the four-value payoff structure, expected payoffs through
one entangled round, environment-relabelled payoff tables, and the
closed-form four-action matrix used as a cross-check oracle."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .actions import ActionTriple
from .qcore import basis_index, basis_probabilities, evolve_round


@dataclass(frozen=True)
class GamePayoffs:
    """Payoffs (R, S, T, P): mutual cooperation, unilateral cooperation,
    unilateral defection, mutual defection."""

    R: float
    S: float
    T: float
    P: float

    def __post_init__(self) -> None:
        for field in ("R", "S", "T", "P"):
            raw = getattr(self, field)
            try:
                value = float(raw)
            except (TypeError, ValueError):
                raise ValueError(f"payoff {field} must be a number, "
                                 f"got {raw!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"payoff {field} must be finite")
            object.__setattr__(self, field, value)

    @classmethod
    def parse(cls, text: str) -> "GamePayoffs":
        """Accept either 'R,S,T,P' or a JSON object with those keys."""
        token = str(text).strip()
        if token.startswith("{"):
            data = json.loads(token)
            return cls(data["R"], data["S"], data["T"], data["P"])
        parts = token.split(",")
        if len(parts) != 4:
            raise ValueError(f"payoffs {text!r} must be R,S,T,P")
        return cls(*(float(p) for p in parts))

    def alice_vector(self) -> np.ndarray:
        """Landing-state payoffs for the row player, basis order."""
        return np.array([self.R, self.S, self.T, self.P])

    def bob_vector(self) -> np.ndarray:
        """Landing-state payoffs for the column player (labels swapped)."""
        return np.array([self.R, self.T, self.S, self.P])

    def max_abs(self) -> float:
        return max(abs(self.R), abs(self.S), abs(self.T), abs(self.P))


@dataclass(frozen=True)
class BasisState:
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a not in (0, 1) or self.b not in (0, 1):
            raise ValueError("basis labels must be 0 or 1")

    @property
    def index(self) -> int:
        return basis_index(self.a, self.b)


def one_shot_payoffs(uA: ActionTriple, uB: ActionTriple, eps: float,
                     g: GamePayoffs) -> Tuple[float, float]:
    """Expected (row, column) payoffs of a single entangled round from |00>."""
    state = evolve_round([(uA.unitary(), uB.unitary())], eps)
    p = basis_probabilities(state)
    return float(p @ g.alice_vector()), float(p @ g.bob_vector())


def env_payoff_matrix(s: Union[BasisState, Tuple[int, int]],
                      g: GamePayoffs) -> np.ndarray:
    """The 2x2 classical payoff table seen by the row player when a round
    effectively starts from basis environment |ab> instead of |00>."""
    if not isinstance(s, BasisState):
        s = BasisState(*s)
    R, S, T, P = g.R, g.S, g.T, g.P
    tables = {
        0: [[R, S], [T, P]],
        1: [[S, R], [P, T]],
        2: [[T, P], [R, S]],
        3: [[P, T], [S, R]],
    }
    return np.array(tables[s.index], dtype=float)


FOUR_ACTION_ORDER = ("C", "D", "Q", "H")


def four_action_entry(row: str, col: str, eps, g: GamePayoffs):
    """Closed-form one-shot payoff of `row` against `col`, both drawn from
    the C/D/Q/H benchmark set.  Accepts scalar or array eps (broadcasts)."""
    x = np.cos(2.0 * np.asarray(eps, dtype=float)) ** 2
    y = 1.0 - x
    R, S, T, P = g.R, g.S, g.T, g.P
    key = (row.upper(), col.upper())
    table = {
        ("C", "C"): lambda: R + 0.0 * x,
        ("C", "D"): lambda: S + 0.0 * x,
        ("C", "Q"): lambda: R * x + P * y,
        ("C", "H"): lambda: ((R + S) * x + (T + P) * y) / 2.0,
        ("D", "C"): lambda: T + 0.0 * x,
        ("D", "D"): lambda: P + 0.0 * x,
        ("D", "Q"): lambda: T * x + S * y,
        ("D", "H"): lambda: ((R + S) * y + (T + P) * x) / 2.0,
        ("Q", "C"): lambda: R * x + P * y,
        ("Q", "D"): lambda: S * x + T * y,
        ("Q", "Q"): lambda: R + 0.0 * x,
        ("Q", "H"): lambda: (R + S) / 2.0 + 0.0 * x,
        ("H", "C"): lambda: ((R + T) * x + (S + P) * y) / 2.0,
        ("H", "D"): lambda: ((R + T) * y + (S + P) * x) / 2.0,
        ("H", "Q"): lambda: (R + T) / 2.0 + 0.0 * x,
        ("H", "H"): lambda: (R + S + T + P) / 4.0 + 0.0 * x,
    }
    try:
        return table[key]()
    except KeyError:
        raise KeyError(f"no closed-form entry for pair {key}") from None


def four_action_matrix(eps: float, g: GamePayoffs) -> np.ndarray:
    """Closed-form 4x4 one-shot matrix over (C, D, Q, H); every entry agrees
    with one_shot_payoffs within 1e-12."""
    out = np.empty((4, 4))
    for i, row in enumerate(FOUR_ACTION_ORDER):
        for j, col in enumerate(FOUR_ACTION_ORDER):
            out[i, j] = four_action_entry(row, col, eps, g)
    return out
