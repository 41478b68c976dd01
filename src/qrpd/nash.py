"""Strict Nash classification of 2x2 meta games, the closed-form
equilibrium inequalities for the named pairings, region scans over the
(discount, entanglement) plane, and the classical baseline.

Only strict equilibria are classified; ties within the tolerance count as
non-strict.  Scans evaluate the closed form of a pair when one is
registered and fall back to per-cell periodic resummation otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Callable, Dict, Optional, TextIO, Tuple

import numpy as np

from .game import GamePayoffs
from .repeated import engine_meta_matrix, meta_pair

DEFAULT_TIE_TOL = 1e-9
DEFAULT_STEPS = 512
DEFAULT_W_MAX = 0.99
DEFAULT_EPS_MAX = math.pi / 4   # payoffs are symmetric about pi/4


class Verdict(str, Enum):
    FIRST = "FIRST"
    SECOND = "SECOND"
    BOTH = "BOTH"
    NEITHER = "NEITHER"


_CODE_TO_VERDICT = (Verdict.NEITHER, Verdict.FIRST, Verdict.SECOND, Verdict.BOTH)


@dataclass(frozen=True)
class NEClassification:
    verdict: Verdict
    margins: Tuple[float, float]    # (a11 - a21, a22 - a12)


def classify_codes(a11, a12, a21, a22, tie_tol: float = DEFAULT_TIE_TOL):
    """Vectorized verdict codes: 0 neither, 1 first, 2 second, 3 both."""
    if not (math.isfinite(tie_tol) and tie_tol >= 0.0):
        raise ValueError(f"tie tolerance must be finite and >= 0, got {tie_tol}")
    first = np.asarray(a11) > np.asarray(a21) + tie_tol
    second = np.asarray(a22) > np.asarray(a12) + tie_tol
    return first.astype(np.int8) + 2 * second.astype(np.int8)


def classify_strict_ne(matrix, tie_tol: float = DEFAULT_TIE_TOL) -> NEClassification:
    """Strict-NE verdict of a symmetric 2x2 meta game given the row player's
    payoffs: the row strategy is strict NE iff its diagonal entry beats the
    deviation entry below it."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (2, 2) or not np.all(np.isfinite(m)):
        raise ValueError("classification needs a finite 2x2 matrix")
    code = int(classify_codes(m[0, 0], m[0, 1], m[1, 0], m[1, 1], tie_tol))
    return NEClassification(_CODE_TO_VERDICT[code],
                            (float(m[0, 0] - m[1, 0]), float(m[1, 1] - m[0, 1])))


# ---------------------------------------------------------------------------
# Closed-form strict-NE inequalities per pairing.  u stands for
# sin^2(2 eps).  The R3 conditions are independent of eps: D = -iX and
# R3 = exp(-i pi/3 X) both commute with the entangler, so round m lands in
# D^m (x) R3^m |00>.  R3 flips the column qubit with probability 3/4, 3/4, 0
# (period 3).  Against ALLC the w-terms cancel against the 3-cycle
# denominator.  Against ALLD the row qubit alternates with period 2, so the
# joint cycle is 6 rounds (repeated._cf_alld_allr3) and the conditions are
# its entry differences multiplied through by 1 - w^6 > 0.  Earlier
# 3-cycle forms for ALLD-vs-ALLR3, ALLD: 3w^3 R + w^2 (2R + 4P - 3T) +
# w (P - S - 3T - R) + (P - S) > 0 and ALLR3: w^2 (S + T + 3P) +
# 3w ((T - R) + 3(P - S)) > (T - R) + 3(P - S), assume a return to |00>
# every third round and disagree with the engine matrices.

def _u(eps: float) -> float:
    return math.sin(2.0 * eps) ** 2


_Condition = Callable[[float, float, GamePayoffs], bool]

_CONDITIONS: Dict[Tuple[str, str], _Condition] = {
    ("classical-tft-alld", "TFT"):
        lambda w, u, g: w > (g.T - g.R) / (g.T - g.P),
    ("classical-tft-alld", "ALLD"):
        lambda w, u, g: g.P > g.S,
    ("ctft-alld", "CTFT"):
        lambda w, u, g: w > (g.T - g.R) / (g.R - g.S),
    ("ctft-alld", "ALLD"):
        lambda w, u, g: w < (g.P - g.S) / (g.T - g.R),
    ("ctft-allh", "CTFT"):
        lambda w, u, g: (w * (2 * g.R - (g.R + g.S) * (1 - u) - (g.P + g.T) * u)
                         > (g.R + g.T) * (1 - u) + (g.P + g.S) * u - 2 * g.R),
    ("ctft-allh", "ALLH"):
        lambda w, u, g: (w * (2 * g.R - (g.R + g.T) * (1 - u) - (g.P + g.S) * u)
                         > (g.R + g.S) * (1 - u) + (g.P + g.T) * u
                         - (g.R + g.S + g.T + g.P) / 2),
    ("qtft-alld", "QTFT"):
        lambda w, u, g: (w * (g.R - g.S * (1 - u) - g.T * u)
                         > g.T * (1 - u) + g.S * u - g.R),
    ("qtft-alld", "ALLD"):
        lambda w, u, g: (w * (g.R - g.S * u - g.T * (1 - u))
                         > g.S * (1 - u) + g.T * u - g.P),
    ("qtft-allh", "QTFT"):
        lambda w, u, g: w > (g.T - g.R) / (g.R - g.S),
    ("qtft-allh", "ALLH"):
        lambda w, u, g: w < (g.T + g.P - g.R - g.S) / (2 * (g.T - g.R)),
    ("alld-allq", "ALLD"):
        lambda w, u, g: u < (g.P - g.S) / (g.T - g.S),
    ("alld-allq", "ALLQ"):
        lambda w, u, g: u > (g.T - g.R) / (g.T - g.S),
    ("allh-alld", "ALLD"):
        lambda w, u, g: u < (g.P - g.S) / ((g.T - g.S) + (g.R - g.P)),
    ("allh-alld", "ALLH"):
        lambda w, u, g: u > 0.5,
    ("allh-allc", "ALLC"):
        lambda w, u, g: u > (g.T - g.R) / ((g.T - g.S) + (g.R - g.P)),
    ("allh-allc", "ALLH"):
        lambda w, u, g: u < 0.5,
    ("allc-allr3", "ALLC"):
        lambda w, u, g: g.R > g.T,
    ("allc-allr3", "ALLR3"):
        lambda w, u, g: (g.T - g.R) + 3 * (g.P - g.S) > 0,
    ("alld-allr3", "ALLD"):
        lambda w, u, g: ((g.P - g.S) * (1 + 4 * w ** 2 + w ** 4)
                         - 3 * (g.T - g.R) * (w + w ** 3) > 0),
    ("alld-allr3", "ALLR3"):
        lambda w, u, g: (((g.T - g.R) + 3 * (g.P - g.S))
                         * (3 * w + 3 * w ** 3 - 1 - w ** 4)
                         - 16 * (g.T - g.R) * w ** 2 > 0),
}

_PAIR_ALIASES = {
    "alld-allq": ("alld-allq", "allq-alld"),
    "allh-alld": ("allh-alld", "alld-allh"),
    "allh-allc": ("allh-allc", "allc-allh"),
}


def _canonical_condition_pair(pair: str) -> str:
    token = str(pair).strip().lower()
    keys = {p for p, _ in _CONDITIONS}
    if token in keys:
        return token
    left_right = token.split("-")
    if len(left_right) == 2:
        swapped = f"{left_right[1]}-{left_right[0]}"
        if swapped in keys:
            return swapped
    for canon, aliases in _PAIR_ALIASES.items():
        if token in aliases:
            return canon
    raise KeyError(f"no tabulated strict-NE condition for pair {pair!r}")


def analytic_condition(pair: str, strategy: str, w: float, eps: float,
                       g: GamePayoffs) -> bool:
    """Evaluate the tabulated strict-NE inequality for one strategy of a
    named pairing."""
    canon = _canonical_condition_pair(pair)
    key = (canon, str(strategy).strip().upper())
    if key not in _CONDITIONS:
        raise KeyError(f"no condition for strategy {strategy!r} in pair {pair!r}")
    return bool(_CONDITIONS[key](float(w), _u(float(eps)), g))


def condition_pairs() -> Tuple[Tuple[str, str], ...]:
    """All (pair, strategy) combinations with a tabulated inequality."""
    return tuple(sorted(_CONDITIONS))


# ---------------------------------------------------------------------------
# Region scans.

@dataclass(frozen=True)
class ScanGrid:
    """Classification of a named pair over a (w, eps) grid.  Entry arrays
    are indexed [i_w, j_eps]; verdict codes follow classify_codes."""

    pair: str
    w_axis: np.ndarray
    eps_axis: np.ndarray
    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray
    codes: np.ndarray

    def verdict_at(self, i: int, j: int) -> Verdict:
        return _CODE_TO_VERDICT[int(self.codes[i, j])]

    def write_csv(self, stream: TextIO) -> None:
        """Rows in row-major (w outer, eps inner) order, 12 significant
        digits, class column holding the verdict name.  Each w row is
        written with one call, and each distinct entry value of a row is
        formatted once."""
        stream.write("w,epsilon,a11,a12,a21,a22,class\n")
        names = np.array([v.value for v in _CODE_TO_VERDICT], dtype=object)
        eps_text = [_FLOAT_FORMAT % e for e in self.eps_axis.tolist()]
        for i, w in enumerate(self.w_axis.tolist()):
            columns = [_format_distinct(a[i])
                       for a in (self.a11, self.a12, self.a21, self.a22)]
            rows = zip(repeat(_FLOAT_FORMAT % w), eps_text, *columns,
                       names[self.codes[i]].tolist())
            stream.write("\n".join(map(",".join, rows)) + "\n")


_FLOAT_FORMAT = "%.12g"


def _format_distinct(values: np.ndarray) -> list:
    """Format a 1-d float row, each distinct bit pattern once: -0.0 and
    0.0 print differently, so equal values are not merged."""
    bits = np.ascontiguousarray(values).view(np.int64)
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    text = np.array([_FLOAT_FORMAT % v for v in values[first].tolist()],
                    dtype=object)
    return text[inverse].tolist()


def scan_region(pair: str, g: GamePayoffs,
                w_steps: int = DEFAULT_STEPS, eps_steps: int = DEFAULT_STEPS,
                w_max: float = DEFAULT_W_MAX,
                tie_tol: float = DEFAULT_TIE_TOL,
                eps_max: float = DEFAULT_EPS_MAX) -> ScanGrid:
    """Classify a pair on a regular grid.  Closed-form pairs are evaluated
    in one vectorized pass; engine-only pairs are computed cell by cell in
    row-major order.  Raises ValueError when an entry is not finite, as
    when large payoffs overflow, because the verdicts would be wrong."""
    if w_steps < 2 or eps_steps < 2:
        raise ValueError("need at least 2 steps per axis")
    if not 0.0 <= w_max < 1.0:
        raise ValueError("w_max must lie in [0, 1)")
    spec = meta_pair(pair)
    w_axis = np.linspace(0.0, w_max, w_steps)
    eps_axis = np.linspace(0.0, eps_max, eps_steps)
    if spec.closed_form is not None:
        W, E = np.meshgrid(w_axis, eps_axis, indexing="ij")
        with np.errstate(over="ignore", invalid="ignore"):
            a11, a12, a21, a22 = spec.closed_form(W, E, g)
    else:
        a11 = np.empty((w_steps, eps_steps))
        a12 = np.empty_like(a11)
        a21 = np.empty_like(a11)
        a22 = np.empty_like(a11)
        for i, w in enumerate(w_axis):
            for j, e in enumerate(eps_axis):
                m = engine_meta_matrix(spec.key, float(w), float(e), g)
                a11[i, j], a12[i, j] = m[0]
                a21[i, j], a22[i, j] = m[1]
    if not all(np.isfinite(a).all() for a in (a11, a12, a21, a22)):
        raise ValueError(f"scan of {spec.key!r} has non-finite meta-matrix "
                         "entries; the payoffs overflow float64")
    codes = classify_codes(a11, a12, a21, a22, tie_tol)
    return ScanGrid(spec.key, w_axis, eps_axis,
                    np.asarray(a11, dtype=float), np.asarray(a12, dtype=float),
                    np.asarray(a21, dtype=float), np.asarray(a22, dtype=float),
                    codes)


def classical_baseline(g: GamePayoffs, w: float
                       ) -> Tuple[np.ndarray, NEClassification]:
    """The classical TFT/ALLD matrix at discount w and its verdict."""
    from .repeated import closed_form_meta_matrix
    m = closed_form_meta_matrix("classical-tft-alld", w, 0.0, g)
    return m, classify_strict_ne(m)
