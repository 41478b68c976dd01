"""Collapse-model view of the repeated game: one-round propagators between
basis environments, the induced Markov reward chain, a seeded Monte Carlo
estimator, and a comparator against the pure-state accumulation model.

Randomness comes from numpy's Philox generator, a counter-based algorithm;
a run is fully determined by the seed (round k draws one row of uniforms
and sample i consumes entry i of it), so results do not depend on how work
is scheduled.  Drawing row by row gives the same stream as one
(rounds, samples) block, in memory that grows with the samples only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .actions import ActionTriple
from .game import GamePayoffs
from .qcore import check_epsilon, round_operator
from .repeated import (Strategy, action_sequence, check_discount, constant,
                       trace, truncated_payoff, truncation_rounds)

ROW_SUM_TOL = 1e-12
MC_TAIL_TOL = 1e-10
BASIS_STATE_TOL = 1e-9


@dataclass(frozen=True)
class RoundPropagator:
    """Transition amplitudes of one round: amplitudes[i, j] carries basis
    environment i to j, and transition holds the squared moduli."""

    amplitudes: np.ndarray
    transition: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex)
        tr = np.array(self.transition, dtype=float)
        if amp.shape != (4, 4) or tr.shape != (4, 4):
            raise ValueError("propagator matrices must be 4x4")
        rows = tr.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > ROW_SUM_TOL:
            raise ValueError("transition rows must sum to 1")
        amp.setflags(write=False)
        tr.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "transition", tr)


def propagator_matrix(uA: ActionTriple, uB: ActionTriple,
                      eps: float) -> RoundPropagator:
    """All 16 one-round amplitudes <to| J_dag (uA x uB) J |from> plus the
    row-stochastic transition matrix of their squared moduli."""
    op = round_operator(uA.unitary(), uB.unitary(), eps)
    amps = op.T.copy()          # op[to, from] -> amplitudes[from, to]
    return RoundPropagator(amps, np.abs(amps) ** 2)


def markov_value(uA: ActionTriple, uB: ActionTriple, eps: float,
                 g: GamePayoffs, w: float) -> Tuple[float, float]:
    """Discounted value of the collapse chain for a constant action pair:
    states are the four basis environments, the reward of a step is the
    payoff of the landing state, and play starts from |00>.

    Solves (I - w P) v = P r; the system is never singular for w < 1.
    """
    check_discount(w)
    check_epsilon(eps)
    P = propagator_matrix(uA, uB, eps).transition
    lhs = np.eye(4) - w * P
    va = np.linalg.solve(lhs, P @ g.alice_vector())
    vb = np.linalg.solve(lhs, P @ g.bob_vector())
    return float(va[0]), float(vb[0])


@dataclass(frozen=True)
class MCConfig:
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


@dataclass(frozen=True)
class MCResult:
    mean: Tuple[float, float]
    stderr: Tuple[float, float]
    samples: int
    rounds: int


def _round_transitions(stratA: Strategy, stratB: Strategy, eps: float,
                       rounds: int) -> np.ndarray:
    """Per-round cumulative transition rows (rounds, 4, 4); the action
    sequence is deterministic because strategies react to actions, not to
    measured outcomes."""
    cum = np.empty((rounds, 4, 4))
    cache = {}
    for k, pair in enumerate(action_sequence(stratA, stratB, rounds)):
        rows = cache.get(pair)
        if rows is None:
            rows = np.cumsum(propagator_matrix(pair[0], pair[1], eps).transition,
                             axis=1)
            cache[pair] = rows
        cum[k] = rows
    return cum


def monte_carlo_payoff(stratA: Strategy, stratB: Strategy, eps: float,
                       g: GamePayoffs, w: float, cfg: MCConfig) -> MCResult:
    """Sampled discounted payoff of the collapse model: each round evolves
    the current basis environment one sandwich, measures, accrues the
    discounted payoff of the outcome, and restarts from it."""
    rounds = truncation_rounds(g, w, MC_TAIL_TOL)
    cum = _round_transitions(stratA, stratB, eps, rounds)
    a_vec, b_vec = g.alice_vector(), g.bob_vector()

    n = cfg.samples
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    uniforms = np.empty(n)
    envs = np.zeros(n, dtype=np.intp)
    alice = np.zeros(n)
    bob = np.zeros(n)
    weight = 1.0
    for k in range(rounds):
        rng.random(out=uniforms)
        rows = cum[k][envs]                              # (n, 4)
        nxt = (uniforms[:, None] > rows).sum(axis=1)
        np.clip(nxt, 0, 3, out=nxt)
        alice += weight * a_vec[nxt]
        bob += weight * b_vec[nxt]
        envs = nxt
        weight *= w
    ddof = 1 if n > 1 else 0
    return MCResult(
        mean=(float(alice.mean()), float(bob.mean())),
        stderr=(float(alice.std(ddof=ddof) / math.sqrt(n)),
                float(bob.std(ddof=ddof) / math.sqrt(n))),
        samples=n,
        rounds=rounds,
    )


def collapse_value(stratA: Strategy, stratB: Strategy, eps: float,
                   g: GamePayoffs, w: float,
                   tol: float = 1e-12) -> Tuple[float, float]:
    """Exact expectation of the collapse model by propagating the basis
    environment distribution, truncated like the series sum."""
    rounds = truncation_rounds(g, w, tol)
    dist = np.array([1.0, 0.0, 0.0, 0.0])
    alice = bob = 0.0
    weight = 1.0
    cache = {}
    for pair in action_sequence(stratA, stratB, rounds):
        P = cache.get(pair)
        if P is None:
            P = propagator_matrix(pair[0], pair[1], eps).transition
            cache[pair] = P
        dist = dist @ P
        alice += weight * float(dist @ g.alice_vector())
        bob += weight * float(dist @ g.bob_vector())
        weight *= w
    return alice, bob


@dataclass(frozen=True)
class ModelComparison:
    """Discounted values under the two readings of the protocol and their
    gap; basis_state_trace flags when every accumulated round state is a
    basis state, in which case the models provably coincide."""

    unitary: Tuple[float, float]
    collapse: Tuple[float, float]
    difference: Tuple[float, float]
    basis_state_trace: bool
    rounds: int


def compare_models(stratA: Strategy, stratB: Strategy, eps: float,
                   g: GamePayoffs, w: float) -> ModelComparison:
    ua, ub, rounds = truncated_payoff(stratA, stratB, eps, g, w)
    ca, cb = collapse_value(stratA, stratB, eps, g, w)
    t = trace(stratA, stratB, eps, g, rounds)
    basis = bool(np.all(t.probabilities.max(axis=1) >= 1.0 - BASIS_STATE_TOL))
    return ModelComparison(
        unitary=(ua, ub),
        collapse=(ca, cb),
        difference=(ua - ca, ub - cb),
        basis_state_trace=basis,
        rounds=rounds,
    )
