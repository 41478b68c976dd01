"""Discounted repeated games on an entangled two-qubit environment.

The engine evolves two-qubit rounds inside an entangle/disentangle sandwich,
computes discounted payoffs three independent ways (truncated series,
periodic closed form, collapse-model Markov chain), and classifies strict
Nash equilibria of named strategy pairings over the (discount,
entanglement) plane.
"""
from .actions import ActionTriple, RationalAngle, named_action, parse_action, rational_of
from .game import BasisState, GamePayoffs, four_action_matrix, one_shot_payoffs
from .nash import NEClassification, Verdict, analytic_condition, classify_strict_ne, scan_region
from .qcore import TwoQubitState, Unitary2, basis_probabilities, entangler, evolve_round, make_unitary
from .repeated import (PeriodInfo, RoundTrace, Strategy, closed_form_meta_matrix,
                       detect_period, parse_strategy, periodic_payoff,
                       trace, truncated_payoff)
from .stochastic import MCConfig, compare_models, markov_value, monte_carlo_payoff, propagator_matrix

__version__ = "0.1.0"

__all__ = [
    "ActionTriple", "BasisState", "GamePayoffs", "MCConfig", "NEClassification",
    "PeriodInfo", "RationalAngle", "RoundTrace", "Strategy", "TwoQubitState",
    "Unitary2", "Verdict", "analytic_condition", "basis_probabilities",
    "classify_strict_ne", "closed_form_meta_matrix", "compare_models",
    "detect_period", "entangler", "evolve_round", "four_action_matrix",
    "make_unitary", "markov_value", "monte_carlo_payoff", "named_action",
    "one_shot_payoffs", "parse_action", "parse_strategy",
    "periodic_payoff", "propagator_matrix", "rational_of", "scan_region",
    "trace", "truncated_payoff",
]
