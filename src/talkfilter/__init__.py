"""Optimal information filters for binary-action sender-receiver games.

A filter garbles what the sender learns about the state before the cheap
talk starts. This package computes, in exact rational arithmetic, the
filters that maximize the receiver's or the sender's equilibrium utility,
handles two equally informed senders through an exact linear program, covers
three or more senders via majority play, and ships a brute-force oracle that
certifies the closed-form answers.
"""

__version__ = "0.1.0"

from .core import (
    RECEIVER,
    BinaryFilter,
    DuplicateStateName,
    EmptyStateList,
    FilterDomainMismatch,
    FilterValidationError,
    Game,
    GameValidationError,
    GeneralFilter,
    NonPositivePrior,
    PriorNotNormalized,
    Rational,
    SenderCountMismatch,
    StateClassification,
    StateRecord,
    UtilityProfile,
    ZeroProbabilitySignal,
    classify_states,
    constant_action_value,
    evaluate_babbling,
    evaluate_sigma_s,
    make_game,
    parse_rational,
    posterior,
    signal_utility,
    validate_game,
)
from .equilibrium import (
    Deviation,
    EquilibriumKind,
    EquilibriumOutcome,
    GeneralProfile,
    ICReport,
    MessageClass,
    SenderICWitness,
    canonical_equilibrium,
    check_nash_general,
    merge_to_binary,
    receiver_ic,
    sender_ic,
)
from .filter_opt import (
    Objective,
    OptimizerResult,
    receiver_optimal_filter,
    sender_optimal_filter,
)
from .multi_sender import (
    CandidateOutcome,
    CandidateProfile,
    LPInstance,
    WrongSenderCount,
    build_lp,
    lp_solve,
    majority_outcome,
    receiver_posthoc_ic,
    two_sender_optimal,
)
from .oracle import (
    GridSpec,
    GridTooLarge,
    RandomGameSpec,
    SplitMix64,
    exhaustive_nash_check,
    grid_search,
    profile_value,
    random_binary_filter,
    random_game,
    random_general_filter,
    random_profile,
    two_sender_grid_search,
    verify_filter_optimality,
)

__all__ = [
    # core
    "RECEIVER", "BinaryFilter", "DuplicateStateName", "EmptyStateList",
    "FilterDomainMismatch", "FilterValidationError", "Game",
    "GameValidationError", "GeneralFilter", "NonPositivePrior",
    "PriorNotNormalized", "Rational", "SenderCountMismatch",
    "StateClassification", "StateRecord", "UtilityProfile",
    "ZeroProbabilitySignal", "classify_states", "constant_action_value",
    "evaluate_babbling", "evaluate_sigma_s", "make_game", "parse_rational",
    "posterior", "signal_utility", "validate_game",
    # equilibrium
    "Deviation", "EquilibriumKind", "EquilibriumOutcome", "GeneralProfile",
    "ICReport", "MessageClass", "SenderICWitness", "canonical_equilibrium",
    "check_nash_general", "merge_to_binary", "receiver_ic", "sender_ic",
    # filter_opt
    "Objective", "OptimizerResult", "receiver_optimal_filter",
    "sender_optimal_filter",
    # multi_sender
    "CandidateOutcome", "CandidateProfile", "LPInstance", "WrongSenderCount",
    "build_lp", "lp_solve", "majority_outcome", "receiver_posthoc_ic",
    "two_sender_optimal",
    # oracle
    "GridSpec", "GridTooLarge", "RandomGameSpec", "SplitMix64",
    "exhaustive_nash_check", "grid_search", "profile_value",
    "random_binary_filter", "random_game", "random_general_filter",
    "random_profile", "two_sender_grid_search", "verify_filter_optimality",
]
