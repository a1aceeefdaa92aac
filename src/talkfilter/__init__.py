"""Optimal information filters for binary-action sender-receiver games.

A filter garbles what the sender learns about the state before the cheap
talk starts. This package computes, in exact rational arithmetic, the
filters that maximize the receiver's or the sender's equilibrium utility,
handles two equally informed senders through an exact linear program, covers
three or more senders via majority play, and ships a brute-force oracle that
certifies the closed-form answers.

Importing the package loads none of its modules: each public name loads
its defining module on first use, so the grid oracle, say, loads only when
one of its names is read.
"""

__version__ = "0.1.0"

import sys
from importlib import import_module

#: Each module's public names, in ``__all__`` order.
_EXPORTS = {
    "core": (
        "RECEIVER", "BinaryFilter", "DuplicateStateName", "EmptyStateList",
        "FilterDomainMismatch", "FilterValidationError", "Game",
        "GameValidationError", "GeneralFilter", "NonPositivePrior",
        "PriorNotNormalized", "Rational", "SenderCountMismatch",
        "StateClassification", "StateRecord", "UtilityProfile",
        "ZeroProbabilitySignal", "classify_states", "constant_action_value",
        "evaluate_babbling", "evaluate_sigma_s", "make_game", "parse_rational",
        "posterior", "signal_utility", "validate_game"),
    "equilibrium": (
        "Deviation", "EquilibriumKind", "EquilibriumOutcome", "GeneralProfile",
        "ICReport", "MessageClass", "SenderICWitness", "canonical_equilibrium",
        "check_nash_general", "merge_to_binary", "receiver_ic", "sender_ic"),
    "filter_opt": (
        "Objective", "OptimizerResult", "receiver_optimal_filter",
        "sender_optimal_filter"),
    "multi_sender": (
        "CandidateOutcome", "CandidateProfile", "LPInstance", "WrongSenderCount",
        "build_lp", "lp_solve", "majority_outcome", "receiver_posthoc_ic",
        "two_sender_optimal"),
    "oracle": (
        "GridSpec", "GridTooLarge", "RandomGameSpec", "SplitMix64",
        "exhaustive_nash_check", "grid_search", "profile_value",
        "random_binary_filter", "random_game", "random_general_filter",
        "random_profile", "two_sender_grid_search", "verify_filter_optimality"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

#: The full name of the module that defines each public name.
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """A public name, read from its defining module on every access.

    The name is never bound here, so it is always the module's current
    attribute: a tool that swaps a module's functions for wrappers, and later
    puts them back, is seen on every access. A module name of ``_EXPORTS``
    imports that module.
    """
    home = _HOME.get(name)
    if home is not None:
        return getattr(sys.modules.get(home) or import_module(home), name)
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
