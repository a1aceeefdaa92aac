"""Receiver-optimal play with two or more equally informed senders.

With two senders, six candidate outcomes cover the receiver's optimum: the
receiver acts only on unanimous reports (one variant per action), follows a
single designated sender, or ignores everyone and plays a constant action.
The unanimous profiles reduce to an exact LP over the filter's per-state
signal probabilities, one incentive row per sender, which
``_simplex.maximize`` solves by a search over the first row's multiplier on
the one-sender kernel. Only the reported filter of an LP with several optima
depends on its tie rule. The follow-one-sender profiles reduce to the
single-sender optimizer; constants need no filter at all.

With three or more senders, majority reporting already gives the receiver
the full-information optimum, so no filter can help her further.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import _simplex
from .core import BinaryFilter, Game, UtilityProfile, obey_profile
from .equilibrium import receiver_ic
from .filter_opt import receiver_optimal_filter


class WrongSenderCount(ValueError):
    pass


class CandidateProfile(enum.Enum):
    UNANIMOUS_0 = "unanimous-0"        # receiver plays 0 only when both report 0
    UNANIMOUS_1 = "unanimous-1"        # receiver plays 1 only when both report 1
    FOLLOW_SENDER_1 = "follow-sender-1"
    FOLLOW_SENDER_2 = "follow-sender-2"
    CONSTANT_0 = "constant-0"
    CONSTANT_1 = "constant-1"


#: Tie-break order for two_sender_optimal, fixed for determinism.
CANDIDATE_ORDER = (
    CandidateProfile.UNANIMOUS_0,
    CandidateProfile.UNANIMOUS_1,
    CandidateProfile.FOLLOW_SENDER_1,
    CandidateProfile.FOLLOW_SENDER_2,
    CandidateProfile.CONSTANT_0,
    CandidateProfile.CONSTANT_1,
)


@dataclass(frozen=True)
class LPInstance:
    """max objective.x subject to both rows >= 0 and 0 <= x <= 1.

    For the unanimous-1 target the variables are per-state probabilities of
    signal 1 (the action-swapped mirror); otherwise of signal 0.
    """

    target: CandidateProfile
    names: tuple[str, ...]
    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


def _require_senders(game: Game, count: int, at_least: bool = False) -> None:
    ok = game.num_senders >= count if at_least else game.num_senders == count
    if not ok:
        relation = "at least" if at_least else "exactly"
        raise WrongSenderCount(
            f"need {relation} {count} senders, game has {game.num_senders}")


def build_lp(game: Game, target: CandidateProfile) -> LPInstance:
    """Prior-weighted LP whose optimum is the best filter for a unanimous profile."""
    if target not in (CandidateProfile.UNANIMOUS_0, CandidateProfile.UNANIMOUS_1):
        raise ValueError(f"no LP for target {target}")
    _require_senders(game, 2)
    view = game.int_view
    sign = 1 if target is CandidateProfile.UNANIMOUS_0 else -1

    def row(t: int) -> tuple[Fraction, ...]:
        scale = view.slack_scale(t)
        return tuple(Fraction(sign * v, scale) for v in view.s[t])

    return LPInstance(target=target, names=tuple(view.names),
                      objective=row(view.receiver), rows=(row(0), row(1)))


def lp_solve(lp: LPInstance) -> tuple[tuple[Fraction, ...], Fraction]:
    """Exact optimal point; checks feasibility and the vertex shape on every solve.

    ``_simplex.maximize`` checks its own dual certificate as well.
    """
    x, value = _simplex.maximize(lp.objective, lp.rows)
    for row in lp.rows:
        if sum((c * v for c, v in zip(row, x)), Fraction(0)) < 0:
            raise ArithmeticError("the LP solver returned an infeasible point")
    if not all(0 <= v <= 1 for v in x):
        raise ArithmeticError("the LP solver returned a point outside the box")
    if sum(1 for v in x if 0 < v < 1) > len(lp.rows):
        raise ArithmeticError("vertex property violated")
    return tuple(x), value


def receiver_posthoc_ic(game: Game, target: CandidateProfile,
                        x: tuple[Fraction, ...]) -> bool:
    """Is obeying the unanimous report a receiver best response under x?

    That is ``receiver_ic`` of the signal-0 filter, x for unanimous-0 and
    1 - x for unanimous-1 (whose LP variables are signal-1 probabilities).
    """
    signal0 = x if target is CandidateProfile.UNANIMOUS_0 else [1 - xi for xi in x]
    return receiver_ic(game, BinaryFilter(dict(zip(game.int_view.names, signal0)))).holds


@dataclass(frozen=True)
class CandidateOutcome:
    profile: CandidateProfile
    filter: Optional[BinaryFilter]
    receiver_utility: Fraction
    feasible: bool


def two_sender_optimal(game: Game) -> tuple[CandidateOutcome, list[CandidateOutcome]]:
    """Evaluate all six candidate outcomes and return the best feasible one.

    Both senders observe the same filtered signal. Ties break by the fixed
    candidate order.
    """
    _require_senders(game, 2)
    view = game.int_view
    total_gap = view.s_total[view.receiver]
    candidates: list[CandidateOutcome] = []
    for profile in CANDIDATE_ORDER:
        if profile in (CandidateProfile.UNANIMOUS_0, CandidateProfile.UNANIMOUS_1):
            lp = build_lp(game, profile)
            x, value = lp_solve(lp)
            unanimous0 = profile is CandidateProfile.UNANIMOUS_0
            # receiver_posthoc_ic holds exactly when the value reaches
            # max(0, sum(objective)), the objective being +-s over the slack scale.
            sign = 1 if unanimous0 else -1
            feasible = (value * view.slack_scale(view.receiver)
                        >= max(0, sign * total_gap))
            filt = None
            if feasible:
                signal0 = x if unanimous0 else [1 - xi for xi in x]
                filt = BinaryFilter(signal0_prob=dict(zip(lp.names, signal0)))
            # Unanimous-0 plays 1 unless both report 0; unanimous-1 the reverse.
            base = view.constant_value(view.receiver, 1 if unanimous0 else 0)
            candidates.append(CandidateOutcome(
                profile=profile,
                filter=filt,
                receiver_utility=base + value,
                feasible=feasible))
        elif profile in (CandidateProfile.FOLLOW_SENDER_1,
                         CandidateProfile.FOLLOW_SENDER_2):
            sender_index = 0 if profile is CandidateProfile.FOLLOW_SENDER_1 else 1
            result = receiver_optimal_filter(game, sender_index=sender_index)
            candidates.append(CandidateOutcome(
                profile=profile,
                filter=result.filter,
                receiver_utility=result.outcome.utilities.receiver,
                feasible=True))
        else:
            action = 0 if profile is CandidateProfile.CONSTANT_0 else 1
            feasible = total_gap >= 0 if action == 0 else total_gap <= 0
            candidates.append(CandidateOutcome(
                profile=profile,
                filter=None,
                receiver_utility=view.constant_value(view.receiver, action),
                feasible=feasible))
    best = None
    for cand in candidates:
        if cand.feasible and (best is None or cand.receiver_utility > best.receiver_utility):
            best = cand
    if best is None:
        raise ArithmeticError("no feasible candidate, yet the better constant action always is")
    return best, candidates


def majority_outcome(game: Game) -> tuple[dict[str, int], UtilityProfile]:
    """Full-information majority play for three or more senders.

    Everyone reports the state; the receiver plays her per-state best action
    (ties to 0). No filter enters: the receiver already extracts the maximal
    possible utility, state by state. The utilities are the obey values of
    the 0/1 filter that signals each state's chosen action.
    """
    _require_senders(game, 3, at_least=True)
    view = game.int_view
    play0 = [1 if v >= 0 else 0 for v in view.s[view.receiver]]
    return ({name: 1 - x for name, x in zip(view.names, play0)},
            obey_profile(view, play0, 1))
