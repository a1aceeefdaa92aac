"""Receiver-optimal play with two or more equally informed senders.

With two senders, six candidate outcomes cover the receiver's optimum: the
receiver acts only on unanimous reports (one variant per action), follows a
single designated sender, or ignores everyone and plays a constant action.
The unanimous profiles reduce to an exact LP over the filter's per-state
signal-0 probabilities x: max s_r.x subject to s_j.x >= t_j for each
sender j, where s is the integer view's gap row at its slack scale and t is
0 for unanimous-0, sum(s_j) for unanimous-1. ``_simplex.maximize`` solves
it on those integers by a search over the first row's multiplier on the
one-sender kernel; only the filter of an LP with several optima depends on
its tie rule. Follow-one-sender reduces to the single-sender optimizer;
constants need no filter at all.

With three or more senders, majority reporting already gives the receiver
the full-information optimum, so no filter can help her further.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, mul
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


@dataclass(frozen=True)
class LPInstance:
    """max objective.x subject to rows[j].x >= bounds[j] and 0 <= x <= 1, on integers.

    For both targets x is the per-state probability of signal 0, and each
    row is its player's gap row s at that player's slack scale. ``bounds``
    is (0, 0) for unanimous-0 and the rows' sums for unanimous-1. ``scale``
    is the receiver's: obeying x is worth objective.x / scale more to her
    than constant action 1.
    """

    target: CandidateProfile
    names: tuple[str, ...]
    objective: tuple[int, ...]
    rows: tuple[tuple[int, ...], tuple[int, ...]]
    bounds: tuple[int, int]
    scale: int


def _require_senders(game: Game, count: int, at_least: bool = False) -> None:
    ok = game.num_senders >= count if at_least else game.num_senders == count
    if not ok:
        relation = "at least" if at_least else "exactly"
        raise WrongSenderCount(
            f"need {relation} {count} senders, game has {game.num_senders}")


def _require_unanimous(target: CandidateProfile) -> None:
    if target not in (CandidateProfile.UNANIMOUS_0, CandidateProfile.UNANIMOUS_1):
        raise ValueError(f"no LP for target {target}")


def build_lp(game: Game, target: CandidateProfile) -> LPInstance:
    """Prior-weighted LP whose optimum is the best filter for a unanimous profile."""
    _require_unanimous(target)
    _require_senders(game, 2)
    view = game.int_view
    s0, s1, receiver = (tuple(s) for s in view.s)
    bounds = (0, 0) if target is CandidateProfile.UNANIMOUS_0 else tuple(view.s_total[:2])
    return LPInstance(target=target, names=tuple(view.names), objective=receiver,
                      rows=(s0, s1), bounds=bounds, scale=view.slack_scale(view.receiver))


def lp_solve(lp: LPInstance) -> tuple[tuple[Fraction, ...], Fraction]:
    """Exact optimal signal-0 probabilities x and value objective.x / scale.

    Checked again on the solver's integers: both rows meet their bounds, x
    is in the box, and at most two entries are fractional.
    """
    (a, b), (ta, tb) = lp.rows, lp.bounds
    xnum, den = _simplex.maximize(lp.objective, a, ta, b, tb)
    if any(sum(map(mul, row, xnum)) < t * den for row, t in zip(lp.rows, lp.bounds)):
        raise ArithmeticError("the LP solver returned an infeasible point")
    if not all(0 <= v <= den for v in xnum):
        raise ArithmeticError("the LP solver returned a point outside the box")
    if sum(1 for v in xnum if 0 < v < den) > len(lp.rows):
        raise ArithmeticError("vertex property violated")
    one, zero = Fraction(1), Fraction(0)
    x = tuple(one if v == den else zero if v == 0 else Fraction(v, den) for v in xnum)
    return x, Fraction(sum(map(mul, lp.objective, xnum)), den * lp.scale)


def receiver_posthoc_ic(game: Game, target: CandidateProfile,
                        x: tuple[Fraction, ...]) -> bool:
    """Is obeying the unanimous report a receiver best response under x?

    x is the LP's point, signal-0 probabilities in state order for either
    target, so this is ``receiver_ic`` of that filter; ``target`` is only
    checked to be a unanimous profile.
    """
    _require_unanimous(target)
    return receiver_ic(game, BinaryFilter(dict(zip(game.int_view.names, x)))).holds


@dataclass(frozen=True)
class CandidateOutcome:
    profile: CandidateProfile
    filter: Optional[BinaryFilter]
    receiver_utility: Fraction
    feasible: bool


def two_sender_optimal(game: Game) -> tuple[CandidateOutcome, list[CandidateOutcome]]:
    """Evaluate all six candidate outcomes and return the best feasible one.

    Both senders observe the same filtered signal. Ties break by the order in
    which ``CandidateProfile`` defines the candidates.
    """
    _require_senders(game, 2)
    view = game.int_view
    total_gap = view.s_total[view.receiver]
    candidates: list[CandidateOutcome] = []
    for profile in CandidateProfile:
        if profile in (CandidateProfile.UNANIMOUS_0, CandidateProfile.UNANIMOUS_1):
            lp = build_lp(game, profile)
            x, value = lp_solve(lp)
            # receiver_posthoc_ic holds exactly when value * scale >= max(0, total_gap).
            feasible = value * lp.scale >= max(0, total_gap)
            filt = BinaryFilter(signal0_prob=dict(zip(lp.names, x))) if feasible else None
            utility = view.constant_value(view.receiver, 1) + value
        elif profile in (CandidateProfile.FOLLOW_SENDER_1,
                         CandidateProfile.FOLLOW_SENDER_2):
            sender_index = 0 if profile is CandidateProfile.FOLLOW_SENDER_1 else 1
            result = receiver_optimal_filter(game, sender_index=sender_index)
            filt, utility, feasible = result.filter, result.outcome.utilities.receiver, True
        else:
            action = 0 if profile is CandidateProfile.CONSTANT_0 else 1
            feasible = total_gap >= 0 if action == 0 else total_gap <= 0
            filt, utility = None, view.constant_value(view.receiver, action)
        candidates.append(CandidateOutcome(profile=profile, filter=filt,
                                           receiver_utility=utility, feasible=feasible))
    # max keeps the first of equal candidates.
    best = max((c for c in candidates if c.feasible),
               key=attrgetter("receiver_utility"), default=None)
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
            obey_profile(view, *view.obey_totals(enumerate(play0))))
