"""Optimal binary filters for one sender in O(k log k).

Each player's two incentive rows are one row, s.x >= max(0, sum(s)) (see
the ``equilibrium`` module docstring). So the best filter for the objective
player o against the constrained player c is one call of the one-row kernel
``_simplex._solve``: maximize s_o.x subject to s_c.x >= max(0, sum(s_c)) on
the box, by a ratio sort and a concession walk. At most one state, the
pivot, gets an interior probability, chosen by ``pivot_q`` so that c's row
binds. When o's own row then fails, the answer is the always-signal-1
constant filter. Hot loops run on the integer-normalized game view; every
reported number is an exact Fraction. The answer is 0/1 off the pivot, so
each player's obey total at the pivot's denominator D is D * (s summed over
the signal-0 states) + s[pivot] * D * q; both IC reports (kept on the
result) and the canonical outcome come from those totals.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Optional

from . import _simplex
from ._intview import IntView
from .core import BinaryFilter, Game
from .equilibrium import EquilibriumOutcome, ICReport, scaled_equilibrium

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Objective(enum.Enum):
    RECEIVER = "receiver"
    SENDER = "sender"


@dataclass(frozen=True)
class OptimizerResult:
    objective: Objective
    filter: BinaryFilter
    outcome: EquilibriumOutcome
    pivot_index: Optional[int]          # 1-based index into the sorted list
    pivot_state: Optional[str]
    pivot_q: Optional[Fraction]
    fell_back_to_constant: bool
    sender_ic: ICReport
    receiver_ic: ICReport


def _players(view: IntView, objective: Objective, sidx: int) -> tuple[int, int]:
    """(objective player, constrained player): each objective concedes to the other."""
    return (view.receiver, sidx) if objective is Objective.RECEIVER else (sidx, view.receiver)


def sort_disagreement(game: Game, objective: Objective = Objective.RECEIVER,
                      sender_index: int = 0) -> tuple[tuple[str, Fraction], ...]:
    """The optimizer's sort as (state name, exact ratio) pairs, cheapest first.

    For the receiver objective the ratio is (receiver's gap) / (sender's
    reversed gap); the sender objective uses the mirror. Both gaps carry the
    state's prior, which cancels. Strict opposite signs make every ratio
    finite and positive.
    """
    view = game.int_view
    _, _, dis = view.classify(sender_index)
    o, c = _players(view, objective, sender_index)
    so, sc = view.s[o], view.s[c]
    order = _simplex._ratio_order(so, sc, dis)
    oscale, cscale = view.slack_scale(o), view.slack_scale(c)
    return tuple((view.names[i], Fraction(so[i] * cscale, -sc[i] * oscale))
                 for i in order)


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------

def pivot_q(base: int, target: int, coef: int) -> Fraction:
    """Signal-0 probability q of the pivot at which base + coef * q == target.

    At a walk stop the constrained player's obey total is below the target
    with the pivot at the objective player's extreme and at or above it
    with the pivot conceded, so q lies in [0, 1]; of the probabilities at
    which that player's row holds, it is the one nearest the objective
    player's extreme.
    """
    return Fraction(target - base, coef)


def receiver_optimal_filter(game: Game, sender_index: int = 0) -> OptimizerResult:
    """Filter maximizing the receiver's canonical-equilibrium utility."""
    return _optimize(game, Objective.RECEIVER, sender_index)


def sender_optimal_filter(game: Game, sender_index: int = 0) -> OptimizerResult:
    """Mirror construction maximizing the sender's utility."""
    return _optimize(game, Objective.SENDER, sender_index)


def _optimize(game: Game, objective: Objective, sidx: int) -> OptimizerResult:
    view = game.int_view
    view.check_sender(sidx)
    o, c = _players(view, objective, sidx)
    target_c = max(0, view.s_total[c])
    x, pos, pivot, _ = _simplex._solve(view.s[o], view.s[c], target_c)
    # Every player's obey total, with the pivot at its binding q over D.
    totals = [sum(compress(s, x)) for s in view.s]
    probs = [_ONE if xi else _ZERO for xi in x]
    q, den = None, 1
    if pos:
        q = probs[pivot] = pivot_q(totals[c], target_c, view.s[c][pivot])
        den = q.denominator
        totals = [den * total + s[pivot] * q.numerator for total, s in zip(totals, view.s)]
    sender, receiver, outcome = scaled_equilibrium(game, totals, den, sidx)
    reports = {sidx: sender, view.receiver: receiver}
    if not reports[c].holds:
        raise ArithmeticError("the walk's filter misses the constrained player's row")
    fallback = not reports[o].holds
    if fallback:
        # The always-signal-1 constant filter: informative only when both
        # players' total gaps point at action 1, babbling otherwise.
        probs = [_ZERO] * len(probs)
        sender, receiver, outcome = scaled_equilibrium(game, [0] * len(totals), 1, sidx)
    names = view.names
    return OptimizerResult(
        objective=objective,
        filter=BinaryFilter(signal0_prob=dict(zip(names, probs))),
        outcome=outcome,
        pivot_index=pos or None,
        pivot_state=names[pivot] if pos else None,
        pivot_q=q,
        fell_back_to_constant=fallback,
        sender_ic=sender,
        receiver_ic=receiver,
    )
