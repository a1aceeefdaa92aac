"""Optimal binary filters for one sender in O(k log k).

Each player's two incentive rows are one row, s.x >= max(0, sum(s)) (see
the ``equilibrium`` module docstring). So the best filter for the objective
player o against the constrained player c is one call of the one-row kernel
``_simplex._solve``: maximize s_o.x subject to s_c.x >= max(0, sum(s_c)) on
the box, by a ratio sort and a concession walk. At most one state, the
pivot, gets an interior probability, chosen by ``pivot_q`` so that c's row
binds. When o's own row then fails, the answer is the always-signal-1
constant filter. Hot loops run on the integer-normalized game view; every
reported number is an exact Fraction.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import _simplex
from ._intview import IntView
from .core import BinaryFilter, Game
from .equilibrium import EquilibriumOutcome, scaled_equilibrium

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
    so, sc = view.s[o], view.s[c]
    target_c = max(0, view.s_total[c])
    x, pos, pivot, _ = _simplex._solve(so, sc, target_c)
    q = None
    fallback = False
    if pos:
        # The pivot's binding probability, then the objective player's row there.
        q = pivot_q(view.obey_total(c, x), target_c, sc[pivot])
        base_o = view.obey_total(o, x)
        target_o = max(0, view.s_total[o])
        fallback = base_o * q.denominator + so[pivot] * q.numerator < target_o * q.denominator
    if fallback:
        # The always-signal-1 constant filter: informative only when both
        # players' total gaps point at action 1, babbling otherwise.
        x = [0] * len(x)
    probs = [_ONE if xi else _ZERO for xi in x]
    den = 1
    if pos and not fallback:
        # The filter over the pivot's denominator D: 0 or D per state, and
        # D * q at the pivot.
        den = q.denominator
        x = [xi * den for xi in x]
        x[pivot] = q.numerator
        probs[pivot] = q
    names = view.names
    return OptimizerResult(
        objective=objective,
        filter=BinaryFilter(signal0_prob=dict(zip(names, probs))),
        # The walk makes obeying the signal compatible for both players, so
        # only the fallback can come out babbling.
        outcome=scaled_equilibrium(game, x, den, sidx)[2],
        pivot_index=pos or None,
        pivot_state=names[pivot] if pos else None,
        pivot_q=q,
        fell_back_to_constant=fallback,
    )
