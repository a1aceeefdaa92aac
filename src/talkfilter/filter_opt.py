"""Optimal binary filters for one sender in O(k log k).

The search space collapses to two-block filters: classify states by
preference agreement, fix the agreement states at their shared preferred
signal, sort the strict-disagreement states by how much objective-player
utility a unit of the other player's slack costs, then concede the cheapest
states to the constrained player until obeying the signal becomes compatible
for them. At most one state ends up with an interior probability, chosen so
the constrained player's incentive row binds exactly.

Each player's two incentive rows are one row, s.x >= max(0, sum(s)) (see
the ``equilibrium`` module docstring), so the walk tracks one obey total per
player. Hot loops run on the integer-normalized game view; every reported
number is an exact Fraction.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Optional

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


# ---------------------------------------------------------------------------
# Sorting on the integer view
# ---------------------------------------------------------------------------

def _sorted_disagreement(view: IntView, sidx: int, dis: list[int],
                         objective: Objective) -> list[int]:
    """Sort by exact ascending ratio: float key first, exact fixup on collisions."""
    gs = view.gap[sidx]
    gr = view.gap[view.receiver]
    if objective is Objective.RECEIVER:
        num, den = gr, [-g for g in gs]
    else:
        num, den = gs, [-g for g in gr]

    def fkey(i: int) -> float:
        try:
            return num[i] / den[i]
        except OverflowError:
            # Ratios are positive; anything past double range outranks every
            # finite key, and inf-keyed states resolve among themselves in
            # the exact pass below.
            return float("inf")

    keyed = sorted(((fkey(i), i) for i in dis))
    order = [i for _, i in keyed]
    # Re-sort runs whose doubles collide by their exact ratios. States are
    # grouped by reduced ratio in input order, and the groups are ordered by
    # cross-multiplication, which is the stable sort on the exact ratio.
    # Split01 states have both terms negative; reducing by a gcd of the
    # denominator's sign makes every denominator positive.
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and keyed[end][0] == keyed[start][0]:
            end += 1
        if end - start > 1:
            groups: dict[tuple[int, int], list[int]] = {}
            for i in order[start:end]:
                g = gcd(num[i], den[i]) if den[i] > 0 else -gcd(num[i], den[i])
                groups.setdefault((num[i] // g, den[i] // g), []).append(i)
            if len(groups) > 1:
                ratios = sorted(groups, key=cmp_to_key(_compare_ratios))
                order[start:end] = [i for r in ratios for i in groups[r]]
        start = end
    return order


def _compare_ratios(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Sign of a[0]/a[1] - b[0]/b[1] for positive denominators."""
    lhs, rhs = a[0] * b[1], b[0] * a[1]
    return (lhs > rhs) - (lhs < rhs)


def sort_disagreement(game: Game, objective: Objective = Objective.RECEIVER,
                      sender_index: int = 0) -> tuple[tuple[str, Fraction], ...]:
    """The optimizer's sort as (state name, exact ratio) pairs, cheapest first.

    For the receiver objective the ratio is (receiver's gap) / (sender's
    reversed gap); the sender objective uses the mirror. Strict opposite
    signs make every ratio finite and positive.
    """
    view = game.int_view
    _, _, dis = view.classify(sender_index)
    order = _sorted_disagreement(view, sender_index, dis, objective)
    gs = view.gap[sender_index]
    gr = view.gap[view.receiver]
    sscale = view.uscale[sender_index]
    rscale = view.uscale[view.receiver]
    entries = []
    for i in order:
        if objective is Objective.RECEIVER:
            ratio = Fraction(gr[i] * sscale, -gs[i] * rscale)
        else:
            ratio = Fraction(gs[i] * rscale, -gr[i] * sscale)
        entries.append((view.names[i], ratio))
    return tuple(entries)


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
    agree0, _, dis = view.classify(sidx)
    order = _sorted_disagreement(view, sidx, dis, objective)
    # Receiver objective concedes to the sender and vice versa.
    if objective is Objective.RECEIVER:
        o, c = view.receiver, sidx
    else:
        o, c = sidx, view.receiver
    go = view.gap[o]
    gc = view.gap[c]
    w = view.weight

    # Agreement states at their shared side; disagreement states where the
    # objective player wants them: signal 0 exactly where their gap is positive.
    x = [0] * len(w)
    for i in agree0:
        x[i] = 1
    for i in dis:
        if go[i] > 0:
            x[i] = 1
    obey_c = view.obey_total(c, x)
    target_c = max(0, view.gap_total(c))
    pos = 0
    q = None
    fallback = False
    if obey_c < target_c:
        obey_o = view.obey_total(o, x)
        target_o = max(0, view.gap_total(o))
        for pos, i in enumerate(order, start=1):
            # Conceding i moves x[i] to the constrained player's side: their
            # total rises by w * |gap| and the objective player's falls.
            bump = w[i] * abs(gc[i])
            if obey_c + bump >= target_c:
                break
            obey_c += bump
            obey_o -= w[i] * abs(go[i])
        else:
            raise ArithmeticError("the walk conceded every state and never stopped")
        # Both totals with the pivot's term taken out, then the pivot's
        # binding probability and the objective player's row there.
        wc = w[i] * gc[i]
        wo = w[i] * go[i]
        q = pivot_q(obey_c - wc * x[i], target_c, wc)
        base_o = obey_o - wo * x[i]
        fallback = base_o * q.denominator + wo * q.numerator < target_o * q.denominator
        for j in order[:pos - 1]:
            x[j] = 1 - x[j]
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
        x[order[pos - 1]] = q.numerator
        probs[order[pos - 1]] = q
    names = view.names
    return OptimizerResult(
        objective=objective,
        filter=BinaryFilter(signal0_prob=dict(zip(names, probs))),
        # The walk makes obeying the signal compatible for both players, so
        # only the fallback can come out babbling.
        outcome=scaled_equilibrium(game, x, den, sidx)[2],
        pivot_index=pos or None,
        pivot_state=names[order[pos - 1]] if pos else None,
        pivot_q=q,
        fell_back_to_constant=fallback,
    )
