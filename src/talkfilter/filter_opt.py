"""Optimal binary filters for one sender in O(k log k).

The search space collapses to two-block filters: classify states by
preference agreement, fix the agreement states at their shared preferred
signal, sort the strict-disagreement states by how much objective-player
utility a unit of the other player's slack costs, then concede the cheapest
states to the constrained player until obeying the signal becomes compatible
for them. At most one state ends up with an interior probability, chosen so
a constrained-player inequality binds exactly.

Hot loops run on the integer-normalized game view; every reported number is
an exact Fraction.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._intview import IntView
from .core import BinaryFilter, Game, evaluate_sigma_s
from .equilibrium import EquilibriumKind, EquilibriumOutcome, canonical_equilibrium

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Objective(enum.Enum):
    RECEIVER = "receiver"
    SENDER = "sender"


@dataclass(frozen=True)
class SortedDisagreement:
    """Strict-disagreement states ordered by ascending concession ratio.

    For the receiver objective the ratio is (receiver's gap) / (sender's
    reversed gap); the sender objective uses the mirror. Strict opposite
    signs make every ratio finite and positive.
    """

    entries: tuple[tuple[str, Fraction], ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)


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

    def fkey(i: int) -> float:
        if objective is Objective.RECEIVER:
            num, den = gr[i], -gs[i]
        else:
            num, den = gs[i], -gr[i]
        try:
            return num / den
        except OverflowError:
            # Ratios are positive; anything past double range outranks every
            # finite key, and inf-keyed states resolve among themselves in
            # the exact pass below.
            return float("inf")

    keyed = sorted(((fkey(i), i) for i in dis))
    order = [i for _, i in keyed]
    # Re-sort runs whose doubles collide using exact ratios; stability keeps
    # input order for exactly equal ratios.
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and keyed[end][0] == keyed[start][0]:
            end += 1
        if end - start > 1:
            if objective is Objective.RECEIVER:
                order[start:end] = sorted(order[start:end],
                                          key=lambda i: Fraction(gr[i], -gs[i]))
            else:
                order[start:end] = sorted(order[start:end],
                                          key=lambda i: Fraction(gs[i], -gr[i]))
        start = end
    return order


def sort_disagreement(game: Game, objective: Objective = Objective.RECEIVER,
                      sender_index: int = 0) -> SortedDisagreement:
    """Public view of the optimizer's sort, with exact descaled ratios."""
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
    return SortedDisagreement(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Prefix sums
# ---------------------------------------------------------------------------

_PLAYER_KEYS = {"sender": 0, "receiver": 1}


@dataclass(frozen=True)
class PrefixSums:
    """Slack decompositions along the sorted disagreement list.

    For 1-based sorted position i, player t and signal side b, the
    obey-the-signal slack of the two-block filter with states before i at
    the conceded extremes, states after i at the objective-preferred
    extremes, and the pivot at probability q decomposes as::

        slack_b = agreement(t, b) + before(t, b, i) + after(t, b, i) + pivot

    where the pivot term is weight * gap * q on side 0 and
    weight * gap * (1 - q) on side 1. The side index of before/after names
    the slack equation a block feeds, not a set membership.
    """

    objective: Objective
    sender_index: int
    names: tuple[str, ...]               # sorted disagreement states
    split10: tuple[bool, ...]            # sender strictly prefers 1 there
    _w: tuple[int, ...]                  # priors of sorted states, scaled
    _gap: tuple[tuple[int, ...], tuple[int, ...]]      # per player key
    _scale: tuple[int, int]              # slack scale per player key
    _agree: tuple[tuple[int, int], tuple[int, int]]    # Y per player key, per side
    _cum01: tuple[tuple[int, ...], tuple[int, ...]]    # cumulative split01 sums
    _cum10: tuple[tuple[int, ...], tuple[int, ...]]    # cumulative split10 sums

    def _k(self, player: str) -> int:
        return _PLAYER_KEYS[player]

    def agreement(self, player: str, side: int) -> Fraction:
        t = self._k(player)
        return Fraction(self._agree[t][side], self._scale[t])

    def _before_int(self, t: int, side: int, i: int) -> int:
        if self.objective is Objective.RECEIVER:
            cum = self._cum01[t] if side == 0 else self._cum10[t]
        else:
            cum = self._cum10[t] if side == 0 else self._cum01[t]
        return cum[i - 1]

    def _after_int(self, t: int, side: int, i: int) -> int:
        if self.objective is Objective.RECEIVER:
            cum = self._cum10[t] if side == 0 else self._cum01[t]
        else:
            cum = self._cum01[t] if side == 0 else self._cum10[t]
        return cum[-1] - cum[i]

    def before(self, player: str, side: int, i: int) -> Fraction:
        t = self._k(player)
        return Fraction(self._before_int(t, side, i), self._scale[t])

    def after(self, player: str, side: int, i: int) -> Fraction:
        t = self._k(player)
        return Fraction(self._after_int(t, side, i), self._scale[t])

    def slack_with_pivot(self, player: str, side: int, i: int, q: Fraction) -> Fraction:
        """Reassembled slack for the decomposition above; used by invariant tests."""
        t = self._k(player)
        factor = q if side == 0 else 1 - q
        pivot = Fraction(self._w[i - 1] * self._gap[t][i - 1], self._scale[t]) * factor
        return (self.agreement(player, side) + self.before(player, side, i)
                + self.after(player, side, i) + pivot)


def _build_sums(view: IntView, sidx: int, order: list[int],
                agree0: list[int], agree1: list[int],
                objective: Objective) -> PrefixSums:
    players = (sidx, view.receiver)
    w = view.weight
    gsender = view.gap[sidx]
    agree = []
    cum01 = []
    cum10 = []
    gaps = []
    for t in players:
        g = view.gap[t]
        y0 = sum(w[i] * g[i] for i in agree0)
        y1 = sum(w[i] * g[i] for i in agree1)
        agree.append((y0, y1))
        c01 = [0]
        c10 = [0]
        a01 = a10 = 0
        for i in order:
            term = w[i] * g[i]
            if gsender[i] > 0:            # split01: sender strictly prefers 0
                a01 += term
            else:
                a10 += term
            c01.append(a01)
            c10.append(a10)
        cum01.append(tuple(c01))
        cum10.append(tuple(c10))
        gaps.append(tuple(g[i] for i in order))
    return PrefixSums(
        objective=objective,
        sender_index=sidx,
        names=tuple(view.names[i] for i in order),
        split10=tuple(gsender[i] < 0 for i in order),
        _w=tuple(w[i] for i in order),
        _gap=(gaps[0], gaps[1]),
        _scale=(view.slack_scale(sidx), view.slack_scale(view.receiver)),
        _agree=(agree[0], agree[1]),
        _cum01=(cum01[0], cum01[1]),
        _cum10=(cum10[0], cum10[1]),
    )


def precompute_sums(game: Game, sorted_dis: SortedDisagreement,
                    objective: Objective = Objective.RECEIVER,
                    sender_index: int = 0) -> PrefixSums:
    """Build all agreement/prefix/suffix sums in one linear pass after sorting."""
    view = game.int_view
    agree0, agree1, dis = view.classify(sender_index)
    index = {view.names[i]: i for i in dis}
    order = [index[name] for name in sorted_dis.names]
    if sorted(order) != sorted(dis):
        raise ValueError("sorted disagreement list does not match the game")
    return _build_sums(view, sender_index, order, agree0, agree1, objective)


# ---------------------------------------------------------------------------
# Pivot solving
# ---------------------------------------------------------------------------

def _constrained_key(objective: Objective) -> int:
    # Receiver objective concedes to the sender and vice versa.
    return 0 if objective is Objective.RECEIVER else 1


def pivot_q(game: Game, sums: PrefixSums, i: int,
            objective: Optional[Objective] = None) -> Optional[Fraction]:
    """Best interior probability for sorted state i, or None when nothing binds.

    Solves both binding equations (side-0 slack = 0, side-1 slack = 0) of the
    constrained player, keeps solutions inside [0, 1] that satisfy both of
    that player's inequalities, and returns the one the objective player
    likes best: the maximum when they want the pivot's signal-0 probability
    high, the minimum otherwise.
    """
    del game  # part of the documented signature; sums carry everything
    if objective is None:
        objective = sums.objective
    if objective is not sums.objective:
        raise ValueError("sums were precomputed for a different objective")
    c = _constrained_key(objective)
    o = 1 - c
    w = sums._w[i - 1]
    gc = sums._gap[c][i - 1]
    if gc == 0:
        return None
    base0 = sums._agree[c][0] + sums._before_int(c, 0, i) + sums._after_int(c, 0, i)
    base1 = sums._agree[c][1] + sums._before_int(c, 1, i) + sums._after_int(c, 1, i)
    coef = w * gc
    candidates = []
    for q in (Fraction(-base0, coef), Fraction(coef + base1, coef)):
        if 0 <= q <= 1:
            qn, qd = q.numerator, q.denominator
            if base0 * qd + coef * qn >= 0 and base1 * qd + coef * (qd - qn) <= 0:
                candidates.append(q)
    if not candidates:
        return None
    wants_high = sums._gap[o][i - 1] > 0
    return max(candidates) if wants_high else min(candidates)


# ---------------------------------------------------------------------------
# The optimizer
# ---------------------------------------------------------------------------

def receiver_optimal_filter(game: Game, sender_index: int = 0) -> OptimizerResult:
    """Filter maximizing the receiver's canonical-equilibrium utility."""
    return _optimize(game, Objective.RECEIVER, sender_index)


def sender_optimal_filter(game: Game, sender_index: int = 0) -> OptimizerResult:
    """Mirror construction maximizing the sender's utility."""
    return _optimize(game, Objective.SENDER, sender_index)


def _optimize(game: Game, objective: Objective, sidx: int) -> OptimizerResult:
    view = game.int_view
    agree0, agree1, dis = view.classify(sidx)
    order = _sorted_disagreement(view, sidx, dis, objective)
    sums = _build_sums(view, sidx, order, agree0, agree1, objective)
    kp = len(order)

    c = _constrained_key(objective)
    cplayer = (sidx, view.receiver)[c]
    gs = view.gap[sidx]
    gr = view.gap[view.receiver]
    go_all = gr if objective is Objective.RECEIVER else gs

    def opref(i: int) -> int:
        # The objective player wants signal 0 exactly where their gap is positive.
        return 1 if go_all[i] > 0 else 0

    def result(ones, zeros, interior, pivot_pos, q, fallback):
        return _finish(game, objective, sums, ones, zeros, interior,
                       pivot_pos, q, fallback)

    # Step 4: everything at the objective player's preferred extreme. The
    # constrained player's slacks follow straight from the precomputed sums.
    if objective is Objective.RECEIVER:
        slack0 = sums._agree[c][0] + sums._cum10[c][-1]
        slack1 = sums._agree[c][1] + sums._cum01[c][-1]
    else:
        slack0 = sums._agree[c][0] + sums._cum01[c][-1]
        slack1 = sums._agree[c][1] + sums._cum10[c][-1]

    if slack0 >= 0 and slack1 <= 0:
        ones = agree0 + [i for i in order if opref(i) == 1]
        zeros = agree1 + [i for i in order if opref(i) == 0]
        return result(ones, zeros, None, None, None, False)

    gc_all = view.gap[cplayer]
    for pos in range(1, kp + 1):
        i = order[pos - 1]
        bump = view.weight[i] * abs(gc_all[i])
        slack0 += bump
        slack1 -= bump
        if slack0 >= 0 and slack1 <= 0:
            q = pivot_q(game, sums, pos)
            if not _objective_ic(sums, objective, pos, q):
                return result([], list(range(len(view.names))), None, pos, q, True)
            ones = agree0[:]
            zeros = agree1[:]
            for j in order[:pos - 1]:
                (zeros if opref(j) == 1 else ones).append(j)   # conceded extreme
            for j in order[pos:]:
                (ones if opref(j) == 1 else zeros).append(j)
            interior = None
            if q is None:
                (zeros if opref(i) == 1 else ones).append(i)
            elif q == 1:
                ones.append(i)
            elif q == 0:
                zeros.append(i)
            else:
                interior = (i, q)
            return result(ones, zeros, interior, pos, q, False)
    raise AssertionError("walk must reach a compatible filter by the last state")


def _objective_ic(sums: PrefixSums, objective: Objective,
                  pos: int, q: Optional[Fraction]) -> bool:
    """Exact IC test of the objective player on the walk's candidate filter."""
    c = _constrained_key(objective)
    o = 1 - c
    base0 = sums._agree[o][0] + sums._before_int(o, 0, pos) + sums._after_int(o, 0, pos)
    base1 = sums._agree[o][1] + sums._before_int(o, 1, pos) + sums._after_int(o, 1, pos)
    coef = sums._w[pos - 1] * sums._gap[o][pos - 1]
    if q is None:
        # Pivot kept its conceded extreme: signal-0 probability is 1 exactly
        # when the constrained player's gap there is positive.
        if sums._gap[c][pos - 1] > 0:
            return base0 + coef >= 0 and base1 <= 0
        return base0 >= 0 and base1 + coef <= 0
    qn, qd = q.numerator, q.denominator
    return base0 * qd + coef * qn >= 0 and base1 * qd + coef * (qd - qn) <= 0


def _finish(game: Game, objective: Objective, sums: PrefixSums,
            ones: list[int], zeros: list[int],
            interior: Optional[tuple[int, Fraction]], pivot_pos: Optional[int],
            q: Optional[Fraction], fallback: bool) -> OptimizerResult:
    names = game.int_view.names
    x: dict[str, Fraction] = {}
    for i in ones:
        x[names[i]] = _ONE
    for i in zeros:
        x[names[i]] = _ZERO
    if interior is not None:
        x[names[interior[0]]] = interior[1]
    filt = BinaryFilter(signal0_prob=x)

    if fallback:
        # The always-signal-1 constant filter: informative only when both
        # players' total gaps point at action 1, babbling otherwise.
        outcome = canonical_equilibrium(game, filt, sums.sender_index)
    else:
        outcome = EquilibriumOutcome(kind=EquilibriumKind.INFORMATIVE,
                                     utilities=evaluate_sigma_s(game, filt))
    return OptimizerResult(
        objective=objective,
        filter=filt,
        outcome=outcome,
        pivot_index=pivot_pos,
        pivot_state=sums.names[pivot_pos - 1] if pivot_pos else None,
        pivot_q=q,
        fell_back_to_constant=fallback,
    )
