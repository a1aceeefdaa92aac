"""Integer-normalized snapshots of a game for exact hot loops.

Each player's whole game, for binary-action purposes, is one prior-weighted
gap row s = prior * (u0 - u1), plus the value of constant action 1. Priors
and utilities are rescaled to integers by the lcm of their denominators, and
this module is the only place that multiplies the two. It is also the only
place that turns a filter's probabilities into integers: every binary
filter, every signal of a general filter, every grid point and majority play
enters through ``IntView.obey_totals``, as sparse (state index, probability)
pairs. A general filter therefore costs O(k + entries), each entry of its
table read once, however many signals it emits. Sorting keys, incentive
slacks and grid sweeps then run on plain ints (exact, and much faster than
Fraction arithmetic at solver scale). Fractions are reconstructed only at API
boundaries by dividing the scales back out. ``IntView.ic_target`` is the one
spelling of the IC rule's right-hand side, max(0, sum(s)).
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import TYPE_CHECKING, Iterable, Union

from . import _simplex

if TYPE_CHECKING:
    from .core import Game


def scaled_ints(pairs: list[tuple[int, int]]) -> tuple[list[int], int]:
    """Rescale rationals given as (numerator, denominator) to a common integer scale."""
    scale = lcm(*{d for _, d in pairs})
    if scale == 1:
        return [n for n, _ in pairs], 1
    return [n * (scale // d) for n, d in pairs], scale


def check_sender(num_senders: int, sender: int) -> None:
    """Refuse a sender index that is not an int (bools included) or is outside
    0..num_senders-1, negative ones included."""
    if isinstance(sender, bool) or not isinstance(sender, int):
        raise ValueError(f"sender index {sender!r} is not an int")
    if not 0 <= sender < num_senders:
        raise IndexError(f"sender index {sender} out of range for {num_senders} senders")


class IntView:
    """All-integer tables for one game; ``Game.int_view`` builds one per game.

    Player index convention: senders are 0..num_senders-1 and the receiver is
    index num_senders. For player t, state i, with the prior
    weight[i] / wscale and utilities at scale uscale[t], the slack scale is
    wscale * uscale[t], and at that scale:

        s[t][i]     = weight[i] * (u0 - u1)[t][i]   prior times utility gap
        s_total[t]  = sum(s[t])                     constant 0 minus constant 1
        u1_total[t] = sum(weight * u1[t])           value of constant action 1

    An obey-the-signal slack sum(s * x), the obey total that every IC report
    and obey value is read from, has scale wscale * uscale[t] times the
    filter's scale D; ``obey_totals`` computes it from probabilities x / D.
    Only signs and same-player comparisons are ever taken on raw ints.
    """

    __slots__ = ("names", "weight", "wscale", "s", "s_total", "u1_total", "uscale",
                 "num_senders", "num_players")

    def __init__(self, game: Game):
        # Built from the game's parsed rows: (name, prior, per-player
        # utility pairs), every number a reduced (numerator, denominator).
        rows = game._rows
        self.num_senders = game.num_senders
        self.num_players = game.num_senders + 1
        self.names = [name for name, _, _ in rows]
        self.weight, self.wscale = scaled_ints([prior for _, prior, _ in rows])

        k = len(rows)
        self.s = []
        self.s_total = []
        self.u1_total = []
        self.uscale = []
        for t in range(self.num_players):
            pairs = [utils[t] for _, _, utils in rows]
            vals, scale = scaled_ints([a for a, _ in pairs] + [b for _, b in pairs])
            u0, u1 = vals[:k], vals[k:]
            s = [w * (a - b) for w, a, b in zip(self.weight, u0, u1)]
            self.s.append(s)
            self.s_total.append(sum(s))
            self.u1_total.append(sum(map(mul, self.weight, u1)))
            self.uscale.append(scale)

    @property
    def receiver(self) -> int:
        return self.num_senders

    def check_sender(self, sender: int) -> None:
        check_sender(self.num_senders, sender)

    def ic_target(self, player: int, scale: int = 1) -> int:
        """max(0, scale * sum(s)), which an IC obey total at filter scale ``scale`` meets."""
        return max(0, scale * self.s_total[player])

    def slack_scale(self, player: int) -> int:
        return self.wscale * self.uscale[player]

    def state_gaps(self, player: int) -> list[Fraction]:
        """Per state, the player's utility gap u0 - u1: s over prior times slack scale."""
        return [Fraction(s, w * self.uscale[player])
                for s, w in zip(self.s[player], self.weight)]

    def obey_totals(self, pairs: Iterable[tuple[int, Union[int, Fraction]]]
                    ) -> tuple[list[int], int]:
        """Per player sum(s * x), with probabilities x / D, and D.

        ``pairs`` are sparse (state index, probability) pairs, each probability
        an int or Fraction; a state with no pair has probability 0, so a
        caller hands over only the entries it has and pays for those alone.
        D is the lcm of the denominators. States are grouped by denominator d,
        and each total is the sum over d of (D / d) times the group's s times
        numerators: one multiply by D / d per distinct denominator, never one
        per state. Probabilities must lie in [0, 1], and every caller's do: a
        filter's come from its ``check_for``, and majority play is 0 or 1.
        """
        groups: dict[int, tuple[list[int], list[int]]] = {}   # d -> states, numerators
        for i, p in pairs:
            n, d = p.as_integer_ratio()
            if n:
                group = groups.get(d)
                if group is None:
                    groups[d] = ([i], [n])
                else:
                    group[0].append(i)
                    group[1].append(n)
        scale = lcm(*groups)
        return [sum((scale // d) * sum(map(mul, map(s.__getitem__, states), nums))
                    for d, (states, nums) in groups.items())
                for s in self.s], scale

    def obey_value(self, player: int, total: int, scale: int) -> Fraction:
        """Value of obeying signal-0 probabilities x / scale, from total = sum(s * x).

        That is (scale * u1_total + total) / (scale * slack scale).
        """
        return Fraction(scale * self.u1_total[player] + total, scale * self.slack_scale(player))

    def constant_value(self, player: int, action: int) -> Fraction:
        total = self.u1_total[player] + (self.s_total[player] if action == 0 else 0)
        return Fraction(total, self.slack_scale(player))

    def babbling(self) -> tuple[int, list[Fraction]]:
        """Best uninformed receiver action (ties to 0) and per-player values."""
        action = 0 if _simplex._plays0(self.s_total[self.receiver]) else 1
        return action, [self.constant_value(t, action) for t in range(self.num_players)]
