"""Integer-normalized snapshots of a game for exact hot loops.

Priors and per-player utilities are rescaled to integers by the lcm of their
denominators, so sorting keys, incentive slacks and grid sweeps run on plain
ints (exact, and much faster than Fraction arithmetic at solver scale).
Fractions are reconstructed only at API boundaries by dividing the scales
back out.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .core import Game


def scaled_ints(pairs: list[tuple[int, int]]) -> tuple[list[int], int]:
    """Rescale rationals given as (numerator, denominator) to a common integer scale."""
    scale = lcm(*{d for _, d in pairs})
    if scale == 1:
        return [n for n, _ in pairs], 1
    return [n * (scale // d) for n, d in pairs], scale


class IntView:
    """All-integer tables for one game; ``Game.int_view`` builds one per game.

    Player index convention: senders are 0..num_senders-1 and the receiver is
    index num_senders. For player t, state i:

        utility(action a) = ua[t][i] / uscale[t]
        prior             = weight[i] / wscale
        gap[t][i]         = u0[t][i] - u1[t][i]   (same uscale[t] scale)

    An obey-the-signal slack computed as sum(weight * gap * x) therefore has
    scale wscale * uscale[t]; only signs and same-player comparisons are ever
    taken on raw ints.
    """

    __slots__ = ("names", "weight", "wscale", "u0", "u1", "gap", "uscale",
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
        self.u0 = []
        self.u1 = []
        self.uscale = []
        for t in range(self.num_players):
            pairs = [utils[t] for _, _, utils in rows]
            vals, scale = scaled_ints([a for a, _ in pairs] + [b for _, b in pairs])
            self.u0.append(vals[:k])
            self.u1.append(vals[k:])
            self.uscale.append(scale)
        self.gap = [[a - b for a, b in zip(self.u0[t], self.u1[t])]
                    for t in range(self.num_players)]

    @property
    def receiver(self) -> int:
        return self.num_senders

    def check_sender(self, sender: int) -> None:
        if not 0 <= sender < self.num_senders:
            raise IndexError(f"sender index {sender} out of range for "
                             f"{self.num_senders} senders")

    def classify(self, sender: int) -> tuple[list[int], list[int], list[int]]:
        """(agree0, agree1, disagreement) state indices, each in state order.

        Indifference is folded into the agreement lists, so the disagreement
        list holds strict opposite-sign states only: a sender-indifferent state
        follows the receiver's side, a receiver-indifferent state the sender's,
        and a fully indifferent state lands in agree0.
        """
        self.check_sender(sender)
        gs = self.gap[sender]
        gr = self.gap[self.receiver]
        agree0: list[int] = []
        agree1: list[int] = []
        dis: list[int] = []
        for i in range(len(gs)):
            s = gs[i]
            r = gr[i]
            if s > 0:
                (agree0 if r >= 0 else dis).append(i)
            elif s < 0:
                (agree1 if r <= 0 else dis).append(i)
            else:
                (agree0 if r >= 0 else agree1).append(i)
        return agree0, agree1, dis

    def slack_scale(self, player: int) -> int:
        return self.wscale * self.uscale[player]

    def gap_total(self, player: int) -> int:
        """sum(weight * gap), the slack-scale gap between constant actions 0 and 1."""
        return sum(map(mul, self.weight, self.gap[player]))

    def action_total(self, player: int, action: int) -> int:
        """sum(weight * utility of action), at slack scale."""
        return sum(map(mul, self.weight, self.u0[player] if action == 0 else self.u1[player]))

    def obey_total(self, player: int, x: list[int]) -> int:
        """sum(weight * gap * x): with x = D * signal-0 probabilities, D * slack scale * slack0."""
        return sum(map(mul, map(mul, self.weight, self.gap[player]), x))

    def obey_value(self, player: int, x: list[int], scale: int) -> Fraction:
        """Value of obeying signal-0 probabilities x / scale (action a on signal a).

        That is (scale * sum(w * u1) + sum(w * gap * x)) / (scale * slack scale).
        """
        return Fraction(scale * self.action_total(player, 1) + self.obey_total(player, x),
                        scale * self.slack_scale(player))

    def constant_value(self, player: int, action: int) -> Fraction:
        return Fraction(self.action_total(player, action), self.slack_scale(player))

    def babbling(self) -> tuple[int, list[Fraction]]:
        """Best uninformed receiver action (ties to 0) and per-player values."""
        r = self.receiver
        action = 0 if self.gap_total(r) >= 0 else 1
        return action, [self.constant_value(t, action) for t in range(self.num_players)]
