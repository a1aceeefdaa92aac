"""Incentive-compatibility checks and canonical equilibrium selection.

Two profiles matter for binary filters: obeying the signal (the informative
profile, where the sender reports her preferred action and the receiver
follows), and babbling (the receiver ignores messages and plays her best
uninformed action). Obeying the signal is a Nash equilibrium exactly when
both players' two signed linear inequalities hold:

    sum_w p(w) * d(w) * x(w)       >= 0      (prefer 0 on signal 0)
    sum_w p(w) * d(w) * (1 - x(w)) <= 0      (prefer 1 on signal 1)

with d(w) the action-0-minus-action-1 utility gap. Slacks of exactly zero
count as compatible, which is decidable because everything is rational.
With s(w) = p(w) * d(w), the second row is s.x >= sum(s), so the two rows
are one:

    s.x >= max(0, sum(s))

the form that the checks here, the optimizer's walk and the grid oracle's
sweeps test. ``IntView`` keeps s and sum(s) per player as integers, and
``IntView.ic_target`` is the one spelling of the right-hand side. A filter
with signal-0 probabilities x / D, D their lcm denominator, enters each
player's check and value only through the obey total s.x; only the reported
slacks are Fractions. ``IntView.obey_totals`` is the one routine that turns
probabilities into those totals. It takes sparse (state index, probability)
pairs, so a caller pays only for the entries it has, and sums s.x per
distinct denominator d, as the sum over d of (D / d) times that group's
s * numerator, so a large D costs one multiply per denominator, not one per
state.

``scaled_equilibrium`` derives both IC reports and the canonical outcome from
one obey total per player: ``binary_equilibrium`` sums a filter's totals once
for them, and the optimizer sums them from its walk. Every obey-the-signal
value, here and elsewhere, is ``IntView.obey_value`` of a total.

No function here reads a filter's table: a filter's ``check_for`` reads
it once per call and returns the sparse pairs that ``obey_totals`` takes,
and ``GeneralProfile.check_for`` hands on its filter's pairs.

General filters reduce to the same rows. ``_signal_table`` holds every
player's obey total on each emitted signal, brought to one scale, and the
signals that merge into signal 0 by the tie rule, ``_simplex._start``. It
makes one ``obey_totals`` call per signal of ``GeneralFilter.check_for``'s
pairs, so a general filter costs O(k + entries), not O(k) per signal.
``merge_to_binary`` sums the chosen signals' pairs per state;
``canonical_equilibrium`` sums the chosen rows and evaluates the general
filter once, with no merged filter built; ``check_nash_general`` reads its
signal classes and the receiver's per-message gaps from the same rows,
never from the game's ``StateRecord``s, and the profile's probabilities
from the profile itself.
"""
from __future__ import annotations

import enum
from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Union

from . import _simplex
from ._intview import IntView
from .core import (
    BinaryFilter,
    Game,
    GeneralFilter,
    UtilityProfile,
    ZeroProbabilitySignal,
    _check_distribution,
    evaluate_babbling,
    obey_profile,
)


class ICReport(NamedTuple):
    """Both inequality left-hand sides for one player, plus the verdict."""

    holds: bool
    signal0_slack: Fraction
    signal1_slack: Fraction


def _ic_report(view: IntView, player: int, total: int, xscale: int) -> ICReport:
    # With the filter at x / D and the obey total sum(s * x):
    # slack0 = total / (D * scale) and slack1 = (D * sum(s) - total) / (D * scale).
    scale = xscale * view.slack_scale(player)
    return ICReport(holds=total >= view.ic_target(player, xscale),
                    signal0_slack=Fraction(total, scale),
                    signal1_slack=Fraction(xscale * view.s_total[player] - total, scale))


def sender_ic(game: Game, filt: BinaryFilter, sender_index: int = 0) -> ICReport:
    """Is obeying the signal a best response for the sender?"""
    return binary_equilibrium(game, filt, sender_index)[0]


def receiver_ic(game: Game, filt: BinaryFilter) -> ICReport:
    """Is obeying the signal a best response for the receiver?"""
    return binary_equilibrium(game, filt)[1]


# ---------------------------------------------------------------------------
# Canonical equilibrium
# ---------------------------------------------------------------------------

class EquilibriumKind(enum.Enum):
    INFORMATIVE = "informative"
    BABBLING = "babbling"


class EquilibriumOutcome(NamedTuple):
    kind: EquilibriumKind
    utilities: UtilityProfile
    babbling_action: Optional[int] = None


def merge_to_binary(game: Game, filt: GeneralFilter, sender_index: int = 0) -> BinaryFilter:
    """Collapse a general filter onto {0, 1} by the sender's per-signal preference.

    Signal 0 collects every signal on which the sender weakly prefers action 0;
    a sender-indifferent signal goes to the receiver's preferred side, and 0 if
    the receiver is indifferent too. Obey-the-signal utilities are unchanged by
    the merge, and the merged filter is sender-compatible by construction.
    """
    pairs = filt.check_for(game)
    chosen = _signal_table(game, pairs, sender_index)[2]
    names = game.int_view.names
    probs = [Fraction(0)] * len(names)
    for sig in chosen:
        for i, p in pairs[sig]:
            probs[i] += p
    return BinaryFilter(signal0_prob=dict(zip(names, probs)))


def _signal_table(game: Game, pairs: dict[str, list[tuple[int, Fraction]]], sender_index: int
                  ) -> tuple[dict[str, list[int]], int, set[str]]:
    """Per emitted signal, every player's obey total sum(s * P(signal | state)).

    ``pairs`` are ``GeneralFilter.check_for``'s: one ``IntView.obey_totals``
    call per signal, its totals brought to L, the lcm of the per-signal
    scales, so that totals of different signals compare and add. Returns
    those rows, in ``GeneralFilter.emitted`` order, L, and the signals that
    ``merge_to_binary`` sends to signal 0: those that the tie rule
    ``_simplex._start`` of the sender's and the receiver's totals sends to
    action 0.
    """
    view = game.int_view
    view.check_sender(sender_index)
    rows = {sig: view.obey_totals(sig_pairs) for sig, sig_pairs in pairs.items()}
    scale = lcm(*(d for _, d in rows.values()))
    rows = {sig: [t * (scale // d) for t in totals] for sig, (totals, d) in rows.items()}
    start = _simplex._start([t[sender_index] for t in rows.values()],
                            [t[view.receiver] for t in rows.values()])
    chosen = {sig for sig, x in zip(rows, start) if x}
    return rows, scale, chosen


def canonical_equilibrium(game: Game,
                          filt: Union[BinaryFilter, GeneralFilter],
                          sender_index: int = 0) -> EquilibriumOutcome:
    """Pick the informative profile when it is an equilibrium, else babbling.

    A general filter is evaluated as its merge to binary, which makes the
    sender side hold automatically (see ``_general_equilibrium``). A raw
    binary filter is taken at its word, so both players' checks must pass
    for the informative outcome. When either check fails the Pareto-optimal
    equilibrium is babbling.
    """
    if isinstance(filt, GeneralFilter):
        return _general_equilibrium(game, filt, sender_index)[2]
    return binary_equilibrium(game, filt, sender_index)[2]


def _general_equilibrium(game: Game, filt: GeneralFilter, sender_index: int
                         ) -> tuple[ICReport, ICReport, EquilibriumOutcome]:
    """``binary_equilibrium`` of the merged filter, from the chosen signals' summed rows."""
    rows, scale, chosen = _signal_table(game, filt.check_for(game), sender_index)
    totals = [sum(rows[sig][t] for sig in chosen) for t in range(game.int_view.num_players)]
    return scaled_equilibrium(game, totals, scale, sender_index)


def binary_equilibrium(game: Game, filt: BinaryFilter, sender_index: int = 0
                       ) -> tuple[ICReport, ICReport, EquilibriumOutcome]:
    """The sender's and the receiver's IC reports and the canonical outcome.

    All three come from one ``BinaryFilter.obey_totals`` of the filter.
    """
    game.int_view.check_sender(sender_index)
    return scaled_equilibrium(game, *filt.obey_totals(game), sender_index)


def scaled_equilibrium(game: Game, totals: list[int], xscale: int, sender_index: int
                       ) -> tuple[ICReport, ICReport, EquilibriumOutcome]:
    """``binary_equilibrium`` from the obey totals sum(s_t * x) of probabilities x / xscale."""
    view = game.int_view
    sender = _ic_report(view, sender_index, totals[sender_index], xscale)
    receiver = _ic_report(view, view.receiver, totals[view.receiver], xscale)
    if sender.holds and receiver.holds:
        outcome = EquilibriumOutcome(kind=EquilibriumKind.INFORMATIVE,
                                     utilities=obey_profile(view, totals, xscale))
    else:
        action, utilities = evaluate_babbling(game)
        outcome = EquilibriumOutcome(kind=EquilibriumKind.BABBLING,
                                     utilities=utilities, babbling_action=action)
    return sender, receiver, outcome


# ---------------------------------------------------------------------------
# General profiles
# ---------------------------------------------------------------------------

class GeneralProfile(NamedTuple):
    """An arbitrary mixed profile over a general filter's signals.

    sender_strategy[signal][message] is the probability of sending that
    message on that signal; receiver_strategy[message] is the probability of
    playing action 0 on that message. The receiver strategy's key set is the
    whole message universe, so it also bounds the sender's deviations.
    """

    sender_strategy: Mapping[str, Mapping[str, Fraction]]
    receiver_strategy: Mapping[str, Fraction]

    def check_for(self, game: Game, filt: GeneralFilter
                  ) -> dict[str, list[tuple[int, Fraction]]]:
        """Refuse anything but a mixed profile on the filter's emitted signals.

        Checks the filter first, and returns its ``GeneralFilter.check_for``
        pairs. The sender strategy must cover exactly the emitted signals: an
        extra signal raises ``ZeroProbabilitySignal``. Both strategies and
        each signal's distribution must be mappings, every probability an int
        or Fraction in [0, 1], and each signal's distribution must sum to 1
        over messages that the receiver strategy names; any other fault
        raises ``ValueError``.
        """
        pairs = filt.check_for(game)
        for sig in self.sender_strategy:
            if sig not in pairs:
                raise ZeroProbabilitySignal(
                    f"profile defines behaviour on signal {sig!r}, which is never emitted")
        missing = [sig for sig in pairs if sig not in self.sender_strategy]
        if missing:
            raise ValueError(f"profile missing sender behaviour for signals {sorted(missing)}")
        play0 = self.receiver_strategy
        for role, got in (("sender", self.sender_strategy), ("receiver", play0)):
            if not isinstance(got, Mapping):
                raise ValueError(f"{role} strategy must be a mapping, not {type(got).__name__}")
        for m, p in play0.items():
            if isinstance(p, bool) or not isinstance(p, (int, Fraction)) or not 0 <= p <= 1:
                raise ValueError(f"receiver plays action 0 on message {m!r} with probability "
                                 f"{p!r}, not an int or Fraction in [0, 1]")
        for sig, dist in self.sender_strategy.items():
            for m in dist if isinstance(dist, Mapping) else ():
                if m not in play0:
                    raise ValueError(f"message {m!r} has no receiver behaviour")
            _check_distribution(dist, "message", f"on signal {sig!r}", ValueError)
        return pairs


class MessageClass(enum.Enum):
    PREFERS_0 = "prefers-0"   # sent on some signal where the sender wants 0
    PREFERS_1 = "prefers-1"
    INDIFFERENT = "indifferent"


_CLASS_OF_SIGN = {1: MessageClass.PREFERS_0, -1: MessageClass.PREFERS_1,
                  0: MessageClass.INDIFFERENT}


class SenderICWitness(NamedTuple):
    """Receiver play levels certifying sender incentive-compatibility.

    Messages sent where the sender wants 0 are played 0 with probability
    l_max, messages sent where she wants 1 with probability l_min, and
    indifferent-only messages sit in between. A message can carry several
    class labels when it is sent on signals of different preference.
    """

    l_min: Fraction
    l_max: Fraction
    message_classes: Mapping[str, frozenset[MessageClass]]


class Deviation(NamedTuple):
    """A profitable unilateral deviation found by the verifier."""

    player: str           # "sender" or "receiver"
    at: str               # signal (sender) or message (receiver)
    current: str
    better: str


def check_nash_general(game: Game, filt: GeneralFilter, profile: GeneralProfile,
                       sender_index: int = 0
                       ) -> tuple[bool, Union[SenderICWitness, Deviation]]:
    """Decide whether a general profile is a Nash equilibrium.

    The sender side uses the message-class conditions: every message sent on
    a prefers-0 signal must get the globally maximal probability of action 0,
    and every message sent on a prefers-1 signal the globally minimal one.
    The receiver side is a per-message posterior best-response check. The
    profile must pass ``GeneralProfile.check_for``.
    """
    rows, _, _ = _signal_table(game, profile.check_for(game, filt), sender_index)
    play0 = profile.receiver_strategy

    # Sender signal classes by posterior preference.
    sig_pref = {sig: _CLASS_OF_SIGN[(t[sender_index] > 0) - (t[sender_index] < 0)]
                for sig, t in rows.items()}

    tags: dict[str, set[MessageClass]] = {m: set() for m in play0}
    for sig, dist in profile.sender_strategy.items():
        for m, prob in dist.items():
            if prob > 0:
                tags[m].add(sig_pref[sig])

    global_max = max(play0.values())
    global_min = min(play0.values())

    for m, t in tags.items():
        for wanted, level, best in ((MessageClass.PREFERS_0, global_max, max),
                                    (MessageClass.PREFERS_1, global_min, min)):
            if wanted in t and play0[m] != level:
                sig = next(sig for sig, dist in profile.sender_strategy.items()
                           if sig_pref[sig] is wanted and dist.get(m, 0) > 0)
                return False, Deviation("sender", at=sig, current=m,
                                        better=best(play0, key=play0.__getitem__))

    # Receiver: each action in the support of the reply must be optimal for
    # the posterior induced by the message. Its gap is the sum over signals
    # of P(message | signal) times the signal's receiver total, summed in one
    # pass over the profile; a message that is never sent has gap 0, and any
    # reply to it is a best response.
    receiver = game.int_view.receiver
    gaps = dict.fromkeys(play0, 0)
    for sig, dist in profile.sender_strategy.items():
        for m, prob in dist.items():
            gaps[m] += prob * rows[sig][receiver]
    for m, gap in gaps.items():
        if play0[m] > 0 and gap < 0:
            return False, Deviation("receiver", at=m, current="action 0", better="action 1")
        if play0[m] < 1 and gap > 0:
            return False, Deviation("receiver", at=m, current="action 1", better="action 0")

    classes = {m: frozenset(t) for m, t in tags.items()}
    has0 = any(MessageClass.PREFERS_0 in t for t in tags.values())
    has1 = any(MessageClass.PREFERS_1 in t for t in tags.values())
    eq_vals = [play0[m] for m, t in tags.items() if MessageClass.INDIFFERENT in t]
    l_max = global_max if has0 else max(eq_vals + [global_min] * has1, default=global_max)
    l_min = global_min if has1 else min(eq_vals + [l_max])
    return True, SenderICWitness(l_min=l_min, l_max=l_max, message_classes=classes)
