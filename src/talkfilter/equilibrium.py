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
sweeps test. ``IntView`` keeps s and sum(s) per player as integers. A filter
with signal-0 probabilities x / D, D their lcm denominator, enters each
player's check and value only through the obey total s.x; only the reported
slacks are Fractions. ``BinaryFilter.obey_totals`` sums s.x per distinct
denominator d of the filter, as the sum over d of (D / d) times that group's
s * numerator, so a large D costs one multiply per denominator, not one per
state.

``scaled_equilibrium`` derives both IC reports and the canonical outcome from
one obey total per player: ``binary_equilibrium`` sums a filter's totals once
for them, and the optimizer sums them from its walk. Every obey-the-signal
value, here and elsewhere, is ``IntView.obey_value`` of a total.

General filters reduce to the same rows. A signal's column of probabilities,
scaled to integers, gives each player's gap on that signal as s.column, and
``merge_to_binary`` and ``check_nash_general`` read their signal classes and
the receiver's per-message gaps from those integers, never from the game's
``StateRecord``s.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Union

from ._intview import IntView, scaled_ints
from .core import (
    BinaryFilter,
    Game,
    GeneralFilter,
    UtilityProfile,
    ZeroProbabilitySignal,
    evaluate_babbling,
    obey_profile,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class ICReport:
    """Both inequality left-hand sides for one player, plus the verdict."""

    holds: bool
    signal0_slack: Fraction
    signal1_slack: Fraction


def _ic_report(view: IntView, player: int, total: int, xscale: int) -> ICReport:
    # With the filter at x / D and the obey total sum(s * x):
    # slack0 = total / (D * scale) and slack1 = (D * sum(s) - total) / (D * scale).
    bound = xscale * view.s_total[player]
    scale = xscale * view.slack_scale(player)
    return ICReport(holds=(total >= 0 and total >= bound),
                    signal0_slack=Fraction(total, scale),
                    signal1_slack=Fraction(bound - total, scale))


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


@dataclass(frozen=True)
class EquilibriumOutcome:
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
    filt.check_for(game)
    chosen = {sig for sig, (s, r) in _signal_gaps(game, filt, sender_index).items()
              if s > 0 or (s == 0 and r >= 0)}
    x = {}
    for name in game.int_view.names:
        mass = Fraction(0)
        for sig, prob in filt.table[name].items():
            if sig in chosen:
                mass += prob
        x[name] = mass
    return BinaryFilter(signal0_prob=x)


def _signal_gaps(game: Game, filt: GeneralFilter,
                 sender_index: int) -> dict[str, tuple[int, int]]:
    """Per emitted signal, the sender's and the receiver's exact gaps on it.

    A gap is the sum of prior * P(signal | state) * (u0 - u1). The filter's
    probabilities are scaled to integers over one lcm D, so every signal's
    gap comes out as an int at the player's scale D * slack scale: the gaps
    of different signals compare and add as they are. Signals the filter
    never emits are left out.
    """
    view = game.int_view
    view.check_sender(sender_index)
    scale = lcm(*(p.as_integer_ratio()[1] for dist in filt.table.values()
                  for p in dist.values()))
    gaps = {}
    for sig in filt.signals():
        column = [n * (scale // d) for n, d in (
            filt.table[name].get(sig, _ZERO).as_integer_ratio() for name in view.names)]
        if any(column):
            totals = view.obey_totals(column)
            gaps[sig] = (totals[sender_index], totals[view.receiver])
    return gaps


def canonical_equilibrium(game: Game,
                          filt: Union[BinaryFilter, GeneralFilter],
                          sender_index: int = 0) -> EquilibriumOutcome:
    """Pick the informative profile when it is an equilibrium, else babbling.

    General filters are first merged to binary (which makes the sender side
    hold automatically); a raw binary filter is taken at its word, so both
    players' checks must pass for the informative outcome. When either check
    fails the Pareto-optimal equilibrium is babbling.
    """
    if isinstance(filt, GeneralFilter):
        filt = merge_to_binary(game, filt, sender_index)
    return binary_equilibrium(game, filt, sender_index)[2]


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

@dataclass(frozen=True)
class GeneralProfile:
    """An arbitrary mixed profile over a general filter's signals.

    sender_strategy[signal][message] is the probability of sending that
    message on that signal; receiver_strategy[message] is the probability of
    playing action 0 on that message. The receiver strategy's key set is the
    whole message universe, so it also bounds the sender's deviations.
    """

    sender_strategy: Mapping[str, Mapping[str, Fraction]]
    receiver_strategy: Mapping[str, Fraction]


class MessageClass(enum.Enum):
    PREFERS_0 = "prefers-0"   # sent on some signal where the sender wants 0
    PREFERS_1 = "prefers-1"
    INDIFFERENT = "indifferent"


_CLASS_OF_SIGN = {1: MessageClass.PREFERS_0, -1: MessageClass.PREFERS_1,
                  0: MessageClass.INDIFFERENT}


@dataclass(frozen=True)
class SenderICWitness:
    """Receiver play levels certifying sender incentive-compatibility.

    Messages sent where the sender wants 0 are played 0 with probability
    l_max, messages sent where she wants 1 with probability l_min, and
    indifferent-only messages sit in between. A message can carry several
    class labels when it is sent on signals of different preference.
    """

    l_min: Fraction
    l_max: Fraction
    message_classes: Mapping[str, frozenset[MessageClass]]


@dataclass(frozen=True)
class Deviation:
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
    The receiver side is a per-message posterior best-response check. Sender
    strategy entries for signals the filter never emits are rejected.
    """
    filt.check_for(game)
    gaps = _signal_gaps(game, filt, sender_index)
    for sig in profile.sender_strategy:
        if sig not in gaps:
            raise ZeroProbabilitySignal(
                f"profile defines behaviour on signal {sig!r}, which is never emitted")
    missing = [sig for sig in gaps if sig not in profile.sender_strategy]
    if missing:
        raise ValueError(f"profile missing sender behaviour for signals {sorted(missing)}")

    messages = dict.fromkeys(profile.receiver_strategy)
    for dist in profile.sender_strategy.values():
        for m in dist:
            if m not in messages:
                raise ValueError(f"message {m!r} has no receiver behaviour")

    # Sender signal classes by posterior preference.
    classes: dict[str, frozenset[MessageClass]] = {}
    sig_pref = {sig: _CLASS_OF_SIGN[(s > 0) - (s < 0)] for sig, (s, _) in gaps.items()}

    tags: dict[str, set[MessageClass]] = {m: set() for m in messages}
    for sig, dist in profile.sender_strategy.items():
        for m, prob in dist.items():
            if prob > 0:
                tags[m].add(sig_pref[sig])

    play0 = profile.receiver_strategy
    global_max = max(play0.values())
    global_min = min(play0.values())

    for m, t in tags.items():
        if MessageClass.PREFERS_0 in t and play0[m] != global_max:
            better = max(messages, key=lambda mm: play0[mm])
            sig = _first_supporting_signal(profile, m, sig_pref, MessageClass.PREFERS_0)
            return False, Deviation("sender", at=sig, current=m, better=better)
        if MessageClass.PREFERS_1 in t and play0[m] != global_min:
            better = min(messages, key=lambda mm: play0[mm])
            sig = _first_supporting_signal(profile, m, sig_pref, MessageClass.PREFERS_1)
            return False, Deviation("sender", at=sig, current=m, better=better)

    # Receiver: each action in the support of the reply must be optimal for
    # the posterior induced by the message. Its gap is the sum over signals
    # of P(message | signal) times the signal's receiver gap, with those
    # probabilities scaled to integers too.
    for m in messages:
        sent = [(sig, dist[m]) for sig, dist in profile.sender_strategy.items()
                if dist.get(m)]
        if not sent:
            continue  # message never sent; any reply is a best response
        shares, _ = scaled_ints([prob.as_integer_ratio() for _, prob in sent])
        gap = sum(c * gaps[sig][1] for c, (sig, _) in zip(shares, sent))
        if play0[m] > 0 and gap < 0:
            return False, Deviation("receiver", at=m, current="action 0", better="action 1")
        if play0[m] < 1 and gap > 0:
            return False, Deviation("receiver", at=m, current="action 1", better="action 0")

    for m, t in tags.items():
        classes[m] = frozenset(t) if t else frozenset()
    l_max = global_max if any(MessageClass.PREFERS_0 in t for t in tags.values()) else None
    l_min = global_min if any(MessageClass.PREFERS_1 in t for t in tags.values()) else None
    eq_vals = [play0[m] for m, t in tags.items() if MessageClass.INDIFFERENT in t]
    if l_max is None:
        candidates = eq_vals + ([l_min] if l_min is not None else [])
        l_max = max(candidates) if candidates else global_max
    if l_min is None:
        candidates = eq_vals + [l_max]
        l_min = min(candidates)
    return True, SenderICWitness(l_min=l_min, l_max=l_max, message_classes=classes)


def _first_supporting_signal(profile: GeneralProfile, message: str,
                             sig_pref: Mapping[str, MessageClass],
                             wanted: MessageClass) -> str:
    for sig, dist in profile.sender_strategy.items():
        if sig_pref.get(sig) == wanted and dist.get(message, Fraction(0)) > 0:
            return sig
    return "?"
