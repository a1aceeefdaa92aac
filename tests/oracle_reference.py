"""The from-definition evaluators that talkfilter.oracle replaced, kept as a test reference.

``profile_value`` sums every (state, signal, message) term of a profile's
expected utilities, and ``exhaustive_nash_check`` scores every message of
every live signal by summing over the signal's states again. The oracle's
evaluators sum per state and per signal once, and must return exactly the
same values, verdicts and deviation witnesses.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from talkfilter import RECEIVER, Game, GeneralFilter, GeneralProfile, UtilityProfile

_ZERO = Fraction(0)


def profile_value(game: Game, filt: GeneralFilter, profile: GeneralProfile
                  ) -> UtilityProfile:
    """Expected utilities of an arbitrary profile, straight from the definition."""
    players = list(range(game.num_senders)) + [RECEIVER]
    totals = {p: _ZERO for p in players}
    for rec in game.states:
        for sig, sprob in filt.table[rec.name].items():
            if not sprob:
                continue
            dist = profile.sender_strategy.get(sig, {})
            for m, mprob in dist.items():
                if not mprob:
                    continue
                p0 = profile.receiver_strategy[m]
                weight = rec.prior * sprob * mprob
                for p in players:
                    u0 = game.utility(p, rec, 0)
                    u1 = game.utility(p, rec, 1)
                    totals[p] += weight * (p0 * u0 + (1 - p0) * u1)
    return UtilityProfile(
        senders=tuple(totals[j] for j in range(game.num_senders)),
        receiver=totals[RECEIVER])


def exhaustive_nash_check(game: Game, filt: GeneralFilter, profile: GeneralProfile,
                          sender_index: int = 0) -> tuple[bool, Optional[dict]]:
    """Search every pure unilateral deviation; independent of the lemma path.

    Sender deviations re-map one signal to one message; receiver deviations
    re-map one message to one pure action. Linearity makes pure deviations
    sufficient.
    """
    filt.check_for(game)
    messages = list(profile.receiver_strategy)
    live: dict[str, dict[str, Fraction]] = {}
    for sig in filt.signals():
        weights = {}
        for rec in game.states:
            p = rec.prior * filt.table[rec.name].get(sig, _ZERO)
            if p:
                weights[rec.name] = p
        if weights:
            live[sig] = weights

    def message_value(sig: str, m: str, player: Union[int, str]) -> Fraction:
        p0 = profile.receiver_strategy[m]
        total = _ZERO
        for name, wgt in live[sig].items():
            rec = game.state(name)
            u0 = game.utility(player, rec, 0)
            u1 = game.utility(player, rec, 1)
            total += wgt * (p0 * u0 + (1 - p0) * u1)
        return total

    for sig in live:
        dist = profile.sender_strategy[sig]
        current = sum((prob * message_value(sig, m, sender_index)
                       for m, prob in dist.items()), _ZERO)
        for m in messages:
            if message_value(sig, m, sender_index) > current:
                return False, {"player": "sender", "signal": sig, "better": m}

    for m in messages:
        v0 = _ZERO
        v1 = _ZERO
        sent = False
        for sig in live:
            prob = profile.sender_strategy[sig].get(m, _ZERO)
            if not prob:
                continue
            for name, wgt in live[sig].items():
                rec = game.state(name)
                v0 += wgt * prob * game.utility(RECEIVER, rec, 0)
                v1 += wgt * prob * game.utility(RECEIVER, rec, 1)
                sent = True
        if not sent:
            continue
        p0 = profile.receiver_strategy[m]
        current = p0 * v0 + (1 - p0) * v1
        if v0 > current or v1 > current:
            better = 0 if v0 >= v1 else 1
            return False, {"player": "receiver", "message": m, "better": better}
    return True, None
