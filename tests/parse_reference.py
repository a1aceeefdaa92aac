"""The Fraction game parse that the integer-pair parse replaced, kept as a test reference.

``validate_game`` and ``make_game`` here parse every number to a Fraction,
build the ``StateRecord``s at once and sum the priors as Fractions, as
talkfilter did before it parsed game files straight into integer pairs.
``int_tables`` builds the integer view from those records the old way, by
``as_integer_ratio()`` of each Fraction. Errors are talkfilter's own
classes, with the old messages.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence, Union

from talkfilter.core import (
    MAX_DECIMAL_EXPONENT,
    DuplicateStateName,
    EmptyStateList,
    GameValidationError,
    NonPositivePrior,
    PriorNotNormalized,
    SenderCountMismatch,
    StateRecord,
)


def parse_rational(value: Union[str, int, Fraction]) -> Fraction:
    if isinstance(value, str):
        text = value.strip()
        num, slash, den = text.partition("/")
        try:
            if not slash:
                return Fraction(int(text))
            if num[-1:].isdecimal() and den[:1].isdecimal():
                return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(value, Fraction):
        return value
    elif isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    elif isinstance(value, int):
        return Fraction(value)
    elif isinstance(value, float):
        raise ValueError(
            f"refusing float {value!r}; pass a string such as '1/10' instead")
    text = str(value).strip()
    _, e, exponent = text.replace("E", "e").rpartition("e")
    if e:
        try:
            too_large = abs(int(exponent)) > MAX_DECIMAL_EXPONENT
        except ValueError:
            too_large = False
        if too_large:
            raise ValueError(f"decimal exponent beyond ±{MAX_DECIMAL_EXPONENT}: {value!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {value!r}") from exc


@dataclass(frozen=True)
class Game:
    """The old Game's compared fields: its equality, hash and repr."""

    states: tuple[StateRecord, ...]
    num_senders: int


def _check_states(states: Sequence[StateRecord], num_senders: int) -> Game:
    if num_senders < 1:
        raise SenderCountMismatch(f"need at least one sender, got {num_senders}")
    if not states:
        raise EmptyStateList("a game needs at least one state")
    seen: set[str] = set()
    total = Fraction(0)
    for rec in states:
        if rec.name in seen:
            raise DuplicateStateName(f"duplicate state name {rec.name!r}")
        seen.add(rec.name)
        if rec.prior <= 0:
            raise NonPositivePrior(
                f"state {rec.name!r} has prior {rec.prior}, which is not > 0")
        if len(rec.sender_utils) != num_senders:
            raise SenderCountMismatch(
                f"state {rec.name!r} carries {len(rec.sender_utils)} sender "
                f"utility pairs, expected {num_senders}")
        total += rec.prior
    if total != 1:
        raise PriorNotNormalized(f"priors sum to {total}, expected exactly 1")
    return Game(states=tuple(states), num_senders=num_senders)


def make_game(states: Iterable[tuple], num_senders: int = 1) -> Game:
    records = []
    for name, prior, sender_pairs, receiver_pair in states:
        if sender_pairs and not isinstance(sender_pairs[0], (tuple, list)):
            sender_pairs = [sender_pairs]
        records.append(StateRecord(
            name=str(name),
            prior=parse_rational(prior),
            sender_utils=tuple(
                (parse_rational(u0), parse_rational(u1)) for u0, u1 in sender_pairs),
            receiver_utils=(
                parse_rational(receiver_pair[0]), parse_rational(receiver_pair[1])),
        ))
    return _check_states(records, num_senders)


def _utility_pair(pair) -> tuple[Fraction, Fraction]:
    if not isinstance(pair, list) or len(pair) != 2:
        raise GameValidationError(
            f"a utility pair must be an array of two entries, not {pair!r}")
    return parse_rational(pair[0]), parse_rational(pair[1])


def validate_game(raw: Mapping) -> Game:
    if not isinstance(raw, Mapping):
        raise GameValidationError(
            f"a game must be a JSON object, not {type(raw).__name__}")
    kind = raw.get("type", "transmission")
    if kind not in ("transmission", "aggregation"):
        raise GameValidationError(f"unknown game type {kind!r}")
    raw_states = raw.get("states")
    if not raw_states:
        raise EmptyStateList("game file has no states")
    if not isinstance(raw_states, list):
        raise GameValidationError(
            f"'states' must be a JSON array, not {type(raw_states).__name__}")
    records = []
    num_senders = None
    for entry in raw_states:
        try:
            name = str(entry["name"])
            prior = parse_rational(entry["prior"])
            pairs = entry["sender_utilities"]
            if not isinstance(pairs, list):
                raise GameValidationError(
                    f"'sender_utilities' must be an array of pairs, not {pairs!r}")
            sender_utils = tuple(_utility_pair(p) for p in pairs)
            receiver_utils = _utility_pair(entry["receiver_utility"])
        except KeyError as exc:
            raise GameValidationError(f"state entry missing field {exc}") from exc
        except TypeError as exc:
            raise GameValidationError(f"malformed state entry: {entry!r}") from exc
        if num_senders is None:
            num_senders = len(sender_utils)
        records.append(StateRecord(name, prior, sender_utils, receiver_utils))
    if kind == "transmission" and num_senders != 1:
        raise SenderCountMismatch(
            f"transmission games have exactly one sender, file has {num_senders}")
    return _check_states(records, num_senders or 0)


def _scaled_ints(pairs: list[tuple[int, int]]) -> tuple[list[int], int]:
    scale = 1
    for _, d in pairs:
        if d != 1:
            scale = lcm(scale, d)
    if scale == 1:
        return [n for n, _ in pairs], 1
    return [n * (scale // d) for n, d in pairs], scale


def int_tables(game: Game) -> dict:
    """The integer view's tables, built from the records' Fractions."""
    states = game.states
    weight, wscale = _scaled_ints([rec.prior.as_integer_ratio() for rec in states])
    u0, u1, uscale = [], [], []
    for t in range(game.num_senders + 1):
        if t < game.num_senders:
            raw = [(rec.sender_utils[t][0].as_integer_ratio(),
                    rec.sender_utils[t][1].as_integer_ratio()) for rec in states]
        else:
            raw = [(rec.receiver_utils[0].as_integer_ratio(),
                    rec.receiver_utils[1].as_integer_ratio()) for rec in states]
        flat = [r for pair in raw for r in pair]
        vals, scale = _scaled_ints(flat)
        u0.append(vals[0::2])
        u1.append(vals[1::2])
        uscale.append(scale)
    return {"names": [rec.name for rec in states], "weight": weight, "wscale": wscale,
            "u0": u0, "u1": u1, "uscale": uscale,
            "gap": [[a - b for a, b in zip(u0[t], u1[t])] for t in range(len(u0))]}
