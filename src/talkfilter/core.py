"""Exact data model for binary-action sender-receiver games.

Everything numeric is a ``fractions.Fraction`` at the API: the solver
decides incentive-compatibility on boundary cases (slacks exactly zero), so
no rounding is tolerable anywhere on the solve path. Game files and
``make_game`` tuples parse straight to reduced integer (numerator,
denominator) pairs, and the checks run on those: a prior is positive when
its numerator is, and the priors sum to exactly 1 when their numerators over
the lcm of the denominators sum to that lcm. Sums over states run on each
game's cached integer view (``Game.int_view``), built from the same pairs,
and become Fractions only when reported; a game's ``StateRecord``s of
Fractions are built only when a caller reads them.

A filter's ``check_for`` is the only code on a solve, check or evaluation
path that reads its table, and every function that takes a filter calls it
once: it checks the table and returns the sparse (state index, probability)
pairs that ``IntView.obey_totals`` takes, one list for a binary filter and
one per emitted signal for a general filter. Input that is not a mapping
raises the package's own error, naming the state. ``GeneralFilter.signals``
and ``GeneralFilter.emitted`` read the table too, unchecked, to list signal
names for a caller; only ``emitted`` calls ``signals`` in the package.

Action convention: signal 0 stands for "play action 0". A binary filter is
described by the per-state probability of emitting signal 0.

The package's records, here and in the other modules, are
``typing.NamedTuple``s: immutable, hashed and compared as the tuple of their
values, and copied with changes by ``_replace``.
"""
from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence, Union

from . import _simplex
from ._intview import IntView, check_sender, scaled_ints

#: Alias for the exact scalar type used throughout the package.
Rational = Fraction

#: Marker accepted by ``signal_utility`` and friends to address the receiver.
RECEIVER = "receiver"

Player = Union[int, str]  # sender index, or RECEIVER


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class GameValidationError(ValueError):
    """A game description violates a structural invariant."""


class EmptyStateList(GameValidationError):
    pass


class DuplicateStateName(GameValidationError):
    pass


class NonPositivePrior(GameValidationError):
    pass


class PriorNotNormalized(GameValidationError):
    pass


class SenderCountMismatch(GameValidationError):
    pass


class FilterValidationError(ValueError):
    """A filter description violates a structural invariant."""


class FilterDomainMismatch(FilterValidationError):
    pass


class ZeroProbabilitySignal(ValueError):
    """Requested a posterior for a signal the filter never emits."""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

#: Largest exponent magnitude parse_rational accepts in decimal notation.
MAX_DECIMAL_EXPONENT = 1000


def _ratio(value: Union[str, int, Fraction]) -> tuple[int, int]:
    """Parse a rational to its reduced (numerator, denominator), denominator > 0.

    The one parser behind ``parse_rational`` and the game constructors;
    see ``parse_rational`` for the accepted notation.
    """
    if isinstance(value, str):
        # Integer and "a/b" text skips Fraction's regex, which keeps decimals,
        # exponents and the verdict on malformed text. Digits next to the
        # slash rule out signs and spaces there, which int() would accept.
        text = value.strip()
        num, slash, den = text.partition("/")
        try:
            if not slash:
                return int(text), 1
            if num[-1:].isdecimal() and den[:1].isdecimal():
                n, d = int(num), int(den)
                if d:
                    g = gcd(n, d)
                    return n // g, d // g
        except ValueError:
            pass
    elif isinstance(value, Fraction):
        return value.numerator, value.denominator
    elif isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    elif isinstance(value, int):
        return value, 1
    elif isinstance(value, float):
        # Floats are rejected on purpose: 0.1 as a double is not 1/10.
        raise ValueError(
            f"refusing float {value!r}; pass a string such as '1/10' instead")
    text = str(value).strip()
    # Fraction builds 10**|exponent| in full, so a huge exponent costs
    # unbounded time and memory before anything can reject the value.
    _, e, exponent = text.replace("E", "e").rpartition("e")
    if e:
        try:
            too_large = abs(int(exponent)) > MAX_DECIMAL_EXPONENT
        except ValueError:
            too_large = False  # not an exponent; Fraction gives the verdict
        if too_large:
            raise ValueError(f"decimal exponent beyond ±{MAX_DECIMAL_EXPONENT}: {value!r}")
    try:
        return Fraction(text).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {value!r}") from exc


def parse_rational(value: Union[str, int, Fraction]) -> Fraction:
    """Parse "a/b", integer, or finite decimal notation into a Fraction.

    Decimal strings are exact: "0.2" becomes 1/5, not the nearest double.
    Strings parse exactly as ``Fraction(value.strip())`` does, except that
    exponents beyond ±MAX_DECIMAL_EXPONENT raise ValueError.
    """
    return Fraction(*_ratio(value))


# ---------------------------------------------------------------------------
# Game
# ---------------------------------------------------------------------------

Pair = tuple[int, int]            # reduced (numerator, denominator), denominator > 0
#: One state as parsed: name, prior, and per player (the senders, then the
#: receiver) the utilities of actions 0 and 1.
Row = tuple[str, Pair, tuple[tuple[Pair, Pair], ...]]


class StateRecord(NamedTuple):
    """One state: prior mass plus per-player utilities for actions 0 and 1."""

    name: str
    prior: Fraction
    sender_utils: tuple[tuple[Fraction, Fraction], ...]  # one (u0, u1) per sender
    receiver_utils: tuple[Fraction, Fraction]


def _records(rows: tuple[Row, ...]) -> tuple[StateRecord, ...]:
    fractions: dict[Pair, Fraction] = {}   # one Fraction per distinct value

    def frac(pair: Pair) -> Fraction:
        value = fractions.get(pair)
        if value is None:
            value = fractions[pair] = Fraction(*pair)
        return value

    return tuple(
        StateRecord(name, frac(prior),
                    tuple((frac(a), frac(b)) for a, b in utils[:-1]),
                    (frac(utils[-1][0]), frac(utils[-1][1])))
        for name, prior, utils in rows)


class Game:
    """A validated game: ordered states and a fixed sender count.

    The game keeps each state as parsed, in integer (numerator, denominator)
    pairs; ``int_view`` scales those to integer tables, and the
    ``StateRecord``s of Fractions behind ``states`` and ``state`` are built
    only on first access. Instances are immutable and safe to share between
    threads. ``Game(records, num_senders)``, :func:`make_game` and
    :func:`validate_game` run the same checks, so every instance is valid.
    Equality and hashing are those of the parsed rows
    and the sender count (equal exactly when the records are); repr shows the records.
    """

    __slots__ = ("num_senders", "_rows", "_states", "_index", "_view")

    def __init__(self, states: Iterable[StateRecord], num_senders: int):
        """A game of the given records, checked as :func:`make_game` checks them."""
        self._set(_checked_rows([
            (rec.name, _ratio(rec.prior),
             tuple((_ratio(a), _ratio(b)) for a, b in
                   (*rec.sender_utils, rec.receiver_utils)))
            for rec in states], num_senders), num_senders)

    @classmethod
    def _of_rows(cls, rows: tuple[Row, ...], num_senders: int) -> "Game":
        """A game of rows that are already checked."""
        game = cls.__new__(cls)
        game._set(rows, num_senders)
        return game

    def _set(self, rows: tuple[Row, ...], num_senders: int) -> None:
        for slot, value in (("num_senders", num_senders), ("_rows", rows),
                            ("_states", None), ("_index", None), ("_view", None)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Reduced pairs with positive denominators are equal exactly when
        # their Fractions are, so this is the comparison of the records.
        return (self._rows, self.num_senders) == (other._rows, other.num_senders)

    def __hash__(self):
        return hash((self._rows, self.num_senders))

    def __repr__(self):
        return f"Game(states={self.states!r}, num_senders={self.num_senders!r})"

    def __reduce__(self):
        return type(self)._of_rows, (self._rows, self.num_senders)

    @property
    def states(self) -> tuple[StateRecord, ...]:
        if self._states is None:
            object.__setattr__(self, "_states", _records(self._rows))
        return self._states

    @property
    def int_view(self) -> IntView:
        """The game's integer tables, built on first use and kept for its lifetime."""
        if self._view is None:
            object.__setattr__(self, "_view", IntView(self))
        return self._view

    def state(self, name: str) -> StateRecord:
        if self._index is None:
            object.__setattr__(self, "_index", {rec.name: rec for rec in self.states})
        return self._index[name]

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(row[0] for row in self._rows)

    def utility(self, player: Player, rec: StateRecord, action: int) -> Fraction:
        if player == RECEIVER:
            return rec.receiver_utils[action]
        return rec.sender_utils[player][action]


def _checked_rows(rows: list[Row], num_senders: int) -> tuple[Row, ...]:
    """The parsed rows, once every state and the priors check out."""
    if num_senders < 1:
        raise SenderCountMismatch(f"need at least one sender, got {num_senders}")
    if not rows:
        raise EmptyStateList("a game needs at least one state")
    seen: set[str] = set()
    for name, prior, utils in rows:
        if name in seen:
            raise DuplicateStateName(f"duplicate state name {name!r}")
        seen.add(name)
        if prior[0] <= 0:
            raise NonPositivePrior(
                f"state {name!r} has prior {Fraction(*prior)}, which is not > 0")
        if len(utils) != num_senders + 1:
            raise SenderCountMismatch(
                f"state {name!r} carries {len(utils) - 1} sender "
                f"utility pairs, expected {num_senders}")
    weight, wscale = scaled_ints([row[1] for row in rows])
    total = sum(weight)
    if total != wscale:
        raise PriorNotNormalized(
            f"priors sum to {Fraction(total, wscale)}, expected exactly 1")
    return tuple(rows)


def _checked_game(rows: list[Row], num_senders: int) -> Game:
    """The Game of parsed rows, once they check out."""
    return Game._of_rows(_checked_rows(rows, num_senders), num_senders)


def make_game(states: Iterable[tuple], num_senders: int = 1) -> Game:
    """Build a Game from plain tuples, mostly for tests and generators.

    Each entry is ``(name, prior, sender_pairs, receiver_pair)`` where
    ``sender_pairs`` is one ``(u0, u1)`` pair for a single-sender game or a
    list of such pairs, and every scalar is anything ``parse_rational``
    accepts.
    """
    rows = []
    for name, prior, sender_pairs, receiver_pair in states:
        if sender_pairs and not isinstance(sender_pairs[0], (tuple, list)):
            sender_pairs = [sender_pairs]
        rows.append((str(name), _ratio(prior), (
            *((_ratio(u0), _ratio(u1)) for u0, u1 in sender_pairs),
            (_ratio(receiver_pair[0]), _ratio(receiver_pair[1])))))
    return _checked_game(rows, num_senders)


def _utility_pair(pair) -> tuple[Pair, Pair]:
    if not isinstance(pair, list) or len(pair) != 2:
        raise GameValidationError(
            f"a utility pair must be an array of two entries, not {pair!r}")
    return _ratio(pair[0]), _ratio(pair[1])


def validate_game(raw: Mapping) -> Game:
    """Validate a parsed game-file mapping and return the Game.

    Expected shape::

        {"type": "transmission" | "aggregation",
         "states": [{"name": ..., "prior": ...,
                     "sender_utilities": [[u0, u1], ...],
                     "receiver_utility": [u0, u1]}, ...]}

    "transmission" demands exactly one sender utility pair per state.
    """
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
    rows = []
    num_senders = None
    for entry in raw_states:
        try:
            name = str(entry["name"])
            prior = _ratio(entry["prior"])
            pairs = entry["sender_utilities"]
            if not isinstance(pairs, list):
                raise GameValidationError(
                    f"'sender_utilities' must be an array of pairs, not {pairs!r}")
            utils = tuple(map(_utility_pair, pairs))
            receiver = _utility_pair(entry["receiver_utility"])
        except KeyError as exc:
            raise GameValidationError(f"state entry missing field {exc}") from exc
        except TypeError as exc:
            raise GameValidationError(f"malformed state entry: {entry!r}") from exc
        if num_senders is None:
            num_senders = len(utils)
        rows.append((name, prior, (*utils, receiver)))
    if kind == "transmission" and num_senders != 1:
        raise SenderCountMismatch(
            f"transmission games have exactly one sender, file has {num_senders}")
    return _checked_game(rows, num_senders or 0)


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

def _check_distribution(dist: Mapping[str, object], item: str, where: str,
                        error: type[ValueError]) -> list[tuple[str, Union[int, Fraction]]]:
    """The items of a mapping of ints or Fractions, none negative, summing to exactly 1.

    Reads ``dist`` once; anything else raises ``error``, naming the key or ``where``.
    """
    if not isinstance(dist, Mapping):
        raise error(f"{item} distribution {where} must be a mapping, not {type(dist).__name__}")
    items = list(dist.items())
    num, den = 0, 1   # the sum over the lcm of the denominators: cheaper than Fraction adds
    for key, p in items:
        if isinstance(p, bool) or not isinstance(p, (int, Fraction)):  # as in _ratio
            raise error(
                f"probability {p!r} for {item} {key!r} {where} is not an int or Fraction")
        n, d = p.as_integer_ratio()
        if n < 0:
            raise error(f"negative probability {p} for {item} {key!r} {where}")
        if den % d:
            up = lcm(den, d) // den
            num, den = num * up, den * up
        num += n * (den // d)
    if num != den:
        raise error(f"{item} distribution {where} sums to {Fraction(num, den)}, expected 1")
    return items


def _indexed(game: Game, table: Mapping) -> tuple[dict[str, int], list[tuple[str, object]]]:
    """Each state's index in the game, and a filter table's (state, entry) items.

    Reads the table once, and refuses it unless its keys are the game's states.
    """
    if not isinstance(table, Mapping):
        table = dict.fromkeys(table)   # its items as states, each with no entry
    index = {name: i for i, name in enumerate(game.state_names)}
    items = list(table.items())
    have = {name for name, _ in items}
    if have != index.keys():
        raise FilterDomainMismatch(
            f"filter domain mismatch: missing states {sorted(index.keys() - have)}, "
            f"unknown states {sorted(have - index.keys())}")
    return index, items


class BinaryFilter(NamedTuple):
    """Per-state probability of emitting signal 0."""

    signal0_prob: Mapping[str, Fraction]

    def check_for(self, game: Game) -> list[tuple[int, Fraction]]:
        """The filter's nonzero (state index, probability) pairs, in table order.

        These are the pairs that ``IntView.obey_totals`` takes; the table is
        read once. A table whose keys are not the game's states raises
        ``FilterDomainMismatch``, and a probability that is not an int or
        Fraction in [0, 1] ``FilterValidationError`` naming the state.
        """
        index, items = _indexed(game, self.signal0_prob)
        for name, x in items:
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):  # as in _ratio
                raise FilterValidationError(
                    f"probability {x!r} for state {name!r} is not an int or Fraction")
            n, d = x.as_integer_ratio()
            if n < 0 or n > d:
                raise FilterValidationError(
                    f"signal0 probability for {name!r} is {x}, outside [0, 1]")
        return [(index[name], x) for name, x in items if x]

    def obey_totals(self, game: Game) -> tuple[list[int], int]:
        """``IntView.obey_totals`` of the ``check_for`` pairs: per player s.x at x / D, and D."""
        return game.int_view.obey_totals(self.check_for(game))


class GeneralFilter(NamedTuple):
    """Per-state distribution over arbitrary string signals."""

    table: Mapping[str, Mapping[str, Fraction]]

    def check_for(self, game: Game) -> dict[str, list[tuple[int, Fraction]]]:
        """Each emitted signal's nonzero (state index, probability) pairs, in emitted() order.

        Each signal's pairs, in table order, are what ``IntView.obey_totals``
        takes; each state's distribution is read once. A table whose keys are
        not the game's states raises ``FilterDomainMismatch``, and a
        distribution that is not a mapping of ints or Fractions, none
        negative, summing to exactly 1, ``FilterValidationError`` naming the
        state.
        """
        index, items = _indexed(game, self.table)
        signals = defaultdict(list)   # every signal named, in ``signals()`` order
        for name, dist in items:
            for sig, p in _check_distribution(dist, "signal", f"on state {name!r}",
                                              FilterValidationError):
                pairs = signals[sig]
                if p:
                    pairs.append((index[name], p))
        return {sig: pairs for sig, pairs in signals.items() if pairs}

    def signals(self) -> list[str]:
        seen: dict[str, None] = {}
        for dist in self.table.values():
            for sig in dist:
                seen.setdefault(sig, None)
        return list(seen)

    def emitted(self) -> list[str]:
        """The signals some state gives positive probability: with priors > 0, those sent."""
        live = {sig for dist in self.table.values() for sig, p in dist.items() if p}
        return [sig for sig in self.signals() if sig in live]

    @staticmethod
    def identity(game: Game) -> "GeneralFilter":
        """Full information: each state maps to its own signal."""
        return GeneralFilter({name: {name: Fraction(1)} for name in game.state_names})

    @staticmethod
    def uninformative(game: Game, signal: str = "*") -> "GeneralFilter":
        """No information: the same signal on every state."""
        return GeneralFilter({name: {signal: Fraction(1)} for name in game.state_names})


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

class StateClassification(NamedTuple):
    """Partition of states by which action each side of the table prefers.

    agree0   both weakly prefer action 0 (sender ties resolved here when the
             receiver weakly prefers 0)
    agree1   both weakly prefer action 1
    split01  sender strictly prefers 0, receiver strictly prefers 1
    split10  sender strictly prefers 1, receiver strictly prefers 0
    """

    agree0: frozenset[str]
    agree1: frozenset[str]
    split01: frozenset[str]
    split10: frozenset[str]


def classify_states(game: Game, sender_index: int = 0) -> StateClassification:
    """Classify states by ``_simplex._start`` and ``_disagree`` of the two gap rows."""
    view = game.int_view
    view.check_sender(sender_index)
    ss, sr = view.s[sender_index], view.s[view.receiver]
    # The start's 1 for action 0, plus 2 on a split: agree1, agree0, split10, split01.
    tag = _simplex._start(ss, sr)
    for i in _simplex._disagree(ss, sr):
        tag[i] += 2
    classes: tuple[list[str], ...] = ([], [], [], [])
    for name, t in zip(view.names, tag):
        classes[t].append(name)
    agree1, agree0, split10, split01 = map(frozenset, classes)
    return StateClassification(agree0=agree0, agree1=agree1, split01=split01, split10=split10)


# ---------------------------------------------------------------------------
# Posteriors and evaluation
# ---------------------------------------------------------------------------

def _check_action(action: int) -> None:
    if isinstance(action, bool) or not isinstance(action, int) or action not in (0, 1):
        raise ValueError(f"action {action!r} is not 0 or 1")


def posterior(game: Game, filt: GeneralFilter, signal: str) -> dict[str, Fraction]:
    """Exact Bayes posterior over states given one emitted signal.

    Computed on the game's ``StateRecord``s in Fractions, straight from the
    definition, apart from the integer rows that the solver and its checks
    use: each state's prior times the signal's probability there, read from
    the pairs of ``GeneralFilter.check_for``, which refuses a bad filter.
    """
    pairs = filt.check_for(game).get(signal)
    if not pairs:
        raise ZeroProbabilitySignal(f"signal {signal!r} is never emitted")
    states = game.states
    weights = {states[i].name: states[i].prior * prob for i, prob in sorted(pairs)}
    total = sum(weights.values(), Fraction(0))
    return {name: w / total for name, w in weights.items()}


def signal_utility(game: Game, filt: GeneralFilter, signal: str,
                   player: Player, action: int) -> Fraction:
    """Posterior-weighted expected utility of playing ``action`` on ``signal``.

    ``player`` is a sender index or ``RECEIVER``, ``action`` 0 or 1, and the
    filter must pass ``GeneralFilter.check_for`` (``posterior`` checks it).
    """
    if player != RECEIVER:
        if isinstance(player, bool) or not isinstance(player, int):
            raise ValueError(f"player {player!r} is neither RECEIVER nor a sender index")
        check_sender(game.num_senders, player)
    _check_action(action)
    post = posterior(game, filt, signal)
    total = Fraction(0)
    for name, prob in post.items():
        total += prob * game.utility(player, game.state(name), action)
    return total


class UtilityProfile(NamedTuple):
    """Expected utilities for every player of a game."""

    senders: tuple[Fraction, ...]
    receiver: Fraction

    @staticmethod
    def of(values: Sequence[Fraction]) -> "UtilityProfile":
        """From per-player values in IntView order: the senders, then the receiver."""
        return UtilityProfile(senders=tuple(values[:-1]), receiver=values[-1])

    @property
    def sender(self) -> Fraction:
        if len(self.senders) != 1:
            raise ValueError("sender property needs a single-sender game")
        return self.senders[0]


def obey_profile(view: IntView, totals: list[int], scale: int) -> UtilityProfile:
    """Every player's ``IntView.obey_value`` from the obey totals at filter scale ``scale``."""
    return UtilityProfile.of([view.obey_value(t, n, scale) for t, n in enumerate(totals)])


def evaluate_sigma_s(game: Game, filt: BinaryFilter) -> UtilityProfile:
    """Value of obeying the binary signal: action 0 on signal 0, 1 on signal 1.

    Pure evaluation; whether that play is anyone's best response is the
    equilibrium module's business.
    """
    return obey_profile(game.int_view, *filt.obey_totals(game))


def constant_action_value(game: Game, action: int) -> UtilityProfile:
    """Expected utilities when the receiver plays one action (0 or 1) unconditionally."""
    _check_action(action)
    view = game.int_view
    return UtilityProfile.of([view.constant_value(t, action)
                              for t in range(view.num_players)])


def evaluate_babbling(game: Game) -> tuple[int, UtilityProfile]:
    """Best uninformed receiver action (ties to 0) and the resulting utilities.

    Filters never enter this computation: babbling ignores all messages.
    """
    action, values = game.int_view.babbling()
    return action, UtilityProfile.of(values)
