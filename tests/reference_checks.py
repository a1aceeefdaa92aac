"""The oracle's evaluators and the LP search against their references, on a small seeded set.

``oracle_reference`` sums every (state, signal, message) term of a
profile's utilities, and ``simplex_reference`` is an exact Fraction Bland
simplex. On seeded games, with ``random_game``'s integer utilities and
``rational_game``'s mixed denominators and decimal strings, one to three
senders, ``profile_value`` and ``exhaustive_nash_check`` must return exactly
the reference's utilities, verdicts and deviation witnesses. On seeded
two-sender LPs at both unanimous targets, ``_simplex.maximize`` must return
a point in the box, feasible, with at most two fractional entries, worth
the reference's optimum.

The one-row kernel's stop is checked from its definition on seeded rows
(``check_stops``): small entries, so ties and zero gaps are common, rows
that the start already meets, empty rows, and every kernel call of
``maximize`` on seeded LPs and on Kelley's adversary. A stop's pivot entry
num / den must make the row bind exactly, and ``_cut``'s totals must be
the Fraction sums at its point.

Input checks ride along. Every function that takes a filter reads
each of its distributions once per call, through ``check_for``
(``check_one_read``); a filter, a distribution or a strategy that is not
a mapping raises the package's own error, naming the state or the signal
(``check_non_mappings``); ``make_game``, ``Game(records)`` and
``validate_game`` refuse the same malformed utility pairs with the same
``GameValidationError`` (``check_pair_rule``), and the first two a state
entry that is not four fields (``check_entry_rule``); and every integer
argument refuses a bool, a float, a string, None or a Fraction, and a
value below its least, with the package's own message (``check_int_rule``).

``test_oracle_reference`` and ``test_simplex_reference`` run larger sets
with these helpers. Run as a script
(``PYTHONPATH=src python tests/reference_checks.py``) where pytest is not
installed.
"""
import re
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction
from math import gcd
from operator import mul

import oracle_reference
import simplex_reference
import talkfilter as tf
from talkfilter import _simplex

TARGETS = (tf.CandidateProfile.UNANIMOUS_0, tf.CandidateProfile.UNANIMOUS_1)


def rational_game(seed: int) -> tf.Game:
    """A seeded ``make_game`` game on 1-6 states and 1-3 senders, with mixed denominators.

    Each of the first k - 1 priors is n / (4 * k * d), d from 1, 2, 3, 5, 7
    and 10, and the last takes the rest of 1. Utilities are n / d, n from
    -20 to 20 and d from 1, 2, 3, 4, 5, 8 and 12. A value is spelled as a
    Fraction, an int, an "n/d" string or, where its denominator divides
    10^4, a decimal string.
    """
    rng = tf.SplitMix64(seed)
    k, num_senders = 1 + rng.below(6), 1 + rng.below(3)

    def spelled(x: Fraction):
        kind = rng.below(4)
        if kind == 0 and x.denominator == 1:
            return x.numerator
        if kind == 1 and 10 ** 4 % x.denominator == 0:
            return str(Decimal(x.numerator) / Decimal(x.denominator))
        if kind == 2:
            return f"{x.numerator}/{x.denominator}"
        return x

    def utility():
        return spelled(Fraction(rng.below(41) - 20, (1, 2, 3, 4, 5, 8, 12)[rng.below(7)]))

    priors = [Fraction(1 + rng.below(4), 4 * k * (1, 2, 3, 5, 7, 10)[rng.below(6)])
              for _ in range(k - 1)]
    priors.append(1 - sum(priors))
    return tf.make_game([(f"w{i}", spelled(prior),
                          [(utility(), utility()) for _ in range(num_senders)],
                          (utility(), utility()))
                         for i, prior in enumerate(priors)], num_senders=num_senders)


def check_evaluators(game: tf.Game, seed: int, profiles: int = 3) -> set[str]:
    """Compare both evaluators with the reference on seeded filters and profiles.

    Returns the outcomes seen: "nash", or the player of the first deviation.
    """
    outcomes = set()
    for j in range(profiles):
        filt = tf.random_general_filter(game, seed=seed * 10 + j)
        profile = tf.random_profile(game, filt, seed=seed * 10 + j + 5)
        got = tf.profile_value(game, filt, profile)
        want = oracle_reference.profile_value(game, filt, profile)
        assert got == want, (seed, j, got, want)
        for sender in range(game.num_senders):
            got = tf.exhaustive_nash_check(game, filt, profile, sender)
            want = oracle_reference.exhaustive_nash_check(game, filt, profile, sender)
            assert got == want, (seed, j, sender, got, want)
            outcomes.add(got[1]["player"] if got[1] else "nash")
    return outcomes


def reference_value(lp: tf.LPInstance) -> Fraction:
    """The reference's optimum of an LPInstance, times lp.scale.

    Unanimous-1 is max s_r.x subject to s_j.x >= sum(s_j); in y = 1 - x it
    is sum(s_r) plus max -s_r.y subject to -s_j.y >= 0.
    """
    if lp.target is tf.CandidateProfile.UNANIMOUS_0:
        return simplex_reference.maximize(lp.objective, lp.rows)[1]
    neg = [[-v for v in row] for row in (lp.objective, *lp.rows)]
    return sum(lp.objective) + simplex_reference.maximize(neg[0], neg[1:])[1]


def check_lp(lp: tf.LPInstance) -> None:
    """``maximize``'s point on the LP: integers in the box, feasible, a vertex, optimal."""
    (a, b), (ta, tb) = lp.rows, lp.bounds
    xnum, den = _simplex.maximize(lp.objective, a, ta, b, tb)
    assert all(type(v) is int for v in [*xnum, den]) and den > 0
    x = [Fraction(v, den) for v in xnum]
    assert sum(c * v for c, v in zip(lp.objective, x)) == reference_value(lp), lp
    assert all(0 <= v <= 1 for v in x)
    assert sum(1 for v in x if 0 < v < 1) <= 2
    for row, t in zip(lp.rows, lp.bounds):
        assert sum(r * v for r, v in zip(row, x)) >= t


def check_stop(e: list[int], b: list[int], t: int) -> bool:
    """``_solve``'s stop on one row, from its definition; returns whether it walked.

    Without a walk the start meets the row, and the stop is (x, 0, -1, 0, 0, 1).
    With one, x is 0/1 with the pivot's entry 0, the entry num / den has
    den > 0, gcd 1 and 0 <= num <= den, lies off the pivot's start value,
    and makes the row bind: den * b.x + b[pivot] * num = t * den. Either
    way y certifies the point: e.x = sum(max(0, e_i + y * b_i)) - y * t.
    """
    x, step, pivot, y, num, den = _simplex._solve(e, b, t)
    assert len(x) == len(e) and all(v in (0, 1) for v in x), x
    bx = sum(map(mul, b, x))
    point = [Fraction(v) for v in x]
    if step:
        assert x[pivot] == 0 and den > 0 and gcd(num, den) == 1 and 0 <= num <= den
        assert Fraction(num, den) != _simplex._start(e, b)[pivot]
        assert den * bx + b[pivot] * num == t * den, (e, b, t)
        point[pivot] = Fraction(num, den)
    else:
        assert (pivot, y, num, den) == (-1, 0, 0, 1) and bx >= t
    assert (sum(map(mul, e, point))
            == sum(max(0, u + y * v) for u, v in zip(e, b)) - y * t), (e, b, t)
    return bool(step)


def check_cut(args: tuple, cut) -> None:
    """``_cut``'s totals are the Fraction sums at its point, the pivot's entry
    taken from its definition, (tb - b.x) / b[pivot]."""
    c, a, ta, b, tb, p, q = args
    check_stop([q * ci + p * ai for ci, ai in zip(c, a)], b, tb)
    point = [Fraction(v) for v in cut.x]
    if cut.pivot >= 0:
        entry = Fraction(tb - sum(map(mul, b, cut.x)), b[cut.pivot])
        assert entry == Fraction(cut.num, cut.den)
        point[cut.pivot] = entry
    assert Fraction(cut.cx, cut.den) == sum(map(mul, c, point)), args
    assert Fraction(cut.g, cut.den) == sum(map(mul, a, point)) - ta, args


def maximize_cuts(c, a, ta, b, tb) -> list:
    """The (arguments, result) of every ``_cut`` call of one ``maximize``."""
    real, calls = _simplex._cut, []

    def recorded(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    _simplex._cut = recorded
    try:
        _simplex.maximize(c, a, ta, b, tb)
    finally:
        _simplex._cut = real
    return calls


def check_stops(count: int = 600) -> None:
    """Every kind of stop on seeded rows, and every cut of seeded searches."""
    rng = tf.SplitMix64(86000)
    walked = set()
    for n in range(count):
        k, span = rng.below(9), (1, 3, 30)[n % 3]   # k = 0 is an empty row
        e = [rng.below(2 * span + 1) - span for _ in range(k)]
        b = [rng.below(2 * span + 1) - span for _ in range(k)]
        low, high = sum(min(0, v) for v in b), sum(max(0, v) for v in b)
        walked.add(check_stop(e, b, low + rng.below(high - low + 1)))
        try:
            _simplex._solve(e, b, high + 1)
        except ArithmeticError:
            pass
        else:
            raise AssertionError(("a row no point meets", e, b, high + 1))
    assert walked == {False, True}
    cuts = []
    for seed in range(12):
        game = tf.random_game(tf.RandomGameSpec(
            seed=86100 + seed, num_states=(2, 5, 12, 30)[seed % 4], num_senders=2,
            utility_range=(1, 100)[seed % 2], prior="random-rational"))
        for target in TARGETS:
            lp = tf.build_lp(game, target)
            (a, b), (ta, tb) = lp.rows, lp.bounds
            cuts += maximize_cuts(lp.objective, a, ta, b, tb)
    k, bits = 40, 80   # Kelley's adversary: b = 0, a = 1, -c_i = 2^(B*i // k) + i
    for ta in (1, 10, k // 2):
        cuts += maximize_cuts([-(2 ** (bits * i // k) + i) for i in range(k)], [1] * k, ta,
                              [0] * k, 0)
    assert any(cut.pivot >= 0 for _, cut in cuts) and any(cut.pivot < 0 for _, cut in cuts)
    for args, cut in cuts:
        check_cut(args, cut)


class CountingMapping(Mapping):
    """A read-only mapping that counts its reads: the calls that look at its keys or values."""

    def __init__(self, data):
        self._data = dict(data)
        self.reads = 0

    def _read(self) -> dict:
        self.reads += 1
        return self._data

    def __getitem__(self, key):
        return self._read()[key]

    def __iter__(self):
        return iter(self._read())

    def __len__(self):
        return len(self._data)

    def __contains__(self, key):
        return key in self._read()

    def get(self, key, default=None):
        return self._read().get(key, default)

    def keys(self):
        return self._read().keys()

    def items(self):
        return self._read().items()

    def values(self):
        return self._read().values()


#: Every function that reads a general filter, called as (game, filter, profile, sender).
GENERAL_READERS = {
    "check_for": lambda g, f, p, s: f.check_for(g),
    "merge_to_binary": lambda g, f, p, s: tf.merge_to_binary(g, f, s),
    "canonical_equilibrium": lambda g, f, p, s: tf.canonical_equilibrium(g, f, s),
    "check_nash_general": lambda g, f, p, s: tf.check_nash_general(g, f, p, s),
    "exhaustive_nash_check": lambda g, f, p, s: tf.exhaustive_nash_check(g, f, p, s),
    "profile_value": lambda g, f, p, s: tf.profile_value(g, f, p),
    "posterior": lambda g, f, p, s: tf.posterior(g, f, next(iter(p.sender_strategy))),
    "signal_utility": lambda g, f, p, s: tf.signal_utility(
        g, f, next(iter(p.sender_strategy)), s, 0),
    "random_profile": lambda g, f, p, s: tf.random_profile(g, f, 5),
}

#: Every function that reads a binary filter, called as the general readers are.
BINARY_READERS = {
    "check_for": lambda g, f, p, s: f.check_for(g),
    "obey_totals": lambda g, f, p, s: f.obey_totals(g),
    "canonical_equilibrium": lambda g, f, p, s: tf.canonical_equilibrium(g, f, s),
    "evaluate_sigma_s": lambda g, f, p, s: tf.evaluate_sigma_s(g, f),
    "sender_ic": lambda g, f, p, s: tf.sender_ic(g, f, s),
    "receiver_ic": lambda g, f, p, s: tf.receiver_ic(g, f),
}


def distribution_reads(kind: str, name: str, seed: int) -> set[int]:
    """The numbers of reads of each distribution in one call of a reader.

    ``kind`` is "general" or "binary". The filter is seeded on a seeded
    6-state game with 1-3 senders: a general filter has each state's
    distribution wrapped in a ``CountingMapping``, a binary filter its table.
    """
    game = tf.random_game(tf.RandomGameSpec(seed=7 + seed, num_states=6,
                                            num_senders=1 + seed % 3, prior="random-rational"))
    sender = seed % game.num_senders
    general = tf.random_general_filter(game, seed=7 + seed)
    profile = tf.random_profile(game, general, seed=7 + seed)
    if kind == "general":
        dists = [CountingMapping(dist) for dist in general.table.values()]
        filt = tf.GeneralFilter(dict(zip(general.table, dists)))
    else:
        dists = [CountingMapping(tf.random_binary_filter(game, seed=7 + seed).signal0_prob)]
        filt = tf.BinaryFilter(dists[0])
    readers = GENERAL_READERS if kind == "general" else BINARY_READERS
    readers[name](game, filt, profile, sender)
    return {dist.reads for dist in dists}


def check_one_read(seeds=range(6)) -> None:
    """Every reader reads each distribution exactly once per call."""
    for kind, readers in (("general", GENERAL_READERS), ("binary", BINARY_READERS)):
        for name in readers:
            for seed in seeds:
                reads = distribution_reads(kind, name, seed)
                assert reads == {1}, (kind, name, seed, reads)


def two_state() -> tf.Game:
    """Two states, a and b; the identity filter emits signals "a" and "b"."""
    return tf.make_game([("a", "1/2", ("1", "0"), ("1", "-1")),
                         ("b", "1/2", ("0", "1"), ("-1", "1"))])


#: Filters that are not mappings, or hold one that is not: (filter, error, message).
NON_MAPPING_FILTERS = {
    "list distribution": (tf.GeneralFilter({"a": [("a", 1)], "b": {"b": 1}}),
                          tf.FilterValidationError,
                          "signal distribution on state 'a' must be a mapping, not list"),
    "None distribution": (tf.GeneralFilter({"a": {"a": 1}, "b": None}),
                          tf.FilterValidationError,
                          "signal distribution on state 'b' must be a mapping, not NoneType"),
    "general list of states": (tf.GeneralFilter(["a", "b"]), tf.FilterValidationError,
                               "distribution on state 'a' must be a mapping, not NoneType"),
    "binary list of pairs": (tf.BinaryFilter([("a", 1), ("b", 0)]), tf.FilterDomainMismatch,
                             r"missing states \['a', 'b'\], unknown states \[\('a', 1\)"),
    "binary list of states": (tf.BinaryFilter(["a", "b"]), tf.FilterValidationError,
                              "probability None for state 'a' is not an int or Fraction"),
}

#: Profiles, on ``two_state``'s identity filter, whose strategies are not
#: mappings: (sender strategy, receiver strategy, message).
NON_MAPPING_PROFILES = {
    "list sender distribution": ({"a": ["t0"], "b": {"t1": 1}}, {"t0": 1, "t1": 0},
                                 "distribution on signal 'a' must be a mapping, not list"),
    "list of an unknown message": ({"a": [1], "b": {"t1": 1}}, {"t0": 1, "t1": 0},
                                   "distribution on signal 'a' must be a mapping, not list"),
    "None sender distribution": ({"a": {"t0": 1}, "b": None}, {"t0": 1, "t1": 0},
                                 "signal 'b' must be a mapping, not NoneType"),
    "list sender strategy": (["a", "b"], {"t0": 1, "t1": 0},
                             "sender strategy must be a mapping, not list"),
    "list receiver strategy": ({"a": {"t0": 1}, "b": {"t1": 1}}, [1, 0],
                               "receiver strategy must be a mapping, not list"),
}


def check_refused(call, error: type, message: str) -> None:
    """``call()`` raises ``error`` (not ``ZeroProbabilitySignal``) whose text has ``message``."""
    try:
        call()
    except error as exc:
        assert not isinstance(exc, tf.ZeroProbabilitySignal), exc
        assert re.search(message, str(exc)), (str(exc), message)
    else:
        raise AssertionError(f"no {error.__name__}")


def check_filter_case(case: str) -> None:
    """Every reader of the case's filter refuses it with the case's error and message."""
    filt, error, message = NON_MAPPING_FILTERS[case]
    profile = tf.GeneralProfile(sender_strategy={"a": {"t0": 1}, "b": {"t1": 1}},
                                receiver_strategy={"t0": 1, "t1": 0})
    game = two_state()
    readers = BINARY_READERS if isinstance(filt, tf.BinaryFilter) else GENERAL_READERS
    for read in readers.values():
        check_refused(lambda: read(game, filt, profile, 0), error, message)


def check_non_mappings() -> None:
    """Every non-mapping case, through every function that checks it."""
    for case in NON_MAPPING_FILTERS:
        check_filter_case(case)
    game = two_state()
    identity = tf.GeneralFilter.identity(game)
    for sender, receiver, message in NON_MAPPING_PROFILES.values():
        profile = tf.GeneralProfile(sender_strategy=sender, receiver_strategy=receiver)
        for name in ("check_nash_general", "exhaustive_nash_check", "profile_value"):
            read = GENERAL_READERS[name]
            check_refused(lambda: read(game, identity, profile, 0), ValueError, message)


#: Utility pairs that no game constructor accepts: (pair, the player it is given to).
BAD_PAIRS = {
    "three-entry receiver pair": ((0, 1, 9), "receiver"),
    "three-entry sender pair": (["1", "0", "0"], "sender"),
    "string sender pair": ("10", "sender"),
    "string receiver pair": ("01", "receiver"),
    "one-entry sender pair": ((1,), "sender"),
    "one-entry receiver pair": (["1"], "receiver"),
}


def check_pair_case(case: str) -> None:
    """Each game constructor, given the case's pair, raises ``GameValidationError``
    with ``validate_game``'s message."""
    pair, player = BAD_PAIRS[case]
    sender, receiver = (pair, (1, 0)) if player == "sender" else ((1, 0), pair)
    builds = {
        "make_game": lambda: tf.make_game([("a", 1, sender, receiver)]),
        "Game": lambda: tf.Game([tf.StateRecord("a", Fraction(1), (sender,), receiver)], 1),
        "validate_game": lambda: tf.validate_game({"states": [
            {"name": "a", "prior": 1, "sender_utilities": [sender],
             "receiver_utility": receiver}]}),
    }
    message = f"a utility pair must be an array of two entries, not {pair!r}"
    for name, build in builds.items():
        try:
            build()
        except tf.GameValidationError as exc:
            assert str(exc) == message, (name, str(exc), message)
        else:
            raise AssertionError(f"{name} accepted the {case} {pair!r}")


def check_pair_rule() -> None:
    for case in BAD_PAIRS:
        check_pair_case(case)


#: State entries that ``make_game`` and ``Game(records)`` refuse with
#: ``GameValidationError``: (entry, make_game's message, Game's message).
BAD_ENTRIES = {
    "two fields": (("a", 1), "malformed state entry: ('a', 1)", None),
    "three fields": (("a", 1, (1, 0)), "malformed state entry: ('a', 1, (1, 0))", None),
    "five fields": (("a", 1, [(1, 0)], (0, 1), 9),
                    "malformed state entry: ('a', 1, [(1, 0)], (0, 1), 9)", None),
    "four-character string": ("abcd", "malformed state entry: 'abcd'", None),
    "None": (None, "malformed state entry: None", None),
    "mapping": ({"name": "a"}, "malformed state entry: {'name': 'a'}", None),
    # make_game reads sender pairs that are not a list or tuple of pairs as
    # one pair; Game(records) has no such shorthand.
    "int sender pairs": (("a", 1, 5, (0, 1)),
                         "a utility pair must be an array of two entries, not 5",
                         "'sender_utilities' must be an array of pairs, not 5"),
    "None sender pairs": (("a", 1, None, (0, 1)),
                          "a utility pair must be an array of two entries, not None",
                          "'sender_utilities' must be an array of pairs, not None"),
    "bare sender pair": (("a", 1, (1, 0), (0, 1)), None,
                         "a utility pair must be an array of two entries, not 1"),
}


def check_entry_case(case: str) -> None:
    """``make_game`` and ``Game(records)`` refuse the case's entry with their
    message, each a ``GameValidationError``'s whole text (None: the first
    message, or for ``make_game`` a valid entry)."""
    entry, made, recorded = BAD_ENTRIES[case]
    if made is None:
        tf.make_game([entry])
    else:
        check_refused(lambda: tf.make_game([entry]), tf.GameValidationError,
                      f"^{re.escape(made)}$")
    check_refused(lambda: tf.Game([entry], 1), tf.GameValidationError,
                  f"^{re.escape(recorded or made)}$")


def check_entry_rule() -> None:
    for case in BAD_ENTRIES:
        check_entry_case(case)


#: Values that no integer argument takes.
NOT_INTS = (True, False, 1.0, 2.5, "3", None, Fraction(2))

_ONE_STATE = [("a", 1, (1, 0), (0, 1))]


def _seeded(**fields) -> tf.Game:
    return tf.random_game(tf.RandomGameSpec(**{"seed": 3, "num_states": 3, **fields}))


#: Each integer argument: the name its errors give, a call that passes it a
#: value, and a value below its least with that value's error and whole
#: message (None: every int is taken).
INT_ARGUMENTS = {
    "make_game num_senders": (
        "num_senders", lambda v: tf.make_game(_ONE_STATE, num_senders=v),
        (0, tf.SenderCountMismatch, "need at least one sender, got 0")),
    "Game num_senders": (
        "num_senders", lambda v: tf.Game(tf.make_game(_ONE_STATE).states, v),
        (-1, tf.SenderCountMismatch, "need at least one sender, got -1")),
    "RandomGameSpec num_senders": (
        "num_senders", lambda v: _seeded(num_senders=v),
        (0, tf.SenderCountMismatch, "need at least one sender, got 0")),
    "RandomGameSpec num_states": (
        "num_states", lambda v: _seeded(num_states=v),
        (0, ValueError, "num_states must be at least 1, got 0")),
    "RandomGameSpec utility_range": (
        "utility_range", lambda v: _seeded(utility_range=v),
        (-1, ValueError, "utility_range must be at least 0, got -1")),
    "RandomGameSpec seed": ("seed", lambda v: _seeded(seed=v), None),
    "random_binary_filter resolution": (
        "resolution", lambda v: tf.random_binary_filter(_seeded(), 1, resolution=v),
        (0, ValueError, "resolution must be at least 1, got 0")),
    "random_binary_filter seed": ("seed", lambda v: tf.random_binary_filter(_seeded(), v), None),
    "random_general_filter max_signals": (
        "max_signals", lambda v: tf.random_general_filter(_seeded(), 1, max_signals=v),
        (0, ValueError, "max_signals must be at least 1, got 0")),
    "random_general_filter seed": (
        "seed", lambda v: tf.random_general_filter(_seeded(), v), None),
    "random_profile seed": (
        "seed", lambda v: tf.random_profile(_seeded(), tf.GeneralFilter.identity(_seeded()), v),
        None),
    "SplitMix64 seed": ("seed", tf.SplitMix64, None),
    "GridSpec resolution": (
        "grid resolution", lambda v: tf.GridSpec(resolution=v).check(_seeded()),
        (0, ValueError, "grid resolution must be at least 1, got 0")),
    "sender index": (
        "sender index", lambda v: tf.classify_states(_seeded(), v),
        (-1, IndexError, "sender index -1 out of range for 1 senders")),
}


def check_int_case(case: str) -> None:
    """The case's argument refuses every one of ``NOT_INTS`` with ``ValueError("{what}
    {value!r} is not an int")``, and the value below its least with its own error."""
    what, call, below = INT_ARGUMENTS[case]
    for value in NOT_INTS:
        check_refused(lambda: call(value), ValueError,
                      f"^{re.escape(f'{what} {value!r} is not an int')}$")
    if below is not None:
        value, error, message = below
        check_refused(lambda: call(value), error, f"^{re.escape(message)}$")


def check_int_rule() -> None:
    for case in INT_ARGUMENTS:
        check_int_case(case)


def main() -> None:
    outcomes = set()
    for seed in range(60):
        game = tf.random_game(tf.RandomGameSpec(
            seed=83000 + seed, num_states=1 + seed % 8, num_senders=1 + seed % 3,
            utility_range=(0, 1, 5)[seed % 3],
            prior=("uniform", "random-rational")[seed % 2]))
        outcomes |= check_evaluators(game, seed)
        outcomes |= check_evaluators(rational_game(84000 + seed), seed)
    assert outcomes == {"sender", "receiver", "nash"}, outcomes
    for seed in range(60):
        game = tf.random_game(tf.RandomGameSpec(
            seed=85000 + seed, num_states=(2, 3, 5, 8, 13, 30)[seed % 6], num_senders=2,
            utility_range=(1, 100)[seed % 2], prior="random-rational"))
        for target in TARGETS:
            check_lp(tf.build_lp(game, target))
    check_stops()
    check_one_read()
    check_non_mappings()
    check_pair_rule()
    check_entry_rule()
    check_int_rule()
    print("evaluators and LP search match their references; kernel stops are exact; "
          "each filter is read once, non-mapping inputs are refused, every game "
          "constructor refuses a malformed utility pair or state entry, and every "
          "integer argument refuses what is not an int")


if __name__ == "__main__":
    main()
