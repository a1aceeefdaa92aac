"""General filters are evaluated once, through the one integer routine.

``IntView.obey_totals`` is the only routine that turns a filter's
probabilities into integer obey totals. A general filter costs one call of it
per emitted signal, handed only that signal's nonzero (state, probability)
pairs, and no ``BinaryFilter`` evaluation. Its canonical outcome and IC
reports equal those of ``binary_equilibrium`` on its merge.
General profiles are validated by one ``GeneralProfile.check_for``, and
sender indices are refused as ``IntView.check_sender`` refuses them.
``check_for`` is the only read of a filter's table: every function that
takes a filter reads each distribution once, and an input that is not a
mapping raises the package's own error.
"""
import itertools
import re
import time
from fractions import Fraction as F

import pytest

import reference_checks
import talkfilter as tf
from talkfilter._intview import IntView
from talkfilter.equilibrium import _general_equilibrium, binary_equilibrium


def _corpus():
    """Seeded (game, general filter, sender) triples: 1-3 senders, ranges 0/1/5/100."""
    j = 0
    for num_senders in (1, 2, 3):
        for utility_range in (0, 1, 5, 100):
            for prior in ("uniform", "random-rational"):
                for i in range(24):
                    j += 1
                    game = tf.random_game(tf.RandomGameSpec(
                        seed=9000 + j, num_states=1 + i % 6, num_senders=num_senders,
                        utility_range=utility_range, prior=prior))
                    filt = tf.random_general_filter(game, seed=9500 + j, max_signals=1 + i % 5)
                    for sender in range(num_senders):
                        yield game, filt, sender


def _hand_made():
    """Filters with explicit zeros and a never-emitted signal "z".

    Signal "b" is emitted first (on w0), "a" second, while ``signals()``
    lists "z", "a", "b"; every other table is also listed in reverse state
    order.
    """
    for j in range(48):
        game = tf.random_game(tf.RandomGameSpec(
            seed=9800 + j, num_states=2 + j % 5, num_senders=1 + j % 3,
            utility_range=(1, 5)[j % 2], prior=("uniform", "random-rational")[j // 24]))
        table = {}
        for i, name in enumerate(game.state_names):
            x = F(i % 3, 2 + j % 3) if i else F(0)   # 0, and 1 when i % 3 = 2 + j % 3
            table[name] = {"z": F(0), "a": x, "b": 1 - x}
        if j % 2:
            table = dict(reversed(table.items()))
        filt = tf.GeneralFilter(table)
        assert filt.signals() == ["z", "a", "b"] and "z" not in filt.emitted()
        for sender in range(game.num_senders):
            yield game, filt, sender


def test_general_equilibrium_matches_the_merged_filter():
    count = informative = 0
    for game, filt, sender in itertools.chain(_corpus(), _hand_made()):
        merged = tf.merge_to_binary(game, filt, sender)
        expected = binary_equilibrium(game, merged, sender)
        assert _general_equilibrium(game, filt, sender) == expected
        assert tf.canonical_equilibrium(game, filt, sender) == expected[2]
        count += 1
        informative += expected[2].kind is tf.EquilibriumKind.INFORMATIVE
    assert count >= 1000
    # Both outcomes occur, so the comparison covers both branches.
    assert 0 < informative < count


@pytest.fixture
def calls(monkeypatch):
    """Counts of BinaryFilter.obey_totals and IntView.obey_totals calls, and
    of the (state, probability) pairs handed to the latter."""
    counts = {"binary": 0, "view": 0, "pairs": 0}
    binary, view = tf.BinaryFilter.obey_totals, IntView.obey_totals

    def binary_counted(self, game):
        counts["binary"] += 1
        return binary(self, game)

    def view_counted(self, pairs):
        pairs = list(pairs)
        counts["view"] += 1
        counts["pairs"] += len(pairs)
        return view(self, pairs)

    monkeypatch.setattr(tf.BinaryFilter, "obey_totals", binary_counted)
    monkeypatch.setattr(IntView, "obey_totals", view_counted)
    return counts


def test_general_filter_costs_one_routine_call_per_emitted_signal(calls):
    game = tf.random_game(tf.RandomGameSpec(seed=5, num_states=6, prior="random-rational"))
    names = game.state_names
    # Signal "dead" is listed on every state with probability 0, so it is never emitted.
    filt = tf.GeneralFilter({name: {"a": F(1, 3 + i), "b": 1 - F(1, 3 + i), "dead": 0}
                             if i % 2 else {"c": F(1), "dead": F(0)}
                             for i, name in enumerate(names)})
    assert filt.emitted() == ["c", "a", "b"]
    profile = tf.GeneralProfile(sender_strategy={s: {"m": F(1)} for s in "abc"},
                                receiver_strategy={"m": F(1, 2)})
    for run in (lambda: tf.canonical_equilibrium(game, filt),
                lambda: tf.merge_to_binary(game, filt),
                lambda: tf.check_nash_general(game, filt, profile)):
        calls.update(binary=0, view=0, pairs=0)
        run()
        # 3 states emit "a" and "b", 3 emit "c"; no zero entry is handed over.
        assert calls == {"binary": 0, "view": 3, "pairs": 9}


def _identity_runs(k):
    """canonical_equilibrium, merge_to_binary and check_nash_general on the identity filter."""
    game = tf.random_game(tf.RandomGameSpec(seed=3, num_states=k))
    game.int_view
    filt = tf.GeneralFilter.identity(game)
    pooling = tf.GeneralProfile(sender_strategy={name: {"m": F(1)} for name in game.state_names},
                                receiver_strategy={"m": F(1, 2)})
    return (lambda: tf.canonical_equilibrium(game, filt),
            lambda: tf.merge_to_binary(game, filt),
            lambda: tf.check_nash_general(game, filt, pooling))


def test_identity_filter_hands_over_each_state_once(calls):
    for run in _identity_runs(2000):
        calls.update(binary=0, view=0, pairs=0)
        run()
        assert calls == {"binary": 0, "view": 2000, "pairs": 2000}


def test_identity_filter_is_linear_in_the_states():
    runs = _identity_runs(10_000)
    start = time.process_time()
    for run in runs:
        run()
    assert time.process_time() - start < 2.0


# ---------------------------------------------------------------------------
# General profiles are validated
# ---------------------------------------------------------------------------

@pytest.fixture
def two_state():
    """Two states, utilities in [-1, 1]; its identity filter emits 'a' and 'b'."""
    game = tf.make_game([("a", "1/2", ("1", "0"), ("1", "-1")),
                         ("b", "1/2", ("0", "1"), ("-1", "1"))])
    return game, tf.GeneralFilter.identity(game)


CHECKERS = [
    lambda g, f, p: tf.check_nash_general(g, f, p),
    lambda g, f, p: tf.exhaustive_nash_check(g, f, p),
    lambda g, f, p: tf.profile_value(g, f, p),
]
CHECKER_IDS = ["check_nash_general", "exhaustive_nash_check", "profile_value"]

OBEY = {"a": {"t0": F(1)}, "b": {"t1": F(1)}}
PLAY = {"t0": F(1), "t1": F(0)}
RANGE = r"not an int or Fraction in \[0, 1\]"
TYPE = "not an int or Fraction"
# case: (sender strategy, receiver strategy, the error message it must give)
BAD_PROFILES = {
    "receiver play outside [0, 1]": (OBEY, {"t0": 2, "t1": -1}, RANGE),
    "sender mass of 3": ({"a": {"t0": 3}, "b": {"t1": F(1)}}, PLAY, "sums to 3, expected 1"),
    "negative sender mass": ({"a": {"t0": F(2), "t1": -1}, "b": {"t1": F(1)}}, PLAY,
                             "negative probability -1"),
    "sender masses summing to 2": ({"a": {"t0": F(1), "t1": F(1)}, "b": {"t1": F(1)}}, PLAY,
                                   "expected 1"),
    "float sender entry": ({"a": {"t0": 1.0}, "b": {"t1": F(1)}}, PLAY, TYPE),
    "float receiver entry": (OBEY, {"t0": 1.0, "t1": F(0)}, RANGE),
    "bool receiver entry": (OBEY, {"t0": True, "t1": F(0)}, RANGE),
    "missing live signal": ({"a": {"t0": F(1)}}, PLAY, "missing sender behaviour"),
    "unknown message": (OBEY, {"t0": F(1)}, "'t1' has no receiver behaviour"),
    "empty profile": ({}, {}, "missing sender behaviour"),
    "empty distributions": ({"a": {}, "b": {}}, {}, "expected 1"),
    **reference_checks.NON_MAPPING_PROFILES,
}


@pytest.mark.parametrize("check", CHECKERS, ids=CHECKER_IDS)
@pytest.mark.parametrize("case", list(BAD_PROFILES))
def test_bad_profiles_raise_value_error(two_state, check, case):
    game, filt = two_state
    sender, receiver, message = BAD_PROFILES[case]
    profile = tf.GeneralProfile(sender_strategy=sender, receiver_strategy=receiver)
    with pytest.raises(ValueError, match=message) as info:
        check(game, filt, profile)
    assert not isinstance(info.value, tf.ZeroProbabilitySignal)


@pytest.mark.parametrize("check", CHECKERS, ids=CHECKER_IDS)
def test_extra_signal_raises_zero_probability_signal(two_state, check):
    game, filt = two_state
    profile = tf.GeneralProfile(sender_strategy={**OBEY, "ghost": {"t0": F(1)}},
                                receiver_strategy=PLAY)
    with pytest.raises(tf.ZeroProbabilitySignal):
        check(game, filt, profile)


def test_valid_profile_passes_every_checker(two_state):
    game, filt = two_state
    profile = tf.GeneralProfile(sender_strategy=OBEY, receiver_strategy={"t0": 1, "t1": F(0)})
    assert tf.check_nash_general(game, filt, profile)[0]
    assert tf.exhaustive_nash_check(game, filt, profile) == (True, None)
    assert tf.profile_value(game, filt, profile) == tf.UtilityProfile(senders=(F(1),),
                                                                      receiver=F(1))


@pytest.mark.parametrize("case", list(reference_checks.NON_MAPPING_FILTERS))
def test_non_mapping_filters_raise_filter_errors(case):
    reference_checks.check_filter_case(case)


# ---------------------------------------------------------------------------
# One read per call
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,name", [
    *(("general", name) for name in reference_checks.GENERAL_READERS),
    *(("binary", name) for name in reference_checks.BINARY_READERS)])
def test_each_call_reads_each_distribution_once(kind, name):
    for seed in range(6):
        assert reference_checks.distribution_reads(kind, name, seed) == {1}, seed


# ---------------------------------------------------------------------------
# Sender indices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index", [-1, 1, 2])
def test_exhaustive_nash_check_refuses_sender_index(two_state, index):
    game, filt = two_state
    profile = tf.GeneralProfile(sender_strategy=OBEY, receiver_strategy={"t0": 1, "t1": 0})
    with pytest.raises(IndexError, match=f"sender index {index} out of range for 1 senders"):
        tf.exhaustive_nash_check(game, filt, profile, sender_index=index)


@pytest.mark.parametrize("index", [True, False, 1.0, "0", None])
def test_sender_index_that_is_no_int_is_refused(index):
    """A bool is refused though it would index a sender: True would solve for sender 2."""
    game = tf.random_game(tf.RandomGameSpec(seed=3, num_states=3, num_senders=2))
    general = tf.GeneralFilter.identity(game)
    profile = tf.random_profile(game, general, 5)
    calls = [lambda: tf.receiver_optimal_filter(game, sender_index=index),
             lambda: tf.classify_states(game, index),
             lambda: tf.grid_search(game, tf.GridSpec(resolution=4), sender_index=index),
             lambda: tf.canonical_equilibrium(game, general, index),
             lambda: tf.canonical_equilibrium(game, tf.random_binary_filter(game, 5), index),
             lambda: tf.check_nash_general(game, general, profile, index),
             lambda: tf.exhaustive_nash_check(game, general, profile, index)]
    for call in calls:
        with pytest.raises(ValueError, match=f"^sender index {re.escape(repr(index))} is not an int$"):
            call()


@pytest.mark.parametrize("index", [-1, 2])
def test_signal_utility_refuses_sender_index(index):
    game = tf.random_game(tf.RandomGameSpec(seed=3, num_states=3, num_senders=2))
    filt = tf.GeneralFilter.uninformative(game)
    with pytest.raises(IndexError, match=f"sender index {index} out of range for 2 senders"):
        tf.signal_utility(game, filt, "*", index, 0)
    # In range, and the receiver marker, still work.
    for player in (0, 1, tf.RECEIVER):
        tf.signal_utility(game, filt, "*", player, 0)
