"""The integer-pair parse against the Fraction parse it replaced, and records built lazily.

``parse_reference`` is the Fraction ``validate_game`` / ``make_game`` that
the integer-pair parse replaced. On seeded and generated files both must
give equal games (equality, hash, repr and records) and equal integer
tables, or reject the file with the same error class and message.
"""
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import parse_reference
import talkfilter as tf
from talkfilter._intview import IntView

F = Fraction

VIEW_TABLES = ("names", "weight", "wscale", "s", "s_total", "u1_total", "uscale")


def outcome(build, raw):
    try:
        return build(raw)
    except Exception as exc:   # the error itself is the outcome compared
        return type(exc), str(exc)


def assert_same(raw, build=tf.validate_game, reference=parse_reference.validate_game):
    got = outcome(build, raw)
    want = outcome(reference, raw)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, tf.Game), got
    assert got.num_senders == want.num_senders
    assert got.states == want.states
    twin = tf.Game(want.states, want.num_senders)
    assert got == twin and hash(got) == hash(twin)
    assert repr(got) == repr(want)
    view = got.int_view
    assert {t: getattr(view, t) for t in VIEW_TABLES} == parse_reference.int_tables(want)


def spellings(value: Fraction, draw) -> str:
    """One of several equal spellings of a rational."""
    n, d = value.numerator, value.denominator
    m = draw(st.integers(1, 4))
    choices = [f"{n * m}/{d * m}", f" {n}/{d}\t"]
    if d == 1:
        choices += [str(n), f"+{n}" if n >= 0 else str(n), f" {n} ", f"{n}.00",
                    f"{n}e0", f"{n * 10}E-1"]
        if n == 0:
            choices += ["-0", "0/7", "-0.0"]
    for p in range(1, 4):
        if 10 ** p % d == 0:
            digits = str(abs(n) * 10 ** p // d).rjust(p + 1, "0")
            sign = "-" if n < 0 else ""
            choices += [f"{sign}{digits}e-{p}", f"{sign}{digits[:-p]}.{digits[-p:]}"]
            break
    return draw(st.sampled_from(choices))


@st.composite
def game_files(draw):
    """Game files of 1-5 states and 1-2 senders, numbers spelled every which way."""
    k = draw(st.integers(1, 5))
    senders = draw(st.integers(1, 2))
    weights = draw(st.lists(st.integers(1, 10), min_size=k, max_size=k))
    total = sum(weights) + draw(st.sampled_from([0, 0, 0, 0, 1]))   # some miss 1
    states = []
    for i, w in enumerate(weights):
        def num():
            return spellings(F(draw(st.integers(-6, 6)), draw(st.integers(1, 6))), draw)
        states.append({"name": f"s{i}", "prior": spellings(F(w, total), draw),
                       "sender_utilities": [[num(), num()] for _ in range(senders)],
                       "receiver_utility": [num(), num()]})
    raw = {"type": "transmission" if senders == 1 and draw(st.booleans()) else "aggregation",
           "states": states}
    if draw(st.booleans()):
        # One entry replaced by an odd value, or deleted.
        entry = states[draw(st.integers(0, k - 1))]
        key = draw(st.sampled_from(["name", "prior", "sender_utilities", "receiver_utility"]))
        odd = draw(st.sampled_from([
            "1/0", "1e1001", "", "x", "-1", "0", "-0", "2/4", "1/-2", " 3 ", None, 0.5,
            True, 2, [], ["1"], ["1", "2", "3"], [["1", "2"]], {"a": 1}, "s0"]))
        if draw(st.booleans()):
            del entry[key]
        else:
            entry[key] = odd
    return raw


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(game_files())
def test_generated_files_parse_as_the_fraction_reference(raw):
    assert_same(raw)


def _file(priors, utils=(("0", "1"), ("1", "0")), senders=1):
    return {"type": "aggregation", "states": [
        {"name": f"s{i}", "prior": p, "sender_utilities": [list(utils[0])] * senders,
         "receiver_utility": list(utils[1])} for i, p in enumerate(priors)]}


@pytest.mark.parametrize("raw", [
    _file(["2/4", "+1/2"], (("+3", " 7 "), ("-0", "2/4"))),
    _file(["0.5", "5e-1"], (("1.25", "-2.5E-1"), ("1e3", "0.000"))),
    _file(["0.1"] * 10),                         # sums to 1 only over the lcm
    _file(["1/3"] * 3),
    _file([" 1 "], (("٣", "1_0"), ("3/6", "-6/4"))),
    _file(["1/2", "1/2", "1e-1000"]),            # one part in 10**1000 too many
    _file(["1/2", "0.4" + "9" * 999]),           # one part in 10**1000 too few
    _file(["1/2", "1/2"], senders=2),
    _file(["1/2", "-1/2", "1"]),
    _file(["0", "1"]),
    _file(["-0", "1"]),
    _file(["1/2", "1/2", "0/3"]),
    _file(["1/2", "1/0"]),
    _file(["1e1001"]),
    _file(["1/2", "2/3"]),
    {"type": "aggregation", "states": [
        {"name": "a", "prior": "1/2", "sender_utilities": [["0", "1"], ["1", "0"]],
         "receiver_utility": ["0", "0"]},
        {"name": "a", "prior": "1/2", "sender_utilities": [["0", "1"]],
         "receiver_utility": ["0", "0"]}]},
    {"type": "aggregation", "states": [
        {"name": "a", "prior": "1", "sender_utilities": [], "receiver_utility": ["0", "0"]}]},
])
def test_edge_files_parse_as_the_fraction_reference(raw):
    assert_same(raw)


def _spelled(game: tf.Game, seed: int) -> dict:
    """A game's file, every number in a seeded choice of equal spellings."""
    rng = tf.SplitMix64(seed)

    def text(x: Fraction) -> str:
        n, d = x.numerator, x.denominator
        return [str(x), f"{2 * n}/{2 * d}", f" {x} ", f"+{x}" if x >= 0 else str(x)][rng.below(4)]

    return {"type": "aggregation", "states": [
        {"name": rec.name, "prior": text(rec.prior),
         "sender_utilities": [[text(a), text(b)] for a, b in rec.sender_utils],
         "receiver_utility": [text(rec.receiver_utils[0]), text(rec.receiver_utils[1])]}
        for rec in game.states]}


def test_seeded_files_parse_as_the_fraction_reference():
    for i in range(90):
        game = tf.random_game(tf.RandomGameSpec(
            seed=6100 + i, num_states=1 + i % 30, num_senders=1 + i % 3,
            utility_range=(1, 5, 100)[i % 3],
            prior="random-rational" if i % 2 else "uniform"))
        raw = json.loads(json.dumps(_spelled(game, i)))
        assert_same(raw)
        rows = [(s["name"], s["prior"], [tuple(p) for p in s["sender_utilities"]],
                 tuple(s["receiver_utility"])) for s in raw["states"]]
        assert_same(rows, lambda r: tf.make_game(r, game.num_senders),
                    lambda r: parse_reference.make_game(r, game.num_senders))


def test_make_game_takes_fractions_ints_and_strings_as_the_reference():
    rows = [("a", F(1, 3), (F(2, 4), 3), ("-1/2", 0)),
            ("b", "2/3", [(1, "0.5"), ("1e2", F(-7))], (2, 2))]
    assert_same(rows, lambda r: tf.make_game(r, 2), lambda r: parse_reference.make_game(r, 2))
    assert_same(rows, lambda r: tf.make_game(r, 1), lambda r: parse_reference.make_game(r, 1))


# ---------------------------------------------------------------------------
# Records stay lazy
# ---------------------------------------------------------------------------

@pytest.fixture
def records_built(monkeypatch):
    """One entry per StateRecord constructed while the test runs."""
    built = []
    new = tf.StateRecord.__new__

    def counting(cls, *args, **kwargs):
        built.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(tf.StateRecord, "__new__", counting)
    return built


def test_solve_and_check_build_no_records(records_built):
    spec = tf.GridSpec(resolution=4)
    for i in range(12):
        large = tf.RandomGameSpec(seed=6300 + i, num_states=3 + 50 * i, prior="random-rational")
        small = tf.RandomGameSpec(seed=6500 + i, num_states=2 + i % 5, prior="random-rational")
        generated = [tf.random_game(s) for s in (large, small, small._replace(num_senders=2))]
        raws = [json.loads(json.dumps(_spelled(g, i))) for g in generated]
        # The profile generator reads records, so it runs on the generated game.
        general = tf.random_general_filter(generated[0], 6400 + i)
        profile = tf.random_profile(generated[0], general, 6500 + i)
        records_built.clear()
        game, one, pair = map(tf.validate_game, raws)
        for run in (tf.receiver_optimal_filter, tf.sender_optimal_filter):
            res = run(game)
            tf.sender_ic(game, res.filter)
            tf.receiver_ic(game, res.filter)
            tf.evaluate_sigma_s(game, res.filter)
            tf.canonical_equilibrium(game, res.filter)
        tf.merge_to_binary(game, general)
        tf.canonical_equilibrium(game, general)
        tf.check_nash_general(game, general, profile)
        tf.classify_states(game)
        for objective in tf.Objective:
            tf.grid_search(one, spec, objective)
        tf.two_sender_optimal(pair)
        tf.two_sender_grid_search(pair, spec)
        assert not records_built
        assert len(game.states) == len(raws[0]["states"])
        assert len(records_built) == len(raws[0]["states"])


def test_profile_evaluators_build_no_view(monkeypatch, records_built):
    """The from-definition evaluators read the game's parsed pairs: they
    build neither its integer view nor its records."""
    built = []
    init = IntView.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IntView, "__init__", counting)
    verdicts = set()
    for i in range(12):
        generated = tf.random_game(tf.RandomGameSpec(
            seed=6700 + i, num_states=2 + i % 5, num_senders=1 + i % 3,
            utility_range=5, prior="random-rational"))
        general = tf.random_general_filter(generated, 6800 + i)
        profile = tf.random_profile(generated, general, 6900 + i)
        game = tf.validate_game(json.loads(json.dumps(_spelled(generated, i))))
        built.clear()
        records_built.clear()
        tf.profile_value(game, general, profile)
        for sender in range(game.num_senders):
            verdicts.add(tf.exhaustive_nash_check(game, general, profile, sender)[0])
        assert not built
        assert not records_built
    assert verdicts == {True, False}
    game.int_view
    assert built == [1]


def test_game_pickles_equal_and_stays_frozen():
    game = tf.validate_game(_spelled(tf.random_game(tf.RandomGameSpec(
        seed=77, num_states=4, prior="random-rational")), 5))
    twin = pickle.loads(pickle.dumps(game))
    assert twin == game and hash(twin) == hash(game) and repr(twin) == repr(game)
    spec = tf.GridSpec(resolution=8)
    assert tf.grid_search(twin, spec) == tf.grid_search(game, spec)
    with pytest.raises(AttributeError, match="^cannot assign to field 'num_senders'$"):
        game.num_senders = 2
    with pytest.raises(AttributeError, match="^cannot delete field '_rows'$"):
        del game._rows
