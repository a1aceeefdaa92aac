import re
from fractions import Fraction

import pytest
import two_sender_constants

import talkfilter as tf
from talkfilter.filter_opt import sort_disagreement

F = Fraction


# ---------------------------------------------------------------------------
# SplitMix64 and random games
# ---------------------------------------------------------------------------

def test_splitmix_reference_values():
    rng = tf.SplitMix64(1)
    assert [rng.next_u64() for _ in range(3)] == [
        10451216379200822465, 13757245211066428519, 17911839290282890590]


def test_random_game_golden_seed_1():
    """Pinned output of the documented generator."""
    game = tf.random_game(tf.RandomGameSpec(seed=1, num_states=3, utility_range=5))
    rows = [(rec.name, rec.prior, rec.sender_utils[0], rec.receiver_utils)
            for rec in game.states]
    assert rows == [
        ("w0", F(1, 3), (F(4), F(3)), (F(-5), F(2))),
        ("w1", F(1, 3), (F(2), F(-4)), (F(-5), F(-2))),
        ("w2", F(1, 3), (F(-5), F(-3)), (F(2), F(0))),
    ]


def test_random_game_is_deterministic():
    spec = tf.RandomGameSpec(seed=99, num_states=4, num_senders=2,
                             utility_range=3, prior="random-rational")
    assert tf.random_game(spec) == tf.random_game(spec)


def test_random_game_validates(seeded_games):
    for game in seeded_games(10, prior="random-rational", seed0=8000):
        assert sum(rec.prior for rec in game.states) == 1
        assert all(rec.prior > 0 for rec in game.states)
    game = tf.random_game(tf.RandomGameSpec(seed=5, num_states=1))
    assert len(game.states) == 1


def test_random_game_zero_utility_range():
    game = tf.random_game(tf.RandomGameSpec(seed=3, num_states=3, utility_range=0))
    assert all(u == 0 for rec in game.states
               for pair in rec.sender_utils + (rec.receiver_utils,) for u in pair)
    filt, value = tf.grid_search(game, tf.GridSpec(resolution=2))
    assert value == 0
    assert tf.verify_filter_optimality(game, filt, tf.GridSpec(resolution=2))


@pytest.mark.parametrize("make, name", [
    (lambda g: tf.random_general_filter(g, seed=1, max_signals=0), "max_signals"),
    (lambda g: tf.random_general_filter(g, seed=1, max_signals=-3), "max_signals"),
    (lambda g: tf.random_binary_filter(g, seed=1, resolution=0), "resolution"),
    (lambda g: tf.random_binary_filter(g, seed=1, resolution=-1), "resolution"),
    (lambda g: tf.random_game(tf.RandomGameSpec(seed=1, num_states=3, utility_range=-2)),
     "utility_range"),
    (lambda g: tf.random_game(tf.RandomGameSpec(seed=1, num_states=0)), "num_states"),
    (lambda g: tf.random_game(tf.RandomGameSpec(seed=1, num_states=-1,
                                                prior="random-rational")), "num_states"),
    (lambda g: tf.GridSpec(resolution=-4).check(g), "grid resolution"),
])
def test_generators_refuse_degenerate_arguments(make, name):
    game = tf.random_game(tf.RandomGameSpec(seed=1, num_states=3))
    with pytest.raises(ValueError, match=rf"^{name} must be at least [01], got -?\d+$"):
        make(game)


def test_random_filters_are_valid(seeded_games):
    for j, game in enumerate(seeded_games(10, seed0=8100)):
        gen = tf.random_general_filter(game, seed=8200 + j)
        gen.check_for(game)
        bin_ = tf.random_binary_filter(game, seed=8300 + j)
        bin_.check_for(game)


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

def test_objective_must_be_an_objective_member():
    """A string such as "receiver" once fell through to the sender's grid value."""
    game = tf.random_game(tf.RandomGameSpec(seed=3, num_states=5))
    spec = tf.GridSpec(resolution=4)
    assert tf.grid_search(game, spec, tf.Objective.RECEIVER)[1] == F(4, 5)
    assert tf.grid_search(game, spec, tf.Objective.SENDER)[1] == 1
    filt = tf.receiver_optimal_filter(game).filter
    for call in (lambda o: tf.grid_search(game, spec, o),
                 lambda o: tf.verify_filter_optimality(game, filt, spec, o),
                 lambda o: sort_disagreement(game, o)):
        for objective in ("receiver", "sender", None):
            with pytest.raises(ValueError, match="is not an Objective"):
                call(objective)


def test_grid_art_extremes(art):
    filt, value = tf.grid_search(art, tf.GridSpec(resolution=1))
    assert value == F(1, 3)
    assert filt.signal0_prob == {"OG": F(0), "IF": F(1), "DF": F(1)}


def test_grid_single_state_r1():
    game = tf.make_game([("a", "1", ("2", "5"), ("4", "1"))])
    _, value = tf.grid_search(game, tf.GridSpec(resolution=1))
    _, babble = tf.evaluate_babbling(game)
    assert value == babble.receiver == 4


def test_grid_g3_contains_pivot(g3):
    filt, value = tf.grid_search(g3, tf.GridSpec(resolution=3))
    assert value == F(7, 9)
    assert filt.signal0_prob == {"w1": F(1), "w2": F(0), "w3": F(1, 3)}


def test_grid_matches_pointwise_canonical_scoring(seeded_games):
    """Dual route: the incremental integer sweep equals scoring every lattice
    point with the public canonical evaluation."""
    for game in seeded_games(12, ks=(2, 3), seed0=8400):
        for objective in (tf.Objective.RECEIVER, tf.Objective.SENDER):
            spec = tf.GridSpec(resolution=4)
            _, fast = tf.grid_search(game, spec, objective)
            names = game.state_names
            best = None
            k = len(names)
            R = spec.resolution
            for idx in range((R + 1) ** k):
                digits = []
                rest = idx
                for _ in range(k):
                    rest, d = divmod(rest, R + 1)
                    digits.append(d)
                digits.reverse()
                filt = tf.BinaryFilter({n: F(d, R) for n, d in zip(names, digits)})
                outcome = tf.canonical_equilibrium(game, filt)
                value = (outcome.utilities.receiver
                         if objective is tf.Objective.RECEIVER
                         else outcome.utilities.sender)
                if best is None or value > best:
                    best = value
            assert fast == best


def test_grid_self_consistency_nested_resolutions(seeded_games):
    for game in seeded_games(12, ks=(2, 3), seed0=8500):
        _, coarse = tf.grid_search(game, tf.GridSpec(resolution=4))
        _, fine = tf.grid_search(game, tf.GridSpec(resolution=8))
        assert coarse <= fine


def test_grid_too_large():
    """The cap is on points per half: 11 states at R = 8 need 9^6 = 531,441."""
    with pytest.raises(tf.GridTooLarge):
        tf.grid_search(tf.random_game(tf.RandomGameSpec(seed=2, num_states=11)),
                       tf.GridSpec(resolution=8))
    ten = tf.random_game(tf.RandomGameSpec(seed=2, num_states=10))   # 9^5 = 59,049
    filt, _ = tf.grid_search(ten, tf.GridSpec(resolution=8))
    assert set(filt.signal0_prob) == set(ten.state_names)


def test_grid_point_cap_checked_before_any_search():
    six = tf.random_game(tf.RandomGameSpec(seed=3, num_states=6))
    with pytest.raises(tf.GridTooLarge):
        tf.GridSpec(resolution=100).check(six)      # 101^6, about 1.06e12 points
    tf.GridSpec(resolution=8).check(six)            # 9^6 = 531,441 points
    big = tf.GridSpec(resolution=12)                # 13^4 = 28,561 per half passes, 13^5 does not
    big.check(tf.random_game(tf.RandomGameSpec(seed=3, num_states=8)))
    with pytest.raises(tf.GridTooLarge):
        big.check(tf.random_game(tf.RandomGameSpec(seed=3, num_states=9)))
    with pytest.raises(tf.GridTooLarge):                # 9^5000 has too many digits to print
        tf.GridSpec().check(tf.random_game(tf.RandomGameSpec(seed=3, num_states=5000)))
    with pytest.raises(tf.GridTooLarge):                # refused before any power is taken
        tf.GridSpec(resolution=10 ** 100).check(
            tf.random_game(tf.RandomGameSpec(seed=3, num_states=5000)))
    with pytest.raises(tf.GridTooLarge):                # too many digits to print the radix
        tf.GridSpec(resolution=10 ** 5000).check(
            tf.random_game(tf.RandomGameSpec(seed=3, num_states=2)))


@pytest.mark.parametrize("resolution", [True, False, 2.0, 2.5, "3", None, F(2), 1.0])
def test_grid_resolution_must_be_an_int(resolution):
    one = tf.random_game(tf.RandomGameSpec(seed=3, num_states=3))
    two = tf.random_game(tf.RandomGameSpec(seed=3, num_states=3, num_senders=2))
    spec = tf.GridSpec(resolution=resolution)
    filt = tf.BinaryFilter({name: F(0) for name in one.state_names})
    for call in (lambda: spec.check(one), lambda: tf.grid_search(one, spec),
                 lambda: tf.verify_filter_optimality(one, filt, spec),
                 lambda: tf.two_sender_grid_search(two, spec)):
        with pytest.raises(ValueError, match=f"^grid resolution {re.escape(repr(resolution))} "
                                             "is not an int$"):
            call()


def test_grid_threads_have_no_effect_and_start_no_pool(monkeypatch):
    """Any threads value gives the threads=1 result, and no process pool is built."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a grid search built a ProcessPoolExecutor")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", no_pool)
    spec = tf.GridSpec(resolution=8)
    one = tf.random_game(tf.RandomGameSpec(seed=77, num_states=4))   # 9^4 = 6561 points
    for objective in (tf.Objective.RECEIVER, tf.Objective.SENDER):
        assert (tf.grid_search(one, spec, objective, threads=1000)
                == tf.grid_search(one, spec, objective, threads=1))
    two = tf.random_game(tf.RandomGameSpec(seed=78, num_states=4, num_senders=2))
    assert (tf.two_sender_grid_search(two, spec, threads=1000)
            == tf.two_sender_grid_search(two, spec, threads=1))


def test_two_sender_grid_sweeps_at_most_one_unanimous_region(monkeypatch):
    """U0 is swept only when both senders' totals are positive, U1 only when both are negative.

    Otherwise each unanimous region lies inside a follow region, and only the
    unanimous regions take the two-bound sweep.
    """
    from talkfilter import oracle

    calls = []
    both = oracle._best_above_both

    def counting(*args):
        calls.append(args[-2:])
        return both(*args)

    monkeypatch.setattr(oracle, "_best_above_both", counting)
    spec = tf.GridSpec(resolution=3)
    cases = set()
    for seed in range(300):
        game = tf.random_game(tf.RandomGameSpec(
            seed=90000 + seed, num_states=1 + seed % 5, num_senders=2,
            utility_range=(1, 2, 5)[seed % 3], prior=("uniform", "random-rational")[seed % 2]))
        a, b = (3 * total for total in game.int_view.s_total[:2])
        calls.clear()
        tf.two_sender_grid_search(game, spec)
        if a > 0 and b > 0:
            cases.add("(+,+)")
            assert calls == [(0, 0)]
        elif a < 0 and b < 0:
            cases.add("(-,-)")
            assert calls == [(a, b)]
        else:
            cases.add("zero" if a * b == 0 else "mixed")
            assert calls == []
    assert cases == {"(+,+)", "(-,-)", "mixed", "zero"}


@pytest.mark.parametrize("name", list(two_sender_constants.GAMES))
def test_two_sender_grid_needs_no_constant_fallback(name):
    """A lattice filter wins even where constant play is as good as any."""
    two_sender_constants.check(two_sender_constants.GAMES[name])


# ---------------------------------------------------------------------------
# verify_filter_optimality
# ---------------------------------------------------------------------------

def test_verify_art_output(art):
    res = tf.receiver_optimal_filter(art)
    assert tf.verify_filter_optimality(art, res.filter, tf.GridSpec(resolution=8))


def test_verify_rejects_constant_on_g3(g3):
    const = tf.BinaryFilter({n: F(0) for n in g3.state_names})
    assert not tf.verify_filter_optimality(g3, const, tf.GridSpec(resolution=3))


def test_verify_aligned_indicator_any_resolution():
    game = tf.make_game([
        ("a", "1/2", ("2", "0"), ("1", "0")),
        ("b", "1/2", ("0", "1"), ("0", "2")),
    ])
    cls = tf.classify_states(game)
    filt = tf.BinaryFilter({n: F(1) if n in cls.agree0 else F(0)
                            for n in game.state_names})
    for r in (1, 2, 3, 8):
        assert tf.verify_filter_optimality(game, filt, tf.GridSpec(resolution=r))


# ---------------------------------------------------------------------------
# Exhaustive profile check
# ---------------------------------------------------------------------------

def test_profile_value_matches_babbling(art):
    filt = tf.GeneralFilter.identity(art)
    action, babble = tf.evaluate_babbling(art)
    profile = tf.GeneralProfile(
        sender_strategy={s: {"m": F(1)} for s in filt.signals()},
        receiver_strategy={"m": F(1) if action == 0 else F(0)})
    value = tf.profile_value(art, filt, profile)
    assert value.senders == babble.senders
    assert value.receiver == babble.receiver


def test_exhaustive_check_finds_receiver_deviation(art):
    filt = tf.GeneralFilter.identity(art)
    profile = tf.GeneralProfile(
        sender_strategy={"OG": {"1": F(1)}, "IF": {"1": F(1)}, "DF": {"0": F(1)}},
        receiver_strategy={"0": F(1), "1": F(0)})
    ok, info = tf.exhaustive_nash_check(art, filt, profile)
    assert not ok and info["player"] == "receiver"
