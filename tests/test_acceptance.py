"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; the suite is self-contained and uses only seeded corpora.
"""
import math
import time
from fractions import Fraction
from operator import mul

import pytest

import talkfilter as tf

F = Fraction

RECEIVER = tf.Objective.RECEIVER
SENDER = tf.Objective.SENDER

GRID8 = tf.GridSpec(resolution=8)
#: At 8 states, 7^8 = 5,764,801 grid points, swept as two halves of 7^4 = 2,401.
GRID6_WIDE = tf.GridSpec(resolution=6)
#: At 12 states, 5^12 (about 2.4e8) grid points, swept as two halves of 5^6 = 15,625.
GRID4_LARGE = tf.GridSpec(resolution=4)


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def corpus():
    """200 seeded single-sender games, k cycling over 2..5, utilities in [-5, 5]."""
    games = []
    for i in range(200):
        spec = tf.RandomGameSpec(seed=1000 + i, num_states=2 + i % 4,
                                 utility_range=5)
        games.append(tf.random_game(spec))
    return games


def _games(num_senders: int, seed0: int, state_counts: tuple[int, ...],
           count: int) -> list[tf.Game]:
    """Seeded games cycling over the state counts, utilities in [-5, 5].

    The prior switches between uniform and random-rational after each cycle.
    """
    n = len(state_counts)
    return [tf.random_game(tf.RandomGameSpec(
                seed=seed0 + 100 * num_senders + i, num_states=state_counts[i % n],
                num_senders=num_senders, utility_range=5,
                prior=("uniform", "random-rational")[i // n % 2]))
            for i in range(count)]


def _wide_games(num_senders: int) -> list[tf.Game]:
    """16 seeded 7- and 8-state games for GRID6_WIDE, 4 per state count and prior."""
    return _games(num_senders, 50000, (7, 8), 16)


def _large_games(num_senders: int) -> list[tf.Game]:
    """12 seeded 10-, 11- and 12-state games for GRID4_LARGE, 2 per state count and prior."""
    return _games(num_senders, 51000, (10, 11, 12), 12)


def _certified(corpus) -> list[tuple[tf.Game, tf.GridSpec]]:
    """The corpus at grid 8, the 7- and 8-state games at grid 6, then the
    10- to 12-state games at grid 4."""
    return ([(game, GRID8) for game in corpus]
            + [(game, GRID6_WIDE) for game in _wide_games(1)]
            + [(game, GRID4_LARGE) for game in _large_games(1)])


@pytest.fixture(scope="module")
def art():
    return tf.make_game([
        ("OG", "1/3", ("0", "1"), ("0", "1")),
        ("IF", "1/3", ("0", "1"), ("0", "-5")),
        ("DF", "1/3", ("0", "-5"), ("0", "-5")),
    ])


@pytest.fixture(scope="module")
def g3():
    return tf.make_game([
        ("w1", "1/3", ("1", "0"), ("1", "0")),
        ("w2", "1/3", ("0", "1"), ("0", "1")),
        ("w3", "1/3", ("0", "3"), ("1", "0")),
    ])


def test_criterion_1_art_dealer_reproduction(art):
    started = time.perf_counter()
    res = tf.receiver_optimal_filter(art)
    elapsed = time.perf_counter() - started
    assert res.filter.signal0_prob == {"OG": F(0), "IF": F(1), "DF": F(1)}
    assert res.outcome.kind is tf.EquilibriumKind.INFORMATIVE
    assert res.outcome.utilities.sender == F(1, 3)
    assert res.outcome.utilities.receiver == F(1, 3)
    assert elapsed < 1.0
    _report(1, f"garbling the fakes gives both players exactly 1/3 "
               f"({elapsed * 1000:.1f} ms)")


def test_criterion_2_unfiltered_art_babbles(art):
    started = time.perf_counter()
    outcome = tf.canonical_equilibrium(art, tf.GeneralFilter.identity(art))
    elapsed = time.perf_counter() - started
    assert outcome.kind is tf.EquilibriumKind.BABBLING
    assert outcome.babbling_action == 0
    assert outcome.utilities.sender == 0
    assert outcome.utilities.receiver == 0
    assert elapsed < 1.0
    _report(2, f"full information collapses to babbling with utilities (0, 0) "
               f"({elapsed * 1000:.1f} ms)")


def test_criterion_3_interior_pivot_trace(g3):
    started = time.perf_counter()
    res = tf.receiver_optimal_filter(g3)
    assert res.filter.signal0_prob == {"w1": F(1), "w2": F(0), "w3": F(1, 3)}
    assert res.outcome.utilities.sender == F(4, 3)
    assert res.outcome.utilities.receiver == F(7, 9)
    unfiltered = tf.evaluate_sigma_s(
        g3, tf.merge_to_binary(g3, tf.GeneralFilter.identity(g3)))
    assert unfiltered.receiver == F(2, 3)
    assert res.outcome.utilities.receiver > unfiltered.receiver
    action, babble = tf.evaluate_babbling(g3)
    assert (action, babble.sender, babble.receiver) == (0, F(1, 3), F(2, 3))
    assert res.outcome.utilities.receiver > babble.receiver
    grid_filter, grid_value = tf.grid_search(g3, tf.GridSpec(resolution=3))
    assert grid_value == F(7, 9)
    assert grid_filter.signal0_prob == res.filter.signal0_prob
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(3, f"interior pivot 1/3 reaches 7/9 > 2/3, grid-confirmed "
               f"({elapsed * 1000:.1f} ms)")


def test_criterion_4_oracle_optimality_sweep(corpus):
    started = time.perf_counter()
    fallbacks = 0
    for game, grid in _certified(corpus):
        res = tf.receiver_optimal_filter(game)
        if res.fell_back_to_constant:
            fallbacks += 1
        else:
            assert tf.sender_ic(game, res.filter).holds
            assert tf.receiver_ic(game, res.filter).holds
        assert tf.verify_filter_optimality(game, res.filter, grid, RECEIVER)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(4, f"200/200 receiver-optimal filters certified at grid 8, 16/16 "
               f"7- and 8-state ones at grid 6 and 12/12 10- to 12-state ones "
               f"at grid 4 ({fallbacks} babbling games, {elapsed:.1f} s)")


def test_criterion_5_pareto_property(corpus):
    started = time.perf_counter()
    improvements = 0
    for game, grid in _certified(corpus):
        res = tf.sender_optimal_filter(game)
        if not res.fell_back_to_constant:
            assert tf.sender_ic(game, res.filter).holds
            assert tf.receiver_ic(game, res.filter).holds
        assert tf.verify_filter_optimality(game, res.filter, grid, SENDER)
        base = tf.canonical_equilibrium(game, tf.GeneralFilter.identity(game))
        if res.outcome.utilities.sender > base.utilities.sender:
            improvements += 1
            assert res.outcome.utilities.receiver >= base.utilities.receiver
    assert improvements > 0  # the corpus must actually exercise the property
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(5, f"sender gains never hurt the receiver "
               f"({improvements} strict improvements, {elapsed:.1f} s)")


def test_criterion_6_binary_reduction(corpus):
    started = time.perf_counter()
    checked = 0
    for j, game in enumerate(corpus[:100]):
        filt = tf.random_general_filter(game, seed=20000 + j, max_signals=5)
        merged = tf.merge_to_binary(game, filt)

        # Independent route: score the obeyed profile signal by signal.
        value_direct = {p: F(0) for p in (0, tf.RECEIVER)}
        pooled0 = F(0)
        pooled1 = F(0)
        for sig in filt.signals():
            try:
                post = tf.posterior(game, filt, sig)
            except tf.ZeroProbabilitySignal:
                continue
            mass = sum(rec.prior * filt.table[rec.name].get(sig, F(0))
                       for rec in game.states)
            s_gap = (tf.signal_utility(game, filt, sig, 0, 0)
                     - tf.signal_utility(game, filt, sig, 0, 1))
            r_gap = (tf.signal_utility(game, filt, sig, tf.RECEIVER, 0)
                     - tf.signal_utility(game, filt, sig, tf.RECEIVER, 1))
            action = 0 if (s_gap > 0 or (s_gap == 0 and r_gap >= 0)) else 1
            for p in (0, tf.RECEIVER):
                value_direct[p] += mass * tf.signal_utility(game, filt, sig, p, action)
            if action == 0:
                pooled0 += mass * r_gap
            else:
                pooled1 += mass * r_gap
            del post

        merged_value = tf.evaluate_sigma_s(game, merged)
        assert merged_value.sender == value_direct[0]
        assert merged_value.receiver == value_direct[tf.RECEIVER]
        ic_direct = pooled0 >= 0 and pooled1 <= 0
        assert tf.receiver_ic(game, merged).holds == ic_direct
        assert tf.sender_ic(game, merged).holds  # holds by construction
        checked += 1
    assert checked == 100
    elapsed = time.perf_counter() - started
    _report(6, f"100/100 general filters merge with values and receiver IC "
               f"intact ({elapsed:.1f} s)")


def test_criterion_7_two_sender_lp():
    started = time.perf_counter()
    l2 = tf.make_game([
        ("w1", "1/2", [("0", "1"), ("2", "0")], ("1", "0")),
        ("w2", "1/2", [("2", "0"), ("0", "1")], ("0", "1")),
    ], num_senders=2)
    lp = tf.build_lp(l2, tf.CandidateProfile.UNANIMOUS_0)
    x, value = tf.lp_solve(lp)
    assert x == (F(1), F(1, 2)) and value == F(1, 4)
    assert sum(1 for v in x if 0 < v < 1) <= 2
    best, candidates = tf.two_sender_optimal(l2)
    unanimous0 = next(c for c in candidates
                      if c.profile is tf.CandidateProfile.UNANIMOUS_0)
    assert unanimous0.feasible and unanimous0.receiver_utility == F(3, 4)
    grid_value, _, _ = tf.two_sender_grid_search(l2, GRID8)
    assert best.receiver_utility >= grid_value
    # The R=8 lattice contains (1, 1/2); obeying unanimous reports there is
    # worth exactly the LP's 3/4.
    direct = sum(rec.prior * (xi * rec.receiver_utils[0]
                              + (1 - xi) * rec.receiver_utils[1])
                 for rec, xi in zip(l2.states, x))
    assert direct == F(3, 4)

    failures = 0
    for i in range(100):
        spec = tf.RandomGameSpec(seed=30000 + i, num_states=2 + i % 3,
                                 num_senders=2, utility_range=5)
        game = tf.random_game(spec)
        best, _ = tf.two_sender_optimal(game)
        grid_value, _, _ = tf.two_sender_grid_search(game, GRID8)
        if best.receiver_utility < grid_value:
            failures += 1
    for games, grid in ((_wide_games(2), GRID6_WIDE), (_large_games(2), GRID4_LARGE)):
        for game in games:
            best, _ = tf.two_sender_optimal(game)
            grid_value, _, _ = tf.two_sender_grid_search(game, grid)
            if best.receiver_utility < grid_value:
                failures += 1
    assert failures == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _report(7, f"LP vertex (1, 1/2) worth 3/4, 100/100 games at or above "
               f"the grid 8, 16/16 7- and 8-state games at or above the grid 6 "
               f"and 12/12 10- to 12-state games at or above the grid 4 "
               f"({elapsed:.1f} s)")


def test_criterion_8_majority_baseline():
    started = time.perf_counter()
    for i in range(50):
        spec = tf.RandomGameSpec(seed=40000 + i, num_states=2 + i % 4,
                                 num_senders=3, utility_range=5)
        game = tf.random_game(spec)
        _, utilities = tf.majority_outcome(game)
        pointwise = sum(rec.prior * max(rec.receiver_utils) for rec in game.states)
        assert utilities.receiver == pointwise

        # Single- and two-sender candidates on the same receiver utilities
        # can never beat the full-information pointwise maximum.
        for j in range(3):
            single = tf.make_game(
                [(rec.name, rec.prior, [rec.sender_utils[j]], rec.receiver_utils)
                 for rec in game.states])
            res = tf.receiver_optimal_filter(single)
            assert res.outcome.utilities.receiver <= pointwise
        pair = tf.make_game(
            [(rec.name, rec.prior, list(rec.sender_utils[:2]), rec.receiver_utils)
             for rec in game.states], num_senders=2)
        best, candidates = tf.two_sender_optimal(pair)
        assert best.receiver_utility <= pointwise
        for cand in candidates:
            if cand.feasible:
                assert cand.receiver_utility <= pointwise
    elapsed = time.perf_counter() - started
    _report(8, f"majority play hits the pointwise maximum and caps every "
               f"candidate on 50 games ({elapsed:.1f} s)")


def _walk_forcing_game(k: int, seed: int = 9) -> tf.Game:
    """A uniform-prior game whose receiver-optimal walk runs deep.

    Every tenth state agrees (agree0 and agree1 alternate); the rest are
    split states where the sender's gap is -a and the receiver's +b, with a
    and b drawn from 1..10^6. The agree0 states carry sender mass 3S/5 + 1/2
    (S the split states' total a), so the sender's obey total starts near
    -2S/5 and the walk concedes about two fifths of S. The half keeps the
    total off zero at every step, so the pivot is interior. The agree1
    states carry receiver mass -(3E/5 + 1/2) (E the total b), more than the
    cheapest-first prefix concedes, so the receiver's own row holds.
    """
    rng = tf.SplitMix64(seed)
    pairs = [(1 + rng.below(10 ** 6), 1 + rng.below(10 ** 6)) for i in range(k) if i % 10]
    split = iter(pairs)
    sender_mass = sum(a for a, _ in pairs)
    receiver_mass = sum(b for _, b in pairs)
    n0, n1 = len(range(0, k, 20)), len(range(10, k, 20))
    g0 = F(6 * sender_mass + 5, 10 * n0)
    g1 = F(6 * receiver_mass + 5, 10 * n1)
    zero, one, prior = F(0), F(1), F(1, k)
    states = []
    for i in range(k):
        if i % 20 == 0:
            sender, receiver = (g0, zero), (one, zero)
        elif i % 20 == 10:
            sender, receiver = (zero, one), (zero, g1)
        else:
            a, b = next(split)
            sender, receiver = (zero, F(a)), (F(b), zero)
        states.append((f"w{i}", prior, sender, receiver))
    return tf.make_game(states)


#: The reference loop's fixed input: 10,000 ints in a scrambled order.
_REFERENCE = [(i * 7919) % 10007 for i in range(10_000)]


def _reference_cpu() -> float:
    """CPU time of a fixed loop, a sort and a sum of products, about a millisecond."""
    t0 = time.process_time()
    sum(map(mul, sorted(_REFERENCE), _REFERENCE))
    return time.process_time() - t0


def _timings(make, runs_at_100k, check=None):
    """Best-of-runs receiver solve CPU time per k, with ``check`` on each result.

    Times are the process's CPU time (``time.process_time``), so the time
    other processes hold the CPU does not count; a change in CPU speed, such
    as frequency scaling or caches shared with a busy neighbour, still does.
    So the growth bounds compare each solve's time in units of a fixed
    reference loop timed just before it, which a slower CPU slows alike.
    The k = 1,000 anchor scales both bounds, and one solve there takes about
    a millisecond, so it is the best of 25 runs. Each size's bound is
    checked as soon as the size is measured, so a solve that grows much
    faster than k log k fails at 10,000 states, before the 100,000-state
    runs. Returns the best solve time in seconds per k.
    """
    seconds, units = {}, {}
    for k in (1_000, 10_000, 100_000):
        game = make(k)
        runs = {1_000: 25, 10_000: 5}.get(k, runs_at_100k)
        seconds[k] = units[k] = math.inf
        for _ in range(runs):
            reference = _reference_cpu()
            t0 = time.process_time()
            res = tf.receiver_optimal_filter(game)
            elapsed = time.process_time() - t0
            seconds[k] = min(seconds[k], elapsed)
            units[k] = min(units[k], elapsed / reference)
        if check:
            check(k, res)
        if k > 1_000:
            anchor = units[1_000] / (1_000 * math.log(1_000))
            assert units[k] <= 2 * anchor * k * math.log(k), (units, seconds)
    return seconds


def test_criterion_9_complexity():
    timings = _timings(lambda k: tf.random_game(
        tf.RandomGameSpec(seed=42, num_states=k, utility_range=5)), runs_at_100k=3)
    assert timings[100_000] < 1.0

    def deep_interior_walk(k, res):
        assert res.pivot_index >= k // 10 and 0 < res.pivot_q < 1, res.pivot_index
        assert not res.fell_back_to_constant
    # Two runs at 100k: building that game takes about 2 s already.
    walk = _timings(_walk_forcing_game, runs_at_100k=2, check=deep_interior_walk)
    _report(9, "k=100000 in {:.0f} ms; growth within 2x of k log k "
               "({:.0f}/{:.0f}/{:.0f} ms; walk-forcing {:.0f}/{:.0f}/{:.0f} ms)".format(
                   timings[100_000] * 1000, timings[1_000] * 1000,
                   timings[10_000] * 1000, timings[100_000] * 1000,
                   walk[1_000] * 1000, walk[10_000] * 1000, walk[100_000] * 1000))
