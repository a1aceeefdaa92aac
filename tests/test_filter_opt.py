import time
from fractions import Fraction
from functools import partial

import pytest

import talkfilter as tf
from talkfilter import filter_opt
from talkfilter.equilibrium import binary_equilibrium
from talkfilter.filter_opt import sort_disagreement

F = Fraction

RECEIVER = tf.Objective.RECEIVER
SENDER = tf.Objective.SENDER


# ---------------------------------------------------------------------------
# Sorting
# ---------------------------------------------------------------------------

def test_sort_art(art):
    sd = sort_disagreement(art, RECEIVER)
    assert sd == (("IF", F(5)),)


def test_sort_g3(g3):
    sd = sort_disagreement(g3, RECEIVER)
    assert sd == (("w3", F(1, 3)),)


def test_sort_ascending_and_ties_keep_input_order():
    game = tf.make_game([
        ("a", "1/4", ("-2", "0"), ("4", "0")),    # ratio 2
        ("b", "1/4", ("-1", "0"), ("1", "0")),    # ratio 1
        ("c", "1/4", ("-3", "0"), ("3", "0")),    # ratio 1, after b
        ("d", "1/4", ("-1", "0"), ("4", "0")),    # ratio 4
    ])
    sd = sort_disagreement(game, RECEIVER)
    assert [name for name, _ in sd] == ["b", "c", "a", "d"]
    assert [r for _, r in sd] == [F(1), F(1), F(2), F(4)]


def test_sort_exact_on_float_collisions():
    """Ratios closer than a double ulp still sort by exact value."""
    big = 10 ** 17
    game = tf.make_game([
        # ratio big/(big-1), a hair above 1; float-rounds to exactly 1.0
        ("above", F(1, 4), (0, big - 1), (big, 0)),
        ("one_a", F(1, 4), (0, 1), (1, 0)),          # ratio exactly 1
        ("one_b", F(1, 4), (0, 2), (2, 0)),          # ratio exactly 1, later
        ("small", F(1, 4), (0, 2), (1, 0)),          # ratio 1/2
    ])
    sd = sort_disagreement(game, RECEIVER)
    assert [n for n, _ in sd] == ["small", "one_a", "one_b", "above"]


def test_sort_handles_ratios_beyond_double_range():
    huge = 10 ** 400
    game = tf.make_game([
        ("giant", F(1, 3), (0, 1), (huge, 0)),       # ratio 10**400: inf as double
        ("plain", F(1, 3), (0, 1), (3, 0)),          # ratio 3
        ("giant2", F(1, 3), (0, 2), (huge, 0)),      # ratio 10**400 / 2
    ])
    sd = sort_disagreement(game, RECEIVER)
    assert [n for n, _ in sd] == ["plain", "giant2", "giant"]


def test_sort_ties_across_split_kinds_keep_input_order():
    """Split01 and split10 states with one exact ratio, and a double collision."""
    big = 10 ** 17
    game = tf.make_game([
        ("above", F(1, 5), (0, big - 1), (big, 0)),   # split10, a hair above 1
        ("s01", F(1, 5), (1, 0), (0, 1)),             # split01, ratio (-1)/(-1)
        ("s10", F(1, 5), (0, 2), (2, 0)),             # split10, ratio 2/2
        ("s01b", F(1, 5), (3, 0), (0, 3)),            # split01, ratio 1
        ("half", F(1, 5), (2, 0), (0, 1)),            # split01, ratio 1/2
    ])
    assert [n for n, _ in sort_disagreement(game, RECEIVER)] == [
        "half", "s01", "s10", "s01b", "above"]
    assert [n for n, _ in sort_disagreement(game, SENDER)] == [
        "above", "s01", "s10", "s01b", "half"]


def test_sort_is_the_stable_sort_on_exact_ratios():
    """On tie-heavy seeded games, the order is a stable sort by Fraction ratio."""
    for i in range(60):
        game = tf.random_game(tf.RandomGameSpec(
            seed=4200 + i, num_states=5 + i, num_senders=1 + i % 2,
            utility_range=1 + i % 2, prior="random-rational"))
        view = game.int_view
        gr = [u0 - u1 for u0, u1 in (rec.receiver_utils for rec in game.states)]
        for j in range(game.num_senders):
            gs = [rec.sender_utils[j][0] - rec.sender_utils[j][1] for rec in game.states]
            dis = view.classify(j)[2]
            for objective, ratio in ((RECEIVER, lambda k: F(gr[k], -gs[k])),
                                     (SENDER, lambda k: F(gs[k], -gr[k]))):
                expected = [view.names[k] for k in sorted(dis, key=ratio)]
                got = [n for n, _ in sort_disagreement(game, objective, j)]
                assert got == expected, (i, j, objective)


def test_sort_ratios_positive(seeded_games):
    for game in seeded_games(20):
        for objective in (RECEIVER, SENDER):
            sd = sort_disagreement(game, objective)
            ratios = [r for _, r in sd]
            assert all(r > 0 for r in ratios)
            assert ratios == sorted(ratios)


# ---------------------------------------------------------------------------
# pivot_q
# ---------------------------------------------------------------------------

def test_pivot_q_g3(g3):
    assert tf.receiver_optimal_filter(g3).pivot_q == F(1, 3)


# ---------------------------------------------------------------------------
# receiver_optimal_filter
# ---------------------------------------------------------------------------

def test_receiver_optimal_art(art):
    res = tf.receiver_optimal_filter(art)
    assert res.filter.signal0_prob == {"OG": F(0), "IF": F(1), "DF": F(1)}
    assert res.outcome.kind is tf.EquilibriumKind.INFORMATIVE
    assert res.outcome.utilities.sender == F(1, 3)
    assert res.outcome.utilities.receiver == F(1, 3)
    assert res.pivot_index is None and res.pivot_q is None
    assert not res.fell_back_to_constant


def test_receiver_optimal_g3(g3):
    res = tf.receiver_optimal_filter(g3)
    assert res.filter.signal0_prob == {"w1": F(1), "w2": F(0), "w3": F(1, 3)}
    assert res.pivot_index == 1 and res.pivot_state == "w3"
    assert res.pivot_q == F(1, 3)
    assert res.outcome.utilities.sender == F(4, 3)
    assert res.outcome.utilities.receiver == F(7, 9)
    # Strictly better than obeying the unfiltered preference or babbling.
    raw = tf.evaluate_sigma_s(g3, tf.merge_to_binary(g3, tf.GeneralFilter.identity(g3)))
    assert res.outcome.utilities.receiver > raw.receiver == F(2, 3)
    _, babble = tf.evaluate_babbling(g3)
    assert res.outcome.utilities.receiver > babble.receiver


def test_receiver_optimal_aligned_game():
    game = tf.make_game([
        ("a", "1/4", ("2", "0"), ("5", "0")),
        ("b", "1/4", ("0", "3"), ("0", "1")),
        ("c", "1/2", ("1", "1"), ("2", "0")),
    ])
    res = tf.receiver_optimal_filter(game)
    cls = tf.classify_states(game)
    for name, x in res.filter.signal0_prob.items():
        assert x == (F(1) if name in cls.agree0 else F(0))
    pointwise = sum(rec.prior * max(rec.receiver_utils) for rec in game.states)
    assert res.outcome.utilities.receiver == pointwise
    assert res.pivot_index is None


def test_fallback_on_opposed_single_state():
    game = tf.make_game([("a", "1", ("0", "1"), ("1", "0"))])
    res = tf.receiver_optimal_filter(game)
    assert res.fell_back_to_constant
    assert res.filter.signal0_prob == {"a": F(0)}
    assert res.outcome.kind is tf.EquilibriumKind.BABBLING
    assert res.outcome.utilities.receiver == 1
    assert tf.verify_filter_optimality(game, res.filter, tf.GridSpec(resolution=8))


# ---------------------------------------------------------------------------
# sender_optimal_filter
# ---------------------------------------------------------------------------

def test_sender_optimal_g3(g3):
    res = tf.sender_optimal_filter(g3)
    assert res.filter.signal0_prob == {"w1": F(1), "w2": F(0), "w3": F(0)}
    assert res.outcome.utilities.sender == F(5, 3)
    assert res.outcome.utilities.receiver == F(2, 3)
    assert res.pivot_index is None
    # The receiver's signal-1 inequality binds exactly at this filter.
    assert tf.receiver_ic(g3, res.filter).signal1_slack == 0


def test_sender_optimal_art(art):
    """The walk flips the conflicted state and then pulls it back to the
    receiver's binding point, conceding only a fifth of the trade mass."""
    res = tf.sender_optimal_filter(art)
    assert res.filter.signal0_prob == {"OG": F(0), "IF": F(4, 5), "DF": F(1)}
    assert res.pivot_index == 1 and res.pivot_q == F(4, 5)
    assert res.outcome.utilities.sender == F(2, 5)
    assert res.outcome.utilities.receiver == F(0)
    assert tf.receiver_ic(art, res.filter).signal1_slack == 0
    assert tf.sender_ic(art, res.filter).holds
    # Strictly better for the sender than the receiver-optimal filter's 1/3,
    # and the grid cannot beat it.
    assert res.outcome.utilities.sender > F(1, 3)
    assert tf.verify_filter_optimality(art, res.filter,
                                       tf.GridSpec(resolution=8), SENDER)


def test_receiver_optimal_second_position_pivot():
    """The walk concedes the cheap state outright and pivots on the second."""
    game = tf.make_game([
        ("base", "1/4", ("1", "0"), ("1", "0")),     # agreement on 0
        ("anchor", "1/4", ("0", "1"), ("0", "9")),   # agreement on 1
        ("a", "1/4", ("0", "2"), ("1", "0")),        # conflict, ratio 1/2
        ("b", "1/4", ("0", "4"), ("1", "0")),        # conflict, ratio 1/4
    ])
    res = tf.receiver_optimal_filter(game)
    assert res.pivot_index == 2 and res.pivot_state == "a"
    assert res.pivot_q == F(1, 2)
    assert res.filter.signal0_prob == {
        "base": F(1), "anchor": F(0), "b": F(0), "a": F(1, 2)}
    assert res.outcome.utilities.sender == F(7, 4)
    assert res.outcome.utilities.receiver == F(21, 8)
    assert not res.fell_back_to_constant
    assert tf.verify_filter_optimality(game, res.filter, tf.GridSpec(resolution=2))
    assert tf.verify_filter_optimality(game, res.filter, tf.GridSpec(resolution=8))


def test_sender_optimal_aligned_matches_receiver():
    game = tf.make_game([
        ("a", "1/2", ("2", "0"), ("5", "0")),
        ("b", "1/2", ("0", "3"), ("0", "1")),
    ])
    r = tf.receiver_optimal_filter(game)
    s = tf.sender_optimal_filter(game)
    assert r.filter.signal0_prob == s.filter.signal0_prob
    assert r.outcome.utilities == s.outcome.utilities


# ---------------------------------------------------------------------------
# Structural invariants on random games
# ---------------------------------------------------------------------------

def _walk_filters(game, objective, sender_index=0):
    """Reconstruct the walk's candidate filters independently of the solver."""
    cls = tf.classify_states(game, sender_index)
    names = [name for name, _ in sort_disagreement(game, objective, sender_index)]
    base = {}
    for name in cls.agree0:
        base[name] = F(1)
    for name in cls.agree1:
        base[name] = F(0)
    filters = []
    for flipped in range(len(names) + 1):
        x = dict(base)
        for pos, name in enumerate(names, start=1):
            in10 = name in cls.split10
            if objective is RECEIVER:
                conceded, preferred = (F(0), F(1)) if in10 else (F(1), F(0))
            else:
                conceded, preferred = (F(1), F(0)) if in10 else (F(0), F(1))
            x[name] = conceded if pos <= flipped else preferred
        filters.append(tf.BinaryFilter(x))
    return filters


def _binding_q(check, game, filt, name, preferred):
    """The pivot probability nearest the objective player's extreme at which
    ``check`` holds, solved from the report's Fraction slacks.

    Both slacks are linear in the pivot's probability p, so with the pivot
    at 0 and at 1 the rows slack0 >= 0 and slack1 <= 0 become bounds on p.
    """
    at = [check(game, tf.BinaryFilter({**filt.signal0_prob, name: F(p)}))
          for p in (0, 1)]
    lo, hi = F(0), F(1)
    for k, m in ((at[0].signal0_slack, at[1].signal0_slack - at[0].signal0_slack),
                 (-at[0].signal1_slack, at[0].signal1_slack - at[1].signal1_slack)):
        # The row k + m * p >= 0.
        if m > 0:
            lo = max(lo, -k / m)
        elif m < 0:
            hi = min(hi, -k / m)
        else:
            assert k >= 0
    assert lo <= hi
    return hi if preferred == 1 else lo


def _walk_corpus(seeded_games):
    """(game, sender index): utility range 1 for ties, both priors, and
    two-sender games under each sender index."""
    games = [(g, 0) for g in seeded_games(80, ks=(1, 2, 3, 4, 6), utility_range=1,
                                          seed0=2600)]
    games += [(g, 0) for g in seeded_games(80, ks=(2, 3, 5, 8), utility_range=1,
                                           prior="random-rational", seed0=2700)]
    games += [(g, 0) for g in seeded_games(40, ks=(3, 6, 10), utility_range=3,
                                           prior="random-rational", seed0=2800)]
    games += [(g, j) for g in seeded_games(40, ks=(2, 3, 5), num_senders=2,
                                           utility_range=1, seed0=2900)
              for j in (0, 1)]
    return games


def test_walk_matches_definition(seeded_games):
    """The walk stops at the first candidate filter where the constrained
    player's IC holds, gives the pivot the binding probability nearest the
    objective player's extreme, and falls back exactly when the objective
    player's IC fails there."""
    walks = fallbacks = 0
    for game, j in _walk_corpus(seeded_games):
        sender = partial(tf.sender_ic, sender_index=j)
        for objective, run, constrained, own in (
                (RECEIVER, tf.receiver_optimal_filter, sender, tf.receiver_ic),
                (SENDER, tf.sender_optimal_filter, tf.receiver_ic, sender)):
            res = run(game, sender_index=j)
            filters = _walk_filters(game, objective, j)
            first = [constrained(game, f).holds for f in filters].index(True)
            if first == 0:
                assert res.pivot_index is None and res.pivot_q is None
                assert not res.fell_back_to_constant
                assert res.filter == filters[0]
                continue
            walks += 1
            name = sort_disagreement(game, objective, j)[first - 1][0]
            preferred = filters[first - 1].signal0_prob[name]
            q = _binding_q(constrained, game, filters[first], name, preferred)
            assert (res.pivot_index, res.pivot_state, res.pivot_q) == (first, name, q)
            candidate = tf.BinaryFilter({**filters[first].signal0_prob, name: q})
            fell_back = not own(game, candidate).holds
            fallbacks += fell_back
            assert res.fell_back_to_constant == fell_back
            if fell_back:
                assert set(res.filter.signal0_prob.values()) == {0}
            else:
                assert res.filter == candidate
    assert walks > 100 and fallbacks > 10, (walks, fallbacks)


def test_walk_slacks_are_monotone(seeded_games):
    for game in seeded_games(24, seed0=2100):
        for objective, check in ((RECEIVER, tf.sender_ic), (SENDER, tf.receiver_ic)):
            reports = [check(game, f) for f in _walk_filters(game, objective)]
            for before, after in zip(reports, reports[1:]):
                assert after.signal0_slack >= before.signal0_slack
                assert after.signal1_slack <= before.signal1_slack


def test_result_structure(seeded_games):
    """At most one interior probability, sitting in a split set at the walk's
    stopping position; everything before it is conceded, everything after it
    keeps the objective player's extreme; both ICs hold unless the optimizer
    fell back."""
    for game in seeded_games(60, seed0=2200):
        cls = tf.classify_states(game)
        for objective in (RECEIVER, SENDER):
            res = (tf.receiver_optimal_filter(game) if objective is RECEIVER
                   else tf.sender_optimal_filter(game))
            interior = {name: x for name, x in res.filter.signal0_prob.items()
                        if 0 < x < 1}
            assert len(interior) <= 1
            for name in interior:
                assert name in cls.split01 | cls.split10
                assert name == res.pivot_state
            if res.fell_back_to_constant:
                assert all(x == 0 for x in res.filter.signal0_prob.values())
                continue
            assert tf.sender_ic(game, res.filter).holds
            assert tf.receiver_ic(game, res.filter).holds
            assert res.outcome == tf.canonical_equilibrium(game, res.filter)
            sd = sort_disagreement(game, objective)
            if res.pivot_index is not None:
                for pos, (name, _) in enumerate(sd, start=1):
                    if pos == res.pivot_index:
                        continue
                    x = res.filter.signal0_prob[name]
                    in10 = name in cls.split10
                    if objective is RECEIVER:
                        conceded, preferred = (F(0), F(1)) if in10 else (F(1), F(0))
                    else:
                        conceded, preferred = (F(1), F(0)) if in10 else (F(0), F(1))
                    assert x == (conceded if pos < res.pivot_index else preferred)


def test_outcomes_match_public_evaluation(seeded_games):
    """The optimizer's integer fast path must equal the Fraction route."""
    for game in seeded_games(30, seed0=2300):
        for run in (tf.receiver_optimal_filter, tf.sender_optimal_filter):
            res = run(game)
            assert res.outcome == tf.canonical_equilibrium(game, res.filter)
            assert res.sender_ic == tf.sender_ic(game, res.filter)
            assert res.receiver_ic == tf.receiver_ic(game, res.filter)


def test_designated_sender_outcome_matches_canonical(seeded_games):
    """With extra senders present, the optimizer's outcome must agree with
    the canonical evaluation for its designated sender, fallbacks included."""
    for game in seeded_games(30, ks=(2, 3), num_senders=2, seed0=2500):
        for j in (0, 1):
            res = tf.receiver_optimal_filter(game, sender_index=j)
            expected = tf.canonical_equilibrium(game, res.filter, sender_index=j)
            assert res.outcome == expected
            assert res.sender_ic == tf.sender_ic(game, res.filter, j)
            assert res.receiver_ic == tf.receiver_ic(game, res.filter)


def test_sender_indifferent_everywhere():
    """All-zero sender gaps: the receiver simply takes her pointwise best."""
    game = tf.make_game([
        ("a", "1/2", ("3", "3"), ("2", "0")),
        ("b", "1/2", ("1", "1"), ("0", "5")),
    ])
    res = tf.receiver_optimal_filter(game)
    assert res.filter.signal0_prob == {"a": F(1), "b": F(0)}
    assert res.outcome.utilities.receiver == F(7, 2)
    report = tf.sender_ic(game, res.filter)
    assert report.holds and report.signal0_slack == 0 and report.signal1_slack == 0


def test_fractional_utilities_and_priors():
    """Non-integer payoffs exercise the internal lcm scaling."""
    game = tf.make_game([
        ("a", "2/7", ("1/3", "0"), ("1/2", "0")),
        ("b", "4/7", ("0", "5/6"), ("0", "2/3")),
        ("c", "1/7", ("0", "3/4"), ("7/8", "0")),
    ])
    res = tf.receiver_optimal_filter(game)
    assert res.outcome == tf.canonical_equilibrium(game, res.filter)
    assert tf.verify_filter_optimality(game, res.filter, tf.GridSpec(resolution=8))
    sres = tf.sender_optimal_filter(game)
    assert tf.verify_filter_optimality(game, sres.filter, tf.GridSpec(resolution=8),
                                       SENDER)


def test_receiver_output_dominates_identity_and_babbling(seeded_games):
    for game in seeded_games(40, seed0=2400):
        res = tf.receiver_optimal_filter(game)
        value = res.outcome.utilities.receiver
        identity = tf.canonical_equilibrium(game, tf.GeneralFilter.identity(game))
        _, babble = tf.evaluate_babbling(game)
        assert value >= identity.utilities.receiver
        assert value >= babble.receiver


# ---------------------------------------------------------------------------
# One evaluation per answer
# ---------------------------------------------------------------------------

def _primes(n):
    found = []
    c = 2
    while len(found) < n:
        if all(c % p for p in found if p * p <= c):
            found.append(c)
        c += 1
    return found


def prime_game(k, seed=5):
    """k states, prior 1/k, and a fresh pair of primes in every state's denominators.

    State i has sender utilities (a/p[2i], b/p[2i+1]) and receiver utilities
    (c/p[2i+1], d/p[2i]), with a..d drawn as SplitMix64(seed).below(11) - 5.
    Each player's utility scale is a product of up to 2k primes, so at
    k = 2,000 the obey totals and the pivot's probability run to thousands
    of digits, and scaling the answer's filter multiplies every state by them.
    """
    rng = tf.SplitMix64(seed)
    p = _primes(2 * k)
    rows = []
    for i in range(k):
        a, b, c, d = (rng.below(11) - 5 for _ in range(4))
        rows.append((f"w{i}", F(1, k), (F(a, p[2 * i]), F(b, p[2 * i + 1])),
                     (F(c, p[2 * i + 1]), F(d, p[2 * i]))))
    return tf.make_game(rows)


def test_prime_game_reports_match_binary_equilibrium():
    """The walk's totals give the reports and outcome that evaluating the filter gives."""
    kinds = set()
    for seed in (5, 7):
        for k in range(3, 9):
            game = prime_game(k, seed)
            for run in (tf.receiver_optimal_filter, tf.sender_optimal_filter):
                res = run(game)
                assert (res.sender_ic, res.receiver_ic, res.outcome) == \
                    binary_equilibrium(game, res.filter)
                interior = res.pivot_q is not None and 0 < res.pivot_q < 1
                kinds.add((interior, res.fell_back_to_constant))
    assert (True, False) in kinds and (True, True) in kinds


def test_prime_game_optimizers_are_fast():
    """Both optimizers at 2,000 states, where the pivot's denominator has thousands of digits."""
    game = prime_game(2000)
    game.int_view
    started = time.process_time()
    results = [tf.receiver_optimal_filter(game), tf.sender_optimal_filter(game)]
    elapsed = time.process_time() - started
    assert all(0 < r.pivot_q < 1 and not r.fell_back_to_constant for r in results)
    assert elapsed < 1.5, elapsed


def test_prime_game_filters_are_evaluated_fast():
    """The optimizers' filters cost one large multiply per denominator, not per state."""
    game = prime_game(2000)
    results = [tf.receiver_optimal_filter(game), tf.sender_optimal_filter(game)]
    started = time.process_time()
    reports = [binary_equilibrium(game, r.filter) for r in results]
    elapsed = time.process_time() - started
    assert reports == [(r.sender_ic, r.receiver_ic, r.outcome) for r in results]
    assert elapsed < 1.0, elapsed


def test_walk_missing_the_row_raises(monkeypatch, g3, seeded_games):
    """A pivot probability one unit short of c's row raises instead of being reported."""
    games = [g3, prime_game(6, 7)] + seeded_games(20, ks=(3, 4, 5), seed0=2300)
    walks = [(game, run) for game in games
             for run in (tf.receiver_optimal_filter, tf.sender_optimal_filter)
             if run(game).pivot_index is not None]
    assert len(walks) >= 3
    monkeypatch.setattr(filter_opt, "pivot_q",
                        lambda base, target, coef: F(target - 1 - base, coef))
    for game, run in walks:
        with pytest.raises(ArithmeticError):
            run(game)
