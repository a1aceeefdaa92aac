"""The box LP solver reaches the exact simplex's optimal value.

``simplex_reference`` is an exact Fraction Bland simplex, a different
algorithm from ``_simplex.maximize``'s search over the a-row's multiplier.
Where an LP has several optima the two may return different points, so the
tests compare values and check each returned point on its own: Fractions,
in the box, feasible, at most two fractional entries, and worth its value.
"""
from fractions import Fraction

import pytest

import simplex_reference
import talkfilter as tf
from talkfilter import _simplex

F = Fraction
TARGETS = (tf.CandidateProfile.UNANIMOUS_0, tf.CandidateProfile.UNANIMOUS_1)


def same_value(objective, rows):
    """Check one instance against the reference; returns its value."""
    x, value = _simplex.maximize(objective, rows)
    assert value == simplex_reference.maximize(objective, rows)[1]
    assert all(type(v) is Fraction for v in [*x, value])
    assert all(0 <= v <= 1 for v in x)
    assert sum(1 for v in x if 0 < v < 1) <= 2
    for row in rows:
        assert sum(r * v for r, v in zip(row, x)) >= 0
    assert value == sum(c * v for c, v in zip(objective, x))
    return value


@pytest.mark.parametrize("m", [0, 1, 2])
def test_dense_small_integer_instances(m):
    """Entries in -5..5 make ties and degenerate origins common."""
    rng = tf.SplitMix64(500 + m)
    values = set()
    for _ in range(300):
        n = 1 + rng.below(7)
        objective = [F(rng.below(11) - 5) for _ in range(n)]
        rows = [[F(rng.below(11) - 5) for _ in range(n)] for _ in range(m)]
        values.add(same_value(objective, rows))
    assert len(values) > 3


@pytest.mark.parametrize("m", [1, 2])
def test_mixed_denominator_instances(m):
    """Each row and the objective scale by a different lcm."""
    rng = tf.SplitMix64(600 + m)
    for _ in range(200):
        n = 1 + rng.below(7)
        objective = [F(rng.below(11) - 5, 1 + rng.below(12)) for _ in range(n)]
        rows = [[F(rng.below(11) - 5, 1 + rng.below(12)) for _ in range(n)]
                for _ in range(m)]
        same_value(objective, rows)


def test_empty_and_zero_instances():
    same_value([], [])
    same_value([], [[], []])
    same_value([F(0), F(0)], [[F(0), F(0)], [F(0), F(0)]])
    same_value([F(1, 3), F(-1, 7)], [[F(0), F(0)]])


@pytest.mark.parametrize("utility_range", [1, 100])
def test_two_sender_lps(seeded_games, utility_range):
    games = seeded_games(16, ks=(2, 3, 5, 8, 13, 30), num_senders=2, seed0=4100,
                         utility_range=utility_range, prior="random-rational")
    for game in games:
        for target in TARGETS:
            lp = tf.build_lp(game, target)
            same_value(lp.objective, lp.rows)


def test_seeded_lps_match_reference_value():
    """lp_solve's value is the reference's on 3,088 seeded LPs.

    Every k from 1 to 60, with utility ranges 1, 5 and 100, both priors and
    both targets: 30 games per (k, range, prior) up to k = 8, where ties are
    common, and two per k beyond, each on its own (range, prior) pair.
    """
    combos = [(r, p) for r in (1, 5, 100) for p in ("uniform", "random-rational")]
    specs = [(k, *combo) for k in range(1, 9) for combo in combos for _ in range(30)]
    specs += [(k, *combos[(2 * k + j) % 6]) for k in range(9, 61) for j in range(2)]
    seen = set()
    for seed, (k, utility_range, prior) in enumerate(specs, start=70000):
        game = tf.random_game(tf.RandomGameSpec(
            seed=seed, num_states=k, num_senders=2, utility_range=utility_range, prior=prior))
        for target in TARGETS:
            lp = tf.build_lp(game, target)
            _, value = tf.lp_solve(lp)
            assert value == simplex_reference.maximize(lp.objective, lp.rows)[1]
            seen.add((utility_range, prior, target))
    assert 2 * len(specs) >= 3000 and len(seen) == 12
