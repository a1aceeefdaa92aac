"""The integer simplex takes the Fraction reference's pivots and returns its vertex.

``simplex_reference`` is the Fraction Bland simplex that ``_simplex`` replaced.
Equal (x, value) and an equal number of linear solves (two per pivot, one
more at the end) show that both took the same pivots.
"""
from fractions import Fraction

import pytest

import simplex_reference
import talkfilter as tf
from talkfilter import _simplex

F = Fraction
TARGETS = (tf.CandidateProfile.UNANIMOUS_0, tf.CandidateProfile.UNANIMOUS_1)


@pytest.fixture
def same_as_reference(monkeypatch):
    """Check one instance on both simplexes: same result, same number of solves."""
    counts = {}
    for module in (_simplex, simplex_reference):
        def counted(*args, _solve=module._solve, _module=module):
            counts[_module] += 1
            return _solve(*args)
        monkeypatch.setattr(module, "_solve", counted)

    def check(objective, rows):
        counts.update({_simplex: 0, simplex_reference: 0})
        x, value = _simplex.maximize(objective, rows)
        assert (x, value) == simplex_reference.maximize(objective, rows)
        assert all(type(v) is Fraction for v in [*x, value])
        assert counts[_simplex] == counts[simplex_reference]
        return counts[_simplex]

    return check


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_dense_small_integer_instances(same_as_reference, m):
    """Entries in -5..5 make ties and degenerate origins common."""
    rng = tf.SplitMix64(500 + m)
    solves = set()
    for _ in range(300):
        n = 1 + rng.below(7)
        objective = [F(rng.below(11) - 5) for _ in range(n)]
        rows = [[F(rng.below(11) - 5) for _ in range(n)] for _ in range(m)]
        solves.add(same_as_reference(objective, rows))
    assert len(solves) > 3  # instances of several pivot counts were covered


@pytest.mark.parametrize("m", [1, 2, 3])
def test_mixed_denominator_instances(same_as_reference, m):
    """Each row and the objective scale by a different lcm."""
    rng = tf.SplitMix64(600 + m)
    for _ in range(200):
        n = 1 + rng.below(7)
        objective = [F(rng.below(11) - 5, 1 + rng.below(12)) for _ in range(n)]
        rows = [[F(rng.below(11) - 5, 1 + rng.below(12)) for _ in range(n)]
                for _ in range(m)]
        same_as_reference(objective, rows)


def test_empty_and_zero_instances(same_as_reference):
    same_as_reference([], [])
    same_as_reference([], [[], []])
    same_as_reference([F(0), F(0)], [[F(0), F(0)], [F(0), F(0)]])
    same_as_reference([F(1, 3), F(-1, 7)], [[F(0), F(0)]])


@pytest.mark.parametrize("utility_range", [1, 100])
def test_two_sender_lps(same_as_reference, seeded_games, utility_range):
    games = seeded_games(16, ks=(2, 3, 5, 8, 13, 30), num_senders=2, seed0=4100,
                         utility_range=utility_range, prior="random-rational")
    for game in games:
        for target in TARGETS:
            lp = tf.build_lp(game, target)
            same_as_reference(lp.objective, lp.rows)
