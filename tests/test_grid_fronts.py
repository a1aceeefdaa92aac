"""The grid oracle's fronts: exactly the maximal points, and few of them.

``oracle._front`` builds a half's maximal points state by state, dropping
those that cannot meet the sweep's needs. Here it must return the same
points, in the same order, as a filter over every tabulated point of the
half; and on seeded games at k = 12, R = 6 its one-bound fronts must stay far
smaller than the 7^6 = 117,649 points a tabulating sweep lists.
"""
from itertools import product

from hypothesis import given, settings, strategies as st

import talkfilter as tf
from talkfilter import oracle
from talkfilter.filter_opt import _players

small = st.integers(-3, 3)


@st.composite
def halves(draw):
    """(bound rows + objective row, R, the half's states, needs).

    1-4 states, many zeros, many equal ratios: each state's column is either
    one shared ratio vector times a small int, so that states tie on every
    ratio, or small ints drawn freely. The half is a head or a tail of the
    states; each need is either none or a small total (for the key, an
    objective total) that the whole point must reach.
    """
    states = draw(st.integers(1, 4))
    width = draw(st.integers(2, 3))      # one or two bound rows, then the objective
    ratios = draw(st.lists(small, min_size=width, max_size=width))
    cols = []
    for _ in range(states):
        if draw(st.booleans()):
            scale = draw(small)
            cols.append([scale * r for r in ratios])
        else:
            cols.append(draw(st.lists(small, min_size=width, max_size=width)))
    rows = [list(row) for row in zip(*cols)]
    R = draw(st.integers(1, 8))
    cut = draw(st.integers(0, states))
    half = draw(st.sampled_from([h for h in (range(cut), range(cut, states)) if h]))
    needs = [draw(st.none() | st.integers(-6 * R, 6 * R)) for _ in rows]
    return rows, R, half, needs


def _tabulated_maximal(rows: list[list[int]], resolution: int, half: range,
                       need: list[int]) -> list[tuple]:
    """The half's points that can meet need, maximal ones only, by key, highest first.

    A point can meet need when each sum, plus the best digit in every state
    outside the half, reaches it. Keys are distinct, so a point is maximal
    exactly when no point of higher key meets all its bounds; dominance is
    transitive, so checking the kept points suffices.
    """
    outside = [sum(max(0, resolution * c) for i, c in enumerate(row) if i not in half)
               for row in rows]
    points = []
    for digits in product(range(resolution + 1), repeat=len(half)):
        sums = tuple(sum(row[i] * d for i, d in zip(half, digits)) for row in rows)
        if all(p + o >= n for p, o, n in zip(sums, outside, need)):
            points.append(sums)
    kept: list[tuple] = []
    for point in sorted(points, key=lambda p: p[-1], reverse=True):
        if not any(all(q[i] >= point[i] for i in range(len(point) - 1)) for q in kept):
            kept.append(point)
    return kept


@settings(max_examples=300, deadline=None)
@given(halves())
def test_front_is_exactly_the_maximal_tabulated_points(case):
    rows, R, half, needs = case
    keys, size = oracle._key_row(rows[-1], R)
    rows = rows[:-1] + [keys]
    lowest = [sum(min(0, R * c) for c in row) for row in rows]
    need = [low if n is None else n for n, low in zip(needs[:-1], lowest)]
    need.append(lowest[-1] if needs[-1] is None else (needs[-1] - 1) * size + 1)
    assert (oracle._front(rows, half, R, tuple(need))
            == _tabulated_maximal(rows, R, half, need))


def test_one_bound_fronts_stay_small_at_k12_r6():
    """Under 1% of a half's 117,649 points on every one-bound front of 10 seeded games."""
    k, R = 12, 6
    largest = 0
    for j in range(10):
        game = tf.random_game(tf.RandomGameSpec(
            seed=241000 + j, num_states=k, utility_range=(1, 5, 100)[j % 3],
            prior=("uniform", "random-rational")[j % 2]))
        view = game.int_view
        for objective in tf.Objective:
            oidx, cidx = _players(view, objective, 0)
            keys, size = oracle._key_row(view.s[oidx], R)
            need = (view.ic_target(cidx, R), (view.ic_target(oidx, R) - 1) * size + 1)
            for states in (range(k // 2), range(k // 2, k)):
                front = oracle._front([view.s[cidx], keys], states, R, need)
                largest = max(largest, len(front))
    assert 0 < largest < (R + 1) ** (k // 2) // 100
