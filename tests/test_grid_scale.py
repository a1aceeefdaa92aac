"""The front-built grid sweeps against the tabulating sweeps at the cap shapes.

The odometer cannot visit 9^10, 7^12 or 5^14 points, so at those shapes
``grid_reference``'s tabulating sweeps, which list every point of both halves,
are the reference. On seeded games and on two all-ties families, each
``oracle`` sweep must return the same tuple: (score, index) for one sender
and (score, index, profile) for two.

Run as a script (``PYTHONPATH=src python tests/test_grid_scale.py``) where
pytest is not installed.
"""
import grid_reference

import talkfilter as tf
from talkfilter import oracle

#: The largest (k, R) that ``GridSpec.check`` admits at R = 8, 6 and 4.
CAP_SHAPES = [(10, 8), (12, 6), (14, 4)]


def ties_game(gaps: list[int], num_senders: int, same_sign: bool) -> tf.Game:
    """Every state disagrees, and every state has the same gap ratio.

    State i has gap g = gaps[i] for sender 1, -g for the receiver and 2g
    (same_sign) or -2g for sender 2.
    """
    rows = []
    for i, g in enumerate(gaps):
        senders = [(str(u), "0") for u in (g, 2 * g if same_sign else -2 * g)]
        rows.append((f"w{i}", f"1/{len(gaps)}", senders[0] if num_senders == 1 else senders,
                     (str(-g), "0")))
    return tf.make_game(rows, num_senders=num_senders)


def tied_gaps(k: int) -> list[int]:
    """Gaps -1 to -4, and +1 to +4 at every third state: many points of a half
    share each total, so the lowest index decides, and sender 1's total is
    below 0."""
    return [(1 + i % 4) * (1 if i % 3 == 2 else -1) for i in range(k)]


def spread_gaps(k: int, resolution: int) -> list[int]:
    """Gaps ±(R+1)^(i mod ceil(k/2)), + in the head and - in the tail.

    Each point of a half has its own totals, so no point is dominated, and
    every total is 0, so the IC bounds drop few points: the sweeps' worst case.
    """
    half = k - k // 2
    return [(resolution + 1) ** (i % half) * (1 if i < k // 2 else -1) for i in range(k)]


def _agree(game: tf.Game, resolution: int, objectives=tuple(tf.Objective)) -> None:
    if game.num_senders == 2:
        assert (oracle._two_sender_best(game, resolution)
                == grid_reference.tabulated_two_sender_best(game, resolution))
        return
    for objective in objectives:
        assert (oracle._grid_best(game, resolution, objective, 0)
                == grid_reference.tabulated_grid_best(game, resolution, objective.value, 0))


def test_sweeps_match_the_tabulated_halves_at_the_cap_shapes():
    """Per shape, one seeded game at each utility range, and the ties families.

    The prior and the sender count alternate over the ranges, turning with
    the shape, so that each sweep meets every utility range and both priors.
    """
    objectives = tuple(tf.Objective)
    seed = 240000
    for turn, (k, R) in enumerate(CAP_SHAPES):
        for j, utility_range in enumerate((0, 1, 5, 100)):
            seed += 1
            game = tf.random_game(tf.RandomGameSpec(
                seed=seed, num_states=k, num_senders=1 + (j // 2 + turn) % 2,
                utility_range=utility_range,
                prior=("uniform", "random-rational")[(j + turn) % 2]))
            _agree(game, R, objectives=[objectives[j % 2]])
        _agree(ties_game(tied_gaps(k), 1, False), R, objectives=[objectives[turn % 2]])
        for same_sign in (False, True):
            game = ties_game(tied_gaps(k), 2, same_sign)
            a, b = game.int_view.s_total[:2]
            assert (a * b > 0) == same_sign   # so the two-bound sweep runs on same-sign games
            _agree(game, R)
    k, R = CAP_SHAPES[0]
    _agree(ties_game(spread_gaps(k, R), 1, False), R, objectives=[tf.Objective.RECEIVER])
    _agree(ties_game(spread_gaps(k, R), 2, False), R)

if __name__ == "__main__":
    test_sweeps_match_the_tabulated_halves_at_the_cap_shapes()
    print("grid sweeps match the tabulated halves")
