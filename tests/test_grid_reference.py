"""The meet-in-the-middle grid sweeps against the odometer sweeps they replaced.

``grid_reference`` visits every lattice point in enumeration order. Over the
whole lattice, each new sweep must return the same tuple: (score, index) for
one sender and (score, index, profile) for two, so the winner, the tie-break
to the lowest index and the profile label all agree.
"""
import grid_reference

import talkfilter as tf
from talkfilter import oracle

#: (k, R) with at most 4096 lattice points: the reference visits every one.
SHAPES = [(k, R) for k in range(1, 13) for R in range(1, 9) if (R + 1) ** k <= 4096]


def _agree(game, resolution: int) -> int:
    """Compare every sweep the game admits; return how many were compared."""
    points = (resolution + 1) ** len(game.int_view.names)
    if game.num_senders == 2:
        assert (oracle._two_sender_best(game, resolution)
                == grid_reference._two_sender_chunk(game, resolution, 0, points))
        return 1
    for objective in (tf.Objective.RECEIVER, tf.Objective.SENDER):
        assert (oracle._grid_best(game, resolution, objective, 0)
                == grid_reference._grid_chunk(game, resolution, objective.value, 0,
                                              0, points))
    return 2


def test_sweeps_match_the_odometer_on_seeded_games():
    compared = 0
    seed = 60000
    for k, R in SHAPES:
        for utility_range in (0, 1, 5):          # 0 and 1 make many exact ties
            for prior in ("uniform", "random-rational"):
                for num_senders in (1, 2):
                    for _ in range(5):
                        seed += 1
                        game = tf.random_game(tf.RandomGameSpec(
                            seed=seed, num_states=k, num_senders=num_senders,
                            utility_range=utility_range, prior=prior))
                        compared += _agree(game, R)
    assert len(SHAPES) == 45 and compared >= 3000


def test_sweeps_match_the_odometer_on_the_certify_corpus():
    """The seed-11 certify-corpus pairs: 6 states at grid 8, 9^6 points a sweep.

    Draw order as in the benchmark's corpus: per pair, the one-sender seed,
    the two-sender seed, then two seeds for the general filter and profile.
    """
    rng = tf.SplitMix64(11)
    compared = 0
    for _ in range(8):
        one = tf.RandomGameSpec(seed=rng.next_u64(), num_states=6, prior="random-rational")
        two = tf.RandomGameSpec(seed=rng.next_u64(), num_states=6, num_senders=2,
                                prior="random-rational")
        rng.next_u64()
        rng.next_u64()
        compared += _agree(tf.random_game(one), 8) + _agree(tf.random_game(two), 8)
    assert compared == 24


def _sign_case(game) -> str:
    """Which unanimous region the two-sender sweep keeps, by the senders' totals' signs."""
    a, b = game.int_view.s_total[:2]
    if a == 0 or b == 0:
        return "zero"
    if (a > 0) != (b > 0):
        return "mixed"
    return "(+,+)" if a > 0 else "(-,-)"


def test_seeded_two_sender_games_reach_every_sign_case():
    """The seeded two-sender games above sweep U0 (+,+), U1 (-,-) and neither (mixed, zero)."""
    cases = set()
    seed = 60000
    for k, _ in SHAPES:
        for utility_range in (0, 1, 5):
            for prior in ("uniform", "random-rational"):
                for num_senders in (1, 2):
                    for _ in range(5):
                        seed += 1
                        if num_senders == 2:
                            cases.add(_sign_case(tf.random_game(tf.RandomGameSpec(
                                seed=seed, num_states=k, num_senders=2,
                                utility_range=utility_range, prior=prior))))
    assert cases == {"(+,+)", "(-,-)", "mixed", "zero"}
