"""The oracle's per-state and per-signal evaluators against the term-by-term ones.

``oracle_reference`` keeps ``profile_value`` and ``exhaustive_nash_check`` as
they summed every (state, signal, message) term. On seeded games, filters and
profiles, the oracle's versions must return exactly the same utilities, the
same verdict and the same deviation witness (``reference_checks``
compares them), on ``random_game``'s integer utilities and on
``reference_checks.rational_game``'s mixed denominators.
"""
import reference_checks

import talkfilter as tf


def test_evaluators_match_the_term_by_term_sums():
    outcomes = set()
    compared = 0
    seed = 70000
    for num_senders in (1, 2, 3):
        for utility_range in (0, 1, 5):
            for prior in ("uniform", "random-rational"):
                for k in (1, 2, 3, 5, 8):
                    seed += 1
                    game = tf.random_game(tf.RandomGameSpec(
                        seed=seed, num_states=k, num_senders=num_senders,
                        utility_range=utility_range, prior=prior))
                    outcomes |= reference_checks.check_evaluators(game, seed, profiles=4)
                    compared += 4 * num_senders
    assert compared >= 500 and outcomes == {"sender", "receiver", "nash"}


def test_evaluators_match_on_rational_utilities():
    """Priors and utilities with mixed denominators, where each player's sums scale apart."""
    outcomes = set()
    denominators = set()
    for seed in range(200):
        game = reference_checks.rational_game(81000 + seed)
        denominators.update(u.denominator for rec in game.states
                            for pair in (*rec.sender_utils, rec.receiver_utils) for u in pair)
        outcomes |= reference_checks.check_evaluators(game, seed)
    assert outcomes == {"sender", "receiver", "nash"}
    assert denominators >= {1, 2, 3, 4, 5, 8, 12}


def test_reference_checks_script():
    """The script CI runs on every Python version."""
    reference_checks.main()
