"""The oracle's per-state and per-signal evaluators against the term-by-term ones.

``oracle_reference`` keeps ``profile_value`` and ``exhaustive_nash_check`` as
they summed every (state, signal, message) term. On seeded games, filters and
profiles, the oracle's versions must return exactly the same utilities, the
same verdict and the same deviation witness.
"""
import oracle_reference

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
                    for j in range(4):
                        filt = tf.random_general_filter(game, seed=seed * 10 + j)
                        profile = tf.random_profile(game, filt, seed=seed * 10 + j + 5)
                        assert (tf.profile_value(game, filt, profile)
                                == oracle_reference.profile_value(game, filt, profile))
                        for sender in range(num_senders):
                            got = tf.exhaustive_nash_check(game, filt, profile, sender)
                            assert got == oracle_reference.exhaustive_nash_check(
                                game, filt, profile, sender)
                            outcomes.add(got[1]["player"] if got[1] else "nash")
                            compared += 1
    assert compared >= 500 and outcomes == {"sender", "receiver", "nash"}
