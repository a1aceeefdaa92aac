"""Two-sender grids where constant play is as good as any lattice point.

``two_sender_grid_search`` has no constant fallback. The all-0 lattice
point lies in the unanimous-0 region and the all-R point in the unanimous-1
region, and the receiver's IC row holds at the first when her total gap is
at most 0 and at the second when it is at least 0; a point that meets that
row is worth at least both constants to her. These games put her total gap
at 0, so both constants tie and no lattice point beats them, with the
senders' totals at 0 or of mixed sign, under both priors. On each, the
search must return a lattice filter, a unanimous or follow profile, and a
value that is at least her better constant and is the filter's obey value.

``test_oracle`` runs every case. Run as a script
(``PYTHONPATH=src python tests/two_sender_constants.py``) where pytest is
not installed.
"""
import talkfilter as tf

LATTICE_PROFILES = {tf.CandidateProfile.UNANIMOUS_0, tf.CandidateProfile.UNANIMOUS_1,
                    tf.CandidateProfile.FOLLOW_SENDER_1, tf.CandidateProfile.FOLLOW_SENDER_2}

#: One state at utility range 0 (every total 0) or with an indifferent receiver
#: and senders of mixed sign, and two states whose receiver gaps sum to 0.
GAMES = {
    **{f"range-0-{prior}": tf.random_game(tf.RandomGameSpec(
        seed=1, num_states=1, num_senders=2, utility_range=0, prior=prior))
       for prior in ("uniform", "random-rational")},
    **{f"mixed-{a},{b}": tf.make_game(
        [("w0", "1", [(a, "0"), (b, "0")], ("0", "0"))], num_senders=2)
       for a, b in (("1", "-1"), ("-1", "1"))},
    "mixed-two-states": tf.make_game(
        [("w0", "1/3", [("1", "0"), ("-1", "0")], ("2", "0")),
         ("w1", "2/3", [("-1", "0"), ("1", "0")], ("-1", "0"))], num_senders=2),
}


def check(game: tf.Game) -> None:
    """The search's answer at grids 1 to 4 is a lattice filter at least as good as constants."""
    better_constant = max(tf.constant_action_value(game, a).receiver for a in (0, 1))
    for resolution in range(1, 5):
        value, filt, profile = tf.two_sender_grid_search(game, tf.GridSpec(resolution))
        assert isinstance(filt, tf.BinaryFilter), filt
        assert profile in LATTICE_PROFILES, profile
        assert value >= better_constant
        assert value == tf.evaluate_sigma_s(game, filt).receiver


if __name__ == "__main__":
    for game in GAMES.values():
        check(game)
    print("two-sender grids need no constant fallback")
