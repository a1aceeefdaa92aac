"""IC reports and obey values on the cached integer view, against sums from the definition."""
from fractions import Fraction

import pytest

import talkfilter as tf

F = Fraction


def definition(game, filt):
    """Per player (senders, then the receiver): slack0, slack1 and the obey value."""
    rows = []
    for t in range(game.num_senders + 1):
        slack0 = slack1 = value = F(0)
        for rec in game.states:
            u0, u1 = rec.sender_utils[t] if t < game.num_senders else rec.receiver_utils
            x = filt.signal0_prob[rec.name]
            slack0 += rec.prior * (u0 - u1) * x
            slack1 += rec.prior * (u0 - u1) * (1 - x)
            value += rec.prior * (x * u0 + (1 - x) * u1)
        rows.append((slack0, slack1, value))
    return rows


def mixed_filter(game, seed):
    """Signal-0 probabilities over per-state denominators 1..9 (many distinct ones)."""
    rng = tf.SplitMix64(seed)
    probs = {}
    for name in game.state_names:
        den = 1 + rng.below(9)
        probs[name] = F(rng.below(den + 1), den)
    return tf.BinaryFilter(probs)


def corpus(num_senders):
    """Seeded games, each with a grid filter, a mixed filter and every optimizer output.

    Labels: "grid", "mixed", "pivot" (an optimizer filter whose walk stopped
    at an interior pivot) and "optimizer" (any other optimizer filter).
    """
    cases = []
    for i in range(24):
        seed = 9000 + 100 * num_senders + i
        game = tf.random_game(tf.RandomGameSpec(
            seed=seed, num_states=2 + i % 7, num_senders=num_senders,
            prior="random-rational" if i % 2 else "uniform"))
        cases.append((game, tf.random_binary_filter(game, seed, resolution=12), "grid"))
        cases.append((game, mixed_filter(game, seed), "mixed"))
        for sidx in range(num_senders):
            for run in (tf.receiver_optimal_filter, tf.sender_optimal_filter):
                res = run(game, sidx)
                interior = res.pivot_q is not None and 0 < res.pivot_q < 1
                cases.append((game, res.filter, "pivot" if interior else "optimizer"))
    return cases


@pytest.mark.parametrize("num_senders", [1, 2, 3])
def test_ic_reports_and_obey_values_match_definition(num_senders):
    cases = corpus(num_senders)
    labels = [label for _, _, label in cases]
    assert labels.count("pivot") >= 10
    assert sum(len({x.denominator for x in f.signal0_prob.values()}) >= 3
               for _, f, _ in cases) >= 10
    for game, filt, label in cases:
        expected = definition(game, filt)
        reports = [tf.sender_ic(game, filt, j) for j in range(game.num_senders)]
        reports.append(tf.receiver_ic(game, filt))
        for report, (slack0, slack1, _) in zip(reports, expected):
            assert report.signal0_slack == slack0, (label, filt)
            assert report.signal1_slack == slack1, (label, filt)
            assert report.holds == (slack0 >= 0 and slack1 <= 0), (label, filt)
        value = tf.evaluate_sigma_s(game, filt)
        assert value.senders == tuple(v for _, _, v in expected[:-1]), (label, filt)
        assert value.receiver == expected[-1][2], (label, filt)


@pytest.mark.parametrize("num_senders", [1, 2])
def test_babbling_and_constant_values_match_definition(num_senders):
    for game, _, _ in corpus(num_senders)[::7]:
        values = []
        for action in (0, 1):
            const = tf.constant_action_value(game, action)
            for t, got in enumerate(const.senders + (const.receiver,)):
                pairs = [rec.sender_utils[t] if t < num_senders else rec.receiver_utils
                         for rec in game.states]
                want = sum((rec.prior * pair[action]
                            for rec, pair in zip(game.states, pairs)), F(0))
                assert got == want
            values.append(const)
        action, babble = tf.evaluate_babbling(game)
        assert action == (0 if values[0].receiver >= values[1].receiver else 1)
        assert babble == values[action]


def test_int_view_is_cached_and_outside_identity(art):
    twin = tf.make_game([(rec.name, rec.prior, rec.sender_utils, rec.receiver_utils)
                         for rec in art.states])
    view = art.int_view
    assert art.int_view is view
    assert art == twin and hash(art) == hash(twin)
    fresh = tf.validate_game({"type": "transmission", "states": [
        {"name": name, "prior": "1/2", "sender_utilities": [["1", "0"]],
         "receiver_utility": ["0", "1"]} for name in ("a", "b")]})
    hash(fresh)
    assert fresh._states is None       # hashing builds no StateRecord
    assert repr(art) == repr(twin) and "IntView" not in repr(art)
    assert twin.int_view is not view and twin.int_view.weight == view.weight


@pytest.mark.parametrize("fn", [
    lambda g, f: tf.sender_ic(g, f),
    lambda g, f: tf.receiver_ic(g, f),
    lambda g, f: tf.evaluate_sigma_s(g, f),
], ids=["sender_ic", "receiver_ic", "evaluate_sigma_s"])
@pytest.mark.parametrize("probs,error", [
    ({"OG": F(0), "IF": F(1)}, tf.FilterDomainMismatch),
    ({"OG": F(0), "IF": F(1), "DF": F(1), "XX": F(0)}, tf.FilterDomainMismatch),
    ({"OG": F(0), "IF": F(1), "XX": F(0)}, tf.FilterDomainMismatch),
    ({"OG": F(-1, 3), "IF": F(1), "DF": F(1)}, tf.FilterValidationError),
    ({"OG": F(0), "IF": F(4, 3), "DF": F(1, 7)}, tf.FilterValidationError),
    ({"OG": F(0), "IF": 0.5, "DF": F(1)}, tf.FilterValidationError),
    ({"OG": F(0), "IF": "1/2", "DF": F(1)}, tf.FilterValidationError),
])
def test_bad_filters_raise(art, fn, probs, error):
    with pytest.raises(error):
        fn(art, tf.BinaryFilter(probs))
    if error is tf.FilterValidationError:
        with pytest.raises(error, match="'(OG|IF)'"):    # names the state
            tf.BinaryFilter(probs).check_for(art)


@pytest.mark.parametrize("fn", [
    lambda g, f: f.check_for(g),
    lambda g, f: tf.merge_to_binary(g, f),
    lambda g, f: tf.canonical_equilibrium(g, f),
], ids=["check_for", "merge_to_binary", "canonical_equilibrium"])
@pytest.mark.parametrize("dist", [
    {"x": 0.1, "y": 0.9},                # sums to the float 1.0
    {"x": "1/2", "y": F(1, 2)},
    {"x": True},
])
def test_general_filters_refuse_non_rational_probabilities(art, fn, dist):
    filt = tf.GeneralFilter({"OG": dist, "IF": {"x": F(1)}, "DF": {"y": 1}})
    with pytest.raises(tf.FilterValidationError, match="state 'OG'"):
        fn(art, filt)


def test_binary_filter_check_refuses_bools(art):
    """A bool is refused as ``_ratio`` refuses it, also on the integer path."""
    filt = tf.BinaryFilter({"OG": F(0), "IF": True, "DF": F(1)})
    for fn in (filt.check_for, filt.obey_totals, lambda g: tf.sender_ic(g, filt),
               lambda g: tf.receiver_ic(g, filt), lambda g: tf.evaluate_sigma_s(g, filt)):
        with pytest.raises(tf.FilterValidationError, match="state 'IF'"):
            fn(art)


def test_sender_index_out_of_range(art, art_optimal_filter):
    with pytest.raises(IndexError):
        tf.sender_ic(art, art_optimal_filter, 1)
