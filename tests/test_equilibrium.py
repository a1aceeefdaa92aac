from fractions import Fraction

import pytest

import talkfilter as tf

F = Fraction


# ---------------------------------------------------------------------------
# IC reports
# ---------------------------------------------------------------------------

def test_sender_ic_art_optimal(art, art_optimal_filter):
    report = tf.sender_ic(art, art_optimal_filter)
    assert report.holds
    assert report.signal0_slack == F(4, 3)
    assert report.signal1_slack == F(-1, 3)


def test_sender_ic_constant_zero(art):
    filt = tf.BinaryFilter({name: F(0) for name in art.state_names})
    report = tf.sender_ic(art, filt)
    assert report.signal0_slack == 0
    total = sum(rec.prior * (rec.sender_utils[0][0] - rec.sender_utils[0][1])
                for rec in art.states)
    assert report.signal1_slack == total


def test_sender_ic_g3_fails(g3):
    filt = tf.BinaryFilter({"w1": F(1), "w2": F(0), "w3": F(1)})
    report = tf.sender_ic(g3, filt)
    assert not report.holds
    assert report.signal0_slack == F(-2, 3)


def test_receiver_ic_art(art, art_optimal_filter):
    report = tf.receiver_ic(art, art_optimal_filter)
    assert report.holds
    assert report.signal0_slack == F(10, 3)
    assert report.signal1_slack == F(-1, 3)


def test_receiver_ic_g3_pivot(g3):
    filt = tf.BinaryFilter({"w1": F(1), "w2": F(0), "w3": F(1, 3)})
    report = tf.receiver_ic(g3, filt)
    assert report.holds
    assert report.signal0_slack == F(4, 9)
    assert report.signal1_slack == F(-1, 9)


def test_receiver_ic_indicator_of_preference(seeded_games):
    """Signal 0 exactly where the receiver weakly prefers action 0 is always
    receiver-compatible: every slack term carries the right sign."""
    for game in seeded_games(15):
        x = {}
        for rec in game.states:
            x[rec.name] = F(1) if rec.receiver_utils[0] >= rec.receiver_utils[1] else F(0)
        assert tf.receiver_ic(game, tf.BinaryFilter(x)).holds


def test_zero_slack_counts_as_compatible():
    game = tf.make_game([("a", "1/2", ("1", "0"), ("1", "0")),
                         ("b", "1/2", ("0", "1"), ("0", "1"))])
    filt = tf.BinaryFilter({"a": F(1), "b": F(0)})
    r = tf.sender_ic(game, filt)
    assert r.holds and r.signal0_slack == F(1, 2) and r.signal1_slack == F(-1, 2)
    flat = tf.BinaryFilter({"a": F(1, 2), "b": F(1, 2)})
    r2 = tf.sender_ic(game, flat)
    assert r2.holds and r2.signal0_slack == 0 and r2.signal1_slack == 0


# ---------------------------------------------------------------------------
# merge_to_binary
# ---------------------------------------------------------------------------

def test_merge_identity_art(art):
    merged = tf.merge_to_binary(art, tf.GeneralFilter.identity(art))
    assert merged.signal0_prob == {"OG": F(0), "IF": F(0), "DF": F(1)}


def test_merge_idempotent_on_compatible_binary(art, art_optimal_filter):
    # The binary filter as a general one on signals "0" and "1".
    general = tf.GeneralFilter({"OG": {"1": F(1)}, "IF": {"0": F(1)}, "DF": {"0": F(1)}})
    merged = tf.merge_to_binary(art, general)
    assert merged.signal0_prob == art_optimal_filter.signal0_prob


def test_merge_combines_same_side_signals():
    game = tf.make_game([("a", "1/2", ("3", "0"), ("1", "0")),
                         ("b", "1/2", ("2", "0"), ("0", "1"))])
    filt = tf.GeneralFilter({"a": {"x": F(1, 2), "y": F(1, 2)},
                             "b": {"x": F(1), }})
    merged = tf.merge_to_binary(game, filt)
    # The sender prefers action 0 on both signals, so all mass lands on signal 0.
    assert merged.signal0_prob == {"a": F(1), "b": F(1)}


def test_merge_tie_goes_to_receiver_side():
    game = tf.make_game([("a", "1/2", ("1", "1"), ("0", "4")),
                         ("b", "1/2", ("1", "1"), ("0", "4"))])
    merged = tf.merge_to_binary(game, tf.GeneralFilter.uninformative(game))
    # Sender indifferent; receiver strictly prefers action 1, so signal 1.
    assert merged.signal0_prob == {"a": F(0), "b": F(0)}
    aligned = tf.make_game([("a", "1", ("1", "1"), ("1", "1"))])
    merged2 = tf.merge_to_binary(aligned, tf.GeneralFilter.uninformative(aligned))
    assert merged2.signal0_prob == {"a": F(1)}  # both indifferent: side 0


def _merge_by_definition(game, filt, sender_index):
    """Signal-0 probabilities of the merge, and the count of sender-indifferent signals."""
    chosen = set()
    indifferent = 0
    for sig in filt.signals():
        mass = s_gap = r_gap = F(0)
        for rec in game.states:
            w = rec.prior * filt.table[rec.name].get(sig, F(0))
            u0, u1 = rec.sender_utils[sender_index]
            mass += w
            s_gap += w * (u0 - u1)
            r_gap += w * (rec.receiver_utils[0] - rec.receiver_utils[1])
        if not mass:
            continue
        indifferent += s_gap == 0
        if s_gap > 0 or (s_gap == 0 and r_gap >= 0):
            chosen.add(sig)
    x = {name: sum((p for sig, p in dist.items() if sig in chosen), F(0))
         for name, dist in filt.table.items()}
    return x, indifferent


def test_merge_matches_definition_with_dead_and_indifferent_signals(seeded_games):
    """Utilities in {-1, 0, 1} make sender-indifferent signals common; a
    signal listed at probability 0 everywhere is never emitted."""
    games = (seeded_games(30, ks=(2, 3, 5), utility_range=1, seed0=4100)
             + seeded_games(10, ks=(3, 4), num_senders=2, utility_range=1, seed0=4200))
    indifferent = 0
    for j, game in enumerate(games):
        table = {name: dict(dist) for name, dist
                 in tf.random_general_filter(game, seed=9100 + j).table.items()}
        table[game.state_names[0]]["never"] = F(0)
        for filt in (tf.GeneralFilter(table), tf.GeneralFilter.identity(game)):
            for sidx in range(game.num_senders):
                expected, ties = _merge_by_definition(game, filt, sidx)
                assert tf.merge_to_binary(game, filt, sidx).signal0_prob == expected
                indifferent += ties
    assert indifferent > 20


def test_merge_preserves_value_and_receiver_ic(seeded_games):
    """Signal-by-signal obey-the-sender value and the pooled receiver check
    must survive the merge exactly."""
    games = seeded_games(25, seed0=4000)
    for j, game in enumerate(games):
        filt = tf.random_general_filter(game, seed=9000 + j)
        merged = tf.merge_to_binary(game, filt)

        # Independent route: walk the general filter signal by signal.
        players = list(range(game.num_senders)) + [tf.RECEIVER]
        direct = {p: F(0) for p in players}
        pooled0 = F(0)
        pooled1 = F(0)
        for sig in filt.signals():
            weights = {}
            for rec in game.states:
                w = rec.prior * filt.table[rec.name].get(sig, F(0))
                if w:
                    weights[rec.name] = w
            if not weights:
                continue
            s_gap = sum(w * (game.state(n).sender_utils[0][0]
                             - game.state(n).sender_utils[0][1])
                        for n, w in weights.items())
            r_gap = sum(w * (game.state(n).receiver_utils[0]
                             - game.state(n).receiver_utils[1])
                        for n, w in weights.items())
            action = 0 if (s_gap > 0 or (s_gap == 0 and r_gap >= 0)) else 1
            for p in players:
                direct[p] += sum(w * game.utility(p, game.state(n), action)
                                 for n, w in weights.items())
            if action == 0:
                pooled0 += r_gap
            else:
                pooled1 += r_gap

        value = tf.evaluate_sigma_s(game, merged)
        assert value.sender == direct[0]
        assert value.receiver == direct[tf.RECEIVER]
        assert tf.receiver_ic(game, merged).holds == (pooled0 >= 0 and pooled1 <= 0)


# ---------------------------------------------------------------------------
# canonical_equilibrium
# ---------------------------------------------------------------------------

def test_canonical_identity_art_is_babbling(art):
    outcome = tf.canonical_equilibrium(art, tf.GeneralFilter.identity(art))
    assert outcome.kind is tf.EquilibriumKind.BABBLING
    assert outcome.babbling_action == 0
    assert outcome.utilities.sender == 0 and outcome.utilities.receiver == 0


def test_canonical_garbled_art_is_informative(art):
    filt = tf.GeneralFilter({"OG": {"orig": F(1)}, "IF": {"fake": F(1)},
                             "DF": {"fake": F(1)}})
    outcome = tf.canonical_equilibrium(art, filt)
    assert outcome.kind is tf.EquilibriumKind.INFORMATIVE
    assert outcome.utilities.sender == F(1, 3)
    assert outcome.utilities.receiver == F(1, 3)


def test_canonical_uninformative_filter(seeded_games):
    """A single effective signal: informative exactly when the receiver's
    best uninformed action matches the merged side, and then the receiver
    value coincides with babbling."""
    for game in seeded_games(20, seed0=5000):
        filt = tf.GeneralFilter.uninformative(game)
        merged = tf.merge_to_binary(game, filt)
        outcome = tf.canonical_equilibrium(game, filt)
        _, babble = tf.evaluate_babbling(game)
        expected = tf.receiver_ic(game, merged).holds
        assert (outcome.kind is tf.EquilibriumKind.INFORMATIVE) == expected
        if expected:
            assert outcome.utilities.receiver == babble.receiver


def test_canonical_dominates_babbling(seeded_games):
    for j, game in enumerate(seeded_games(30, seed0=6000)):
        filt = tf.random_binary_filter(game, seed=7000 + j)
        outcome = tf.canonical_equilibrium(game, filt)
        _, babble = tf.evaluate_babbling(game)
        if outcome.kind is tf.EquilibriumKind.INFORMATIVE:
            assert outcome.utilities.receiver >= babble.receiver
            assert outcome.utilities.sender >= babble.sender


def test_pareto_improvement_is_shared(seeded_games):
    """A filter that strictly helps the sender never hurts the receiver,
    relative to full information."""
    for j, game in enumerate(seeded_games(40, seed0=6100)):
        base = tf.canonical_equilibrium(game, tf.GeneralFilter.identity(game))
        filt = tf.random_general_filter(game, seed=7100 + j)
        outcome = tf.canonical_equilibrium(game, filt)
        if outcome.utilities.sender > base.utilities.sender:
            assert outcome.utilities.receiver >= base.utilities.receiver


# ---------------------------------------------------------------------------
# check_nash_general
# ---------------------------------------------------------------------------

def _obey_profile():
    return tf.GeneralProfile(
        sender_strategy={"orig": {"1": F(1)}, "fake": {"0": F(1)}},
        receiver_strategy={"0": F(1), "1": F(0)})


def test_check_nash_garbled_obey(art):
    filt = tf.GeneralFilter({"OG": {"orig": F(1)}, "IF": {"fake": F(1)},
                             "DF": {"fake": F(1)}})
    ok, witness = tf.check_nash_general(art, filt, _obey_profile())
    assert ok
    assert isinstance(witness, tf.SenderICWitness)
    assert 0 <= witness.l_min <= witness.l_max <= 1


def test_check_nash_babbling_always(seeded_games):
    for j, game in enumerate(seeded_games(15, seed0=6200)):
        filt = tf.random_general_filter(game, seed=7200 + j)
        action, _ = tf.evaluate_babbling(game)
        profile = tf.GeneralProfile(
            sender_strategy={sig: {"m": F(1)} for sig in filt.signals()
                             if any(filt.table[n].get(sig) for n in game.state_names)},
            receiver_strategy={"m": F(1) if action == 0 else F(0)})
        ok, _ = tf.check_nash_general(game, filt, profile)
        assert ok


def test_check_nash_full_info_obedience_fails(art):
    filt = tf.GeneralFilter.identity(art)
    profile = tf.GeneralProfile(
        sender_strategy={"OG": {"1": F(1)}, "IF": {"1": F(1)}, "DF": {"0": F(1)}},
        receiver_strategy={"0": F(1), "1": F(0)})
    ok, dev = tf.check_nash_general(art, filt, profile)
    assert not ok
    assert isinstance(dev, tf.Deviation)
    assert dev.player == "receiver" and dev.at == "1"


def test_check_nash_rejects_dead_signals(art):
    filt = tf.GeneralFilter({"OG": {"x": F(1)}, "IF": {"x": F(1)}, "DF": {"x": F(1)}})
    profile = tf.GeneralProfile(
        sender_strategy={"x": {"m": F(1)}, "ghost": {"m": F(1)}},
        receiver_strategy={"m": F(1)})
    with pytest.raises(tf.ZeroProbabilitySignal):
        tf.check_nash_general(art, filt, profile)


def test_check_nash_requires_full_coverage(art):
    filt = tf.GeneralFilter.identity(art)
    profile = tf.GeneralProfile(sender_strategy={"OG": {"m": F(1)}},
                                receiver_strategy={"m": F(1)})
    with pytest.raises(ValueError):
        tf.check_nash_general(art, filt, profile)


def test_characterization_matches_exhaustive_search(seeded_games):
    """The message-class conditions agree with brute-force deviation search."""
    games = seeded_games(40, ks=(2, 3, 4), seed0=6300)
    agree = disagree = 0
    for j, game in enumerate(games):
        filt = tf.random_general_filter(game, seed=7300 + j, max_signals=4)
        profile = tf.random_profile(game, filt, seed=7400 + j)
        ok_lemma, _ = tf.check_nash_general(game, filt, profile)
        ok_brute, _ = tf.exhaustive_nash_check(game, filt, profile)
        assert ok_lemma == ok_brute
        agree += ok_lemma
        disagree += not ok_lemma
    # The corpus must exercise both verdicts to mean anything.
    assert agree > 0 and disagree > 0


def test_witness_structure(seeded_games):
    for j, game in enumerate(seeded_games(30, seed0=6500)):
        filt = tf.random_general_filter(game, seed=7500 + j)
        profile = tf.random_profile(game, filt, seed=7600 + j)
        ok, witness = tf.check_nash_general(game, filt, profile)
        if not ok:
            continue
        assert 0 <= witness.l_min <= witness.l_max <= 1
        for message, classes in witness.message_classes.items():
            p0 = profile.receiver_strategy[message]
            if tf.MessageClass.PREFERS_0 in classes:
                assert p0 == witness.l_max
            if tf.MessageClass.PREFERS_1 in classes:
                assert p0 == witness.l_min
            if classes == {tf.MessageClass.INDIFFERENT}:
                assert witness.l_min <= p0 <= witness.l_max
