from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import talkfilter as tf
from talkfilter._simplex import _disagree
from talkfilter.core import MAX_DECIMAL_EXPONENT

F = Fraction


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("1/3", F(1, 3)),
    ("5", F(5)),
    ("-2", F(-2)),
    ("0.25", F(1, 4)),
    ("0.2", F(1, 5)),          # exact decimal, not the nearest double
    ("-7/14", F(-1, 2)),
])
def test_parse_rational(text, expected):
    assert tf.parse_rational(text) == expected


@pytest.mark.parametrize("bad", ["abc", "1/0", "", "1/2/3", 0.1, True,
                                 "3/-4", "3/+4", "1/", "/2", "--1", "1_/2", "+_1"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        tf.parse_rational(bad)


@pytest.mark.parametrize("template", ["1e{}", "1e-{}", "1E{}", "1e+{}", "-2.5E-{}", " 7e{} "])
def test_parse_rational_bounds_exponents(template):
    bound = MAX_DECIMAL_EXPONENT
    with pytest.raises(ValueError):
        tf.parse_rational(template.format(bound + 1))
    assert tf.parse_rational(template.format(bound)) == F(template.format(bound).strip())


def _parsed(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        return "rejected"


_DIGITS = "0123456789" + "\u0660\u0661\u0662\u0663\u0669" + "\uff10\uff11\uff15\uff19"
_SPACE = st.sampled_from(["", " ", "\t", "\n", "\u2003", "\u3000"])
_NUMERAL = st.lists(st.text(alphabet=_DIGITS, min_size=1, max_size=4),
                    min_size=1, max_size=3).map("_".join)
_RATIONAL_TEXT = st.one_of(
    st.tuples(_SPACE, st.sampled_from(["", "+", "-"]), _NUMERAL,
              st.one_of(st.just(""), _NUMERAL.map(lambda n: "/" + n),
                        st.tuples(_SPACE, _SPACE, _NUMERAL).map(
                            lambda t: t[0] + "/" + t[1] + t[2])),
              _SPACE).map("".join),
    st.text(alphabet="019\u0663 _+-/\u2003", max_size=8),
)


@settings(max_examples=400, deadline=None)
@given(_RATIONAL_TEXT)
def test_parse_rational_agrees_with_fraction(text):
    """Integer and a/b text with signs, '_' separators, non-ASCII digits and
    surrounding whitespace parses (or is rejected) exactly as Fraction does."""
    assert _parsed(tf.parse_rational, text) == _parsed(lambda t: F(t.strip()), text)


# ---------------------------------------------------------------------------
# validate_game
# ---------------------------------------------------------------------------

def _state(name, prior, sender, receiver):
    return {"name": name, "prior": prior, "sender_utilities": sender,
            "receiver_utility": receiver}


def test_validate_art_file(art):
    raw = {"type": "transmission", "states": [
        _state("OG", "1/3", [["0", "1"]], ["0", "1"]),
        _state("IF", "1/3", [["0", "1"]], ["0", "-5"]),
        _state("DF", "1/3", [["0", "-5"]], ["0", "-5"]),
    ]}
    game = tf.validate_game(raw)
    assert game == art
    assert len(game.states) == 3 and game.num_senders == 1


def test_validate_single_state():
    game = tf.validate_game({"type": "transmission", "states": [
        _state("only", "1", [["2", "3"]], ["0", "0"])]})
    assert game.states[0].prior == 1


def test_priors_must_sum_to_one():
    with pytest.raises(tf.PriorNotNormalized):
        tf.validate_game({"states": [
            _state("a", "1/2", [["0", "0"]], ["0", "0"]),
            _state("b", "1/3", [["0", "0"]], ["0", "0"])]})


def test_prior_must_be_positive():
    with pytest.raises(tf.NonPositivePrior):
        tf.make_game([("a", "0", ("0", "0"), ("0", "0")),
                      ("b", "1", ("0", "0"), ("0", "0"))])


def test_duplicate_names_rejected():
    with pytest.raises(tf.DuplicateStateName):
        tf.make_game([("a", "1/2", ("0", "0"), ("0", "0")),
                      ("a", "1/2", ("0", "0"), ("0", "0"))])


def test_empty_state_list_rejected():
    with pytest.raises(tf.EmptyStateList):
        tf.validate_game({"states": []})
    with pytest.raises(tf.GameValidationError):
        tf.validate_game({})


def test_sender_count_mismatch():
    with pytest.raises(tf.SenderCountMismatch):
        tf.validate_game({"type": "transmission", "states": [
            _state("a", "1", [["0", "0"], ["0", "0"]], ["0", "0"])]})
    with pytest.raises(tf.SenderCountMismatch):
        tf.validate_game({"type": "aggregation", "states": [
            _state("a", "1/2", [["0", "0"], ["0", "0"]], ["0", "0"]),
            _state("b", "1/2", [["0", "0"]], ["0", "0"])]})
    with pytest.raises(tf.SenderCountMismatch):
        tf.validate_game({"type": "aggregation",
                          "states": [_state("a", "1", [], ["0", "0"])]})


def _game_refuses_as_make_game(states, num_senders, error):
    """Game(records, num_senders) raises make_game's error and message."""
    with pytest.raises(error) as want:
        tf.make_game(states, num_senders)
    records = [tf.StateRecord(name, F(prior), tuple((F(a), F(b)) for a, b in senders),
                              (F(receiver[0]), F(receiver[1])))
               for name, prior, senders, receiver in states]
    with pytest.raises(error) as got:
        tf.Game(records, num_senders)
    assert str(got.value) == str(want.value)


def test_game_constructor_refuses_a_sender_count_mismatch():
    # Two sender pairs with num_senders=1: the second pair is no receiver row.
    _game_refuses_as_make_game([("a", "1/2", [(1, 0), (3, 5)], (0, 7)),
                                ("b", "1/2", [(0, 1), (3, 5)], (0, 7))],
                               1, tf.SenderCountMismatch)


def test_game_constructor_refuses_a_negative_prior():
    _game_refuses_as_make_game([("a", "-1", [(1, 0)], (0, 1)),
                                ("b", "2", [(0, 1)], (1, 0))],
                               1, tf.NonPositivePrior)


def test_game_constructor_refuses_duplicate_state_names():
    _game_refuses_as_make_game([("a", "1/2", [(1, 0)], (0, 1)),
                                ("a", "1/2", [(0, 1)], (1, 0))],
                               1, tf.DuplicateStateName)


def test_binary_filter_range_validation(art):
    with pytest.raises(tf.FilterValidationError):
        tf.BinaryFilter({"OG": F(2), "IF": F(0), "DF": F(0)}).check_for(art)
    with pytest.raises(tf.FilterValidationError):
        tf.evaluate_sigma_s(art, tf.BinaryFilter(
            {"OG": F(-1, 2), "IF": F(0), "DF": F(0)}))


def test_general_filter_distribution_validation(art):
    bad = tf.GeneralFilter({"OG": {"x": F(1, 2)}, "IF": {"x": F(1)},
                            "DF": {"x": F(1)}})
    with pytest.raises(tf.FilterValidationError):
        bad.check_for(art)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def _state_gaps(game):
    """Exact action-0 minus action-1 gaps per state: {name: (sender, receiver)}."""
    view = game.int_view
    return dict(zip(view.names, zip(view.state_gaps(0), view.state_gaps(view.receiver))))


def test_state_deltas_art(art):
    deltas = _state_gaps(art)
    assert deltas["OG"] == (-1, -1)
    assert deltas["DF"] == (5, 5)


def test_state_delta_indifference():
    game = tf.make_game([("a", "1", ("3", "3"), ("1", "2"))])
    assert _state_gaps(game)["a"] == (0, -1)


def test_classify_art(art):
    cls = tf.classify_states(art)
    assert cls.agree1 == {"OG"}
    assert cls.split10 == {"IF"}
    assert cls.agree0 == {"DF"}
    assert cls.split01 == frozenset()


def test_classify_g3(g3):
    cls = tf.classify_states(g3)
    assert cls.agree0 == {"w1"} and cls.agree1 == {"w2"} and cls.split10 == {"w3"}


@pytest.mark.parametrize("sender,receiver,attr", [
    (("1", "1"), ("3", "1"), "agree0"),   # sender indifferent, receiver wants 0
    (("1", "1"), ("1", "3"), "agree1"),   # sender indifferent, receiver wants 1
    (("2", "1"), ("1", "1"), "agree0"),   # receiver indifferent, sender wants 0
    (("1", "2"), ("1", "1"), "agree1"),
    (("1", "1"), ("1", "1"), "agree0"),   # fully indifferent
])
def test_classify_tie_rules(sender, receiver, attr):
    game = tf.make_game([("a", "1", sender, receiver)])
    cls = tf.classify_states(game)
    assert getattr(cls, attr) == {"a"}


def test_classification_partitions(seeded_games):
    for game in seeded_games(20):
        cls = tf.classify_states(game)
        parts = [cls.agree0, cls.agree1, cls.split01, cls.split10]
        union = set().union(*parts)
        assert union == set(game.state_names)
        assert sum(len(p) for p in parts) == len(game.states)
        for rec in game.states:
            sender = rec.sender_utils[0][0] - rec.sender_utils[0][1]
            receiver = rec.receiver_utils[0] - rec.receiver_utils[1]
            if rec.name in cls.split01:
                assert sender > 0 and receiver < 0
            if rec.name in cls.split10:
                assert sender < 0 and receiver > 0


def _classes_by_definition(game, sender_index):
    """The tie rules of StateClassification, on Fraction gaps."""
    classes = {"agree0": set(), "agree1": set(), "split01": set(), "split10": set()}
    for rec in game.states:
        s = rec.sender_utils[sender_index][0] - rec.sender_utils[sender_index][1]
        r = rec.receiver_utils[0] - rec.receiver_utils[1]
        if s > 0 and r < 0:
            label = "split01"
        elif s < 0 and r > 0:
            label = "split10"
        elif s > 0 or (s == 0 and r >= 0):
            label = "agree0"
        else:
            label = "agree1"
        classes[label].add(rec.name)
    return classes


def test_classify_matches_definition_with_ties(seeded_games):
    """Utilities in {-1, 0, 1} make indifferent states common.

    The merge of the identity filter reads the same tie rule as the classes,
    so it sends exactly agree0 and split01 to signal 0.
    """
    games = (seeded_games(30, ks=(3, 6, 9), utility_range=1, seed0=1500)
             + seeded_games(20, ks=(4, 7), num_senders=2, utility_range=1, seed0=1600))
    ties = 0
    for game in games:
        view = game.int_view
        for sidx in range(game.num_senders):
            cls = tf.classify_states(game, sidx)
            expected = _classes_by_definition(game, sidx)
            assert {label: getattr(cls, label) for label in expected} == expected
            dis = _disagree(view.s[sidx], view.s[view.receiver])
            assert dis == sorted(dis)    # state order
            assert {view.names[i] for i in dis} == cls.split01 | cls.split10
            merged = tf.merge_to_binary(game, tf.GeneralFilter.identity(game), sidx)
            assert {n for n, p in merged.signal0_prob.items() if p == 1} == (
                cls.agree0 | cls.split01)
            assert all(p in (0, 1) for p in merged.signal0_prob.values())
            ties += sum(1 for rec in game.states
                        if rec.sender_utils[sidx][0] == rec.sender_utils[sidx][1]
                        or rec.receiver_utils[0] == rec.receiver_utils[1])
    assert ties > 50


def test_classify_sender_index_out_of_range(art):
    """Index 1 on a one-sender game would be the receiver's row of the view."""
    with pytest.raises(IndexError):
        tf.classify_states(art, 1)
    with pytest.raises(IndexError):
        tf.receiver_optimal_filter(art, sender_index=1)
    game = tf.random_game(tf.RandomGameSpec(seed=3, num_states=4))
    for objective in (tf.Objective.RECEIVER, tf.Objective.SENDER):
        for index in (1, -1):
            with pytest.raises(IndexError):
                tf.grid_search(game, tf.GridSpec(resolution=4), objective, sender_index=index)


# ---------------------------------------------------------------------------
# Posterior and signal utilities
# ---------------------------------------------------------------------------

def test_posterior_not_og_signal(art):
    filt = tf.GeneralFilter({"OG": {"1": F(1)}, "IF": {"0": F(1)}, "DF": {"0": F(1)}})
    assert tf.posterior(art, filt, "0") == {"IF": F(1, 2), "DF": F(1, 2)}


def test_posterior_identity_point_mass(art):
    filt = tf.GeneralFilter.identity(art)
    assert tf.posterior(art, filt, "IF") == {"IF": F(1)}


def test_posterior_uninformative_is_prior(art):
    filt = tf.GeneralFilter.uninformative(art)
    post = tf.posterior(art, filt, "*")
    assert post == {name: F(1, 3) for name in art.state_names}


def test_posterior_zero_probability_signal(art):
    filt = tf.GeneralFilter.identity(art)
    with pytest.raises(tf.ZeroProbabilitySignal):
        tf.posterior(art, filt, "nope")


def test_signal_utility_fake(art):
    filt = tf.GeneralFilter({"OG": {"orig": F(1)}, "IF": {"fake": F(1)},
                             "DF": {"fake": F(1)}})
    assert tf.signal_utility(art, filt, "fake", tf.RECEIVER, 1) == -5
    assert tf.signal_utility(art, filt, "fake", 0, 1) == -2


def test_signal_utility_constant_action():
    game = tf.make_game([("a", "1/2", ("7", "1"), ("7", "0")),
                         ("b", "1/2", ("7", "2"), ("7", "3"))])
    filt = tf.GeneralFilter.uninformative(game)
    assert tf.signal_utility(game, filt, "*", 0, 0) == 7
    assert tf.signal_utility(game, filt, "*", tf.RECEIVER, 0) == 7


@pytest.fixture
def ab():
    """Two states a and b, equal priors."""
    return tf.make_game([("a", "1/2", ("1", "0"), ("1", "0")),
                         ("b", "1/2", ("0", "1"), ("0", "1"))])


def test_posterior_and_signal_utility_refuse_a_negative_probability(ab):
    filt = tf.GeneralFilter({"a": {"x": 2, "y": -1}, "b": {"x": 1}})
    for call in (lambda: tf.posterior(ab, filt, "x"),
                 lambda: tf.signal_utility(ab, filt, "y", tf.RECEIVER, 0)):
        with pytest.raises(tf.FilterValidationError,
                           match="negative probability -1 for signal 'y' on state 'a'"):
            call()


def test_posterior_and_signal_utility_refuse_a_missing_state(ab):
    filt = tf.GeneralFilter({"a": {"x": 1}})
    for call in (lambda: tf.posterior(ab, filt, "x"),
                 lambda: tf.signal_utility(ab, filt, "x", 0, 1)):
        with pytest.raises(tf.FilterDomainMismatch, match=r"missing states \['b'\]"):
            call()


@pytest.mark.parametrize("action", [-1, 2, 7, True, 1.0, "0"])
def test_bad_actions_are_refused(ab, action):
    filt = tf.GeneralFilter.uninformative(ab)
    with pytest.raises(ValueError, match=f"action {action!r} is not 0 or 1"):
        tf.signal_utility(ab, filt, "*", tf.RECEIVER, action)
    with pytest.raises(ValueError, match=f"action {action!r} is not 0 or 1"):
        tf.constant_action_value(ab, action)


@pytest.mark.parametrize("player", ["bogus", "0", 0.0, None, False])
def test_signal_utility_refuses_a_player_that_is_no_sender_index(ab, player):
    filt = tf.GeneralFilter.uninformative(ab)
    with pytest.raises(ValueError, match=f"player {player!r} is neither RECEIVER"):
        tf.signal_utility(ab, filt, "*", player, 0)


# ---------------------------------------------------------------------------
# Profile evaluation
# ---------------------------------------------------------------------------

def test_evaluate_sigma_s_art(art, art_optimal_filter):
    value = tf.evaluate_sigma_s(art, art_optimal_filter)
    assert value.sender == F(1, 3) and value.receiver == F(1, 3)


def test_evaluate_sigma_s_constant(art):
    filt = tf.BinaryFilter({name: F(0) for name in art.state_names})
    value = tf.evaluate_sigma_s(art, filt)
    always1 = tf.constant_action_value(art, 1)
    assert value == always1


def test_evaluate_sigma_s_g3_pivot(g3):
    filt = tf.BinaryFilter({"w1": F(1), "w2": F(0), "w3": F(1, 3)})
    value = tf.evaluate_sigma_s(g3, filt)
    assert value.sender == F(4, 3) and value.receiver == F(7, 9)


def test_evaluate_sigma_s_domain_mismatch(art):
    with pytest.raises(tf.FilterDomainMismatch):
        tf.evaluate_sigma_s(art, tf.BinaryFilter({"OG": F(1)}))


def test_evaluate_babbling_art(art):
    action, value = tf.evaluate_babbling(art)
    assert action == 0 and value.sender == 0 and value.receiver == 0


def test_evaluate_babbling_tie_breaks_to_action_0():
    game = tf.make_game([("a", "1", ("0", "9"), ("4", "4"))])
    action, value = tf.evaluate_babbling(game)
    assert action == 0
    assert value.sender == 0 and value.receiver == 4


def test_evaluate_babbling_g3(g3):
    action, value = tf.evaluate_babbling(g3)
    assert action == 0
    assert value.sender == F(1, 3) and value.receiver == F(2, 3)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@st.composite
def small_games(draw, max_states=4):
    k = draw(st.integers(1, max_states))
    weights = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    total = sum(weights)
    util = st.integers(-5, 5)
    rows = []
    for i in range(k):
        rows.append((f"s{i}", F(weights[i], total),
                     (draw(util), draw(util)), (draw(util), draw(util))))
    return tf.make_game(rows)


@st.composite
def games_with_general_filters(draw):
    game = draw(small_games())
    signals = [f"m{j}" for j in range(draw(st.integers(1, 3)))]
    table = {}
    for name in game.state_names:
        weights = draw(st.lists(st.integers(0, 3),
                                min_size=len(signals), max_size=len(signals)))
        if sum(weights) == 0:
            weights[draw(st.integers(0, len(signals) - 1))] = 1
        total = sum(weights)
        table[name] = {s: F(w, total) for s, w in zip(signals, weights) if w}
    return game, tf.GeneralFilter(table)


@settings(max_examples=60, deadline=None)
@given(games_with_general_filters())
def test_posterior_is_distribution(gf):
    game, filt = gf
    for sig in filt.signals():
        try:
            post = tf.posterior(game, filt, sig)
        except tf.ZeroProbabilitySignal:
            continue
        assert sum(post.values()) == 1
        assert all(p >= 0 for p in post.values())


@settings(max_examples=40, deadline=None)
@given(small_games())
def test_uninformative_posterior_equals_prior(game):
    filt = tf.GeneralFilter.uninformative(game)
    post = tf.posterior(game, filt, "*")
    for rec in game.states:
        assert post[rec.name] == rec.prior


@settings(max_examples=40, deadline=None)
@given(small_games(), st.integers(0, 3), st.fractions(0, 1))
def test_sigma_s_linear_in_each_coordinate(game, index, eps):
    """Moving one state's signal probability by eps moves the receiver's
    obey-the-signal value by exactly eps * prior * gap."""
    index %= len(game.states)
    rec = game.states[index]
    base = {name: F(1, 2) for name in game.state_names}
    lo = tf.evaluate_sigma_s(game, tf.BinaryFilter(base))
    moved = dict(base)
    moved[rec.name] = F(1, 2) * (1 - eps) + eps  # stays in [1/2, 1]
    hi = tf.evaluate_sigma_s(game, tf.BinaryFilter(moved))
    shift = moved[rec.name] - F(1, 2)
    gap = rec.receiver_utils[0] - rec.receiver_utils[1]
    assert hi.receiver - lo.receiver == shift * rec.prior * gap
