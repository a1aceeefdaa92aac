from fractions import Fraction

import pytest

import talkfilter as tf
from talkfilter import _simplex

F = Fraction

U0 = tf.CandidateProfile.UNANIMOUS_0
U1 = tf.CandidateProfile.UNANIMOUS_1


# ---------------------------------------------------------------------------
# LP construction
# ---------------------------------------------------------------------------

def test_build_lp_l2(l2, seeded_games):
    """Each LP entry over its player's slack scale is prior * (u0 - u1) from the
    game's records, for both targets; the receiver's scale is lp.scale, and
    each sender's bound over its slack scale is 0 for unanimous-0 and the
    sum of its row for unanimous-1."""
    lp = tf.build_lp(l2, U0)
    assert (lp.objective, lp.rows, lp.bounds, lp.scale) == ((1, -1), ((-1, 2), (2, -1)),
                                                            (0, 0), 2)
    games = seeded_games(12, ks=(1, 2, 5, 9), num_senders=2, seed0=3400,
                         utility_range=100, prior="random-rational")
    for game in [l2, *games]:
        view = game.int_view
        for target in (U0, U1):
            lp = tf.build_lp(game, target)
            assert lp.scale == view.slack_scale(view.receiver)
            for t, row in enumerate((*lp.rows, lp.objective)):
                assert all(type(v) is int for v in row)
                pairs = [(*rec.sender_utils, rec.receiver_utils)[t] for rec in game.states]
                want = [rec.prior * (u0 - u1) for rec, (u0, u1) in zip(game.states, pairs)]
                assert [F(v, view.slack_scale(t)) for v in row] == want
                if t < 2:
                    bound = F(lp.bounds[t], view.slack_scale(t))
                    assert bound == (0 if target is U0 else sum(want))


def test_build_lp_targets_differ_only_in_bounds(l2, seeded_games):
    games = seeded_games(6, ks=(1, 3, 7), num_senders=2, seed0=3450)
    for game in [l2, *games]:
        lp0 = tf.build_lp(game, U0)
        lp1 = tf.build_lp(game, U1)
        assert lp0.bounds == (0, 0)
        assert lp1.bounds == tuple(sum(row) for row in lp1.rows)
        assert lp1._replace(target=U0, bounds=lp0.bounds) == lp0


def test_build_lp_rejects_other_targets(l2):
    with pytest.raises(ValueError):
        tf.build_lp(l2, tf.CandidateProfile.CONSTANT_0)
    with pytest.raises(ValueError):
        tf.receiver_posthoc_ic(l2, tf.CandidateProfile.FOLLOW_SENDER_1, (F(1), F(1)))


def test_build_lp_wrong_sender_count(art):
    with pytest.raises(tf.WrongSenderCount):
        tf.build_lp(art, U0)


# ---------------------------------------------------------------------------
# lp_solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("target,point,message", [
    (U0, ([1, 0, 0], 1), "infeasible point"),       # row 0 is -1
    (U1, ([1, 1, 0], 1), "infeasible point"),       # rows 1 and 1, bounds 2 and 2
    (U0, ([2, 1, 0], 1), "outside the box"),        # rows 0 and 3, x_0 = 2
    (U0, ([1, 1, 1], 2), "vertex property"),        # rows 1 and 1, three entries 1/2
], ids=["infeasible", "below-bounds", "outside-box", "three-fractional"])
def test_lp_solve_rejects_an_infeasible_simplex_point(monkeypatch, target, point, message):
    game = tf.make_game([
        ("a", "1/3", [("0", "1"), ("2", "0")], ("1", "0")),
        ("b", "1/3", [("2", "0"), ("0", "1")], ("0", "1")),
        ("c", "1/3", [("1", "0"), ("1", "0")], ("1", "0")),
    ], num_senders=2)
    lp = tf.build_lp(game, target)
    assert lp.rows == ((-1, 2, 1), (2, -1, 1))
    monkeypatch.setattr(_simplex, "maximize", lambda c, a, ta, b, tb: point)
    with pytest.raises(ArithmeticError, match=message):
        tf.lp_solve(lp)


def test_lp_solve_l2(l2):
    lp = tf.build_lp(l2, U0)
    x, value = tf.lp_solve(lp)
    assert x == (F(1), F(1, 2))
    assert value == F(1, 4)


def test_lp_solve_all_favorable():
    game = tf.make_game([
        ("a", "1/2", [("1", "0"), ("2", "0")], ("3", "0")),
        ("b", "1/2", [("0", "0"), ("1", "0")], ("1", "0")),
    ], num_senders=2)
    lp = tf.build_lp(game, U0)
    x, value = tf.lp_solve(lp)
    assert x == (F(1), F(1))
    assert value == F(2)  # sum of prior-weighted receiver gaps


def test_lp_solve_conflicting_rows_pin_origin():
    game = tf.make_game([
        ("a", "1/2", [("1", "0"), ("1", "0")], ("0", "1")),
        ("b", "1/2", [("0", "2"), ("0", "2")], ("1", "0")),
    ], num_senders=2)
    # A = B = (1, -2), C = (-1, 1): any mass on x2 violates a row unless
    # x2 <= x1/2, and then the objective stays nonpositive.
    lp = tf.build_lp(game, U0)
    x, value = tf.lp_solve(lp)
    assert x == (F(0), F(0))
    assert value == 0


@pytest.mark.parametrize("a,b,c,expected", [
    (("1", "0"), ("1", "0"), ("1", "0"), F(1)),   # everyone favors 0
    (("1", "0"), ("1", "0"), ("0", "1"), F(0)),   # receiver objects
    (("0", "1"), ("1", "0"), ("1", "0"), F(0)),   # sender 1 blocks
])
def test_lp_solve_single_state(a, b, c, expected):
    game = tf.make_game([("only", "1", [a, b], c)], num_senders=2)
    _, value = tf.lp_solve(tf.build_lp(game, U0))
    assert value == expected


def test_lp_solutions_are_vertices(seeded_games):
    for game in seeded_games(40, ks=(2, 3, 4), num_senders=2, seed0=3000):
        for target in (U0, U1):
            lp = tf.build_lp(game, target)
            x, value = tf.lp_solve(lp)
            assert sum(1 for v in x if 0 < v < 1) <= 2
            assert all(0 <= v <= 1 for v in x)
            for row, t in zip(lp.rows, lp.bounds):
                assert sum(r * v for r, v in zip(row, x)) >= t
            assert value * lp.scale == sum(c * v for c, v in zip(lp.objective, x))


def _highs_value(linprog, lp):
    """The LP's optimum in floats, from scipy's HiGHS.

    The objective goes in over lp.scale, so the optimum is the LP's value;
    each row and its bound over the row's largest entry, which keeps their
    floats in range.
    """
    tops = [max(map(abs, row)) or 1 for row in lp.rows]
    res = linprog(
        c=[-float(F(v, lp.scale)) for v in lp.objective],
        A_ub=[[-float(F(v, top)) for v in row] for row, top in zip(lp.rows, tops)],
        b_ub=[-float(F(t, top)) for t, top in zip(lp.bounds, tops)],
        bounds=[(0.0, 1.0)] * len(lp.objective),
        method="highs")
    assert res.status == 0
    return -res.fun


def test_lp_matches_scipy(seeded_games):
    linprog = pytest.importorskip("scipy.optimize").linprog
    for game in seeded_games(25, ks=(2, 3, 4), num_senders=2, seed0=3100):
        lp = tf.build_lp(game, U0)
        _, value = tf.lp_solve(lp)
        assert abs(float(value) - _highs_value(linprog, lp)) < 1e-9


@pytest.mark.parametrize("k", [50, 200, 2000, 10000])
@pytest.mark.parametrize("utility_range,prior", [(5, "uniform"), (100, "random-rational")])
def test_large_lp_matches_scipy(k, utility_range, prior):
    linprog = pytest.importorskip("scipy.optimize").linprog
    for seed in (3300 + k, 3301 + k):
        game = tf.random_game(tf.RandomGameSpec(
            seed=seed, num_states=k, num_senders=2, utility_range=utility_range, prior=prior))
        for target in (U0, U1):
            lp = tf.build_lp(game, target)
            _, value = tf.lp_solve(lp)
            assert float(value) == pytest.approx(_highs_value(linprog, lp), rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# Post-hoc receiver check
# ---------------------------------------------------------------------------

def test_posthoc_l2(l2):
    assert tf.receiver_posthoc_ic(l2, U0, (F(1), F(1, 2)))


def test_posthoc_all_zero_vector(l2):
    # Trigger branch is vacuous; the other branch demands the receiver
    # prefer action 1 unconditionally.
    total = sum(rec.prior * (rec.receiver_utils[0] - rec.receiver_utils[1])
                for rec in l2.states)
    assert tf.receiver_posthoc_ic(l2, U0, (F(0), F(0))) == (total <= 0)


def test_posthoc_matches_definition_for_both_targets(seeded_games):
    """The receiver obeys the unanimous report: on signal 0 (mass x, the LP's
    variables for both targets) she weakly prefers action 0, on signal 1
    action 1. Utilities in {-1, 0, 1} make zero slacks common."""
    games = seeded_games(30, ks=(2, 3, 4, 5), num_senders=2, utility_range=1, seed0=3500)
    verdicts = set()
    for j, game in enumerate(games):
        rng = tf.SplitMix64(j)
        k = len(game.states)
        for target in (U0, U1):
            vectors = [tf.lp_solve(tf.build_lp(game, target))[0],
                       (F(0),) * k, (F(1),) * k]
            vectors += [tuple(F(rng.below(5), 4) for _ in range(k)) for _ in range(4)]
            for x in vectors:
                on_signal0 = on_signal1 = F(0)
                for rec, xi in zip(game.states, x):
                    gap = rec.receiver_utils[0] - rec.receiver_utils[1]
                    on_signal0 += rec.prior * xi * gap
                    on_signal1 -= rec.prior * (1 - xi) * gap
                expected = on_signal0 >= 0 and on_signal1 >= 0
                assert tf.receiver_posthoc_ic(game, target, x) == expected
                verdicts.add((target, expected))
    assert len(verdicts) == 4


def test_posthoc_opposed_interests_infeasible():
    game = tf.make_game([
        ("a", "1/2", [("0", "1"), ("0", "1")], ("1", "0")),
        ("b", "1/2", [("0", "2"), ("0", "3")], ("2", "0")),
    ], num_senders=2)
    # Any mass on signal 1 leaves the receiver preferring 0 there.
    for x in ((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0))):
        assert not tf.receiver_posthoc_ic(game, U0, x)
    # The senders' rows pin the LP at the origin, which fails the check too.
    x, value = tf.lp_solve(tf.build_lp(game, U0))
    assert x == (F(0), F(0)) and value == 0
    assert not tf.receiver_posthoc_ic(game, U0, x)
    best, candidates = tf.two_sender_optimal(game)
    byname = {c.profile: c for c in candidates}
    assert not byname[U0].feasible
    # The receiver can do no better than her unconditional action: the
    # winning candidate is the degenerate unanimous-1 profile whose filter
    # never triggers, outcome-identical to constant-0.
    const0 = byname[tf.CandidateProfile.CONSTANT_0]
    assert const0.feasible
    assert best.receiver_utility == const0.receiver_utility == F(3, 2)
    assert best.profile is U1
    assert all(x == 1 for x in best.filter.signal0_prob.values())


def test_posthoc_and_feasible_are_the_value_test():
    """Obeying a unanimous report is a receiver best response at the LP's
    vertex exactly when the LP value is at least max(0, sum(objective)), so
    the verdict does not depend on which optimal vertex the solver returns.
    Seeded games with k = 1..20, utility ranges 1 and 5, both priors."""
    verdicts = set()
    for k in range(1, 21):
        for utility_range in (1, 5):
            for prior in ("uniform", "random-rational"):
                for rep in range(2):
                    game = tf.random_game(tf.RandomGameSpec(
                        seed=90000 + 100 * k + 10 * utility_range + 2 * rep
                        + (prior == "uniform"), num_states=k, num_senders=2,
                        utility_range=utility_range, prior=prior))
                    _, candidates = tf.two_sender_optimal(game)
                    byname = {c.profile: c for c in candidates}
                    for target in (U0, U1):
                        lp = tf.build_lp(game, target)
                        x, value = tf.lp_solve(lp)
                        expected = value * lp.scale >= max(0, sum(lp.objective))
                        assert tf.receiver_posthoc_ic(game, target, x) == expected
                        cand = byname[target]
                        assert cand.feasible == expected
                        assert (cand.filter is None) == (not expected)
                        verdicts.add((target, expected))
    assert len(verdicts) == 4


# ---------------------------------------------------------------------------
# two_sender_optimal
# ---------------------------------------------------------------------------

def test_two_sender_optimal_l2(l2):
    best, candidates = tf.two_sender_optimal(l2)
    byname = {c.profile: c for c in candidates}
    # The unanimous-0 LP value: constant term 1/2 plus LP optimum 1/4.
    u0 = byname[U0]
    assert u0.feasible and u0.receiver_utility == F(3, 4)
    assert u0.filter.signal0_prob == {"w1": F(1), "w2": F(1, 2)}
    # Sender 2's interests align with the receiver, so following sender 2
    # yields the full-information optimum and dominates the LP candidate.
    assert best.profile is tf.CandidateProfile.FOLLOW_SENDER_2
    assert best.receiver_utility == F(1)
    grid_value, _, grid_profile = tf.two_sender_grid_search(
        l2, tf.GridSpec(resolution=8))
    assert grid_value == F(1)
    assert grid_profile is tf.CandidateProfile.FOLLOW_SENDER_2


def test_two_sender_fully_aligned_gets_pointwise_max():
    game = tf.make_game([
        ("a", "1/3", [("2", "0"), ("2", "0")], ("2", "0")),
        ("b", "1/3", [("0", "1"), ("0", "1")], ("0", "1")),
        ("c", "1/3", [("4", "1"), ("4", "1")], ("4", "1")),
    ], num_senders=2)
    best, _ = tf.two_sender_optimal(game)
    pointwise = sum(rec.prior * max(rec.receiver_utils) for rec in game.states)
    assert best.receiver_utility == pointwise


def test_two_sender_candidate_order_is_tiebreak():
    game = tf.make_game([
        ("a", "1/2", [("1", "0"), ("1", "0")], ("1", "0")),
        ("b", "1/2", [("0", "1"), ("0", "1")], ("0", "1")),
    ], num_senders=2)
    best, candidates = tf.two_sender_optimal(game)
    top = max(c.receiver_utility for c in candidates if c.feasible)
    firsts = [c for c in candidates if c.feasible and c.receiver_utility == top]
    assert best.profile is firsts[0].profile


def test_fully_indifferent_state_gets_signal_0_everywhere():
    """State c leaves every player indifferent (u0 = u1). Both unanimous LPs
    share one row form in signal-0 variables, so their tie rule is the
    follow-sender filters' and the classifier's: c is sent signal 0."""
    game = tf.make_game([
        ("a", "1/4", [("2", "0"), ("1", "0")], ("3", "0")),
        ("b", "1/4", [("0", "1"), ("0", "2")], ("0", "1")),
        ("c", "1/4", [("1", "1"), ("5", "5")], ("2", "2")),
        ("d", "1/4", [("0", "3"), ("1", "0")], ("0", "2")),
    ], num_senders=2)
    _, candidates = tf.two_sender_optimal(game)
    filtered = [c for c in candidates if c.filter is not None]
    assert [c.profile for c in filtered] == [U0, U1, tf.CandidateProfile.FOLLOW_SENDER_1,
                                             tf.CandidateProfile.FOLLOW_SENDER_2]
    assert all(c.filter.signal0_prob["c"] == 1 for c in filtered)
    for sender in range(2):
        assert "c" in tf.classify_states(game, sender).agree0


def test_two_sender_wrong_count(art):
    with pytest.raises(tf.WrongSenderCount):
        tf.two_sender_optimal(art)


def _unanimous_is_nash(game, x, target):
    """Direct deviation check of the unanimous profile at signal-0
    probabilities x, from raw utilities."""
    trigger = 0 if target is U0 else 1
    other = 1 - trigger
    # The trigger signal's mass: x on signal 0, 1 - x on signal 1.
    mass = [xi if trigger == 0 else 1 - xi for xi in x]
    # Sender deviation matters only on the trigger signal (the other signal
    # already commits the receiver); flipping the report moves the action
    # from trigger to other on that signal's mass.
    for sender in range(2):
        gain = F(0)
        for rec, m in zip(game.states, mass):
            gain += rec.prior * m * (rec.sender_utils[sender][other]
                                     - rec.sender_utils[sender][trigger])
        if gain > 0:
            return False
    # Receiver: obey on both information sets.
    on_trigger = F(0)
    on_other = F(0)
    for rec, m in zip(game.states, mass):
        on_trigger += rec.prior * m * (rec.receiver_utils[trigger]
                                       - rec.receiver_utils[other])
        on_other += rec.prior * (1 - m) * (rec.receiver_utils[other]
                                           - rec.receiver_utils[trigger])
    return on_trigger >= 0 and on_other >= 0


def test_feasible_unanimous_candidates_are_nash(seeded_games):
    for game in seeded_games(40, ks=(2, 3, 4), num_senders=2, seed0=3200):
        _, candidates = tf.two_sender_optimal(game)
        for cand in candidates:
            if cand.profile in (U0, U1) and cand.feasible:
                lp = tf.build_lp(game, cand.profile)
                x, _ = tf.lp_solve(lp)
                assert _unanimous_is_nash(game, x, cand.profile)


def test_two_sender_beats_grid(seeded_games):
    for game in seeded_games(30, ks=(2, 3), num_senders=2, seed0=3300):
        best, _ = tf.two_sender_optimal(game)
        grid_value, grid_filter, _ = tf.two_sender_grid_search(game, tf.GridSpec(resolution=8))
        assert best.receiver_utility >= grid_value
        assert grid_value == tf.evaluate_sigma_s(game, grid_filter).receiver


# ---------------------------------------------------------------------------
# majority_outcome
# ---------------------------------------------------------------------------

def test_majority_art_three_sellers():
    rows = [
        ("OG", "1/3", [("0", "1")] * 3, ("0", "1")),
        ("IF", "1/3", [("0", "1")] * 3, ("0", "-5")),
        ("DF", "1/3", [("0", "-5")] * 3, ("0", "-5")),
    ]
    game = tf.make_game(rows, num_senders=3)
    actions, utilities = tf.majority_outcome(game)
    assert actions == {"OG": 1, "IF": 0, "DF": 0}
    assert utilities.receiver == F(1, 3)
    assert utilities.senders == (F(1, 3),) * 3


def test_majority_dominant_action():
    game = tf.make_game([
        ("a", "1/2", [("0", "1")] * 3, ("5", "1")),
        ("b", "1/2", [("2", "0")] * 3, ("3", "0")),
    ], num_senders=3)
    actions, utilities = tf.majority_outcome(game)
    assert actions == {"a": 0, "b": 0}
    assert utilities.receiver == F(4)


def test_majority_single_state_and_tie():
    game = tf.make_game([("a", "1", [("1", "9")] * 4, ("7", "7"))], num_senders=4)
    actions, utilities = tf.majority_outcome(game)
    assert actions == {"a": 0}  # tie goes to action 0
    assert utilities.receiver == 7
    assert utilities.senders == (F(1),) * 4


def test_majority_wrong_count(l2):
    with pytest.raises(tf.WrongSenderCount):
        tf.majority_outcome(l2)


def test_majority_is_pointwise_max(seeded_games):
    for game in seeded_games(15, ks=(2, 3, 4), num_senders=3, seed0=3400):
        _, utilities = tf.majority_outcome(game)
        pointwise = sum(rec.prior * max(rec.receiver_utils) for rec in game.states)
        assert utilities.receiver == pointwise
        # The receiver's choice per state, ties to 0; each sender is paid at it.
        choice = {rec.name: 0 if rec.receiver_utils[0] >= rec.receiver_utils[1] else 1
                  for rec in game.states}
        for j in range(game.num_senders):
            assert utilities.senders[j] == sum(
                rec.prior * rec.sender_utils[j][choice[rec.name]] for rec in game.states)
