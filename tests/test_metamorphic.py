"""Exact metamorphic relations of the profile evaluators and the optimizers.

Each relation changes a seeded game, and the general filter on it, in a way
whose effect on every answer is known exactly. For player t:

- scale: t's utilities times LAMBDA = 3/7. t's values scale by LAMBDA;
  every other value, verdict, deviation witness and optimal filter stays.
- shift: a per-state constant c(w) added to both of t's utilities. t's
  values shift by sum prior(w) * c(w); the rest stays.
- split: one state becomes two adjacent copies, each with half its prior,
  and its filter row is copied. Every value, witness and optimal utility
  stays.
- permute: the states are reordered and the filter rows follow. The
  values, verdicts and optimal utilities stay.

The answers are those of ``profile_value``, ``exhaustive_nash_check``,
``receiver_optimal_filter``, ``sender_optimal_filter`` and, on two-sender
games, ``two_sender_optimal``. Swapping the two actions is left out: the
tie rule, which breaks ties towards action 0, is not symmetric.

Run as a script (``PYTHONPATH=src python tests/test_metamorphic.py``) where
pytest is not installed.
"""
from fractions import Fraction

import talkfilter as tf
from reference_checks import rational_game

LAMBDA = Fraction(3, 7)
RUNS = (tf.receiver_optimal_filter, tf.sender_optimal_filter)


def cases():
    """Seeded (game, seed) pairs with 1-3 senders: 300 games on 1-6 states and six on 50
    and 1,000.

    On the small games ``random_game``'s integer utilities under both priors
    alternate with ``rational_game``'s mixed denominators. The seed draws the
    general filter and profile, then each relation's player, constants, split
    state and permutation.
    """
    for seed in range(150):
        yield tf.random_game(tf.RandomGameSpec(
            seed=97000 + seed, num_states=1 + seed % 6, num_senders=1 + seed % 3,
            utility_range=(1, 5, 100)[seed % 3],
            prior=("uniform", "random-rational")[seed // 3 % 2])), seed
        yield rational_game(98000 + seed), seed + 1000
    for seed in range(6):
        yield tf.random_game(tf.RandomGameSpec(
            seed=99000 + seed, num_states=(50, 1000)[seed % 2], num_senders=1 + seed % 3,
            utility_range=100, prior="random-rational")), seed + 2000


def rows(game: tf.Game) -> list:
    """Each state as [name, prior, per-player (u0, u1) pairs]."""
    return [[rec.name, rec.prior, [*rec.sender_utils, rec.receiver_utils]]
            for rec in game.states]


def rebuild(game: tf.Game, states: list) -> tf.Game:
    return tf.make_game([(name, prior, utils[:-1], utils[-1]) for name, prior, utils in states],
                        num_senders=game.num_senders)


def utilities(profile: tf.UtilityProfile) -> list[Fraction]:
    return [*profile.senders, profile.receiver]


def answers(game: tf.Game, filt: tf.GeneralFilter, profile: tf.GeneralProfile) -> dict:
    senders = range(game.num_senders)
    return {
        "value": utilities(tf.profile_value(game, filt, profile)),
        "nash": [tf.exhaustive_nash_check(game, filt, profile, s) for s in senders],
        "optimal": [run(game, s) for run in RUNS for s in senders],
        "two": tf.two_sender_optimal(game) if game.num_senders == 2 else None,
    }


def check_affine(game: tf.Game, filt, profile, want: dict, t: int, change) -> None:
    """Change player t's utilities by u -> change(w, u): t's values map as the
    expectation does, and every filter, verdict and witness stays."""
    states = rows(game)
    for i, (_, _, utils) in enumerate(states):
        utils[t] = tuple(change(i, u) for u in utils[t])
    changed = rebuild(game, states)
    # The expected value of change(w, u) is linear in u: map 0 and 1 through it.
    zero = sum(rec.prior * change(i, 0) for i, rec in enumerate(game.states))
    slope = sum(rec.prior * change(i, 1) for i, rec in enumerate(game.states)) - zero

    def mapped(values: list[Fraction], players: range = range(game.num_senders + 1)
               ) -> list[Fraction]:
        return [v * slope + zero if p == t else v for p, v in zip(players, values)]

    got = answers(changed, filt, profile)
    assert got["value"] == mapped(want["value"])
    assert got["nash"] == want["nash"]
    for a, b in zip(want["optimal"], got["optimal"]):
        assert b.filter == a.filter and b.outcome.kind == a.outcome.kind
        assert (b.pivot_state, b.pivot_q) == (a.pivot_state, a.pivot_q)
        assert utilities(b.outcome.utilities) == mapped(utilities(a.outcome.utilities))
    if want["two"]:
        for a, b in zip(want["two"][1], got["two"][1]):
            assert (b.profile, b.filter, b.feasible) == (a.profile, a.filter, a.feasible)
            assert [b.receiver_utility] == mapped([a.receiver_utility], range(2, 3))
        assert got["two"][0].profile == want["two"][0].profile


def optimum(result: tf.OptimizerResult, sender: int) -> Fraction:
    """The objective player's value: the optimum, which no tie rule changes."""
    values = result.outcome.utilities
    return values.receiver if result.objective is tf.Objective.RECEIVER else values.senders[sender]


def outcome_values(game: tf.Game, result: dict) -> dict:
    """What a split or a permutation keeps: values, verdicts and optima."""
    two = result["two"]
    return {
        "value": result["value"],
        "verdict": [ok for ok, _ in result["nash"]],
        "optimal": [optimum(r, i % game.num_senders) for i, r in enumerate(result["optimal"])],
        "two": two and [(c.profile, c.receiver_utility, c.feasible) for c in two[1]],
    }


def check_split(game: tf.Game, filt, profile, want: dict, i: int) -> None:
    states = rows(game)
    name, prior, utils = states[i]
    states[i:i + 1] = [[name, prior / 2, utils], [name + "+", prior / 2, utils]]
    table = {}
    for state, row in filt.table.items():
        table[state] = row
        if state == name:
            table[name + "+"] = row
    split = rebuild(game, states)
    got = answers(split, tf.GeneralFilter(table), profile)
    assert outcome_values(split, got) == outcome_values(game, want)
    assert got["nash"] == want["nash"]
    # The copies keep every player's gap ratio and stay adjacent, so the
    # walk takes the same path: every player's optimal utility stays.
    assert ([utilities(r.outcome.utilities) for r in got["optimal"]]
            == [utilities(r.outcome.utilities) for r in want["optimal"]])


def check_permute(game: tf.Game, filt, profile, want: dict, order: list[int]) -> None:
    states = rows(game)
    permuted = rebuild(game, [states[i] for i in order])
    table = {states[i][0]: filt.table[states[i][0]] for i in order}
    got = answers(permuted, tf.GeneralFilter(table), profile)
    assert outcome_values(permuted, got) == outcome_values(game, want)


def test_metamorphic_relations():
    checked, verdicts = 0, set()
    for game, seed in cases():
        filt = tf.random_general_filter(game, seed=seed)
        profile = tf.random_profile(game, filt, seed=seed + 1)
        want = answers(game, filt, profile)
        verdicts.update(ok for ok, _ in want["nash"])
        rng = tf.SplitMix64(seed + 7)
        k, players = len(game.states), game.num_senders + 1
        check_affine(game, filt, profile, want, rng.below(players), lambda i, u: LAMBDA * u)
        shift = [Fraction(rng.below(21) - 10, 1 + rng.below(4)) for _ in range(k)]
        check_affine(game, filt, profile, want, rng.below(players), lambda i, u: u + shift[i])
        check_split(game, filt, profile, want, rng.below(k))
        order = list(range(k))
        for j in range(k - 1, 0, -1):   # Fisher-Yates
            r = rng.below(j + 1)
            order[j], order[r] = order[r], order[j]
        check_permute(game, filt, profile, want, order)
        checked += 1
    assert checked == 306 and verdicts == {True, False}


if __name__ == "__main__":
    test_metamorphic_relations()
    print("metamorphic relations hold")
