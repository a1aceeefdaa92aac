"""The oracle's evaluators and the LP search against their references, on a small seeded set.

``oracle_reference`` sums every (state, signal, message) term of a
profile's utilities, and ``simplex_reference`` is an exact Fraction Bland
simplex. On seeded games, with ``random_game``'s integer utilities and
``rational_game``'s mixed denominators and decimal strings, one to three
senders, ``profile_value`` and ``exhaustive_nash_check`` must return exactly
the reference's utilities, verdicts and deviation witnesses. On seeded
two-sender LPs at both unanimous targets, ``_simplex.maximize`` must return
a point in the box, feasible, with at most two fractional entries, worth
the reference's optimum.

``test_oracle_reference`` and ``test_simplex_reference`` run larger sets
with these helpers. Run as a script
(``PYTHONPATH=src python tests/reference_checks.py``) where pytest is not
installed.
"""
from decimal import Decimal
from fractions import Fraction

import oracle_reference
import simplex_reference
import talkfilter as tf
from talkfilter import _simplex

TARGETS = (tf.CandidateProfile.UNANIMOUS_0, tf.CandidateProfile.UNANIMOUS_1)


def rational_game(seed: int) -> tf.Game:
    """A seeded ``make_game`` game on 1-6 states and 1-3 senders, with mixed denominators.

    Each of the first k - 1 priors is n / (4 * k * d), d from 1, 2, 3, 5, 7
    and 10, and the last takes the rest of 1. Utilities are n / d, n from
    -20 to 20 and d from 1, 2, 3, 4, 5, 8 and 12. A value is spelled as a
    Fraction, an int, an "n/d" string or, where its denominator divides
    10^4, a decimal string.
    """
    rng = tf.SplitMix64(seed)
    k, num_senders = 1 + rng.below(6), 1 + rng.below(3)

    def spelled(x: Fraction):
        kind = rng.below(4)
        if kind == 0 and x.denominator == 1:
            return x.numerator
        if kind == 1 and 10 ** 4 % x.denominator == 0:
            return str(Decimal(x.numerator) / Decimal(x.denominator))
        if kind == 2:
            return f"{x.numerator}/{x.denominator}"
        return x

    def utility():
        return spelled(Fraction(rng.below(41) - 20, (1, 2, 3, 4, 5, 8, 12)[rng.below(7)]))

    priors = [Fraction(1 + rng.below(4), 4 * k * (1, 2, 3, 5, 7, 10)[rng.below(6)])
              for _ in range(k - 1)]
    priors.append(1 - sum(priors))
    return tf.make_game([(f"w{i}", spelled(prior),
                          [(utility(), utility()) for _ in range(num_senders)],
                          (utility(), utility()))
                         for i, prior in enumerate(priors)], num_senders=num_senders)


def check_evaluators(game: tf.Game, seed: int, profiles: int = 3) -> set[str]:
    """Compare both evaluators with the reference on seeded filters and profiles.

    Returns the outcomes seen: "nash", or the player of the first deviation.
    """
    outcomes = set()
    for j in range(profiles):
        filt = tf.random_general_filter(game, seed=seed * 10 + j)
        profile = tf.random_profile(game, filt, seed=seed * 10 + j + 5)
        got = tf.profile_value(game, filt, profile)
        want = oracle_reference.profile_value(game, filt, profile)
        assert got == want, (seed, j, got, want)
        for sender in range(game.num_senders):
            got = tf.exhaustive_nash_check(game, filt, profile, sender)
            want = oracle_reference.exhaustive_nash_check(game, filt, profile, sender)
            assert got == want, (seed, j, sender, got, want)
            outcomes.add(got[1]["player"] if got[1] else "nash")
    return outcomes


def reference_value(lp: tf.LPInstance) -> Fraction:
    """The reference's optimum of an LPInstance, times lp.scale.

    Unanimous-1 is max s_r.x subject to s_j.x >= sum(s_j); in y = 1 - x it
    is sum(s_r) plus max -s_r.y subject to -s_j.y >= 0.
    """
    if lp.target is tf.CandidateProfile.UNANIMOUS_0:
        return simplex_reference.maximize(lp.objective, lp.rows)[1]
    neg = [[-v for v in row] for row in (lp.objective, *lp.rows)]
    return sum(lp.objective) + simplex_reference.maximize(neg[0], neg[1:])[1]


def check_lp(lp: tf.LPInstance) -> None:
    """``maximize``'s point on the LP: integers in the box, feasible, a vertex, optimal."""
    (a, b), (ta, tb) = lp.rows, lp.bounds
    xnum, den = _simplex.maximize(lp.objective, a, ta, b, tb)
    assert all(type(v) is int for v in [*xnum, den]) and den > 0
    x = [Fraction(v, den) for v in xnum]
    assert sum(c * v for c, v in zip(lp.objective, x)) == reference_value(lp), lp
    assert all(0 <= v <= 1 for v in x)
    assert sum(1 for v in x if 0 < v < 1) <= 2
    for row, t in zip(lp.rows, lp.bounds):
        assert sum(r * v for r, v in zip(row, x)) >= t


def main() -> None:
    outcomes = set()
    for seed in range(60):
        game = tf.random_game(tf.RandomGameSpec(
            seed=83000 + seed, num_states=1 + seed % 8, num_senders=1 + seed % 3,
            utility_range=(0, 1, 5)[seed % 3],
            prior=("uniform", "random-rational")[seed % 2]))
        outcomes |= check_evaluators(game, seed)
        outcomes |= check_evaluators(rational_game(84000 + seed), seed)
    assert outcomes == {"sender", "receiver", "nash"}, outcomes
    for seed in range(60):
        game = tf.random_game(tf.RandomGameSpec(
            seed=85000 + seed, num_states=(2, 3, 5, 8, 13, 30)[seed % 6], num_senders=2,
            utility_range=(1, 100)[seed % 2], prior="random-rational"))
        for target in TARGETS:
            check_lp(tf.build_lp(game, target))
    print("evaluators and LP search match their references")


if __name__ == "__main__":
    main()
