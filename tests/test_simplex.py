import hashlib
from fractions import Fraction
from operator import mul

import pytest

import reference_checks
from talkfilter import (CandidateProfile, RandomGameSpec, SplitMix64, build_lp, lp_solve,
                        random_game)
from talkfilter import _simplex
from talkfilter._simplex import maximize

F = Fraction


def solve(c, a=None, b=None, ta=0, tb=0):
    """maximize on integer lists (absent rows are zero rows) subject to a.x >= ta
    and b.x >= tb, as Fractions (x, value)."""
    zero = [0] * len(c)
    xnum, den = maximize(c, a or zero, ta, b or zero, tb)
    return [F(v, den) for v in xnum], F(sum(map(mul, c, xnum)), den)


def test_unconstrained_box_goes_to_corners():
    x, value = solve([3, -2, 0])
    assert x[:2] == [F(1), F(0)] and x[2] in (0, 1)   # x[2] is worth nothing
    assert value == 3


def test_single_row_blocks_entering():
    # max x1 + x2 with x1 - x2 >= 0: x2 can rise only as far as x1.
    x, value = solve([1, 1], b=[1, -1])
    assert value == 2
    assert x == [F(1), F(1)]


def test_binding_row_forces_fraction():
    # max x2 subject to x1 - 2*x2 >= 0: best is x1 = 1, x2 = 1/2.
    x, value = solve([0, 1], b=[1, -2])
    assert value == F(1, 2)
    assert x == [F(1), F(1, 2)]


def test_degenerate_origin_terminates():
    # Both rows bind at the origin and the objective cannot move.
    x, value = solve([1, 1], [-1, -1], [-2, -1])
    assert value == 0
    assert x == [F(0), F(0)]


def test_random_instances_match_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = SplitMix64(123)
    for _ in range(40):
        n = 2 + rng.below(4)
        c = [rng.below(11) - 5 for _ in range(n)]
        rows = [[rng.below(11) - 5 for _ in range(n)] for _ in range(2)]
        x, value = solve(c, *rows)
        assert all(0 <= v <= 1 for v in x)
        for row in rows:
            assert sum(r * v for r, v in zip(row, x)) >= 0
        res = linprog(
            c=[-float(v) for v in c],
            A_ub=[[-float(v) for v in row] for row in rows],
            b_ub=[0.0, 0.0],
            bounds=[(0.0, 1.0)] * n,
            method="highs")
        assert res.status == 0
        assert abs(float(value) + res.fun) < 1e-9


def test_thresholds_move_the_rows():
    # max -x1 - x2 subject to x1 + 2*x2 >= 1 and 2*x1 + x2 >= 1: x1 = x2 = 1/3.
    x, value = solve([-1, -1], [1, 2], [2, 1], 1, 1)
    assert x == [F(1, 3), F(1, 3)] and value == F(-2, 3)
    # The same LP in y = 1 - x: -y1 - 2*y2 >= -2 and -2*y1 - y2 >= -2.
    y, mirrored = solve([1, 1], [-1, -2], [-2, -1], -2, -2)
    assert y == [F(2, 3), F(2, 3)] and mirrored == 2 + value


def test_random_thresholds_match_scipy():
    """Nonzero thresholds row.x0 - d, for a random 0/1 point x0 and d in 0..2,
    so that every instance is feasible."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = SplitMix64(321)
    nonzero = 0
    for _ in range(60):
        n = 2 + rng.below(5)
        c = [rng.below(11) - 5 for _ in range(n)]
        rows = [[rng.below(11) - 5 for _ in range(n)] for _ in range(2)]
        x0 = [rng.below(2) for _ in range(n)]
        bounds = [sum(map(mul, row, x0)) - rng.below(3) for row in rows]
        nonzero += all(bounds)
        x, value = solve(c, rows[0], rows[1], *bounds)
        assert all(0 <= v <= 1 for v in x)
        for row, t in zip(rows, bounds):
            assert sum(r * v for r, v in zip(row, x)) >= t
        res = linprog(
            c=[-float(v) for v in c],
            A_ub=[[-float(v) for v in row] for row in rows],
            b_ub=[-float(t) for t in bounds],
            bounds=[(0.0, 1.0)] * n,
            method="highs")
        assert res.status == 0
        assert abs(float(value) + res.fun) < 1e-9
    assert nonzero >= 20


def test_kernel_stops_are_exact():
    """Each ``_solve`` stop's pivot entry makes its row bind, reduced with den > 0, on
    seeded rows with ties, starts that meet the row, empty rows and Kelley's
    adversary; ``_cut``'s totals are the Fraction sums at its point."""
    reference_checks.check_stops()


def test_certificate_refuses_a_search_stopped_one_step_early(monkeypatch):
    """Stop the multiplier search one kernel call early: that call reports
    lo's intercept and slope, so h at its lam lies on lo's line and the
    search mixes two bracket points that are not both optimal. The mix is
    feasible, so only the dual certificate can refuse it."""
    real_cut = _simplex._cut
    refused = 0
    for seed in range(10):
        game = random_game(RandomGameSpec(seed=4400 + seed, num_states=12, num_senders=2,
                                          utility_range=100, prior="random-rational"))
        for target in (CandidateProfile.UNANIMOUS_0, CandidateProfile.UNANIMOUS_1):
            lp = build_lp(game, target)
            cuts = []

            def counted(*args):
                cuts.append(real_cut(*args))
                return cuts[-1]

            monkeypatch.setattr(_simplex, "_cut", counted)
            lp_solve(lp)
            if len(cuts) < 4:          # no cutting-plane call before the stop
                continue
            stop, cuts = len(cuts) - 1, []

            def early(*args):
                cut = counted(*args)
                if len(cuts) == stop:
                    lo = next(k for k in reversed(cuts[:-1]) if k.g < 0)
                    return cut._replace(cx=lo.cx, g=lo.g, den=lo.den)
                return cut

            monkeypatch.setattr(_simplex, "_cut", early)
            with pytest.raises(ArithmeticError, match="certificate"):
                lp_solve(lp)
            refused += 1
    assert refused >= 5


# maximize's path on fixed LPs, recorded from the Fraction search that the
# integer one replaced: a digest of its (xnum, den) and its kernel calls.
# Seeded LPs are build_lp of RandomGameSpec(seed, k, 2 senders, utility range
# 100, random-rational prior) at both unanimous targets; 13 of the 20 stop
# by mixing the bracket ends.
PINNED_SEEDED = {
    (9100, 6): (("7facd9269c0a97da", 1), ("340c246d98bd510f", 4)),
    (9101, 6): (("b44a5e13841e5533", 6), ("63d2a5d7d8146e0b", 5)),
    (9102, 6): (("8466d8de27e9a212", 6), ("8f1fb65b3b9950c7", 1)),
    (9103, 6): (("cc8518773cc19b31", 4), ("340c246d98bd510f", 1)),
    (9100, 12): (("c6f2bf07cb4cc25f", 7), ("36812a2e7f5e2b19", 6)),
    (9101, 12): (("8b1e18db3087d59c", 5), ("4b28146f280140d0", 6)),
    (9102, 12): (("42fdedcf3ec87bd3", 5), ("1e18f5a3b76b9d0a", 1)),
    (9103, 12): (("4af4284d6b53fa42", 1), ("f1b89b35802da590", 6)),
    (9100, 200): (("5edac6ccb899a097", 9), ("274937408c6b45ff", 9)),
    (9101, 200): (("b3e83ac95752d5fc", 1), ("3abd0cd2994f0bd3", 9)),
}
# Kelley's adversary at k = 200, B = 400: b = 0, a = 1, -c_i = 2^(B*i // k) + i.
PINNED_ADVERSARY = {1: ("214dea931ab810f3", 64), 10: ("1f257b956bc71276", 59),
                    100: ("57cfa7416cf27df2", 27)}


def test_search_path_is_pinned(monkeypatch):
    """The same points and the same kernel calls as the Fraction search."""
    real_solve = _simplex._solve
    calls = []

    def counted(*args):
        calls.append(None)
        return real_solve(*args)

    def run(c, a, ta, b, tb):
        """(digest of maximize's (xnum, den), its number of kernel calls)."""
        calls.clear()
        xnum, den = maximize(c, a, ta, b, tb)
        return hashlib.sha256(repr((xnum, den)).encode()).hexdigest()[:16], len(calls)

    monkeypatch.setattr(_simplex, "_solve", counted)
    for (seed, k), pins in PINNED_SEEDED.items():
        game = random_game(RandomGameSpec(seed=seed, num_states=k, num_senders=2,
                                          utility_range=100, prior="random-rational"))
        for target, pin in zip((CandidateProfile.UNANIMOUS_0, CandidateProfile.UNANIMOUS_1),
                               pins):
            lp = build_lp(game, target)
            (a, b), (ta, tb) = lp.rows, lp.bounds
            assert run(lp.objective, a, ta, b, tb) == pin, (seed, k, target)
    k, bits = 200, 400
    c = [-(2 ** (bits * i // k) + i) for i in range(k)]
    for ta, pin in PINNED_ADVERSARY.items():
        assert run(c, [1] * k, ta, [0] * k, 0) == pin, ta
