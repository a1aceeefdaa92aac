from fractions import Fraction
from operator import mul

import pytest

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


def test_certificate_refuses_a_search_stopped_one_step_early(monkeypatch):
    """Stop the multiplier search one kernel call early: that call reports h
    on the cutting-plane model, so the search mixes two bracket points that
    are not both optimal. The mix is feasible, so only the dual certificate
    can refuse it."""
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

            def early(c, a, ta, b, tb, lam):
                cut = counted(c, a, ta, b, tb, lam)
                if len(cuts) == stop:
                    lo = next(k for k in reversed(cuts[:-1]) if k.g < 0)
                    return cut._replace(h=lo.h + lo.g * (lam - lo.lam))
                return cut

            monkeypatch.setattr(_simplex, "_cut", early)
            with pytest.raises(ArithmeticError, match="certificate"):
                lp_solve(lp)
            refused += 1
    assert refused >= 5
