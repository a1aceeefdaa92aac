from fractions import Fraction

import pytest

from talkfilter import (CandidateProfile, RandomGameSpec, SplitMix64, build_lp, lp_solve,
                        random_game)
from talkfilter import _simplex
from talkfilter._simplex import maximize

F = Fraction


def test_unconstrained_box_goes_to_corners():
    x, value = maximize([F(3), F(-2), F(0)], rows=[])
    assert x[:2] == [F(1), F(0)] and x[2] in (0, 1)   # x[2] is worth nothing
    assert value == 3


def test_single_row_blocks_entering():
    # max x1 + x2 with x1 - x2 >= 0: x2 can rise only as far as x1.
    x, value = maximize([F(1), F(1)], rows=[[F(1), F(-1)]])
    assert value == 2
    assert x == [F(1), F(1)]


def test_binding_row_forces_fraction():
    # max x2 subject to x1 - 2*x2 >= 0: best is x1 = 1, x2 = 1/2.
    x, value = maximize([F(0), F(1)], rows=[[F(1), F(-2)]])
    assert value == F(1, 2)
    assert x == [F(1), F(1, 2)]


def test_degenerate_origin_terminates():
    # Both rows bind at the origin and the objective cannot move.
    x, value = maximize([F(1), F(1)],
                        rows=[[F(-1), F(-1)], [F(-2), F(-1)]])
    assert value == 0
    assert x == [F(0), F(0)]


def test_three_rows_are_refused():
    with pytest.raises(ValueError):
        maximize([F(2), F(1), F(1)],
                 rows=[[F(1), F(-1), F(0)], [F(0), F(1), F(-1)], [F(1), F(0), F(-1)]])


def test_random_instances_match_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = SplitMix64(123)
    for _ in range(40):
        n = 2 + rng.below(4)
        c = [F(rng.below(11) - 5) for _ in range(n)]
        rows = [[F(rng.below(11) - 5) for _ in range(n)] for _ in range(2)]
        x, value = maximize(c, rows)
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

            def early(c, a, b, lam):
                cut = counted(c, a, b, lam)
                if len(cuts) == stop:
                    lo = next(k for k in reversed(cuts[:-1]) if k.g < 0)
                    return cut._replace(h=lo.h + lo.g * (lam - lo.lam))
                return cut

            monkeypatch.setattr(_simplex, "_cut", early)
            with pytest.raises(ArithmeticError, match="certificate"):
                lp_solve(lp)
            refused += 1
    assert refused >= 5
