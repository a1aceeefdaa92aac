"""Exact bounded-variable simplex for small dense homogeneous instances.

Maximizes c.x subject to rows.x >= 0 and 0 <= x <= 1. The origin is always
feasible for homogeneous rows, so a single phase starting from the surplus
basis suffices. Bland's smallest-index rule picks the entering variable, and
ratio-test ties leave by the smallest (cap, variable index, row), which rules
out cycling on degenerate vertices (and these instances are degenerate at
the origin by construction).

The work is done in integers, with Fractions only in the arguments and the
result. The objective and each row are scaled once by the lcm of their
denominators; a positive scale changes no pricing sign and no order among
one pivot's ratio-test caps, so the pivots and the vertex are those of the
same simplex run on the Fractions. Linear solves are fraction-free (Bareiss)
and return numerators over a positive common denominator; the basic values
are kept the same way.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from ._intview import scaled_ints

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2


def _solve(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[list[int], int]:
    """Solve a small nonsingular integer system by fraction-free elimination.

    Returns (numerators, det): the solution is numerators / det, and det is
    the absolute value of the matrix's determinant (1 for an empty system).
    """
    m = len(matrix)
    a = [[*row, b] for row, b in zip(matrix, rhs)]
    prev = 1
    for k in range(m):
        pivot = next(r for r in range(k, m) if a[r][k] != 0)
        a[k], a[pivot] = a[pivot], a[k]
        top = a[k]
        for r in range(k + 1, m):
            row = a[r]
            # Bareiss: every entry stays an integer minor of the matrix.
            a[r] = row[:k + 1] + [(top[k] * v - row[k] * p) // prev
                                  for v, p in zip(row[k + 1:], top[k + 1:])]
        prev = top[k]
    det = prev
    num = [0] * m
    for i in range(m - 1, -1, -1):
        row = a[i]
        num[i] = (det * row[m] - sum(row[j] * num[j] for j in range(i + 1, m))) // row[i]
    if det < 0:
        return [-v for v in num], -det
    return num, det


def maximize(objective: Sequence[Fraction], rows: Sequence[Sequence[Fraction]]
             ) -> tuple[list[Fraction], Fraction]:
    """Return an optimal vertex (x, value) of the box LP described above."""
    n = len(objective)
    m = len(rows)
    # Variables 0..n-1 are structural with box bounds; n..n+m-1 are surplus
    # variables (rows.x - s = 0, s >= 0, unbounded above).
    total = n + m
    cost, scale = scaled_ints([v.as_integer_ratio() for v in objective])
    cost += [0] * m
    int_rows = [scaled_ints([v.as_integer_ratio() for v in row])[0] for row in rows]
    cols = [tuple(row[j] for row in int_rows) for j in range(n)]
    cols += [tuple(-1 if i == r else 0 for i in range(m)) for r in range(m)]
    priced = [(c, *col) for c, col in zip(cost, cols)]

    status = [_AT_LOWER] * n + [_BASIC] * m
    basis = list(range(n, total))
    xnum = [0] * m  # basic values are xnum / xden, with xden > 0
    xden = 1

    while True:
        bcols = [cols[j] for j in basis]
        # y = ynum / d solves y.B = c_B, i.e. B^T y = c_B, so column j prices
        # at the sign of d * c_j - ynum.a_j, which is prices . priced[j].
        ynum, d = _solve(bcols, [cost[j] for j in basis])

        prices = (d, *[-v for v in ynum])
        entering = -1
        rising = True
        for j, state in enumerate(status):
            if state == _BASIC:
                continue
            reduced = sum(map(mul, prices, priced[j]))
            if state == _AT_LOWER:
                if reduced > 0:
                    entering = j
                    break
            elif reduced < 0:
                entering, rising = j, False
                break
        if entering < 0:
            break

        dnum, dden = _solve(list(zip(*bcols)), cols[entering])
        # When the entering variable moves by t (up from its lower bound or
        # down from its upper one), basic value r moves by -/+ dnum[r]/dden * t.
        # Each cap t is (dden / xden) * p / q with q > 0; the common factor
        # leaves the order of the caps alone, so only (p, q) is kept.
        sign = 1 if rising else -1
        best = None  # (p, q, var index, row); row -1 is a bound flip
        if entering < n:
            best = (xden, dden, entering, -1)
        for r in range(m):
            shrink = sign * dnum[r]
            jb = basis[r]
            if shrink > 0:
                cand = (xnum[r], shrink, jb, r)
            elif shrink < 0 and jb < n:
                cand = (xden - xnum[r], -shrink, jb, r)
            else:
                continue
            if best is None:
                best = cand
                continue
            left, right = cand[0] * best[1], best[0] * cand[1]
            if left < right or (left == right and cand[2:] < best[2:]):
                best = cand
        if best is None:
            raise ArithmeticError("unbounded improving ray in a box LP")
        p, q, _, row = best

        # The step is dden * p / (xden * q); put every basic value over xden * q.
        xnum = [v * q - sign * dv * p for v, dv in zip(xnum, dnum)]
        xden *= q
        if row == -1:
            # Full bound flip: the entering variable crosses to its other bound.
            status[entering] = _AT_UPPER if rising else _AT_LOWER
        else:
            status[basis[row]] = _AT_LOWER if sign * dnum[row] > 0 else _AT_UPPER
            basis[row] = entering
            status[entering] = _BASIC
            xnum[row] = dden * p if rising else xden - dden * p
        common = gcd(xden, *xnum)
        xnum = [v // common for v in xnum]
        xden //= common

    values = [xden if state == _AT_UPPER else 0 for state in status]
    for r, j in enumerate(basis):
        values[j] = xnum[r]
    x = [Fraction(v, xden) for v in values[:n]]
    value = Fraction(sum(map(mul, cost, values[:n])), scale * xden)
    return x, value
