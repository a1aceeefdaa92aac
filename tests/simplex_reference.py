"""An exact Fraction Bland simplex, kept as a value reference for the box LP.

It solves the box LP of ``talkfilter._simplex.maximize`` (maximize c.x
subject to rows.x >= 0 and 0 <= x <= 1, any number of rows) by a different
algorithm: bounded-variable pivoting with Bland's rule. Its optimal value
must equal ``maximize``'s. Where the LP has several optima the two may
return different points, so only values are compared.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

_ZERO = Fraction(0)

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2


def _solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a small square exact system by Gaussian elimination."""
    m = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(m):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
    return [a[r][m] for r in range(m)]


def maximize(objective: Sequence[Fraction], rows: Sequence[Sequence[Fraction]]
             ) -> tuple[list[Fraction], Fraction]:
    """Return an optimal vertex (x, value) of the box LP described above."""
    n = len(objective)
    m = len(rows)
    # Variables 0..n-1 are structural with box bounds; n..n+m-1 are surplus
    # variables (rows.x - s = 0, s >= 0, unbounded above).
    total = n + m
    cost = [Fraction(v) for v in objective] + [_ZERO] * m
    ups: list[Optional[Fraction]] = [Fraction(1)] * n + [None] * m

    def column(j: int) -> list[Fraction]:
        if j < n:
            return [Fraction(rows[i][j]) for i in range(m)]
        col = [_ZERO] * m
        col[j - n] = Fraction(-1)
        return col

    status = [_AT_LOWER] * n + [_BASIC] * m
    basis = list(range(n, total))
    xb = [_ZERO] * m

    while True:
        bmat = [[column(j)[i] for j in basis] for i in range(m)]
        # y solves y.B = c_B, i.e. B^T y = c_B
        y = _solve([[bmat[r][c] for r in range(m)] for c in range(m)],
                   [cost[j] for j in basis])

        entering = -1
        rising = True
        for j in range(total):
            if status[j] == _BASIC:
                continue
            col = column(j)
            reduced = cost[j] - sum(yi * aij for yi, aij in zip(y, col))
            if status[j] == _AT_LOWER and reduced > 0:
                entering, rising = j, True
                break
            if status[j] == _AT_UPPER and reduced < 0:
                entering, rising = j, False
                break
        if entering < 0:
            break

        delta = _solve(bmat, column(entering))
        # When the entering variable moves by t (up from its lower bound or
        # down from its upper one), each basic value moves by -/+ delta * t.
        candidates: list[tuple[Fraction, int, int]] = []  # (cap, var index, row)
        if ups[entering] is not None:
            candidates.append((ups[entering], entering, -1))
        for r in range(m):
            shrink = delta[r] if rising else -delta[r]
            jb = basis[r]
            if shrink > 0:
                candidates.append((xb[r] / shrink, jb, r))
            elif shrink < 0 and ups[jb] is not None:
                candidates.append(((ups[jb] - xb[r]) / -shrink, jb, r))
        if not candidates:
            raise ArithmeticError("unbounded improving ray in a box LP")
        step = min(cap for cap, _, _ in candidates)
        _, _, row = min((cap, jvar, row) for cap, jvar, row in candidates
                        if cap == step)

        for r in range(m):
            xb[r] += (-delta[r] if rising else delta[r]) * step
        if row == -1:
            # Full bound flip: the entering variable crosses to its other bound.
            status[entering] = _AT_UPPER if rising else _AT_LOWER
        else:
            leaving = basis[row]
            shrink = delta[row] if rising else -delta[row]
            status[leaving] = _AT_LOWER if shrink > 0 else _AT_UPPER
            basis[row] = entering
            status[entering] = _BASIC
            xb[row] = step if rising else ups[entering] - step

    values: list[Fraction] = [_ZERO] * total
    for j in range(total):
        if status[j] == _AT_UPPER:
            values[j] = Fraction(1)
    for r, j in enumerate(basis):
        values[j] = xb[r]
    x = values[:n]
    value = sum((cj * xj for cj, xj in zip(cost[:n], x)), _ZERO)
    return x, value
