"""The exact one-row kernel, the two-row box LP solved on it, and the tie rule.

``_solve`` maximizes e.x subject to b.x >= t on the box 0 <= x <= 1 by a
ratio sort and a concession walk: it is the one-sender optimizer, and the
inner problem of ``maximize``'s exact search over a row multiplier. Nothing
here pivots a basis or solves a linear system. The module and both names
are kept because the benchmark's tracer (``bench/tracer.py``) wraps them.
The walk's answer is a 0/1 point plus at most one interior entry, the
pivot's (a fractional knapsack answer), and ``_solve`` returns that whole
stop: the entry is formed here once, as a reduced (num, den) from the row
total the walk holds, and ``_total`` gives any row's total at a stop over
den. ``_cut`` and the one-sender optimizer read both; neither sums b.x or
reduces the entry again. ``_reduced`` is the module's one signed gcd.
The tie rule lives here once: ``_plays0``, which babbling, majority play and
the two-sender constant candidates read, and ``_start`` and ``_disagree``
built on it, which the state classes, the optimizer's sort and the general
filter's merge read too.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress, islice
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

_ZERO = Fraction(0)


def _plays0(gap: int) -> bool:
    """The tie rule: a gap u0 - u1 of at least 0, ties included, plays action 0."""
    return gap >= 0


def _start(e: Sequence[int], b: Sequence[int]) -> list[int]:
    """1 (action 0) where ``_plays0`` of e_i, or of b_i where e_i = 0; else 0."""
    return [1 if _plays0(v or w) else 0 for v, w in zip(e, b)]


def _disagree(e: Sequence[int], b: Sequence[int]) -> list[int]:
    """The states where e and b have strictly opposite signs, in state order."""
    return [i for i, (v, w) in enumerate(zip(e, b)) if (v > 0 > w) or (v < 0 < w)]


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms, with a positive denominator."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def _ratio_order(e: Sequence[int], b: Sequence[int], dis: list[int]) -> list[int]:
    """``dis`` by exact ascending e/(-b): float key first, exact fixup on collisions."""

    def fkey(i: int) -> float:
        try:
            return e[i] / -b[i]
        except OverflowError:
            # Ratios are positive; anything past double range outranks every
            # finite key, and inf-keyed states resolve among themselves in
            # the exact pass below.
            return float("inf")

    # A stable sort of positions by float key, which sorts plain floats rather
    # than (key, state) tuples and keeps input order on equal keys. Without
    # equal keys that is the exact order.
    keys = [fkey(i) for i in dis]
    perm = sorted(range(len(dis)), key=keys.__getitem__)
    order = [dis[j] for j in perm]
    if len(set(keys)) == len(keys):
        return order
    keys = [keys[j] for j in perm]
    # Re-sort runs whose doubles collide by their exact ratios. States are
    # grouped by reduced ratio in input order, and the groups are ordered by
    # exact value, which is the stable sort on the exact ratio. States with
    # e < 0 < b have both terms negative; ``_reduced`` makes them one key.
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and keys[end] == keys[start]:
            end += 1
        if end - start > 1:
            groups: dict[tuple[int, int], list[int]] = {}
            for i in order[start:end]:
                groups.setdefault(_reduced(e[i], -b[i]), []).append(i)
            if len(groups) > 1:
                ratios = sorted(groups, key=lambda r: Fraction(*r))
                order[start:end] = [i for r in ratios for i in groups[r]]
        start = end
    return order


def _solve(e: Sequence[int], b: Sequence[int], t: int
           ) -> tuple[list[int], int, int, Fraction, int, int]:
    """max e.x subject to b.x >= t and 0 <= x <= 1, by a sort and a concession walk.

    The start is ``_start(e, b)``, so the ``_disagree`` states (strict
    opposite signs) start on e's side. While b.x < t, they move to b's side
    in ascending order of e_i / -b_i. The first whose move would meet the
    row is the pivot. Returns the stop (x, step, pivot, y, num, den): x is
    0/1 with the pivot's entry 0, step the pivot's 1-based place in the
    order, y = |e| / |b| there the row's multiplier, so that
    e.x <= sum(max(0, e_i + y * b_i)) - y * t on the row, with equality at
    the optimum, and num / den the pivot's entry at the optimum, reduced,
    den > 0: b.x * den + b[pivot] * num = t * den. It is formed from the
    walk's own total, which holds b.x with the pivot still at its start.
    Without a walk, (x, 0, -1, 0, 0, 1). Raises ArithmeticError when no
    point of the box meets the row.
    """
    x = _start(e, b)
    total = sum(compress(b, x))
    if total >= t:
        return x, 0, -1, _ZERO, 0, 1
    order = _ratio_order(e, b, _disagree(e, b))
    for step, i in enumerate(order, start=1):
        bump = abs(b[i])
        if total + bump >= t:
            break
        total += bump
    else:
        raise ArithmeticError("the walk moved every state and never met the row")
    for j in order[:step - 1]:
        x[j] = 1 - x[j]
    num, den = _reduced(t - total + b[i] * x[i], b[i])
    x[i] = 0
    return x, step, i, Fraction(abs(e[i]), bump), num, den


def _total(row: Sequence[int], stop: tuple) -> int:
    """den * row.x at a ``_solve`` stop: den times the row over x's 1s, plus row[pivot] * num.

    num = 0 (no pivot, or a pivot at 0) adds nothing, and reads no pivot.
    """
    x, _, pivot, _, num, den = stop
    return den * sum(compress(row, x)) + (row[pivot] * num if num else 0)


class _Cut(NamedTuple):
    """One evaluation of h at lam = p / q: c.x and g = a.x - ta there, both over den."""

    p: int           # lam = p / q, reduced, q > 0
    q: int
    cx: int          # c.x * den: h(lam) = (cx + lam * g) / den
    g: int           # (a.x - ta) * den, a slope of h at lam
    den: int         # the pivot's entry's reduced denominator, 1 without a pivot
    x: list[int]     # the kernel's 0/1 point, its pivot's entry 0
    pivot: int       # -1 without a pivot
    num: int         # the pivot's entry times den
    mp: int          # the b-row's multiplier for c + lam * a is mp / mq
    mq: int


def _cut(c: list[int], a: list[int], ta: int, b: list[int], tb: int, p: int, q: int
         ) -> _Cut:
    """h at lam = p / q, by one kernel call on c + lam * a (times q)."""
    stop = _solve([q * ci + p * ai for ci, ai in zip(c, a)], b, tb)
    x, _, pivot, y, num, den = stop
    return _Cut(p, q, _total(c, stop), _total(a, stop) - ta * den, den, x, pivot, num,
                y.numerator, y.denominator * q)


def _fractions(cut: _Cut) -> list:
    """The cut's point: 0/1 ints and the pivot's Fraction."""
    x = list(cut.x)
    if cut.pivot >= 0:
        x[cut.pivot] = Fraction(cut.num, cut.den)
    return x


def _null3(u: list[int], v: list[int]) -> list[int]:
    """A nonzero d with u.d = v.d = 0, its first nonzero entry positive."""
    d = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
    if not any(d):
        # u and v are parallel: any null vector of the nonzero one (if any).
        r = u if any(u) else v
        d = next((w for w in ([r[1], -r[0], 0], [r[2], 0, -r[0]], [0, r[2], -r[1]])
                  if any(w)), [1, 0, 0])
    return d if next(w for w in d if w) > 0 else [-w for w in d]


def _purify(x: list, a: list[int], b: list[int]) -> None:
    """Leave at most two fractional entries in x, keeping a.x and b.x.

    Each step moves the three lowest-index fractional entries along a null
    direction of both rows as far as the box allows. At an optimum the value
    cannot change along it, since both ways stay feasible.
    """
    rest = (i for i, v in enumerate(x) if 0 < v < 1)  # read lazily, past the head
    head = list(islice(rest, 3))
    while len(head) == 3:
        d = _null3([a[i] for i in head], [b[i] for i in head])
        step = min((1 - x[i]) / di if di > 0 else x[i] / -di
                   for i, di in zip(head, d) if di)
        for i, di in zip(head, d):
            x[i] += step * di
        head = [i for i in head if 0 < x[i] < 1]
        head += islice(rest, 3 - len(head))


def maximize(c: Sequence[int], a: Sequence[int], ta: int, b: Sequence[int], tb: int
             ) -> tuple[list[int], int]:
    """An optimal point of max c.x subject to a.x >= ta, b.x >= tb and 0 <= x <= 1.

    c, a and b are integer lists and ta, tb integers (``build_lp`` gives the
    view's rows at their slack scales and its bounds); the point is
    numerators over one denominator, (xnum, den). The value is min over
    lam >= 0 of the convex piecewise-linear
    h(lam) = max{(c + lam * a).x : b.x >= tb on the box} - lam * ta: one
    ``_solve`` call evaluates it, and a.x - ta at its point is a slope.

    1. At lam = 0, a point with a.x >= ta is optimal.
    2. At Lam = 2 * max|c| * max(|a|, |b|) + 1, past every breakpoint, the
       slope must be positive, or 0 and then that point is optimal.
    3. Kelley's cutting planes: evaluate h where the lines of the bracket
       ends (slope < 0 at lo, > 0 at hi) cross. Stop when h meets the lines
       there; else the point replaces the end of its slope's sign, or is
       optimal if that slope is 0. The search runs on integers: at a cut's
       point h(lam) = c.x + lam * g, g = a.x - ta, a line with intercept
       c.x, and ``_cut`` keeps c.x and g over the pivot entry's reduced
       denominator; lam is a reduced p / q, the crossing is
       (cx_hi - cx_lo) / (g_lo - g_hi), and the stop test
       (cx - cx_lo) + lam * (g - g_lo) = 0 is cross-multiplied.
    4. At the stop both ends are optimal inside; their mix with a.x = ta is
       optimal, and ``_purify`` leaves at most two entries fractional. The
       mix, run once per search, is on Fractions.
    5. Every solve checks the dual certificate: x is feasible and c.x =
       sum(max(0, c_i + lam1 * a_i + lam2 * b_i)) - lam1 * ta - lam2 * tb,
       lam1 the last lam evaluated and lam2 >= 0 the kernel's multiplier there.

    Bound: h bends only where the kernel's start or order changes, at
    lam = -c_i/a_i or where two ratios cross, all below Lam. The thresholds
    add the linear term -lam * ta and move no breakpoint. After the two end
    calls there is at most one kernel call per breakpoint of h, and all lie
    in [0, Lam): a call that moves an end has a breakpoint between the old
    end and the new one, and the call that stops the search is one.

    Tie rule among several optima: the first optimal point of steps 1-3,
    else the mix, whose purification raises the first entry each step moves.
    """
    last = end = lo = _cut(c, a, ta, b, tb, 0, 1)
    if lo.g < 0:
        big = max(map(abs, c), default=0) * max(map(abs, [*a, *b]), default=0)
        last = hi = _cut(c, a, ta, b, tb, 2 * big + 1, 1)
        if hi.g < 0:
            raise ArithmeticError("h still falls past its last breakpoint")
        while hi.g > 0:
            # The lines' crossing (hi.cx - lo.cx) / (lo.g - hi.g), over both
            # ends' denominators, reduced.
            p, q = _reduced(hi.cx * lo.den - lo.cx * hi.den, lo.g * hi.den - hi.g * lo.den)
            last = _cut(c, a, ta, b, tb, p, q)
            # Stop when h(lam) lies on lo's line: (cx - lo.cx) + lam * (g - lo.g) = 0.
            if ((last.cx * lo.den - lo.cx * last.den) * last.q
                    + last.p * (last.g * lo.den - lo.g * last.den)) == 0:
                end = None   # both ends are optimal inside: mix them
                break
            if last.g < 0:
                lo = last
            else:
                hi = last
        else:
            end = hi

    if end is None:
        theta = Fraction(hi.g * lo.den, hi.g * lo.den - lo.g * hi.den)
        x = [u if u == v else theta * u + (1 - theta) * v
             for u, v in zip(_fractions(lo), _fractions(hi))]
        _purify(x, a, b)
    else:
        x = _fractions(end)

    # The point over one common denominator, and its certificate in integers.
    den = lcm(*{v.denominator for v in x})
    xnum = [v.numerator * (den // v.denominator) for v in x]
    cx = sum(map(mul, c, xnum))
    p1, q1, p2, q2 = last.p, last.q, last.mp, last.mq
    bound = sum(max(0, q1 * q2 * ci + p1 * q2 * ai + p2 * q1 * bi)
                for ci, ai, bi in zip(c, a, b)) - p1 * q2 * ta - p2 * q1 * tb
    if (p1 < 0 or p2 < 0 or sum(map(mul, a, xnum)) < ta * den
            or sum(map(mul, b, xnum)) < tb * den
            or not all(0 <= v <= den for v in xnum) or cx * q1 * q2 != bound * den):
        raise ArithmeticError("the dual certificate does not hold")
    return xnum, den
