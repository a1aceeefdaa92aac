"""The grid sweeps that talkfilter.oracle replaced, kept as test references.

The odometer sweeps visit every lattice point of [start, end) in enumeration
order (counting up in base R+1, last state fastest), updating their running
sums one digit at a time, and keep the first point of the highest score.

The tabulating sweeps meet in the middle as the oracle once did: they list
every point of each half, (R+1)^ceil(k/2) at most, shrink each half to its
staircase by sorting, and pair the staircases. They reach the sizes the
odometer cannot visit, up to the oracle's per-half cap.

The oracle's front-built sweeps must return the same tuple as both.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from talkfilter import CandidateProfile, Game, Objective


def _decode(index: int, k: int, radix: int) -> list[int]:
    digits = [0] * k
    for i in range(k - 1, -1, -1):
        index, digits[i] = divmod(index, radix)
    return digits


def _grid_chunk(game: Game, resolution: int, objective_value: str,
                sender_index: int, start: int, end: int
                ) -> Optional[tuple[int, int]]:
    """Best obeyed point in [start, end): (objective player's obey total, index).

    The obey value is a constant plus that total, so the total alone ranks
    the points.
    """
    view = game.int_view
    k = len(view.names)
    R = resolution
    if objective_value == Objective.RECEIVER.value:
        oidx, cidx = view.receiver, sender_index
    else:
        oidx, cidx = sender_index, view.receiver
    coef_o = view.s[oidx]
    coef_c = view.s[cidx]
    t_o = max(0, R * sum(coef_o))
    t_c = max(0, R * sum(coef_c))

    digits = _decode(start, k, R + 1)
    s0o = sum(c * d for c, d in zip(coef_o, digits))
    s0c = sum(c * d for c, d in zip(coef_c, digits))

    best_val: Optional[int] = None
    best_idx: Optional[int] = None
    index = start
    while True:
        if s0c >= t_c and s0o >= t_o and (best_idx is None or s0o > best_val):
            best_val = s0o
            best_idx = index
        index += 1
        if index >= end:
            break
        i = k - 1
        while digits[i] == R:
            s0o -= R * coef_o[i]
            s0c -= R * coef_c[i]
            digits[i] = 0
            i -= 1
        digits[i] += 1
        s0o += coef_o[i]
        s0c += coef_c[i]
    return None if best_idx is None else (best_val, best_idx)


def _two_sender_chunk(game: Game, resolution: int, start: int, end: int
                      ) -> Optional[tuple[int, int, str]]:
    """Best point in [start, end) that a candidate profile makes an equilibrium.

    Returns (receiver's obey total, index, profile value), or None.
    """
    view = game.int_view
    k = len(view.names)
    R = resolution
    ridx = view.receiver
    coef_a = view.s[0]
    coef_b = view.s[1]
    coef_c = view.s[ridx]
    rtot_a = R * sum(coef_a)
    rtot_b = R * sum(coef_b)
    t_a = max(0, rtot_a)
    t_b = max(0, rtot_b)
    t_c = max(0, R * sum(coef_c))

    digits = _decode(start, k, R + 1)
    sa = sum(c * d for c, d in zip(coef_a, digits))
    sb = sum(c * d for c, d in zip(coef_b, digits))
    sc = sum(c * d for c, d in zip(coef_c, digits))

    best: Optional[tuple[int, int, str]] = None
    index = start
    while True:
        if sc >= t_c:
            profile = None
            if sa >= 0 and sb >= 0:
                profile = CandidateProfile.UNANIMOUS_0.value
            elif sa >= rtot_a and sb >= rtot_b:
                profile = CandidateProfile.UNANIMOUS_1.value
            elif sa >= t_a:
                profile = CandidateProfile.FOLLOW_SENDER_1.value
            elif sb >= t_b:
                profile = CandidateProfile.FOLLOW_SENDER_2.value
            if profile is not None and (best is None or sc > best[0]):
                best = (sc, index, profile)
        index += 1
        if index >= end:
            break
        i = k - 1
        while digits[i] == R:
            sa -= R * coef_a[i]
            sb -= R * coef_b[i]
            sc -= R * coef_c[i]
            digits[i] = 0
            i -= 1
        digits[i] += 1
        sa += coef_a[i]
        sb += coef_b[i]
        sc += coef_c[i]
    return best


# ---------------------------------------------------------------------------
# Tabulating meet-in-the-middle sweeps
# ---------------------------------------------------------------------------
#
# The head is the first k // 2 states and the tail the rest, so with H head
# and M = (R+1)^(k - k//2) tail points the point (head, tail) has index
# head * M + tail. Within a half, points are ranked by one int, key =
# objective * size + (size - 1 - point), whose order is highest objective,
# then lowest point.

def _half_sums(coef: list[int], states: range, resolution: int) -> list[int]:
    """A form's sum at every point of the states' lattice, in enumeration order."""
    vals = [0]
    for i in states:
        steps = [coef[i] * d for d in range(resolution + 1)]
        vals = [v + s for v in vals for s in steps]
    return vals


def _half_keys(coef: list[int], states: range, resolution: int) -> list[int]:
    """The objective's key at every point of the states' lattice, in enumeration order.

    The key is linear in the digits too: a point's position counts down from
    size - 1 by d * radix^(places after the state) per digit d.
    """
    radix = resolution + 1
    size = radix ** len(states)
    place = size
    vals = [size - 1]
    for i in states:
        place //= radix
        steps = [(coef[i] * size - place) * d for d in range(radix)]
        vals = [v + s for v in vals for s in steps]
    return vals


def _joined(head_key: int, tail_key: int, H: int, M: int) -> tuple[int, int]:
    """(objective, index) of the point a head and a tail make, from their keys."""
    return (head_key // H + tail_key // M,
            (H - 1 - head_key % H) * M + M - 1 - tail_key % M)


def _staircase(keys: list[int], bound: list[int]) -> tuple[list[int], list[int]]:
    """The points of a half that no point of at least their bound total outranks.

    Points go by bound total, highest first, and one is kept only when its
    key beats every point before it. Returns the kept points' negated totals,
    ascending, and their keys, strictly ascending.
    """
    negs: list[int] = []
    kept: list[int] = []
    top = None
    for p in sorted(range(len(keys)), key=bound.__getitem__, reverse=True):
        key = keys[p]
        if top is None or key > top:
            top = key
            negs.append(-bound[p])
            kept.append(key)
    return negs, kept


def _best_above(head_keys: list[int], head_a: list[int],
                tail_keys: list[int], tail_a: list[int], t_a: int
                ) -> Optional[tuple[int, int]]:
    """Highest objective, lowest index, over points with a >= t_a, by staircases."""
    H, M = len(head_keys), len(tail_keys)
    tail_negs, tail_best = _staircase(tail_keys, tail_a)
    best = None
    r = len(tail_negs)
    for neg, head_key in zip(*_staircase(head_keys, head_a)):
        r = bisect_right(tail_negs, -neg - t_a, 0, r)
        if not r:
            break
        total, index = _joined(head_key, tail_best[r - 1], H, M)
        if best is None or (total, -index) > (best[0], -best[1]):
            best = (total, index)
    return best


def _best_above_both(head_keys: list[int], head_a: list[int], head_b: list[int],
                     tail_keys: list[int], tail_a: list[int], tail_b: list[int],
                     t_a: int, t_b: int) -> Optional[tuple[int, int]]:
    """Highest objective, lowest index, over points with a >= t_a and b >= t_b.

    Heads are taken from the strictest need on a down; tails join a
    max-Fenwick tree over their rank in b (highest b first) once their a
    meets the need, and each head queries the ranks that meet its need on b.
    """
    H, M = len(head_keys), len(tail_keys)
    by_a = sorted(range(M), key=tail_a.__getitem__, reverse=True)
    levels = sorted(set(tail_b), reverse=True)
    neg_levels = [-v for v in levels]
    rank = {v: r for r, v in enumerate(levels, 1)}
    n = len(levels)
    low = min(tail_keys) - 1
    tree = [low] * (n + 1)
    best = None
    j = 0
    for h in sorted(range(H), key=head_a.__getitem__):
        need_a = t_a - head_a[h]
        while j < M and tail_a[by_a[j]] >= need_a:
            t = by_a[j]
            key = tail_keys[t]
            r = rank[tail_b[t]]
            while r <= n:
                if key > tree[r]:
                    tree[r] = key
                r += r & -r
            j += 1
        key = low
        r = bisect_right(neg_levels, head_b[h] - t_b)
        while r:
            if tree[r] > key:
                key = tree[r]
            r -= r & -r
        if key > low:
            total, index = _joined(head_keys[h], key, H, M)
            if best is None or (total, -index) > (best[0], -best[1]):
                best = (total, index)
    return best


def tabulated_grid_best(game: Game, resolution: int, objective_value: str,
                        sender_index: int) -> Optional[tuple[int, int]]:
    """Best obeyed point over the whole lattice: (objective player's obey total, index)."""
    view = game.int_view
    k = len(view.names)
    R = resolution
    if objective_value == Objective.RECEIVER.value:
        oidx, cidx = view.receiver, sender_index
    else:
        oidx, cidx = sender_index, view.receiver
    coef_o, coef_c = view.s[oidx], view.s[cidx]
    t_o = max(0, R * sum(coef_o))
    t_c = max(0, R * sum(coef_c))
    head, tail = range(k // 2), range(k // 2, k)
    best = _best_above(_half_keys(coef_o, head, R), _half_sums(coef_c, head, R),
                       _half_keys(coef_o, tail, R), _half_sums(coef_c, tail, R), t_c)
    return best if best is not None and best[0] >= t_o else None


def tabulated_two_sender_best(game: Game, resolution: int
                              ) -> Optional[tuple[int, int, str]]:
    """Best point over the whole lattice that a candidate profile makes an equilibrium.

    Returns (receiver's obey total, index, profile value), or None. The
    follow regions are swept with one bound each, and the unanimous region
    that no follow region contains, if any, with two.
    """
    view = game.int_view
    k = len(view.names)
    R = resolution
    ridx = view.receiver
    rtot_a, rtot_b = R * sum(view.s[0]), R * sum(view.s[1])
    t_a, t_b = max(0, rtot_a), max(0, rtot_b)
    t_c = max(0, R * sum(view.s[ridx]))
    head, tail = range(k // 2), range(k // 2, k)
    head_a, tail_a = (_half_sums(view.s[0], half, R) for half in (head, tail))
    head_b, tail_b = (_half_sums(view.s[1], half, R) for half in (head, tail))
    head_keys, tail_keys = (_half_keys(view.s[ridx], half, R) for half in (head, tail))
    regions = [_best_above(head_keys, head_a, tail_keys, tail_a, t_a),
               _best_above(head_keys, head_b, tail_keys, tail_b, t_b)]
    if rtot_a * rtot_b > 0:
        # U0 when both totals are positive, U1 when both are negative.
        bounds = (0, 0) if rtot_a > 0 else (rtot_a, rtot_b)
        regions.append(_best_above_both(head_keys, head_a, head_b,
                                        tail_keys, tail_a, tail_b, *bounds))
    found = [r for r in regions if r is not None and r[0] >= t_c]
    if not found:
        return None
    sc, index = max(found, key=lambda r: (r[0], -r[1]))
    h, t = divmod(index, len(tail_keys))
    sa = head_a[h] + tail_a[t]
    sb = head_b[h] + tail_b[t]
    if sa >= 0 and sb >= 0:
        profile = CandidateProfile.UNANIMOUS_0
    elif sa >= rtot_a and sb >= rtot_b:
        profile = CandidateProfile.UNANIMOUS_1
    elif sa >= t_a:
        profile = CandidateProfile.FOLLOW_SENDER_1
    else:
        profile = CandidateProfile.FOLLOW_SENDER_2
    return sc, index, profile.value
