"""The odometer grid sweeps that talkfilter.oracle replaced, kept as a test reference.

Each sweep visits every lattice point of [start, end) in enumeration order
(counting up in base R+1, last state fastest), updating its running sums one
digit at a time, and keeps the first point of the highest score. The
meet-in-the-middle sweeps must return the same tuple over the whole range.
"""
from __future__ import annotations

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
    w = view.weight
    coef_o = [w[i] * view.gap[oidx][i] for i in range(k)]
    coef_c = [w[i] * view.gap[cidx][i] for i in range(k)]
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
    w = view.weight
    coef_a = [w[i] * view.gap[0][i] for i in range(k)]
    coef_b = [w[i] * view.gap[1][i] for i in range(k)]
    coef_c = [w[i] * view.gap[ridx][i] for i in range(k)]
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
