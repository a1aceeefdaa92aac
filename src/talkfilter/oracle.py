"""Independent brute-force verification and reproducible random instances.

The grid oracle enumerates every binary filter on the lattice {0, 1/R, ...,
1}^k and scores each one at its canonical-equilibrium value, so points where
obeying the signal is not an equilibrium count at their babbling value. That
makes the grid maximum a true lower bound on the achievable optimum, which
the closed-form optimizers must meet or beat. The sweeps test each player's
two IC rows as one, s.x >= max(0, sum(s)) (see the ``equilibrium`` module
docstring), on integers that carry the extra grid scale R.

Random games come from a SplitMix64 generator with the draw order documented
on each function, so failing cases reproduce from a single integer seed on
any implementation.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from ._intview import IntView
from .core import (
    RECEIVER,
    BinaryFilter,
    Game,
    GeneralFilter,
    UtilityProfile,
    make_game,
)
from .equilibrium import GeneralProfile, canonical_equilibrium
from .filter_opt import Objective
from .multi_sender import CandidateProfile, WrongSenderCount

_ZERO = Fraction(0)


class GridTooLarge(ValueError):
    pass


#: Most grid points, (R+1)^k, that GridSpec.check lets one search enumerate.
MAX_GRID_POINTS = 10 ** 7


@dataclass(frozen=True)
class GridSpec:
    """Lattice {0, 1/R, ..., 1} per state, guarded by state-count and point caps."""

    resolution: int = 8
    max_states: int = 6

    def check(self, game: Game) -> None:
        if self.resolution < 1:
            raise ValueError("grid resolution must be at least 1")
        k = len(game.int_view.names)
        radix = self.resolution + 1
        if k > self.max_states:
            raise GridTooLarge(
                f"{k} states would need {radix}^{k} grid points; "
                f"cap is {self.max_states} states")
        if radix ** k > MAX_GRID_POINTS:
            raise GridTooLarge(
                f"resolution {self.resolution} on {k} states needs {radix}^{k} "
                f"grid points; cap is {MAX_GRID_POINTS}")


# ---------------------------------------------------------------------------
# SplitMix64
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1


class SplitMix64:
    """Minimal deterministic 64-bit generator.

    Each draw advances the state by 0x9E3779B97F4A7C15 mod 2^64 and returns

        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB  mod 2^64
        z ^ (z >> 31)

    ``below(n)`` reduces a draw modulo n; the tiny modulo bias is irrelevant
    for corpus generation and keeps the generator portable.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomGameSpec:
    """Recipe for one reproducible random game.

    Utilities are uniform integers in [-utility_range, utility_range]. The
    prior is uniform, or per-state weights 1 + below(8) normalized to sum 1
    when prior == "random-rational".
    """

    seed: int
    num_states: int
    num_senders: int = 1
    utility_range: int = 5
    prior: str = "uniform"


def random_game(spec: RandomGameSpec) -> Game:
    """Generate the game for a spec, deterministically in the seed.

    Draw order: for each state, for each sender the action-0 then action-1
    utility, then the receiver pair; afterwards the prior weights when the
    prior is "random-rational". States are named w0, w1, ...
    """
    if spec.prior not in ("uniform", "random-rational"):
        raise ValueError(f"unknown prior kind {spec.prior!r}")
    rng = SplitMix64(spec.seed)
    span = 2 * spec.utility_range + 1

    def draw() -> int:
        return rng.below(span) - spec.utility_range

    rows = []
    for i in range(spec.num_states):
        senders = [(draw(), draw()) for _ in range(spec.num_senders)]
        receiver = (draw(), draw())
        rows.append([f"w{i}", None, senders, receiver])
    if spec.prior == "uniform":
        priors = [Fraction(1, spec.num_states)] * spec.num_states
    else:
        weights = [1 + rng.below(8) for _ in range(spec.num_states)]
        total = sum(weights)
        priors = [Fraction(w, total) for w in weights]
    for row, prior in zip(rows, priors):
        row[1] = prior
    return make_game(rows, num_senders=spec.num_senders)


def random_binary_filter(game: Game, seed: int, resolution: int = 8) -> BinaryFilter:
    """Per-state signal-0 probability below(R+1)/R, in state order."""
    rng = SplitMix64(seed)
    return BinaryFilter(signal0_prob={
        name: Fraction(rng.below(resolution + 1), resolution)
        for name in game.state_names})


def random_general_filter(game: Game, seed: int, max_signals: int = 5) -> GeneralFilter:
    """Random filter over 1 + below(max_signals) signals named m0, m1, ...

    Per state, one weight below(4) per signal, normalized; a fall-back draw
    picks a single signal when every weight comes up zero.
    """
    rng = SplitMix64(seed)
    nsig = 1 + rng.below(max_signals)
    signals = [f"m{j}" for j in range(nsig)]
    table = {}
    for name in game.state_names:
        weights = [rng.below(4) for _ in signals]
        total = sum(weights)
        if total == 0:
            table[name] = {signals[rng.below(nsig)]: Fraction(1)}
        else:
            table[name] = {sig: Fraction(w, total)
                           for sig, w in zip(signals, weights) if w}
    return GeneralFilter(table)


def random_profile(game: Game, filt: GeneralFilter, seed: int) -> GeneralProfile:
    """Random mixed profile on a filter's live signals.

    Messages are t0..t{n-1} with n = 1 + below(3). Per live signal, a weight
    below(4) per message (fall-back draw on all zeros); per message, the
    receiver plays action 0 with probability below(5)/4.
    """
    rng = SplitMix64(seed)
    nmsg = 1 + rng.below(3)
    messages = [f"t{j}" for j in range(nmsg)]
    live = []
    for sig in filt.signals():
        mass = _ZERO
        for name in game.state_names:
            mass += game.state(name).prior * filt.table[name].get(sig, _ZERO)
        if mass > 0:
            live.append(sig)
    sender_strategy = {}
    for sig in live:
        weights = [rng.below(4) for _ in messages]
        total = sum(weights)
        if total == 0:
            sender_strategy[sig] = {messages[rng.below(nmsg)]: Fraction(1)}
        else:
            sender_strategy[sig] = {m: Fraction(w, total)
                                    for m, w in zip(messages, weights) if w}
    receiver_strategy = {m: Fraction(rng.below(5), 4) for m in messages}
    return GeneralProfile(sender_strategy=sender_strategy,
                          receiver_strategy=receiver_strategy)


# ---------------------------------------------------------------------------
# Single-sender grid search
# ---------------------------------------------------------------------------

def _decode(index: int, k: int, radix: int) -> list[int]:
    digits = [0] * k
    for i in range(k - 1, -1, -1):
        index, digits[i] = divmod(index, radix)
    return digits


def _best_of_chunks(chunk, args: tuple, total: int, threads: int) -> Optional[tuple]:
    """Best of chunk(*args, start, end) over [0, total), in worker processes when it pays.

    Each chunk returns None or its best (score, index, ...) tuple. The best
    overall has the highest score, ties to the lowest index, so it is the
    same under any split. At most os.cpu_count() workers start, and never
    more than there are spans.
    """
    threads = min(threads, os.cpu_count() or 1)
    if threads <= 1 or total < 4096:
        return chunk(*args, 0, total)
    bounds = [total * j // (threads * 4) for j in range(threads * 4 + 1)]
    spans = [(s, e) for s, e in zip(bounds, bounds[1:]) if s < e]
    # Imported here: the pool module costs every process that loads talkfilter
    # tens of milliseconds, and only a multi-worker search needs it.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(threads, len(spans))) as pool:
        results = list(pool.map(chunk, *([a] * len(spans) for a in args),
                                [s for s, _ in spans], [e for _, e in spans]))
    return max((r for r in results if r is not None), key=lambda r: (r[0], -r[1]),
               default=None)


def _lattice_filter(view: IntView, player: int, index: int, resolution: int
                    ) -> tuple[BinaryFilter, Fraction]:
    """The grid filter at an enumeration index and the player's obey value of it."""
    digits = _decode(index, len(view.names), resolution + 1)
    filt = BinaryFilter(signal0_prob={
        name: Fraction(d, resolution) for name, d in zip(view.names, digits)})
    return filt, view.obey_value(player, digits, resolution)


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


def grid_search(game: Game, spec: GridSpec,
                objective: Objective = Objective.RECEIVER,
                sender_index: int = 0, threads: int = 1
                ) -> tuple[BinaryFilter, Fraction]:
    """Best canonical-equilibrium value for the objective player on the grid.

    Ties go to the first filter in enumeration order (counting up in base
    R+1, last state fastest), regardless of how many worker processes share
    the range, so results are schedule-independent.
    """
    spec.check(game)
    view = game.int_view
    R = spec.resolution
    best = _best_of_chunks(_grid_chunk, (game, R, objective.value, sender_index),
                           (R + 1) ** len(view.names), threads)
    oidx = view.receiver if objective is Objective.RECEIVER else sender_index
    _, babble_values = view.babbling()
    babble = babble_values[oidx]
    if best is None:
        # No grid point supports obeying the signal; everything scores babbling.
        return BinaryFilter(signal0_prob={n: _ZERO for n in view.names}), babble
    filt, value = _lattice_filter(view, oidx, best[1], R)
    if value < babble:
        raise ArithmeticError("an obeyed grid filter scored below babbling")
    return filt, value


def verify_filter_optimality(game: Game, filt: BinaryFilter, spec: GridSpec,
                             objective: Objective = Objective.RECEIVER,
                             sender_index: int = 0, threads: int = 1) -> bool:
    """Certify a candidate filter against the grid.

    The candidate's canonical value for the objective player (informative
    exactly when both exact IC systems hold) must be at least the grid
    maximum. The candidate may exceed the grid: interior pivots need not lie
    on the lattice.
    """
    outcome = canonical_equilibrium(game, filt, sender_index)
    value = (outcome.utilities.receiver if objective is Objective.RECEIVER
             else outcome.utilities.senders[sender_index])
    _, best = grid_search(game, spec, objective, sender_index, threads)
    return value >= best


# ---------------------------------------------------------------------------
# Two-sender grid search
# ---------------------------------------------------------------------------

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


def two_sender_grid_search(game: Game, spec: GridSpec, threads: int = 1
                           ) -> tuple[Fraction, Optional[BinaryFilter],
                                      CandidateProfile]:
    """Best receiver value over grid filters scored by the candidate profiles.

    Each grid point is scored by the best equilibrium among unanimous-report
    and follow-one-sender play (whichever is compatible for the senders it
    relies on, with the receiver obeying); constant actions enter as
    filter-independent baselines.
    """
    if game.num_senders != 2:
        raise WrongSenderCount(f"need exactly 2 senders, game has {game.num_senders}")
    spec.check(game)
    view = game.int_view
    R = spec.resolution
    best = _best_of_chunks(_two_sender_chunk, (game, R), (R + 1) ** len(view.names), threads)
    ridx = view.receiver
    const_action = 0 if view.gap_total(ridx) >= 0 else 1
    const_value = view.constant_value(ridx, const_action)
    if best is not None:
        filt, value = _lattice_filter(view, ridx, best[1], R)
        if value >= const_value:
            return value, filt, CandidateProfile(best[2])
    profile = (CandidateProfile.CONSTANT_0 if const_action == 0
               else CandidateProfile.CONSTANT_1)
    return const_value, None, profile


# ---------------------------------------------------------------------------
# Exhaustive profile verification
# ---------------------------------------------------------------------------

def profile_value(game: Game, filt: GeneralFilter, profile: GeneralProfile
                  ) -> UtilityProfile:
    """Expected utilities of an arbitrary profile, straight from the definition."""
    players = list(range(game.num_senders)) + [RECEIVER]
    totals = {p: _ZERO for p in players}
    for rec in game.states:
        for sig, sprob in filt.table[rec.name].items():
            if not sprob:
                continue
            dist = profile.sender_strategy.get(sig, {})
            for m, mprob in dist.items():
                if not mprob:
                    continue
                p0 = profile.receiver_strategy[m]
                weight = rec.prior * sprob * mprob
                for p in players:
                    u0 = game.utility(p, rec, 0)
                    u1 = game.utility(p, rec, 1)
                    totals[p] += weight * (p0 * u0 + (1 - p0) * u1)
    return UtilityProfile(
        senders=tuple(totals[j] for j in range(game.num_senders)),
        receiver=totals[RECEIVER])


def exhaustive_nash_check(game: Game, filt: GeneralFilter, profile: GeneralProfile,
                          sender_index: int = 0) -> tuple[bool, Optional[dict]]:
    """Search every pure unilateral deviation; independent of the lemma path.

    Sender deviations re-map one signal to one message; receiver deviations
    re-map one message to one pure action. Linearity makes pure deviations
    sufficient.
    """
    filt.check_for(game)
    messages = list(profile.receiver_strategy)
    live: dict[str, dict[str, Fraction]] = {}
    for sig in filt.signals():
        weights = {}
        for rec in game.states:
            p = rec.prior * filt.table[rec.name].get(sig, _ZERO)
            if p:
                weights[rec.name] = p
        if weights:
            live[sig] = weights

    def message_value(sig: str, m: str, player: Union[int, str]) -> Fraction:
        p0 = profile.receiver_strategy[m]
        total = _ZERO
        for name, wgt in live[sig].items():
            rec = game.state(name)
            u0 = game.utility(player, rec, 0)
            u1 = game.utility(player, rec, 1)
            total += wgt * (p0 * u0 + (1 - p0) * u1)
        return total

    for sig in live:
        dist = profile.sender_strategy[sig]
        current = sum((prob * message_value(sig, m, sender_index)
                       for m, prob in dist.items()), _ZERO)
        for m in messages:
            if message_value(sig, m, sender_index) > current:
                return False, {"player": "sender", "signal": sig, "better": m}

    for m in messages:
        v0 = _ZERO
        v1 = _ZERO
        sent = False
        for sig in live:
            prob = profile.sender_strategy[sig].get(m, _ZERO)
            if not prob:
                continue
            for name, wgt in live[sig].items():
                rec = game.state(name)
                v0 += wgt * prob * game.utility(RECEIVER, rec, 0)
                v1 += wgt * prob * game.utility(RECEIVER, rec, 1)
                sent = True
        if not sent:
            continue
        p0 = profile.receiver_strategy[m]
        current = p0 * v0 + (1 - p0) * v1
        if v0 > current or v1 > current:
            better = 0 if v0 >= v1 else 1
            return False, {"player": "receiver", "message": m, "better": better}
    return True, None
