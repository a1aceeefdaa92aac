"""Independent brute-force verification and reproducible random instances.

The grid oracle enumerates every binary filter on the lattice {0, 1/R, ...,
1}^k and scores each one at its canonical-equilibrium value, so points where
obeying the signal is not an equilibrium count at their babbling value. That
makes the grid maximum a true lower bound on the achievable optimum, which
the closed-form optimizers must meet or beat. The sweeps test each player's
two IC rows as one, s.x >= max(0, sum(s)) (see the ``equilibrium`` module
docstring), on integers that carry the extra grid scale R.

Each sweep covers every lattice point exactly, in one process, by meeting in
the middle (the subset-sum split of Horowitz and Sahni): it tabulates the
linear forms it ranks by over the first k // 2 states and over the rest,
(R+1)^ceil(k/2) points at most per half, and pairs each head point with its
best tail through one query, a max-Fenwick tree under two bounds. Ties go to
the lowest enumeration index, as a point-by-point sweep in that order would
give. ``GridSpec.check`` caps the half at MAX_HALF_POINTS, which admits up
to 14 states at R = 4, 12 at R = 6 and 10 at R = 8.

Random games come from a SplitMix64 generator with the draw order documented
on each function, so failing cases reproduce from a single integer seed on
any implementation.
"""
from __future__ import annotations

from bisect import bisect_right
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
from .filter_opt import Objective, _players
from .multi_sender import CandidateProfile, WrongSenderCount

_ZERO = Fraction(0)


class GridTooLarge(ValueError):
    pass


#: Most points per half, (R+1)^ceil(k/2), that GridSpec.check lets a sweep tabulate.
MAX_HALF_POINTS = 2 * 10 ** 5


@dataclass(frozen=True)
class GridSpec:
    """Lattice {0, 1/R, ..., 1} per state, capped at MAX_HALF_POINTS points per half.

    A sweep tabulates (R+1)^ceil(k/2) points per half, so the cap admits up
    to 14 states at R = 4, 12 at R = 6 and 10 at R = 8.
    """

    resolution: int = 8

    def check(self, game: Game) -> None:
        if self.resolution < 1:
            raise ValueError("grid resolution must be at least 1")
        k = len(game.int_view.names)
        radix = self.resolution + 1
        half = k - k // 2
        if radix > MAX_HALF_POINTS:
            # Over the cap at any k, and perhaps too long to print.
            raise GridTooLarge(f"resolution above {MAX_HALF_POINTS - 1} needs more than "
                               f"{MAX_HALF_POINTS} grid points per half")
        # radix >= 2 and 2^18 is over the cap, so larger halves need no power.
        if half > 17 or radix ** half > MAX_HALF_POINTS:
            raise GridTooLarge(
                f"resolution {self.resolution} on {k} states needs {radix}^{half} "
                f"grid points per half; cap is {MAX_HALF_POINTS}")


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
# Meet-in-the-middle sweeps
# ---------------------------------------------------------------------------
#
# A sweep ranks lattice points by linear forms sum(c_i * d_i) of their digits
# d_i in 0..R. The head is the first k // 2 states and the tail the rest, so
# with M = (R+1)^(k - k//2) tail points the point (head, tail) has index
# head * M + tail: the lowest index is the lowest head, then the lowest tail.
# Candidate tails are ranked by one int, key = score * M + (M - 1 - tail),
# whose order is highest score, then lowest tail.

def _decode(index: int, k: int, radix: int) -> list[int]:
    digits = [0] * k
    for i in range(k - 1, -1, -1):
        index, digits[i] = divmod(index, radix)
    return digits


def _half_sums(coefs: list[list[int]], states: range, resolution: int
               ) -> list[list[int]]:
    """Per form, its sum at every point of the states' lattice, in enumeration order."""
    tables = []
    for coef in coefs:
        vals = [0]
        for i in states:
            steps = [coef[i] * d for d in range(resolution + 1)]
            vals = [v + s for v in vals for s in steps]
        tables.append(vals)
    return tables


def _best_above_both(head_obj: list[int], head_a: list[int], head_b: list[int],
                     tail_obj: list[int], tail_a: list[int], tail_b: list[int],
                     t_a: int, t_b: int) -> Optional[tuple[int, int]]:
    """Highest objective, lowest index, over points with a >= t_a and b >= t_b.

    Heads are taken from the strictest need on a down; tails join a
    max-Fenwick tree over their rank in b (highest b first) once their a
    meets the need, and each head queries the ranks that meet its need on b.
    An all-zero b with t_b = 0 leaves the one bound on a.
    """
    M = len(tail_obj)
    by_a = sorted(range(M), key=tail_a.__getitem__, reverse=True)
    levels = sorted(set(tail_b), reverse=True)
    neg_levels = [-v for v in levels]
    rank = {v: r for r, v in enumerate(levels, 1)}
    n = len(levels)
    low = min(tail_obj) * M - 1
    tree = [low] * (n + 1)
    best = None
    j = 0
    for h in sorted(range(len(head_obj)), key=head_a.__getitem__):
        need_a = t_a - head_a[h]
        while j < M and tail_a[by_a[j]] >= need_a:
            t = by_a[j]
            key = tail_obj[t] * M + M - 1 - t
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
            total = head_obj[h] + key // M
            index = h * M + M - 1 - key % M
            if best is None or (total, -index) > (best[0], -best[1]):
                best = (total, index)
    return best


# ---------------------------------------------------------------------------
# Single-sender grid search
# ---------------------------------------------------------------------------

def _lattice_filter(view: IntView, player: int, index: int, resolution: int
                    ) -> tuple[BinaryFilter, Fraction]:
    """The grid filter at an enumeration index and the player's obey value of it."""
    digits = _decode(index, len(view.names), resolution + 1)
    filt = BinaryFilter(signal0_prob={
        name: Fraction(d, resolution) for name, d in zip(view.names, digits)})
    return filt, view.obey_value(player, view.obey_totals(digits)[player], resolution)


def _grid_best(game: Game, resolution: int, objective: Objective, sender_index: int
               ) -> Optional[tuple[int, int]]:
    """Best obeyed lattice point: (objective player's obey total, index), or None.

    The obey value is a constant plus that total, so the total alone ranks
    the points. A point is obeyed when both totals clear their IC bounds; the
    best tail under the other player's bound maximizes the objective, so a
    head whose best point misses the objective's own bound has none.
    """
    view = game.int_view
    k = len(view.names)
    R = resolution
    oidx, cidx = _players(view, objective, sender_index)
    coefs = [view.s[oidx], view.s[cidx]]
    t_o = max(0, R * view.s_total[oidx])
    t_c = max(0, R * view.s_total[cidx])
    head_o, head_c = _half_sums(coefs, range(k // 2), R)
    tail_o, tail_c = _half_sums(coefs, range(k // 2, k), R)
    best = _best_above_both(head_o, head_c, [0] * len(head_o),
                            tail_o, tail_c, [0] * len(tail_o), t_c, 0)
    return best if best is not None and best[0] >= t_o else None


def grid_search(game: Game, spec: GridSpec,
                objective: Objective = Objective.RECEIVER,
                sender_index: int = 0, threads: int = 1
                ) -> tuple[BinaryFilter, Fraction]:
    """Best canonical-equilibrium value for the objective player on the grid.

    Every lattice point counts; ties go to the first filter in enumeration
    order (counting up in base R+1, last state fastest). The sweep meets in
    the middle: it tabulates the two halves of the states, (R+1)^ceil(k/2)
    points each, and pairs every head point with its best tail by a sorted
    query. ``threads`` is accepted and has no effect.
    """
    spec.check(game)
    view = game.int_view
    view.check_sender(sender_index)
    R = spec.resolution
    best = _grid_best(game, R, objective, sender_index)
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


def _verify(game: Game, filt: BinaryFilter, spec: GridSpec, objective: Objective,
            sender_index: int) -> tuple[bool, Fraction]:
    """(the filter's canonical value is at least the grid maximum, that value)."""
    outcome = canonical_equilibrium(game, filt, sender_index)
    value = (outcome.utilities.receiver if objective is Objective.RECEIVER
             else outcome.utilities.senders[sender_index])
    _, best = grid_search(game, spec, objective, sender_index)
    return value >= best, value


def verify_filter_optimality(game: Game, filt: BinaryFilter, spec: GridSpec,
                             objective: Objective = Objective.RECEIVER,
                             sender_index: int = 0, threads: int = 1) -> bool:
    """Certify a candidate filter against the grid.

    The candidate's canonical value for the objective player (informative
    exactly when both exact IC systems hold) must be at least the grid
    maximum. The candidate may exceed the grid: interior pivots need not lie
    on the lattice. ``threads`` is accepted and has no effect.
    """
    return _verify(game, filt, spec, objective, sender_index)[0]


# ---------------------------------------------------------------------------
# Two-sender grid search
# ---------------------------------------------------------------------------

def _two_sender_best(game: Game, resolution: int) -> Optional[tuple[int, int, str]]:
    """Best point that a candidate profile makes an equilibrium.

    Returns (receiver's obey total, index, profile value), or None. A point
    qualifies when the receiver's total clears its bound and the senders'
    totals (a, b) lie in one of four regions: unanimous 0 (a, b >= 0),
    unanimous 1 (a, b at least their all-ones totals), follow sender 1 or
    follow sender 2 (that sender's IC bound). The best point of the union is
    the best of the four regions' best points; its profile is the first
    region, in that order, that holds it.
    """
    view = game.int_view
    k = len(view.names)
    R = resolution
    players = (0, 1, view.receiver)
    coefs = [view.s[t] for t in players]
    rtot_a, rtot_b, rtot_c = (R * view.s_total[t] for t in players)
    t_a = max(0, rtot_a)
    t_b = max(0, rtot_b)
    t_c = max(0, rtot_c)
    head_a, head_b, head_c = _half_sums(coefs, range(k // 2), R)
    tail_a, tail_b, tail_c = _half_sums(coefs, range(k // 2, k), R)
    head_0 = [0] * len(head_c)
    tail_0 = [0] * len(tail_c)
    regions = [
        _best_above_both(head_c, head_a, head_b, tail_c, tail_a, tail_b, 0, 0),
        _best_above_both(head_c, head_a, head_b, tail_c, tail_a, tail_b, rtot_a, rtot_b),
        _best_above_both(head_c, head_a, head_0, tail_c, tail_a, tail_0, t_a, 0),
        _best_above_both(head_c, head_b, head_0, tail_c, tail_b, tail_0, t_b, 0),
    ]
    found = [r for r in regions if r is not None and r[0] >= t_c]
    if not found:
        return None
    sc, index = max(found, key=lambda r: (r[0], -r[1]))
    h, t = divmod(index, len(tail_c))
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


def two_sender_grid_search(game: Game, spec: GridSpec, threads: int = 1
                           ) -> tuple[Fraction, Optional[BinaryFilter],
                                      CandidateProfile]:
    """Best receiver value over grid filters scored by the candidate profiles.

    Each grid point is scored by the best equilibrium among unanimous-report
    and follow-one-sender play (whichever is compatible for the senders it
    relies on, with the receiver obeying); constant actions enter as
    filter-independent baselines. The sweep meets in the middle as in
    :func:`grid_search`, with the same tie rule. ``threads`` is accepted and
    has no effect.
    """
    if game.num_senders != 2:
        raise WrongSenderCount(f"need exactly 2 senders, game has {game.num_senders}")
    spec.check(game)
    view = game.int_view
    R = spec.resolution
    best = _two_sender_best(game, R)
    ridx = view.receiver
    const_action, const_values = view.babbling()
    const_value = const_values[ridx]
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
