"""Independent brute-force verification and reproducible random instances.

The grid oracle enumerates every binary filter on the lattice {0, 1/R, ...,
1}^k and scores each one at its canonical-equilibrium value, so points where
obeying the signal is not an equilibrium count at their babbling value. That
makes the grid maximum a true lower bound on the achievable optimum, which
the closed-form optimizers must meet or beat. The sweeps test each player's
two IC rows as one, s.x >= max(0, sum(s)) (see the ``equilibrium`` module
docstring), against ``IntView.ic_target(player, R)`` on integers that carry
the extra grid scale R, for the players that ``filter_opt._players`` names.

Every grid question is one region search: the best point, by one player's
key (which carries the lowest-index tie rule), of a union of regions, each
one or two bound rows with their targets. Regions are swept in order, the
best key so far as each later sweep's floor, and the winner's obey total is
its value. Constant play needs no sweep: one of the all-0 and all-R points
meets the player's own IC row, so in the two-sender grid, where both lie in
a region, a lattice point always wins; the one-sender grid falls back to
babbling only when no point meets both players' rows.

Each sweep covers every lattice point exactly, in one process, by meeting in
the middle (the subset-sum split of Horowitz and Sahni): it pairs points of
the first k // 2 states with points of the rest, and only a half's maximal
points can win (Kung, Luccio and Preparata): those that no point meeting all
their bound totals beats on the key. Each half's front is built state by
state, never tabulated, as the maximal points of j + 1 states lie among
those of the first j plus one digit of the next; a state whose forms all
lean one way takes digit R or 0 outright, and points that cannot meet the
sweep's bounds are dropped. So a sweep sorts at most the sum, over the
states where the players disagree, of |front| * (R+1) candidates. One bound
row pairs (bound, key) fronts by bisection, two pair (a, b, key) fronts by a
max-Fenwick sweep. Seeded games' fronts hold tens to hundreds of points, but
if all disagreeing states share one gap ratio and each point of a half has
its own totals, none is dominated: a sweep costs about a tabulated half. So
``GridSpec.check`` caps a half at MAX_HALF_POINTS (14 states at R = 4, 12 at
R = 6, 10 at R = 8).

``profile_value`` and ``exhaustive_nash_check`` evaluate general profiles
from the definition. Both read one per-signal table, ``_signal_sums``: each
emitted signal's prior-weighted utility sums (V0, V1) per player, built from
the game's parsed (numerator, denominator) pairs and the filter's pairs that
``GeneralProfile.check_for`` hands on, never from the game's records, its
integer view or the filter's table. The profile's own probabilities are read
apart, by ``_scaled_profile``. The priors, the filter, each player's
utilities and the profile's probabilities are numerators over their own lcm
denominators, and each comparison is made at one common scale; only the
returned utilities are Fractions.

Random games come from a SplitMix64 generator with the draw order documented
on each function, so failing cases reproduce from a single integer seed on
any implementation.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import repeat
from operator import add, ge, itemgetter, lt, mul
from typing import Iterable, NamedTuple, Optional

from ._intview import IntView, check_sender, scaled_ints
from .core import (
    BinaryFilter,
    Game,
    GeneralFilter,
    UtilityProfile,
    make_game,
)
from .equilibrium import GeneralProfile, canonical_equilibrium
from .filter_opt import Objective, _players
from .multi_sender import CandidateProfile, _require_senders

_ZERO = Fraction(0)


class GridTooLarge(ValueError):
    pass


#: Most points per half, (R+1)^ceil(k/2), that GridSpec.check lets a sweep's front reach.
MAX_HALF_POINTS = 2 * 10 ** 5


class GridSpec(NamedTuple):
    """Lattice {0, 1/R, ..., 1} per state, capped at MAX_HALF_POINTS points per half."""

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

class RandomGameSpec(NamedTuple):
    """Recipe for one reproducible random game.

    Utilities are uniform integers in [-utility_range, utility_range], with
    utility_range >= 0, on num_states >= 1 states. The prior is uniform, or
    per-state weights 1 + below(8) normalized to sum 1 when prior ==
    "random-rational".
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
    if spec.utility_range < 0:
        raise ValueError(f"utility_range must be at least 0, got {spec.utility_range}")
    if spec.num_states < 1:
        raise ValueError(f"num_states must be at least 1, got {spec.num_states}")
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
    """Per-state signal-0 probability below(R+1)/R, in state order; R >= 1."""
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    rng = SplitMix64(seed)
    return BinaryFilter(signal0_prob={
        name: Fraction(rng.below(resolution + 1), resolution)
        for name in game.state_names})


def _random_split(rng: SplitMix64, items: list[str]) -> dict[str, Fraction]:
    """One weight below(4) per item, normalized, without the zero weights; a
    fall-back draw picks a single item when every weight comes up zero."""
    weights = [rng.below(4) for _ in items]
    total = sum(weights)
    if total == 0:
        return {items[rng.below(len(items))]: Fraction(1)}
    return {item: Fraction(w, total) for item, w in zip(items, weights) if w}


def random_general_filter(game: Game, seed: int, max_signals: int = 5) -> GeneralFilter:
    """Random filter over 1 + below(max_signals) signals named m0, m1, ...

    Per state, one weight below(4) per signal, normalized; a fall-back draw
    picks a single signal when every weight comes up zero. max_signals >= 1.
    """
    if max_signals < 1:
        raise ValueError(f"max_signals must be at least 1, got {max_signals}")
    rng = SplitMix64(seed)
    signals = [f"m{j}" for j in range(1 + rng.below(max_signals))]
    return GeneralFilter({name: _random_split(rng, signals) for name in game.state_names})


def random_profile(game: Game, filt: GeneralFilter, seed: int) -> GeneralProfile:
    """Random mixed profile on a filter's emitted signals.

    Messages are t0..t{n-1} with n = 1 + below(3). Per emitted signal, a weight
    below(4) per message (fall-back draw on all zeros); per message, the
    receiver plays action 0 with probability below(5)/4.
    """
    rng = SplitMix64(seed)
    messages = [f"t{j}" for j in range(1 + rng.below(3))]
    sender_strategy = {sig: _random_split(rng, messages) for sig in filt.emitted()}
    receiver_strategy = {m: Fraction(rng.below(5), 4) for m in messages}
    return GeneralProfile(sender_strategy=sender_strategy,
                          receiver_strategy=receiver_strategy)


# ---------------------------------------------------------------------------
# Meet-in-the-middle sweeps
# ---------------------------------------------------------------------------
#
# A point with digits d_i in 0..R has index sum(place_i * d_i), place_i =
# (R+1)^(k-1-i), of N = (R+1)^k; its key obj * N + (N - 1 - index) orders by
# highest objective, then lowest index. Less N - 1, the key is linear in the
# digits: a head point's and a tail point's key sums add up to their point's.

def _decode(index: int, k: int, radix: int) -> list[int]:
    digits = [0] * k
    for i in range(k - 1, -1, -1):
        index, digits[i] = divmod(index, radix)
    return digits


def _key_row(coef: list[int], resolution: int) -> tuple[list[int], int]:
    """The key's coefficient per state and N, the number of lattice points."""
    radix = resolution + 1
    size = radix ** len(coef)
    return [c * size - radix ** (len(coef) - 1 - i) for i, c in enumerate(coef)], size


def _front(rows: list[list[int]], states: range, resolution: int, need: tuple[int, ...]
           ) -> list[tuple[int, ...]]:
    """The maximal points of the states' lattice that can meet need, by key, highest first.

    A point is its sums (bound rows..., key row last). Each state adds every
    digit to the front, or only R or 0 when its bound coefficients are 0 or
    share the sign of its key coefficient (never 0), and keeps the maximal
    candidates that could still meet need with the best digit in every state
    to come, of both halves. No point a dropped one dominates could either.
    """
    spare = [sum(max(0, resolution * c) for c in row) for row in rows]
    offset = [0] * len(rows)
    steps = []
    for i in states:
        col = [row[i] for row in rows]
        if col[-1] > 0 and min(col) >= 0:
            offset = [o + resolution * c for o, c in zip(offset, col)]
            spare = [s - resolution * c for s, c in zip(spare, col)]
        elif max(col) > 0:
            steps.append(list(zip(*(range(0, (resolution + 1) * c, c) if c
                                    else repeat(0, resolution + 1) for c in col))))
    front = [tuple(offset)] if all(map(ge, map(add, offset, spare), need)) else []
    for digits in steps:
        spare = [s - max(0, c) for s, c in zip(spare, digits[-1])]
        low = [n - s for n, s in zip(need, spare)]
        if len(rows) == 2:
            low_a, low_key = low
            cands = [(a + da, key + dk) for da, dk in digits for a, key in front
                     if a + da >= low_a and key + dk >= low_key]
            cands.sort(key=itemgetter(1), reverse=True)
            front = cands[:1]
            for point in cands:
                if point[0] > front[-1][0]:
                    front.append(point)
        else:
            low_a, low_b, low_key = low
            cands = [(a + da, b + db, key + dk)
                     for da, db, dk in digits for a, b, key in front
                     if a + da >= low_a and b + db >= low_b and key + dk >= low_key]
            cands.sort(key=itemgetter(2), reverse=True)
            front = _maximal_both(cands)
    return front


def _maximal_both(cands: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """The (a, b, key) points, by descending key, that no earlier one meets on a and b.

    Kept points' maximal (a, b) pairs form a staircase, a up and b down, so
    the highest b of those meeting a point's a is at the first pair from a.
    """
    kept, stair_a, stair_b = [], [], []
    for point in cands:
        a, b, _ = point
        j = bisect_left(stair_a, a)
        if j < len(stair_a) and stair_b[j] >= b:
            continue
        kept.append(point)
        lo, hi = j, j + (j < len(stair_a) and stair_a[j] == a)
        while lo and stair_b[lo - 1] <= b:
            lo -= 1
        stair_a[lo:hi] = [a]
        stair_b[lo:hi] = [b]
    return kept


def _best_above(head: list[tuple[int, int]], tail: list[tuple[int, int]], t_a: int
                ) -> Optional[int]:
    """Highest key sum over points with a >= t_a, from the halves' (a, key) fronts.

    Only front points can win: a head (or tail) that another one meets on a
    and beats on its key is beaten by that one with the same partner. A
    front by descending key has ascending a, so a head's best tail is the
    first that meets its need, by one bisect; heads come by descending a.
    """
    tail_a = [a for a, _ in tail]
    best = None
    j = 0
    for a, key in reversed(head):
        j = bisect_left(tail_a, t_a - a, j)
        if j == len(tail_a):
            break
        if best is None or key + tail[j][1] > best:
            best = key + tail[j][1]
    return best


def _best_above_both(head: list[tuple[int, int, int]], tail: list[tuple[int, int, int]],
                     t_a: int, t_b: int) -> Optional[int]:
    """Highest key sum over points with a >= t_a and b >= t_b, from (a, b, key) fronts.

    Heads are taken from the strictest need on a down; tails join a
    max-Fenwick tree over their rank in b (highest b first) once their a
    meets the need, and each head queries the ranks that meet its need on b.
    """
    by_a = sorted(tail, reverse=True)
    levels = sorted({b for _, b, _ in tail}, reverse=True)
    neg_levels = [-v for v in levels]
    rank = {v: r for r, v in enumerate(levels, 1)}
    n = len(levels)
    low = min((key for _, _, key in tail), default=0) - 1
    tree = [low] * (n + 1)
    best = None
    j = 0
    for head_a, head_b, head_key in sorted(head):
        need_a = t_a - head_a
        while j < len(by_a) and by_a[j][0] >= need_a:
            _, b, key = by_a[j]
            r = rank[b]
            while r <= n:
                if key > tree[r]:
                    tree[r] = key
                r += r & -r
            j += 1
        key = low
        r = bisect_right(neg_levels, head_b - t_b)
        while r:
            if tree[r] > key:
                key = tree[r]
            r -= r & -r
        if key > low and (best is None or head_key + key > best):
            best = head_key + key
    return best


def _region_best(view: IntView, player: int, regions: list[tuple[tuple[int, ...], ...]],
                 resolution: int) -> Optional[tuple[int, int]]:
    """Best point of the regions' union by the player's key: (its obey total, index), or None.

    A region is (bound players, their targets): one or two players whose obey
    totals must meet the targets. A point qualifies when the player's own
    total meets its IC target too. The regions are swept in order, each with
    one above the best key so far as its floor: a key sum fixes the lattice
    index, so a later point that ties the best is the same point.
    """
    k = len(view.names)
    keys, size = _key_row(view.s[player], resolution)
    floor = (view.ic_target(player, resolution) - 1) * size + 1   # least key sum that qualifies
    best = None
    for players, targets in regions:
        rows = [*(view.s[p] for p in players), keys]
        need = (*targets, floor)
        found = (_best_above, _best_above_both)[len(players) - 1](
            _front(rows, range(k // 2), resolution, need),
            _front(rows, range(k // 2, k), resolution, need), *targets)
        if found is not None and found >= floor:
            best, floor = found, found + 1
    if best is None:
        return None
    total, back = divmod(best + size - 1, size)
    return total, size - 1 - back


# ---------------------------------------------------------------------------
# Single-sender grid search
# ---------------------------------------------------------------------------

def _lattice_filter(view: IntView, index: int, resolution: int) -> BinaryFilter:
    """The grid filter at an enumeration index."""
    digits = _decode(index, len(view.names), resolution + 1)
    return BinaryFilter(signal0_prob={name: Fraction(d, resolution)
                                      for name, d in zip(view.names, digits)})


def _grid_best(game: Game, resolution: int, objective: Objective, sender_index: int
               ) -> Optional[tuple[int, int]]:
    """Best obeyed lattice point: (objective player's obey total, index), or None.

    The obey value is a constant plus that total, so the total alone ranks
    the points. A point is obeyed when both totals clear their IC bounds: it
    lies in the region of the constrained player's bound.
    """
    view = game.int_view
    oidx, cidx = _players(view, objective, sender_index)
    return _region_best(view, oidx, [((cidx,), (view.ic_target(cidx, resolution),))],
                        resolution)


def grid_search(game: Game, spec: GridSpec,
                objective: Objective = Objective.RECEIVER,
                sender_index: int = 0, threads: int = 1
                ) -> tuple[BinaryFilter, Fraction]:
    """Best canonical-equilibrium value for the objective player on the grid.

    Every lattice point counts; ties go to the first filter in enumeration
    order (counting up in base R+1, last state fastest). The sweep meets in
    the middle on the halves' fronts of (constrained player's bound,
    objective) maximal points. ``threads`` is accepted and has no effect.
    """
    spec.check(game)
    view = game.int_view
    view.check_sender(sender_index)
    R = spec.resolution
    best = _grid_best(game, R, objective, sender_index)
    oidx, _ = _players(view, objective, sender_index)
    _, babble_values = view.babbling()
    babble = babble_values[oidx]
    if best is None:
        # No grid point supports obeying the signal; everything scores babbling.
        return BinaryFilter(signal0_prob={n: _ZERO for n in view.names}), babble
    value = view.obey_value(oidx, best[0], R)
    if value < babble:
        raise ArithmeticError("an obeyed grid filter scored below babbling")
    return _lattice_filter(view, best[1], R), value


def _verify(game: Game, filt: BinaryFilter, spec: GridSpec, objective: Objective,
            sender_index: int) -> tuple[bool, Fraction]:
    """(the filter's canonical value is at least the grid maximum, that value)."""
    oidx, _ = _players(game.int_view, objective, sender_index)
    utilities = canonical_equilibrium(game, filt, sender_index).utilities
    value = (*utilities.senders, utilities.receiver)[oidx]
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

def _two_sender_best(game: Game, resolution: int) -> tuple[int, int, str]:
    """Best point that a candidate profile makes an equilibrium: (receiver's
    obey total, index, profile value).

    A point qualifies when the receiver's total clears its bound and the
    senders' totals (a, b) lie in a region: unanimous 0, U0 = {a, b >= 0};
    unanimous 1, U1 = {a >= A, b >= B}, with A and B the senders' all-ones
    totals; follow sender 1, F1 = {a >= max(0, A)}; or follow sender 2, F2 =
    {b >= max(0, B)}. Its profile is the first of these that holds it. A
    unanimous region inside a follow region cannot change the best point, so
    it is swept, after both, only if its targets are below the follow ones:
    U0 when A > 0 and B > 0, U1 when A < 0 and B < 0. The all-0 point lies
    in U0 and the all-R point in U1, so one of them qualifies.
    """
    view = game.int_view
    R = resolution
    follow = (view.ic_target(0, R), view.ic_target(1, R))
    regions = [(CandidateProfile.UNANIMOUS_0, (0, 1), (0, 0)),
               (CandidateProfile.UNANIMOUS_1, (0, 1), tuple(R * t for t in view.s_total[:2])),
               (CandidateProfile.FOLLOW_SENDER_1, (0,), follow[:1]),
               (CandidateProfile.FOLLOW_SENDER_2, (1,), follow[1:])]
    best = _region_best(view, view.receiver,
                        [(players, targets) for _, players, targets in reversed(regions)
                         if len(players) == 1 or all(map(lt, targets, follow))], R)
    if best is None:
        raise ArithmeticError("no grid point meets the receiver's IC bound")
    sc, index = best
    digits = _decode(index, len(view.names), R + 1)
    totals = [sum(map(mul, view.s[p], digits)) for p in (0, 1)]
    profile = next(profile for profile, players, targets in regions
                   if all(totals[p] >= t for p, t in zip(players, targets)))
    return sc, index, profile.value


def two_sender_grid_search(game: Game, spec: GridSpec, threads: int = 1
                           ) -> tuple[Fraction, BinaryFilter, CandidateProfile]:
    """Best receiver value over grid filters scored by the candidate profiles.

    Each grid point is scored by the best equilibrium among unanimous-report
    and follow-one-sender play (whichever is compatible for the senders it
    relies on, with the receiver obeying). Constant play needs no sweep: the
    all-0 and all-R filters are constant play under a unanimous profile, and
    one of them meets the receiver's IC bound, so the winner is a lattice
    filter worth at least her better constant (ArithmeticError otherwise).
    The region search is :func:`grid_search`'s, with its tie rule, on
    (a, key), (b, key) and (a, b, key) fronts. ``threads`` has no effect.
    """
    _require_senders(game, 2)
    spec.check(game)
    view = game.int_view
    R = spec.resolution
    sc, index, profile = _two_sender_best(game, R)
    ridx = view.receiver
    value = view.obey_value(ridx, sc, R)
    if value < view.babbling()[1][ridx]:
        raise ArithmeticError("a two-sender grid filter scored below constant play")
    return value, _lattice_filter(view, index, R), CandidateProfile(profile)


# ---------------------------------------------------------------------------
# Exhaustive profile verification
# ---------------------------------------------------------------------------

def _signal_sums(game: Game, pairs: dict[str, list[tuple[int, Fraction]]],
                 players: Iterable[int]) -> tuple[dict[str, list[tuple[int, int]]], list[int]]:
    """Per signal of ``pairs``, in their order, each named player's (V0, V1), and its scale.

    ``pairs`` are ``GeneralFilter.check_for``'s, and (V0, V1) = sum over w of
    prior(w) * P(sig | w) * (u0, u1), read from the game's parsed rows and
    the pairs: the priors, the filter and each player's utilities are
    numerators over their own lcm denominators, so a player's scale is the
    product of the three.
    """
    rows = game._rows
    weight, wscale = scaled_ints([prior for _, prior, _ in rows])
    nums, fscale = scaled_ints([p.as_integer_ratio()
                                for sig_pairs in pairs.values() for _, p in sig_pairs])
    flat = iter(nums)
    terms = {sig: ([i for i, _ in sig_pairs], [weight[i] * next(flat) for i, _ in sig_pairs])
             for sig, sig_pairs in pairs.items()}   # states, prior * P(sig | w)
    k = len(rows)
    utils, scales = [], []
    for t in players:
        utility = [u[t] for _, _, u in rows]
        vals, scale = scaled_ints([a for a, _ in utility] + [b for _, b in utility])
        utils.append((vals[:k], vals[k:]))
        scales.append(wscale * fscale * scale)
    return {sig: [(sum(map(mul, weights, map(u0.__getitem__, states))),
                   sum(map(mul, weights, map(u1.__getitem__, states)))) for u0, u1 in utils]
            for sig, (states, weights) in terms.items()}, scales


def _scaled_profile(profile: GeneralProfile
                    ) -> tuple[dict[str, dict[str, int]], dict[str, int], int]:
    """The profile's probabilities as numerators over the lcm of all their denominators."""
    rows = [*profile.sender_strategy.values(), profile.receiver_strategy]
    nums, den = scaled_ints([p.as_integer_ratio() for row in rows for p in row.values()])
    flat = iter(nums)
    *sender, play0 = [dict(zip(row, flat)) for row in rows]
    return dict(zip(profile.sender_strategy, sender)), play0, den


def profile_value(game: Game, filt: GeneralFilter, profile: GeneralProfile
                  ) -> UtilityProfile:
    """Expected utilities of an arbitrary profile, straight from the definition.

    Sending message m on a signal whose prior-weighted utility sums are V0
    and V1 is worth p0 * V0 + (1 - p0) * V1, with p0 the chance that m is
    played 0; each player's value sums that over signals and their messages,
    weighted by P(m | sig). The profile must pass ``GeneralProfile.check_for``.
    """
    sums, scales = _signal_sums(game, profile.check_for(game, filt), range(game.num_senders + 1))
    sender, play0, den = _scaled_profile(profile)
    totals = [0] * len(scales)   # over den^2 and the player's scale
    for sig, pairs in sums.items():
        dist = sender[sig].items()
        q0 = sum(prob * play0[m] for m, prob in dist)
        q1 = sum(prob * (den - play0[m]) for m, prob in dist)
        for t, (v0, v1) in enumerate(pairs):
            totals[t] += q0 * v0 + q1 * v1
    return UtilityProfile.of([Fraction(total, den * den * scale)
                              for total, scale in zip(totals, scales)])


def exhaustive_nash_check(game: Game, filt: GeneralFilter, profile: GeneralProfile,
                          sender_index: int = 0) -> tuple[bool, Optional[dict]]:
    """Search every pure unilateral deviation; independent of the lemma path.

    Sender deviations re-map one signal to one message; receiver deviations
    re-map one message to one pure action. Linearity makes pure deviations
    sufficient. With each signal's utility sums V0 and V1 from
    ``_signal_sums``, sending message m on it is worth p0 * V0 + (1 - p0) *
    V1, as in ``profile_value``. The profile must pass
    ``GeneralProfile.check_for``.
    """
    check_sender(game.num_senders, sender_index)
    sums, _ = _signal_sums(game, profile.check_for(game, filt), (sender_index, game.num_senders))
    sender, play0, den = _scaled_profile(profile)

    for sig, ((v0, v1), _) in sums.items():
        # Each message's value over den, and the signal's current one over den^2.
        value = {m: p0 * v0 + (den - p0) * v1 for m, p0 in play0.items()}
        current = sum(prob * value[m] for m, prob in sender[sig].items())
        for m in play0:
            if value[m] * den > current:
                return False, {"player": "sender", "signal": sig, "better": m}

    for m, p0 in play0.items():
        # A message that is never sent has v0 = v1 = 0: any reply is a best response.
        v0 = v1 = 0
        for sig, (_, (r0, r1)) in sums.items():
            prob = sender[sig].get(m)
            if prob:
                v0 += prob * r0
                v1 += prob * r1
        current = p0 * v0 + (den - p0) * v1    # over den
        if v0 * den > current or v1 * den > current:
            better = 0 if v0 >= v1 else 1
            return False, {"player": "receiver", "message": m, "better": better}
    return True, None
