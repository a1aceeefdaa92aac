"""Independent brute-force verification and reproducible random instances.

The grid oracle enumerates every binary filter on the lattice {0, 1/R, ...,
1}^k and scores each one at its canonical-equilibrium value, so points where
obeying the signal is not an equilibrium count at their babbling value. That
makes the grid maximum a true lower bound on the achievable optimum, which
the closed-form optimizers must meet or beat. The sweeps test each player's
two IC rows as one, s.x >= max(0, sum(s)) (see the ``equilibrium`` module
docstring), against ``IntView.ic_target(player, R)`` on integers that carry
the extra grid scale R, for the players that ``filter_opt._players`` names.

Each sweep covers every lattice point exactly, in one process, by meeting in
the middle (the subset-sum split of Horowitz and Sahni): it tabulates the
linear forms it ranks by over the first k // 2 states and over the rest,
(R+1)^ceil(k/2) points at most per half, and pairs head points with tails.
Under one bound (the one-sender grid and the two-sender follow regions),
each half shrinks to its staircase, the points that no point of at least
their bound total outranks, and each head on it finds its best tail by one
bisect on the tail staircase. Under two bounds (a unanimous two-sender
region), every head queries a max-Fenwick tree for its best tail. The
two-sender search sweeps a unanimous region only when no follow region
contains it, so it runs at most one two-bound sweep (see
``_two_sender_best``). Ties go to the lowest enumeration index, as a
point-by-point sweep in that order would give. ``GridSpec.check`` caps the
half at MAX_HALF_POINTS, which admits up to 14 states at R = 4, 12 at R = 6
and 10 at R = 8.

``profile_value`` and ``exhaustive_nash_check`` evaluate general profiles
from the definition, in Fractions read from the game's ``StateRecord``s and
never from its integer view. Each sums what it needs once: a state's masses
in ``profile_value``, a signal's utility sums in ``exhaustive_nash_check``.

Random games come from a SplitMix64 generator with the draw order documented
on each function, so failing cases reproduce from a single integer seed on
any implementation.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple, Optional

from ._intview import IntView, check_sender
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


#: Most points per half, (R+1)^ceil(k/2), that GridSpec.check lets a sweep tabulate.
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
# A sweep ranks lattice points by linear forms sum(c_i * d_i) of their digits
# d_i in 0..R. The head is the first k // 2 states and the tail the rest, so
# with H head and M = (R+1)^(k - k//2) tail points the point (head, tail) has
# index head * M + tail: the lowest index is the lowest head, then the lowest
# tail. Within a half, points are ranked by one int, key = objective * size +
# (size - 1 - point), whose order is highest objective, then lowest point.

def _decode(index: int, k: int, radix: int) -> list[int]:
    digits = [0] * k
    for i in range(k - 1, -1, -1):
        index, digits[i] = divmod(index, radix)
    return digits


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
    """Highest objective, lowest index, over points with a >= t_a.

    Only staircase points can win: a head (or tail) that another one meets
    on a and beats on its key is matched or beaten by that one with the same
    partner, and on a tie the other has the lower index. Each head on its
    staircase takes the last tail on the tail staircase that meets its need
    on a, by one bisect; heads come by a descending, so their needs only
    grow and the search range only shrinks.
    """
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


# ---------------------------------------------------------------------------
# Single-sender grid search
# ---------------------------------------------------------------------------

def _lattice_filter(view: IntView, player: int, index: int, resolution: int
                    ) -> tuple[BinaryFilter, Fraction]:
    """The grid filter at an enumeration index and the player's obey value of it."""
    probs = [Fraction(d, resolution) for d in _decode(index, len(view.names), resolution + 1)]
    totals, scale = view.obey_totals(enumerate(probs))
    return (BinaryFilter(signal0_prob=dict(zip(view.names, probs))),
            view.obey_value(player, totals[player], scale))


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
    coef_o, coef_c = view.s[oidx], view.s[cidx]
    t_o, t_c = view.ic_target(oidx, R), view.ic_target(cidx, R)
    head, tail = range(k // 2), range(k // 2, k)
    best = _best_above(_half_keys(coef_o, head, R), _half_sums(coef_c, head, R),
                       _half_keys(coef_o, tail, R), _half_sums(coef_c, tail, R), t_c)
    return best if best is not None and best[0] >= t_o else None


def grid_search(game: Game, spec: GridSpec,
                objective: Objective = Objective.RECEIVER,
                sender_index: int = 0, threads: int = 1
                ) -> tuple[BinaryFilter, Fraction]:
    """Best canonical-equilibrium value for the objective player on the grid.

    Every lattice point counts; ties go to the first filter in enumeration
    order (counting up in base R+1, last state fastest). The sweep meets in
    the middle: it tabulates the two halves of the states, (R+1)^ceil(k/2)
    points each, and pairs the halves' staircases under the constrained
    player's bound by bisection. ``threads`` is accepted and has no effect.
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
    filt, value = _lattice_filter(view, oidx, best[1], R)
    if value < babble:
        raise ArithmeticError("an obeyed grid filter scored below babbling")
    return filt, value


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

def _two_sender_best(game: Game, resolution: int) -> Optional[tuple[int, int, str]]:
    """Best point that a candidate profile makes an equilibrium.

    Returns (receiver's obey total, index, profile value), or None. A point
    qualifies when the receiver's total clears its bound and the senders'
    totals (a, b) lie in one of four regions: unanimous 0, U0 = {a, b >= 0};
    unanimous 1, U1 = {a >= A, b >= B}, with A and B the senders' all-ones
    totals; follow sender 1, F1 = {a >= max(0, A)}; or follow sender 2,
    F2 = {b >= max(0, B)}. The best point of the union is the best of the
    regions' best points, and its profile is the first region, in that
    order, that holds it.

    A region inside another can never change that best point, so only the
    follow regions and at most one unanimous region are swept. U0 lies in F1
    when A <= 0 and in F2 when B <= 0; U1 lies in F1 when A >= 0 and in F2
    when B >= 0. So U0 is swept only when A > 0 and B > 0, U1 only when
    A < 0 and B < 0, and neither when the signs differ or a total is 0. The
    follow regions have one bound each and are paired by staircases; only
    the unanimous region takes the two-bound sweep.
    """
    view = game.int_view
    k = len(view.names)
    R = resolution
    ridx = view.receiver
    rtot_a, rtot_b = R * view.s_total[0], R * view.s_total[1]
    t_a, t_b, t_c = (view.ic_target(t, R) for t in (0, 1, ridx))
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
    _require_senders(game, 2)
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
    """Expected utilities of an arbitrary profile, straight from the definition.

    Each state's utilities enter only through two masses, summed once per
    state over its signals and their messages: q = sum P(sig | w) * P(m | sig)
    and its action-0 part q0, the same terms weighted by P(action 0 | m). The
    state then adds prior * (q0 * u0 + (q - q0) * u1) to every player. The
    profile must pass ``GeneralProfile.check_for``.
    """
    profile.check_for(game, filt)
    signal_mass: dict[str, tuple[Fraction, Fraction]] = {}

    def masses(sig: str) -> tuple[Fraction, Fraction]:
        # (sum of P(m | sig), the same weighted by P(action 0 | m)) over its messages.
        if sig not in signal_mass:
            mass = mass0 = _ZERO
            for m, mprob in profile.sender_strategy[sig].items():
                mass += mprob
                mass0 += mprob * profile.receiver_strategy[m]
            signal_mass[sig] = mass, mass0
        return signal_mass[sig]

    totals = [_ZERO] * (game.num_senders + 1)
    for rec in game.states:
        q = q0 = _ZERO
        for sig, sprob in filt.table[rec.name].items():
            if sprob:
                mass, mass0 = masses(sig)
                q += sprob * mass
                q0 += sprob * mass0
        w0 = rec.prior * q0
        w1 = rec.prior * q - w0
        for t, (u0, u1) in enumerate((*rec.sender_utils, rec.receiver_utils)):
            totals[t] += w0 * u0 + w1 * u1
    return UtilityProfile.of(totals)


def exhaustive_nash_check(game: Game, filt: GeneralFilter, profile: GeneralProfile,
                          sender_index: int = 0) -> tuple[bool, Optional[dict]]:
    """Search every pure unilateral deviation; independent of the lemma path.

    Sender deviations re-map one signal to one message; receiver deviations
    re-map one message to one pure action. Linearity makes pure deviations
    sufficient. Each live signal's prior-weighted utilities of actions 0 and
    1, V0 and V1, are summed once per player, so sending message m on it is
    worth p0 * V0 + (1 - p0) * V1, with p0 the chance that m is played 0.
    The profile must pass ``GeneralProfile.check_for``.
    """
    check_sender(game.num_senders, sender_index)
    profile.check_for(game, filt)
    sums: dict[str, list[Fraction]] = {}   # signal -> sender's V0, V1, receiver's V0, V1
    for rec in game.states:
        s0, s1 = rec.sender_utils[sender_index]
        r0, r1 = rec.receiver_utils
        for sig, prob in filt.table[rec.name].items():
            wgt = rec.prior * prob
            if wgt:
                acc = sums.setdefault(sig, [_ZERO] * 4)
                acc[0] += wgt * s0
                acc[1] += wgt * s1
                acc[2] += wgt * r0
                acc[3] += wgt * r1
    live = {sig: sums[sig] for sig in filt.signals() if sig in sums}

    for sig, (v0, v1, _, _) in live.items():
        dist = profile.sender_strategy[sig]
        value = {m: p0 * v0 + (1 - p0) * v1 for m, p0 in profile.receiver_strategy.items()}
        current = sum((prob * value[m] for m, prob in dist.items()), _ZERO)
        for m in profile.receiver_strategy:
            if value[m] > current:
                return False, {"player": "sender", "signal": sig, "better": m}

    for m in profile.receiver_strategy:
        # A message that is never sent has v0 = v1 = 0: any reply is a best response.
        v0 = v1 = _ZERO
        for sig, (_, _, r0, r1) in live.items():
            prob = profile.sender_strategy[sig].get(m)
            if prob:
                v0 += prob * r0
                v1 += prob * r1
        p0 = profile.receiver_strategy[m]
        current = p0 * v0 + (1 - p0) * v1
        if v0 > current or v1 > current:
            better = 0 if v0 >= v1 else 1
            return False, {"player": "receiver", "message": m, "better": better}
    return True, None
