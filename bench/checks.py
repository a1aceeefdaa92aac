"""Correctness checks made apart from talkfilter.

An exact from-definition evaluator works on the raw JSON strings with
``fractions.Fraction`` only, and a float box LP (scipy's HiGHS) bounds the
optimal values. Nothing here imports talkfilter. Every check returns a list
of problems; an empty list means the output passed.
"""
from __future__ import annotations

from fractions import Fraction

_LP_REL_TOL = 1e-9


class ExactGame:
    """A game file's numbers as Fractions. Player n (= number of senders) is the receiver."""

    def __init__(self, raw: dict):
        states = raw["states"]
        self.names = [s["name"] for s in states]
        self.prior = [Fraction(s["prior"]) for s in states]
        self.senders = len(states[0]["sender_utilities"])
        self.u0 = []
        self.u1 = []
        for j in range(self.senders):
            self.u0.append([Fraction(s["sender_utilities"][j][0]) for s in states])
            self.u1.append([Fraction(s["sender_utilities"][j][1]) for s in states])
        self.u0.append([Fraction(s["receiver_utility"][0]) for s in states])
        self.u1.append([Fraction(s["receiver_utility"][1]) for s in states])
        self.receiver = self.senders
        # Prior-weighted action-0-minus-action-1 gaps, per player.
        self.wgap = [[p * (a - b) for p, a, b in zip(self.prior, self.u0[t], self.u1[t])]
                     for t in range(self.senders + 1)]

    def probs(self, filt: dict) -> list[Fraction]:
        if set(filt) != set(self.names):
            raise ValueError("filter states differ from the game's states")
        return [Fraction(filt[n]) for n in self.names]

    def slacks(self, player: int, x: list[Fraction]) -> tuple[Fraction, Fraction]:
        """Obey-the-signal IC left-hand sides: (sum p d x, sum p d (1 - x))."""
        s0 = sum((g * xi for g, xi in zip(self.wgap[player], x) if xi), Fraction(0))
        return s0, sum(self.wgap[player], Fraction(0)) - s0

    def obey_value(self, player: int, x: list[Fraction]) -> Fraction:
        base = sum((p * u for p, u in zip(self.prior, self.u1[player])), Fraction(0))
        return base + self.slacks(player, x)[0]

    def constant_value(self, player: int, action: int) -> Fraction:
        table = self.u0 if action == 0 else self.u1
        return sum((p * u for p, u in zip(self.prior, table[player])), Fraction(0))

    def babbling(self) -> tuple[int, list[Fraction]]:
        action = 0 if sum(self.wgap[self.receiver], Fraction(0)) >= 0 else 1
        return action, [self.constant_value(t, action) for t in range(self.senders + 1)]

    def canonical(self, x: list[Fraction], sender: int = 0) -> dict:
        """Informative when obeying is IC for the sender and the receiver, else babbling."""
        holds = all(s0 >= 0 and s1 <= 0 for s0, s1 in
                    (self.slacks(sender, x), self.slacks(self.receiver, x)))
        if holds:
            values = [self.obey_value(t, x) for t in range(self.senders + 1)]
            return {"kind": "informative", "babbling_action": None,
                    "senders": values[:-1], "receiver": values[-1]}
        action, values = self.babbling()
        return {"kind": "babbling", "babbling_action": action,
                "senders": values[:-1], "receiver": values[-1]}


def same_outcome(where: str, expected: dict, kind: str, babbling_action,
                  senders: list[str], receiver: str) -> list[str]:
    got = (kind, babbling_action, [Fraction(s) for s in senders], Fraction(receiver))
    want = (expected["kind"], expected["babbling_action"], expected["senders"],
            expected["receiver"])
    return [] if got == want else [f"{where}: outcome {got} != from-definition {want}"]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _LP_REL_TOL * max(abs(a), abs(b), 1.0)


def _lp_max(objective: list[Fraction], rows: list[tuple[list[Fraction], Fraction]]):
    """max objective.x s.t. row.x >= bound for each row, 0 <= x <= 1; None if infeasible.

    Coefficients are scaled by the number of variables so that prior-weighted
    terms are of order one.
    """
    import numpy as np
    from scipy.optimize import linprog

    scale = len(objective)
    c = -np.array([float(v * scale) for v in objective])
    a_ub = -np.array([[float(v * scale) for v in row] for row, _ in rows])
    b_ub = -np.array([float(bound * scale) for _, bound in rows])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return -res.fun / scale


def one_sender_optimum(game: ExactGame, objective: int, sender: int = 0) -> float:
    """max(babbling value, best obey value under both players' two IC rows)."""
    rows = []
    for t in (sender, game.receiver):
        rows.append((game.wgap[t], Fraction(0)))
        rows.append((game.wgap[t], sum(game.wgap[t], Fraction(0))))
    lp = _lp_max(game.wgap[objective], rows)
    babble = float(game.babbling()[1][objective])
    if lp is None:
        return babble
    return max(babble, float(game.constant_value(objective, 1)) + lp)


def check_optimized(where: str, game: ExactGame, objective: int, filt: dict,
                    kind: str, babbling_action, senders: list[str], receiver: str,
                    ic: dict | None = None) -> list[str]:
    """A one-sender optimizer's filter and outcome against the evaluator and the LP."""
    x = game.probs(filt)
    expected = game.canonical(x)
    problems = same_outcome(where, expected, kind, babbling_action, senders, receiver)
    if ic is not None:
        problems += check_ic(where, game, x, ic)
    got = float(Fraction(receiver if objective == game.receiver else senders[objective]))
    best = one_sender_optimum(game, objective)
    if not _close(got, best):
        problems.append(f"{where}: objective value {got!r} != LP optimum {best!r}")
    return problems


def check_ic(where: str, game: ExactGame, x: list[Fraction], ic: dict) -> list[str]:
    """The CLI's sender_ic / receiver_ic diagnostics against the evaluator."""
    problems = []
    for key, player in (("sender_ic", 0), ("receiver_ic", game.receiver)):
        s0, s1 = game.slacks(player, x)
        got = (ic[key]["holds"], Fraction(ic[key]["signal0_slack"]),
               Fraction(ic[key]["signal1_slack"]))
        want = (s0 >= 0 and s1 <= 0, s0, s1)
        if got != want:
            problems.append(f"{where}: {key} {got} != from-definition {want}")
    return problems


def interior_pivot(where: str, filt: dict, pivot_state, pivot_q, fallback) -> list[str]:
    """The walk stopped at a pivot with the filter's one interior probability."""
    interior = [n for n, v in filt.items() if 0 < Fraction(v) < 1]
    if pivot_state is None or fallback or interior != [pivot_state] \
            or Fraction(pivot_q) != Fraction(filt[pivot_state]):
        return [f"{where}: no interior walk pivot (pivot {pivot_state!r}, q {pivot_q!r}, "
                f"fallback {fallback}, interior states {interior[:3]})"]
    return []


def check_two_sender(where: str, game: ExactGame, best: dict, candidates: list[dict]) -> list[str]:
    """Six candidates: unanimous LPs, follow-one-sender optima, constants, and the best."""
    problems = []
    r = game.receiver
    total_gap = sum(game.wgap[r], Fraction(0))
    for cand in candidates:
        profile = cand["profile"]
        value = Fraction(cand["receiver_utility"])
        if profile in ("unanimous-0", "unanimous-1"):
            sign = 1 if profile == "unanimous-0" else -1
            rows = [([sign * g for g in game.wgap[j]], Fraction(0)) for j in (0, 1)]
            lp = _lp_max([sign * g for g in game.wgap[r]], rows)
            base = game.constant_value(r, 1 if sign == 1 else 0)
            if not _close(float(value), float(base) + lp):
                problems.append(f"{where}: {profile} value {value} != LP {float(base) + lp!r}")
            if cand["feasible"]:
                x = game.probs(cand["filter"])
                s0, s1 = game.slacks(r, x)
                ok = all(game.slacks(j, x)[0 if sign == 1 else 1] * sign >= 0 for j in (0, 1))
                if not (ok and s0 >= 0 and s1 <= 0 and game.obey_value(r, x) == value):
                    problems.append(f"{where}: {profile} filter fails its rows or value")
        elif profile in ("follow-sender-1", "follow-sender-2"):
            j = 0 if profile == "follow-sender-1" else 1
            best_j = one_sender_optimum(game, r, sender=j)
            if not _close(float(value), best_j):
                problems.append(f"{where}: {profile} value {value} != LP optimum {best_j!r}")
        else:
            action = 0 if profile == "constant-0" else 1
            feasible = total_gap >= 0 if action == 0 else total_gap <= 0
            if (value, cand["feasible"]) != (game.constant_value(r, action), feasible):
                problems.append(f"{where}: {profile} is not the constant action's value")
    feasible = [c for c in candidates if c["feasible"]]
    top = max(Fraction(c["receiver_utility"]) for c in feasible)
    first = next(c for c in feasible if Fraction(c["receiver_utility"]) == top)
    if (best["profile"], Fraction(best["receiver_utility"])) != (first["profile"], top):
        problems.append(f"{where}: best {best['profile']} is not the first top candidate")
    if any(Fraction(best["receiver_utility"]) < game.constant_value(r, a) for a in (0, 1)):
        problems.append(f"{where}: best is below a constant action")
    return problems


def merge_by_definition(game: ExactGame, table: dict) -> dict:
    """Binary merge of a general filter by the sender's per-signal preference."""
    signals = list(dict.fromkeys(s for dist in table.values() for s in dist))
    zero_side = set()
    for sig in signals:
        probs = [Fraction(table[n].get(sig, "0")) for n in game.names]
        if not any(probs):
            continue
        s_gap = sum((g * p for g, p in zip(game.wgap[0], probs)), Fraction(0))
        r_gap = sum((g * p for g, p in zip(game.wgap[game.receiver], probs)), Fraction(0))
        if s_gap > 0 or (s_gap == 0 and r_gap >= 0):
            zero_side.add(sig)
    return {n: sum((Fraction(p) for s, p in table[n].items() if s in zero_side), Fraction(0))
            for n in game.names}


def profile_value_by_definition(game: ExactGame, table: dict, profile: dict) -> list[Fraction]:
    """Every player's expected utility of a general mixed profile."""
    totals = [Fraction(0)] * (game.senders + 1)
    for i, name in enumerate(game.names):
        for sig, sprob in table[name].items():
            for msg, mprob in profile["sender"].get(sig, {}).items():
                weight = game.prior[i] * Fraction(sprob) * Fraction(mprob)
                play0 = Fraction(profile["receiver"][msg])
                for t in range(game.senders + 1):
                    totals[t] += weight * (play0 * game.u0[t][i] + (1 - play0) * game.u1[t][i])
    return totals


def check_certification(where: str, one: ExactGame, two: ExactGame, out: dict) -> list[str]:
    """One certify-corpus operation's outputs."""
    problems = []
    for objective, player in (("receiver", one.receiver), ("sender", 0)):
        res = out[objective]
        o = res["outcome"]
        problems += check_optimized(f"{where} {objective}", one, player, res["filter"],
                                    o["kind"], o["babbling_action"], o["senders"], o["receiver"])
        if res["verify"] is not True:
            problems.append(f"{where}: verify_filter_optimality failed for {objective}")
    ts = out["two_sender"]
    problems += check_two_sender(f"{where} two-sender", two, ts["best"], ts["candidates"])
    if Fraction(ts["best"]["receiver_utility"]) < Fraction(ts["grid_value"]):
        problems.append(f"{where}: two_sender_optimal is below the grid value")
    gen = out["general"]
    merged = merge_by_definition(one, gen["filter"])
    if {n: Fraction(v) for n, v in gen["merged"].items()} != merged:
        problems.append(f"{where}: merge_to_binary differs from the definition")
    c = gen["canonical"]
    problems += same_outcome(f"{where} merged", one.canonical([merged[n] for n in one.names]),
                              c["kind"], c["babbling_action"], c["senders"], c["receiver"])
    if gen["nash_lemma"] != gen["nash_exhaustive"]:
        problems.append(f"{where}: check_nash_general and exhaustive_nash_check disagree")
    pv = gen["profile_value"]
    if [Fraction(v) for v in pv["senders"] + [pv["receiver"]]] != \
            profile_value_by_definition(one, gen["filter"], gen["profile"]):
        problems.append(f"{where}: profile_value differs from the definition")
    return problems
