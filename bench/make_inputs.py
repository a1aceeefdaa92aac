"""Set-up step of the benchmark: make a workload's input files from its seed.

Run as a child process, so that its CPU time covers starting the
interpreter, importing talkfilter, and generating and writing the inputs:

    python bench/make_inputs.py WORKLOAD SEED OUTDIR [--tiny] [--trace-out FILE]

Sub-seeds are drawn from ``SplitMix64(SEED)`` in the order documented on
each ``make_*`` function.
"""
from __future__ import annotations

import argparse
import json
import os
from fractions import Fraction
from pathlib import Path

import tracer
from common import SIZES


def game_json(game, kind: str) -> dict:
    """The game-file form of a talkfilter Game (README "Game files")."""
    return {"type": kind, "states": [
        {"name": rec.name, "prior": str(rec.prior),
         "sender_utilities": [[str(u0), str(u1)] for u0, u1 in rec.sender_utils],
         "receiver_utility": [str(rec.receiver_utils[0]), str(rec.receiver_utils[1])]}
        for rec in game.states]}


def _split_gap_total(rng, weights: list[int], target: Fraction, spread: int) -> list[Fraction]:
    """Gaps g_i > 0 with sum(weights[i] * g_i) == target exactly.

    Draws c_i = 1 + below(spread), scales them by the largest integer factor
    that keeps the weighted sum at most ``target``, and puts the remainder on
    the last state.
    """
    cs = [1 + rng.below(spread) for _ in weights]
    base = sum(w * c for w, c in zip(weights, cs))
    factor = max(1, int(target // base))
    gaps = [Fraction(factor * c) for c in cs]
    rest = target - sum(w * g for w, g in zip(weights, gaps))
    gaps[-1] += rest / weights[-1]
    if gaps[-1] <= 0:
        raise ValueError("agreement block too heavy for the walk-forcing target")
    return gaps


def walk_forcing_game(seed: int, num_states: int, spread: int = 8) -> dict:
    """A one-sender game whose concession walk runs deep to an interior pivot.

    Every tenth state is an agreement state (agree0 and agree1 alternate);
    the rest are split10 states, where the sender strictly prefers action 1
    (gap -a) and the receiver strictly prefers action 0 (gap +b), with a and b
    drawn from 1..spread. With S = sum(w * a) and E = sum(w * b) over the
    split states (w the integer prior weight), the agree0 states carry sender
    mass floor(3S/5) + 1/2 and the agree1 states carry receiver mass
    -(floor(3E/5) + 1/2). So:

    - receiver objective: the sender's signal-0 slack starts near -2S/5 and
      the walk concedes states by ascending b/a until it turns >= 0;
    - sender objective: the receiver's signal-1 slack starts near +2E/5 and
      the walk concedes states by ascending a/b until it turns <= 0;
    - the half in each mass keeps every slack off zero at the walk's integer
      step boundaries, so the binding pivot probability is strictly inside
      (0, 1);
    - a prefix in ascending b/a order holds at most its sender share of the
      receiver mass (and the mirror for a/b), so the objective player's own
      rows hold at the stopping point once no single state holds more than a
      fifth of S or E.

    Draw order from SplitMix64(seed): all prior weights 1 + below(8); then per
    state in order, a split state draws sender base, a, receiver base, b and
    an agreement state draws sender base and receiver base; then the agree0
    block's multipliers, then the agree1 block's.
    """
    from talkfilter.oracle import SplitMix64

    rng = SplitMix64(seed)
    weights = [1 + rng.below(8) for _ in range(num_states)]
    total_weight = sum(weights)
    kinds = ["agree0" if i % 20 == 0 else "agree1" if i % 20 == 10 else "split10"
             for i in range(num_states)]
    rows = []
    for kind in kinds:
        if kind == "split10":
            s_base = rng.below(2 * spread + 1) - spread
            a = 1 + rng.below(spread)
            r_base = rng.below(2 * spread + 1) - spread
            b = 1 + rng.below(spread)
            rows.append([Fraction(s_base), Fraction(s_base + a),
                         Fraction(r_base + b), Fraction(r_base), a, b])
        else:
            rows.append([Fraction(rng.below(2 * spread + 1) - spread), None,
                         Fraction(rng.below(2 * spread + 1) - spread), None, 0, 0])
    split_s = sum(w * r[4] for w, r, k in zip(weights, rows, kinds) if k == "split10")
    split_r = sum(w * r[5] for w, r, k in zip(weights, rows, kinds) if k == "split10")
    agree0 = [i for i, k in enumerate(kinds) if k == "agree0"]
    agree1 = [i for i, k in enumerate(kinds) if k == "agree1"]

    # agree0: sender gap from the target mass, receiver gap 1..spread (> 0).
    s_gaps = _split_gap_total(rng, [weights[i] for i in agree0],
                              Fraction(3 * split_s // 5) + Fraction(1, 2), spread)
    for i, g in zip(agree0, s_gaps):
        s_base, _, r_base, _, _, _ = rows[i]
        rows[i] = [s_base + g, s_base, r_base + 1 + (i // 20) % spread, r_base]
    # agree1: receiver gap from the target mass, sender gap -(1..spread) (< 0).
    r_gaps = _split_gap_total(rng, [weights[i] for i in agree1],
                              Fraction(3 * split_r // 5) + Fraction(1, 2), spread)
    for i, g in zip(agree1, r_gaps):
        s_base, _, r_base, _, _, _ = rows[i]
        rows[i] = [s_base, s_base + 1 + (i // 20) % spread, r_base, r_base + g]

    states = []
    for i, (w, row) in enumerate(zip(weights, rows)):
        states.append({"name": f"w{i}", "prior": str(Fraction(w, total_weight)),
                       "sender_utilities": [[str(row[0]), str(row[1])]],
                       "receiver_utility": [str(row[2]), str(row[3])]})
    return {"type": "transmission", "states": states}


def make_onesender(rng, size: dict) -> dict:
    """random.json: RandomGameSpec(seed=draw 1, random-rational prior);
    walk.json: walk_forcing_game(seed=draw 2)."""
    from talkfilter.oracle import RandomGameSpec, random_game

    k = size["onesender_states"]
    spec = RandomGameSpec(seed=rng.next_u64(), num_states=k, prior="random-rational")
    walk_seed = rng.next_u64()
    return {"random.json": game_json(random_game(spec), "transmission"),
            "walk.json": walk_forcing_game(walk_seed, k)}


def make_twosender(rng, size: dict) -> dict:
    """pair<NN>.json: two-sender RandomGameSpec(seed=draw i + 1, random-rational
    prior, utilities in [-100, 100]).

    The wide utility range keeps exact ties rare, which makes the simplex's
    pivot count vary less from game to game than at the default range of 5.
    """
    from talkfilter.oracle import RandomGameSpec, random_game

    files = {}
    for i in range(size["twosender_games"]):
        spec = RandomGameSpec(seed=rng.next_u64(), num_states=size["twosender_states"],
                              num_senders=2, utility_range=100, prior="random-rational")
        files[f"pair{i:02d}.json"] = game_json(random_game(spec), "aggregation")
    return files


def make_corpus(rng, size: dict) -> dict:
    """corpus.json: per pair, draws for the one-sender game, the two-sender
    game, the general-filter seed and the profile seed, in that order."""
    from talkfilter.oracle import RandomGameSpec, random_game

    k = size["corpus_states"]
    pairs = []
    for _ in range(size["corpus_pairs"]):
        one = random_game(RandomGameSpec(seed=rng.next_u64(), num_states=k,
                                         prior="random-rational"))
        two = random_game(RandomGameSpec(seed=rng.next_u64(), num_states=k,
                                         num_senders=2, prior="random-rational"))
        pairs.append({"one": game_json(one, "transmission"),
                      "two": game_json(two, "aggregation"),
                      "filter_seed": rng.next_u64(), "profile_seed": rng.next_u64()})
    return {"corpus.json": {"grid": size["grid"], "pairs": pairs}}


MAKERS = {"onesender-cli": make_onesender, "twosender-cli": make_twosender,
          "certify-corpus": make_corpus}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(MAKERS))
    parser.add_argument("seed", type=int)
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    from talkfilter.oracle import SplitMix64

    trace = tracer.Trace()
    if args.trace_out:
        tracer.install(trace)
    files = MAKERS[args.workload](SplitMix64(args.seed),
                                  SIZES["tiny" if args.tiny else "full"])
    os.makedirs(args.outdir, exist_ok=True)
    for name, payload in files.items():
        with open(args.outdir / name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    if args.trace_out:
        trace.dump(args.trace_out)


if __name__ == "__main__":
    main()
