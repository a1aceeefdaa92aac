"""Program process of the certify-corpus workload.

    python bench/corpus_worker.py CORPUS_JSON SECONDS TRACE(0|1) OUT_JSONL

Loads the seeded game pairs, then certifies them through the library with
threads=1 in whole rounds (every pair once per round) until SECONDS of wall
time have passed. Each operation's CPU time is this process's user + system
time plus that of any child it waited for. With TRACE=1 every pair is run
twice in a row, untraced and then traced, so the tracing overhead is
measured on the same work. Each operation's record, with its outputs as
exact strings for the benchmark's own checks, is one line of OUT_JSONL.
"""
import json
import resource
import sys
import time
import traceback

import tracer


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _outcome(outcome) -> dict:
    return {"kind": outcome.kind.value, "babbling_action": outcome.babbling_action,
            "senders": [str(u) for u in outcome.utilities.senders],
            "receiver": str(outcome.utilities.receiver)}


def _probs(filt) -> dict:
    return None if filt is None else {n: str(x) for n, x in filt.signal0_prob.items()}


def certify(tf, one, two, pair: dict, grid: int) -> dict:
    """One operation: certify one seeded one-sender / two-sender game pair."""
    spec = tf.GridSpec(resolution=grid)
    out = {}
    for objective, optimize in ((tf.Objective.RECEIVER, tf.receiver_optimal_filter),
                                (tf.Objective.SENDER, tf.sender_optimal_filter)):
        res = optimize(one)
        out[objective.value] = {
            "filter": _probs(res.filter), "outcome": _outcome(res.outcome),
            "verify": tf.verify_filter_optimality(one, res.filter, spec, objective,
                                                  threads=1)}

    best, candidates = tf.two_sender_optimal(two)
    grid_value, _, grid_profile = tf.two_sender_grid_search(two, spec, threads=1)
    out["two_sender"] = {
        "best": {"profile": best.profile.value, "receiver_utility": str(best.receiver_utility)},
        "candidates": [{"profile": c.profile.value, "filter": _probs(c.filter),
                        "receiver_utility": str(c.receiver_utility), "feasible": c.feasible}
                       for c in candidates],
        "grid_value": str(grid_value), "grid_profile": grid_profile.value}

    general = tf.random_general_filter(one, pair["filter_seed"])
    merged = tf.merge_to_binary(one, general)
    canonical = tf.canonical_equilibrium(one, general)
    profile = tf.random_profile(one, general, pair["profile_seed"])
    lemma_ok, _ = tf.check_nash_general(one, general, profile)
    exhaustive_ok, _ = tf.exhaustive_nash_check(one, general, profile)
    value = tf.profile_value(one, general, profile)
    out["general"] = {
        "filter": {n: {s: str(p) for s, p in d.items()} for n, d in general.table.items()},
        "merged": _probs(merged), "canonical": _outcome(canonical),
        "profile": {"sender": {s: {m: str(p) for m, p in d.items()}
                               for s, d in profile.sender_strategy.items()},
                    "receiver": {m: str(p) for m, p in profile.receiver_strategy.items()}},
        "nash_lemma": lemma_ok, "nash_exhaustive": exhaustive_ok,
        "profile_value": {"senders": [str(u) for u in value.senders],
                          "receiver": str(value.receiver)}}
    return out


def main() -> None:
    corpus_path, seconds, traced_run, out_path = sys.argv[1:5]
    seconds = float(seconds)
    import talkfilter as tf

    with open(corpus_path, encoding="utf-8") as fh:
        corpus = json.load(fh)
    grid = corpus["grid"]
    pairs = [(tf.validate_game(p["one"]), tf.validate_game(p["two"]), p)
             for p in corpus["pairs"]]
    modes = (False, True) if traced_run == "1" else (False,)

    # Each record is written as one JSON line when its operation ends, so this
    # process's peak resident set does not grow with the number of rounds run.
    with open(out_path, "w", encoding="utf-8") as fh:
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            for index, (one, two, pair) in enumerate(pairs):
                for traced in modes:
                    trace = tracer.Trace()
                    uninstall = tracer.install(trace) if traced else None
                    cpu0, wall0 = _cpu(), time.perf_counter()
                    try:
                        out, error = certify(tf, one, two, pair, grid), None
                    except Exception:
                        out, error = None, traceback.format_exc()
                    cpu1, wall1 = _cpu(), time.perf_counter()
                    if uninstall:
                        uninstall()
                    fh.write(json.dumps({"index": index, "traced": traced,
                                         "cpu_s": cpu1 - cpu0, "wall_s": wall1 - wall0,
                                         "out": out, "error": error,
                                         "trace": trace.to_json() if traced else None}))
                    fh.write("\n")


if __name__ == "__main__":
    main()
