"""Command-line front end.

Subcommands: optimize, evaluate, two-sender, majority, verify, classify.
Every command goes through one report path in :func:`main`: parse the
arguments, start the clock, load and validate the game (optimize, evaluate,
verify and classify need exactly one sender), run the command, then write a
short human summary followed by the machine report as JSON, in one write;
--json keeps only the JSON for clean piping. A command only computes: it
returns its result, its diagnostics (or None), its summary lines and its
exit code. Every report holds ``command``, ``game`` (state and sender
counts), ``result``, ``diagnostics`` (optimize and evaluate: both IC rows)
and ``timing_seconds``, the wall time from the start of the load to the
report; that is the only field that changes from run to run. Exit codes: 0
success, 2 input or validation error (message on stderr, no report), 3
verification failure. verify pairs each half's front of maximal grid
points, built state by state in one process. A front can hold its whole
half, (R+1)^ceil(k/2) points, so verify refuses (exit 2, GridTooLarge) more
than 200,000: up to 14 states at --grid 4, 12 at 6 and 10 at the default 8.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import __version__
from .core import (
    BinaryFilter,
    FilterValidationError,
    Game,
    GameValidationError,
    classify_states,
    parse_rational,
    validate_game,
)
from .equilibrium import binary_equilibrium
from .filter_opt import Objective, receiver_optimal_filter, sender_optimal_filter
from .multi_sender import WrongSenderCount, majority_outcome, two_sender_optimal


def _utilities(profile) -> dict:
    return {"senders": [str(u) for u in profile.senders],
            "receiver": str(profile.receiver)}


def _filter_payload(filt: Optional[BinaryFilter]) -> Optional[dict]:
    if filt is None:
        return None
    return {"signal0_prob": {name: str(x) for name, x in filt.signal0_prob.items()}}


def _ic_payload(report) -> dict:
    return {"holds": report.holds,
            "signal0_slack": str(report.signal0_slack),
            "signal1_slack": str(report.signal1_slack)}


def _outcome_payload(outcome) -> dict:
    payload = {"kind": outcome.kind.value, "utilities": _utilities(outcome.utilities)}
    if outcome.babbling_action is not None:
        payload["babbling_action"] = outcome.babbling_action
    return payload


def _load_json(path: str, error: type[ValueError], what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise error(f"{what} file nests deeper than the JSON parser allows") from exc


def _load_filter(path: str) -> BinaryFilter:
    raw = _load_json(path, FilterValidationError, "filter")
    table = raw.get("signal0_prob") if isinstance(raw, dict) else None
    if not isinstance(table, dict):
        raise FilterValidationError(
            "filter file needs a top-level 'signal0_prob' object")
    return BinaryFilter(signal0_prob={
        str(name): parse_rational(value) for name, value in table.items()})


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed arguments and the loaded game and
# returns (result, diagnostics or None, summary lines, exit code).
# ---------------------------------------------------------------------------

def _cmd_optimize(args, game: Game):
    objective = Objective(args.objective)
    run = (receiver_optimal_filter if objective is Objective.RECEIVER
           else sender_optimal_filter)
    res = run(game)
    result = {
        "objective": objective.value,
        "filter": _filter_payload(res.filter),
        "pivot_state": res.pivot_state,
        "pivot_q": str(res.pivot_q) if res.pivot_q is not None else None,
        "equilibrium": _outcome_payload(res.outcome),
        "utilities": _utilities(res.outcome.utilities),
        "fallback": res.fell_back_to_constant,
    }
    diagnostics = {"sender_ic": _ic_payload(res.sender_ic),
                   "receiver_ic": _ic_payload(res.receiver_ic)}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result["filter"], fh, indent=2)
            fh.write("\n")
    lines = [f"{objective.value}-optimal filter:"]
    for name, x in res.filter.signal0_prob.items():
        lines.append(f"  P(signal 0 | {name}) = {x}")
    outcome = res.outcome
    lines.append(f"equilibrium: {outcome.kind.value}")
    lines.append(f"utilities: senders "
                 f"{[str(u) for u in outcome.utilities.senders]}, "
                 f"receiver {outcome.utilities.receiver}")
    if res.fell_back_to_constant:
        lines.append("fell back to the constant filter (babbling value)")
    if args.out:
        lines.append(f"filter written to {args.out}")
    return result, diagnostics, lines, 0


def _cmd_evaluate(args, game: Game):
    filt = _load_filter(args.filter)
    sender, receiver, outcome = binary_equilibrium(game, filt)
    diagnostics = {"sender_ic": _ic_payload(sender), "receiver_ic": _ic_payload(receiver)}
    lines = [f"canonical equilibrium: {outcome.kind.value}",
             f"utilities: senders {[str(u) for u in outcome.utilities.senders]}, "
             f"receiver {outcome.utilities.receiver}",
             f"sender IC slacks: {diagnostics['sender_ic']['signal0_slack']}, "
             f"{diagnostics['sender_ic']['signal1_slack']}",
             f"receiver IC slacks: {diagnostics['receiver_ic']['signal0_slack']}, "
             f"{diagnostics['receiver_ic']['signal1_slack']}"]
    if outcome.babbling_action is not None:
        lines.insert(1, f"babbling action: {outcome.babbling_action}")
    return _outcome_payload(outcome), diagnostics, lines, 0


def _cmd_two_sender(args, game: Game):
    best, candidates = two_sender_optimal(game)
    result = {
        "best": {"profile": best.profile.value,
                 "filter": _filter_payload(best.filter),
                 "receiver_utility": str(best.receiver_utility)},
        "candidates": [
            {"profile": c.profile.value,
             "filter": _filter_payload(c.filter),
             "receiver_utility": str(c.receiver_utility),
             "feasible": c.feasible}
            for c in candidates],
    }
    lines = ["candidates:"]
    for c in candidates:
        mark = "ok " if c.feasible else "infeasible"
        lines.append(f"  {c.profile.value:<17} {mark} receiver {c.receiver_utility}")
    lines.append(f"best: {best.profile.value} with receiver utility {best.receiver_utility}")
    return result, None, lines, 0


def _cmd_majority(args, game: Game):
    actions, utilities = majority_outcome(game)
    result = {"actions": actions, "utilities": _utilities(utilities)}
    lines = ["majority play (full information):"]
    for name, action in actions.items():
        lines.append(f"  {name}: action {action}")
    lines.append(f"receiver utility: {utilities.receiver}")
    return result, None, lines, 0


def _cmd_verify(args, game: Game):
    from .oracle import GridSpec, _verify   # loaded here: no other command runs it
    filt = _load_filter(args.filter)
    objective = Objective(args.objective)
    spec = GridSpec(resolution=args.grid)
    passed, value = _verify(game, filt, spec, objective, 0)
    result = {"objective": objective.value, "grid": args.grid,
              "passes": passed, "filter_value": str(value)}
    verdict = "PASS" if passed else "FAIL"
    lines = [f"verify ({objective.value}, grid {args.grid}): {verdict}",
             f"filter canonical value: {value}"]
    return result, None, lines, 0 if passed else 3


def _cmd_classify(args, game: Game):
    classes = classify_states(game)
    view = game.int_view
    deltas = list(zip(view.names, view.state_gaps(0), view.state_gaps(view.receiver)))
    result = {
        "classes": {
            "agree0": sorted(classes.agree0),
            "agree1": sorted(classes.agree1),
            "split01": sorted(classes.split01),
            "split10": sorted(classes.split10),
        },
        "deltas": [{"state": name, "sender": str(sender), "receiver": str(receiver)}
                   for name, sender, receiver in deltas],
    }
    lines = ["state classification:"]
    for label, names in result["classes"].items():
        lines.append(f"  {label}: {', '.join(names) if names else '-'}")
    lines.append("gaps (action 0 minus action 1):")
    for name, sender, receiver in deltas:
        lines.append(f"  {name}: sender {sender}, receiver {receiver}")
    return result, None, lines, 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

_FILTER = ("--filter", {"required": True, "help": "filter file (JSON)"})
_OBJECTIVE = ("--objective", {"choices": ["receiver", "sender"], "default": "receiver"})

#: (name, help, handler, needs exactly one sender, extra arguments), in
#: --help order.
_COMMANDS = (
    ("optimize", "compute an optimal filter", _cmd_optimize, True,
     (_OBJECTIVE, ("--out", {"help": "write the filter file here"}))),
    ("evaluate", "canonical equilibrium of a filter", _cmd_evaluate, True, (_FILTER,)),
    ("two-sender", "six-candidate comparison for two senders", _cmd_two_sender, False, ()),
    ("majority", "majority outcome for three or more senders", _cmd_majority, False, ()),
    ("verify", "check a filter against the grid oracle", _cmd_verify, True,
     (_FILTER, ("--grid", {"type": int, "default": 8, "help": "grid resolution (default 8)"}),
      _OBJECTIVE)),
    ("classify", "print state classes and utility gaps", _cmd_classify, True, ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talkfilter",
        description="Optimal information filters for binary-action "
                    "sender-receiver games, in exact arithmetic.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, one_sender, extras in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("game", help="game file (JSON)")
        p.add_argument("--json", action="store_true",
                       help="print the machine report only")
        for flag, options in extras:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler, one_sender=one_sender)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        game = validate_game(_load_json(args.game, GameValidationError, "game"))
        if args.one_sender and game.num_senders != 1:
            raise WrongSenderCount(
                f"{args.command} needs exactly 1 sender, game has {game.num_senders}")
        result, diagnostics, lines, code = args.handler(args, game)
        report = {"command": args.command,
                  "game": {"states": len(game.int_view.names), "senders": game.num_senders},
                  "result": result}
        if diagnostics is not None:
            report["diagnostics"] = diagnostics
        report["timing_seconds"] = time.perf_counter() - started
        # Default output carries the human summary and the machine report side
        # by side; --json drops the summary for clean piping.
        text = json.dumps(report, indent=2)
        print(text if args.json else "\n".join([*lines, text]))
        return code
    except ValueError as exc:  # every validation error of the package is one
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
