"""Command-line front end.

Subcommands: optimize, evaluate, two-sender, majority, verify, classify.
Each prints a short human summary followed by the machine report as JSON;
--json keeps only the JSON for clean piping. Exit codes: 0 success, 2 input
or validation error, 3 verification failure. verify sweeps the grid in two
halves of (R+1)^ceil(k/2) points each, in one process.
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
from .oracle import GridSpec, _verify


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


def _load_game(path: str) -> Game:
    return validate_game(_load_json(path, GameValidationError, "game"))


def _load_one_sender_game(args) -> Game:
    game = _load_game(args.game)
    if game.num_senders != 1:
        raise WrongSenderCount(
            f"{args.command} needs exactly 1 sender, game has {game.num_senders}")
    return game


def _load_filter(path: str) -> BinaryFilter:
    raw = _load_json(path, FilterValidationError, "filter")
    table = raw.get("signal0_prob") if isinstance(raw, dict) else None
    if not isinstance(table, dict):
        raise FilterValidationError(
            "filter file needs a top-level 'signal0_prob' object")
    return BinaryFilter(signal0_prob={
        str(name): parse_rational(value) for name, value in table.items()})


def _report(command: str, game: Game, result: dict,
            diagnostics: Optional[dict], started: float) -> dict:
    report = {
        "command": command,
        "game": {"states": len(game.int_view.names), "senders": game.num_senders},
        "result": result,
    }
    if diagnostics is not None:
        report["diagnostics"] = diagnostics
    report["timing_seconds"] = time.perf_counter() - started
    return report


def _emit(args, report: dict, human_lines: list[str]) -> None:
    # Default output carries the human summary and the machine report side
    # by side; --json drops the summary for clean piping.
    if not args.json:
        for line in human_lines:
            print(line)
    print(json.dumps(report, indent=2))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_optimize(args) -> int:
    started = time.perf_counter()
    game = _load_one_sender_game(args)
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
    sender, receiver, _ = binary_equilibrium(game, res.filter)
    diagnostics = {"sender_ic": _ic_payload(sender), "receiver_ic": _ic_payload(receiver)}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(_filter_payload(res.filter), fh, indent=2)
            fh.write("\n")
    report = _report("optimize", game, result, diagnostics, started)
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
    _emit(args, report, lines)
    return 0


def _cmd_evaluate(args) -> int:
    started = time.perf_counter()
    game = _load_one_sender_game(args)
    filt = _load_filter(args.filter)
    sender, receiver, outcome = binary_equilibrium(game, filt)
    diagnostics = {"sender_ic": _ic_payload(sender), "receiver_ic": _ic_payload(receiver)}
    result = _outcome_payload(outcome)
    report = _report("evaluate", game, result, diagnostics, started)
    lines = [f"canonical equilibrium: {outcome.kind.value}",
             f"utilities: senders {[str(u) for u in outcome.utilities.senders]}, "
             f"receiver {outcome.utilities.receiver}",
             f"sender IC slacks: {diagnostics['sender_ic']['signal0_slack']}, "
             f"{diagnostics['sender_ic']['signal1_slack']}",
             f"receiver IC slacks: {diagnostics['receiver_ic']['signal0_slack']}, "
             f"{diagnostics['receiver_ic']['signal1_slack']}"]
    if outcome.babbling_action is not None:
        lines.insert(1, f"babbling action: {outcome.babbling_action}")
    _emit(args, report, lines)
    return 0


def _cmd_two_sender(args) -> int:
    started = time.perf_counter()
    game = _load_game(args.game)
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
    report = _report("two-sender", game, result, None, started)
    lines = ["candidates:"]
    for c in candidates:
        mark = "ok " if c.feasible else "infeasible"
        lines.append(f"  {c.profile.value:<17} {mark} receiver {c.receiver_utility}")
    lines.append(f"best: {best.profile.value} with receiver utility {best.receiver_utility}")
    _emit(args, report, lines)
    return 0


def _cmd_majority(args) -> int:
    started = time.perf_counter()
    game = _load_game(args.game)
    actions, utilities = majority_outcome(game)
    result = {"actions": actions, "utilities": _utilities(utilities)}
    report = _report("majority", game, result, None, started)
    lines = ["majority play (full information):"]
    for name, action in actions.items():
        lines.append(f"  {name}: action {action}")
    lines.append(f"receiver utility: {utilities.receiver}")
    _emit(args, report, lines)
    return 0


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    game = _load_one_sender_game(args)
    filt = _load_filter(args.filter)
    objective = Objective(args.objective)
    spec = GridSpec(resolution=args.grid)
    passed, value = _verify(game, filt, spec, objective, 0)
    result = {"objective": objective.value, "grid": args.grid,
              "passes": passed, "filter_value": str(value)}
    report = _report("verify", game, result, None, started)
    verdict = "PASS" if passed else "FAIL"
    _emit(args, report, [f"verify ({objective.value}, grid {args.grid}): {verdict}",
                         f"filter canonical value: {value}"])
    return 0 if passed else 3


def _cmd_classify(args) -> int:
    started = time.perf_counter()
    game = _load_one_sender_game(args)
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
    report = _report("classify", game, result, None, started)
    lines = ["state classification:"]
    for label, names in result["classes"].items():
        lines.append(f"  {label}: {', '.join(names) if names else '-'}")
    lines.append("gaps (action 0 minus action 1):")
    for name, sender, receiver in deltas:
        lines.append(f"  {name}: sender {sender}, receiver {receiver}")
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talkfilter",
        description="Optimal information filters for binary-action "
                    "sender-receiver games, in exact arithmetic.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("game", help="game file (JSON)")
        p.add_argument("--json", action="store_true",
                       help="print the machine report only")

    p = sub.add_parser("optimize", help="compute an optimal filter")
    common(p)
    p.add_argument("--objective", choices=["receiver", "sender"], default="receiver")
    p.add_argument("--out", help="write the filter file here")
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("evaluate", help="canonical equilibrium of a filter")
    common(p)
    p.add_argument("--filter", required=True, help="filter file (JSON)")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("two-sender", help="six-candidate comparison for two senders")
    common(p)
    p.set_defaults(handler=_cmd_two_sender)

    p = sub.add_parser("majority", help="majority outcome for three or more senders")
    common(p)
    p.set_defaults(handler=_cmd_majority)

    p = sub.add_parser("verify", help="check a filter against the grid oracle")
    common(p)
    p.add_argument("--filter", required=True, help="filter file (JSON)")
    p.add_argument("--grid", type=int, default=8, help="grid resolution (default 8)")
    p.add_argument("--objective", choices=["receiver", "sender"], default="receiver")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("classify", help="print state classes and utility gaps")
    common(p)
    p.set_defaults(handler=_cmd_classify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # every validation error of the package is one
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
