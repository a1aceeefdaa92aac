"""Write the golden CLI reports that ``test_golden_reports`` compares against.

    PYTHONPATH=src python tests/make_golden.py

The inputs are seeded 2-6-state games with one, two and three senders, plus
a few malformed game and filter files. Every input goes through
``optimize`` (both objectives, writing the filter), ``evaluate`` and
``verify --grid 3`` of each written filter, ``classify``, ``two-sender``
and ``majority``, in process with ``--json``. Each run is stored as its exit
code, its stderr and its stdout report with ``timing_seconds`` removed, in
compact JSON that keeps the report's key order. The runs of the inputs in
``SUMMARY_INPUTS`` are made a second time without ``--json``, and their
records also hold the human summary: the text before the report, with the
work directory written as ``<work>``. The rest of that output must be the
``--json`` run's report, exit code and stderr. The script prints to stderr
the argv of every run whose record changed against the file it replaces.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from talkfilter import RandomGameSpec, random_game
from talkfilter.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"


def _game_file(game) -> dict:
    return {"type": "transmission" if game.num_senders == 1 else "aggregation",
            "states": [{"name": rec.name, "prior": str(rec.prior),
                        "sender_utilities": [[str(a), str(b)] for a, b in rec.sender_utils],
                        "receiver_utility": [str(u) for u in rec.receiver_utils]}
                       for rec in game.states]}


def seeded_games() -> dict[str, dict]:
    """36 game files: 18 with one sender, 9 with two, 9 with three."""
    games = {}
    for i in range(36):
        senders = 1 if i < 18 else 2 if i < 27 else 3
        spec = RandomGameSpec(seed=9100 + i, num_states=2 + i % 5, num_senders=senders,
                              utility_range=(1, 5, 100)[i % 3],
                              prior="random-rational" if i % 2 else "uniform")
        games[f"seed{spec.seed}"] = _game_file(random_game(spec))
    return games


_ONE = {"name": "a", "prior": "1", "sender_utilities": [["1", "0"]],
        "receiver_utility": ["0", "1"]}
_HALF = [{"name": "a", "prior": "1/2", "sender_utilities": [["0", "1"]],
          "receiver_utility": ["1", "0"]},
         {"name": "b", "prior": "1/2", "sender_utilities": [["2", "0"]],
          "receiver_utility": ["0", "3"]}]

#: Malformed game files, as JSON text.
BAD_GAMES = {
    "not-json": "{",
    "array": "[1, 2]",
    "no-states": json.dumps({"type": "transmission", "states": []}),
    "zero-prior": json.dumps({"states": [dict(_ONE, prior="0"), dict(_ONE, name="b")]}),
    "priors-sum": json.dumps({"states": [dict(_ONE, prior="1/3"), dict(_ONE, name="b",
                                                                       prior="1/3")]}),
    "duplicate": json.dumps({"states": [dict(_ONE, prior="1/2"), dict(_ONE, prior="1/2")]}),
    "float-prior": json.dumps({"states": [dict(_ONE, prior=1.0)]}),
    "pair-of-three": json.dumps({"states": [dict(_ONE, receiver_utility=["1", "2", "3"])]}),
    "unknown-type": json.dumps({"type": "broadcast", "states": [_ONE]}),
}

#: Malformed filter files for the two-state game ``_HALF``, as JSON text.
BAD_FILTERS = {
    "filter-array": "[]",
    "filter-missing-state": json.dumps({"signal0_prob": {"a": "1"}}),
    "filter-unknown-state": json.dumps({"signal0_prob": {"a": "1", "b": "0", "c": "0"}}),
    "filter-above-one": json.dumps({"signal0_prob": {"a": "3/2", "b": "0"}}),
    "filter-not-rational": json.dumps({"signal0_prob": {"a": "x", "b": "0"}}),
}


#: Inputs whose runs also record the human summary: one-sender games with an
#: informative and a fall-back answer, two- and three-sender games, and two
#: malformed inputs.
SUMMARY_INPUTS = {"seed9100", "seed9102", "seed9118", "seed9119", "seed9127", "seed9128",
                  "duplicate", "filter-above-one"}


def _main(work: Path, argv: tuple[str, ...], *flags: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command, with file arguments
    (``*.json``) named relative to ``work``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(work / a) if a.endswith(".json") else a for a in argv]
                    + list(flags))
    return code, out.getvalue(), err.getvalue()


def _untimed(stdout: str) -> str:
    """A JSON report without ``timing_seconds``, in compact JSON."""
    if not stdout:
        return stdout
    report = json.loads(stdout)
    report.pop("timing_seconds", None)
    return json.dumps(report, separators=(",", ":"))


def _run(work: Path, *argv: str, summary: bool = False) -> dict:
    code, stdout, stderr = _main(work, argv, "--json")
    record = {"argv": list(argv), "exit": code, "stderr": stderr, "stdout": _untimed(stdout)}
    if summary:
        code, stdout, stderr = _main(work, argv)
        start = stdout.find("{\n")
        text, report = (stdout[:start], stdout[start:]) if start >= 0 else (stdout, "")
        if (code, stderr, _untimed(report)) != (record["exit"], record["stderr"],
                                                record["stdout"]):
            raise AssertionError(f"default output differs from --json for {argv}")
        record["summary"] = text.replace(str(work), "<work>")
    return record


def _game_runs(work: Path, name: str) -> list[dict]:
    """Every command on the game file ``name``.json."""
    game = f"{name}.json"
    summary = name in SUMMARY_INPUTS
    records = []
    for objective in ("receiver", "sender"):
        out = f"{name}.{objective}.filter.json"
        records.append(_run(work, "optimize", game, "--objective", objective, "--out", out,
                            summary=summary))
        if records[-1]["exit"] == 0:
            records.append(_run(work, "evaluate", game, "--filter", out, summary=summary))
            records.append(_run(work, "verify", game, "--filter", out, "--grid", "3",
                                "--objective", objective, summary=summary))
    for command in ("classify", "two-sender", "majority"):
        records.append(_run(work, command, game, summary=summary))
    return records


def generate() -> dict[str, list[dict]]:
    """The corpus: input name -> its runs, in a fixed order."""
    corpus = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        games = {name: json.dumps(raw) for name, raw in seeded_games().items()}
        games.update(BAD_GAMES)
        for name, text in games.items():
            (work / f"{name}.json").write_text(text, encoding="utf-8")
            corpus[name] = _game_runs(work, name)
        (work / "half.json").write_text(json.dumps({"states": _HALF}), encoding="utf-8")
        for name, text in BAD_FILTERS.items():
            (work / f"{name}.json").write_text(text, encoding="utf-8")
            corpus[name] = [_run(work, "evaluate", "half.json", "--filter", f"{name}.json",
                                 summary=name in SUMMARY_INPUTS)]
    return corpus


def changed_runs(old: dict[str, list[dict]], new: dict[str, list[dict]]) -> list[list[str]]:
    """The argv of every run in ``new`` whose record differs from ``old``'s, or is new."""
    before = {tuple(run["argv"]): run for records in old.values() for run in records}
    return [run["argv"] for records in new.values() for run in records
            if before.get(tuple(run["argv"])) != run]


if __name__ == "__main__":
    committed = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    corpus = generate()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=0, sort_keys=False)
        fh.write("\n")
    for argv in changed_runs(committed, corpus):
        print("changed:", " ".join(argv), file=sys.stderr)
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)", file=sys.stderr)
