"""Every CLI report of the golden corpus, byte for byte.

``golden_reports.json`` holds the exit code, stderr and ``--json`` report of
each command that ``make_golden.py`` runs; regenerate it with that script
only when a report is meant to change.
"""
import json

import make_golden

with open(make_golden.GOLDEN, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def test_corpus_covers_every_command_and_outcome():
    runs = [run for records in GOLDEN.values() for run in records]
    assert {(r["argv"][0], r["exit"]) for r in runs} >= {
        (command, 0) for command in ("optimize", "evaluate", "verify", "classify",
                                     "two-sender", "majority")} | {
        (command, 2) for command in ("optimize", "evaluate", "classify",
                                     "two-sender", "majority")}
    assert make_golden.GOLDEN.stat().st_size < 150_000


def test_reports_unchanged():
    current = make_golden.generate()
    assert list(current) == list(GOLDEN)
    changed = [name for name in GOLDEN if current[name] != GOLDEN[name]]
    assert not changed, f"reports changed for {changed}"
