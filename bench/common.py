"""Paths, input sizes and child-process handling shared by the benchmark files.

Every program process is started with ``posix_spawn`` and reaped with
``wait4``, so its CPU time and peak resident set come from the kernel's own
accounting of that one child (and of any child it waited for).
"""
from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "_results"

PYTHON = sys.executable

#: Input sizes. The tiny set is for the self-test only.
SIZES = {
    "full": {"onesender_states": 10_000, "twosender_states": 200, "twosender_games": 16,
             "corpus_pairs": 8, "corpus_states": 6, "grid": 8},
    "tiny": {"onesender_states": 300, "twosender_states": 30, "twosender_games": 2,
             "corpus_pairs": 2, "corpus_states": 4, "grid": 4},
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass(frozen=True)
class ChildRun:
    status: int        # exit code, or -signal
    cpu_s: float       # user + system CPU of the child and its waited-for children
    maxrss_mb: float   # peak resident set of the child
    wall_s: float


def run_child(argv: list[str], stdout: Path, stderr: Path) -> ChildRun:
    """Run one program process to its end; stdout and stderr go to files."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions)
    _, wstatus, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    return ChildRun(status=os.waitstatus_to_exitcode(wstatus),
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    maxrss_mb=usage.ru_maxrss / 1024.0,
                    wall_s=wall)
