"""CPU-timed benchmark of talkfilter's user paths.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Workloads (see bench/README.md and BENCHMARK.json):

- onesender-cli   `optimize` (both objectives) and `evaluate` of each written
                  filter, on a random-rational and a walk-forcing game file;
- twosender-cli   `two-sender` on each of 16 two-sender aggregation games;
- certify-corpus  library certification of seeded 6-state game pairs.

A closed loop with one client: this runner runs at most one program process
at a time and starts the next operation only after the last one ended. It
measures whole rounds of operations until S seconds have passed, then checks
every output apart from the program (bench/checks.py) and prints one JSON
line: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import layers
from common import HERE, PYTHON, RESULTS, ROOT, SRC, WORK, run_child

SETUP_REPEATS = 5


def _cli_argv(traced: bool, trace_file: Path) -> list[str]:
    if traced:
        return [PYTHON, str(HERE / "traced_cli.py"), str(trace_file)]
    return [PYTHON, "-m", "talkfilter.cli"]


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _report(text: str) -> dict:
    report = json.loads(text)
    report.pop("timing_seconds", None)
    return report


def _guarded(check, *args) -> list[str]:
    """A check that raises on malformed output reports it as a problem."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"{check.__name__} raised {type(exc).__name__}: {exc}"]


class Run:
    """State of one benchmark run: its inputs, operation records and problems."""

    def __init__(self, args):
        self.args = args
        self.work = WORK / args.workload
        self.inputs = self.work / "inputs"
        self.records: list[dict] = []     # one per operation
        self.problems: list[str] = []
        self.setup_cpu: list[float] = []
        self.setup_traces: list[dict] = []

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        # Compile talkfilter's bytecode once, untimed: users pay it once per install.
        run_child([PYTHON, "-c", "import talkfilter.cli"],
                  self.work / "warm.out", self.work / "warm.err")
        digests = set()
        for r in range(SETUP_REPEATS):
            shutil.rmtree(self.inputs, ignore_errors=True)
            argv = [PYTHON, str(HERE / "make_inputs.py"), self.args.workload,
                    str(self.args.seed), str(self.inputs)]
            if self.args.tiny:
                argv.append("--tiny")
            trace_file = self.work / f"setup{r}.trace.json"
            if self.args.trace:
                argv += ["--trace-out", str(trace_file)]
            res = run_child(argv, self.work / "setup.out", self.work / "setup.err")
            if res.status != 0:
                raise SystemExit(f"set-up failed:\n{(self.work / 'setup.err').read_text()}")
            self.setup_cpu.append(res.cpu_s)
            if self.args.trace:
                self.setup_traces.append(_read_json(trace_file))
            digest = hashlib.sha256()
            for path in sorted(self.inputs.iterdir()):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            digests.add(digest.hexdigest())
        if len(digests) != 1:
            self.problems.append("set-up made different inputs from the same seed")

    # -- operations --------------------------------------------------------

    def cli_op(self, commands: list[tuple[str, list[str], Path | None]],
               modes: tuple[bool, ...]) -> list[dict]:
        """Run one operation's CLI commands, each in a fresh child process.

        With modes (False, True) every command runs untraced and then traced
        right after, so the two records of the operation compare equal work
        done close together in time.
        """
        records = [{"traced": traced, "cpu_s": 0.0, "wall_s": 0.0, "rss_mb": 0.0,
                    "outputs": {}, "traces": {}, "errors": []} for traced in modes]
        for key, cli_args, out_file in commands:
            for record in records:
                trace_file = self.work / f"{key.replace('/', '-')}.trace.json"
                stdout, stderr = self.work / "cmd.out", self.work / "cmd.err"
                res = run_child(_cli_argv(record["traced"], trace_file) + cli_args, stdout, stderr)
                record["cpu_s"] += res.cpu_s
                record["wall_s"] += res.wall_s
                record["rss_mb"] = max(record["rss_mb"], res.maxrss_mb)
                if res.status != 0:
                    record["errors"].append(
                        f"{key}: exit {res.status}: {stderr.read_text()[-2000:]}")
                    continue
                record["outputs"][key] = {
                    "report": stdout.read_text(),
                    "file": out_file.read_text() if out_file else None}
                if record["traced"]:
                    record["traces"][key] = _read_json(trace_file)
        return records

    def onesender_ops(self) -> list:
        """One operation: optimize with both objectives, then evaluate each written filter."""
        commands = []
        for tag in ("random", "walk"):
            game = str(self.inputs / f"{tag}.json")
            for objective in ("receiver", "sender"):
                out = self.work / f"{tag}-{objective}.filter.json"
                commands.append((f"{tag}/optimize-{objective}",
                                 ["optimize", game, "--objective", objective,
                                  "--out", str(out), "--json"], out))
            for objective in ("receiver", "sender"):
                filt = str(self.work / f"{tag}-{objective}.filter.json")
                commands.append((f"{tag}/evaluate-{objective}",
                                 ["evaluate", game, "--filter", filt, "--json"], None))
        return [commands]

    def twosender_ops(self) -> list:
        """One operation per game: the two-sender command on it."""
        games = sorted(self.inputs.glob("pair*.json"))
        return [[("two-sender", ["two-sender", str(game), "--json"], None)] for game in games]

    def run_cli(self, ops: list) -> None:
        """Whole rounds (every operation once, untraced then traced) until time is up."""
        modes = (False, True) if self.args.trace else (False,)
        started = time.perf_counter()
        while time.perf_counter() - started < self.args.seconds:
            for index, commands in enumerate(ops):
                for record in self.cli_op(commands, modes):
                    record["index"] = index
                    self.records.append(record)

    def run_corpus(self) -> None:
        out = self.work / "worker.jsonl"
        argv = [PYTHON, str(HERE / "corpus_worker.py"), str(self.inputs / "corpus.json"),
                str(self.args.seconds), str(self.args.trace), str(out)]
        res = run_child(argv, self.work / "worker.out", self.work / "worker.err")
        if res.status != 0:
            raise SystemExit(f"corpus worker failed:\n{(self.work / 'worker.err').read_text()}")
        with open(out, encoding="utf-8") as fh:
            lines = fh.readlines()
        for rec in map(json.loads, lines):
            rec["rss_mb"] = res.maxrss_mb
            rec["errors"] = [rec["error"]] if rec["error"] else []
            rec["traces"] = {"op": rec["trace"]} if rec["traced"] else {}
            self.records.append(rec)

    # -- checks ------------------------------------------------------------

    def check_onesender(self, index: int, rec: dict) -> list[str]:
        outputs = rec["outputs"]
        problems = []
        for tag in ("random", "walk"):
            game = checks.ExactGame(_read_json(self.inputs / f"{tag}.json"))
            for objective, player in (("receiver", game.receiver), ("sender", 0)):
                where = f"{tag} optimize --objective {objective}"
                report = json.loads(outputs[f"{tag}/optimize-{objective}"]["report"])
                rep = report["result"]
                if json.loads(outputs[f"{tag}/optimize-{objective}"]["file"]) != rep["filter"]:
                    problems.append(f"{where}: --out file differs from the report's filter")
                filt = rep["filter"]["signal0_prob"]
                eq = rep["equilibrium"]
                problems += checks.check_optimized(
                    where, game, player, filt, eq["kind"], eq.get("babbling_action"),
                    eq["utilities"]["senders"], eq["utilities"]["receiver"],
                    ic=report["diagnostics"])
                if tag == "walk":
                    problems += checks.interior_pivot(where, filt, rep["pivot_state"],
                                                      rep["pivot_q"], rep["fallback"])
                where = f"{tag} evaluate {objective} filter"
                ev = json.loads(outputs[f"{tag}/evaluate-{objective}"]["report"])
                res = ev["result"]
                x = game.probs(filt)
                problems += checks.same_outcome(
                    where, game.canonical(x), res["kind"], res.get("babbling_action"),
                    res["utilities"]["senders"], res["utilities"]["receiver"])
                problems += checks.check_ic(where, game, x, ev["diagnostics"])
        return problems

    def check_twosender(self, index: int, rec: dict) -> list[str]:
        game = checks.ExactGame(_read_json(sorted(self.inputs.glob("pair*.json"))[index]))
        res = json.loads(rec["outputs"]["two-sender"]["report"])["result"]
        for cand in res["candidates"]:
            cand["filter"] = cand["filter"] and cand["filter"]["signal0_prob"]
        return checks.check_two_sender(f"game {index}", game, res["best"], res["candidates"])

    def check_corpus(self, index: int, rec: dict) -> list[str]:
        pair = _read_json(self.inputs / "corpus.json")["pairs"][index]
        return checks.check_certification(f"pair {index}", checks.ExactGame(pair["one"]),
                                          checks.ExactGame(pair["two"]), rec["out"])

    def check_records(self, check) -> None:
        """Check each operation's first run in full; its later runs must repeat its outputs."""
        reference: dict[int, tuple] = {}
        for rec in self.records:
            index = rec["index"]
            if "outputs" in rec:
                outputs = {k: (_report(v["report"]), v["file"]) for k, v in rec["outputs"].items()}
            else:
                outputs = rec["out"]
            if rec["errors"]:
                rec["failed"] = True
                self.problems += rec["errors"]
            elif index not in reference:
                found = _guarded(check, index, rec)
                reference[index] = (outputs, bool(found))
                self.problems += found
                rec["failed"] = bool(found)
            else:
                same = outputs == reference[index][0]
                rec["failed"] = not same or reference[index][1]
                if not same:
                    self.problems.append(f"operation {index}: outputs differ between rounds")
            for key, trace in rec["traces"].items():
                if key.startswith("walk/optimize") and \
                        layers.op_metrics([trace]).get("filter_opt.walk_steps", 0) <= 0:
                    rec["failed"] = True
                    self.problems.append(f"{key}: the traced concession walk took no step")

    # -- metrics -----------------------------------------------------------

    @staticmethod
    def op_cpu(records: list[dict]) -> float:
        """Median over rounds of the mean operation CPU time in the round."""
        size = len({r["index"] for r in records})
        rounds = [records[i:i + size] for i in range(0, len(records), size)]
        return statistics.median(sum(r["cpu_s"] for r in rnd) / len(rnd) for rnd in rounds)

    def end_to_end(self) -> dict:
        plain = [r for r in self.records if not r["traced"]]
        return {
            "setup_s": {"value": statistics.median(self.setup_cpu), "unit": "s"},
            "op_cpu_s": {"value": self.op_cpu(plain), "unit": "s"},
            "peak_rss_mb": {"value": max(r["rss_mb"] for r in plain), "unit": "MB"},
        }

    def per_layer(self, spec: list[dict]) -> dict:
        traced = [r for r in self.records if r["traced"]]
        plain = [r for r in self.records if not r["traced"]]
        means = layers.mean_metrics([layers.op_metrics(list(r["traces"].values()))
                                     for r in traced])
        setup = layers.mean_metrics([layers.op_metrics([t]) for t in self.setup_traces])
        means["oracle.random_game_s"] = setup.get("oracle.random_game_s", 0.0)
        means["trace.overhead_s"] = (statistics.mean(r["cpu_s"] for r in traced)
                                     - statistics.mean(r["cpu_s"] for r in plain))
        means["process.op_wall_s"] = statistics.median(r["wall_s"] for r in plain)
        return {m["name"]: {"value": means.get(m["name"], 0.0), "unit": m["unit"]} for m in spec}


def main() -> int:
    parser = argparse.ArgumentParser(description="CPU-timed benchmark of talkfilter's user paths")
    parser.add_argument("--workload", required=True,
                        choices=["onesender-cli", "twosender-cli", "certify-corpus"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test input sizes")
    args = parser.parse_args()

    if not (SRC / "talkfilter" / "__init__.py").is_file():
        print(f"error: no talkfilter sources under {SRC}", file=sys.stderr)
        return 2
    spec = _read_json(ROOT / "BENCHMARK.json")

    run = Run(args)
    run.setup()
    if args.workload == "onesender-cli":
        run.run_cli(run.onesender_ops())
        run.check_records(run.check_onesender)
    elif args.workload == "twosender-cli":
        run.run_cli(run.twosender_ops())
        run.check_records(run.check_twosender)
    else:
        run.run_corpus()
        run.check_records(run.check_corpus)

    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = run.per_layer(spec["per_layer"]) if args.trace else run.end_to_end()
    result = {"correct": not run.problems,
              "attempted": len(run.records),
              "failed": sum(1 for r in run.records if r["failed"]),
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "problems": run.problems,
                   "setup_cpu_s": run.setup_cpu,
                   "ops": [{k: r[k] for k in ("traced", "cpu_s", "wall_s", "rss_mb", "failed")}
                           for r in run.records],
                   "traces": [r["traces"] for r in run.records if r["traced"]]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
