import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import talkfilter
from talkfilter.cli import main

ART = {
    "type": "transmission",
    "states": [
        {"name": "OG", "prior": "1/3", "sender_utilities": [["0", "1"]],
         "receiver_utility": ["0", "1"]},
        {"name": "IF", "prior": "1/3", "sender_utilities": [["0", "1"]],
         "receiver_utility": ["0", "-5"]},
        {"name": "DF", "prior": "1/3", "sender_utilities": [["0", "-5"]],
         "receiver_utility": ["0", "-5"]},
    ],
}

G3 = {
    "type": "transmission",
    "states": [
        {"name": "w1", "prior": "1/3", "sender_utilities": [["1", "0"]],
         "receiver_utility": ["1", "0"]},
        {"name": "w2", "prior": "1/3", "sender_utilities": [["0", "1"]],
         "receiver_utility": ["0", "1"]},
        {"name": "w3", "prior": "1/3", "sender_utilities": [["0", "3"]],
         "receiver_utility": ["1", "0"]},
    ],
}

L2 = {
    "type": "aggregation",
    "states": [
        {"name": "w1", "prior": "1/2", "sender_utilities": [["0", "1"], ["2", "0"]],
         "receiver_utility": ["1", "0"]},
        {"name": "w2", "prior": "1/2", "sender_utilities": [["2", "0"], ["0", "1"]],
         "receiver_utility": ["0", "1"]},
    ],
}

ART3 = {
    "type": "aggregation",
    "states": [
        {"name": "OG", "prior": "1/3", "sender_utilities": [["0", "1"]] * 3,
         "receiver_utility": ["0", "1"]},
        {"name": "IF", "prior": "1/3", "sender_utilities": [["0", "1"]] * 3,
         "receiver_utility": ["0", "-5"]},
        {"name": "DF", "prior": "1/3", "sender_utilities": [["0", "-5"]] * 3,
         "receiver_utility": ["0", "-5"]},
    ],
}


@pytest.fixture
def write(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)
    return _write


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def test_optimize_art_receiver(write, tmp_path, capsys):
    art = write("art.json", ART)
    out_path = str(tmp_path / "filter.json")
    code, report = run_json(capsys, ["optimize", art, "--objective", "receiver",
                                     "--out", out_path])
    assert code == 0
    result = report["result"]
    assert result["filter"]["signal0_prob"] == {"OG": "0", "IF": "1", "DF": "1"}
    assert result["utilities"] == {"senders": ["1/3"], "receiver": "1/3"}
    assert result["equilibrium"]["kind"] == "informative"
    assert not result["fallback"]
    written = json.loads((tmp_path / "filter.json").read_text())
    assert written["signal0_prob"] == {"OG": "0", "IF": "1", "DF": "1"}
    assert report["diagnostics"]["sender_ic"]["signal0_slack"] == "4/3"


def test_optimize_g3_sender(write, capsys):
    g3 = write("g3.json", G3)
    code, report = run_json(capsys, ["optimize", g3, "--objective", "sender"])
    assert code == 0
    result = report["result"]
    assert result["filter"]["signal0_prob"] == {"w1": "1", "w2": "0", "w3": "0"}
    assert result["utilities"] == {"senders": ["5/3"], "receiver": "2/3"}


def test_optimize_rejects_zero_prior(write, capsys):
    bad = dict(ART, states=[dict(ART["states"][0], prior="0")]
               + [dict(s) for s in ART["states"][1:]])
    bad["states"][1]["prior"] = "2/3"
    path = write("bad.json", bad)
    code = main(["optimize", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "NonPositivePrior" in err


def test_optimize_rejects_two_senders(write, capsys):
    l2 = write("l2.json", L2)
    assert main(["optimize", l2]) == 2
    assert "WrongSenderCount" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_identity_equivalent_is_babbling(write, capsys):
    art = write("art.json", ART)
    filt = write("filter.json", {"signal0_prob": {"OG": "0", "IF": "0", "DF": "1"}})
    code, report = run_json(capsys, ["evaluate", art, "--filter", filt])
    assert code == 0
    assert report["result"]["kind"] == "babbling"
    assert report["result"]["utilities"] == {"senders": ["0"], "receiver": "0"}
    assert report["result"]["babbling_action"] == 0


def test_evaluate_garbled_is_informative(write, capsys):
    art = write("art.json", ART)
    filt = write("filter.json", {"signal0_prob": {"OG": "0", "IF": "1", "DF": "1"}})
    code, report = run_json(capsys, ["evaluate", art, "--filter", filt])
    assert code == 0
    assert report["result"]["kind"] == "informative"
    assert report["result"]["utilities"] == {"senders": ["1/3"], "receiver": "1/3"}
    assert report["diagnostics"]["receiver_ic"]["signal0_slack"] == "10/3"


def test_evaluate_filter_domain_mismatch(write, capsys):
    art = write("art.json", ART)
    filt = write("filter.json", {"signal0_prob": {"OG": "0", "IF": "1"}})
    code = main(["evaluate", art, "--filter", filt])
    err = capsys.readouterr().err
    assert code == 2
    assert "FilterDomainMismatch" in err


# ---------------------------------------------------------------------------
# two-sender / majority
# ---------------------------------------------------------------------------

def test_two_sender_l2(write, capsys):
    l2 = write("l2.json", L2)
    code, report = run_json(capsys, ["two-sender", l2])
    assert code == 0
    by_profile = {c["profile"]: c for c in report["result"]["candidates"]}
    assert by_profile["unanimous-0"]["receiver_utility"] == "3/4"
    assert by_profile["unanimous-0"]["filter"]["signal0_prob"] == {
        "w1": "1", "w2": "1/2"}
    assert report["result"]["best"]["profile"] == "follow-sender-2"
    assert report["result"]["best"]["receiver_utility"] == "1"


def test_two_sender_wrong_count(write, capsys):
    art = write("art.json", ART)
    assert main(["two-sender", art]) == 2
    assert "WrongSenderCount" in capsys.readouterr().err


def test_majority_art3(write, capsys):
    path = write("art3.json", ART3)
    code, report = run_json(capsys, ["majority", path])
    assert code == 0
    assert report["result"]["utilities"]["receiver"] == "1/3"
    assert report["result"]["actions"] == {"OG": 1, "IF": 0, "DF": 0}


def test_majority_needs_three_senders(write, capsys):
    l2 = write("l2.json", L2)
    assert main(["majority", l2]) == 2
    assert "WrongSenderCount" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify / classify
# ---------------------------------------------------------------------------

def test_verify_passes_on_optimal_filter(write, capsys):
    art = write("art.json", ART)
    filt = write("filter.json", {"signal0_prob": {"OG": "0", "IF": "1", "DF": "1"}})
    code, report = run_json(capsys, ["verify", art, "--filter", filt,
                                     "--grid", "8", "--objective", "receiver"])
    assert code == 0
    assert report["result"]["passes"] is True
    assert report["result"]["filter_value"] == "1/3"


def test_verify_fails_on_suboptimal_filter(write, capsys):
    g3 = write("g3.json", G3)
    filt = write("const.json", {"signal0_prob": {"w1": "0", "w2": "0", "w3": "0"}})
    code, report = run_json(capsys, ["verify", g3, "--filter", filt, "--grid", "3"])
    assert code == 3
    assert report["result"]["passes"] is False


@pytest.mark.parametrize("k,grid", [(10, "8"), (12, "6")])
def test_verify_certifies_up_to_the_per_half_cap(write, tmp_path, capsys, k, grid):
    """10 states at grid 8 (9^5 points per half) and 12 at grid 6 (7^6)."""
    game = talkfilter.random_game(talkfilter.RandomGameSpec(
        seed=70 + k, num_states=k, prior="random-rational"))
    path = write("game.json", game_file(game))
    filt = str(tmp_path / "filter.json")
    assert main(["optimize", path, "--out", filt, "--json"]) == 0
    capsys.readouterr()
    code, report = run_json(capsys, ["verify", path, "--filter", filt, "--grid", grid])
    assert code == 0 and report["result"]["passes"] is True


def test_verify_refuses_a_grid_over_the_per_half_cap(write, capsys):
    """11 states at grid 8 need 9^6 = 531,441 points per half."""
    game = talkfilter.random_game(talkfilter.RandomGameSpec(seed=81, num_states=11))
    path = write("game.json", game_file(game))
    filt = write("filter.json", {"signal0_prob": {name: "0" for name in game.state_names}})
    assert main(["verify", path, "--filter", filt, "--grid", "8"]) == 2
    assert "GridTooLarge" in capsys.readouterr().err


def test_classify_art(write, capsys):
    art = write("art.json", ART)
    code, report = run_json(capsys, ["classify", art])
    assert code == 0
    assert report["result"]["classes"] == {
        "agree0": ["DF"], "agree1": ["OG"], "split01": [], "split10": ["IF"]}
    deltas = {d["state"]: d for d in report["result"]["deltas"]}
    assert deltas["IF"] == {"state": "IF", "sender": "-1", "receiver": "5"}


def test_classify_gaps(write, capsys):
    """Gaps are action-0 minus action-1 utilities, at their exact values."""
    _, report = run_json(capsys, ["classify", write("art.json", ART)])
    deltas = {d["state"]: d for d in report["result"]["deltas"]}
    assert deltas["OG"] == {"state": "OG", "sender": "-1", "receiver": "-1"}
    assert deltas["DF"] == {"state": "DF", "sender": "5", "receiver": "5"}
    game = {"type": "transmission", "states": [
        {"name": "a", "prior": "1/2", "sender_utilities": [["3", "3"]],
         "receiver_utility": ["1", "2"]},
        {"name": "b", "prior": "1/2", "sender_utilities": [["1/2", "1/3"]],
         "receiver_utility": ["0.25", "2"]}]}
    _, report = run_json(capsys, ["classify", write("ties.json", game)])
    assert report["result"]["deltas"] == [
        {"state": "a", "sender": "0", "receiver": "-1"},      # sender indifferent
        {"state": "b", "sender": "1/6", "receiver": "-7/4"}]
    assert report["result"]["classes"] == {
        "agree0": [], "agree1": ["a"], "split01": ["b"], "split10": []}


# ---------------------------------------------------------------------------
# Report contract
# ---------------------------------------------------------------------------

def test_reports_are_deterministic_modulo_timing(write, capsys):
    art = write("art.json", ART)
    _, first = run_json(capsys, ["optimize", art])
    _, second = run_json(capsys, ["optimize", art])
    first.pop("timing_seconds")
    second.pop("timing_seconds")
    assert first == second


def test_human_output_mentions_filter(write, capsys):
    art = write("art.json", ART)
    assert main(["optimize", art]) == 0
    out = capsys.readouterr().out
    assert "P(signal 0 | OG) = 0" in out
    assert "equilibrium: informative" in out


def test_missing_file_is_input_error(capsys):
    assert main(["optimize", "/nonexistent/game.json"]) == 2


def run_process(argv):
    """The CLI in a child process, so an uncaught exception shows as a traceback."""
    src = str(Path(talkfilter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "talkfilter.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def art_with(**fields):
    """ART with the first state's fields replaced."""
    return dict(ART, states=[dict(ART["states"][0], **fields), *ART["states"][1:]])


def game_file(game) -> dict:
    """The game-file form of a Game."""
    return {"type": "transmission" if game.num_senders == 1 else "aggregation",
            "states": [{"name": rec.name, "prior": str(rec.prior),
                        "sender_utilities": [[str(u0), str(u1)] for u0, u1 in rec.sender_utils],
                        "receiver_utility": [str(u) for u in rec.receiver_utils]}
                       for rec in game.states]}


@pytest.mark.parametrize("command", ["classify", "evaluate", "verify"])
def test_one_sender_commands_reject_two_senders(write, command):
    game = talkfilter.random_game(talkfilter.RandomGameSpec(seed=5, num_states=4, num_senders=2))
    argv = [command, write("pair.json", game_file(game))]
    if command != "classify":
        argv += ["--filter", write("filter.json", {"signal0_prob": {
            name: "1/2" for name in game.int_view.names}})]
    proc = run_process(argv)
    assert proc.returncode == 2
    assert "WrongSenderCount" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("game,filt", [
    ([1, 2, 3], None),
    ("states", None),
    ({"type": "transmission", "states": 5}, None),
    (ART, [{"OG": "0"}]),
    (ART, {"signal0_prob": ["0", "1", "1"]}),
    (ART, {"signal0_prob": "0"}),
    (art_with(receiver_utility="34"), None),
    (art_with(sender_utilities=["12"]), None),
    (art_with(sender_utilities="12"), None),
    (art_with(sender_utilities=[["1", "2", "9"]]), None),
    (art_with(receiver_utility=["1e1001", "0"]), None),
], ids=["game-array", "game-string", "states-number", "filter-array",
        "signal0-list", "signal0-string", "receiver-pair-string", "sender-pair-string",
        "sender-pairs-string", "sender-pair-three", "exponent"])
def test_non_object_input_is_input_error(write, game, filt):
    argv = ["optimize", write("game.json", game)]
    if filt is not None:
        argv = ["evaluate", argv[1], "--filter", write("filter.json", filt)]
    proc = run_process(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("deep", ["game", "filter"])
def test_deeply_nested_json_is_input_error(write, tmp_path, deep):
    nested = tmp_path / "deep.json"
    nested.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    game = str(nested) if deep == "game" else write("art.json", ART)
    proc = run_process(["evaluate", game, "--filter", str(nested)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {deep.capitalize()}ValidationError: ")


def test_cli_import_leaves_the_process_pool_unloaded(write):
    """The CLI loads what its commands run, and no more.

    No command runs a process pool, builds a dataclass or needs ``inspect``,
    and only verify runs the grid oracle, which it loads on first use. The
    solver modules load with the CLI, since the benchmark's tracer wraps
    functions only in modules that are already loaded.
    """
    src = str(Path(talkfilter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    unloaded = ["concurrent.futures.process", "dataclasses", "inspect", "talkfilter.oracle"]
    loaded = [f"talkfilter.{name}" for name in
              ("core", "_intview", "_simplex", "equilibrium", "filter_opt", "multi_sender")]
    code = ("import sys, talkfilter.cli; "
            "print(*(name in sys.modules for name in sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *unloaded, *loaded],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * len(unloaded) + ["True"] * len(loaded)
    filt = write("filter.json", {"signal0_prob": {"OG": "0", "IF": "1", "DF": "1"}})
    proc = run_process(["verify", write("art.json", ART), "--filter", filt, "--grid", "4"])
    assert proc.returncode == 0, proc.stderr
    assert "verify (receiver, grid 4): PASS" in proc.stdout
