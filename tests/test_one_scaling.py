"""Each command that reads a filter evaluates it once; the optimizer never does.

A filter is evaluated by summing its obey totals (``BinaryFilter.obey_totals``).
``optimize`` reports the IC checks that the optimizer derived from its walk,
so it evaluates no filter at all; ``evaluate`` and ``verify`` evaluate theirs
once.
"""
import json

import pytest

import talkfilter as tf
from talkfilter.cli import main


@pytest.fixture
def scalings(monkeypatch):
    """One entry per BinaryFilter.obey_totals call made while the test runs."""
    calls = []
    obey_totals = tf.BinaryFilter.obey_totals

    def counting(self, game):
        calls.append(1)
        return obey_totals(self, game)

    monkeypatch.setattr(tf.BinaryFilter, "obey_totals", counting)
    return calls


def game_file(path, game):
    path.write_text(json.dumps({"type": "transmission", "states": [
        {"name": rec.name, "prior": str(rec.prior),
         "sender_utilities": [[str(u) for u in rec.sender_utils[0]]],
         "receiver_utility": [str(u) for u in rec.receiver_utils]}
        for rec in game.states]}), encoding="utf-8")
    return str(path)


def seeded(seed, k):
    return tf.random_game(tf.RandomGameSpec(seed=seed, num_states=k, prior="random-rational"))


# Seeds 1-4 at 3 states fall back to the constant filter; the others mostly walk.
CASES = [(seed, k) for seed in range(1, 9) for k in (3, 40)]


def test_optimizer_scales_no_filter(scalings):
    pivots = fallbacks = 0
    for seed, k in CASES:
        game = seeded(seed, k)
        for run in (tf.receiver_optimal_filter, tf.sender_optimal_filter):
            scalings.clear()
            res = run(game)
            assert not scalings
            pivots += res.pivot_index is not None and not res.fell_back_to_constant
            fallbacks += res.fell_back_to_constant
    assert pivots >= 5 and fallbacks >= 2


@pytest.mark.parametrize("objective", ["receiver", "sender"])
def test_optimize_and_evaluate_scale_once(scalings, tmp_path, capsys, objective):
    """Between them, the two commands evaluate one filter: evaluate's."""
    for seed, k in CASES:
        path = game_file(tmp_path / f"g{seed}_{k}.json", seeded(seed, k))
        out = str(tmp_path / "filter.json")
        scalings.clear()
        assert main(["optimize", path, "--objective", objective, "--out", out, "--json"]) == 0
        assert not scalings
        scalings.clear()
        assert main(["evaluate", path, "--filter", out, "--json"]) == 0
        assert len(scalings) == 1
        capsys.readouterr()


def test_verify_scales_once(scalings, tmp_path, capsys):
    """verify takes its verdict and its reported value from one evaluation."""
    codes = set()
    for seed, k in CASES:
        if k > 6:
            continue
        game = seeded(seed, k)
        path = game_file(tmp_path / f"g{seed}_{k}.json", game)
        constant = tmp_path / "constant.json"
        constant.write_text(json.dumps({"signal0_prob": {n: "0" for n in game.state_names}}),
                            encoding="utf-8")
        for objective in ("receiver", "sender"):
            out = str(tmp_path / "filter.json")
            assert main(["optimize", path, "--objective", objective, "--out", out, "--json"]) == 0
            for filt in (out, str(constant)):
                scalings.clear()
                codes.add(main(["verify", path, "--filter", filt, "--grid", "4",
                                "--objective", objective, "--json"]))
                assert len(scalings) == 1
        capsys.readouterr()
    assert codes == {0, 3}
