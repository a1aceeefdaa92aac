"""Schema fuzzing of the command line: no game or filter file makes it raise.

Every subcommand runs in-process on generated JSON files: arbitrary JSON
values, and valid game and filter files of at most four states, half of them
with one entry replaced or deleted. Each command must end with exit code 0,
2 (input error) or 3 (verification failure), never with an exception.
"""
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from talkfilter.cli import main

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10)

utility_text = st.one_of(
    st.integers(-6, 6).map(str),
    st.builds("{}/{}".format, st.integers(-6, 6), st.integers(1, 6)),
    st.sampled_from(["0.5", "-2.5e-1", "1e3", "1E-2", " 1 "]))

odd_text = st.sampled_from(["1/0", "1e1001", "", "x", "nan", "inf", "1/", "-1", "2",
                            "½", "1_0", "0", "1/-2", "3/2"])


def _paths(value, path=()):
    """Every (path to a container, key) pair inside a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path, key
        yield from _paths(item, path + (key,))


@st.composite
def mutated(draw, valid):
    """A valid file, or one with a single entry replaced or deleted."""
    value = draw(valid)
    paths = list(_paths(value))
    if not paths or draw(st.booleans()):
        return value
    path, key = draw(st.sampled_from(paths))
    container = value
    for step in path:
        container = container[step]
    if draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(st.one_of(odd_text, utility_text, json_values))
    return value


@st.composite
def valid_pairs(draw):
    """A valid game file of 1-4 states and 1-3 senders, and a filter file for it."""
    k = draw(st.integers(1, 4))
    senders = draw(st.sampled_from([1, 1, 2, 2, 3]))
    weights = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    pair = st.lists(utility_text, min_size=2, max_size=2)
    names = [f"w{i}" for i in range(k)]
    game = {"type": "transmission" if senders == 1 else "aggregation",
            "states": [{"name": name, "prior": f"{w}/{sum(weights)}",
                        "sender_utilities": draw(st.lists(pair, min_size=senders,
                                                          max_size=senders)),
                        "receiver_utility": draw(pair)}
                       for name, w in zip(names, weights)]}
    probs = st.sampled_from(["0", "1", "1/2", "1/3", "0.25"])
    filt = {"signal0_prob": {name: draw(probs) for name in names}}
    return {"game": game, "filter": filt}


COMMANDS = [
    ["optimize"],
    ["optimize", "--objective", "sender"],
    ["evaluate"],
    ["two-sender"],
    ["majority"],
    ["verify", "--grid", "2"],
    ["verify", "--grid", "2", "--objective", "sender"],
    ["classify"],
]


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(files=st.one_of(mutated(valid_pairs()), mutated(valid_pairs()),
                      st.fixed_dictionaries({"game": json_values, "filter": json_values})))
def test_cli_exits_cleanly_on_any_file(tmp_path, capsys, files):
    game, filt = files.get("game"), files.get("filter")
    game_path = tmp_path / "game.json"
    filter_path = tmp_path / "filter.json"
    game_path.write_text(json.dumps(game), encoding="utf-8")
    filter_path.write_text(json.dumps(filt), encoding="utf-8")
    for command, *options in COMMANDS:
        argv = [command, str(game_path), *options, "--json"]
        if command in ("evaluate", "verify"):
            argv += ["--filter", str(filter_path)]
        assert main(argv) in (0, 2, 3), argv
    capsys.readouterr()
