"""The benchmark's tracer still finds every name it wraps.

``bench/tracer.py`` wraps talkfilter functions by module and attribute
name; renaming or deleting one breaks only traced benchmark runs, so this
test installs it. The file is compiled from its text and run in a fresh
module, which writes no bytecode next to it. The tracer wraps functions only
in modules that are already loaded, and the package loads its modules on
first use, so this file loads the oracle, which imports every other module
that the tracer wraps.
"""
import types
from pathlib import Path

import talkfilter as tf
import talkfilter.oracle  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    module = types.ModuleType("tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_installs_on_every_target_and_uninstalls():
    tracer = _load_tracer()
    original = tf.receiver_optimal_filter
    trace = tracer.Trace()
    uninstall = tracer.install(trace)
    try:
        tf.receiver_optimal_filter(tf.random_game(tf.RandomGameSpec(seed=3, num_states=4)))
    finally:
        uninstall()
    assert tf.receiver_optimal_filter is original
    assert "filter_opt.optimize" in {span[0] for span in trace.spans}


def _targets(tracer) -> dict:
    """Every function the tracer wraps, and every talkfilter module attribute, by identity."""
    import sys
    found = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "talkfilter" or name.startswith("talkfilter.")):
            found.update(((name, attr), value) for attr, value in vars(module).items())
    for modname, attr, *_ in tracer._TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(sys.modules[f"talkfilter.{modname}"], cls_name)
            found[(modname, attr)] = owner.__dict__[meth]
    return found


def test_tracer_spans_the_general_and_grid_paths_and_restores_every_target():
    tracer = _load_tracer()
    before = _targets(tracer)
    trace = tracer.Trace()
    uninstall = tracer.install(trace)
    try:
        one = tf.random_game(tf.RandomGameSpec(seed=4, num_states=4))
        two = tf.random_game(tf.RandomGameSpec(seed=4, num_states=4, num_senders=2))
        general = tf.random_general_filter(one, seed=5)
        profile = tf.random_profile(one, general, seed=6)
        tf.merge_to_binary(one, general)
        tf.canonical_equilibrium(one, general)
        tf.check_nash_general(one, general, profile)
        tf.exhaustive_nash_check(one, general, profile)
        tf.profile_value(one, general, profile)
        tf.two_sender_grid_search(two, tf.GridSpec(resolution=2))
    finally:
        uninstall()
    after = _targets(tracer)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    spans = {span[0] for span in trace.spans}
    assert spans >= {
        "oracle.random_game", "oracle.random_general_filter", "oracle.random_profile",
        "equilibrium.merge_to_binary", "equilibrium.canonical_equilibrium",
        "equilibrium.check_nash_general", "oracle.exhaustive_nash_check",
        "oracle.profile_value", "oracle.two_sender_grid_search"}
    assert trace.counts["oracle.grid_points"] == 3 ** 4


def _traced(tracer, name, game):
    """``talkfilter.<name>(game)`` under a fresh trace, with the game's view built first."""
    game.int_view
    trace = tracer.Trace()
    uninstall = tracer.install(trace)
    try:
        return getattr(tf, name)(game), trace
    finally:
        uninstall()


def test_tracer_counts_the_one_sender_walk_and_spans_the_two_sender_lp():
    """Each per-layer metric these paths feed reads its value, not a silent zero."""
    tracer = _load_tracer()
    result, trace = _traced(tracer, "receiver_optimal_filter",
                            tf.random_game(tf.RandomGameSpec(seed=1, num_states=8)))
    assert result.pivot_index == 1
    assert (trace.counts["simplex.linear_solves"], trace.counts["filter_opt.pivot_q_calls"],
            trace.counts["filter_opt.walk_steps"]) == (1, 1, 1)
    _, trace = _traced(tracer, "two_sender_optimal", tf.random_game(
        tf.RandomGameSpec(seed=1, num_states=8, num_senders=2)))
    assert {span[0] for span in trace.spans} >= {
        "multi_sender.two_sender_optimal", "multi_sender.build_lp", "multi_sender.lp_solve",
        "simplex.maximize"}
