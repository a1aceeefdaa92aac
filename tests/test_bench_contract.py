"""The benchmark's tracer still finds every name it wraps.

``bench/tracer.py`` wraps talkfilter functions by module and attribute
name; renaming or deleting one breaks only traced benchmark runs, so this
test installs it. The file is compiled from its text and run in a fresh
module, which writes no bytecode next to it.
"""
import types
from pathlib import Path

import talkfilter as tf

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
