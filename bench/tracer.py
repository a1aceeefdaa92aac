"""Spans and counters around talkfilter's public functions, from outside src/.

``install`` replaces module attributes: each wrapped function is swapped in
its defining module and in every talkfilter module that imported it by name,
so calls between modules go through the wrapper too. Nothing inside the
package changes. A span records a name, its parent, and CPU-time start and
end (``time.process_time``). Hot, tiny calls are counted, not spanned.

At load time this module imports only modules that the interpreter has
already loaded at start-up (``json`` is imported when a trace is written),
so loading it adds nothing to a timed import of ``talkfilter.cli``.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

_clock = time.process_time


class Trace:
    """In-memory spans and counters of one process or one operation."""

    def __init__(self):
        self.spans: list[list] = []          # [name, parent index or -1, start, end]
        self.counts: dict[str, float] = defaultdict(int)
        self.values: dict[str, float] = {}
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, self._stack[-1] if self._stack else -1, _clock(), 0.0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = _clock()
            self._stack.pop()

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "values": self.values}

    def dump(self, path) -> None:
        import json
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


def _grid_points(args, kwargs) -> int:
    game = args[0] if args else kwargs["game"]
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return (spec.resolution + 1) ** len(game.states)


def _walk_steps(result) -> int:
    # pivot_index is the walk position where the walk stopped; it is None when
    # the objective player's preferred extremes were already compatible.
    return result.pivot_index or 0


# (module, attribute, span name or None, counter name or None, counter amount)
# The amount is 1 per call, or a function of (args, kwargs, result).
_TARGETS = [
    ("core", "validate_game", "core.validate_game", None, None),
    ("core", "evaluate_sigma_s", "core.evaluate_sigma_s", None, None),
    ("core", "evaluate_babbling", "core.evaluate_babbling", None, None),
    ("core", "parse_rational", None, "core.parse_rational_calls", None),
    ("core", "BinaryFilter.check_for", None, "core.filter_checks", None),
    ("_intview", "IntView.__init__", "intview.build", "intview.builds", None),
    ("filter_opt", "receiver_optimal_filter", "filter_opt.optimize", "filter_opt.walk_steps",
     lambda a, k, r: _walk_steps(r)),
    ("filter_opt", "sender_optimal_filter", "filter_opt.optimize", "filter_opt.walk_steps",
     lambda a, k, r: _walk_steps(r)),
    ("filter_opt", "pivot_q", None, "filter_opt.pivot_q_calls", None),
    ("equilibrium", "sender_ic", "equilibrium.ic", None, None),
    ("equilibrium", "receiver_ic", "equilibrium.ic", None, None),
    ("equilibrium", "canonical_equilibrium", "equilibrium.canonical_equilibrium", None, None),
    ("equilibrium", "merge_to_binary", "equilibrium.merge_to_binary", None, None),
    ("equilibrium", "check_nash_general", "equilibrium.check_nash_general", None, None),
    ("multi_sender", "two_sender_optimal", "multi_sender.two_sender_optimal", None, None),
    ("multi_sender", "build_lp", "multi_sender.build_lp", None, None),
    ("multi_sender", "lp_solve", "multi_sender.lp_solve", None, None),
    ("multi_sender", "receiver_posthoc_ic", "multi_sender.receiver_posthoc_ic", None, None),
    ("_simplex", "maximize", "simplex.maximize", None, None),
    ("_simplex", "_solve", None, "simplex.linear_solves", None),
    ("oracle", "grid_search", "oracle.grid_search", "oracle.grid_points",
     lambda a, k, r: _grid_points(a, k)),
    ("oracle", "two_sender_grid_search", "oracle.two_sender_grid_search", "oracle.grid_points",
     lambda a, k, r: _grid_points(a, k)),
    ("oracle", "verify_filter_optimality", "oracle.verify_filter_optimality", None, None),
    ("oracle", "exhaustive_nash_check", "oracle.exhaustive_nash_check", None, None),
    ("oracle", "profile_value", "oracle.profile_value", None, None),
    ("oracle", "random_game", "oracle.random_game", None, None),
    ("oracle", "random_general_filter", "oracle.random_general_filter", None, None),
    ("oracle", "random_profile", "oracle.random_profile", None, None),
]


def _wrapper(trace: Trace, fn, span, counter, amount):
    if span is None:
        def counted(*args, **kwargs):
            trace.counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def spanned(*args, **kwargs):
        result = trace.call(span, fn, *args, **kwargs)
        if counter is not None:
            trace.counts[counter] += 1 if amount is None else amount(args, kwargs, result)
        return result
    return spanned


def install(trace: Trace):
    """Wrap every target for ``trace``; returns a function that undoes it."""
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "talkfilter" or name.startswith("talkfilter."))]
    for modname, attr, span, counter, amount in _TARGETS:
        module = importlib.import_module(f"talkfilter.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            undo.append((owner, meth, original))
            setattr(owner, meth, _wrapper(trace, original, span, counter, amount))
            continue
        original = getattr(module, attr)
        wrapped = _wrapper(trace, original, span, counter, amount)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
    return uninstall
