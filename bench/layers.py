"""Per-operation layer metrics from the tracer's spans and counters.

A span's name is ``<layer>.<function>``. For one operation (one or more
trace files) this gives:

- ``<name>_s``: inclusive CPU seconds of every span with that name;
- ``<layer>.self_s``: span time minus the time of its direct child spans,
  summed over the layer's spans;
- every counter and recorded value, summed.
"""
from __future__ import annotations

from collections import defaultdict


def op_metrics(traces: list[dict]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, _, start, end), children in zip(spans, child_time):
            out[name + "_s"] += end - start
            out[name.split(".")[0] + ".self_s"] += end - start - children
        for table in (trace["counts"], trace["values"]):
            for key, value in table.items():
                out[key] += value
    return out


def mean_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Per-operation mean of every metric over whole rounds of traced operations."""
    keys = sorted({k for m in per_op for k in m})
    means = {k: sum(m.get(k, 0.0) for m in per_op) / len(per_op) for k in keys}
    grid_s = means.get("oracle.grid_search_s", 0.0) + means.get("oracle.two_sender_grid_search_s", 0.0)
    means["oracle.grid_points_per_s"] = means.get("oracle.grid_points", 0.0) / grid_s if grid_s else 0.0
    return means
