"""Span recording around ferhead's public functions, from outside the package.

`install` replaces each function named in TARGETS, wherever a ferhead module
holds a reference to it, with a wrapper that records one span per call:
name, start, end, parent span and run id. Spans stay in memory in the
Tracer and are written out when the command ends. The worker of an
untraced command never imports this module, so that command runs the
package unwrapped.

`layer_metrics` turns the recorded spans into the per-layer metrics listed
in METRICS.md. A span's self time is its duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc

import numpy as np

# Spans whose wrapper also records the peak of memory allocated during the call.
MEMORY_SPANS = ("training.evaluate",)


def _rows(position):
    return lambda args, result: {"rows": int(len(args[position]))} if len(args) > position else {}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])} if args and os.path.exists(args[0]) else {}


# (module, attribute or Class.method, span name, annotation of the call).
# Module functions are replaced in every ferhead module that imported them,
# so `training.forward` and `cli.evaluate` reach the same wrappers as
# `head.forward` and `training.evaluate`.
TARGETS = (
    ("ferhead.head", "forward", "head.forward", _rows(0)),
    ("ferhead.training", "forward_sequential", "training.forward_sequential", _rows(0)),
    ("ferhead.training", "backward", "head.backward", None),
    ("ferhead.training", "adam_step", "training.adam_step", None),
    ("ferhead.training", "evaluate", "training.evaluate", _rows(2)),
    ("ferhead.training", "train_epoch", "training.train_epoch", None),
    ("ferhead.training", "save_checkpoint", "training.save_checkpoint", _file_bytes),
    ("ferhead.training", "load_checkpoint", "training.load_checkpoint", None),
    ("ferhead.cli", "load_dataset", "datasets.load", None),
    ("ferhead.decomposition", "LatentCenters.update", "decomposition.center_update", None),
    ("ferhead.intra", "ClassCenters.update", "intra.center_update", None),
    ("ferhead.numerics", "SplitMix64.permutation", "numerics.permutation", None),
)


class Tracer:
    """In-memory span store for one command (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, annotate=None):
        measure_memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": 0.0,
                "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if measure_memory:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if measure_memory:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if annotate:
                span.update(annotate(args, result))
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every target that exists; a target a later version removed is skipped."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ferhead"]
    for module_name, attr, span_name, annotate in TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(owner, class_name, None)
            if cls is None or not hasattr(cls, method):
                continue
            setattr(cls, method, tracer.wrap(span_name, getattr(cls, method), annotate))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrapped = tracer.wrap(span_name, original, annotate)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(i)
    return [
        span["end"]
        - span["start"]
        - covered_length(
            [(spans[c]["start"], spans[c]["end"]) for c in children[i]],
            span["start"],
            span["end"],
        )
        for i, span in enumerate(spans)
    ]


def _has_ancestor(spans, index, name) -> bool:
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def forward_calls_per_step(spans: list[dict]) -> list[int]:
    """Forward calls made for each optimizer step, outside evaluate.

    A forward call belongs to the step whose adam_step span comes next.
    """
    counts: list[int] = []
    pending = 0
    for i, span in enumerate(spans):
        if span["name"] == "head.forward" and not _has_ancestor(spans, i, "training.evaluate"):
            pending += 1
        elif span["name"] == "training.adam_step":
            counts.append(pending)
            pending = 0
    return counts


def _percentile_ms(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def layer_metrics(commands: list[list[dict]], sessions: int, n_params: int) -> dict[str, float]:
    """Per-layer metrics per session from the span lists of traced commands.

    Counts, rows and seconds are totals divided by the number of traced
    sessions; percentiles pool every call; peaks and sizes are maxima.
    """
    durations: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    rows: dict[str, int] = {}
    step_counts: list[int] = []
    evaluate_peak = 0
    checkpoint_bytes = 0
    for spans in commands:
        for span, own in zip(spans, self_times(spans)):
            name = span["name"]
            durations.setdefault(name, []).append(span["end"] - span["start"])
            self_s[name] = self_s.get(name, 0.0) + own
            rows[name] = rows.get(name, 0) + span.get("rows", 0)
            evaluate_peak = max(evaluate_peak, span.get("peak_bytes", 0))
            checkpoint_bytes = max(checkpoint_bytes, span.get("bytes", 0))
        step_counts.extend(forward_calls_per_step(spans))

    per = 1.0 / max(1, sessions)

    def calls(name):
        return len(durations.get(name, ())) * per

    def total_s(name):
        return sum(durations.get(name, ())) * per

    adam_calls = calls("training.adam_step")
    return {
        "head.forward_calls": calls("head.forward"),
        "head.forward_calls_per_step": float(np.median(step_counts)) if step_counts else 0.0,
        "head.forward_rows": rows.get("head.forward", 0) * per,
        "head.forward_s": total_s("head.forward"),
        "head.forward_ms_p50": _percentile_ms(durations.get("head.forward", []), 50),
        "head.forward_ms_p90": _percentile_ms(durations.get("head.forward", []), 90),
        "head.backward_calls": calls("head.backward"),
        "head.backward_s": total_s("head.backward"),
        "head.backward_ms_p50": _percentile_ms(durations.get("head.backward", []), 50),
        "head.backward_ms_p90": _percentile_ms(durations.get("head.backward", []), 90),
        "training.adam_step_calls": adam_calls,
        "training.adam_step_s": total_s("training.adam_step"),
        "training.adam_step_ms_p50": _percentile_ms(durations.get("training.adam_step", []), 50),
        # read g, theta, m, v and write theta, m, v: seven float64 per parameter
        "training.adam_bytes_computed": adam_calls * n_params * 7 * 8,
        "training.evaluate_s": total_s("training.evaluate"),
        "training.evaluate_rows": rows.get("training.evaluate", 0) * per,
        "training.evaluate_peak_mb": evaluate_peak / 2**20,
        "training.epoch_self_s": self_s.get("training.train_epoch", 0.0) * per,
        "decomposition.center_update_s": total_s("decomposition.center_update"),
        "intra.center_update_s": total_s("intra.center_update"),
        "numerics.permutation_s": total_s("numerics.permutation"),
        "datasets.load_s": total_s("datasets.load"),
        "training.load_checkpoint_s": total_s("training.load_checkpoint"),
        "training.save_checkpoint_s": total_s("training.save_checkpoint"),
        "training.checkpoint_bytes": float(checkpoint_bytes),
        "cli.self_s": self_s.get("cli.main", 0.0) * per,
    }
