"""Span tracing of climd from outside the program.

``Tracer.install`` replaces public functions with wrappers at the names
their callers look them up under, so the program itself carries no
instrumentation. Each wrapper records one span (name, start, end,
parent, op id) and re-raises exceptions unchanged. Spans stay in memory
until the run ends; ``layer_metrics`` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from statistics import median

# (module the caller looks the name up in, attribute, span name).
# Span names are the defining module plus the function.
SITES = [
    ("climd.cli", "main", "cli"),
    ("climd.cli", "score_dataset", "measurer.score_dataset"),
    ("climd.cli", "build_schedule", "scheduler.build_schedule"),
    ("climd.fileformats", "read_traces", "fileformats.read_traces"),
    ("climd.fileformats", "read_difficulty", "fileformats.read_difficulty"),
    ("climd.fileformats", "read_distribution", "fileformats.read_distribution"),
    ("climd.fileformats", "write_difficulty", "fileformats.write_difficulty"),
    ("climd.fileformats", "write_distribution", "fileformats.write_distribution"),
    ("climd.fileformats", "write_schedule", "fileformats.write_schedule"),
    ("climd.fileformats", "write_epoch_rank_table", "fileformats.write_epoch_rank_table"),
    ("climd.fileformats", "build_manifest", "fileformats.build_manifest"),
    ("climd.scheduler", "build_queues", "scheduler.build_queues"),
    ("climd.scheduler", "apportion", "scheduler.apportion"),
    ("climd.scheduler", "largest_remainder", "scheduler.largest_remainder"),
    ("climd.simlab", "run_seed", "simlab.run_seed"),
    ("climd.simlab", "generate_dataset", "simlab.generate_dataset"),
    ("climd.simlab", "train", "simlab.train"),
    ("climd.simlab", "loss_and_grads", "simlab.loss_and_grads"),
    ("climd.simlab", "collect_traces", "simlab.collect_traces"),
    ("climd.simlab", "evaluate", "simlab.evaluate"),
    ("climd.simlab", "score_dataset", "measurer.score_dataset"),
    ("climd.simlab", "build_schedule", "scheduler.build_schedule"),
    ("climd.simlab", "apportion", "scheduler.apportion"),
    ("climd.simlab", "largest_remainder", "scheduler.largest_remainder"),
    ("climd.simlab", "random_baseline_schedule", "scheduler.random_baseline_schedule"),
    ("climd.simlab", "truncate_schedule", "scheduler.truncate_schedule"),
    ("climd.simlab", "confusion", "metrics.confusion"),
]
# Spans whose size (len of the result) is recorded, for per-sample rates.
COUNTED = {"fileformats.read_traces", "measurer.score_dataset"}
MODULES = ("cli", "fileformats", "measurer", "distribution", "scheduler",
           "simlab", "metrics")


class Tracer:
    """Collects spans as lists [name, start, end, parent, op, n, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._installed = False

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        counted = name in COUNTED
        by_arm = name == "simlab.train"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{kwargs.get('arm', 'train')}" if by_arm else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[6] = 1
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counted:
                rec[5] = len(result)
            return result

        return traced

    def install(self):
        if self._installed:
            return
        for module, attr, name in SITES:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name))
        from climd.distribution import ClassDistribution
        fn = ClassDistribution.__dict__["from_labels"].__func__
        ClassDistribution.from_labels = classmethod(self.wrap(fn, "distribution.from_labels"))
        self._installed = True


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children[i]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


# Per-layer metrics reported under --trace 1: name -> unit.
SELF_S = [
    "cli", "fileformats.read_traces", "fileformats.read_difficulty",
    "fileformats.write_schedule", "fileformats.write_epoch_rank_table",
    "fileformats.write_difficulty", "fileformats.build_manifest",
    "measurer.score_dataset", "distribution.from_labels",
    "scheduler.build_schedule", "scheduler.build_queues", "scheduler.apportion",
    "scheduler.random_baseline_schedule", "scheduler.truncate_schedule",
    "simlab.train.warmup", "simlab.train.climd", "simlab.train.baseline",
    "simlab.loss_and_grads", "simlab.collect_traces", "simlab.generate_dataset",
    "simlab.evaluate", "simlab.run_seed", "metrics.confusion",
]
LAYER_UNITS = {f"{n}.self_s": "s" for n in SELF_S}
LAYER_UNITS.update({
    "fileformats.read_traces.us_per_sample": "us",
    "measurer.score_dataset.us_per_sample": "us",
    "fileformats.write_schedule.bytes": "bytes",
    "scheduler.apportion.calls": "count",
    "scheduler.largest_remainder.calls": "count",
    "scheduler.apportion.rounds_per_call": "ratio",
    "simlab.train.overhead_us_per_batch": "us",
    "simlab.loss_and_grads.calls": "count",
    "simlab.loss_and_grads.us_per_call": "us",
    "simlab.macro_f1_gain": "F1",
    "trace.overhead_s": "s",
})
LAYER_UNITS.update({f"{m}.errors": "count" for m in MODULES})


def _per_op(spans, selfs, op: int) -> dict[str, float]:
    """One traced op's per-layer numbers (0 for layers it never entered)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    n = defaultdict(int)
    rounds = 0
    for s, self_s in zip(spans, selfs):
        if s[4] != op:
            continue
        total[s[0]] += self_s
        calls[s[0]] += 1
        n[s[0]] += s[5] or 0
        if s[0] == "scheduler.largest_remainder" and s[3] >= 0 \
                and spans[s[3]][0] == "scheduler.apportion":
            rounds += 1
    out = {f"{name}.self_s": total[name] for name in SELF_S}

    def per(num, den, scale=1e6):
        return num / den * scale if den else 0.0

    out["fileformats.read_traces.us_per_sample"] = per(
        total["fileformats.read_traces"], n["fileformats.read_traces"])
    out["measurer.score_dataset.us_per_sample"] = per(
        total["measurer.score_dataset"], n["measurer.score_dataset"])
    out["scheduler.apportion.calls"] = calls["scheduler.apportion"]
    out["scheduler.largest_remainder.calls"] = calls["scheduler.largest_remainder"]
    out["scheduler.apportion.rounds_per_call"] = per(
        rounds, calls["scheduler.apportion"], 1.0)
    batches = calls["simlab.loss_and_grads"]
    train_self = sum(total[f"simlab.train.{arm}"]
                     for arm in ("warmup", "climd", "baseline"))
    out["simlab.train.overhead_us_per_batch"] = per(train_self, batches)
    out["simlab.loss_and_grads.calls"] = batches
    out["simlab.loss_and_grads.us_per_call"] = per(total["simlab.loss_and_grads"], batches)
    return out


def layer_metrics(spans, ops: list[int]) -> dict[str, float]:
    """Median over the traced ops of each per-op number, plus error counts
    summed over the run. Callers add the metrics spans cannot give."""
    selfs = self_times(spans)
    per_op = [_per_op(spans, selfs, op) for op in ops]
    out = {key: median(p[key] for p in per_op) for key in per_op[0]}
    for m in MODULES:
        out[f"{m}.errors"] = sum(s[6] for s in spans if s[0].split(".")[0] == m)
    return out
