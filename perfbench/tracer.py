"""Span tracer that wraps anet's public callables from outside the package.

Nothing under src/ knows about it. Installing the tracer replaces each traced
callable, by identity, wherever it is bound: in every ``anet`` and ``anet.*``
module namespace and in every class those modules define. A module that did
``from .partition import build_partition_refined`` therefore calls the wrapper
too. Uninstalling puts every original back, so untraced runs execute the
unmodified code.

Calls made thousands of times per job (``Network.step``, ``RunSession.feed``
and friends, ``IntervalPartition.index_of``, ``format_rational``, the
oracles) are aggregated per (name, parent) into a count, a total and a self
time. Every other traced call becomes one span with start, end, parent span
and job id. Self time is a call's duration minus the part its traced
children cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, metric name, aggregated). A target missing from
# the code under test is skipped and its metric reads as zero calls.
TARGETS = (
    ("anet.network", "Network.step", "network.step", True),
    ("anet.network", "network_to_text", "network.text", False),
    ("anet.network", "network_from_text", "network.text", False),
    ("anet.network", "save_network", "network.text", False),
    ("anet.network", "save_network_path", "network.text", False),
    ("anet.network", "load_network", "network.text", False),
    ("anet.network", "load_network_path", "network.text", False),
    ("anet.protocol", "RunSession.feed", "protocol.feed", True),
    ("anet.protocol", "RunSession.clone", "protocol.clone", True),
    ("anet.protocol", "RunSession.drain", "protocol.drain", True),
    ("anet.protocol", "enumerate_language", "protocol.enumerate", False),
    ("anet.protocol", "trace_tsv", "protocol.trace", False),
    ("anet.cutlang", "qp_explore", "cutlang.qp", False),
    ("anet.cutlang", "reversal_member", "cutlang.oracle", True),
    ("anet.partition", "build_partition_refined", "partition.refined", False),
    ("anet.partition", "extrapolation_table", "partition.table", False),
    ("anet.partition", "probe_verdict", "partition.probe", True),
    ("anet.quotient", "build_quotient_network", "quotient.build", False),
    ("anet.quotient", "reachable_rows", "quotient.reachable", False),
    ("anet.quotient", "quotient_difference_language", "quotient.oracle", False),
    ("anet.mealy", "machine_from_tsv", "mealy", False),
    ("anet.mealy", "load_machine_path", "mealy", False),
    ("anet.mealy", "compile_mealy", "mealy", False),
    ("anet.mealy", "accepts_word", "mealy.oracle", True),
    ("anet.reduction", "build_reduction", "reduction.build", False),
    ("anet.rationals", "IntervalPartition.index_of", "rationals.index_of", True),
    ("anet.rationals", "format_rational", "rationals.format", True),
    ("anet.cli", "main", "cli", False),
)

ALL = ("cut-tree", "reduction-cli", "quotient", "deep")

# Per-layer metrics: name, the traced metric it is measured on (None: the
# traced run as a whole), and the workloads on which that layer runs; the
# self-test requires a nonzero value there. Units and directions live in
# BENCHMARK.json only; WORKLOADS.md says which end-to-end metric each should
# move.
_WALKS = ("cut-tree", "reduction-cli")
LAYER_METRICS = (
    ("network.step.calls", "network.step", ("reduction-cli", "cut-tree", "deep")),
    ("network.step.self_s", "network.step", ("reduction-cli", "cut-tree", "deep")),
    ("network.step.distinct_ratio", "network.step", ALL),
    ("network.analog_bits.max", "network.step", ("deep",)),
    ("network.text.self_s", "network.text", ("reduction-cli",)),
    ("protocol.feed.calls", "protocol.feed", _WALKS),
    ("protocol.feed.self_s", "protocol.feed", _WALKS),
    ("protocol.clone.calls", "protocol.clone", _WALKS),
    ("protocol.clone.self_s", "protocol.clone", _WALKS),
    ("protocol.drain.calls", "protocol.drain", _WALKS),
    ("protocol.enumerate.self_s", "protocol.enumerate", _WALKS),
    ("protocol.steps_per_word", "protocol.enumerate", _WALKS),
    ("protocol.feed.gap_errors", "protocol.feed", ("quotient",)),
    ("protocol.trace.self_s", "protocol.trace", ("deep",)),
    ("cutlang.qp.self_s", "cutlang.qp", ("deep",)),
    ("cutlang.qp.layers", "cutlang.qp", ("deep",)),
    ("cutlang.oracle.self_s", "cutlang.oracle", ("cut-tree",)),
    ("partition.refined.self_s", "partition.refined", ("quotient",)),
    ("partition.intervals", "partition.refined", ("quotient",)),
    ("partition.table.self_s", "partition.table", ("quotient",)),
    ("partition.table.rows", "partition.table", ("quotient",)),
    ("partition.probe.calls", "partition.probe", ("quotient",)),
    ("partition.probe.self_s", "partition.probe", ("quotient",)),
    ("quotient.build.self_s", "quotient.build", ("quotient",)),
    ("quotient.reachable.self_s", "quotient.reachable", ("quotient",)),
    ("quotient.units", "quotient.build", ("quotient",)),
    ("quotient.oracle.self_s", "quotient.oracle", ("quotient",)),
    ("quotient.rows_used_ratio", "quotient.build", ("quotient",)),
    ("mealy.self_s", "mealy", ("reduction-cli",)),
    ("mealy.oracle.self_s", "mealy.oracle", ("reduction-cli",)),
    ("reduction.build.self_s", "reduction.build", ("reduction-cli",)),
    ("reduction.units", "reduction.build", ("reduction-cli",)),
    ("rationals.index_of.calls", "rationals.index_of", ("quotient",)),
    ("rationals.index_of.self_s", "rationals.index_of", ("quotient",)),
    ("rationals.format.self_s", "rationals.format", ("deep",)),
    ("cli.self_s", "cli", ("reduction-cli",)),
    ("trace.overhead_ratio", None, ALL),
)


def resolve(module, path):
    obj = sys.modules.get(module)
    for part in path.split("."):
        obj = getattr(obj, part, None) if obj is not None else None
    return obj


def bindings(target):
    """Every (owner, attribute) in anet's modules and classes bound to target."""
    seen = set()
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "anet" or name.startswith("anet.")):
            continue
        owners = [mod] + [
            v for v in vars(mod).values()
            if isinstance(v, type) and v.__module__.startswith("anet")
        ]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is target and (id(owner), attr) not in seen:
                    seen.add((id(owner), attr))
                    found.append((owner, attr))
    return found


class Tracer:
    """Collects spans and per-(name, parent) aggregates while installed."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_span, job, self_ns]
        self.hot = defaultdict(lambda: [0, 0, 0])  # (name, parent) -> calls, total, self
        self.counters = defaultdict(int)
        self.missing = set()  # metrics whose traced callable does not exist
        self._stack = []  # frames: [name, child_ns, span index or None, nearest span]
        self._undo = []
        self._job = None
        self._distinct = set()
        self._step_calls = 0

    # -- installation ------------------------------------------------------

    def install(self):
        from anet.errors import QueryGapError

        self._gap_error = QueryGapError
        for module, path, metric, hot in TARGETS:
            target = resolve(module, path)
            if target is None:
                self.missing.add(metric)
                continue
            wrapper = self._wrap(metric, target, hot, _HOOKS.get(path))
            for owner, attr in bindings(target):
                self._undo.append((owner, attr, target))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ---------------------------------------------------------

    def _wrap(self, metric, fn, hot, hook):
        stack = self._stack
        spans = self.spans
        aggregates = self.hot
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            nearest = parent[3] if parent is not None else None
            if hot:
                frame = [metric, 0, None, nearest]
            else:
                frame = [metric, 0, len(spans), len(spans)]
                spans.append([metric, 0, 0, nearest, tracer._job, 0])
            before = tracer._step_calls
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except tracer._gap_error:
                if metric == "protocol.feed":
                    tracer.counters["gap_errors"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if parent is not None:
                    parent[1] += duration
                if hot:
                    agg = aggregates[(metric, parent[0] if parent is not None else None)]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[1]
                else:
                    span = spans[frame[2]]
                    span[1], span[2], span[5] = t0, t1, duration - frame[1]
            if hook is not None:
                hook(tracer, args, kwargs, result, before)
            return result

        return wrapper

    @contextlib.contextmanager
    def job(self, job_id):
        """One root span per job; distinct step keys are counted per job."""
        index = len(self.spans)
        self.spans.append(["job", 0, 0, None, job_id, 0])
        frame = ["job", 0, index, index]
        self._job = job_id
        self._distinct = set()
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index][1:3] = [t0, t1]
            self.spans[index][5] = t1 - t0 - frame[1]
            self.counters["step.distinct"] += len(self._distinct)
            self._distinct = set()
            self._job = None

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per metric name: [calls, self_ns]."""
        out = defaultdict(lambda: [0, 0])
        for name, _, _, _, _, self_ns in self.spans:
            out[name][0] += 1
            out[name][1] += self_ns
        for (name, _), (calls, _, self_ns) in self.hot.items():
            out[name][0] += calls
            out[name][1] += self_ns
        return out

    def layer_metrics(self, jobs, overhead_ratio):
        """Per-layer metric values; counts and times are per traced job."""
        tot = self.totals()
        c = self.counters
        per_job = max(jobs, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        derived = {
            "network.step.distinct_ratio": ratio(c["step.distinct"], tot["network.step"][0]),
            "network.analog_bits.max": c["analog_bits.max"],
            "protocol.steps_per_word": ratio(c["enum.steps"], c["enum.nodes"]),
            "protocol.feed.gap_errors": c["gap_errors"] / per_job,
            "cutlang.qp.layers": c["qp.layers"] / per_job,
            "partition.intervals": c["partition.intervals"] / per_job,
            "partition.table.rows": c["partition.table.rows"] / per_job,
            "quotient.units": ratio(c["quotient.units"], c["quotient.builds"]),
            "quotient.rows_used_ratio": ratio(c["quotient.rows_used"], c["quotient.rows_tabulated"]),
            "reduction.units": ratio(c["reduction.units"], c["reduction.builds"]),
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, source, _ in LAYER_METRICS:
            if name in derived:
                out[name] = derived[name]
            elif name.endswith(".calls"):
                out[name] = tot[source][0] / per_job
            else:
                out[name] = tot[source][1] / 1e9 / per_job
        return out

    def dump(self, path):
        """Write spans and aggregates as JSON."""
        data = {
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": p, "job": j, "self_ns": x}
                for n, s, e, p, j, x in self.spans
            ],
            "aggregates": [
                {"name": n, "parent": p, "calls": a[0], "total_ns": a[1], "self_ns": a[2]}
                for (n, p), a in sorted(self.hot.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
            ],
            "counters": dict(self.counters),
            "missing_targets": sorted(self.missing),
        }
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(data, fp)


# -- per-target hooks: counts measured where the work happens ----------------


def _after_step(tracer, args, kwargs, result, before):
    tracer._step_calls += 1
    net, cfg = args[0], args[1]
    inputs = args[2] if len(args) > 2 else kwargs.get("inputs_next")
    tracer._distinct.add((id(net), cfg, tuple(sorted(inputs.items())) if inputs else ()))
    bits = result.analog.denominator.bit_length()
    if bits > tracer.counters["analog_bits.max"]:
        tracer.counters["analog_bits.max"] = bits


def _after_enumerate(tracer, args, kwargs, result, before):
    net = args[0]
    max_len = args[1] if len(args) > 1 else kwargs["max_len"]
    q = len(net.input_units)
    tracer.counters["enum.steps"] += tracer._step_calls - before
    tracer.counters["enum.nodes"] += sum(q**k for k in range(max_len + 1))


def _after_qp(tracer, args, kwargs, result, before):
    tracer.counters["qp.layers"] += result.explored_depth


def _after_refined(tracer, args, kwargs, result, before):
    tracer.counters["partition.intervals"] += result.interval_count


def _after_table(tracer, args, kwargs, result, before):
    tracer.counters["partition.table.rows"] += len(result.rows)


def _after_quotient(tracer, args, kwargs, result, before):
    c = tracer.counters
    c["quotient.builds"] += 1
    c["quotient.units"] += result.network.size
    # rows_used_ratio reads as 0 once the build stops exposing its tables
    truth = getattr(result, "truth", None)
    table = getattr(result, "first_table", None)
    if truth is not None and table is not None:
        c["quotient.rows_used"] += len(truth)
        c["quotient.rows_tabulated"] += len(table.rows)


def _after_reduction(tracer, args, kwargs, result, before):
    tracer.counters["reduction.builds"] += 1
    tracer.counters["reduction.units"] += result.network.size


_HOOKS = {
    "Network.step": _after_step,
    "enumerate_language": _after_enumerate,
    "qp_explore": _after_qp,
    "build_partition_refined": _after_refined,
    "extrapolation_table": _after_table,
    "build_quotient_network": _after_quotient,
    "build_reduction": _after_reduction,
}
