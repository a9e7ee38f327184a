"""In-memory spans around qudisc's public functions, recorded from outside.

A ``Tracer`` replaces each traced function at the place its caller looks it
up (for example ``qudisc.campaign.helstrom_povm``), records one span per
call and restores the originals on ``close``. Spans are kept in memory and
written out once, after the traced pass. Nothing here imports numpy, so
the benchmark's set-up timer starts before numpy is loaded.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module that looks the name up, attribute path, layer metric prefix).
# A function is wrapped in every module that calls it on a benchmarked path,
# under one span name, so its calls and self time add up across callers.
WRAPPED = (
    ("qudisc.campaign", "run_instance", "campaign.run_instance"),
    ("qudisc.campaign", "render_report", "campaign.render_report"),
    ("qudisc.campaign", "haar_unitary_from_rng", "linalg.haar_unitary_from_rng"),
    ("qudisc.campaign", "relative_spectrum", "linalg.relative_spectrum"),
    ("qudisc.builder", "relative_spectrum", "linalg.relative_spectrum"),
    ("qudisc.campaign", "smallest_arc", "geometry.smallest_arc"),
    ("qudisc.builder", "smallest_arc", "geometry.smallest_arc"),
    ("qudisc.campaign", "t_min_bounded", "bounds.t_min_bounded"),
    ("qudisc.builder", "t_min_bounded", "bounds.t_min_bounded"),
    ("qudisc.campaign", "run_protocol", "protocol.run_protocol"),
    ("qudisc.builder", "run_protocol", "protocol.run_protocol"),
    ("qudisc.campaign", "audit_step_slacks", "protocol.audit_step_slacks"),
    ("qudisc.campaign", "build_parallel", "builder.build_parallel"),
    ("qudisc.campaign", "simulate_parallel", "builder.simulate_parallel"),
    ("qudisc.builder", "optimize_protocol", "builder.optimize_protocol"),
    ("qudisc.campaign", "helstrom_povm", "measurement.helstrom_povm"),
    ("qudisc.campaign", "unambiguous_povm", "measurement.unambiguous_povm"),
    ("qudisc.campaign", "evaluate_povm", "measurement.evaluate_povm"),
    ("qudisc.measurement", "Povm.validate", "measurement.Povm.validate"),
)

# Per-layer metrics reported from the traced pass: (name, unit).
LAYER_METRICS = (
    ("measurement.Povm.validate.calls", "count"),
    ("measurement.Povm.validate.self_s", "s"),
    ("measurement.evaluate_povm.self_s", "s"),
    ("measurement.helstrom_povm.self_s", "s"),
    ("measurement.unambiguous_povm.self_s", "s"),
    ("measurement.effect_bytes", "B"),
    ("linalg.haar_unitary_from_rng.calls", "count"),
    ("linalg.haar_unitary_from_rng.self_s", "s"),
    ("linalg.haar_unitary_from_rng.n3_sum", "count"),
    ("linalg.relative_spectrum.calls", "count"),
    ("linalg.relative_spectrum.self_s", "s"),
    ("geometry.smallest_arc.self_s", "s"),
    ("bounds.t_min_bounded.self_s", "s"),
    ("protocol.run_protocol.calls", "count"),
    ("protocol.run_protocol.self_s", "s"),
    ("protocol.audit_step_slacks.self_s", "s"),
    ("builder.build_parallel.self_s", "s"),
    ("builder.simulate_parallel.self_s", "s"),
    ("builder.optimize_protocol.self_s", "s"),
    ("builder.search_sweeps", "count"),
    ("builder.search_restarts", "count"),
    ("campaign.run_instance.self_s", "s"),
    ("campaign.render_report.self_s", "s"),
    ("trace.overhead_ratio", "1"),
)

# Metrics that must repeat exactly for a fixed seed.
EXACT_COUNTS = tuple(name for name, unit in LAYER_METRICS if unit in ("count", "B"))


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted attribute path in a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """Records spans (id, parent, op, name, start, end) while installed.

    A root span (one verified instance, one search problem or one rendered
    report) opens a new op id; its child spans share it.

    Also accumulates the computed counts that only the call arguments or
    results reveal: Haar n^3, validated effect bytes and search sweeps.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[tuple[int, int]] = []  # (span id, op id)
        self._next_span = 0
        self._next_op = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, path, name in WRAPPED:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def close(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._next_span
            tracer._next_span += 1
            if tracer._stack:
                parent, op = tracer._stack[-1]
            else:
                parent, op = -1, tracer._next_op
                tracer._next_op += 1
            tracer._stack.append((span, op))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((span, parent, op, name, start, end))
            tracer._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args, result) -> None:
        counts = self.counts
        counts[name + ".calls"] += 1
        if name == "linalg.haar_unitary_from_rng":
            counts["linalg.haar_unitary_from_rng.n3_sum"] += int(args[0]) ** 3
        elif name == "measurement.Povm.validate":
            povm = args[0]
            counts["measurement.effect_bytes"] += sum(16 * e.shape[0] ** 2 for e in povm.effects)
        elif name == "builder.optimize_protocol":
            counts["builder.search_restarts"] += len(result.histories)
            counts["builder.search_sweeps"] += sum(len(h) - 1 for h in result.histories)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        child_ns: dict[int, int] = defaultdict(int)
        for _span, parent, _op, _name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span, _parent, _op, name, start, end in self.spans:
            out[name] += (end - start - child_ns[span]) * 1e-9
        return out

    def layer_metrics(self, overhead_ratio: float) -> dict[str, dict]:
        """Every per-layer metric of LAYER_METRICS, with its unit."""
        self_s = self.self_seconds()
        values: dict[str, float] = {}
        for name, unit in LAYER_METRICS:
            if name == "trace.overhead_ratio":
                values[name] = overhead_ratio
            elif name.endswith(".self_s"):
                values[name] = self_s.get(name[: -len(".self_s")], 0.0)
            else:
                values[name] = self.counts.get(name, 0)
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}

    def write_spans(self, path) -> None:
        """One JSON array per line: [id, parent, op, name, start_ns, end_ns]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
