"""Per-layer metrics of a traced run: self times, counts and ratios.

Times are self seconds per traced pass (set-up layers: per traced set-up).
Shares divide a layer's self time by the self time of every layer span, in
every process, so pool workers count where their work ran.
"""

from __future__ import annotations

import os
import statistics
import sys
from collections import defaultdict

import numpy as np
from repro.metrics.latency import latency_summary, pool_latencies

from tracing import END, NAME, PARENT, PID, SELF, SID, START, TAG

#: Span name -> metric reporting its self time per traced pass.
SELF_TIME = {
    "coding.encode": "coding.encode_s",
    "coding.decode": "coding.decode_s",
    "noise.apply": "noise.apply_s",
    "analog.forward": "analog.forward_s",
    "transport.forward": "transport.self_s",
    "snn.transform": "snn.transform_s",
    "snn.advance": "snn.advance_s",
    "snn.run": "snn.self_s",
    "timestep.build": "timestep.build_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "registry.get": "registry.get_s",
}

#: Spans that are not work of a layer: harness counting, idle dispatch and
#: the engine waiting on its pool.
NOT_LAYER = {"trace.count", "engine.dispatch", "engine.evaluate", "serve.request"}

SHARES = {
    "share.coding_noise": ("coding.encode", "coding.decode", "noise.apply"),
    "share.snn": ("snn.transform", "snn.advance", "snn.run"),
    "share.analog": ("analog.forward",),
}

UNITS = {"_s": "s", "_ms": "ms", "_frac": "ratio", "_ratio": "ratio", "_rps": "1/s"}
RATIOS = {"noise.survival", "inference.lane_occupancy"}


def _unit(name: str) -> str:
    if name in RATIOS or name.startswith("share."):
        return "ratio"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _latency_ms(values):
    """(p50, p99) in ms of the finite timings; zeros when there are none."""
    pool = pool_latencies(values)
    pool = pool[np.isfinite(pool)]
    if not pool.size:
        return 0.0, 0.0
    summary = latency_summary(pool)
    return summary.p50 * 1000.0, summary.p99 * 1000.0


def _aggregate(spans):
    names = {(span[PID], span[SID]): span[NAME] for span in spans}
    self_s = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    for span in spans:
        name = span[NAME]
        self_s[name] += span[SELF]
        durations[name].append(span[END] - span[START])
        parent = names.get((span[PID], span[PARENT]))
        # A call counts once per layer entry: nested calls of the same layer
        # (a coder's decode calling the base decode) are one call.
        if parent is None or parent.split(".")[0] != name.split(".")[0]:
            calls[name] += 1
    return self_s, calls, durations


def per_layer(recorder, workload, traced, untraced, setup_spans) -> dict:
    """The per-layer metric table of a traced run (and a stderr summary)."""
    worker_files = recorder.collect_workers()
    spans = recorder.spans
    counters = recorder.counters
    passes = max(len(traced), 1)
    self_s, calls, durations = _aggregate(spans)
    setup_self, _, _ = _aggregate(setup_spans)
    values = {}

    values["workloads.prepare_s"] = setup_self["workloads.prepare"]
    values["conversion.convert_s"] = setup_self["conversion.convert"]
    for span, metric in SELF_TIME.items():
        values[metric] = self_s[span] / passes

    values["coding.calls"] = (calls["coding.encode"] + calls["coding.decode"]) / passes
    values["coding.spikes"] = counters.get("coding.spikes", 0.0) / passes
    values["noise.calls"] = calls["noise.apply"] / passes
    spikes_in = counters.get("noise.spikes_in", 0.0)
    values["noise.survival"] = counters.get("noise.spikes_out", 0.0) / spikes_in if spikes_in else 0.0
    values["analog.calls"] = calls["analog.forward"] / passes
    values["snn.spikes"] = counters.get("snn.spikes", 0.0) / passes

    cell_times = durations["engine.cell"]
    values["engine.cells"] = len(cell_times) / passes
    values["engine.cell_s"] = statistics.median(cell_times) if cell_times else 0.0
    capacity = sum(
        (span[END] - span[START]) * (span[TAG] or 1)
        for span in spans if span[NAME] == "engine.dispatch"
    )
    values["engine.pool_busy_frac"] = sum(cell_times) / capacity if capacity else 0.0
    values["engine.failed_cells"] = sum(p.extra.get("failed_cells", 0) for p in traced) / passes

    gets = calls["store.get"]
    values["store.puts"] = calls["store.put"] / passes
    values["store.gets"] = gets / passes
    values["store.hit_ratio"] = counters.get("store.hits", 0.0) / gets if gets else 0.0
    values["store.resume_s"] = (
        statistics.median(p.extra["resume_s"] for p in traced)
        if traced and "resume_s" in traced[0].extra else 0.0
    )

    batch_times = durations["inference.serve_batch"]
    rows = counters.get("inference.rows", 0.0)
    padded = counters.get("inference.padded_rows", 0.0)
    nominal = [p.extra["rungs"][0] for p in traced if "rungs" in p.extra]
    waits = [lat - comp for r in nominal for lat, comp in zip(r["latency"], r["compute"])]
    values["scheduler.queue_wait_p50_ms"], values["scheduler.queue_wait_p99_ms"] = _latency_ms(waits)
    values["scheduler.batches"] = len(batch_times) / passes
    values["scheduler.batch_size_mean"] = rows / len(batch_times) if batch_times else 0.0
    values["inference.compute_p50_ms"], values["inference.compute_p99_ms"] = _latency_ms(batch_times)
    values["inference.lane_occupancy"] = rows / padded if padded else 0.0
    values["registry.hits"] = calls["registry.get"] / passes
    registry = getattr(workload, "registry", None)
    values["registry.loads"] = float(registry.stats.loads) if registry is not None else 0.0
    values["loadgen.p99_ms"] = _latency_ms([r["latency"] for r in nominal])[1]
    values["loadgen.late_p99_ms"] = _latency_ms([r["late"] for r in nominal])[1]
    rungs = [r for p in traced for r in p.extra.get("rungs", [])]
    values["loadgen.sent"] = sum(r["count"] for r in rungs) / passes
    values["loadgen.completed"] = sum(
        sum(e is None for e in r["errors"]) for r in rungs
    ) / passes
    values["loadgen.capacity_rps"] = (
        statistics.median(p.extra["capacity_rps"] for p in traced)
        if traced and "capacity_rps" in traced[0].extra else 0.0
    )

    layer_total = sum(v for name, v in self_s.items() if name not in NOT_LAYER)
    for metric, members in SHARES.items():
        values[metric] = sum(self_s[m] for m in members) / layer_total if layer_total else 0.0
    traced_wall = statistics.median(p.wall_s for p in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    own = os.getpid()
    layer_pids = {span[PID] for span in spans if span[NAME] not in NOT_LAYER}
    values["trace.attributed_frac"] = (
        layer_total / passes / (traced_wall * len(layer_pids)) if layer_pids else 0.0
    )
    expected_cells = sum(p.extra.get("cells", 0) for p in traced) if hasattr(workload, "worker_pids") else 0
    worker_cells = sum(1 for span in spans if span[NAME] == "engine.cell" and span[PID] != own)
    values["trace.lost_cells"] = float(max(expected_cells - worker_cells, 0))

    _report(workload, self_s, layer_total, values, worker_files, traced_wall, untraced_wall)
    return {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}


def _report(workload, self_s, layer_total, values, worker_files, traced_wall, untraced_wall) -> None:
    out = sys.stderr
    print(f"\nper-layer self time, {workload.name} (share of all layer self time):", file=out)
    for name, seconds in sorted(self_s.items(), key=lambda item: -item[1]):
        if name in NOT_LAYER or not seconds:
            continue
        print(f"  {name:24s} {seconds:10.4f} s  {seconds / layer_total:6.1%}", file=out)
    print(
        f"tracing overhead: traced pass {traced_wall:.3f} s vs untraced {untraced_wall:.3f} s "
        f"({values['trace.overhead_frac']:+.1%}); worker spill files read: {worker_files}",
        file=out,
    )
    if values["trace.lost_cells"]:
        print(f"WARNING: spans of {values['trace.lost_cells']:.0f} pool cell(s) were lost", file=out)
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6g} {_unit(name)}", file=out)
