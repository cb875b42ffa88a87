"""Per-layer metrics: their catalogue, and their derivation from spans.

Spans come from :mod:`tracing` (dicts with ``name``, ``start``/``end``
in ``perf_counter_ns``, ``parent``, ``rid`` and ``attrs``).  Client
timings come from the generator in ``perf_counter`` seconds; both
clocks are the host's monotonic clock, so they compare directly.

Every traced run reports every metric below; one a workload does not
exercise reads 0 (no spans, no work).
"""

from __future__ import annotations

from collections import defaultdict

from stats import percentile, self_time, union_length

BULK_FORMATS = ("posit8_0", "posit8_1", "posit8_2", "float2_5",
                "fixed8_3", "posit16_1")

#: (name, unit, better) for every per-layer metric.
PER_LAYER = (
    ("serve.http.read_ms.p50", "ms", "lower"),
    ("serve.http.write_ms.p50", "ms", "lower"),
    ("serve.unaccounted_ms.p50", "ms", "lower"),
    ("serve.registry.get_ms.p50", "ms", "lower"),
    ("serve.registry.build_s", "s", "lower"),
    ("serve.registry.quantize_us_per_row", "us", "lower"),
    ("serve.batcher.wait_ms.p50", "ms", "lower"),
    ("serve.batcher.wait_ms.p99", "ms", "lower"),
    ("serve.batcher.rows_per_batch", "rows", "higher"),
    ("serve.batcher.batches", "count", "lower"),
    ("serve.batcher.shed", "count", "lower"),
    ("serve.batcher.expired", "count", "lower"),
    ("serve.batcher.retries", "count", "lower"),
    ("serve.scheduler.exec_ms.p50", "ms", "lower"),
    ("serve.scheduler.slices_per_call", "count", "lower"),
) + tuple(
    (f"formats.network.us_per_row.{fmt}", "us", "lower")
    for fmt in BULK_FORMATS
) + (
    ("formats.network.busy_s", "s", "lower"),
    ("formats.network.layer_path_share", "ratio", "lower"),
    ("posit.tables.build_s", "s", "lower"),
    ("core.positron.compile_s", "s", "lower"),
    ("core.positron.compiles", "count", "lower"),
    ("analysis.train_s", "s", "lower"),
    ("analysis.evaluate_s", "s", "lower"),
    ("analysis.ablation_s", "s", "lower"),
    ("analysis.store.busy_s", "s", "lower"),
    ("analysis.store.ops", "count", "lower"),
    ("analysis.runner.parallel_eff", "ratio", "higher"),
    ("analysis.runner.retries", "count", "lower"),
    ("serve.pool.worker_share_max", "ratio", "lower"),
    ("serve.pool.restarts", "count", "lower"),
    ("gen.lateness_ms.p99", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _dur_s(span) -> float:
    return (span["end"] - span["start"]) / 1e9


def _p(values, q) -> float:
    return float(percentile(values, q)) if values else 0.0


def group(spans) -> dict:
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    return by_name


def self_seconds(spans) -> dict:
    """Span id -> self time in seconds (duration minus child cover)."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: self_time((span["start"], span["end"]),
                              children[span["id"]]) / 1e9
        for span in spans
    }


def core_layers(by_name, self_s) -> dict:
    """Metrics of the layers every process shares: the fused network
    kernel, posit tables and network compilation.  Kernel time is self
    time, so a plan compiled lazily inside the first predict counts as
    compilation, not as kernel work."""
    out = {}
    per_fmt = defaultdict(lambda: [0.0, 0])
    busy = 0.0
    for span in by_name["formats.network.predict"]:
        dur = self_s[span["id"]]
        busy += dur
        acc = per_fmt[span["attrs"]["format"]]
        acc[0] += dur
        acc[1] += span["attrs"]["rows"]
    for fmt in BULK_FORMATS:
        secs, rows = per_fmt.get(fmt, (0.0, 0))
        out[f"formats.network.us_per_row.{fmt}"] = (
            secs / rows * 1e6 if rows else 0.0
        )
    out["formats.network.busy_s"] = busy
    paths = [p for span in by_name["core.positron.network_kernel"]
             for p in span["attrs"]["paths"]]
    out["formats.network.layer_path_share"] = (
        sum(p == "layer" for p in paths) / len(paths) if paths else 0.0
    )
    out["posit.tables.build_s"] = sum(
        _dur_s(s) for s in by_name["posit.tables.tables_for"]
    )
    compiles = by_name["core.positron.from_float_params"]
    out["core.positron.compile_s"] = sum(
        _dur_s(s) for s in compiles + by_name["core.positron.network_kernel"]
    )
    out["core.positron.compiles"] = float(len(compiles))
    return out


def request_intervals(by_name, client) -> dict:
    """Server-side intervals of each client request, by request tag.

    ``client`` maps tag -> ``(send_s, done_s)``.  The read span is
    clipped to start at the client's send (before that the handler was
    idle on the keep-alive connection).  Untagged spans that ran off the
    event loop (bulk quantize on the executor) join the one request
    whose window holds their midpoint.
    """
    intervals = defaultdict(list)
    names = ("serve.http.read", "serve.registry.get",
             "serve.registry.quantize", "serve.batcher.submit",
             "serve.http.write")
    windows = sorted((send, done, rid) for rid, (send, done) in client.items())
    for name in names:
        for span in by_name[name]:
            start, end = span["start"] / 1e9, span["end"] / 1e9
            rid = span["rid"]
            if rid is None:
                mid = (start + end) / 2
                owners = [r for s, d, r in windows if s <= mid <= d]
                rid = owners[0] if len(owners) == 1 else None
            if rid is None or rid not in client:
                continue
            send, done = client[rid]
            start, end = max(start, send), min(end, done)
            if end > start:
                intervals[rid].append((name, start, end))
    return intervals


def serve_layers(spans, client) -> dict:
    """Per-layer metrics of one traced single-process serve phase."""
    by_name = group(spans)
    out = core_layers(by_name, self_seconds(spans))
    intervals = request_intervals(by_name, client)
    read_ms, unaccounted_ms = [], []
    for rid, parts in intervals.items():
        send, done = client[rid]
        read_ms += [(e - s) * 1e3 for n, s, e in parts
                    if n == "serve.http.read"]
        covered = union_length([(s, e) for _, s, e in parts])
        unaccounted_ms.append((done - send - covered) * 1e3)
    out["serve.http.read_ms.p50"] = _p(read_ms, 50)
    out["serve.http.write_ms.p50"] = _p(
        [_dur_s(s) * 1e3 for s in by_name["serve.http.write"]
         if s["rid"] in client], 50)
    out["serve.unaccounted_ms.p50"] = _p(unaccounted_ms, 50)
    out["serve.registry.get_ms.p50"] = _p(
        [_dur_s(s) * 1e3 for s in by_name["serve.registry.get"]
         if s["rid"] is not None], 50)
    out["serve.registry.build_s"] = sum(
        _dur_s(s) for s in by_name["serve.registry.build"])
    quant = by_name["serve.registry.quantize"]
    rows = sum(s["attrs"]["rows"] for s in quant)
    out["serve.registry.quantize_us_per_row"] = (
        sum(_dur_s(s) for s in quant) / rows * 1e6 if rows else 0.0
    )
    out.update(batcher_waits(by_name))
    execs = by_name["serve.scheduler.exec"]
    out["serve.scheduler.exec_ms.p50"] = _p(
        [_dur_s(s) * 1e3 for s in execs], 50)
    out["serve.scheduler.slices_per_call"] = (
        sum(s["attrs"]["slices"] for s in execs) / len(execs)
        if execs else 0.0
    )
    return out


def batcher_waits(by_name) -> dict:
    """Queue wait: each request's submit span minus the part of it its
    batch's execute span covers (the batch runs in the batcher's own
    task, so it is linked through the request tags it carried, not
    through a parent link)."""
    batch_of = {}
    for span in by_name["serve.batcher.execute"]:
        for rid in span["attrs"]["rids"]:
            if rid is not None:
                batch_of[rid] = (span["start"], span["end"])
    waits = [
        self_time((s["start"], s["end"]), [batch_of[s["rid"]]]) / 1e6
        for s in by_name["serve.batcher.submit"]
        if s["rid"] in batch_of
    ]
    return {
        "serve.batcher.wait_ms.p50": _p(waits, 50),
        "serve.batcher.wait_ms.p99": _p(waits, 99),
    }


def stats_layers(stats: dict) -> dict:
    """Batcher and pool counters from a ``/stats`` snapshot."""
    out = {
        "serve.batcher.rows_per_batch": float(stats.get("mean_batch_size", 0)),
        "serve.batcher.batches": float(stats.get("batches", 0)),
        "serve.batcher.shed": float(stats.get("shed", 0)),
        "serve.batcher.expired": float(stats.get("deadline_expired", 0)),
        "serve.batcher.retries": float(stats.get("batch_retries", 0)),
    }
    workers = stats.get("workers")
    if workers:
        total = sum(w["requests"] for w in workers)
        out["serve.pool.worker_share_max"] = (
            max(w["requests"] for w in workers) / total if total else 0.0
        )
        out["serve.pool.restarts"] = float(stats["pool"]["restarts"])
    return out


def grid_layers(spans, grid_s: float, jobs: int) -> dict:
    """Per-layer metrics of one traced cold grid (all its processes)."""
    by_name = group(spans)
    out = core_layers(by_name, self_seconds(spans))

    def total(name):
        return sum(_dur_s(s) for s in by_name[name])

    out["analysis.train_s"] = total("analysis.train")
    out["analysis.evaluate_s"] = total("analysis.evaluate")
    out["analysis.ablation_s"] = total("analysis.ablation")
    out["analysis.store.busy_s"] = total("analysis.store")
    out["analysis.store.ops"] = float(len(by_name["analysis.store"]))
    out["analysis.runner.parallel_eff"] = (
        total("analysis.task") / (jobs * grid_s) if grid_s > 0 else 0.0
    )
    return out


def complete(values: dict) -> dict:
    """Every catalogued metric, 0.0 where the workload had none."""
    return {name: float(values.get(name, 0.0)) for name, _, _ in PER_LAYER}
