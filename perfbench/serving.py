"""The serve workloads: ``serve_small``, ``serve_bulk`` and ``serve_pool``.

Each drives a real ``python -m repro serve`` process over HTTP from this
(one) generator process.  Parent models are trained into the run's own
artifact store before the first server starts, and every request body,
arrival time and expected answer is computed from the seed before any
timed phase.
"""

from __future__ import annotations

import json
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers
import loadgen
import procs
import stats

#: Table II's best 8-bit config per family on each dataset.
SMALL_MODELS = tuple(
    (ds, fmt)
    for ds in ("iris", "wbc")
    for fmt in ("posit8_1", "float3_4", "fixed8_4")
) + tuple(("mushroom", fmt) for fmt in ("posit8_1", "float2_5", "fixed8_3"))

NOMINAL_RPS = 100.0
#: Fixed geometric arrival-rate ladder (ratio ~1.2), requests/s.
LADDER_RPS = (150.0, 180.0, 215.0, 260.0, 310.0, 370.0, 445.0, 535.0,
              640.0, 770.0)
SLO_P99_MS = 10.0
#: The ladder stops after this many failing steps in a row.
LADDER_PATIENCE = 2
CONNECTIONS = 2
MAX_ROWS_SMALL = 4
WARM_S = 0.5

BULK_DATASET = "mushroom"
BULK_ROWS = 512
BULK_BODIES_PER_FORMAT = 4

SETUPS = 3
POOL_PROCS = 2
#: The nominal phase is split into this many windows; latency figures
#: are medians over the quieter half of them (least host steal).  While
#: fewer than half saw at most QUIET_STEAL, up to EXTRA_WINDOWS more are
#: measured.  A bulk run is one closed-loop phase.
WINDOWS = 8
EXTRA_WINDOWS = 8
QUIET_STEAL = 0.01

# Phase ids seed independent random streams: warm, nominal windows
# (planned, then extra), ladder rungs.
_WARM, _NOMINAL, _LADDER = 0, 1, 1 + WINDOWS + EXTRA_WINDOWS
_RID_STRIDE = 100_000


@dataclass
class Ctx:
    root: Path
    run_dir: Path
    seed: int
    seconds: float
    trace: bool

    @property
    def store(self) -> Path:
        return self.run_dir / "store"

    def env(self) -> dict:
        return procs.child_env(self.root, self.store)


def say(line: str) -> None:
    print(line, flush=True)


# ----------------------------------------------------------------------
# Inputs and answers
# ----------------------------------------------------------------------
def row_pools(datasets) -> dict:
    """Every dataset row (test then train split), trained parents first.

    Training here writes the parents into the run's store, where each
    server started later finds them.
    """
    from repro.analysis.sweep import trained_model

    pools = {}
    for name in sorted(datasets):
        data = trained_model(name).dataset
        pools[name] = np.vstack([data.test_x, data.train_x]).astype(np.float64)
    return pools


def small_phase(seed: int, phase: int, pools: dict, rate: float,
                duration_s: float):
    """Poisson arrivals at ``rate`` with a uniform model mix, 1-4 rows."""
    rng = np.random.default_rng([seed, phase])
    offsets = loadgen.poisson_offsets(rng, rate, duration_s)
    requests = []
    for i in range(len(offsets)):
        ds, fmt = SMALL_MODELS[rng.integers(len(SMALL_MODELS))]
        pool = pools[ds]
        rows = pool[rng.integers(len(pool), size=rng.integers(
            1, MAX_ROWS_SMALL + 1))]
        requests.append(
            loadgen.encode_request(phase * _RID_STRIDE + i, ds, fmt, rows)
        )
    return requests, offsets


def bulk_requests(seed: int, pool: np.ndarray, count: int, models: dict):
    """A warm pass over a seeded pool of bulk bodies, then ``count``
    requests drawn from it, each with its expected answer.

    Each body is 512 distinct rows in one of the bulk formats; the
    request sequence picks bodies (hence formats) from the seed.  Bodies
    are shared bytes; only each request's small tag differs, so the
    answers are computed once per body.
    """
    rng = np.random.default_rng([seed, _NOMINAL])
    bodies = []
    for fmt in layers.BULK_FORMATS:
        for _ in range(BULK_BODIES_PER_FORMAT):
            rows = pool[rng.choice(len(pool), BULK_ROWS, replace=False)]
            bodies.append((fmt, rows,
                           loadgen.encode_rest(BULK_DATASET, fmt, rows)))
    order = rng.integers(len(bodies), size=count)
    warm = [loadgen.encode_request(_WARM * _RID_STRIDE + i, BULK_DATASET,
                                   fmt, rows, rest)
            for i, (fmt, rows, rest) in enumerate(bodies)]
    body_answers = expected_answers(warm, models)
    timed = [loadgen.encode_request(_NOMINAL * _RID_STRIDE + i, BULK_DATASET,
                                    *bodies[b])
             for i, b in enumerate(order)]
    return warm, body_answers, timed, [body_answers[b] for b in order]


def expected_answers(requests, models: dict) -> list:
    """What ``build_served_model(ds, fmt).network.predict(rows)`` answers
    for each request, computed in this process.

    Rows of one model are stacked into one ``predict`` call: predictions
    are row-wise, so stacking cannot change any row's answer.
    """
    answers = [None] * len(requests)
    by_model: dict = {}
    for i, req in enumerate(requests):
        by_model.setdefault(req.model, []).append(i)
    for key, idx in by_model.items():
        stacked = np.vstack([requests[i].rows for i in idx])
        preds = models[key].network.predict(stacked)
        offset = 0
        for i in idx:
            n = len(requests[i].rows)
            answers[i] = preds[offset:offset + n].tolist()
            offset += n
    return answers


def check(outcome: loadgen.Outcome, answers) -> tuple[int, int]:
    """``(failed, mismatched)``: non-200 responses, and 200 responses
    whose predictions differ from the direct answer."""
    failed = mismatched = 0
    for status, body, want in zip(outcome.status, outcome.bodies, answers):
        if status != 200:
            failed += 1
            continue
        try:
            got = json.loads(body)["predictions"]
        except (ValueError, KeyError, TypeError):
            got = None
        mismatched += got != want
    return failed, mismatched


# ----------------------------------------------------------------------
# Servers
# ----------------------------------------------------------------------
def serve_argv(ctx: Ctx, models, pool: bool, spans_dir: Path | None):
    if spans_dir is None:
        argv = [sys.executable, "-m", "repro", "serve"]
    else:
        argv = [sys.executable, str(ctx.root / "perfbench" / "traced_serve.py"),
                str(spans_dir), "serve"]
    argv += ["--port", "0"]
    for ds, fmt in models:
        argv += ["--warmup", f"{ds}:{fmt}"]
    if pool:
        argv += ["--workers-procs", str(POOL_PROCS)]
    return argv


def start_server(ctx: Ctx, argv, setups: int) -> tuple[procs.Server, list]:
    """Start the server ``setups`` times; keep the last one running.

    Returns it with every start's spawn-to-banner time.
    """
    times = []
    for k in range(setups):
        server = procs.Server(argv, ctx.env(), ctx.run_dir,
                              ctx.run_dir / "server.log")
        times.append(server.ready_s)
        if k < setups - 1:
            server.stop()
    return server, times


def stop_server(server: procs.Server, pool: bool, traced: bool) -> None:
    # A pool manager drains on SIGTERM; a traced single-process server
    # needs SIGINT to unwind through the launcher and write its spans.
    sig = signal.SIGINT if traced and not pool else signal.SIGTERM
    server.stop(sig)


def load_spans(spans_dir: Path) -> list:
    spans = []
    for path in sorted(spans_dir.glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def latency_sample(outcome: loadgen.Outcome) -> list:
    """Latencies (ms) with each failed request as an infinite miss."""
    failed = int((~outcome.ok).sum())
    return list(outcome.latencies_ms()) + [float("inf")] * failed


def tail_text(sample) -> str:
    """p50, p90 and the highest percentile the sample supports."""
    q = stats.tail_percentile(len(sample))
    text = (f"p50={stats.percentile(sample, 50):.3f}ms "
            f"p90={stats.percentile(sample, 90):.3f}ms")
    if q > 90:
        text += f" p{q:g}={stats.percentile(sample, q):.3f}ms"
    return text


def summarize(name: str, outcome: loadgen.Outcome, rows, answers,
              steal_since=None) -> dict:
    """Check one phase's answers, report it, and return its figures.

    ``steal_since`` is :func:`procs.cpu_ticks` taken when the phase
    started; the phase's host steal share is then reported too.
    """
    steal = None
    if steal_since is not None:
        now = procs.cpu_ticks()
        steal = (now[0] - steal_since[0]) / max(1, now[1] - steal_since[1])
    failed, mismatched = check(outcome, answers)
    sample = latency_sample(outcome)
    ok_rows = sum(n for n, good in zip(rows, outcome.ok) if good)
    lateness = outcome.lateness_ms()
    summary = {
        "sent": len(sample), "failed": failed, "mismatched": mismatched,
        "sample": sample,
        "p50_ms": stats.percentile(sample, 50),
        "p90_ms": stats.percentile(sample, 90),
        "p99_ms": stats.percentile(sample, 99),
        "ok_rows": ok_rows, "wall_s": outcome.wall_s,
        "rows_per_s": ok_rows / outcome.wall_s,
        "late_p99_ms": stats.percentile(lateness, 99) if len(lateness) else 0.0,
        "steal": steal,
    }
    say(f"  {name}: sent={len(sample)} ok={len(sample) - failed} "
        f"failed={failed} mismatched={mismatched} {tail_text(sample)} "
        f"rows/s={summary['rows_per_s']:.1f} "
        f"gen_late_p99={summary['late_p99_ms']:.3f}ms"
        + ("" if steal is None else f" host_steal={steal:.2%}"))
    return summary


def client_windows(requests, outcome: loadgen.Outcome) -> dict:
    """Request tag -> (send, done) of every successful request."""
    return {
        req.rid: (float(send), float(done))
        for req, send, done, ok in zip(requests, outcome.send, outcome.done,
                                       outcome.ok)
        if ok
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Result:
    """What a workload hands back to ``run.py``."""

    def __init__(self):
        self.e2e: dict = {}
        self.layers: dict = {}
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0

    def add(self, summary: dict) -> None:
        self.attempted += summary["sent"]
        self.failed += summary["failed"]
        self.mismatched += summary["mismatched"]


def windowed(summaries) -> dict:
    """A phase's figures: the median of each window's p50 and p90 over
    the half of the windows with the least host steal, so CPU taken by
    other machines on the host does not move the run's number; and the
    rows answered per second over all windows."""
    keep = stats.quietest([w["steal"] for w in summaries],
                          len(summaries) // 2)
    figures = {key: stats.median([summaries[i][key] for i in keep])
               for key in ("p50_ms", "p90_ms")}
    figures["rows_per_s"] = (sum(w["ok_rows"] for w in summaries)
                             / sum(w["wall_s"] for w in summaries))
    return figures


def quiet_enough(summaries) -> bool:
    """Whether half of the windows so far saw at most QUIET_STEAL."""
    quiet = sum(w["steal"] <= QUIET_STEAL for w in summaries)
    return quiet >= WINDOWS // 2


def run_open_loop_workload(ctx: Ctx, pool: bool) -> Result:
    """``serve_small`` (single process) or ``serve_pool`` (2 workers)."""
    from repro.serve import build_served_model

    pools = row_pools({ds for ds, _ in SMALL_MODELS})
    models = {m: build_served_model(*m) for m in SMALL_MODELS}
    window_s = ctx.seconds * (0.5 if ctx.trace else 0.4) / WINDOWS
    step_s = ctx.seconds * 0.05
    phases = {"warm": small_phase(ctx.seed, _WARM, pools, NOMINAL_RPS,
                                  WARM_S)}
    nominal = [f"nominal{k + 1}" for k in range(WINDOWS + EXTRA_WINDOWS)]
    for k, name in enumerate(nominal):
        phases[name] = small_phase(ctx.seed, _NOMINAL + k, pools,
                                   NOMINAL_RPS, window_s)
    ladder = [] if ctx.trace else [f"ladder@{rate:g}" for rate in LADDER_RPS]
    for k, (name, rate) in enumerate(zip(ladder, LADDER_RPS)):
        phases[name] = small_phase(ctx.seed, _LADDER + k, pools, rate, step_s)
    answers = {name: expected_answers(reqs, models)
               for name, (reqs, _) in phases.items()}
    result = Result()

    def drive(server, name, tally=True):
        reqs, offsets = phases[name]
        before = procs.cpu_ticks()
        out = loadgen.run_open_loop(server.host, server.port, reqs, offsets,
                                    CONNECTIONS)
        summary = summarize(name, out, [len(r.rows) for r in reqs],
                            answers[name], steal_since=before)
        if tally:
            result.add(summary)
        else:
            result.mismatched += summary["mismatched"]
        return out, summary

    say(f"nominal rate {NOMINAL_RPS:g} req/s, {WINDOWS} windows of "
        f"{window_s:g}s, {CONNECTIONS} connections; ladder p99 limit "
        f"{SLO_P99_MS:g} ms")
    argv = serve_argv(ctx, SMALL_MODELS, pool, None)
    server, setup_times = start_server(ctx, argv, 1 if ctx.trace else SETUPS)
    try:
        drive(server, "warm", tally=False)
        # Ladder steps alternate with the nominal windows, so the windows
        # sample the whole run rather than one stretch of host noise.
        windows, verdicts = [], []
        for k in range(max(WINDOWS, len(ladder))):
            if k < WINDOWS:
                windows.append(drive(server, nominal[k])[1])
            if k < len(ladder) and not stats.ladder_done(verdicts,
                                                         LADDER_PATIENCE):
                rate = LADDER_RPS[k]
                out, summary = drive(server, ladder[k])
                ok = stats.step_meets_limit(
                    out.latencies_ms(), summary["failed"], out.backlog,
                    SLO_P99_MS, CONNECTIONS)
                verdicts.append(ok)
                say(f"    step {rate:g} req/s: p99={summary['p99_ms']:.3f}ms "
                    f"backlog_grows="
                    f"{stats.backlog_grows(out.backlog, CONNECTIONS)} "
                    f"-> {'meets' if ok else 'misses'} the limit")
        for name in nominal[WINDOWS:]:
            if quiet_enough(windows):
                break
            windows.append(drive(server, name)[1])
        figures = windowed(windows)
        pooled = [x for w in windows for x in w["sample"]]
        say(f"  nominal, all windows: sent={len(pooled)} "
            f"{tail_text(pooled)} p99={stats.percentile(pooled, 99):.3f}ms")
        if ladder:
            say(f"  slo_rps="
                f"{stats.ladder_rate(LADDER_RPS, verdicts, LADDER_PATIENCE):g}")
        rss = server.peak_rss_mb()
    finally:
        stop_server(server, pool, traced=False)
    result.e2e = {"setup_s": stats.median(setup_times),
                  "p50_ms": figures["p50_ms"],
                  "rows_per_s": figures["rows_per_s"], "peak_rss_mb": rss}
    say(f"  quieter-half windows: p50={figures['p50_ms']:.3f}ms "
        f"p90={figures['p90_ms']:.3f}ms")
    say(f"  setup_s runs: {', '.join(f'{t:.3f}' for t in setup_times)}")
    if not ctx.trace:
        return result

    spans_dir = ctx.run_dir / "spans"
    spans_dir.mkdir()
    server, _ = start_server(ctx, serve_argv(ctx, SMALL_MODELS, pool,
                                             spans_dir), 1)
    client, late = {}, []
    try:
        say("traced:")
        drive(server, "warm", tally=False)
        traced = []
        for name in nominal:
            if len(traced) >= WINDOWS and quiet_enough(traced):
                break
            out, summary = drive(server, name, tally=False)
            traced.append(summary)
            client.update(client_windows(phases[name][0], out))
            late.extend(out.lateness_ms())
        served_stats = loadgen.get_json(server.host, server.port, "/stats")
    finally:
        stop_server(server, pool, traced=True)
    if not pool:
        result.layers.update(layers.serve_layers(load_spans(spans_dir),
                                                 client))
    result.layers.update(layers.stats_layers(served_stats))
    result.layers["gen.lateness_ms.p99"] = stats.percentile(late, 99)
    result.layers["trace.overhead_pct"] = (
        windowed(traced)["p50_ms"] / figures["p50_ms"] - 1.0) * 100.0
    return result


def run_bulk_workload(ctx: Ctx) -> Result:
    """``serve_bulk``: closed loop, one connection, 512-row requests."""
    from repro.serve import build_served_model

    pool = row_pools({BULK_DATASET})[BULK_DATASET]
    models = {(BULK_DATASET, fmt): build_served_model(BULK_DATASET, fmt)
              for fmt in layers.BULK_FORMATS}
    measure_s = ctx.seconds * (0.3 if ctx.trace else 0.5)
    warm, warm_answers, timed, answers = bulk_requests(
        ctx.seed, pool, int(measure_s * 1000) + 64, models)
    result = Result()
    say(f"closed loop, 1 connection, {BULK_ROWS}-row {BULK_DATASET} "
        f"requests over {', '.join(layers.BULK_FORMATS)} for {measure_s:g}s")

    def measure(server, label):
        """Warm pass, then the timed phase; ``(summary, client windows)``."""
        out = loadgen.run_closed_loop(server.host, server.port, warm)
        result.mismatched += summarize(f"{label}warm", out,
                                       [BULK_ROWS] * len(warm),
                                       warm_answers)["mismatched"]
        out = loadgen.run_closed_loop(server.host, server.port, timed,
                                      measure_s)
        n = len(out.status)
        summary = summarize(f"{label}bulk", out, [BULK_ROWS] * n,
                            answers[:n])
        return summary, client_windows(timed[:n], out)

    models_spec = [(BULK_DATASET, fmt) for fmt in layers.BULK_FORMATS]
    server, setup_times = start_server(
        ctx, serve_argv(ctx, models_spec, False, None),
        1 if ctx.trace else SETUPS)
    try:
        bulk, _ = measure(server, "")
        rss = server.peak_rss_mb()
    finally:
        stop_server(server, False, traced=False)
    result.add(bulk)
    result.e2e = {"setup_s": stats.median(setup_times),
                  "p50_ms": bulk["p50_ms"], "rows_per_s": bulk["rows_per_s"],
                  "peak_rss_mb": rss}
    say(f"  setup_s runs: {', '.join(f'{t:.3f}' for t in setup_times)}")
    if not ctx.trace:
        return result

    spans_dir = ctx.run_dir / "spans"
    spans_dir.mkdir()
    server, _ = start_server(
        ctx, serve_argv(ctx, models_spec, False, spans_dir), 1)
    try:
        say("traced:")
        traced, client = measure(server, "traced ")
        served_stats = loadgen.get_json(server.host, server.port, "/stats")
    finally:
        stop_server(server, False, traced=True)
    result.mismatched += traced["mismatched"]
    result.layers = layers.serve_layers(load_spans(spans_dir), client)
    result.layers.update(layers.stats_layers(served_stats))
    result.layers["trace.overhead_pct"] = (
        bulk["rows_per_s"] / traced["rows_per_s"] - 1.0) * 100.0
    return result
