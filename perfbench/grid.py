"""The ``grid_cold`` workload: a cold sweep + ablation grid.

Each run starts ``grid_child.py`` three times in a row, each a fresh
process on a fresh store, reports the median of each figure, and checks
what every child computed: Table II and Fig. 9 against the repo's
golden values, the ablation against the serial (``jobs=1``) result
recorded in ``expected_ablation.json``.  The grid's inputs are the
paper's fixed grid; the workload seed is not used.
"""

from __future__ import annotations

import json
import sys

import layers
import procs
import stats
from grid_child import JOBS
from serving import Ctx, Result, load_spans, say

CHILDREN = 3


def run_child(ctx: Ctx, name: str, traced: bool) -> dict:
    store = ctx.run_dir / name
    store.mkdir()
    argv = [sys.executable, str(ctx.root / "perfbench" / "grid_child.py"),
            str(store)]
    if traced:
        spans = ctx.run_dir / f"{name}-spans"
        spans.mkdir()
        argv.append(str(spans))
    code, out = procs.run_to_end(argv, ctx.env(), ctx.run_dir,
                                 ctx.run_dir / f"{name}.log", timeout_s=150.0)
    if code != 0:
        raise RuntimeError(f"grid child exited with {code}; see its log")
    return json.loads(out.decode().strip().splitlines()[-1])


def mismatches(ctx: Ctx, got: dict) -> list[str]:
    """Names of the answers that differ from the recorded ones."""
    golden = json.loads(
        (ctx.root / "tests" / "golden" / "golden_values.json").read_text())
    recorded = json.loads(
        (ctx.root / "perfbench" / "expected_ablation.json").read_text())
    wrong = []
    if got["table2"] != golden["table2"]:
        wrong.append("table2")
    if got["figure9"] != golden["figure9"]:
        wrong.append("figure9")
    for label, cell in recorded.items():
        if got["ablation"].get(label) != cell:
            wrong.append(f"ablation {label}")
    return wrong


def report(ctx: Ctx, label: str, got: dict, result: Result) -> None:
    wrong = mismatches(ctx, got)
    ok = got["tasks"] - got["quarantined"]
    say(f"  {label}: tasks={got['tasks']} ok={ok} "
        f"quarantined={got['quarantined']} retries={got['retries']} "
        f"setup_s={got['setup_s']:.3f} grid_s={got['grid_s']:.3f} (sweep {got['sweep_s']:.3f}, "
        f"ablation {got['ablation_s']:.3f}) "
        f"peak_rss={got['peak_rss_mb']:.1f}MB "
        f"mismatched={', '.join(wrong) or 'none'}")
    result.attempted += got["tasks"]
    result.failed += got["quarantined"]
    result.mismatched += len(wrong)


def run_grid_workload(ctx: Ctx) -> Result:
    result = Result()
    say("cold sweep + ablation over {wbc, iris, mushroom} x widths 5-8, "
        f"jobs={JOBS}, {CHILDREN} fresh processes "
        "(fixed grid: the seed is unused)")
    runs = []
    for k in range(CHILDREN):
        got = run_child(ctx, f"grid{k + 1}", traced=False)
        report(ctx, f"grid{k + 1}", got, result)
        runs.append(got)

    def med(key):
        return stats.median([got[key] for got in runs])

    grid_s = med("grid_s")
    result.e2e = {
        "setup_s": med("setup_s"),
        # One operation is one whole cold grid.
        "p50_ms": grid_s * 1000.0,
        "rows_per_s": stats.median([got["rows"] / got["grid_s"]
                                    for got in runs]),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    if ctx.trace:
        traced = run_child(ctx, "traced", traced=True)
        report(ctx, "traced", traced, result)
        values = layers.grid_layers(
            load_spans(ctx.run_dir / "traced-spans"), traced["grid_s"],
            JOBS)
        values["analysis.runner.retries"] = float(traced["retries"])
        values["trace.overhead_pct"] = (traced["grid_s"] / grid_s - 1.0) * 100.0
        result.layers = values
    return result
