"""The repo benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload serve_small --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see ``BENCHMARK.json``):

* ``serve_small`` - open-loop Poisson traffic, 1-4 rows per request,
  over the nine Table II models, then an arrival-rate ladder;
* ``serve_bulk``  - closed-loop 512-row mushroom requests over six
  formats on one connection;
* ``serve_pool``  - ``serve_small``'s traffic against a 2-process pool;
* ``grid_cold``   - a cold sweep + ablation grid in a fresh process.

``--trace 0`` prints the end-to-end metrics, measured with no wrappers
loaded anywhere.  ``--trace 1`` repeats a shorter untraced measurement
and then a traced one, and prints the per-layer metrics plus the
tracing overhead.  Every run checks every answer; a mismatch makes the
run fail (exit 1, ``"correct": false``).  Everything a run writes lives
under ``.bench_build/perfbench/run-<pid>/`` and is removed at exit.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit, better, bound) for every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("rows_per_s", "1/s", "higher", 0.25),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

WORKLOADS = ("serve_small", "serve_bulk", "grid_cold", "serve_pool")


def run_workload(name: str, ctx):
    import grid
    import serving

    if name == "serve_small":
        return serving.run_open_loop_workload(ctx, pool=False)
    if name == "serve_pool":
        return serving.run_open_loop_workload(ctx, pool=True)
    if name == "serve_bulk":
        return serving.run_bulk_workload(ctx)
    return grid.run_grid_workload(ctx)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if ns.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    build = ROOT / ".bench_build"
    made_build = not build.exists()
    run_dir = build / "perfbench" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    # The benchmark process shares the run's store with the servers it
    # starts (it trains their parents); no inherited REPRO_* setting
    # (fault injection, cache bypass) may leak into a run.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    import layers
    from serving import Ctx

    ctx = Ctx(ROOT, run_dir, ns.seed, ns.seconds, bool(ns.trace))
    os.environ["REPRO_CACHE_DIR"] = str(ctx.store)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run_workload(ns.workload, ctx)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        for empty in (build / "perfbench", build if made_build else None):
            if empty is not None:
                try:
                    empty.rmdir()
                except OSError:
                    pass

    attempted = max(result.attempted, 1)
    fail_ratio = result.failed / attempted
    print(f"{ns.workload}: attempted={result.attempted} "
          f"failed={result.failed} fail_ratio={fail_ratio:.6f} "
          f"mismatched={result.mismatched}")
    if ns.trace:
        units = layers.UNITS
        values = layers.complete(result.layers)
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        values = dict(result.e2e, ok_ratio=1.0 - fail_ratio)
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name} = {value:.6g} {units[name]}")
    correct = result.mismatched == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
