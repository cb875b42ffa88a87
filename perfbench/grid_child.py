"""One cold grid run in a fresh process (the ``grid_cold`` workload).

Usage: ``python perfbench/grid_child.py STORE_ROOT [SPANS_DIR]``.

Set-up trains the three parent models into the fresh artifact store
``STORE_ROOT``; the same store then hosts the cold sweep and ablation
grids over {wbc, iris, mushroom} x widths 5-8 with ``jobs=2``.  Prints
one JSON object: timings, the Table II / Fig. 9 answers, the ablation
cells, and the runner's retry and quarantine counts.

With ``SPANS_DIR`` the per-layer wrappers are installed before anything
is imported from the program, hence before the runner forks its pool.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.dont_write_bytecode = True

DATASETS = ("wbc", "iris", "mushroom")
WIDTHS = (5, 6, 7, 8)
JOBS = 2


def evaluated_rows(sweeps: dict, ablation: dict) -> int:
    """Test rows pushed through a network: one pass per sweep config,
    three (exact, naive, truncated) per ablation config."""
    size = {ds: v["inference_size"] for (ds, _), v in sweeps.items()}
    return (sum(len(v["all"]) * v["inference_size"] for v in sweeps.values())
            + sum(3 * len(v["rows"]) * size.get(v["dataset"], 0)
                  for v in ablation.values()))


def main(argv: list[str]) -> int:
    os.environ["REPRO_CACHE_DIR"] = argv[0]
    spans_dir = argv[1] if len(argv) > 1 else None
    if spans_dir:
        import tracing

        tracing.install_grid(spans_dir)

    from repro.analysis import runner, sweep

    started = time.perf_counter()
    for name in DATASETS:
        sweep.trained_model(name)
    setup_s = time.perf_counter() - started

    messages = []
    quarantined = 0
    started = time.perf_counter()
    try:
        sweeps = runner.run_sweeps(DATASETS, WIDTHS, jobs=JOBS,
                                   progress=messages.append)
    except runner.GridQuarantine as exc:
        quarantined += len(exc.failures)
        sweeps = exc.results
    sweep_s = time.perf_counter() - started
    try:
        ablation = runner.run_ablation(DATASETS, WIDTHS, jobs=JOBS,
                                       progress=messages.append)
    except runner.GridQuarantine as exc:
        quarantined += len(exc.failures)
        ablation = exc.results
    grid_s = time.perf_counter() - started

    lookup = {(t.dataset, t.width): v for t, v in sweeps.items()}
    complete = len(lookup) == len(DATASETS) * len(WIDTHS)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": setup_s,
        "grid_s": grid_s,
        "sweep_s": sweep_s,
        "ablation_s": grid_s - sweep_s,
        "tasks": 2 * len(DATASETS) * len(WIDTHS),
        "quarantined": quarantined,
        "retries": sum(m.startswith("retrying") for m in messages),
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
        "rows": evaluated_rows(lookup, ablation),
        "table2": ([sweep._table2_row(lookup[(d, 8)]) for d in DATASETS]
                   if complete else None),
        "figure9": (sweep.figure9_series(WIDTHS, DATASETS, sweeps=lookup)
                    if complete else None),
        "ablation": {t.label: v for t, v in ablation.items()},
    }
    if spans_dir:
        tracing.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
