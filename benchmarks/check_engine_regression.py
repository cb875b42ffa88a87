#!/usr/bin/env python
"""CI regression guard for the compiled- and fused-kernel throughput.

Reads a ``pytest-benchmark`` JSON produced by ``bench_engine_throughput.py``
and computes two full-network speedups over the retained reference engine
path (``dot_reference``), each from timings measured in the *same* run so the
ratios are machine-independent:

* the compiled per-layer kernels (``forward_patterns_layers``);
* the fused whole-network plan (the fused bench asserts bit-identity to
  the per-layer kernels, ``dot_reference`` and the scalar oracle in-run, so
  this ratio can never be bought with numerics).

Both are measured against ``dot_reference`` because the per-layer kernels of
single-word layers are themselves one-layer fused plans: the two compiled
paths share their code, so their ratio says little.  The fused floor
(4.5x) is the product of the compiled floor (3x) and the former
fused-over-compiled floor (1.5x).

Fails when either speedup drops below its acceptance floor or more than
30% under its committed baseline entry.

Usage::

    python benchmarks/check_engine_regression.py BENCH_engine.json \
        [benchmarks/engine_baseline.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Acceptance floor: compiled full-network inference must stay >= 3x PR 1.
SPEEDUP_FLOOR = 3.0

#: Acceptance floor: the fused plan must stay >= 4.5x the reference path.
FUSED_SPEEDUP_FLOOR = 4.5

#: Allowed fraction of the committed baseline speedup (30% drop tolerance).
BASELINE_FRACTION = 0.7

COMPILED = "test_network_inference_compiled"
REFERENCE = "test_network_inference_pr1_baseline"
FUSED = "test_network_inference_fused"


def mean_seconds(report: dict, name: str) -> float:
    for bench in report["benchmarks"]:
        if bench["name"] == name:
            return float(bench["stats"]["mean"])
    raise SystemExit(f"benchmark entry '{name}' missing from the report")


def main(argv: list[str]) -> int:
    if not 2 <= len(argv) <= 3:
        print(__doc__)
        return 2
    report = json.loads(Path(argv[1]).read_text())
    baseline_path = Path(
        argv[2] if len(argv) == 3 else Path(__file__).parent / "engine_baseline.json"
    )
    baseline = json.loads(baseline_path.read_text())

    reference_mean = mean_seconds(report, REFERENCE)
    speedup = reference_mean / mean_seconds(report, COMPILED)
    committed = float(baseline["network_inference_speedup"])
    required = max(SPEEDUP_FLOOR, BASELINE_FRACTION * committed)
    print(
        f"compiled-kernel network speedup: {speedup:.2f}x "
        f"(committed baseline {committed:.2f}x, required >= {required:.2f}x)"
    )
    failed = False
    if speedup < required:
        print("FAIL: compiled inference throughput regressed", file=sys.stderr)
        failed = True

    fused_speedup = reference_mean / mean_seconds(report, FUSED)
    fused_committed = float(baseline["network_fused_over_pr1_speedup"])
    fused_required = max(
        FUSED_SPEEDUP_FLOOR, BASELINE_FRACTION * fused_committed
    )
    print(
        f"fused-plan network speedup: {fused_speedup:.2f}x over the "
        f"reference path (committed baseline {fused_committed:.2f}x, "
        f"required >= {fused_required:.2f}x)"
    )
    if fused_speedup < fused_required:
        print("FAIL: fused inference throughput regressed", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
