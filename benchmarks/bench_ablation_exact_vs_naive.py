"""Ablation — exact accumulation (EMAC) vs rounding after every MAC.

The EMAC's whole reason to exist (paper Section III-A): deferring rounding
to a single post-summation step minimizes local error.  This bench deploys
the same quantized network twice — once through the exact engine, once
through the (vectorized, product-table) round-every-MAC recurrence — and
reports the accuracy gap across widths on all three paper datasets.

The directional assertion uses the paper's best-config selection: at every
width the best exact accuracy must be at least the best naive accuracy,
and rounding every MAC must hurt somewhere in each dataset's sweep.

``test_naive_gather_speed_guard`` is the naive arm's speed gate: on the
full WBC test set it alternates the two-table gather recurrence with the
retained float64 reference, asserts equal outputs in every round, and
requires a median speedup of at least ``NAIVE_SPEEDUP_FLOOR``.
"""

import statistics
import time

import numpy as np
import pytest

from repro.analysis import naive_accuracy
from repro.analysis.ablation import naive_forward, naive_forward_reference
from repro.core import PositronNetwork
from repro.posit.format import standard_format

WIDTHS = [(5, 0), (6, 0), (7, 0), (8, 0)]
DATASETS = ("iris", "wbc", "mushroom")

#: Format, rounds and floor of the naive-arm speed guard.  The per-step
#: quantize loop ran ~1.6x the reference; the gather recurrence ~16x.
NAIVE_SPEED_FORMAT = (8, 0)
NAIVE_SPEED_ROUNDS = 5
NAIVE_SPEEDUP_FLOOR = 5.0


def networks_for(model):
    weights, biases = model.model.export_params()
    return {
        (n, es): PositronNetwork.from_float_params(
            standard_format(n, es), weights, biases
        )
        for n, es in WIDTHS
    }


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.benchmark(group="ablation-exact")
def test_exact_vs_naive_accuracy(benchmark, write_result, request, dataset):
    model = request.getfixturevalue(f"{dataset}_model")
    ds = model.dataset
    networks = networks_for(model)

    def run():
        rows = []
        for (n, es), net in networks.items():
            exact = net.accuracy(ds.test_x, ds.test_y)
            naive = naive_accuracy(net, ds.test_x, ds.test_y)
            rows.append((n, es, exact, naive))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"Ablation: exact EMAC vs round-every-MAC ({dataset}, posit)",
        f"{'format':<12} {'exact':>8} {'naive':>8} {'delta pp':>9}",
    ]
    worse = 0
    for n, es, exact, naive in rows:
        lines.append(
            f"posit<{n},{es}>   {100 * exact:>7.2f}% {100 * naive:>7.2f}% "
            f"{100 * (exact - naive):>8.2f}"
        )
        if naive < exact - 1e-9:
            worse += 1
    write_result(f"ablation_exact_vs_naive_{dataset}.txt", "\n".join(lines))
    # Naive rounding must never *beat* the best exact EMAC, and it must
    # hurt somewhere in the sweep.
    best_exact = max(exact for _, __, exact, ___ in rows)
    for _, __, exact, naive in rows:
        assert naive <= best_exact + 1e-9
    assert worse >= 1, "round-every-MAC never hurt; ablation uninformative"


def test_naive_gather_speed_guard(wbc_model):
    """Gather-path naive MAC vs the float64 reference on the full WBC test
    set: interleaved rounds (so host noise hits both arms alike), equal
    outputs in every round, median speedup >= NAIVE_SPEEDUP_FLOOR."""
    weights, biases = wbc_model.model.export_params()
    net = PositronNetwork.from_float_params(
        standard_format(*NAIVE_SPEED_FORMAT), weights, biases
    )
    test_x = np.asarray(wbc_model.dataset.test_x, dtype=np.float64)
    naive_forward(net, test_x)  # builds the memoized tables outside the timing
    ratios = []
    for _ in range(NAIVE_SPEED_ROUNDS):
        start = time.perf_counter()
        vec = naive_forward(net, test_x)
        mid = time.perf_counter()
        ref = naive_forward_reference(net, test_x)
        end = time.perf_counter()
        assert np.array_equal(vec, ref)
        ratios.append((end - mid) / (mid - start))
    speedup = statistics.median(ratios)
    print(f"naive-MAC gather speedup over the reference: {speedup:.1f}x")
    assert speedup >= NAIVE_SPEEDUP_FLOOR, (
        f"naive gather path only {speedup:.1f}x the reference "
        f"(floor {NAIVE_SPEEDUP_FLOOR}x); rounds: "
        + ", ".join(f"{r:.1f}x" for r in ratios)
    )
