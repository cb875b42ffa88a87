"""End-to-end integration tests across the whole stack.

Train -> quantize -> exact Deep Positron inference -> metrics, for all three
formats, on a synthetic problem small enough for CI.
"""

import numpy as np
import pytest

from repro.core import PositronNetwork
from repro.fixedpoint import fixed_format
from repro.floatp import float_format
from repro.nn import MLP, TrainConfig, train_classifier
from repro.posit.format import standard_format


@pytest.fixture(scope="module")
def trained_toy():
    """A small trained classifier on 3-class Gaussian data."""
    rng = np.random.default_rng(42)
    centers = np.array([[0.0, 0.0, 0.0], [2.5, 0.0, 1.0], [0.0, 2.5, -1.0]])
    x = np.concatenate([rng.normal(size=(80, 3)) * 0.6 + c for c in centers])
    y = np.repeat(np.arange(3), 80)
    order = rng.permutation(len(y))
    x, y = x[order], y[order]
    model = MLP((3, 12, 6, 3), np.random.default_rng(7))
    cfg = TrainConfig(epochs=120, learning_rate=5e-3, optimizer="adam", seed=3)
    train_classifier(model, x[:180], y[:180], x[180:], y[180:], cfg)
    model.cast_float32()
    return model, x[180:], y[180:]


class TestEndToEnd:
    @pytest.mark.parametrize(
        "fmt",
        [standard_format(8, 1), float_format(4, 3), fixed_format(8, 5)],
        ids=["posit8", "float8", "fixed8"],
    )
    def test_8bit_deployment_close_to_float(self, trained_toy, fmt):
        model, test_x, test_y = trained_toy
        baseline = model.accuracy(test_x, test_y)
        assert baseline > 0.85
        weights, biases = model.export_params()
        net = PositronNetwork.from_float_params(fmt, weights, biases)
        acc = net.accuracy(test_x, test_y)
        assert acc >= baseline - 0.10, f"{fmt}: {acc} vs {baseline}"

    def test_posit_competitive_at_5bit(self, trained_toy):
        """At 5 bits every format degrades; posit stays competitive.

        On this toy problem the features are well-conditioned (unit scale),
        which is fixed-point's best case — the paper's decisive posit wins
        appear on scale-heterogeneous data (the WBC sweep).  Here we only
        require posit to stay within a few points of the best format.
        """
        model, test_x, test_y = trained_toy
        weights, biases = model.export_params()

        def best(configs):
            return max(
                PositronNetwork.from_float_params(f, weights, biases).accuracy(
                    test_x, test_y
                )
                for f in configs
            )

        posit = best([standard_format(5, es) for es in (0, 1, 2)])
        flt = best([float_format(2, 2), float_format(3, 1)])
        fixed = best([fixed_format(5, q) for q in range(5)])
        assert posit >= flt - 0.05
        assert posit >= fixed - 0.05

    def test_scalar_and_vector_agree_on_trained_network(self, trained_toy):
        model, test_x, _ = trained_toy
        weights, biases = model.export_params()
        fmt = standard_format(8, 1)
        net = PositronNetwork.from_float_params(fmt, weights, biases)
        patterns = net.backend.quantize_batch(test_x[:5])
        vec = net.forward_patterns(patterns)
        for i in range(5):
            scalar = net.forward_scalar([int(p) for p in patterns[i]])
            assert [int(b) for b in vec[i]] == scalar

    def test_timing_and_memory_report(self, trained_toy):
        model, _, _ = trained_toy
        weights, biases = model.export_params()
        net = PositronNetwork.from_float_params(standard_format(8, 1), weights, biases)
        timing = net.timing()
        assert timing.latency_cycles > 0
        assert net.total_memory_bits() == ((3 * 12 + 12) + (12 * 6 + 6) + (6 * 3 + 3)) * 8

    def test_hardware_report_for_deployed_network(self, trained_toy):
        """hw model consumes the network's real fan-ins."""
        from repro.hw import emac_report

        model, _, _ = trained_toy
        weights, biases = model.export_params()
        net = PositronNetwork.from_float_params(standard_format(8, 1), weights, biases)
        for layer in net.layers:
            report = emac_report(net.fmt, fan_in=layer.in_features)
            assert report.luts.total > 0
            assert report.power.dot_product_cycles == layer.in_features + 4
