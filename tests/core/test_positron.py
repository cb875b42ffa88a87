"""Tests for the Deep Positron network architecture."""

import numpy as np
import pytest

from repro.core import PositronNetwork
from repro.core.positron import PositronLayer
from repro.fixedpoint import fixed_format
from repro.floatp import float_format
from repro.posit.format import standard_format

P8 = standard_format(8, 1)


def tiny_network(fmt, rng, topology=(4, 5, 3)):
    weights, biases = [], []
    for fan_in, fan_out in zip(topology, topology[1:]):
        weights.append(rng.normal(scale=0.8, size=(fan_out, fan_in)))
        biases.append(rng.normal(scale=0.2, size=fan_out))
    net = PositronNetwork.from_float_params(fmt, weights, biases)
    return net, net.backend


class TestConstruction:
    def test_from_float_params(self, rng):
        net, _ = tiny_network(P8, rng)
        assert net.topology == (4, 5, 3)
        assert net.layers[0].activation == "relu"
        assert net.layers[-1].activation == "identity"

    def test_layer_size_mismatch(self, rng):
        l1 = PositronLayer(P8, np.zeros((5, 4), np.uint32), np.zeros(5, np.uint32), "relu")
        l2 = PositronLayer(P8, np.zeros((3, 6), np.uint32), np.zeros(3, np.uint32), "identity")
        with pytest.raises(ValueError):
            PositronNetwork(P8, [l1, l2])

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            PositronNetwork(P8, [])

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            PositronLayer(
                P8, np.zeros((2, 2), np.uint32), np.zeros(2, np.uint32),
                "sigmoid",
            )

    def test_bias_shape_check(self):
        with pytest.raises(ValueError):
            PositronLayer(
                P8, np.zeros((2, 2), np.uint32), np.zeros(3, np.uint32),
                "relu",
            )

    def test_mismatched_array_counts(self):
        with pytest.raises(ValueError):
            PositronNetwork.from_arrays(P8, [np.zeros((2, 2), np.uint32)], [])


@pytest.mark.parametrize(
    "fmt",
    [standard_format(8, 1), float_format(4, 3), fixed_format(8, 4)],
    ids=["posit", "float", "fixed"],
)
class TestForwardConsistency:
    def test_vector_equals_scalar_path(self, fmt, rng):
        net, backend = tiny_network(fmt, rng)
        inputs = rng.normal(size=(3, 4))
        patterns = backend.quantize_batch(inputs)
        vec_out = net.forward_patterns(patterns)
        for i in range(3):
            scalar_out = net.forward_scalar([int(p) for p in patterns[i]])
            assert [int(b) for b in vec_out[i]] == scalar_out

    def test_single_sample_promotion(self, fmt, rng):
        net, backend = tiny_network(fmt, rng)
        patterns = backend.quantize_batch(rng.normal(size=4))
        out = net.forward_patterns(patterns)
        assert out.shape == (1, 3)


class TestInference:
    def test_predict_shape_and_range(self, rng):
        net, _ = tiny_network(P8, rng)
        preds = net.predict(rng.normal(size=(10, 4)))
        assert preds.shape == (10,)
        assert set(np.unique(preds)).issubset({0, 1, 2})

    def test_accuracy_metric(self, rng):
        net, _ = tiny_network(P8, rng)
        x = rng.normal(size=(10, 4))
        preds = net.predict(x)
        assert net.accuracy(x, preds) == 1.0
        assert 0.0 <= net.accuracy(x, np.zeros(10, dtype=int)) <= 1.0

    def test_relu_zeroes_hidden_negatives(self, rng):
        """Hidden activations out of layer 0 must be non-negative."""
        net, backend = tiny_network(P8, rng)
        patterns = backend.quantize_batch(rng.normal(size=(5, 4)))
        hidden = net.layers[0].forward(patterns)
        values = backend.decode_batch(hidden)
        assert np.all(values >= 0)

    def test_forward_values_decodes(self, rng):
        net, _ = tiny_network(P8, rng)
        out = net.forward_values(rng.normal(size=(2, 4)))
        assert out.shape == (2, 3)
        assert np.all(np.isfinite(out))

    def test_identical_float_params_same_predictions(self, rng):
        """Quantizing twice yields the same network bit-for-bit."""
        weights = [rng.normal(size=(5, 4)), rng.normal(size=(3, 5))]
        biases = [rng.normal(size=5), rng.normal(size=3)]
        a = PositronNetwork.from_float_params(P8, weights, biases)
        b = PositronNetwork.from_float_params(P8, weights, biases)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)


class TestFusedPlanLifecycle:
    """The cached fused network plan and its epoch-based invalidation."""

    def test_plan_cached_until_recompile(self, rng):
        net, _ = tiny_network(P8, rng)
        plan = net.network_kernel()
        assert net.network_kernel() is plan
        net.recompile()
        assert net.network_kernel() is not plan

    def test_recompile_after_weight_mutation(self, rng):
        """Mutating weights after the plan compiled requires recompile();
        the fused forward must then track the new parameters exactly."""
        net, backend = tiny_network(P8, rng)
        X = backend.quantize_batch(rng.normal(size=(6, 4)))
        before = net.forward_patterns(X).copy()  # warms the cached plan
        net.layers[0].weights[...] = backend.quantize_batch(
            rng.normal(scale=0.8, size=net.layers[0].weights.shape)
        )
        net.recompile()
        after = net.forward_patterns(X)
        assert np.array_equal(after, net.forward_patterns_layers(X))
        assert not np.array_equal(after, before)

    def test_mode_twin_compiles_its_own_plan(self, rng):
        net, backend = tiny_network(P8, rng)
        twin = net.with_rounding_mode("rtz")
        assert twin.network_kernel() is not net.network_kernel()
        X = backend.quantize_batch(rng.normal(size=(5, 4)))
        assert np.array_equal(
            twin.forward_patterns(X), twin.forward_patterns_layers(X)
        )
        # recompile() on the parent reaches cached twins' layers too, so
        # the twin's fused plan is invalidated along with the parent's.
        twin_plan = twin.network_kernel()
        net.recompile()
        assert twin.network_kernel() is not twin_plan

    def test_predict_patterns_empty_batch(self, rng):
        net, _ = tiny_network(P8, rng)
        empty = np.zeros((0, 4), np.uint32)
        assert net.predict_patterns(empty).shape == (0,)
        assert net.forward_patterns(empty).shape == (0, 3)

    def test_predict_patterns_single_row_1d(self, rng):
        net, backend = tiny_network(P8, rng)
        x = backend.quantize_batch(rng.normal(size=4))
        pred = net.predict_patterns(x)
        assert pred.shape == (1,)
        assert np.array_equal(pred, net.predict_patterns(x[None, :]))
        assert net.forward_patterns(x).shape == (1, 3)


class TestTimingAndMemory:
    def test_timing_matches_topology(self, rng):
        net, _ = tiny_network(P8, rng, topology=(4, 6, 3))
        timing = net.timing()
        depth = 4  # posit EMAC pipeline
        assert timing.per_layer_cycles == (4 + depth, 6 + depth)
        assert timing.latency_cycles == sum(timing.per_layer_cycles)
        assert timing.initiation_interval == max(timing.per_layer_cycles)

    def test_memory_accounting(self, rng):
        net, _ = tiny_network(P8, rng, topology=(4, 6, 3))
        expected_words = (4 * 6 + 6) + (6 * 3 + 3)
        assert net.total_memory_bits() == expected_words * 8

    def test_layer_memory(self, rng):
        net, _ = tiny_network(P8, rng)
        mem = net.layers[0].memory
        assert mem.weight_words == 20 and mem.bias_words == 5
        assert mem.word_bits == 8

    def test_repr(self, rng):
        net, _ = tiny_network(P8, rng)
        assert "4-5-3" in repr(net)
