"""Vectorized ablation layer: bit-identity to the scalar references,
the naive product and sum tables, the store-cached grid, and (slow) the paper's
directional exact-vs-naive claim over the full 3-dataset table."""

import numpy as np
import pytest

from repro import formats
from repro.analysis import trained_model
from repro.analysis.ablation import (
    ABLATION_WIDTHS,
    _ablation_configs,
    ablation_table,
    ablation_task_key,
    ablation_width,
    naive_accuracy,
    naive_forward,
    naive_forward_reference,
    naive_product_table,
    truncated_accuracy,
    truncated_forward,
    truncated_forward_reference,
)
from repro.analysis.runner import run_ablation
from repro.core import PositronNetwork
from repro.fixedpoint import fixed_format
from repro.floatp import float_format
from repro.nn.quantize import quantize_nearest
from repro.posit.format import standard_format


@pytest.fixture(scope="module")
def iris_model():
    return trained_model("iris")


@pytest.fixture(scope="module")
def iris_networks(iris_model):
    weights, biases = iris_model.model.export_params()
    return {
        fmt: PositronNetwork.from_float_params(fmt, weights, biases)
        for fmt in (
            standard_format(5, 0),
            standard_format(6, 1),
            standard_format(8, 0),
            standard_format(8, 2),
        )
    }


#: (dataset, rows) of the naive-MAC property test: the full iris and wbc
#: test sets and a mushroom slice (its 117 inputs per row make the float64
#: oracle the slow side).
PROPERTY_SETS = (("iris", None), ("wbc", None), ("mushroom", 128))


class TestNaiveForward:
    def test_bit_identical_to_reference(self):
        """The two-table gather recurrence equals the float64 oracle bit
        for bit, for every posit config of the ablation grid."""
        for name, rows in PROPERTY_SETS:
            tm = trained_model(name)
            weights, biases = tm.model.export_params()
            x = np.asarray(tm.dataset.test_x[:rows], dtype=np.float64)
            for n in ABLATION_WIDTHS:
                for config in _ablation_configs(n):
                    net = PositronNetwork.from_float_params(
                        config.fmt, weights, biases
                    )
                    vec = naive_forward(net, x)
                    ref = naive_forward_reference(net, x)
                    assert vec.dtype == ref.dtype, f"{name} {config.label}"
                    assert np.array_equal(vec, ref), f"{name} {config.label}"

    def test_nonposit_families_bit_identical(self, iris_model):
        """naive_forward is format-generic: float and fixed match too."""
        weights, biases = iris_model.model.export_params()
        ds = iris_model.dataset
        for fmt in (float_format(4, 3), float_format(2, 3), fixed_format(8, 4)):
            net = PositronNetwork.from_float_params(fmt, weights, biases)
            vec = naive_forward(net, ds.test_x)
            ref = naive_forward_reference(net, ds.test_x)
            assert np.array_equal(vec, ref), str(fmt)

    def test_single_sample_and_empty_batch(self, iris_model, iris_networks):
        net = next(iter(iris_networks.values()))
        one = naive_forward(net, iris_model.dataset.test_x[0])
        assert one.shape == (1, 3)
        empty = naive_forward(net, np.zeros((0, 4)))
        assert empty.shape == (0, 3)

    def test_accuracy_matches_decoded_argmax(self, iris_model, iris_networks):
        """Rank-table readout == decoded-argmax readout for the naive pass."""
        ds = iris_model.dataset
        net = iris_networks[standard_format(6, 1)]
        out = naive_forward(net, ds.test_x)
        values = net.backend.decode_batch(out)
        decoded = float(np.mean(np.argmax(values, axis=1) == ds.test_y))
        assert naive_accuracy(net, ds.test_x, ds.test_y) == decoded


TABLE_FORMATS = ["posit8_1", "posit6_0", "float4_3", "float2_2", "fixed8_4"]


def _valid_pairs(backend, rng, size=200):
    """Random pairs of valid (finite-decoding) patterns of ``backend``."""
    patterns = np.arange(1 << backend.width, dtype=np.uint32)
    valid = np.flatnonzero(np.isfinite(backend.decode_batch(patterns)))
    return rng.choice(valid, size=size), rng.choice(valid, size=size)


class TestNaiveProductTable:
    @pytest.mark.parametrize("name", TABLE_FORMATS)
    def test_flat_uint16_tables(self, name):
        backend = formats.get(name)
        for table in naive_product_table(backend):
            assert table.dtype == np.uint16
            assert table.shape == (1 << (2 * backend.width),)

    @pytest.mark.parametrize("name", TABLE_FORMATS)
    def test_matches_quantize_nearest(self, name, rng):
        backend = formats.get(name)
        products, _ = naive_product_table(backend)
        w, a = _valid_pairs(backend, rng)
        expect = quantize_nearest(
            backend.fmt, backend.decode_batch(w) * backend.decode_batch(a)
        )
        assert np.array_equal(products[(w << backend.width) | a], expect)

    @pytest.mark.parametrize("name", TABLE_FORMATS)
    def test_sums_match_quantize_nearest(self, name, rng):
        """The add-round contract: ``sums[a, p]`` is the nearest pattern
        to ``decode(a) + decode(p)``."""
        backend = formats.get(name)
        _, sums = naive_product_table(backend)
        a, p = _valid_pairs(backend, rng)
        expect = quantize_nearest(
            backend.fmt, backend.decode_batch(a) + backend.decode_batch(p)
        )
        assert np.array_equal(sums[(a << backend.width) | p], expect)

    def test_memoized_per_backend(self):
        backend = formats.get("posit6_0")
        first, second = naive_product_table(backend), naive_product_table(backend)
        assert first[0] is second[0] and first[1] is second[1]

    def test_width_guard(self):
        with pytest.raises(ValueError, match="product table"):
            naive_product_table(formats.backend_for(standard_format(16, 1)))


class TestTruncatedForward:
    def test_bit_identical_to_reference(self, iris_model, iris_networks):
        ds = iris_model.dataset
        subset = ds.test_x[:12]  # the full-set identity check lives in the bench
        for fmt, net in iris_networks.items():
            vec = truncated_forward(net, subset)
            ref = [truncated_forward_reference(net, x) for x in subset]
            assert [list(map(int, row)) for row in vec] == ref, str(fmt)

    def test_nonposit_families(self, iris_model):
        """The mode pipeline is format-generic: float and fixed ablate too."""
        weights, biases = iris_model.model.export_params()
        ds = iris_model.dataset
        for fmt in (float_format(4, 3), fixed_format(8, 4)):
            net = PositronNetwork.from_float_params(fmt, weights, biases)
            vec = truncated_forward(net, ds.test_x[:8])
            ref = [truncated_forward_reference(net, x) for x in ds.test_x[:8]]
            assert [list(map(int, row)) for row in vec] == ref, str(fmt)

    def test_accuracy_in_range(self, iris_model, iris_networks):
        ds = iris_model.dataset
        net = iris_networks[standard_format(6, 1)]
        acc = truncated_accuracy(net, ds.test_x, ds.test_y)
        assert 0.0 <= acc <= 1.0


class TestAblationGrid:
    def test_structure(self, iris_model):
        cell = ablation_width("iris", 6)
        assert cell["dataset"] == "iris" and cell["n"] == 6
        labels = [c.label for c in _ablation_configs(6)]
        assert [r["label"] for r in cell["rows"]] == labels
        for row in cell["rows"]:
            for key in ("exact", "naive", "truncated"):
                assert 0.0 <= row[key] <= 1.0

    def test_task_key_covers_grid_ingredients(self):
        assert ablation_task_key("iris", 6) != ablation_task_key("iris", 7)
        assert ablation_task_key("iris", 6) != ablation_task_key("wbc", 6)
        with pytest.raises(KeyError):
            ablation_task_key("nonesuch", 6)

    def test_store_caches_cells(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        trained_model.cache_clear()
        try:
            from repro.analysis import ablation as mod

            calls = []
            real = mod._ablation_width_uncached

            def counting(name, n):
                calls.append((name, n))
                return real(name, n)

            monkeypatch.setattr(mod, "_ablation_width_uncached", counting)
            first = ablation_width("iris", 5)
            again = ablation_width("iris", 5)
            assert calls == [("iris", 5)]
            assert first == again
        finally:
            trained_model.cache_clear()

    def test_runner_serial_matches_direct(self, iris_model):
        results = run_ablation(datasets=("iris",), widths=(6,), jobs=1)
        (task, value), = results.items()
        assert task.dataset == "iris" and task.width == 6
        assert value == ablation_width("iris", 6)


@pytest.mark.slow
def test_full_ablation_directional_claim():
    """Section III-A, machine-checked over the full 3-dataset grid: at every
    (dataset, width), the best exact round-once accuracy is at least the
    best round-every-MAC accuracy (the paper's best-config selection, as in
    Table II), and truncation never meaningfully beats RNE."""
    results = ablation_table()
    assert len(results) == 3 * len(ABLATION_WIDTHS)
    for cell in results:
        best_exact = max(r["exact"] for r in cell["rows"])
        best_naive = max(r["naive"] for r in cell["rows"])
        best_trunc = max(r["truncated"] for r in cell["rows"])
        where = f"{cell['dataset']} n={cell['n']}"
        assert best_exact - best_naive >= 0.0, where
        assert best_trunc <= best_exact + 0.01, where
