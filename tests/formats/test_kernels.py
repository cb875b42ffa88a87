"""Bit-identity of the compiled layer kernels.

Every registered format's compiled kernel (a one-layer fused plan for
single-word layers and fixed point, the stacked digit-plane GEMM
``TableLayerKernel`` for wider quires) must reproduce ``dot_reference`` —
the retained reference digit-plane nest — and the scalar EMACs, bit for
bit, over random shapes including empty batches, fan-in 1,
chunk-boundary-crossing batches, and all-zero weight planes.
``TableLayerKernel`` is also checked directly on every format and both
rounding modes, including the small-bound layers the default compile sends
to plans; plus the compile rule itself and a network-level check against
the golden-pinned iris parent model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import formats
from repro.core import engine_for, scalar_emac_for
from repro.core.positron import PositronNetwork
from repro.formats.kernels import quire_bound_bits
from repro.formats.network import NetworkKernel
from repro.fixedpoint import FixedFormat, fixed_format
from repro.floatp import float_format
from repro.posit.format import standard_format

FORMATS = [
    standard_format(6, 0),
    standard_format(8, 0),
    standard_format(8, 1),
    standard_format(8, 2),
    float_format(4, 3),
    float_format(3, 4),
    float_format(2, 5),
    fixed_format(8, 4),
    fixed_format(5, 3),
]


def scrub(fmt, patterns):
    backend = formats.backend_for(fmt)
    p = np.asarray(patterns, dtype=np.uint32) % (1 << fmt.n)
    tables = backend.limb_tables()
    if tables is not None:
        p[tables.invalid[p]] = 0
    return p


@pytest.fixture(params=range(len(FORMATS)), ids=lambda i: str(FORMATS[i]))
def any_fmt(request):
    return FORMATS[request.param]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_layer(fmt, rng, out_dim, in_dim, batch, with_bias):
    hi = 1 << fmt.n
    W = scrub(fmt, rng.integers(0, hi, size=(out_dim, in_dim), dtype=np.uint32))
    X = scrub(fmt, rng.integers(0, hi, size=(batch, in_dim), dtype=np.uint32))
    B = (
        scrub(fmt, rng.integers(0, hi, size=(out_dim,), dtype=np.uint32))
        if with_bias
        else None
    )
    return W, X, B


class TestKernelBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        fmt_idx=st.integers(0, len(FORMATS) - 1),
        seed=st.integers(0, 2**31 - 1),
        out_dim=st.integers(1, 5),
        in_dim=st.integers(1, 14),
        batch=st.integers(0, 5),
        with_bias=st.booleans(),
    )
    def test_kernel_matches_reference(
        self, fmt_idx, seed, out_dim, in_dim, batch, with_bias
    ):
        """Compiled kernel == dot_reference for every format and shape."""
        fmt = FORMATS[fmt_idx]
        rng = np.random.default_rng(seed)
        W, X, B = random_layer(fmt, rng, out_dim, in_dim, batch, with_bias)
        kernel = formats.backend_for(fmt).compile_layer(W, B)
        out = kernel(X)
        assert out.shape == (batch, out_dim)
        assert out.dtype == np.uint32
        assert np.array_equal(out, engine_for(fmt).dot_reference(W, X, B))

    @settings(max_examples=20, deadline=None)
    @given(
        fmt_idx=st.integers(0, len(FORMATS) - 1),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_kernel_matches_scalar_emac(self, fmt_idx, seed):
        """Compiled kernel == one scalar EMAC per (sample, neuron)."""
        fmt = FORMATS[fmt_idx]
        rng = np.random.default_rng(seed)
        W, X, B = random_layer(fmt, rng, 3, 7, 2, True)
        kernel = formats.backend_for(fmt).compile_layer(W, B)
        out = kernel(X)
        emac = scalar_emac_for(fmt)
        for i in range(X.shape[0]):
            for o in range(W.shape[0]):
                expect = emac.dot(
                    [int(w) for w in W[o]],
                    [int(x) for x in X[i]],
                    bias_bits=int(B[o]),
                )
                assert int(out[i, o]) == expect

    def test_empty_batch(self, any_fmt, rng):
        W, _, B = random_layer(any_fmt, rng, 3, 5, 1, True)
        kernel = formats.backend_for(any_fmt).compile_layer(W, B)
        out = kernel(np.empty((0, 5), dtype=np.uint32))
        assert out.shape == (0, 3)
        assert out.dtype == np.uint32

    def test_fan_in_one(self, any_fmt, rng):
        W, X, B = random_layer(any_fmt, rng, 2, 1, 4, True)
        kernel = formats.backend_for(any_fmt).compile_layer(W, B)
        assert np.array_equal(kernel(X), engine_for(any_fmt).dot_reference(W, X, B))

    def test_chunk_boundary_crossing(self, any_fmt, rng, monkeypatch):
        """Results must not depend on the batch-chunk size."""
        from repro.formats import kernels as kmod

        W, X, B = random_layer(any_fmt, rng, 3, 9, 23, True)
        backend = formats.backend_for(any_fmt)
        full = backend.compile_layer(W, B)(X)
        for cap in (1, 30, 100):
            monkeypatch.setattr(kmod, "_CHUNK_ELEMENTS", cap)
            chunked = backend.compile_layer(W, B)(X)
            assert np.array_equal(full, chunked), cap

    def test_chunk_cap_monkeypatched(self, rng, monkeypatch):
        """Kernels read the module chunk cap at call time."""
        from repro.formats import kernels as kmod

        fmt = standard_format(8, 1)
        W, X, B = random_layer(fmt, rng, 3, 9, 17, True)
        kernel = formats.backend_for(fmt).compile_layer(W, B)
        full = kernel(X)
        monkeypatch.setattr(kmod, "_CHUNK_ELEMENTS", 25)
        assert np.array_equal(kernel(X), full)

    def test_all_zero_weights(self, any_fmt):
        """Every digit plane pruned: output is the rounded bias alone."""
        zero = np.uint32(0)
        W = np.full((3, 6), zero, dtype=np.uint32)
        X = np.zeros((4, 6), dtype=np.uint32)
        B = np.zeros(3, dtype=np.uint32)
        kernel = formats.backend_for(any_fmt).compile_layer(W, B)
        assert np.array_equal(
            kernel(X), engine_for(any_fmt).dot_reference(W, X, B)
        )

    def test_single_live_weight_plane(self, rng):
        """Weights confined to low digit planes leave high planes all-zero."""
        fmt = standard_format(8, 1)
        backend = formats.backend_for(fmt)
        engine = engine_for(fmt)
        # Tiny-magnitude weights: digits live in the lowest plane only.
        W = engine.quantize(rng.uniform(1e-6, 1e-5, size=(3, 8)))
        X = scrub(fmt, rng.integers(0, 256, size=(5, 8), dtype=np.uint32))
        B = engine.quantize(rng.uniform(-0.1, 0.1, size=3))
        kernel = backend.compile_layer(W, B)
        assert np.array_equal(kernel(X), engine.dot_reference(W, X, B))

    def test_extreme_weights_fall_back_bit_identically(self, rng):
        """maxpos-heavy weights leave the single-word plans; the
        stacked-GEMM limb kernel must stay bit-identical."""
        fmt = standard_format(8, 2)
        backend = formats.backend_for(fmt)
        hi = 1 << fmt.n
        W = scrub(fmt, rng.integers(0, hi, size=(4, 10), dtype=np.uint32))
        W[0, 0] = fmt.maxpos_pattern
        X = scrub(fmt, rng.integers(0, hi, size=(6, 10), dtype=np.uint32))
        B = scrub(fmt, rng.integers(0, hi, size=(4,), dtype=np.uint32))
        kernel = backend.compile_layer(W, B)
        # posit8_2's range forces the limb path
        assert isinstance(kernel, formats.TableLayerKernel)
        assert np.array_equal(kernel(X), engine_for(fmt).dot_reference(W, X, B))

    def test_single_word_layer_without_plane_takes_int64(self):
        """A near-maxpos posit8_1 row keeps the quire inside one int64 but
        is too wide for the plane path: the one-layer plan runs int64."""
        fmt = standard_format(8, 1)
        backend = formats.backend_for(fmt)
        W = np.zeros((2, 40), dtype=np.uint32)
        W[:, 0] = fmt.maxpos_pattern
        rng = np.random.default_rng(9)
        X = scrub(fmt, rng.integers(0, 256, size=(20, 40), dtype=np.uint32))
        kernel = backend.compile_layer(W, None)
        assert isinstance(kernel, NetworkKernel)
        assert kernel.explain()[0]["eligible"] == ["int64", "layer"]
        assert kernel.explain()[0]["path"] == "int64"
        assert np.array_equal(kernel(X), engine_for(fmt).dot_reference(W, X))

    def test_fan_in_split_accumulation(self, rng):
        """Fan-in past the float64-exactness bound forces multiple GEMM
        splits with int64 accumulation; still bit-identical."""
        fmt = standard_format(8, 1)
        backend = formats.backend_for(fmt)
        in_dim = 5000  # > 2**(53 - 2*LIMB_BITS) / live_weight_planes
        W = scrub(fmt, rng.integers(0, 256, size=(2, in_dim), dtype=np.uint32))
        X = scrub(fmt, rng.integers(0, 256, size=(3, in_dim), dtype=np.uint32))
        B = scrub(fmt, rng.integers(0, 256, size=(2,), dtype=np.uint32))
        kernel = formats.TableLayerKernel(backend, W, B)
        assert len(kernel._splits) > 1
        assert np.array_equal(kernel(X), engine_for(fmt).dot_reference(W, X, B))
        fmt = standard_format(8, 1)
        backend = formats.backend_for(fmt)
        bad = np.full((1, 2), fmt.nar_pattern, dtype=np.uint32)
        good = np.zeros((1, 2), dtype=np.uint32)
        with pytest.raises(ValueError):
            backend.compile_layer(bad)
        kernel = backend.compile_layer(good)
        with pytest.raises(ValueError):
            kernel(bad)

    def test_fan_in_mismatch_rejected(self, any_fmt):
        kernel = formats.backend_for(any_fmt).compile_layer(
            np.zeros((2, 3), dtype=np.uint32)
        )
        with pytest.raises(ValueError):
            kernel(np.zeros((2, 4), dtype=np.uint32))


#: Every table format the compile rule is checked on: the registered
#: sweep formats plus 12/16-bit posits and a 12-bit float.
TABLE_NAMES = [
    name
    for name in formats.available()
    if formats.get(name).limb_tables() is not None
] + ["posit12_1", "posit16_1", "float4_7"]


def scalar_oracle(fmt, W, X, B, mode):
    """One scalar EMAC per (sample, neuron), rounded once by ``mode``."""
    backend = formats.backend_for(fmt)
    emac = scalar_emac_for(fmt)
    out = np.zeros((X.shape[0], W.shape[0]), dtype=np.uint32)
    for s in range(X.shape[0]):
        for o in range(W.shape[0]):
            emac.reset(None if B is None else int(B[o]))
            for w, a in zip(W[o], X[s]):
                emac.step(int(w), int(a))
            out[s, o] = (
                emac.result()
                if mode == "rne"
                else backend.truncate_scalar(emac.accumulator_value())
            )
    return out


def small_bound_layer(fmt, rng, out_dim, in_dim, batch):
    """Weights in {-minpos, 0, +minpos} and a zero bias: a quire bound far
    below one int64 word for every table format."""
    backend = formats.backend_for(fmt)
    hi = 1 << fmt.n
    tiny = np.abs(backend.decode_batch(np.arange(hi, dtype=np.uint32)))
    tiny = tiny[np.isfinite(tiny) & (tiny > 0)].min()
    W = backend.quantize_batch(
        tiny * rng.integers(-1, 2, size=(out_dim, in_dim)).astype(np.float64)
    )
    B = backend.quantize_batch(np.zeros(out_dim))
    X = scrub(fmt, rng.integers(0, hi, size=(batch, in_dim), dtype=np.uint32))
    return W, X, B


def _tableless(fmt):
    """A custom family without limb tables (fixed point under another name)."""
    fixed = formats.FixedBackend(fmt)
    delegated = (
        "quantize_batch", "decode_batch", "relu_batch",
        "encode_from_quire_batch", "encode_from_quire_scalar",
        "truncate_scalar", "make_engine", "make_scalar_emac",
    )
    ns = {
        name: (lambda self, *a, _n=name, **k: getattr(fixed, _n)(*a, **k))
        for name in delegated
    }
    ns.update(
        family="tableless",
        name="tableless",
        quire_lsb_exponent=fixed.quire_lsb_exponent,
    )
    return type("TablelessBackend", (formats.NumericFormat,), ns)(fmt)


class TestCompileRule:
    """Which kernel ``compile_layer`` returns, and why."""

    @settings(max_examples=60, deadline=None)
    @given(
        name_idx=st.integers(0, len(TABLE_NAMES) - 1),
        seed=st.integers(0, 2**31 - 1),
        out_dim=st.integers(1, 6),
        in_dim=st.integers(1, 40),
        small=st.booleans(),
    )
    def test_single_word_iff_plan(
        self, name_idx, seed, out_dim, in_dim, small
    ):
        """quire bound <= 62 bits <=> ``plane`` or ``int64`` is eligible
        <=> ``compile_layer`` returns a one-layer plan (else the limb
        kernel)."""
        backend = formats.get(TABLE_NAMES[name_idx])
        rng = np.random.default_rng(seed)
        if small:
            W, _, B = small_bound_layer(backend.fmt, rng, out_dim, in_dim, 1)
        else:
            W, _, B = random_layer(backend.fmt, rng, out_dim, in_dim, 1, True)
        fits = quire_bound_bits(
            backend.limb_tables(), W.astype(np.int64), B.astype(np.int64)
        ) <= 62
        (row,) = backend.compile_network([(W, B, "identity")]).explain()
        single_word = bool({"plane", "int64"} & set(row["eligible"]))
        kernel = backend.compile_layer(W, B)
        assert fits == single_word
        assert isinstance(kernel, NetworkKernel) == single_word
        if not single_word:
            assert isinstance(kernel, formats.TableLayerKernel)

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    @pytest.mark.parametrize(
        "fmt", [f for f in FORMATS if isinstance(f, FixedFormat)], ids=str
    )
    def test_fixed_point_always_gets_a_plan(self, fmt, mode, rng):
        W, X, B = random_layer(fmt, rng, 3, 7, 5, True)
        kernel = formats.backend_for(fmt).compile_layer(
            W, B, rounding_mode=mode
        )
        assert isinstance(kernel, NetworkKernel)
        assert kernel.explain()[0]["path"] == "int64"
        assert np.array_equal(kernel(X), scalar_oracle(fmt, W, X, B, mode))

    def test_tableless_family_gets_dot_kernel(self, rng):
        fmt = fixed_format(8, 4)
        backend = _tableless(fmt)
        W, X, B = random_layer(fmt, rng, 3, 5, 4, True)
        kernel = backend.compile_layer(W, B)
        assert isinstance(kernel, formats.DotLayerKernel)
        expected = engine_for(fmt).dot(W, X, B)
        assert np.array_equal(kernel(X), expected)
        plan = backend.compile_network([(W, B, "identity")])
        assert plan.explain()[0]["path"] == "layer"
        assert np.array_equal(plan.forward(X), expected)


class TestTableLayerKernel:
    """The exact limb kernel built directly, on every format and mode,
    including small-bound layers the default compile sends to plans."""

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    @pytest.mark.parametrize("small", [False, True], ids=["random", "small"])
    def test_matches_reference_and_scalar(self, any_fmt, mode, small, rng):
        backend = formats.backend_for(any_fmt)
        if backend.limb_tables() is None:
            with pytest.raises(TypeError, match="no limb decode tables"):
                formats.TableLayerKernel(backend, np.zeros((1, 1), np.uint32))
            return
        if small:
            W, X, B = small_bound_layer(any_fmt, rng, 4, 4, 6)
            assert isinstance(backend.compile_layer(W, B), NetworkKernel)
        else:
            W, X, B = random_layer(any_fmt, rng, 4, 9, 6, True)
        kernel = formats.TableLayerKernel(backend, W, B, rounding_mode=mode)
        out = kernel(X)
        assert out.dtype == np.uint32 and out.shape == (6, 4)
        engine = engine_for(any_fmt)
        ref = engine.dot_reference(W, X, B, rounding_mode=mode)
        assert np.array_equal(out, ref)
        assert np.array_equal(out, scalar_oracle(any_fmt, W, X, B, mode))
        compiled = backend.compile_layer(W, B, rounding_mode=mode)
        assert np.array_equal(out, compiled(X))
        assert kernel(X[:0]).shape == (0, 4)


class TestRankTable:
    def test_monotone_in_value(self, any_fmt):
        backend = formats.backend_for(any_fmt)
        ranks = backend.rank_table()
        values = backend.decode_batch(
            np.arange(1 << any_fmt.n, dtype=np.uint32)
        )
        finite = np.isfinite(values)
        v, r = values[finite], ranks[finite]
        order = np.argsort(v, kind="stable")
        assert np.all(np.diff(r[order]) >= 0)
        # strict where values differ, equal where they coincide
        dv = np.diff(v[order])
        dr = np.diff(r[order])
        assert np.all((dv > 0) == (dr > 0))

    def test_rank_argmax_matches_value_argmax(self, any_fmt, rng):
        backend = formats.backend_for(any_fmt)
        hi = 1 << any_fmt.n
        rows = scrub(any_fmt, rng.integers(0, hi, size=(64, 5), dtype=np.uint32))
        values = backend.decode_batch(rows)
        ranks = backend.rank_table()[rows.astype(np.int64)]
        assert np.array_equal(
            np.argmax(ranks, axis=1), np.argmax(values, axis=1)
        )


class TestNetworkLevel:
    @pytest.fixture(scope="class")
    def iris(self):
        from repro.analysis.sweep import trained_model

        return trained_model("iris")

    @pytest.mark.parametrize("name", ["posit8_1", "float4_3", "fixed8_4"])
    def test_compiled_network_matches_reference_paths(self, iris, name):
        """Full golden-pinned iris parent deployed at 8 bits: the compiled
        forward equals the PR 1 engine path sample-for-sample, and the
        scalar EMAC path on a sample subset."""
        backend = formats.get(name)
        weights, biases = iris.model.export_params()
        net = PositronNetwork.from_float_params(backend.fmt, weights, biases)
        X = net.engine.quantize(np.asarray(iris.dataset.test_x, dtype=np.float64))

        compiled = net.forward_patterns(X)
        reference = X
        for layer in net.layers:
            reference = net.engine.dot_reference(
                layer.weights, reference, layer.bias
            )
            if layer.activation == "relu":
                reference = net.engine.relu(reference)
        assert np.array_equal(compiled, reference)

        for i in range(0, X.shape[0], 16):
            scalar = net.forward_scalar([int(p) for p in X[i]])
            assert [int(p) for p in compiled[i]] == scalar

    def test_predict_patterns_matches_decoded_argmax(self, iris):
        backend = formats.get("posit8_1")
        weights, biases = iris.model.export_params()
        net = PositronNetwork.from_float_params(backend.fmt, weights, biases)
        X = np.asarray(iris.dataset.test_x, dtype=np.float64)
        patterns = net.engine.quantize(X)
        decoded = np.argmax(net.engine.decode_values(net.forward_patterns(patterns)), axis=1)
        assert np.array_equal(net.predict_patterns(patterns), decoded)
        assert np.array_equal(net.predict(X), decoded)
