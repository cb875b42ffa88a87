"""Bit-identity of the fused whole-network kernels.

The fused :class:`~repro.formats.network.NetworkKernel` must reproduce the
layer-by-layer compiled forward (kernel + engine ReLU per layer) and the
scalar EMAC reference, bit for bit, for every registered format, both
rounding modes, and every words path forced on — including the oracle-built
round table against ``encode_from_quire_words`` over the whole single-word
window, its O(1) bucket index against plain ``searchsorted``, and the
pattern-space ReLU composition against ``engine.relu`` on every valid
pattern.  Shape edges (empty batches, single rows, fan-in 1) are covered
per forced path.  The default plan is a pure function of the layers: the
path rule is pinned per paper layer shape, and two fresh processes must
compile identical plans.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import formats
from repro.core import engine_for
from repro.core.positron import PositronNetwork
from repro.fixedpoint import fixed_format
from repro.floatp import float_format
from repro.formats.network import (
    NETWORK_PATHS,
    NetworkKernel,
    aligned_value_table,
    choose_path,
    live_planes,
    round_table,
)
from repro.formats.kernels import TableLayerKernel, quire_bound_bits
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

TABLE_FORMATS = [
    f for f in FORMATS if formats.backend_for(f).limb_tables() is not None
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


@pytest.fixture(
    params=range(len(TABLE_FORMATS)), ids=lambda i: str(TABLE_FORMATS[i])
)
def table_fmt(request):
    return TABLE_FORMATS[request.param]


def random_network(fmt, rng, topo, batch, rounding_mode="rne"):
    """(layer triples, input patterns, PositronNetwork) on random params."""
    hi = 1 << fmt.n
    weights, biases = [], []
    for i, o in zip(topo, topo[1:]):
        weights.append(
            scrub(fmt, rng.integers(0, hi, size=(o, i), dtype=np.uint32))
        )
        biases.append(
            scrub(fmt, rng.integers(0, hi, size=(o,), dtype=np.uint32))
        )
    net = PositronNetwork.from_arrays(
        fmt, weights, biases, rounding_mode=rounding_mode
    )
    layers = [(l.weights, l.bias, l.activation) for l in net.layers]
    X = scrub(fmt, rng.integers(0, hi, size=(batch, topo[0]), dtype=np.uint32))
    return layers, X, net


def reference_forward(net, X):
    """The retained ``dot_reference`` digit-plane nest, layer by layer: an oracle that
    shares no code with the compiled kernels or plans."""
    out = X
    for layer in net.layers:
        out = net.engine.dot_reference(
            layer.weights, out, layer.bias, rounding_mode=net.rounding_mode
        )
        if layer.activation == "relu":
            out = net.engine.relu(out)
    return out


def forced_plans(backend, layers, rounding_mode):
    """Every constructible (path, plan) plus the unforced default plan."""
    plans = [(None, backend.compile_network(layers, rounding_mode=rounding_mode))]
    for path in NETWORK_PATHS:
        try:
            plans.append(
                (
                    path,
                    backend.compile_network(
                        layers, rounding_mode=rounding_mode, force_path=path
                    ),
                )
            )
        except ValueError:
            continue  # path ineligible for this format/shape
    return plans


class TestRoundTable:
    def test_matches_encoder_over_window(self, table_fmt):
        """Lookup == encode_from_quire_words across the int64 word window."""
        backend = formats.backend_for(table_fmt)
        rng = np.random.default_rng(11)
        cap = np.int64(1) << 62
        for mode in formats.ROUNDING_MODES:
            rt = round_table(backend, mode)
            words = np.concatenate(
                [
                    np.arange(-4096, 4096, dtype=np.int64),
                    rng.integers(-cap, cap, size=50_000, dtype=np.int64),
                    rt.boundaries,
                    rt.boundaries - 1,
                    rt.boundaries + 1,
                    np.array([-cap, cap, -1, 0, 1], dtype=np.int64),
                ]
            )
            expected = backend.encode_from_quire_words(words, mode=mode)
            assert np.array_equal(rt.lookup(words), expected.astype(np.int64))

    def test_bucket_index_matches_searchsorted(self, table_fmt):
        """The O(1) bucket lookup == binary search on the same boundaries."""
        backend = formats.backend_for(table_fmt)
        rng = np.random.default_rng(12)
        cap = np.int64(1) << 62
        for mode in formats.ROUNDING_MODES:
            rt = round_table(backend, mode)
            assert rt._m is not None  # built-ins always get the fast grid
            words = np.concatenate(
                [
                    rng.integers(-cap, cap, size=50_000, dtype=np.int64),
                    rt.boundaries,
                    rt.boundaries - 1,
                ]
            )
            assert np.array_equal(
                rt.indices(words),
                np.searchsorted(rt.boundaries, words, side="right"),
            )

    def test_exact_tables_are_exact(self, table_fmt):
        """Aligned values agree with the decode tables."""
        backend = formats.backend_for(table_fmt)
        t = backend.limb_tables()
        valid = np.flatnonzero(~t.invalid)
        avals = aligned_value_table(backend)
        if avals is not None:
            assert np.array_equal(
                avals[valid], t.signed_sig[valid] << t.shift[valid]
            )
            dec = backend.decode_batch(valid.astype(np.uint32))
            assert np.array_equal(np.sign(avals[valid]), np.sign(dec))


class TestFusedBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        fmt_idx=st.integers(0, len(FORMATS) - 1),
        seed=st.integers(0, 2**31 - 1),
        hidden=st.integers(1, 6),
        out_dim=st.integers(1, 4),
        in_dim=st.integers(1, 10),
        batch=st.integers(0, 6),
        mode_idx=st.integers(0, 1),
    )
    def test_fused_equals_layered_all_paths(
        self, fmt_idx, seed, hidden, out_dim, in_dim, batch, mode_idx
    ):
        """Fused plan == per-layer kernels for every forced path and mode."""
        fmt = FORMATS[fmt_idx]
        mode = formats.ROUNDING_MODES[mode_idx]
        backend = formats.backend_for(fmt)
        rng = np.random.default_rng(seed)
        layers, X, net = random_network(
            fmt, rng, (in_dim, hidden, out_dim), batch, rounding_mode=mode
        )
        expected = net.forward_patterns_layers(X)
        ranks = backend.rank_table()
        expected_pred = np.argmax(ranks[expected.astype(np.int64)], axis=1)
        for path, plan in forced_plans(backend, layers, mode):
            out = plan.forward(X)
            assert out.shape == (batch, out_dim), path
            assert np.array_equal(out, expected), (path, mode)
            pred = plan.predict(X)
            assert pred.shape == (batch,), path
            assert np.array_equal(pred, expected_pred), (path, mode)

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    def test_every_format_mode_and_path(self, any_fmt, mode):
        """Every format x mode: each constructible path == per-layer kernels
        == the ``dot_reference`` nest.

        A path is forceable exactly when every layer lists it as eligible;
        a forced ``layer`` path runs the limb ``TableLayerKernel`` even when
        the layers' own compiled kernels are one-layer plans.
        """
        backend = formats.backend_for(any_fmt)
        rng = np.random.default_rng(21)
        layers, X, net = random_network(
            any_fmt, rng, (6, 5, 3), 7, rounding_mode=mode
        )
        expected = net.forward_patterns_layers(X)
        assert np.array_equal(expected, reference_forward(net, X))
        plans = forced_plans(backend, layers, mode)
        eligible = [set(row["eligible"]) for row in plans[0][1].explain()]
        assert {path for path, _ in plans[1:]} == set.intersection(*eligible)
        for path, plan in plans:
            assert np.array_equal(plan.forward(X), expected), (path, mode)
        if backend.limb_tables() is not None:
            for plan in (
                dict(plans)["layer"], net.network_kernel(force_path="layer")
            ):
                assert all(
                    isinstance(step.kernel, TableLayerKernel)
                    for step in plan.steps
                )
                assert np.array_equal(plan.forward(X), expected), mode

    @settings(max_examples=10, deadline=None)
    @given(
        fmt_idx=st.integers(0, len(FORMATS) - 1),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_fused_equals_forward_scalar(self, fmt_idx, seed):
        """Fused plan == one scalar EMAC per neuron, per forced path.

        The scalar EMACs are the RNE reference datapath (the rtz ablation
        has its own scalar oracle, ``truncate_scalar``), so this pins the
        rne plans; rtz bit-identity rides the layered comparison above.
        """
        fmt = FORMATS[fmt_idx]
        backend = formats.backend_for(fmt)
        rng = np.random.default_rng(seed)
        layers, X, net = random_network(fmt, rng, (5, 3, 2), 2)
        expected = np.asarray(
            [net.forward_scalar([int(p) for p in row]) for row in X],
            dtype=np.uint32,
        )
        for path, plan in forced_plans(backend, layers, "rne"):
            assert np.array_equal(plan.forward(X), expected), path

    def test_relu_table_matches_engine_on_every_valid_pattern(self, any_fmt):
        """Pattern-space ReLU composition == engine.relu, all valid patterns.

        Exercised through a 1x1 identity-weight layer whose quire holds the
        input exactly, so the fused epilogue's relu-composed slot table is
        probed at every valid activation pattern.
        """
        backend = formats.backend_for(any_fmt)
        engine = engine_for(any_fmt)
        hi = 1 << any_fmt.n
        valid = np.arange(hi, dtype=np.uint32)
        tables = backend.limb_tables()
        if tables is not None:
            valid = valid[~tables.invalid[valid]]
        one = backend.quantize_batch(np.asarray([1.0]))[0]
        zero = backend.quantize_batch(np.asarray([0.0]))[0]
        W = np.full((1, 1), one, dtype=np.uint32)
        B = np.full(1, zero, dtype=np.uint32)
        X = valid.reshape(-1, 1)
        expected = engine.relu(
            backend.compile_layer(W, B)(X)
        )
        for path, plan in forced_plans(backend, [(W, B, "relu")], "rne"):
            assert np.array_equal(plan.forward(X), expected), path

    def test_empty_and_single_row_every_path(self, any_fmt):
        """(0, in) and (1, in) inputs keep exact shapes on every path."""
        backend = formats.backend_for(any_fmt)
        rng = np.random.default_rng(5)
        layers, _, net = random_network(any_fmt, rng, (4, 3, 2), 0)
        hi = 1 << any_fmt.n
        empty = np.empty((0, 4), dtype=np.uint32)
        single = scrub(any_fmt, rng.integers(0, hi, size=(1, 4), dtype=np.uint32))
        for path, plan in forced_plans(backend, layers, "rne"):
            out = plan.forward(empty)
            assert out.shape == (0, 2) and out.dtype == np.uint32, path
            assert plan.predict(empty).shape == (0,), path
            out1 = plan.forward(single)
            assert out1.shape == (1, 2), path
            assert np.array_equal(out1, net.forward_patterns_layers(single))
            pred1 = plan.predict(single)
            assert pred1.shape == (1,), path


class TestPlanCompile:
    def test_force_path_rejects_ineligible(self):
        """Forcing a path a layer cannot take raises, never silently falls back."""
        fmt = standard_format(8, 2)
        backend = formats.backend_for(fmt)
        rng = np.random.default_rng(9)
        layers, _, _ = random_network(fmt, rng, (3, 2), 1)
        weights, bias, _ = layers[0]
        tables = backend.limb_tables()
        assert quire_bound_bits(
            tables, weights.astype(np.int64), bias.astype(np.int64)
        ) > 62  # no single-word bound: only the layer path fits
        for path in ("int64", "plane"):
            with pytest.raises(ValueError, match="not eligible"):
                backend.compile_network(layers, force_path=path)
        plan = backend.compile_network(layers)
        assert [row["path"] for row in plan.explain()] == ["layer"]
        with pytest.raises(ValueError, match="force_path"):
            backend.compile_network(layers, force_path="warp")

    def test_validates_network_inputs_once(self, table_fmt):
        """Invalid input patterns are rejected at the network boundary."""
        backend = formats.backend_for(table_fmt)
        tables = backend.limb_tables()
        bad = np.flatnonzero(tables.invalid)
        if bad.size == 0:
            pytest.skip("format has no invalid patterns")
        rng = np.random.default_rng(3)
        layers, X, _ = random_network(table_fmt, rng, (3, 2), 2)
        plan = backend.compile_network(layers)
        X = X.copy()
        X[0, 0] = bad[0]
        with pytest.raises(ValueError, match="activations"):
            plan.forward(X)

    def test_shape_mismatch_rejected(self, any_fmt):
        backend = formats.backend_for(any_fmt)
        rng = np.random.default_rng(4)
        layers, X, _ = random_network(any_fmt, rng, (4, 3, 2), 2)
        plan = backend.compile_network(layers)
        with pytest.raises(ValueError, match="fan-in mismatch"):
            plan.forward(X[:, :3])
        with pytest.raises(ValueError, match="2-D"):
            plan.forward(X[0])

    def test_explain_reports_every_layer(self, any_fmt):
        """explain() rows carry the decision, eligibility and footprint."""
        backend = formats.backend_for(any_fmt)
        rng = np.random.default_rng(6)
        layers, _, _ = random_network(any_fmt, rng, (4, 3, 2), 1)
        plan = backend.compile_network(layers)
        report = plan.explain()
        assert len(report) == 2
        for i, row in enumerate(report):
            assert row["layer"] == i
            assert row["path"] in NETWORK_PATHS
            assert row["path"] in row["eligible"]
            assert row["table_bytes"] >= 0
            assert row["activation"] in ("relu", "identity")

    def test_layer_kernels_shape_checked(self, any_fmt):
        backend = formats.backend_for(any_fmt)
        rng = np.random.default_rng(8)
        layers, _, _ = random_network(any_fmt, rng, (4, 3, 2), 1)
        with pytest.raises(ValueError, match="per layer"):
            NetworkKernel(backend, layers, layer_kernels=[None])
        with pytest.raises(ValueError, match="at least one layer"):
            NetworkKernel(backend, [])


#: Table I topologies of the three paper datasets.
PAPER_TOPOLOGIES = {
    "iris": (4, 10, 6, 3),
    "wbc": (30, 16, 8, 2),
    "mushroom": (117, 24, 12, 2),
}

#: The rule's path per paper layer, at (one, two) live activation planes.
PAPER_RULE = {
    "iris": [("int64", "int64")] * 3,
    "wbc": [("plane", "plane"), ("int64", "int64"), ("int64", "int64")],
    "mushroom": [("plane", "plane"), ("plane", "int64"), ("int64", "int64")],
}

#: Every (topology, format) the serving benchmarks compile.
SERVED_MODELS = [
    (ds, fmt)
    for ds in ("iris", "wbc")
    for fmt in ("posit8_1", "float3_4", "fixed8_4")
] + [
    ("mushroom", fmt)
    for fmt in (
        "posit8_0", "posit8_1", "posit8_2", "float2_5", "fixed8_3",
        "posit16_1",
    )
]


def synthetic_network(dataset, format_name, seed=0):
    """A paper-topology network on seeded float weights (no training)."""
    topo = PAPER_TOPOLOGIES[dataset]
    rng = np.random.default_rng(seed)
    shapes = list(zip(topo[1:], topo))
    weights = [rng.normal(0.0, 0.5, size=shape) for shape in shapes]
    biases = [rng.normal(0.0, 0.5, size=o) for o, _ in shapes]
    fmt = formats.get(format_name).fmt
    return PositronNetwork.from_float_params(fmt, weights, biases)


def served_plan_paths() -> dict:
    plans = {}
    for ds, fmt in SERVED_MODELS:
        report = synthetic_network(ds, fmt).network_kernel().explain()
        plans[f"{ds}:{fmt}"] = [row["path"] for row in report]
    return plans


class TestPathRule:
    @pytest.mark.parametrize("planes", [1, 2])
    @pytest.mark.parametrize("dataset", sorted(PAPER_TOPOLOGIES))
    def test_rule_pins_paper_shapes(self, dataset, planes):
        """choose_path's pick for every paper layer at 1 and 2 live planes."""
        topo = PAPER_TOPOLOGIES[dataset]
        both = ("plane", "int64", "layer")
        got = [
            choose_path(both, i * o, planes) for i, o in zip(topo, topo[1:])
        ]
        assert got == [pair[planes - 1] for pair in PAPER_RULE[dataset]]

    def test_rule_single_candidate(self):
        """With one fast path eligible the shape never matters."""
        for macs in (1, 10**6):
            assert choose_path(("plane", "layer"), macs, 3) == "plane"
            assert choose_path(("int64", "layer"), macs, 1) == "int64"
            assert choose_path(("layer",), macs, 1) == "layer"

    @pytest.mark.parametrize(
        "format_name,planes", [("posit8_0", 1), ("posit8_1", 2)]
    )
    @pytest.mark.parametrize("dataset", sorted(PAPER_TOPOLOGIES))
    def test_compiled_plans_follow_rule(self, dataset, format_name, planes):
        """Compiled paper-shape plans take the rule's path on every layer."""
        backend = formats.get(format_name)
        assert len(live_planes(backend)) == planes
        net = synthetic_network(dataset, format_name)
        report = net.network_kernel().explain()
        for row, pair in zip(report, PAPER_RULE[dataset]):
            assert row["eligible"] == ["plane", "int64", "layer"]
            assert row["live_planes"] == planes
            assert row["macs"] == row["in_features"] * row["out_features"]
            assert row["path"] == pair[planes - 1]

    def test_plans_identical_across_processes(self):
        """Two fresh processes compile the served models to the same plans."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import json, sys\n"
            "from tests.formats.test_network_kernel import served_plan_paths\n"
            "json.dump(served_plan_paths(), sys.stdout)\n"
        )
        root = str(Path(__file__).resolve().parents[2])
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code], cwd=root, env=env,
                stdout=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        plans = [json.loads(p.communicate(timeout=120)[0]) for p in procs]
        assert all(p.returncode == 0 for p in procs)
        assert plans[0] == plans[1]
        assert sorted(plans[0]) == sorted(
            f"{ds}:{fmt}" for ds, fmt in SERVED_MODELS
        )
