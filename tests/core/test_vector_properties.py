"""Hypothesis property tests for the batched exact layer evaluation.

Layers run through the format backend's compiled kernel
(``compile_layer``); the bit-identity property also checks the retained
reference nest (``formats.dot_reference``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import formats
from repro.core import scalar_emac_for
from repro.fixedpoint import fixed_format
from repro.floatp import float_format, tables_for as float_tables
from repro.posit.format import standard_format

FORMATS = [
    standard_format(6, 0),
    standard_format(8, 1),
    standard_format(8, 2),
    float_format(4, 3),
    float_format(3, 4),
    fixed_format(8, 5),
]


def scrub(fmt, patterns):
    from repro.floatp.format import FloatFormat
    from repro.posit.format import PositFormat

    p = np.asarray(patterns, dtype=np.uint32) % (1 << fmt.n)
    if isinstance(fmt, PositFormat):
        p[p == fmt.nar_pattern] = 0
    elif isinstance(fmt, FloatFormat):
        p[float_tables(fmt).is_reserved[p]] = 0
    return p


@settings(max_examples=30, deadline=None)
@given(
    fmt_idx=st.integers(0, len(FORMATS) - 1),
    seed=st.integers(0, 2**31 - 1),
    out_dim=st.integers(1, 5),
    in_dim=st.integers(1, 14),
    batch=st.integers(1, 4),
    with_bias=st.booleans(),
)
def test_engine_bit_identical_to_scalar(fmt_idx, seed, out_dim, in_dim, batch, with_bias):
    """Random layer shapes: compiled output == reference nest == scalar
    EMAC output, bit for bit."""
    fmt = FORMATS[fmt_idx]
    rng = np.random.default_rng(seed)
    hi = 1 << fmt.n
    W = scrub(fmt, rng.integers(0, hi, size=(out_dim, in_dim), dtype=np.uint32))
    X = scrub(fmt, rng.integers(0, hi, size=(batch, in_dim), dtype=np.uint32))
    B = scrub(fmt, rng.integers(0, hi, size=(out_dim,), dtype=np.uint32)) if with_bias else None

    backend = formats.backend_for(fmt)
    emac = scalar_emac_for(fmt)
    out = backend.compile_layer(W, B)(X)
    assert np.array_equal(out, formats.dot_reference(backend, W, X, B))
    for i in range(batch):
        for o in range(out_dim):
            expect = emac.dot(
                [int(w) for w in W[o]],
                [int(x) for x in X[i]],
                bias_bits=None if B is None else int(B[o]),
            )
            assert int(out[i, o]) == expect


@settings(max_examples=30, deadline=None)
@given(
    fmt_idx=st.integers(0, len(FORMATS) - 1),
    seed=st.integers(0, 2**31 - 1),
    in_dim=st.integers(2, 16),
)
def test_engine_dot_order_invariant(fmt_idx, seed, in_dim):
    """Exact accumulation: permuting the MAC order never changes the bits."""
    fmt = FORMATS[fmt_idx]
    rng = np.random.default_rng(seed)
    hi = 1 << fmt.n
    w = scrub(fmt, rng.integers(0, hi, size=(1, in_dim), dtype=np.uint32))
    x = scrub(fmt, rng.integers(0, hi, size=(1, in_dim), dtype=np.uint32))
    backend = formats.backend_for(fmt)
    base = backend.compile_layer(w)(x)[0, 0]
    perm = rng.permutation(in_dim)
    assert backend.compile_layer(w[:, perm])(x[:, perm])[0, 0] == base


@settings(max_examples=25, deadline=None)
@given(
    fmt_idx=st.integers(0, len(FORMATS) - 1),
    seed=st.integers(0, 2**31 - 1),
)
def test_engine_negation_symmetry(fmt_idx, seed):
    """dot(-W, X) == -dot(W, X) (exact accumulation is sign-symmetric)."""
    from repro.fixedpoint.format import FixedFormat

    fmt = FORMATS[fmt_idx]
    if isinstance(fmt, FixedFormat):
        return  # fixed truncation (floor) is not sign-symmetric by design
    rng = np.random.default_rng(seed)
    hi = 1 << fmt.n
    W = scrub(fmt, rng.integers(0, hi, size=(2, 6), dtype=np.uint32))
    X = scrub(fmt, rng.integers(0, hi, size=(2, 6), dtype=np.uint32))
    backend = formats.backend_for(fmt)
    out = backend.compile_layer(W)(X)

    # negate all weights through the format's negate table
    from repro.floatp.format import FloatFormat
    from repro.posit import tables_for as posit_tables

    if isinstance(fmt, FloatFormat):
        neg = float_tables(fmt).negate
    else:
        neg = posit_tables(fmt).negate
    W_neg = neg[W.astype(np.int64)].astype(np.uint32)
    out_neg = backend.compile_layer(W_neg)(X)
    # The negation of each output pattern:
    expect = neg[out.astype(np.int64)].astype(np.uint32)
    assert np.array_equal(out_neg, expect)
