"""Compiled per-layer inference kernels: one stacked digit-plane GEMM.

Every exact dot product of a table-driven format is a *digit-plane
convolution*: each pattern's aligned value is a handful of signed
base-``2**LIMB_BITS`` digits, and the limb-``k`` contribution of a product
is ``limbs[b, o, k] = sum_{l+m=k} (A_m @ W_l.T)``.  Executed naively — as
the retained reference nest :func:`dot_reference` still does — that is up
to ``planes**2`` small float64 matmuls per batch chunk, and the weight
digit tensor is re-gathered on every call.

A :class:`LayerKernel` compiles the *(weights, bias)* half of that
convolution once, so each forward call is a **single** float64 GEMM:

Memory layout
-------------
Let ``in`` be the fan-in, ``out`` the fan-out, ``L`` the number of quire
limbs, ``Ma`` the format's live *activation* digit planes (columns of the
digit table that are nonzero for any valid pattern) and ``Lw`` the live
*weight* digit planes of this particular weight matrix (all-zero planes are
pruned at compile time).  The kernel precomputes the stacked weight matrix

    K[m * in + i,  o * L + k]  =  Wdigits[o, i, k - m]      (0 otherwise)

of shape ``(Ma * in, out * L)`` — the limb convolution laid out as a plain
matrix product.  At run time the activations are staged once per chunk as

    A[b, m * in + i]  =  Adigits[b, i, m]                   (chunk, Ma * in)

and ``A @ K``, reshaped to ``(chunk, out, L)``, *is* the full unnormalized
limb tensor; the backend's batched ``encode_from_quire_batch`` rounds it
once, bit-identically to the scalar EMACs.  Bias patterns are precompiled to
quire-aligned limbs ``(out, L)`` and added per chunk.

Exactness bound and the no-chunk fast path
------------------------------------------
Every digit is ``< 2**LIMB_BITS`` so every digit product is
``< 2**(2 * LIMB_BITS)``, and at most ``Lw * in`` nonzero products land in
one output element of the GEMM (adding exact zeros costs nothing).  The
float64 staging is therefore exact — every partial sum is an integer below
``2**53`` — whenever

    2 * LIMB_BITS + ceil(log2(Lw * in))  <=  53,

i.e. ``Lw * in <= 2**(53 - 2 * LIMB_BITS)`` (8192 at the default 20-bit
limbs).  Every topology in the paper (largest fan-in 117, ``Lw <= 5``)
satisfies the bound, so the kernel runs the **no-chunk int64 fast path**:
one GEMM over the full fan-in, cast to int64 once.  Larger fan-ins fall
back to fan-in splits sized ``2**(53 - 2*LIMB_BITS) // Lw``, accumulated in
int64 — still one GEMM per split instead of ``planes**2``.

Scratch buffers (the staged activations, the GEMM output, and the int64
limb tensor) come from a grow-only *per-thread* pool keyed by shape, so
they are reused across batch chunks *and* across the layers of a network.
Because the pool is thread-local, the memoized backends handed out by the
format registry are safe to share across threads (the serving layer's
executor runs batches for different models concurrently); within a thread
a kernel call never yields, so asyncio tasks cannot interleave mid-call
either.  Cross-process parallelism lives in the process-pool
runner.

Kernels are obtained through :meth:`repro.formats.NumericFormat.compile_layer`.
A layer whose quire provably fits one int64 word (the bound of
:func:`quire_bound_bits` is at most 62 bits) compiles to a one-layer fused
plan (:class:`repro.formats.network.NetworkKernel`), and so does every
fixed-point layer; :class:`TableLayerKernel` is the exact multi-limb path
for the wider quires.  A family that is not fixed point must expose limb
tables to compile at all.
"""

from __future__ import annotations

import threading

import numpy as np

from .base import LimbTables, NumericFormat
from .fixed_backend import FixedBackend
from .quire import LIMB_BITS, check_rounding_mode

__all__ = [
    "LayerKernel",
    "TableLayerKernel",
    "dot_reference",
    "digit_planes",
    "check_patterns",
    "quire_bound_bits",
    "num_limbs",
    "clear_scratch",
]

#: Soft cap on the size of per-chunk intermediate tensors (elements).  Read
#: at call time by the limb kernel, the network plans and
#: :func:`dot_reference`, so tests shrink it by monkeypatching.
_CHUNK_ELEMENTS = 4_000_000

#: Scratch pool byte budget; least-recently-used buffers are evicted.
_SCRATCH_MAX_BYTES = 256 * 1024 * 1024


class _ScratchPool:
    """Grow-only pool of preallocated buffers keyed by (shape, dtype).

    Layer kernels request identically shaped staging / GEMM / limb buffers
    on every chunk of every forward call; handing back the same arrays
    keeps the hot path allocation-free.  One pool exists per thread (see
    :func:`_scratch`), so two kernels running on different threads can
    never hand out the same buffer.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}

    def get(self, shape: tuple[int, ...], dtype, tag: str = "") -> np.ndarray:
        # ``tag`` separates buffers that may be alive at the same time even
        # when their shapes coincide (e.g. a GEMM's input and output).
        key = (shape, np.dtype(dtype).str, tag)
        buf = self._buffers.pop(key, None)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._evict(buf.nbytes)
        self._buffers[key] = buf  # re-insert at the back: LRU order
        return buf

    def _evict(self, incoming: int) -> None:
        total = incoming + sum(b.nbytes for b in self._buffers.values())
        while total > _SCRATCH_MAX_BYTES and self._buffers:
            dropped = self._buffers.pop(next(iter(self._buffers)))
            total -= dropped.nbytes

    def clear(self) -> None:
        self._buffers.clear()


_SCRATCH_TLS = threading.local()


def _scratch() -> _ScratchPool:
    """The calling thread's scratch pool (created on first use).

    Keying the pool by thread is what makes the registry-memoized backends
    and compiled kernels shareable across executor threads: concurrent
    forward passes each stage into their own buffers, while the
    single-threaded hot path keeps its allocation-free reuse.
    """
    pool = getattr(_SCRATCH_TLS, "pool", None)
    if pool is None:
        pool = _SCRATCH_TLS.pool = _ScratchPool()
    return pool


def clear_scratch() -> None:
    """Drop this thread's pooled scratch buffers (tests / memory callers)."""
    _scratch().clear()


def digit_planes(backend: NumericFormat) -> np.ndarray:
    """The backend's signed base-``2**LIMB_BITS`` digit table, memoized.

    Entry ``[p, l]`` is pattern ``p``'s signed digit of weight
    ``2**(LIMB_BITS * l)`` in quire-LSB units of one *input*.  Digits are
    ``< 2**LIMB_BITS`` and stored as float64 (exactly representable) so the
    digit-plane contractions run on BLAS.  Built once per backend; the
    registry caches backends per format key, so every kernel and sweep
    worker in a process shares one table per format.
    """
    cached = backend.__dict__.get("_digit_planes")
    if cached is None:
        tables = backend.limb_tables()
        if tables is None:
            raise TypeError(f"{backend.name} has no limb decode tables")
        cached = _build_digit_planes(tables)
        backend.__dict__["_digit_planes"] = cached
    return cached


def _build_digit_planes(tables: LimbTables) -> np.ndarray:
    sig = tables.signed_sig
    mag = np.abs(sig)
    coarse, rem = np.divmod(tables.shift, LIMB_BITS)
    m = mag << rem  # < 2**(sig_bits + LIMB_BITS - 1), fits easily
    max_input_shift = tables.max_shift // 2
    num = (max_input_shift + tables.sig_bits) // LIMB_BITS + 2
    digits = np.zeros((sig.shape[0], num), dtype=np.int64)
    rows = np.arange(sig.shape[0])
    mask = (1 << LIMB_BITS) - 1
    for l in range((tables.sig_bits + LIMB_BITS - 1) // LIMB_BITS + 1):
        digits[rows, coarse + l] += (m >> (LIMB_BITS * l)) & mask
    digits *= np.sign(sig)[:, None]
    return digits.astype(np.float64)


def check_patterns(tables: LimbTables, patterns, what: str) -> np.ndarray:
    """Validate patterns against the decode tables; return them as int64.

    Shared by the layer kernels, :func:`dot_reference`, and the fused
    network kernels (which validate the *network* inputs once instead of
    re-validating at every layer boundary).
    """
    p = np.asarray(patterns, dtype=np.int64)
    if p.size and (p.min() < 0 or p.max() >= tables.signed_sig.shape[0]):
        raise ValueError(f"{what} pattern out of range")
    if np.any(tables.invalid[p]):
        raise ValueError(f"{what} contains NaR/reserved patterns")
    return p


def quire_bound_bits(tables: LimbTables, wp, bp) -> int:
    """Bit length bounding any reachable |quire| for these weights.

    ``max_o sum_i |w_oi| * max_valid_a |a| + max_o |bias_o|`` in
    quire-LSB units, evaluated in float64 with two guard bits of
    safety margin — an over-estimate only ever sends a single-word layer
    to the slower multi-limb kernel.
    """
    sig_abs = np.abs(tables.signed_sig).astype(np.float64)
    valid = ~tables.invalid
    act_max = 0.0
    if valid.any():
        act_max = float(np.ldexp(sig_abs[valid], tables.shift[valid]).max())
    row_max = 0.0
    if wp.size:
        w_vals = np.ldexp(sig_abs[wp], tables.shift[wp])
        row_max = float(w_vals.sum(axis=1).max())
    bias_max = 0.0
    if bp is not None and bp.size:
        bias_max = float(
            np.ldexp(
                sig_abs[bp], tables.shift[bp] + tables.bias_extra_shift
            ).max()
        )
    bound = row_max * act_max + bias_max
    if bound == 0.0:
        return 1
    return int(np.frexp(bound)[1]) + 2


def num_limbs(tables: LimbTables) -> int:
    """Limbs per exact quire of a table format: room for the widest product
    term at the largest shift, plus sign-extension headroom."""
    max_term_bits = 2 * tables.sig_bits + LIMB_BITS
    if max_term_bits > 62:
        raise ValueError("significand products too wide for int64 limbs")
    return (tables.max_shift + max_term_bits) // LIMB_BITS + 2


def _bias_limbs(tables: LimbTables, bp: np.ndarray, limbs: int) -> np.ndarray:
    """Each (validated) bias pattern as quire-aligned limbs, shape (out, L)."""
    sig = tables.signed_sig[bp]
    total_shift = tables.shift[bp] + tables.bias_extra_shift
    idx = total_shift // LIMB_BITS
    rem = total_shift - idx * LIMB_BITS
    out = np.zeros((bp.shape[0], limbs), dtype=np.int64)
    out[np.arange(bp.shape[0]), idx] = sig << rem
    return out


def _check_activations(activations, in_features: int) -> np.ndarray:
    a = np.asarray(activations, dtype=np.uint32)
    if a.ndim != 2:
        raise ValueError(f"activations must be 2-D (batch, in); got shape {a.shape}")
    if a.shape[1] != in_features:
        raise ValueError(
            f"fan-in mismatch: weights expect {in_features}, "
            f"activations have {a.shape[1]}"
        )
    return a


def _check_weights(weights, bias) -> tuple[np.ndarray, np.ndarray | None]:
    weights = np.asarray(weights, dtype=np.uint32)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D (out, in); got shape {weights.shape}")
    if bias is not None:
        bias = np.asarray(bias, dtype=np.uint32)
        if bias.shape != (weights.shape[0],):
            raise ValueError(f"bias must have shape ({weights.shape[0]},)")
    return weights, bias


class LayerKernel:
    """A layer's ``(weights, bias)`` compiled against one backend.

    Calling the kernel on ``(batch, in)`` activation patterns returns the
    ``(batch, out)`` exact round-once dot products — the same contract as
    :func:`dot_reference`, with all per-call weight preparation hoisted
    into construction.  ``rounding_mode`` selects the round-once output
    stage (``"rne"`` default, ``"rtz"`` round toward zero).  The one-layer
    plans ``compile_layer`` returns for single-word layers meet the same
    callable contract.
    """

    out_features: int
    in_features: int
    rounding_mode: str = "rne"

    def __call__(self, activations: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class TableLayerKernel(LayerKernel):
    """Stacked digit-plane GEMM kernel for table-driven formats.

    The exact multi-limb path: one GEMM per fan-in split, then the
    backend's ``encode_from_quire_batch`` rounds the limb tensor once.
    ``compile_layer`` hands it out for layers whose quire bound exceeds
    one int64 word; see the module docstring for the memory layout and
    exactness bound.
    """

    def __init__(
        self,
        backend: NumericFormat,
        weights: np.ndarray,
        bias: np.ndarray | None = None,
        *,
        rounding_mode: str = "rne",
    ):
        tables = backend.limb_tables()
        if tables is None:
            raise TypeError(f"{backend.name} has no limb decode tables")
        self.backend = backend
        self.rounding_mode = check_rounding_mode(rounding_mode)
        self._tables = tables
        self._num_limbs = num_limbs(tables)

        weights, bias = _check_weights(weights, bias)
        wp = check_patterns(tables, weights, "weights")
        bp = None if bias is None else check_patterns(tables, bias, "bias")
        self.out_features, self.in_features = wp.shape
        if self.in_features > 1 << 20:
            raise ValueError(f"fan-in {self.in_features} overflows int64 limb sums")

        digits = digit_planes(backend)
        planes = digits.shape[1]
        dig_w = digits[wp]  # (out, in, planes)
        live_w = [l for l in range(planes) if dig_w[:, :, l].any()]
        live_a = [m for m in range(planes) if digits[:, m].any()]
        # Activation digit gather table restricted to its live planes.
        self._act_digits = np.ascontiguousarray(digits[:, live_a])
        self._live_planes = len(live_a)

        # Fan-in splits keeping every GEMM exact in float64 (module bound).
        out_dim, L = self.out_features, self._num_limbs
        max_products = max(1, (1 << (53 - 2 * LIMB_BITS)) // max(1, len(live_w)))
        if self.in_features <= max_products:
            splits = [(0, self.in_features)]  # no-chunk int64 fast path
        else:
            splits = [
                (i, min(self.in_features, i + max_products))
                for i in range(0, self.in_features, max_products)
            ]
        blocks = []
        for i0, i1 in splits:
            block = np.zeros(
                (self._live_planes, i1 - i0, out_dim, L), dtype=np.float64
            )
            for mi, m in enumerate(live_a):
                for l in live_w:
                    block[mi, :, :, l + m] += dig_w[:, i0:i1, l].T
            blocks.append(
                block.reshape(self._live_planes * (i1 - i0), out_dim * L)
            )
        self._splits = splits
        self._blocks = blocks
        self._bias_limbs = (
            None if bp is None else _bias_limbs(tables, bp, self._num_limbs)
        )

    def __call__(self, activations: np.ndarray) -> np.ndarray:
        activations = _check_activations(activations, self.in_features)
        ap = check_patterns(self._tables, activations, "activations")
        batch = ap.shape[0]
        out_dim, L = self.out_features, self._num_limbs
        out = np.empty((batch, out_dim), dtype=np.uint32)
        chunk = max(1, _CHUNK_ELEMENTS // max(1, out_dim * L))
        fast = len(self._splits) == 1
        scratch = _scratch()
        for start in range(0, batch, chunk):
            stop = min(batch, start + chunk)
            rows = stop - start
            limbs = scratch.get((rows, out_dim * L), np.int64, "limbs")
            if not fast:
                limbs.fill(0)
            for (i0, i1), block in zip(self._splits, self._blocks):
                width = i1 - i0
                staged = scratch.get(
                    (rows, self._live_planes * width), np.float64, "staged"
                )
                staged.reshape(rows, self._live_planes, width)[:] = (
                    self._act_digits[ap[start:stop, i0:i1]].transpose(0, 2, 1)
                )
                prod = scratch.get((rows, out_dim * L), np.float64, "prod")
                np.matmul(staged, block, out=prod)
                if fast:
                    limbs[:] = prod  # exact: every entry is an integer < 2**53
                else:
                    # Cast before adding: accumulated limbs can exceed 2**53,
                    # where a float64-intermediate add would lose low bits.
                    limbs += prod.astype(np.int64)
            limb3 = limbs.reshape(rows, out_dim, L)
            if self._bias_limbs is not None:
                limb3 += self._bias_limbs
            out[start:stop] = self.backend.encode_from_quire_batch(
                limb3, mode=self.rounding_mode
            )
        return out


def dot_reference(
    backend: NumericFormat,
    weights: np.ndarray,
    activations: np.ndarray,
    bias: np.ndarray | None = None,
    *,
    rounding_mode: str = "rne",
) -> np.ndarray:
    """The original digit-plane-nest path, retained as the in-tree
    baseline for kernel bit-identity tests and the throughput benchmark.

    ``(out, in)`` weights x ``(batch, in)`` activations -> ``(batch, out)``
    exact round-once dot products, one float64 matmul per (l, m)
    digit-plane pair, recomputed from scratch on every call.  Fixed point
    has no digit planes; its reference is the compiled int64 layer.
    """
    if isinstance(backend, FixedBackend):
        kernel = backend.compile_layer(weights, bias, rounding_mode=rounding_mode)
        return kernel(np.asarray(activations, dtype=np.uint32))
    check_rounding_mode(rounding_mode)
    weights, bias = _check_weights(weights, bias)
    activations = _check_activations(activations, weights.shape[1])
    digits = digit_planes(backend)
    tables = backend.limb_tables()
    wp = check_patterns(tables, weights, "weights")
    ap = check_patterns(tables, activations, "activations")

    out_dim, in_dim = wp.shape
    batch = ap.shape[0]
    L = num_limbs(tables)
    planes = digits.shape[1]
    if in_dim > 1 << 20:
        raise ValueError(f"fan-in {in_dim} overflows int64 limb sums")
    # Digit products are < 2**(2*LIMB_BITS); each float64 matmul must
    # reduce few enough of them to stay exact, so huge fan-ins are fed
    # through in chunks and accumulated in int64.
    in_chunk = max(1, (1 << (53 - 2 * LIMB_BITS)) // max(1, planes))

    dig_w = digits[wp]  # (out, in, planes)
    dig_a = digits[ap]  # (batch, in, planes)
    w_live = [dig_w[:, :, l] for l in range(planes)]
    w_used = [w.any() for w in w_live]

    bias_limbs = None
    if bias is not None:
        bias_limbs = _bias_limbs(tables, check_patterns(tables, bias, "bias"), L)

    chunk = max(1, _CHUNK_ELEMENTS // max(1, out_dim * L))
    out = np.empty((batch, out_dim), dtype=np.uint32)
    for start in range(0, batch, chunk):
        stop = min(batch, start + chunk)
        limbs = np.zeros((stop - start, out_dim, L), dtype=np.int64)
        for istart in range(0, in_dim, in_chunk):
            istop = min(in_dim, istart + in_chunk)
            limbs_f = np.zeros((stop - start, out_dim, L), dtype=np.float64)
            for m in range(planes):
                a_plane = dig_a[start:stop, istart:istop, m]
                if not a_plane.any():
                    continue
                for l in range(planes):
                    if w_used[l]:
                        limbs_f[:, :, l + m] += a_plane @ w_live[l][:, istart:istop].T
            limbs += limbs_f.astype(np.int64)
        if bias_limbs is not None:
            limbs += bias_limbs[None, :, :]
        out[start:stop] = backend.encode_from_quire_batch(
            limbs, mode=rounding_mode
        )
    return out
