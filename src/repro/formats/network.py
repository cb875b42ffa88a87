"""Fused-epilogue network kernels: whole-network compiled inference plans.

Each layer's exact accumulation is one GEMM (or one per live digit plane),
but a generic epilogue at every layer boundary costs more: the quire words
run through the ~30-operation ``encode_from_quire_words`` rounding chain,
ReLU is a separate gather pass, the next layer re-validates every
activation pattern (three whole-tensor reductions) and re-gathers its
operands from scratch.  Profiling a paper-sized posit8 network shows that
epilogue machinery — not the GEMMs — dominates the forward.

A :class:`NetworkKernel` compiles a whole layer stack into one chained
plan in which intermediate activations never materialize beyond their
patterns (and usually not even as patterns — see *operand fusion* below):

* **Round-table epilogue.** In single-word mode every layer output is an
  exact int64 quire ``word``, and rounding is a monotone step function of
  it.  At compile time the step function's breakpoints are found by binary
  search *against the backend's own encoder* (:func:`round_table`), so the
  whole round-once stage becomes an O(1) bucketed lookup — each word's
  float64 bit image keys a dense table (:func:`_round_key`), one compare
  against the bucket's breakpoint picks the slot, one gather yields the
  result — bit-identical to ``encode_from_quire_words`` by construction,
  for both rounding modes.
* **Operand fusion.** The gather does not produce patterns and stop: the
  slot table is pre-composed with this layer's pattern-space ReLU map and
  with whatever representation the *next* layer consumes (its exact int64
  aligned values, its pattern indices, or nothing but a rank for the
  readout).  Round-once -> ReLU -> next layer's operand gather is a single
  slot lookup + ``take`` into the next layer's preallocated activation
  buffer.
* **Fused readout.** ``predict`` composes the last layer's slot table with
  the format's monotone rank table, so classification is an ``argmax``
  over looked-up ranks — no float64 decode, no pattern materialization for
  the readout rows.
* **Inputs are validated once** per forward call, not once per layer.

Per-layer words paths
---------------------
Each layer's *words computation* is a pure function of the layer, so every
process compiles the same plan for the same model:

``plane``
    One float64 BLAS GEMM per live activation digit plane against the
    exact float64 weight values.
    Eligible when the layer is single-word and the weights are narrow
    (``w_bits + LIMB_BITS + log2(in) <= 53``).
``int64``
    A native int64 matmul: activations as exact aligned int64 values
    (one gather, usually pre-fused into the previous epilogue),
    ``A @ W.T`` in integer dtype.  Exact and overflow-free whenever the
    layer's quire bound fits int64: every product and every partial sum
    is bounded by ``max_row sum|w| * max|a| < 2**62``.
``layer``
    Fallback: the exact limb :class:`~repro.formats.kernels.TableLayerKernel`
    plus a composed epilogue gather, used when the quire bound exceeds
    int64.  Fixed point compiles to its native int64 matmul with the
    shift-round epilogue inlined (its clipped signed outputs *are*
    monotone ranks, so the fused readout is a plain argmax).

The rule: a plane-eligible layer takes ``plane`` when its multiply-adds
per row, ``in * out``, reach ``_PLANE_MACS_PER_PLANE`` per live activation
digit plane (each plane is one more gather + GEMM, so small layers favour
the single int64 matmul); otherwise it takes ``int64``; a layer without a
single-word quire bound takes ``layer``.

Exactness: both single-word paths compute the same exact int64 quire word,
then share the same oracle-derived round table — so every path is
bit-identical to the others, to the limb kernel, to the
:func:`~repro.formats.kernels.dot_reference` nest, and to the scalar EMACs
(property-tested across every registered format, both rounding modes, and
every forced path in ``tests/formats/test_network_kernel.py``).

A one-layer plan is also what :meth:`~repro.formats.NumericFormat.compile_layer`
returns for a single-word layer (and for every fixed-point layer), so the
per-layer path and the fused plans share one executor.  Obtain plans
through :meth:`repro.formats.NumericFormat.compile_network`
(or ``PositronNetwork.network_kernel()``, which recompiles automatically
when a layer is recompiled); ``explain()`` reports the per-layer path, the
rule's inputs, and the compiled-table footprint — surfaced as
``python -m repro formats --explain DATASET:FORMAT``.
"""

from __future__ import annotations

import numpy as np

from . import kernels as _kernels
from .base import NumericFormat
from .fixed_backend import FixedBackend
from .kernels import (
    TableLayerKernel,
    _check_weights,
    _scratch,
    check_patterns,
    digit_planes,
    quire_bound_bits,
)
from .quire import (
    LIMB_BITS,
    arithmetic_shift_round,
    bit_length_int64,
    check_rounding_mode,
)

__all__ = [
    "NetworkKernel",
    "RoundTable",
    "aligned_value_table",
    "choose_path",
    "live_planes",
    "round_table",
    "NETWORK_PATHS",
]

#: Selectable per-layer words-computation paths (``force_path`` values).
NETWORK_PATHS = ("plane", "int64", "layer")

#: Single-word quires are bounded by ``|word| < 2**62``; the round tables
#: cover exactly that window.
_WORD_CAP = np.int64(1) << 62

#: Path rule: a plane-eligible layer takes ``plane`` once ``in * out``
#: reaches this many multiply-adds per live activation digit plane.
_PLANE_MACS_PER_PLANE = 200

#: Mantissa-bit depth range of the round-table bucket grid: the smallest
#: ``m`` whose buckets separate all boundaries wins.  Adjacent boundaries
#: (format-value midpoints) differ relatively by >= ~2**-(fraction+2), so
#: ``m`` lands near the format width; the cap bounds the dense tables at
#: ``128 << m`` entries (~4 MiB) per backend and rounding mode.
_ROUND_KEY_MIN_M = 4
_ROUND_KEY_MAX_M = 18


# ----------------------------------------------------------------------
# Memoized exact integer tables
# ----------------------------------------------------------------------
def aligned_value_table(backend: NumericFormat) -> np.ndarray | None:
    """Per-pattern exact aligned value ``signed_sig << shift`` as int64.

    The int64-matmul fast path multiplies these directly: the product of
    two aligned values is the exact quire word contribution in quire-LSB
    units.  ``None`` when the format has no limb tables or its aligned
    range overflows int64 (no ≤ 8-bit paper format does).
    """

    def build():
        t = backend.limb_tables()
        if t is None or t.sig_bits + int(t.shift.max(initial=0)) > 62:
            return False
        return t.signed_sig << t.shift

    got = backend._memo("_aligned_value_table", build)
    return None if got is False else got


def live_planes(backend: NumericFormat) -> tuple[int, ...]:
    """Indices of the activation digit planes holding any non-zero digit."""

    def build():
        digits = digit_planes(backend)
        return tuple(m for m in range(digits.shape[1]) if digits[:, m].any())

    return backend._memo("_live_planes", build)


def _round_key(words: np.ndarray, m: int) -> np.ndarray:
    """Monotone bucket key of int64 quire words, ``|word| <= 2**62``.

    The word's float64 image (rounding to nearest is monotone, so order is
    preserved) is bucketed by sign, exponent, and its top ``m`` mantissa
    bits — a magnitude-logarithmic grid fine enough that consecutive round
    boundaries land in distinct buckets (checked at build time).  Keys lie
    in ``[0, 128 << m)``: exponents span only ``[2**0, 2**62]``, so 6 bits
    of (offset) exponent plus the sign fold the whole window into a dense,
    cache-resident table index.
    """
    f = words.astype(np.float64)
    expman = (f.view(np.uint64) >> np.uint64(52 - m)).astype(np.int64)
    mag = (expman & ((1 << (11 + m)) - 1)) - (1022 << m)
    np.clip(mag, 0, (64 << m) - 1, out=mag)
    center = 64 << m
    return np.where(words >= 0, center + mag, center - 1 - mag)


class RoundTable:
    """The round-once output stage as an O(1) indexed lookup on int64 words.

    ``slot_patterns[self.indices(word)]`` equals
    ``encode_from_quire_words(word, mode=mode)`` for every
    ``|word| <= 2**62`` — the whole single-word window the compiled
    kernels can produce.  ``boundaries`` are the breakpoints of the
    (monotone) word -> pattern step function, found by vectorized binary
    search with the backend's own batched encoder as the oracle, so
    agreement is by construction rather than by re-deriving each family's
    rounding rules.

    ``indices`` avoids a per-word binary search: the :func:`_round_key`
    grid is built (at the smallest mantissa depth ``m``) such that every
    bucket contains at most one boundary, so the slot index is one dense
    ``base`` gather plus one compare against the bucket's ``bnd`` entry
    (``INT64_MAX`` where the bucket has none) —
    ``base[k] + (word >= bnd[k])``.  Should no ``m`` up to
    ``_ROUND_KEY_MAX_M`` separate the boundaries (never for the built-in
    families), lookups fall back to ``searchsorted``, bit-identically.
    """

    __slots__ = ("boundaries", "slot_patterns", "_m", "_base", "_bnd")

    def __init__(self, boundaries: np.ndarray, slot_patterns: np.ndarray):
        self.boundaries = boundaries
        self.slot_patterns = slot_patterns
        self._m = None
        for m in range(_ROUND_KEY_MIN_M, _ROUND_KEY_MAX_M + 1):
            keys = _round_key(boundaries, m)
            if keys.size == np.unique(keys).size:
                counts = np.bincount(keys, minlength=128 << m)
                self._base = np.concatenate(
                    [[0], np.cumsum(counts)[:-1]]
                ).astype(np.int64)
                self._bnd = np.full(
                    128 << m, np.iinfo(np.int64).max, dtype=np.int64
                )
                self._bnd[keys] = boundaries
                self._m = m
                break

    def indices(self, words: np.ndarray) -> np.ndarray:
        """Slot index per word: ``#{boundaries <= word}``, flattened."""
        w = words.ravel()
        if self._m is None:
            return np.searchsorted(self.boundaries, w, side="right")
        # A boundary in a *lower* bucket is < word, in a *higher* bucket
        # > word (the key is monotone), so ``base`` counts every crossed
        # boundary except the bucket's own, resolved by one compare.
        k = _round_key(w, self._m)
        idx = self._base[k]
        idx += w >= self._bnd[k]
        return idx

    def lookup(self, words: np.ndarray) -> np.ndarray:
        """Round a tensor of int64 quire words to int64 patterns."""
        return self.slot_patterns[self.indices(words)].reshape(words.shape)


def _midpoint(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # floor((lo + hi) / 2) without int64 overflow (lo, hi span +-2**62).
    return (lo >> 1) + (hi >> 1) + ((lo & 1) & (hi & 1))


def round_table(backend: NumericFormat, mode: str = "rne") -> RoundTable:
    """The backend's memoized :class:`RoundTable` for ``mode``."""
    check_rounding_mode(mode)

    def build():
        t = backend.limb_tables()
        if t is None:
            raise TypeError(f"{backend.name} has no limb decode tables")

        def enc(words):
            return backend.encode_from_quire_words(
                np.asarray(words, dtype=np.int64), mode=mode
            ).astype(np.int64)

        # Anchors: every valid pattern's exact value in quire-LSB units
        # that fits int64, plus the +-2**62 window endpoints.  Values that
        # overflow int64 are necessarily beyond the window; rounding can
        # still *produce* their patterns near the window edge, which the
        # edge gaps' breakpoints capture.
        valid = ~t.invalid
        sig = t.signed_sig[valid]
        sh = (t.shift + t.bias_extra_shift)[valid]
        ok = (sig == 0) | (bit_length_int64(np.abs(sig)) + sh <= 62)
        words = sig[ok] << sh[ok]
        # -1 is anchored besides the representable values and the window
        # endpoints: formats with signed zero encode negative underflow to
        # -0 and word 0 to +0 — same value, distinct patterns — so the
        # sign flip at zero is a breakpoint between *equal* anchor values
        # that needs its own gap.
        anchors = np.unique(
            np.concatenate(
                [words, [-_WORD_CAP, -1, _WORD_CAP]]
            ).astype(np.int64)
        )

        # Between consecutive anchors the step function changes at most
        # once (only the two nearest representable values compete), so one
        # binary search per gap finds every breakpoint.
        lo, hi = anchors[:-1].copy(), anchors[1:].copy()
        p_anchor = enc(anchors)
        plo, phi = p_anchor[:-1], p_anchor[1:]
        active = plo != phi
        lo[~active] = hi[~active]
        while np.any(hi - lo > 1):
            mid = _midpoint(lo, hi)
            stay_low = enc(mid) == plo
            lo = np.where(stay_low, mid, lo)
            hi = np.where(stay_low, hi, mid)
        # hi[g] is the minimal word of gap g's upper slot.
        boundaries = hi[active]
        slot_patterns = np.concatenate([p_anchor[:1], phi[active]])
        table = RoundTable(boundaries, slot_patterns)
        # Self-check the one-breakpoint-per-gap premise at every edge the
        # construction produced (a family whose encoder switches patterns
        # twice between adjacent anchors would silently misround a band).
        probe = np.unique(
            np.concatenate([anchors, boundaries, boundaries - 1])
        )
        if not np.array_equal(table.lookup(probe), enc(probe)):
            raise AssertionError(
                f"round table for {backend.name}/{mode} disagrees with "
                "encode_from_quire_words; the format's rounding is not "
                "one-breakpoint-per-anchor-gap"
            )
        return table

    return backend._memo(f"_round_table_{mode}", build)


# ----------------------------------------------------------------------
# Per-layer steps
# ----------------------------------------------------------------------
class _TableStep:
    """One single-word table-format layer: words computation + fused epilogue.

    ``wants`` names the operand representation the step consumes —
    ``"aval"`` (exact int64 aligned values) for the int64 matmul,
    ``"pattern"`` (int64 pattern indices) for the plane path.  The
    *previous* step's epilogue produces it
    directly; :meth:`finalize` composes this step's own epilogue table the
    same way for its consumer.
    """

    def __init__(self, backend, tables, wp, bp, activation, mode, path):
        self.backend = backend
        self.tables = tables
        self.activation = activation
        self.path = path
        self.out_features, self.in_features = wp.shape
        self.rt = round_table(backend, mode)
        self.bias_words = None
        if bp is not None:
            self.bias_words = tables.signed_sig[bp] << (
                tables.shift[bp] + tables.bias_extra_shift
            )
        if path == "int64":
            self.wants = "aval"
            self.w_t = np.ascontiguousarray(aligned_value_table(backend)[wp].T)
        elif path == "plane":
            self.wants = "pattern"
            digits = digit_planes(backend)
            live = live_planes(backend)
            w_vals = np.ldexp(
                tables.signed_sig[wp].astype(np.float64), tables.shift[wp]
            )
            self.w_t = np.ascontiguousarray(w_vals.T)
            self.plane_tables = [np.ascontiguousarray(digits[:, m]) for m in live]
            self.plane_shifts = [LIMB_BITS * m for m in live]
        else:  # pragma: no cover - guarded by the planner
            raise ValueError(f"unknown table path {path!r}")

    # -- epilogue composition -------------------------------------------
    def _compose(self, wants: str | None) -> np.ndarray:
        slots = self.rt.slot_patterns
        if self.activation == "relu":
            slots = self.tables.relu[slots]
        if wants == "aval":
            return aligned_value_table(self.backend)[slots]
        if wants == "rank":
            return self.backend.rank_table()[slots]
        return np.ascontiguousarray(slots)  # "pattern" / final output

    def finalize(self, next_wants: str | None) -> None:
        self.slot_out = self._compose(next_wants)
        self.slot_rank = None  # readout variant, built for the last step

    def finalize_readout(self) -> None:
        self.slot_rank = self._compose("rank")

    # -- execution ------------------------------------------------------
    def run(self, ops, scratch, tag, readout=False):
        rows = ops.shape[0]
        out_dim = self.out_features
        words = scratch.get((rows, out_dim), np.int64, tag + "w")
        if self.path == "int64":
            np.matmul(ops, self.w_t, out=words)
        else:  # plane
            words.fill(0)
            staged = scratch.get(
                (rows, self.in_features), np.float64, tag + "a"
            )
            prod = scratch.get((rows, out_dim), np.float64, tag + "p")
            shifted = scratch.get((rows, out_dim), np.int64, tag + "s")
            for table, shift in zip(self.plane_tables, self.plane_shifts):
                np.take(table, ops, out=staged)
                np.matmul(staged, self.w_t, out=prod)
                shifted[:] = prod  # exact: integers < 2**53
                shifted <<= shift
                words += shifted
        if self.bias_words is not None:
            words += self.bias_words
        # Fused epilogue: round-once + ReLU + the consumer's operand
        # gather, as one O(1) slot lookup and one table take.
        idx = self.rt.indices(words)
        table = self.slot_rank if readout else self.slot_out
        out = scratch.get((rows, out_dim), np.int64, tag + "o")
        np.take(table, idx, out=out.ravel())
        return out

    def table_bytes(self) -> int:
        total = self.rt.boundaries.nbytes + self.slot_out.nbytes
        total += self.w_t.nbytes
        if self.path == "plane":
            total += sum(t.nbytes for t in self.plane_tables)
        return total


class _FixedStep:
    """Fixed-point layer: native int64 matmul with the Fig. 3 epilogue inline.

    Operands are the clipped signed integers themselves (patterns are
    scaled two's-complement words), so ReLU is ``max(v, 0)`` and the
    clipped outputs are already monotone in value — the fused readout
    argmaxes them directly, no rank table needed.
    """

    path = "int64"
    wants = "signed"

    def __init__(self, backend, weights, bias, activation, mode):
        from ..fixedpoint import codec as fx

        fmt = backend.fmt
        self.fmt = fmt
        self.mode = mode
        self.activation = activation
        self.out_features, self.in_features = weights.shape
        self.w_t = np.ascontiguousarray(fx.signed_array(fmt, weights).T)
        self.bias_term = (
            None if bias is None else fx.signed_array(fmt, bias) << fmt.q
        )
        self.next_wants = None

    def finalize(self, next_wants: str | None) -> None:
        self.next_wants = next_wants

    def finalize_readout(self) -> None:
        pass  # clipped signed values double as ranks

    def run(self, ops, scratch, tag, readout=False):
        rows = ops.shape[0]
        fmt = self.fmt
        words = scratch.get((rows, self.out_features), np.int64, tag + "w")
        np.matmul(ops, self.w_t, out=words)
        if self.bias_term is not None:
            words += self.bias_term
        v = arithmetic_shift_round(words, fmt.q, self.mode)
        np.clip(v, fmt.int_min, fmt.int_max, out=v)
        if self.activation == "relu":
            np.maximum(v, 0, out=v)
        if readout or self.next_wants == "signed":
            return v  # monotone in value: rank and operand alike
        v &= fmt.mask  # pattern bits for the final output
        return v

    def table_bytes(self) -> int:
        return self.w_t.nbytes


class _LayerStep:
    """Fallback: a layer kernel plus a composed epilogue LUT.

    Covers layers whose quire bound exceeds int64 (no single-word round
    table; the kernel is a ``TableLayerKernel``).  Still fuses
    ReLU-and-operand conversion into one pattern-indexed gather.
    """

    path = "layer"
    wants = "pattern"

    def __init__(self, backend, kernel, activation):
        self.backend = backend
        self.kernel = kernel
        self.activation = activation
        self.out_features = kernel.out_features
        self.in_features = kernel.in_features

    def _compose(self, wants: str | None) -> np.ndarray | None:
        lut = np.arange(1 << self.backend.width, dtype=np.int64)
        identity = True
        if self.activation == "relu":
            lut = self.backend.relu_batch(lut.astype(np.uint32)).astype(np.int64)
            identity = False
        if wants == "aval":
            lut = aligned_value_table(self.backend)[lut]
            identity = False
        elif wants == "rank":
            lut = self.backend.rank_table()[lut]
            identity = False
        return None if identity else lut

    def finalize(self, next_wants: str | None) -> None:
        self.out_lut = self._compose(next_wants)
        self.rank_lut = None

    def finalize_readout(self) -> None:
        self.rank_lut = self._compose("rank")

    def run(self, ops, scratch, tag, readout=False):
        out = self.kernel(np.asarray(ops, dtype=np.uint32)).astype(np.int64)
        lut = self.rank_lut if readout else self.out_lut
        return out if lut is None else lut[out]

    def table_bytes(self) -> int:
        return 0 if self.out_lut is None else self.out_lut.nbytes


# ----------------------------------------------------------------------
# The compiled network plan
# ----------------------------------------------------------------------
def choose_path(eligible, macs: int, planes: int) -> str:
    """The words path a layer compiles to when none is forced.

    ``plane`` costs one gather + float64 GEMM per live activation digit
    plane, ``int64`` one integer matmul, so ``plane`` wins once the layer
    has ``_PLANE_MACS_PER_PLANE`` multiply-adds per row per plane.
    """
    if "plane" in eligible and (
        "int64" not in eligible or macs >= _PLANE_MACS_PER_PLANE * planes
    ):
        return "plane"
    return "int64" if "int64" in eligible else "layer"


class NetworkKernel:
    """A whole network compiled into one fused chained plan.

    ``layers`` is a sequence of ``(weights, bias, activation)`` triples
    (patterns as uint32 arrays; activation ``"relu"`` or ``"identity"``).
    :meth:`forward` returns the exact output patterns, bit-identical to
    running the per-layer kernels with interleaved ReLU; :meth:`predict`
    returns rank-argmax class labels without materializing the readout.

    ``force_path`` pins every layer to one words-computation path (testing
    hook; raises if a layer is not eligible for it); by default each
    layer's path follows the shape rule of :func:`choose_path`.
    ``layer_kernels`` (one compiled kernel or ``None`` per layer) lets
    ``layer`` steps reuse an already compiled kernel: a table format's
    ``TableLayerKernel`` (a one-layer plan is not reused; a limb kernel
    is built instead).  A family that is not fixed point and has no limb
    tables is refused with ``TypeError``.
    """

    def __init__(
        self,
        backend: NumericFormat,
        layers,
        *,
        rounding_mode: str = "rne",
        layer_kernels=None,
        force_path: str | None = None,
    ):
        if not layers:
            raise ValueError("network kernel needs at least one layer")
        if force_path is not None and force_path not in NETWORK_PATHS:
            raise ValueError(
                f"force_path must be one of {NETWORK_PATHS}, got {force_path!r}"
            )
        self.backend = backend
        self.rounding_mode = check_rounding_mode(rounding_mode)
        if layer_kernels is None:
            layer_kernels = [None] * len(layers)
        if len(layer_kernels) != len(layers):
            raise ValueError("need one compiled kernel (or None) per layer")

        self._tables = backend.limb_tables()
        self.steps = []
        self._decisions = []
        prev_out = None
        for i, (weights, bias, activation) in enumerate(layers):
            weights, bias = _check_weights(weights, bias)
            if prev_out is not None and weights.shape[1] != prev_out:
                raise ValueError(
                    f"layer {i} fan-in {weights.shape[1]} != previous "
                    f"fan-out {prev_out}"
                )
            prev_out = weights.shape[0]
            step, decision = self._plan_layer(
                weights, bias, activation, layer_kernels[i], force_path
            )
            self.steps.append(step)
            self._decisions.append(decision)

        # Compose every epilogue for its consumer; the last step gets the
        # rank-readout variant too.
        for step, nxt in zip(self.steps, self.steps[1:]):
            step.finalize(nxt.wants)
        self.steps[-1].finalize(None)
        self.steps[-1].finalize_readout()

        self.in_features = self.steps[0].in_features
        self.out_features = self.steps[-1].out_features

    # ------------------------------------------------------------------
    def _plan_layer(self, weights, bias, activation, kernel, force_path):
        backend, tables = self.backend, self._tables
        mode = self.rounding_mode
        if isinstance(backend, FixedBackend):
            if force_path not in (None, "int64"):
                raise ValueError(
                    f"fixed point supports only the int64 path, "
                    f"not {force_path!r}"
                )
            step = _FixedStep(backend, weights, bias, activation, mode)
            return step, {"path": "int64", "eligible": ("int64",)}
        if tables is None:
            raise TypeError(
                f"{backend.name} has no limb decode tables: a format family "
                f"that is not fixed point needs limb_tables() to compile"
            )

        wp = check_patterns(tables, weights, "weights")
        bp = None if bias is None else check_patterns(tables, bias, "bias")
        eligible = self._eligible_paths(wp, bp)
        planes = len(live_planes(backend))
        if force_path is None:
            chosen = choose_path(eligible, wp.size, planes)
        elif force_path in eligible:
            chosen = force_path
        else:
            raise ValueError(
                f"layer shape {wp.shape} is not eligible for the "
                f"{force_path!r} path (eligible: {eligible})"
            )
        if chosen == "layer":
            # A single-word layer's own compiled kernel is a one-layer plan;
            # the forced layer path still runs the exact limb kernel.
            if not isinstance(kernel, TableLayerKernel):
                kernel = TableLayerKernel(
                    backend, weights, bias, rounding_mode=mode
                )
            step = _LayerStep(backend, kernel, activation)
        else:
            step = _TableStep(backend, tables, wp, bp, activation, mode, chosen)
        return step, {
            "path": chosen, "eligible": eligible, "live_planes": planes,
        }

    def _eligible_paths(self, wp, bp) -> tuple[str, ...]:
        tables = self._tables
        if quire_bound_bits(tables, wp, bp) > 62:
            return ("layer",)
        eligible = []
        w_vals = np.ldexp(
            tables.signed_sig[wp].astype(np.float64), tables.shift[wp]
        )
        w_max = np.abs(w_vals).max() if wp.size else 0.0
        w_bits = int(np.frexp(w_max)[1]) if w_max else 0
        if w_bits + LIMB_BITS + max(1, wp.shape[1]).bit_length() <= 53:
            eligible.append("plane")
        if aligned_value_table(self.backend) is not None:
            eligible.append("int64")
        return (*eligible, "layer")

    # ------------------------------------------------------------------
    def _prepare(self, patterns) -> np.ndarray:
        p = np.asarray(patterns)
        if p.ndim != 2:
            raise ValueError(
                f"patterns must be 2-D (batch, in); got shape {p.shape}"
            )
        if p.shape[1] != self.in_features:
            raise ValueError(
                f"fan-in mismatch: network expects {self.in_features}, "
                f"inputs have {p.shape[1]}"
            )
        if self._tables is not None:
            return check_patterns(self._tables, p, "activations")
        # Fixed point: every in-range pattern is a valid scaled integer.
        p = np.asarray(p, dtype=np.int64)
        if p.size and (p.min() < 0 or p.max() >= 1 << self.backend.width):
            raise ValueError("activations pattern out of range")
        return p

    def _first_ops(self, p: np.ndarray) -> np.ndarray:
        wants = self.steps[0].wants
        if wants == "aval":
            return aligned_value_table(self.backend)[p]
        if wants == "signed":
            from ..fixedpoint import codec as fx

            return fx.signed_array(self.backend.fmt, p.astype(np.uint32))
        return p  # "pattern"

    def _chunk_rows(self) -> int:
        cap = _kernels._CHUNK_ELEMENTS
        widest = max(s.in_features + 2 * s.out_features for s in self.steps)
        return max(1, cap // widest)

    def _run(self, patterns, readout: bool):
        p = self._prepare(patterns)
        batch = p.shape[0]
        if readout:
            out = np.empty(batch, dtype=np.int64)
        else:
            out = np.empty((batch, self.out_features), dtype=np.uint32)
        chunk = self._chunk_rows()
        scratch = _scratch()
        last = len(self.steps) - 1
        for start in range(0, batch, chunk):
            stop = min(batch, start + chunk)
            x = self._first_ops(p[start:stop])
            for i, step in enumerate(self.steps):
                x = step.run(
                    x, scratch, f"nk{i}-", readout=readout and i == last
                )
            if readout:
                out[start:stop] = np.argmax(x, axis=1)
            else:
                out[start:stop] = x
        return out

    def forward(self, patterns) -> np.ndarray:
        """Exact fused forward: ``(batch, in)`` -> ``(batch, out)`` patterns."""
        return self._run(patterns, readout=False)

    __call__ = forward  # the LayerKernel contract: activations -> patterns

    def predict(self, patterns) -> np.ndarray:
        """Fused rank-argmax class labels for ``(batch, in)`` patterns."""
        return self._run(patterns, readout=True)

    # ------------------------------------------------------------------
    def explain(self) -> list[dict]:
        """Per-layer compile decisions: path, eligibility, rule inputs, bytes.

        ``macs`` (multiply-adds per row) and ``live_planes`` are the inputs
        of :func:`choose_path`; ``live_planes`` is ``None`` for fixed
        point.
        """
        report = []
        for i, (step, decision) in enumerate(zip(self.steps, self._decisions)):
            report.append(
                {
                    "layer": i,
                    "in_features": step.in_features,
                    "out_features": step.out_features,
                    "activation": step.activation,
                    "wants": step.wants,
                    "path": decision["path"],
                    "eligible": list(decision["eligible"]),
                    "macs": step.in_features * step.out_features,
                    "live_planes": decision.get("live_planes"),
                    "table_bytes": step.table_bytes(),
                }
            )
        return report

