"""Lookup tables for vectorized posit processing.

For the bit widths the paper studies (n <= 8) a posit format has at most 256
patterns, so decode and many unary operations become table lookups.  The
posit backend's compiled kernels (:mod:`repro.formats.kernels`) index these
numpy arrays with whole tensors of bit patterns at once.

Tables are cached per format; building one costs a single pass over all
``2**n`` patterns with the scalar decoder, which also makes the tables a
faithful mirror of the reference implementation by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decode import decode
from .format import PositFormat

__all__ = ["PositTables", "tables_for", "MAX_TABLE_BITS"]

#: Largest n for which full decode tables are built (2**16 entries).
MAX_TABLE_BITS = 16


@dataclass(frozen=True)
class PositTables:
    """Per-format decode/operation tables, indexed by bit pattern.

    Attributes
    ----------
    fmt:
        The posit format.
    sign:
        int8; 1 where the pattern encodes a negative value.
    scale:
        int32; ``k * 2**es + e``.  Zero for the reserved patterns (mask with
        ``is_zero``/``is_nar`` before use).
    significand:
        int64; significand left-aligned to ``1 + max_fraction_bits`` bits
        (hidden bit included), i.e. exactly the EMAC multiplier input.
    is_zero / is_nar:
        bool masks for the reserved patterns.
    float_value:
        float64 value of each pattern (NaR maps to NaN).  Used for argmax
        readout and diagnostics, not for exact arithmetic.
    negate:
        uint32; pattern -> pattern of the negated value (two's complement).
    relu:
        uint32; pattern -> pattern after a ReLU (negatives and NaR to zero).
    """

    fmt: PositFormat
    sign: np.ndarray
    scale: np.ndarray
    significand: np.ndarray
    is_zero: np.ndarray
    is_nar: np.ndarray
    float_value: np.ndarray
    negate: np.ndarray
    relu: np.ndarray

    @property
    def frac_shift(self) -> int:
        """Fraction bits of :attr:`significand`: ``max_fraction_bits``."""
        return self.fmt.max_fraction_bits


def _build(fmt: PositFormat) -> PositTables:
    count = fmt.num_patterns
    sign = np.zeros(count, dtype=np.int8)
    scale = np.zeros(count, dtype=np.int32)
    significand = np.zeros(count, dtype=np.int64)
    is_zero = np.zeros(count, dtype=bool)
    is_nar = np.zeros(count, dtype=bool)
    float_value = np.empty(count, dtype=np.float64)
    negate = np.zeros(count, dtype=np.uint32)
    relu = np.zeros(count, dtype=np.uint32)

    for bits in fmt.all_patterns():
        d = decode(fmt, bits)
        if d.is_zero:
            float_value[bits] = 0.0
            negate[bits] = bits
            relu[bits] = bits
            is_zero[bits] = True
            continue
        if d.is_nar:
            float_value[bits] = np.nan
            negate[bits] = bits
            relu[bits] = fmt.zero_pattern
            is_nar[bits] = True
            continue
        sign[bits] = d.sign
        scale[bits] = d.scale
        significand[bits] = d.significand_fixed
        float_value[bits] = float(d.to_fraction())
        negate[bits] = ((1 << fmt.n) - bits) & fmt.mask
        relu[bits] = fmt.zero_pattern if d.sign else bits
    return PositTables(
        fmt=fmt,
        sign=sign,
        scale=scale,
        significand=significand,
        is_zero=is_zero,
        is_nar=is_nar,
        float_value=float_value,
        negate=negate,
        relu=relu,
    )


@lru_cache(maxsize=32)
def tables_for(fmt: PositFormat) -> PositTables:
    """Build (or fetch cached) lookup tables for ``fmt``.

    Raises
    ------
    ValueError
        If ``fmt.n`` exceeds :data:`MAX_TABLE_BITS`; wider formats must use
        the scalar path.
    """
    if fmt.n > MAX_TABLE_BITS:
        raise ValueError(
            f"decode tables limited to n <= {MAX_TABLE_BITS}; {fmt} is too wide"
        )
    return _build(fmt)


@lru_cache(maxsize=32)
def _boundary_table(fmt: PositFormat):
    """Patterns in value order plus their pattern-space rounding boundaries.

    The boundary separating "round to pattern p" from "round to p+1" under
    the paper's Algorithm-2 guard/sticky rounding is exactly the value of
    the (n+1)-bit, same-es posit whose (signed) pattern is ``2p + 1`` — the
    classic posit interleaving property.  Representing boundaries this way
    makes the vectorized quantizer bit-identical to the scalar encoder even
    across regime-taper boundaries, where value-space "nearest" differs.
    """
    from .format import standard_format

    wide = standard_format(fmt.n + 1, fmt.es)
    signed = np.arange(-(1 << (fmt.n - 1)) + 1, 1 << (fmt.n - 1), dtype=np.int64)
    patterns = (signed % (1 << fmt.n)).astype(np.uint32)
    mids = (2 * signed[:-1] + 1) % (1 << wide.n)
    boundaries = np.array(
        [float(decode(wide, int(m)).to_fraction()) for m in mids]
    )
    # A tie exactly on boundaries[i] resolves to whichever of patterns
    # i / i+1 has the even *magnitude* encoding (Algorithm 2: round = guard
    # & (lsb | sticky) with sticky == 0 keeps an even-lsb pattern).
    boundary_to_lower = (np.abs(signed[:-1]) % 2) == 0
    return patterns, boundaries, boundary_to_lower


def quantize_array(fmt: PositFormat, values: np.ndarray) -> np.ndarray:
    """Round a float array to posit patterns (uint32), vectorized.

    Bit-identical to the scalar RNE encoder (Algorithm 2's pattern-space
    rounding, via :func:`_boundary_table`).  Non-finite inputs raise;
    sanitize upstream.  This is the reference quantizer used to convert
    trained float32 parameters into Deep Positron weight memories.
    """
    arr = np.asarray(values, dtype=np.float64)
    flat = arr.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("cannot quantize non-finite values to posit")
    patterns, boundaries, to_lower = _boundary_table(fmt)
    idx = np.searchsorted(boundaries, flat, side="left")
    hit = np.minimum(idx, len(boundaries) - 1)
    tie = boundaries[hit] == flat
    out_idx = idx + np.where(tie & ~to_lower[hit], 1, 0)
    out_idx = np.clip(out_idx, 0, len(patterns) - 1)
    result = patterns[out_idx]
    # Saturation and the never-round-to-zero rule.
    maxpos = float(fmt.maxpos)
    minpos = float(fmt.minpos)
    neg_max = ((1 << fmt.n) - fmt.maxpos_pattern) & fmt.mask
    neg_min = ((1 << fmt.n) - fmt.minpos_pattern) & fmt.mask
    result = np.where(flat >= maxpos, np.uint32(fmt.maxpos_pattern), result)
    result = np.where(flat <= -maxpos, np.uint32(neg_max), result)
    result = np.where((flat > 0) & (flat < minpos), np.uint32(fmt.minpos_pattern), result)
    result = np.where((flat < 0) & (flat > -minpos), np.uint32(neg_min), result)
    result = np.where(flat == 0.0, np.uint32(fmt.zero_pattern), result)
    return result.astype(np.uint32).reshape(arr.shape)


def dequantize_array(fmt: PositFormat, patterns: np.ndarray) -> np.ndarray:
    """Map posit patterns back to float64 values via the tables."""
    t = tables_for(fmt)
    return t.float_value[np.asarray(patterns, dtype=np.int64)]


def nearest_pattern_table(fmt: PositFormat) -> np.ndarray:
    """Sorted (value, pattern) pairs for all real patterns of ``fmt``.

    Returns a ``(2**n - 1, 2)`` float64/uint32 structured view used by the
    fast midpoint-bisection quantizer in :mod:`repro.nn.quantize`.
    """
    t = tables_for(fmt)
    real = ~t.is_nar
    patterns = np.nonzero(real)[0].astype(np.uint32)
    values = t.float_value[real]
    order = np.argsort(values, kind="stable")
    return values[order], patterns[order]
