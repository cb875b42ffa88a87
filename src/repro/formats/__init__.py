"""Unified number-system backends for the EMAC architecture.

One :class:`NumericFormat` backend per number system (posit, small float,
fixed point), each bundling decode tables, bit-exact batched quantization,
the fully vectorized quire round-off stage, compiled layer/network kernels
and the scalar EMAC factory — plus a name-based registry so formats are
addressed as ``posit8_1`` or ``posit<8,1>`` everywhere (CLI, sweeps,
quantizers) instead of via ``isinstance`` chains.

    >>> from repro import formats
    >>> backend = formats.get("posit8_1")
    >>> kernel = backend.compile_layer(weights, bias)
    >>> outputs = kernel(activations)

Registering a new family (see :class:`~repro.formats.registry.FormatFamily`)
plugs it into the compiled kernels, scalar EMACs, quantizers, accuracy sweeps,
and the CLI with no further code changes.
"""

from .base import LimbTables, NumericFormat
from .kernels import (
    LayerKernel,
    TableLayerKernel,
    check_patterns,
    clear_scratch,
    digit_planes,
    dot_reference,
    num_limbs,
    quire_bound_bits,
)
from .network import (
    NETWORK_PATHS,
    NetworkKernel,
    RoundTable,
    aligned_value_table,
    round_table,
)
from .quire import (
    LIMB_BITS,
    ROUNDING_MODES,
    NormalizedQuire,
    arithmetic_shift_round,
    bit_length_int64,
    check_rounding_mode,
    normalize_quire_limbs,
    round_kept_bits,
    words_as_quire,
)
from .registry import (
    FormatFamily,
    available,
    backend_for,
    families,
    get,
    register_family,
    unregister_family,
)
from .fixed_backend import FixedBackend
from .float_backend import FloatBackend
from .posit_backend import PositBackend

__all__ = [
    "NumericFormat",
    "LimbTables",
    "LayerKernel",
    "TableLayerKernel",
    "dot_reference",
    "digit_planes",
    "check_patterns",
    "quire_bound_bits",
    "num_limbs",
    "clear_scratch",
    "NetworkKernel",
    "RoundTable",
    "NETWORK_PATHS",
    "round_table",
    "aligned_value_table",
    "LIMB_BITS",
    "ROUNDING_MODES",
    "NormalizedQuire",
    "arithmetic_shift_round",
    "check_rounding_mode",
    "normalize_quire_limbs",
    "round_kept_bits",
    "words_as_quire",
    "bit_length_int64",
    "FormatFamily",
    "register_family",
    "unregister_family",
    "families",
    "get",
    "backend_for",
    "available",
    "PositBackend",
    "FloatBackend",
    "FixedBackend",
]
