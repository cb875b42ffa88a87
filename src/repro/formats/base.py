"""The ``NumericFormat`` backend protocol.

Every number system the EMAC architecture supports is wrapped in one
:class:`NumericFormat` backend that bundles, behind a uniform interface,
everything the rest of the library needs:

* **metadata** — family string, canonical registry name, label, width;
* **decode tables** (:class:`LimbTables`) feeding the limb-accumulating
  kernels — required of every family except fixed point, whose exact
  int64 matmul path needs none;
* **batched kernels** — ``quantize_batch`` / ``decode_batch`` /
  ``relu_batch``, the fully vectorized ``encode_from_quire_batch``
  round-once output stage, and ``compile_layer`` / ``compile_network``;
* **a factory** for the scalar reference EMAC (imported lazily so
  ``repro.formats`` never depends on ``repro.core`` at import time);
* **scalar reference hooks** (``encode_from_quire_scalar``,
  ``truncate_scalar``) used by property tests, microbenchmark baselines,
  and the rounding-mode ablations.

Adding a number system to the library means implementing this class and
registering it once (:func:`repro.formats.register_family`); no call site
dispatches on concrete format types anymore.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = ["LimbTables", "NumericFormat"]


@dataclass(frozen=True)
class LimbTables:
    """Per-pattern decode tables consumed by the limb kernels.

    Indexed by bit pattern.  ``signed_sig`` is the signed aligned
    significand (the EMAC multiplier input with its sign applied) and
    ``shift`` the non-negative alignment ``scale - min_scale``; a product
    term contributes ``signed_sig_w * signed_sig_a`` at quire bit position
    ``shift_w + shift_a``.
    """

    signed_sig: np.ndarray  # int64
    shift: np.ndarray  # int64, >= 0
    invalid: np.ndarray  # bool: patterns the datapath must never see
    relu: np.ndarray  # int64 pattern map
    float_value: np.ndarray  # float64
    max_shift: int  # largest shift_w + shift_a
    sig_bits: int  # aligned significand width
    bias_extra_shift: int  # aligns a single input (not product) to the quire


class NumericFormat(ABC):
    """Uniform backend over one concrete number-system format descriptor."""

    #: Family identifier, e.g. ``"posit"`` — shared by all widths/configs.
    family: str

    def __init__(self, fmt: object):
        self.fmt = fmt

    # -- metadata -------------------------------------------------------
    @property
    @abstractmethod
    def name(self) -> str:
        """Canonical registry name, e.g. ``posit8_1``."""

    @property
    def label(self) -> str:
        """Human-readable identifier, e.g. ``posit<8,1>``."""
        return str(self.fmt)

    @property
    def width(self) -> int:
        """Total pattern width in bits."""
        return self.fmt.n

    @property
    @abstractmethod
    def quire_lsb_exponent(self) -> int:
        """Power-of-two weight of the exact accumulator's LSB."""

    # -- memoization ----------------------------------------------------
    def _memo(self, key: str, build):
        """Instance-level memo: backends are registry-cached per format
        key, so anything stored here is shared by every consumer."""
        value = self.__dict__.get(key)
        if value is None:
            value = self.__dict__[key] = build()
        return value

    # -- vectorized kernels ---------------------------------------------
    def limb_tables(self) -> LimbTables | None:
        """Decode tables for the limb kernels; ``None`` for fixed point.

        Every other family must supply them: ``compile_layer`` refuses a
        table-less family that is not fixed point with ``TypeError``.
        """
        return None

    def compile_layer(self, weights, bias=None, *, rounding_mode="rne"):
        """Compile ``(weights, bias)`` into a reusable layer kernel.

        A layer with a single-word path (its quire bound fits one int64
        word), and every fixed-point layer, compiles to a one-layer
        :class:`~repro.formats.network.NetworkKernel` with an identity
        activation; a wider table-format layer gets the exact limb
        :class:`~repro.formats.kernels.TableLayerKernel`.
        ``rounding_mode`` selects the round-once output stage: ``"rne"``
        (default) or ``"rtz"`` (round toward zero, the truncated-EMAC
        ablation).
        """
        from .network import NetworkKernel

        plan = NetworkKernel(
            self, [(weights, bias, "identity")], rounding_mode=rounding_mode
        )
        (step,) = plan.steps
        return step.kernel if step.path == "layer" else plan

    def compile_network(
        self,
        layers,
        *,
        rounding_mode="rne",
        layer_kernels=None,
        force_path=None,
    ):
        """Compile a whole layer stack into one fused network plan.

        ``layers`` is a sequence of ``(weights, bias, activation)`` triples;
        the resulting :class:`~repro.formats.network.NetworkKernel` chains
        every layer through fused round-once / pattern-ReLU / operand-gather
        epilogues and picks an integer fast path per layer shape (see
        :mod:`repro.formats.network`).  Pass the already compiled per-layer
        kernels via ``layer_kernels`` to let fallback layers reuse them.
        """
        from .network import NetworkKernel

        return NetworkKernel(
            self,
            layers,
            rounding_mode=rounding_mode,
            layer_kernels=layer_kernels,
            force_path=force_path,
        )

    def rank_table(self) -> np.ndarray:
        """Monotone int64 rank per pattern: ``rank[p] < rank[q]`` iff
        ``value[p] < value[q]`` and equal values share a rank.

        Lets readout argmax run in pattern space (no float64 decode of the
        readout rows) with results identical to argmaxing decoded values —
        equal ranks for equal values keep tie-breaking (first index wins)
        the same.  Invalid patterns rank lowest; the datapath never emits
        them.
        """

        def build():
            values = self.decode_batch(
                np.arange(1 << self.width, dtype=np.uint32)
            )
            vals = np.where(np.isfinite(values), values, -np.inf)
            return np.searchsorted(np.unique(vals), vals).astype(np.int64)

        return self._memo("_rank_table", build)

    @abstractmethod
    def quantize_batch(self, values: np.ndarray) -> np.ndarray:
        """float64 array -> nearest patterns (uint32), bit-exact RNE."""

    @abstractmethod
    def decode_batch(self, patterns: np.ndarray) -> np.ndarray:
        """Patterns -> float64 values."""

    @abstractmethod
    def relu_batch(self, patterns: np.ndarray) -> np.ndarray:
        """Elementwise ReLU on patterns (negatives -> zero pattern)."""

    @abstractmethod
    def encode_from_quire_batch(
        self, limbs: np.ndarray, *, mode: str = "rne"
    ) -> np.ndarray:
        """Round a ``(..., L)`` tensor of exact quire limbs to patterns.

        Limbs are unnormalized int64 digits of weight ``2**(i * LIMB_BITS)``
        over a quire whose LSB weighs ``2**quire_lsb_exponent``.  Returns a
        ``(...)`` uint32 pattern array, bit-identical to rounding each quire
        once with the scalar reference of the requested ``mode``: the
        scalar encoder for ``"rne"``, ``truncate_scalar`` for ``"rtz"``.
        """

    def encode_from_quire_words(
        self, words: np.ndarray, *, mode: str = "rne"
    ) -> np.ndarray:
        """Round exact *single-word* quires (int64 ``words`` of quire LSBs).

        The compiled plans prove, per weight matrix, when every possible
        quire fits one int64 (see :mod:`repro.formats.network`); this entry
        point then skips limb normalization entirely.  The
        default routes through :meth:`encode_from_quire_batch`; table
        backends override it with a direct sign/magnitude encode.
        """
        words = np.asarray(words, dtype=np.int64)
        # Four limbs: |word| < 2**62 leaves the top limb as pure sign
        # extension, as normalization requires.
        limbs = np.zeros(words.shape + (4,), dtype=np.int64)
        limbs[..., 0] = words
        return self.encode_from_quire_batch(limbs, mode=mode)

    # -- scalar reference hooks -----------------------------------------
    @abstractmethod
    def encode_from_quire_scalar(self, quire: int) -> int:
        """Round one exact quire integer to a pattern (reference path)."""

    @abstractmethod
    def truncate_scalar(self, value: Fraction) -> int:
        """Round ``value`` toward zero to a pattern (ablation reference)."""

    # -- factory (lazy core import; formats must not import core) -------
    @abstractmethod
    def make_scalar_emac(self):
        """Reference scalar EMAC for this format."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.label})"
