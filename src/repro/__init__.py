"""repro — a reproduction of "Deep Positron: A Deep Neural Network Using the
Posit Number System" (Carmichael et al., DATE 2019).

Subpackages
-----------
``repro.posit``
    Parametric posit arithmetic: decode/encode, scalar values, quire, tables.
``repro.floatp``
    Parametric IEEE-style small floats with subnormals.
``repro.fixedpoint``
    Q-format fixed point.
``repro.core``
    The paper's contribution: exact MAC (EMAC) soft cores for all three
    formats and the Deep Positron DNN inference architecture, bit-identical
    to the format backends' compiled kernels.
``repro.nn``
    From-scratch numpy MLP training substrate and format quantizers.
``repro.datasets``
    The three evaluation datasets (seeded generators; see DESIGN.md for the
    documented substitutions).
``repro.hw``
    Virtex-7-class structural synthesis model: LUTs, Fmax, power, EDP.
``repro.formats``
    The unified number-system backend registry: one ``NumericFormat`` per
    system (decode tables, batched quantize/round-off, compiled kernels,
    the scalar EMAC factory), addressed by name (``formats.get("posit8_1")``).
``repro.analysis``
    Experiment drivers reproducing every table and figure.
"""

import os

# The kernels are small exact-integer float64 GEMMs, and multithreaded
# OpenBLAS on a 2-vCPU host sometimes runs them ~10x slow for a whole
# process.  Pin BLAS and OpenMP to one thread before numpy's first
# import; an explicit user setting wins, and spawned pool and runner
# workers inherit the environment.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from . import formats  # noqa: E402  (after the BLAS pin)
from .core import (
    FixedEmac,
    FloatEmac,
    PositEmac,
    PositronNetwork,
)
from .fixedpoint import Fixed, FixedFormat, fixed_format
from .floatp import FloatFormat, FloatP, float_format
from .posit import Posit, PositFormat, Quire, standard_format

__version__ = "1.0.0"

__all__ = [
    "formats",
    "Posit",
    "PositFormat",
    "Quire",
    "standard_format",
    "FloatP",
    "FloatFormat",
    "float_format",
    "Fixed",
    "FixedFormat",
    "fixed_format",
    "FixedEmac",
    "FloatEmac",
    "PositEmac",
    "PositronNetwork",
    "__version__",
]
