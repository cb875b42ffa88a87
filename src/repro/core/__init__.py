"""Deep Positron core: exact MAC units and the DNN inference architecture.

The paper's primary contribution: three precision-adaptable EMAC soft cores
(fixed, float, posit), the exact wide accumulators behind them, and the
Deep Positron network (per-neuron EMACs, local parameter memories,
streaming control FSM timing), whose layers run on the format backend's
bit-identical compiled kernels for dataset-scale runs.
"""

from .accumulator import ExactAccumulator, LIMB_BITS, combine_limbs, limbs_needed
from .emac_base import Emac
from .emac_fixed import FixedEmac
from .emac_float import FloatEmac
from .emac_posit import PositEmac
from .control import InferenceTiming, layer_cycles, network_timing
from .memory import BRAM_KBITS, LayerMemory
from .positron import PositronLayer, PositronNetwork, scalar_emac_for

__all__ = [
    "ExactAccumulator",
    "LIMB_BITS",
    "combine_limbs",
    "limbs_needed",
    "Emac",
    "FixedEmac",
    "FloatEmac",
    "PositEmac",
    "InferenceTiming",
    "layer_cycles",
    "network_timing",
    "LayerMemory",
    "BRAM_KBITS",
    "PositronLayer",
    "PositronNetwork",
    "scalar_emac_for",
]
