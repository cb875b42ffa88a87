"""Accuracy-sensitivity studies (paper Section VI).

The conclusion claims "accuracy-sensitivity studies for Deep Positron show
robustness at 7-bit and 8-bit widths".  Two studies quantify that:

* :func:`width_sensitivity` — accuracy of the best config of one family at
  every width, on one dataset (the robustness-vs-width curve);
* :func:`layer_sensitivity` — quantize a *single* layer at low precision
  while keeping the rest at a wide reference format, revealing which layers
  tolerate aggressive quantization (a standard mixed-precision analysis the
  paper's future-work direction implies).
"""

from __future__ import annotations

import numpy as np

from ..core.positron import PositronNetwork
from ..posit.format import standard_format
from .sweep import TrainedModel, sweep_width

__all__ = ["width_sensitivity", "layer_sensitivity", "mixed_precision_network"]


def width_sensitivity(
    dataset_name: str,
    family: str,
    widths: tuple[int, ...] = (5, 6, 7, 8),
) -> list[dict]:
    """Best accuracy of one format family per width on one dataset."""
    if family not in ("posit", "float", "fixed"):
        raise ValueError(f"unknown family '{family}'")
    rows = []
    for n in widths:
        sweep = sweep_width(dataset_name, n)
        best = sweep["best"][family]
        rows.append(
            {
                "n": n,
                "label": best["label"],
                "accuracy": best["accuracy"],
                "baseline": sweep["float32_accuracy"],
            }
        )
    return rows


def mixed_precision_network(
    tm: TrainedModel,
    layer_formats: list,
) -> float:
    """Accuracy with a *different* format per layer.

    ``layer_formats[i]`` is the numerical format of layer ``i``'s weights,
    bias, and output activations.  Inputs are quantized to layer 0's
    format.  Because EMAC inputs and outputs are just patterns of their
    layer's format, mixing formats across layers only requires re-decoding
    at the boundaries — which we do exactly through float64 (all values at
    these widths are float64-exact).
    """
    weights, biases = tm.model.export_params()
    if len(layer_formats) != len(weights):
        raise ValueError("need one format per layer")
    ds = tm.dataset
    values = np.asarray(ds.test_x, dtype=np.float64)
    for i, fmt in enumerate(layer_formats):
        net = PositronNetwork.from_float_params(fmt, [weights[i]], [biases[i]])
        backend = net.backend
        # A single-layer network applies the identity readout; apply ReLU
        # manually for hidden layers.
        out = net.layers[0].forward(backend.quantize_batch(values))
        if i < len(layer_formats) - 1:
            out = backend.relu_batch(out)
        values = backend.decode_batch(out)
    return float(np.mean(np.argmax(values, axis=1) == ds.test_y))


def layer_sensitivity(
    tm: TrainedModel,
    probe_format=None,
    reference_format=None,
) -> list[dict]:
    """Quantize one layer at a time to a narrow format.

    Every other layer stays at ``reference_format`` (default posit<16,1>,
    effectively lossless here).  The drop relative to the all-reference
    configuration isolates each layer's sensitivity.
    """
    probe = probe_format if probe_format is not None else standard_format(6, 0)
    reference = (
        reference_format if reference_format is not None else standard_format(16, 1)
    )
    num_layers = len(tm.model.dense_layers)
    all_reference = mixed_precision_network(tm, [reference] * num_layers)
    rows = []
    for i in range(num_layers):
        formats = [reference] * num_layers
        formats[i] = probe
        acc = mixed_precision_network(tm, formats)
        rows.append(
            {
                "layer": i,
                "probe": str(probe),
                "accuracy": acc,
                "reference_accuracy": all_reference,
                "drop_pct": 100.0 * (all_reference - acc),
            }
        )
    return rows
