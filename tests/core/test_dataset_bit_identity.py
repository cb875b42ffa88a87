"""Compiled outputs must match the scalar EMAC path on the paper's datasets.

Networks use randomly quantized parameters (no training needed); inputs are
the real iris/WBC test sets.  The whole batch goes through the compiled
kernels, a sample of rows through the scalar reference EMACs.
"""

import numpy as np
import pytest

from repro.core import PositronNetwork
from repro.datasets import load_iris, load_wbc
from repro.fixedpoint import fixed_format
from repro.floatp import float_format
from repro.posit.format import standard_format

DATASETS = {"iris": (load_iris, (4, 10, 6, 3)), "wbc": (load_wbc, (30, 16, 8, 2))}
FORMATS = [standard_format(8, 1), float_format(4, 3), fixed_format(8, 4)]


@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
@pytest.mark.parametrize("fmt", FORMATS, ids=str)
def test_forward_bit_identical_to_scalar(dataset_name, fmt):
    loader, topology = DATASETS[dataset_name]
    dataset = loader()
    rng = np.random.default_rng(99)
    weights = [
        rng.normal(size=(o, i)) * 0.5 for i, o in zip(topology[:-1], topology[1:])
    ]
    biases = [rng.normal(size=o) * 0.1 for o in topology[1:]]
    net = PositronNetwork.from_float_params(fmt, weights, biases)

    patterns = net.backend.quantize_batch(
        np.asarray(dataset.test_x, dtype=np.float64)
    )
    vec = net.forward_patterns(patterns)
    assert vec.shape == (len(dataset.test_x), topology[-1])

    probe = rng.choice(len(dataset.test_x), size=8, replace=False)
    for i in probe:
        scalar = net.forward_scalar([int(p) for p in patterns[i]])
        assert [int(b) for b in vec[i]] == scalar, (dataset_name, str(fmt), i)
