#!/usr/bin/env python3
"""Build a Deep Positron network by hand and probe its exactness guarantees.

Shows the raw-pattern API (what the hardware actually stores), the
bit-identical scalar/vector paths, and the EMAC's order-invariance — a
property rounded floating-point MACs do not have.

Run:  python examples/custom_network.py
"""

import numpy as np

from repro.analysis import naive_accuracy
from repro.core import PositronNetwork
from repro.posit import Posit, standard_format


def main() -> None:
    fmt = standard_format(8, 1)
    rng = np.random.default_rng(5)

    # A 6 -> 8 -> 4 -> 2 classifier from raw float parameters.
    weights = [
        rng.normal(scale=0.7, size=(8, 6)),
        rng.normal(scale=0.5, size=(4, 8)),
        rng.normal(scale=0.5, size=(2, 4)),
    ]
    biases = [rng.normal(scale=0.1, size=8), rng.normal(scale=0.1, size=4),
              np.zeros(2)]
    net = PositronNetwork.from_float_params(fmt, weights, biases)
    print(f"network: {net!r}")
    print(f"layer 0 weight memory holds patterns, e.g. "
          f"{[hex(int(b)) for b in net.layers[0].weights[0][:4]]}")

    # 1. Scalar EMACs and the compiled kernels produce identical bits.
    backend = net.backend  # the format object: quantize, kernels, tables
    x = rng.normal(size=(1, 6))
    patterns = backend.quantize_batch(x)
    vec = net.forward_patterns(patterns)[0]
    scalar = net.forward_scalar([int(p) for p in patterns[0]])
    print(f"\nvector path bits : {[hex(int(b)) for b in vec]}")
    print(f"scalar path bits : {[hex(b) for b in scalar]}")
    assert [int(b) for b in vec] == scalar

    # 2. Exact accumulation is order-invariant; rounded MACs are not.
    # Classic cancellation probe: +big, -big, +tiny.  Rounded MACs lose the
    # tiny term whenever it is absorbed into `big` before the cancellation;
    # the EMAC's quire keeps every bit until the single final rounding.
    big = Posit.from_value(fmt, 48.0)
    tiny = Posit.from_value(fmt, 0.01)
    one = Posit.from_value(fmt, 1.0)
    terms = [(big, one), (tiny, one), (-big, one)]  # (weight, activation)

    def rounded_chain(order):
        acc = Posit.zero(fmt)
        for i in order:
            w, a = terms[i]
            acc = acc + w * a  # rounds every step
        return acc.bits

    def exact_chain(order):
        ws_ = np.array([[terms[i][0].bits for i in order]], dtype=np.uint32)
        xs_ = np.array([[terms[i][1].bits for i in order]], dtype=np.uint32)
        return int(backend.compile_layer(ws_)(xs_)[0, 0])

    orders = [(0, 1, 2), (0, 2, 1), (1, 0, 2)]
    exact_results = {exact_chain(o) for o in orders}
    rounded_results = {rounded_chain(o) for o in orders}
    print(f"\n48 - 48 + 0.01 in three MAC orders:")
    print(f"  exact EMAC   : {len(exact_results)} distinct result(s) -> "
          f"{[float(Posit.from_bits(fmt, b)) for b in sorted(exact_results)]}")
    print(f"  rounded MACs : {len(rounded_results)} distinct result(s) -> "
          f"{[float(Posit.from_bits(fmt, b)) for b in sorted(rounded_results)]}")
    assert len(exact_results) == 1
    assert len(rounded_results) > 1

    # 3. End-to-end effect of exactness on a random classification task.
    test_x = rng.normal(size=(300, 6))
    labels = net.predict(test_x)  # define truth as the exact network
    naive = naive_accuracy(net, test_x, labels)
    print(f"\nagreement of round-every-MAC inference with the exact EMAC "
          f"network: {100 * naive:.1f}% of 300 samples")


if __name__ == "__main__":
    main()
