#!/usr/bin/env python3
"""Per-layer forward/backward medians of one network's SGD steps.

    python3 benchmarks/layer_table.py --arch lenet5 --side 28 --pooling subs --steps 200

Runs per-pattern SGD steps (forward, backward, zero_grads, sgd_step) on
seeded random 8-bit images through the benchmark's tracer and prints a
markdown table: one row per layer position, median milliseconds per call,
then the step time and the part of it no layer or bookkeeping call covers.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import run  # noqa: F401  (pins BLAS threads and imports specnet from src/)

import numpy as np  # noqa: E402

from checks import net_input  # noqa: E402
from spans import Tracer  # noqa: E402
from specnet import arch, nn  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--arch", default="lenet5", choices=arch.ARCHITECTURES)
    parser.add_argument("--side", type=int, default=60)
    parser.add_argument("--pooling", default="subs", choices=arch.POOLINGS)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    net = arch.build_network(arch.RunConfig(arch=args.arch, input_side=args.side, pooling=args.pooling))
    net.initialize(args.seed)
    rng = np.random.default_rng(args.seed)
    images = rng.integers(0, 256, (16, args.side, args.side), dtype=np.uint8)
    tracer = Tracer()
    tracer.install()
    steps = []
    try:
        for k in range(args.steps):
            x, target = net_input(images[k % 16]), np.eye(3)[k % 3]
            started = time.perf_counter()
            y = net.forward(x)
            net.zero_grads()
            net.backward(nn.mse_loss_grad(y, target))
            nn.sgd_step(net, 0.01)
            steps.append(time.perf_counter() - started)
    finally:
        tracer.uninstall()

    # spans nest one level under each Network pass; layer k of a pass is
    # the k-th child of that pass
    durations: dict[tuple[int, str], list[float]] = {}
    children: dict[int, int] = {}
    for i, (name, parent) in enumerate(zip(tracer.names, tracer.parent)):
        if parent < 0:
            continue
        k = children.get(parent, 0)
        children[parent] = k + 1
        direction = "fwd" if tracer.names[parent] == "nn.Network.forward" else "bwd"
        position = k if direction == "fwd" else len(net.layers) - 1 - k
        durations.setdefault((position, direction), []).append((tracer.end[i] - tracer.start[i]) / 1e6)
    top = {}
    for name, parent, s, e in zip(tracer.names, tracer.parent, tracer.start, tracer.end):
        if parent < 0:
            top.setdefault(name, []).append((e - s) / 1e6)

    print(f"{args.arch} {args.side}x{args.side} {args.pooling}, {args.steps} SGD steps, median ms per call\n")
    print("| # | layer | output | fwd ms | bwd ms |")
    print("| --- | --- | --- | --- | --- |")
    total = 0.0
    for k, layer in enumerate(net.layers):
        fwd = statistics.median(durations[(k, "fwd")])
        bwd = statistics.median(durations[(k, "bwd")])
        total += fwd + bwd
        shape = "x".join(str(d) for d in net.shapes[k + 1])
        print(f"| {k} | {type(layer).__name__} | {shape} | {fwd:.3f} | {bwd:.3f} |")
    step = statistics.median(steps) * 1e3
    book = sum(statistics.median(top[n]) for n in ("nn.Network.zero_grads", "nn.sgd_step"))
    print(f"\nstep {step:.3f} ms; layers {total:.3f} ms; zero_grads + sgd_step {book:.3f} ms; "
          f"gap {step - total - book:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
