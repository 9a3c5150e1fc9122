#!/usr/bin/env python3
"""Benchmark the rowmotion kernel against the generic realm code path.

Measures kernel steps/second on [3]x[3] with 2x2 matrices over the fuzzing
prime, the workload the throughput target is stated for, then a few other
shapes.  The generic realm code path (toggle mode) is timed alongside for
context.

Run:  python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import random
import time

from rowmotion import Labeling, antichain_rowmotion, kernel, product_of_chains
from rowmotion.realms import FUZZ_PRIME, FpMatrixRealm

TARGET_STEPS_PER_SEC = 10_000


def draw(rng, n, d, p):
    """n per-element d x d matrices, then a central constant."""
    labels = [tuple(rng.randrange(p) for _ in range(d * d)) for _ in range(n)]
    return labels, rng.randrange(1, p)


def time_kernel(module, poset, d, p, min_seconds=0.5):
    eng = kernel.make_engine(poset, d, p, module=module)
    rng = random.Random(1234)
    labels, c = draw(rng, poset.n, d, p)
    steps = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < min_seconds:
        labels = eng.step(labels, c)
        steps += 1
    return steps / (time.perf_counter() - t0)


def time_generic(poset, d, p, min_seconds=0.5):
    rng = random.Random(1234)
    labels, c = draw(rng, poset.n, d, p)
    g = Labeling(FpMatrixRealm(p, d, c=c), labels)
    steps = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < min_seconds:
        g = antichain_rowmotion(poset, g, mode="toggles")
        steps += 1
    return steps / (time.perf_counter() - t0)


def main():
    print(f"active kernel backend: {kernel.backend_name()}")
    shapes = [(3, 3, 2), (2, 2, 2), (3, 3, 1), (3, 3, 3), (4, 4, 2)]
    rates = {}
    for a, b, d in shapes:
        poset = product_of_chains(a, b)
        row = {}
        for name, module in sorted(kernel.available_backends().items()):
            row[name] = time_kernel(module, poset, d, FUZZ_PRIME)
        row["generic realm path"] = time_generic(poset, d, FUZZ_PRIME)
        rates[(a, b, d)] = row
        cells = "  ".join(f"{k}: {v:>12,.0f}/s" for k, v in row.items())
        print(f"[{a}]x[{b}] d={d}  {cells}")
    key = rates[(3, 3, 2)]
    fastest = max(key.values())
    status = "meets" if fastest >= TARGET_STEPS_PER_SEC else "MISSES"
    print(f"\n[3]x[3] d=2 target {TARGET_STEPS_PER_SEC:,}/s: best backend "
          f"{fastest:,.0f}/s ({status} target)")


if __name__ == "__main__":
    main()
