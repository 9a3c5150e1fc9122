"""Steps per second on [3]x[3] with 2x2 matrices over p = 2^61 - 1.

The rates come from the timing loops of ``benchmarks/bench_kernels.py``
(where the README's 10^4 steps/s target is stated), run on its key shape:
every kernel backend, and the generic realm path in both rowmotion modes,
which is the comparison the transfer-form kernel plan rests on.

Those loops draw their labels from a fixed seed and step the generic path in
toggles mode only.  Each rate here runs them in a private copy of the module
whose ``random`` and ``antichain_rowmotion`` names are replaced, so that the
draw comes from the benchmark seed and the generic path steps in the mode
asked for; the timed code itself is the script's.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path
from types import SimpleNamespace

BENCH_KERNELS = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"
A, B, D = 3, 3, 2


def bench_kernels(seed, mode="toggles"):
    """A fresh copy of ``bench_kernels`` drawing from ``seed``, stepping the
    generic path in ``mode``."""
    spec = importlib.util.spec_from_file_location("perfbench_bench_kernels", BENCH_KERNELS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rowmotion_step = module.antichain_rowmotion
    module.random = SimpleNamespace(Random=lambda _fixed_seed: random.Random(seed))
    module.antichain_rowmotion = lambda poset, g, **_fixed_mode: rowmotion_step(poset, g,
                                                                               mode=mode)
    return module


def step_rates(seed):
    """Per-layer rates: ``kernel.steps_per_s.<backend>`` for every available
    backend plus ``.live`` for the one the fuzzer uses, and
    ``dynamics.steps_per_s.<mode>`` for both rowmotion modes."""
    from rowmotion import kernel, product_of_chains
    from rowmotion.realms import FUZZ_PRIME

    poset = product_of_chains(A, B)
    timer = bench_kernels(seed)
    out = {}
    for name, module in sorted(kernel.available_backends().items()):
        out[f"kernel.steps_per_s.{name}"] = timer.time_kernel(module, poset, D, FUZZ_PRIME)
    out["kernel.steps_per_s.live"] = out[f"kernel.steps_per_s.{kernel.backend_name()}"]
    for mode in ("toggles", "transfer"):
        rate = bench_kernels(seed, mode).time_generic(poset, D, FUZZ_PRIME)
        out[f"dynamics.steps_per_s.{mode}"] = rate
    return out
