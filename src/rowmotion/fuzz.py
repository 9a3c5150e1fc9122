"""Seeded fuzzing of the rowmotion periodicity conjecture.

Each trial draws a matrix labeling of [a]x[b] over F_p, runs antichain
rowmotion a+b times through the kernel's engine, and checks exact return to
the start.  The engine steps with ``dynamics.rowmotion_pass``, the
transfer-mode step of every realm, which raises ``SingularValue`` on exactly
the draws where toggle-mode rowmotion would, so resample counts are those of
toggle mode; a counterexample is replayed through generic toggle mode (see
``_reverify`` for what that replay shares with the engine).  Grinberg and
Roby claim a proof that the order is a+b for general (a, b) once labels stop
commuting (arXiv 2208.10655, stated for order rowmotion, which is conjugate
to antichain rowmotion through the down-transfer); that proof has not been
checked here, so the grid gathers evidence, nothing more, and a confirmed
counterexample points first to a bug in this code.

Reports are deterministic functions of the master seed: every trial draws
from a sub-seed derived by hashing (seed, cell, trial index), so scheduling
cannot change the output.
"""

from __future__ import annotations

import random

from . import kernel
from .errors import SingularValue
from .labeling import Labeling
from .poset import product_of_chains
from .realms import FUZZ_PRIME, FpMatrixRealm
from .sampling import RESAMPLE_LIMIT, derive_seed, draw_fp_labels

CONJECTURE_NOTES = [
    "Periodicity claim under test: toggle-mode antichain rowmotion over a "
    "noncommutative coefficient ring returns a labeling of [a]x[b] to its "
    "start after a+b steps.",
    "For general (a, b) with matrix dimension d >= 2 this was posed as an "
    "open conjecture. Grinberg and Roby claim a proof (arXiv 2208.10655, for "
    "order rowmotion, which is conjugate to antichain rowmotion); that proof "
    "has NOT BEEN CHECKED here, and these trials are sampled evidence, not a "
    "proof.",
    "Only the 2x2 rectangle is anchored by a fully worked exact orbit "
    "(order 4); a confirmed counterexample in any cell points first to a bug "
    "in this code.",
]


def fuzz_nar_periodicity(a, b, d, trials, seed, p=FUZZ_PRIME):
    """Run one (a, b, d, p) fuzz cell; returns its report dict.

    A trial passes when the first return time divides a+b (an earlier return
    is recorded, not failed).  Sampling retries on singular intermediates up
    to the retry bound, then the trial counts as exhausted.  A counterexample
    is re-verified once, from a freshly derived seed, through the generic
    realm code path before being reported.
    """
    poset = product_of_chains(a, b)
    engine = kernel.make_engine(poset, d, p)
    steps = a + b
    passes = failures = exhausted = early_returns = singular_resamples = 0
    counterexamples = []
    for t in range(trials):
        trial_seed = derive_seed(seed, "nar-trial", a, b, d, t)
        outcome = None
        for attempt in range(RESAMPLE_LIMIT):
            attempt_seed = derive_seed(trial_seed, attempt)
            labels, c = draw_fp_labels(random.Random(attempt_seed), poset.n, d, p)
            try:
                m = engine.first_return(labels, c, steps)
            except SingularValue:
                singular_resamples += 1
                continue
            outcome = (m, attempt_seed, labels, c)
            break
        if outcome is None:
            exhausted += 1
            continue
        m, attempt_seed, labels, c = outcome
        if 0 < m < steps:
            early_returns += 1
        if m > 0 and steps % m == 0:
            passes += 1
        else:
            failures += 1
            counterexamples.append({
                "trial": t,
                "seed": attempt_seed,
                "first_return": m,
                "confirmed": _reverify(poset, d, p, attempt_seed, steps),
            })
    return {
        "a": a,
        "b": b,
        "d": d,
        "p": p,
        "trials": trials,
        "passes": passes,
        "failures": failures,
        "exhausted": exhausted,
        "early_returns": early_returns,
        "singular_resamples": singular_resamples,
        "counterexample_seeds": counterexamples,
    }


def fuzz_grid(a_max=3, b_max=3, d_max=3, trials=100, seed=0, p=FUZZ_PRIME):
    """Fuzz every cell of the (a, b, d) grid; canonical cell order."""
    cells = []
    for a in range(1, a_max + 1):
        for b in range(1, b_max + 1):
            for d in range(1, d_max + 1):
                cells.append(fuzz_nar_periodicity(a, b, d, trials, seed, p=p))
    bad = sum(c["failures"] for c in cells)
    return {
        "command": "fuzz-nar",
        "seed": seed,
        "grid": {"a_max": a_max, "b_max": b_max, "d_max": d_max,
                 "trials_per_cell": trials, "p": p},
        "kernel_backend": kernel.backend_name(),
        "cells": cells,
        "counterexample_count": bad,
        "all_pass": bad == 0 and all(c["exhausted"] == 0 for c in cells),
        "notes": CONJECTURE_NOTES,
    }


def _reverify(poset, d, p, attempt_seed, steps):
    """Replay a counterexample through generic toggle mode.

    The labeling is re-derived from its recorded seed with a fresh generator
    rather than trusted from memory, then iterated by toggles instead of the
    engine's rowmotion pass.  The replay still shares the draw
    (``draw_fp_labels``) and the realm's closed-form products and adjugates
    (``realms.fp_ops``) with the engine.  It does not share the pass or its
    Montgomery batch: it inverts one value at a time (``inv_at``) inside the
    toggle formula C * inv(up) * inv(down) * g(v), and forms the down-values
    from the toggled labels, not from C * inv(D).  Returns True when the
    failure stands.
    """
    from .dynamics import antichain_rowmotion

    labels, c = draw_fp_labels(random.Random(attempt_seed), poset.n, d, p)
    g = Labeling(FpMatrixRealm(p, d, c=c), labels)
    cur = g
    try:
        for _ in range(steps):
            cur = antichain_rowmotion(poset, cur, mode="toggles")
    except SingularValue:
        return False
    return not cur.eq(g)
