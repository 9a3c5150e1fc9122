"""Seeded fuzzing of the rowmotion periodicity conjecture.

Each trial draws a matrix labeling of [a]x[b] over F_p, runs antichain
rowmotion a+b times through the kernel's engine, and checks exact return to
the start.  A cell's pending trials step together, as one labeling over the
product of their matrix rings (``realms.fp_product_ops``), so each step is
one ``dynamics.rowmotion_pass`` and one modular inverse per batch of
inverses for all of them.  That pass, the transfer-mode step of every
realm, refuses a trial on exactly the draws where toggle-mode rowmotion
would, so resample counts are those of toggle mode; a counterexample is
replayed through generic toggle mode (see ``_reverify`` for what that
replay shares with the engine).  Grinberg and
Roby claim a proof that the order is a+b for general (a, b) once labels stop
commuting (arXiv 2208.10655, stated for order rowmotion, which is conjugate
to antichain rowmotion through the down-transfer); that proof has not been
checked here, so the grid gathers evidence, nothing more, and a confirmed
counterexample points first to a bug in this code.

Reports are deterministic functions of the master seed: every trial is
redrawn (``sampling.redraw``, a bare ``draw_fp_labels`` per attempt, no
realm) under a sub-seed derived by hashing (seed, cell, trial index), so
scheduling cannot change the output.  The redraw rule is that of one trial
at a time: a refused trial alone is redrawn, attempt k from its own
sub-seed and k, within its own ``RESAMPLE_LIMIT``, and the report is the
one the per-trial loop gives (``tests/fuzz_oracle.py``).
"""

from __future__ import annotations

import random
from functools import partial

from . import kernel
from .errors import SamplingExhausted, SingularValue
from .labeling import Labeling
from .poset import product_of_chains
from .realms import FUZZ_PRIME, FpMatrixRealm
from .sampling import RESAMPLE_LIMIT, derive_seed, draw_fp_labels, redraw

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
    is recorded, not failed).  The pending trials are walked as one batch
    (``engine.first_return``); a draw that meets a singular value is redrawn
    in the next batch, and after the retry bound the trial counts as
    exhausted.  A counterexample records the seed of its accepted attempt
    and is re-verified once from it, through the generic realm code path,
    before being reported.
    """
    poset = product_of_chains(a, b)
    engine = kernel.make_engine(poset, d, p)
    steps = a + b
    passes = failures = exhausted = early_returns = singular_resamples = 0
    counterexamples = []
    trial_seeds = [derive_seed(seed, "nar-trial", a, b, d, t) for t in range(trials)]
    outcomes = redraw(partial(draw_fp_labels, n=poset.n, d=d, p=p),
                      lambda drawn: engine.first_return(drawn, steps),
                      [(trial_seed,) for trial_seed in trial_seeds])
    for t, (trial_seed, outcome) in enumerate(zip(trial_seeds, outcomes)):
        if isinstance(outcome, SamplingExhausted):
            exhausted += 1
            singular_resamples += RESAMPLE_LIMIT
            continue
        m, k = outcome
        singular_resamples += k
        if 0 < m < steps:
            early_returns += 1
        if m > 0 and steps % m == 0:
            passes += 1
        else:
            failures += 1
            attempt_seed = derive_seed(trial_seed, k)
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
    toggle formula, C * inv(down * up) * g(v) in a matrix realm, and forms
    the down-values from the toggled labels, not from C * inv(D).  Returns
    True when the failure stands.
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
