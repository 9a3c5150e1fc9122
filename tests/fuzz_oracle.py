"""A fuzz cell one trial at a time: the test oracle for the batched engine.

``fuzz.fuzz_nar_periodicity`` steps all of a cell's pending trials together
over the product of their matrix rings (``realms.fp_product_ops``), and
redraws through the batched ``sampling.redraw``.  This module is the loop
that it replaced: each trial redraws alone, with its own attempt loop, and
steps through its own matp realm, so its report must equal the package's
byte for byte.  ``engine_return`` runs the package's engine on a batch of
one.
"""

import random

from rowmotion.dynamics import rowmotion_pass
from rowmotion.errors import SamplingExhausted, SingularValue
from rowmotion.fuzz import _reverify
from rowmotion.poset import product_of_chains
from rowmotion.realms import FpMatrixRealm
from rowmotion.sampling import RESAMPLE_LIMIT, derive_seed, draw_fp_labels


def engine_return(engine, labels, c, max_steps):
    """``engine.first_return`` on a batch of one: the trial's first return,
    or its refusal raised."""
    (m,) = engine.first_return([(labels, c)], max_steps)
    if isinstance(m, SingularValue):
        raise m
    return m


def single_first_return(poset, d, p, labels, c, max_steps):
    """Smallest m <= max_steps at which transfer-mode rowmotion over one matp
    realm returns ``labels`` to themselves, else 0; a singular step raises."""
    realm = FpMatrixRealm(p, d, c=c)
    initial = cur = list(labels)
    for m in range(1, max_steps + 1):
        cur = rowmotion_pass(poset, realm.up_transfer(poset, cur), realm.mul, realm.add,
                             realm.inv_all)
        if cur == initial:
            return m
    return 0


def single_redraw(draw, walk, *context):
    """``(walk(draw(rng)), k)`` for the first attempt k whose walk raises no
    ``SingularValue``, attempt k drawing from ``derive_seed(*context, k)``."""
    for k in range(RESAMPLE_LIMIT):
        drawn = draw(random.Random(derive_seed(*context, k)))
        try:
            return walk(drawn), k
        except SingularValue:
            continue
    raise SamplingExhausted(f"no nonsingular labeling after {RESAMPLE_LIMIT} attempts",
                            seed=context[0])


def fuzz_cell(a, b, d, trials, seed, p):
    """The report of ``fuzz_nar_periodicity(a, b, d, trials, seed, p)``,
    computed one trial at a time."""
    poset = product_of_chains(a, b)
    steps = a + b
    passes = failures = exhausted = early_returns = singular_resamples = 0
    counterexamples = []

    def draw(rng):
        return draw_fp_labels(rng, poset.n, d, p)

    def walk(drawn):
        return single_first_return(poset, d, p, *drawn, steps)

    for t in range(trials):
        trial_seed = derive_seed(seed, "nar-trial", a, b, d, t)
        try:
            m, k = single_redraw(draw, walk, trial_seed)
        except SamplingExhausted:
            exhausted += 1
            singular_resamples += RESAMPLE_LIMIT
            continue
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
        "a": a, "b": b, "d": d, "p": p, "trials": trials,
        "passes": passes, "failures": failures, "exhausted": exhausted,
        "early_returns": early_returns, "singular_resamples": singular_resamples,
        "counterexample_seeds": counterexamples,
    }
