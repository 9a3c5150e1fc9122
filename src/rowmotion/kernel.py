"""The periodicity fuzzer's engine: ``dynamics.rowmotion_pass`` on prime-field
matrices held as n per-element flat row-major tuples.  A fuzz cell's trials
step together over the product of their matrix rings
(``realms.fp_product_ops``): one pass per step for the batch, and one
modular inverse per batch of inverses, not one per trial.  Only the names
that the fuzz report and the benchmark harness (``perfbench/``,
``benchmarks/bench_kernels.py``) call are kept: the backend registry,
``make_engine``, and the engine's ``step`` and ``first_return``.
"""

from __future__ import annotations

import sys

from .dynamics import rowmotion_pass
from .errors import SingularValue
from .realms import FpMatrixRealm, fp_product_ops, require_prime

BACKEND = "pure-python"


def backend_name():
    """The kernel's name, as reports and benchmark metrics record it."""
    return BACKEND


def available_backends():
    """Mapping backend name -> module holding ``FpToggleEngine``."""
    return {BACKEND: sys.modules[__name__]}


def make_engine(poset, d, p, module=None):
    """Build a rowmotion engine for ``poset`` over d x d matrices mod p.

    ``module`` is a value of ``available_backends()``.  Raises ValueError
    unless p is a certified prime.
    """
    engine = FpToggleEngine if module is None else module.FpToggleEngine
    return engine(poset, d, p)


class FpToggleEngine:
    """Antichain rowmotion for one poset, d and certified prime p.

    Transfer-mode ``antichain_rowmotion`` on bare label lists.
    ``first_return`` steps a batch of trials, one labeling per central
    constant c, as one labeling over the product of their matrix rings
    (``realms.fp_product_ops``): rowmotion acts on each component alone, so
    one pass steps every trial, and each of its two batches of inverses
    takes one modular inverse for all of them.  ``step`` is one trial's step
    over its own matp realm, from the same products, sums and inverses.  The
    labels are reduced, and a trial's refusal has the message of its own
    matp step.
    """

    def __init__(self, poset, d, p):
        require_prime(p)
        self.poset = poset
        self.d = d
        self.p = p

    def step(self, labels, c):
        """One rowmotion step of one trial, on n per-element tuples, over its
        own matp realm; returns the new list.  ``first_return`` steps the
        same labels, as a batch of one, to the same values."""
        realm = FpMatrixRealm(self.p, self.d, c=c)
        return rowmotion_pass(self.poset, realm.up_transfer(self.poset, labels), realm._mul,
                              realm.add, realm.inv_all)

    def first_return(self, batch, max_steps):
        """For each trial (labels, c) of ``batch``, in order: the smallest
        m <= max_steps with step^m(labels) == labels, 0 when there is none,
        or the ``SingularValue`` that refused one of its steps before then.

        The trials still stepping are stepped together.  A trial leaves the
        batch once it has returned, or once a step refuses it (the refusal's
        ``trial`` is its index in ``batch``); that step is then run again for
        the others.
        """
        out = [0] * len(batch)
        starts = [tuple(labels) for labels, _ in batch]
        live, cols = list(range(len(batch))), starts  # the trials stepping, their labels
        m = 0
        while live and m < max_steps:
            up_transfer, mul, add, inv_all = fp_product_ops(self.d, self.p,
                                                            [batch[t][1] for t in live])
            values = list(zip(*cols))
            try:
                while m < max_steps:
                    values = rowmotion_pass(self.poset, up_transfer(self.poset, values), mul, add,
                                            inv_all)
                    m += 1
                    cols = list(zip(*values)) or [()] * len(live)
                    done = {i for i, t in enumerate(live) if cols[i] == starts[t]}
                    for i in done:
                        out[live[i]] = m
                    if done:
                        break
            except SingularValue as exc:
                done = {exc.trial}
                exc.trial = live[exc.trial]  # its index in ``batch``
                out[exc.trial] = exc
            live = [t for i, t in enumerate(live) if i not in done]
            cols = [col for i, col in enumerate(cols) if i not in done]
        return out
