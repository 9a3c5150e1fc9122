"""The periodicity fuzzer's engine: ``dynamics.rowmotion_pass`` on prime-field
matrices held as n per-element flat row-major tuples, with the matp realm's
own operations.  Only the names that the fuzz report and the benchmark
harness (``perfbench/``, ``benchmarks/bench_kernels.py``) call are kept: the
backend registry, ``make_engine``, and the engine's ``step`` and
``first_return``.
"""

from __future__ import annotations

import sys

from .dynamics import rowmotion_pass
from .realms import FpMatrixRealm, require_prime

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

    Transfer-mode ``antichain_rowmotion`` on bare label lists: the pass runs
    on the matp realm's product, ``add`` and ``inv_all``, so its labels are
    reduced.  The product is ``_mul``, the function ``mul`` calls, one
    Python frame fewer per product.
    """

    def __init__(self, poset, d, p):
        require_prime(p)
        self.poset = poset
        self.d = d
        self.p = p

    def step(self, labels, c):
        """One rowmotion step on n per-element tuples; returns the new list."""
        realm = FpMatrixRealm(self.p, self.d, c=c)
        return rowmotion_pass(self.poset, labels, realm._mul, realm.add, realm.inv_all)

    def first_return(self, labels, c, max_steps):
        """Smallest m <= max_steps with step^m(labels) == labels, else 0."""
        realm = FpMatrixRealm(self.p, self.d, c=c)
        initial = cur = list(labels)
        for m in range(1, max_steps + 1):
            cur = rowmotion_pass(self.poset, cur, realm._mul, realm.add, realm.inv_all)
            if cur == initial:
                return m
        return 0
