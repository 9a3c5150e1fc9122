"""Antichain-rowmotion kernel over prime-field matrices.

The hot loop of the periodicity fuzzer.  Labels travel as a flat list of
n*d*d integers in [0, p): the realm's flat row-major values, one after
another in id order (``labeling_to_flat`` concatenates them,
``flat_to_labeling`` slices them apart).

The kernel works in transfer form.  One step of antichain rowmotion is

  D(x)   = (sum of D over upper covers of x) * g(x)     up-inverse DP
  E(x)   = c * inv(D(x))                                 complement
  out(x) = E(x) * inv(sum of E over lower covers of x)   down-transfer

with empty sums read as the identity, so ``out(x) = E(x)`` at a minimal x.
That is one matrix product per cover plus two batches of inverses, instead
of the up-set and down-set DP at every toggle.  Each batch inverts its
matrices as adj(M) * det(M)^-1, with all the determinants inverted together
by Montgomery's trick: one modular inverse plus 3(k-1) products for k
matrices.  The products, determinants and adjugates are ``realms.fp_ops``,
the same closed forms ``FpMatrixRealm`` computes with for d = 1, 2, 3; for
d >= 4 each reduced matrix goes to ``FpMatrixRealm.inv`` (Gauss-Jordan).

Refusals match toggle mode exactly.  A toggle pass along a linear extension
sees D(v) as the up-value at v and g(v) * (sum of E over lower covers of v)
as the down-value, so it raises ``SingularValue`` exactly when some D(v),
some g(v) or some lower-cover sum is singular.  A singular g(v) makes
D(v) = (...) * g(v) singular too, so the two batches see every refusal and
the input needs no separate check.

The modulus must be a prime the package can certify (``realms.is_prime``).
"""

from __future__ import annotations

import sys

from .errors import SingularValue
from .labeling import Labeling
from .realms import FpMatrixRealm, fp_ops, require_prime

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


def labeling_to_flat(g):
    """Flatten a prime-field matrix labeling to the kernel wire format."""
    return [v for m in g.values for v in m]


def flat_to_labeling(realm, flat):
    """Rebuild a labeling from the kernel wire format."""
    return Labeling(realm, _split(flat, realm.d * realm.d))


def _split(flat, dd):
    """The per-element values of a flat label list, dd entries each."""
    return [tuple(flat[o:o + dd]) for o in range(0, len(flat), dd)]


def _cover_sum(vals, covers):
    """Entrywise sum of ``vals`` over a nonempty cover list, unreduced."""
    s = vals[covers[0]]
    for y in covers[1:]:
        s = tuple(map(int.__add__, s, vals[y]))
    return s


class FpToggleEngine:
    """Antichain rowmotion stepper for one poset shape, d and prime p."""

    def __init__(self, poset, d, p):
        require_prime(p)
        self.n = poset.n
        self.d = d
        self.p = p
        self.dd = d * d
        self._up = [poset.up_covers(x) for x in range(self.n)]
        self._down = [poset.down_covers(x) for x in range(self.n)]
        topo = poset.topo_order()
        self._top_down = tuple(reversed(topo))
        self._nonminimal = tuple(x for x in topo if self._down[x])
        self._mul, self._det, self._adj = fp_ops(d, p)
        self._realm = FpMatrixRealm(p, d) if self._det is None else None

    def _inverses(self, mats, scale, elements, what):
        """``scale * inv(m)`` for every m in ``mats`` (``elements`` names
        them for the error); raises SingularValue if one is singular."""
        p = self.p
        det, adj = self._det, self._adj
        if det is None:
            out = []
            for x, m in zip(elements, mats):
                try:
                    inv = self._realm.inv(tuple(v % p for v in m))
                except SingularValue:
                    raise SingularValue(what, element=x) from None
                out.append(tuple(v * scale % p for v in inv))
            return out
        dets = [det(m) for m in mats]
        prefix = []
        acc = 1
        for x, t in zip(elements, dets):
            if not t:
                raise SingularValue(what, element=x)
            prefix.append(acc)
            acc = acc * t % p
        inv = pow(acc, -1, p) * scale % p
        out = [None] * len(mats)
        for i in range(len(mats) - 1, -1, -1):
            out[i] = adj(mats[i], inv * prefix[i] % p)
            inv = inv * dets[i] % p
        return out

    def _advance(self, g, c):
        """One rowmotion step on per-element tuples; returns new tuples."""
        mul, up, nonminimal = self._mul, self._up, self._nonminimal
        D = [None] * self.n
        for x in self._top_down:
            D[x] = mul(_cover_sum(D, up[x]), g[x]) if up[x] else g[x]
        E = self._inverses(D, c, range(self.n), "singular inverse-up value")
        sums = [_cover_sum(E, self._down[x]) for x in nonminimal]
        out = list(E)
        for x, s in zip(nonminimal,
                        self._inverses(sums, 1, nonminimal, "singular lower-cover sum")):
            out[x] = mul(E[x], s)
        return out

    def step(self, labels, c):
        """One rowmotion step; returns the new flat label list."""
        return [v for m in self._advance(_split(labels, self.dd), c) for v in m]

    def first_return(self, labels, c, max_steps):
        """Smallest m <= max_steps with step^m(labels) == labels, else 0."""
        initial = _split(labels, self.dd)
        cur = initial
        for m in range(1, max_steps + 1):
            cur = self._advance(cur, c)
            if cur == initial:
                return m
        return 0
