"""Fiber words of labelings on [a]x[b] and the homomesy checks they drive.

The word of a labeling g has a+b entries.  Entry i <= a multiplies the i-th
row with the column index descending: g(i,b) * ... * g(i,1).  Entry a+l is
the constant times inverses up the l-th column with the row index ascending:
C * inv(g(1,l)) * ... * inv(g(a,l)).  In the tropical realm with constant 1
these specialize to the row sums and to 1 minus the column sums, and on 0/1
indicator labelings to the binary fiber word of an antichain.

One rowmotion step rotates the word one place to the right; hence fiber
statistics are homomesic: over a full (a+b)-step orbit, positive fiber
products multiply to C^b and negative fiber products to C^a (commutative
realms), and in the tropical realm fiber sums average b/(a+b) and a/(a+b).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .dynamics import antichain_rowmotion, polytope_membership
from .labeling import Labeling
from .poset import RectanglePoset, product_of_chains
from .realms import TropicalRealm
from .sampling import derive_seed, sample_chain_polytope_point


class STWord:
    """A length-(a+b) word of realm values with cyclic 1-based indexing."""

    __slots__ = ("entries", "realm")

    def __init__(self, entries, realm):
        self.entries = entries
        self.realm = realm

    def entry(self, i):
        """Entry at cyclic index i: entry(i) == entry(i + len)."""
        return self.entries[(i - 1) % len(self.entries)]

    def eq(self, other):
        if len(self.entries) != len(other.entries):
            return False
        return all(self.realm.eq(a, b) for a, b in zip(self.entries, other.entries))

    def __len__(self):
        return len(self.entries)


def st_word(poset, g):
    """The fiber word of a labeling on a rectangle poset."""
    return _st_word_ordered(poset, g, positive_descending=True, negative_ascending=True)


def _st_word_ordered(poset, g, positive_descending, negative_ascending):
    """Fiber word with explicit index orders.

    The published orders are descending columns on positive fibers and
    ascending rows on negative fibers; the flags exist so tests can show the
    wrong order breaks rotation once labels stop commuting.
    """
    if not isinstance(poset, RectanglePoset):
        raise ValueError("fiber words are defined on rectangle posets")
    r = g.realm
    a, b = poset.a, poset.b
    entries = []
    for i in range(1, a + 1):
        cols = range(b, 0, -1) if positive_descending else range(1, b + 1)
        entries.append(r.product(g[poset.id(i, j)] for j in cols))
    for l in range(1, b + 1):
        rows = range(1, a + 1) if negative_ascending else range(a, 0, -1)
        # Fold right to left; the factor order C, inv(g(1,l)), .., inv(g(a,l))
        # is unchanged, and the constant joins last, which cancels better in
        # the symbolic realm.
        val = None
        for i in reversed(rows):
            term = r.inv(g[poset.id(i, l)])
            val = term if val is None else r.mul(term, val)
        entries.append(r.mul(r.constant(), val))
    return STWord(tuple(entries), r)


class RotationReport(NamedTuple):
    ok: bool
    per_index: tuple  # (index, matched) pairs, index 1..a+b


def check_rotation(poset, g, mode="transfer", image=None):
    """Verify the word of the rowmotion image is the rightward cyclic shift.

    Compares entry i of the image word with entry i-1 of the original word,
    index by index, under exact realm equality.
    """
    if image is None:
        image = antichain_rowmotion(poset, g, mode=mode)
    before = st_word(poset, g)
    after = st_word(poset, image)
    per_index = tuple(
        (i, g.realm.eq(after.entry(i), before.entry(i - 1)))
        for i in range(1, len(before) + 1)
    )
    return RotationReport(all(m for _, m in per_index), per_index)


def fiber_orbit_product(poset, g, fiber):
    """Product of a fiber statistic over the full (a+b)-step orbit.

    ``fiber`` is ("positive", k) or ("negative", l), 1-based.  The statistic
    of a labeling is the plain product of its labels along that fiber; the
    orbit product is taken over a+b consecutive rowmotion images.  Requires a
    commutative realm (contract: C^b on positive fibers, C^a on negative).
    """
    r = g.realm
    if not r.commutative:
        raise ValueError("orbit fiber products are a commutative-realm contract")
    kind, index = fiber
    a, b = poset.a, poset.b
    if kind == "positive":
        elems = [poset.id(index, j) for j in range(1, b + 1)]
    elif kind == "negative":
        elems = [poset.id(i, index) for i in range(1, a + 1)]
    else:
        raise ValueError(f"unknown fiber kind {kind!r}")
    total = None
    cur = g
    for _ in range(a + b):
        step = r.product(cur[x] for x in elems)
        total = step if total is None else r.mul(total, step)
        cur = antichain_rowmotion(poset, cur)
    return total


def constant_power(realm, k):
    """C^k in the given realm."""
    return realm.product(realm.constant() for _ in range(k))


def pl_homomesy_report(a, b, samples, seed):
    """Orbit averages of fiber sums for sampled chain-polytope points.

    Runs tropical rowmotion with constant 1 on each sampled point for a+b
    steps and takes exact arithmetic means over the orbit.  Contract: every
    positive fiber mean is b/(a+b), every negative fiber mean is a/(a+b),
    and the label-sum mean is ab/(a+b).  Failures record the sample seed.
    """
    poset = product_of_chains(a, b)
    realm = TropicalRealm(Fraction(1))
    period = a + b
    expected_pos = Fraction(b, period)
    expected_neg = Fraction(a, period)
    expected_sum = Fraction(a * b, period)
    failures = []
    membership_failures = []
    for idx in range(samples):
        sub = derive_seed(seed, "pl-sample", idx)
        rng = random.Random(sub)
        values = sample_chain_polytope_point(poset, rng)
        orbit = [Labeling(realm, values)]
        for _ in range(period - 1):
            orbit.append(antichain_rowmotion(poset, orbit[-1]))
        for lab in orbit[1:]:
            if not polytope_membership("chain", poset, lab):
                membership_failures.append(sub)
                break
        pos_means = [
            sum(sum(lab[poset.id(k, j)] for j in range(1, b + 1)) for lab in orbit) / period
            for k in range(1, a + 1)
        ]
        neg_means = [
            sum(sum(lab[poset.id(i, l)] for i in range(1, a + 1)) for lab in orbit) / period
            for l in range(1, b + 1)
        ]
        sum_mean = sum(sum(lab.values) for lab in orbit) / period
        ok = (
            all(m == expected_pos for m in pos_means)
            and all(m == expected_neg for m in neg_means)
            and sum_mean == expected_sum
        )
        if not ok:
            failures.append(sub)
    return {
        "chains": [a, b],
        "samples": samples,
        "seed": seed,
        "positive_fiber_mean": str(expected_pos),
        "negative_fiber_mean": str(expected_neg),
        "label_sum_mean": str(expected_sum),
        "failing_sample_seeds": failures,
        "membership_failing_sample_seeds": membership_failures,
        "all_exact": not failures and not membership_failures,
    }
