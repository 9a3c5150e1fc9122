"""Fiber words of labelings on [a]x[b] and the homomesy checks they drive.

Fibers come from ``poset.fibers``: positive fiber k is row k, negative fiber
l is column l.  The word of a labeling g has a+b entries.  Entry k <= a
multiplies positive fiber k with the column index descending:
g(k,b) * ... * g(k,1).  Entry a+l is the constant times inverses up
negative fiber l with the row index ascending: C * inv(g(1,l)) * ... *
inv(g(a,l)).  In the tropical realm with constant 1 these specialize to the
row sums and to 1 minus the column sums, and on 0/1 indicator labelings to
the binary fiber word of an antichain.

One rowmotion step rotates the word one place to the right; hence fiber
statistics are homomesic: over the window g, rho(g), ..., rho^(a+b-1)(g)
(``orbit_window``, a+b-1 steps), positive fibers multiply to C^b and
negative fibers to C^a in a commutative realm (``fiber_product_checks``).
Read tropically (product is sum, C^k is k*c) that is the piecewise-linear
fiber-mean homomesy ``pl_homomesy_report`` checks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .dynamics import antichain_rowmotion, polytope_membership
from .labeling import Labeling
from .poset import RectanglePoset, fibers, product_of_chains
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

    def to_json(self):
        return [self.realm.value_to_json(v) for v in self.entries]

    def __len__(self):
        return len(self.entries)


def st_word(poset, g):
    """The fiber word of a labeling on a rectangle poset."""
    if not isinstance(poset, RectanglePoset):
        raise ValueError("fiber words are defined on rectangle posets")
    r = g.realm
    positive, negative = fibers(poset.a, poset.b)
    entries = [r.product(g[x] for x in reversed(row)) for row in positive]
    for column in negative:
        # Fold right to left; the factor order C, inv(g(1,l)), .., inv(g(a,l))
        # is unchanged, and the constant joins last, which cancels better in
        # the symbolic realm.
        val = None
        for x in reversed(column):
            term = r.inv(g[x])
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


def orbit_window(poset, g):
    """The a+b labelings [g, rho(g), ..., rho^(a+b-1)(g)] on [a]x[b].

    Costs a+b-1 rowmotion steps; rho^(a+b)(g) is not computed.
    """
    window = [g]
    for _ in range(poset.a + poset.b - 1):
        window.append(antichain_rowmotion(poset, window[-1]))
    return window


def fiber_orbit_product(poset, window, fiber):
    """Product of one fiber statistic over an orbit window.

    ``window`` is ``orbit_window(poset, g)``; ``fiber`` is ("positive", k)
    or ("negative", l), 1-based.  The statistic of a labeling is the plain
    product of its labels along the fiber.  Requires a commutative realm
    (contract: C^b on positive fibers, C^a on negative).
    """
    a, b = poset.a, poset.b
    r = _window_realm(poset, window)
    kind, index = fiber
    members = dict(zip(("positive", "negative"), fibers(a, b))).get(kind)
    if members is None:
        raise ValueError(f"unknown fiber kind {kind!r}")
    if not 1 <= index <= len(members):
        raise ValueError(f"no {kind} fiber {index} on [{a}]x[{b}]")
    return _window_product(r, window, members[index - 1])


def _window_realm(poset, window):
    """The realm of an orbit window, or ValueError for a window of the wrong
    length or a noncommutative realm."""
    a, b = poset.a, poset.b
    if len(window) != a + b:
        raise ValueError(f"an orbit window on [{a}]x[{b}] has {a + b} labelings, "
                         f"got {len(window)}")
    r = window[0].realm
    if not r.commutative:
        raise ValueError("orbit fiber products are a commutative-realm contract")
    return r


def _window_product(r, window, members):
    """The product over ``window`` of each labeling's product along
    ``members``: labels along the fiber left to right, then across the
    window left to right."""
    total = None
    for lab in window:
        values = lab.values
        step = r.product([values[x] for x in members])
        total = step if total is None else r.mul(total, step)
    return total


def constant_power(realm, k):
    """C^k in the given realm."""
    return realm.product(realm.constant() for _ in range(k))


def fiber_product_checks(poset, window):
    """Every fiber product over an orbit window against its contract.

    One {"fiber", "expected", "pass"} entry per fiber, positive fibers
    first: each positive fiber must multiply to C^b, each negative fiber
    to C^a.  The window is checked and the fibers are listed once for all
    a+b fibers; each product is the one ``fiber_orbit_product`` returns,
    formed by the same multiplications in the same order.
    """
    r = _window_realm(poset, window)
    out = []
    for kind, members, power in zip(("positive", "negative"), fibers(poset.a, poset.b),
                                    (poset.b, poset.a)):
        expected = constant_power(r, power)
        for k, fiber in enumerate(members, 1):
            got = _window_product(r, window, fiber)
            out.append({"fiber": f"{kind} {k}", "expected": f"C^{power}",
                        "pass": r.eq(got, expected)})
    return out


def pl_homomesy_report(a, b, samples, seed):
    """Orbit averages of fiber sums for sampled chain-polytope points.

    Runs tropical rowmotion with constant 1 on each sampled point over its
    orbit window (a+b labelings, a+b-1 steps).  Contract: every positive
    fiber mean is b/(a+b), every negative fiber mean is a/(a+b) (the fiber
    products C^b and C^a, read tropically), and the label-sum mean is
    ab/(a+b).  Failures record the sample seed.

    The window runs on integers.  The sampled point's entries have one
    common denominator L (their lcm, which divides the sampler's max(60, W)),
    and tropical rowmotion is homogeneous: max, + and negation commute with
    scaling the labels and c by L > 0.  So the numerators are iterated with
    c = L, and every check is scaled to match: labels in [0, L] with chain
    sums at most L, fiber products b*L and a*L, and a label sum of a*b*L
    over the window.
    """
    poset = product_of_chains(a, b)
    failures = []
    membership_failures = []
    for idx in range(samples):
        sub = derive_seed(seed, "pl-sample", idx)
        point = sample_chain_polytope_point(poset, random.Random(sub))
        scale = lcm(*(v.denominator for v in point))
        numerators = [v.numerator * (scale // v.denominator) for v in point]
        window = orbit_window(poset, Labeling(TropicalRealm(scale), numerators))
        if not all(polytope_membership("chain", poset, lab, scale) for lab in window[1:]):
            membership_failures.append(sub)
        if not (all(f["pass"] for f in fiber_product_checks(poset, window))
                and sum(sum(lab.values) for lab in window) == a * b * scale):
            failures.append(sub)
    return {
        "chains": [a, b],
        "samples": samples,
        "seed": seed,
        "positive_fiber_mean": str(Fraction(b, a + b)),
        "negative_fiber_mean": str(Fraction(a, a + b)),
        "label_sum_mean": str(Fraction(a * b, a + b)),
        "failing_sample_seeds": failures,
        "membership_failing_sample_seeds": membership_failures,
        "all_exact": not failures and not membership_failures,
    }
