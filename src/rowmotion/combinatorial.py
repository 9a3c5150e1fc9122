"""Antichain rowmotion on the lifted pass, and its orbit statistics.

An antichain's 0/1 indicator labeling, in the tropical realm with c = 1, is
a vertex of the chain polytope, and piecewise-linear rowmotion there is
combinatorial rowmotion (Einstein and Propp, arXiv 1310.5294).  So the map
on antichains is the one transfer-mode step, ``dynamics.antichain_rowmotion``,
at the indicator, read back as the image's support; the set-level stages
(saturate downward, complement, take minimal elements) are the test oracle.
On [a]x[b] each antichain also has a binary word of length a+b (one entry per
fiber) that rotates one place rightward under rowmotion, which is what makes
the fiber counting statistics homomesic.  It is the piecewise-linear word
(``stword.st_word``) at the same indicator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .dynamics import antichain_rowmotion
from .errors import shown
from .labeling import Labeling
from .poset import enumerate_antichains, product_of_chains
from .realms import TropicalRealm
from .stword import st_word


def _indicator(poset, antichain):
    """The 0/1 indicator labeling of ``antichain`` in the tropical realm with
    c = 1.  An id that is not an element of ``poset`` (an int in 0..n-1)
    raises ValueError naming it, and then a set that is not an antichain
    does."""
    s = frozenset(antichain)
    outside = [x for x in s if not (isinstance(x, int) and 0 <= x < poset.n)]
    if outside:
        raise ValueError(f"no element {shown(min(outside, key=repr))} "
                         f"in a {poset.n}-element poset")
    if not poset.is_antichain(s):
        raise ValueError(f"not an antichain: {sorted(s)}")
    values = [0] * poset.n
    for x in s:
        values[x] = 1
    return Labeling(TropicalRealm(1), values)


def rowmotion_antichain(poset, antichain):
    """One rowmotion step on an antichain: ``antichain_rowmotion`` at its
    indicator, whose image is the indicator of the image antichain.

    The inverse-up transfer of the indicator of A is the indicator of the
    ideal A generates: the longest chain sum from x upward is 1 when x lies
    below a member, since a chain meets A at most once, and 0 otherwise.
    Complementing gives E = 1 - that, the indicator of the leftover filter
    F.  The down-transfer gives E(x) - max of E over the lower covers of x
    (E(x) at a minimal x).  F is closed upward, so a lower cover in F puts x
    in F: the value is 0 or 1, and it is 1 exactly at the minimal elements
    of F.  Raises ValueError as ``_indicator`` does.
    """
    return frozenset(_support(antichain_rowmotion(poset, _indicator(poset, antichain))))


def st_word_combinatorial(a, b, antichain):
    """Binary fiber word of an antichain of [a]x[b]: ``st_word`` at its 0/1
    indicator labeling in the tropical realm with c = 1.

    Entry i <= a is 1 iff the antichain meets positive fiber i; entry a+l is
    1 iff it misses negative fiber l.  Fibers are chains, so an antichain
    meets each at most once: a row sums to 0 or 1, and a column entry is
    1 minus its sum.  The entries are ints.  Raises ValueError as
    ``_indicator`` does.
    """
    poset = product_of_chains(a, b)
    return st_word(poset, _indicator(poset, antichain))


class CombinatorialOrbit(NamedTuple):
    """One rowmotion orbit on antichains of [a]x[b], with exact statistics."""

    antichains: tuple
    st_words: tuple
    cardinality_avg: Fraction
    positive_fiber_avgs: tuple
    negative_fiber_avgs: tuple

    @property
    def size(self):
        return len(self.antichains)


def combinatorial_orbits(a, b):
    """Partition all antichains of [a]x[b] into rowmotion orbits.

    Each orbit starts at its lexicographically least antichain, and orbits are
    listed by that representative.  Averages are exact rationals.  An orbit
    is walked on indicator labelings: only its enumerated start is checked
    (``_indicator``), since every image of rowmotion is an antichain's
    indicator, and each word is read off the labeling the step returned.
    """
    poset = product_of_chains(a, b)
    remaining = {_key(s): s for s in enumerate_antichains(poset)}
    orbits = []
    while remaining:
        rep_key = min(remaining)
        cycle = [_indicator(poset, remaining.pop(rep_key))]
        while True:
            cur = antichain_rowmotion(poset, cycle[-1])
            key = _support(cur)
            if key == rep_key:
                break
            del remaining[key]
            cycle.append(cur)
        orbits.append(_orbit_stats(poset, cycle))
    orbits.sort(key=lambda o: _key(o.antichains[0]))
    return orbits


def orbit_report(a, b):
    """JSON-ready orbit report for [a]x[b] (all values exact)."""
    poset = product_of_chains(a, b)
    orbits = combinatorial_orbits(a, b)
    return {
        "chains": [a, b],
        "antichain_count": sum(o.size for o in orbits),
        "orbits": [
            {
                "size": o.size,
                "antichains": [sorted(poset.coord(x) for x in s) for s in o.antichains],
                "st_words": [list(w) for w in o.st_words],
                "cardinality_avg": str(o.cardinality_avg),
                "fiber_avgs": {
                    "positive": [str(v) for v in o.positive_fiber_avgs],
                    "negative": [str(v) for v in o.negative_fiber_avgs],
                },
            }
            for o in orbits
        ],
    }


def _orbit_stats(poset, cycle):
    """The ``CombinatorialOrbit`` of a cycle of indicator labelings of the
    rectangle ``poset``."""
    a, b, m = poset.a, poset.b, len(cycle)
    antichains = tuple(frozenset(_support(g)) for g in cycle)
    words = tuple(st_word(poset, g) for g in cycle)
    card = Fraction(sum(map(len, antichains)), m)
    pos = tuple(Fraction(sum(w[k] for w in words), m) for k in range(a))
    neg = tuple(Fraction(sum(1 - w[a + l] for w in words), m) for l in range(b))
    return CombinatorialOrbit(antichains, words, card, pos, neg)


def _support(g):
    """The sorted ids where the 0/1 labeling g is 1: its antichain's key."""
    return tuple(x for x, v in enumerate(g.values) if v)


def _key(antichain):
    return tuple(sorted(antichain))
