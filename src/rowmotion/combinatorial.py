"""Set-level antichain rowmotion and its orbit statistics.

Rowmotion factors as: downward-saturate the antichain to an order ideal,
complement the ideal to an order filter, take the filter's minimal elements.
On [a]x[b] each antichain also has a binary word of length a+b (one entry per
fiber) that rotates one place rightward under rowmotion, which is what makes
the fiber counting statistics homomesic.  It is the piecewise-linear word
(``stword.st_word``) at the antichain's 0/1 indicator labeling, with c = 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .labeling import Labeling
from .poset import enumerate_antichains, product_of_chains
from .realms import TropicalRealm
from .stword import st_word


def downward_saturation(poset, antichain):
    """Smallest order ideal containing ``antichain``: all x below some member."""
    a = frozenset(antichain)
    if not poset.is_antichain(a):
        raise ValueError(f"not an antichain: {sorted(a)}")
    mask = 0
    for x in a:
        mask |= poset.down_mask[x]
    return _mask_to_set(mask)


def complement(poset, ideal):
    """Set complement of an order ideal; the result is an order filter."""
    i = frozenset(ideal)
    if not poset.is_ideal(i):
        raise ValueError(f"not an order ideal: {sorted(i)}")
    return frozenset(x for x in range(poset.n) if x not in i)


def minimal_elements(poset, filt):
    """Minimal members of an order filter; the result is an antichain.

    A member is minimal when no lower cover of it is a member: a filter that
    holds some y < x also holds the lower cover of x above y."""
    f = frozenset(filt)
    if not poset.is_filter(f):
        raise ValueError(f"not an order filter: {sorted(f)}")
    return frozenset(x for x in f if not any(y in f for y in poset.down_covers[x]))


def rowmotion_antichain(poset, antichain):
    """One rowmotion step: minimal elements of the complement of the saturation."""
    return minimal_elements(poset, complement(poset, downward_saturation(poset, antichain)))


def st_word_combinatorial(a, b, antichain):
    """Binary fiber word of an antichain of [a]x[b]: ``st_word`` at its 0/1
    indicator labeling in the tropical realm with c = 1.

    Entry i <= a is 1 iff the antichain meets positive fiber i; entry a+l is
    1 iff it misses negative fiber l.  Fibers are chains, so an antichain
    meets each at most once: a row sums to 0 or 1, and a column entry is
    1 minus its sum.  The entries are ints.
    """
    poset = product_of_chains(a, b)
    s = frozenset(antichain)
    if not poset.is_antichain(s):
        raise ValueError(f"not an antichain: {sorted(s)}")
    return st_word(poset, Labeling(TropicalRealm(1), [int(x in s) for x in range(poset.n)]))


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
    listed by that representative.  Averages are exact rationals.
    """
    poset = product_of_chains(a, b)
    remaining = {_key(s): s for s in enumerate_antichains(poset)}
    orbits = []
    while remaining:
        rep_key = min(remaining)
        cycle = [remaining.pop(rep_key)]
        cur = rowmotion_antichain(poset, cycle[0])
        while _key(cur) != rep_key:
            remaining.pop(_key(cur))
            cycle.append(cur)
            cur = rowmotion_antichain(poset, cur)
        orbits.append(_orbit_stats(a, b, cycle))
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


def _orbit_stats(a, b, cycle):
    m = len(cycle)
    words = [st_word_combinatorial(a, b, s) for s in cycle]
    card = Fraction(sum(len(s) for s in cycle), m)
    pos = tuple(Fraction(sum(w[k] for w in words), m) for k in range(a))
    neg = tuple(Fraction(sum(1 - w[a + l] for w in words), m) for l in range(b))
    return CombinatorialOrbit(tuple(cycle), tuple(words), card, pos, neg)


def _key(antichain):
    return tuple(sorted(antichain))


def _mask_to_set(mask):
    out = set()
    while mask:
        out.add((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return frozenset(out)
