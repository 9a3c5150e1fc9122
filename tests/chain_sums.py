"""Chain-sum test oracles for the inverse transfers, the toggle and the
chain-polytope sampler, and the ``Fraction`` route of the tropical
homomesy report.

The package computes the inverse transfers and the toggle by dynamic
programs along a linear extension, and largest chain sums by one
longest-chain pass.  Here the same values are recomputed by expanding them
as sums over saturated or maximal chains (factors ordered from the top of
the chain down), an independent formula whose cost grows with the number
of chains, so it is kept out of the package.

The package's tropical homomesy report iterates each sampled point's
integer numerators over the sampler's scale.  Here the point is formed as
reduced ``Fraction``s and cleared over the lcm of their denominators
instead, as the report once did.
"""

import random
from fractions import Fraction
from math import lcm

from rowmotion.dynamics import TransferKind, polytope_membership, transfer
from rowmotion.labeling import Labeling
from rowmotion.poset import product_of_chains
from rowmotion.realms import TropicalRealm
from rowmotion.sampling import derive_seed, sample_chain_polytope_point
from rowmotion.stword import fiber_product_checks, orbit_window


def chain_expansion_check(kind, poset, g):
    """Recompute an inverse transfer by explicit saturated-chain sums.

    Returns True when the chain expansion agrees with the recurrence at every
    element.  Factor order within each chain runs from the top element down.
    """
    if kind not in (TransferKind.DOWN_INV, TransferKind.UP_INV):
        raise ValueError("chain expansion applies to the inverse transfers only")
    r = g.realm
    fast = transfer(kind, poset, g)
    for x in range(poset.n):
        if kind is TransferKind.DOWN_INV:
            terms = [_descending_product(r, g, path) for path in _paths(poset, x, upward=False)]
        else:
            terms = [_ascending_product(r, g, path) for path in _paths(poset, x, upward=True)]
        if not r.eq(r.sum(terms), fast[x]):
            return False
    return True


def toggle_chain_form(poset, g, v):
    """Toggle at v via the maximal-chain expansion.

    Sums, over maximal chains through v, the product of labels strictly below
    v (walking down from v) times the product of labels from the top of the
    chain down to v; the new label is C times the inverse of that sum.
    """
    r = g.realm
    lowers = [_descending_product(r, g, path[1:]) for path in _paths(poset, v, upward=False)]
    uppers = [_ascending_product(r, g, path) for path in _paths(poset, v, upward=True)]
    total = r.sum(r.mul(lo, up) for lo in lowers for up in uppers)
    return g.replace(v, r.mul(r.constant(), r.inv_at(total, v)))


def chain_polytope_point_by_chains(poset, rng, denominator=60):
    """The chain-polytope sampler written over every maximal chain in
    ``Fraction`` arithmetic: draw k/denominator per element, and scale the
    draw down by its largest chain sum when that sum is above 1."""
    values = [Fraction(rng.randrange(denominator + 1), denominator) for _ in range(poset.n)]
    worst = max((sum(values[x] for x in chain) for chain in poset.maximal_chains()), default=0)
    return [v / max(worst, 1) for v in values]


def pl_homomesy_report_by_fractions(a, b, samples, seed):
    """``stword.pl_homomesy_report`` by the ``Fraction`` route: each sampled
    point as reduced fractions, then its numerators over their lcm L,
    iterated with c = L and checked against L, b*L, a*L and a*b*L."""
    poset = product_of_chains(a, b)
    failures = []
    membership_failures = []
    for idx in range(samples):
        sub = derive_seed(seed, "pl-sample", idx)
        numerators, scale = sample_chain_polytope_point(poset, random.Random(sub))
        point = [Fraction(k, scale) for k in numerators]
        common = lcm(*(v.denominator for v in point))
        cleared = [v.numerator * (common // v.denominator) for v in point]
        window = orbit_window(poset, Labeling(TropicalRealm(common), cleared))
        if not all(polytope_membership(poset, lab.values, common) for lab in window[1:]):
            membership_failures.append(sub)
        if not (all(f["pass"] for f in fiber_product_checks(poset, window))
                and sum(sum(lab.values) for lab in window) == a * b * common):
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


def _paths(poset, v, upward):
    """Saturated chains from v to a maximal (upward) or minimal element.

    Each path starts at v; factor products read the path from its far end
    back toward v, matching the chain sums in the transfer definitions.
    """
    out = []
    step = poset.up_covers if upward else poset.down_covers
    stack = [(v, (v,))]
    while stack:
        x, path = stack.pop()
        nxt = step[x]
        if not nxt:
            out.append(path)
        else:
            for y in nxt:
                stack.append((y, path + (y,)))
    return out


def _ascending_product(realm, g, path):
    """For an ascending path (v, u1, .., um): g(um) * .. * g(u1) * g(v).

    Factors always run from the top of the chain down."""
    total = None
    for x in path:
        total = g[x] if total is None else realm.mul(g[x], total)
    return realm.one() if total is None else total


def _descending_product(realm, g, path):
    """For a descending path (v, z1, .., zk): g(v) * g(z1) * .. * g(zk)."""
    total = None
    for x in path:
        total = g[x] if total is None else realm.mul(total, g[x])
    return realm.one() if total is None else total
