"""Chain-sum test oracles for the inverse transfers, the toggle and the
chain-polytope sampler.

The package computes the inverse transfers and the toggle by dynamic
programs along a linear extension, and largest chain sums by one
longest-chain pass.  Here the same values are recomputed by expanding them
as sums over saturated or maximal chains (factors ordered from the top of
the chain down), an independent formula whose cost grows with the number
of chains, so it is kept out of the package.
"""

from fractions import Fraction

from rowmotion.dynamics import TransferKind, transfer


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


def chain_polytope_point_by_chains(poset, rng, denominator=60, rejection_rounds=64):
    """The chain-polytope sampler written over every maximal chain in
    ``Fraction`` arithmetic: draw k/denominator per element, accept when
    every maximal chain sums to at most 1, else scale the last draw down by
    its largest chain sum."""
    chains = poset.maximal_chains()
    values = None
    for _ in range(rejection_rounds):
        values = [Fraction(rng.randrange(denominator + 1), denominator)
                  for _ in range(poset.n)]
        if all(sum(values[x] for x in chain) <= 1 for chain in chains):
            return values
    worst = max(sum(values[x] for x in chain) for chain in chains)
    return [v / worst for v in values]


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
        nxt = step(x)
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
