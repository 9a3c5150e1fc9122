"""Set-level antichain rowmotion: the test oracle of the lifted pass.

The package computes rowmotion on an antichain as the tropical transfer-mode
step at its 0/1 indicator labeling (``combinatorial.rowmotion_antichain``).
Here the same map is the three set operations it lifts: saturate the
antichain downward to an order ideal, complement the ideal to an order
filter, take the filter's minimal elements.  Each stage checks its input.
"""


def _checked(poset, subset):
    s = frozenset(subset)
    outside = [x for x in s if not (isinstance(x, int) and 0 <= x < poset.n)]
    if outside:
        raise ValueError(f"not elements: {sorted(outside, key=repr)}")
    return s


def _mask(subset):
    return sum(1 << x for x in subset)


def is_ideal(poset, subset):
    mask = _mask(subset)
    return all(not poset.down_mask[x] & ~mask for x in subset)


def is_filter(poset, subset):
    mask = _mask(subset)
    return all(not poset.up_mask[x] & ~mask for x in subset)


def downward_saturation(poset, antichain):
    """Smallest order ideal containing ``antichain``: all x below some member."""
    a = _checked(poset, antichain)
    if not poset.is_antichain(a):
        raise ValueError(f"not an antichain: {sorted(a)}")
    mask = 0
    for x in a:
        mask |= poset.down_mask[x]
    return frozenset(x for x in range(poset.n) if (mask >> x) & 1)


def complement(poset, ideal):
    """Set complement of an order ideal; the result is an order filter."""
    i = _checked(poset, ideal)
    if not is_ideal(poset, i):
        raise ValueError(f"not an order ideal: {sorted(i)}")
    return frozenset(x for x in range(poset.n) if x not in i)


def minimal_elements(poset, filt):
    """Minimal members of an order filter; the result is an antichain.

    A member is minimal when no lower cover of it is a member: a filter that
    holds some y < x also holds the lower cover of x above y."""
    f = _checked(poset, filt)
    if not is_filter(poset, f):
        raise ValueError(f"not an order filter: {sorted(f)}")
    return frozenset(x for x in f if not any(y in f for y in poset.down_covers[x]))


def set_rowmotion(poset, antichain):
    """One rowmotion step: minimal elements of the complement of the saturation."""
    return minimal_elements(poset, complement(poset, downward_saturation(poset, antichain)))
