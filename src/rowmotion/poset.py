"""Finite posets, the rectangle poset, and their basic subsets.

Elements are dense integer ids ``0..n-1``.  The order relation is stored as
one bitmask per element, so comparability queries cost a shift and a mask.
For the rectangle poset [a]x[b] the coordinate (i, j), with 1 <= i <= a and
1 <= j <= b, maps to id ``(j-1)*a + (i-1)`` (column-major).  That numbering
makes the default linear extension sweep each column bottom-up, which is the
element order used for naming symbolic labels.
"""

from __future__ import annotations

import heapq
import json
from functools import lru_cache
from itertools import combinations

from .errors import PosetError, shown
from .realms import TropicalRealm


class FinitePoset:
    """A finite poset given by its (transitively reduced) cover relation.

    Its tables are tuples indexed by element id, read directly:
    ``up_covers[x]`` and ``down_covers[x]`` (sorted), the bitmasks
    ``up_mask[x]`` of {y : x <= y} and ``down_mask[x]`` of {y : y <= x},
    ``topo_order`` (the deterministic linear extension, ties broken by
    smallest id), and the ids ``minimal`` and ``nonminimal`` in id order.
    The two cover sweeps are the hot passes' view of the covers: ``up_sweep``
    holds one ``(x, first, rest)`` triple per non-maximal x, in
    ``reversed(topo_order)``, with ``(first,) + rest == up_covers[x]``;
    ``down_sweep`` holds the same triple from ``down_covers[x]`` for each x
    in ``nonminimal``.  Immutable after construction; safe to share between
    threads.
    """

    __slots__ = (
        "n",
        "names",
        "covers",
        "up_mask",
        "down_mask",
        "up_covers",
        "down_covers",
        "topo_order",
        "minimal",
        "nonminimal",
        "up_sweep",
        "down_sweep",
    )

    def __init__(self, n, covers, names=None):
        """Build from dense-id cover pairs.

        Validates acyclicity, rejects duplicate covers, removes transitively
        implied pairs, and precomputes the order relation.
        """
        if names is not None and len(names) != n:
            raise PosetError(f"expected {n} element names, got {len(names)}")
        self.n = n
        self.names = tuple(names) if names is not None else tuple(range(n))

        seen = set()
        for lo, hi in covers:
            if not (0 <= lo < n and 0 <= hi < n):
                raise PosetError(f"cover ({lo}, {hi}) references an undeclared element")
            if lo == hi:
                raise PosetError(f"cycle detected: cover ({lo}, {hi}) is a self-loop")
            if (lo, hi) in seen:
                raise PosetError(f"duplicate cover ({lo}, {hi})")
            seen.add((lo, hi))

        up_adj = [[] for _ in range(n)]
        for lo, hi in seen:
            up_adj[lo].append(hi)
        # Min-id Kahn depends only on reachability, which the reduction keeps.
        topo = _topological_order(n, up_adj)

        # Strict up-set masks via the closure of the raw covers.
        strict_up = [0] * n
        for x in reversed(topo):
            m = 0
            for y in up_adj[x]:
                m |= strict_up[y] | (1 << y)
            strict_up[x] = m

        # A cover (x, y) is redundant when some z sits strictly between.
        self.covers = frozenset(
            (lo, hi) for lo, hi in seen
            if not any(z != hi and (strict_up[z] >> hi) & 1 for z in up_adj[lo]))
        ups = [[] for _ in range(n)]
        downs = [[] for _ in range(n)]
        for lo, hi in self.covers:
            ups[lo].append(hi)
            downs[hi].append(lo)
        self.up_covers = tuple(tuple(sorted(c)) for c in ups)
        self.down_covers = tuple(tuple(sorted(c)) for c in downs)
        down_mask = [0] * n
        for x in topo:
            m = 1 << x
            for y in self.down_covers[x]:
                m |= down_mask[y]
            down_mask[x] = m
        self.up_mask = tuple(strict_up[x] | (1 << x) for x in range(n))
        self.down_mask = tuple(down_mask)
        self.topo_order = topo
        self.minimal = tuple(x for x in range(n) if not self.down_covers[x])
        self.nonminimal = tuple(x for x in range(n) if self.down_covers[x])
        self.up_sweep = tuple((x, self.up_covers[x][0], self.up_covers[x][1:])
                              for x in reversed(topo) if self.up_covers[x])
        self.down_sweep = tuple((x, self.down_covers[x][0], self.down_covers[x][1:])
                                for x in self.nonminimal)

    def leq(self, x, y):
        """True when x <= y."""
        return bool((self.up_mask[x] >> y) & 1)

    def is_antichain(self, subset):
        return all(not (self.leq(x, y) or self.leq(y, x)) for x, y in combinations(subset, 2))

    def maximal_chains(self):
        """All maximal chains, each as a tuple from a minimal to a maximal element."""
        out = []
        stack = [(x, (x,)) for x in self.minimal]
        while stack:
            x, chain = stack.pop()
            ups = self.up_covers[x]
            if not ups:
                out.append(chain)
            else:
                for y in ups:
                    stack.append((y, chain + (y,)))
        return sorted(out)

    def max_chain_sum(self, values):
        """Largest sum of ``values`` over a maximal chain (0 on the empty poset).

        The largest entry at a minimal element of the longest-chain table
        (``TropicalRealm.up_transfer``, a DP over ``up_sweep``): it costs
        O(n + |covers|) where the chains themselves can be exponentially
        many.  Works on any ordered numbers, ints and Fractions alike.
        Tropical homomesy calls it once per sample, in the sampler, and
        reads its window's membership checks off the tables its rowmotion
        steps build.
        """
        best = TropicalRealm.up_transfer(self, values)
        return max((best[x] for x in self.minimal), default=0)

    def __repr__(self):
        return f"FinitePoset(n={self.n}, covers={sorted(self.covers)})"


class RectanglePoset(FinitePoset):
    """The product of two chains [a]x[b] with componentwise order."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        if a < 1 or b < 1:
            raise PosetError(f"chain lengths must be positive, got ({a}, {b})")
        self.a = a
        self.b = b
        covers = []
        for i in range(1, a + 1):
            for j in range(1, b + 1):
                if i < a:
                    covers.append((rect_id(a, i, j), rect_id(a, i + 1, j)))
                if j < b:
                    covers.append((rect_id(a, i, j), rect_id(a, i, j + 1)))
        names = [None] * (a * b)
        for i in range(1, a + 1):
            for j in range(1, b + 1):
                names[rect_id(a, i, j)] = (i, j)
        super().__init__(a * b, covers, names)

    def id(self, i, j):
        """Dense id of coordinate (i, j); a long coordinate is shown by its
        start and length (``errors.shown``)."""
        if not (1 <= i <= self.a and 1 <= j <= self.b):
            raise PosetError(f"coordinate ({shown(i)}, {shown(j)}) outside "
                             f"[{self.a}]x[{self.b}]")
        return rect_id(self.a, i, j)

    def coord(self, x):
        """Coordinate (i, j) of a dense id."""
        return self.names[x]

    def __repr__(self):
        return f"RectanglePoset({self.a}, {self.b})"


def rect_id(a, i, j):
    return (j - 1) * a + (i - 1)


@lru_cache(maxsize=None)
def product_of_chains(a, b):
    """The rectangle poset [a]x[b]; cached since callers reuse small rectangles."""
    return RectanglePoset(a, b)


def build_poset(covers, elements=None):
    """Build a FinitePoset from cover pairs over arbitrary hashable ids.

    ``elements`` may add isolated elements.  Input is validated (acyclic, no
    duplicate covers, no dangling references) and transitively reduced.
    """
    ids = []
    seen_ids = set()
    if elements is not None:
        for e in elements:
            if e in seen_ids:
                raise PosetError(f"duplicate element {shown(repr(e))}")
            seen_ids.add(e)
            ids.append(e)
    for lo, hi in covers:
        for e in (lo, hi):
            if e not in seen_ids:
                if elements is not None:
                    raise PosetError(f"cover references undeclared element {shown(repr(e))}")
                seen_ids.add(e)
                ids.append(e)
    index = {e: k for k, e in enumerate(ids)}
    dense = [(index[lo], index[hi]) for lo, hi in covers]
    return FinitePoset(len(ids), dense, names=ids)


def enumerate_antichains(poset):
    """Every antichain of ``poset`` exactly once.

    Sorted by size, then lexicographically by sorted element ids.  Cost is
    O(#antichains * n); intended for desk-scale posets.
    """
    n = poset.n
    comp = [poset.up_mask[x] | poset.down_mask[x] for x in range(n)]
    out = [()]
    stack = [((x,), comp[x]) for x in reversed(range(n))]
    while stack:
        chosen, blocked = stack.pop()
        out.append(chosen)
        for y in range(chosen[-1] + 1, n):
            if not (blocked >> y) & 1:
                stack.append((chosen + (y,), blocked | comp[y]))
    out.sort(key=lambda t: (len(t), t))
    return [frozenset(t) for t in out]


def fibers(a, b):
    """Positive (row) and negative (column) fibers of [a]x[b], as id lists.

    Positive fiber k is {(k, l) : 1 <= l <= b}; negative fiber l is
    {(k, l) : 1 <= k <= a}.
    """
    positive = [[rect_id(a, k, l) for l in range(1, b + 1)] for k in range(1, a + 1)]
    negative = [[rect_id(a, k, l) for k in range(1, a + 1)] for l in range(1, b + 1)]
    return positive, negative


def poset_to_json(poset):
    """Canonical JSON form: dense ids, sorted covers, names when nontrivial."""
    obj = {
        "elements": list(range(poset.n)),
        "covers": [list(c) for c in sorted(poset.covers)],
    }
    if isinstance(poset, RectanglePoset):
        obj["chains"] = [poset.a, poset.b]
        obj["coords"] = [list(poset.coord(x)) for x in range(poset.n)]
    elif poset.names != tuple(range(poset.n)):
        obj["names"] = list(poset.names)
    return obj


# The keys of a poset document: those ``poset_to_json`` writes.
_POSET_KEYS = ("chains", "coords", "elements", "covers", "names")


def poset_from_json(obj):
    """Read a poset from {"chains": [a, b]} or {"elements": ..., "covers": ...}.

    Element ids are strings or integers.  With ``names`` the ids are the
    dense ids ``poset_to_json`` writes, and ``names`` names them.  Input of
    the wrong shape, a key that ``poset_to_json`` does not write, or a key
    the poset is not read from whose value is not what ``poset_to_json``
    writes for it raises PosetError saying which part is malformed.
    """
    if not isinstance(obj, dict):
        raise PosetError("poset must be a JSON object")
    for key in obj:
        if key not in _POSET_KEYS:
            raise PosetError(f"poset key {shown(repr(key))} is not one of "
                             f"{', '.join(_POSET_KEYS)}")
    if "chains" in obj:
        chains = obj["chains"]
        if not (isinstance(chains, (list, tuple)) and len(chains) == 2
                and all(_is_int(c) for c in chains)):
            raise PosetError("poset 'chains' must be two integers")
        poset, read = product_of_chains(*chains), ("chains",)
    else:
        covers = obj.get("covers", [])
        if not (isinstance(covers, (list, tuple))
                and all(isinstance(c, (list, tuple)) and len(c) == 2
                        and all(_is_id(e) for e in c) for c in covers)):
            raise PosetError("poset 'covers' must be a list of [lower, upper] id pairs")
        elements = obj.get("elements")
        if elements is not None and not (isinstance(elements, (list, tuple))
                                         and all(_is_id(e) for e in elements)):
            raise PosetError("poset 'elements' must be a list of string or integer ids")
        poset = build_poset([tuple(c) for c in covers], elements=elements)
        read = ("elements", "covers")
        names = obj.get("names")
        if names is not None:
            if not (isinstance(names, list) and all(_is_id(e) for e in names)
                    and len(set(names)) == len(names)):
                raise PosetError("poset 'names' must be a list of distinct string or "
                                 "integer ids")
            poset, read = FinitePoset(poset.n, poset.covers, names), ("names",)
    echo = poset_to_json(poset)
    for key in obj:
        if key not in read and (key not in echo or json.dumps(obj[key]) != json.dumps(echo[key])):
            raise PosetError(f"poset {key!r} disagrees with the poset read, for which "
                             f"`rowmotion poset` writes {'another' if key in echo else 'no'} "
                             f"{key!r}")
    return poset


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_id(x):
    return isinstance(x, str) or _is_int(x)


def _topological_order(n, up_adj):
    indeg = [0] * n
    for x in range(n):
        for y in up_adj[x]:
            indeg[y] += 1
    heap = [x for x in range(n) if indeg[x] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        x = heapq.heappop(heap)
        order.append(x)
        for y in up_adj[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(heap, y)
    if len(order) != n:
        raise PosetError("cycle detected in cover relation")
    return tuple(order)

