"""Transfer maps, antichain toggles, and rowmotion in every realm.

Everything here is written once, in noncommutative factor order, and reused
by all realms; commutative realms simply satisfy extra identities, and the
tropical realm turns these formulas into the piecewise-linear maps.

With inv(s) the realm inverse, C the central constant, and empty sums read
as one() (the virtual bottom/top convention), the five transfer maps send a
labeling f to:

  complementation      x -> C * inv(f(x))
  down-transfer        x -> f(x) * inv(sum of f over lower covers of x)
  up-transfer          x -> inv(sum of f over upper covers of x) * f(x)
  inverse down         x -> f(x) * (sum of results over lower covers)
  inverse up           x -> (sum of results over upper covers) * f(x)

The two inverses are dynamic programs along a linear extension; expanding
them as sums over saturated chains (with factors ordered from the top of the
chain down) is kept only as a test oracle, since chain counts grow fast.

Antichain rowmotion is (down-transfer o complementation o inverse-up); order
rowmotion is (complementation o inverse-up o down-transfer).  Both are also
toggle products along any linear extension, bottom to top.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import SingularValue
from .labeling import Labeling
from .poset import RectanglePoset


class TransferKind(Enum):
    COMPLEMENT = "complement"
    DOWN = "down"
    UP = "up"
    DOWN_INV = "down-inv"
    UP_INV = "up-inv"


def transfer(kind, poset, g):
    """Apply one transfer map to a labeling; exact in the labeling's realm."""
    r = g.realm
    n = poset.n
    if kind is TransferKind.COMPLEMENT:
        return Labeling(r, [r.mul(r.constant(), _inv_at(r, g[x], x)) for x in range(n)])
    if kind is TransferKind.DOWN:
        out = []
        for x in range(n):
            s = r.sum(g[y] for y in poset.down_covers(x))
            out.append(r.mul(g[x], _inv_at(r, s, x)))
        return Labeling(r, out)
    if kind is TransferKind.UP:
        out = []
        for x in range(n):
            s = r.sum(g[y] for y in poset.up_covers(x))
            out.append(r.mul(_inv_at(r, s, x), g[x]))
        return Labeling(r, out)
    if kind is TransferKind.DOWN_INV:
        val = [None] * n
        for x in poset.topo_order():
            val[x] = r.mul(g[x], r.sum(val[y] for y in poset.down_covers(x)))
        return Labeling(r, val)
    if kind is TransferKind.UP_INV:
        val = [None] * n
        for x in reversed(poset.topo_order()):
            val[x] = r.mul(r.sum(val[y] for y in poset.up_covers(x)), g[x])
        return Labeling(r, val)
    raise ValueError(f"unknown transfer kind {kind!r}")


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


def toggle(poset, g, v):
    """Antichain toggle at v: only the label at v changes.

    The new label is C * inv(inverse-up at v) * inv(inverse-down at v) * g(v).
    Only the up-set and down-set of v are visited.
    """
    r = g.realm
    up_val = _up_inv_at(poset, g, v)
    down_val = _down_inv_at(poset, g, v)
    new = r.mul(
        r.mul(r.mul(r.constant(), _inv_at(r, up_val, v)), _inv_at(r, down_val, v)),
        g[v],
    )
    return g.replace(v, new)


def toggle_chain_form(poset, g, v):
    """Toggle at v via the maximal-chain expansion (test oracle).

    Sums, over maximal chains through v, the product of labels strictly below
    v (walking down from v) times the product of labels from the top of the
    chain down to v; the new label is C times the inverse of that sum.
    """
    r = g.realm
    lowers = [_descending_product(r, g, path[1:]) for path in _paths(poset, v, upward=False)]
    uppers = [_ascending_product(r, g, path) for path in _paths(poset, v, upward=True)]
    total = r.sum(r.mul(lo, up) for lo in lowers for up in uppers)
    return g.replace(v, r.mul(r.constant(), _inv_at(r, total, v)))


def antichain_rowmotion(poset, g, mode="transfer", extension=None):
    """One step of antichain rowmotion on a labeling.

    mode="transfer" composes the three transfer maps; mode="toggles" toggles
    once at each element along ``extension`` (default: the canonical linear
    extension), bottom to top.  The two modes agree in every realm.
    """
    if mode == "transfer":
        return transfer(
            TransferKind.DOWN, poset, transfer(
                TransferKind.COMPLEMENT, poset, transfer(TransferKind.UP_INV, poset, g)
            )
        )
    if mode == "toggles":
        order = poset.topo_order() if extension is None else tuple(extension)
        for v in order:
            g = toggle(poset, g, v)
        return g
    raise ValueError(f"unknown rowmotion mode {mode!r}")


def order_rowmotion(poset, g):
    """One step of order rowmotion (transfer composition only)."""
    return transfer(
        TransferKind.COMPLEMENT, poset, transfer(
            TransferKind.UP_INV, poset, transfer(TransferKind.DOWN, poset, g)
        )
    )


def closed_form_first_pass(poset, g):
    """Antichain rowmotion on [a]x[b] from the four-case label formulas.

    With D the inverse-up transfer of g, the image label at (i, j) is

      (1, 1):  C * inv(D(1,1))
      (1, j):  inv(D(1,j)) * D(1,j-1)            for j >= 2
      (i, 1):  inv(D(i,1)) * D(i-1,1)            for i >= 2
      (i, j):  inv(D(i,j)) * D(i-1,j) * g(i-1,j-1)
                 * inv(D(i-1,j-1)) * D(i,j-1)    for i, j >= 2

    and the interior case has a second factorization with D(i-1,j) and
    D(i,j-1) swapped; both are computed and must agree.
    """
    if not isinstance(poset, RectanglePoset):
        raise ValueError("the closed form is stated for rectangle posets")
    r = g.realm
    dd = transfer(TransferKind.UP_INV, poset, g)

    def d(i, j):
        return dd[poset.id(i, j)]

    out = [None] * poset.n
    for i in range(1, poset.a + 1):
        for j in range(1, poset.b + 1):
            x = poset.id(i, j)
            if i == 1 and j == 1:
                out[x] = r.mul(r.constant(), _inv_at(r, d(1, 1), x))
            elif i == 1:
                out[x] = r.mul(_inv_at(r, d(1, j), x), d(1, j - 1))
            elif j == 1:
                out[x] = r.mul(_inv_at(r, d(i, 1), x), d(i - 1, 1))
            else:
                gc = g[poset.id(i - 1, j - 1)]
                mid = r.mul(r.mul(gc, _inv_at(r, d(i - 1, j - 1), x)), d(i, j - 1))
                first = r.mul(r.mul(_inv_at(r, d(i, j), x), d(i - 1, j)), mid)
                mid2 = r.mul(r.mul(gc, _inv_at(r, d(i - 1, j - 1), x)), d(i - 1, j))
                second = r.mul(r.mul(_inv_at(r, d(i, j), x), d(i, j - 1)), mid2)
                if not r.eq(first, second):
                    raise ArithmeticError(
                        f"interior factorizations disagree at ({i}, {j})"
                    )
                out[x] = first
    return Labeling(r, out)


def polytope_membership(kind, poset, values):
    """Exact membership test for the three labeling polytopes.

    kind "order": values in [0, 1], weakly increasing along covers.
    kind "order-reversing": values in [0, 1], weakly decreasing along covers.
    kind "chain": values in [0, 1] and every maximal chain sums to at most 1.
    """
    if isinstance(values, Labeling):
        values = values.values
    vals = [Fraction(v) for v in values]
    if any(v < 0 or v > 1 for v in vals):
        return False
    if kind == "order":
        return all(vals[lo] <= vals[hi] for lo, hi in poset.covers)
    if kind == "order-reversing":
        return all(vals[lo] >= vals[hi] for lo, hi in poset.covers)
    if kind == "chain":
        return all(sum(vals[x] for x in chain) <= 1 for chain in poset.maximal_chains())
    raise ValueError(f"unknown polytope kind {kind!r}")


class Orbit(NamedTuple):
    """Iteration record: labelings step by step, with detected first return."""

    labelings: list
    st_words: list
    period: int | None
    mode: str

    def to_json(self):
        realm = self.labelings[0].realm
        steps = []
        for lab, word in zip(self.labelings, self.st_words):
            entry = {"labels": {str(x): realm.value_to_json(v) for x, v in enumerate(lab.values)}}
            entry["st_word"] = None if word is None else [realm.value_to_json(v) for v in word.entries]
            steps.append(entry)
        return {"period": self.period, "mode": self.mode, "realm": realm.config(), "steps": steps}


def iterate(poset, g, steps=None, mode="transfer"):
    """Iterate antichain rowmotion, recording each labeling and its fiber word.

    Detects the first return to the initial labeling (exact realm equality)
    within ``steps`` applications; default bound is 4(a+b) on rectangles and
    4n otherwise.  Fiber words are recorded on rectangle posets only.
    """
    from .stword import st_word

    rect = isinstance(poset, RectanglePoset)
    if steps is None:
        steps = 4 * (poset.a + poset.b) if rect else 4 * poset.n
    cur = g
    labelings = [cur]
    words = [st_word(poset, cur) if rect else None]
    period = None
    for k in range(1, steps + 1):
        try:
            cur = antichain_rowmotion(poset, cur, mode=mode)
        except SingularValue as exc:
            raise SingularValue(f"rowmotion step {k}: {exc}") from exc
        labelings.append(cur)
        words.append(st_word(poset, cur) if rect else None)
        if cur.eq(g):
            period = k
            break
    return Orbit(labelings, words, period, mode)


def _inv_at(realm, value, element):
    try:
        return realm.inv(value)
    except SingularValue as exc:
        raise SingularValue(str(exc), element=element) from exc


def _up_inv_at(poset, g, v):
    """Inverse-up transfer evaluated at v only (restricted to the up-set)."""
    r = g.realm
    val = {}
    for x in reversed(poset.topo_order()):
        if poset.leq(v, x):
            val[x] = r.mul(r.sum(val[y] for y in poset.up_covers(x)), g[x])
    return val[v]


def _down_inv_at(poset, g, v):
    """Inverse-down transfer evaluated at v only (restricted to the down-set)."""
    r = g.realm
    val = {}
    for x in poset.topo_order():
        if poset.leq(x, v):
            val[x] = r.mul(g[x], r.sum(val[y] for y in poset.down_covers(x)))
    return val[v]


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
