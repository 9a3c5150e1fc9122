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

The two inverses are dynamic programs along a linear extension; their
expansion as sums over saturated chains (with factors ordered from the top
of the chain down) lives in the test suite as an oracle, since chain counts
grow fast.

Antichain rowmotion is (down-transfer o complementation o inverse-up), fused
into one pass by ``rowmotion_pass`` with ``transfer`` as its test oracle;
order rowmotion is (complementation o inverse-up o down-transfer).  Both are
also toggle products along any linear extension, bottom to top; toggle-mode
antichain rowmotion is that product, run as one sweep that computes each
dynamic-program value a toggle needs once, with the literal fold of single
toggles as its test oracle.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import SingularValue
from .labeling import Labeling
from .poset import RectanglePoset, _is_int


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
        return Labeling(r, [r.mul(r.constant(), r.inv_at(g[x], x)) for x in range(n)])
    if kind is TransferKind.DOWN:
        out = []
        for x in range(n):
            s = r.sum(g[y] for y in poset.down_covers[x])
            out.append(r.mul(g[x], r.inv_at(s, x)))
        return Labeling(r, out)
    if kind is TransferKind.UP:
        out = []
        for x in range(n):
            s = r.sum(g[y] for y in poset.up_covers[x])
            out.append(r.mul(r.inv_at(s, x), g[x]))
        return Labeling(r, out)
    if kind is TransferKind.DOWN_INV:
        val = [None] * n
        for x in poset.topo_order:
            val[x] = r.mul(g[x], r.sum(val[y] for y in poset.down_covers[x]))
        return Labeling(r, val)
    if kind is TransferKind.UP_INV:
        val = [None] * n
        for x in reversed(poset.topo_order):
            val[x] = r.mul(r.sum(val[y] for y in poset.up_covers[x]), g[x])
        return Labeling(r, val)
    raise ValueError(f"unknown transfer kind {kind!r}")


def toggle(poset, g, v, *, up=None, down=None):
    """Antichain toggle at v: only the label at v changes.

    The new label is C * inv(up) * inv(down) * g(v), where ``up`` and
    ``down`` are the inverse-up and inverse-down transfers of g at v.  Left
    out, each is read off the whole transfer; a caller that already holds
    them, as toggle-mode rowmotion does, passes them in.

    C * inv(up) * inv(down) is the realm's ``scaled_inv_pair``: a matrix
    realm forms it as C * inv(down * up), one inverse per toggle, since
    inversion reverses products; the others invert up and down one at a
    time.  Either way a toggle refuses exactly when up or down is singular,
    naming v.
    """
    r = g.realm
    if up is None:
        up = transfer(TransferKind.UP_INV, poset, g)[v]
    if down is None:
        down = transfer(TransferKind.DOWN_INV, poset, g)[v]
    return g.replace(v, r.mul(r.scaled_inv_pair(up, down, v), g[v]))


def rowmotion_pass(poset, values, mul, add, inv_all):
    """One antichain-rowmotion step on per-element ``values``, as a list in id
    order: D(x) = (sum of D over upper covers) * g(x), or g(x) at a maximal
    x; E = C * inv(D); out(x) = E(x) * inv(sum of E over lower covers), or
    E(x) at a minimal x.  ``inv_all`` (``Realm.inv_all``) inverts each batch;
    ``mul`` and ``add`` agree with the realm's, and sums fold left to right.

    The second batch is in id order, so a refusal names the element, with the
    message, of the ``transfer`` composition.  Toggle mode inverts, at each
    v, the up-value D(v) and the down-value g(v) * (sum of W over lower
    covers), as one product down * up in a matrix realm, with W its own
    inverse-down values of the toggled labels; W equals E, though toggle
    mode forms it by other products.  So it refuses exactly when some D(v),
    g(v) or lower-cover sum is singular; a singular g(v) makes D(v)
    singular, so the batches agree.

    The covers are read from the poset's sweeps (``up_sweep`` in
    ``reversed(topo_order)``, ``down_sweep`` over ``nonminimal``), built
    once per poset, so no element's covers are looked up, tested or sliced
    per step; the realm calls and both batches are those of walking
    ``up_covers`` and ``down_covers`` in the same orders.
    """
    D = list(values)  # kept at the maximal elements
    for x, first, rest in poset.up_sweep:
        s = D[first]
        for y in rest:
            s = add(s, D[y])
        D[x] = mul(s, values[x])
    E = inv_all(D, range(poset.n), scaled=True)
    sums = []
    for x, first, rest in poset.down_sweep:
        s = E[first]
        for y in rest:
            s = add(s, E[y])
        sums.append(s)
    out = list(E)
    nonminimal = poset.nonminimal
    for x, s in zip(nonminimal, inv_all(sums, nonminimal)):
        out[x] = mul(E[x], s)
    return out


def antichain_rowmotion(poset, g, mode="transfer", extension=None):
    """One step of antichain rowmotion on a labeling.

    mode="transfer" runs ``rowmotion_pass`` on the realm's operations.
    mode="toggles" toggles once at each element along ``extension`` (default:
    the canonical linear extension), bottom to top, in one sweep that reuses
    both values each toggle needs.  Elements above v come after v, so the
    up-value at v is D(v), the inverse-up transfer of the untoggled g,
    computed once.  Elements below v come before it, so the inverse-down
    transfer of the toggled labels, W(x) = g'(x) * (sum of W over lower
    covers), is final once x is toggled and is stored where an upper cover
    will read it.  Each value is the product the single ``toggle`` would
    form, so the labels and each ``SingularValue`` are those of toggling one
    element at a time (the test suite's oracle).  An ``extension`` that does
    not list every element once, each after its lower covers, raises
    ValueError.  The modes always agree.
    """
    if mode == "transfer":
        r = g.realm
        return Labeling(r, rowmotion_pass(poset, g.values, r.mul, r.add, r.inv_all))
    if mode == "toggles":
        order = poset.topo_order if extension is None else _checked_extension(poset, extension)
        r = g.realm
        D = transfer(TransferKind.UP_INV, poset, g)
        W = [None] * poset.n  # set as each element is toggled
        for v in order:
            s = r.sum(W[y] for y in poset.down_covers[v])
            g = toggle(poset, g, v, up=D[v], down=r.mul(g[v], s))
            # No upper cover reads W at a maximal v; on symbolic labels that
            # unread product would be the largest of the step.
            if poset.up_covers[v]:
                W[v] = r.mul(g[v], s)
        return g
    raise ValueError(f"unknown rowmotion mode {mode!r}")


def _checked_extension(poset, extension):
    """``extension`` as a tuple, or ValueError naming why it is not a linear
    extension of ``poset``."""
    order = tuple(extension)
    position = {}
    for k, v in enumerate(order):
        if not (_is_int(v) and 0 <= v < poset.n):
            raise ValueError(f"extension entry {v!r} is not an element id of a "
                             f"{poset.n}-element poset")
        if v in position:
            raise ValueError(f"extension lists element {v} twice")
        position[v] = k
    if len(order) != poset.n:
        missing = min(set(range(poset.n)) - set(position))
        raise ValueError(f"extension misses element {missing}")
    for v in order:
        for y in poset.down_covers[v]:
            if position[y] > position[v]:
                raise ValueError(f"extension puts element {v} before element {y}, "
                                 f"which it covers")
    return order


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
                out[x] = r.mul(r.constant(), r.inv_at(d(1, 1), x))
            elif i == 1:
                out[x] = r.mul(r.inv_at(d(1, j), x), d(1, j - 1))
            elif j == 1:
                out[x] = r.mul(r.inv_at(d(i, 1), x), d(i - 1, 1))
            else:
                gc = g[poset.id(i - 1, j - 1)]
                mid = r.mul(r.mul(gc, r.inv_at(d(i - 1, j - 1), x)), d(i, j - 1))
                first = r.mul(r.mul(r.inv_at(d(i, j), x), d(i - 1, j)), mid)
                mid2 = r.mul(r.mul(gc, r.inv_at(d(i - 1, j - 1), x)), d(i - 1, j))
                second = r.mul(r.mul(r.inv_at(d(i, j), x), d(i, j - 1)), mid2)
                if not r.eq(first, second):
                    raise ArithmeticError(
                        f"interior factorizations disagree at ({i}, {j})"
                    )
                out[x] = first
    return Labeling(r, out)


def polytope_membership(kind, poset, values, scale=1):
    """Exact membership test for the three labeling polytopes, dilated by
    ``scale`` (the tropical constant c that rowmotion preserves them under).

    kind "order": values in [0, scale], weakly increasing along covers.
    kind "order-reversing": values in [0, scale], weakly decreasing along covers.
    kind "chain": values in [0, scale] and every maximal chain sums to at most
    scale, read off one longest-chain pass (``FinitePoset.max_chain_sum``).
    Values are ints or Fractions and are compared as given.
    """
    if isinstance(values, Labeling):
        values = values.values
    if values and (min(values) < 0 or max(values) > scale):
        return False
    if kind == "order":
        return all(values[lo] <= values[hi] for lo, hi in poset.covers)
    if kind == "order-reversing":
        return all(values[lo] >= values[hi] for lo, hi in poset.covers)
    if kind == "chain":
        return poset.max_chain_sum(values) <= scale
    raise ValueError(f"unknown polytope kind {kind!r}")


class Orbit(NamedTuple):
    """Iteration record: labelings step by step, with detected first return."""

    labelings: list
    st_words: list
    period: int | None
    mode: str

    def to_json(self):
        """The orbit as JSON; a value that cannot be printed raises
        ValueError naming the step."""
        realm = self.labelings[0].realm
        steps = []
        for k, (lab, word) in enumerate(zip(self.labelings, self.st_words)):
            try:
                steps.append({"labels": lab.to_json()["labels"],
                              "st_word": None if word is None else word.to_json()})
            except ValueError as exc:
                raise ValueError(f"rowmotion step {k}: {exc}") from None
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

