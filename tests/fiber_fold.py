"""Fiber folds: the test oracles for ``stword.fiber_product_checks`` and
``stword.st_word``.

``fiber_product_checks`` checks the window and lists the fibers once, then
forms every fiber's product with one helper.  Here each fiber is looked up
and multiplied on its own, as one fiber statistic reads: labels along the
fiber left to right, then across the window left to right.

``st_word`` inverts each column's product once.  Here each negative entry
is the paper's product of single inverses, C * inv(g(1,l)) * ... *
inv(g(a,l)).
"""

from rowmotion.poset import fibers
from rowmotion.stword import STWord, constant_power


def st_word_by_inverses(poset, g):
    """The fiber word of ``g`` on a rectangle, each negative entry folded
    from single inverses right to left and the constant joining last."""
    r = g.realm
    positive, negative = fibers(poset.a, poset.b)
    entries = [r.product(g[x] for x in reversed(row)) for row in positive]
    for column in negative:
        val = None
        for x in reversed(column):
            term = r.inv(g[x])
            val = term if val is None else r.mul(term, val)
        entries.append(r.mul(r.constant(), val))
    return STWord(tuple(entries), r)


def fiber_fold(poset, window, kind, k):
    """The product of fiber ``k`` (1-based) of ``kind`` over ``window``."""
    members = dict(zip(("positive", "negative"), fibers(poset.a, poset.b)))[kind][k - 1]
    r = window[0].realm
    total = None
    for lab in window:
        step = r.product(lab[x] for x in members)
        total = step if total is None else r.mul(total, step)
    return total


def fiber_fold_checks(poset, window):
    """(fiber, product, pass flag) for every fiber, positive fibers first;
    each must multiply to C^b (positive) or C^a (negative)."""
    r = window[0].realm
    out = []
    for kind, count, power in (("positive", poset.a, poset.b),
                               ("negative", poset.b, poset.a)):
        expected = constant_power(r, power)
        for k in range(1, count + 1):
            got = fiber_fold(poset, window, kind, k)
            out.append((f"{kind} {k}", got, r.eq(got, expected)))
    return out
