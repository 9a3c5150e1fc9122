"""The literal toggle fold and toggle formula: the test oracles for
toggle-mode rowmotion and for ``dynamics.toggle``.

``antichain_rowmotion(mode="toggles")`` computes the two dynamic-program
values each toggle needs once per step.  Here every toggle recomputes them
from scratch over its whole up-set and down-set, as the definition of
rowmotion as a product of toggles reads.

In a matrix realm ``toggle`` inverts the product of the down-value and the
up-value once.  Here the two values are inverted one at a time, as the
toggle's formula C * inv(up) * inv(down) * g(v) reads.
"""

from rowmotion.dynamics import TransferKind, toggle, transfer
from rowmotion.errors import SingularValue


def toggle_fold(poset, g, extension=None, step=toggle):
    """Toggle once at each element of ``extension`` (default: the canonical
    linear extension), bottom to top, each toggle on its own by
    ``step(poset, g, v)``."""
    for v in poset.topo_order if extension is None else extension:
        g = step(poset, g, v)
    return g


def toggle_by_two_inverses(poset, g, v):
    """The toggle at v as C * inv(up) * inv(down) * g(v), with ``up`` and
    ``down`` read off the whole inverse-up and inverse-down transfers and
    each inverted on its own, the up-value first."""
    r = g.realm
    up = transfer(TransferKind.UP_INV, poset, g)[v]
    down = transfer(TransferKind.DOWN_INV, poset, g)[v]
    new = r.mul(r.mul(r.mul(r.constant(), r.inv_at(up, v)), r.inv_at(down, v)), g[v])
    return g.replace(v, new)


def random_linear_extension(poset, rng):
    """A linear extension of ``poset`` drawn with ``rng``."""
    remaining = set(range(poset.n))
    placed = []
    while remaining:
        ready = sorted(x for x in remaining
                       if all(y not in remaining for y in poset.down_covers[x]))
        pick = rng.choice(ready)
        placed.append(pick)
        remaining.remove(pick)
    return placed


def values_or_singular(step):
    """The values of the labeling ``step()`` returns, or the message and
    element of the ``SingularValue`` it raises."""
    try:
        return step().values
    except SingularValue as exc:
        return str(exc), exc.element
