"""The literal toggle fold and toggle formula: the test oracles for
toggle-mode rowmotion and for ``dynamics.toggle``.

``antichain_rowmotion(mode="toggles")`` computes the two dynamic-program
values each toggle needs once per step, along ``poset.topo_order``.  Here
every toggle recomputes them from scratch over its whole up-set and
down-set, as the definition of rowmotion as a product of toggles reads,
along ``topo_order`` or any other linear extension.

In a matrix realm ``toggle`` inverts the product of the down-value and the
up-value once.  Here the two values are inverted one at a time, as the
toggle's formula C * inv(up) * inv(down) * g(v) reads.
"""

import pytest

from rowmotion.dynamics import TransferKind, antichain_rowmotion, toggle, transfer
from rowmotion.errors import SingularValue


def toggle_fold(poset, g, extension=None, step=toggle):
    """Toggle once at each element of ``extension`` (default:
    ``poset.topo_order``), bottom to top, each toggle on its own by
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


def rendered_or_refusal(realm, step):
    """The repr and the rendered JSON of each label of the labeling
    ``step()`` returns, as a list, or the message and element of the
    ``SingularValue`` it raises, as a tuple."""
    try:
        values = step().values
    except SingularValue as exc:
        return str(exc), exc.element
    return [(repr(v), realm.value_to_json(v)) for v in values]


def check_sweep_against_folds(poset, g, ext, step=toggle):
    """Toggle-mode rowmotion of ``g`` against the literal fold of ``step``.

    Along ``topo_order``, the sweep's own order, each label has the fold's
    repr and rendering, or the sweep refuses with the fold's message at the
    fold's element.  Along the linear extension ``ext`` each label is equal
    under realm ``eq``, or both refuse: every up-value and down-value is
    the same along any linear extension, so only the element named may
    differ.  Returns the element the sweep refuses at, or None.
    """
    r = g.realm
    want = rendered_or_refusal(r, lambda: toggle_fold(poset, g, step=step))
    try:
        image = antichain_rowmotion(poset, g, "toggles")
    except SingularValue as exc:
        assert (str(exc), exc.element) == want
        with pytest.raises(SingularValue):
            toggle_fold(poset, g, ext, step=step)
        return exc.element
    assert rendered_or_refusal(r, lambda: image) == want
    assert toggle_fold(poset, g, ext, step=step).eq(image)
    return None
