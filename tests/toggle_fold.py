"""The literal toggle fold: the test oracle for toggle-mode rowmotion.

``antichain_rowmotion(mode="toggles")`` computes the two dynamic-program
values each toggle needs once per step.  Here every toggle recomputes them
from scratch over its whole up-set and down-set, as the definition of
rowmotion as a product of toggles reads.
"""

from rowmotion.dynamics import toggle
from rowmotion.errors import SingularValue


def toggle_fold(poset, g, extension=None):
    """Toggle once at each element of ``extension`` (default: the canonical
    linear extension), bottom to top, each toggle on its own."""
    for v in poset.topo_order if extension is None else extension:
        g = toggle(poset, g, v)
    return g


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
