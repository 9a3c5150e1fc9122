"""Labelings: one realm value per poset element."""

from __future__ import annotations


class Labeling:
    """Immutable map from dense element ids to values of one realm."""

    __slots__ = ("realm", "values")

    def __init__(self, realm, values):
        self.realm = realm
        self.values = tuple(values)

    def __getitem__(self, x):
        return self.values[x]

    def __len__(self):
        return len(self.values)

    def replace(self, x, value):
        """Copy with the value at element x swapped out."""
        vals = list(self.values)
        vals[x] = value
        return Labeling(self.realm, vals)

    def eq(self, other):
        """Exact realm equality, entry by entry."""
        if len(self.values) != len(other.values):
            return False
        return all(self.realm.eq(a, b) for a, b in zip(self.values, other.values))

    def to_json(self):
        return {
            "realm": self.realm.config(),
            "labels": {str(x): self.realm.value_to_json(v) for x, v in enumerate(self.values)},
        }

    def __repr__(self):
        return f"Labeling({self.realm.name}, {len(self.values)} values)"


def labeling_from_json(obj, poset=None, realm=None):
    """Read a labeling from {"realm": ..., "labels": {...}}.

    Label keys are element ids, or "i,j" coordinates when ``poset`` is a
    rectangle.  A pre-built ``realm`` overrides the config block.  A missing
    key, a malformed key, a second key for an already labeled element or a
    label its realm cannot read raises ValueError naming the label.
    """
    from .realms import json_field, realm_from_config

    if realm is None:
        realm = realm_from_config(json_field(obj, "realm", "labeling"))
    raw = json_field(obj, "labels", "labeling")
    if not isinstance(raw, dict):
        raise ValueError("labeling 'labels' must be a JSON object keyed by element")
    values = {}
    keys = {}
    for key, val in raw.items():
        try:
            if "," in key:
                if poset is None or not hasattr(poset, "id"):
                    raise ValueError("coordinate label keys need a rectangle poset")
                i, j = (int(t) for t in key.split(","))
                x = poset.id(i, j)
            else:
                x = int(key)
            if x in keys:
                raise ValueError(f"element {x} is already labeled by key {keys[x]}")
            keys[x] = key
            values[x] = realm.value_from_json(val)
        except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"label {key}: {exc}") from None
    n = poset.n if poset is not None else len(values)
    if sorted(values) != list(range(n)):
        raise ValueError("labeling must cover every poset element exactly once")
    return Labeling(realm, [values[x] for x in range(n)])
