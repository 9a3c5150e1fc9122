"""Labelings: one realm value per poset element."""

from __future__ import annotations

import re

from .errors import shown


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
        """The realm block and the labels keyed by element; a label its realm
        cannot print raises ValueError naming the element."""
        r = self.realm
        labels = {}
        for x, v in enumerate(self.values):
            try:
                labels[str(x)] = r.value_to_json(v)
            except ValueError as exc:
                raise ValueError(f"label {x}: {exc}") from None
        return {"realm": r.config(), "labels": labels}

    def __repr__(self):
        return f"Labeling({self.realm.name}, {len(self.values)} values)"


def labeling_from_json(obj, poset):
    """Read a labeling of ``poset`` from {"realm": ..., "labels": {...}}.

    The realm is built from the config block (``realm_from_config``) and
    reads each label itself (``value_from_json``).  Label keys are element
    ids, or "i,j" coordinates when ``poset`` is a rectangle.  A malformed or
    out-of-range key, a second key for an element, a label its realm cannot
    read or an unlabeled element raises ValueError naming it, except a key
    too long for ``int`` (``realms.refuse_huge_number``), which is not echoed.
    A key or id of more than 40 characters is named by its start and its
    length (``errors.shown``), so the message stays one short line.
    """
    from .realms import json_field, realm_from_config, refuse_huge_number

    realm = realm_from_config(json_field(obj, "realm", "labeling"))
    raw = json_field(obj, "labels", "labeling")
    if not isinstance(raw, dict):
        raise ValueError("labeling 'labels' must be a JSON object keyed by element")
    values = {}
    keys = {}
    for key, val in raw.items():
        # An id, or "i,j"; one too long for ``int`` is refused here, unechoed.
        m = re.fullmatch(r"(-?[0-9]+)(?:,(-?[0-9]+))?", key) if isinstance(key, str) else None
        if m is not None:
            refuse_huge_number(key, "a label key")
        try:
            if m is None:
                raise ValueError('the key is neither an element id nor "i,j" coordinates')
            if m[2] is None:
                x = int(key)
                if not 0 <= x < poset.n:
                    raise ValueError(f"no element {shown(x)} in a {poset.n}-element poset")
            elif hasattr(poset, "id"):
                x = poset.id(int(m[1]), int(m[2]))
            else:
                raise ValueError("coordinate label keys need a rectangle poset")
            if x in keys:
                raise ValueError(f"element {x} is already labeled by key {shown(keys[x])}")
            keys[x] = key
            values[x] = realm.value_from_json(val)
        except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"label {shown(key)}: {exc}") from None
    missing = next((x for x in range(poset.n) if x not in values), None)
    if missing is not None:
        raise ValueError(f"labeling has no label for element {missing}")
    return Labeling(realm, [values[x] for x in range(poset.n)])
