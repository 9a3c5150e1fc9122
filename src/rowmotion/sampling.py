"""Deterministic samplers for labelings and chain-polytope points.

Every sampler takes a master seed; sub-streams are derived by hashing the
seed with a context tuple, so reports are reproducible byte for byte no
matter how trials are scheduled.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from .dynamics import antichain_rowmotion
from .errors import SamplingExhausted, SingularValue
from .labeling import Labeling
from .realms import RationalFunctionRealm, realm_from_config, symbolic_variable_names

RESAMPLE_LIMIT = 32


def derive_seed(master, *parts):
    """Stable 64-bit sub-seed from a master seed and a context tuple."""
    text = repr((master,) + parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def symbolic_labeling(poset):
    """One fresh variable per element, assigned in linear-extension order.

    A four-element rectangle gets w, x, y, z; six elements get u..z."""
    names = symbolic_variable_names(poset.n)
    realm = RationalFunctionRealm(names)
    order = poset.topo_order()
    values = [None] * poset.n
    for name, x in zip(names, order):
        values[x] = realm.variable(name)
    return Labeling(realm, values)


def sample_generic_labeling(poset, realm_config, seed):
    """Sample a labeling per the realm config block.

    Symbolic realms are deterministic (fresh variables).  Tropical realms
    draw rationals in [0, 1] with bounded denominators.  Matrix realms draw
    as ``sample_matrix`` does, and keep the first draw on which one
    transfer-mode antichain-rowmotion step meets no singular value.  That
    one-step probe serves callers of this function; a command redraws on
    its own work instead (``cli._load_labeling``).
    """
    kind = realm_config["realm"]
    if kind == "ratfun":
        return symbolic_labeling(poset)
    if kind == "tropical":
        rng = random.Random(derive_seed(seed, "tropical"))
        realm = realm_from_config(realm_config)
        values = [_bounded_rational(rng) for _ in range(poset.n)]
        return Labeling(realm, values)
    if kind in ("matp", "matq"):
        def probe(g):
            antichain_rowmotion(poset, g, mode="transfer")
            return g

        return sample_matrix(poset, realm_config, seed, probe)
    raise ValueError(f"unknown realm {kind!r}")


def sample_chain_polytope_point(poset, rng, denominator=60):
    """Random rational point of the chain polytope; its entries share one
    denominator, max(``denominator``, W) for the W below.

    Draws integer numerators k in [0, denominator], one per element, and
    scales them by max(denominator, W), where W is their largest chain sum
    (``FinitePoset.max_chain_sum``, one longest-chain pass over the covers).
    The point's largest chain sum is min(1, W/denominator), so it is in the
    chain polytope, and on the facet of its longest chain exactly when
    W >= denominator.  One draw serves every poset; the law is not uniform
    on the polytope.
    """
    numerators = [rng.randrange(denominator + 1) for _ in range(poset.n)]
    scale = max(denominator, poset.max_chain_sum(numerators))
    return [Fraction(k, scale) for k in numerators]


def _bounded_rational(rng):
    den = rng.randrange(1, 33)
    return Fraction(rng.randrange(den + 1), den)


def sample_matrix(poset, realm_config, seed, walk):
    """``walk(g)`` on the first sampled matrix labeling g it accepts.

    Attempt k draws g from ``derive_seed(seed, "matrix", k)``: uniform
    entries and a nonzero central scalar.  An attempt whose walk meets a
    singular value moves on to the next one, up to the retry bound.
    """
    for attempt in range(RESAMPLE_LIMIT):
        g = _draw_matrix_labeling(poset.n, realm_config,
                                  random.Random(derive_seed(seed, "matrix", attempt)))
        try:
            return walk(g)
        except SingularValue:
            continue
    raise SamplingExhausted(
        f"no nonsingular labeling after {RESAMPLE_LIMIT} attempts", seed=seed
    )


def draw_fp_labels(rng, n, d, p):
    """One draw from ``rng``: the central constant c in [1, p), then d*d entries
    in [0, p) per element.  Returns (labels, c), labels as n flat row-major
    tuples in id order; no realm is built, so the fuzzer can draw per attempt."""
    c = rng.randrange(1, p)
    entries = iter([rng.randrange(p) for _ in range(n * d * d)])
    return list(zip(*[entries] * (d * d))), c


def _draw_matrix_labeling(n, realm_config, rng):
    """n matrix labels drawn from ``rng``, the central constant first
    (``draw_fp_labels`` for matp, small rationals for matq), in the realm
    ``realm_from_config`` builds, which checks the config's ``p`` and ``d``.
    A config ``c`` replaces the drawn one, so the entries do not depend on it."""
    shape = realm_from_config(realm_config)
    d = shape.d
    if shape.name == "matp":
        labels, drawn = draw_fp_labels(rng, n, d, shape.p)
    else:
        drawn = Fraction(rng.randrange(1, 64), rng.randrange(1, 64))
        labels = [tuple(Fraction(rng.randrange(-32, 33), rng.randrange(1, 17))
                        for _ in range(d * d)) for _ in range(n)]
    return Labeling(realm_from_config({"c": drawn, **realm_config}), labels)
