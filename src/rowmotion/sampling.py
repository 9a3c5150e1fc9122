"""Deterministic samplers for labelings and chain-polytope points.

Every sampler takes a master seed; sub-streams are derived by hashing the
seed with a context tuple, so reports are reproducible byte for byte no
matter how trials are scheduled.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from .errors import SamplingExhausted, SingularValue
from .labeling import Labeling
from .realms import (
    FpMatrixRealm,
    RationalFunctionRealm,
    realm_from_config,
    symbolic_variable_names,
)

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

    Symbolic realms are deterministic (fresh variables).  Matrix realms draw
    uniform entries and a nonzero central scalar (a matq config's ``c``
    replaces the drawn one), resampling up to the retry
    bound until one full antichain-rowmotion pass hits no singular value.
    Tropical realms draw rationals in [0, 1] with bounded denominators.
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
        return _sample_matrix_labeling(poset, realm_config, seed)
    raise ValueError(f"unknown realm {kind!r}")


def sample_chain_polytope_point(poset, rng, denominator=60, rejection_rounds=64):
    """Random rational point of the chain polytope; its entries share one
    denominator, ``denominator`` or the W below.

    Draws integer numerators k in [0, denominator], one per element, and
    accepts the point k/denominator when the largest chain sum of the k
    (``FinitePoset.max_chain_sum``, one longest-chain pass over the covers)
    is at most ``denominator``.  The pass is capped at ``denominator``, so a
    rejected draw stops at its first partial chain sum above it.  When
    rejection keeps missing (the polytope volume shrinks fast with poset
    size), the last draw is scaled down by its largest chain sum W, from one
    uncapped pass: the point k/W lies exactly on the polytope.

    The numerators are ``draw_below(rng, denominator + 1, n)``: the values
    and the final ``rng`` state of plain ``randrange`` calls, drawn faster.
    """
    for _ in range(rejection_rounds):
        numerators = draw_below(rng, denominator + 1, poset.n)
        if poset.max_chain_sum(numerators, cap=denominator) <= denominator:
            return [Fraction(k, denominator) for k in numerators]
    worst = poset.max_chain_sum(numerators)
    return [Fraction(k, worst) for k in numerators]


def draw_below(rng, bound, count):
    """``[rng.randrange(bound) for _ in range(count)]`` for a
    ``random.Random``, the same values and the same final state, with its
    rejection loop written out: ``getrandbits`` of the bound's bit length,
    redrawn while it is not below ``bound``."""
    if bound < 1:
        raise ValueError(f"empty range: bound {bound}")
    bits = bound.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        k = getrandbits(bits)
        while k >= bound:
            k = getrandbits(bits)
        out.append(k)
    return out


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


def _sample_matrix_labeling(poset, realm_config, seed):
    from .dynamics import antichain_rowmotion

    def probe(g):
        antichain_rowmotion(poset, g, mode="transfer")
        return g

    return sample_matrix(poset, realm_config, seed, probe)


def draw_fp_labels(rng, n, d, p):
    """One draw from ``rng``: the central constant c in [1, p), then d*d entries
    in [0, p) per element.  Returns (labels, c), labels as n flat row-major
    tuples in id order; no realm is built, so the fuzzer can draw per attempt."""
    c = rng.randrange(1, p)
    entries = iter([rng.randrange(p) for _ in range(n * d * d)])
    return list(zip(*[entries] * (d * d))), c


def _draw_matrix_labeling(n, realm_config, rng):
    d = int(realm_config["d"])
    if realm_config["realm"] == "matp":
        p = int(realm_config["p"])
        labels, c = draw_fp_labels(rng, n, d, p)
        return Labeling(FpMatrixRealm(p, d, c=c), labels)
    # c is drawn even when the config gives one, so the entries do not depend on it
    drawn = Fraction(rng.randrange(1, 64), rng.randrange(1, 64))
    realm = realm_from_config({"c": drawn, **realm_config})
    return Labeling(realm, [tuple(Fraction(rng.randrange(-32, 33), rng.randrange(1, 17))
                                  for _ in range(d * d)) for _ in range(n)])
