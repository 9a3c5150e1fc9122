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


def redraw(draw, walk, *context):
    """``(walk(draw(rng)), k)`` for the first attempt k whose walk meets no
    singular value; attempt k draws from ``derive_seed(*context, k)``.  The
    one redraw rule of every sampled check (commands, fuzzer, fixtures).
    After ``RESAMPLE_LIMIT`` singular attempts raises ``SamplingExhausted``
    naming ``context[0]``, the seed to replay."""
    for k in range(RESAMPLE_LIMIT):
        drawn = draw(random.Random(derive_seed(*context, k)))
        try:
            return walk(drawn), k
        except SingularValue:
            continue
    raise SamplingExhausted(f"no nonsingular labeling after {RESAMPLE_LIMIT} attempts",
                            seed=context[0])


def sample_matrix(poset, realm_config, seed, walk):
    """``walk(g)`` on the first matrix labeling g that ``redraw`` accepts
    under (seed, "matrix").  A draw takes the central constant first
    (``draw_fp_labels`` for matp, a small rational for matq), then the
    entries; a config ``c`` replaces the drawn one.  The config's realm is
    checked once per call, not per draw."""
    shape = realm_from_config(realm_config)
    n, d = poset.n, shape.d

    def draw(rng):
        if shape.name == "matp":
            labels, drawn = draw_fp_labels(rng, n, d, shape.p)
        else:
            drawn = Fraction(rng.randrange(1, 64), rng.randrange(1, 64))
            labels = [tuple(Fraction(rng.randrange(-32, 33), rng.randrange(1, 17))
                            for _ in range(d * d)) for _ in range(n)]
        realm = shape if "c" in realm_config else realm_from_config({**realm_config, "c": drawn})
        return Labeling(realm, labels)

    return redraw(draw, walk, seed, "matrix")[0]


def draw_fp_labels(rng, n, d, p):
    """One draw from ``rng``: the central constant c in [1, p), then d*d entries
    in [0, p) per element.  Returns (labels, c), labels as n flat row-major
    tuples in id order; no realm is built, so the fuzzer can draw per attempt."""
    c = rng.randrange(1, p)
    entries = iter([rng.randrange(p) for _ in range(n * d * d)])
    return list(zip(*[entries] * (d * d))), c
