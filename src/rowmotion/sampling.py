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
    order = poset.topo_order
    values = [None] * poset.n
    for name, x in zip(names, order):
        values[x] = realm.variable(name)
    return Labeling(realm, values)


def sample_generic_labeling(poset, realm_config, seed, walk):
    """``walk(g)`` for a labeling g of ``poset`` sampled per the realm config
    block and ``seed``: the one sampler behind every sampled labeling.

    Symbolic realms are deterministic (fresh variables), and tropical realms
    draw rationals in [0, 1] with bounded denominators; each is walked once.
    A matrix labeling (matp, matq) is the first draw that ``redraw_one`` accepts
    under (seed, "matrix"): one whose walk, the caller's own work on it,
    meets no singular value.  A draw takes the central constant first
    (``draw_fp_labels`` for matp, a small rational for matq), then the
    entries; a config ``c`` replaces the drawn one.
    """
    if realm_config["realm"] == "ratfun":
        return walk(symbolic_labeling(poset))
    shape = realm_from_config(realm_config)
    if shape.name == "tropical":
        rng = random.Random(derive_seed(seed, "tropical"))
        return walk(Labeling(shape, [_bounded_rational(rng) for _ in range(poset.n)]))
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

    return redraw_one(draw, walk, seed, "matrix")[0]


def sample_chain_polytope_point(poset, rng, denominator=60):
    """One random rational point of the chain polytope, as ``(numerators,
    scale)``: the point is k / scale for each numerator k, in id order, and
    scale = max(``denominator``, W) for the W below.

    Draws integer numerators k in [0, denominator], one per element, where W
    is their largest chain sum (``FinitePoset.max_chain_sum``, one
    longest-chain pass over the covers).  The point's largest chain sum is
    min(1, W/denominator), so it is in the chain polytope, and on the facet
    of its longest chain exactly when W >= denominator.  One draw serves
    every poset; the law is not uniform on the polytope.  The point is
    returned over its one denominator, not as ``Fraction``s, so a caller
    that works on integers (``stword.pl_homomesy_report``) never forms or
    reduces a fraction.
    """
    numerators = [rng.randrange(denominator + 1) for _ in range(poset.n)]
    return numerators, max(denominator, poset.max_chain_sum(numerators))


def _bounded_rational(rng):
    den = rng.randrange(1, 33)
    return Fraction(rng.randrange(den + 1), den)


def redraw(draw, walk, contexts):
    """Per context, in order, ``(outcome, k)`` for the first attempt k whose
    walk met no singular value, or, after ``RESAMPLE_LIMIT`` singular
    attempts, a ``SamplingExhausted`` naming the context's first part, the
    seed to replay.  Attempt k of a context draws ``draw(rng)`` from
    ``derive_seed(*context, k)``.  The one redraw rule of every sampled
    check (commands, fuzzer, fixtures).

    ``walk`` takes the draws of the contexts still pending, in context
    order, and returns one outcome per draw: a ``SingularValue`` where that
    draw met one.  So the fuzzer walks the pending trials of a cell as one
    batch (one pass per step over the product of their matrix rings,
    ``kernel.FpToggleEngine.first_return``), and each trial's own attempts,
    seeds and limit are those of a batch of one (``redraw_one``)."""
    out = [None] * len(contexts)
    pending = list(range(len(contexts)))
    for k in range(RESAMPLE_LIMIT):
        if not pending:
            break
        drawn = [draw(random.Random(derive_seed(*contexts[i], k))) for i in pending]
        singular = []
        for i, outcome in zip(pending, walk(drawn)):
            if isinstance(outcome, SingularValue):
                singular.append(i)
            else:
                out[i] = (outcome, k)
        pending = singular
    for i in pending:
        out[i] = SamplingExhausted(f"no nonsingular labeling after {RESAMPLE_LIMIT} attempts",
                                   seed=contexts[i][0])
    return out


def redraw_one(draw, walk, *context):
    """``redraw`` on a batch of one, ``context``, for a ``walk`` of one draw
    that raises ``SingularValue``: ``(walk(draw(rng)), k)``, or raises the
    ``SamplingExhausted``."""
    def walk_batch(drawn):
        try:
            return [walk(drawn[0])]
        except SingularValue as exc:
            return [exc]

    (outcome,) = redraw(draw, walk_batch, [context])
    if isinstance(outcome, SamplingExhausted):
        raise outcome
    return outcome


def draw_fp_labels(rng, n, d, p):
    """One draw from ``rng``: the central constant c in [1, p), then d*d entries
    in [0, p) per element.  Returns (labels, c), labels as n flat row-major
    tuples in id order; no realm is built, so the fuzzer can draw per attempt."""
    c = rng.randrange(1, p)
    entries = iter([rng.randrange(p) for _ in range(n * d * d)])
    return list(zip(*[entries] * (d * d))), c
