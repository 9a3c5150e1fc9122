"""Fiber words of labelings on [a]x[b] and the homomesy checks they drive.

Fibers come from ``poset.fibers``: positive fiber k is row k, negative fiber
l is column l.  The word of a labeling g is a tuple of a+b values of its
realm.  Entry k <= a multiplies positive fiber k with the column index
descending: g(k,b) * ... * g(k,1).  Entry a+l is the constant times
inverses up negative fiber l with the row index ascending:
C * inv(g(1,l)) * ... * inv(g(a,l)).  Inversion reverses products, so that
is C * inv(g(a,l) * ... * g(1,l)) in every realm, the noncommutative ones
included, and the word inverts one product per column.  In the tropical
realm with constant 1 these specialize to the row sums and to 1 minus the
column sums, and on 0/1 indicator labelings to the binary fiber word of an
antichain.

One rowmotion step rotates the word one place to the right; hence fiber
statistics are homomesic: over the window g, rho(g), ..., rho^(a+b-1)(g)
(``orbit_window``, a+b-1 steps), positive fibers multiply to C^b and
negative fibers to C^a in a commutative realm (``fiber_product_checks``).
Read tropically (product is sum, C^k is k*c) that is the piecewise-linear
fiber-mean homomesy ``pl_homomesy_report`` checks.  It runs on integer
labels, where the realm's product is ``+``, so it sums each element's label
across the window once and checks each fiber as the integer sum of those
window totals: the same boolean as the realm fold, without its products.
Its window builds each labeling's longest-chain table (the tropical
``up_transfer``) once, for the rowmotion step (``rowmotion_pass``) and the
chain-polytope check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .dynamics import antichain_rowmotion, in_chain_polytope
from .poset import RectanglePoset, fibers, product_of_chains
from .realms import TropicalRealm
from .sampling import derive_seed, sample_chain_polytope_point


def st_word(poset, g):
    """The fiber word of g on a rectangle poset: a tuple of a+b realm values.

    Each negative entry is C * inv(g(a,l) * ... * g(1,l)), which is the
    paper's C * inv(g(1,l)) * ... * inv(g(a,l)) because inversion reverses
    products; the b column products are inverted and scaled by C in one
    ``inv_all`` (one modular inverse per word for matp with d <= 3).  A
    column product is singular exactly when one of its labels is (the
    determinant is multiplicative, and rational functions have no zero
    divisors), so a word is refused exactly when a single inverse would be.
    """
    if not isinstance(poset, RectanglePoset):
        raise ValueError("fiber words are defined on rectangle posets")
    r = g.realm
    positive, negative = fibers(poset.a, poset.b)
    entries = [r.product(g[x] for x in reversed(row)) for row in positive]
    # Row index descending: inversion reverses the product, so its inverse
    # has the word's factor order inv(g(1,l)), ..., inv(g(a,l)).  No element
    # is named, so a refusal reads "singular dxd matrix", as a single
    # inverse's does.
    columns = [r.product(g[x] for x in reversed(column)) for column in negative]
    entries += r.inv_all(columns, [None] * len(columns), scaled=True)
    return tuple(entries)


class RotationReport(NamedTuple):
    ok: bool
    per_index: tuple  # (index, matched) pairs, index 1..a+b


def check_rotation(poset, g, image=None):
    """Verify the word of the rowmotion image (default: the transfer-mode
    image of g) is the rightward cyclic shift of g's word
    (``word_rotation``)."""
    if image is None:
        image = antichain_rowmotion(poset, g)
    return word_rotation(g.realm, st_word(poset, g), st_word(poset, image))


def word_rotation(realm, before, after):
    """Whether the word ``after`` is the rightward cyclic shift of the word
    ``before``: entry i of ``after`` against entry i-1 of ``before`` (entry 1
    against entry a+b), index by index, under exact ``realm`` equality."""
    per_index = tuple((i, realm.eq(after[i - 1], before[i - 2]))
                      for i in range(1, len(before) + 1))
    return RotationReport(all(m for _, m in per_index), per_index)


def orbit_window(poset, g):
    """The a+b labelings [g, rho(g), ..., rho^(a+b-1)(g)] on [a]x[b].

    Costs a+b-1 rowmotion steps; rho^(a+b)(g) is not computed.
    """
    window = [g]
    for _ in range(poset.a + poset.b - 1):
        window.append(antichain_rowmotion(poset, window[-1]))
    return window


def _window_tables(poset, realm, values):
    """The orbit window of per-element ``values`` in the tropical ``realm``
    on [a]x[b], as a+b pairs (values, table), table the labeling's
    longest-chain table (``realm.up_transfer``).  Each of the a+b-1 steps
    is the tropical ``realm.rowmotion_pass`` from the table of the labeling
    before it; the last table is read by the chain-polytope check alone."""
    window = []
    for _ in range(poset.a + poset.b - 1):
        table = realm.up_transfer(poset, values)
        window.append((values, table))
        values = realm.rowmotion_pass(poset, table)
    window.append((values, realm.up_transfer(poset, values)))
    return window


def fiber_orbit_product(poset, window, fiber):
    """Product of one fiber statistic over an orbit window.

    ``window`` is ``orbit_window(poset, g)``; ``fiber`` is ("positive", k)
    or ("negative", l), 1-based.  The statistic of a labeling is the plain
    product of its labels along the fiber.  Requires a commutative realm
    (contract: C^b on positive fibers, C^a on negative).
    """
    a, b = poset.a, poset.b
    r = _window_realm(poset, window)
    kind, index = fiber
    members = dict(zip(("positive", "negative"), fibers(a, b))).get(kind)
    if members is None:
        raise ValueError(f"unknown fiber kind {kind!r}")
    if not 1 <= index <= len(members):
        raise ValueError(f"no {kind} fiber {index} on [{a}]x[{b}]")
    return _window_product(r, window, members[index - 1])


def _window_realm(poset, window):
    """The realm of an orbit window, or ValueError for a window of the wrong
    length or a noncommutative realm."""
    a, b = poset.a, poset.b
    if len(window) != a + b:
        raise ValueError(f"an orbit window on [{a}]x[{b}] has {a + b} labelings, "
                         f"got {len(window)}")
    r = window[0].realm
    if not r.commutative:
        raise ValueError("orbit fiber products are a commutative-realm contract")
    return r


def _window_product(r, window, members):
    """The product over ``window`` of each labeling's product along
    ``members``: labels along the fiber left to right, then across the
    window left to right."""
    return r.product(r.product([lab.values[x] for x in members]) for lab in window)


def constant_power(realm, k):
    """C^k in the given realm."""
    return realm.product(realm.constant() for _ in range(k))


def fiber_product_checks(poset, window):
    """Every fiber product over an orbit window against its contract.

    One {"fiber", "expected", "pass"} entry per fiber, positive fibers
    first: each positive fiber must multiply to C^b, each negative fiber
    to C^a.  The window is checked and the fibers are listed once for all
    a+b fibers; each product is the one ``fiber_orbit_product`` returns,
    formed by the same multiplications in the same order.
    """
    r = _window_realm(poset, window)
    out = []
    for kind, members, power in zip(("positive", "negative"), fibers(poset.a, poset.b),
                                    (poset.b, poset.a)):
        expected = constant_power(r, power)
        for k, fiber in enumerate(members, 1):
            got = _window_product(r, window, fiber)
            out.append({"fiber": f"{kind} {k}", "expected": f"C^{power}",
                        "pass": r.eq(got, expected)})
    return out


def pl_homomesy_report(a, b, samples, seed):
    """Orbit averages of fiber sums for sampled chain-polytope points.

    Runs tropical rowmotion with constant 1 on each sampled point over its
    orbit window (a+b labelings, a+b-1 steps).  Contract: every positive
    fiber mean is b/(a+b), every negative fiber mean is a/(a+b) (the fiber
    products C^b and C^a, read tropically), and the label-sum mean is
    ab/(a+b).  Failures record the sample seed.

    The window runs on integers.  The sampler gives each point as integer
    numerators over one scale S = max(60, W), and tropical rowmotion is
    homogeneous: max, + and negation commute with scaling the labels and c
    by S > 0.  So the numerators are iterated with c = S, and every check is
    scaled to match: labels in [0, S] with chain sums at most S, fiber
    products b*S and a*S, and a label sum of a*b*S over the window.  Each
    check gives the boolean it gives on the point itself with c = 1, and
    the same as over any other common denominator of the point.

    Each window labeling's longest-chain table is built once
    (``_window_tables``) and read twice: by its rowmotion step and by its
    chain-polytope check (``in_chain_polytope``).  With the sampler's pass
    that is a+b+1 longest-chain passes per sample.

    The fibers are listed once per report.  Each window's labels are summed
    per element once, and every fiber product is the integer sum of its
    members' window totals: tropical ``mul`` on ints is ``+`` and ``eq`` is
    ``==``, so each row (positive fiber) and each column (negative fiber)
    passes exactly when ``fiber_product_checks`` says it does.
    """
    poset = product_of_chains(a, b)
    positive, negative = fibers(a, b)
    failures = []
    membership_failures = []
    for idx in range(samples):
        sub = derive_seed(seed, "pl-sample", idx)
        numerators, scale = sample_chain_polytope_point(poset, random.Random(sub))
        window = _window_tables(poset, TropicalRealm(scale), numerators)
        if not all(in_chain_polytope(poset, values, table, scale)
                   for values, table in window[1:]):
            membership_failures.append(sub)
        totals = list(map(sum, zip(*(values for values, _ in window))))
        at = totals.__getitem__
        if not (all(sum(map(at, row)) == b * scale for row in positive)
                and all(sum(map(at, column)) == a * scale for column in negative)
                and sum(totals) == a * b * scale):
            failures.append(sub)
    return {
        "chains": [a, b],
        "samples": samples,
        "seed": seed,
        "positive_fiber_mean": str(Fraction(b, a + b)),
        "negative_fiber_mean": str(Fraction(a, a + b)),
        "label_sum_mean": str(Fraction(a * b, a + b)),
        "failing_sample_seeds": failures,
        "membership_failing_sample_seeds": membership_failures,
        "all_exact": not failures and not membership_failures,
    }
