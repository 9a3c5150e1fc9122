"""Property tests on random small posets over prime fields and tropically.

Posets are random DAGs of at most six elements, built through
``build_poset`` with element ids shuffled so the ids are not a linear
extension, or rectangles [a]x[b] with a, b <= 3 for the fiber word and the
fiber products.  Primes run from 2 (singular draws are common) to
2^64 - 59 (beyond fixed-width 128-bit sums of products).  Tropical
labelings take arbitrary rationals and an arbitrary constant.  Single
matrices, for the realm's own products and inverses, run up to d = 4.
Packed polynomials in 1 to 10 variables, with exponents up to just below
the field limit, are checked against the tuple-keyed oracle.  Symbolic
orbits on rectangles up to [2]x[4] and [3]x[3] tropicalize, at rational
points, to the tropical orbit.  The CLI's report writer is checked against
``json.dumps`` on JSON values of every kind.  Antichain rowmotion on random
posets is checked against the set-level oracle on every antichain.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rowmotion import (
    Labeling,
    SingularValue,
    TransferKind,
    TropicalRealm,
    antichain_rowmotion,
    build_poset,
    check_rotation,
    enumerate_antichains,
    fiber_product_checks,
    iterate,
    kernel,
    labeling_from_json,
    orbit_window,
    polytope_membership,
    product_of_chains,
    rowmotion_antichain,
    transfer,
)
from rowmotion import cli
from rowmotion.polynomials import MAX_DEGREE, Polynomial, monomial_gcd
from rowmotion.realms import FpMatrixRealm, FractionMatrixRealm, Realm, _MatrixRealm
from rowmotion.sampling import sample_chain_polytope_point, symbolic_labeling

from fuzz_oracle import engine_return
from poly_oracle import OraclePolynomial
from set_rowmotion import set_rowmotion
from toggle_fold import check_sweep_against_folds, random_linear_extension

PRIMES = (2, 3, 5, 101, 2**61 - 1, 2**64 - 59)
# a prime where sums of residues often pass p, and the fuzzing prime
RESIDUE_PRIMES = (5, 2**61 - 1)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def posets(draw):
    n = draw(st.integers(1, 6))
    ids = draw(st.permutations(range(n)))
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_poset(covers, elements=range(n))


RECTANGLES = st.builds(product_of_chains, st.integers(1, 3), st.integers(1, 3))


@st.composite
def matrix_labelings(draw, shapes=posets(), dims=st.integers(1, 3), primes=PRIMES):
    """(poset, d, p, per-element labels, central constant c, labeling)."""
    poset = draw(shapes)
    d = draw(dims)
    p = draw(st.sampled_from(primes))
    # half the entries near p: large residues are where products overflow
    entries = st.integers(0, p - 1) | st.integers(max(0, p - 256), p - 1)
    matrices = st.tuples(*[entries] * (d * d))
    labels = draw(st.lists(matrices, min_size=poset.n, max_size=poset.n))
    c = draw(st.integers(1, p - 1))
    g = Labeling(FpMatrixRealm(p, d, c=c), labels)
    return poset, d, p, labels, c, g


@st.composite
def fp_matrices(draw):
    """(realm, x, y): a d x d matrix realm mod p, d = 1..4, and two of its
    values.  Entries near p or in {0, 1, p - 1} are common, so singular
    matrices turn up at every p."""
    d = draw(st.integers(1, 4))
    p = draw(st.sampled_from(PRIMES))
    entries = (st.integers(0, p - 1) | st.integers(max(0, p - 256), p - 1)
               | st.sampled_from((0, 1, p - 1)))
    matrices = st.tuples(*[entries] * (d * d))
    return FpMatrixRealm(p, d), draw(matrices), draw(matrices)


@st.composite
def fp_realm_values(draw):
    """(realm, values): a matp realm with d = 1..4 at a prime of
    ``RESIDUE_PRIMES`` and one to six of its values, with the entries 0, 1
    and p - 1 common."""
    d = draw(st.integers(1, 4))
    p = draw(st.sampled_from(RESIDUE_PRIMES))
    entries = st.integers(0, p - 1) | st.sampled_from((0, 1, p - 1))
    values = draw(st.lists(st.tuples(*[entries] * (d * d)), min_size=1, max_size=6))
    return FpMatrixRealm(p, d, c=draw(st.integers(1, p - 1))), values


@st.composite
def fraction_matrices(draw):
    """(realm, x, y): a matq realm with d = 1..4 and two of its values."""
    d = draw(st.integers(1, 4))
    matrices = st.tuples(*[st.fractions()] * (d * d))
    return FractionMatrixRealm(d), draw(matrices), draw(matrices)


@st.composite
def json_matrices(draw):
    """(realm, m): a matp or matq realm with d = 1..4 and one of its values."""
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        p = draw(st.sampled_from(PRIMES))
        return FpMatrixRealm(p, d), draw(st.tuples(*[st.integers(0, p - 1)] * (d * d)))
    return FractionMatrixRealm(d), draw(st.tuples(*[st.fractions()] * (d * d)))


@st.composite
def tropical_labelings(draw):
    """(rectangle, labeling) with arbitrary rational labels and constant."""
    poset = draw(RECTANGLES)
    c = draw(st.fractions())
    values = draw(st.lists(st.fractions(), min_size=poset.n, max_size=poset.n))
    return poset, Labeling(TropicalRealm(c), values)


@st.composite
def weighted_posets(draw, weights):
    """(poset, one weight per element)."""
    poset = draw(posets())
    return poset, draw(st.lists(weights, min_size=poset.n, max_size=poset.n))


def _outcome(f):
    try:
        return f()
    except SingularValue:
        return SingularValue


def _refusal(f):
    """``f()``, or the message of the ``SingularValue`` it raises."""
    try:
        return f()
    except SingularValue as exc:
        return str(exc)


@PROPERTY
@given(matrix_labelings(dims=st.integers(1, 4)))
def test_kernel_step_equals_both_generic_modes(case):
    """The engine step and both generic modes equal the composition of the
    three transfer maps.  Where the composition refuses, transfer mode and
    the engine refuse with its message, naming the same element; toggle mode
    refuses too, naming the element it was toggling."""
    poset, d, p, labels, c, g = case
    oracle = _refusal(lambda: transfer(TransferKind.DOWN, poset, transfer(
        TransferKind.COMPLEMENT, poset, transfer(TransferKind.UP_INV, poset, g))))
    eng = kernel.make_engine(poset, d, p)
    got = _refusal(lambda: eng.step(labels, c))
    via_transfer = _refusal(lambda: antichain_rowmotion(poset, g, mode="transfer"))
    toggles = _outcome(lambda: antichain_rowmotion(poset, g, mode="toggles"))
    if isinstance(oracle, str):
        assert got == via_transfer == oracle
        assert toggles is SingularValue
        return
    assert toggles is not SingularValue
    assert not isinstance(got, str) and not isinstance(via_transfer, str)
    assert Labeling(g.realm, got).eq(oracle)
    assert via_transfer.eq(oracle) and toggles.eq(oracle)


@PROPERTY
@given(matrix_labelings(dims=st.integers(1, 4)), st.fractions(),
       st.lists(st.fractions(), min_size=6, max_size=6), st.randoms(use_true_random=False))
def test_toggle_sweep_equals_the_literal_fold(case, c, fractions, rng):
    """On shuffled-id posets toggle mode equals toggling one element at a
    time along ``topo_order``: the same matp values or the same refusal,
    naming the same element, and the same tropical values.  Along a random
    linear extension the fold is equal under the realm, or refuses too."""
    poset, _, _, _, _, g = case
    ext = random_linear_extension(poset, rng)
    for lab in (g, Labeling(TropicalRealm(c), fractions[:poset.n])):
        check_sweep_against_folds(poset, lab, ext)


@PROPERTY
@given(matrix_labelings())
def test_transfers_undo_their_inverses(case):
    poset, _, _, _, _, g = case
    for inverse, forward in ((TransferKind.DOWN_INV, TransferKind.DOWN),
                             (TransferKind.UP_INV, TransferKind.UP)):
        try:
            back = transfer(forward, poset, transfer(inverse, poset, g))
        except SingularValue:
            continue
        assert back.eq(g)


@PROPERTY
@given(fp_matrices())
def test_fp_matrix_ops_match_loops_and_gauss_jordan(case):
    """The realm's sum is entrywise mod p, its product is the triple-loop
    product mod p, and its inverse is the Gauss-Jordan one, refusing the
    same singular matrices with the same message (for d <= 3 the realm
    computes products and inverses in closed form, which replaces the
    Gauss-Jordan ``_MatrixRealm._invert``)."""
    realm, x, y = case
    d, p = realm.d, realm.p
    assert realm.add(x, y) == tuple(
        (x[i * d + j] + y[i * d + j]) % p for i in range(d) for j in range(d))
    assert realm.mul(x, y) == tuple(
        sum(x[i * d + k] * y[k * d + j] for k in range(d)) % p
        for i in range(d) for j in range(d))
    out, bad = _MatrixRealm._invert(realm, (x,))
    assert _refusal(lambda: realm.inv(x)) == (f"singular {d}x{d} matrix" if bad == 0
                                              else out[0])


def _reduced(realm, m):
    return len(m) == realm.d * realm.d and all(0 <= v < realm.p for v in m)


@PROPERTY
@given(fp_realm_values())
def test_fp_matrix_ops_return_reduced_values(case):
    """Every value that the matp ``add``, ``mul``, ``inv`` and ``inv_all``
    (scaled or not) return has d*d entries in [0, p): matp values enter
    reduced, and no operation makes an unreduced one."""
    realm, values = case
    for x, y in zip(values, values[1:] + values[:1]):
        assert _reduced(realm, realm.add(x, y)) and _reduced(realm, realm.mul(x, y))
        inv = _outcome(lambda: realm.inv(x))
        assert inv is SingularValue or _reduced(realm, inv)
    for scaled in (False, True):
        out = _outcome(lambda: realm.inv_all(values, range(len(values)), scaled))
        assert out is SingularValue or all(_reduced(realm, m) for m in out)


@PROPERTY
@given(matrix_labelings(dims=st.integers(1, 4), primes=RESIDUE_PRIMES), st.integers(1, 3))
def test_engine_steps_are_transfer_mode_steps(case, steps):
    """Step after step, the engine's labels are the values of transfer-mode
    ``antichain_rowmotion``, or both refuse with one message; and
    ``first_return`` is the first step back at the start, or that refusal."""
    poset, d, p, labels, c, g = case
    eng = kernel.make_engine(poset, d, p)
    returned = _refusal(lambda: engine_return(eng, labels, c, steps))
    start = g.values
    for m in range(1, steps + 1):
        got = _refusal(lambda: eng.step(labels, c))
        want = _refusal(lambda: antichain_rowmotion(poset, g, mode="transfer"))
        if isinstance(want, str):
            assert got == returned == want
            return
        assert tuple(got) == want.values
        if want.values == start:
            assert returned == m
            return
        labels, g = got, want
    assert returned == 0


@PROPERTY
@given(fraction_matrices())
def test_fraction_matrix_ops_keep_fraction_entries(case):
    """The matq sum and product are entrywise and triple-loop exact, with
    ``Fraction`` entries, also against the realm's own identity."""
    realm, x, y = case
    d = realm.d
    assert realm.add(x, y) == tuple(a + b for a, b in zip(x, y))
    assert realm.mul(x, y) == tuple(sum(x[i * d + k] * y[k * d + j] for k in range(d))
                                    for i in range(d) for j in range(d))
    for m in (realm.add(x, y), realm.mul(x, y), realm.add(realm.one(), x),
              realm.mul(realm.constant(), y)):
        assert len(m) == d * d and all(type(v) is Fraction for v in m)


@PROPERTY
@given(json_matrices())
def test_matrix_json_round_trips_and_refuses_other_shapes(case):
    """A matrix value goes to JSON as d rows of d entries and comes back
    equal; a wrong row count, a ragged row, a scalar and a non-list are
    refused."""
    realm, m = case
    rows = json.loads(json.dumps(realm.value_to_json(m)))
    assert len(rows) == realm.d and all(len(row) == realm.d for row in rows)
    assert realm.value_from_json(rows) == m
    for bad in (rows[:-1], rows[:-1] + [rows[-1][:-1]], rows[0][0], json.dumps(rows)):
        with pytest.raises(ValueError):
            realm.value_from_json(bad)


@PROPERTY
@given(matrix_labelings(RECTANGLES))
def test_fiber_word_rotates(case):
    """The noncommutative fiber word of rho(g) is the word of g shifted one
    place right, over matrices of every size d <= 3."""
    poset, _, _, _, _, g = case
    image = _outcome(lambda: antichain_rowmotion(poset, g))
    if image is SingularValue:
        return
    assert check_rotation(poset, g, image=image).ok


def _fiber_products_hit_their_constants(poset, g):
    """Over an orbit window every positive fiber multiplies to C^b and every
    negative fiber to C^a, or rowmotion met a singular value."""
    window = _outcome(lambda: orbit_window(poset, g))
    if window is SingularValue:
        return
    checks = fiber_product_checks(poset, window)
    assert len(checks) == poset.a + poset.b
    assert all(f["pass"] for f in checks)


TROPICAL_NUMBERS = st.integers(-10**30, 10**30) | st.fractions()


@PROPERTY
@given(TROPICAL_NUMBERS, st.lists(TROPICAL_NUMBERS, max_size=12), st.booleans())
def test_tropical_inv_all_is_the_default_batch(c, values, scaled):
    """The one-pass tropical batch returns the values of ``Realm.inv_all``
    (``inv_at`` per element, then ``mul`` by c), and the same int or
    Fraction type for each, with and without ``scaled``."""
    r = TropicalRealm(c)
    elements = range(len(values))
    got = r.inv_all(values, elements, scaled)
    want = Realm.inv_all(r, values, elements, scaled)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


@st.composite
def matrix_batches(draw, kind, d):
    """(realm, values): a ``kind`` realm of d x d matrices, with a constant
    c other than 1, and zero to five of its values.  A quarter of the
    values are made singular (the second row a copy of the first, or 0 when
    d = 1), so refusals come at every place and most batches invert."""
    if kind == "matp":
        p = draw(st.sampled_from(PRIMES[1:]))
        realm = FpMatrixRealm(p, d, c=draw(st.integers(2, p - 1)))
        entries = st.integers(0, p - 1) | st.sampled_from((0, 1, p - 1))
    else:
        entries = st.fractions(-9, 9, max_denominator=9)
        realm = FractionMatrixRealm(d, c=draw(entries.filter(lambda c: c not in (0, 1))))
    values = []
    for _ in range(draw(st.integers(0, 5))):
        m = [realm._norm(e) for e in draw(st.tuples(*[entries] * (d * d)))]
        if draw(st.sampled_from((False, False, False, True))):
            m[d:2 * d] = m[:d] if d > 1 else [realm._norm(0)]
        values.append(tuple(m))
    return realm, values


def _batch_or_refusal(f):
    """``f()``, or the message and element of the ``SingularValue`` it
    raises."""
    try:
        return f()
    except SingularValue as exc:
        return str(exc), exc.element


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("kind,d", [("matp", d) for d in range(1, 6)]
                         + [("matq", d) for d in range(1, 5)])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_matrix_inv_all_is_the_default_batch(kind, d, scaled, data):
    """The one batch inverse of the matrix realms (closed form for matp
    with d <= 3, Gauss-Jordan past it and for matq) returns the values and
    entry types of ``Realm.inv_all``, which inverts each value by
    ``inv_at`` and then multiplies by C * I, scaled or not; where the
    default refuses, it raises the same message naming the same element."""
    r, values = data.draw(matrix_batches(kind, d))
    elements = [10 + k for k in range(len(values))]
    got = _batch_or_refusal(lambda: r.inv_all(values, elements, scaled))
    want = _batch_or_refusal(lambda: Realm.inv_all(r, values, elements, scaled))
    assert got == want
    if isinstance(want, list):
        assert [type(v) for m in got for v in m] == [type(v) for m in want for v in m]


@PROPERTY
@given(tropical_labelings())
def test_tropical_fiber_sums_hit_their_constants(case):
    """Tropically the contract reads: fiber sums over the window are b*c and
    a*c, for any rational labels and constant c."""
    _fiber_products_hit_their_constants(*case)


@PROPERTY
@given(matrix_labelings(RECTANGLES, st.just(1)))
def test_scalar_fiber_products_hit_their_constants(case):
    poset, _, _, _, _, g = case
    _fiber_products_hit_their_constants(poset, g)


@PROPERTY
@given(matrix_labelings(RECTANGLES), st.booleans())
def test_labeling_json_round_trips(case, coordinate_keys):
    """``labeling_from_json`` reads back the ``labels`` and ``realm`` blocks
    that reports write, with id or "i,j" keys."""
    poset, _, _, _, _, g = case
    obj = json.loads(json.dumps(g.to_json()))
    if coordinate_keys:
        obj["labels"] = {"{},{}".format(*poset.coord(int(x))): v
                         for x, v in obj["labels"].items()}
    back = labeling_from_json(obj, poset=poset)
    assert back.realm.config() == g.realm.config()
    assert back.values == g.values


# ints, Fractions, and both mixed with ties common (2 against Fraction(2))
CHAIN_WEIGHTS = st.one_of(
    weighted_posets(st.integers(-60, 60)), weighted_posets(st.fractions()),
    weighted_posets(st.integers(-3, 3) | st.integers(-3, 3).map(Fraction)))
# element 0 is covered by 1 and 2, and the longer chain runs through the second
FORK = build_poset([(0, 1), (0, 2)], elements=range(3))


@PROPERTY
@given(CHAIN_WEIGHTS)
@example((FORK, [0, 1, 5]))
@example((FORK, [Fraction(1, 2), Fraction(1, 3), 2]))
def test_max_chain_sum_is_the_largest_maximal_chain_sum(case):
    """The longest-chain pass agrees with summing over every maximal chain,
    for int and Fraction weights of any sign, and is the largest entry of
    the tropical ``up_transfer`` table at a minimal element."""
    poset, weights = case
    got = poset.max_chain_sum(weights)
    assert got == max(sum(weights[x] for x in chain) for chain in poset.maximal_chains())
    table = TropicalRealm().up_transfer(poset, weights)
    assert got == max((table[x] for x in poset.minimal), default=0)
    if all(type(w) is int for w in weights):
        assert type(got) is int


@PROPERTY
@given(CHAIN_WEIGHTS, TROPICAL_NUMBERS)
@example((FORK, [0, 1, 5]), 1)
@example((FORK, [Fraction(1, 2), Fraction(1, 3), 2]), Fraction(3, 2))
@example((FORK, [0, 1, Fraction(1)]), 1)  # the covers tie as 1 and Fraction(1)
def test_tropical_up_transfer_is_the_default_fold_and_the_transfer(case, c):
    """The tropical ``up_transfer`` (the longest-chain DP) returns the
    values and the int or Fraction types of the default ``add``/``mul``
    fold, and the values of the inverse-up ``transfer``, at any c."""
    poset, weights = case
    r = TropicalRealm(c)
    got = r.up_transfer(poset, weights)
    want = Realm.up_transfer(r, poset, weights)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    assert got == list(transfer(TransferKind.UP_INV, poset, Labeling(r, weights)).values)


# element 0 covers 1 and 2; at the example's weights and c = 2 their E values
# tie as the int 1 and Fraction(1), and the lower-cover fold keeps the first
JOIN = build_poset([(1, 0), (2, 0)], elements=range(3))


@PROPERTY
@given(CHAIN_WEIGHTS, TROPICAL_NUMBERS)
@example((FORK, [0, 1, 5]), 1)
@example((FORK, [Fraction(1, 2), Fraction(1, 3), 2]), Fraction(3, 2))
@example((JOIN, [0, 1, Fraction(1)]), 2)
def test_tropical_rowmotion_pass_is_the_default_fold(case, c):
    """The tropical ``rowmotion_pass`` (c - v, then E(x) - the max over
    lower covers) returns the values and the int or Fraction types of the
    default ``Realm.rowmotion_pass``, the generic fold on the realm's
    ``mul``, ``add`` and ``inv_all``, from the tropical ``up_transfer``, at
    any c."""
    poset, weights = case
    r = TropicalRealm(c)
    D = r.up_transfer(poset, weights)
    got = r.rowmotion_pass(poset, D)
    want = Realm.rowmotion_pass(r, poset, D)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


DENOMINATORS = st.sampled_from((0, 1, 59, 60, 62, 63, 64, 127))


def _randrange_chain_polytope_point(poset, rng, denominator):
    """The sampler written with ``randrange``: one draw of numerators,
    scaled by the larger of ``denominator`` and their largest chain sum."""
    numerators = [rng.randrange(denominator + 1) for _ in range(poset.n)]
    worst = poset.max_chain_sum(numerators)
    return [Fraction(k, max(denominator, worst)) for k in numerators], worst


@PROPERTY
@given(posets(), st.integers(0, 2**64), DENOMINATORS)
def test_chain_polytope_sampler_draws_like_randrange(poset, seed, denominator):
    """The sampler's point (or, at denominator 0, the point's division by
    zero) and final generator state are those of one ``randrange`` draw per
    element scaled by max(denominator, W), W the draw's largest chain sum.
    The point is in the chain polytope, its entries share that one
    denominator, and its largest chain sum is 1 exactly when W >=
    denominator."""
    ours, theirs = random.Random(seed), random.Random(seed)
    numerators, scale = sample_chain_polytope_point(poset, ours, denominator)
    try:
        point = [Fraction(k, scale) for k in numerators]
    except ZeroDivisionError:
        point = ZeroDivisionError
    try:
        expected, worst = _randrange_chain_polytope_point(poset, theirs, denominator)
    except ZeroDivisionError:
        expected = ZeroDivisionError
    assert point == expected
    assert ours.getstate() == theirs.getstate()
    if point is ZeroDivisionError:
        assert denominator == 0
        return
    assert scale == max(denominator, worst)
    assert polytope_membership(poset, point)
    assert all((scale * v).denominator == 1 for v in point)
    assert (poset.max_chain_sum(point) == 1) == (worst >= denominator)


@PROPERTY
@given(posets())
def test_antichain_rowmotion_is_the_set_level_oracle(poset):
    """On every antichain of a random poset, the lifted step at its
    indicator (``rowmotion_antichain``) is saturate, complement, take
    minimal elements."""
    for s in enumerate_antichains(poset):
        assert rowmotion_antichain(poset, s) == set_rowmotion(poset, s)


@PROPERTY
@given(tropical_labelings(), st.integers(1, 10**6))
def test_tropical_rowmotion_is_homogeneous(case, scale):
    """Scaling the labels and c by a positive integer L scales the rowmotion
    image by L, and the chain polytope dilated by L holds the scaled labels
    exactly when the unit one holds the originals."""
    poset, g = case
    scaled = Labeling(TropicalRealm(scale * g.realm.c), [scale * v for v in g.values])
    image = antichain_rowmotion(poset, scaled)
    assert image.values == tuple(scale * v for v in antichain_rowmotion(poset, g).values)
    assert (polytope_membership(poset, scaled.values, scale)
            == polytope_membership(poset, g.values))


# Symbolic orbits for the tropicalization property: whole orbits, and 4 steps
# of [3]x[3], whose whole orbit is too slow here.
SYMBOLIC_ORBITS = [(2, 3, None), (3, 2, None), (2, 4, None), (4, 2, None), (3, 3, 4)]


@lru_cache(maxsize=None)
def _symbolic_orbit(a, b, steps):
    """[a]x[b] and its symbolic orbit's labelings, computed once per shape."""
    p = product_of_chains(a, b)
    return p, iterate(p, symbolic_labeling(p), steps=steps).labelings


def _tropicalize(f, point):
    """max <e, point> over the exponents e of f's numerator, minus the same
    over its denominator; ``point`` gives C, then the variables in order."""
    def top(poly):
        return max(sum(k * v for k, v in zip(e, point)) for e in poly.exponents())
    return top(f.num) - top(f.den)


@pytest.mark.parametrize("a,b,steps", SYMBOLIC_ORBITS)
@settings(PROPERTY, max_examples=5)
@given(st.lists(TROPICAL_NUMBERS, min_size=10, max_size=10))
def test_birational_orbit_tropicalizes_to_the_tropical_orbit(a, b, steps, point):
    """Every coefficient of every symbolic label is positive, so each label
    tropicalizes: at a rational point, with C = c, it is the label of the
    tropical orbit of the tropicalized start at every element and step."""
    p, labelings = _symbolic_orbit(a, b, steps)
    assert all(coeff > 0 for g in labelings for f in g.values
               for coeff in chain(f.num.terms.values(), f.den.terms.values()))
    cur = Labeling(TropicalRealm(point[0]), [_tropicalize(f, point) for f in labelings[0].values])
    for k, g in enumerate(labelings):
        assert [_tropicalize(f, point) for f in g.values] == list(cur.values), f"step {k}"
        cur = antichain_rowmotion(p, cur)


def _bounded_exponents(n, cap):
    """Exponent tuples in n variables of total degree at most ``cap``."""
    def scale_down(raw):
        total = sum(raw)
        return raw if total <= cap else tuple(k * cap // total for k in raw)
    return st.tuples(*[st.integers(0, cap)] * n).map(scale_down)


@st.composite
def polynomial_pairs(draw):
    """(nvars, term dict f, term dict g) in 1..10 variables, each of degree
    at most MAX_DEGREE // 2, so that f * g reaches just below the field
    limit.  Small degree caps make terms collide, cancel and divide."""
    n = draw(st.integers(1, 10))
    cap = draw(st.sampled_from((1, 2, 4, MAX_DEGREE // 2)))
    coefficients = st.integers(-9, 9) | st.integers(-2**70, 2**70)
    terms = st.dictionaries(_bounded_exponents(n, cap), coefficients, max_size=6)
    return n, draw(terms), draw(terms)


def _view(p):
    """A packed or oracle polynomial as {exponent tuple: coefficient}, or None.
    Every packed monomial must carry the sum of its exponents as its degree,
    and a packed polynomial's kept lead must be its largest monomial."""
    if p is None:
        return None
    if isinstance(p, OraclePolynomial):
        return p.terms
    assert all(p.pack(p.unpack(m)) == m for m in p.terms)
    assert p.lead == (max(p.terms) if p.terms else None)
    return p.exponents()


@PROPERTY
@given(polynomial_pairs())
def test_packed_polynomials_match_the_tuple_oracle(case):
    """Sums, products, quotients, negations, rendering, leading terms and
    monomial floors of packed polynomials equal those of the tuple-keyed
    oracle, ``exact_div`` refuses exactly where the oracle does, and every
    polynomial built keeps its largest monomial as its lead (``_view``)."""
    n, fd, gd = case
    f, g = Polynomial(n, fd), Polynomial(n, gd)
    F, G = OraclePolynomial(n, fd), OraclePolynomial(n, gd)
    names = ("C",) + tuple(f"x{i}" for i in range(1, n))
    assert _view(f) == _view(F)
    assert _view(g) == _view(G)
    assert _view(f + g) == _view(F + G)
    assert _view(f - g) == _view(F - G)
    product, oracle_product = f * g, F * G
    assert _view(product) == _view(oracle_product)
    for p, P in ((f, F), (g, G), (f + g, F + G), (f - g, F - G), (product, oracle_product)):
        assert p.render(names) == P.render(names)
        assert p.total_degree() == P.total_degree()
        floor = monomial_gcd(p.nvars, p.terms) if p.terms else 0
        assert p.unpack(floor) == P.monomial_floor()
        assert _view(p.shift_down(floor)) == _view(P.shift_down(P.monomial_floor()))
        assert _view(-p) == _view(p.scale(-1)) == _view(-P)
        if P.terms:
            assert p.unpack(p.leading_monomial()) == P.leading_monomial()
            assert p.leading_coefficient() == P.leading_coefficient()
    if F.terms or G.terms:
        floors = [P.monomial_floor() for P in (F, G) if P.terms]
        assert (f.unpack(monomial_gcd(n, chain(f.terms, g.terms)))
                == tuple(min(column) for column in zip(*floors)))
    if G.terms:
        assert _view(product.exact_div(g)) == _view(oracle_product.exact_div(G)) == _view(F)
        assert _view(f.exact_div(g)) == _view(F.exact_div(G))
        bumped, oracle_bumped = product + f, oracle_product + F
        assert _view(bumped.exact_div(g)) == _view(oracle_bumped.exact_div(G))


@PROPERTY
@given(st.integers(1, 10), st.data())
def test_products_past_the_field_limit_raise(n, data):
    """A product of total degree MAX_DEGREE is exact; one degree more raises
    ``ValueError`` instead of carrying into the next field, whether one
    variable or several carry the degree."""
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    a = data.draw(st.integers(0, MAX_DEGREE))
    x, y = [0] * n, [0] * n
    x[i], y[j] = a, MAX_DEGREE - a
    f, g = Polynomial(n, {tuple(x): 1}), Polynomial(n, {tuple(y): 1})
    top = [u + v for u, v in zip(x, y)]
    assert (f * g).exponents() == {tuple(top): 1}
    k = data.draw(st.integers(0, n - 1))
    top[k] += 1
    with pytest.raises(ValueError):
        Polynomial(n, {tuple(top): 1})
    y[k] += 1
    with pytest.raises(ValueError):
        f * Polynomial(n, {tuple(y): 1})


# keys and strings with non-ASCII (past the BMP too, and a lone surrogate),
# control, quote and backslash characters
JSON_TEXT = st.text(st.sampled_from('a"\\/\n\x00\x1f\x7fé€\U0001f600\ud800'))
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(min_value=10**40)
                | st.integers(max_value=-10**40) | st.floats() | JSON_TEXT)


class _Int(int):
    """An int subclass: ``json.dumps`` writes it as an int, and the writer
    leaves any list holding one to ``json.dumps``."""


# matrix labels (non-empty lists of non-empty int rows), which the writer
# joins in one piece, and near misses it must leave to the other paths:
# one item that is a row holding a bool or an int subclass, an empty row,
# a str or a row of strs, a tuple row, or a bare int
INT_ROWS = st.lists(st.lists(st.integers(), min_size=1, max_size=4), max_size=3)
NEAR_MISS = (st.lists(st.integers() | st.booleans() | st.integers().map(_Int), min_size=1)
             .filter(lambda row: any(type(v) is not int for v in row))
             | st.just([]) | JSON_TEXT | st.lists(JSON_TEXT, min_size=1)
             | st.lists(st.integers(), min_size=1).map(tuple) | st.integers())
MATRICES = st.lists(st.lists(st.integers(), min_size=1, max_size=4), min_size=1, max_size=4)
MATRIX_NEAR_MISSES = st.tuples(INT_ROWS, NEAR_MISS, INT_ROWS).map(
    lambda t: t[0] + [t[1]] + t[2])
JSON_VALUES = st.recursive(
    JSON_SCALARS | st.lists(st.integers()) | st.lists(JSON_TEXT)
    | st.lists(st.integers() | st.booleans()) | MATRICES | MATRIX_NEAR_MISSES,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner) | st.dictionaries(st.integers(), inner)),
    max_leaves=12)


@PROPERTY
@given(JSON_VALUES)
def test_report_writer_is_json_dumps(value):
    """The CLI writes a report as ``json.dumps(indent=2, sort_keys=True)``
    would, byte for byte: lists of ints or strs and matrix labels, which it
    joins itself, and everything it leaves to ``json.dumps`` (bools beside
    ints, floats with inf and nan, None, tuples, empty and nested
    containers, int keys, rows that are not lists of ints)."""
    assert cli._dump(value) == json.dumps(value, indent=2, sort_keys=True)
