"""Realm operation tables, matrix inverses, and the sampling contract."""

import random
from fractions import Fraction

import pytest

from rowmotion import (
    FpMatrixRealm,
    FractionMatrixRealm,
    Labeling,
    RationalFunctionRealm,
    SamplingExhausted,
    SingularValue,
    TropicalRealm,
    antichain_rowmotion,
    product_of_chains,
    realm_from_config,
    sample_generic_labeling,
)
from rowmotion.realms import FUZZ_PRIME, symbolic_variable_names
from rowmotion.sampling import (
    RESAMPLE_LIMIT,
    derive_seed,
    redraw,
    redraw_one,
    symbolic_labeling,
)

from poly_oracle import evaluate_ratfun_mod

PRIME = 10007


def rand_matrix(rng, realm):
    dd = realm.d * realm.d
    if isinstance(realm, FpMatrixRealm):
        return tuple(rng.randrange(realm.p) for _ in range(dd))
    return tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(dd))


def adjugate_inverse(realm, m):
    """Oracle: cofactor-expansion inverse for d <= 3, on flat row-major
    matrices (rows are split out here, and the result is flattened)."""
    d = realm.d
    m = [m[r:r + d] for r in range(0, d * d, d)]
    if isinstance(realm, FpMatrixRealm):
        p = realm.p
        norm = lambda v: v % p
        scal_inv = lambda v: pow(v, -1, p)
    else:
        norm = Fraction
        scal_inv = lambda v: 1 / v

    def det2(a, b, c, dd):
        return norm(a * dd - b * c)

    if d == 1:
        det = norm(m[0][0])
        if det == 0:
            return None
        return (scal_inv(det),)
    if d == 2:
        det = det2(m[0][0], m[0][1], m[1][0], m[1][1])
        if det == 0:
            return None
        di = scal_inv(det)
        return (norm(m[1][1] * di), norm(-m[0][1] * di),
                norm(-m[1][0] * di), norm(m[0][0] * di))
    det = norm(
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    if det == 0:
        return None
    di = scal_inv(det)
    cof = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != j]
            minor = det2(m[rows[0]][cols[0]], m[rows[0]][cols[1]],
                         m[rows[1]][cols[0]], m[rows[1]][cols[1]])
            cof[i][j] = norm((-1) ** (i + j) * minor)
    return tuple(norm(cof[j][i] * di) for i in range(3) for j in range(3))


def test_tropical_table():
    r = TropicalRealm(Fraction(1))
    a, b = Fraction(3, 10), Fraction(6, 10)
    assert r.add(a, b) == Fraction(6, 10)
    assert r.mul(a, b) == Fraction(9, 10)
    assert r.inv(a) == Fraction(-3, 10)
    assert r.one() == 0
    assert r.constant() == 1
    assert r.mul(a, r.inv(a)) == r.one()
    assert r.sum([]) == r.one()
    # integral constants and the empty sum stay ints, so integer labelings
    # are iterated without Fractions; the text is the same either way
    assert type(r.one()) is int and type(r.constant()) is int
    assert type(TropicalRealm(Fraction(6, 3)).c) is int
    assert TropicalRealm(Fraction(3, 2)).c == Fraction(3, 2)
    assert TropicalRealm(Fraction(4, 2)).config() == {"realm": "tropical", "c": "2"}
    assert r.value_to_json(r.mul(2, r.inv(5))) == r.value_to_json(Fraction(-3)) == "-3"


def test_rational_function_realm_inverse():
    from rowmotion.ratfun import RationalFunction

    r = RationalFunctionRealm(["x", "y"])
    s = r.add(r.variable("x"), r.variable("y"))
    assert r.eq(r.mul(s, r.inv(s)), r.one())
    with pytest.raises(SingularValue):
        r.inv(RationalFunction.constant(r.nvars, 0))


def test_matrix_inverse_against_adjugate_oracle():
    rng = random.Random(31)
    for d in (1, 2, 3):
        for realm in (FpMatrixRealm(PRIME, d, c=3), FractionMatrixRealm(d)):
            done = 0
            while done < 25:
                m = rand_matrix(rng, realm)
                oracle = adjugate_inverse(realm, m)
                if oracle is None:
                    with pytest.raises(SingularValue):
                        realm.inv(m)
                    continue
                inv = realm.inv(m)
                assert inv == oracle
                assert realm.eq(realm.mul(m, inv), realm.one())
                assert realm.eq(realm.mul(inv, m), realm.one())
                done += 1


def test_singular_matrix_raises():
    r = FpMatrixRealm(PRIME, 2, c=1)
    with pytest.raises(SingularValue):
        r.inv((0, 0, 0, 0))
    with pytest.raises(SingularValue):
        r.inv((1, 2, 2, 4))


def test_dimension_mismatch_rejected():
    """A matrix value's shape is checked where it is read, so the realm's
    operations can trust it: at d = 1 and d = 4, a flat list, d - 1 rows and
    a ragged row are refused, naming the shape."""
    for d in (1, 4):
        for r in (FpMatrixRealm(PRIME, d, c=1), FractionMatrixRealm(d)):
            rows = [[str(i + j) for j in range(d)] for i in range(d)]
            assert r.value_from_json(rows) == tuple(r._norm(i + j)
                                                    for i in range(d) for j in range(d))
            ragged = rows[:-1] + [rows[-1] + ["1"]]
            for bad in ([v for row in rows for v in row], rows[:-1], ragged):
                with pytest.raises(ValueError, match=f"^a {r.name} label must be {d} lists "
                                                     f"of {d} entries$"):
                    r.value_from_json(bad)


def test_commutative_realms_commute_on_samples():
    rng = random.Random(55)
    trop = TropicalRealm(Fraction(1))
    for _ in range(50):
        x = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        y = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        assert trop.mul(x, y) == trop.mul(y, x)
    rf = RationalFunctionRealm(["x", "y"])
    vx, vy = rf.variable("x"), rf.variable("y")
    assert rf.eq(rf.mul(rf.add(vx, vy), vx), rf.mul(vx, rf.add(vx, vy)))
    scal = FpMatrixRealm(PRIME, 1, c=2)
    for _ in range(50):
        x = (rng.randrange(PRIME),)
        y = (rng.randrange(PRIME),)
        assert scal.mul(x, y) == scal.mul(y, x)


def test_constant_is_central():
    rng = random.Random(8)
    for d in (1, 2, 3):
        r = FpMatrixRealm(PRIME, d, c=rng.randrange(1, PRIME))
        for _ in range(20):
            m = rand_matrix(rng, r)
            assert r.mul(r.constant(), m) == r.mul(m, r.constant())


def test_skew_inverse_sum_identity():
    """inv(inv x + inv y) equals y inv(x+y) x and x inv(x+y) y on sampled
    invertible pairs, at every dimension."""
    rng = random.Random(77)
    for d in (1, 2, 3):
        r = FpMatrixRealm(PRIME, d, c=1)
        done = 0
        while done < 100:
            x, y = rand_matrix(rng, r), rand_matrix(rng, r)
            try:
                lhs = r.inv(r.add(r.inv(x), r.inv(y)))
                mid = r.inv(r.add(x, y))
            except SingularValue:
                continue
            assert r.eq(lhs, r.mul(r.mul(y, mid), x))
            assert r.eq(lhs, r.mul(r.mul(x, mid), y))
            done += 1


def test_skew_inverse_sum_wrong_orders_fail():
    """Each commuted rewriting is separated by some sample once d >= 2."""
    rng = random.Random(78)
    for d in (2, 3):
        r = FpMatrixRealm(PRIME, d, c=1)
        seen = [False] * 4
        done = 0
        while done < 200 and not all(seen):
            x, y = rand_matrix(rng, r), rand_matrix(rng, r)
            try:
                lhs = r.inv(r.add(r.inv(x), r.inv(y)))
                mid = r.inv(r.add(x, y))
            except SingularValue:
                continue
            done += 1
            forms = [
                r.mul(r.mul(y, x), mid),
                r.mul(mid, r.mul(x, y)),
                r.mul(r.mul(x, y), mid),
                r.mul(mid, r.mul(y, x)),
            ]
            for i, f in enumerate(forms):
                if not r.eq(lhs, f):
                    seen[i] = True
        assert all(seen), f"wrong orders never separated at d={d}: {seen}"


def test_realm_from_config_round_trip():
    for realm in (
        TropicalRealm(Fraction(2, 3)),
        RationalFunctionRealm(["x", "y"]),
        FpMatrixRealm(PRIME, 2, c=5),
        FractionMatrixRealm(3, c=Fraction(1, 2)),
    ):
        clone = realm_from_config(realm.config())
        assert clone.config() == realm.config()
        assert clone.commutative == realm.commutative


def test_value_json_round_trip():
    r = FpMatrixRealm(PRIME, 2, c=1)
    m = (1, 2, 3, 4)
    assert r.value_from_json(r.value_to_json(m)) == m
    t = TropicalRealm()
    assert t.value_from_json(t.value_to_json(Fraction(3, 7))) == Fraction(3, 7)
    q = FractionMatrixRealm(2)
    mq = (Fraction(1, 2), Fraction(0), Fraction(-3), Fraction(4, 5))
    assert q.value_from_json(q.value_to_json(mq)) == mq


def test_decimal_exponents_read_exactly_up_to_the_bound():
    t = TropicalRealm()
    q = FractionMatrixRealm(1)
    for text, value in (("1e999", 10**999), ("1e-999", Fraction(1, 10**999)),
                        ("-2.5E+1_0", -25 * 10**9), ("3e10000", 3 * 10**10000)):
        assert t.value_from_json(text) == value
        assert q.value_from_json([[text]]) == (value,)
        assert realm_from_config({"realm": "tropical", "c": text}).c == value
    for text in ("1e10001", "1e-10001", "1e00000000000000000000000000001_0001"):
        for read in (t.value_from_json, lambda v: q.value_from_json([[v]]),
                     lambda v: realm_from_config({"realm": "matq", "d": 1, "c": v})):
            with pytest.raises(ValueError, match="decimal exponent past 10000"):
                read(text)


def test_symbolic_labeling_names():
    p22 = product_of_chains(2, 2)
    g = symbolic_labeling(p22)
    r = g.realm
    by_coord = {p22.coord(x): r.value_to_json(g[x]) for x in range(4)}
    assert by_coord == {(1, 1): "w", (2, 1): "x", (1, 2): "y", (2, 2): "z"}

    p23 = product_of_chains(2, 3)
    g = symbolic_labeling(p23)
    r = g.realm
    by_coord = {p23.coord(x): r.value_to_json(g[x]) for x in range(6)}
    assert by_coord == {(1, 1): "u", (2, 1): "v", (1, 2): "w",
                        (2, 2): "x", (1, 3): "y", (2, 3): "z"}


def test_symbolic_labeling_names_past_26_elements():
    """Up to 26 elements the names are the last letters of the alphabet;
    past that they are x1..xn, as on [1]x[27]."""
    assert symbolic_variable_names(26) == list("abcdefghijklmnopqrstuvwxyz")
    assert symbolic_variable_names(27) == [f"x{k}" for k in range(1, 28)]
    p = product_of_chains(1, 27)
    g = symbolic_labeling(p)
    assert [g.realm.value_to_json(v) for v in g.values] == [f"x{k}" for k in range(1, 28)]


def _one_step(poset):
    """A walk that takes one rowmotion step and returns the labeling."""
    def walk(g):
        antichain_rowmotion(poset, g)
        return g
    return walk


def test_sample_matrix_labeling():
    p = product_of_chains(1, 1)
    g = sample_generic_labeling(p, {"realm": "matp", "p": 101, "d": 1}, 9, _one_step(p))
    assert g[0][0] != 0  # a zero scalar would have failed the full pass
    g2 = sample_generic_labeling(p, {"realm": "matp", "p": 101, "d": 1}, 9, _one_step(p))
    assert g.values == g2.values and g.realm.c == g2.realm.c  # deterministic

    big = sample_generic_labeling(
        product_of_chains(2, 3), {"realm": "matp", "p": FUZZ_PRIME, "d": 2}, 4, lambda g: g)
    assert len(big.values) == 6 and big.realm.d == 2

    q = sample_generic_labeling(product_of_chains(2, 2), {"realm": "matq", "d": 2}, 1,
                                lambda g: g)
    assert q.realm.c != 0

    trop = sample_generic_labeling(product_of_chains(2, 2), {"realm": "tropical"}, 1,
                                   lambda g: g)
    assert all(0 <= v <= 1 for v in trop.values)


def test_sampling_exhausted():
    # p = 2 with d = 1 on a 2x2 rectangle: a full pass nearly always hits a
    # zero sum, so the retry bound trips.
    p = product_of_chains(2, 2)
    with pytest.raises(SamplingExhausted):
        sample_generic_labeling(p, {"realm": "matp", "p": 2, "d": 1}, 0, _one_step(p))


def test_redraw_returns_the_first_nonsingular_attempt():
    """Attempt k draws from ``derive_seed(*context, k)``; the first whose
    walk meets no singular value is returned with its k, and once the bound
    is spent the refusal names ``context[0]``.  ``redraw_one`` is the batch
    of one."""
    walked = []

    def walk(x):
        walked.append(x)
        if len(walked) < 3:
            raise SingularValue("singular")
        return -x

    value, k = redraw_one(lambda rng: rng.random(), walk, 5, "ctx")
    assert k == 2 and len(walked) == 3
    assert value == -random.Random(derive_seed(5, "ctx", 2)).random()

    def singular(x):
        raise SingularValue("singular")

    with pytest.raises(SamplingExhausted) as info:
        redraw_one(lambda rng: None, singular, 5, "ctx")
    assert info.value.seed == 5
    assert str(info.value) == f"no nonsingular labeling after {RESAMPLE_LIMIT} attempts (seed 5)"


def test_redraw_walks_the_pending_contexts_as_one_batch():
    """Each context of a batch keeps its own attempts: a context is redrawn,
    in the next batch, only after its own walk met a singular value, and
    attempt k of it draws from ``derive_seed(*context, k)``; a context that
    never passes ends as a ``SamplingExhausted`` naming its seed, while the
    others still return."""
    contexts = [(5, "a"), (6, "b"), (7, "c")]
    batches = []

    def walk(drawn):
        batches.append(drawn)
        k = len(batches) - 1
        out = []
        for x in drawn:
            ctx = next(c for c in contexts
                       if random.Random(derive_seed(*c, k)).random() == x)
            ok = ctx == (5, "a") or (ctx == (6, "b") and k == 1)
            out.append(-x if ok else SingularValue("singular"))
        return out

    first, second, third = redraw(lambda rng: rng.random(), walk, contexts)
    assert first == (-random.Random(derive_seed(5, "a", 0)).random(), 0)
    assert second == (-random.Random(derive_seed(6, "b", 1)).random(), 1)
    assert isinstance(third, SamplingExhausted) and third.seed == 7
    assert [len(b) for b in batches] == [3, 2] + [1] * (RESAMPLE_LIMIT - 2)
    assert redraw(lambda rng: rng.random(), walk, []) == []


def test_nc_scalar_matches_commutative():
    """The d = 1 matrix realm is the commutative scalar case: fiber words of
    the same scalars agree entrywise with rational-function evaluation."""
    from rowmotion import st_word

    rng = random.Random(3)
    p = product_of_chains(2, 3)
    realm = FpMatrixRealm(PRIME, 1, c=rng.randrange(1, PRIME))
    scalars = [rng.randrange(1, PRIME) for _ in range(6)]
    g = Labeling(realm, [(s,) for s in scalars])
    word = st_word(p, g)

    sym = symbolic_labeling(p)
    sym_word = st_word(p, sym)
    vals = [realm.c] + scalars  # variable 0 is the constant
    for got, expr in zip(word, sym_word):
        assert got[0] == evaluate_ratfun_mod(expr, vals, PRIME)
