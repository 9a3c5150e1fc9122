"""Fiber words, rotation, and homomesy in every realm."""
import json
import random
from fractions import Fraction

import pytest

from rowmotion import (
    Labeling,
    TropicalRealm,
    antichain_rowmotion,
    check_rotation,
    fiber_orbit_product,
    iterate,
    orbit_window,
    pl_homomesy_report,
    product_of_chains,
    sample_generic_labeling,
    st_word,
)
from rowmotion import stword
from rowmotion.errors import SingularValue
from rowmotion.realms import FpMatrixRealm, FractionMatrixRealm
from rowmotion.sampling import derive_seed, symbolic_labeling
from rowmotion.stword import constant_power, fiber_product_checks

from chain_sums import pl_homomesy_report_by_fractions
from fiber_fold import fiber_fold, fiber_fold_checks, st_word_by_inverses

PRIME = 10007


def matrix_labeling(poset, d, seed, p=PRIME):
    """A sampled matp labeling on which one rowmotion step meets no singular value."""
    def one_step(g):
        antichain_rowmotion(poset, g)
        return g
    return sample_generic_labeling(poset, {"realm": "matp", "p": p, "d": d}, seed, one_step)


def test_symbolic_word_2x3():
    p = product_of_chains(2, 3)
    g = symbolic_labeling(p)
    r = g.realm
    cc, u, v, w, x, y, z = (r.variable(n) for n in ("C", "u", "v", "w", "x", "y", "z"))
    word = st_word(p, g)
    expected = (u * w * y, v * x * z, cc / (u * v), cc / (w * x), cc / (y * z))
    assert all(r.eq(a, b) for a, b in zip(word, expected))


def test_tropical_word_shared():
    p = product_of_chains(2, 2)
    realm = TropicalRealm(Fraction(1))
    target = tuple(Fraction(v) for v in ("3/5", "1/2", "7/10", "1/5"))
    for vals in [("1/10", "1/5", "1/2", "3/10"), ("1/5", "1/10", "2/5", "2/5")]:
        g = Labeling(realm, [Fraction(v) for v in vals])
        assert st_word(p, g) == target


def test_plar_step_words():
    p = product_of_chains(2, 2)
    realm = TropicalRealm(Fraction(1))
    g = Labeling(realm, [Fraction(v) for v in ("1/5", "1/10", "2/5", "3/10")])
    assert st_word(p, g) == tuple(Fraction(v) for v in ("3/5", "2/5", "7/10", "3/10"))


def test_nc_word_2x2():
    p = product_of_chains(2, 2)
    for s in range(30):
        g = matrix_labeling(p, 1 + s % 3, seed=50 + s)
        r = g.realm
        w, x, y, z = (g[p.id(i, j)] for (i, j) in [(1, 1), (2, 1), (1, 2), (2, 2)])
        word = st_word(p, g)
        cc = r.constant()
        assert r.eq(word[0], r.mul(y, w))
        assert r.eq(word[1], r.mul(z, x))
        assert r.eq(word[2], r.mul(r.mul(cc, r.inv(w)), r.inv(x)))
        assert r.eq(word[3], r.mul(r.mul(cc, r.inv(y)), r.inv(z)))


WORD_SHAPES = [(1, 4), (4, 1), (2, 3), (3, 4)]


def _random_labeling(realm, n, rng):
    """Labels with independent entries: residues mod p for matp, rationals
    for matq and tropical."""
    if realm.name == "matp":
        return Labeling(realm, [tuple(rng.randrange(realm.p) for _ in range(realm.d ** 2))
                                for _ in range(n)])
    if realm.name == "matq":
        return Labeling(realm, [tuple(Fraction(rng.randrange(-99, 100), rng.randrange(1, 17))
                                      for _ in range(realm.d ** 2)) for _ in range(n)])
    if isinstance(realm.c, int):
        return Labeling(realm, [rng.randrange(-20, 21) for _ in range(n)])
    return Labeling(realm, [Fraction(rng.randrange(-20, 21), rng.randrange(1, 7))
                            for _ in range(n)])


def _mostly_invertible_labeling(realm, n, rng):
    """A matp labeling whose labels are each, with chance 1/4, a matrix of
    random residues (singular with chance up to 0.7 at p = 2), and
    otherwise upper triangular with a nonzero diagonal, so invertible."""
    d, p = realm.d, realm.p
    labels = []
    for _ in range(n):
        if rng.random() < 0.25:
            labels.append(tuple(rng.randrange(p) for _ in range(d * d)))
        else:
            labels.append(tuple(rng.randrange(1, p) if i == j else
                                rng.randrange(p) if i < j else 0
                                for i in range(d) for j in range(d)))
    return Labeling(realm, labels)


def _word_outcome(word_of, poset, g):
    """The entries of ``word_of(poset, g)``, or the message it refused with."""
    try:
        return word_of(poset, g)
    except SingularValue as exc:
        return str(exc)


def _same_entries(r, got, want):
    """Entry by entry: equal under the realm, and the same value
    (``_same_value``: for ratfun, rendered identically)."""
    assert len(got) == len(want)
    assert all(r.eq(x, y) and _same_value(r, x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("a, b", WORD_SHAPES)
def test_word_equals_the_fold_of_single_inverses(a, b):
    """``st_word`` inverts each column's product once, C * inv(g(a,l) ...
    g(1,l)); that is the paper's C * inv(g(1,l)) * ... * inv(g(a,l)),
    entry by entry, in every realm: matp for d = 1..4 (d = 4 inverts one
    matrix at a time), matq, tropical with an int and a Fraction constant,
    and symbolic ratfun."""
    p = product_of_chains(a, b)
    realms = [FpMatrixRealm(PRIME, d, c=3) for d in (1, 2, 3, 4)]
    realms += [FractionMatrixRealm(2, Fraction(5, 3)), TropicalRealm(7),
               TropicalRealm(Fraction(3, 2))]
    for realm in realms:
        for seed in range(4):
            g = _random_labeling(realm, p.n, random.Random(seed))
            _same_entries(realm, st_word(p, g), st_word_by_inverses(p, g))
    g = symbolic_labeling(p)
    _same_entries(g.realm, st_word(p, g), st_word_by_inverses(p, g))


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_word_refuses_exactly_when_a_single_inverse_does(prime):
    """At small p many labels are singular.  ``st_word`` raises
    ``SingularValue`` with the oracle's message (no element named) exactly
    when one of the oracle's single inverses raises, and otherwise gives
    the oracle's entries."""
    outcomes = set()
    for d in (1, 2, 3, 4):
        realm = FpMatrixRealm(prime, d, c=1)
        for a, b in WORD_SHAPES:
            p = product_of_chains(a, b)
            for seed in range(6):
                g = _mostly_invertible_labeling(realm, p.n, random.Random(seed))
                got = _word_outcome(st_word, p, g)
                want = _word_outcome(st_word_by_inverses, p, g)
                if isinstance(want, str):
                    assert got == want == f"singular {d}x{d} matrix"
                else:
                    _same_entries(realm, got, want)
                outcomes.add(isinstance(want, str))
    assert outcomes == {True, False}


def test_cyclic_indexing():
    """A word is a tuple of a+b realm values.  ``check_rotation`` pairs entry
    i of the image's word with entry i-1 of g's, cyclically: entry 1 with
    entry a+b.  Given g as its own image, exactly the indices whose entry
    differs from the one before it fail."""
    p = product_of_chains(2, 2)
    g = symbolic_labeling(p)
    word = st_word(p, g)
    assert type(word) is tuple and len(word) == 4
    same = check_rotation(p, g, image=g)
    assert same.per_index == tuple((i, g.realm.eq(word[i - 1], word[i - 2])) for i in range(1, 5))
    assert not any(m for _, m in same.per_index)
    tropical = Labeling(TropicalRealm(1), [1, 2, 0, 0])
    assert st_word(p, tropical) == (1, 2, -2, 1)  # only the cyclic pair is equal
    assert check_rotation(p, tropical, image=tropical).per_index == (
        (1, True), (2, False), (3, False), (4, False))


def test_rotation_symbolic_2x3_with_expected_word():
    p = product_of_chains(2, 3)
    g = symbolic_labeling(p)
    r = g.realm
    cc, u, v, w, x, y, z = (r.variable(n) for n in ("C", "u", "v", "w", "x", "y", "z"))
    report = check_rotation(p, g)
    assert report.ok and all(m for _, m in report.per_index)
    image = antichain_rowmotion(p, g)
    got = st_word(p, image)
    expected = (cc / (y * z), u * w * y, v * x * z, cc / (u * v), cc / (w * x))
    assert all(r.eq(a, b) for a, b in zip(got, expected))


def test_rotation_matrix_samples():
    for a, b in [(2, 2), (2, 3), (3, 3)]:
        p = product_of_chains(a, b)
        for s in range(34):
            g = matrix_labeling(p, 1 + s % 3, seed=s)
            assert check_rotation(p, g, image=antichain_rowmotion(p, g, "toggles")).ok


def test_rotation_tropical_samples():
    for a, b in [(2, 2), (2, 3)]:
        p = product_of_chains(a, b)
        for s in range(25):
            g = sample_generic_labeling(p, {"realm": "tropical"}, s, lambda g: g)
            assert check_rotation(p, g).ok


def _word_with_orders(p, g, positive_descending, negative_ascending):
    """The fiber word with chosen index orders; ``st_word`` is (True, True)."""
    r = g.realm
    entries = []
    for i in range(1, p.a + 1):
        cols = range(p.b, 0, -1) if positive_descending else range(1, p.b + 1)
        entries.append(r.product(g[p.id(i, j)] for j in cols))
    for l in range(1, p.b + 1):
        rows = range(1, p.a + 1) if negative_ascending else range(p.a, 0, -1)
        entries.append(r.product([r.constant()] + [r.inv(g[p.id(i, l)]) for i in rows]))
    return tuple(entries)


def test_wrong_factor_order_breaks_rotation():
    """Ascending positive-fiber products (or descending negative ones) stop
    the word from rotating once labels stop commuting."""
    p = product_of_chains(2, 2)
    broken_pos = 0
    broken_neg = 0
    for s in range(25):
        g = matrix_labeling(p, 2, seed=150 + s)
        r = g.realm
        image = antichain_rowmotion(p, g, mode="toggles")
        assert all(map(r.eq, _word_with_orders(p, g, True, True), st_word(p, g)))
        bad_pos_before = _word_with_orders(p, g, False, True)
        bad_pos_after = _word_with_orders(p, image, False, True)
        bad_neg_before = _word_with_orders(p, g, True, False)
        bad_neg_after = _word_with_orders(p, image, True, False)
        ln = len(bad_pos_before)
        if any(not r.eq(bad_pos_after[i], bad_pos_before[i - 1]) for i in range(ln)):
            broken_pos += 1
        if any(not r.eq(bad_neg_after[i], bad_neg_before[i - 1]) for i in range(ln)):
            broken_neg += 1
    assert broken_pos > 0 and broken_neg > 0


def test_rotation_closes_after_a_plus_b():
    """Pure index fact: composing the rightward shift a+b times is the
    identity permutation of word entries."""
    for a, b in [(2, 2), (2, 3), (3, 4)]:
        n = a + b
        idx = list(range(n))
        for _ in range(n):
            idx = [idx[-1]] + idx[:-1]
        assert idx == list(range(n))


def test_fiber_products_2x2_symbolic():
    p = product_of_chains(2, 2)
    g = symbolic_labeling(p)
    r = g.realm
    window = orbit_window(p, g)
    c2 = constant_power(r, 2)
    assert r.eq(fiber_orbit_product(p, window, ("positive", 1)), c2)
    assert r.eq(fiber_orbit_product(p, window, ("negative", 1)), c2)


def test_fiber_products_2x3_symbolic():
    p = product_of_chains(2, 3)
    g = symbolic_labeling(p)
    r = g.realm
    window = orbit_window(p, g)
    assert r.eq(fiber_orbit_product(p, window, ("negative", 1)), constant_power(r, 2))
    assert r.eq(fiber_orbit_product(p, window, ("positive", 2)), constant_power(r, 3))


def test_fiber_product_1x1():
    p = product_of_chains(1, 1)
    g = symbolic_labeling(p)
    r = g.realm
    window = orbit_window(p, g)
    assert r.eq(fiber_orbit_product(p, window, ("positive", 1)), r.variable("C"))


def test_fiber_products_scalar_samples():
    for a, b in [(2, 2), (3, 2)]:
        p = product_of_chains(a, b)
        for s in range(10):
            g = matrix_labeling(p, 1, seed=250 + s)
            r = g.realm
            window = orbit_window(p, g)
            for k in range(1, a + 1):
                assert r.eq(fiber_orbit_product(p, window, ("positive", k)),
                            constant_power(r, b))
            for l in range(1, b + 1):
                assert r.eq(fiber_orbit_product(p, window, ("negative", l)),
                            constant_power(r, a))


def test_orbit_window_is_the_orbit_prefix():
    for a, b in [(1, 1), (2, 3), (3, 2)]:
        p = product_of_chains(a, b)
        g = matrix_labeling(p, 1, seed=40 + a)
        window = orbit_window(p, g)
        orbit = iterate(p, g).labelings
        assert len(window) == a + b and window[0] is g
        assert all(w.eq(o) for w, o in zip(window, orbit))


def test_fiber_product_over_a_given_window():
    """The product runs over exactly the window it is given: rows and
    columns of the first a+b orbit labelings, and nothing else."""
    p = product_of_chains(2, 3)
    g = symbolic_labeling(p)
    r = g.realm
    window = orbit_window(p, g)
    orbit = iterate(p, g).labelings[:5]
    for fiber, cells in [(("positive", 2), [(2, j) for j in (1, 2, 3)]),
                         (("negative", 3), [(1, 3), (2, 3)])]:
        want = r.product(lab[p.id(i, j)] for lab in orbit for (i, j) in cells)
        assert r.eq(fiber_orbit_product(p, window, fiber), want)
    with pytest.raises(ValueError, match="has 5 labelings, got 4"):
        fiber_orbit_product(p, window[:-1], ("positive", 1))
    for fiber in [("positive", 3), ("negative", 0), ("negative", 4)]:
        with pytest.raises(ValueError, match=f"no {fiber[0]} fiber {fiber[1]} on"):
            fiber_orbit_product(p, window, fiber)


def test_fiber_product_rejects_noncommutative():
    p = product_of_chains(2, 2)
    g = matrix_labeling(p, 2, seed=1)
    with pytest.raises(ValueError, match="commutative-realm contract"):
        fiber_orbit_product(p, [g] * 4, ("positive", 1))
    scalar = [matrix_labeling(p, 1, seed=1)] * 4
    with pytest.raises(ValueError, match="unknown fiber kind 'diagonal'"):
        fiber_orbit_product(p, scalar, ("diagonal", 1))


class RecordingTropicalRealm(TropicalRealm):
    """A tropical realm that logs the operands of every ``mul``."""

    def __init__(self, c, log):
        super().__init__(c)
        self.log = log

    def mul(self, x, y):
        self.log.append((x, y))
        return x + y


def _fold_cases():
    """(poset, window) pairs: orbit windows, which pass every check, and
    windows of unrelated labelings, which mostly fail."""
    cases = []
    for a, b in [(2, 3), (3, 2), (4, 5)]:
        p = product_of_chains(a, b)
        point = sample_generic_labeling(p, {"realm": "tropical"}, a * b, lambda g: g)
        ints = Labeling(TropicalRealm(7), [int(v * 7) % 8 for v in point.values])
        fractions = Labeling(TropicalRealm(Fraction(3, 2)),
                             [Fraction(k % 5, 1 + k % 3) for k in range(p.n)])
        for g in (ints, fractions, matrix_labeling(p, 1, seed=60 + a)):
            cases.append((p, orbit_window(p, g)))
        shifted = [Labeling(ints.realm, [(v + k * k) % 9 for v in ints.values])
                   for k in range(a + b)]
        cases.append((p, shifted))
    p = product_of_chains(2, 3)
    cases.append((p, orbit_window(p, symbolic_labeling(p))))
    noise = [matrix_labeling(p, 1, seed=70 + k) for k in range(5)]
    cases.append((p, noise))
    return cases


def _same_value(r, x, y):
    if r.name == "ratfun":
        return r.value_to_json(x) == r.value_to_json(y) and repr(x) == repr(y)
    return x == y and type(x) is type(y)


def test_fiber_checks_equal_the_per_fiber_fold():
    """Every pass flag of ``fiber_product_checks``, and every product of
    ``fiber_orbit_product``, is the per-fiber fold's: tropical with int and
    Fraction labels, symbolic ratfun on [2]x[3] and matp with d = 1."""
    flags = set()
    for p, window in _fold_cases():
        r = window[0].realm
        want = fiber_fold_checks(p, window)
        got = fiber_product_checks(p, window)
        assert [(f["fiber"], f["pass"]) for f in got] == [(name, ok) for name, _, ok in want]
        for name, product, _ in want:
            kind, k = name.split()
            assert _same_value(r, fiber_orbit_product(p, window, (kind, int(k))), product)
        flags.update(f["pass"] for f in got)
    assert flags == {True, False}


def test_fiber_checks_multiply_in_the_fold_order():
    """The helper makes the fold's ``mul`` calls, operand for operand."""
    p = product_of_chains(3, 4)
    window = orbit_window(p, Labeling(TropicalRealm(5), [k % 3 for k in range(p.n)]))
    logs = []
    for run in (fiber_product_checks, fiber_fold_checks):
        log = []
        realm = RecordingTropicalRealm(5, log)
        run(p, [Labeling(realm, lab.values) for lab in window])
        logs.append(log)
    assert logs[0] == logs[1] and len(logs[0]) > 0


def _count_fibers_calls(monkeypatch):
    """Record the (a, b) of every ``fibers`` call ``stword`` makes."""
    calls = []
    real = stword.fibers

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(stword, "fibers", counted)
    return calls


def test_fiber_checks_list_the_fibers_once_per_window(monkeypatch, capsys):
    """One ``fibers`` call per ``fiber_product_checks``: 20 for a 20-sample
    [4]x[5] matp homomesy job, where each fiber once listed them again
    (180), and one per direct call on tropical and ratfun windows."""
    from rowmotion.cli import main

    calls = _count_fibers_calls(monkeypatch)
    assert main(["homomesy", "--realm", "matp", "--a", "4", "--b", "5",
                 "--samples", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"]
    assert calls == [(4, 5)] * 20
    del calls[:]
    p = product_of_chains(2, 3)
    windows = [orbit_window(p, Labeling(TropicalRealm(5), [k % 3 for k in range(p.n)])),
               orbit_window(p, symbolic_labeling(p))]
    for window in windows:
        assert all(f["pass"] for f in fiber_product_checks(p, window))
    assert calls == [(2, 3)] * 2


def test_pl_homomesy_report_lists_the_fibers_once_per_report(monkeypatch):
    """The tropical job lists the fibers once for all its samples (it made
    one ``fiber_product_checks`` call, and so one listing, per sample)."""
    calls = _count_fibers_calls(monkeypatch)
    assert pl_homomesy_report(4, 5, 20, seed=23)["all_exact"]
    assert calls == [(4, 5)]
    del calls[:]
    assert pl_homomesy_report(1, 3, 7, seed=2)["all_exact"]
    assert calls == [(1, 3)]


def test_fiber_checks_refuse_as_the_single_product():
    p = product_of_chains(2, 2)
    with pytest.raises(ValueError, match="has 4 labelings, got 3"):
        fiber_product_checks(p, [matrix_labeling(p, 1, seed=1)] * 3)
    with pytest.raises(ValueError, match="commutative-realm contract"):
        fiber_product_checks(p, [matrix_labeling(p, 2, seed=1)] * 4)


def test_telescoping_row_and_column_products():
    """The four fiber-product identities behind the rotation: descending
    products of the image's first row (or column) telescope to C times
    ascending inverses of the old far row (column), and interior rows and
    columns shift down by one."""
    for a, b in [(2, 2), (2, 3), (3, 3)]:
        p = product_of_chains(a, b)
        for s in range(21):
            g = matrix_labeling(p, 1 + s % 3, seed=350 + s)
            r = g.realm
            img = antichain_rowmotion(p, g, mode="toggles")

            def desc_row(lab, k):
                return r.product(lab[p.id(k, l)] for l in range(b, 0, -1))

            def desc_col(lab, l):
                return r.product(lab[p.id(k, l)] for k in range(a, 0, -1))

            lhs = desc_row(img, 1)
            rhs = r.constant()
            for k in range(1, a + 1):
                rhs = r.mul(rhs, r.inv(g[p.id(k, b)]))
            assert r.eq(lhs, rhs)
            for k in range(2, a + 1):
                assert r.eq(desc_row(img, k), desc_row(g, k - 1))
            lhs = desc_col(img, 1)
            rhs = r.constant()
            for l in range(1, b + 1):
                rhs = r.mul(rhs, r.inv(g[p.id(a, l)]))
            assert r.eq(lhs, rhs)
            for l in range(2, b + 1):
                assert r.eq(desc_col(img, l), desc_col(g, l - 1))


def test_pl_homomesy_report_sampled():
    rep = pl_homomesy_report(2, 2, samples=40, seed=5)
    assert rep["all_exact"]
    assert rep["positive_fiber_mean"] == "1/2"
    assert rep["label_sum_mean"] == "1"
    rep23 = pl_homomesy_report(2, 3, samples=15, seed=5)
    assert rep23["all_exact"]
    assert rep23["positive_fiber_mean"] == "3/5"
    assert rep23["negative_fiber_mean"] == "2/5"
    assert rep23["label_sum_mean"] == "6/5"


def test_pl_homomesy_enumerates_no_chains(monkeypatch):
    """The tropical job samples and checks membership by longest-chain
    passes, so it reaches [8]x[8] (3,432 maximal chains) without listing
    one chain."""
    from rowmotion.poset import FinitePoset

    def refuse(self):
        raise AssertionError("maximal_chains called")

    monkeypatch.setattr(FinitePoset, "maximal_chains", refuse)
    rep = pl_homomesy_report(8, 8, 5, seed=3)
    assert rep["all_exact"]
    assert rep["label_sum_mean"] == "4"
    assert pl_homomesy_report(4, 5, 3, seed=9)["all_exact"]


@pytest.mark.parametrize("a, b, samples", [(1, 1, 20), (1, 3, 20), (3, 1, 20),
                                           (4, 5, 20), (8, 8, 5)])
def test_pl_homomesy_report_equals_the_fraction_route(a, b, samples):
    """Iterating each point's numerators over the sampler's scale gives the
    report that clearing the point's reduced fractions over their lcm gives,
    though the two windows differ by a factor wherever that lcm is smaller."""
    for seed in range(4):
        assert (pl_homomesy_report(a, b, samples, seed)
                == pl_homomesy_report_by_fractions(a, b, samples, seed))


def _with_labeling(window, k, realm, poset, values):
    """``window`` (``stword._window_tables``) with its labeling k replaced by
    ``values`` and that labeling's table built from them."""
    window[k] = (values, realm.up_transfer(poset, values))
    return window


def test_pl_homomesy_report_records_the_failing_samples(monkeypatch):
    """A sample with a numerator above the scale fails membership alone (its
    point is outside the chain polytope, but the fiber identities hold at
    every point), and a sample whose window has one label lowered fails the
    fiber and label-sum checks alone; each is recorded by its own seed.
    Four of the eight points have reduced fractions over a common
    denominator below the sampler's scale (56 of 112, 30 of 60, ...), so
    checks scaled by that denominator in place of the scale would record
    more seeds."""
    a, b, seed, samples = 1, 3, 11, 8
    outside, broken = 2, 5
    real_sample, real_window = stword.sample_chain_polytope_point, stword._window_tables
    drawn = []

    def sample(poset, rng):
        numerators, scale = real_sample(poset, rng)
        if len(drawn) == outside:
            numerators[1] = scale + 1
        drawn.append(scale)
        return numerators, scale

    def window(poset, realm, values):
        labelings = real_window(poset, realm, values)
        if len(drawn) - 1 == broken:
            last = list(labelings[-1][0])
            x = next(x for x in range(poset.n) if last[x] > 0)
            last[x] -= 1
            _with_labeling(labelings, -1, realm, poset, last)
        return labelings

    monkeypatch.setattr(stword, "sample_chain_polytope_point", sample)
    monkeypatch.setattr(stword, "_window_tables", window)
    rep = pl_homomesy_report(a, b, samples, seed)
    assert len(drawn) == samples
    assert rep["membership_failing_sample_seeds"] == [derive_seed(seed, "pl-sample", outside)]
    assert rep["failing_sample_seeds"] == [derive_seed(seed, "pl-sample", broken)]
    assert rep["all_exact"] is False


def test_pl_homomesy_report_checks_rows_and_columns_each(monkeypatch):
    """In one sample a unit moves along a row of the window's first labeling
    (between two columns), in another along a column (between two rows).
    Each move keeps the label sum and every sum of the other fiber kind, and
    breaks two sums of its own kind; both samples are recorded, and only by
    the fiber checks (membership is not checked on the sampled point)."""
    a, b, seed, samples = 3, 4, 17, 6
    along_row, along_column = 1, 4
    real_window = stword._window_tables
    drawn = []

    def window(poset, realm, values):
        labelings = real_window(poset, realm, values)
        first = list(labelings[0][0])
        if len(drawn) == along_row:
            src, dst = poset.id(2, 1), poset.id(2, 3)
        elif len(drawn) == along_column:
            src, dst = poset.id(1, 2), poset.id(3, 2)
        else:
            src = dst = None
        if src is not None:
            first[src] -= 1
            first[dst] += 1
            _with_labeling(labelings, 0, realm, poset, first)
        drawn.append(poset)
        return labelings

    monkeypatch.setattr(stword, "_window_tables", window)
    rep = pl_homomesy_report(a, b, samples, seed)
    assert len(drawn) == samples
    assert rep["failing_sample_seeds"] == [derive_seed(seed, "pl-sample", along_row),
                                           derive_seed(seed, "pl-sample", along_column)]
    assert rep["membership_failing_sample_seeds"] == []
    assert rep["all_exact"] is False


def test_pl_homomesy_report_checks_the_last_window_labeling(monkeypatch):
    """A label of the window's last labeling raised to S + 1 fails
    membership in that sample: the report checks the last labeling, whose
    table no rowmotion step reads.  The raise also breaks the fiber sums."""
    a, b, seed, samples = 2, 3, 4, 5
    above = 3
    real_window = stword._window_tables
    drawn = []

    def window(poset, realm, values):
        labelings = real_window(poset, realm, values)
        if len(drawn) == above:
            last = list(labelings[-1][0])
            last[poset.id(2, 2)] = realm.c + 1
            _with_labeling(labelings, -1, realm, poset, last)
        drawn.append(realm.c)
        return labelings

    monkeypatch.setattr(stword, "_window_tables", window)
    rep = pl_homomesy_report(a, b, samples, seed)
    assert len(drawn) == samples
    assert rep["membership_failing_sample_seeds"] == [derive_seed(seed, "pl-sample", above)]
    assert rep["failing_sample_seeds"] == [derive_seed(seed, "pl-sample", above)]
    assert rep["all_exact"] is False


def test_pl_homomesy_fixture_orbit():
    """The known 2x2 orbit: label sums 1, 9/10, 1, 11/10 with mean 1."""
    p = product_of_chains(2, 2)
    realm = TropicalRealm(Fraction(1))
    g = Labeling(realm, [Fraction(v) for v in ("1/5", "1/10", "2/5", "3/10")])
    sums = []
    cur = g
    for _ in range(4):
        sums.append(sum(cur.values))
        cur = antichain_rowmotion(p, cur)
    assert sums == [Fraction(1), Fraction(9, 10), Fraction(1), Fraction(11, 10)]
    assert sum(sums) / 4 == 1


def test_all_zero_labeling_orbit_mean():
    """The all-zero point rides the indicator orbit of the empty antichain;
    its label-sum mean over a+b steps is ab/(a+b)."""
    for a, b in [(2, 2), (2, 3), (3, 3)]:
        p = product_of_chains(a, b)
        realm = TropicalRealm(Fraction(1))
        cur = Labeling(realm, [Fraction(0)] * p.n)
        sums = []
        for _ in range(a + b):
            sums.append(sum(cur.values))
            assert set(cur.values) <= {Fraction(0), Fraction(1)}
            cur = antichain_rowmotion(p, cur)
        assert cur.values == tuple([Fraction(0)] * p.n)
        assert sum(sums) / (a + b) == Fraction(a * b, a + b)


def test_word_requires_rectangle():
    from rowmotion import build_poset

    v = build_poset([(0, 2), (1, 2)], elements=[0, 1, 2])
    g = matrix_labeling(v, 1, seed=3)
    with pytest.raises(ValueError):
        st_word(v, g)
