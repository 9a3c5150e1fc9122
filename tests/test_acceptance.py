"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (integers, Fractions, cross-multiplied fractions,
entrywise matrices); the only tolerances are the per-criterion time budgets.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction

from rowmotion import (
    Labeling,
    TropicalRealm,
    antichain_rowmotion,
    closed_form_first_pass,
    combinatorial_orbits,
    enumerate_antichains,
    polytope_membership,
    product_of_chains,
    rowmotion_antichain,
    sample_generic_labeling,
    st_word,
    st_word_combinatorial,
)
from rowmotion.dynamics import TransferKind
from rowmotion.fixtures import (
    _fx_bar_2x2_orbit,
    _fx_bar_2x3_one_step,
    _fx_bar_2x3_orbit,
    _fx_fiber_products_2x2,
    _fx_fiber_products_2x3,
    _fx_nar_2x2_orbit,
    _fx_plar_orbit,
    _fx_pl_shared_word,
    _fx_skew_inverse_sum,
)
from rowmotion.fuzz import fuzz_grid
from rowmotion.realms import FUZZ_PRIME
from rowmotion.sampling import derive_seed, sample_chain_polytope_point

from chain_sums import chain_expansion_check
from toggle_fold import random_linear_extension, toggle_fold

SEED = 20240801


class _Budget:
    def __init__(self, number, title, seconds):
        self.number = number
        self.title = title
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:>2} {status} ({elapsed:6.2f}s / "
              f"budget {self.seconds:.0f}s): {self.title}")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.2f}s)")
        return False


def test_criterion_01_combinatorial_fixtures():
    with _Budget(1, "worked 3x5 fiber words", 1.0):
        p = product_of_chains(3, 5)
        a = frozenset({p.id(2, 4), p.id(3, 1)})
        assert st_word_combinatorial(3, 5, a) == (0, 1, 1, 0, 1, 1, 0, 1)
        image = rowmotion_antichain(p, a)
        assert image == {p.id(1, 5), p.id(3, 2)}
        assert st_word_combinatorial(3, 5, image) == (1, 0, 1, 1, 0, 1, 1, 0)


def test_criterion_02_census_2x2():
    with _Budget(2, "2x2 combinatorial census", 1.0):
        p = product_of_chains(2, 2)
        assert len(enumerate_antichains(p)) == 6
        orbits = combinatorial_orbits(2, 2)
        assert sorted(o.size for o in orbits) == [2, 4]
        half = Fraction(1, 2)
        for o in orbits:
            assert o.cardinality_avg == 1
            assert all(v == half for v in o.positive_fiber_avgs)
            assert all(v == half for v in o.negative_fiber_avgs)
        # order exactly 4: every antichain returns after 4 steps, some orbit
        # needs all 4
        for o in orbits:
            for s in o.antichains:
                cur = s
                for _ in range(4):
                    cur = rowmotion_antichain(p, cur)
                assert cur == s
        assert max(o.size for o in orbits) == 4


def test_criterion_03_periodicity_combinatorial():
    with _Budget(3, "rowmotion^(a+b) is the identity, a, b <= 5", 10.0):
        for a in range(1, 6):
            for b in range(1, 6):
                p = product_of_chains(a, b)
                for s in enumerate_antichains(p):
                    cur = s
                    for _ in range(a + b):
                        cur = rowmotion_antichain(p, cur)
                    assert cur == s


def test_criterion_04_pl_fixtures():
    with _Budget(4, "piecewise-linear orbit and shared-word fixtures", 1.0):
        ok, detail = _fx_plar_orbit(0, SEED)
        assert ok, detail
        ok, detail = _fx_pl_shared_word(0, SEED)
        assert ok, detail


def test_criterion_05_pl_properties_at_scale():
    with _Budget(5, "1000 sampled chain-polytope points per rectangle", 30.0):
        realm = TropicalRealm(Fraction(1))
        for a, b in [(2, 2), (2, 3)]:
            p = product_of_chains(a, b)
            period = a + b
            pos_target = Fraction(b, period)
            neg_target = Fraction(a, period)
            for idx in range(1000):
                rng = random.Random(derive_seed(SEED, "pl", a, b, idx))
                numerators, scale = sample_chain_polytope_point(p, rng)
                g = Labeling(realm, [Fraction(k, scale) for k in numerators])
                orbit = [g]
                for _ in range(period):
                    nxt = antichain_rowmotion(p, orbit[-1])
                    assert polytope_membership(p, nxt.values)
                    orbit.append(nxt)
                words = [st_word(p, lab) for lab in orbit]
                for before, after in zip(words, words[1:]):
                    assert after == (before[-1],) + before[:-1]
                for k in range(1, a + 1):
                    mean = sum(
                        sum(lab[p.id(k, j)] for j in range(1, b + 1))
                        for lab in orbit[:period]) / period
                    assert mean == pos_target
                for l in range(1, b + 1):
                    mean = sum(
                        sum(lab[p.id(i, l)] for i in range(1, a + 1))
                        for lab in orbit[:period]) / period
                    assert mean == neg_target


def test_criterion_06_birational_symbolic_fixtures():
    with _Budget(6, "symbolic one-step, full orbits, homomesy products", 60.0):
        for fn in (_fx_bar_2x3_one_step, _fx_bar_2x2_orbit, _fx_bar_2x3_orbit,
                   _fx_fiber_products_2x2, _fx_fiber_products_2x3):
            ok, detail = fn(0, SEED)
            assert ok, f"{fn.__name__}: {detail}"


def test_criterion_07_scalar_properties_at_scale():
    with _Budget(7, "scalar field labels: period, rotation, products, a, b <= 4", 30.0):
        for a in range(1, 5):
            for b in range(1, 5):
                p = product_of_chains(a, b)
                period = a + b
                for idx in range(100):
                    sub = derive_seed(SEED, "scalar", a, b, idx)

                    def walk(g):
                        orbit = [g]
                        for _ in range(period):
                            orbit.append(antichain_rowmotion(p, orbit[-1]))
                        return orbit

                    orbit = sample_generic_labeling(
                        p, {"realm": "matp", "p": FUZZ_PRIME, "d": 1}, sub, walk)
                    g = orbit[0]
                    r = g.realm
                    assert orbit[period].eq(g)
                    words = [st_word(p, lab) for lab in orbit]
                    for before, after in zip(words, words[1:]):
                        shifted = (before[-1],) + before[:-1]
                        assert all(r.eq(x, y) for x, y in zip(after, shifted))
                    cb = pow(r.c, b, FUZZ_PRIME)
                    ca = pow(r.c, a, FUZZ_PRIME)
                    for k in range(1, a + 1):
                        prod = 1
                        for lab in orbit[:period]:
                            for j in range(1, b + 1):
                                prod = prod * lab[p.id(k, j)][0] % FUZZ_PRIME
                        assert prod == cb
                    for l in range(1, b + 1):
                        prod = 1
                        for lab in orbit[:period]:
                            for i in range(1, a + 1):
                                prod = prod * lab[p.id(i, l)][0] % FUZZ_PRIME
                        assert prod == ca


def test_criterion_08_noncommutative_fixtures():
    with _Budget(8, "noncommutative orbit and skew-identity checks", 30.0):
        ok, detail = _fx_nar_2x2_orbit(100, SEED)
        assert ok, detail
        ok, detail = _fx_skew_inverse_sum(100, SEED)
        assert ok, detail


def test_criterion_09_identity_cross_checks():
    with _Budget(9, "mode, closed-form, extension, chain-expansion checks", 60.0):
        rng = random.Random(SEED)
        for a in range(1, 4):
            for b in range(1, 4):
                p = product_of_chains(a, b)
                for idx in range(100):
                    d = 1 + idx % 3
                    sub = derive_seed(SEED, "cross", a, b, idx)
                    g, via_transfer = sample_generic_labeling(
                        p, {"realm": "matp", "p": FUZZ_PRIME, "d": d}, sub,
                        lambda g: (g, antichain_rowmotion(p, g, "transfer")))
                    via_toggles = antichain_rowmotion(p, g, "toggles")
                    assert via_transfer.eq(via_toggles)
                    # the closed form computes both interior factorizations
                    # internally and raises if they ever disagree
                    assert closed_form_first_pass(p, g).eq(via_toggles)
                    for _ in range(5):
                        order = random_linear_extension(p, rng)
                        assert toggle_fold(p, g, order).eq(via_toggles)
                    assert chain_expansion_check(TransferKind.UP_INV, p, g)
                    assert chain_expansion_check(TransferKind.DOWN_INV, p, g)


def test_criterion_10_conjecture_fuzzing():
    with _Budget(10, "fuzz grid a, b <= 3, d <= 3, 100 trials per cell", 60.0):
        report = fuzz_grid(a_max=3, b_max=3, d_max=3, trials=100, seed=SEED)
        assert len(report["cells"]) == 27
        assert report["counterexample_count"] == 0
        assert report["all_pass"]
        for cell in report["cells"]:
            assert cell["trials"] == 100
            assert cell["passes"] + cell["failures"] + cell["exhausted"] == 100
            assert cell["failures"] == 0
        text = " ".join(report["notes"]).lower()
        assert "open" in text and "conjecture" in text
        assert "evidence" in text and "not a proof" in text
        assert "2x2" in text
