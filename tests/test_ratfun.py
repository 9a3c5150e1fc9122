"""Rational-function normalization and cross-multiplication equality."""

import random

from rowmotion.errors import SingularValue
from rowmotion.polynomials import Polynomial
from rowmotion.poset import product_of_chains
from rowmotion.ratfun import RationalFunction, _is_unit
from rowmotion.sampling import symbolic_labeling
from rowmotion.stword import fiber_product_checks, orbit_window

import pytest

from poly_oracle import evaluate_ratfun_mod

NAMES = ("C", "x", "y")


def var(name):
    return RationalFunction.variable(3, NAMES.index(name))


def one():
    return RationalFunction.constant(3, 1)


def test_field_axiom_examples():
    x, y = var("x"), var("y")
    s = x + y
    inv = s.inverse()
    assert inv.num == Polynomial.constant(3, 1)
    assert (s * inv).equals(one())
    assert (x * inv * s).equals(x)


def test_cross_multiplication_equality():
    x, y = var("x"), var("y")
    s = x + y
    # 1/(x+y) vs x/((x+y) x)
    assert s.inverse().equals(x / (s * x))
    # xy/(x+y) vs yx/(y+x)
    assert ((x * y) / (x + y)).equals((y * x) / (y + x))
    assert not (x / y).equals(y / x)


def test_normalization_invariants():
    x, y = var("x"), var("y")
    f = (x.__mul__(y)) / (x + y)
    # joint content one, denominator leading coefficient positive
    g = RationalFunction(f.num.scale(-6), f.den.scale(-6))
    assert g.den.leading_coefficient() > 0
    assert g.num == f.num and g.den == f.den
    # common monomial removed
    h = RationalFunction(f.num * x.num, f.den * x.num)
    assert h.num == f.num and h.den == f.den


def test_zero_and_singular():
    x = var("x")
    zero = RationalFunction.constant(3, 0)
    assert (zero * x).is_zero()
    minus_x = RationalFunction(x.num.scale(-1), x.den)
    assert (x + minus_x).is_zero()
    with pytest.raises(SingularValue):
        zero.inverse()
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x.num, Polynomial(3))


def rand_fraction(rng):
    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            e = tuple(rng.randrange(3) for _ in range(3))
            c = rng.randrange(-6, 7)
            if c:
                terms[e] = terms.get(e, 0) + c
        return Polynomial(3, terms)

    num = rand_poly()
    den = rand_poly()
    while den.is_zero():
        den = rand_poly()
    return RationalFunction(num, den)


def test_normalization_idempotent_and_equality_invariant():
    rng = random.Random(17)
    for _ in range(200):
        f = rand_fraction(rng)
        again = RationalFunction(f.num, f.den)
        assert again.num == f.num and again.den == f.den
        # multiplying num and den by one junk polynomial never changes equality
        junk = rand_fraction(rng).num
        if junk.is_zero():
            continue
        g = RationalFunction(f.num * junk, f.den * junk)
        assert g.equals(f) and f.equals(g)


def test_arithmetic_matches_prime_field_evaluation():
    """Same-seed replay of random expression trees (depth <= 8): one
    generator builds the tree symbolically, a twin evaluates it with plain
    modular scalars; the symbolic result evaluated at those scalars must
    match, for 100 nonsingular samples."""
    p_mod = (1 << 31) - 1

    def build(rng, depth, numeric, vals):
        if depth == 0:
            k = rng.randrange(4)
            if k == 3:
                c = rng.randrange(1, 5)
                return c % p_mod if numeric else RationalFunction.constant(3, c)
            if numeric:
                return vals[{0: 1, 1: 2, 2: 0}[k]]
            return var({0: "x", 1: "y", 2: "C"}[k])
        op = rng.randrange(3)
        if op == 2:
            inner = build(rng, depth - 1, numeric, vals)
            if numeric:
                if inner == 0:
                    raise SingularValue("zero")
                return pow(inner, -1, p_mod)
            return inner.inverse()
        left = build(rng, depth - 1, numeric, vals)
        right = build(rng, depth - 1, numeric, vals)
        if numeric:
            return (left + right) % p_mod if op == 0 else left * right % p_mod
        return left + right if op == 0 else left * right

    master = random.Random(7)
    done = 0
    while done < 100:
        seed = master.randrange(1 << 30)
        depth = master.randrange(2, 9)
        vals = [master.randrange(1, p_mod) for _ in range(3)]
        try:
            numeric = build(random.Random(seed), depth, True, vals)
            symbolic = build(random.Random(seed), depth, False, vals)
            assert evaluate_ratfun_mod(symbolic, vals, p_mod) == numeric
        except SingularValue:
            continue
        done += 1


def test_render():
    x, y, c = var("x"), var("y"), var("C")
    assert ((x * y) / (x + y)).render(NAMES) == "x*y/(x + y)"
    assert (c / (x * y)).render(NAMES) == "C/(x*y)"
    assert x.render(NAMES) == "x"
    assert (one() / y).render(NAMES) == "1/y"


def test_units_are_the_constants_plus_and_minus_one():
    """Only +-1 skips the cancellation probes (an exact division by a unit
    is never tried, so the division counts stay those of the plain algorithm)."""
    x = Polynomial.variable(3, 1)
    assert _is_unit(Polynomial.constant(3, 1)) and _is_unit(Polynomial.constant(3, -1))
    for p in (Polynomial.constant(3, 2), x, x.scale(-1), x + Polynomial.constant(3, 1),
              Polynomial(3)):
        assert not _is_unit(p)


def test_inverse_is_the_constructor_on_the_swapped_pair():
    """``inverse`` swaps the sides and fixes the sign without the
    constructor; the constructor on (den, num) stays the oracle, term for
    term on both sides.  The values are built by arithmetic and include a
    denominator that would lead negatively, content on both sides, and a
    unit on either side."""
    x, y, c = var("x"), var("y"), var("C")
    minus = RationalFunction.constant(3, -1)
    two, three = RationalFunction.constant(3, 2), RationalFunction.constant(3, 3)
    cases = [x, x + y, y + minus * x, minus * two, two * x / (three * y),
             (x + y) / (c + minus * x * y), one() / (y + minus * x), c * c / (x * x + minus * y)]
    rng = random.Random(29)
    for _ in range(60):
        f, g = rand_fraction(rng), rand_fraction(rng)
        cases += [f + g, f * g] if not f.is_zero() else [g * g]
    for f in cases:
        if f.is_zero():
            continue
        got, oracle = f.inverse(), RationalFunction(f.den, f.num)
        assert got.num.terms == oracle.num.terms and got.den.terms == oracle.den.terms
        assert (got.num.lead, got.den.lead) == (oracle.num.lead, oracle.den.lead)
        assert got.den.leading_coefficient() > 0
    assert (y + minus * x).inverse().den.leading_coefficient() == 1
    assert (minus * two).inverse().render(NAMES) == "-1/2"


def test_2x4_window_and_fiber_checks_make_781_divisions(monkeypatch):
    """Building the symbolic [2]x[4] labeling, its ``orbit_window`` and
    ``fiber_product_checks`` make 781 ``exact_div`` calls and 244
    normalizations (the labeling's 8 variables and its realm's C and 1 among
    them).  When an inverse ran the constructor on the swapped pair and
    every ``constant()`` of the realm built a fresh C, they made 881 and
    363; this path never calls ``one()``."""
    poset = product_of_chains(2, 4)
    divisions, normalizations = [], []
    exact_div, init = Polynomial.exact_div, RationalFunction.__init__

    def counting_exact_div(self, divisor):
        divisions.append(1)
        return exact_div(self, divisor)

    def counting_init(self, num, den):
        normalizations.append(1)
        init(self, num, den)

    monkeypatch.setattr(Polynomial, "exact_div", counting_exact_div)
    monkeypatch.setattr(RationalFunction, "__init__", counting_init)
    fibers = fiber_product_checks(poset, orbit_window(poset, symbolic_labeling(poset)))
    monkeypatch.undo()
    assert all(f["pass"] for f in fibers)
    assert (len(divisions), len(normalizations)) == (781, 244)
