"""Sparse integer polynomials: arithmetic, division, ordering."""

import random

import pytest

from rowmotion.polynomials import MAX_DEGREE, Polynomial, monomial_gcd

from poly_oracle import evaluate_mod


def rand_poly(rng, nvars, max_terms=5, max_exp=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        e = tuple(rng.randrange(max_exp + 1) for _ in range(nvars))
        c = rng.randrange(-max_coeff, max_coeff + 1)
        if c:
            terms[e] = terms.get(e, 0) + c
    return Polynomial(nvars, terms)


def test_basic_arithmetic():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    s = x + y
    assert (s * s).exponents() == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert (s - s).is_zero()
    assert (x * y).exponents() == {(1, 1): 1}
    one = Polynomial.constant(2, 1)
    assert (s * one) == s


def test_grlex_ordering():
    # degree dominates, then variable 0 is heaviest: plain order on packed monomials
    pack = Polynomial(2).pack
    assert pack((0, 2)) < pack((1, 1)) < pack((2, 0)) < pack((1, 2))
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x * y + y * y + x
    assert p.unpack(p.leading_monomial()) == (1, 1)


def test_content_and_monomial_floor():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x * y).scale(4) + (x * x * y).scale(6)
    assert p.content() == 2
    assert p.unpack(monomial_gcd(p.nvars, p.terms)) == (1, 1)
    assert p.shift_down(p.pack((1, 1))).exponents() == {(0, 0): 4, (1, 0): 6}


def test_exact_div_examples():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    s = x + y
    prod = s * s * x
    q = prod.exact_div(s)
    assert q == s * x
    assert prod.exact_div(x * y) is None
    assert (x + y).exact_div(x.scale(2) + y.scale(2)) is None  # not integral
    assert (x.scale(2) + y.scale(2)).exact_div(x + y) == Polynomial.constant(2, 2)


def test_exact_div_round_trip_randomized():
    rng = random.Random(99)
    for _ in range(300):
        nv = rng.randrange(1, 4)
        p = rand_poly(rng, nv)
        q = rand_poly(rng, nv)
        if q.is_zero():
            continue
        prod = p * q
        got = prod.exact_div(q)
        assert got is not None and got == p
        # and a perturbed dividend fails unless q divides the perturbation
        bump = prod + Polynomial.constant(nv, 1)
        back = bump.exact_div(q)
        if back is not None:
            assert back * q == bump


def test_evaluate_mod_homomorphism():
    rng = random.Random(5)
    p_mod = 10007
    for _ in range(100):
        nv = 3
        f = rand_poly(rng, nv)
        g = rand_poly(rng, nv)
        vals = [rng.randrange(p_mod) for _ in range(nv)]
        assert evaluate_mod(f + g, vals, p_mod) == (
            evaluate_mod(f, vals, p_mod) + evaluate_mod(g, vals, p_mod)
        ) % p_mod
        assert evaluate_mod(f * g, vals, p_mod) == (
            evaluate_mod(f, vals, p_mod) * evaluate_mod(g, vals, p_mod)
        ) % p_mod


def test_render():
    names = ("C", "x", "y")
    x = Polynomial.variable(3, 1)
    y = Polynomial.variable(3, 2)
    c = Polynomial.variable(3, 0)
    assert (x + y).render(names) == "x + y"
    assert (c * x * x - y.scale(3)).render(names) == "C*x^2 - 3*y"
    assert Polynomial(3).render(names) == "0"
    assert Polynomial.constant(3, -7).render(names) == "-7"


def test_constructor_refuses_unpackable_exponents():
    for exps in ((1,), (1, 2, 3), (-1, 2), (MAX_DEGREE, 1)):
        with pytest.raises(ValueError):
            Polynomial(2, {exps: 1})
    assert Polynomial(2, {(MAX_DEGREE, 0): 1, (0, 0): 0}).exponents() == {(MAX_DEGREE, 0): 1}
