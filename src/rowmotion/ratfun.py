"""Rational functions as normalized fractions of integer polynomials.

Normal form: numerator and denominator share no integer content and no common
monomial, and the denominator's graded-lex leading coefficient is positive.
Equality is decided by cross-multiplication on normal forms; there is no full
multivariate gcd.  To keep iterated maps from swelling, multiplication and
addition cancel a factor opportunistically whenever one side divides the
other exactly.

Numerator and denominator key their terms by packed monomials (see
``polynomials``): the common monomial is one ``monomial_gcd`` over the terms
of both, removed by one subtraction per term, and a polynomial is a unit
when its only term is the constant monomial 0 with coefficient +-1 (its
kept lead is 0, the least monomial).

An inverse is the swapped pair with the sign fixed, built without the
constructor: see ``RationalFunction.inverse``.
"""

from __future__ import annotations

from itertools import chain
from math import gcd

from .errors import SingularValue
from .polynomials import Polynomial, monomial_gcd


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = num
            self.den = Polynomial.constant(num.nvars, 1)
            return
        mono = monomial_gcd(num.nvars, chain(num.terms, den.terms))
        if mono:
            num = num.shift_down(mono)
            den = den.shift_down(mono)
        g = gcd(num.content(), den.content())
        if g != 1:
            num = num.exact_scale_down(g)
            den = den.exact_scale_down(g)
        # Whole-quotient cancellation: enough to keep iterated transfer maps
        # reduced in practice, without a multivariate gcd.
        num, den = _cancel(num, den)
        if den.leading_coefficient() < 0:
            num = num.scale(-1)
            den = den.scale(-1)
        self.num = num
        self.den = den

    @classmethod
    def from_polynomial(cls, p):
        return cls(p, Polynomial.constant(p.nvars, 1))

    @classmethod
    def constant(cls, nvars, k):
        return cls.from_polynomial(Polynomial.constant(nvars, k))

    @classmethod
    def variable(cls, nvars, index):
        return cls.from_polynomial(Polynomial.variable(nvars, index))

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return RationalFunction(a + c, b)
        q = d.exact_div(b)
        if q is not None:
            return RationalFunction(a * q + c, d)
        q = b.exact_div(d)
        if q is not None:
            return RationalFunction(a + c * q, b)
        return RationalFunction(a * d + c * b, b * d)

    def __mul__(self, other):
        a, b = self.num, self.den
        c, d = other.num, other.den
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return RationalFunction(a * c, b * d)

    def inverse(self):
        """(den, num), negated on both sides when num leads negatively.

        The constructor would change nothing else on a swapped normal form.
        The common monomial and the joint content are symmetric in the two
        sides, so both are already 1.  ``_cancel`` then either skips, since
        one side is a unit, or repeats the two exact divisions that already
        failed when this value was normalized, in the other order; exact
        divisibility does not depend on sign.
        """
        if self.num.is_zero():
            raise SingularValue("inverse of the zero rational function")
        num, den = self.den, self.num
        if den.leading_coefficient() < 0:
            num, den = -num, -den
        out = RationalFunction.__new__(RationalFunction)
        out.num = num
        out.den = den
        return out

    def __truediv__(self, other):
        return self * other.inverse()

    def equals(self, other):
        return (self.num * other.den) == (other.num * self.den)

    def __eq__(self, other):
        return isinstance(other, RationalFunction) and self.equals(other)

    __hash__ = None

    def render(self, names):
        num = self.num.render(names)
        if self.den == Polynomial.constant(self.den.nvars, 1):
            return num
        den = self.den.render(names)
        if len(self.num.terms) > 1:
            num = f"({num})"
        if "*" in den or " " in den or "^" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _is_unit(p):
    return p.lead == 0 and abs(p.terms[0]) == 1


def _cancel(n, d):
    """Cancel d out of n (or n out of d) when the division is exact."""
    if _is_unit(n) or _is_unit(d):
        return n, d
    q = n.exact_div(d)
    if q is not None:
        return q, Polynomial.constant(n.nvars, 1)
    q = d.exact_div(n)
    if q is not None:
        return Polynomial.constant(n.nvars, 1), q
    return n, d
