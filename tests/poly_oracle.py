"""Tuple-keyed sparse polynomials: the test oracle for the packed ones.

This is the package's polynomial arithmetic before monomials were packed
into ints, kept as an independent reference: terms map exponent tuples to
nonzero ints, graded-lex order is the key ``(sum(exps), exps)``, and every
product, quotient and exponentwise minimum is computed tuple by tuple.
``tests/test_properties.py`` checks the package's ``Polynomial`` against it
operation by operation.  ``evaluate_mod`` and ``evaluate_ratfun_mod`` read
the package's polynomials and rational functions at integer points mod a
prime, for the tests that check symbolic results against numeric ones.
"""

from __future__ import annotations

from math import gcd

from rowmotion.errors import SingularValue


def grlex_key(exps):
    return (sum(exps), exps)


class OraclePolynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        if terms:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {}

    @classmethod
    def constant(cls, nvars, k):
        p = cls(nvars)
        if k:
            p.terms[(0,) * nvars] = int(k)
        return p

    @classmethod
    def variable(cls, nvars, index):
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        e = [0] * nvars
        e[index] = 1
        p = cls(nvars)
        p.terms[tuple(e)] = 1
        return p

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, OraclePolynomial) and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        p = OraclePolynomial(self.nvars)
        p.terms = out
        return p

    def __neg__(self):
        p = OraclePolynomial(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        p = OraclePolynomial(self.nvars)
        p.terms = out
        return p

    def scale(self, k):
        if not k:
            return OraclePolynomial(self.nvars)
        p = OraclePolynomial(self.nvars)
        p.terms = {e: c * k for e, c in self.terms.items()}
        return p

    def exact_scale_down(self, k):
        p = OraclePolynomial(self.nvars)
        p.terms = {e: c // k for e, c in self.terms.items()}
        return p

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def content(self):
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
            if g == 1:
                return 1
        return g

    def monomial_floor(self):
        """Exponentwise min over terms: the largest monomial dividing every term."""
        if not self.terms:
            return (0,) * self.nvars
        it = iter(self.terms)
        floor = list(next(it))
        for e in it:
            for i, v in enumerate(e):
                if v < floor[i]:
                    floor[i] = v
            if not any(floor):
                break
        return tuple(floor)

    def shift_down(self, mono):
        """Divide every term by ``mono`` (caller guarantees exactness)."""
        if not any(mono):
            return self
        p = OraclePolynomial(self.nvars)
        p.terms = {tuple(a - b for a, b in zip(e, mono)): c for e, c in self.terms.items()}
        return p

    def exact_div(self, divisor):
        """Exact quotient self / divisor over the integers, or None.

        Standard leading-term division under graded lex; fails (None) as soon
        as a leading monomial or coefficient does not divide.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return OraclePolynomial(self.nvars)
        dlm = divisor.leading_monomial()
        dlc = divisor.terms[dlm]
        rem = dict(self.terms)
        quo = {}
        while rem:
            rlm = max(rem, key=grlex_key)
            rlc = rem[rlm]
            if any(r < d for r, d in zip(rlm, dlm)):
                return None
            if rlc % dlc:
                return None
            c = rlc // dlc
            m = tuple(r - d for r, d in zip(rlm, dlm))
            quo[m] = quo.get(m, 0) + c
            for e, dc in divisor.terms.items():
                me = tuple(a + b for a, b in zip(m, e))
                s = rem.get(me, 0) - c * dc
                if s:
                    rem[me] = s
                else:
                    rem.pop(me, None)
        q = OraclePolynomial(self.nvars)
        q.terms = quo
        return q

    def evaluate_mod(self, values, p):
        """Evaluate at integer points mod a prime p."""
        total = 0
        for e, c in self.terms.items():
            t = c % p
            for v, k in zip(values, e):
                if k:
                    t = t * pow(v, k, p) % p
            total = (total + t) % p
        return total

    def render(self, names):
        """Human-readable form, terms in descending graded-lex order."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                body = str(abs(c))
            else:
                body = "*".join(factors)
                if abs(c) != 1:
                    body = f"{abs(c)}*{body}"
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])

    def __repr__(self):
        return f"OraclePolynomial({self.nvars}, {self.terms!r})"


def evaluate_mod(poly, values, p):
    """A package ``Polynomial`` at integer points mod a prime p, term by term
    over its exponent tuples."""
    return OraclePolynomial(poly.nvars, poly.exponents()).evaluate_mod(values, p)


def evaluate_ratfun_mod(f, values, p):
    """A package ``RationalFunction`` at integer points mod a prime p; a
    denominator that vanishes there raises SingularValue."""
    den = evaluate_mod(f.den, values, p)
    if den == 0:
        raise SingularValue("denominator vanishes at the sample point")
    return evaluate_mod(f.num, values, p) * pow(den, -1, p) % p
