"""Sparse multivariate polynomials with integer coefficients.

Terms are stored as a dict mapping packed monomials to nonzero ints.  A
monomial in n variables is one int of n + 1 fields of ``FIELD_BITS`` bits:
the total degree in the top field, then exponent i in field i with variable 0
the most significant, down to variable n - 1 in the lowest field.  The top
bit of every field is a guard bit that is zero in every monomial, so a field
holds at most ``MAX_DEGREE`` = 2^15 - 1 and the total degree bounds every
exponent.

The monomial order everywhere is graded lexicographic: higher total degree
first, ties broken by the exponents with variable 0 heaviest.  With the
degree on top that is plain int order, so the leading monomial is
``max(terms)``.  A monomial product is one ``+``, a quotient one ``-``, and
divisibility shows as a borrow into some guard bit.  A product whose total
degree would pass ``MAX_DEGREE`` raises ``ValueError`` before any field can
carry into the next.

Exponent tuples appear only at the edges: the ``Polynomial(nvars, {exps:
coeff})`` constructor, ``pack``/``unpack``/``exponents``, ``render`` and
``evaluate_mod``.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

FIELD_BITS = 16
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


@lru_cache(maxsize=None)
def _layout(nvars):
    """(degree shift, guard bits of all fields, 1 in the low bit of each exponent field)."""
    shift = FIELD_BITS * nvars
    ones = sum(1 << (FIELD_BITS * k) for k in range(nvars))
    guards = (ones | 1 << shift) << (FIELD_BITS - 1)
    return shift, guards, ones


def monomial_gcd(nvars, monos):
    """Exponentwise minimum of a nonempty iterable of packed monomials.

    Per field, ``(f | guards) - m`` keeps the guard bit exactly where
    f_i >= m_i (no borrow crosses a guard), and that bit spread over its
    field selects m_i there.  The degree field is recomputed at the end as
    the sum of the exponent fields.
    """
    shift, guards, ones = _layout(nvars)
    exps = (1 << shift) - 1
    it = iter(monos)
    f = next(it)
    for m in it:
        t = ((f | guards) - m) & guards
        f ^= (f ^ m) & (t - (t >> (FIELD_BITS - 1)))
        if not f & exps:
            return 0
    f &= exps
    return f | ((f * ones >> (shift - FIELD_BITS)) & _FIELD_MASK) << shift


def _poly(nvars, terms):
    p = Polynomial.__new__(Polynomial)
    p.nvars = nvars
    p.terms = terms
    return p


class Polynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {self.pack(e): c for e, c in terms.items() if c} if terms else {}

    @classmethod
    def constant(cls, nvars, k):
        return _poly(nvars, {0: int(k)} if k else {})

    @classmethod
    def variable(cls, nvars, index):
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        mono = 1 << (FIELD_BITS * nvars) | 1 << (FIELD_BITS * (nvars - 1 - index))
        return _poly(nvars, {mono: 1})

    def pack(self, exps):
        """The packed monomial of an exponent tuple."""
        if len(exps) != self.nvars:
            raise ValueError(f"{len(exps)} exponents for {self.nvars} variables")
        mono = degree = 0
        for k in exps:
            if k < 0:
                raise ValueError(f"negative exponent {k}")
            mono = mono << FIELD_BITS | k
            degree += k
        if degree > MAX_DEGREE:
            raise ValueError(f"monomial degree {degree} exceeds {MAX_DEGREE}")
        return mono | degree << (FIELD_BITS * self.nvars)

    def unpack(self, mono):
        """The exponent tuple of a packed monomial."""
        n = self.nvars
        return tuple(mono >> (FIELD_BITS * (n - 1 - i)) & _FIELD_MASK for i in range(n))

    def exponents(self):
        """The terms keyed by exponent tuples."""
        return {self.unpack(m): c for m, c in self.terms.items()}

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return _poly(self.nvars, out)

    def __neg__(self):
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.terms, other.terms
        out = {}
        if a and b:
            shift = FIELD_BITS * self.nvars
            degree = (max(a) >> shift) + (max(b) >> shift)
            if degree > MAX_DEGREE:
                raise ValueError(f"product of degree {degree} exceeds the monomial "
                                 f"limit {MAX_DEGREE}")
            get = out.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    s = get(e, 0) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return _poly(self.nvars, out)

    def scale(self, k):
        if not k:
            return _poly(self.nvars, {})
        return _poly(self.nvars, {e: c * k for e, c in self.terms.items()})

    def exact_scale_down(self, k):
        return _poly(self.nvars, {e: c // k for e, c in self.terms.items()})

    def total_degree(self):
        return max(self.terms) >> (FIELD_BITS * self.nvars) if self.terms else 0

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms)

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

    def shift_down(self, mono):
        """Divide every term by ``mono`` (caller guarantees exactness)."""
        if not mono:
            return self
        return _poly(self.nvars, {e - mono: c for e, c in self.terms.items()})

    def exact_div(self, divisor):
        """Exact quotient self / divisor over the integers, or None.

        Standard leading-term division under graded lex; fails (None) as soon
        as a leading monomial or coefficient does not divide.  The quotient
        monomials come out strictly decreasing, one per step.  The leading
        terms are tried before the remainder is copied, since most failed
        probes fail there.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return _poly(self.nvars, {})
        guards = _layout(self.nvars)[1]
        dlm = max(divisor.terms)
        dlc = divisor.terms[dlm]
        lead = max(self.terms)
        if (lead - dlm) & guards or self.terms[lead] % dlc:
            return None
        dterms = list(divisor.terms.items())
        rem = dict(self.terms)
        get = rem.get
        quo = {}
        while rem:
            rlm = max(rem)
            m = rlm - dlm
            if m & guards:
                return None
            c, r = divmod(rem[rlm], dlc)
            if r:
                return None
            quo[m] = c
            for e, dc in dterms:
                me = m + e
                s = get(me, 0) - c * dc
                if s:
                    rem[me] = s
                else:
                    del rem[me]
        return _poly(self.nvars, quo)

    def evaluate_mod(self, values, p):
        """Evaluate at integer points mod a prime p."""
        total = 0
        for m, c in self.terms.items():
            t = c % p
            for v, k in zip(values, self.unpack(m)):
                if k:
                    t = t * pow(v, k, p) % p
            total = (total + t) % p
        return total

    def render(self, names):
        """Human-readable form, terms in descending graded-lex order."""
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = []
            for name, k in zip(names, self.unpack(m)):
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
        return f"Polynomial({self.nvars}, {self.exponents()!r})"
