"""Value domains for poset labelings, behind one small contract.

A realm supplies ``add``, ``mul``, ``inv``, ``one`` and a central constant,
plus exact equality, and three batch operations with defaults built on
those that a realm may replace: ``inv_all``, and the two halves of a
transfer-mode rowmotion step, ``up_transfer`` and ``rowmotion_pass``.  Four
realms are provided:

* tropical rationals (max, +); the piecewise-linear realm,
* multivariate rational functions over the integers, with the constant as a
  distinguished variable; the birational realm,
* square matrices over a prime field, in closed form for d <= 3 by
  ``fp_ops``, a batch inverted with one modular inverse (``inv_all``); the
  fuzzer steps its trials together over a product of copies of that ring
  (``FpProductRealm``),
* square matrices over the exact rationals.

Every matrix inverse, single or batched, scaled or not, and the product
ring's, runs one routine, ``_MatrixRealm._invert``: Gauss-Jordan, which
matp replaces for d <= 3 by the closed form.

Matrix values are flat row-major tuples of d*d entries; only their JSON
form has rows.  A value is checked where it enters (its JSON reader, or a
sampler that builds d*d entries), and the operations trust it: a matp value
always has entries in 0..p-1, a matq value ``Fraction`` entries.

Matrix realms with d >= 2 are noncommutative and model skew-field labels:
an identity is accepted when it holds exactly for many independent samples
at several dimensions.  The constant is c times the identity, so it is
central by construction.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat

from .errors import SingularValue, shown
from .ratfun import RationalFunction

FUZZ_PRIME = 2**61 - 1

MAX_DECIMAL_EXPONENT = 10_000
_DECIMAL = re.compile(r"\s*[-+]?[\d_]*(?:\.[\d_]*)?[eE][-+]?(?P<exp>[\d_]+)\s*")

# Miller-Rabin with the first 12 prime bases is deterministic below the
# smallest strong pseudoprime to all of them (Sorenson and Webster, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_CERTIFIED_BELOW = 318665857834031151167461


@lru_cache(maxsize=64)
def is_prime(n):
    """Deterministic primality test for n < MR_CERTIFIED_BELOW.

    Raises ValueError for larger n, which this test cannot certify; the
    message names the limit and not n, which may have thousands of digits.
    Cached: it takes about 0.2 ms for a 61-bit prime, and every fuzz cell
    and every sampled matrix realm checks its modulus.
    """
    if n >= MR_CERTIFIED_BELOW:
        raise ValueError(f"p is too large to certify as prime "
                         f"(limit {MR_CERTIFIED_BELOW})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p):
    """Refuse, with ValueError, a modulus that is not a certified prime."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


class Realm:
    """Shared operation table; concrete realms fill in the value type."""

    name = "abstract"
    commutative = True

    def add(self, x, y):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def constant(self):
        """The central constant of the realm."""
        raise NotImplementedError

    def inv_at(self, v, element):
        """``inv(v)``; a singular v re-raises the message naming ``element``."""
        try:
            return self.inv(v)
        except SingularValue as exc:
            raise SingularValue(str(exc), element=element) from exc

    def inv_all(self, values, elements, scaled=False):
        """``inv_at(v, x)`` for each value v and its element x, times
        ``constant()`` when ``scaled``; this default inverts one at a time."""
        out = [self.inv_at(v, x) for x, v in zip(elements, values)]
        return [self.mul(self.constant(), w) for w in out] if scaled else out

    def up_transfer(self, poset, values):
        """The inverse-up transfer D of per-element ``values`` in id order,
        as a list: D(x) = (sum of D over upper covers) * values[x], or
        values[x] at a maximal x, with sums folded left to right.  It walks
        ``poset.up_sweep``, so the realm calls are those of walking
        ``up_covers`` in ``reversed(topo_order)``."""
        return _up_fold(poset, values, self.mul, self.add)

    def rowmotion_pass(self, poset, D):
        """The rest of a transfer-mode step from the inverse-up transfer
        ``D`` of a labeling g (``up_transfer`` of its values), as a list in
        id order: E = C * inv(D); out(x) = E(x) * inv(sum of E over lower
        covers), or E(x) at a minimal x.  ``inv_all`` inverts each batch,
        and sums fold left to right with ``add``.

        The second batch is in id order, so a refusal names the element,
        with the message, of the ``dynamics.transfer`` composition.  Toggle
        mode inverts, at each v, the up-value D(v) and the down-value
        g(v) * (sum of W over lower covers), as one product down * up in a
        matrix realm, with W its own inverse-down values of the toggled
        labels; W equals E, though toggle mode forms it by other products.
        So it refuses exactly when some D(v), g(v) or lower-cover sum is
        singular; a singular g(v) makes D(v) singular, so the batches agree.

        The lower covers are read from ``poset.down_sweep`` over
        ``nonminimal``, built once per poset, so no element's covers are
        looked up, tested or sliced per step; the realm calls and the batch
        are those of walking ``down_covers`` in the same order.
        """
        mul, add, inv_all = self.mul, self.add, self.inv_all
        E = inv_all(D, range(poset.n), scaled=True)
        sums = []
        for x, first, rest in poset.down_sweep:
            s = E[first]
            for y in rest:
                s = add(s, E[y])
            sums.append(s)
        out = list(E)
        nonminimal = poset.nonminimal
        for x, s in zip(nonminimal, inv_all(sums, nonminimal)):
            out[x] = mul(E[x], s)
        return out

    def scaled_inv_pair(self, up, down, element):
        """C * inv(up) * inv(down), the toggle's factor at ``element``; a
        singular up, then down, re-raises naming ``element``.  This default
        inverts each on its own and folds left to right.  ratfun cancels a
        factor only when one side of a product divides the other, so its
        printed forms depend on this order; the one-inverse product made the
        [2]x[4] toggles report 30% larger."""
        return self.mul(self.mul(self.constant(), self.inv_at(up, element)),
                        self.inv_at(down, element))

    def eq(self, x, y):
        return x == y

    def sum(self, values):
        """Fold ``add`` over ``values``; an empty sum is ``one()`` by the
        boundary convention for virtual bottom/top elements."""
        total = None
        for v in values:
            total = v if total is None else self.add(total, v)
        return self.one() if total is None else total

    def product(self, values):
        """Fold ``mul`` left to right (order matters when noncommutative)."""
        total = None
        for v in values:
            total = v if total is None else self.mul(total, v)
        return self.one() if total is None else total

    def config(self):
        raise NotImplementedError

    def value_to_json(self, x):
        raise NotImplementedError

    def value_from_json(self, obj):
        raise NotImplementedError


def _up_fold(poset, values, mul, add):
    """``Realm.up_transfer`` on the products ``mul`` and sums ``add``."""
    D = list(values)  # kept at the maximal elements
    for x, first, rest in poset.up_sweep:
        s = D[first]
        for y in rest:
            s = add(s, D[y])
        D[x] = mul(s, values[x])
    return D


class TropicalRealm(Realm):
    """Exact rationals under (max, +): add is max, mul is +, inv is negation.

    ``one()`` is the int 0 and an integral constant c is stored as an int,
    so labelings with integer labels are iterated in int arithmetic (this is
    how ``pl_homomesy_report`` runs, on the sampler's integer numerators
    with c the sampler's scale); rational labels or a rational c stay
    ``Fraction``.  ``str`` gives the same text either way, so reports do
    not depend on which one a value is.

    Negation cannot fail, so ``inv_all`` is one pass with no per-element
    refusal: c - v when scaled, else -v, the values and the int or
    ``Fraction`` types of the default c + (-v) and -v.  Both halves of a
    rowmotion step are its own: ``up_transfer`` is the longest-chain table,
    which also decides chain-polytope membership
    (``dynamics.in_chain_polytope``), and ``rowmotion_pass`` subtracts.
    """

    name = "tropical"
    commutative = True

    def __init__(self, c=1):
        c = Fraction(c)
        self.c = c.numerator if c.denominator == 1 else c

    def add(self, x, y):
        return x if x >= y else y

    def mul(self, x, y):
        return x + y

    def inv(self, x):
        return -x

    def inv_all(self, values, elements, scaled=False):
        if scaled:
            c = self.c
            return [c - v for v in values]
        return [-v for v in values]

    @staticmethod
    def up_transfer(poset, values):
        """``Realm.up_transfer`` as the longest-chain table: D(x) is the
        largest sum of ``values`` over a chain from x up to a maximal
        element.  The values and types are those of the default fold (a tie
        keeps the first cover's value, as ``add`` does), and the table does
        not depend on c.  ``FinitePoset.max_chain_sum`` reads it too.

        The sweep hands each element its first upper cover and the rest, so
        the pass makes no per-element lookup, test or call.
        """
        best = list(values)
        for x, first, rest in poset.up_sweep:
            m = best[first]
            for y in rest:
                if best[y] > m:
                    m = best[y]
            best[x] += m
        return best

    def rowmotion_pass(self, poset, D):
        """``Realm.rowmotion_pass`` read tropically, E(x) * inv(s) as one
        subtraction: E = c - D, and out(x) = E(x) - (max of E over lower
        covers), folded with ``add`` in ``down_sweep`` order, so with no
        second inverse batch and no ``mul`` call.  The values and types are
        those of the default fold, ties included (a tie keeps the first
        cover's value), and negation never refuses."""
        c, add = self.c, self.add
        E = [c - v for v in D]
        out = list(E)  # kept at the minimal elements
        for x, first, rest in poset.down_sweep:
            s = E[first]
            for y in rest:
                s = add(s, E[y])
            out[x] = E[x] - s
        return out

    def one(self):
        return 0

    def constant(self):
        return self.c

    def config(self):
        return {"realm": "tropical", "c": str(self.c)}

    def value_to_json(self, x):
        return decimal_text(x, "a tropical label")

    def value_from_json(self, obj):
        return json_number(obj, Fraction, "a tropical label")


class RationalFunctionRealm(Realm):
    """Field of rational functions in the constant C and one variable per label.

    Variable 0 is always C; ``variables`` lists the remaining names, which
    must be distinct identifiers other than "C" so that every label reads
    back as one variable, and every rendered label reads back one way
    (ValueError otherwise).
    """

    name = "ratfun"
    commutative = True

    def __init__(self, variables):
        seen = set()
        for v in variables:
            if not (isinstance(v, str) and v):
                raise ValueError(f"a ratfun variable must be a nonempty string, "
                                 f"got {shown(json.dumps(v, default=str))}")
            if v == "C":
                raise ValueError("ratfun variable 'C' is the constant's name")
            if not v.isidentifier():
                raise ValueError(f"ratfun variable {shown(repr(v))} is not an identifier")
            if v in seen:
                raise ValueError(f"ratfun variable {shown(repr(v))} is declared twice")
            seen.add(v)
        self.variable_names = ("C",) + tuple(variables)
        self.nvars = len(self.variable_names)
        # Values are immutable, so one C and one 1 serve every call.
        self._one = RationalFunction.constant(self.nvars, 1)
        self._constant = RationalFunction.variable(self.nvars, 0)

    def variable(self, name):
        return RationalFunction.variable(self.nvars, self.variable_names.index(name))

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        return x.inverse()

    def one(self):
        return self._one

    def constant(self):
        return self._constant

    def eq(self, x, y):
        return x.equals(y)

    def config(self):
        return {"realm": "ratfun", "variables": list(self.variable_names[1:])}

    def value_to_json(self, x):
        return x.render(self.variable_names)

    def value_from_json(self, obj):
        # Input labelings are plain variable names; outputs are display strings.
        if obj not in self.variable_names:
            raise ValueError(f"{shown(repr(obj))} is not a declared variable "
                             f"({', '.join(map(shown, self.variable_names))})")
        return self.variable(obj)


class _MatrixRealm(Realm):
    """Common d-by-d matrix plumbing.  A value is a flat row-major tuple of
    d*d entries, (i, j) at i*d + j; rows exist only in the JSON form.

    A value's shape is checked where it enters: ``value_from_json`` refuses
    anything but d lists of d entries, and the samplers build d*d entries.
    The operations trust it, as the tropical and ratfun realms trust theirs.
    ``_norm`` brings an exact entry into the realm (reduced mod p for matp,
    a ``Fraction`` for matq), so ``add``, ``mul`` and the inverses serve
    both realms.  ``mul`` is ``_mul``, the general product, and every
    inverse is ``_invert``, Gauss-Jordan; matp replaces both with the closed
    forms of ``fp_ops`` for d <= 3.
    """

    def __init__(self, d, c):
        if d < 1:
            raise ValueError("matrix dimension must be at least 1")
        self.d = d
        self.c = c
        self.commutative = d == 1
        self._singular = f"singular {d}x{d} matrix"
        self._one = self.identity(1)
        self._constant = self.identity(c)

    def add(self, x, y):
        return tuple(map(self._norm, map(operator.add, x, y)))

    def mul(self, x, y):
        return self._mul(x, y)

    def up_transfer(self, poset, values):
        """``Realm.up_transfer`` on ``_mul``, the product ``mul`` calls: one
        Python frame fewer per product."""
        return _up_fold(poset, values, self._mul, self.add)

    def _mul(self, x, y):
        return tuple(map(self._norm, mat_product(self.d, x, y)))

    def one(self):
        return self._one

    def constant(self):
        return self._constant

    def scaled_inv_pair(self, up, down, element):
        """``Realm.scaled_inv_pair`` with one inverse: inversion reverses
        products, so it is C * inv(down * up).  down * up is singular exactly
        when up or down is (the determinant is multiplicative), and the
        refusal has the same message and element."""
        return self.mul(self._constant, self.inv_at(self.mul(down, up), element))

    def identity(self, scalar):
        d = self.d
        m = [self._norm(0)] * (d * d)
        m[::d + 1] = [self._norm(scalar)] * d
        return tuple(m)

    def inv(self, x):
        """``_invert`` on a batch of one; a singular x names no element."""
        out, bad = self._invert((x,))
        if bad is not None:
            raise SingularValue(self._singular)
        return out[0]

    def inv_all(self, values, elements, scaled=False):
        """``Realm.inv_all`` as one ``_invert`` batch, each inverse scaled
        by c when ``scaled``; a refusal names the first singular value's
        element."""
        out, bad = self._invert(values, scaled and repeat(self.c))
        if bad is not None:
            raise SingularValue(self._singular, element=tuple(elements)[bad])
        return out

    def _invert(self, values, scales=None):
        """The one batch inverse of the matrix realms: ``(out, None)`` with
        out[i] = s * inv(values[i]) for the i-th scale s of ``scales`` (1
        when ``scales`` is false), or ``(None, i)`` at the first singular
        values[i].  ``inv``, ``inv_all`` and ``FpProductRealm.inv_all`` only
        map that index to what their refusal names.

        Gauss-Jordan, one matrix at a time: the row operations that reduce
        m to the identity turn s * I into s * inv(m).  Row r of either is
        the slice [r*d, r*d + d).  matp replaces this for d <= 3 with the
        closed form of ``fp_ops``.
        """
        d, norm = self.d, self._norm
        zero = norm(0)
        rows = [slice(r, r + d) for r in range(0, d * d, d)]
        out = []
        for i, (x, s) in enumerate(zip(values, scales or repeat(1))):
            a, b = list(x), list(self.identity(s))
            for col, rc in enumerate(rows):
                pivot = next((r for r in range(col, d) if a[r * d + col] != zero), None)
                if pivot is None:
                    return None, i
                pinv = self._scalar_inv(a[pivot * d + col])
                for m in (a, b):
                    m[rc], m[rows[pivot]] = m[rows[pivot]], m[rc]
                    m[rc] = [norm(v * pinv) for v in m[rc]]
                for r, rr in enumerate(rows):
                    f = a[r * d + col]
                    if r != col and f != zero:
                        for m in (a, b):
                            m[rr] = [norm(u - f * v) for u, v in zip(m[rr], m[rc])]
            out.append(tuple(b))
        return out, None

    def value_to_json(self, x):
        d = self.d
        return [list(map(self._entry_to_json, x[r:r + d])) for r in range(0, d * d, d)]

    def value_from_json(self, obj):
        d = self.d
        if not (isinstance(obj, list) and len(obj) == d
                and all(isinstance(row, list) and len(row) == d for row in obj)):
            raise ValueError(f"a {self.name} label must be {d} lists of {d} entries")
        return tuple(self._entry_from_json(v) for row in obj for v in row)


def mat_product(d, x, y):
    """x * y for d x d matrices as flat row-major tuples, in exact integer
    or ``Fraction`` arithmetic; ``_MatrixRealm._mul`` normalizes its entries.
    The general product (matq, and F_p for d >= 4)."""
    cols = [y[j::d] for j in range(d)]
    return tuple(sum(map(operator.mul, x[r:r + d], col))
                 for r in range(0, d * d, d) for col in cols)


@lru_cache(maxsize=64)
def fp_ops(d, p):
    """(mul, invert) for d x d matrices mod p as flat row-major tuples, for
    d = 1, 2, 3: the unrolled product, and ``_MatrixRealm._invert`` in
    closed form, from the determinant and k times the adjugate.

    Inputs are reduced, entries in 0..p-1, and so are the results.  Cached,
    since every matp realm and every fuzz batch's product ring
    (``FpProductRealm``) takes them.
    """
    if d == 1:
        def mul(x, y):
            return (x[0] * y[0] % p,)

        def det(m):
            return m[0]

        def adj(m, k):
            return (k,)
    elif d == 2:
        def mul(x, y):
            a, b, c, e = x
            f, g, h, i = y
            return ((a * f + b * h) % p, (a * g + b * i) % p,
                    (c * f + e * h) % p, (c * g + e * i) % p)

        def det(m):
            a, b, c, e = m
            return (a * e - b * c) % p

        def adj(m, k):
            a, b, c, e = m
            return (e * k % p, -b * k % p, -c * k % p, a * k % p)
    else:  # d == 3
        def mul(x, y):
            a, b, c, e, f, g, h, i, j = x
            k, l, m, n, o, q, r, s, t = y
            return ((a * k + b * n + c * r) % p, (a * l + b * o + c * s) % p,
                    (a * m + b * q + c * t) % p, (e * k + f * n + g * r) % p,
                    (e * l + f * o + g * s) % p, (e * m + f * q + g * t) % p,
                    (h * k + i * n + j * r) % p, (h * l + i * o + j * s) % p,
                    (h * m + i * q + j * t) % p)

        def det(m):
            a, b, c, e, f, g, h, i, j = m
            return (a * (f * j - g * i) + b * (g * h - e * j) + c * (e * i - f * h)) % p

        def adj(m, k):
            a, b, c, e, f, g, h, i, j = m
            return ((f * j - g * i) * k % p, (c * i - b * j) * k % p, (b * g - c * f) * k % p,
                    (g * h - e * j) * k % p, (a * j - c * h) * k % p, (c * e - a * g) * k % p,
                    (e * i - f * h) * k % p, (b * h - a * i) * k % p, (a * f - b * e) * k % p)

    def invert(values, scales=None):
        """adj(m, s * det(m)^-1) for each matrix m of ``values`` and its
        scale s: Montgomery's trick, one modular inverse and 3(k-1) products
        for k matrices, plus one per scale.  A zero det is singular."""
        dets = list(map(det, values))
        if 0 in dets:
            return None, dets.index(0)
        prefix = []
        acc = 1
        for t in dets:
            prefix.append(acc)
            acc = acc * t % p
        if scales:
            prefix = [a * s % p for a, s in zip(prefix, scales)]
        inv = pow(acc, -1, p)
        out = []
        for m, a, t in zip(reversed(values), reversed(prefix), reversed(dets)):
            out.append(adj(m, inv * a % p))
            inv = inv * t % p
        out.reverse()
        return out, None

    return mul, invert


class FpMatrixRealm(_MatrixRealm):
    """d-by-d matrices over the prime field F_p; entries stored in 0..p-1.

    For d <= 3 the product and the batch inverse are the closed forms of
    ``fp_ops``: a batch of k inverses takes one modular inverse, singular
    exactly where a det is 0.  For d >= 4 they are the general product and
    Gauss-Jordan.
    """

    name = "matp"
    _entry_to_json = int

    def __init__(self, p, d, c=1):
        require_prime(p)
        c = c % p
        if c == 0:
            raise ValueError("the central constant must be nonzero")
        self.p = p
        self._norm = p.__rmod__  # v % p, with no Python frame per entry
        super().__init__(d, c)
        if d <= 3:
            self._mul, self._invert = fp_ops(d, p)

    def _scalar_inv(self, v):
        return pow(v, -1, self.p)

    def _entry_from_json(self, v):
        return json_number(v, int, "a matp entry") % self.p

    def config(self):
        return {"realm": "matp", "p": self.p, "d": self.d, "c": self.c}


class FpProductRealm(Realm):
    """The product ring of T = len(cs) >= 1 copies of the d x d matrices
    over F_p, with central constant (c_1 I, ..., c_T I): T labelings, one
    per c, as one.  The fuzz engine steps a cell's trials on it.

    A value is a tuple of T matrices, component t a flat row-major tuple of
    the labeling with constant cs[t].  The operations act componentwise, so
    a rowmotion pass over the product is the T passes over F_p at once, and
    a value is a unit exactly when every component is.  ``mul`` and ``add``
    map the matp product and sum over the components, and ``inv_all``
    inverts every component of the batch as one ``_invert`` batch of the
    matp realm (for d <= 3 one modular inverse), each scaled by its own c
    when ``scaled``.  A batch with a singular component raises the refusal
    of its first one, in element order, with that component's own matp
    message and element and, as ``trial``, the component.
    """

    def __init__(self, d, p, cs):
        self.cs = tuple(cs)
        self._base = FpMatrixRealm(p, d)
        self._mul, self._add = self._base._mul, self._base.add

    def mul(self, x, y):
        return tuple(map(self._mul, x, y))

    def add(self, x, y):
        return tuple(map(self._add, x, y))

    def inv_all(self, values, elements, scaled=False):
        T = len(self.cs)
        flat = list(chain.from_iterable(values))
        out, bad = self._base._invert(flat, scaled and self.cs * len(values))
        if bad is not None:
            raise SingularValue(self._base._singular, element=tuple(elements)[bad // T],
                                trial=bad % T)
        return list(zip(*[iter(out)] * T))


class FractionMatrixRealm(_MatrixRealm):
    """d-by-d matrices over the exact rationals."""

    name = "matq"
    _norm = Fraction

    def _entry_to_json(self, v):
        return decimal_text(v, "a matq entry")

    def _entry_from_json(self, v):
        return json_number(v, Fraction, "a matq entry")

    def __init__(self, d, c=Fraction(1)):
        c = Fraction(c)
        if c == 0:
            raise ValueError("the central constant must be nonzero")
        super().__init__(d, c)

    def _scalar_inv(self, v):
        return 1 / v

    def config(self):
        return {"realm": "matq", "d": self.d, "c": str(self.c)}


# The keys each realm's config block may hold: those its ``config()`` writes.
# ``cli`` reads the flags of a sampled realm off the same rows.
CONFIG_KEYS = {"tropical": ("realm", "c"), "ratfun": ("realm", "variables"),
               "matp": ("realm", "p", "d", "c"), "matq": ("realm", "d", "c")}


def realm_from_config(cfg):
    """Instantiate a realm from its JSON config block.

    Raises ValueError for an unknown realm, a key the realm does not read, a
    missing required key, or a ``p``, ``d`` or ``c`` that does not read as
    its number (``json_number``), naming the key."""
    def field(key, kind, default=None):
        raw = json_field(cfg, key, "realm config") if default is None else cfg.get(key, default)
        return json_number(raw, kind, f"realm config {key!r}")

    kind = json_field(cfg, "realm", "realm config")
    keys = CONFIG_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ValueError(f"unknown realm {shown(repr(kind))}")
    for key in cfg:
        if key not in keys:
            raise ValueError(f"realm config {shown(repr(key))} is not read by realm {kind}, "
                             f"which reads {', '.join(keys)}")
    if kind == "tropical":
        return TropicalRealm(field("c", Fraction, 1))
    if kind == "ratfun":
        variables = json_field(cfg, "variables", "realm config")
        if not isinstance(variables, list):
            raise ValueError(f"realm config 'variables' must be a list of names, "
                             f"got {shown(json.dumps(variables, default=str))}")
        return RationalFunctionRealm(variables)
    if kind == "matp":
        return FpMatrixRealm(field("p", int), field("d", int), field("c", int, 1))
    return FractionMatrixRealm(field("d", int), field("c", Fraction, 1))  # matq


class FloatLiteral(float):
    """A JSON number literal with a fraction or an exponent, as ``cli`` reads
    it: the float ``json`` would give, which every other reader sees, and the
    literal's ``text``, which ``json_number`` reads exactly."""

    __slots__ = ("text",)

    def __new__(cls, text):
        self = super().__new__(cls, text)
        self.text = text
        return self


def json_number(v, kind, what):
    """``kind(v)`` for ``kind`` int or Fraction, where ``v`` is a JSON number
    or a string; a ``FloatLiteral`` is read from its text, so 0.1 is 1/10
    and 1e999 is 10**999.  A boolean, a float read as an int (which would
    truncate it), a huge number (``refuse_huge_number``) or anything
    ``kind`` cannot read raises ValueError naming ``what``."""
    text = v.text if isinstance(v, FloatLiteral) else v
    refuse_huge_number(v, what)
    if not (isinstance(v, bool) or (kind is int and isinstance(v, float))):
        try:
            return kind(text)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    noun = "an integer" if kind is int else "a rational number"
    raise ValueError(f"{what} must be {noun}, got {_as_written(v)}")


def _as_written(v):
    """``v`` as a JSON input wrote it: a ``FloatLiteral`` by its text, so
    1e2 shows unquoted, and anything else as JSON, so a string is quoted;
    a long one by its start and length (``errors.shown``)."""
    return shown(v.text if isinstance(v, FloatLiteral) else json.dumps(v, default=str))


def refuse_huge_number(v, what):
    """ValueError naming ``what`` for a number string or ``FloatLiteral``
    that cannot be read quickly, or at all.

    A decimal exponent past ``MAX_DECIMAL_EXPONENT`` in size is refused:
    ``Fraction`` would build 10**exponent, which for "1e100000000" runs for
    minutes.  "1e999" reads exactly.  So is a run of more digits than
    Python reads into an integer (``sys.get_int_max_str_digits()``, 4300 by
    default), without printing them; ``cli`` reads such a JSON integer
    literal as its text, and a float literal with its text
    (``FloatLiteral``), so they are refused here by their field too.  The
    refusal shows the number as written (``_as_written``).
    """
    text = v.text if isinstance(v, FloatLiteral) else v
    if not isinstance(text, str):
        return
    m = _DECIMAL.fullmatch(text)
    digits = m["exp"].replace("_", "").lstrip("0") if m else ""
    if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"{what} has a decimal exponent past {MAX_DECIMAL_EXPONENT}, "
                         f"got {_as_written(v)}")
    limit = sys.get_int_max_str_digits()
    if limit and re.search(rf"\d{{{limit + 1}}}", text.replace("_", "")):
        raise ValueError(f"{what} has more than {limit} digits, "
                         f"the most Python reads in an integer")


def decimal_text(v, what):
    """``str(v)`` for an int or ``Fraction`` v.  Past Python's limit on
    printing an integer (``sys.get_int_max_str_digits()``, 4300 digits by
    default) it raises ValueError naming ``what`` and the limit, in place
    of Python's own message."""
    try:
        return str(v)
    except ValueError:
        raise ValueError(f"{what} has more than {sys.get_int_max_str_digits()} digits, "
                         f"the most Python prints in an integer") from None


def json_field(obj, key, what):
    """``obj[key]`` for a JSON input object; a missing key, or an ``obj``
    that is not an object, raises ValueError naming ``what`` it is."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    if key not in obj:
        raise ValueError(f"{what} has no {key!r} key")
    return obj[key]


def symbolic_variable_names(n):
    """Names for n symbolic labels: the last n lowercase letters when they
    fit (so four labels are w, x, y, z), else x1..xn."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    if n <= len(letters):
        return list(letters[len(letters) - n:])
    return [f"x{k}" for k in range(1, n + 1)]
