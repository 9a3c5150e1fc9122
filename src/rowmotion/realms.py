"""Value domains for poset labelings, behind one small contract.

A realm supplies ``add``, ``mul``, ``inv``, ``one`` and a central constant,
plus exact equality.  Four realms are provided:

* tropical rationals (max, +); the piecewise-linear realm,
* multivariate rational functions over the integers, with the constant as a
  distinguished variable; the birational realm,
* square matrices over a prime field,
* square matrices over the exact rationals.

Matrix realms with d >= 2 are noncommutative and model skew-field labels:
an identity is accepted when it holds exactly for many independent samples
at several dimensions.  The constant is c times the identity, so it is
central by construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import SingularValue
from .ratfun import RationalFunction

FUZZ_PRIME = 2**61 - 1

# Miller-Rabin with the first 12 prime bases is deterministic below the
# smallest strong pseudoprime to all of them (Sorenson and Webster, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_CERTIFIED_BELOW = 318665857834031151167461


@lru_cache(maxsize=64)
def is_prime(n):
    """Deterministic primality test for n < MR_CERTIFIED_BELOW.

    Raises ValueError for larger n, which this test cannot certify.  Cached:
    it takes about 0.2 ms for a 61-bit prime, and every fuzz cell and every
    sampled matrix realm checks its modulus.
    """
    if n >= MR_CERTIFIED_BELOW:
        raise ValueError(f"p = {n} is too large to certify as prime "
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
    tropical = False

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

    def eq(self, x, y):
        raise NotImplementedError

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


class TropicalRealm(Realm):
    """Exact rationals under (max, +): add is max, mul is +, inv is negation."""

    name = "tropical"
    commutative = True
    tropical = True

    def __init__(self, c=Fraction(1)):
        self.c = Fraction(c)

    def add(self, x, y):
        return x if x >= y else y

    def mul(self, x, y):
        return x + y

    def inv(self, x):
        return -x

    def one(self):
        return Fraction(0)

    def constant(self):
        return self.c

    def eq(self, x, y):
        return x == y

    def config(self):
        return {"realm": "tropical", "c": str(self.c)}

    def value_to_json(self, x):
        return str(x)

    def value_from_json(self, obj):
        return Fraction(obj)


class RationalFunctionRealm(Realm):
    """Field of rational functions in the constant C and one variable per label.

    Variable 0 is always C; ``variables`` lists the remaining names.
    """

    name = "ratfun"
    commutative = True

    def __init__(self, variables):
        self.variable_names = ("C",) + tuple(variables)
        self.nvars = len(self.variable_names)

    def variable(self, name):
        return RationalFunction.variable(self.nvars, self.variable_names.index(name))

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        return x.inverse()

    def one(self):
        return RationalFunction.constant(self.nvars, 1)

    def constant(self):
        return RationalFunction.variable(self.nvars, 0)

    def eq(self, x, y):
        return x.equals(y)

    def config(self):
        return {"realm": "ratfun", "variables": list(self.variable_names[1:])}

    def value_to_json(self, x):
        return x.render(self.variable_names)

    def value_from_json(self, obj):
        # Input labelings are plain variable names; outputs are display strings.
        return self.variable(obj)

    def render(self, x):
        return x.render(self.variable_names)


class _MatrixRealm(Realm):
    """Common d-by-d matrix plumbing; values are tuples of row tuples."""

    def __init__(self, d, c):
        if d < 1:
            raise ValueError("matrix dimension must be at least 1")
        self.d = d
        self.c = c
        self.commutative = d == 1

    def _check(self, m):
        if len(m) != self.d or len(m[0]) != self.d:
            raise ValueError(f"expected a {self.d}x{self.d} matrix")

    def add(self, x, y):
        self._check(x)
        self._check(y)
        return tuple(
            tuple(self._norm(a + b) for a, b in zip(rx, ry)) for rx, ry in zip(x, y)
        )

    def mul(self, x, y):
        self._check(x)
        self._check(y)
        d = self.d
        cols = list(zip(*y))
        return tuple(
            tuple(self._norm(sum(rx[k] * col[k] for k in range(d))) for col in cols)
            for rx in x
        )

    def one(self):
        return self.identity(1)

    def constant(self):
        return self.identity(self.c)

    def identity(self, scalar):
        d = self.d
        zero = self._norm(0)
        s = self._norm(scalar)
        return tuple(tuple(s if i == j else zero for j in range(d)) for i in range(d))

    def eq(self, x, y):
        return x == y

    def inv(self, x):
        """Gauss-Jordan inverse; raises SingularValue when no pivot exists."""
        d = self.d
        aug = [list(row) + [self._norm(1) if i == j else self._norm(0) for j in range(d)]
               for i, row in enumerate(x)]
        for col in range(d):
            pivot = None
            for r in range(col, d):
                if aug[r][col] != self._norm(0):
                    pivot = r
                    break
            if pivot is None:
                raise SingularValue(f"singular {d}x{d} matrix")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            pinv = self._scalar_inv(aug[col][col])
            aug[col] = [self._norm(v * pinv) for v in aug[col]]
            for r in range(d):
                if r != col and aug[r][col] != self._norm(0):
                    f = aug[r][col]
                    aug[r] = [self._norm(a - f * b) for a, b in zip(aug[r], aug[col])]
        return tuple(tuple(row[d:]) for row in aug)


class FpMatrixRealm(_MatrixRealm):
    """d-by-d matrices over the prime field F_p; entries stored in 0..p-1."""

    name = "matp"

    def __init__(self, p, d, c=1):
        require_prime(p)
        c = c % p
        if c == 0:
            raise ValueError("the central constant must be nonzero")
        self.p = p
        super().__init__(d, c)

    def _norm(self, v):
        return v % self.p

    def _scalar_inv(self, v):
        return pow(v, -1, self.p)

    def config(self):
        return {"realm": "matp", "p": self.p, "d": self.d, "c": self.c}

    def value_to_json(self, x):
        return [list(row) for row in x]

    def value_from_json(self, obj):
        return tuple(tuple(int(v) % self.p for v in row) for row in obj)


class FractionMatrixRealm(_MatrixRealm):
    """d-by-d matrices over the exact rationals."""

    name = "matq"

    def __init__(self, d, c=Fraction(1)):
        c = Fraction(c)
        if c == 0:
            raise ValueError("the central constant must be nonzero")
        super().__init__(d, c)

    def _norm(self, v):
        return Fraction(v)

    def _scalar_inv(self, v):
        if v == 0:
            raise SingularValue("inverse of zero")
        return 1 / v

    def config(self):
        return {"realm": "matq", "d": self.d, "c": str(self.c)}

    def value_to_json(self, x):
        return [[str(v) for v in row] for row in x]

    def value_from_json(self, obj):
        return tuple(tuple(Fraction(v) for v in row) for row in obj)


def realm_from_config(cfg):
    """Instantiate a realm from its JSON config block."""
    kind = cfg["realm"]
    if kind == "tropical":
        return TropicalRealm(Fraction(cfg.get("c", 1)))
    if kind == "ratfun":
        return RationalFunctionRealm(cfg["variables"])
    if kind == "matp":
        return FpMatrixRealm(int(cfg["p"]), int(cfg["d"]), int(cfg.get("c", 1)))
    if kind == "matq":
        return FractionMatrixRealm(int(cfg["d"]), Fraction(cfg.get("c", 1)))
    raise ValueError(f"unknown realm {kind!r}")


def symbolic_variable_names(n):
    """Names for n symbolic labels: the last n lowercase letters when they
    fit (so four labels are w, x, y, z), else x1..xn."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    if n <= len(letters):
        return list(letters[len(letters) - n:])
    return [f"x{k}" for k in range(1, n + 1)]
