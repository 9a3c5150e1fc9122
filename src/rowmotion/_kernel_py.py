"""Pure-Python antichain-rowmotion kernel over prime-field matrices.

Same interface as the compiled extension; used when the extension is absent
and as the reference side of the kernel benchmark.  Labels travel as a flat
list of n*d*d integers in [0, p), row-major per element in id order.

The kernel works in transfer form.  One step of antichain rowmotion is

  D(x)   = (sum of D over upper covers of x) * g(x)     up-inverse DP
  E(x)   = c * inv(D(x))                                 complement
  out(x) = E(x) * inv(sum of E over lower covers of x)   down-transfer

with empty sums read as the identity, so ``out(x) = E(x)`` at a minimal x.
That is one matrix product per cover plus two batches of inverses, instead
of the up-set and down-set DP at every toggle.  Each batch inverts its
matrices as adj(M) * det(M)^-1, with all the determinants inverted together
by Montgomery's trick: one modular inverse plus 3(k-1) products for k
matrices.  d = 1, 2, 3 use closed-form determinants and adjugates and
unrolled products; d >= 4 falls back to the realm's Gauss-Jordan inverse.

Refusals match toggle mode exactly.  A toggle pass along a linear extension
sees D(v) as the up-value at v and g(v) * (sum of E over lower covers of v)
as the down-value, so it raises ``SingularValue`` exactly when some D(v),
some g(v) or some lower-cover sum is singular.  A singular g(v) makes
D(v) = (...) * g(v) singular too, so the two batches see every refusal and
the input needs no separate check.

The modulus must be prime: ``kernel.make_engine`` checks it.
"""

from __future__ import annotations

from .errors import SingularValue
from .realms import FpMatrixRealm

BACKEND = "pure-python"


def _ops(d, p):
    """(mul, det, adj) for d x d matrices as row-major tuples mod p.

    ``mul`` reduces its result; ``det`` returns a residue; ``adj(m, k)`` is
    k times the adjugate, reduced.  Inputs may be unreduced.
    """
    if d == 1:
        def mul(x, y):
            return (x[0] * y[0] % p,)

        def det(m):
            return m[0] % p

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
    elif d == 3:
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
    else:
        return _mul_general(d, p), None, None
    return mul, det, adj


def _mul_general(d, p):
    rows = range(0, d * d, d)
    cols = range(d)

    def mul(x, y):
        out = []
        for r in rows:
            xr = x[r:r + d]
            for j in cols:
                out.append(sum(a * y[k * d + j] for k, a in enumerate(xr)) % p)
        return tuple(out)

    return mul


def _cover_sum(vals, covers):
    """Entrywise sum of ``vals`` over a nonempty cover list, unreduced."""
    s = vals[covers[0]]
    for y in covers[1:]:
        s = tuple(map(int.__add__, s, vals[y]))
    return s


class FpToggleEngine:
    """Antichain rowmotion stepper for one poset shape.

    ``up_covers``/``down_covers`` are adjacency lists and ``topo`` a linear
    extension.  ``upsets`` and ``downsets`` belong to the shared engine
    signature; the transfer form does not use them, so they may be None.
    """

    def __init__(self, up_covers, down_covers, topo, upsets, downsets, d, p):
        self.n = len(up_covers)
        self.d = d
        self.p = p
        self.dd = d * d
        self._up = [tuple(up_covers[x]) for x in range(self.n)]
        self._down = [tuple(down_covers[x]) for x in range(self.n)]
        self._top_down = tuple(reversed(topo))
        self._nonminimal = tuple(x for x in topo if down_covers[x])
        self._mul, self._det, self._adj = _ops(d, p)
        self._realm = FpMatrixRealm(p, d) if self._det is None else None

    def _inverses(self, mats, scale, elements, what):
        """``scale * inv(m)`` for every m in ``mats`` (``elements`` names
        them for the error); raises SingularValue if one is singular."""
        p = self.p
        det, adj = self._det, self._adj
        if det is None:
            d = self.d
            out = []
            for x, m in zip(elements, mats):
                try:
                    inv = self._realm.inv([[v % p for v in m[r:r + d]]
                                           for r in range(0, self.dd, d)])
                except SingularValue:
                    raise SingularValue(what, element=x) from None
                out.append(tuple(v * scale % p for row in inv for v in row))
            return out
        dets = [det(m) for m in mats]
        prefix = []
        acc = 1
        for x, t in zip(elements, dets):
            if not t:
                raise SingularValue(what, element=x)
            prefix.append(acc)
            acc = acc * t % p
        inv = pow(acc, -1, p) * scale % p
        out = [None] * len(mats)
        for i in range(len(mats) - 1, -1, -1):
            out[i] = adj(mats[i], inv * prefix[i] % p)
            inv = inv * dets[i] % p
        return out

    def _advance(self, g, c):
        """One rowmotion step on per-element tuples; returns new tuples."""
        mul, up, nonminimal = self._mul, self._up, self._nonminimal
        D = [None] * self.n
        for x in self._top_down:
            D[x] = mul(_cover_sum(D, up[x]), g[x]) if up[x] else g[x]
        E = self._inverses(D, c, range(self.n), "singular inverse-up value")
        sums = [_cover_sum(E, self._down[x]) for x in nonminimal]
        out = list(E)
        for x, s in zip(nonminimal,
                        self._inverses(sums, 1, nonminimal, "singular lower-cover sum")):
            out[x] = mul(E[x], s)
        return out

    def _split(self, labels):
        dd = self.dd
        return [tuple(labels[o:o + dd]) for o in range(0, self.n * dd, dd)]

    def step(self, labels, c):
        """One rowmotion step; returns the new flat label list."""
        return [v for m in self._advance(self._split(labels), c) for v in m]

    def first_return(self, labels, c, max_steps):
        """Smallest m <= max_steps with step^m(labels) == labels, else 0."""
        initial = self._split(labels)
        cur = initial
        for m in range(1, max_steps + 1):
            cur = self._advance(cur, c)
            if cur == initial:
                return m
        return 0
