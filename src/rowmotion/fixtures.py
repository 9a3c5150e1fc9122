"""Worked-example regression fixtures.

Every published worked example this package reproduces lives here as a named
check: the 3x5 fiber-word walkthrough, the 2x2 combinatorial census, the 2x2
piecewise-linear orbit, the symbolic 2x2 and 2x3 orbits with their words and
homomesy products, and the noncommutative 2x2 orbit evaluated on matrices.
The CLI ``fixtures`` command prints the pass/fail table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .combinatorial import (
    combinatorial_orbits,
    complement,
    downward_saturation,
    minimal_elements,
    rowmotion_antichain,
    st_word_combinatorial,
)
from .dynamics import TransferKind, antichain_rowmotion, iterate, transfer
from .labeling import Labeling
from .poset import product_of_chains
from .realms import FUZZ_PRIME, FpMatrixRealm, TropicalRealm
from .sampling import derive_seed, redraw, sample_matrix, symbolic_labeling
from .stword import constant_power, fiber_product_checks, orbit_window, st_word


class FixtureResult(NamedTuple):
    name: str
    source: str
    passed: bool
    detail: str = ""

    def to_json(self):
        return {"name": self.name, "source": self.source,
                "passed": self.passed, "detail": self.detail}


def run_figure_fixtures(samples=100, seed=0):
    """Execute every fixture; failures never abort the run."""
    out = []
    for name, source, fn in _FIXTURES:
        try:
            ok, detail = fn(samples, seed)
        except Exception as exc:  # a crashed fixture is a failed fixture
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append(FixtureResult(name, source, ok, detail))
    return out


def fixture_table(results):
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        line = f"{r.name:<{width}}  {status}  {r.source}"
        if r.detail and not r.passed:
            line += f"  [{r.detail}]"
        lines.append(line)
    return "\n".join(lines)


# -- combinatorial ------------------------------------------------------


def _fx_stword_3x5(samples, seed):
    p = product_of_chains(3, 5)
    word = st_word_combinatorial(3, 5, {p.id(2, 4), p.id(3, 1)})
    return word == (0, 1, 1, 0, 1, 1, 0, 1), f"word {word}"


def _fx_rowmotion_3x5(samples, seed):
    p = product_of_chains(3, 5)
    a = frozenset({p.id(2, 4), p.id(3, 1)})
    ideal = downward_saturation(p, a)
    filt = complement(p, ideal)
    image = minimal_elements(p, filt)
    expected_filter = {p.id(i, j) for (i, j) in
                       [(1, 5), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5)]}
    checks = [
        len(ideal) == 9,
        filt == frozenset(expected_filter),
        image == frozenset({p.id(1, 5), p.id(3, 2)}),
        st_word_combinatorial(3, 5, image) == (1, 0, 1, 1, 0, 1, 1, 0),
        rowmotion_antichain(p, a) == image,
    ]
    return all(checks), f"checks {checks}"


def _fx_census_2x2(samples, seed):
    p = product_of_chains(2, 2)
    orbits = combinatorial_orbits(2, 2)
    e = p.id
    expected = [
        (
            [frozenset(), frozenset({e(1, 1)}), frozenset({e(2, 1), e(1, 2)}), frozenset({e(2, 2)})],
            [(0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 0)],
        ),
        (
            [frozenset({e(2, 1)}), frozenset({e(1, 2)})],
            [(0, 1, 0, 1), (1, 0, 1, 0)],
        ),
    ]
    half = Fraction(1, 2)
    checks = [
        len(orbits) == 2,
        [o.size for o in orbits] == [4, 2],
        [list(o.antichains) for o in orbits] == [c for c, _ in expected],
        [list(o.st_words) for o in orbits] == [w for _, w in expected],
        all(o.cardinality_avg == 1 for o in orbits),
        all(v == half for o in orbits for v in o.positive_fiber_avgs),
        all(v == half for o in orbits for v in o.negative_fiber_avgs),
        sum(o.size for o in orbits) == 6,
    ]
    return all(checks), f"checks {checks}"


# -- piecewise-linear ---------------------------------------------------

# Tropical labelings by element id ((1,1), (2,1), (1,2), (2,2)).
_PLAR_ORBIT = [
    ("1/5", "1/10", "2/5", "3/10"),
    ("1/10", "1/2", "1/5", "1/10"),
    ("3/10", "1/10", "2/5", "1/5"),
    ("1/10", "3/5", "3/10", "1/10"),
]
_PLAR_WORDS = [
    ("3/5", "2/5", "7/10", "3/10"),
    ("3/10", "3/5", "2/5", "7/10"),
    ("7/10", "3/10", "3/5", "2/5"),
    ("2/5", "7/10", "3/10", "3/5"),
]
_PLAR_SUMS = ["1", "9/10", "1", "11/10"]


def _fx_plar_orbit(samples, seed):
    p = product_of_chains(2, 2)
    realm = TropicalRealm(Fraction(1))
    g = Labeling(realm, [Fraction(v) for v in _PLAR_ORBIT[0]])
    orbit = iterate(p, g)
    labelings_ok = all(
        orbit.labelings[k].values == tuple(Fraction(v) for v in _PLAR_ORBIT[k])
        for k in range(4)
    )
    words_ok = all(
        orbit.st_words[k].entries == tuple(Fraction(v) for v in _PLAR_WORDS[k])
        for k in range(4)
    )
    sums = [sum(orbit.labelings[k].values) for k in range(4)]
    sums_ok = sums == [Fraction(v) for v in _PLAR_SUMS]
    mean_ok = sum(sums) / 4 == 1
    checks = [orbit.period == 4, labelings_ok, words_ok, sums_ok, mean_ok]
    return all(checks), f"checks {checks}"


def _fx_pl_shared_word(samples, seed):
    p = product_of_chains(2, 2)
    realm = TropicalRealm(Fraction(1))
    first = Labeling(realm, [Fraction(v) for v in ("1/10", "1/5", "1/2", "3/10")])
    second = Labeling(realm, [Fraction(v) for v in ("1/5", "1/10", "2/5", "2/5")])
    target = tuple(Fraction(v) for v in ("3/5", "1/2", "7/10", "1/5"))
    w1 = st_word(p, first).entries
    w2 = st_word(p, second).entries
    distinct = not first.eq(second)
    return (w1 == target and w2 == target and distinct), f"{w1} vs {w2}"


# -- birational ---------------------------------------------------------


def _vars_2x2():
    p = product_of_chains(2, 2)
    g = symbolic_labeling(p)
    r = g.realm
    cc, w, x, y, z = (r.variable(n) for n in ("C", "w", "x", "y", "z"))
    return p, g, r, cc, w, x, y, z


def _vars_2x3():
    p = product_of_chains(2, 3)
    g = symbolic_labeling(p)
    r = g.realm
    names = ("C", "u", "v", "w", "x", "y", "z")
    return (p, g, r) + tuple(r.variable(n) for n in names)


def _expected_bar_2x2(cc, w, x, y, z):
    return [
        [w, x, y, z],
        [cc / (w * (x + y) * z), w * (x + y) / x, w * (x + y) / y, x * y / (x + y)],
        [z, cc / (w * y * z), cc / (w * x * z), w],
        [x * y / (x + y), (x + y) * z / x, (x + y) * z / y, cc / (w * (x + y) * z)],
    ]


def _expected_st_2x2(cc, w, x, y, z):
    return (w * y, x * z, cc / (w * x), cc / (y * z))


def _expected_bar_2x3(cc, u, v, w, x, y, z):
    q = v * x + w * x + w * y
    return [
        [u, v, w, x, y, z],
        [cc / (u * q * z), u * q / (v * x), u * q / (w * (x + y)),
         v * w * (x + y) / q, w * (x + y) / y, x * y / (x + y)],
        [z, cc / (u * w * y * z), cc / (u * (v + w) * x * z),
         u * (v + w) / v, u * (v + w) / w, v * w / (v + w)],
        [x * y / (x + y), (x + y) * z / x, (x + y) * z / y,
         cc / (u * w * (x + y) * z), cc / (u * v * x * z), u],
        [v * w / (v + w), (v + w) * x / v, (v + w) * x * y / q,
         q * z / ((v + w) * x), q * z / (w * y), cc / (u * q * z)],
    ]


def _expected_st_2x3(cc, u, v, w, x, y, z):
    return (u * w * y, v * x * z, cc / (u * v), cc / (w * x), cc / (y * z))


def _rot(word, k):
    k %= len(word)
    return word[-k:] + word[:-k]


def _check_symbolic_orbit(p, g, r, expected_steps, st0):
    orbit = iterate(p, g)
    period = len(expected_steps)
    if orbit.period != period:
        return False, f"period {orbit.period}, expected {period}"
    for k, labels in enumerate(expected_steps):
        for x, want in enumerate(labels):
            if not r.eq(orbit.labelings[k][x], want):
                return False, f"label mismatch at step {k}, element {x}"
        got = orbit.st_words[k].entries
        for i, want in enumerate(_rot(st0, k)):
            if not r.eq(got[i], want):
                return False, f"word mismatch at step {k}, entry {i + 1}"
    return True, f"period {period}, all labels and words match"


def _fx_bar_2x3_one_step(samples, seed):
    p, g, r, cc, u, v, w, x, y, z = _vars_2x3()
    q = v * x + w * x + w * y
    up_inv = transfer(TransferKind.UP_INV, p, g)
    expected_up = [u * q * z, v * x * z, w * (x + y) * z, x * z, y * z, z]
    for e, want in enumerate(expected_up):
        if not r.eq(up_inv[e], want):
            return False, f"inverse-up mismatch at element {e}"
    comp = transfer(TransferKind.COMPLEMENT, p, up_inv)
    for e, want in enumerate(expected_up):
        if not r.eq(comp[e], cc / want):
            return False, f"complement mismatch at element {e}"
    image = transfer(TransferKind.DOWN, p, comp)
    for e, want in enumerate(_expected_bar_2x3(cc, u, v, w, x, y, z)[1]):
        if not r.eq(image[e], want):
            return False, f"image mismatch at element {e}"
    return True, "inverse-up, complement, and image labels all match"


def _fx_bar_2x2_orbit(samples, seed):
    p, g, r, cc, w, x, y, z = _vars_2x2()
    return _check_symbolic_orbit(
        p, g, r, _expected_bar_2x2(cc, w, x, y, z), _expected_st_2x2(cc, w, x, y, z)
    )


def _fx_bar_2x3_orbit(samples, seed):
    p, g, r, cc, u, v, w, x, y, z = _vars_2x3()
    return _check_symbolic_orbit(
        p, g, r, _expected_bar_2x3(cc, u, v, w, x, y, z),
        _expected_st_2x3(cc, u, v, w, x, y, z),
    )


def _fx_fiber_products_2x2(samples, seed):
    p, g, r, cc, w, x, y, z = _vars_2x2()
    # The worked per-step factors of the first-row product.
    factors = [
        w, y,
        cc / (w * (x + y) * z), w * (x + y) / y,
        z, cc / (w * x * z),
        x * y / (x + y), (x + y) * z / y,
    ]
    checks = [r.eq(r.product(factors), constant_power(r, 2))]
    checks += [f["pass"] for f in fiber_product_checks(p, orbit_window(p, g))]
    return all(checks), f"checks {checks}"


def _fx_fiber_products_2x3(samples, seed):
    p, g = _vars_2x3()[:2]
    checks = [f["pass"] for f in fiber_product_checks(p, orbit_window(p, g))]
    return all(checks), f"checks {checks}"


# -- noncommutative -----------------------------------------------------


def _nar_expected_steps(realm, w, x, y, z):
    inv, mul, add = realm.inv, realm.mul, realm.add
    cc = realm.constant()

    def prod(*ms):
        out = ms[0]
        for m in ms[1:]:
            out = mul(out, m)
        return out

    s = add(x, y)
    harmonic = inv(add(inv(x), inv(y)))
    return [
        [w, x, y, z],
        [prod(cc, inv(w), inv(s), inv(z)), prod(inv(x), s, w), prod(inv(y), s, w), harmonic],
        [z, prod(cc, inv(w), inv(y), inv(z)), prod(cc, inv(w), inv(x), inv(z)), w],
        [harmonic, prod(z, s, inv(x)), prod(z, s, inv(y)), prod(cc, inv(w), inv(s), inv(z))],
    ], [prod(y, w), prod(z, x), prod(cc, inv(w), inv(x)), prod(cc, inv(y), inv(z))]


def _fx_nar_2x2_orbit(samples, seed):
    p = product_of_chains(2, 2)
    per_d = max(1, samples)

    def mismatch(g):
        """The first step at which g's orbit leaves the worked example, or
        None; a singular value on the way redraws g (``sample_matrix``)."""
        realm = g.realm
        expected_steps, st0 = _nar_expected_steps(realm, *g.values)
        cur = g
        for k in range(1, 5):
            cur = antichain_rowmotion(p, cur, mode="toggles")
            want = expected_steps[k % 4]
            if any(not realm.eq(cur[e], want[e]) for e in range(4)):
                return f"label mismatch at d={realm.d}, step {k}"
            got = st_word(p, cur).entries
            rot = _rot(tuple(st0), k)
            if any(not realm.eq(got[i], rot[i]) for i in range(4)):
                return f"word mismatch at d={realm.d}, step {k}"
        return None if cur.eq(g) else f"no return after 4 steps at d={realm.d}"

    for d in (1, 2, 3):
        cfg = {"realm": "matp", "p": FUZZ_PRIME, "d": d}
        for idx in range(per_d):
            miss = sample_matrix(p, cfg, derive_seed(seed, "nar-fixture", d, idx), mismatch)
            if miss:
                return False, miss
    return True, f"{per_d} samples at each d in (1, 2, 3)"


def _fx_skew_inverse_sum(samples, seed):
    """inv(inv(x) + inv(y)) equals y*inv(x+y)*x and x*inv(x+y)*y on every
    sampled pair, and each of four wrong forms differs from it on some pair
    at each d >= 2 (none at d = 1).  Pair ``idx`` is drawn by the one redraw
    rule, ``sampling.redraw``, under (seed, "skew", d, idx)."""
    per_d = max(1, samples)
    wrong_forms_missed = []
    for d in (1, 2, 3):
        realm = FpMatrixRealm(FUZZ_PRIME, d, c=1)
        inv, add, mul = realm.inv, realm.add, realm.mul

        def draw(rng):
            return [tuple(rng.randrange(FUZZ_PRIME) for _ in range(d * d)) for _ in range(2)]

        def forms(pair):
            x, y = pair
            lhs = inv(add(inv(x), inv(y)))
            s_inv = inv(add(x, y))
            return lhs, [mul(mul(y, s_inv), x), mul(mul(x, s_inv), y),
                         mul(mul(y, x), s_inv), mul(s_inv, mul(x, y)),
                         mul(mul(x, y), s_inv), mul(s_inv, mul(y, x))]

        wrong_seen = [False] * 4
        for idx in range(per_d):
            (lhs, (first, second, *wrong)), _ = redraw(draw, forms, seed, "skew", d, idx)
            if not realm.eq(lhs, first):
                return False, f"first good form failed at d={d}"
            if not realm.eq(lhs, second):
                return False, f"second good form failed at d={d}"
            for i, form in enumerate(wrong):
                if not realm.eq(lhs, form):
                    wrong_seen[i] = True
        if d == 1 and any(wrong_seen):
            return False, "a commuting sample separated the equal scalar forms"
        if d >= 2 and not all(wrong_seen):
            wrong_forms_missed.append(d)
    if wrong_forms_missed:
        return False, f"wrong forms never separated at d in {wrong_forms_missed}"
    return True, "good forms always equal; each wrong form separated at d >= 2"


_FIXTURES = [
    ("stword-3x5-antichain", "worked 3x5 fiber-word example", _fx_stword_3x5),
    ("rowmotion-3x5", "worked 3x5 rowmotion walkthrough", _fx_rowmotion_3x5),
    ("car-2x2-census", "2x2 combinatorial orbit diagram", _fx_census_2x2),
    ("plar-2x2-orbit", "2x2 piecewise-linear orbit diagram", _fx_plar_orbit),
    ("pl-stword-shared", "two labelings sharing one word", _fx_pl_shared_word),
    ("bar-2x3-one-step", "2x3 one-iteration diagram", _fx_bar_2x3_one_step),
    ("bar-2x2-orbit", "2x2 symbolic orbit diagram", _fx_bar_2x2_orbit),
    ("bar-2x3-orbit", "2x3 symbolic orbit diagram", _fx_bar_2x3_orbit),
    ("fiber-product-2x2", "2x2 orbit product worked example", _fx_fiber_products_2x2),
    ("fiber-product-2x3", "2x3 orbit products forced by the rotation", _fx_fiber_products_2x3),
    ("nar-2x2-orbit", "2x2 noncommutative orbit diagram", _fx_nar_2x2_orbit),
    ("skew-inverse-sum", "inverse-of-sum rewriting example", _fx_skew_inverse_sum),
]
