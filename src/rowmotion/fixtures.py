"""Worked-example regression fixtures.

Every published worked example this package reproduces lives here as a named
check: the 3x5 fiber-word walkthrough, the 2x2 combinatorial census, the 2x2
piecewise-linear orbit, the symbolic 2x2 and 2x3 orbits with their words and
homomesy products, and the noncommutative 2x2 orbit evaluated on matrices.
An orbit's words are checked at step 0 against the worked example and after
that by ``stword.word_rotation``, the one rotation rule (``check_rotation``
applies it too), step by step on the words the orbit recorded.
The CLI ``fixtures`` command prints the pass/fail table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .combinatorial import (
    _indicator,
    combinatorial_orbits,
    rowmotion_antichain,
    st_word_combinatorial,
)
from .dynamics import TransferKind, iterate, transfer
from .labeling import Labeling
from .poset import product_of_chains
from .realms import FUZZ_PRIME, FpMatrixRealm, TropicalRealm
from .sampling import derive_seed, redraw, sample_generic_labeling, symbolic_labeling
from .stword import constant_power, fiber_product_checks, orbit_window, st_word, word_rotation


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
    # The ideal, the filter and the image are the transfers' 0/1 labelings.
    ideal = transfer(TransferKind.UP_INV, p, _indicator(p, a))
    filt = transfer(TransferKind.COMPLEMENT, p, ideal)
    image = transfer(TransferKind.DOWN, p, filt)
    expected_filter = {p.id(i, j) for (i, j) in
                       [(1, 5), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5)]}
    expected_image = {p.id(1, 5), p.id(3, 2)}
    checks = [
        sorted(ideal.values) == [0] * 6 + [1] * 9,
        filt.values == tuple(int(x in expected_filter) for x in range(p.n)),
        image.values == _indicator(p, expected_image).values,
        st_word_combinatorial(3, 5, expected_image) == (1, 0, 1, 1, 0, 1, 1, 0),
        rowmotion_antichain(p, a) == expected_image,
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
_PLAR_WORD = ("3/5", "2/5", "7/10", "3/10")  # at step 0; each step rotates it
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
    words_ok = _word_mismatch(p, orbit, [Fraction(v) for v in _PLAR_WORD], "") is None
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
    w1 = st_word(p, first)
    w2 = st_word(p, second)
    distinct = not first.eq(second)
    return (w1 == target and w2 == target and distinct), f"{w1} vs {w2}"


# -- birational ---------------------------------------------------------


def _vars(a, b):
    """[a]x[b], its symbolic labeling g, g's realm r, then C and g's variables."""
    p = product_of_chains(a, b)
    g = symbolic_labeling(p)
    r = g.realm
    return (p, g, r) + tuple(r.variable(name) for name in r.variable_names)


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


def _orbit_mismatch(p, g, expected_steps, st0, mode, at):
    """Where the ``mode`` orbit of g leaves ``expected_steps``, its labels at
    steps 0..n-1, or its words leave st0 (``_word_mismatch``), as a message
    with ``at`` before the step; None if it never does.  The period is
    checked first, then the labels at steps k = 1..n, then the words."""
    r, n = g.realm, len(expected_steps)
    orbit = iterate(p, g, steps=n, mode=mode)
    if orbit.period != n:
        return f"{at}period {orbit.period}, expected {n}"
    for k in range(1, n + 1):
        for x, want in enumerate(expected_steps[k % n]):
            if not r.eq(orbit.labelings[k][x], want):
                return f"label mismatch at {at}step {k}, element {x}"
    return _word_mismatch(p, orbit, st0, at)


def _word_mismatch(p, orbit, st0, at):
    """Where the words of ``orbit`` leave the worked example, as a message
    with ``at`` before the step, or None: the step-0 word against st0 entry
    by entry, then each later step's word through ``word_rotation`` (the
    rule ``check_rotation`` applies) against the step before, so step k's
    word is st0 rotated k places.  The words are the orbit's own."""
    r = orbit.labelings[0].realm
    words = orbit.st_words
    for i, want in enumerate(st0, 1):
        if not r.eq(words[0][i - 1], want):
            return f"word mismatch at {at}step 0, entry {i}"
    for k in range(1, len(words)):
        rotation = word_rotation(r, words[k - 1], words[k])
        i = next((i for i, matched in rotation.per_index if not matched), None)
        if i is not None:
            return f"word mismatch at {at}step {k}, entry {i}"
    return None


def _fx_bar_2x3_one_step(samples, seed):
    p, g, r, cc, u, v, w, x, y, z = _vars(2, 3)
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
    p, g, r, *labels = _vars(2, 2)
    miss = _orbit_mismatch(p, g, _expected_bar_2x2(*labels), _expected_st_2x2(*labels),
                           "transfer", "")
    return miss is None, miss or "period 4, all labels and words match"


def _fx_bar_2x3_orbit(samples, seed):
    p, g, r, *labels = _vars(2, 3)
    miss = _orbit_mismatch(p, g, _expected_bar_2x3(*labels), _expected_st_2x3(*labels),
                           "transfer", "")
    return miss is None, miss or "period 5, all labels and words match"


def _fx_fiber_products_2x2(samples, seed):
    p, g, r, cc, w, x, y, z = _vars(2, 2)
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
    p, g = _vars(2, 3)[:2]
    checks = [f["pass"] for f in fiber_product_checks(p, orbit_window(p, g))]
    return all(checks), f"checks {checks}"


# -- noncommutative -----------------------------------------------------


def _nar_expected_steps(realm, w, x, y, z):
    inv, add, prod = realm.inv, realm.add, realm.product
    cc = realm.constant()
    s = add(x, y)
    harmonic = inv(add(inv(x), inv(y)))
    return [
        [w, x, y, z],
        [prod([cc, inv(w), inv(s), inv(z)]), prod([inv(x), s, w]), prod([inv(y), s, w]),
         harmonic],
        [z, prod([cc, inv(w), inv(y), inv(z)]), prod([cc, inv(w), inv(x), inv(z)]), w],
        [harmonic, prod([z, s, inv(x)]), prod([z, s, inv(y)]),
         prod([cc, inv(w), inv(s), inv(z)])],
    ], [prod([y, w]), prod([z, x]), prod([cc, inv(w), inv(x)]), prod([cc, inv(y), inv(z)])]


def _fx_nar_2x2_orbit(samples, seed):
    p = product_of_chains(2, 2)
    per_d = max(1, samples)

    def mismatch(g):
        """Where g's toggle-mode orbit leaves the worked example, or None; a
        singular value on the way redraws g (``sample_generic_labeling``)."""
        return _orbit_mismatch(p, g, *_nar_expected_steps(g.realm, *g.values), "toggles",
                               f"d={g.realm.d}, ")

    for d in (1, 2, 3):
        cfg = {"realm": "matp", "p": FUZZ_PRIME, "d": d}
        for idx in range(per_d):
            miss = sample_generic_labeling(p, cfg, derive_seed(seed, "nar-fixture", d, idx),
                                           mismatch)
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
