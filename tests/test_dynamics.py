"""Transfer maps, toggles, rowmotion, closed forms, polytopes, iteration."""

import random
import re
from fractions import Fraction

import pytest

from rowmotion import (
    FpMatrixRealm,
    FractionMatrixRealm,
    Labeling,
    SingularValue,
    TropicalRealm,
    TransferKind,
    antichain_rowmotion,
    build_poset,
    closed_form_first_pass,
    iterate,
    kernel,
    order_rowmotion,
    polytope_membership,
    product_of_chains,
    sample_generic_labeling,
    toggle,
    transfer,
)
from rowmotion import realms
from rowmotion.ratfun import RationalFunction
from rowmotion.realms import FUZZ_PRIME
from rowmotion.sampling import derive_seed, symbolic_labeling

from chain_sums import (chain_expansion_check, chain_polytope_point_by_chains,
                        toggle_chain_form)
from toggle_fold import (random_linear_extension, toggle_by_two_inverses, toggle_fold,
                         values_or_singular)

PRIME = 10007


def matrix_labeling(poset, d, seed, p=PRIME):
    """A sampled matp labeling on which one rowmotion step meets no singular value."""
    def one_step(g):
        antichain_rowmotion(poset, g)
        return g
    return sample_generic_labeling(poset, {"realm": "matp", "p": p, "d": d}, seed, one_step)


def tropical_labeling(poset, seed):
    return sample_generic_labeling(poset, {"realm": "tropical"}, seed, lambda g: g)


def all_sample_labelings(poset, seed):
    """One labeling per realm family, for realm-generic properties."""
    return [
        symbolic_labeling(poset),
        tropical_labeling(poset, seed),
        matrix_labeling(poset, 1, seed),
        matrix_labeling(poset, 2, seed),
        matrix_labeling(poset, 3, seed),
    ]


# -- transfer maps ------------------------------------------------------


def test_up_inverse_symbolic_2x3():
    p = product_of_chains(2, 3)
    g = symbolic_labeling(p)
    r = g.realm
    u, v, w, x, y, z = (r.variable(n) for n in "uvwxyz")
    d = transfer(TransferKind.UP_INV, p, g)
    assert r.eq(d[p.id(1, 1)], u * (v * x + w * x + w * y) * z)
    assert r.eq(d[p.id(2, 1)], v * x * z)


def test_complement_symbolic_top():
    p = product_of_chains(2, 3)
    g = symbolic_labeling(p)
    r = g.realm
    after = transfer(TransferKind.COMPLEMENT, p, transfer(TransferKind.UP_INV, p, g))
    cc, z = r.variable("C"), r.variable("z")
    assert r.eq(after[p.id(2, 3)], cc / z)


def test_tropical_complement():
    p = product_of_chains(1, 1)
    realm = TropicalRealm(Fraction(1))
    g = Labeling(realm, [Fraction(3, 10)])
    assert transfer(TransferKind.COMPLEMENT, p, g)[0] == Fraction(7, 10)


@pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (1, 3)])
def test_transfer_inverse_pairs(a, b):
    p = product_of_chains(a, b)
    for g in all_sample_labelings(p, seed=11):
        r = g.realm
        up = transfer(TransferKind.UP, p, transfer(TransferKind.UP_INV, p, g))
        assert up.eq(g)
        back = transfer(TransferKind.UP_INV, p, transfer(TransferKind.UP, p, g))
        assert back.eq(g)
        down = transfer(TransferKind.DOWN, p, transfer(TransferKind.DOWN_INV, p, g))
        assert down.eq(g)
        back = transfer(TransferKind.DOWN_INV, p, transfer(TransferKind.DOWN, p, g))
        assert back.eq(g)
        twice = transfer(TransferKind.COMPLEMENT, p,
                         transfer(TransferKind.COMPLEMENT, p, g))
        assert twice.eq(g)


def test_chain_expansion_examples():
    chain = build_poset([(0, 1), (1, 2)], elements=[0, 1, 2])
    g = matrix_labeling(chain, 2, seed=3)
    assert chain_expansion_check(TransferKind.DOWN_INV, chain, g)
    assert chain_expansion_check(TransferKind.UP_INV, chain, g)

    p = product_of_chains(2, 2)
    for s in range(10):
        g = matrix_labeling(p, 2, seed=100 + s)
        assert chain_expansion_check(TransferKind.DOWN_INV, p, g)
        assert chain_expansion_check(TransferKind.UP_INV, p, g)

    p23 = product_of_chains(2, 3)
    g = symbolic_labeling(p23)
    assert chain_expansion_check(TransferKind.DOWN_INV, p23, g)
    assert chain_expansion_check(TransferKind.UP_INV, p23, g)

    with pytest.raises(ValueError):
        chain_expansion_check(TransferKind.UP, p, g)


def test_singular_reports_element():
    p = product_of_chains(2, 2)
    realm = FpMatrixRealm(PRIME, 1, c=1)
    g = Labeling(realm, [(0,), (1,), (1,), (1,)])
    with pytest.raises(SingularValue) as err:
        transfer(TransferKind.COMPLEMENT, p, g)
    assert err.value.element == 0


# -- toggles -------------------------------------------------------------


def test_toggle_single_element():
    p = product_of_chains(1, 1)
    g = symbolic_labeling(p)
    r = g.realm
    out = toggle(p, g, 0)
    assert r.eq(out[0], r.variable("C") / r.variable("z"))


def test_toggle_changes_only_v():
    p = product_of_chains(2, 3)
    g = matrix_labeling(p, 2, seed=5)
    for v in range(p.n):
        out = toggle(p, g, v)
        changed = [x for x in range(p.n) if out[x] != g[x]]
        assert changed in ([], [v])


def test_toggle_unique_minimum_cancellation():
    """At the unique minimum the inverse-down factor is the label itself,
    so the new label collapses to C * inv(inverse-up at the minimum)."""
    p = product_of_chains(2, 3)
    for s in range(10):
        g = matrix_labeling(p, 2, seed=40 + s)
        r = g.realm
        out = toggle(p, g, 0)
        d = transfer(TransferKind.UP_INV, p, g)
        assert r.eq(out[0], r.mul(r.constant(), r.inv(d[0])))


def test_toggle_twice_commutative_involution():
    p = product_of_chains(2, 2)
    for g in (symbolic_labeling(p), tropical_labeling(p, 6), matrix_labeling(p, 1, 6)):
        for v in range(p.n):
            again = toggle(p, toggle(p, g, v), v)
            assert again.eq(g)


def test_toggle_chain_form_agrees():
    for poset in (
        product_of_chains(2, 2),
        product_of_chains(2, 3),
        build_poset([(0, 2), (1, 2), (2, 3)], elements=[0, 1, 2, 3]),
    ):
        for seed in range(5):
            for g in (matrix_labeling(poset, 2, seed=60 + seed),
                      matrix_labeling(poset, 3, seed=60 + seed)):
                for v in range(poset.n):
                    assert toggle(poset, g, v).eq(toggle_chain_form(poset, g, v))


# -- rowmotion -----------------------------------------------------------


def test_rowmotion_symbolic_2x3_labels():
    p = product_of_chains(2, 3)
    g = symbolic_labeling(p)
    r = g.realm
    cc, u, v, w, x, y, z = (r.variable(n) for n in ("C", "u", "v", "w", "x", "y", "z"))
    img = antichain_rowmotion(p, g)
    q = v * x + w * x + w * y
    assert r.eq(img[p.id(1, 1)], cc / (u * q * z))
    assert r.eq(img[p.id(2, 3)], x * y / (x + y))


def test_rowmotion_nc_top_label():
    """Top label of one noncommutative step is inv(inv(x) + inv(y)),
    verified by matrix evaluation."""
    p = product_of_chains(2, 2)
    for s in range(100):
        g = matrix_labeling(p, 1 + s % 3, seed=200 + s)
        r = g.realm
        img = antichain_rowmotion(p, g, mode="toggles")
        x, y = g[p.id(2, 1)], g[p.id(1, 2)]
        assert r.eq(img[p.id(2, 2)], r.inv(r.add(r.inv(x), r.inv(y))))


def test_rowmotion_tropical_first_step():
    p = product_of_chains(2, 2)
    realm = TropicalRealm(Fraction(1))
    g = Labeling(realm, [Fraction(v) for v in ("1/5", "1/10", "2/5", "3/10")])
    img = antichain_rowmotion(p, g)
    assert img.values == tuple(Fraction(v) for v in ("1/10", "1/2", "1/5", "1/10"))


@pytest.mark.parametrize(
    "a,b", [(a, b) for a in range(1, 5) for b in range(1, 5) if a + b <= 5])
def test_mode_equivalence_symbolic(a, b):
    p = product_of_chains(a, b)
    g = symbolic_labeling(p)
    assert antichain_rowmotion(p, g, "transfer").eq(antichain_rowmotion(p, g, "toggles"))


@pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (4, 3), (4, 4)])
def test_mode_equivalence_sampled(a, b):
    p = product_of_chains(a, b)
    for seed in range(4):
        for g in (tropical_labeling(p, seed), matrix_labeling(p, 1 + seed % 3, seed)):
            assert antichain_rowmotion(p, g, "transfer").eq(
                antichain_rowmotion(p, g, "toggles"))


def test_linear_extension_independence():
    p = product_of_chains(3, 3)
    rng = random.Random(13)
    base_order = list(p.topo_order)
    for s in range(6):
        g = matrix_labeling(p, 2, seed=300 + s)
        reference = antichain_rowmotion(p, g, mode="toggles")
        for _ in range(5):
            order = random_linear_extension(p, rng)
            assert order != base_order or True
            assert antichain_rowmotion(p, g, "toggles", extension=order).eq(reference)


@pytest.mark.parametrize("extension,message", [
    ([0, 0, 0, 0], "extension lists element 0 twice"),
    ([3, 2, 1, 0], "extension puts element 3 before element 1, which it covers"),
    ([0, 1, 2], "extension misses element 3"),
    ([0, 1, 2, 3, 3], "extension lists element 3 twice"),
    ([0, 1, 2, 4], "extension entry 4 is not an element id of a 4-element poset"),
])
def test_toggles_refuse_an_extension_that_is_not_linear(extension, message):
    """Each of these once returned a labeling that is not rowmotion."""
    p = product_of_chains(2, 2)
    g = matrix_labeling(p, 2, seed=1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        antichain_rowmotion(p, g, "toggles", extension=extension)


# -- toggle mode against the literal fold -----------------------------------


def _sweep_and_fold(poset, g, ext):
    """Toggle mode and the literal fold on ``g``, each as values or refusal."""
    return (values_or_singular(lambda: antichain_rowmotion(poset, g, "toggles", extension=ext)),
            values_or_singular(lambda: toggle_fold(poset, g, ext)))


def test_toggle_sweep_equals_the_literal_fold_in_every_realm():
    """Along random linear extensions one toggles step equals toggling one
    element at a time, value for value: matp and tropical on every poset,
    matq with singular values common (equal refusals too), and symbolic
    ratfun compared by repr."""
    rng = random.Random(31)

    def fraction():
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))

    def matq_labeling(poset, d):
        entries = (-1, 0, 1, 2)
        return Labeling(FractionMatrixRealm(d, c=Fraction(3, 2)), [
            tuple(Fraction(rng.choice(entries)) for _ in range(d * d)) for _ in range(poset.n)])

    refusals = 0
    for poset in (product_of_chains(2, 3), product_of_chains(3, 3), SHUFFLED):
        for _ in range(3):
            ext = random_linear_extension(poset, rng)
            labelings = [matrix_labeling(poset, d, seed=rng.randrange(10**6))
                         for d in (1, 2, 3, 4)]
            labelings.append(Labeling(TropicalRealm(fraction()),
                                      [fraction() for _ in range(poset.n)]))
            labelings += [matq_labeling(poset, d) for d in (1, 2)]
            for g in labelings:
                got, want = _sweep_and_fold(poset, g, ext)
                assert got == want
                refusals += isinstance(got[1], int)
    assert refusals > 0
    for poset in (product_of_chains(2, 3), SHUFFLED):
        g = symbolic_labeling(poset)
        ext = random_linear_extension(poset, rng)
        got = antichain_rowmotion(poset, g, "toggles", extension=ext).values
        assert [repr(v) for v in got] == [repr(v) for v in toggle_fold(poset, g, ext).values]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_toggle_sweep_refuses_as_the_literal_fold(p):
    """At small primes most draws hit a singular value; the sweep refuses
    with the fold's message, naming the same element, at several elements."""
    rng = random.Random(p)
    refused = set()
    for poset in (product_of_chains(2, 3), product_of_chains(3, 3), SHUFFLED):
        for d in (1, 2, 3, 4):
            for _ in range(6):
                g = Labeling(FpMatrixRealm(p, d, c=rng.randrange(1, p)),
                             [tuple(rng.randrange(p) for _ in range(d * d))
                              for _ in range(poset.n)])
                got, want = _sweep_and_fold(poset, g, random_linear_extension(poset, rng))
                assert got == want
                refused.add(got[1] if isinstance(got[1], int) else None)
    assert len(refused - {None}) > 1


def _rendered_or_refusal(realm, step):
    """The repr and the rendered JSON of each label of the labeling
    ``step()`` returns, or the message and element of its refusal."""
    try:
        values = step().values
    except SingularValue as exc:
        return str(exc), exc.element
    return [(repr(v), realm.value_to_json(v)) for v in values]


def _two_inverse_cases(poset, rng):
    """Labelings whose toggles meet singular values often (matp d = 1-4 at
    p = 2, 3, 5; matq), seldom (matp at a large prime) or never (tropical
    with int and ``Fraction`` labels)."""
    cases = []
    for p in (2, 3, 5):
        for d in (1, 2, 3, 4):
            cases.append(Labeling(FpMatrixRealm(p, d, c=rng.randrange(1, p)),
                                  [tuple(rng.randrange(p) for _ in range(d * d))
                                   for _ in range(poset.n)]))
    cases += [matrix_labeling(poset, d, seed=rng.randrange(10**6)) for d in (1, 2, 3, 4)]
    for d in (1, 2):
        cases.append(Labeling(FractionMatrixRealm(d, c=Fraction(3, 2)), [
            tuple(Fraction(rng.choice((-1, 0, 1, 2))) for _ in range(d * d))
            for _ in range(poset.n)]))
    cases.append(Labeling(TropicalRealm(Fraction(rng.randrange(1, 9), 4)),
                          [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                           for _ in range(poset.n)]))
    cases.append(Labeling(TropicalRealm(7), [rng.randrange(8) for _ in range(poset.n)]))
    return cases


def test_toggle_equals_the_two_inverse_formula():
    """A matrix-realm toggle inverts down * up once.  Each toggle, and each
    toggles step along a random linear extension, gives the labels of the
    formula with two single inverses, with the same repr and rendering (so
    the same types), or refuses with its message at its element."""
    rng = random.Random(29)
    refused, kept = set(), 0
    for poset in (product_of_chains(2, 3), product_of_chains(3, 3), SHUFFLED):
        for g in _two_inverse_cases(poset, rng):
            r = g.realm
            for v in range(poset.n):
                got = _rendered_or_refusal(r, lambda: toggle(poset, g, v))
                assert got == _rendered_or_refusal(r, lambda: toggle_by_two_inverses(poset, g, v))
                if isinstance(got, tuple):
                    refused.add((r.name, got[1]))
                else:
                    kept += 1
            ext = random_linear_extension(poset, rng)
            got = _rendered_or_refusal(
                r, lambda: antichain_rowmotion(poset, g, "toggles", extension=ext))
            assert got == _rendered_or_refusal(
                r, lambda: toggle_fold(poset, g, ext, step=toggle_by_two_inverses))
    assert {name for name, _ in refused} == {"matp", "matq"}
    assert len({element for _, element in refused}) > 1 and kept > 0


def test_symbolic_toggle_equals_the_two_inverse_formula():
    """In ratfun, where a product cancels a factor only when one side
    divides the other, each toggle and each toggles step render as the
    two-inverse formula does, from the symbolic labeling and from its image
    (a one-inverse product down * up kept a 123-term form at the centre of
    the [3]x[3] image where this gives 46), and a zero label refuses at the
    same element with the same message."""
    rng = random.Random(41)
    for poset in (product_of_chains(2, 3), product_of_chains(3, 3), SHUFFLED):
        g = symbolic_labeling(poset)
        r = g.realm
        image = antichain_rowmotion(poset, g, "toggles")
        zero = g.replace(rng.randrange(poset.n), RationalFunction.constant(r.nvars, 0))
        for start in (g, image, zero):
            for v in range(poset.n):
                assert (_rendered_or_refusal(r, lambda: toggle(poset, start, v))
                        == _rendered_or_refusal(r, lambda: toggle_by_two_inverses(poset, start, v)))
        # The fold recomputes both transfers per toggle: minutes on the
        # [3]x[3] image.
        for start in (g, image, zero) if poset.n < 9 else (g, zero):
            for ext in (None, random_linear_extension(poset, rng)):
                got = _rendered_or_refusal(
                    r, lambda: antichain_rowmotion(poset, start, "toggles", extension=ext))
                assert got == _rendered_or_refusal(
                    r, lambda: toggle_fold(poset, start, ext, step=toggle_by_two_inverses))
                assert isinstance(got, tuple) == (start is zero)


def test_toggle_step_on_4x5_makes_119_products(monkeypatch):
    """D takes 20 products; each of the 20 toggles takes one for its
    down-value and three for the new label, and W one at each of the 19
    elements that have an upper cover.  Recomputing both dynamic programs
    per toggle took 360."""
    poset = product_of_chains(4, 5)
    g = matrix_labeling(poset, 3, seed=5)
    calls = []
    mul = FpMatrixRealm.mul

    def counting_mul(self, x, y):
        calls.append(1)
        return mul(self, x, y)

    monkeypatch.setattr(FpMatrixRealm, "mul", counting_mul)
    got = antichain_rowmotion(poset, g, "toggles")
    assert len(calls) == 119
    monkeypatch.undo()
    assert got.values == toggle_fold(poset, g).values


def test_order_rowmotion_single_element():
    p = product_of_chains(1, 1)
    g = symbolic_labeling(p)
    r = g.realm
    assert r.eq(order_rowmotion(p, g)[0], r.variable("C") / r.variable("z"))


def test_order_rowmotion_period_2x2_scalars():
    p = product_of_chains(2, 2)
    for s in range(20):
        g = matrix_labeling(p, 1, seed=400 + s)
        cur = g
        for _ in range(4):
            cur = order_rowmotion(p, cur)
        assert cur.eq(g)


def test_order_antichain_equivariance():
    """down-transfer after order rowmotion equals antichain rowmotion after
    down-transfer, computing both sides independently."""
    for a, b in [(2, 2), (2, 3)]:
        p = product_of_chains(a, b)
        for s in range(5):
            for g in (matrix_labeling(p, 2, seed=500 + s),
                      tropical_labeling(p, 500 + s)):
                lhs = transfer(TransferKind.DOWN, p, order_rowmotion(p, g))
                rhs = antichain_rowmotion(p, transfer(TransferKind.DOWN, p, g))
                assert lhs.eq(rhs)


# -- the rowmotion pass ----------------------------------------------------

# 4 < 2 < 0 and 3 < 0, 3 < 1: the ids are not a linear extension
SHUFFLED = build_poset([(4, 2), (2, 0), (3, 0), (3, 1)], elements=range(5))


def _composition(poset, g):
    """The pass's oracle: antichain rowmotion as three transfer maps."""
    return transfer(TransferKind.DOWN, poset, transfer(
        TransferKind.COMPLEMENT, poset, transfer(TransferKind.UP_INV, poset, g)))


def _values_or_refusal(step, poset, g):
    try:
        return step(poset, g).values
    except SingularValue as exc:
        return str(exc)


def test_pass_tropical_matches_composition():
    rng = random.Random(21)
    for poset in (product_of_chains(3, 4), SHUFFLED):
        for c in (1, Fraction(-5, 3)):
            g = Labeling(TropicalRealm(c), [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                                            for _ in range(poset.n)])
            want = _composition(poset, g).values
            assert antichain_rowmotion(poset, g).values == want
            assert antichain_rowmotion(poset, g, mode="toggles").values == want


@pytest.mark.parametrize("poset", [product_of_chains(2, 3), SHUFFLED])
def test_pass_symbolic_matches_composition(poset):
    """Two steps on symbolic labels, compared as the reports render them."""
    g = symbolic_labeling(poset)
    render = g.realm.value_to_json
    for _ in range(2):
        got, want = antichain_rowmotion(poset, g), _composition(poset, g)
        assert [render(v) for v in got.values] == [render(v) for v in want.values]
        g = got


def test_pass_matq_matches_composition_and_its_refusals():
    """Entries in {-1, 0, 1, 2} make singular values common; the pass refuses
    with the composition's message, naming the same element."""
    rng = random.Random(8)
    outcomes = set()
    for poset in (product_of_chains(2, 3), SHUFFLED):
        for d in (1, 2, 3):
            realm = FractionMatrixRealm(d, c=Fraction(3, 2))
            for _ in range(12):
                g = Labeling(realm, [tuple(Fraction(rng.choice((-1, 0, 1, 2)))
                                           for _ in range(d * d)) for _ in range(poset.n)])
                got = _values_or_refusal(antichain_rowmotion, poset, g)
                assert got == _values_or_refusal(_composition, poset, g)
                outcomes.add(type(got))
    assert outcomes == {str, tuple}


def test_pass_names_the_first_singular_sum_in_id_order():
    """Both lower-cover sums vanish, at 0 and at 1; the pass, the engine and
    the composition all name element 0, which a linear extension visits
    after element 1."""
    poset = build_poset([(2, 1), (3, 1), (1, 0), (4, 0)], elements=range(5))
    assert poset.topo_order.index(1) < poset.topo_order.index(0)
    for realm in (FractionMatrixRealm(1), FractionMatrixRealm(2), FpMatrixRealm(PRIME, 1),
                  FpMatrixRealm(PRIME, 2), FpMatrixRealm(PRIME, 4)):
        one, minus = realm.identity(1), realm.identity(-1)
        g = Labeling(realm, [one, one, one, minus, minus])
        message = f"singular {realm.d}x{realm.d} matrix (at element 0)"
        assert _values_or_refusal(_composition, poset, g) == message
        assert _values_or_refusal(antichain_rowmotion, poset, g) == message
        if realm.name == "matp":
            with pytest.raises(SingularValue, match=re.escape(message)):
                kernel.make_engine(poset, realm.d, PRIME).step(g.values, 1)


def test_matp_pass_makes_two_modular_inverses(monkeypatch):
    """Each batch of the pass inverts all its determinants with one pow."""
    poset = product_of_chains(3, 3)
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    for d in (1, 2, 3):
        g = matrix_labeling(poset, d, seed=d)
        monkeypatch.setattr(realms, "pow", counting_pow, raising=False)
        calls.clear()
        antichain_rowmotion(poset, g)
        monkeypatch.undo()
        assert len(calls) == 2


# -- closed form ---------------------------------------------------------


def test_closed_form_2x2_top():
    p = product_of_chains(2, 2)
    g = symbolic_labeling(p)
    r = g.realm
    x, y = r.variable("x"), r.variable("y")
    out = closed_form_first_pass(p, g)
    assert r.eq(out[p.id(2, 2)], x * y / (x + y))
    assert out.eq(antichain_rowmotion(p, g))


def test_closed_form_1x1():
    p = product_of_chains(1, 1)
    g = symbolic_labeling(p)
    r = g.realm
    assert r.eq(closed_form_first_pass(p, g)[0], r.variable("C") / r.variable("z"))


def test_closed_form_matches_toggles_3x3():
    p = product_of_chains(3, 3)
    for s in range(30):
        g = matrix_labeling(p, 1 + s % 3, seed=600 + s)
        assert closed_form_first_pass(p, g).eq(antichain_rowmotion(p, g, "toggles"))


def test_closed_form_rejects_general_posets():
    v = build_poset([(0, 2), (1, 2)], elements=[0, 1, 2])
    g = matrix_labeling(v, 1, seed=1)
    with pytest.raises(ValueError):
        closed_form_first_pass(v, g)


# -- polytopes ------------------------------------------------------------


def test_polytope_membership_examples():
    p = product_of_chains(2, 2)
    from rowmotion import enumerate_antichains

    for s in enumerate_antichains(p):
        indicator = [1 if x in s else 0 for x in range(p.n)]
        assert polytope_membership("chain", p, indicator)
    zero = [0] * p.n
    for kind in ("order", "order-reversing", "chain"):
        assert polytope_membership(kind, p, zero)
    for vals in [("1/5", "1/10", "2/5", "3/10"), ("1/10", "1/2", "1/5", "1/10"),
                 ("3/10", "1/10", "2/5", "1/5"), ("1/10", "3/5", "3/10", "1/10")]:
        assert polytope_membership("chain", p, [Fraction(v) for v in vals])
    assert polytope_membership("order", p, [Fraction(v) for v in ("0", "1/2", "1/2", "1")])
    assert not polytope_membership("order", p, [Fraction(v) for v in ("1", "1/2", "1/2", "0")])
    assert polytope_membership("order-reversing", p,
                               [Fraction(v) for v in ("1", "1/2", "1/2", "0")])
    assert not polytope_membership("chain", p, [Fraction(1, 2)] * 4)
    assert not polytope_membership("chain", p, [Fraction(3, 2), 0, 0, 0])
    with pytest.raises(ValueError):
        polytope_membership("simplex", p, zero)
    # dilated by 10: integer numerators over the denominator 10
    assert polytope_membership("chain", p, [2, 1, 4, 3], 10)
    assert not polytope_membership("chain", p, [5, 5, 5, 5], 10)


def test_polytope_membership_bounds_every_value():
    """Each value must lie in [0, scale], whatever the order conditions say;
    the empty poset's one labeling is in every polytope."""
    p = product_of_chains(2, 2)
    for kind, vals in [("order", [-1, 0, 0, 0]), ("order", [0, 0, 0, 11]),
                       ("order-reversing", [11, 0, 0, 0]), ("order-reversing", [0, 0, 0, -1]),
                       ("chain", [0, -1, 0, 0]), ("chain", [Fraction(-1, 3), 0, 0, 0])]:
        assert not polytope_membership(kind, p, vals, 10)
        assert polytope_membership(kind, p, [min(max(v, 0), 10) for v in vals], 10)
    empty = build_poset([])
    for kind in ("order", "order-reversing", "chain"):
        assert polytope_membership(kind, empty, [])
    assert not polytope_membership("order", p, [0, 5, 5, 11], 10)


def test_chain_polytope_sampler_matches_chain_enumeration():
    """The sampler draws the same points as the sampler written over every
    maximal chain, on rectangles (inside the polytope or on a longest-chain
    facet on [2]x[2], always on one on [4]x[5]) and on a poset that is not a
    rectangle."""
    from rowmotion.sampling import sample_chain_polytope_point

    branchy = build_poset([(0, 2), (1, 2), (2, 3), (2, 4), (4, 5), (1, 6)])
    on_boundary = {}
    for p, seeds in ((product_of_chains(1, 1), 50), (product_of_chains(2, 2), 200),
                     (product_of_chains(2, 3), 200), (product_of_chains(4, 5), 20),
                     (branchy, 200)):
        for s in range(seeds):
            numerators, scale = sample_chain_polytope_point(
                p, random.Random(derive_seed(41, p.n, s)))
            point = [Fraction(k, scale) for k in numerators]
            assert point == chain_polytope_point_by_chains(
                p, random.Random(derive_seed(41, p.n, s)))
            assert polytope_membership("chain", p, point)
            on_boundary.setdefault(p.n, set()).add(p.max_chain_sum(point) == 1)
    assert on_boundary[4] == {True, False}
    assert on_boundary[20] == {True}


def test_pl_rowmotion_preserves_chain_polytope():
    from rowmotion.sampling import sample_chain_polytope_point

    realm = TropicalRealm(Fraction(1))
    for a in range(1, 4):
        for b in range(1, 4):
            p = product_of_chains(a, b)
            for s in range(1000):
                rng = random.Random(derive_seed(700, a, b, s))
                numerators, scale = sample_chain_polytope_point(p, rng)
                g = Labeling(realm, [Fraction(k, scale) for k in numerators])
                img = antichain_rowmotion(p, g)
                assert polytope_membership("chain", p, img)


def test_tropical_matches_independent_max_plus_oracle():
    """The generic code path in the tropical realm agrees with a direct
    max-plus implementation of the three-step composition."""

    def oracle_step(poset, values):
        n = poset.n
        up = [None] * n
        for x in reversed(poset.topo_order):
            above = [up[y] for y in poset.up_covers[x]]
            up[x] = values[x] + (max(above) if above else 0)
        comp = [1 - v for v in up]
        out = [None] * n
        for x in range(n):
            below = [comp[y] for y in poset.down_covers[x]]
            out[x] = comp[x] - (max(below) if below else 0)
        return out

    realm = TropicalRealm(Fraction(1))
    for a, b in [(2, 2), (2, 3), (3, 3)]:
        p = product_of_chains(a, b)
        for s in range(20):
            g = tropical_labeling(p, seed=800 + s)
            assert antichain_rowmotion(p, g).values == tuple(oracle_step(p, list(g.values)))


# -- iteration -------------------------------------------------------------


def test_iterate_symbolic_periods():
    p = product_of_chains(2, 2)
    orb = iterate(p, symbolic_labeling(p))
    assert orb.period == 4
    assert len(orb.labelings) == 5
    p23 = product_of_chains(2, 3)
    assert iterate(p23, symbolic_labeling(p23)).period == 5


def test_iterate_matrix_period_2x2():
    p = product_of_chains(2, 2)
    for s in range(100):
        g = matrix_labeling(p, 1 + s % 3, seed=900 + s, p=FUZZ_PRIME)
        orb = iterate(p, g, mode="toggles")
        assert orb.period is not None and 4 % orb.period == 0


def test_iterate_respects_step_bound():
    p = product_of_chains(2, 2)
    g = symbolic_labeling(p)
    orb = iterate(p, g, steps=2)
    assert orb.period is None
    assert len(orb.labelings) == 3


def test_iterate_records_words_and_json():
    p = product_of_chains(2, 2)
    realm = TropicalRealm(Fraction(1))
    g = Labeling(realm, [Fraction(v) for v in ("1/5", "1/10", "2/5", "3/10")])
    orb = iterate(p, g)
    obj = orb.to_json()
    assert obj["period"] == 4
    assert len(obj["steps"]) == 5
    assert obj["steps"][0]["st_word"] == ["3/5", "2/5", "7/10", "3/10"]
    assert obj["steps"][0]["labels"]["0"] == "1/5"


def test_iterate_non_rectangle_has_no_words():
    v = build_poset([(0, 2), (1, 2)], elements=[0, 1, 2])
    g = matrix_labeling(v, 1, seed=2)
    orb = iterate(v, g, steps=6)
    assert orb.st_words[0] is None
