"""Antichain rowmotion on the lifted pass, checked against the set-level
oracle and brute-force word and orbit oracles."""

import re
from fractions import Fraction
from math import comb, lcm

import pytest

from rowmotion import (
    combinatorial_orbits,
    enumerate_antichains,
    product_of_chains,
    rowmotion_antichain,
    st_word_combinatorial,
)
from rowmotion.combinatorial import orbit_report
from set_rowmotion import complement, downward_saturation, minimal_elements, set_rowmotion


def indicator_word(a, b, antichain, poset):
    """Oracle: the word from indicator sums, computed independently."""
    ind = [[1 if poset.id(i, j) in antichain else 0 for j in range(1, b + 1)]
           for i in range(1, a + 1)]
    head = [sum(ind[i - 1]) for i in range(1, a + 1)]
    tail = [1 - sum(ind[i - 1][l - 1] for i in range(1, a + 1)) for l in range(1, b + 1)]
    return tuple(head + tail)


def test_downward_saturation_3x5():
    p = product_of_chains(3, 5)
    ideal = downward_saturation(p, {p.id(2, 4), p.id(3, 1)})
    assert len(ideal) == 9
    expected = {p.id(i, j) for i in range(1, 3) for j in range(1, 5)} | {p.id(3, 1)}
    assert ideal == expected
    # maximal elements of the saturation recover the antichain
    maxima = {x for x in ideal if not any(y in ideal for y in p.up_covers[x])}
    assert maxima == {p.id(2, 4), p.id(3, 1)}


def test_downward_saturation_trivial():
    p = product_of_chains(2, 2)
    assert downward_saturation(p, frozenset()) == frozenset()
    assert downward_saturation(p, {p.id(2, 2)}) == frozenset(range(4))
    with pytest.raises(ValueError):
        downward_saturation(p, {p.id(1, 1), p.id(2, 2)})


def test_complement():
    p = product_of_chains(2, 2)
    assert complement(p, frozenset()) == frozenset(range(4))
    assert complement(p, frozenset(range(4))) == frozenset()
    p35 = product_of_chains(3, 5)
    ideal = downward_saturation(p35, {p35.id(2, 4), p35.id(3, 1)})
    filt = complement(p35, ideal)
    assert filt == {p35.id(i, j) for (i, j) in
                    [(1, 5), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5)]}
    with pytest.raises(ValueError):
        complement(p, {p.id(2, 2)})


def test_minimal_elements():
    p = product_of_chains(2, 2)
    assert minimal_elements(p, frozenset(range(4))) == {p.id(1, 1)}
    assert minimal_elements(p, frozenset()) == frozenset()
    p35 = product_of_chains(3, 5)
    filt = {p35.id(i, j) for (i, j) in [(1, 5), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5)]}
    assert minimal_elements(p35, filt) == {p35.id(1, 5), p35.id(3, 2)}
    with pytest.raises(ValueError):
        minimal_elements(p, {p.id(1, 1)})


def test_rowmotion_3x5():
    p = product_of_chains(3, 5)
    image = rowmotion_antichain(p, {p.id(2, 4), p.id(3, 1)})
    assert image == {p.id(1, 5), p.id(3, 2)}


@pytest.mark.parametrize("antichain,named", [
    ({-1}, "-1"), ({4}, "4"), ({7}, "7"), ({0, 7}, "7"), ({-1, 3}, "-1"), ({-1, 7}, "-1"),
    ({"a"}, "a"), ({1.5}, "1.5"), ({1.0}, "1.0"),
], ids=repr)
def test_an_id_outside_the_poset_is_refused(antichain, named):
    """An id that is not an element is refused, naming it, before the
    antichain check reads the poset's tables at it."""
    p = product_of_chains(2, 2)
    msg = f"no element {named} in a 4-element poset"
    with pytest.raises(ValueError, match=re.escape(msg)):
        rowmotion_antichain(p, antichain)
    with pytest.raises(ValueError, match=re.escape(msg)):
        st_word_combinatorial(2, 2, antichain)
    with pytest.raises(ValueError):
        downward_saturation(p, antichain)


def test_a_set_that_is_not_an_antichain_is_refused():
    p = product_of_chains(2, 2)
    for s in [{p.id(1, 1), p.id(2, 2)}, {p.id(1, 1), p.id(2, 1)}, set(range(4))]:
        with pytest.raises(ValueError, match="not an antichain"):
            rowmotion_antichain(p, s)
        with pytest.raises(ValueError, match="not an antichain"):
            st_word_combinatorial(2, 2, s)


def test_rowmotion_of_empty_is_minima():
    for a, b in [(1, 1), (2, 3), (3, 2)]:
        p = product_of_chains(a, b)
        assert rowmotion_antichain(p, frozenset()) == {x for x in range(p.n) if x not in p.nonminimal}


def test_rowmotion_2x2_four_cycle():
    p = product_of_chains(2, 2)
    cur = frozenset({p.id(1, 1)})
    seen = [cur]
    for _ in range(3):
        cur = rowmotion_antichain(p, cur)
        seen.append(cur)
    assert seen == [
        frozenset({p.id(1, 1)}),
        frozenset({p.id(2, 1), p.id(1, 2)}),
        frozenset({p.id(2, 2)}),
        frozenset(),
    ]
    assert rowmotion_antichain(p, cur) == seen[0]


def test_st_word_examples():
    p = product_of_chains(3, 5)
    a = frozenset({p.id(2, 4), p.id(3, 1)})
    assert st_word_combinatorial(3, 5, a) == (0, 1, 1, 0, 1, 1, 0, 1)
    image = rowmotion_antichain(p, a)
    assert st_word_combinatorial(3, 5, image) == (1, 0, 1, 1, 0, 1, 1, 0)
    for aa, bb in [(2, 2), (3, 4)]:
        empty = st_word_combinatorial(aa, bb, frozenset())
        assert empty == tuple([0] * aa + [1] * bb)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 5) for b in range(1, 5)])
def test_st_word_matches_indicator_oracle(a, b):
    p = product_of_chains(a, b)
    for s in enumerate_antichains(p):
        assert st_word_combinatorial(a, b, s) == indicator_word(a, b, s, p)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 5) for b in range(1, 5)])
def test_rotation_exhaustive(a, b):
    p = product_of_chains(a, b)
    for s in enumerate_antichains(p):
        w = st_word_combinatorial(a, b, s)
        shifted = (w[-1],) + w[:-1]
        assert st_word_combinatorial(a, b, rowmotion_antichain(p, s)) == shifted


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 6) for b in range(1, 6)])
def test_period_divides_a_plus_b(a, b):
    p = product_of_chains(a, b)
    for s in enumerate_antichains(p):
        cur = s
        for _ in range(a + b):
            cur = rowmotion_antichain(p, cur)
        assert cur == s


def test_orbits_2x2():
    orbits = combinatorial_orbits(2, 2)
    assert [o.size for o in orbits] == [4, 2]
    assert all(o.cardinality_avg == 1 for o in orbits)
    for o in orbits:
        assert all(v == Fraction(1, 2) for v in o.positive_fiber_avgs)
        assert all(v == Fraction(1, 2) for v in o.negative_fiber_avgs)
    assert lcm(*[o.size for o in orbits]) == 4


def test_orbits_1x1():
    (orbit,) = combinatorial_orbits(1, 1)
    assert orbit.antichains == (frozenset(), frozenset({0}))
    assert orbit.cardinality_avg == Fraction(1, 2)


def test_orbits_2x3_cardinality():
    for o in combinatorial_orbits(2, 3):
        assert o.cardinality_avg == Fraction(6, 5)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 5) for b in range(1, 5)])
def test_orbit_partition_and_averages(a, b):
    orbits = combinatorial_orbits(a, b)
    p = product_of_chains(a, b)
    seen = [s for o in orbits for s in o.antichains]
    assert len(seen) == len(set(seen)) == comb(a + b, a)
    # rowmotion closes each orbit
    for o in orbits:
        for cur, nxt in zip(o.antichains, o.antichains[1:] + o.antichains[:1]):
            assert rowmotion_antichain(p, cur) == nxt
    # fiber homomesy values forced by the rotation
    for o in orbits:
        assert o.cardinality_avg == Fraction(a * b, a + b)
        assert all(v == Fraction(b, a + b) for v in o.positive_fiber_avgs)
        assert all(v == Fraction(a, a + b) for v in o.negative_fiber_avgs)


def test_orbit_report_shape():
    rep = orbit_report(2, 2)
    assert rep["antichain_count"] == 6
    assert [o["size"] for o in rep["orbits"]] == [4, 2]
    assert rep["orbits"][0]["cardinality_avg"] == "1"
    assert rep["orbits"][0]["st_words"][0] == [0, 0, 1, 1]


def test_indicator_consistency_with_tropical_rowmotion():
    """0/1 indicator labelings pushed through the tropical realm, with a
    ``Fraction`` constant, reproduce the set-level oracle, exhaustively for
    a, b <= 3."""
    from fractions import Fraction

    from rowmotion import Labeling, TropicalRealm, antichain_rowmotion

    realm = TropicalRealm(Fraction(1))
    for a in range(1, 4):
        for b in range(1, 4):
            p = product_of_chains(a, b)
            for s in enumerate_antichains(p):
                g = Labeling(realm, [Fraction(1 if x in s else 0) for x in range(p.n)])
                image = antichain_rowmotion(p, g)
                expected = set_rowmotion(p, s)
                assert image.values == tuple(
                    Fraction(1 if x in expected else 0) for x in range(p.n)
                )
