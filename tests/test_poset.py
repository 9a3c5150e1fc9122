"""Poset construction, subsets, and enumeration."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from rowmotion import (
    PosetError,
    build_poset,
    enumerate_antichains,
    fibers,
    poset_from_json,
    poset_to_json,
    product_of_chains,
)


def brute_force_antichains(poset):
    """Oracle: filter every subset of the ground set."""
    out = []
    for r in range(poset.n + 1):
        for combo in itertools.combinations(range(poset.n), r):
            if poset.is_antichain(combo):
                out.append(frozenset(combo))
    return out


def brute_force_closure(n, covers):
    """Oracle: reflexive-transitive closure by repeated squaring of the relation."""
    leq = {(x, x) for x in range(n)} | set(covers)
    changed = True
    while changed:
        changed = False
        for (x, y), (y2, z) in itertools.product(list(leq), list(leq)):
            if y == y2 and (x, z) not in leq:
                leq.add((x, z))
                changed = True
    return leq


def test_product_of_chains_2x2():
    p = product_of_chains(2, 2)
    assert p.n == 4
    assert len(p.covers) == 4
    assert p.minimal == (p.id(1, 1),)
    assert p.nonminimal == (p.id(2, 1), p.id(1, 2), p.id(2, 2))
    assert [x for x, _, _ in p.up_sweep] == [p.id(1, 2), p.id(2, 1), p.id(1, 1)]


def test_product_of_chains_1x1():
    p = product_of_chains(1, 1)
    assert p.n == 1
    assert p.covers == frozenset()


def test_product_of_chains_3x5_covers():
    p = product_of_chains(3, 5)
    assert p.n == 15
    above_24 = {p.coord(y) for y in p.up_covers[p.id(2, 4)]}
    assert above_24 == {(3, 4), (2, 5)}
    # coordinatewise order
    for x in range(p.n):
        for y in range(p.n):
            (i1, j1), (i2, j2) = p.coord(x), p.coord(y)
            assert p.leq(x, y) == (i1 <= i2 and j1 <= j2)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 2), (3, 5)])
def test_cover_count(a, b):
    p = product_of_chains(a, b)
    assert len(p.covers) == 2 * a * b - a - b


def test_product_of_chains_rejects_zero():
    with pytest.raises(PosetError):
        product_of_chains(0, 2)
    with pytest.raises(PosetError):
        product_of_chains(2, 0)


def test_build_poset_chain_closure():
    p = build_poset([("u", "v"), ("v", "w")])
    pairs = {(x, y) for x in range(3) for y in range(3) if p.leq(x, y)}
    assert len(pairs) == 6  # 3 reflexive + 3 strict


def test_build_poset_cycle():
    with pytest.raises(PosetError, match="cycle"):
        build_poset([("u", "v"), ("v", "u")])


def test_build_poset_duplicate_cover():
    with pytest.raises(PosetError, match="duplicate"):
        build_poset([("u", "v"), ("u", "v")])


def test_build_poset_dangling():
    with pytest.raises(PosetError, match="undeclared"):
        build_poset([("u", "v"), ("v", "w")], elements=["u", "v"])


def test_build_poset_transitive_reduction():
    # The square plus a redundant bottom-to-top pair.
    square = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]
    p = build_poset(square, elements=[0, 1, 2, 3])
    assert (0, 3) not in p.covers
    assert p.covers == frozenset([(0, 1), (0, 2), (1, 3), (2, 3)])
    # Oracle: a cover is redundant exactly when the closure of the others
    # already contains it.
    closure = brute_force_closure(4, square)
    for pair in square:
        others = [c for c in square if c != pair]
        redundant = pair in brute_force_closure(4, others)
        assert (pair in p.covers) == (not redundant)
    assert {(x, y) for x in range(4) for y in range(4) if p.leq(x, y)} == closure


def test_random_posets_match_closure_oracle():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randrange(1, 8)
        covers = set()
        for lo in range(n):
            for hi in range(lo + 1, n):
                if rng.random() < 0.3:
                    covers.add((lo, hi))
        p = build_poset(sorted(covers), elements=list(range(n)))
        closure = brute_force_closure(n, covers)
        got = {(x, y) for x in range(n) for y in range(n) if p.leq(x, y)}
        assert got == closure
        # antisymmetry scan
        for x in range(n):
            for y in range(n):
                if p.leq(x, y) and p.leq(y, x):
                    assert x == y
        # covers are transitively reduced
        for lo, hi in p.covers:
            between = [z for z in range(n) if z not in (lo, hi)
                       and p.leq(lo, z) and p.leq(z, hi)]
            assert not between
        # every table agrees with the closure and the reduced covers
        for x in range(n):
            assert p.up_mask[x] == sum(1 << y for y in range(n) if (x, y) in closure)
            assert p.down_mask[x] == sum(1 << y for y in range(n) if (y, x) in closure)
            assert p.up_covers[x] == tuple(sorted(y for lo, y in p.covers if lo == x))
            assert p.down_covers[x] == tuple(sorted(y for y, hi in p.covers if hi == x))
        assert p.minimal == tuple(x for x in range(n) if not p.down_covers[x])
        assert p.nonminimal == tuple(x for x in range(n) if p.down_covers[x])
        pos = {x: k for k, x in enumerate(p.topo_order)}
        assert sorted(pos) == list(range(n))
        assert all(pos[lo] < pos[hi] for lo, hi in p.covers)
        # the sweeps: every non-maximal element top down, every nonminimal
        # element in id order, each with its covers split as (first, rest)
        assert [x for x, _, _ in p.up_sweep] == [x for x in reversed(p.topo_order)
                                                  if p.up_covers[x]]
        assert [x for x, _, _ in p.down_sweep] == list(p.nonminimal)
        for sweep, covers in ((p.up_sweep, p.up_covers), (p.down_sweep, p.down_covers)):
            for x, first, rest in sweep:
                assert (first,) + rest == covers[x]
                assert type(rest) is tuple


def test_max_chain_sum_on_the_empty_and_one_element_posets():
    assert build_poset([]).max_chain_sum([]) == 0
    one = build_poset([], elements=["a"])
    for value in (0, -3, 7, Fraction(-5, 2)):
        assert one.max_chain_sum([value]) == value


def test_enumerate_antichains_2x2():
    p = product_of_chains(2, 2)
    got = enumerate_antichains(p)
    assert len(got) == 6
    assert sorted(map(sorted, got)) == sorted(map(sorted, brute_force_antichains(p)))


def test_enumerate_antichains_3x5():
    p = product_of_chains(3, 5)
    got = enumerate_antichains(p)
    assert len(got) == 56
    assert set(got) == set(brute_force_antichains(p))


def test_enumerate_antichains_single_element():
    p = product_of_chains(1, 1)
    assert enumerate_antichains(p) == [frozenset(), frozenset({0})]


def test_enumerate_antichains_sorted_and_valid():
    p = product_of_chains(3, 2)
    got = enumerate_antichains(p)
    keys = [(len(s), tuple(sorted(s))) for s in got]
    assert keys == sorted(keys)
    assert all(p.is_antichain(s) for s in got)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 5) for b in range(1, 5)])
def test_antichain_count_is_binomial(a, b):
    p = product_of_chains(a, b)
    assert len(enumerate_antichains(p)) == math.comb(a + b, a)


def test_fibers():
    pos, neg = fibers(3, 5)
    p = product_of_chains(3, 5)
    assert [p.coord(x) for x in pos[1]] == [(2, l) for l in range(1, 6)]
    pos22, neg22 = fibers(2, 2)
    p22 = product_of_chains(2, 2)
    assert [p22.coord(x) for x in neg22[0]] == [(1, 1), (2, 1)]
    pos1b, _ = fibers(1, 4)
    assert pos1b == [list(range(4))]


def test_linear_extension():
    chain = build_poset([(0, 1), (1, 2)], elements=[0, 1, 2])
    assert chain.topo_order == (0, 1, 2)
    p = product_of_chains(2, 2)
    assert p.topo_order == (p.id(1, 1), p.id(2, 1), p.id(1, 2), p.id(2, 2))
    loose = build_poset([], elements=["b", "a", "c"])
    assert loose.topo_order == (0, 1, 2)
    for a, b in [(2, 3), (3, 3)]:
        rect = product_of_chains(a, b)
        order = rect.topo_order
        pos = {x: k for k, x in enumerate(order)}
        for lo, hi in rect.covers:
            assert pos[lo] < pos[hi]


def test_subset_predicates():
    p = product_of_chains(2, 2)
    assert p.is_ideal({p.id(1, 1), p.id(2, 1)})
    assert not p.is_ideal({p.id(2, 2)})
    assert p.is_filter({p.id(2, 2)})
    assert p.is_antichain({p.id(2, 1), p.id(1, 2)})
    assert not p.is_antichain({p.id(1, 1), p.id(2, 2)})


def test_maximal_chains():
    p = product_of_chains(2, 2)
    chains = p.maximal_chains()
    assert len(chains) == 2
    assert all(len(c) == 3 for c in chains)


def test_json_round_trip():
    p = product_of_chains(2, 3)
    obj = poset_to_json(p)
    assert obj["chains"] == [2, 3]
    q = poset_from_json(obj)
    assert q.covers == p.covers

    named = build_poset([("u", "v"), ("v", "w")])
    obj = poset_to_json(named)
    assert obj["names"] == ["u", "v", "w"]
    r = poset_from_json({"elements": obj["names"], "covers": [["u", "v"], ["v", "w"]]})
    assert r.covers == named.covers
