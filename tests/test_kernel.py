"""The rowmotion kernel: agreement with the generic path, refusals, periods."""

import random

import pytest

from rowmotion import (
    SingularValue,
    antichain_rowmotion,
    build_poset,
    iterate,
    kernel,
    product_of_chains,
)
from rowmotion.labeling import Labeling
from rowmotion.realms import FUZZ_PRIME, FpMatrixRealm, is_prime

NON_RECTANGLE = build_poset([(0, 2), (1, 2), (2, 3), (1, 4)], elements=[0, 1, 2, 3, 4])
LARGE_PRIME = 2**64 - 59


def draw_flat(rng, n, d, p):
    return [rng.randrange(p) for _ in range(n * d * d)], rng.randrange(1, p)


def test_backend_registry():
    backends = kernel.available_backends()
    assert list(backends) == [kernel.backend_name()] == ["pure-python"]
    assert backends["pure-python"].FpToggleEngine is kernel.FpToggleEngine


def test_flat_round_trip():
    realm = FpMatrixRealm(FUZZ_PRIME, 2, c=7)
    rng = random.Random(0)
    vals = [tuple(rng.randrange(FUZZ_PRIME) for _ in range(4)) for _ in range(4)]
    g = Labeling(realm, vals)
    assert kernel.flat_to_labeling(realm, kernel.labeling_to_flat(g)).values == g.values


def test_kernel_matches_generic_path():
    rng = random.Random(42)
    posets = [
        product_of_chains(2, 2),
        product_of_chains(3, 3),
        product_of_chains(1, 4),
        NON_RECTANGLE,
    ]
    for poset in posets:
        for d in (1, 2, 3, 4):
            eng = kernel.make_engine(poset, d, FUZZ_PRIME)
            for _ in range(5):
                flat, c = draw_flat(rng, poset.n, d, FUZZ_PRIME)
                realm = FpMatrixRealm(FUZZ_PRIME, d, c=c)
                g = kernel.flat_to_labeling(realm, flat)
                expected = antichain_rowmotion(poset, g, mode="toggles")
                got = kernel.flat_to_labeling(realm, eng.step(flat, c))
                assert got.eq(expected)


def _outcome(f):
    try:
        return f()
    except SingularValue:
        return SingularValue


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_kernel_refuses_exactly_where_toggles_do(p):
    """Small primes make singular inputs and intermediates common; the
    kernel must raise on exactly the inputs generic toggle mode raises on,
    and agree with both generic modes everywhere else."""
    rng = random.Random(p)
    posets = [product_of_chains(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    posets.append(NON_RECTANGLE)
    refused = agreed = 0
    for poset in posets:
        for d in (1, 2, 3, 4):
            eng = kernel.make_engine(poset, d, p)
            for _ in range(8 if d < 4 else 3):
                flat, c = draw_flat(rng, poset.n, d, p)
                g = kernel.flat_to_labeling(FpMatrixRealm(p, d, c=c), flat)
                expected = _outcome(lambda: antichain_rowmotion(poset, g, mode="toggles"))
                got = _outcome(lambda: eng.step(flat, c))
                if expected is SingularValue:
                    assert got is SingularValue
                    refused += 1
                    continue
                assert got is not SingularValue
                got = kernel.flat_to_labeling(g.realm, got)
                assert got.eq(expected)
                assert got.eq(antichain_rowmotion(poset, g, mode="transfer"))
                agreed += 1
    assert refused and agreed


def test_first_return_matches_generic_period():
    """``first_return`` reports the period generic toggle mode finds, with 0
    where ``iterate`` finds none within the bound."""
    rng = random.Random(9)
    periods = set()
    for poset in (product_of_chains(2, 3), product_of_chains(3, 3), NON_RECTANGLE):
        for d in (1, 2, 3):
            eng = kernel.make_engine(poset, d, FUZZ_PRIME)
            for k in (poset.n // 2, poset.n + 2):
                flat, c = draw_flat(rng, poset.n, d, FUZZ_PRIME)
                g = kernel.flat_to_labeling(FpMatrixRealm(FUZZ_PRIME, d, c=c), flat)
                period = iterate(poset, g, steps=k, mode="toggles").period
                assert (eng.first_return(flat, c, k) or None) == period
                periods.add(period)
    assert {None, 5, 6} <= periods


def test_first_return_period_2x2():
    rng = random.Random(4)
    poset = product_of_chains(2, 2)
    for d in (1, 2, 3):
        eng = kernel.make_engine(poset, d, FUZZ_PRIME)
        for _ in range(20):
            flat, c = draw_flat(rng, poset.n, d, FUZZ_PRIME)
            m = eng.first_return(flat, c, 4)
            assert m in (1, 2, 4)  # a divisor of 4 (1 only for fixed points)


def test_singular_raises():
    poset = product_of_chains(2, 2)
    eng = kernel.make_engine(poset, 1, 101)
    with pytest.raises(SingularValue):
        eng.step([0, 1, 1, 1], 1)


def test_step_leaves_input_alone():
    poset = product_of_chains(2, 2)
    eng = kernel.make_engine(poset, 2, FUZZ_PRIME)
    rng = random.Random(2)
    flat, c = draw_flat(rng, poset.n, 2, FUZZ_PRIME)
    snapshot = list(flat)
    eng.step(flat, c)
    assert flat == snapshot


def test_is_prime():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    # the smallest strong pseudoprimes to the first 4, 7 and 9 prime bases
    for n in (3215031751, 341550071728321, 3825123056546413051):
        assert not is_prime(n)
    for n in (5, FUZZ_PRIME, LARGE_PRIME):
        assert is_prime(n)
    assert not is_prime(1000003 * 1000033)
    with pytest.raises(ValueError, match="too large to certify"):
        is_prime(2**89 - 1)


@pytest.mark.parametrize("p", [1, 4, 91, 2**61 + 1, 2**89 - 1])
def test_composite_or_uncertified_modulus_refused(p):
    with pytest.raises(ValueError):
        kernel.make_engine(product_of_chains(2, 2), 2, p)
    with pytest.raises(ValueError):
        FpMatrixRealm(p, 2)


def test_large_prime_uses_an_exact_engine():
    """At a prime above 2^63 a sum of d products of residues no longer fits
    in 128 bits; the kernel must still agree with the generic path there."""
    poset = product_of_chains(3, 3)
    eng = kernel.make_engine(poset, 2, LARGE_PRIME)
    assert kernel.backend_name() == "pure-python"
    rng = random.Random(63)
    flat, c = draw_flat(rng, poset.n, 2, LARGE_PRIME)
    g = kernel.flat_to_labeling(FpMatrixRealm(LARGE_PRIME, 2, c=c), flat)
    for _ in range(3):
        flat = eng.step(flat, c)
        g = antichain_rowmotion(poset, g)
        assert kernel.flat_to_labeling(g.realm, flat).eq(g)
