"""Kernel backends: agreement with the generic path, periods, performance."""

import random
import time

import pytest

from rowmotion import (
    SingularValue,
    antichain_rowmotion,
    build_poset,
    kernel,
    product_of_chains,
)
from rowmotion.labeling import Labeling
from rowmotion.realms import FUZZ_PRIME, FpMatrixRealm, is_prime

BACKENDS = sorted(kernel.available_backends().items())
NON_RECTANGLE = build_poset([(0, 2), (1, 2), (2, 3), (1, 4)], elements=[0, 1, 2, 3, 4])
LARGE_PRIME = 2**64 - 59


def draw_flat(rng, n, d, p):
    return [rng.randrange(p) for _ in range(n * d * d)], rng.randrange(1, p)


def test_backend_registry():
    names = dict(BACKENDS)
    assert "pure-python" in names
    assert kernel.backend_name() in names


def test_flat_round_trip():
    realm = FpMatrixRealm(FUZZ_PRIME, 2, c=7)
    rng = random.Random(0)
    vals = [tuple(tuple(rng.randrange(FUZZ_PRIME) for _ in range(2)) for _ in range(2))
            for _ in range(4)]
    g = Labeling(realm, vals)
    assert kernel.flat_to_labeling(realm, kernel.labeling_to_flat(g)).values == g.values


@pytest.mark.parametrize("name,module", BACKENDS)
def test_kernel_matches_generic_path(name, module):
    rng = random.Random(42)
    posets = [
        product_of_chains(2, 2),
        product_of_chains(3, 3),
        product_of_chains(1, 4),
        NON_RECTANGLE,
    ]
    for poset in posets:
        for d in (1, 2, 3, 4):
            eng = kernel.make_engine(poset, d, FUZZ_PRIME, module=module)
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


@pytest.mark.parametrize("name,module", BACKENDS)
@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_kernel_refuses_exactly_where_toggles_do(name, module, p):
    """Small primes make singular inputs and intermediates common; the
    kernel must raise on exactly the inputs generic toggle mode raises on,
    and agree with both generic modes everywhere else."""
    rng = random.Random(p)
    posets = [product_of_chains(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    posets.append(NON_RECTANGLE)
    refused = agreed = 0
    for poset in posets:
        for d in (1, 2, 3, 4):
            eng = kernel.make_engine(poset, d, p, module=module)
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


@pytest.mark.parametrize("name,module", BACKENDS)
def test_kernel_backends_agree(name, module):
    pure = kernel.available_backends()["pure-python"]
    rng = random.Random(9)
    poset = product_of_chains(3, 2)
    for d in (1, 2, 3):
        e1 = kernel.make_engine(poset, d, FUZZ_PRIME, module=module)
        e2 = kernel.make_engine(poset, d, FUZZ_PRIME, module=pure)
        flat, c = draw_flat(rng, poset.n, d, FUZZ_PRIME)
        assert e1.step(flat, c) == e2.step(flat, c)
        assert e1.first_return(flat, c, 10) == e2.first_return(flat, c, 10)


@pytest.mark.parametrize("name,module", BACKENDS)
def test_first_return_period_2x2(name, module):
    rng = random.Random(4)
    poset = product_of_chains(2, 2)
    for d in (1, 2, 3):
        eng = kernel.make_engine(poset, d, FUZZ_PRIME, module=module)
        for _ in range(20):
            flat, c = draw_flat(rng, poset.n, d, FUZZ_PRIME)
            m = eng.first_return(flat, c, 4)
            assert m in (1, 2, 4)  # a divisor of 4 (1 only for fixed points)


@pytest.mark.parametrize("name,module", BACKENDS)
def test_singular_raises(name, module):
    poset = product_of_chains(2, 2)
    eng = kernel.make_engine(poset, 1, 101, module=module)
    with pytest.raises(SingularValue):
        eng.step([0, 1, 1, 1], 1)


@pytest.mark.parametrize("name,module", BACKENDS)
def test_step_leaves_input_alone(name, module):
    poset = product_of_chains(2, 2)
    eng = kernel.make_engine(poset, 2, FUZZ_PRIME, module=module)
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
    """The compiled kernel's products assume p < 2^63; the engine picked for
    a larger prime must still agree with the generic path."""
    poset = product_of_chains(3, 3)
    eng = kernel.make_engine(poset, 2, LARGE_PRIME)
    assert kernel.backend_name(LARGE_PRIME) == "pure-python"
    rng = random.Random(63)
    flat, c = draw_flat(rng, poset.n, 2, LARGE_PRIME)
    g = kernel.flat_to_labeling(FpMatrixRealm(LARGE_PRIME, 2, c=c), flat)
    for _ in range(3):
        flat = eng.step(flat, c)
        g = antichain_rowmotion(poset, g)
        assert kernel.flat_to_labeling(g.realm, flat).eq(g)


def test_throughput_target_compiled():
    """Regression guard: >= 1e4 toggle steps/s on [3]x[3], d=2, over the
    fuzzing prime.  Stated for the compiled kernel; skipped on the fallback."""
    if kernel.backend_name() != "compiled":
        pytest.skip("compiled kernel not built; pure fallback has no target")
    poset = product_of_chains(3, 3)
    eng = kernel.make_engine(poset, 2, FUZZ_PRIME)
    rng = random.Random(1)
    flat, c = draw_flat(rng, poset.n, 2, FUZZ_PRIME)
    steps = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.5:
        flat = eng.step(flat, c)
        steps += 1
    rate = steps / (time.perf_counter() - t0)
    assert rate >= 10_000, f"{rate:.0f} steps/s"
