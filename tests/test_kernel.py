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
from rowmotion.realms import FUZZ_PRIME, FpMatrixRealm, FpProductRealm, is_prime

from fuzz_oracle import engine_return

NON_RECTANGLE = build_poset([(0, 2), (1, 2), (2, 3), (1, 4)], elements=[0, 1, 2, 3, 4])
LARGE_PRIME = 2**64 - 59


def draw_labels(rng, n, d, p):
    """n per-element d x d matrices, then a central constant."""
    labels = [tuple(rng.randrange(p) for _ in range(d * d)) for _ in range(n)]
    return labels, rng.randrange(1, p)


def test_backend_registry():
    backends = kernel.available_backends()
    assert list(backends) == [kernel.backend_name()] == ["pure-python"]
    assert backends["pure-python"].FpToggleEngine is kernel.FpToggleEngine


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
                labels, c = draw_labels(rng, poset.n, d, FUZZ_PRIME)
                realm = FpMatrixRealm(FUZZ_PRIME, d, c=c)
                g = Labeling(realm, labels)
                expected = antichain_rowmotion(poset, g, mode="toggles")
                got = Labeling(realm, eng.step(labels, c))
                assert got.eq(expected)


def _refusal(f):
    """``f()``, or the message of the ``SingularValue`` it raises."""
    try:
        return f()
    except SingularValue as exc:
        return str(exc)


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
                labels, c = draw_labels(rng, poset.n, d, p)
                g = Labeling(FpMatrixRealm(p, d, c=c), labels)
                expected = _outcome(lambda: antichain_rowmotion(poset, g, mode="toggles"))
                got = _outcome(lambda: eng.step(labels, c))
                if expected is SingularValue:
                    assert got is SingularValue
                    refused += 1
                    continue
                assert got is not SingularValue
                got = Labeling(g.realm, got)
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
                labels, c = draw_labels(rng, poset.n, d, FUZZ_PRIME)
                g = Labeling(FpMatrixRealm(FUZZ_PRIME, d, c=c), labels)
                period = iterate(poset, g, steps=k, mode="toggles").period
                assert (engine_return(eng, labels, c, k) or None) == period
                periods.add(period)
    assert {None, 5, 6} <= periods


@pytest.mark.parametrize("p", [5, 101])
def test_first_return_refuses_exactly_where_transfer_mode_does(p):
    """At small primes, where sums of residues pass p and singular values
    are common, ``first_return`` finds the period transfer-mode ``iterate``
    finds, 0 where it finds none, and refuses exactly where it refuses."""
    rng = random.Random(p)
    posets = [product_of_chains(a, b) for a in (1, 2, 3) for b in (2, 3)]
    posets.append(NON_RECTANGLE)
    outcomes = set()
    for poset in posets:
        for d in (1, 2, 3, 4):
            eng = kernel.make_engine(poset, d, p)
            for _ in range(8 if d < 4 else 4):
                labels, c = draw_labels(rng, poset.n, d, p)
                g = Labeling(FpMatrixRealm(p, d, c=c), labels)
                steps = poset.n + 1
                expected = _outcome(lambda: iterate(poset, g, steps=steps).period or 0)
                assert _outcome(lambda: engine_return(eng, labels, c, steps)) == expected
                outcomes.add(expected if expected in (0, SingularValue) else "period")
    assert {SingularValue, "period"} <= outcomes


def test_first_return_period_2x2():
    rng = random.Random(4)
    poset = product_of_chains(2, 2)
    for d in (1, 2, 3):
        eng = kernel.make_engine(poset, d, FUZZ_PRIME)
        for _ in range(20):
            labels, c = draw_labels(rng, poset.n, d, FUZZ_PRIME)
            m = engine_return(eng, labels, c, 4)
            assert m in (1, 2, 4)  # a divisor of 4 (1 only for fixed points)


@pytest.mark.parametrize("p", [5, FUZZ_PRIME])
def test_product_pass_steps_each_trial_with_its_own_constant(p):
    """One pass over the product ring of six trials, each with its own c,
    gives in component t the step of trial t alone; a pass that refuses
    names a trial whose own step refuses, with its message, and the pass
    over the others gives their steps."""
    rng = random.Random(p)
    refused = 0
    for poset in (product_of_chains(2, 3), NON_RECTANGLE):
        for d in (1, 2, 3, 4):
            eng = kernel.make_engine(poset, d, p)
            batch = [draw_labels(rng, poset.n, d, p) for _ in range(6)]
            alone = [_refusal(lambda: eng.step(labels, c)) for labels, c in batch]
            got = {}
            live = list(range(len(batch)))
            while live:
                ring = FpProductRealm(d, p, [batch[t][1] for t in live])
                values = list(zip(*[batch[t][0] for t in live]))
                try:
                    cols = zip(*ring.rowmotion_pass(poset, ring.up_transfer(poset, values)))
                except SingularValue as exc:
                    out = {live[exc.trial]: str(exc)}
                    refused += 1
                else:
                    out = {t: list(col) for t, col in zip(live, cols)}
                got.update(out)
                live = [t for t in live if t not in out]
            assert [got[t] for t in range(len(batch))] == alone
    assert refused or p == FUZZ_PRIME


def test_singular_raises():
    poset = product_of_chains(2, 2)
    eng = kernel.make_engine(poset, 1, 101)
    with pytest.raises(SingularValue):
        eng.step([(0,), (1,), (1,), (1,)], 1)


def test_step_leaves_input_alone():
    poset = product_of_chains(2, 2)
    eng = kernel.make_engine(poset, 2, FUZZ_PRIME)
    rng = random.Random(2)
    labels, c = draw_labels(rng, poset.n, 2, FUZZ_PRIME)
    snapshot = list(labels)
    eng.step(labels, c)
    assert labels == snapshot


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
    labels, c = draw_labels(rng, poset.n, 2, LARGE_PRIME)
    g = Labeling(FpMatrixRealm(LARGE_PRIME, 2, c=c), labels)
    for _ in range(3):
        labels = eng.step(labels, c)
        g = antichain_rowmotion(poset, g)
        assert Labeling(g.realm, labels).eq(g)
