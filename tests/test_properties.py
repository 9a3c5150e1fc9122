"""Property tests on random small posets over prime fields.

Posets are random DAGs of at most six elements, built through
``build_poset`` with element ids shuffled so the ids are not a linear
extension.  Primes run from 2 (singular draws are common) to 2^64 - 59
(beyond fixed-width 128-bit sums of products).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rowmotion import (
    SingularValue,
    TransferKind,
    antichain_rowmotion,
    build_poset,
    kernel,
    transfer,
)
from rowmotion.realms import FpMatrixRealm

PRIMES = (2, 3, 5, 101, 2**61 - 1, 2**64 - 59)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def posets(draw):
    n = draw(st.integers(1, 6))
    ids = draw(st.permutations(range(n)))
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_poset(covers, elements=range(n))


@st.composite
def matrix_labelings(draw):
    """(poset, d, p, flat labels, central constant c, labeling)."""
    poset = draw(posets())
    d = draw(st.integers(1, 3))
    p = draw(st.sampled_from(PRIMES))
    size = poset.n * d * d
    # half the entries near p: large residues are where products overflow
    entries = st.integers(0, p - 1) | st.integers(max(0, p - 256), p - 1)
    flat = draw(st.lists(entries, min_size=size, max_size=size))
    c = draw(st.integers(1, p - 1))
    g = kernel.flat_to_labeling(FpMatrixRealm(p, d, c=c), flat)
    return poset, d, p, flat, c, g


def _outcome(f):
    try:
        return f()
    except SingularValue:
        return SingularValue


@PROPERTY
@given(matrix_labelings())
def test_kernel_step_equals_both_generic_modes(case):
    poset, d, p, flat, c, g = case
    eng = kernel.make_engine(poset, d, p)
    got = _outcome(lambda: eng.step(flat, c))
    toggles = _outcome(lambda: antichain_rowmotion(poset, g, mode="toggles"))
    via_transfer = _outcome(lambda: antichain_rowmotion(poset, g, mode="transfer"))
    if got is SingularValue:
        assert toggles is SingularValue and via_transfer is SingularValue
        return
    assert toggles is not SingularValue and via_transfer is not SingularValue
    got = kernel.flat_to_labeling(g.realm, got)
    assert got.eq(toggles) and got.eq(via_transfer)


@PROPERTY
@given(matrix_labelings())
def test_transfers_undo_their_inverses(case):
    poset, _, _, _, _, g = case
    for inverse, forward in ((TransferKind.DOWN_INV, TransferKind.DOWN),
                             (TransferKind.UP_INV, TransferKind.UP)):
        try:
            back = transfer(forward, poset, transfer(inverse, poset, g))
        except SingularValue:
            continue
        assert back.eq(g)
