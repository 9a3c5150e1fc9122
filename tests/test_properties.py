"""Property tests on random small posets over prime fields.

Posets are random DAGs of at most six elements, built through
``build_poset`` with element ids shuffled so the ids are not a linear
extension, or rectangles [a]x[b] with a, b <= 3 for the fiber word.  Primes
run from 2 (singular draws are common) to 2^64 - 59 (beyond fixed-width
128-bit sums of products).
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from rowmotion import (
    SingularValue,
    TransferKind,
    antichain_rowmotion,
    build_poset,
    check_rotation,
    kernel,
    labeling_from_json,
    product_of_chains,
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


RECTANGLES = st.builds(product_of_chains, st.integers(1, 3), st.integers(1, 3))


@st.composite
def matrix_labelings(draw, shapes=posets()):
    """(poset, d, p, flat labels, central constant c, labeling)."""
    poset = draw(shapes)
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


@PROPERTY
@given(matrix_labelings(RECTANGLES))
def test_fiber_word_rotates(case):
    """The noncommutative fiber word of rho(g) is the word of g shifted one
    place right, over matrices of every size d <= 3."""
    poset, _, _, _, _, g = case
    image = _outcome(lambda: antichain_rowmotion(poset, g))
    if image is SingularValue:
        return
    assert check_rotation(poset, g, image=image).ok


@PROPERTY
@given(matrix_labelings(RECTANGLES), st.booleans())
def test_labeling_json_round_trips(case, coordinate_keys):
    """``labeling_from_json`` reads back the ``labels`` and ``realm`` blocks
    that reports write, with id or "i,j" keys."""
    poset, _, _, _, _, g = case
    obj = json.loads(json.dumps(g.to_json()))
    if coordinate_keys:
        obj["labels"] = {"{},{}".format(*poset.coord(int(x))): v
                         for x, v in obj["labels"].items()}
    back = labeling_from_json(obj, poset=poset)
    assert back.realm.config() == g.realm.config()
    assert back.values == g.values
