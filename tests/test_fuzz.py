"""Fuzzer cells, accounting, and determinism."""

import hashlib
import json

import random

import pytest

from rowmotion import kernel
from rowmotion.dynamics import antichain_rowmotion
from rowmotion.errors import SamplingExhausted, SingularValue
from rowmotion.fuzz import CONJECTURE_NOTES, _reverify, fuzz_grid, fuzz_nar_periodicity
from rowmotion.labeling import Labeling
from rowmotion.poset import product_of_chains
from rowmotion.realms import FUZZ_PRIME, FpMatrixRealm
from rowmotion.sampling import derive_seed, draw_fp_labels, redraw


def test_cell_accounting_and_passes():
    cell = fuzz_nar_periodicity(2, 2, 2, trials=25, seed=3)
    assert cell["trials"] == 25
    assert cell["trials"] == cell["passes"] + cell["failures"] + cell["exhausted"]
    assert cell["failures"] == 0
    assert cell["counterexample_seeds"] == []
    assert cell["p"] == FUZZ_PRIME


def test_cell_1x1_always_period_two():
    cell = fuzz_nar_periodicity(1, 1, 2, trials=20, seed=1)
    assert cell["passes"] == 20
    # period divides 2; period 1 would need label == c * inv(label) twice
    assert cell["early_returns"] in range(21)


def test_cell_determinism():
    one = fuzz_nar_periodicity(2, 3, 2, trials=10, seed=99)
    two = fuzz_nar_periodicity(2, 3, 2, trials=10, seed=99)
    assert one == two
    other = fuzz_nar_periodicity(2, 3, 2, trials=10, seed=100)
    assert other["trials"] == 10


def test_grid_shape_and_notes():
    rep = fuzz_grid(a_max=2, b_max=2, d_max=2, trials=5, seed=0)
    assert len(rep["cells"]) == 8
    keys = [(c["a"], c["b"], c["d"]) for c in rep["cells"]]
    assert keys == sorted(keys)
    assert rep["all_pass"]
    assert rep["counterexample_count"] == 0
    assert rep["notes"] == CONJECTURE_NOTES
    joined = " ".join(rep["notes"]).lower()
    assert "grinberg and roby" in joined and "2208.10655" in joined
    assert "not been checked" in joined and "claim a proof" in joined
    assert "evidence" in joined and "not a proof" in joined
    assert "2x2" in joined and "bug in this code" in joined


def test_small_prime_counts_singulars():
    # With p = 5 singular intermediates are common; the cell must absorb
    # them as resamples or exhausted trials, never abort.
    cell = fuzz_nar_periodicity(2, 2, 1, trials=10, seed=7, p=5)
    assert cell["trials"] == 10
    assert cell["passes"] + cell["failures"] + cell["exhausted"] == 10


@pytest.mark.parametrize("p,digest", [
    # p = 2 exhausts trials; p = 5 resamples singular draws.
    (2, "a197ade2590d8aa217b0ed60f76e7bb43d35f7a27db5553cb2f2184acff2d520"),
    (5, "51612d5a1e7a0196468f10b1dfef4426b2be3c21bfb24ffe202dbf98e45964a2"),
    (FUZZ_PRIME, "8aabcee0b8a642258e01b58099ebb42d2e15a0da903aaa354bb3493434f5031f"),
])
def test_cell_reports_pinned(p, digest):
    """Seeds, resample counts and outcomes of every cell up to (2, 2, 2) are
    pinned byte for byte, whichever kernel runs them."""
    cells = [fuzz_nar_periodicity(a, b, d, trials=5, seed=0, p=p)
             for a in (1, 2) for b in (1, 2) for d in (1, 2)]
    text = json.dumps(cells, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_counterexample_records_its_accepted_attempt(monkeypatch):
    """A trial whose first return is wrong is a counterexample: the cell
    records its trial, the seed of the attempt the redraw accepted (not
    attempt 0), the first return, and whether the toggle replay confirms
    it.  Here the engine is made to report 0 for one resampled trial whose
    draw does return, so the replay refutes it."""
    a, b, d, p, seed, trials = 2, 2, 1, 5, 7, 10
    poset = product_of_chains(a, b)
    engine = kernel.make_engine(poset, d, p)
    trial_seeds = [derive_seed(seed, "nar-trial", a, b, d, t) for t in range(trials)]
    accepted = []
    for ts in trial_seeds:
        try:
            accepted.append(redraw(lambda rng: draw_fp_labels(rng, poset.n, d, p),
                                   lambda drawn: engine.first_return(*drawn, a + b), ts)[1])
        except SamplingExhausted:
            accepted.append(None)
    t, k = next((t, k) for t, k in enumerate(accepted) if k)
    target = draw_fp_labels(random.Random(derive_seed(trial_seeds[t], k)), poset.n, d, p)
    original = kernel.FpToggleEngine.first_return

    def first_return(self, labels, c, max_steps):
        m = original(self, labels, c, max_steps)
        return 0 if (list(labels), c) == target else m

    monkeypatch.setattr(kernel.FpToggleEngine, "first_return", first_return)
    cell = fuzz_nar_periodicity(a, b, d, trials=trials, seed=seed, p=p)
    assert cell["failures"] == 1
    assert cell["counterexample_seeds"] == [{
        "trial": t, "seed": derive_seed(trial_seeds[t], k), "first_return": 0,
        "confirmed": False}]
    assert derive_seed(trial_seeds[t], k) != derive_seed(trial_seeds[t], 0)


def test_replay_that_meets_a_singular_value_does_not_confirm():
    """A toggle replay that meets a singular value cannot confirm a
    counterexample: ``_reverify`` returns False.  At p = 2 most draws have a
    zero label, so the first attempt seed whose draw is singular at the
    first toggles step is taken."""
    poset, d, p = product_of_chains(2, 2), 1, 2

    def singular(seed):
        labels, c = draw_fp_labels(random.Random(seed), poset.n, d, p)
        try:
            antichain_rowmotion(poset, Labeling(FpMatrixRealm(p, d, c=c), labels), "toggles")
        except SingularValue:
            return True
        return False

    seed = next(s for s in range(100) if singular(s))
    assert _reverify(poset, d, p, seed, poset.a + poset.b) is False
