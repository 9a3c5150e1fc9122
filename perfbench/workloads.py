"""The four benchmark workloads.

A unit is one call into a public entry point of the package (two for
``nar_generic``); ``run`` returns the reports it produced and ``check``
decides whether they are right.  Each workload derives its unit inputs from
the benchmark seed and the unit index alone, so the same seed gives the same
units; the package sees only the generated CLI arguments and seeds.  Units
run in whole rounds (one pass over the cells or shapes a workload cycles
through), so every run holds the same mix.

``reference`` names the kinds of stdlib arithmetic (``worker.REFERENCE_WORK``)
whose speed is read beside each unit to scale its latency to the nominal
machine speed: the kinds the workload's hot path does.  Modular powers of
61-bit integers tracked the host's speed swings best on every workload;
``pl_homomesy`` adds ``Fraction`` sums to them, and ``nar_generic`` products
of 3x3 tuple matrices mod p, the arithmetic of their hot paths.

Why each workload, and what it predicts, is in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

FUZZ_TRIALS = 12
PL_SAMPLES = 20


def unit_seed(seed, index):
    """Stable 64-bit seed for unit ``index`` of a run with master ``seed``."""
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_cli(argv):
    """Run ``rowmotion <argv>`` in process; returns the emitted report text."""
    from rowmotion import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"rowmotion {' '.join(argv)} exited {code}")
    return buf.getvalue()


class NarFuzz:
    """One ``fuzz_nar_periodicity`` cell per unit, cycling the default grid."""

    name = "nar_fuzz"
    cells = [(a, b, d) for a in (1, 2, 3) for b in (1, 2, 3) for d in (1, 2, 3)]
    round_size = len(cells)
    reference = ("modpow",)

    def __init__(self, seed):
        self.seed = seed

    def run(self, index):
        from rowmotion import fuzz

        a, b, d = self.cells[index % self.round_size]
        report = fuzz.fuzz_nar_periodicity(a, b, d, FUZZ_TRIALS, unit_seed(self.seed, index))
        return [json.dumps(report, sort_keys=True)]

    def check(self, index, reports):
        r = json.loads(reports[0])
        a, b, d = self.cells[index % self.round_size]
        return ((r["a"], r["b"], r["d"]) == (a, b, d)
                and r["trials"] == r["passes"] == FUZZ_TRIALS
                and r["failures"] == 0 and r["exhausted"] == 0)


class SymbolicHomomesy:
    """One symbolic ``homomesy --realm ratfun`` job per unit."""

    name = "symbolic_homomesy"
    shapes = [(2, 4), (4, 2)]
    round_size = len(shapes)
    reference = ("modpow",)

    def __init__(self, seed):
        self.seed = seed

    def argv(self, index):
        a, b = self.shapes[index % self.round_size]
        return ["homomesy", "--realm", "ratfun", "--a", str(a), "--b", str(b),
                "--seed", str(unit_seed(self.seed, index))]

    def run(self, index):
        return [run_cli(self.argv(index))]

    def check(self, index, reports):
        fibers = json.loads(reports[0])["fibers"]
        a, b = self.shapes[index % self.round_size]
        expected = [f"C^{b}"] * a + [f"C^{a}"] * b
        return ([f["expected"] for f in fibers] == expected
                and all(f["pass"] is True for f in fibers))


class PlHomomesy:
    """One tropical ``homomesy`` job on [4]x[5] per unit."""

    name = "pl_homomesy"
    round_size = 1
    reference = ("modpow", "fraction")

    def __init__(self, seed):
        self.seed = seed

    def argv(self, index):
        return ["homomesy", "--realm", "tropical", "--a", "4", "--b", "5",
                "--samples", str(PL_SAMPLES), "--seed", str(unit_seed(self.seed, index))]

    def run(self, index):
        return [run_cli(self.argv(index))]

    def check(self, index, reports):
        r = json.loads(reports[0])["report"]
        return r["chains"] == [4, 5] and r["samples"] == PL_SAMPLES and r["all_exact"] is True


class NarGeneric:
    """Two ``rowmotion --realm matp`` orbit jobs on [4]x[5], d = 3, per unit:
    toggles mode, then transfer mode, on the same seed.

    The pair is one unit because the toggles job costs about twice the
    transfer job; with one job per unit the median would sit in the gap
    between the two costs and jump between them from run to run.
    """

    name = "nar_generic"
    modes = ["toggles", "transfer"]
    round_size = 1
    reference = ("modpow", "matrix")
    a, b = 4, 5

    def __init__(self, seed):
        self.seed = seed

    def argv(self, index, mode):
        return ["rowmotion", "--chains", str(self.a), str(self.b), "--realm", "matp",
                "--d", "3", "--mode", mode, "--seed", str(unit_seed(self.seed, index))]

    def run(self, index):
        return [run_cli(self.argv(index, mode)) for mode in self.modes]

    def check(self, index, reports):
        toggles, transfer = (json.loads(text) for text in reports)
        return (toggles["mode"], transfer["mode"]) == tuple(self.modes) \
            and toggles["period"] == transfer["period"] == self.a + self.b \
            and len(toggles["steps"]) == self.a + self.b + 1 \
            and toggles["steps"] == transfer["steps"]


WORKLOADS = {w.name: w for w in (NarFuzz, SymbolicHomomesy, PlHomomesy, NarGeneric)}
