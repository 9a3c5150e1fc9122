"""Command-line front end.

Subcommands: poset, orbits, rowmotion, stword, homomesy, fuzz-nar, fixtures.
All reports are JSON, deterministic given the seed, and always record the
seed they were produced with.  The exit code is 0 exactly when every check
the invocation requested passed, 1 when one failed, and 2 with a one-line
``error:`` on stderr when the input is refused or a file cannot be read or
written.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .combinatorial import orbit_report
from .dynamics import iterate
from .errors import PosetError, SamplingExhausted, SingularValue
from .fixtures import fixture_table, run_figure_fixtures
from .fuzz import fuzz_grid
from .labeling import labeling_from_json
from .poset import poset_from_json, poset_to_json, product_of_chains
from .realms import FUZZ_PRIME
from .sampling import derive_seed, sample_generic_labeling, sample_matrix
from .stword import (fiber_product_checks, orbit_window, pl_homomesy_report,
                     sample_orbit_window, st_word)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _refuse_empty_counts(args)
        report, ok = args.handler(args)
        if report is not None:
            _emit(report, args)
    except (OSError, PosetError, SingularValue, SamplingExhausted, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


def _refuse_empty_counts(args):
    """Refuse a count below 1, which would report a vacuous pass."""
    for name in ("samples", "trials", "amax", "bmax", "dmax", "steps"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"--{name} must be at least 1, got {value}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rowmotion",
        description="Exact antichain rowmotion: orbits, words, homomesy, fuzzing.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("poset", parents=[common],
                       help="validate a poset file and echo its canonical form")
    _poset_source(p)
    p.set_defaults(handler=_cmd_poset)

    p = sub.add_parser("orbits", parents=[common],
                       help="all rowmotion orbits of [a]x[b] with exact statistics")
    p.add_argument("--chains", nargs=2, type=int, required=True, metavar=("A", "B"))
    p.add_argument("--realm", default="comb", choices=["comb"],
                   help="orbit census realm (combinatorial only)")
    p.set_defaults(handler=_cmd_orbits)

    p = sub.add_parser("rowmotion", parents=[common],
                       help="iterate antichain rowmotion on a labeling")
    _poset_source(p)
    _realm_flags(p)
    p.add_argument("--mode", choices=["transfer", "toggles"], default="transfer")
    p.add_argument("--steps", type=int, help="iteration bound (default 4(a+b))")
    p.add_argument("--in", dest="labels_in", help="labeling JSON file")
    p.set_defaults(handler=_cmd_rowmotion)

    p = sub.add_parser("stword", parents=[common],
                       help="fiber word of a labeling on [a]x[b]")
    p.add_argument("--chains", nargs=2, type=int, required=True, metavar=("A", "B"))
    _realm_flags(p)
    p.add_argument("--in", dest="labels_in", help="labeling JSON file")
    p.set_defaults(handler=_cmd_stword)

    p = sub.add_parser("homomesy", parents=[common],
                       help="orbit fiber products / means against their contracts")
    p.add_argument("--realm", choices=["ratfun", "matp", "tropical"], required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--p", type=int, default=FUZZ_PRIME)
    p.set_defaults(handler=_cmd_homomesy)

    p = sub.add_parser("fuzz-nar", parents=[common],
                       help="fuzz the noncommutative periodicity conjecture")
    p.add_argument("--amax", type=int, default=3)
    p.add_argument("--bmax", type=int, default=3)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--p", type=int, default=FUZZ_PRIME)
    p.set_defaults(handler=_cmd_fuzz)

    p = sub.add_parser("fixtures", parents=[common],
                       help="run the worked-example regression table")
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(handler=_cmd_fixtures)
    return parser


def _poset_source(p):
    p.add_argument("--poset", help="poset JSON file")
    p.add_argument("--chains", nargs=2, type=int, metavar=("A", "B"),
                   help="rectangle poset [A]x[B]")


def _realm_flags(p):
    p.add_argument("--realm", choices=["tropical", "ratfun", "matp", "matq"],
                   default="ratfun")
    p.add_argument("--p", type=int, default=FUZZ_PRIME, help="matp prime")
    p.add_argument("--d", type=int, default=2, help="matrix dimension")
    p.add_argument("--c", help="central constant (tropical: default 1; matq: drawn at "
                   "random when not given)")


def _load_poset(args):
    if args.poset:
        return poset_from_json(_read_json(args.poset))
    if args.chains:
        return product_of_chains(*args.chains)
    raise ValueError("give --poset FILE or --chains A B")


def _read_json(path):
    """The JSON document in ``path``.  A repeated key is refused, not read
    with its last value, and so is nesting deeper than the parser allows."""
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("JSON input is nested too deeply") from None


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def _realm_config(args, poset):
    kind = args.realm
    if kind == "ratfun":
        return {"realm": "ratfun"}
    if kind == "matp":
        return {"realm": "matp", "p": args.p, "d": args.d}
    cfg = {"realm": "tropical"} if kind == "tropical" else {"realm": "matq", "d": args.d}
    if args.c is not None:
        cfg["c"] = args.c
    return cfg


def _load_labeling(args, poset):
    if args.labels_in:
        return labeling_from_json(_read_json(args.labels_in), poset=poset)
    return sample_generic_labeling(poset, _realm_config(args, poset), args.seed)


def _cmd_poset(args):
    poset = _load_poset(args)
    report = {"command": "poset", "seed": args.seed, "poset": poset_to_json(poset)}
    return report, True


def _cmd_orbits(args):
    a, b = args.chains
    report = orbit_report(a, b)
    report.update({"command": "orbits", "realm": "comb", "seed": args.seed})
    return report, True


def _cmd_rowmotion(args):
    poset = _load_poset(args)

    def walk(g):
        return iterate(poset, g, steps=args.steps, mode=args.mode)

    if not args.labels_in and args.realm in ("matp", "matq"):
        # A sampled matrix labeling is redrawn when any step it is iterated
        # for meets a singular value.
        orbit = sample_matrix(poset, _realm_config(args, poset), args.seed, walk)
    else:
        orbit = walk(_load_labeling(args, poset))
    try:
        report = orbit.to_json()
    except ValueError as exc:
        # A value too long to print at step 0 is refused as it is; at a
        # later step, a shorter run prints.
        orbit._replace(labelings=orbit.labelings[:1], st_words=orbit.st_words[:1]).to_json()
        raise ValueError(f"{exc}; a lower --steps stops before it") from None
    report.update({"command": "rowmotion", "seed": args.seed,
                   "poset": poset_to_json(poset)})
    return report, True


def _cmd_stword(args):
    poset = product_of_chains(*args.chains)
    g = _load_labeling(args, poset)
    word = st_word(poset, g)
    report = {"command": "stword", "seed": args.seed, "chains": list(args.chains),
              "st_word": word.to_json(), **g.to_json()}
    return report, True


def _cmd_homomesy(args):
    a, b = args.a, args.b
    poset = product_of_chains(a, b)
    report = {"command": "homomesy", "realm": args.realm, "a": a, "b": b,
              "seed": args.seed}
    if args.realm == "tropical":
        report["report"] = pl_homomesy_report(a, b, args.samples, args.seed)
        return report, report["report"]["all_exact"]
    if args.realm == "ratfun":
        g = sample_generic_labeling(poset, {"realm": "ratfun"}, args.seed)
        fibers = fiber_product_checks(poset, orbit_window(poset, g))
        report["fibers"] = fibers
        ok = all(f["pass"] for f in fibers)
        return report, ok
    # matp: sampled scalar labelings (d = 1; the product contract is
    # commutative-realm only), each resampled until its whole window is
    # nonsingular.
    fibers = []
    ok = True
    for idx in range(args.samples):
        sub = derive_seed(args.seed, "homomesy", idx)
        window = sample_orbit_window(poset, {"realm": "matp", "p": args.p, "d": 1}, sub)
        for f in fiber_product_checks(poset, window):
            if not f["pass"]:
                f["sample_seed"] = sub
                fibers.append(f)
                ok = False
    report["samples"] = args.samples
    report["failures"] = fibers
    report["all_pass"] = ok
    return report, ok


def _cmd_fuzz(args):
    report = fuzz_grid(a_max=args.amax, b_max=args.bmax, d_max=args.dmax,
                       trials=args.trials, seed=args.seed, p=args.p)
    return report, report["all_pass"]


def _cmd_fixtures(args):
    results = run_figure_fixtures(samples=args.samples, seed=args.seed)
    report = {
        "command": "fixtures",
        "seed": args.seed,
        "fixtures": [r.to_json() for r in results],
        "all_pass": all(r.passed for r in results),
    }
    print(fixture_table(results), file=sys.stderr)
    return report, report["all_pass"]


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    sys.exit(main())
