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
from .realms import FUZZ_PRIME, FloatLiteral, refuse_huge_number
from .sampling import derive_seed, sample_generic_labeling, sample_matrix
from .stword import fiber_product_checks, orbit_window, pl_homomesy_report, st_word


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _refuse_empty_counts(args)
        report, ok = args.handler(args)
        if report is not None:
            _emit(report, args)
    except (OSError, OverflowError, PosetError, SingularValue, SamplingExhausted,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


def _refuse_empty_counts(args):
    """Refuse a count below 1, which would report a vacuous pass."""
    for name in ("samples", "trials", "amax", "bmax", "dmax", "steps"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"--{name} must be at least 1, got {value}")


def _int_option(p, flag, **kwargs):
    """Add the integer option ``flag`` to the parser ``p``.  A value with
    more digits than Python reads into an int is refused naming the flag
    and the limit (``realms.refuse_huge_number``), echoing no digit, as an
    OverflowError: argparse passes that on, so ``main`` prints one
    ``error:`` line, where argparse would print its usage and every digit."""
    def read(text):
        try:
            refuse_huge_number(text, flag)
        except ValueError as exc:
            raise OverflowError(str(exc)) from None
        return int(text)

    read.__name__ = "int"  # argparse's own refusal: "invalid int value: 'x'"
    p.add_argument(flag, type=read, **kwargs)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rowmotion",
        description="Exact antichain rowmotion: orbits, words, homomesy, fuzzing.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    _int_option(common, "--seed", default=0, help="master seed (default 0)")
    common.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("poset", parents=[common],
                       help="validate a poset file and echo its canonical form")
    _poset_source(p)
    p.set_defaults(handler=_cmd_poset)

    p = sub.add_parser("orbits", parents=[common],
                       help="all rowmotion orbits of [a]x[b] with exact statistics")
    _int_option(p, "--chains", nargs=2, required=True, metavar=("A", "B"))
    p.add_argument("--realm", default="comb", choices=["comb"],
                   help="orbit census realm (combinatorial only)")
    p.set_defaults(handler=_cmd_orbits)

    p = sub.add_parser("rowmotion", parents=[common],
                       help="iterate antichain rowmotion on a labeling")
    _poset_source(p)
    _realm_flags(p)
    p.add_argument("--mode", choices=["transfer", "toggles"], default="transfer")
    _int_option(p, "--steps", help="iteration bound (default 4(a+b))")
    p.add_argument("--in", dest="labels_in", help="labeling JSON file, whose realm block "
                   "gives --realm, --p, --d and --c")
    p.set_defaults(handler=_cmd_rowmotion)

    p = sub.add_parser("stword", parents=[common],
                       help="fiber word of a labeling on [a]x[b]")
    _int_option(p, "--chains", nargs=2, required=True, metavar=("A", "B"))
    _realm_flags(p)
    p.add_argument("--in", dest="labels_in", help="labeling JSON file, whose realm block "
                   "gives --realm, --p, --d and --c")
    p.set_defaults(handler=_cmd_stword)

    p = sub.add_parser("homomesy", parents=[common],
                       help="orbit fiber products / means against their contracts")
    p.add_argument("--realm", choices=["ratfun", "matp", "tropical"], required=True)
    _int_option(p, "--a", required=True)
    _int_option(p, "--b", required=True)
    _int_option(p, "--samples", default=100)
    _int_option(p, "--p", help=f"matp prime (default {FUZZ_PRIME}; refused for the "
                "other realms)")
    p.set_defaults(handler=_cmd_homomesy)

    p = sub.add_parser("fuzz-nar", parents=[common],
                       help="fuzz the noncommutative periodicity conjecture")
    _int_option(p, "--amax", default=3)
    _int_option(p, "--bmax", default=3)
    _int_option(p, "--dmax", default=3)
    _int_option(p, "--trials", default=100)
    _int_option(p, "--p", default=FUZZ_PRIME)
    p.set_defaults(handler=_cmd_fuzz)

    p = sub.add_parser("fixtures", parents=[common],
                       help="run the worked-example regression table")
    _int_option(p, "--samples", default=100)
    p.set_defaults(handler=_cmd_fixtures)
    return parser


def _poset_source(p):
    p.add_argument("--poset", help="poset JSON file")
    _int_option(p, "--chains", nargs=2, metavar=("A", "B"), help="rectangle poset [A]x[B]")


def _realm_flags(p):
    """The flags of a sampled labeling's realm.  Each defaults to None, so
    ``_load_labeling`` can refuse one given with ``--in``; ``_realm_config``
    fills in the defaults."""
    p.add_argument("--realm", choices=["tropical", "ratfun", "matp", "matq"],
                   help="realm of a sampled labeling (default ratfun)")
    _int_option(p, "--p", help=f"matp prime (default {FUZZ_PRIME})")
    _int_option(p, "--d", help="matrix dimension (default 2)")
    p.add_argument("--c", help="central constant of a sampled labeling (tropical: default "
                   "1; matp, matq: drawn at random when not given; refused for ratfun, "
                   "whose constant is the variable C)")


def _load_poset(args):
    if args.poset:
        return poset_from_json(_read_json(args.poset))
    if args.chains:
        return product_of_chains(*args.chains)
    raise ValueError("give --poset FILE or --chains A B")


def _read_json(path):
    """The JSON document in ``path``.  A repeated key is refused, not read
    with its last value, and so is nesting deeper than the parser allows.
    A number literal with a fraction or an exponent keeps its text
    (``realms.FloatLiteral``), so a field that holds a number reads it
    exactly (``realms.json_number``): 0.1 is 1/10, not the nearest float."""
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys, parse_int=_json_int,
                             parse_float=FloatLiteral)
        except RecursionError:
            raise ValueError("JSON input is nested too deeply") from None


def _json_int(text):
    """An integer literal as an int, or as its text past the digits Python
    reads into an int: the field that holds it then refuses it by name
    (``realms.refuse_huge_number``), not ``json.load`` with Python's own
    message.  A poset element id may be a string, so there it reads as one."""
    try:
        return int(text)
    except ValueError:
        return text


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def _realm_config(args):
    """The realm block of a sampled labeling, from the realm flags and their
    defaults: realm ratfun, p ``FUZZ_PRIME``, d 2."""
    kind = args.realm or "ratfun"
    cfg = {"realm": kind}
    if kind == "matp":
        cfg["p"] = FUZZ_PRIME if args.p is None else args.p
    if kind in ("matp", "matq"):
        cfg["d"] = 2 if args.d is None else args.d
    if args.c is not None:
        if kind == "ratfun":
            raise ValueError("--c does not apply to --realm ratfun, whose constant is "
                             "the variable C")
        cfg["c"] = args.c
    return cfg


def _load_labeling(args, poset, walk):
    """``walk(g)`` for the command's labeling g of ``poset``: read from
    ``--in``, or sampled from the realm flags and ``--seed``.

    A sampled matrix labeling (matp, matq) is redrawn while ``walk``, the
    command's own work on it, meets a singular value
    (``sampling.sample_matrix``).  A labeling read with ``--in`` is walked
    as given, and the realm flags are refused with it: its realm block
    gives the realm, c, p and d.
    """
    if args.labels_in:
        for flag, what in (("c", "constant"), ("realm", "realm"), ("p", "prime"),
                           ("d", "dimension")):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} applies to a sampled labeling; with --in the "
                                 f"realm block gives the {what}")
        return walk(labeling_from_json(_read_json(args.labels_in), poset))
    cfg = _realm_config(args)
    if cfg["realm"] in ("matp", "matq"):
        return sample_matrix(poset, cfg, args.seed, walk)
    return walk(sample_generic_labeling(poset, cfg, args.seed))


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
    orbit = _load_labeling(args, poset,
                           lambda g: iterate(poset, g, steps=args.steps, mode=args.mode))
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
    g, word = _load_labeling(args, poset, lambda g: (g, st_word(poset, g)))
    report = {"command": "stword", "seed": args.seed, "chains": list(args.chains),
              "st_word": word.to_json(), **g.to_json()}
    return report, True


def _cmd_homomesy(args):
    a, b = args.a, args.b
    if args.p is not None and args.realm != "matp":
        raise ValueError(f"--p does not apply to --realm {args.realm}; it is the matp prime")
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
    # commutative-realm only), each redrawn while its window meets a
    # singular value.
    cfg = {"realm": "matp", "p": FUZZ_PRIME if args.p is None else args.p, "d": 1}
    fibers = []
    ok = True
    for idx in range(args.samples):
        sub = derive_seed(args.seed, "homomesy", idx)
        window = sample_matrix(poset, cfg, sub, lambda g: orbit_window(poset, g))
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
