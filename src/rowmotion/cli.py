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
import functools
import json
import sys
from itertools import chain

from . import __version__
from .combinatorial import orbit_report
from .dynamics import iterate
from .errors import SamplingExhausted, SingularValue
from .fixtures import fixture_table, run_figure_fixtures
from .fuzz import fuzz_grid
from .labeling import labeling_from_json
from .poset import poset_from_json, poset_to_json, product_of_chains
from .realms import CONFIG_KEYS, FUZZ_PRIME, FloatLiteral, refuse_huge_number
from .sampling import derive_seed, sample_generic_labeling
from .stword import fiber_product_checks, orbit_window, pl_homomesy_report, st_word


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        report, ok = args.handler(args)
        if report is not None:
            _emit(report, args)
    except (OSError, OverflowError, SingularValue, SamplingExhausted, ValueError, _Refused) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


# The flags each source reads: a labeling source of ``rowmotion`` and ``stword``
# (a sampled realm, or ``--in``), or a ``homomesy`` realm.  A sampled realm
# reads the keys of its config block (``realms.CONFIG_KEYS``) that are flags.
# A refusal names the first flag in ``_FLAGS`` order that is given and not read.
_FLAGS = {"labeling": ("c", "realm", "p", "d"), "homomesy": ("p", "samples")}
_READS = {
    "labeling": {**{realm: tuple(key for key in keys if key in _FLAGS["labeling"])
                    for realm, keys in CONFIG_KEYS.items()}, "--in": ()},
    "homomesy": {"ratfun": (), "matp": ("samples", "p"), "tropical": ("samples",)},
}
_DEFAULTS = {"realm": "ratfun", "p": FUZZ_PRIME, "d": 2, "samples": 100}
_WHY_UNREAD = {"c": ", whose constant is the variable C", "p": "; it is the matp prime",
               "d": "; it is the matrix dimension", "samples": "; its one labeling is symbolic"}
_IN_GIVES = {"c": "constant", "realm": "realm", "p": "prime", "d": "dimension"}


def _read_flags(args, kind, source):
    """The flags of ``kind`` that ``source`` reads, as {flag: value}, with
    the default for one not given (--c has none).  A flag given that
    ``source`` does not read is refused, not ignored."""
    values = {}
    for flag in _FLAGS[kind]:
        value = getattr(args, flag)
        if flag in _READS[kind][source]:
            values[flag] = _DEFAULTS.get(flag) if value is None else value
        elif value is not None and source == "--in":
            raise ValueError(f"--{flag} applies to a sampled labeling; with --in the realm "
                             f"block gives the {_IN_GIVES[flag]}")
        elif value is not None:
            raise ValueError(f"--{flag} does not apply to --realm {source}"
                             f"{_WHY_UNREAD[flag]}")
    return {flag: value for flag, value in values.items() if value is not None}


def _help(kind, flag, text):
    """``text`` and the sources of ``kind`` that read ``flag``, for --help."""
    return f"{text}; read by --realm " + ", ".join(
        s for s, flags in _READS[kind].items() if flag in flags)


class _Refused(Exception):
    """An option value refused by its ``type``, which argparse passes on."""


def _int_option(p, flag, least=None, **kwargs):
    """Add the integer option ``flag`` to the parser ``p``, refusing a value
    below ``least`` (a count of 0 would report a vacuous pass), and one with
    more digits than Python reads into an int naming the flag and the limit
    (``realms.refuse_huge_number``), where argparse would print every digit."""
    def read(text):
        try:
            refuse_huge_number(text, flag)
        except ValueError as exc:
            raise _Refused(str(exc)) from None
        if least is not None and int(text) < least:
            raise _Refused(f"{flag} must be at least {least}, got {int(text)}")
        return int(text)

    read.__name__ = "int"  # argparse's own refusal: "invalid int value: 'x'"
    p.add_argument(flag, type=read, **kwargs)


@functools.cache
def _build_parser():
    """The one parser of this process, built at the first ``main`` call.
    Parsing leaves it as it was: each call gets a fresh namespace."""
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
    _int_option(p, "--steps", least=1,
                help="iteration bound (default 4(a+b) on [a]x[b], else 4n on n "
                     "elements, and at least 1)")
    p.set_defaults(handler=_cmd_rowmotion)

    p = sub.add_parser("stword", parents=[common],
                       help="fiber word of a labeling on [a]x[b]")
    _int_option(p, "--chains", nargs=2, required=True, metavar=("A", "B"))
    _realm_flags(p)
    p.set_defaults(handler=_cmd_stword)

    p = sub.add_parser("homomesy", parents=[common],
                       help="orbit fiber products / means against their contracts")
    p.add_argument("--realm", choices=list(_READS["homomesy"]), required=True)
    _int_option(p, "--a", required=True)
    _int_option(p, "--b", required=True)
    _int_option(p, "--samples", least=1,
                help=_help("homomesy", "samples", "labelings sampled (default 100)"))
    _int_option(p, "--p", help=_help("homomesy", "p", f"prime (default {FUZZ_PRIME})"))
    p.set_defaults(handler=_cmd_homomesy)

    p = sub.add_parser("fuzz-nar", parents=[common],
                       help="fuzz the noncommutative periodicity conjecture")
    _int_option(p, "--amax", least=1, default=3)
    _int_option(p, "--bmax", least=1, default=3)
    _int_option(p, "--dmax", least=1, default=3)
    _int_option(p, "--trials", least=1, default=100)
    _int_option(p, "--p", default=FUZZ_PRIME)
    p.set_defaults(handler=_cmd_fuzz)

    p = sub.add_parser("fixtures", parents=[common],
                       help="run the worked-example regression table")
    _int_option(p, "--samples", least=1, default=_DEFAULTS["samples"])
    p.set_defaults(handler=_cmd_fixtures)
    return parser


def _poset_source(p):
    p.add_argument("--poset", help="poset JSON file")
    _int_option(p, "--chains", nargs=2, metavar=("A", "B"), help="rectangle poset [A]x[B]")


def _realm_flags(p):
    """The labeling sources: ``--in``, or a sampled realm and its flags.
    Each defaults to None, so ``_read_flags`` can tell a flag given."""
    p.add_argument("--realm", choices=[s for s in _READS["labeling"] if s != "--in"],
                   help="realm of a sampled labeling (default ratfun)")
    _int_option(p, "--p", help=_help("labeling", "p", f"prime (default {FUZZ_PRIME})"))
    _int_option(p, "--d", help=_help("labeling", "d", "matrix dimension (default 2)"))
    p.add_argument("--c", help=_help("labeling", "c", "central constant (tropical: default "
                                     "1; matp, matq: drawn at random when not given)"))
    p.add_argument("--in", dest="labels_in", help="labeling JSON file, whose realm block "
                   "gives --realm, --p, --d and --c")


def _load_poset(args):
    if args.poset is None:
        if args.chains is None:
            raise ValueError("give --poset FILE or --chains A B")
        return product_of_chains(*args.chains)
    poset = poset_from_json(_read_json(args.poset))  # a bad file is named first
    if args.chains is not None:
        raise ValueError("give --poset FILE or --chains A B, not both")
    return poset


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


def _load_labeling(args, poset, walk):
    """``walk(g)`` for the command's labeling g of ``poset``: read from
    ``--in`` and walked as given (its realm block gives the realm, c, p and
    d), or sampled by ``sampling.sample_generic_labeling`` from the flags its
    realm reads (``_read_flags``) and ``--seed``; a sampled matrix labeling
    is redrawn while ``walk`` meets a singular value."""
    source = "--in" if args.labels_in is not None else args.realm or _DEFAULTS["realm"]
    cfg = _read_flags(args, "labeling", source)
    if source == "--in":
        return walk(labeling_from_json(_read_json(args.labels_in), poset))
    return sample_generic_labeling(poset, cfg, args.seed, walk)


def _cmd_poset(args):
    poset = _load_poset(args)
    return {"command": "poset", "seed": args.seed, "poset": poset_to_json(poset)}, True


def _cmd_orbits(args):
    report = orbit_report(*args.chains)
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
              "st_word": [g.realm.value_to_json(v) for v in word], **g.to_json()}
    return report, True


def _cmd_homomesy(args):
    a, b = args.a, args.b
    flags = _read_flags(args, "homomesy", args.realm)
    poset = product_of_chains(a, b)
    report = {"command": "homomesy", "realm": args.realm, "a": a, "b": b,
              "seed": args.seed}
    if args.realm == "tropical":
        report["report"] = pl_homomesy_report(a, b, flags["samples"], args.seed)
        return report, report["report"]["all_exact"]
    if args.realm == "ratfun":
        window = sample_generic_labeling(poset, {"realm": "ratfun"}, args.seed,
                                         lambda g: orbit_window(poset, g))
        report["fibers"] = fibers = fiber_product_checks(poset, window)
        return report, all(f["pass"] for f in fibers)
    # matp: sampled scalar labelings (d = 1; the product contract is
    # commutative-realm only), each redrawn while its window meets a
    # singular value.
    cfg = {"realm": "matp", "p": flags["p"], "d": 1}
    fibers = []
    for idx in range(flags["samples"]):
        sub = derive_seed(args.seed, "homomesy", idx)
        window = sample_generic_labeling(poset, cfg, sub, lambda g: orbit_window(poset, g))
        for f in fiber_product_checks(poset, window):
            if not f["pass"]:
                f["sample_seed"] = sub
                fibers.append(f)
    report.update(samples=flags["samples"], failures=fibers, all_pass=not fibers)
    return report, not fibers


def _cmd_fuzz(args):
    report = fuzz_grid(a_max=args.amax, b_max=args.bmax, d_max=args.dmax,
                       trials=args.trials, seed=args.seed, p=args.p)
    return report, report["all_pass"]


def _cmd_fixtures(args):
    results = run_figure_fixtures(samples=args.samples, seed=args.seed)
    report = {"command": "fixtures", "seed": args.seed,
              "fixtures": [r.to_json() for r in results],
              "all_pass": all(r.passed for r in results)}
    print(fixture_table(results), file=sys.stderr)
    return report, report["all_pass"]


def _emit(report, args):
    text = _dump(report)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


_encode_str = json.encoder.encode_basestring_ascii  # json.dumps's own, in C


def _dump(obj, prefix="\n"):
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, at a
    nesting whose newline and indent are ``prefix``.  With ``indent`` set,
    CPython encodes in pure Python; here the lists of ints and of strs
    (labels, words) and the matrix labels (non-empty lists of non-empty
    lists of ints, each written in one piece) that make up most of a report
    are joined at C speed.  Anything else (bool, None, float, a subclass of
    int, str, list or dict, a dict with a key that is not a str, an empty
    list or dict) is left to ``json.dumps``, re-indented: JSON text never
    holds a raw newline."""
    inner = prefix + "  "
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        brackets = "{}"
        items = (f"{_encode_str(key)}: {_dump(obj[key], inner)}" for key in sorted(obj))
    elif (type(obj) is list or type(obj) is tuple) and obj:
        brackets = "[]"
        kinds = set(map(type, obj))
        if kinds == {int}:
            items = map(int.__repr__, obj)
        elif kinds == {str}:
            items = map(_encode_str, obj)
        elif kinds == {list} and all(obj) and set(map(type, chain.from_iterable(obj))) == {int}:
            deeper = inner + "  "
            sep = "," + deeper
            rows = f"{inner}],{inner}[{deeper}".join([sep.join(map(int.__repr__, row))
                                                      for row in obj])
            return f"[{inner}[{deeper}{rows}{inner}]{prefix}]"
        else:
            items = (_dump(item, inner) for item in obj)
    else:
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", prefix)
    return brackets[0] + inner + ("," + inner).join(items) + prefix + brackets[1]


if __name__ == "__main__":
    sys.exit(main())
