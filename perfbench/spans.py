"""Span tracing for the traced benchmark run.

The package has no telemetry of its own, so the traced run wraps the public
functions and methods of each module from outside.  Module-level functions
are replaced in every ``rowmotion`` module that holds them, because callers
such as ``cli`` import names directly; methods are replaced on their class.
The compiled kernel's methods cannot be patched, so ``make_engine`` hands out
a proxy engine whose ``first_return`` is timed.

A span is (id, name, start, end, parent id, unit index).  Self time is a
span's duration minus the time its child spans cover.  Calls and self time
are aggregated for every span; the span records themselves are kept in
memory up to ``SPAN_CAP`` and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 200_000

# Every span name the traced run reports, grouped by layer (module).
SPAN_NAMES = (
    ["kernel.make_engine", "kernel.first_return", "fuzz.cell",
     "sampling.derive_seed", "sampling.sample_generic_labeling",
     "sampling.sample_chain_polytope_point",
     "poset.product_of_chains", "poset.maximal_chains"]
    + [f"realms.{realm}.{op}" for realm in ("tropical", "matp", "ratfun")
       for op in ("add", "mul", "inv")]
    + [f"dynamics.transfer.{kind}" for kind in ("complement", "down", "up", "down-inv", "up-inv")]
    + ["dynamics.toggle", "dynamics.antichain_rowmotion", "dynamics.iterate",
       "dynamics.polytope_membership",
       "labeling.replace", "labeling.eq",
       "polynomials.mul", "polynomials.exact_div"]
    + [f"ratfun.{op}" for op in ("new", "add", "mul", "inverse", "equals")]
    + ["stword.st_word", "stword.fiber_orbit_product", "stword.pl_homomesy_report",
       "cli.main"]
)

# Every per-layer metric of the traced run: (name, unit, better).
PER_LAYER = (
    [(f"{name}.{kind}", unit, "lower") for name in SPAN_NAMES
     for kind, unit in (("calls", "calls/unit"), ("self_s", "s/unit"))]
    + [("kernel.singular.count", "count/unit", "lower"),
       ("kernel.steps_per_s.pure-python", "1/s", "higher"),
       ("kernel.steps_per_s.live", "1/s", "higher"),
       ("fuzz.attempts_per_trial", "ratio", "lower"),
       ("realms.singular.count", "count/unit", "lower"),
       ("dynamics.steps_per_s.toggles", "1/s", "higher"),
       ("dynamics.steps_per_s.transfer", "1/s", "higher"),
       ("polynomials.exact_div.hit_ratio", "ratio", "higher"),
       ("polynomials.max_terms", "terms", "lower"),
       ("ratfun.max_terms", "terms", "lower"),
       ("ratfun.max_degree", "degree", "lower"),
       ("cli.report_bytes", "bytes/unit", "lower"),
       ("trace.overhead", "ratio", "lower"),
       ("trace.uncovered_frac", "fraction", "lower")]
)


class Tracer:
    """Span stack, per-name aggregates and counters for one traced run."""

    def __init__(self):
        self.unit = None
        self.stack = []            # [span id, child seconds] per open span
        self.next_id = 0
        self.spans = []
        self.dropped = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.covered = defaultdict(float)   # unit -> seconds under root spans

    def call(self, name, fn, args, kwargs, after=None, on_error=None):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [sid, 0.0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(self, exc)
            raise
        finally:
            end = perf_counter()
            self.stack.pop()
            dur = end - start
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]
            if self.stack:
                self.stack[-1][1] += dur
            else:
                self.covered[self.unit] += dur
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, name, start, end, parent, self.unit))
            else:
                self.dropped += 1
        if after is not None:
            after(self, result, args)
        return result

    def write(self, path, header):
        """Write the kept spans as JSON lines after one header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        head = dict(header, spans_kept=len(self.spans), spans_dropped=self.dropped,
                    fields=["id", "name", "start", "end", "parent", "unit"])
        with open(path, "w") as fh:
            fh.write(json.dumps(head) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(tracer, fn, name, after=None, on_error=None):
    if callable(name):
        def wrapper(*args, **kwargs):
            return tracer.call(name(*args), fn, args, kwargs, after, on_error)
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, after, on_error)
    wrapper.__wrapped__ = fn
    return wrapper


def _count_singular(counter):
    from rowmotion.errors import SingularValue

    def on_error(tracer, exc):
        if isinstance(exc, SingularValue):
            tracer.counts[counter] += 1
    return on_error


class _EngineProxy:
    """Times ``first_return`` on a kernel engine of either backend."""

    def __init__(self, tracer, engine):
        self._tracer = tracer
        self._engine = engine
        self._on_error = _count_singular("kernel.singular.count")

    def first_return(self, *args, **kwargs):
        return self._tracer.call("kernel.first_return", self._engine.first_return,
                                 args, kwargs, on_error=self._on_error)

    def __getattr__(self, attr):
        return getattr(self._engine, attr)


def _product_size(tracer, poly, args):
    tracer.maxima["polynomials.max_terms"] = max(
        tracer.maxima["polynomials.max_terms"], len(poly.terms))


def _quotient_size(tracer, quotient, args):
    if quotient is not None:
        tracer.counts["polynomials.exact_div.hits"] += 1
        _product_size(tracer, quotient, args)


def _fraction_size(tracer, result, args):
    frac = args[0]
    m = tracer.maxima
    m["ratfun.max_terms"] = max(m["ratfun.max_terms"], len(frac.num.terms), len(frac.den.terms))
    m["ratfun.max_degree"] = max(m["ratfun.max_degree"], frac.num.total_degree(),
                                 frac.den.total_degree())


def install(tracer):
    """Patch every traced entry point; returns the undo list for ``uninstall``."""
    from rowmotion import (cli, dynamics, fuzz, kernel, labeling, polynomials, poset,
                           ratfun, realms, sampling, stword)

    make_engine = kernel.make_engine

    def proxied_make_engine(*args, **kwargs):
        return _EngineProxy(tracer, make_engine(*args, **kwargs))

    singular = _count_singular("realms.singular.count")
    # (module, attribute, span name, callable to time in place of the original)
    functions = [
        (kernel, "make_engine", "kernel.make_engine", proxied_make_engine),
        (fuzz, "fuzz_nar_periodicity", "fuzz.cell", None),
        (sampling, "derive_seed", "sampling.derive_seed", None),
        (sampling, "sample_generic_labeling", "sampling.sample_generic_labeling", None),
        (sampling, "sample_chain_polytope_point", "sampling.sample_chain_polytope_point", None),
        (poset, "product_of_chains", "poset.product_of_chains", None),
        (dynamics, "transfer", lambda kind, *rest: f"dynamics.transfer.{kind.value}", None),
        (dynamics, "toggle", "dynamics.toggle", None),
        (dynamics, "antichain_rowmotion", "dynamics.antichain_rowmotion", None),
        (dynamics, "iterate", "dynamics.iterate", None),
        (dynamics, "polytope_membership", "dynamics.polytope_membership", None),
        (stword, "st_word", "stword.st_word", None),
        (stword, "fiber_orbit_product", "stword.fiber_orbit_product", None),
        (stword, "pl_homomesy_report", "stword.pl_homomesy_report", None),
        (cli, "main", "cli.main", None),
    ]
    methods = [
        (poset.FinitePoset, "maximal_chains", "poset.maximal_chains", None, None),
        (labeling.Labeling, "replace", "labeling.replace", None, None),
        (labeling.Labeling, "eq", "labeling.eq", None, None),
        (polynomials.Polynomial, "__mul__", "polynomials.mul", _product_size, None),
        (polynomials.Polynomial, "exact_div", "polynomials.exact_div", _quotient_size, None),
        (ratfun.RationalFunction, "__init__", "ratfun.new", _fraction_size, None),
        (ratfun.RationalFunction, "__add__", "ratfun.add", None, None),
        (ratfun.RationalFunction, "__mul__", "ratfun.mul", None, None),
        (ratfun.RationalFunction, "inverse", "ratfun.inverse", None, None),
        (ratfun.RationalFunction, "equals", "ratfun.equals", None, None),
    ]
    for cls, realm in ((realms.TropicalRealm, "tropical"), (realms.FpMatrixRealm, "matp"),
                       (realms.RationalFunctionRealm, "ratfun")):
        for op in ("add", "mul", "inv"):
            methods.append((cls, op, f"realms.{realm}.{op}", None,
                            singular if op == "inv" else None))

    modules = [m for key, m in sys.modules.items()
               if key == "rowmotion" or key.startswith("rowmotion.")]
    undo = []
    for owner, attr, name, impl in functions:
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, impl or original, name)
        for module in modules:
            if getattr(module, attr, None) is original:
                undo.append((module, attr, original, True))
                setattr(module, attr, wrapped)
    for cls, attr, name, after, on_error in methods:
        original = getattr(cls, attr)
        undo.append((cls, attr, cls.__dict__.get(attr), attr in cls.__dict__))
        setattr(cls, attr, _wrap(tracer, original, name, after, on_error))
    return undo


def uninstall(undo):
    """Restore everything ``install`` patched, newest patch first."""
    for owner, attr, original, owned in reversed(undo):
        if owned:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
