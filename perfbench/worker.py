"""One benchmark process: set up, run units, report records as JSON.

``run.py`` starts this file in a fresh interpreter.  It imports the package
from ``src/`` of the checkout, selects the kernel backend, builds the
workload's inputs, prints ``ready`` (the end of set-up), and then either
exits (``--probe``, after machine-speed readings taken before the package
imports and after ``ready``) or runs units for ``--seconds`` and prints one
JSON line of per-unit records.  With ``--trace`` the units run under span
tracing and are then replayed untraced, to measure the tracing overhead and
to check that tracing changed no report byte.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import rates
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REFERENCE_SHARE = 0.02  # of each unit's latency spent on speed readings inside and after it
SETUP_READINGS = 8      # speed readings a set-up probe takes before and after set-up
SETUP_REFERENCE = ("modpow",)
# Units last up to seconds, and readings at their ends miss the host's speed
# swings inside them; a SIGALRM handler in the one benchmark thread also
# takes readings while a unit of an untraced run runs.
SAMPLE_PERIOD_S = 0.05
FIELD = (1 << 61) - 1


def _modpow():
    x = 12345
    for i in range(40):
        x = pow(x + i, FIELD - 2, FIELD)


def _fraction():
    f = Fraction(0)
    for i in range(1, 120):
        f = max(f, Fraction(i % 17, 60)) + Fraction(1, i)


def _matrix():
    x = ((3, 1, 4), (1, 5, 9), (2, 6, 5))
    y = ((5, 3, 5), (8, 9, 7), (9, 3, 2))
    for _ in range(12):
        z = tuple(tuple(sum(x[i][m] * y[m][j] for m in range(3)) % FIELD for j in range(3))
                  for i in range(3))
        inv = pow(z[0][0] or 1, -1, FIELD)
        x, y = tuple(tuple(v * inv % FIELD for v in row) for row in z), x


# Fixed pieces of stdlib arithmetic, and the seconds each takes at the
# nominal machine speed that durations are reported at.
REFERENCE_WORK = {"modpow": _modpow, "fraction": _fraction, "matrix": _matrix}
NOMINAL_S = {"modpow": 0.0008, "fraction": 0.0008, "matrix": 0.0003}


def reference_s(kinds):
    """Seconds the reference work of ``kinds`` takes: the machine's speed
    right now, for that kind of arithmetic.

    On a host shared with other tenants the same code runs at speeds that
    drift by half or more over minutes, and not every kind of code drifts
    alike: interpreted ``Fraction`` arithmetic swings about twice as far as
    modular powers of 61-bit integers.  Each workload therefore times the
    kinds of arithmetic its own hot path does (its ``reference``).  The
    garbage collector is off while it runs, so the size of the program's
    heap cannot change it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for kind in kinds:
            REFERENCE_WORK[kind]()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_unit(workload, index, sample=False):
    """Run and check one unit; returns (record, its reports or None).

    A unit fails when its call raises or its output check fails or raises;
    the failure is recorded and the run goes on.  Machine-speed readings
    taken right before and right after the unit are kept in the record.
    With ``sample``, readings are also taken every ``SAMPLE_PERIOD_S`` while
    the unit runs, and their time is taken out of its latency.  Readings
    after the unit fill up the time spent on readings to about
    ``REFERENCE_SHARE`` of its latency.
    """
    error = None
    refs = [reference_s(workload.reference)]
    inside = []
    if sample:
        previous = signal.signal(signal.SIGALRM,
                                 lambda *_: inside.append(reference_s(workload.reference)))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    t0 = perf_counter()
    try:
        reports = workload.run(index)
    except Exception as exc:  # a failed unit is data, not the end of the run
        reports, error = None, repr(exc)
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    latency = perf_counter() - t0 - sum(inside)
    refs += inside
    after = [reference_s(workload.reference)]
    while sum(after) + sum(inside) < REFERENCE_SHARE * latency:
        after.append(reference_s(workload.reference))
    refs += after
    ok = False
    if reports is not None:
        try:
            ok = bool(workload.check(index, reports))
        except Exception as exc:  # a malformed report fails its check
            error = repr(exc)
        if not ok and error is None:
            error = "output check failed"
    digest = None
    if reports is not None:
        digest = hashlib.sha256("".join(reports).encode()).hexdigest()
    record = {"index": index, "latency_s": latency, "reference_s": refs, "ok": ok,
              "digest": digest}
    if error is not None:
        record["error"] = error
    return record, (reports if ok else None)


def run_rounds(workload, seconds=None, indices=None, tracer=None, kept=None, sample=False):
    """Run whole rounds of units, until ``seconds`` have passed, or exactly
    the units in ``indices``; returns the records.  The reports of units
    that pass are appended to ``kept`` when it is given."""
    records = []
    start = perf_counter()
    position = 0
    while True:
        for _ in range(workload.round_size):
            if indices is not None and position >= len(indices):
                return records
            index = position if indices is None else indices[position]
            if tracer is not None:
                tracer.unit = index
            record, reports = run_unit(workload, index, sample)
            records.append(record)
            if kept is not None and reports is not None:
                kept.append(reports)
            position += 1
        if indices is None and perf_counter() - start >= seconds:
            return records


def environment(seed):
    from rowmotion import kernel

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "kernel_backend": kernel.backend_name(),
        "available_backends": sorted(kernel.available_backends()),
        "python": platform.python_version(),
        "nproc": nproc,
        "seed": seed,
    }


def traced(workload, args):
    """Traced run, untraced replay of the same units, and per-layer metrics."""
    tracer = spans.Tracer()
    kept = []
    undo = spans.install(tracer)
    try:
        records = run_rounds(workload, seconds=args.seconds, tracer=tracer, kept=kept)
    finally:
        spans.uninstall(undo)
    # Written and dropped first, so the replay does not run beside them.
    tracer.write(OUT_DIR / f"trace-{workload.name}-{args.seed}.jsonl",
                 {"workload": workload.name, "seed": args.seed})
    tracer.spans = None
    replay = run_rounds(workload, indices=[r["index"] for r in records])
    for rec, again in zip(records, replay):
        if rec["ok"] and not (again["ok"] and again["digest"] == rec["digest"]):
            rec["ok"] = False
            rec["error"] = "traced report differs from the untraced one"
    overhead = sum(r["latency_s"] for r in records) / sum(r["latency_s"] for r in replay)
    return records, layer_metrics(tracer, workload, records, kept, overhead,
                                  rates.step_rates(args.seed))


def layer_metrics(tracer, workload, records, kept, overhead, step_rates):
    """Per-layer metrics; calls, self time and counts are per unit."""
    units = len(records)
    out = {}
    for name in spans.SPAN_NAMES:
        out[f"{name}.calls"] = tracer.calls[name] / units
        out[f"{name}.self_s"] = tracer.self_s[name] / units
    for name in ("kernel.singular.count", "realms.singular.count"):
        out[name] = tracer.counts[name] / units
    out.update(step_rates)
    trials = resamples = 0
    if workload.name == "nar_fuzz":
        for reports in kept:
            report = json.loads(reports[0])
            trials += report["trials"]
            resamples += report["singular_resamples"]
    out["fuzz.attempts_per_trial"] = (trials + resamples) / trials if trials else 0.0
    divs = tracer.calls["polynomials.exact_div"]
    out["polynomials.exact_div.hit_ratio"] = (
        tracer.counts["polynomials.exact_div.hits"] / divs if divs else 0.0)
    for name in ("polynomials.max_terms", "ratfun.max_terms", "ratfun.max_degree"):
        out[name] = tracer.maxima[name]
    emitted = 0
    if tracer.calls["cli.main"]:
        emitted = sum(len(text.encode()) for reports in kept for text in reports)
    out["cli.report_bytes"] = emitted / units
    unit_wall = sum(r["latency_s"] for r in records)
    covered = sum(tracer.covered[r["index"]] for r in records)
    out["trace.overhead"] = overhead
    out["trace.uncovered_frac"] = (unit_wall - covered) / unit_wall
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true", help="exit once set up")
    args = parser.parse_args(argv)

    if args.probe:
        t0 = perf_counter()
        before = [reference_s(SETUP_REFERENCE) for _ in range(SETUP_READINGS)]
        reading_s = perf_counter() - t0
    sys.path.insert(0, str(ROOT / "src"))
    from rowmotion import cli, kernel  # noqa: F401  (imports and backend selection)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.probe:
        after = [reference_s(SETUP_REFERENCE) for _ in range(SETUP_READINGS)]
        print(json.dumps({"reading_s": reading_s, "reference_s": before + after}))
        return 0
    if args.trace:
        records, layers = traced(workload, args)
    else:
        records = run_rounds(workload, seconds=args.seconds, sample=True)
        layers = None
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"records": records, "layers": layers, "peak_rss_mb": peak_kb / 1024,
                      "env": environment(args.seed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
