#!/usr/bin/env python3
"""The rowmotion benchmark: four workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/``;
nothing is installed.  Each unit of work is a call into a public entry
point of the package, and every unit's output is checked.

With ``--trace 0`` the benchmark runs units in one fresh worker process for
``S`` seconds (whole rounds), times set-up in fresh processes before and
after it, and prints the end-to-end metrics.  With ``--trace 1`` the worker
runs the units under span tracing, replays them untraced, and prints the
per-layer metrics instead.  The line before the last is a record of the
run (kernel backend, Python, CPU count, seed, tail percentile); the last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = tuple(workloads.WORKLOADS)
SETUP_PROBES = 20      # timed set-up processes, half before and half after measuring
TIME_LIMIT_S = 170     # the whole run, set-up included
TAIL_BEYOND = 10       # units that must lie beyond the tail percentile

END_TO_END = [
    ("units_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("unit_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
]


class BenchError(Exception):
    """The benchmark could not run the program; no result is printed."""


def spawn(args, deadline):
    """Run one worker; returns (seconds from its start until it was set up,
    the rest of its standard output).  It is killed at ``deadline``."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            ready = perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed (exit {proc.returncode})")
    return ready, rest


def latency_stats(latencies):
    """p50 and tail of unit latencies, as order statistics.

    p50 is the element at index n // 2 of the sorted list (on an even count,
    the upper of the two middle units).  The tail is the highest percentile
    with at least ``TAIL_BEYOND`` units beyond it, but never below p50: runs
    of fewer than 21 units report p50 there, and the record says how many
    units lie beyond it.
    """
    lat = sorted(latencies)
    n = len(lat)
    mid = n // 2
    tail = max(n - 1 - TAIL_BEYOND, mid)
    return lat[mid], lat[tail], {
        "units": n,
        "percentile": round(100 * tail / (n - 1), 2) if n > 1 else 100.0,
        "units_beyond": n - 1 - tail,
    }


def timings(records, scales):
    """units_per_s, p50 and tail latency (s), each unit's latency times its scale.

    units_per_s is the units that passed over the sum of all units'
    latencies: a throughput, so a slowdown of a few units moves it even when
    the p50 and the tail do not.  The gaps between units (output checks,
    speed readings) are the benchmark's, not the program's, and not counted.
    """
    lat = [r["latency_s"] * k for r, k in zip(records, scales)]
    ok = sum(r["ok"] for r in records)
    p50, tail, tail_info = latency_stats(lat)
    return ok / sum(lat), p50, tail, tail_info


def nominal_s(kinds):
    """Seconds the reference work of ``kinds`` takes at the nominal speed."""
    return sum(worker.NOMINAL_S[kind] for kind in kinds)


def end_to_end(records, reference, setup, setup_scales, peak_rss_mb):
    """The six end-to-end metrics of an untraced run, and the run record.

    Durations are scaled to the nominal machine speed: each unit's latency
    by the nominal time of the workload's ``reference`` work over the median
    of the readings of it taken right before, inside and after the unit.  Each
    set-up probe's time comes scaled likewise, by its own readings
    (``probe_setup``), and ``setup_s`` is the median of the scaled probes.
    The record keeps the raw values and the scales.
    """
    scales = [nominal_s(reference) / statistics.median(r["reference_s"]) for r in records]
    rate, p50, tail, tail_info = timings(records, scales)
    values = {
        "units_per_s": rate,
        "unit_p50_ms": p50 * 1e3,
        "unit_tail_ms": tail * 1e3,
        "setup_s": statistics.median(t * k for t, k in zip(setup, setup_scales)),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": sum(r["ok"] for r in records) / len(records),
    }
    raw_rate, raw_p50, raw_tail, _ = timings(records, [1.0] * len(records))
    record = {
        "tail": tail_info,
        "speed": {"unit_scale_median": statistics.median(scales),
                  "setup_scale_median": statistics.median(setup_scales)},
        "raw": {"units_per_s": raw_rate, "unit_p50_ms": raw_p50 * 1e3,
                "unit_tail_ms": raw_tail * 1e3, "setup_s": statistics.median(setup),
                "setup_samples_s": setup},
    }
    return values, record


def probe_setup(common, count, deadline):
    """Time set-up in ``count`` fresh processes; returns each one's set-up
    time (its speed readings before the imports taken out) and scale.

    A process keeps much of its speed for its whole life, so each probe is
    scaled by the readings it took itself, before and after its set-up."""
    setup, scales = [], []
    for _ in range(count):
        ready, out = spawn(common + ["--probe"], deadline)
        probe = json.loads(out)
        setup.append(ready - probe["reading_s"])
        readings = probe["reference_s"]
        scales.append(nominal_s(worker.SETUP_REFERENCE) / statistics.median(readings))
    return setup, scales


def measure(workload, seed, seconds, trace):
    """Run the workload; returns (record line, result line) as dicts."""
    deadline = perf_counter() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        probe_setup(common, 1, deadline)  # fills the bytecode cache; not timed
        setup, setup_scales = probe_setup(common, SETUP_PROBES // 2, deadline)
    ready, out = spawn(common + ["--seconds", str(seconds)] + (["--trace"] if trace else []),
                       deadline)
    if not trace:
        more = probe_setup(common, SETUP_PROBES - SETUP_PROBES // 2, deadline)
        setup += more[0]
        setup_scales += more[1]
    report = json.loads(out.strip().splitlines()[-1])
    records = report["records"]
    if not records:
        raise BenchError("the worker ran no units")
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "env": report["env"]}
    if trace:
        layers = report["layers"]
        missing = [name for name, _, _ in spans.PER_LAYER if name not in layers]
        if missing:
            raise BenchError(f"per-layer metrics missing: {missing}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in spans.PER_LAYER}
        info["other_layer_metrics"] = {k: v for k, v in layers.items() if k not in metrics}
    else:
        values, record = end_to_end(records, workloads.WORKLOADS[workload].reference, setup,
                                    setup_scales, report["peak_rss_mb"])
        record["raw"]["measuring_worker_setup_s"] = ready
        info.update(record)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    failed = [r for r in records if not r["ok"]]
    info["failures"] = [{"index": r["index"], "error": r.get("error")} for r in failed[:10]]
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    return info, result


def main(argv=None):
    parser = argparse.ArgumentParser(description="The rowmotion benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "rowmotion" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'rowmotion'}", file=sys.stderr)
        return 2
    try:
        info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
