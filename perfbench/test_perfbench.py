"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import rates  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def bench(*args, root=HERE.parent):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_emits_all_end_to_end_metrics(workload):
    code, lines, err = bench("--workload", workload, "--seed", "3", "--seconds", "0.1")
    assert code == 0, err
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["env"]["kernel_backend"] in info["env"]["available_backends"]


# A layer each workload must reach in the traced run.
OWN_LAYER = {
    "nar_fuzz": "kernel.first_return.calls",
    "symbolic_homomesy": "polynomials.exact_div.calls",
    "pl_homomesy": "realms.tropical.add.calls",
    "nar_generic": "realms.matp.inv.calls",
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    code, lines, err = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                             "--trace", "1")
    assert code == 0, err
    result = json.loads(lines[-1])
    assert result["correct"]
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == \
        [(name, unit) for name, unit, _ in spans.PER_LAYER]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics[OWN_LAYER[workload]] > 0
    assert metrics["trace.overhead"] > 0 and 0 <= metrics["trace.uncovered_frac"] < 1
    assert metrics["kernel.steps_per_s.live"] > 0 and metrics["dynamics.steps_per_s.transfer"] > 0
    if workload == "nar_fuzz":
        assert metrics["fuzz.attempts_per_trial"] >= 1
    else:
        assert metrics["kernel.first_return.calls"] == 0
    if workload == "symbolic_homomesy":
        assert 0 < metrics["polynomials.exact_div.hit_ratio"] <= 1
        assert metrics["polynomials.max_terms"] > 0 and metrics["ratfun.max_degree"] > 0
    if workload == "nar_generic":
        assert metrics["dynamics.toggle.calls"] > 0 and metrics["cli.report_bytes"] > 0


def test_kernel_rates_run_bench_kernels_with_the_seed_and_mode(monkeypatch):
    import rowmotion
    from rowmotion.realms import FUZZ_PRIME

    modes = []
    step = rowmotion.antichain_rowmotion
    monkeypatch.setattr(rowmotion, "antichain_rowmotion",
                        lambda poset, g, mode: modes.append(mode) or step(poset, g, mode=mode))
    timer = rates.bench_kernels(7, "transfer")
    assert timer.random.Random(1234).random() == random.Random(7).random()
    assert timer.time_generic(rowmotion.product_of_chains(3, 3), 2, FUZZ_PRIME,
                              min_seconds=0.01) > 0
    assert modes and set(modes) == {"transfer"}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(spans.PER_LAYER)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    code, lines, _ = bench("--workload", "nar_fuzz", "--seed", "1", "--seconds", "1",
                           root=tmp_path)
    assert code != 0 and lines == []


class FlakyWorkload:
    """Every round: a unit that passes, one that raises, one failing its check."""

    name = "flaky"
    round_size = 3
    reference = ("modpow",)

    def run(self, index):
        if index % 3 == 1:
            raise RuntimeError("unit raised")
        return [json.dumps({"index": index})]

    def check(self, index, reports):
        return index % 3 == 0


def test_failed_units_are_counted_and_do_not_abort_the_run():
    records = worker.run_rounds(FlakyWorkload(), indices=list(range(9)))
    assert [r["ok"] for r in records] == [True, False, False] * 3
    assert records[1]["error"] == "RuntimeError('unit raised')"
    assert records[2]["error"] == "output check failed"
    values, _ = run.end_to_end(records, ("modpow",), setup=[0.1], setup_scales=[1.0],
                               peak_rss_mb=1.0)
    assert values["ok_frac"] == pytest.approx(1 / 3)
    assert values["units_per_s"] > 0


def test_units_per_s_counts_slow_units_beyond_the_tail():
    def records(latencies):
        return [{"latency_s": t, "reference_s": [run.nominal_s(("modpow",))], "ok": True}
                for t in latencies]

    steady = run.end_to_end(records([0.01] * 100), ("modpow",), [0.1], [1.0], 1.0)[0]
    slowed = run.end_to_end(records([0.01] * 92 + [0.03] * 8), ("modpow",), [0.1], [1.0],
                            1.0)[0]
    assert slowed["unit_p50_ms"] == steady["unit_p50_ms"]
    assert slowed["unit_tail_ms"] == steady["unit_tail_ms"]
    assert slowed["units_per_s"] == pytest.approx(steady["units_per_s"] / 1.16)


class SleepyWorkload:
    name = "sleepy"
    round_size = 1
    reference = ("modpow",)

    def run(self, index):
        time.sleep(0.3)
        return ["slept"]

    def check(self, index, reports):
        return True


def test_speed_is_sampled_inside_a_unit_without_counting_the_samples():
    record, _ = worker.run_unit(SleepyWorkload(), 0, sample=True)
    assert len(record["reference_s"]) >= 1 + 0.3 / worker.SAMPLE_PERIOD_S
    # The sleep ends 0.3 s after it began, whatever ran inside it.
    assert 0.3 - sum(record["reference_s"]) <= record["latency_s"] < 0.3


def test_timed_runs_end_on_a_whole_round():
    records = worker.run_rounds(FlakyWorkload(), seconds=0.0)
    assert len(records) == FlakyWorkload.round_size


def test_tail_has_ten_units_beyond_it_and_never_falls_below_p50():
    p50, tail, info = run.latency_stats([i / 1000 for i in range(100)])
    assert (p50, tail) == (0.05, 0.089) and info["units_beyond"] == 10
    p50, tail, info = run.latency_stats([i / 1000 for i in range(12)])
    assert tail == p50 == 0.006 and info["units_beyond"] == 5
