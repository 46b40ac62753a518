"""Tests of the benchmark's own code: statistics rules, span arithmetic, the
metric list and a short smoke run of the command."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import benchlib
from benchlib import (
    RoundStats,
    beyond,
    covered,
    deadline_miss_pct,
    percentile,
    round_stats,
    self_time,
    step_failures,
    tail_percentile,
)
from layers import LAYER_METRICS, per_layer_names
from tracing import Tracer, step_self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# ---------------------------------------------------------------- percentiles

def test_nearest_rank_percentile_returns_a_measured_value():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 99.0) == 99.0
    assert percentile(reversed(values), 100.0) == 100.0
    assert percentile([7.0], 99.0) == 7.0


def test_a_2250_step_session_leaves_22_samples_beyond_p99():
    assert beyond(2250, 99.0) == 22
    assert beyond(1000, 99.0) == 10
    assert beyond(999, 99.0) == 9


def test_tail_percentile_is_the_highest_with_ten_samples_beyond():
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(9_999) == 99.5
    assert tail_percentile(2250) == 99.5
    assert tail_percentile(1999) == 99.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None
    for n in (20, 57, 999, 1000, 2250, 4500, 123_456):
        q = tail_percentile(n)
        assert beyond(n, q) >= 10


def test_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        percentile([], 50.0)


# ---------------------------------------------------------------- failures

def test_step_failures_counts_unfinished_and_untransparent_steps():
    assert step_failures(2250, 2250, [0.0] * 2250, 1e-4) == 0
    # a session that timed out after 1000 steps: the remaining 1250 failed
    assert step_failures(2250, 1000, [], 1e-4) == 1250
    # completed steps whose output left the plaintext twin
    assert step_failures(4, 4, [0.0, 2e-4, 1e-4, math.nan], 1e-4) == 2
    with pytest.raises(ValueError):
        step_failures(10, 11, [], 1e-4)


def test_deadline_misses_include_failed_steps():
    stats = round_stats([0.005, 0.021, 0.019, 0.030], period=0.020)
    assert stats == RoundStats(n=4, p50=0.019, p99=0.030, late=2, max=0.030)
    assert deadline_miss_pct(stats.late, failed=0, attempted=4) == 50.0
    assert deadline_miss_pct(stats.late, failed=4, attempted=8) == 75.0
    assert deadline_miss_pct(0, failed=0, attempted=5) == 0.0
    with pytest.raises(ValueError):
        deadline_miss_pct(0, failed=0, attempted=0)


# ---------------------------------------------------------------- spans

def test_self_time_subtracts_the_union_of_children():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # overlapping children (another process) count once
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0)]) == 6.0
    # children reaching outside the parent are clipped to it
    assert self_time(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0)]) == pytest.approx(0.5)
    assert covered(0.0, 1.0, [(2.0, 3.0)]) == 0.0


def test_tracer_records_parents_and_restores_patched_names():
    class Owner:
        @staticmethod
        def leaf(x):
            return [x] * 3

    tracer = Tracer()
    orig = Owner.leaf
    tracer.patch(Owner, "leaf", "layer.leaf", size_of_result=True)
    with tracer.span("outer") as outer:
        assert Owner.leaf(1) == [1, 1, 1]
    tracer.restore()
    assert Owner.leaf is orig
    leaf = next(s for s in tracer.spans if s.name == "layer.leaf")
    assert leaf.parent == outer
    assert tracer.spans[outer].parent == -1
    assert tracer.spans[outer].start <= leaf.start <= leaf.end <= tracer.spans[outer].end
    assert tracer.sizes == {"layer.leaf": [3]}


def test_step_self_times_skip_the_first_step_and_other_parents():
    from tracing import Span

    spans = [
        Span("run", 0.0, 100.0, -1, 0),
        Span("a", 11.0, 13.0, 0, 1),
        Span("b", 14.0, 15.0, 0, 1),
        Span("nested", 14.0, 14.5, 2, 1),   # under b: already inside it
        Span("a", 21.0, 25.0, 0, 2),
        Span("other", 22.0, 23.0, -1, 2),   # not under the run
    ]
    marks = [10.0, 20.0, 30.0]
    assert step_self_times(spans, marks, parent=0) == [7.0, 6.0]


# ---------------------------------------------------------------- definition

def test_benchmark_json_lists_every_metric_the_code_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == per_layer_names()
    assert bench["paths"] == ["perfbench"]
    names = [m["name"] for m in bench["end_to_end"]]
    assert "setup_s" in names and len(set(names)) == len(names)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    workloads = {w["name"] for w in bench["workloads"]}
    assert all(set(m.on) <= workloads for m in LAYER_METRICS)


def test_seeds_derive_deterministically():
    assert benchlib.derive_seed(3, "noise", 0) == benchlib.derive_seed(3, "noise", 0)
    assert benchlib.derive_seed(3, "noise", 0) != benchlib.derive_seed(4, "noise", 0)
    assert benchlib.derive_seed(3, "noise", 0) != benchlib.derive_seed(3, "nonce", 0)


# ---------------------------------------------------------------- smoke

def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_plain_sweep(trace):
    proc = _bench(ROOT, "--workload", "plain-sweep", "--seed", "5", "--seconds", "0.1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["end_to_end"] if trace == "0" else bench["per_layer"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "plain-sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
