"""Smoke test of the benchmark harness on one tiny op per workload.

    python -m pytest perfbench/test_smoke.py -q

Each op runs in a real worker process, untraced and traced, and must match
its golden record; the traced sweep's span self times must add up to its
wall time.
"""

from __future__ import annotations

import json

import pytest

import run
import workloads

TINY = {
    "syt": ("csp", "syt", "--shape", "2,2,2", "--json"),
    "cst": ("csp", "cst", "--shape", "2,2", "--bound", "3", "--json"),
    "roots": ("roots", "2,1", "3", "1"),
    "kl": ("kl", "mu-invariance", "--shape", "3,1", "--json"),
}

GOLDEN = json.loads(run.GOLDEN.read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_op_matches_golden(workload):
    op = TINY[workload]
    assert op in workloads.ops_for(workload, seed=0)
    for trace in (False, True):
        result = run.spawn([op], trace)
        assert run.failures(result, GOLDEN) == [], result["ops"]
        assert 0 < result["setup_s"] < result["wall_s"]
        assert result["cyclosieve"] == "src/cyclosieve/__init__.py"


def test_traced_self_times_add_up():
    result = run.spawn([TINY["syt"], TINY["roots"]], trace=True)
    spans = result["trace"]
    bench_self = result["sweep_s"] - spans["covered_s"]
    assert bench_self >= 0
    assert sum(spans["self_s"].values()) == pytest.approx(spans["covered_s"])
    counts = spans["counts"]
    assert counts["tableaux.elements"] == 5 + 8  # SYT(2,2,2) and CST((2,1), 3)
    assert counts["sieving.orbits"] == 2  # promotion orbits of sizes 2 and 3 on SYT(2,2,2)
    assert counts["cyclotomic.ring_ops"] > 0
    assert counts["cli.output_bytes"] > 0


def test_order_does_not_change_outputs():
    ops = [TINY["cst"], TINY["kl"], ("csp", "syt", "--shape", "3,3,1", "--json")]
    forward = run.spawn(ops)
    backward = run.spawn(ops[::-1])
    assert sorted(r[:3] for r in forward["ops"]) == sorted(r[:3] for r in backward["ops"])
    assert run.failures(forward, GOLDEN) == []


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(43) == 76
    assert run.tail_percentile(591) == 98
    assert run.tail_percentile(20) == 50
    values = list(range(1, 101))
    assert run.nearest_rank(values, 90) == 90
