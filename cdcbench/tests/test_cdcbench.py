"""The benchmark's own tests: a tiny run passes end to end, the correctness
gate rejects a wrong table, and seeds change the inputs but not the metric
names.

    python3 -m pytest cdcbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, ROOT]

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402

from client import same_table  # noqa: E402
from loadgen import Workload, prepare, split_by_conv  # noqa: E402
from tenzir_ray.cdc.oracle import naive_apply  # noqa: E402

TINY = "0.02"


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, seed: int, trace: int = 0) -> tuple[int, dict]:
    p = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.stdout.strip(), p.stderr[-3000:]
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_results() -> dict:
    return {seed: _run("bulk_replay", seed) for seed in (1, 2)}


def test_tiny_run_passes(tiny_results):
    for rc, res in tiny_results.values():
        assert rc == 0
        assert res["correct"] is True
        assert res["failed"] == 0 and res["attempted"] > 0


def test_seeds_change_inputs_not_metric_names(tiny_results, tmp_path):
    w = Workload("t", "", events=3000)
    a = prepare(str(tmp_path), w, seed=1)
    b = prepare(str(tmp_path), w, seed=2)
    assert not a.log.equals(b.log)
    want = {m["name"] for m in _spec()["end_to_end"]}
    for _rc, res in tiny_results.values():
        assert set(res["metrics"]) == want


@pytest.mark.parametrize("workload", ["bulk_replay", "incremental_tail"])
def test_traced_tiny_run_reports_every_per_layer_metric(workload):
    rc, res = _run(workload, 3, trace=1)
    assert rc == 0 and res["correct"] is True
    assert set(res["metrics"]) == {m["name"] for m in _spec()["per_layer"]}


def test_gate_rejects_altered_table():
    from tenzir_ray.cdc.generate import gen_changes

    oracle = naive_apply(gen_changes(500, seed=4))
    assert same_table(oracle, oracle.slice(0))
    text = oracle["text"].to_pylist()
    text[7] = (text[7] or "") + "x"
    altered = oracle.set_column(oracle.schema.get_field_index("text"), "text",
                                pa.array(text, pa.string()))
    assert not same_table(altered, oracle)
    assert not same_table(oracle.slice(1), oracle)  # a lost row
    assert not same_table(oracle.drop_columns(["tool"]), oracle)


def test_client_counts_a_wrong_table_as_failed(tmp_path):
    """A full cycle against a deliberately altered oracle table must fail
    the final-table, every optimize and the lookup checks."""
    import ray

    from client import FIRST_CYCLE_OPTIMIZES, Client
    from spans import NullTracer

    w = Workload("t", "", events=2000, lookups=10)
    inputs = prepare(str(tmp_path / "cache"), w, seed=6)
    conv = inputs.oracle["conv_id"][0].as_py()
    text = inputs.oracle["text"].to_pylist()
    text[0] = (text[0] or "") + "x"
    inputs.oracle = inputs.oracle.set_column(
        inputs.oracle.schema.get_field_index("text"), "text",
        pa.array(text, pa.string()))
    inputs.lookup_convs[0] = [conv]
    inputs.lookup_expected[0] = split_by_conv(inputs.oracle)
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    try:
        client = Client(w, inputs, str(tmp_path / "lakes"), 4, NullTracer(), False)
        client.cycle()
    finally:
        ray.shutdown()
    assert client.failed == 2 + FIRST_CYCLE_OPTIMIZES, client.failures
    assert any("final_table" in f for f in client.failures)


def test_lookup_oracle_matches_full_oracle():
    """Per-conversation oracle rows equal the full oracle's rows."""
    from tenzir_ray.cdc.generate import gen_changes

    log = gen_changes(3000, seed=5)
    full = split_by_conv(naive_apply(log))
    for conv, rows in list(full.items())[:20]:
        sub = log.filter(pc.equal(log["conv_id"], conv))
        assert same_table(naive_apply(sub), rows)
