"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run as bench  # noqa: E402
from ledger import Ledger, installed, targets  # noqa: E402
from workloads import WORKLOADS, instance_seeds, run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: The layer with the largest self time in a traced run of each workload.
#: On tstable_patch the Subspace inserts are called from inside the patch
#: coordinator's share step, so they outweigh the coordinator's own time.
DOMINANT = {
    "coded_ring": "gf.insert_batch_s",
    "forward_markov": "network.choose_topology_s",
    "coded_bridge": "gf.insert_batch_s",
    "tstable_patch": "coding.subspace_insert_s",
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_legal_and_match_the_spec():
    spec = _spec()
    for units, section in ((bench.END_TO_END_UNITS, "end_to_end"), (bench.PER_LAYER_UNITS, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert declared == units
        for name in units:
            assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_emitted_metrics_cover_each_mode():
    small = dataclasses.replace(WORKLOADS["coded_ring"], n=16, max_rounds=200)
    tally, metrics, _, engines = bench.measure_untraced(small, 0, 0)
    metrics["setup_s"] = 1.0
    emitted = bench.report(tally, metrics, bench.END_TO_END_UNITS)
    assert emitted["correct"] and emitted["attempted"] == len(instance_seeds(0))
    assert set(emitted["metrics"]) == set(bench.END_TO_END_UNITS) and engines == {"kernel"}
    tally, metrics, engines = bench.measure_traced(small, 0, 0)
    emitted = bench.report(tally, metrics, bench.PER_LAYER_UNITS)
    assert emitted["correct"] and emitted["attempted"] == 2 * len(instance_seeds(0))
    assert engines == {"kernel"} and emitted["metrics"]["kernel.compose_all_calls"]["value"] > 0
    assert all(NAME.fullmatch(name) for name in emitted["metrics"])
    assert set(emitted["metrics"]) == set(bench.PER_LAYER_UNITS)


def test_run_hitting_the_round_cap_counts_as_failed():
    capped = dataclasses.replace(WORKLOADS["forward_markov"], n=16, max_rounds=2)
    tally, metrics, first, _ = bench.measure_untraced(capped, 0, 0)
    assert tally.attempted == len(first) and tally.failed == tally.attempted
    assert not tally.correct
    assert metrics["completed_share"] == 0.0
    assert all(m.rounds_executed == 2 for m in first)


def test_untraced_run_after_traced_one_calls_unwrapped_functions():
    originals = {(owner, name): owner.__dict__[name] for _, owner, name, _ in targets()}
    inputs = dataclasses.replace(WORKLOADS["coded_bridge"], n=16, max_rounds=200).inputs(0)
    ledger = Ledger()
    with installed(ledger):
        run(inputs)
    traced_calls = dict(ledger.calls)
    assert traced_calls["gf.insert_batch_s"] > 0 and traced_calls["faults.bind_edges_s"] > 0
    for (owner, name), original in originals.items():
        assert owner.__dict__[name] is original, f"{owner.__name__}.{name} left wrapped"
    run(inputs)
    assert dict(ledger.calls) == traced_calls


def test_self_time_excludes_nested_layer_spans():
    now = [0.0]
    ledger = Ledger(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    wrapped_inner = ledger.wrap("inner", inner)

    def outer():
        now[0] += 1.0
        wrapped_inner()
        now[0] += 3.0

    ledger.wrap("outer", outer)()
    assert ledger.seconds == {"inner": 2.0, "outer": 4.0}
    assert ledger.inclusive == {"inner": 2.0, "outer": 6.0}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_dominant_layer_is_the_named_one(name):
    inputs = WORKLOADS[name].inputs(0)
    run(inputs)  # warm-up
    ledger = Ledger()
    with installed(ledger):
        result = run(inputs)
    assert result.correct is True
    ranked = sorted(bench.LAYER_SECONDS, key=lambda m: ledger.seconds[m], reverse=True)
    assert ranked[0] == DOMINANT[name], {m: round(ledger.seconds[m], 3) for m in ranked[:4]}
    if name == "coded_bridge":
        assert ranked[1] == "faults.bind_edges_s"
    if name == "tstable_patch":
        coordinator = ledger.inclusive["algorithms.coordinator_s"]
        assert coordinator == max(ledger.inclusive.values())


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coded_ring", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
