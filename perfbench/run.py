"""The repository benchmark: seeded dissemination workloads, timed end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload coded_ring --seed 0 --seconds 20 --trace 0

One process runs one workload as a closed loop: each dissemination run
starts only after the previous one ends.  A benchmark seed expands into a
fixed cycle of instances (see ``workloads.py``).  After one untimed
warm-up run, every instance runs once, then runs continue in cycle order
until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics of untraced runs.  Run
times are given in calibration units (``cal``): each run's seconds divided
by the seconds of a fixed numpy-plus-Python loop timed right before and
after it (see ``calibration_slice``), because a shared host's speed drifts
by tens of percent over minutes, too much for raw seconds to repeat.
``setup_s`` is likewise timed against a baseline process (see
``measure_setup``).  The raw medians are printed alongside.
``--trace 1`` alternates untraced and traced runs of each instance and
reports per-layer figures from the traced ones: self seconds of the
public calls into each ``repro`` layer (see ``ledger.py``), work counts,
the attached ``TraceRecorder(clock=SystemClock())`` phase profile, and the
calibration slice timed in the same process.  Per-layer seconds are
means per traced run, so the self times plus ``driver.self_s`` add up to
``bench.traced_run_s``; counts and ratios are taken over the first cycle.

Every run is checked: it must complete within its workload's round cap
with ``RunResult.correct`` true, repeat runs of an instance must give
identical ``RunMetrics``, and a traced run must give the same
``RunMetrics`` as the untraced run of its instance.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every ``problem:`` line above
it names a failed check.  All but one also make ``correct`` false: a
behaviour fingerprint that differs from the one recorded for the seed
(see ``record_fingerprints.py``) only reports that behaviour changed,
since the runs themselves were verified correct.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload, fingerprint, instance_seeds, run, succeeded

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
FINGERPRINTS = BENCH_DIR / "fingerprints.json"

#: Fresh set-up processes timed for ``setup_s``, each between two baselines.
SETUP_REPEATS = 5

#: Baseline child for ``setup_s``: a fresh interpreter importing numpy,
#: work that the program cannot change.
_BASELINE_CHILD = "import numpy\n"

#: Seconds the baseline child takes on the reference host (a 2-vCPU Xeon
#: VM, Python 3.11, numpy 2.4); ``setup_s`` is given at that host's speed.
BASELINE_REFERENCE_S = 0.2

#: ``setup_s`` child: import ``repro`` and build one cycle's inputs.
_SETUP_CHILD = (
    "import sys\n"
    "sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1] + '/perfbench']\n"
    "from workloads import WORKLOADS, instance_seeds\n"
    "workload = WORKLOADS[sys.argv[2]]\n"
    "for seed in instance_seeds(int(sys.argv[3])):\n"
    "    workload.inputs(seed)\n"
)

END_TO_END_UNITS = {
    "run_cal": "cal",
    "node_rounds_per_cal": "node-rounds/cal",
    "setup_s": "s",
    "completion_rounds": "rounds",
    "completed_share": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_SECONDS = [
    "gf.insert_batch_s",
    "gf.combine_sorted_s",
    "gf.draw_random_picks_s",
    "gf.decode_s",
    "network.choose_topology_s",
    "network.csr_s",
    "network.validate_s",
    "faults.bind_edges_s",
    "kernel.compose_all_s",
    "kernel.deliver_all_s",
    "kernel.to_nodes_s",
    "algorithms.coordinator_s",
    "algorithms.compose_s",
    "algorithms.deliver_s",
    "coding.subspace_insert_s",
    "obs.observe_round_s",
]
PROFILE_PHASES = ["compose", "faults", "deliver", "insert", "decode", "materialise"]

PER_LAYER_UNITS = {
    **dict.fromkeys(LAYER_SECONDS, "s"),
    "driver.self_s": "s",
    "gf.insert_vectors": "count",
    "gf.innovative_ratio": "ratio",
    "faults.edges_kept_ratio": "ratio",
    "kernel.compose_all_calls": "count",
    "coding.subspace_inserts": "count",
    "obs.trace_overhead": "ratio",
    "sim.useful_delivery_ratio": "ratio",
    "bench.wrap_overhead_s": "s",
    "bench.traced_run_s": "s",
    "bench.traced_runs": "count",
    "host.calibration_s": "s",
    **{f"profile.{phase}_s": "s" for phase in PROFILE_PHASES},
}


@dataclass
class Tally:
    """Attempted and failed runs, plus the consistency checks that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: instance seed -> metrics of its first run, to check repeat runs.
    first_metrics: dict[int, dict] = field(default_factory=dict)

    def check(self, inputs, result) -> None:
        self.attempted += 1
        if not succeeded(result):
            self.failed += 1
        metrics = result.metrics.to_dict()
        if metrics != self.first_metrics.setdefault(inputs.seed, metrics):
            self.problems.append(f"instance seed {inputs.seed}: RunMetrics differ between runs")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _timed(inputs, trace=None):
    start = time.perf_counter()
    result = run(inputs, trace=trace)
    return result, time.perf_counter() - start


def _completion_round(metrics) -> int:
    """Rounds to completion, over survivors under faults; the cap if never."""
    done = metrics.survivor_completion_round if metrics.survivors else metrics.completion_round
    return metrics.rounds_executed if done is None else done


def _runs(workload: Workload, seed: int, seconds: float):
    """``(first cycle?, inputs)``: one whole cycle, then more until ``seconds`` pass."""
    instances = [workload.inputs(s) for s in instance_seeds(seed)]
    run(instances[0])  # warm-up: imports, lazy tables, allocator
    start = time.perf_counter()
    for i in itertools.count():
        if i >= len(instances) and time.perf_counter() - start >= seconds:
            return
        yield i < len(instances), instances[i % len(instances)]


def _child_seconds(*args: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True, capture_output=True)
    return time.perf_counter() - start


def measure_setup(workload: Workload, seed: int) -> tuple[float, float]:
    """``(setup_s, median raw seconds)`` for a fresh process to import ``repro`` and build inputs.

    Host speed drifts by tens of percent over minutes, and a fresh
    interpreter's start-up moves with it, but alike for the set-up child
    and the baseline children timed right before and after it.  So each
    set-up time is divided by the mean of its two baselines, and
    ``setup_s`` is the median ratio times ``BASELINE_REFERENCE_S``.
    """
    raw, ratios = [], []
    before = _child_seconds("-c", _BASELINE_CHILD)
    for _ in range(SETUP_REPEATS):
        elapsed = _child_seconds("-c", _SETUP_CHILD, str(ROOT), workload.name, str(seed))
        after = _child_seconds("-c", _BASELINE_CHILD)
        raw.append(elapsed)
        ratios.append(elapsed / ((before + after) / 2))
        before = after
    return statistics.median(ratios) * BASELINE_REFERENCE_S, statistics.median(raw)


def measure_untraced(workload: Workload, seed: int, seconds: float):
    """End-to-end metrics: ``(tally, metrics, first-cycle RunMetrics, engines)``.

    Host speed on a shared machine drifts by tens of percent over minutes,
    and that drift moves a run and the calibration slices timed just before
    and after it alike.  So each run's time is divided by the mean of the
    two slices that bracket it, and the medians of those ratios are the
    timing metrics.  Raw seconds are returned too, for the printout.
    """
    tally = Tally()
    run_s: list[float] = []
    run_cal: list[float] = []
    node_rounds: list[int] = []
    first: list = []
    engines: set[str] = set()
    before = None
    for in_first_cycle, inputs in _runs(workload, seed, seconds):
        if before is None:
            before = calibration_slice()
        result, elapsed = _timed(inputs)
        after = calibration_slice()
        tally.check(inputs, result)
        run_s.append(elapsed)
        run_cal.append(elapsed / ((before + after) / 2))
        node_rounds.append(inputs.config.n * result.metrics.rounds_executed)
        before = after
        engines.add(result.engine)
        if in_first_cycle:
            first.append(result.metrics)
    metrics = {
        "run_cal": statistics.median(run_cal),
        "node_rounds_per_cal": statistics.median(r / c for r, c in zip(node_rounds, run_cal)),
        "completion_rounds": statistics.mean(_completion_round(m) for m in first),
        "completed_share": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "run_s": statistics.median(run_s),
    }
    return tally, metrics, first, engines


def calibration_slice() -> float:
    """Seconds for one pass of a fixed calibration loop on this host.

    The loop mixes the two kinds of work the workloads do: numpy array
    passes (XOR, shift, gather, sort over uint64 rows) and interpreted
    Python (dict updates).  It never changes, so it is the unit that
    ``run_cal`` and ``node_rounds_per_cal`` are expressed in.
    """
    import numpy as np

    rows = np.random.default_rng(12345).integers(0, 2**63, size=(512, 64), dtype=np.uint64)
    order = np.random.default_rng(54321).permutation(512)
    table: dict[int, int] = {}
    start = time.perf_counter()
    for _ in range(150):
        rows ^= rows[order] >> np.uint64(1)
        rows.sort(axis=1)
    for i in range(90000):
        table[i % 977] = table.get(i % 977, 0) ^ (i * 2654435761 & 0xFFFF)
    return time.perf_counter() - start


def measure_traced(workload: Workload, seed: int, seconds: float):
    """Per-layer metrics; returns ``(tally, metrics, engines seen)``."""
    from repro.obs import SystemClock, TraceRecorder

    from ledger import Ledger, installed, wrapped_call_cost

    tally = Tally()
    ledgers: list[Ledger] = []
    profiles: list[dict] = []
    traced_s: list[float] = []
    bare_s: list[float] = []
    first: list[tuple[Ledger, object]] = []  # first cycle: (ledger, RunMetrics)
    engines: set[str] = set()
    for in_first_cycle, inputs in _runs(workload, seed, seconds):
        bare, elapsed = _timed(inputs)
        tally.check(inputs, bare)
        bare_s.append(elapsed)
        ledger, recorder = Ledger(), TraceRecorder(clock=SystemClock())
        with installed(ledger):
            traced, elapsed = _timed(inputs, trace=recorder)
        tally.check(inputs, traced)
        traced_s.append(elapsed)
        ledgers.append(ledger)
        profiles.append(recorder.profiler.report())
        engines.add(traced.engine)
        if in_first_cycle:
            first.append((ledger, traced.metrics))

    # Seconds are means over every traced run; counts are means over the
    # first cycle, a fixed set of instances, so they repeat exactly.
    runs = len(ledgers)
    per_run = statistics.fmean

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def count(key: str) -> float:
        return per_run(ledger.counts[key] for ledger, _ in first)

    def calls(metric: str) -> float:
        return per_run(ledger.calls[metric] for ledger, _ in first)

    metrics = {m: per_run(ledger.seconds[m] for ledger in ledgers) for m in LAYER_SECONDS}
    traced_run_s = per_run(traced_s)
    # The traced runs carry the ledger's wrappers too; take their cost out
    # so obs.trace_overhead shows the TraceRecorder alone.
    call_cost = wrapped_call_cost()
    wrap_s = [sum(ledger.calls.values()) * call_cost for ledger in ledgers]
    deliveries = sum(m.deliveries for _, m in first)
    useless = sum(m.useless_deliveries for _, m in first)
    metrics.update(
        {
            "driver.self_s": traced_run_s - sum(metrics[m] for m in LAYER_SECONDS),
            "gf.insert_vectors": count("gf.insert_vectors"),
            "gf.innovative_ratio": ratio(count("gf.innovative"), count("gf.insert_vectors")),
            "faults.edges_kept_ratio": ratio(count("faults.edges_out"), count("faults.edges_in")),
            "kernel.compose_all_calls": calls("kernel.compose_all_s"),
            "coding.subspace_inserts": calls("coding.subspace_insert_s"),
            "obs.trace_overhead": (sum(traced_s) - sum(wrap_s)) / sum(bare_s),
            "sim.useful_delivery_ratio": 1.0 - ratio(useless, deliveries),
            "bench.wrap_overhead_s": per_run(wrap_s),
            "bench.traced_run_s": traced_run_s,
            "bench.traced_runs": float(runs),
            "host.calibration_s": statistics.median(calibration_slice() for _ in range(5)),
        }
    )
    for phase in PROFILE_PHASES:
        metrics[f"profile.{phase}_s"] = per_run(p.get(phase, {}).get("seconds", 0.0) for p in profiles)
    return tally, metrics, engines


def _recorded_fingerprint(workload: str, seed: int) -> str | None:
    return json.loads(FINGERPRINTS.read_text()).get(workload, {}).get(str(seed))


def report(tally: Tally, metrics: dict[str, float], units: dict[str, str]) -> dict:
    """The result object, with ``metrics`` in ``units`` order."""
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: n={workload.n}, max_rounds={workload.max_rounds}, "
          f"instances {instance_seeds(args.seed)}")
    if args.trace:
        tally, metrics, engines = measure_traced(workload, args.seed, args.seconds)
        units = PER_LAYER_UNITS
        print(f"engine: {', '.join(sorted(engines))}; "
              f"kernel.compose_all_calls per run: {metrics['kernel.compose_all_calls']:g}")
    else:
        tally, metrics, first, engines = measure_untraced(workload, args.seed, args.seconds)
        metrics["setup_s"], raw_setup_s = measure_setup(workload, args.seed)
        units = END_TO_END_UNITS
        print(f"engine: {', '.join(sorted(engines))}; "
              f"rounds per instance: {[m.rounds_executed for m in first]}")
        print(f"median run {metrics['run_s']:.4f} s over {tally.attempted} runs; "
              f"median set-up {raw_setup_s:.4f} s over {SETUP_REPEATS} processes")
        digest = fingerprint(first)
        recorded = _recorded_fingerprint(workload.name, args.seed)
        if recorded is None:
            status = "no recorded fingerprint for this seed"
        else:
            status = "matches recorded" if recorded == digest else f"DIFFERS from recorded {recorded}"
        print(f"behaviour fingerprint {digest}: {status}")
        if recorded not in (None, digest):
            print(f"problem: behaviour changed: fingerprint {digest}, recorded {recorded}")
    print(f"runs: {tally.attempted} attempted, {tally.failed} failed")
    for problem in tally.problems:
        print(f"problem: {problem}")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:.6g} {unit}")
    print(json.dumps(report(tally, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
