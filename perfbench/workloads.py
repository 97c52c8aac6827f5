"""The benchmark's four seeded dissemination workloads.

Each workload is one protocol on one adversarial network, run through the
public ``run_dissemination`` API with ``engine="auto"``.  A benchmark seed
expands into a fixed cycle of ``INSTANCES`` instance seeds; each instance
seed drives the token placement, the adversary's schedule, the fault model
and the nodes' randomness.  Every run carries an explicit ``max_rounds``
cap well above the rounds the workload needs, so a stalled run ends as a
counted failure instead of running to the runner's ``20*n*k + 200`` default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Instance seeds per benchmark seed.  Completion rounds and the behaviour
#: fingerprint are taken over this fixed set, so a speed-only change that
#: fits more runs into the measured window cannot move them.
INSTANCES = 8


@dataclass(frozen=True)
class Inputs:
    """Everything one ``run_dissemination`` call needs."""

    factory: object
    config: object
    placement: object
    adversary: object
    faults: object | None
    seed: int
    max_rounds: int


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    max_rounds: int
    build: Callable[["Workload", int], Inputs]

    def inputs(self, seed: int) -> Inputs:
        return self.build(self, seed)


def instance_seeds(seed: int) -> list[int]:
    """The fixed cycle of instance seeds a benchmark seed expands into."""
    return [seed * INSTANCES + i for i in range(INSTANCES)]


def _config(n: int, b: int, stability: int = 1):
    from repro.algorithms.base import ProtocolConfig
    from repro.tokens import MessageBudget

    return ProtocolConfig(
        n=n, k=n, token_bits=8, budget=MessageBudget(b=b), stability=stability
    )


def _coded_ring(w: Workload, seed: int) -> Inputs:
    from repro.algorithms import IndexedBroadcastNode
    from repro.network import ShiftedRingAdversary
    from repro.simulation import standard_instance

    return Inputs(
        IndexedBroadcastNode,
        _config(w.n, w.n + 16),
        standard_instance(w.n, w.n, 8, seed=seed),
        ShiftedRingAdversary(),
        None,
        seed,
        w.max_rounds,
    )


def _forward_markov(w: Workload, seed: int) -> Inputs:
    from repro.algorithms import TokenForwardingNode
    from repro.scenarios import make_scenario
    from repro.simulation import standard_instance

    return Inputs(
        TokenForwardingNode,
        _config(w.n, w.n + 16),
        standard_instance(w.n, w.n, 8, seed=seed),
        make_scenario("edge_markov", w.n, seed=seed),
        None,
        seed,
        w.max_rounds,
    )


def _coded_bridge(w: Workload, seed: int) -> Inputs:
    from repro.algorithms import IndexedBroadcastNode
    from repro.scenarios import fault_model_for, make_scenario
    from repro.simulation import standard_instance

    return Inputs(
        IndexedBroadcastNode,
        _config(w.n, w.n + 16),
        standard_instance(w.n, w.n, 8, seed=seed),
        make_scenario("bridge_loss_markov", w.n, seed=seed),
        fault_model_for("bridge_loss_markov", w.n, seed=seed),
        seed,
        w.max_rounds,
    )


def _tstable_patch(w: Workload, seed: int) -> Inputs:
    from repro.algorithms import make_tstable_factory
    from repro.network import PathShuffleAdversary, TStableAdversary
    from repro.simulation import standard_instance

    stability = 4
    config = _config(w.n, w.n + 32, stability)
    return Inputs(
        make_tstable_factory(config, seed=seed),
        config,
        standard_instance(w.n, w.n, 8, seed=seed),
        TStableAdversary(PathShuffleAdversary(seed=seed + 1), stability),
        None,
        seed,
        w.max_rounds,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # ~132 rounds; the cap is 4x that.
        Workload("coded_ring", 256, 600, _coded_ring),
        # ~2,690 rounds; Theta(nk) forwarding.
        Workload("forward_markov", 128, 8000, _forward_markov),
        # 73-79 rounds over survivors.
        Workload("coded_bridge", 192, 400, _coded_bridge),
        # ~110 rounds on the object (mask) engine.
        Workload("tstable_patch", 64, 500, _tstable_patch),
    )
}


def run(inputs: Inputs, trace=None):
    """One dissemination run of ``inputs``; returns the ``RunResult``."""
    from repro.simulation import run_dissemination

    return run_dissemination(
        inputs.factory,
        inputs.config,
        inputs.placement,
        inputs.adversary,
        seed=inputs.seed,
        max_rounds=inputs.max_rounds,
        engine="auto",
        faults=inputs.faults,
        trace=trace,
    )


def succeeded(result) -> bool:
    """Completed within the cap and verified correct (survivors under faults)."""
    return result.correct is True


def fingerprint(run_metrics) -> str:
    """Digest of the ``RunMetrics`` of one run per instance, in cycle order."""
    import hashlib
    import json

    payload = json.dumps([m.to_dict() for m in run_metrics], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
