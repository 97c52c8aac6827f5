"""Equivalence and contract tests for the runner's two execution engines.

Every run goes through the one round loop (``run_kernel_rounds``); the
kernel engine feeds it a registered packed kernel and the mask engine the
:class:`~repro.simulation.kernels.ObjectKernel` over the per-node protocol
objects.  These tests pin their equivalence across protocol/adversary
pairs, the engine selection rules and the reason each run reports for its
engine, the once-per-topology validation cache, and the ``rng.spawn``
node-seeding scheme.
"""

from __future__ import annotations

import dataclasses

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import (
    GreedyForwardNode,
    IndexedBroadcastNode,
    NaiveCodedNode,
    TokenForwardingNode,
    make_tstable_factory,
)
from repro.coding.rlnc import GenerationState
from repro.network import (
    BottleneckAdversary,
    FaultModel,
    FrontierLossStrategy,
    OmniscientBottleneckAdversary,
    PathShuffleAdversary,
    RandomConnectedAdversary,
    StaticAdversary,
    TStableAdversary,
    Topology,
    ring_topology,
)
from repro.network.stability import is_t_stable, max_stability
from repro.obs import TraceRecorder
from repro.simulation import run_dissemination, standard_instance
from repro.simulation.kernels import NaiveCodedKernel, TokenForwardingKernel
from repro.simulation.runner import build_nodes
from tests.conftest import make_config

ENGINES = ("kernel", "mask")


def _run(factory, config, adversary, *, engine, seed=3, **kwargs):
    placement = standard_instance(config.n, config.k, config.token_bits, seed=seed)
    return run_dissemination(
        factory, config, placement, adversary, seed=seed, engine=engine, **kwargs
    )


PAIRS = [
    pytest.param(
        TokenForwardingNode, lambda: BottleneckAdversary(), 12, id="forwarding-bottleneck"
    ),
    pytest.param(
        IndexedBroadcastNode,
        lambda: RandomConnectedAdversary(seed=7),
        10,
        id="rlnc-random-connected",
    ),
    pytest.param(
        GreedyForwardNode, lambda: PathShuffleAdversary(seed=5), 10, id="greedy-path-shuffle"
    ),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("factory,adversary_factory,n", PAIRS)
    def test_identical_metrics_and_knowledge(self, factory, adversary_factory, n):
        config = make_config(n)
        results = {
            engine: _run(
                factory,
                config,
                adversary_factory(),
                engine=engine,
                track_progress=True,
            )
            for engine in ENGINES
        }
        kernel, mask = results["kernel"], results["mask"]
        assert mask.completed and mask.correct
        assert dataclasses.asdict(kernel.metrics) == dataclasses.asdict(mask.metrics)
        assert kernel.correct == mask.correct
        for kernel_node, mask_node in zip(kernel.nodes, mask.nodes):
            assert kernel_node.known_token_ids() == mask_node.known_token_ids()

    def test_recorded_topologies_match_across_engines(self):
        config = make_config(10)
        results = {
            engine: _run(
                TokenForwardingNode,
                config,
                TStableAdversary(PathShuffleAdversary(seed=4), 3),
                engine=engine,
                record_topologies=True,
            )
            for engine in ENGINES
        }
        kernel, mask = results["kernel"], results["mask"]
        assert len(kernel.topologies) == len(mask.topologies)
        for kernel_topology, mask_topology in zip(kernel.topologies, mask.topologies):
            assert isinstance(kernel_topology, Topology)
            assert isinstance(mask_topology, Topology)
            assert kernel_topology.edges == mask_topology.edges
        assert is_t_stable(kernel.topologies, 3) and is_t_stable(mask.topologies, 3)
        assert max_stability(kernel.topologies) == max_stability(mask.topologies)


class MutatingGraphAdversary(BottleneckAdversary):
    """Rewires and re-returns ONE ``nx.Graph`` object every round — a legal
    adversary pattern the runner must not serve stale conversions for."""

    def __init__(self):
        super().__init__()
        self._graph = nx.Graph()

    def choose_topology(self, round_index, n, states, messages=None):
        fresh = super().choose_topology(round_index, n, states, messages)
        self._graph.clear()
        self._graph.add_nodes_from(range(n))
        self._graph.add_edges_from(fresh.edges)
        return self._graph


class TestEngineEquivalence2:
    def test_mutated_reused_nx_graph_not_served_stale(self):
        # Regression: the validation cache must key only on immutable
        # Topology objects; an nx.Graph mutated in place between rounds has
        # the same id but different edges.
        config = make_config(10)
        kernel = _run(TokenForwardingNode, config, MutatingGraphAdversary(), engine="kernel")
        mask = _run(TokenForwardingNode, config, MutatingGraphAdversary(), engine="mask")
        assert mask.completed and mask.correct
        assert dataclasses.asdict(kernel.metrics) == dataclasses.asdict(mask.metrics)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_reused_nx_graph_is_recorded_as_topologies(self, engine):
        # The adversary hands back the same mutable nx.Graph every round;
        # each recorded round is its own validated Topology snapshot.
        config = make_config(10)
        result = _run(
            TokenForwardingNode,
            config,
            MutatingGraphAdversary(),
            engine=engine,
            record_topologies=True,
        )
        assert result.engine == engine
        assert len(result.topologies) == result.metrics.rounds_executed
        assert all(isinstance(t, Topology) for t in result.topologies)
        assert len({frozenset(map(frozenset, t.edges)) for t in result.topologies}) > 1


class OpaqueKnowledgeNode(TokenForwardingNode):
    """Same behaviour, but overrides ``known_token_ids`` — the ``known`` dict
    may then not be the authoritative knowledge record, so the runner
    rejects it."""

    def known_token_ids(self) -> frozenset:
        return frozenset(self.known)


class TestEngineSelection:
    def test_auto_prefers_kernel_engine(self):
        config = make_config(8)
        result = _run(
            TokenForwardingNode,
            config,
            BottleneckAdversary(),
            engine="auto",
            record_topologies=True,
        )
        assert result.completed and result.engine == "kernel"
        assert all(isinstance(t, Topology) for t in result.topologies)

    @pytest.mark.parametrize("engine", ("auto", "mask", "kernel"))
    def test_opaque_protocols_rejected_on_every_engine(self, engine):
        config = make_config(8)
        with pytest.raises(ValueError, match="knowledge-mask"):
            _run(OpaqueKnowledgeNode, config, BottleneckAdversary(), engine=engine)

    def test_unknown_engine_rejected(self):
        config = make_config(8)
        with pytest.raises(ValueError, match="engine"):
            _run(TokenForwardingNode, config, BottleneckAdversary(), engine="turbo")

    def test_legacy_engine_rejected(self):
        config = make_config(8)
        with pytest.raises(ValueError, match="'auto', 'mask' or 'kernel'"):
            _run(TokenForwardingNode, config, BottleneckAdversary(), engine="legacy")


class TestEngineReason:
    """``RunResult.engine_reason`` names why the engine ran, one branch each."""

    def test_registered_kernel(self):
        result = _run(TokenForwardingNode, make_config(8), BottleneckAdversary(), engine="auto")
        assert result.engine == "kernel"
        assert result.engine_reason == "registered TokenForwardingKernel"

    def test_mask_requested(self):
        result = _run(TokenForwardingNode, make_config(8), BottleneckAdversary(), engine="mask")
        assert result.engine == "mask"
        assert result.engine_reason == "engine='mask' requested"

    def test_no_registered_kernel(self):
        n, stability = 12, 4
        config = make_config(n, stability=stability)
        results = {}
        for engine in ("auto", "mask"):
            factory = make_tstable_factory(config, seed=2)
            adversary = TStableAdversary(PathShuffleAdversary(seed=9), stability)
            results[engine] = _run(factory, config, adversary, engine=engine)
        auto = results["auto"]
        assert auto.engine == "mask" and auto.completed and auto.correct
        assert auto.engine_reason == (
            "no registered RoundKernel for TStablePatchFactory under this configuration"
        )
        assert dataclasses.asdict(auto.metrics) == dataclasses.asdict(
            results["mask"].metrics
        )

    def test_kernel_without_message_views(self, monkeypatch):
        monkeypatch.setattr(NaiveCodedKernel, "supports_message_views", False)
        result = _run(
            NaiveCodedNode, make_config(8), OmniscientBottleneckAdversary(), engine="auto"
        )
        assert result.engine == "mask"
        assert result.engine_reason == (
            "NaiveCodedKernel builds no per-node message views for an omniscient "
            "(sees_messages) adversary"
        )

    def test_kernel_without_state_views(self, monkeypatch):
        monkeypatch.setattr(TokenForwardingKernel, "supports_state_views", False)
        result = _run(
            TokenForwardingNode,
            make_config(8),
            BottleneckAdversary(),
            engine="auto",
            faults=FaultModel(strategy=FrontierLossStrategy(probability=0.5)),
        )
        assert result.engine == "mask"
        assert result.engine_reason == (
            "TokenForwardingKernel exposes no per-round state views to a "
            "state-aware (wants_state) fault strategy"
        )

    def test_kernel_unsupported_by_the_built_nodes(self, monkeypatch):
        original_init = GenerationState.__init__

        def array_pipeline_init(self, generation):
            original_init(self, generation)
            self._mask_native = False

        monkeypatch.setattr(GenerationState, "__init__", array_pipeline_init)
        result = _run(
            IndexedBroadcastNode, make_config(8), RandomConnectedAdversary(seed=1), engine="auto"
        )
        assert result.engine == "mask"
        assert result.engine_reason.startswith(
            "IndexedBroadcastKernel: KernelUnsupported: "
        )

    def test_reason_rides_the_trace_context(self):
        recorder = TraceRecorder()
        result = _run(
            make_tstable_factory(make_config(8, stability=2), seed=1),
            make_config(8, stability=2),
            TStableAdversary(PathShuffleAdversary(seed=2), 2),
            engine="auto",
            trace=recorder,
        )
        trace = recorder.to_trace()
        assert trace.context["engine"] == "mask"
        assert trace.context["engine_reason"] == result.engine_reason
        assert "engine_reason" not in trace.content


class TestValidationCache:
    def test_static_topology_validated_once(self, monkeypatch):
        calls = {"n": 0}
        original = Topology.validate

        def counting_validate(self, n=None):
            calls["n"] += 1
            return original(self, n)

        monkeypatch.setattr(Topology, "validate", counting_validate)
        config = make_config(8)
        result = _run(
            TokenForwardingNode,
            config,
            StaticAdversary(ring_topology(8)),
            engine="mask",
        )
        assert result.metrics.rounds_executed > 5
        # Once inside StaticAdversary's own constructor-time check, once in
        # the runner's identity-keyed cache — never once per round.
        assert calls["n"] <= 2

    def test_tstable_blocks_validated_once_per_block(self, monkeypatch):
        calls = {"n": 0}
        original = Topology.validate

        def counting_validate(self, n=None):
            calls["n"] += 1
            return original(self, n)

        monkeypatch.setattr(Topology, "validate", counting_validate)
        stability = 5
        config = make_config(8, stability=stability)
        result = _run(
            TokenForwardingNode,
            config,
            TStableAdversary(PathShuffleAdversary(seed=1), stability),
            engine="mask",
        )
        rounds = result.metrics.rounds_executed
        assert rounds > stability
        blocks = -(-rounds // stability)
        assert calls["n"] <= blocks + 1


class TestNodeSeeding:
    """``build_nodes`` derives node randomness via ``rng.spawn``.

    Seed-compat note: before the round-engine PR, children were re-seeded
    with ``default_rng(rng.integers(0, 2**63 - 1))`` — a single 63-bit draw
    with a documented-exclusive upper bound.  The spawn scheme produces
    statistically independent SeedSequence streams instead; executions for a
    given master seed are still fully deterministic, but differ from runs
    recorded under the old scheme.
    """

    def test_spawn_streams_deterministic(self, rng):
        config = make_config(6)
        placement = standard_instance(6, 6, 8, seed=0)
        draws = []
        for _ in range(2):
            nodes = build_nodes(
                IndexedBroadcastNode, config, placement, np.random.default_rng(42)
            )
            draws.append([node.rng.integers(0, 2**32) for node in nodes])
        assert draws[0] == draws[1]

    def test_spawn_streams_differ_across_nodes(self):
        config = make_config(6)
        placement = standard_instance(6, 6, 8, seed=0)
        nodes = build_nodes(
            IndexedBroadcastNode, config, placement, np.random.default_rng(42)
        )
        first_draws = {int(node.rng.integers(0, 2**63)) for node in nodes}
        assert len(first_draws) == len(nodes)

    def test_full_run_deterministic_for_fixed_seed(self):
        config = make_config(8)
        first = _run(IndexedBroadcastNode, config, BottleneckAdversary(), engine="auto")
        second = _run(IndexedBroadcastNode, config, BottleneckAdversary(), engine="auto")
        assert dataclasses.asdict(first.metrics) == dataclasses.asdict(second.metrics)
