"""The synchronous round executor for the dynamic network model.

One round (Section 4.1), for an adaptive adversary:

1. each node's sanitised state is snapshotted;
2. the adversary fixes the connected topology ``G(t)`` from the snapshot;
3. each node composes its O(b)-bit broadcast message *without knowing its
   neighbours*;
4. every node receives the messages of its ``G(t)``-neighbours.

Omniscient adversaries (``sees_messages``) are instead shown the composed
messages before choosing the topology, which models "knowing all the
randomness in advance" operationally (Section 6).

The runner also enforces the message budget, tracks metrics, detects
completion (every node can output every token), and verifies payload
correctness at the end.

There is one round loop, :func:`~repro.simulation.kernels.run_kernel_rounds`,
and two engines that feed it a :class:`~repro.simulation.kernels.RoundKernel`:

* **kernel** — a kernel registered for the protocol's node class: the
  whole network's state lives in packed numpy arrays, with no per-node
  Python objects on the hot path; the final state is materialised back
  into ordinary nodes.
* **mask** — the :class:`~repro.simulation.kernels.ObjectKernel`: the
  per-node protocol objects themselves, one ``compose`` / ``deliver`` call
  per node, with completion tracked on each node's incrementally
  maintained ``knowledge_mask``.  It runs every protocol.

Under ``engine="auto"`` the registered kernel wins when the factory is its
node class, the configuration is supported and the kernel can serve the
adversary and the fault strategy; otherwise the object kernel runs, and
``RunResult.engine_reason`` says why.  Both engines deliver each node's
inbox in ascending neighbour-uid order and produce identical metrics for
identical seeds (verified by tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..algorithms.base import ProtocolConfig, ProtocolFactory, ProtocolNode
from ..network.adversary import Adversary
from ..network.faults import BoundFaults, FaultModel, SpanGuard
from ..obs.profiler import NULL_PROFILER
from ..obs.trace import TraceRecorder
from ..tokens.token import TokenId, TokenPlacement
from . import kernels
from .metrics import RunMetrics

__all__ = ["RunResult", "run_dissemination", "build_nodes"]


@dataclass
class RunResult:
    """Outcome of one dissemination run.

    Attributes
    ----------
    metrics:
        Aggregated counters (rounds, bits, completion round, ...).
    nodes:
        The final node objects (useful for post-hoc inspection in tests).
    correct:
        True iff at completion every node output every token with the right
        payload.  ``None`` when the run did not complete within its limit.
    topologies:
        The recorded topology sequence (only if ``record_topologies``):
        one validated :class:`~repro.network.topology.Topology` per round
        on either engine, whatever the adversary returned.  They satisfy
        the stability checkers in :mod:`repro.network.stability`.
    engine:
        Which execution engine actually ran: ``"kernel"`` or ``"mask"``
        (resolves the ``engine="auto"`` choice for callers).
    engine_reason:
        Why that engine ran, e.g. ``"registered TokenForwardingKernel"`` or
        ``"no registered RoundKernel for TStablePatchFactory"``.
    """

    metrics: RunMetrics
    nodes: list[ProtocolNode]
    correct: bool | None
    topologies: list = field(default_factory=list)
    engine: str = ""
    engine_reason: str = ""

    @property
    def rounds(self) -> int:
        """Rounds until completion (falls back to rounds executed)."""
        if self.metrics.completion_round is not None:
            return self.metrics.completion_round
        return self.metrics.rounds_executed

    @property
    def completed(self) -> bool:
        """True iff the run disseminated everything within its round limit."""
        return self.metrics.completed


def build_nodes(
    factory: ProtocolFactory,
    config: ProtocolConfig,
    placement: TokenPlacement,
    rng: np.random.Generator,
) -> list[ProtocolNode]:
    """Instantiate and set up one protocol node per network participant.

    Node randomness comes from ``rng.spawn``-ed child generators —
    statistically independent streams derived through NumPy's SeedSequence
    spawning, replacing the earlier ``default_rng(rng.integers(0, 2**63 - 1))``
    re-seeding (which drew from a documented-exclusive upper bound and keyed
    children off a single 63-bit draw).  Seed-compat: runs seeded under the
    old scheme reproduce different (still deterministic) executions.
    """
    nodes: list[ProtocolNode] = []
    for uid, node_rng in enumerate(rng.spawn(config.n)):
        node = factory(uid, config, node_rng)
        node.setup(placement.tokens_at(uid))
        nodes.append(node)
    return nodes


def _coded_span_guard(nodes: Sequence[ProtocolNode]) -> SpanGuard | None:
    """The Byzantine verification oracle, when the protocol supports one.

    Only protocols with a shared static generation (indexed broadcast on
    the mask-native GF(2) pipeline) expose a source span receivers can
    verify against; for everything else Byzantine traffic is unverifiable
    and the fault plan discards it wholesale.
    """
    node0 = nodes[0] if nodes else None
    generation = getattr(node0, "generation", None)
    state = getattr(node0, "state", None)
    if generation is None or state is None:
        return None
    if not all(getattr(node.state, "_mask_native", False) for node in nodes):
        return None
    sources: list[int] = []
    for node in nodes:
        sources.extend(node.state.subspace._gf2.rows_in_insertion_order())
    if not any(sources):
        return None
    return SpanGuard(generation.vector_length, sources)


def _select_kernel(
    engine: str,
    factory: ProtocolFactory,
    config: ProtocolConfig,
    placement: TokenPlacement,
    token_index: Mapping[TokenId, int],
    nodes: list[ProtocolNode],
    adversary: Adversary,
    *,
    wants_state: bool,
) -> tuple[kernels.RoundKernel, str]:
    """The kernel that runs this protocol, and why it was chosen.

    A registered kernel runs when the factory *is* its node class (exact
    identity, so subclasses never inherit a kernel), it supports the
    configuration, it can serve an omniscient adversary and a state-aware
    fault strategy, and it accepts the built nodes.  Otherwise ``"auto"``
    runs the :class:`~repro.simulation.kernels.ObjectKernel` and
    ``"kernel"`` raises with the same reason.
    """
    if engine == "mask":
        return kernels.ObjectKernel(config, placement, token_index, nodes), (
            "engine='mask' requested"
        )
    kernel_cls = kernels.kernel_for(factory, config)
    if kernel_cls is None:
        name = getattr(factory, "__name__", type(factory).__name__)
        reason = f"no registered RoundKernel for {name} under this configuration"
    elif adversary.sees_messages and not kernel_cls.supports_message_views:
        reason = (
            f"{kernel_cls.__name__} builds no per-node message views for an "
            "omniscient (sees_messages) adversary"
        )
    elif wants_state and not kernel_cls.supports_state_views:
        reason = (
            f"{kernel_cls.__name__} exposes no per-round state views to a "
            "state-aware (wants_state) fault strategy"
        )
    else:
        try:
            kernel = kernel_cls(config, placement, token_index, nodes)
        except kernels.KernelUnsupported as exc:
            # Node-level preconditions are only visible post-construction.
            reason = f"{kernel_cls.__name__}: KernelUnsupported: {exc}"
        else:
            return kernel, f"registered {kernel_cls.__name__}"
    if engine == "kernel":
        raise ValueError(f"engine='kernel' cannot run: {reason}")
    return kernels.ObjectKernel(config, placement, token_index, nodes), reason


def _check_correctness(nodes: Sequence[ProtocolNode], placement: TokenPlacement) -> bool:
    expected = placement.by_id()
    for node in nodes:
        decoded = node.decoded_tokens()
        for token_id, token in expected.items():
            got = decoded.get(token_id)
            if got is None or got.payload != token.payload:
                return False
    return True


def run_dissemination(
    factory: ProtocolFactory,
    config: ProtocolConfig,
    placement: TokenPlacement,
    adversary: Adversary,
    *,
    seed: int = 0,
    max_rounds: int | None = None,
    stop_at_completion: bool = True,
    record_topologies: bool = False,
    track_progress: bool = False,
    engine: str = "auto",
    faults: FaultModel | None = None,
    trace: TraceRecorder | None = None,
) -> RunResult:
    """Run one complete dissemination execution and return its result.

    Parameters
    ----------
    factory:
        Builds a protocol node given (uid, config, rng).
    config:
        Shared problem parameters.
    placement:
        The adversarially-chosen initial token placement.
    adversary:
        The topology-controlling adversary.
    seed:
        Master seed; node randomness and any runner randomness derive from it.
    max_rounds:
        Hard round limit; defaults to a generous multiple of the worst
        baseline bound ``n * k`` (so non-terminating bugs surface as a
        non-completed run rather than a hang).
    stop_at_completion:
        Stop as soon as every node knows every token (the usual measurement
        mode); set False to keep running until nodes terminate locally.
    record_topologies:
        Keep the per-round graphs (for stability checks in tests).
    track_progress:
        Record per-round (min, mean) known-token counts in the metrics.
    engine:
        ``"auto"`` (a registered kernel when one applies, else the object
        kernel), ``"kernel"`` (require a registered
        :class:`~repro.simulation.kernels.RoundKernel`; raises
        ``ValueError`` with the reason it cannot run) or ``"mask"`` (the
        :class:`~repro.simulation.kernels.ObjectKernel`, for any
        protocol).  A node class overriding ``known_token_ids()`` is
        rejected on every engine.
    faults:
        Optional :class:`~repro.network.faults.FaultModel` — the hostile
        axis orthogonal to ``adversary``: per-edge loss/duplication,
        crash–recovery intervals and permanent crashes, scheduled
        partitions, adaptive :class:`~repro.network.faults.FaultStrategy`
        adversaries (including protocol-state-aware ``wants_state``
        strategies), Byzantine coded senders, radio-collision rounds and
        fake quorum membership.  Fault randomness comes from one
        ``rng.spawn``-ed stream drawn after node construction, so a benign
        model leaves the run bit-identical to ``faults=None``.  Under
        faults the stop rule, the reported correctness and the survivor
        metrics are computed over the never-permanently-crashed honest
        population (recovering nodes included, fake quorum members
        excluded), queried per round because adaptive strategies may claim
        victims mid-run.  A :class:`~repro.network.faults.QuorumModel`
        additionally requires its fake nodes to hold no placement tokens.
    trace:
        Optional :class:`~repro.obs.trace.TraceRecorder` collecting one
        columnar record per executed round (per-node knowledge counts and
        coded ranks, fault events, per-round counter deltas) plus — when
        the recorder carries a clock — wall-clock phase timings.  Tracing
        never changes the execution: every engine produces bit-identical
        ``RunMetrics`` with and without a recorder attached, and the
        recorded trace *content* is byte-identical across engines.  The
        engine and ``engine_reason`` ride the manifest's context section.
    """
    if engine not in ("auto", "mask", "kernel"):
        raise ValueError(
            f"engine must be 'auto', 'mask' or 'kernel', got {engine!r}"
        )
    adversary.reset()
    rng = np.random.default_rng(seed)
    nodes = build_nodes(factory, config, placement, rng)
    metrics = RunMetrics()

    # Fault binding happens after node construction and only for an active
    # model, so the node rng streams — and benign runs entirely — stay
    # bit-identical to the faultless code path.
    bound: BoundFaults | None = None
    if faults is not None and faults.active:
        bound = faults.bind(config.n, rng.spawn(1)[0])
        if bound.wants_guard:
            bound.attach_guard(_coded_span_guard(nodes))
        if faults.quorum is not None:
            # Fake quorum members never originate honest tokens: a
            # placement seeding one would let a non-member hold knowledge
            # the honest quorum is then measured against.
            for uid in faults.quorum.fake:
                if placement.tokens_at(uid):
                    raise ValueError(
                        f"fake quorum node {uid} holds placement tokens; "
                        "fake members must never originate honest tokens"
                    )

    if max_rounds is None:
        max_rounds = 20 * config.n * max(1, config.k) + 200

    # A stable token-id -> bit-index mapping shared by all nodes; completion
    # is tracked on the nodes' knowledge masks over it.
    token_index = {tid: i for i, tid in enumerate(sorted(placement.all_ids()))}
    if not all(node.enable_mask_tracking(token_index) for node in nodes):
        raise ValueError(
            "every node must support knowledge-mask tracking; a node class "
            "overriding known_token_ids() is not supported"
        )
    kernel, reason = _select_kernel(
        engine,
        factory,
        config,
        placement,
        token_index,
        nodes,
        adversary,
        wants_state=bound is not None and bound.wants_state,
    )
    engine_name = "mask" if isinstance(kernel, kernels.ObjectKernel) else "kernel"
    if trace is not None:
        trace.begin_run(
            config=config,
            seed=seed,
            engine=engine_name,
            engine_reason=reason,
            factory=factory,
            faults=faults,
        )
    topologies = kernels.run_kernel_rounds(
        kernel,
        config,
        adversary,
        metrics,
        max_rounds=max_rounds,
        stop_at_completion=stop_at_completion,
        record_topologies=record_topologies,
        track_progress=track_progress,
        faults=bound,
        trace=trace,
    )
    profiler = NULL_PROFILER if trace is None else trace.profiler
    with profiler.span("materialise"):
        kernel.to_nodes(nodes)

    if bound is None:
        checked, completion_round = nodes, metrics.completion_round
    else:
        survivor_uids = bound.survivor_indices.tolist()
        metrics.survivors = len(survivor_uids)
        metrics.completed_survivors = int(
            kernel.completed_flags()[bound.survivor_indices].sum()
        )
        metrics.recoveries, metrics.reconvergence_rounds = bound.recovery_metrics(
            metrics.rounds_executed, metrics.survivor_completion_round
        )
        if bound.model.quorum is not None:
            metrics.fake_nodes = len(bound.model.quorum.fake)
        checked = [nodes[u] for u in survivor_uids]
        completion_round = metrics.survivor_completion_round
    correct = (
        _check_correctness(checked, placement) if completion_round is not None else None
    )
    return RunResult(
        metrics=metrics,
        nodes=nodes,
        correct=correct,
        topologies=topologies,
        engine=engine_name,
        engine_reason=reason,
    )
