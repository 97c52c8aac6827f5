"""Per-layer spans for the traced benchmark run.

A :class:`Ledger` wraps the public calls into each layer of ``repro`` with
a timing span.  Spans nest: a layer's *self* time is its span minus the
spans of the layer calls made inside it, so the self times of all layers
add up to the time spent inside top-level layer calls, and the rest of a
run is the round driver's own time.  Each metric name is the layer (the
``repro`` module family) plus the call, e.g. ``gf.insert_batch_s``.

Wrappers are installed only inside :func:`installed` and the original
functions are put back when it exits, so untraced runs call the program
exactly as it ships.
"""

from __future__ import annotations

import functools
import statistics
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

#: ``observe(counts, args, result)`` adds a call's work counts to ``counts``.
Observer = Callable[[Counter, tuple, object], None]


class Ledger:
    """Self seconds, inclusive seconds, call counts and work counts per metric.

    Inclusive seconds count a span whole, children included; a span nested
    in another of the same metric is counted in both.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._clock = clock

    def wrap(self, metric: str, fn: Callable, observe: Observer | None = None):
        """``fn`` timed as one span of ``metric``."""
        seconds, inclusive, calls, counts = self.seconds, self.inclusive, self.calls, self.counts
        stack, clock = self._stack, self._clock

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(counts, args, result)
                return result
            finally:
                elapsed = clock() - start
                seconds[metric] += elapsed - stack.pop()
                inclusive[metric] += elapsed
                calls[metric] += 1
                if stack:
                    stack[-1] += elapsed

        return spanned


def wrapped_call_cost() -> float:
    """Seconds one empty call costs more when wrapped than when bare.

    The median over 5 passes of 20000 calls each.
    """
    calls = 20000

    def empty():
        return None

    wrapped = Ledger().wrap("cost", empty)
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            empty()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
    return max(0.0, statistics.median(costs))


def _subclasses(cls: type) -> Iterator[type]:
    seen: set[type] = set()
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in seen:
            seen.add(sub)
            pending.extend(sub.__subclasses__())
            yield sub


def _defined(classes, name: str) -> list[type]:
    """The classes among ``classes`` that define a concrete ``name`` themselves."""
    return [
        cls
        for cls in classes
        if isinstance(cls.__dict__.get(name), types.FunctionType)
        and not getattr(cls.__dict__[name], "__isabstractmethod__", False)
    ]


def _count_insert(counts: Counter, args: tuple, result) -> None:
    counts["gf.insert_vectors"] += int(args[2].shape[0])
    counts["gf.innovative"] += int(result.sum())


def _count_bind(counts: Counter, args: tuple, result) -> None:
    counts["faults.edges_in"] += int(args[1].size)
    counts["faults.edges_out"] += int(result[0].size)


def targets() -> list[tuple[str, type, str, Observer | None]]:
    """``(metric, owner class, method name, observer)`` for every traced call."""
    from repro.algorithms.tstable import PatchShareCoordinator, TStablePatchNode
    from repro.coding.subspace import Subspace
    from repro.gf.packed import GF2BasisBatch
    from repro.network.adversary import Adversary
    from repro.network.faults import RoundFaultPlan
    from repro.network.topology import Topology, TopologyValidationCache
    from repro.obs.trace import TraceRecorder
    from repro.simulation.kernels import RoundKernel

    found: list[tuple[str, type, str, Observer | None]] = [
        ("gf.insert_batch_s", GF2BasisBatch, "insert_batch", _count_insert),
        ("gf.combine_sorted_s", GF2BasisBatch, "combine_sorted", None),
        ("gf.draw_random_picks_s", GF2BasisBatch, "draw_random_picks", None),
        ("gf.decode_s", GF2BasisBatch, "decode_payload_masks_batch", None),
        ("network.csr_s", Topology, "csr_adjacency", None),
        ("network.validate_s", TopologyValidationCache, "validated", None),
        ("faults.bind_edges_s", RoundFaultPlan, "bind_edges", _count_bind),
        ("algorithms.coordinator_s", PatchShareCoordinator, "after_round", None),
        ("algorithms.coordinator_s", PatchShareCoordinator, "on_topology", None),
        ("algorithms.compose_s", TStablePatchNode, "compose", None),
        ("algorithms.deliver_s", TStablePatchNode, "deliver", None),
        ("coding.subspace_insert_s", Subspace, "insert", None),
        ("obs.observe_round_s", TraceRecorder, "observe_round", None),
    ]
    adversaries = _defined(_subclasses(Adversary), "choose_topology")
    found += [("network.choose_topology_s", cls, "choose_topology", None) for cls in adversaries]
    kernels = list(_subclasses(RoundKernel))
    for method in ("compose_all", "deliver_all", "to_nodes"):
        found += [(f"kernel.{method}_s", cls, method, None) for cls in _defined(kernels, method)]
    return found


@contextmanager
def installed(ledger: Ledger):
    """Route every traced call through ``ledger``; restore the originals on exit."""
    saved: list[tuple[type, str, object]] = []
    try:
        for metric, owner, name, observe in targets():
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, ledger.wrap(metric, original, observe))
        yield ledger
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
