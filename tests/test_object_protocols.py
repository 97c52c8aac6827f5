"""Pinned runs of the protocols that only the object kernel executes.

``TStablePatchNode``, ``PriorityForwardNode``, ``CentralizedCodedNode`` and
``DeterministicIndexedBroadcastNode`` have no registered packed kernel, so
no kernel-vs-mask parity test covers them.  Each case below pins the
``RunMetrics.to_dict()`` digest of one small seeded run, recorded before
the per-node round loop was folded into ``run_kernel_rounds``.  The cases
include a faulted run (loss, a crash–recovery interval and a permanent
crash) and two omniscient-adversary runs, so the digests also pin the
omniscient compose-first order, the shared coordinator's hook order, and
delivery to nodes whose inbox is empty.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.algorithms import (
    CentralizedCodedNode,
    DeterministicIndexedBroadcastNode,
    PriorityForwardNode,
    ProtocolConfig,
    deterministic_broadcast_config,
    make_tstable_factory,
)
from repro.network import (
    BottleneckAdversary,
    FaultModel,
    OmniscientBottleneckAdversary,
    PathShuffleAdversary,
    RandomConnectedAdversary,
    TStableAdversary,
)
from repro.simulation import run_dissemination, standard_instance
from repro.tokens.token import make_tokens, place_tokens
from tests.conftest import make_config


def _tstable(adversary, stability=4):
    config = make_config(12, stability=stability)
    placement = standard_instance(12, 12, 8, seed=3)
    return make_tstable_factory(config, seed=2), config, placement, adversary, {}


def _deterministic():
    n, k, d = 6, 3, 8
    rng = np.random.default_rng(0)
    tokens = make_tokens(k, d, rng)
    placement = place_tokens(tokens, n, rng)
    base = deterministic_broadcast_config(n, k, d)
    config = ProtocolConfig(
        n=n,
        k=k,
        token_bits=d,
        budget=base.budget,
        field_order=base.field_order,
        extra={
            **dict(base.extra),
            "index_of": {t.token_id: i for i, t in enumerate(tokens)},
        },
    )
    return DeterministicIndexedBroadcastNode, config, placement, BottleneckAdversary(), {}


def _carries_receiver_index(sender, receiver, message) -> bool:
    """A deterministic, content-dependent stand-in for "useful"."""
    return bool((message.mask >> (receiver % message.k)) & 1)


def _plain(factory, n, adversary, **kwargs):
    b = 16 if factory is CentralizedCodedNode else None
    config = make_config(n, b=b)
    return factory, config, standard_instance(n, n, 8, seed=3), adversary, kwargs


CASES = {
    "tstable-path-shuffle": (
        lambda: _tstable(TStableAdversary(PathShuffleAdversary(seed=9), 4)),
        "c0ce13e23344265e",
    ),
    # At T = 2 the first share step runs in the block's first round, so it
    # needs that round's patches from on_topology.
    "tstable-t2-path-shuffle": (
        lambda: _tstable(TStableAdversary(PathShuffleAdversary(seed=9), 2), stability=2),
        "5c50adbee3ed4d13",
    ),
    "priority-forward-path-shuffle": (
        lambda: _plain(PriorityForwardNode, 10, PathShuffleAdversary(seed=8)),
        "15804dbfcc1ec7f3",
    ),
    "centralized-bottleneck": (
        lambda: _plain(CentralizedCodedNode, 12, BottleneckAdversary()),
        "8dab8f19c67b0eea",
    ),
    "deterministic-bottleneck": (_deterministic, "9c1dbb080d601392"),
    "priority-forward-loss-crash": (
        lambda: _plain(
            PriorityForwardNode,
            10,
            RandomConnectedAdversary(seed=4),
            faults=FaultModel(loss=0.2, crashes=((2, 5, 40), (7, 60))),
        ),
        "a621231e3b9f11be",
    ),
    "centralized-omniscient": (
        lambda: _plain(
            CentralizedCodedNode,
            12,
            OmniscientBottleneckAdversary(usefulness_fn=_carries_receiver_index),
        ),
        "22ba9e6009c32802",
    ),
    "tstable-omniscient": (
        lambda: _tstable(OmniscientBottleneckAdversary()),
        "1c5780c0a98b44f9",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_object_protocol_run_is_pinned(name):
    build, expected = CASES[name]
    factory, config, placement, adversary, kwargs = build()
    result = run_dissemination(
        factory, config, placement, adversary, seed=3, max_rounds=400, **kwargs
    )
    assert result.engine == "mask"
    assert result.completed and result.correct
    payload = json.dumps(result.metrics.to_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest()[:16] == expected
