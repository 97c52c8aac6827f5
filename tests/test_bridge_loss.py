"""Bridge finding and seeded runs of :class:`BridgeLossStrategy`.

``_live_bridges`` is checked against the definition — a live edge is a
bridge iff removing it disconnects its endpoints — on hypothesis-drawn
graphs with down and isolated nodes, and on the shapes whose answer is
known (trees, cycles, the dumbbell).  The strategy draws one Bernoulli per
bridge in list order, so the ascending order is part of the contract.

The run cases pin the ``RunMetrics.to_dict()`` digest of seeded
bridge-loss runs on both engines, recorded while bridges were still found
by one mask BFS per spanning-forest edge.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Collection

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import IndexedBroadcastNode, TokenForwardingNode
from repro.network import BridgeLossStrategy, FaultModel, Topology
from repro.network.faults import _live_bridges
from repro.network.graphs import complete_graph, dumbbell_graph, random_tree
from repro.scenarios import make_scenario
from repro.simulation import run_dissemination, standard_instance
from tests.conftest import make_config


def _csr_edges(graph: nx.Graph) -> tuple[np.ndarray, np.ndarray]:
    """``(senders, receivers)`` of the graph's CSR, as ``bind_edges`` sees it."""
    n = graph.number_of_nodes()
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    indices, indptr = Topology.from_nx(graph).csr_adjacency()
    return indices, np.repeat(np.arange(n), np.diff(indptr))


def _bridges_by_definition(graph: nx.Graph, down: Collection[int]) -> list[tuple[int, int]]:
    live = graph.subgraph(u for u in graph if u not in down).copy()
    bridges = []
    for u, v in live.edges:
        live.remove_edge(u, v)
        if not nx.has_path(live, u, v):
            bridges.append((min(u, v), max(u, v)))
        live.add_edge(u, v)
    return sorted(bridges)


def _check(graph: nx.Graph, down: Collection[int] = ()) -> list[tuple[int, int]]:
    n = graph.number_of_nodes()
    senders, receivers = _csr_edges(graph)
    down_mask = np.zeros(n, dtype=bool)
    down_mask[list(down)] = True
    got = _live_bridges(senders, receivers, down_mask, n)
    assert got == _bridges_by_definition(graph, down)
    assert got == sorted(got) and all(u < v for u, v in got)
    return got


class TestLiveBridges:
    @settings(deadline=None, max_examples=200)
    @given(
        n=st.integers(0, 24),
        density=st.floats(0.0, 0.5),
        down_share=st.floats(0.0, 0.4),
        seed=st.integers(0, 10_000),
    )
    def test_matches_the_definition(self, n, density, down_share, seed):
        rng = np.random.default_rng(seed)
        graph = nx.gnp_random_graph(n, density, seed=seed)
        down = {u for u in range(n) if rng.random() < down_share}
        _check(graph, down)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_graphs(self, n):
        assert _check(complete_graph(n)) == ([(0, 1)] if n == 2 else [])
        assert _check(nx.empty_graph(n)) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_every_tree_edge_is_a_bridge(self, seed):
        tree = random_tree(30, np.random.default_rng(seed))
        assert len(_check(tree)) == 29

    def test_a_down_node_splits_the_tree_around_it(self):
        star = nx.star_graph(6)  # hub 0
        assert _check(star, {0}) == []
        assert _check(star, {3}) == [(0, 1), (0, 2), (0, 4), (0, 5), (0, 6)]

    @pytest.mark.parametrize("n", [3, 4, 17])
    def test_no_cycle_edge_is_a_bridge(self, n):
        assert _check(nx.cycle_graph(n)) == []
        # Down one node and the rest of the cycle is a path of bridges.
        assert len(_check(nx.cycle_graph(n), {0})) == n - 2

    def test_dumbbell_has_exactly_its_bridge(self):
        assert _check(dumbbell_graph(10, bridge_left=3, bridge_right=7)) == [(3, 7)]
        # A pendant vertex and isolated vertices around two triangles.
        graph = nx.Graph([(0, 1), (1, 2), (2, 0), (2, 5), (5, 6), (6, 7), (7, 5), (6, 9)])
        graph.add_nodes_from([3, 4, 8])
        assert _check(graph) == [(2, 5), (6, 9)]

    def test_deep_path_needs_no_recursion(self):
        assert len(_check(nx.path_graph(3000))) == 2999


def _case(factory, probability, crashes=()):
    n = 16
    faults = FaultModel(strategy=BridgeLossStrategy(probability), crashes=crashes)
    return factory, make_config(n), standard_instance(n, n, 8, seed=3), faults


RUNS = {
    "indexed-p0.5": (lambda: _case(IndexedBroadcastNode, 0.5), "adbbfa994b621ebc"),
    "indexed-p1.0": (lambda: _case(IndexedBroadcastNode, 1.0), "b44d302c091d18c1"),
    # A recovery interval and a permanent crash: ``down`` is non-empty.
    "indexed-p0.5-crashes": (
        lambda: _case(IndexedBroadcastNode, 0.5, ((2, 5, 40), (7, 30))),
        "c35c0ce2d0163650",
    ),
    "forwarding-p0.5": (lambda: _case(TokenForwardingNode, 0.5), "fb67b553a07c5895"),
}


@pytest.mark.parametrize("engine", ["kernel", "mask"])
@pytest.mark.parametrize("name", list(RUNS))
def test_bridge_loss_run_is_pinned(name, engine):
    build, expected = RUNS[name]
    factory, config, placement, faults = build()
    result = run_dissemination(
        factory, config, placement, make_scenario("rewiring_degree4", 16, seed=4),
        seed=3, max_rounds=400, engine=engine, faults=faults,
    )
    assert result.engine == engine
    assert result.metrics.dropped_deliveries > 0
    payload = json.dumps(result.metrics.to_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest()[:16] == expected
