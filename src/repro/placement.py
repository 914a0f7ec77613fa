"""Server placement for co-retrieved queries — the paper's third use case.

The introduction lists three uses for query-log mining; the third is
"Optimization of the search engine (place similar queries in same server,
since they are bound to be retrieved together)".  This module implements
that planner on top of the similarity machinery:

1. build the mutual-k-NN graph of the (standardised) demand shapes using
   the compressed index — an edge means two queries look alike and will
   co-peak;
2. cluster the graph into demand communities (greedy modularity, via
   :mod:`networkx`);
3. pack the communities onto ``servers`` bins, balancing total demand
   (greedy longest-processing-time), while keeping each community — and
   therefore each co-retrieved family — on one server whenever it fits.

The output is a :class:`PlacementPlan` with per-server assignments, load
shares and a co-location score that the tests assert on (the cinema
family must land together, and the loads must balance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import networkx as nx
import numpy as np

from repro.exceptions import SeriesMismatchError, UnknownQueryError
from repro.index.flat import FlatSketchIndex
from repro.timeseries.collection import TimeSeriesCollection

__all__ = ["PlacementPlan", "plan_placement"]


@dataclass(frozen=True)
class PlacementPlan:
    """A server assignment for every query.

    Attributes
    ----------
    assignments:
        Query name -> server id (``0 .. servers-1``).
    loads:
        Total daily demand per server (sum of the members' mean counts).
    communities:
        The demand communities found, as tuples of query names.
    """

    assignments: Mapping[str, int]
    loads: tuple[float, ...]
    communities: tuple[tuple[str, ...], ...]

    @property
    def servers(self) -> int:
        return len(self.loads)

    def members(self, server: int) -> tuple[str, ...]:
        """Queries placed on one server."""
        if not 0 <= server < self.servers:
            raise IndexError(f"server {server} out of range")
        return tuple(
            name for name, where in self.assignments.items() if where == server
        )

    def server_of(self, name: str) -> int:
        try:
            return self.assignments[name]
        except KeyError:
            raise UnknownQueryError(name) from None

    def colocated(self, a: str, b: str) -> bool:
        """True when two queries share a server."""
        return self.server_of(a) == self.server_of(b)

    def load_imbalance(self) -> float:
        """Max server load divided by the mean load (1.0 = perfect)."""
        loads = np.asarray(self.loads)
        positive = loads[loads > 0]
        if positive.size == 0:
            return 1.0
        return float(loads.max() / loads.mean())


def _knn_graph(collection: TimeSeriesCollection, neighbors: int) -> nx.Graph:
    """Mutual-k-NN graph over demand shapes (edges weighted by affinity)."""
    standardized = collection.standardize()
    matrix = standardized.as_matrix()
    index = FlatSketchIndex(matrix, names=list(collection.names))
    names = collection.names
    graph = nx.Graph()
    graph.add_nodes_from(names)
    neighbor_sets: dict[str, dict[str, float]] = {}
    for position, name in enumerate(names):
        hits, _ = index.search(
            matrix[position], k=min(neighbors + 1, len(names))
        )
        neighbor_sets[name] = {
            hit.name: hit.distance for hit in hits if hit.name != name
        }
    for name, candidates in neighbor_sets.items():
        for other, distance in candidates.items():
            if name in neighbor_sets.get(other, {}):  # mutual
                graph.add_edge(
                    name, other, weight=1.0 / (1.0 + distance)
                )
    return graph


def plan_placement(
    collection: TimeSeriesCollection,
    servers: int,
    neighbors: int = 3,
) -> PlacementPlan:
    """Plan a balanced, similarity-preserving server assignment.

    Parameters
    ----------
    collection:
        The query database (raw counts; standardisation is internal).
    servers:
        Number of servers to spread the queries over.
    neighbors:
        k for the mutual-k-NN similarity graph.
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if len(collection) == 0:
        raise SeriesMismatchError("cannot place an empty collection")
    if neighbors < 1:
        raise ValueError(f"neighbors must be >= 1, got {neighbors}")

    graph = _knn_graph(collection, neighbors)
    communities = [
        tuple(sorted(community))
        for community in nx.community.greedy_modularity_communities(
            graph, weight="weight"
        )
    ]
    # Deterministic order: heaviest demand first (LPT packing).
    demand = {name: float(collection[name].mean) for name in collection.names}
    communities.sort(
        key=lambda members: (-sum(demand[m] for m in members), members)
    )

    loads = [0.0] * servers
    assignments: dict[str, int] = {}
    for members in communities:
        community_demand = sum(demand[m] for m in members)
        target = int(np.argmin(loads))
        # Keep the community together unless it alone dwarfs a fair share
        # (then split it by member, still LPT).
        fair_share = sum(demand.values()) / servers
        if community_demand <= 1.5 * fair_share or servers == 1:
            for member in members:
                assignments[member] = target
            loads[target] += community_demand
        else:
            for member in sorted(members, key=lambda m: -demand[m]):
                where = int(np.argmin(loads))
                assignments[member] = where
                loads[where] += demand[member]

    return PlacementPlan(
        assignments=assignments,
        loads=tuple(loads),
        communities=tuple(communities),
    )
