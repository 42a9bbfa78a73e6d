"""Dependency-graph analysis over concrete specs.

Spack models builds as DAGs; this module exposes that DAG as a
``networkx.DiGraph`` and answers scheduling questions the installer and
benches need:

* topological build order (what the installation engine follows),
* the **critical path** of simulated build times — the lower bound on
  makespan with unlimited build parallelism,
* makespan under ``k`` parallel build jobs (list scheduling), which powers
  the build-parallelism ablation.

``networkx`` is imported by the functions that use it, not at module
level: importing ``repro.spack`` (and so every campaign) does not pay for
it.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .installer import _BUILD_COST, _DEFAULT_COST
from .spec import Spec, SpecError

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "spec_to_graph",
    "build_order",
    "critical_path",
    "parallel_makespan",
    "graph_stats",
]


def _node_cost(spec: Spec) -> float:
    if spec.external:
        return 0.0
    return _BUILD_COST.get(spec.name, _DEFAULT_COST)


def spec_to_graph(spec: Spec) -> "nx.DiGraph":
    """DiGraph with an edge dep → dependent (build direction), node attrs
    ``spec`` and ``cost`` (simulated build seconds)."""
    import networkx as nx

    if not spec.concrete:
        raise SpecError(f"graph analysis requires a concrete spec, got {spec}")
    g = nx.DiGraph()
    for node in spec.traverse():
        g.add_node(node.name, spec=node, cost=_node_cost(node))
    for node in spec.traverse():
        for dep in node.dependencies.values():
            g.add_edge(dep.name, node.name)
    if not nx.is_directed_acyclic_graph(g):
        raise SpecError(f"dependency graph of {spec.name} has a cycle")
    return g


def build_order(spec: Spec) -> List[str]:
    """A valid installation order (dependencies before dependents),
    deterministic (lexicographic tie-break)."""
    import networkx as nx

    g = spec_to_graph(spec)
    return list(nx.lexicographical_topological_sort(g))


def critical_path(spec: Spec) -> Tuple[List[str], float]:
    """The longest cost-weighted chain: (package names, total seconds)."""
    import networkx as nx

    g = spec_to_graph(spec)
    dist: Dict[str, float] = {}
    parent: Dict[str, Optional[str]] = {}
    for name in nx.topological_sort(g):
        cost = g.nodes[name]["cost"]
        best_pred, best = None, 0.0
        for pred in g.predecessors(name):
            if dist[pred] >= best:
                best, best_pred = dist[pred], pred
        dist[name] = best + cost
        parent[name] = best_pred
    end = max(dist, key=lambda n: dist[n])
    path = []
    node: Optional[str] = end
    while node is not None:
        path.append(node)
        node = parent[node]
    return list(reversed(path)), dist[end]


def parallel_makespan(spec: Spec, workers: int) -> float:
    """Makespan of building the DAG with ``workers`` parallel build jobs
    (greedy list scheduling, ready tasks longest-first)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    g = spec_to_graph(spec)
    indegree = {n: g.in_degree(n) for n in g.nodes}
    ready = [(-g.nodes[n]["cost"], n) for n, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    #: (finish_time, node) of running builds
    running: List[Tuple[float, str]] = []
    now = 0.0
    done = 0
    total = g.number_of_nodes()
    while done < total:
        while ready and len(running) < workers:
            neg_cost, name = heapq.heappop(ready)
            heapq.heappush(running, (now - neg_cost, name))
        if not running:
            raise SpecError("deadlock in build scheduling (cycle?)")
        now, finished = heapq.heappop(running)
        done += 1
        for succ in g.successors(finished):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, (-g.nodes[succ]["cost"], succ))
    return now


def graph_stats(spec: Spec) -> Dict[str, float]:
    """Summary statistics of a build DAG."""
    import networkx as nx

    g = spec_to_graph(spec)
    _, cp = critical_path(spec)
    total = sum(g.nodes[n]["cost"] for n in g.nodes)
    return {
        "nodes": g.number_of_nodes(),
        "edges": g.number_of_edges(),
        "total_build_seconds": total,
        "critical_path_seconds": cp,
        "max_parallel_speedup": total / cp if cp > 0 else 1.0,
        "longest_chain": len(nx.dag_longest_path(g)),
    }
