"""Independent brute-force oracles used to check the library's fast paths.

Everything here is deliberately naive: plain path enumeration and plain
Fraction sums, no sharing with the implementations under test beyond the
graph data structure itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

from penalty_planner import (
    CostConfiguration,
    TaskGraph,
    WalkReport,
    check_bias,
    preprocess,
)
from penalty_planner.errors import ParameterOutOfRangeError
from penalty_planner.graph import RationalLike
from penalty_planner.instances import (
    _LEAST_MAX_DENOMINATOR,
    _LEAST_MAX_NUMERATOR,
    Instance,
    _edge_density,
)


def all_paths(graph: TaskGraph, start: int | None = None) -> list[tuple[int, ...]]:
    """Every simple path from `start` (default: source) to the target."""
    if start is None:
        start = graph.source
    found: list[tuple[int, ...]] = []

    def walk(v: int, prefix: list[int]) -> None:
        if v == graph.target:
            found.append(tuple(prefix))
            return
        for e in sorted(graph.out_edges(v), key=lambda e: e.head):
            if e.head not in prefix:
                prefix.append(e.head)
                walk(e.head, prefix)
                prefix.pop()

    walk(start, [start])
    return found


def path_cost(graph: TaskGraph, config, path) -> Fraction:
    cfg = config if isinstance(config, CostConfiguration) else CostConfiguration(config)
    total = Fraction(0)
    for u, v in zip(path, path[1:]):
        total += graph.cost(u, v) + cfg.get(u, v)
    return total


def brute_cheapest(graph: TaskGraph, config, node: int) -> Fraction:
    """Cheapest node-to-target cost by enumerating every path."""
    return min(path_cost(graph, config, p) for p in all_paths(graph, node))


def brute_fence(graph: TaskGraph, beta, path, margin) -> tuple[dict, Fraction]:
    """The fence of a path and the reward it needs.

    Walks the path backwards; at each path node every straying edge gets
    just enough extra to be perceived `margin` above the on-path edge, with
    every remaining cost found by enumerating paths under the extras so
    far. Returns the positive extras and the largest on-path perceived cost
    divided by beta.
    """
    beta, margin = Fraction(beta), Fraction(margin)
    extra: dict[tuple[int, int], Fraction] = {}
    on_path = []
    for k in range(len(path) - 2, -1, -1):
        v, nxt = path[k], path[k + 1]
        eta = {e.head: path_cost(graph, extra, (v, e.head))
               + beta * brute_cheapest(graph, extra, e.head) for e in graph.out_edges(v)}
        on_path.append(eta[nxt])
        for w, x in eta.items():
            if w != nxt and eta[nxt] - x + margin > 0:
                extra[(v, w)] = eta[nxt] - x + margin
    return extra, max(on_path, default=Fraction(0)) / beta


def brute_infimum(graph: TaskGraph, beta) -> tuple[Fraction, tuple[int, ...]]:
    """Minimum limiting fence value over all enumerated paths."""
    best = None
    best_path = None
    for p in all_paths(graph):
        value = brute_fence(graph, beta, p, 0)[1]
        if best is None or value < best:
            best, best_path = value, p
    assert best is not None
    return best, best_path


def first_optimal_path(graph: TaskGraph, beta) -> tuple[Fraction, tuple[int, ...]]:
    """The least limiting fence value, and the first path attaining it in
    the exact search's order: paths grown back from the target, in-edges
    by tail id, that is every path read backwards, least first."""
    scored = [(brute_fence(graph, beta, p, 0)[1], p)
              for p in sorted(all_paths(graph), key=lambda p: p[::-1])]
    best = min(value for value, _ in scored)
    return next((value, p) for value, p in scored if value == best)


def brute_minmax_path(graph: TaskGraph, beta) -> tuple[tuple[int, ...], Fraction]:
    """The minmax path by edge insertion: edges go in one at a time by
    (unmodified perceived cost, edge index) until the target is reachable,
    then a breadth-first search over the inserted edges, neighbours in
    insertion order, gives the path; rho is its largest perceived cost."""
    beta = Fraction(beta)
    if graph.source == graph.target:
        return (graph.source,), Fraction(0)
    edges = graph.edges
    eta0 = [e.cost + beta * brute_cheapest(graph, None, e.head) for e in edges]
    inserted = []
    for i in sorted(range(len(edges)), key=lambda i: (eta0[i], i)):
        inserted.append(i)
        seen, frontier = {graph.source}, [graph.source]
        while frontier:
            v = frontier.pop()
            for j in inserted:
                if edges[j].tail == v and edges[j].head not in seen:
                    seen.add(edges[j].head)
                    frontier.append(edges[j].head)
        if graph.target in seen:
            break
    parent = {graph.source: None}
    queue = [graph.source]
    for v in queue:
        for j in inserted:
            if edges[j].tail == v and edges[j].head not in parent:
                parent[edges[j].head] = v
                queue.append(edges[j].head)
    path = [graph.target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    on_path = set(zip(path, path[1:]))
    return tuple(path), max(x for e, x in zip(edges, eta0) if (e.tail, e.head) in on_path)


def brute_approx_config(graph: TaskGraph, beta) -> CostConfiguration:
    """The 2-approximation's extras as their definition states them.

    Minmax-path edges are free. Every other edge that is not a successor
    edge (toward a cheapest path, lowest head on ties) costs 3*rho/beta. A
    successor edge is free off the path; from a path node it costs the
    largest base cost met walking successor edges to the next path node.
    """
    beta = Fraction(beta)
    path, rho = brute_minmax_path(graph, beta)
    d = [brute_cheapest(graph, None, v) for v in range(graph.n)]

    def succ(v):
        return min(e.head for e in graph.out_edges(v) if e.cost + d[e.head] == d[v])

    on_path, path_edges = set(path), set(zip(path, path[1:]))
    extra = {}
    for e in graph.edges:
        if (e.tail, e.head) in path_edges:
            continue
        if succ(e.tail) != e.head:
            extra[(e.tail, e.head)] = 3 * rho / beta
        elif e.tail in on_path:
            walk = [e.tail, e.head]
            while walk[-1] not in on_path:
                walk.append(succ(walk[-1]))
            extra[(e.tail, e.head)] = max(graph.cost(u, v) for u, v in zip(walk, walk[1:]))
    return CostConfiguration(extra)


def _brute_ties(graph: TaskGraph, config, beta: Fraction):
    """Every non-target node's zeta and tied heads (ascending), and the
    source's tie closure, with every remaining cost found by enumerating
    paths."""
    zeta, tied = {}, {}
    for v in range(graph.n):
        if v == graph.target:
            continue
        eta = {e.head: path_cost(graph, config, (v, e.head))
               + beta * brute_cheapest(graph, config, e.head) for e in graph.out_edges(v)}
        zeta[v] = min(eta.values())
        tied[v] = sorted(w for w, x in eta.items() if x == zeta[v])
    reachable = {graph.source}
    frontier = [graph.source]
    while frontier:
        v = frontier.pop()
        for w in tied.get(v, ()):
            if w not in reachable:
                reachable.add(w)
                frontier.append(w)
    return zeta, tied, frozenset(reachable)


def brute_min_reward(graph: TaskGraph, config, beta) -> tuple[Fraction, frozenset[int]]:
    """The least motivating reward, max zeta over the tie closure divided
    by beta, and that closure."""
    beta = Fraction(beta)
    zeta, _, reachable = _brute_ties(graph, config, beta)
    worst = max((zeta[v] for v in reachable if v != graph.target), default=Fraction(0))
    return worst / beta, reachable


def brute_walk_report(graph: TaskGraph, config, beta, reward, walk_cap: int) -> WalkReport:
    """The agent's report, with every remaining cost found by enumerating paths."""
    beta, reward = Fraction(beta), Fraction(reward)
    threshold = beta * reward
    zeta, tied, reachable = _brute_ties(graph, config, beta)

    def walks(prefix):
        v = prefix[-1]
        if v == graph.target or zeta[v] > threshold:
            yield prefix
            return
        for w in tied[v]:
            yield from walks(prefix + (w,))

    found = list(islice(walks((graph.source,)), walk_cap + 1))
    abandon = {v for v in reachable if v != graph.target and zeta[v] > threshold}
    return WalkReport(reward=reward, motivating=not abandon,
                      reachable=reachable, abandon_nodes=frozenset(abandon),
                      walks=tuple(found[:walk_cap]), truncated=len(found) > walk_cap)


def materialize_subgraph(graph: TaskGraph, kept) -> TaskGraph:
    """The kept-edges subgraph as its own (preprocessed) task graph."""
    kept = set(kept)
    edges = [(e.tail, e.head, e.cost) for e in graph.edges if (e.tail, e.head) in kept]
    return preprocess(TaskGraph(graph.n, edges, graph.source, graph.target, graph.labels))


def random_config(graph: TaskGraph, rng: random.Random,
                  prob: float = 0.4, max_num: int = 6, max_den: int = 8) -> CostConfiguration:
    extra = {}
    for e in graph.edges:
        if rng.random() < prob:
            extra[(e.tail, e.head)] = Fraction(rng.randint(0, max_num),
                                               rng.randint(1, max_den))
    return CostConfiguration(extra)


def random_connected_subset(graph: TaskGraph, rng: random.Random,
                            keep_prob: float = 0.75) -> list[tuple[int, int]]:
    """A random kept-edge set that still connects source to target."""
    pairs = [(e.tail, e.head) for e in graph.edges]
    for _ in range(32):
        kept = [p for p in pairs if rng.random() < keep_prob]
        seen = {graph.source}
        stack = [graph.source]
        while stack:
            v = stack.pop()
            for (u, w) in kept:
                if u == v and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if graph.target in seen:
            return kept
    return pairs


def gen_random_reference(n: int,
                         density: float | Fraction,
                         beta: RationalLike = Fraction(1, 2),
                         *,
                         max_numerator: int = 8,
                         max_denominator: int = 64,
                         seed: int = 0) -> Instance:
    """`gen_random` written plainly: `randint` for every integer, a new
    Fraction per edge, and `preprocess` over the raw graph, which is built
    again when the chain spine is added. `gen_random` must return the same
    instance for every argument and seed.
    """
    if n < 2:
        raise ParameterOutOfRangeError("need at least two nodes")
    dens = _edge_density(density)
    if max_numerator < _LEAST_MAX_NUMERATOR or max_denominator < _LEAST_MAX_DENOMINATOR:
        raise ParameterOutOfRangeError("cost bounds must be nonnegative/positive")
    b = check_bias(beta)
    rng = random.Random(seed & 0xFFFFFFFFFFFFFFFF)

    def rand_cost() -> Fraction:
        return Fraction(rng.randint(0, max_numerator), rng.randint(1, max_denominator))

    edges: list[tuple[int, int, RationalLike]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < dens:
                edges.append((i, j, rand_cost()))

    labels = ["s"] + [f"n{i}" for i in range(1, n - 1)] + ["t"]
    graph = TaskGraph(n, edges, source=0, target=n - 1, labels=labels)
    # guarantee source-to-target connectivity via the chain spine
    if n - 1 not in graph.reachable_from(0):
        edges += [(i, i + 1, rand_cost()) for i in range(n - 1) if not graph.has_edge(i, i + 1)]
        graph = TaskGraph(n, edges, source=0, target=n - 1, labels=labels)
    return Instance(graph=preprocess(graph), beta=b, reward=None)
