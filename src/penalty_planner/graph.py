"""Task graphs with exact rational costs.

A project is modeled as a DAG: nodes are states, edges are tasks with
nonnegative costs, and every source-to-target path is a valid way to finish.
Penalty schemes ("cost configurations") add extra cost to chosen edges.

Values are exact: `fractions.Fraction` at the API, scaled integers inside.
Agent behavior hinges on exact ties between perceived costs, so floats are
rejected at the boundary.
"""

from __future__ import annotations

import heapq
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    BiasOutOfRangeError,
    GraphStructureError,
    NoPathError,
    UnknownEdgeError,
)

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")  # see as_rational


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, a 'p/q' string, or a Fraction to an exact Fraction.

    A string is an optional sign, ASCII digits and an optional "/digits", the
    one grammar for files, command-line values and API strings; other forms
    are refused unparsed (Fraction("1e7000000") runs for seconds).
    Floats are rejected: silently converting them would change tie semantics.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        try:
            if match is not None:
                return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError):  # too many digits for int(), or q = 0
            pass
        raise ValueError(f"not a rational: {value!r}")
    raise TypeError(f"exact rational required, got {type(value).__name__} ({value!r})")


def check_bias(beta: RationalLike, *, strict: bool = False) -> Fraction:
    """Validate a present-bias value: 0 < beta <= 1 (beta < 1 when strict)."""
    b = as_rational(beta)
    if not 0 < b <= 1 or (strict and b == 1):
        bound = "(0, 1)" if strict else "(0, 1]"
        raise BiasOutOfRangeError(f"present bias must lie in {bound}, got {b}")
    return b


@dataclass(frozen=True, slots=True)
class Edge:
    tail: int
    head: int
    cost: Fraction


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


class TaskGraph:
    """Directed task graph with dense integer node ids and optional labels.

    Construction is permissive so that `validate` can report problems
    (cycles, negative costs, parallel edges) as data; only node ids out of
    range and duplicate labels are rejected outright. All planning
    operations assume a graph for which `validate` returns no violations
    and which has been through `preprocess`.
    """

    __slots__ = ("n", "labels", "edges", "source", "target",
                 "_out", "_in", "_pair", "_topo", "_scaled", "_label_to_id")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, RationalLike]],
        source: int,
        target: int,
        labels: Sequence[str | None] | None = None,
    ):
        if n <= 0:
            raise ValueError("graph needs at least one node")
        if not 0 <= source < n or not 0 <= target < n:
            raise ValueError("source/target id out of range")
        self.n = n
        if labels is None:
            self.labels: tuple[str | None, ...] = (None,) * n
        else:
            if len(labels) != n:
                raise ValueError("labels length must equal node count")
            self.labels = tuple(labels)
        built = []
        for tail, head, cost in edges:
            if not 0 <= tail < n or not 0 <= head < n:
                raise ValueError(f"edge ({tail}, {head}) references unknown node")
            built.append(Edge(tail, head, as_rational(cost)))
        self.edges: tuple[Edge, ...] = tuple(built)
        self.source = source
        self.target = target

        out: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        pair: dict[tuple[int, int], int] = {}
        for idx, e in enumerate(self.edges):
            out[e.tail].append(idx)
            inc[e.head].append(idx)
            pair.setdefault((e.tail, e.head), idx)
        self._out = tuple(tuple(v) for v in out)
        self._in = tuple(tuple(v) for v in inc)
        self._pair = pair
        self._topo: tuple[int, ...] | None = None
        self._scaled: tuple[tuple[int, ...], int] | None = None  # see scaled_costs

        label_to_id: dict[str, int] = {}
        for i, lab in enumerate(self.labels):
            if lab is None:
                continue
            if not isinstance(lab, str):
                raise ValueError(f"node label {lab!r} is not a string")
            if lab in label_to_id:
                raise ValueError(f"duplicate node label {lab!r}")
            label_to_id[lab] = i
        self._label_to_id = label_to_id

    # -- basic queries ----------------------------------------------------

    def out_edges(self, v: int) -> tuple[Edge, ...]:
        return tuple(self.edges[i] for i in self._out[v])

    def in_edges(self, v: int) -> tuple[Edge, ...]:
        return tuple(self.edges[i] for i in self._in[v])

    def out_indices(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_indices(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def has_edge(self, tail: int, head: int) -> bool:
        return (tail, head) in self._pair

    def edge_index(self, tail: int, head: int) -> int:
        try:
            return self._pair[(tail, head)]
        except KeyError:
            raise UnknownEdgeError(f"no edge {self.describe_node(tail)} -> "
                                   f"{self.describe_node(head)}") from None

    def cost(self, tail: int, head: int) -> Fraction:
        return self.edges[self.edge_index(tail, head)].cost

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [(e.tail, e.head) for e in self.edges]

    def node_by_label(self, label: str) -> int:
        try:
            return self._label_to_id[label]
        except KeyError:
            raise KeyError(f"no node labeled {label!r}") from None

    def describe_node(self, v: int) -> str:
        """The node's label, or its id; an id outside 0..n-1 by its number."""
        lab = self.labels[v] if 0 <= v < self.n else None
        return lab if lab is not None else str(v)

    # -- structure ---------------------------------------------------------

    def topological_order(self) -> tuple[int, ...]:
        """Deterministic (lexicographically smallest) topological order."""
        if self._topo is None:
            indeg = [len(ins) for ins in self._in]
            ready = [v for v in range(self.n) if indeg[v] == 0]
            heapq.heapify(ready)
            order: list[int] = []
            while ready:
                v = heapq.heappop(ready)
                order.append(v)
                for idx in self._out[v]:
                    h = self.edges[idx].head
                    indeg[h] -= 1
                    if indeg[h] == 0:
                        heapq.heappush(ready, h)
            if len(order) != self.n:
                raise GraphStructureError("graph contains a cycle")
            self._topo = tuple(order)
        return self._topo

    def reachable_from(self, start: int, *, backward: bool = False) -> set[int]:
        adj = self._in if backward else self._out
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for idx in adj[v]:
                e = self.edges[idx]
                w = e.tail if backward else e.head
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return (self.n == other.n
                and self.labels == other.labels
                and self.source == other.source
                and self.target == other.target
                and set(self.edges) == set(other.edges))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"TaskGraph(n={self.n}, edges={len(self.edges)}, "
                f"source={self.describe_node(self.source)}, "
                f"target={self.describe_node(self.target)})")


class CostConfiguration:
    """Nonnegative extra cost per edge; edges absent from the map pay zero.

    Zero entries are dropped on construction, so configurations with the
    same semantics compare equal. A key is a (tail, head) pair of int node
    ids (any other id, a bool included, is a TypeError). Given a graph,
    every key, zero entries included, must be one of its edges.
    """

    __slots__ = ("_extra",)

    def __init__(self, extra: Mapping[tuple[int, int], RationalLike] | None = None,
                 graph: TaskGraph | None = None):
        store: dict[tuple[int, int], Fraction] = {}
        if extra:
            for (tail, head), value in extra.items():
                if type(tail) is not int or type(head) is not int:  # not coerced, see above
                    raise TypeError(f"node ids must be ints, got ({tail!r}, {head!r})")
                x = as_rational(value)  # its denominator is positive: test the numerator
                if x.numerator < 0:
                    raise ValueError(f"extra cost on ({tail}, {head}) is negative: {x}")
                if graph is not None and not graph.has_edge(tail, head):
                    raise UnknownEdgeError(
                        f"configuration references missing edge ({tail}, {head})")
                if x.numerator:
                    store[(tail, head)] = x
        self._extra = store

    @property
    def extra(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._extra)

    def get(self, tail: int, head: int) -> Fraction:
        return self._extra.get((tail, head), ZERO)

    def is_zero(self) -> bool:
        return not self._extra

    def items(self):
        return self._extra.items()

    def __len__(self) -> int:
        return len(self._extra)

    def check_for(self, graph: TaskGraph) -> None:
        """Raise UnknownEdgeError if any keyed edge is not in the graph."""
        for (tail, head) in self._extra:
            if not graph.has_edge(tail, head):  # also false for ids out of range
                raise UnknownEdgeError(f"configuration references missing edge ({tail}, {head})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CostConfiguration):
            return NotImplemented
        return self._extra == other._extra

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.is_zero():
            return "CostConfiguration.zero()"
        inside = ", ".join(f"({u}, {v}): {x}" for (u, v), x in sorted(self._extra.items()))
        return f"CostConfiguration({{{inside}}})"

    @staticmethod
    def zero() -> "CostConfiguration":
        return _ZERO_CONFIG


_ZERO_CONFIG = CostConfiguration()


def scaled_costs(graph: TaskGraph, config: CostConfiguration | Mapping | None
                 ) -> tuple[Sequence[int], int]:
    """`(icost, scale)`: edge i's base cost plus extra is `icost[i] / scale`,
    with `scale` the lcm of every base cost's and extra's denominator, so no
    Fraction is added. The configuration is checked against the graph.

    Each graph scales its base costs once and keeps them; without extras
    they are returned as that shared tuple. A configuration rescales a copy
    and adds each of its entries at every edge from its tail to its head."""
    cfg = config if isinstance(config, CostConfiguration) else CostConfiguration(config, graph)
    if cfg is config:  # converting a mapping checked its keys
        cfg.check_for(graph)
    if graph._scaled is None:
        costs = [e.cost for e in graph.edges]
        unit = lcm(*{c.denominator for c in costs})
        graph._scaled = tuple(c.numerator * (unit // c.denominator) for c in costs), unit
    if cfg.is_zero():
        return graph._scaled
    base, unit = graph._scaled
    scale = lcm(unit, *{x.denominator for _, x in cfg.items()})
    k = scale // unit
    icost = [c * k for c in base]
    for (tail, head), x in cfg.items():
        for i in graph._out[tail]:
            if graph.edges[i].head == head:
                icost[i] += x.numerator * (scale // x.denominator)
    return icost, scale


# -- operations -------------------------------------------------------------


def validate(graph: TaskGraph) -> list[Violation]:
    """Check task-graph invariants; violations are returned, never raised.

    Reported kinds, in this order: parallel-edge and negative-cost (edge by
    edge), then cycle, or else no-path, or else one dead-end per non-target
    node without an out-edge. A DAG has a node that cannot reach the target
    exactly when it has a dead end, and every planning call fails on it
    until `preprocess`; so a file with one fails `parse(check=True)`, as a
    cyclic one does.
    """
    violations: list[Violation] = []
    for i, e in enumerate(graph.edges):
        if graph._pair[(e.tail, e.head)] != i:
            violations.append(Violation(
                "parallel-edge",
                f"more than one edge {graph.describe_node(e.tail)} -> {graph.describe_node(e.head)}"))
        if e.cost < 0:
            violations.append(Violation(
                "negative-cost",
                f"edge {graph.describe_node(e.tail)} -> {graph.describe_node(e.head)} "
                f"has cost {e.cost}"))
    try:
        graph.topological_order()
    except GraphStructureError:
        violations.append(Violation("cycle", "graph is not acyclic"))
        return violations
    if graph.target not in graph.reachable_from(graph.source):
        violations.append(Violation(
            "no-path",
            f"target {graph.describe_node(graph.target)} unreachable from "
            f"source {graph.describe_node(graph.source)}"))
        return violations
    violations.extend(
        Violation("dead-end", f"node {graph.describe_node(v)} has no out-edge and "
                              f"cannot reach target {graph.describe_node(graph.target)}")
        for v in range(graph.n) if not graph._out[v] and v != graph.target)
    return violations


def preprocess(graph: TaskGraph) -> TaskGraph:
    """Restrict to nodes lying on some source-to-target path.

    Node ids are re-densified (ascending old id); labels, source and target
    survive. Idempotent. Raises NoPathError if the target is unreachable.
    """
    forward = graph.reachable_from(graph.source)
    if graph.target not in forward:
        raise NoPathError("target unreachable from source")
    backward = graph.reachable_from(graph.target, backward=True)
    keep = sorted(forward & backward)
    remap = {old: new for new, old in enumerate(keep)}
    edges = [(remap[e.tail], remap[e.head], e.cost)
             for e in graph.edges if e.tail in remap and e.head in remap]
    labels = [graph.labels[old] for old in keep]
    return TaskGraph(len(keep), edges, remap[graph.source], remap[graph.target], labels)


def distances(graph: TaskGraph, cost: Sequence) -> list:
    """Cheapest cost to the target from every node, by node id: a single
    reverse-topological sweep, in which every node must reach the target.

    `cost` holds one exact number per edge index (base cost plus extra):
    Fractions, or integers in a common unit; the result has the same type.
    """
    edges = graph.edges
    d: list = [None] * graph.n
    d[graph.target] = cost[0] * 0 if cost else ZERO  # zero of the callers' type
    for v in reversed(graph.topological_order()):
        if v == graph.target:
            continue
        out = graph.out_indices(v)
        if not out:
            raise NoPathError(
                f"node {graph.describe_node(v)} has no path to the target; "
                "run preprocess() first")
        d[v] = min([cost[i] + d[edges[i].head] for i in out])
    return d


def choice(graph: TaskGraph, cost: Sequence, d: Sequence, beta, node: int
           ) -> tuple[list, object, list[int]]:
    """The agent's choice at a non-target node.

    Returns the perceived cost `cost[i] + beta*d[head]` of every out-edge
    (in `out_indices` order), their minimum, and the indices of all edges
    attaining it. For beta = p/q, callers in scaled integers pass
    (q*cost, p) and get the same order and ties. Its three callers are
    `agent.build_view` and `agent._tie_closure`, in integers, and
    `devices._fence_on_path`, in Fractions.
    """
    edges = graph.edges
    out = graph.out_indices(node)
    etas = [cost[i] + beta * d[edges[i].head] for i in out]
    low = min(etas)
    return etas, low, [i for i, eta in zip(out, etas) if eta == low]


def cheapest_costs(graph: TaskGraph,
                   config: CostConfiguration | Mapping | None = None) -> dict[int, Fraction]:
    """Exact cost of a cheapest path to the target from every node.

    Edge costs are base cost plus configured extra, and the configuration
    may name only edges of the graph. Requires a preprocessed graph (every
    node must reach the target).
    """
    icost, scale = scaled_costs(graph, config)
    d = distances(graph, icost)
    return {v: Fraction(d[v], scale) for v in reversed(graph.topological_order())}
