"""Simulation of the present-biased agent.

The agent walks from source toward target, always along an edge of minimum
perceived cost, and keeps going at a node only while that minimum does not
exceed the discounted reward. Ties are broken arbitrarily, so the analysis
is done over the closure of all tie choices rather than a single walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .graph import (
    CostConfiguration,
    RationalLike,
    TaskGraph,
    as_rational,
    check_bias,
    choice,
    distances,
    scaled_costs,
)

DEFAULT_WALK_CAP = 64


@dataclass(frozen=True)
class AgentView:
    """All derived quantities for a fixed (graph, configuration, bias).

    `d` is the cheapest remaining cost per node, `eta` the perceived cost per
    edge, `zeta` the minimum perceived cost per non-target node, and `argmin`
    the set of edges attaining that minimum.
    """

    graph: TaskGraph
    config: CostConfiguration
    beta: Fraction
    d: Mapping[int, Fraction]
    eta: Mapping[tuple[int, int], Fraction]
    zeta: Mapping[int, Fraction]
    argmin: Mapping[int, frozenset[tuple[int, int]]]


@dataclass(frozen=True)
class WalkReport:
    """Outcome of simulating the agent for a fixed reward."""

    reward: Fraction
    motivating: bool
    reachable: frozenset[int]
    abandon_nodes: frozenset[int]
    walks: tuple[tuple[int, ...], ...]
    truncated: bool


def build_view(graph: TaskGraph,
               config: CostConfiguration | Mapping | None,
               beta: RationalLike) -> AgentView:
    """Populate d, eta, zeta and the argmin relation exactly, in integers."""
    b = check_bias(beta)
    cfg = config if isinstance(config, CostConfiguration) else CostConfiguration(config, graph)
    icost, scale = scaled_costs(graph, cfg)
    p, q = b.numerator, b.denominator
    d = distances(graph, icost)
    qcost = [q * c for c in icost]
    unit = q * scale  # of perceived costs; distances are in 1/scale
    pairs = graph.edge_pairs()
    eta: dict[tuple[int, int], Fraction] = {}
    zeta: dict[int, Fraction] = {}
    argmin: dict[int, frozenset[tuple[int, int]]] = {}
    for v in range(graph.n):
        if v == graph.target:
            continue
        etas, low, ties = choice(graph, qcost, d, p, v)
        eta.update((pairs[i], Fraction(x, unit)) for i, x in zip(graph.out_indices(v), etas))
        zeta[v] = Fraction(low, unit)
        argmin[v] = frozenset([pairs[i] for i in ties])
    return AgentView(graph=graph, config=cfg, beta=b,
                     d={v: Fraction(d[v], scale) for v in reversed(graph.topological_order())},
                     eta=eta, zeta=zeta, argmin=argmin)


def reachable_by_ties(view: AgentView) -> frozenset[int]:
    """Nodes the agent can occupy under some tie-breaking, for any reward.

    Closure of the source under the argmin relation, computed from the
    view's graph, configuration and beta. Only the decision to stop depends
    on the reward, not the edge choice, so this set is reward-independent.
    """
    return _tie_closure(view.graph, view.config, view.beta)[0]


def tie_walk(view: AgentView) -> tuple[int, ...]:
    """One concrete walk from source to target (lowest head id on ties)."""
    graph = view.graph
    walk = [graph.source]
    v = graph.source
    while v != graph.target:
        v = min(head for (_, head) in view.argmin[v])
        walk.append(v)
    return tuple(walk)


def _tie_closure(graph: TaskGraph,
                 config: CostConfiguration | Mapping | None,
                 beta: RationalLike
                 ) -> tuple[frozenset[int], dict[int, int], dict[int, list[int]], int]:
    """The source's closure under every tie choice, in integers.

    The integers are `graph.scaled_costs`, in a common unit 1/scale; with
    beta = p/q, q*scale times a perceived cost is `q*cost + p*d` over them.
    Returns the closure, each non-target member's zeta (in the unit
    q*scale) and tied heads (highest first), and p*scale: zeta/beta is
    zeta/(p*scale), and zeta <= beta*r is zeta <= floor(p*scale*r).
    """
    b = check_bias(beta)
    icost, scale = scaled_costs(graph, config)
    p, q = b.numerator, b.denominator
    d = distances(graph, icost)
    qcost = [q * c for c in icost]
    source, target, edges = graph.source, graph.target, graph.edges
    zeta: dict[int, int] = {}
    ties: dict[int, list[int]] = {}
    seen = {source}
    queue = [source]
    for v in queue:
        if v == target:
            continue
        _, zeta[v], tied = choice(graph, qcost, d, p, v)
        ties[v] = sorted((edges[i].head for i in tied), reverse=True)
        for w in ties[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen), zeta, ties, p * scale


def is_motivating(graph: TaskGraph,
                  config: CostConfiguration | Mapping | None,
                  beta: RationalLike,
                  reward: RationalLike,
                  *,
                  walk_cap: int = DEFAULT_WALK_CAP) -> WalkReport:
    """Decide whether the agent reaches the target under every tie choice.

    Motivating means: at every reachable non-target node the lowest
    perceived cost is at most beta * reward (the threshold is closed).
    Walk enumeration is for reporting only and is capped; the verdict is
    computed on the reachable set, which is exact, in `_tie_closure`'s
    integers.
    """
    r = as_rational(reward)
    if r < 0:
        raise ValueError("reward must be nonnegative")
    if walk_cap < 0:
        raise ValueError("walk cap must be nonnegative")
    reachable, zeta, ties, unit = _tie_closure(graph, config, beta)
    threshold = r.numerator * unit // r.denominator  # floor(p*scale*r)
    source, target = graph.source, graph.target
    # tie walks, lowest head first, on one shared path; each ends at the
    # target or at the first node whose lowest perceived cost is too high
    walks: list[tuple[int, ...]] = []
    truncated = False
    path: list[int] = []
    stack = [(source, 0)]
    while stack:
        v, depth = stack.pop()
        del path[depth:]
        path.append(v)
        if v == target or zeta[v] > threshold:
            if len(walks) >= walk_cap:
                truncated = True
                break
            walks.append(tuple(path))
            continue
        stack.extend((w, depth + 1) for w in ties[v])
    abandon = frozenset(v for v, z in zeta.items() if z > threshold)
    return WalkReport(reward=r,
                      motivating=not abandon,
                      reachable=reachable,
                      abandon_nodes=abandon,
                      walks=tuple(walks),
                      truncated=truncated)


def min_motivating_reward(graph: TaskGraph,
                          config: CostConfiguration | Mapping | None,
                          beta: RationalLike) -> Fraction:
    """Least reward for which the configured graph is motivating.

    This is max zeta over reachable decision nodes, divided by beta; the
    graph is motivating exactly for rewards >= the returned value.
    """
    _, zeta, _, unit = _tie_closure(graph, config, beta)
    return Fraction(max(zeta.values(), default=0), unit)
