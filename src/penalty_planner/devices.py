"""Penalty-based commitment devices.

Constructions: fencing a chosen path with just-enough penalties, the
two-phase minmax-path approximation with its built-in guarantee check,
subgraph emulation via prohibitive extras, and two exhaustive oracles
(exact infimum over paths, brute-force subgraph optimization).

The exact-infimum search works in scaled integer arithmetic internally;
every value it produces is an exact rational, and the unit tests check it
against the straightforward fence recursion, path by path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from operator import itemgetter
from typing import Iterable, Sequence

from .agent import WalkReport, is_motivating
from .errors import (
    BudgetExceededError,
    DisconnectedError,
    InternalVerificationError,
    InvalidPathError,
    UnknownEdgeError,
)
from .graph import (
    CostConfiguration,
    RationalLike,
    TaskGraph,
    ZERO,
    as_rational,
    check_bias,
    choice,
    distances,
    node_id_error,
    scaled_costs,
)

DEFAULT_PATH_BUDGET = 100_000
DEFAULT_EDGE_BUDGET = 20


def check_path(graph: TaskGraph, path: Sequence[int]) -> tuple[int, ...]:
    """Validate a node sequence as a source-to-target path of the graph.

    The one-node path (source,) is valid exactly when the source is the target.
    A node id that is not an int (a bool included) is a TypeError.
    """
    nodes = tuple(path)
    for v in nodes:
        if type(v) is not int:
            raise node_id_error(v)
    if not nodes:
        raise InvalidPathError("a path needs at least one node")
    if nodes[0] != graph.source:
        raise InvalidPathError("path must start at the source")
    if nodes[-1] != graph.target:
        raise InvalidPathError("path must end at the target")
    if len(set(nodes)) != len(nodes):
        raise InvalidPathError("path repeats a node")
    for u, v in zip(nodes, nodes[1:]):
        if not graph.has_edge(u, v):
            raise InvalidPathError(
                f"missing edge {graph.describe_node(u)} -> {graph.describe_node(v)}")
    return nodes


def _fence_on_path(graph: TaskGraph, beta: Fraction, path: tuple[int, ...],
                   margin: Fraction) -> tuple[dict[tuple[int, int], Fraction],
                                              list[Fraction]]:
    """Shared fence recursion.

    Walks the path backwards; at each path node, every straying edge gets
    exactly enough extra cost to exceed the on-path perceived cost by
    `margin`. Assignments at a node never affect perceived costs already
    fixed at later nodes (the graph is acyclic), so recomputing distances
    once per node is sound. Returns the extras and the on-path perceived
    costs, which are final.
    """
    cost = [e.cost for e in graph.edges]  # base cost plus extra, updated in place
    extra: dict[tuple[int, int], Fraction] = {}
    on_path_eta: list[Fraction] = [ZERO] * (len(path) - 1)
    for k in range(len(path) - 2, -1, -1):
        v, nxt = path[k], path[k + 1]
        out = graph.out_indices(v)
        etas, _, _ = choice(graph, cost, distances(graph, cost), beta, v)
        eta_on = on_path_eta[k] = etas[out.index(graph.edge_index(v, nxt))]
        for i, eta_off in zip(out, etas):
            bump = eta_on - eta_off + margin
            if graph.edges[i].head != nxt and bump > 0:
                cost[i] += bump
                extra[(v, graph.edges[i].head)] = bump
    return extra, on_path_eta


def path_and_fence(graph: TaskGraph,
                   beta: RationalLike,
                   path: Sequence[int],
                   epsilon: RationalLike) -> CostConfiguration:
    """Fence the given path: penalties that make straying strictly worse.

    For a path of m nodes, every edge leaving the path ends up with a
    perceived cost at least beta*epsilon/(m-2) above the on-path edge, so
    the path nodes are exactly what the agent can reach. The divisor is
    clamped to 1 for degenerate two- and three-node paths.
    """
    b = check_bias(beta)
    eps = as_rational(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    nodes = check_path(graph, path)
    margin = b * eps / max(1, len(nodes) - 2)
    extra, _ = _fence_on_path(graph, b, nodes, margin)
    return CostConfiguration(extra)


def fence_required_reward(graph: TaskGraph,
                          beta: RationalLike,
                          path: Sequence[int]) -> Fraction:
    """Reward the fences of this path need, in the limit of vanishing margin.

    Runs the fence recursion with margin zero (ties allowed) and returns the
    maximum on-path perceived cost divided by beta. Every assigned extra is
    a composition of max(0, linear-in-margin) terms, so the on-path costs
    are continuous at margin zero: the returned value is the infimum over
    positive margins of the fenced graph's minimum motivating reward.
    """
    b = check_bias(beta)
    nodes = check_path(graph, path)
    _, etas = _fence_on_path(graph, b, nodes, ZERO)
    return max(etas, default=ZERO) / b


@dataclass(frozen=True)
class InfimumResult:
    """Outcome of the exhaustive path search.

    `value` is the infimum of rewards admitting a motivating penalty scheme
    (it may not be attained by any single scheme); `path` is a witness whose
    fences approach it. Both are always set: the search scores a path before
    the path budget (at least 1) can stop it. The budget binds only in the
    full round, since the probe round stops at the first path it scores.
    When the budget is hit, `exhausted` is set and the incumbent so far is
    returned. `expansions` counts the partial paths (suffixes ending at the
    target, the bare target included) that were fenced and had their
    in-edges scanned; a suffix the full round skips as dominated is fenced
    but not counted, and neither are the paths below it (the probe round
    skips nothing). Both counters sum the two rounds, so a search that needs
    the full round counts the bare target twice. On a one-node graph the
    bare target is the one path scored and the one expansion.
    """

    value: Fraction
    path: tuple[int, ...]
    exhausted: bool
    paths_evaluated: int
    expansions: int


def exact_infimum(graph: TaskGraph,
                  beta: RationalLike,
                  path_budget: int = DEFAULT_PATH_BUDGET) -> InfimumResult:
    """Infimum of motivating rewards over all penalty schemes, with witness.

    Every scheme can be replaced by a fence along the agent's path at an
    arbitrarily small premium, so the infimum equals the minimum of
    `fence_required_reward` over all source-to-target paths. A depth-first
    branch-and-bound on an explicit stack grows paths backwards from the
    target (in-edges by tail id, strict improvement only), fencing each new
    node in place: only its ancestors' distances change, and an undo log
    restores them on backtrack. It prunes with two sound bounds: the exact
    suffix maximum, and the bottleneck over source-to-tail prefixes under
    the current suffix-fenced distances (extras only raise distances),
    re-swept only from the lowest topological position whose distance
    changed since the last sweep.

    The bottleneck at the target, before any fence, is `minmax_path`'s rho:
    a lower bound on every path's value. A probe round first runs the
    search under a virtual incumbent just above it, so it prunes only what
    lies above rho, and the first path it scores is optimal. If it scores
    none, every value is at least the least value it pruned; the full round
    then searches again and stops once its incumbent reaches that floor.
    Neither stop changes the value or the witness: of all optimal paths,
    the witness is the first in search order.

    The full round also skips a suffix that a fully searched one dominates:
    same head, same distances on the head's frontier, and no smaller suffix
    maximum. It builds the frontiers and its memo when it starts, so a
    search that the probe settles builds neither. The probe keeps no memo:
    a skip there would need an exact tie, a suffix whose fences leave the
    frontier distances of an earlier one at the same head as they were, at
    no larger maximum (say, through a node whose only out-edge is on the
    path, so that its fence adds nothing). The probe expands such a suffix
    instead, which can only add to the counters; it never changes the
    value or the witness.
    """
    b = check_bias(beta)
    if path_budget < 1:
        raise ValueError("path budget must be at least 1")
    if graph.source == graph.target:
        return InfimumResult(ZERO, (graph.source,), False, 1, 1)

    n, source, target = graph.n, graph.source, graph.target
    p, q = b.numerator, b.denominator
    heads = [e.head for e in graph.edges]
    tails = [e.tail for e in graph.edges]
    out_idx = [graph.out_indices(v) for v in range(n)]
    order = graph.topological_order()
    depth = [-1] * n  # edges on a longest path from the source; -1: unreachable
    depth[source] = 0
    for u in order:
        for i in out_idx[u] if depth[u] >= 0 else ():
            depth[heads[i]] = max(depth[heads[i]], depth[u] + 1)
    # only nodes reachable from the source take part: in topological order,
    # and with the in-edges from them, sorted by tail
    topo = [v for v in order if depth[v] >= 0]
    pos = {v: k for k, v in enumerate(topo)}
    in_idx = [sorted((i for i in graph.in_indices(v) if depth[tails[i]] >= 0),
                     key=tails.__getitem__) for v in range(n)]
    # with scale the costs' common denominator, a fence k edges before the
    # target has denominator scale*q^k; in the unit scale*q^L (L edges on a
    # longest path) every extra and distance is an integer, and so is every
    # perceived cost q*cost + p*dist in unit/q
    cost, scale = scaled_costs(graph, None)
    lift = q ** max(depth[target], 0)
    unit, cost = scale * lift, [c * lift for c in cost]
    qcost = [q * c for c in cost]
    dist = distances(graph, cost)
    extra = [0] * len(graph.edges)
    # the full round's dominance memo, set up when that round starts
    frontier: list[itemgetter] | None = None  # head -> its frontier distances
    done: dict[tuple, int] = {}  # (head, frontier distances) -> least searched eta_max
    log: list[tuple[int, int]] = []  # (node, distance before an update)
    # prefix bottleneck per node, valid for the current dist at topological
    # positions 1..fresh: the one at position x reads dist at positions <= x
    bneck, fresh = [0] * n, 0

    def sweep(top: int) -> None:  # make the bottlenecks valid up to position top
        nonlocal fresh
        for u in topo[max(fresh, 0) + 1:top + 1]:  # the source's is 0
            pd, low = p * dist[u], None
            for i in in_idx[u]:
                eta = qcost[i] + pd
                if eta < bneck[tails[i]]:
                    eta = bneck[tails[i]]
                if low is None or eta < low:
                    low = eta
            bneck[u] = low
        fresh = max(fresh, top)

    # the target's bottleneck before any fence, theta, bounds every path's
    # value from below (fences only raise distances). Each round stops once
    # its incumbent reaches its floor: theta for the probe, whose virtual
    # incumbent is theta+1, and then the least value the probe pruned
    sweep(pos[target])
    floor = bneck[target]
    best: int | None = floor + 1  # incumbent perceived cost, in unit/q
    best_path: tuple[int, ...] = ()
    pruned: int | None = None  # least value pruned; read after the probe
    evaluated, expansions, exhausted = 0, 0, False
    while True:
        # frame: head, next in-edge, suffix maximum, log length on entry, the
        # prefix bounds of the in-edges' tails (computed once an incumbent
        # exists), and the head's dominance key (full round only); the heads,
        # top first, are the current suffix
        stack: list[list] = [[target, 0, 0, 0, None, None]]
        expansions += 1
        while stack:
            frame = stack[-1]
            head, k, eta_max, mark, bounds, key = frame
            ins = in_idx[head]
            if k == len(ins):  # backtrack: the subtree is fully searched (or skipped)
                stack.pop()
                for i in out_idx[head]:
                    extra[i] = 0
                for u, old in reversed(log[mark:]):
                    dist[u] = old
                    fresh = min(fresh, pos[u] - 1)
                del log[mark:]
                if key:
                    done[key] = eta_max
                continue
            frame[1] = k + 1
            eidx = ins[k]
            v = tails[eidx]
            eta_on = qcost[eidx] + p * dist[head]
            cand = eta_on if eta_on > eta_max else eta_max
            if best is not None:
                if cand < best and bounds is None:
                    # prefixes end before the head in topological order, so
                    # they avoid the suffix; every edge into u shares dist[u]
                    top = max(pos[tails[i]] for i in ins)
                    sweep(top)
                    bounds = frame[4] = [bneck[tails[i]] for i in ins]
                low = cand if cand >= best else bounds[k]  # suffix bound, then prefix bound
                if low >= best:
                    if pruned is None or low < pruned:
                        pruned = low
                    continue
            if v == source:
                if evaluated >= path_budget:
                    exhausted = True
                    break
                evaluated += 1
                # every path with cand >= best was pruned above: this one improves
                best, best_path = cand, (v, *(f[0] for f in reversed(stack)))
                if best <= floor:
                    break
                continue
            # fence v, then re-evaluate v and the ancestors whose out-neighbour distances
            # changed, in reverse topological order: in place, as a full sweep costs O(n+m).
            # Distances only rise, so a tail's minimum can change only through an edge
            # that attained it: a tail is queued only along a tight edge.
            for i in out_idx[v]:  # the on-path edge itself gets a bump of 0
                bump = eta_on - qcost[i] - p * dist[heads[i]]
                if bump > 0:
                    extra[i] = bump // q
            heap, queued, mark = [-pos[v]], {v}, len(log)
            while heap:
                u = topo[-heappop(heap)]
                du, old = min(cost[i] + extra[i] + dist[heads[i]] for i in out_idx[u]), dist[u]
                if du != old:
                    log.append((u, old))
                    dist[u] = du
                    fresh = min(fresh, pos[u] - 1)
                    for i in in_idx[u]:
                        t = tails[i]
                        if t not in queued and cost[i] + extra[i] + old == dist[t]:
                            queued.add(t)
                            heappush(heap, -pos[t])
            key = (v, frontier[v](dist)) if frontier else None
            # a searched suffix with the same key and no larger maximum found
            # every completion's value or pruned it: nothing here improves
            # strictly. Such a suffix enters with its in-edges used up, so the
            # next step unfences it without recording it.
            if key and done.get(key, cand + 1) <= cand:
                stack.append([v, len(in_idx[v]), cand, mark, None, None])
                continue
            stack.append([v, 0, cand, mark, None, key])
            expansions += 1
        if best_path:  # a round scored a path: it is the answer
            break
        # the probe scored nothing and has undone its fences. Below a head the
        # search depends only on the suffix maximum and the distances on the
        # head's frontier: the head and every node that one of its ancestors
        # has an edge into (the ancestors' own distances follow)
        best, floor, frontier = None, pruned, [None] * n
        anc, into = [0] * n, [0] * n  # bitsets of ancestors, of their out-neighbours
        for u in topo:  # an ancestor comes first, so anc[u] and into[u] are complete
            bits, nodes, outs = (into[u] & ~anc[u]) | 1 << u, [], 0
            while bits:
                nodes.append(bits.bit_length() - 1)
                bits ^= 1 << nodes[-1]
            frontier[u] = itemgetter(*nodes)  # u is among them, the source too
            for i in out_idx[u]:
                outs |= 1 << heads[i]
            up, reach = anc[u] | 1 << u, into[u] | outs
            for i in out_idx[u]:
                anc[heads[i]] |= up
                into[heads[i]] |= reach

    return InfimumResult(value=Fraction(best, unit * p), path=best_path,
                         exhausted=exhausted, paths_evaluated=evaluated,
                         expansions=expansions)


def minmax_path(graph: TaskGraph, beta: RationalLike) -> tuple[tuple[int, ...], Fraction]:
    """Path minimizing the maximum perceived edge cost, and that maximum.

    Edges are inserted in non-decreasing order of unmodified perceived cost
    (ties by edge index) until the target becomes reachable; any path inside
    the inserted set is a minmax path. One bottleneck pass finds the last
    edge inserted, and one breadth-first search the path. Deterministic.
    """
    b = check_bias(beta)
    p, q = b.numerator, b.denominator
    edges = graph.edges
    icost, scale = scaled_costs(graph, None)
    d = distances(graph, icost)
    # perceived costs in the unit scale*q; a stable sort keeps ties by index
    eta0 = [q * c + p * d[e.head] for c, e in zip(icost, edges)]
    order = sorted(range(len(edges)), key=eta0.__getitem__)
    rank = [0] * len(edges)
    for r, i in enumerate(order):
        rank[i] = r
    reach = [len(edges)] * graph.n  # least rank by which a node is reachable
    reach[graph.source] = -1
    for v in graph.topological_order():
        for i in graph.out_indices(v):
            h = edges[i].head
            reach[h] = min(reach[h], max(reach[v], rank[i]))
    adj: list[list[int]] = [[] for _ in range(graph.n)]
    for i in order[:reach[graph.target] + 1]:
        adj[edges[i].tail].append(edges[i].head)
    parent: dict[int, int] = {graph.source: -1}
    queue = [graph.source]
    for v in queue:
        if v == graph.target:
            break
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    nodes = [graph.target]
    while parent[nodes[-1]] != -1:
        nodes.append(parent[nodes[-1]])
    path = tuple(reversed(nodes))
    rho = max((eta0[graph.edge_index(u, v)] for u, v in zip(path, path[1:])), default=0)
    return path, Fraction(rho, q * scale)


def successor_map(graph: TaskGraph) -> dict[int, int]:
    """Cheapest-path successor for every non-target node (lowest id on ties).

    Following the map from any node spells out a cheapest path to the
    target with respect to the base costs.
    """
    edges = graph.edges
    icost, _ = scaled_costs(graph, None)
    d = distances(graph, icost)
    return {v: min(edges[i].head for i in graph.out_indices(v)
                   if icost[i] + d[edges[i].head] == d[v])
            for v in range(graph.n) if v != graph.target}


@dataclass(frozen=True)
class ApproxResult:
    """Penalty scheme with a factor-2 guarantee.

    The scheme is motivating at `guaranteed_reward` = 2*rho/beta (verified
    on construction); no scheme is motivating below `lower_bound` = rho/beta.
    """

    config: CostConfiguration
    minmax_path: tuple[int, ...]
    rho: Fraction
    guaranteed_reward: Fraction
    lower_bound: Fraction
    verification: WalkReport


def minmax_path_approx(graph: TaskGraph, beta: RationalLike) -> ApproxResult:
    """Two-phase factor-2 approximation of the optimal penalty scheme.

    Keeps the minmax path and all cheapest-path successor edges off it free;
    edges that are neither get a prohibitive 3*rho/beta; a successor edge
    leaving a minmax-path node is charged the most expensive base cost on
    its successor chain up to the next shared node. The published guarantee
    is machine-checked on every call.
    """
    b = check_bias(beta)
    path, rho = minmax_path(graph, b)
    sig = successor_map(graph)
    p_edges = set(zip(path, path[1:]))
    p_nodes = set(path)
    # most expensive edge on each node's successor chain up to the next
    # minmax-path node, in one pass over the scaled integer costs: a
    # successor comes later in topological order
    icost, scale = scaled_costs(graph, None)
    seg: dict[int, int] = {}
    for v in reversed(graph.topological_order()):
        if v != graph.target:
            w = sig[v]
            seg[v] = max(icost[graph.edge_index(v, w)], 0 if w in p_nodes else seg[w])
    prohibitive = 3 * rho / b
    extra: dict[tuple[int, int], Fraction] = {}
    for e in graph.edges:
        key = (e.tail, e.head)
        if key in p_edges:
            continue
        if sig[e.tail] != e.head:
            extra[key] = prohibitive
        elif e.tail in p_nodes:
            extra[key] = Fraction(seg[e.tail], scale)
    config = CostConfiguration(extra)
    guaranteed = 2 * rho / b
    report = is_motivating(graph, config, b, guaranteed)
    if not report.motivating:
        raise InternalVerificationError(
            "approximation failed its own guarantee; this is a bug")
    return ApproxResult(config=config, minmax_path=path, rho=rho,
                        guaranteed_reward=guaranteed, lower_bound=rho / b,
                        verification=report)


def emulate_subgraph(graph: TaskGraph,
                     kept_edges: Iterable[tuple[int, int]],
                     reward: RationalLike) -> CostConfiguration:
    """Penalty scheme equivalent to deleting all edges outside `kept_edges`.

    Removed edges get extra cost reward + 1: any plan crossing one is
    perceived as more expensive than the reward is worth.
    """
    r = as_rational(reward)
    if r < 0:
        raise ValueError("reward must be nonnegative")
    kept = set()
    for (u, v) in kept_edges:
        if not graph.has_edge(u, v):
            raise UnknownEdgeError(f"kept edge ({u}, {v}) is not in the graph")
        kept.add((u, v))
    kept_graph = TaskGraph(graph.n, [(u, v, 0) for u, v in kept], graph.source, graph.target)
    if graph.target not in kept_graph.reachable_from(graph.source):
        raise DisconnectedError("kept edges do not connect source to target")
    extra = {(e.tail, e.head): r + 1 for e in graph.edges
             if (e.tail, e.head) not in kept}
    return CostConfiguration(extra)


@dataclass(frozen=True)
class SubgraphOptResult:
    kept_edges: frozenset[tuple[int, int]]
    value: Fraction


def brute_subgraph_opt(graph: TaskGraph,
                       beta: RationalLike,
                       edge_budget: int = DEFAULT_EDGE_BUDGET) -> SubgraphOptResult:
    """Best prohibition device by exhaustive enumeration of edge subsets.

    Considers every subset that still connects source to target, simulates
    the agent on the induced (implicitly preprocessed) subgraph, and returns
    a subset minimizing the minimum motivating reward. Intended as a small-
    scale oracle; refuses graphs with more than `edge_budget` edges.
    """
    b = check_bias(beta)
    m = len(graph.edges)
    if m > edge_budget:
        raise BudgetExceededError(
            f"{m} edges exceed the enumeration budget of {edge_budget}")
    n = graph.n
    source, target = graph.source, graph.target
    p, q = b.numerator, b.denominator
    cost_num, scale = scaled_costs(graph, None)
    heads = [e.head for e in graph.edges]
    out_idx = [list(graph.out_indices(v)) for v in range(n)]
    rtopo = [v for v in reversed(graph.topological_order()) if v != target]

    best_num: int | None = None
    best_mask = 0
    for mask in range(1 << m):
        # masked copies of `distances` and `choice`: the ratio tests compare
        # against this as a prohibition oracle that shares no code with the
        # kernel or with prohibitive prices, and pricing removed edges out
        # through the kernel instead ran 4-5x slower (an 18-edge graph:
        # 6.1 s against 1.2 s on a 2-vCPU VM).
        # distances to target over kept edges; None marks dead ends, which
        # the implicit preprocessing removes along with edges into them
        d: list[int | None] = [None] * n
        d[target] = 0
        for u in rtopo:
            best_d: int | None = None
            for i in out_idx[u]:
                if not mask >> i & 1:
                    continue
                dw = d[heads[i]]
                if dw is None:
                    continue
                val = cost_num[i] + dw
                if best_d is None or val < best_d:
                    best_d = val
            d[u] = best_d
        if d[source] is None:
            continue
        # worst lowest-perceived-cost over the tie-reachable set
        worst = 0
        seen = 1 << source
        stack = [source]
        while stack:
            v = stack.pop()
            if v == target:
                continue
            zeta: int | None = None
            tie_heads: list[int] = []
            for i in out_idx[v]:
                if not mask >> i & 1:
                    continue
                dw = d[heads[i]]
                if dw is None:
                    continue
                val = cost_num[i] * q + p * dw
                if zeta is None or val < zeta:
                    zeta = val
                    tie_heads = [heads[i]]
                elif val == zeta:
                    tie_heads.append(heads[i])
            if zeta > worst:
                worst = zeta
            for w in tie_heads:
                if not seen >> w & 1:
                    seen |= 1 << w
                    stack.append(w)
        if best_num is None or worst < best_num:
            best_num = worst
            best_mask = mask
    if best_num is None:
        raise DisconnectedError("no edge subset connects source to target")
    kept = frozenset((graph.edges[i].tail, graph.edges[i].head)
                     for i in range(m) if best_mask >> i & 1)
    return SubgraphOptResult(kept_edges=kept, value=Fraction(best_num, scale * p))
