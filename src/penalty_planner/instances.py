"""Generators for the named benchmark graphs and for random DAGs.

Three named families: the procrastinating-student graph (a chain of weekly
chores with a costly one-shot alternative), the penalty-vs-prohibition
ratio graph, and the seven-node graph on which no optimal penalty scheme
exists. Random DAGs are seeded and fully reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterOutOfRangeError
from .graph import RationalLike, TaskGraph, as_rational, check_bias


@dataclass(frozen=True)
class Instance:
    """A task graph bundled with the bias (and optionally a reward) it was
    built for, plus free-form annotations (used by the SAT reduction)."""

    graph: TaskGraph
    beta: Fraction
    reward: Fraction | None = None
    annotations: dict | None = None


def gen_alice(m: int,
              beta: RationalLike = Fraction(1, 3),
              reward: RationalLike = Fraction(6)) -> Instance:
    """Chain of m weekly tasks of cost 1, with a cost-3 bailout every week.

    Nodes v1..vm plus the target; each week before the last offers either
    the unit-cost chain edge or the cost-3 direct edge; the final week's
    only edge costs 1.
    """
    if m < 2:
        raise ParameterOutOfRangeError("need at least two weeks")
    b = check_bias(beta)
    r = as_rational(reward)
    if r < 0:
        raise ParameterOutOfRangeError(f"reward must be nonnegative, got {r}")
    t = m  # ids: v_i -> i-1, target -> m
    edges: list[tuple[int, int, RationalLike]] = []
    for i in range(1, m):
        edges.append((i - 1, i, 1))
        edges.append((i - 1, t, 3))
    edges.append((m - 1, t, 1))
    labels = [f"v{i}" for i in range(1, m + 1)] + ["t"]
    graph = TaskGraph(m + 1, edges, source=0, target=t, labels=labels)
    return Instance(graph=graph, beta=b, reward=r)


def gen_ratio(beta: RationalLike, epsilon: RationalLike) -> Instance:
    """Graph on which penalties beat prohibition by (almost) 1/beta.

    A long main path of cheap edges; every interior node has a free shortcut
    to a hub whose exit edge costs 1/beta. The main-path length is chosen so
    that m * beta * (1-beta) * eps^2 >= 1/beta.
    """
    b = check_bias(beta, strict=True)
    eps = as_rational(epsilon)
    if not 0 < eps < 1:
        raise ParameterOutOfRangeError(f"epsilon must lie in (0, 1), got {eps}")
    m = math.ceil(1 / (b * b * (1 - b) * eps * eps))
    main_cost = (1 - b) * eps * eps
    n_main = 2 * m + 1
    w = n_main  # hub node id
    edges: list[tuple[int, int, RationalLike]] = []
    for i in range(n_main - 1):
        edges.append((i, i + 1, main_cost))
    for i in range(2 * m):
        edges.append((i, w, 0))
    edges.append((w, n_main - 1, 1 / b))
    labels = ["s"] + [f"v{i}" for i in range(2, n_main)] + ["t", "w"]
    graph = TaskGraph(n_main + 1, edges, source=0, target=n_main - 1, labels=labels)
    return Instance(graph=graph, beta=b, reward=None)


def gen_noopt(beta: RationalLike) -> Instance:
    """Seven-node graph whose optimal penalty scheme does not exist.

    A chain with costs (1-b)^3, (1-b)^3, (1-b)^2, (1-b), 1 and a branch of
    costs (1-b)^2 then 2-b; under no extra cost the first interior node is
    exactly indifferent between chain and branch.
    """
    b = check_bias(beta, strict=True)
    x = 1 - b
    s, v1, v2, v3, v4, w, t = range(7)
    edges = [
        (s, v1, x ** 3),
        (v1, v2, x ** 3),
        (v2, v3, x ** 2),
        (v3, v4, x),
        (v4, t, Fraction(1)),
        (v1, w, x ** 2),
        (w, t, 2 - b),
    ]
    labels = ["s", "v1", "v2", "v3", "v4", "w", "t"]
    graph = TaskGraph(7, edges, source=s, target=t, labels=labels)
    return Instance(graph=graph, beta=b, reward=None)


# gen_random's ranges, which the command line checks its arguments against
_LEAST_MAX_NUMERATOR, _LEAST_MAX_DENOMINATOR = 0, 1


def _edge_density(density: float | Fraction) -> float:
    """gen_random's edge probability as a float; it must lie in (0, 1]."""
    dens = float(density)
    if not 0 < dens <= 1:
        raise ParameterOutOfRangeError(f"density must lie in (0, 1], got {density}")
    return dens


def gen_random(n: int,
               density: float | Fraction,
               beta: RationalLike = Fraction(1, 2),
               *,
               max_numerator: int = 8,
               max_denominator: int = 64,
               seed: int = 0) -> Instance:
    """Seeded random DAG, preprocessed, with rational costs of bounded size.

    Node 0 is the source and node n-1 the target; node ids are not shuffled.
    The PRNG is Python's Mersenne Twister (`random.Random`) keyed by the
    64-bit seed, so instances are reproducible. The draw order: one
    `random()` per forward pair (i, j), i < j, in row-major order, the pair
    becoming an edge when it falls below the density; a kept edge's cost
    p/q, p uniform in 0..max_numerator and q in 1..max_denominator, is drawn
    right after its pair, p first, each as `randint` draws it. If the target
    is then unreachable, the missing chain edges (i, i+1) are added, and
    their costs drawn, last. The graph is restricted to nodes on some
    source-to-target path, with ids re-densified (ascending old id).
    """
    for name, value in (("n", n), ("max_numerator", max_numerator),
                        ("max_denominator", max_denominator)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, got {type(value).__name__} ({value!r})")
    if n < 2:
        raise ParameterOutOfRangeError("need at least two nodes")
    dens = _edge_density(density)
    if max_numerator < _LEAST_MAX_NUMERATOR or max_denominator < _LEAST_MAX_DENOMINATOR:
        raise ParameterOutOfRangeError("cost bounds must be nonnegative/positive")
    b = check_bias(beta)
    rng = random.Random(seed & 0xFFFFFFFFFFFFFFFF)
    draw, bits = rng.random, rng.getrandbits
    # randint(lo, hi) is lo + r for the first r = getrandbits(k) below the
    # width w = hi - lo + 1, where k = w.bit_length(); a width of 1 draws too
    wp, wq = max_numerator + 1, max_denominator
    kp, kq = wp.bit_length(), wq.bit_length()
    costs: dict[tuple[int, int], Fraction] = {}  # one Fraction per distinct cost

    def rand_cost() -> Fraction:
        p = bits(kp)
        while p >= wp:
            p = bits(kp)
        q = bits(kq)
        while q >= wq:
            q = bits(kq)
        key = (p, q + 1)
        cost = costs.get(key)
        if cost is None:
            cost = costs[key] = Fraction(p, q + 1)
        return cost

    edges: list[tuple[int, int, Fraction]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw() < dens:
                edges.append((i, j, rand_cost()))

    # tails ascend, so one forward pass settles what the source reaches
    forward = [False] * n
    forward[0] = True
    for tail, head, _ in edges:
        if forward[tail]:
            forward[head] = True
    if forward[n - 1]:
        backward = [False] * n
        backward[n - 1] = True
        for tail, head, _ in reversed(edges):
            if backward[head]:
                backward[tail] = True
        keep = [v for v in range(n) if forward[v] and backward[v]]
    else:
        # guarantee source-to-target connectivity via the chain spine, on
        # which every node lies
        chained = {tail for tail, head, _ in edges if head == tail + 1}
        edges += [(i, i + 1, rand_cost()) for i in range(n - 1) if i not in chained]
        keep = list(range(n))
    if len(keep) < n:
        remap = {old: new for new, old in enumerate(keep)}
        edges = [(remap[tail], remap[head], cost) for tail, head, cost in edges
                 if tail in remap and head in remap]
    labels = ["s"] + [f"n{v}" for v in keep[1:-1]] + ["t"]
    graph = TaskGraph(len(keep), edges, source=0, target=len(keep) - 1, labels=labels)
    return Instance(graph=graph, beta=b, reward=None)
