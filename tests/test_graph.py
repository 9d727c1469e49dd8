"""Graph core: validation, preprocessing, exact distances, perceived costs."""

import random
import re
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penalty_planner import (
    BiasOutOfRangeError,
    CnfFormula,
    CostConfiguration,
    GraphStructureError,
    NoPathError,
    TaskGraph,
    UnknownEdgeError,
    as_rational,
    build_view,
    cheapest_costs,
    check_bias,
    config_to_assignment,
    exact_infimum,
    gen_alice,
    gen_noopt,
    gen_random,
    is_motivating,
    min_motivating_reward,
    minmax_path,
    preprocess,
    sat_to_mcc,
    successor_map,
    validate,
)
from penalty_planner.graph import distances, scaled_costs
from oracles import all_paths, brute_cheapest, random_config


def test_as_rational_accepts_exact_forms():
    assert as_rational("3/4") == F(3, 4)
    assert as_rational(5) == F(5)
    assert as_rational(F(1, 3)) == F(1, 3)
    assert as_rational("-007/14") == F(-1, 2)


def test_as_rational_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        as_rational(0.1)
    with pytest.raises(TypeError):
        as_rational(True)
    with pytest.raises(ValueError):
        as_rational("1/0")
    with pytest.raises(ValueError):
        as_rational("cheap")
    with pytest.raises(ValueError, match=r"^not a rational: '1\.5'$"):
        as_rational("1.5")  # a decimal is not a p/q string


def test_check_bias_bounds():
    assert check_bias("1/2") == F(1, 2)
    assert check_bias(1) == 1
    with pytest.raises(BiasOutOfRangeError):
        check_bias(0)
    with pytest.raises(BiasOutOfRangeError):
        check_bias("3/2")
    with pytest.raises(BiasOutOfRangeError):
        check_bias(1, strict=True)


def test_validate_minimal_graph():
    g = TaskGraph(2, [(0, 1, 0)], 0, 1)
    assert validate(g) == []


def test_validate_smallest_cycle():
    g = TaskGraph(2, [(0, 1, 1), (1, 0, 1)], 0, 1)
    kinds = {v.kind for v in validate(g)}
    assert kinds == {"cycle"}


def test_validate_generated_alice():
    assert validate(gen_alice(10).graph) == []


def test_validate_negative_cost_and_parallel_edges():
    g = TaskGraph(2, [(0, 1, "-1"), (0, 1, 2)], 0, 1)
    kinds = sorted(v.kind for v in validate(g))
    assert kinds == ["negative-cost", "parallel-edge"]


def test_validate_unreachable_target():
    g = TaskGraph(3, [(1, 2, 1)], 0, 2)
    assert [v.kind for v in validate(g)] == ["no-path"]


def test_validate_order_and_messages_of_copies_and_negative_costs():
    # three copies of s -> t among them, two negative: edge by edge, the
    # first copy is the one kept and every later one is reported
    g = TaskGraph(3, [(0, 2, "-1"), (0, 1, 1), (0, 2, 2), (1, 2, "-1/2"), (0, 2, "-3")],
                  0, 2, labels=["s", "a", "t"])
    assert [(v.kind, v.message) for v in validate(g)] == [
        ("negative-cost", "edge s -> t has cost -1"),
        ("parallel-edge", "more than one edge s -> t"),
        ("negative-cost", "edge a -> t has cost -1/2"),
        ("parallel-edge", "more than one edge s -> t"),
        ("negative-cost", "edge s -> t has cost -3"),
    ]


def test_validate_reports_each_dead_end_after_the_edges():
    # y and z have no out-edge; w cannot reach t either, but only through z,
    # so only the two dead ends are named
    g = TaskGraph(6, [(0, 1, 1), (0, 5, 1), (1, 5, "-1"), (4, 3, 0), (0, 2, 1)],
                  0, 5, labels=["s", "x", "y", "z", "w", "t"])
    assert [(v.kind, v.message) for v in validate(g)] == [
        ("negative-cost", "edge x -> t has cost -1"),
        ("dead-end", "node y has no out-edge and cannot reach target t"),
        ("dead-end", "node z has no out-edge and cannot reach target t"),
    ]
    # preprocessing drops every node that cannot reach the target
    assert [v.kind for v in validate(preprocess(g))] == ["negative-cost"]


def test_validate_keeps_the_order_it_checked():
    g = gen_alice(5).graph
    assert validate(g) == []
    assert g._topo == tuple(range(g.n))


@pytest.mark.parametrize("plan", [
    lambda g: cheapest_costs(g),
    lambda g: min_motivating_reward(g, None, F(1, 2)),
    lambda g: minmax_path(g, F(1, 2)),
    lambda g: exact_infimum(g, F(1, 2)),
], ids=["cheapest_costs", "min_motivating_reward", "minmax_path", "exact_infimum"])
def test_planning_on_a_cyclic_graph_raises(plan):
    g = TaskGraph(3, [(0, 1, 1), (1, 2, 1), (2, 1, 1)], 0, 2)
    with pytest.raises(GraphStructureError, match="^graph contains a cycle$"):
        plan(g)


def test_distances_need_every_node_to_reach_the_target():
    g = TaskGraph(3, [(0, 1, 1), (0, 2, 1)], 0, 2, labels=["s", "x", "t"])
    with pytest.raises(NoPathError, match="^node x has no path to the target"):
        distances(g, [1, 1])
    assert distances(preprocess(g), [1]) == [1, 0]


def test_preprocess_drops_isolated_node():
    g = TaskGraph(3, [(0, 2, 0)], 0, 2, labels=["s", "x", "t"])
    clean = preprocess(g)
    assert clean.n == 2
    assert clean.labels == ("s", "t")
    assert clean.source == 0 and clean.target == 1
    assert clean.cost(0, 1) == 0
    with pytest.raises(UnknownEdgeError, match="^no edge t -> s$"):
        clean.cost(1, 0)


def test_preprocess_drops_dead_end():
    # an edge into a node with no route onward must disappear with the node
    g = TaskGraph(3, [(0, 1, 1), (0, 2, 1)], 0, 2, labels=["s", "x", "t"])
    clean = preprocess(g)
    assert clean.labels == ("s", "t")
    assert len(clean.edges) == 1


def test_preprocess_idempotent_on_alice():
    g = gen_alice(10).graph
    once = preprocess(g)
    assert once == g
    assert preprocess(once) == once


def test_preprocess_raises_without_path():
    g = TaskGraph(2, [], 0, 1)
    with pytest.raises(NoPathError):
        preprocess(g)


def test_cheapest_costs_target_is_zero():
    g = gen_alice(4).graph
    assert cheapest_costs(g)[g.target] == 0


def test_cheapest_costs_alice_landmarks():
    m = 10
    g = gen_alice(m).graph
    d = cheapest_costs(g)
    assert d[m - 1] == 1          # last week: only the unit edge remains
    assert d[m - 2] == 2
    assert d[m - 3] == 3
    assert d[m - 4] == 3          # direct edge beats the 4-cost chain continuation
    assert d[0] == 3


def test_cheapest_costs_noopt_chain_value():
    beta = F(1, 3)
    g = gen_noopt(beta).graph
    x = 1 - beta
    d = cheapest_costs(g)
    assert d[2] == x ** 2 + x + 1  # v2: remaining chain costs


def test_cheapest_costs_respects_extras():
    g = gen_alice(5).graph
    cfg = CostConfiguration({(0, 1): F(7, 2)})
    d = cheapest_costs(g, cfg)
    assert d[0] == 3  # direct edge unaffected
    assert cheapest_costs(g)[0] == 3


@pytest.mark.parametrize("seed", range(50))
def test_cheapest_costs_matches_path_enumeration(seed):
    # seeds 25-49 draw {0,1} costs and extras, which make ties common
    ties = {"max_numerator": 1, "max_denominator": 1} if seed >= 25 else {}
    inst = gen_random(2 + seed % 9, 0.5, F(1, 2), seed=seed, **ties)
    g = inst.graph
    rng = random.Random(seed)
    cfg = random_config(g, rng, max_num=1, max_den=1) if ties else random_config(g, rng)
    d = cheapest_costs(g, cfg)
    for v in range(g.n):
        assert d[v] == (0 if v == g.target else brute_cheapest(g, cfg, v))
    beta = [F(1, 5), F(1, 2), F(2, 3), F(1)][seed % 4]
    base = {v: brute_cheapest(g, None, v) for v in range(g.n)}
    eta0 = {(e.tail, e.head): e.cost + beta * base[e.head] for e in g.edges}
    sig = successor_map(g)
    view = build_view(g, cfg, beta)
    for v in range(g.n):
        if v == g.target:
            continue
        eta = {(e.tail, e.head): e.cost + cfg.get(e.tail, e.head)
               + beta * brute_cheapest(g, cfg, e.head) for e in g.out_edges(v)}
        low = min(eta.values())
        assert {k: view.eta[k] for k in eta} == eta
        assert (view.zeta[v], view.argmin[v]) == (
            low, frozenset(k for k, x in eta.items() if x == low))
        assert sig[v] == min(e.head for e in g.out_edges(v)
                             if e.cost + base[e.head] == base[v])
    path, rho = minmax_path(g, beta)
    assert rho == max(eta0[pair] for pair in zip(path, path[1:]))
    assert rho == min(max(eta0[pair] for pair in zip(p, p[1:])) for p in all_paths(g))


@pytest.mark.parametrize("call", [
    lambda g, cfg: cheapest_costs(g, cfg),
    lambda g, cfg: build_view(g, cfg, F(1, 3)),
    lambda g, cfg: is_motivating(g, cfg, F(1, 3), 6),
    lambda g, cfg: min_motivating_reward(g, cfg, F(1, 3)),
    lambda g, cfg: scaled_costs(g, cfg),
    # on a reduction graph, which lacks the same edges as alice's
    lambda g, cfg: config_to_assignment(sat_to_mcc(CnfFormula(1, ((1, 1, 1),)), F(1, 3)), cfg),
], ids=["cheapest_costs", "build_view", "is_motivating", "min_motivating_reward",
        "scaled_costs", "config_to_assignment"])
def test_configuration_naming_a_missing_edge_is_rejected(call):
    g = gen_alice(5).graph
    # a zero extra names its edge as much as any other
    for extra in ({(3, 0): 1}, CostConfiguration({(0, 1): 1, (3, 0): 1}), {(0, 99): 1},
                  {(3, 0): 0}, {(0, 1): 1, (0, 99): 0}):
        with pytest.raises(UnknownEdgeError):
            call(g, extra)


@pytest.mark.parametrize("seed", range(40))
def test_scaled_costs_are_exact(seed):
    # even seeds draw {0,1} costs; extras over primes above 64 have
    # denominators coprime to every base cost's
    ties = {"max_numerator": 1, "max_denominator": 1} if seed % 2 == 0 else {}
    g = gen_random(2 + seed % 9, 0.5, F(1, 2), seed=400 + seed, **ties).graph
    rng = random.Random(seed)
    extra = {(e.tail, e.head): F(rng.randint(0, 9), rng.choice([1, 2, 67, 71, 73]))
             for e in g.edges if rng.random() < 0.5}
    if seed % 3 == 0:
        # a parallel copy of the first edge (which validate would report):
        # an extra on the pair is charged to both copies
        first = g.edges[0]
        g = TaskGraph(g.n, [(e.tail, e.head, e.cost) for e in g.edges]
                      + [(first.tail, first.head, F(5, 61))], g.source, g.target)
        extra[(first.tail, first.head)] = F(3, 71)
    # one graph object serves a configuration, then none, then another: the
    # base costs it scaled once must not carry one call's extras into the next
    other = {pair: x + F(1, 79) for pair, x in list(extra.items())[::2]}
    for cfg in (extra, None, CostConfiguration(extra), other, None):
        icost, scale = scaled_costs(g, cfg)
        assert all(type(c) is int for c in icost)
        assert [F(c, scale) for c in icost] == [
            e.cost + CostConfiguration(cfg).get(e.tail, e.head) for e in g.edges]
        # the unit is the lcm of every base and extra denominator
        assert scale == lcm(*(e.cost.denominator for e in g.edges),
                            *(x.denominator for x in CostConfiguration(cfg).extra.values()))


def test_scaled_costs_results_are_independent():
    # changing what one call returned changes nothing a later call returns
    g = gen_random(12, 0.5, F(1, 2), seed=3).graph
    pair = (g.edges[0].tail, g.edges[0].head)
    for cfg in (None, {pair: F(2, 7)}, {pair: F(2, 7)}, None):
        icost, scale = scaled_costs(g, cfg)
        assert [F(c, scale) for c in icost] == [
            e.cost + CostConfiguration(cfg).get(e.tail, e.head) for e in g.edges]
        try:
            icost[0] += 1
        except TypeError:  # the costs without extras are shared, so immutable
            assert cfg is None


@pytest.mark.parametrize("seed", range(20))
def test_zeta_between_discounted_and_full_distance(seed):
    beta = [F(1, 5), F(1, 3), F(2, 3), F(1)][seed % 4]
    g = gen_random(3 + seed % 8, 0.5, beta, seed=100 + seed).graph
    cfg = random_config(g, random.Random(seed))
    view = build_view(g, cfg, beta)
    for v in range(g.n):
        if v == g.target:
            continue
        assert beta * view.d[v] <= view.zeta[v] <= view.d[v]


@pytest.mark.parametrize("seed", range(20))
def test_monotonicity_in_extras(seed):
    beta = F(1, 2)
    g = gen_random(3 + seed % 8, 0.5, beta, seed=200 + seed).graph
    rng = random.Random(seed)
    lo = random_config(g, rng)
    bump = random_config(g, rng)
    hi = CostConfiguration({(e.tail, e.head): lo.get(e.tail, e.head) + bump.get(e.tail, e.head)
                            for e in g.edges})
    view_lo = build_view(g, lo, beta)
    view_hi = build_view(g, hi, beta)
    for v in range(g.n):
        assert view_lo.d[v] <= view_hi.d[v]
        if v != g.target:
            assert view_lo.zeta[v] <= view_hi.zeta[v]
    for key, value in view_lo.eta.items():
        assert value <= view_hi.eta[key]


def test_time_consistent_argmin_is_cheapest_first_edge():
    # with beta = 1 the argmin edges are exactly the first edges of cheapest paths
    for seed in range(10):
        g = gen_random(3 + seed % 7, 0.6, 1, seed=300 + seed).graph
        view = build_view(g, None, 1)
        d = cheapest_costs(g)
        for v in range(g.n):
            if v == g.target:
                continue
            cheapest_first = frozenset(
                (e.tail, e.head) for e in g.out_edges(v) if e.cost + d[e.head] == d[v])
            assert view.argmin[v] == cheapest_first


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 10))
def test_preprocess_idempotent_on_random_graphs(seed, n):
    g = gen_random(n, 0.4, F(1, 2), seed=seed).graph
    assert preprocess(g) == g


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        TaskGraph(2, [(0, 1, 0)], 0, 1, labels=["a", "a"])


def test_graph_needs_a_node_and_one_label_per_node():
    with pytest.raises(ValueError, match="^graph needs at least one node$"):
        TaskGraph(0, [], 0, 0)
    with pytest.raises(ValueError, match="^labels length must equal node count$"):
        TaskGraph(2, [(0, 1, 0)], 0, 1, labels=["s"])


@pytest.mark.parametrize("label", [5, 1.5, b"a"])
def test_labels_must_be_strings(label):
    with pytest.raises(ValueError, match="not a string"):
        TaskGraph(2, [(0, 1, 1)], 0, 1, [label, None])
    with pytest.raises(ValueError, match="not a string"):
        TaskGraph(2, [(0, 1, 1)], 0, 1, ["a", label])


@pytest.mark.parametrize("bad", [True, 2.0, "1"], ids=repr)
@pytest.mark.parametrize("position", ["source", "target", "tail", "head"])
def test_graph_node_ids_must_be_ints(position, bad):
    # the range check alone would store True as node 1 and fail on 2.0 or "1"
    # with a message that does not name the id
    ids = {"source": 0, "target": 2, "tail": 1, "head": 2}
    ids[position] = bad
    edges = [(0, 1, 1), (ids["tail"], ids["head"], 1)]
    message = rf"^node id must be an int, got {type(bad).__name__} \({re.escape(repr(bad))}\)$"
    with pytest.raises(TypeError, match=message):
        TaskGraph(3, edges, ids["source"], ids["target"])


def test_configuration_normalizes_zero_entries():
    a = CostConfiguration({(0, 1): 0, (1, 2): F(1, 2)})
    b = CostConfiguration({(1, 2): F(1, 2)})
    assert a == b
    assert a.get(0, 1) == 0
    # given a graph, the zero entries it drops are checked first
    g = TaskGraph(3, [(0, 1, 1), (1, 2, 1)], 0, 2)
    assert CostConfiguration({(0, 1): 0, (1, 2): F(1, 2)}, g) == b
    with pytest.raises(UnknownEdgeError, match=r"^configuration references missing edge \(0, 2\)$"):
        CostConfiguration({(0, 2): 0}, g)
    with pytest.raises(ValueError):
        CostConfiguration({(0, 1): -1})


@pytest.mark.parametrize("bad", [1.9, "1", True], ids=repr)
def test_configuration_node_ids_must_be_ints(bad):
    # int() would read each as node 1: 1.9 truncated, "1" parsed, True an int.
    # Ids are checked before the graph, and with True both keys name edges
    g = gen_alice(3).graph
    for key in ((bad, 3), (0, bad)):
        message = rf"^node ids must be ints, got \({key[0]!r}, {key[1]!r}\)$"
        with pytest.raises(TypeError, match=message):
            CostConfiguration({key: 1})
        with pytest.raises(TypeError, match=message):
            CostConfiguration({key: 1}, g)


def test_reprs_and_comparison_with_other_types():
    g = TaskGraph(2, [(0, 1, 1)], 0, 1, ["s", None])
    assert repr(g) == "TaskGraph(n=2, edges=1, source=s, target=1)"
    assert repr(CostConfiguration({(0, 1): 0})) == "CostConfiguration.zero()"
    cfg = CostConfiguration({(1, 2): F(7, 2), (0, 1): 1})
    assert repr(cfg) == "CostConfiguration({(0, 1): 1, (1, 2): 7/2})"
    # neither type claims equality with a value of another type
    assert g != (2, [(0, 1, 1)]) and cfg != {(0, 1): 1, (1, 2): F(7, 2)}
