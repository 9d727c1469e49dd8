"""Commitment devices: fences, exact search, approximation, subgraph tools."""

import random
import re
import sys
from fractions import Fraction as F

import pytest

from penalty_planner import (
    BudgetExceededError,
    CnfFormula,
    CostConfiguration,
    DisconnectedError,
    InvalidPathError,
    NoPathError,
    TaskGraph,
    UnknownEdgeError,
    brute_subgraph_opt,
    build_view,
    check_path,
    cheapest_costs,
    emulate_subgraph,
    exact_infimum,
    fence_required_reward,
    gen_alice,
    gen_noopt,
    gen_random,
    gen_ratio,
    is_motivating,
    min_motivating_reward,
    minmax_path,
    minmax_path_approx,
    path_and_fence,
    reachable_by_ties,
    sat_to_mcc,
    successor_map,
    tie_walk,
)
from oracles import (
    all_paths,
    brute_approx_config,
    brute_fence,
    brute_infimum,
    brute_min_reward,
    brute_minmax_path,
    first_optimal_path,
    materialize_subgraph,
    random_config,
)

ALICE_CHAIN = tuple(range(11))


def alice(m=10):
    return gen_alice(m).graph


# -- path validation ----------------------------------------------------------


def test_check_path_errors():
    g = alice(4)
    with pytest.raises(InvalidPathError):
        path_and_fence(g, F(1, 3), [0, 1, 2], 1)          # does not end at target
    with pytest.raises(InvalidPathError):
        path_and_fence(g, F(1, 3), [1, 2, 3, 4], 1)       # does not start at source
    with pytest.raises(InvalidPathError):
        path_and_fence(g, F(1, 3), [0, 2, 4], 1)          # missing edge
    with pytest.raises(InvalidPathError):
        path_and_fence(g, F(1, 3), [0], 1)               # source is not the target
    for path in ([0], []):
        with pytest.raises(InvalidPathError):
            fence_required_reward(g, F(1, 3), path)


def test_check_path_rejects_a_repeated_node():
    # a repeated node needs a cycle; check_path refuses the path before the edges
    g = TaskGraph(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1)], 0, 2)
    with pytest.raises(InvalidPathError, match="^path repeats a node$"):
        check_path(g, [0, 1, 0, 1, 2])


@pytest.mark.parametrize("bad", [99, -1])
def test_ids_outside_the_graph_are_named_by_their_number(bad):
    # alice(4): v1..v4 are ids 0..3 and t is 4; -1 must not read as t
    g = alice(4)
    with pytest.raises(InvalidPathError, match=f"^missing edge v1 -> {bad}$"):
        check_path(g, [0, bad, 4])
    with pytest.raises(UnknownEdgeError, match=f"^no edge {bad} -> v1$"):
        g.edge_index(bad, 0)
    with pytest.raises(UnknownEdgeError, match=f"^no edge v2 -> {bad}$"):
        g.cost(1, bad)
    with pytest.raises(UnknownEdgeError, match=rf"^kept edge \({bad}, 1\) is not in the graph$"):
        emulate_subgraph(g, [(bad, 1)], 6)


@pytest.mark.parametrize("bad", [1.9, "1", True], ids=repr)
def test_node_ids_must_be_ints(bad):
    # int() would read each as node 1: 1.9 truncated, "1" parsed, True an int
    g = gen_alice(3).graph
    message = rf"^node id must be an int, got {type(bad).__name__} \({re.escape(repr(bad))}\)$"
    with pytest.raises(TypeError, match=message):
        check_path(g, [0, bad, 2, 3])
    with pytest.raises(TypeError, match=message):
        path_and_fence(g, F(1, 3), [0, bad, 2, 3], 1)


def test_one_node_instance_fences_its_own_witness():
    g = TaskGraph(1, [], 0, 0)
    result = exact_infimum(g, F(1, 2))
    assert (result.value, result.path) == (0, (0,))
    # the bare target is scored and expanded, as the main loop counts it
    assert (result.paths_evaluated, result.expansions, result.exhausted) == (1, 1, False)
    assert fence_required_reward(g, F(1, 2), result.path) == 0
    assert path_and_fence(g, F(1, 2), result.path, F(1, 10)) == CostConfiguration.zero()


# -- path_and_fence -----------------------------------------------------------


def test_fence_breaks_noopt_tie_by_margin():
    g = gen_noopt(F(1, 2)).graph
    cfg = path_and_fence(g, F(1, 2), [0, 1, 5, 6], F(1, 10))
    # four-node path: margin = beta*eps/(m-2) = 1/40 lands on the tied chain edge
    assert cfg.extra == {(1, 2): F(1, 40)}


def test_fence_on_alice_chain_needs_no_extras():
    g = alice()
    for eps in (F(1, 10), F(1, 1000)):
        cfg = path_and_fence(g, F(1, 3), ALICE_CHAIN, eps)
        assert cfg.is_zero()


def test_fence_two_node_path_clamps_divisor():
    # s -> t directly, with one straying edge; divisor clamps to 1
    g = TaskGraph(3, [(0, 2, 2), (0, 1, 1), (1, 2, 1)], 0, 2)
    beta, eps = F(1, 2), F(1, 4)
    cfg = path_and_fence(g, beta, [0, 2], eps)
    eta_on = F(2)
    eta_off = 1 + beta * 1
    assert cfg.extra == {(0, 1): eta_on - eta_off + beta * eps}


@pytest.mark.parametrize("seed", range(40))
def test_fence_strictness_and_closeness(seed):
    beta = [F(1, 5), F(1, 3), F(1, 2), F(4, 5)][seed % 4]
    g = gen_random(3 + seed % 9, 0.5, beta, seed=700 + seed).graph
    cfg_star = random_config(g, random.Random(seed))
    r = min_motivating_reward(g, cfg_star, beta)
    path = tie_walk(build_view(g, cfg_star, beta))
    for eps in (F(1), F(1, 10)):
        fence = path_and_fence(g, beta, path, eps)
        fview = build_view(g, fence, beta)
        # the agent's argmin at each path node is exactly the path edge
        for i, v in enumerate(path[:-1]):
            assert fview.argmin[v] == frozenset({(v, path[i + 1])})
        assert reachable_by_ties(fview) == frozenset(path)
        # motivating at a premium of eps over the original scheme
        assert is_motivating(g, fence, beta, r + eps).motivating


# -- fence_required_reward ----------------------------------------------------


def test_required_reward_noopt_chain_is_critical_value():
    for beta in (F(1, 5), F(1, 2), F(2, 3)):
        g = gen_noopt(beta).graph
        assert fence_required_reward(g, beta, [0, 1, 2, 3, 4, 6]) == 1 / beta


def test_required_reward_noopt_branch_pays_the_hub_edge():
    # the branch path carries the 2-beta edge, so its fences cannot do better
    for beta in (F(1, 5), F(1, 2)):
        g = gen_noopt(beta).graph
        assert fence_required_reward(g, beta, [0, 1, 5, 6]) == (2 - beta) / beta


def test_required_reward_alice_chain():
    assert fence_required_reward(alice(), F(1, 3), ALICE_CHAIN) == 6


def test_required_reward_single_edge():
    g = TaskGraph(2, [(0, 1, 5)], 0, 1)
    assert fence_required_reward(g, F(1, 2), [0, 1]) == 10


@pytest.mark.parametrize("seed", range(200))
def test_fence_matches_enumeration_oracle(seed):
    # odd seeds draw costs in {0, 1}: on-path and straying edges often tie
    beta = [F(1, 5), F(1, 2), F(2, 3), F(1)][seed % 4]
    costs = {"max_numerator": 1, "max_denominator": 1} if seed % 2 else {}
    g = gen_random(2 + seed % 8, 0.55, beta, seed=1700 + seed, **costs).graph
    rng = random.Random(seed)
    paths = all_paths(g)
    eps = F(rng.randint(1, 5), rng.randint(1, 7))
    for path in rng.sample(paths, min(3, len(paths))):
        assert fence_required_reward(g, beta, path) == brute_fence(g, beta, path, 0)[1]
        margin = beta * eps / max(1, len(path) - 2)
        assert path_and_fence(g, beta, path, eps).extra == brute_fence(g, beta, path, margin)[0]


def test_required_reward_is_limit_of_fenced_min_rewards():
    beta = F(1, 2)
    g = gen_noopt(beta).graph
    chain = (0, 1, 2, 3, 4, 6)
    limit = fence_required_reward(g, beta, chain)
    previous = None
    for k in range(1, 9):
        eps = F(1, 4 ** k)
        got = min_motivating_reward(g, path_and_fence(g, beta, chain, eps), beta)
        assert got > limit
        if previous is not None:
            assert got < previous
        previous = got
    assert previous - limit <= F(1, 4 ** 7)


# -- exact_infimum ------------------------------------------------------------


def test_exact_infimum_noopt():
    for beta in (F(1, 5), F(1, 3), F(1, 2), F(3, 4)):
        g = gen_noopt(beta).graph
        result = exact_infimum(g, beta)
        assert result.value == 1 / beta
        assert result.path == (0, 1, 2, 3, 4, 6)
        assert not result.exhausted
        assert result.expansions == 5  # t, v4, v3, v2, v1; the branch is pruned


def test_exact_infimum_alice():
    result = exact_infimum(alice(), F(1, 3))
    assert result.value == 6
    assert result.path == ALICE_CHAIN


def test_exact_infimum_chain_longer_than_recursion_limit():
    limit = sys.getrecursionlimit()
    inst = gen_alice(1200)
    assert inst.graph.n > limit
    result = exact_infimum(inst.graph, inst.beta)
    assert result.value == 6
    assert result.path == tuple(range(1201))
    assert sys.getrecursionlimit() == limit


def test_exact_infimum_long_chain_work():
    # each of the 3000 expansions reuses the prefix bound below its head;
    # re-sweeping every earlier position made this quadratic (seconds)
    inst = gen_alice(3000)
    result = exact_infimum(inst.graph, inst.beta)
    assert (result.value, result.paths_evaluated, result.expansions) == (6, 1, 3000)
    assert result.path == tuple(range(3001))


def test_exact_infimum_single_path_graph():
    g = TaskGraph(3, [(0, 1, 2), (1, 2, 3)], 0, 2)
    result = exact_infimum(g, F(1, 2))
    assert result.value == fence_required_reward(g, F(1, 2), [0, 1, 2])
    assert result.paths_evaluated == 1


@pytest.mark.parametrize("seed", range(120))
def test_exact_infimum_matches_enumeration_oracle(seed):
    beta = [F(1, 5), F(1, 3), F(1, 2), F(2, 3), F(9, 10), F(1)][seed % 6]
    # seeds from 60 on draw costs in {0, 1}: many ties between paths
    costs = {"max_numerator": 1, "max_denominator": 1} if seed >= 60 else {}
    g = gen_random(2 + seed % 9, 0.55, beta, seed=800 + seed, **costs).graph
    value, _ = brute_infimum(g, beta)
    result = exact_infimum(g, beta)
    assert result.value == value
    assert not result.exhausted
    # the witness path's own fence value equals the reported infimum
    assert fence_required_reward(g, beta, result.path) == result.value


@pytest.mark.parametrize("seed", range(200))
def test_exact_infimum_witness_is_first_optimal_path_in_search_order(seed):
    # the search grows paths back from the target, tails by id, and keeps
    # only strict improvements: of all optimal paths, the witness is the
    # least when read backwards. Costs in {0, 1} make optimal paths tie.
    beta = [F(1, 5), F(1, 3), F(1, 2), F(2, 3), F(1)][seed % 5]
    g = gen_random(3 + seed % 9, 0.6, beta, seed=1300 + seed,
                   max_numerator=1, max_denominator=1).graph
    values = {p: fence_required_reward(g, beta, p) for p in all_paths(g)}
    best = min(values.values())
    optimal = [p for p, value in values.items() if value == best]
    result = exact_infimum(g, beta)
    assert result.value == best
    assert result.path == min(optimal, key=lambda p: p[::-1])


@pytest.mark.parametrize("seed", range(300))
def test_exact_infimum_witness_matches_first_optimal_path_oracle(seed):
    # tie-heavy graphs: costs in {0, 1}, or in {0, 1/2, 1, 2} for every
    # fourth seed; about 2 in 5 have several optimal paths. The search may
    # stop early (at the first path the probe round scores, or at the proven
    # floor), but value and witness are those of enumeration in its order
    beta = [F(1, 5), F(1, 3), F(1, 2), F(2, 3), F(1)][seed % 5]
    bound = 2 if seed % 4 == 0 else 1
    g = gen_random(4 + seed % 7, [0.4, 0.55, 0.7][seed % 3], beta, seed=4100 + seed,
                   max_numerator=bound, max_denominator=bound).graph
    result = exact_infimum(g, beta)
    assert (result.value, result.path) == first_optimal_path(g, beta)
    assert not result.exhausted


@pytest.mark.parametrize("beta", [F(1, 5), F(1, 3), F(1, 2), F(2, 3)], ids=str)
@pytest.mark.parametrize("gap", [False, True], ids=["decision", "gap"])
def test_exact_infimum_full_round_witness_matches_first_optimal_path_oracle(beta, gap):
    # small random graphs almost never reach the full round: their infimum
    # is minmax_path's rho/beta. This unsatisfiable formula's lies above
    # it, so the probe round fails, and the full round must return the
    # first of 18 optimal paths in search order
    g = sat_to_mcc(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))), beta, gap=gap).graph
    result = exact_infimum(g, beta)
    assert result.value > minmax_path(g, beta)[1] / beta
    assert (result.value, result.path) == first_optimal_path(g, beta)


def test_exact_infimum_probe_keeps_no_dominance_memo():
    # node 3's only out-edge is on the path, so its fence adds nothing, and
    # edges (1, 3) and (1, 4) have the same perceived cost: the suffix
    # (1, 3, 4) has the dominance key of (1, 4), searched before it, and no
    # larger maximum. Only the full round keeps a memo; the probe, which
    # settles this graph, expands (1, 3, 4) instead of skipping it (node 5,
    # a clone of node 3, is not needed for that: without it, the same holds)
    g = TaskGraph(6, [(0, 1, 1), (1, 2, 0), (1, 3, 1), (1, 4, 1), (1, 5, 1),
                      (2, 3, 0), (2, 5, 0), (3, 4, 0), (5, 4, 0)], 0, 4)
    result = exact_infimum(g, F(1, 5))
    assert (result.value, result.path) == (5, (0, 1, 2, 3, 4))
    assert (result.paths_evaluated, result.expansions) == (1, 6)
    assert not result.exhausted


def clone_nodes(graph, nodes):
    """The graph plus one new node per given node, with copies of its in-
    and out-edges and their costs: every path through a clone ties exactly
    with the path through the original."""
    edges = [(e.tail, e.head, e.cost) for e in graph.edges]
    for new, v in enumerate(nodes, graph.n):
        edges += [(e.tail, new, e.cost) for e in graph.in_edges(v)]
        edges += [(new, e.head, e.cost) for e in graph.out_edges(v)]
    return TaskGraph(graph.n + len(nodes), edges, graph.source, graph.target)


@pytest.mark.parametrize("seed", range(200))
def test_exact_infimum_with_cloned_nodes_matches_first_optimal_path_oracle(seed):
    # symmetric ties: one or two interior nodes cloned, so that paths
    # through a clone tie exactly with paths through the original, on
    # {0, 1} costs or on p/q costs with p <= 3 and q <= 2
    rng = random.Random(seed)
    beta = [F(1, 5), F(1, 3), F(1, 2), F(2, 3), F(1)][seed % 5]
    bounds = (1, 1) if seed % 2 else (3, 2)
    g = gen_random(4 + seed % 6, [0.4, 0.55][seed // 6 % 2], beta, seed=6100 + seed,
                   max_numerator=bounds[0], max_denominator=bounds[1]).graph
    interior = [v for v in range(g.n) if v not in (g.source, g.target)]
    g = clone_nodes(g, rng.sample(interior, min(1 + seed // 5 % 2, len(interior))))
    result = exact_infimum(g, beta)
    assert (result.value, result.path) == first_optimal_path(g, beta)
    assert not result.exhausted


@pytest.mark.parametrize("seed", range(200))
def test_exact_infimum_always_returns_a_scored_witness(seed):
    # the smallest budget stops only after a scored path, so a cut run
    # still has a value and a witness, and the witness's fence gives it
    beta = [F(1, 5), F(1, 2), F(2, 3), F(1)][seed % 4]
    costs = {"max_numerator": 1, "max_denominator": 1} if seed % 2 else {}
    g = gen_random(2 + seed % 12, 0.5, beta, seed=2100 + seed, **costs).graph
    for budget in (1, 2, 3):
        result = exact_infimum(g, beta, path_budget=budget)
        assert result.value is not None and result.path is not None
        assert 1 <= result.paths_evaluated <= budget
        assert fence_required_reward(g, beta, result.path) == result.value


def test_exact_infimum_budget_flag():
    g = gen_noopt(F(1, 2)).graph  # two paths
    result = exact_infimum(g, F(1, 2), path_budget=1)
    assert result.paths_evaluated == 1
    assert result.value is not None
    # exhausted only if a second evaluation was actually attempted
    full = exact_infimum(g, F(1, 2))
    assert not full.exhausted
    with pytest.raises(ValueError):
        exact_infimum(g, F(1, 2), path_budget=0)
    # here the budget runs out: the formula is unsatisfiable, so the probe
    # round scores nothing, and the full round's first path is not the optimum
    beta = F(1, 5)
    g = sat_to_mcc(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))), beta).graph
    cut = exact_infimum(g, beta, path_budget=1)
    assert cut.exhausted and cut.paths_evaluated == 1
    assert cut.value == 9 and exact_infimum(g, beta).value == F(657, 125)
    assert fence_required_reward(g, beta, cut.path) == cut.value


@pytest.mark.parametrize("seed", range(20))
def test_exact_infimum_dominated_by_any_scheme(seed):
    beta = [F(1, 4), F(1, 2), F(5, 6)][seed % 3]
    g = gen_random(3 + seed % 8, 0.5, beta, seed=900 + seed).graph
    inf = exact_infimum(g, beta).value
    for trial in range(3):
        cfg = random_config(g, random.Random(seed * 31 + trial))
        assert inf <= min_motivating_reward(g, cfg, beta)


# -- minmax path & successor map ---------------------------------------------


def test_minmax_alice():
    path, rho = minmax_path(alice(), F(1, 3))
    assert path == ALICE_CHAIN
    assert rho == 2


def test_minmax_single_edge():
    g = TaskGraph(2, [(0, 1, 5)], 0, 1)
    path, rho = minmax_path(g, F(1, 2))
    assert path == (0, 1) and rho == 5


def test_minmax_ratio_instance_stays_on_main_path():
    inst = gen_ratio(F(1, 2), F(1, 2))
    g = inst.graph
    path, rho = minmax_path(g, F(1, 2))
    assert path == tuple(range(65))  # the full main chain
    assert rho == F(9, 8)


def test_minmax_deterministic():
    g = gen_random(10, 0.6, F(1, 2), seed=42).graph
    assert minmax_path(g, F(1, 2)) == minmax_path(g, F(1, 2))


@pytest.mark.parametrize("seed", range(200))
def test_minmax_path_matches_insertion_oracle(seed):
    # odd seeds draw {0,1} costs, whose many ties test the edge-index order
    ties = {"max_numerator": 1, "max_denominator": 1} if seed % 2 else {}
    g = gen_random(2 + seed % 10, 0.5, seed=2400 + seed, **ties).graph
    for beta in (F(1, 5), F(1, 2), F(2, 3), F(1)):
        assert minmax_path(g, beta) == brute_minmax_path(g, beta)


def test_successor_map_chain():
    g = TaskGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)], 0, 3)
    assert successor_map(g) == {0: 1, 1: 2, 2: 3}


def test_successor_map_alice_tie_resolved_to_lower_id():
    m = 10
    g = alice(m)
    sig = successor_map(g)
    # direct edge is the unique cheapest start until the chain tail
    for i in range(m - 3):
        assert sig[i] == g.target
    # at v_{m-2} (id m-3): chain 1 + d(v_{m-1}) = 3 ties the direct edge; lower id wins
    assert sig[m - 3] == m - 2
    assert sig[m - 2] == m - 1
    assert sig[m - 1] == g.target


def test_successor_map_noopt_prefers_branch():
    # from v1 the branch continuation is strictly cheaper than the chain
    for beta in (F(1, 5), F(1, 2), F(3, 4)):
        g = gen_noopt(beta).graph
        sig = successor_map(g)
        assert sig[1] == 5
        d = cheapest_costs(g)
        assert d[1] == (1 - beta) ** 2 + (2 - beta)


def test_successor_paths_are_cheapest_paths():
    for seed in range(10):
        g = gen_random(4 + seed % 7, 0.5, F(1, 2), seed=1000 + seed).graph
        sig = successor_map(g)
        d = cheapest_costs(g)
        for v in range(g.n):
            total = F(0)
            cur = v
            while cur != g.target:
                total += g.cost(cur, sig[cur])
                cur = sig[cur]
            assert total == d[v]


# -- minmax_path_approx -------------------------------------------------------


def test_approx_alice_exact_numbers():
    g = alice()
    result = minmax_path_approx(g, F(1, 3))
    assert result.minmax_path == ALICE_CHAIN
    assert result.rho == 2
    assert result.guaranteed_reward == 12
    assert result.lower_bound == 6
    # direct edges on the successor chain get their own cost; the two
    # whose successor is the chain get the prohibitive extra
    expected = {(i, 10): F(3) for i in range(7)}
    expected.update({(7, 10): F(18), (8, 10): F(18)})
    assert result.config.extra == expected
    assert result.verification.motivating
    # the scheme is motivating from reward 9 on (extras raise on-path costs)
    assert min_motivating_reward(g, result.config, F(1, 3)) == 9


def test_approx_single_edge_trivial():
    g = TaskGraph(2, [(0, 1, 5)], 0, 1)
    result = minmax_path_approx(g, F(1, 2))
    assert result.config.is_zero()
    assert result.rho == 5
    assert result.guaranteed_reward == 20
    assert result.lower_bound == 10


@pytest.mark.parametrize("seed", range(60))
def test_approx_guarantees_on_random_graphs(seed):
    beta = [F(1, 5), F(1, 3), F(1, 2), F(2, 3), F(9, 10)][seed % 5]
    g = gen_random(3 + seed % 10, 0.5, beta, seed=1100 + seed).graph
    result = minmax_path_approx(g, beta)
    assert is_motivating(g, result.config, beta, result.guaranteed_reward).motivating
    inf = exact_infimum(g, beta).value
    assert inf >= result.lower_bound
    assert result.guaranteed_reward <= 2 * inf
    d0 = cheapest_costs(g)
    dc = cheapest_costs(g, result.config)
    for v in range(g.n):
        assert dc[v] <= 2 * d0[v]
    # every node the agent can visit keeps zeta at most 2*rho
    view = build_view(g, result.config, beta)
    for v in reachable_by_ties(view):
        if v != g.target:
            assert view.zeta[v] <= 2 * result.rho


@pytest.mark.parametrize("seed", range(200))
def test_approx_extras_match_the_chain_walk_oracle(seed):
    # integer costs of at most 1 or 2 tie many cheapest paths and perceived costs
    g = gen_random(2 + seed % 12, 0.5, seed=3100 + seed,
                   max_numerator=1 + seed % 2, max_denominator=1).graph
    for beta in (F(1, 5), F(1, 2), F(2, 3), F(1)):
        assert minmax_path_approx(g, beta).config == brute_approx_config(g, beta)


@pytest.mark.parametrize("seed", range(50))
def test_approx_extras_match_the_chain_walk_oracle_on_rational_costs(seed):
    # p/q costs give scaled_costs a unit above 1, which each charged extra divides out
    g = gen_random(2 + seed % 12, 0.5, seed=3300 + seed).graph
    for beta in (F(1, 3), F(3, 4)):
        assert minmax_path_approx(g, beta).config == brute_approx_config(g, beta)


def shared_chain(k, length):
    """Path nodes 0..k-1 before the target k, on edges of cost 1; each path
    node also has a free edge into one chain of `length` nodes joined by
    free edges, whose exit edge to the target costs 3."""
    chain = range(k + 1, k + 1 + length)
    edges = [(i, i + 1, 1) for i in range(k)] + [(i, chain[0], 0) for i in range(k)]
    edges += [(c, c + 1, 0) for c in chain[:-1]] + [(chain[-1], k, 3)]
    return TaskGraph(k + 1 + length, edges, 0, k)


@pytest.mark.parametrize("k, length", [(1, 1), (4, 1), (5, 3), (8, 8), (12, 5)])
def test_approx_charges_every_path_node_the_shared_chain_exit(k, length):
    g = shared_chain(k, length)
    result = minmax_path_approx(g, F(1, 2))
    assert result.minmax_path == tuple(range(k + 1))
    assert result.config == brute_approx_config(g, F(1, 2))
    # a path node at least four edges from the target enters the chain
    assert all(result.config.get(i, k + 1) == 3 for i in range(k - 3))


# -- emulate_subgraph ---------------------------------------------------------


def test_emulate_keep_everything_is_zero():
    g = alice(5)
    cfg = emulate_subgraph(g, [(e.tail, e.head) for e in g.edges], 6)
    assert cfg.is_zero()


def test_emulate_alice_homework_chain():
    m = 10
    g = alice(m)
    chain = [(i, i + 1) for i in range(m - 1)] + [(m - 1, m)]
    cfg = emulate_subgraph(g, chain, 6)
    assert cfg.extra == {(i, m): F(7) for i in range(m - 1)}


def test_emulate_rejects_disconnection_and_unknown_edges():
    g = alice(4)
    with pytest.raises(DisconnectedError):
        emulate_subgraph(g, [(0, 1)], 6)
    with pytest.raises(UnknownEdgeError):
        emulate_subgraph(g, [(2, 0)], 6)


def test_brute_subgraph_opt_needs_a_connecting_subset():
    g = TaskGraph(3, [(0, 1, 1)], 0, 2)
    with pytest.raises(DisconnectedError, match="^no edge subset connects source to target$"):
        brute_subgraph_opt(g, F(1, 2))


@pytest.mark.parametrize("reward", [-1, F(-1, 2), -6])
def test_emulate_rejects_negative_reward(reward):
    # reward -1 used to give extras of 0: a configuration that prohibits nothing
    g = alice(4)
    with pytest.raises(ValueError, match="nonnegative"):
        emulate_subgraph(g, [(i, i + 1) for i in range(4)], reward)
    assert emulate_subgraph(g, [(i, i + 1) for i in range(4)], 0).extra == {
        (i, 4): F(1) for i in range(3)}


@pytest.mark.parametrize("seed", range(20))
def test_emulation_equivalent_to_true_deletion(seed):
    from oracles import random_connected_subset
    beta = [F(1, 4), F(1, 2), F(1)][seed % 3]
    g = gen_random(4 + seed % 7, 0.55, beta, seed=1200 + seed).graph
    rng = random.Random(seed)
    kept = random_connected_subset(g, rng)
    sub = materialize_subgraph(g, kept)
    r_star = min_motivating_reward(sub, None, beta)
    for reward in (r_star, r_star + 1, max(F(0), r_star - F(1, 2))):
        cfg = emulate_subgraph(g, kept, reward)
        rep_g = is_motivating(g, cfg, beta, reward)
        rep_s = is_motivating(sub, None, beta, reward)
        assert rep_g.motivating == rep_s.motivating
        if rep_s.motivating:
            assert ({g.labels[v] for v in rep_g.reachable}
                    == {sub.labels[v] for v in rep_s.reachable})


# -- brute_subgraph_opt -------------------------------------------------------


def test_brute_single_path_keeps_everything_needed():
    g = TaskGraph(3, [(0, 1, 2), (1, 2, 3)], 0, 2)
    result = brute_subgraph_opt(g, F(1, 2))
    assert result.value == min_motivating_reward(g, None, F(1, 2))
    assert result.kept_edges == frozenset({(0, 1), (1, 2)})


def test_brute_alice_m5_value_six():
    result = brute_subgraph_opt(alice(5), F(1, 3))
    assert result.value == 6


def test_brute_budget_guard():
    g = gen_ratio(F(1, 2), F(1, 2)).graph  # 129 edges
    with pytest.raises(BudgetExceededError):
        brute_subgraph_opt(g, F(1, 2))


def test_brute_cuts_early_shortcuts_on_tiny_temptation_graph():
    # a scaled-down ratio graph: free shortcuts into an expensive hub tempt
    # the agent off the chain; pruning the early ones is strictly better
    beta = F(1, 2)
    hub, target = 6, 5
    edges = [(i, i + 1, F(1, 2)) for i in range(5)]
    edges += [(i, hub, 0) for i in range(5)]
    edges += [(hub, target, 2)]
    g = TaskGraph(7, edges, 0, target)
    full_value = min_motivating_reward(g, None, beta)
    assert full_value == 4  # the agent is lured onto the hub right away
    result = brute_subgraph_opt(g, beta)
    assert result.value == 3
    assert result.value < full_value
    assert (0, hub) not in result.kept_edges
    assert (1, hub) not in result.kept_edges


@pytest.mark.parametrize("seed", range(24))
def test_brute_matches_materialized_enumeration(seed):
    beta = [F(1, 3), F(1, 2), F(4, 5)][seed % 3]
    # seeds from 12 on draw costs in {0, 1}, at a density whose draws all
    # stay within the oracle's nine edges: many ties inside each subgraph
    costs = {"max_numerator": 1, "max_denominator": 1} if seed >= 12 else {}
    g = gen_random(4 + seed % 3, 0.55 if costs else 0.6, beta, seed=1300 + seed, **costs).graph
    assert len(g.edges) <= 9  # the enumeration below is 2^edges subgraphs
    result = brute_subgraph_opt(g, beta)
    pairs = [(e.tail, e.head) for e in g.edges]
    best = brute_best = None
    for mask in range(1 << len(pairs)):
        kept = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        try:
            sub = materialize_subgraph(g, kept)
        except NoPathError:
            continue
        value = min_motivating_reward(sub, None, beta)
        if best is None or value < best:
            best = value
        # path enumeration, without the agent's tie closure
        brute_value, _ = brute_min_reward(sub, None, beta)
        if brute_best is None or brute_value < brute_best:
            brute_best = brute_value
    assert result.value == best == brute_best


def test_brute_respects_ratio_bound():
    for seed in range(8):
        beta = [F(1, 3), F(1, 2)][seed % 2]
        g = gen_random(3 + seed % 5, 0.5, beta, seed=1400 + seed).graph
        assert len(g.edges) <= 12  # brute_subgraph_opt's 2^edges masks
        sub = brute_subgraph_opt(g, beta)
        inf = exact_infimum(g, beta).value
        d0 = cheapest_costs(g)[g.source]
        assert sub.value <= d0 / beta
        assert inf >= d0
        assert sub.value * beta <= inf * 1  # prohibition/penalty ratio <= 1/beta
