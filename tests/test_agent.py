"""Agent simulation: tie reachability, motivation verdicts, reward threshold."""

import random
from fractions import Fraction as F

import pytest

from penalty_planner import (
    TaskGraph,
    build_view,
    cheapest_costs,
    emulate_subgraph,
    gen_alice,
    gen_noopt,
    gen_random,
    is_motivating,
    min_motivating_reward,
    reachable_by_ties,
    tie_walk,
)
from oracles import brute_min_reward, brute_walk_report, materialize_subgraph, random_config


def test_build_view_alice():
    m = 10
    g = gen_alice(m).graph
    view = build_view(g, None, F(1, 3))
    assert view.zeta[0] == 2
    assert view.argmin[0] == frozenset({(0, 1)})
    for i in range(m - 1):
        assert view.eta[(i, g.target)] == 3
    for i in range(m - 3):  # d(i + 1) = 3 while node i + 1 is at least three steps from t
        assert view.eta[(i, i + 1)] == 2


def test_build_view_noopt_tie():
    for beta in (F(1, 5), F(1, 2), F(7, 9)):
        view = build_view(gen_noopt(beta).graph, None, beta)
        assert view.eta[(1, 2)] == view.eta[(1, 5)] == view.zeta[1] == 1
        assert view.argmin[1] == frozenset({(1, 2), (1, 5)})


def test_build_view_no_discount_zeta_is_distance():
    g = gen_random(8, 0.5, 1, seed=3).graph
    view = build_view(g, None, 1)
    assert view.zeta[g.source] == view.d[g.source]
    view = build_view(TaskGraph(2, [(0, 1, 5)], 0, 1), None, 1)
    assert (view.zeta, view.argmin) == ({0: 5}, {0: frozenset({(0, 1)})})


def test_reachable_alice_is_the_chain():
    g = gen_alice(10).graph
    view = build_view(g, None, F(1, 3))
    assert reachable_by_ties(view) == frozenset(range(11))


def test_reachable_noopt_includes_both_branches():
    g = gen_noopt(F(1, 3)).graph
    view = build_view(g, None, F(1, 3))
    assert reachable_by_ties(view) == frozenset(range(7))


def test_reachable_single_edge():
    g = TaskGraph(2, [(0, 1, 5)], 0, 1)
    view = build_view(g, None, F(1, 2))
    assert reachable_by_ties(view) == frozenset({0, 1})


def test_alice_motivating_at_six():
    g = gen_alice(10).graph
    report = is_motivating(g, None, F(1, 3), 6)
    assert report.motivating
    assert report.walks == (tuple(range(11)),)  # she does all the homework
    assert not report.truncated


def test_alice_abandons_below_six():
    g = gen_alice(10).graph
    report = is_motivating(g, None, F(1, 3), 5)
    assert not report.motivating
    assert 0 in report.abandon_nodes
    assert report.walks == ((0,),)  # walk ends where she abandons: v_1


def test_zero_cost_edge_always_motivating():
    g = TaskGraph(2, [(0, 1, 0)], 0, 1)
    for beta in (F(1, 7), F(1, 2), F(1)):
        assert is_motivating(g, None, beta, 1).motivating


def test_min_reward_alice():
    assert min_motivating_reward(gen_alice(10).graph, None, F(1, 3)) == 6


def test_min_reward_noopt_counts_the_tie_branch():
    # the exact tie at v1 makes the branch reachable, where zeta = 2 - beta
    for beta in (F(1, 5), F(1, 3), F(1, 2)):
        g = gen_noopt(beta).graph
        assert min_motivating_reward(g, None, beta) == (2 - beta) / beta


def test_min_reward_single_edge():
    g = TaskGraph(2, [(0, 1, 5)], 0, 1)
    assert min_motivating_reward(g, None, F(1, 2)) == 10


@pytest.mark.parametrize("seed", range(30))
def test_min_reward_is_the_exact_threshold(seed):
    beta = [F(1, 5), F(1, 3), F(1, 2), F(7, 8)][seed % 4]
    g = gen_random(3 + seed % 9, 0.5, beta, seed=400 + seed).graph
    cfg = random_config(g, random.Random(seed))
    r = min_motivating_reward(g, cfg, beta)
    assert is_motivating(g, cfg, beta, r).motivating
    assert is_motivating(g, cfg, beta, r + F(1, 1000)).motivating
    if r > 0:
        assert not is_motivating(g, cfg, beta, r - F(1, 1000)).motivating


@pytest.mark.parametrize("seed", range(60))
def test_min_reward_matches_path_enumeration_oracle(seed):
    # odd seeds draw costs and extras in {0, 1}, where ties are common
    costs, extras = ((1, 1), (1, 1)) if seed % 2 else ((8, 64), (6, 8))
    beta = [F(1, 5), F(1, 3), F(1, 2), F(2, 3), F(1)][seed % 5]
    g = gen_random(3 + seed % 8, 0.6, beta, seed=800 + seed,
                   max_numerator=costs[0], max_denominator=costs[1]).graph
    for cfg in (None, random_config(g, random.Random(seed), 0.4, *extras)):
        want, closure = brute_min_reward(g, cfg, beta)
        got = min_motivating_reward(g, cfg, beta)
        assert type(got) is F and got == want
        assert reachable_by_ties(build_view(g, cfg, beta)) == closure


@pytest.mark.parametrize("seed", range(10))
def test_routing_is_reward_independent(seed):
    g = gen_random(4 + seed % 6, 0.5, F(1, 2), seed=500 + seed).graph
    low = is_motivating(g, None, F(1, 2), F(1, 100))
    high = is_motivating(g, None, F(1, 2), 1000)
    assert low.reachable == high.reachable


def test_time_consistent_min_reward_is_distance():
    for seed in range(10):
        g = gen_random(3 + seed, 0.5, 1, seed=600 + seed).graph
        assert min_motivating_reward(g, None, 1) == cheapest_costs(g)[g.source]


def test_walk_cap_and_truncation_flag():
    # a ladder of exact ties has exponentially many walks
    n = 12
    edges = []
    for i in range(0, n - 2, 2):
        edges += [(i, i + 1, 1), (i, i + 2, 1), (i + 1, i + 2, 0)]
    edges += [(n - 2, n - 1, 1)]
    g = TaskGraph(n, edges, 0, n - 1)
    full = is_motivating(g, None, 1, 100, walk_cap=1000)
    assert not full.truncated
    assert len(full.walks) == 2 ** 5
    capped = is_motivating(g, None, 1, 100, walk_cap=4)
    assert capped.truncated
    assert len(capped.walks) == 4


def test_tie_walk_reaches_target_deterministically():
    g = gen_noopt(F(1, 2)).graph
    view = build_view(g, None, F(1, 2))
    assert tie_walk(view) == (0, 1, 2, 3, 4, 6)  # lowest head id at the tie


def test_emulation_matches_alice_example():
    # keep only the homework chain at reward 6: every direct edge pays 7
    m = 10
    g = gen_alice(m).graph
    chain = [(i, i + 1) for i in range(m - 1)] + [(m - 1, m)]
    cfg = emulate_subgraph(g, chain, 6)
    assert all(cfg.get(i, m) == 7 for i in range(m - 1))
    assert cfg.get(0, 1) == 0
    sub = materialize_subgraph(g, chain)
    for reward in (F(25, 2), 6, 20):
        assert (is_motivating(g, cfg, F(1, 3), reward).motivating
                == is_motivating(sub, None, F(1, 3), reward).motivating)


def test_negative_reward_rejected():
    g = gen_alice(3).graph
    with pytest.raises(ValueError):
        is_motivating(g, None, F(1, 3), -1)


@pytest.mark.parametrize("cap", [-1, -5])
def test_negative_walk_cap_rejected(cap):
    g = gen_alice(3).graph
    with pytest.raises(ValueError, match="walk cap"):
        is_motivating(g, None, F(1, 3), 6, walk_cap=cap)
    assert is_motivating(g, None, F(1, 3), 6, walk_cap=0).walks == ()


@pytest.mark.parametrize("seed", range(15))
def test_walks_follow_argmin_edges_and_end_properly(seed):
    beta = [F(1, 4), F(1, 2), F(1)][seed % 3]
    g = gen_random(4 + seed % 6, 0.5, beta, seed=650 + seed).graph
    cfg = random_config(g, random.Random(seed))
    view = build_view(g, cfg, beta)
    for reward in (F(0), F(1), F(10), F(1000)):
        report = is_motivating(g, cfg, beta, reward, walk_cap=256)
        for walk in report.walks:
            assert walk[0] == g.source
            for u, v in zip(walk, walk[1:]):
                assert (u, v) in view.argmin[u]
            last = walk[-1]
            assert last == g.target or view.zeta[last] > beta * reward
            for u in walk[:-1]:
                assert view.zeta[u] <= beta * reward
            assert set(walk) <= report.reachable


@pytest.mark.parametrize("seed", range(60))
def test_report_matches_path_enumeration_oracle(seed):
    # costs and extras in {0, 1}: many tied edges and many tie walks
    beta = [F(1, 5), F(1, 3), F(1, 2), F(2, 3), F(1)][seed % 5]
    g = gen_random(3 + seed % 8, 0.6, beta, seed=700 + seed,
                   max_numerator=1, max_denominator=1).graph
    rng = random.Random(seed)
    for _ in range(2):
        cfg = random_config(g, rng, max_num=1, max_den=1)
        threshold = min_motivating_reward(g, cfg, beta)
        rewards = [threshold, F(0)] + ([threshold - F(1, 1000)] if threshold > 0 else [])
        for reward in rewards:
            for cap in (1, 3, 64):
                assert (is_motivating(g, cfg, beta, reward, walk_cap=cap)
                        == brute_walk_report(g, cfg, beta, reward, cap))
