"""Generators: structure, parameter domains, determinism."""

import math
from fractions import Fraction as F

import pytest

import oracles
from penalty_planner import (
    ParameterOutOfRangeError,
    TaskGraph,
    build_view,
    gen_alice,
    gen_noopt,
    gen_random,
    gen_ratio,
    is_motivating,
    preprocess,
    serialize,
    validate,
)


def test_alice_smallest_instance():
    inst = gen_alice(2)
    g = inst.graph
    assert g.n == 3
    assert g.cost(0, g.target) == 3
    assert g.cost(0, 1) == 1
    assert g.cost(1, g.target) == 1


def test_alice_default_parameters_follow_the_story():
    inst = gen_alice(10)
    assert inst.beta == F(1, 3)
    assert inst.reward == 6
    report = is_motivating(inst.graph, None, inst.beta, inst.reward)
    assert report.motivating
    assert report.walks == (tuple(range(11)),)


def test_alice_time_consistent_agent_presents_immediately():
    inst = gen_alice(10, beta=1)
    g = inst.graph
    view = build_view(g, None, 1)
    assert view.argmin[0] == frozenset({(0, g.target)})  # 3 < total homework
    assert is_motivating(g, None, 1, 3).motivating
    assert not is_motivating(g, None, 1, F(29, 10)).motivating


def test_alice_rejects_tiny_m():
    with pytest.raises(ParameterOutOfRangeError):
        gen_alice(1)


def test_alice_rejects_negative_reward():
    with pytest.raises(ParameterOutOfRangeError):
        gen_alice(3, F(1, 3), -1)
    assert gen_alice(3, F(1, 3), 0).reward == 0


def test_ratio_node_count_at_benchmark_parameters():
    inst = gen_ratio(F(1, 2), F(1, 2))
    assert math.ceil(F(1, F(1, 4) * F(1, 2) * F(1, 4))) == 32
    assert inst.graph.n == 66  # 2m+1 main nodes plus the hub
    main_cost = (1 - F(1, 2)) * F(1, 2) ** 2
    assert inst.graph.cost(0, 1) == main_cost
    hub = inst.graph.node_by_label("w")
    assert inst.graph.cost(hub, inst.graph.target) == 2
    # every interior main node has a free hub edge
    for i in range(64):
        assert inst.graph.cost(i, hub) == 0


@pytest.mark.parametrize("beta,eps", [(F(1, 2), F(1, 2)), (F(1, 3), F(1, 4)),
                                      (F(2, 3), F(1, 5))])
def test_ratio_length_inequality(beta, eps):
    inst = gen_ratio(beta, eps)
    m = (inst.graph.n - 2) // 2
    assert m * beta * (1 - beta) * eps * eps >= 1 / beta


def test_ratio_parameter_domain():
    with pytest.raises(ParameterOutOfRangeError):
        gen_ratio(F(1, 2), 1)
    with pytest.raises(ParameterOutOfRangeError):
        gen_ratio(F(1, 2), 0)
    from penalty_planner import BiasOutOfRangeError
    with pytest.raises(BiasOutOfRangeError):
        gen_ratio(1, F(1, 2))


def test_noopt_structure():
    for beta in (F(1, 5), F(1, 2), F(3, 4)):
        inst = gen_noopt(beta)
        g = inst.graph
        x = 1 - beta
        assert g.n == 7
        assert g.cost(0, 1) == x ** 3
        assert g.cost(1, 5) == x ** 2
        assert g.cost(5, 6) == 2 - beta
        view = build_view(g, None, beta)
        assert view.eta[(1, 2)] == 1 == view.eta[(1, 5)]


def test_random_two_nodes_is_single_edge():
    for seed in (0, 7, 123456789):
        g = gen_random(2, 0.5, seed=seed).graph
        assert g.n == 2
        assert len(g.edges) == 1


def test_random_determinism():
    a = gen_random(12, 0.4, F(1, 3), seed=7).graph
    b = gen_random(12, 0.4, F(1, 3), seed=7).graph
    assert a == b
    c = gen_random(12, 0.4, F(1, 3), seed=8).graph
    assert a != c


def test_random_instances_are_clean():
    for seed in range(30):
        g = gen_random(2 + seed % 11, 0.4, seed=seed).graph
        assert validate(g) == []
        assert preprocess(g) == g


def test_random_cost_bounds_respected():
    g = gen_random(10, 0.8, max_numerator=5, max_denominator=6, seed=3).graph
    for e in g.edges:
        assert 0 <= e.cost <= 5
        assert e.cost.denominator <= 6


def test_random_parameter_domain():
    with pytest.raises(ParameterOutOfRangeError):
        gen_random(1, 0.5)
    with pytest.raises(ParameterOutOfRangeError):
        gen_random(5, 0)
    with pytest.raises(ParameterOutOfRangeError):
        gen_random(5, 1.5)
    for bounds in ({"max_denominator": 0}, {"max_numerator": -1}):
        with pytest.raises(ParameterOutOfRangeError,
                           match="^cost bounds must be nonnegative/positive$"):
            gen_random(5, 0.5, **bounds)


@pytest.mark.parametrize("name", ["n", "max_numerator", "max_denominator"])
@pytest.mark.parametrize("value", [8.0, 64.0, True, "8"])
def test_random_integer_arguments_must_be_ints(name, value):
    args = {"n": 5, "max_numerator": 8, "max_denominator": 64, name: value}
    n = args.pop("n")
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        gen_random(n, 0.5, **args)


def _against_reference(monkeypatch, n, density, seed, **bounds) -> tuple[bool, bool]:
    """Assert that gen_random and the reference serialize alike; return
    whether the reference added the chain spine (it then builds its raw
    graph twice) and whether preprocess dropped nodes."""
    builds = []

    class CountedGraph(TaskGraph):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            builds.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(oracles, "TaskGraph", CountedGraph)
    want = oracles.gen_random_reference(n, density, seed=seed, **bounds)
    got = gen_random(n, density, seed=seed, **bounds)
    assert serialize(got) == serialize(want), (n, density, seed, bounds)
    return len(builds) == 2, want.graph.n < n


_SEEDS = (0, 1, 5, 7, 2**64 + 5, -3)


# max_numerator=0 and max_denominator=1 draw 1-bit integers, redrawn until 0
@pytest.mark.parametrize("bounds", [{}, {"max_numerator": 0, "max_denominator": 1},
                                    {"max_numerator": 1, "max_denominator": 1},
                                    {"max_numerator": 100, "max_denominator": 7},
                                    {"max_numerator": 3, "max_denominator": 2}])
def test_random_matches_reference(monkeypatch, bounds):
    for n in (2, 3, 5, 13, 40):
        for density in (0.05, 0.3, 1.0):
            for seed in _SEEDS:
                _against_reference(monkeypatch, n, density, seed, **bounds)


def test_random_reference_grid_covers_spine_and_pruning(monkeypatch):
    for seed in (0, 1, 5, 7):
        spine, _ = _against_reference(monkeypatch, 5, 0.05, seed)
        assert spine
    spine, pruned = _against_reference(monkeypatch, 300, 0.02, 5,
                                       max_numerator=1, max_denominator=1)
    assert pruned and not spine
    assert gen_random(300, 0.02, max_numerator=1, max_denominator=1, seed=5).graph.n == 26
    _against_reference(monkeypatch, 200, 0.05, 1)


def test_random_shares_one_fraction_per_cost():
    g = gen_random(200, 0.05, max_numerator=1, max_denominator=1, seed=1).graph
    assert len({id(e.cost) for e in g.edges}) == 2 < len(g.edges)


def test_named_generators_are_clean():
    for inst in (gen_alice(10), gen_ratio(F(1, 2), F(1, 2)), gen_noopt(F(1, 3))):
        assert validate(inst.graph) == []
        assert preprocess(inst.graph) == inst.graph
