"""Instance files: round trips, canonical bytes, schema errors, DOT."""

import json
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penalty_planner import (
    CostConfiguration,
    Instance,
    InstanceSyntaxError,
    SchemaError,
    TaskGraph,
    UnknownEdgeError,
    ValidationError,
    as_rational,
    gen_alice,
    gen_noopt,
    gen_random,
    gen_ratio,
    parse,
    serialize,
    to_dot,
)
from oracles import random_config

DATA = Path(__file__).parent / "data"


def round_trip(instance, config=None):
    text = serialize(instance, config)
    parsed_instance, parsed_config = parse(text)
    assert parsed_instance.graph == instance.graph
    assert parsed_instance.beta == instance.beta
    assert parsed_instance.reward == instance.reward
    assert parsed_instance.annotations == instance.annotations
    if config is None:
        assert parsed_config is None
    else:
        assert parsed_config == config
    # canonical form: serializing the parse reproduces the bytes
    assert serialize(parsed_instance, parsed_config) == text
    return text


def test_minimal_graph_document():
    g = TaskGraph(2, [(0, 1, 0)], 0, 1)
    text = round_trip(Instance(graph=g, beta=F(1, 2)))
    doc = json.loads(text)
    assert doc["edges"] == [{"from": 0, "to": 1, "cost": "0"}]


def test_alice_document_carries_parameters():
    text = round_trip(gen_alice(3))
    doc = json.loads(text)
    assert doc["beta"] == "1/3"
    assert doc["reward"] == "6"


def test_round_trip_with_config_and_annotations():
    g = gen_alice(4).graph
    inst = Instance(graph=g, beta=F(1, 3), reward=F(6),
                    annotations={"note": "unit test", "tags": [1, 2]})
    cfg = CostConfiguration({(0, 4): F(7, 3), (1, 2): 2})
    round_trip(inst, cfg)


@pytest.mark.parametrize("seed", range(20))
def test_round_trip_random_instances(seed):
    inst = gen_random(2 + seed % 10, 0.5, F(2, 3), seed=1500 + seed)
    cfg = random_config(inst.graph, random.Random(seed)) if seed % 2 else None
    round_trip(inst, cfg)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
def test_round_trip_property(seed):
    inst = gen_random(2 + seed % 9, 0.45, F(1, 2), seed=seed)
    round_trip(inst)


def test_serialization_is_byte_stable():
    inst = gen_ratio(F(1, 2), F(1, 2))
    assert serialize(inst) == serialize(inst)
    # edge order in the constructor must not leak into the bytes
    g = inst.graph
    shuffled = TaskGraph(g.n, [(e.tail, e.head, e.cost) for e in reversed(g.edges)],
                         g.source, g.target, g.labels)
    assert serialize(Instance(graph=shuffled, beta=inst.beta)) == \
        serialize(Instance(graph=g, beta=inst.beta))


def reference_text(instance, config=None):
    """The canonical document as json.dumps writes it from a dict."""
    graph = instance.graph
    doc = {
        "schema_version": 1,
        "nodes": [{"id": i} if label is None else {"id": i, "label": label}
                  for i, label in enumerate(graph.labels)],
        "edges": [{"from": e.tail, "to": e.head, "cost": str(e.cost)}
                  for e in sorted(graph.edges, key=lambda e: (e.tail, e.head))],
        "source": graph.source,
        "target": graph.target,
        "beta": str(instance.beta),
    }
    if instance.reward is not None:
        doc["reward"] = str(instance.reward)
    if config is not None:
        doc["extra_costs"] = [{"from": u, "to": v, "extra": str(x)}
                              for (u, v), x in sorted(config.items())]
    if instance.annotations is not None:
        doc["annotations"] = instance.annotations
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


AWKWARD = ['"', "\\", "\n", "\t", "\u0001", "\u2028", "\u007f", "\U0001F600", "", "é", "x"]


def awkward_annotation(rng, depth=0):
    kind = rng.randrange(7 if depth < 3 else 5)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.randint(-10 ** 20, 10 ** 20)
    if kind == 2:
        return rng.choice([0.1, -2.5, 1e300, 1e-7, 3.0])
    if kind in (3, 4):
        return "".join(rng.choices(AWKWARD, k=rng.randrange(4)))
    if kind == 5:
        return {rng.choice(AWKWARD) + str(k): awkward_annotation(rng, depth + 1)
                for k in range(rng.randrange(4))}
    return [awkward_annotation(rng, depth + 1) for _ in range(rng.randrange(4))]


@pytest.mark.parametrize("seed", range(48))
def test_serialize_matches_json_dumps_byte_for_byte(seed):
    rng = random.Random(seed)
    if seed % 8 == 0:  # one node and no edges: "edges": []
        g = TaskGraph(1, [], 0, 0, [rng.choice(AWKWARD)] if seed % 16 else None)
    else:
        ties = {"max_numerator": 1, "max_denominator": 1} if seed % 2 else {}
        g = gen_random(2 + seed % 12, 0.5, seed=3100 + seed, **ties).graph
        labels = [None if rng.random() < 0.3 else
                  "".join(rng.choices(AWKWARD, k=rng.randrange(4))) + f"#{i}"
                  for i in range(g.n)]
        g = TaskGraph(g.n, [(e.tail, e.head, e.cost) for e in g.edges],
                      g.source, g.target, labels)
    reward = [None, F(rng.randrange(50), rng.randrange(1, 8))][seed % 2]
    annotations = [None, {}, {"nested": awkward_annotation(rng),
                              "more": [awkward_annotation(rng)]}][seed % 3]
    inst = Instance(graph=g, beta=F(rng.randrange(1, 10), 9), reward=reward,
                    annotations=annotations)
    config = [None, CostConfiguration(), random_config(g, rng)][seed // 3 % 3]
    assert serialize(inst, config) == reference_text(inst, config)


def test_golden_noopt_file_matches_generator():
    text = (DATA / "noopt_beta_1_2.json").read_text()
    instance, config = parse(text)
    assert config is None
    assert instance.graph == gen_noopt(F(1, 2)).graph
    assert instance.beta == F(1, 2)
    assert serialize(instance) == text


def test_golden_alice_file_matches_generator():
    text = (DATA / "alice_m3.json").read_text()
    instance, _ = parse(text)
    expected = gen_alice(3)
    assert instance.graph == expected.graph
    assert instance.reward == expected.reward


def test_parse_rejects_zero_denominator():
    text = serialize(Instance(graph=TaskGraph(2, [(0, 1, 1)], 0, 1), beta=F(1, 2)))
    broken = text.replace('"cost": "1"', '"cost": "1/0"')
    with pytest.raises(SchemaError):
        parse(broken)


def rational_document(costs, extras=(), beta="1/3", reward=None):
    """gen_alice(3)'s document with the given cost, extra, beta and reward
    values: costs in edge order, extras on the first edges."""
    doc = json.loads(serialize(gen_alice(3)))
    for entry, cost in zip(doc["edges"], costs, strict=True):
        entry["cost"] = cost
    doc["extra_costs"] = [{"from": e["from"], "to": e["to"], "extra": x}
                          for e, x in zip(doc["edges"], extras)]
    doc["beta"] = beta
    if reward is None:
        del doc["reward"]
    else:
        doc["reward"] = reward
    return json.dumps(doc)


def test_parse_reads_repeated_and_non_canonical_strings_exactly():
    costs = ["2/4", "1/2", "+3", "2/4", "007/14"]
    extras = ["+3", "2/4", "6/4", "0/5"]
    instance, config = parse(rational_document(costs, extras, beta="2/4", reward="+3"))
    edges = sorted(instance.graph.edges, key=lambda e: (e.tail, e.head))
    assert [e.cost for e in edges] == [F(s) for s in costs]
    assert [config.get(e.tail, e.head) for e in edges[:4]] == [F(x) for x in extras]
    assert (instance.beta, instance.reward) == (F(1, 2), F(3))


def test_parse_shares_one_value_per_distinct_string():
    costs = ["2/4", "1/2", "2/4", "3", "2/4"]
    instance, config = parse(rational_document(costs, ["3"], beta="2/4", reward="3"))
    edges = sorted(instance.graph.edges, key=lambda e: (e.tail, e.head))
    assert edges[0].cost is edges[2].cost is edges[4].cost is instance.beta
    assert edges[3].cost is instance.reward is config.get(edges[0].tail, edges[0].head)
    # an equal value written differently is parsed on its own
    assert edges[1].cost == edges[0].cost and edges[1].cost is not edges[0].cost


@pytest.mark.parametrize("costs,extras,beta,reward,message", [
    (["1", "x", "1", "x", "1"], [], "1/3", None, "edge cost: not a rational: 'x'"),
    (["1", "1/0", "1", "1", "1"], [], "1/3", None, "edge cost: not a rational: '1/0'"),
    (["1"] * 5, ["1/0"], "1/0", None, "beta: not a rational: '1/0'"),
    (["1"] * 5, ["x"], "1/3", "x", "reward: not a rational: 'x'"),
    (["1"] * 5, ["1", "x"], "1/3", "1", "extra cost: not a rational: 'x'"),
], ids=["cost", "zero-denominator", "beta-then-extra", "reward-then-extra", "extra"])
def test_parse_reports_a_bad_string_at_its_first_occurrence(costs, extras, beta, reward,
                                                             message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        parse(rational_document(costs, extras, beta, reward))


@pytest.mark.parametrize("costs,extras,beta,message", [
    (["1", 1, "1", "1", "1"], [], "1/3", "edge cost: rational must be a string, got 1"),
    (["1", "1", True, "1", "1"], [], "1/3",
     "edge cost: rational must be a string, got True"),
    (["1", ["1"], "1", "1", "1"], [], "1/3",
     "edge cost: rational must be a string, got ['1']"),
    (["1/3"] * 5, [], 1, "beta: rational must be a string, got 1"),
    (["1"] * 5, ["1", 1], "1/3", "extra cost: rational must be a string, got 1"),
], ids=["int-cost", "bool-cost", "list-cost", "int-beta", "int-extra"])
def test_parse_refuses_a_non_string_after_the_same_value_as_a_string(costs, extras, beta,
                                                                    message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        parse(rational_document(costs, extras, beta))


@pytest.mark.parametrize("text", [
    "1e7000000", "1e3", "0.5", "1.", ".5", " 1", "1 ", "1/2 ", "1_000", "\u0661",
    "1/-2", "1/+2", "", "+", "/2", "1/", "inf", "nan", "1/2/3",
])
def test_parse_accepts_only_integers_and_p_over_q(text):
    # Fraction(text) accepts the first ten, and spends seconds on "1e7000000";
    # as_rational, which reads command-line values, has the same grammar
    with pytest.raises(SchemaError, match=f"^edge cost: not a rational: {re.escape(repr(text))}$"):
        parse(rational_document(["1", "1", text, "1", "1"]))
    with pytest.raises(ValueError, match=f"^not a rational: {re.escape(repr(text))}$"):
        as_rational(text)


def test_parse_rejects_missing_target():
    doc = json.loads(serialize(gen_alice(3)))
    del doc["target"]
    with pytest.raises(SchemaError):
        parse(json.dumps(doc))


def test_parse_reports_json_position():
    with pytest.raises(InstanceSyntaxError) as err:
        parse("{\n  broken\n}")
    assert err.value.line == 2


def test_parse_rejects_float_costs():
    doc = json.loads(serialize(gen_alice(3)))
    doc["edges"][0]["cost"] = 1.5
    with pytest.raises(SchemaError):
        parse(json.dumps(doc))


def test_parse_flags_graph_violations():
    g = gen_alice(3).graph
    doc = json.loads(serialize(Instance(graph=g, beta=F(1, 3))))
    doc["edges"][0]["cost"] = "-1"
    with pytest.raises(ValidationError) as err:
        parse(json.dumps(doc))
    assert any(v.kind == "negative-cost" for v in err.value.violations)
    # but the violations are data when checking is off
    instance, _ = parse(json.dumps(doc), check=False)
    assert instance.graph.edges


def test_parse_rejects_negative_reward():
    doc = json.loads(serialize(gen_alice(3)))
    doc["reward"] = "-1"
    with pytest.raises(SchemaError, match="reward must be nonnegative"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("key,value", [
    ("edges", [{"from": 0, "to": 4, "cost": "1"}]),   # endpoint out of range
    ("target", 4),                                    # target out of range
    ("nodes", [{"id": 0, "label": 7}, {"id": 1}, {"id": 2}, {"id": 3}]),
    ("extra_costs", [{"from": 0, "to": 1, "extra": "-1/2"}]),
])
def test_parse_turns_constructor_errors_into_schema_errors(key, value):
    # TaskGraph and CostConfiguration make these checks; parse reports them
    doc = json.loads(serialize(gen_alice(3)))
    doc[key] = value
    with pytest.raises(SchemaError):
        parse(json.dumps(doc))


def _set(key, value):
    def mutate(doc):
        doc[key] = value
        return doc
    return mutate


@pytest.mark.parametrize("mutate,message", [
    (lambda doc: [doc], "document root must be an object"),
    (_set("schema_version", 2), "unsupported schema_version 2"),
    (_set("nodes", [0]), "nodes entries must be objects"),
    (_set("edges", [[]]), "edges entries must be objects"),
    (_set("extra_costs", ["0 -> 1"]), "extra_costs entries must be objects"),
    (_set("source", "0"), "document: key 'source' must be int"),
    (_set("target", True), "document: key 'target' must be int"),
    (_set("nodes", {}), "document: key 'nodes' must be list"),
    (_set("edges", [{"from": 0, "to": 1.0, "cost": "1"}]), "edge: key 'to' must be int"),
    (_set("beta", "3/2"), r"beta must lie in \(0, 1\], got 3/2"),
    (_set("beta", "0"), r"beta must lie in \(0, 1\], got 0"),
    (_set("annotations", []), "annotations must be an object"),
    (_set("extra_costs", {}), "extra_costs must be a list"),
    (_set("extra_costs", [{"from": 0, "to": 1, "extra": x} for x in ("1", "2")]),
     r"duplicate extra cost for edge \(0, 1\)"),
    (_set("extra_costs", [{"from": 2, "to": 0, "extra": "1"}]),
     r"configuration references missing edge \(2, 0\)"),
    (_set("extra_costs", [{"from": 0, "to": 9, "extra": "0"}]),
     r"configuration references missing edge \(0, 9\)"),
], ids=["root-type", "schema-version", "node-entry", "edge-entry", "extra-entry",
        "source-type", "target-bool", "nodes-type", "edge-key-type", "beta-above-one",
        "beta-zero", "annotations-type", "extra-costs-type", "duplicate-extra",
        "extra-on-missing-edge", "zero-extra-on-missing-edge"])
def test_parse_rejects_malformed_documents(mutate, message):
    doc = mutate(json.loads(serialize(gen_alice(3))))
    with pytest.raises(SchemaError, match=f"^{message}$"):
        parse(json.dumps(doc))


def test_writers_reject_a_configuration_naming_a_missing_edge():
    inst = gen_alice(3)
    for write in (serialize, to_dot):
        with pytest.raises(UnknownEdgeError,
                           match=r"^configuration references missing edge \(0, 9\)$"):
            write(inst, CostConfiguration({(0, 9): 1}))
    # a scheme on an edge of the graph is written and read back
    round_trip(inst, CostConfiguration({(0, 3): 1}))


def test_parse_rejects_sparse_node_ids():
    doc = json.loads(serialize(gen_alice(3)))
    doc["nodes"][0]["id"] = 17
    with pytest.raises(SchemaError):
        parse(json.dumps(doc))


def test_dot_minimal():
    g = TaskGraph(2, [(0, 1, 0)], 0, 1, labels=["s", "t"])
    text = to_dot(Instance(graph=g, beta=F(1, 2)))
    assert text.startswith("digraph")
    assert '0 -> 1 [label="0"]' in text


def test_dot_noopt_topology_and_highlight():
    inst = gen_noopt(F(1, 2))
    path = (0, 1, 2, 3, 4, 6)
    text = to_dot(inst, None, highlight=path)
    assert text.count("->") == len(inst.graph.edges)
    for u, v in zip(path, path[1:]):
        assert f"{u} -> {v} [" in text
    # highlighted chain edges carry the style; the branch does not
    assert 'color=red' in text
    branch_line = [line for line in text.splitlines() if line.strip().startswith("1 -> 5")][0]
    assert "color=red" not in branch_line


def test_dot_shows_extras():
    g = gen_alice(3).graph
    cfg = CostConfiguration({(0, 3): F(7)})
    text = to_dot(Instance(graph=g, beta=F(1, 3)), cfg)
    assert 'label="3 (+7)"' in text


def test_dot_deterministic():
    inst = gen_random(9, 0.5, F(1, 2), seed=11)
    assert to_dot(inst) == to_dot(inst)
