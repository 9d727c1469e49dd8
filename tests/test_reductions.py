"""3-SAT reduction: structure, margins, translations, small-scale decisions."""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from penalty_planner import (
    BiasOutOfRangeError,
    CnfError,
    CnfFormula,
    EpsilonTooLargeError,
    IncompleteAssignmentError,
    Instance,
    NoWalkError,
    SchemaError,
    assignment_to_config,
    config_to_assignment,
    epsilon_bound,
    exact_infimum,
    is_motivating,
    meta_from_instance,
    meta_to_annotations,
    min_motivating_reward,
    normalize_assignment,
    parse,
    parse_dimacs,
    path_and_fence,
    preprocess,
    sat_to_mcc,
    serialize,
    validate,
)

DATA = Path(__file__).parent / "data"
SAMPLE = CnfFormula(3, ((-1, 2, 3), (1, -2, -3), (1, -2, 3)))
BETA = F(1, 5)


# -- formulas and DIMACS ------------------------------------------------------


def test_formula_validation():
    with pytest.raises(CnfError):
        CnfFormula(2, ((1, 2),))        # not 3 literals
    with pytest.raises(CnfError):
        CnfFormula(2, ((1, 2, 3),))     # variable out of range
    with pytest.raises(CnfError):
        CnfFormula(2, ((1, 0, 2),))     # zero literal
    with pytest.raises(CnfError):
        CnfFormula(2, ())
    with pytest.raises(CnfError, match="^formula needs at least one variable$"):
        CnfFormula(0, ((1, 1, 1),))


def test_satisfied_by_and_enumeration():
    assert SAMPLE.satisfied_by({1: True, 2: True, 3: True})
    assert not SAMPLE.satisfied_by({1: False, 2: True, 3: False})
    sats = list(SAMPLE.satisfying_assignments())
    assert {1: True, 2: True, 3: True} in sats
    unsat = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
    assert list(unsat.satisfying_assignments()) == []
    with pytest.raises(CnfError, match="^exhaustive enumeration capped at 20 variables$"):
        next(CnfFormula(21, ((1, 2, 21),)).satisfying_assignments())


def test_dimacs_round_trip():
    text = SAMPLE.to_dimacs()
    assert text.splitlines()[0] == "p cnf 3 3"
    assert parse_dimacs(text) == SAMPLE


def test_dimacs_accepts_comments_and_multiline_clauses():
    text = "c a comment\np cnf 2 1\n1 -2\n1 0\n"
    assert parse_dimacs(text) == CnfFormula(2, ((1, -2, 1),))


def test_dimacs_rejects_bad_input():
    with pytest.raises(CnfError):
        parse_dimacs("p cnf 2 1\n1 -2 0\n")       # clause with 2 literals
    with pytest.raises(CnfError):
        parse_dimacs("1 2 3 0\n")                  # clause before header
    with pytest.raises(CnfError):
        parse_dimacs("p cnf 2 2\n1 2 2 0\n")       # count mismatch
    with pytest.raises(CnfError):
        parse_dimacs("p cnf 2 1\n1 2 2\n")         # unterminated
    with pytest.raises(CnfError):
        parse_dimacs("p cnf x y\n")


@pytest.mark.parametrize("text,message", [
    ("p cnf 1 1\np cnf 1 1\n1 1 1 0\n", "line 2: duplicate problem line"),
    ("p cnf 1\n", "line 1: malformed problem line 'p cnf 1'"),
    ("p dnf 1 1\n", "line 1: malformed problem line 'p dnf 1 1'"),
    ("p cnf 1 1\n1 x 1 0\n", "line 2: bad literal 'x'"),
    ("c only a comment\n", "missing problem line"),
], ids=["duplicate-header", "short-header", "not-cnf", "bad-literal", "no-header"])
def test_dimacs_rejects_malformed_lines(text, message):
    with pytest.raises(CnfError, match=f"^{message}$"):
        parse_dimacs(text)


def test_normalize_assignment_forms():
    assert normalize_assignment(3, "TFT") == {1: True, 2: False, 3: True}
    assert normalize_assignment(3, "101") == {1: True, 2: False, 3: True}
    assert normalize_assignment(2, [True, False]) == {1: True, 2: False}
    assert normalize_assignment(2, {1: True, 2: False}) == {1: True, 2: False}
    with pytest.raises(IncompleteAssignmentError):
        normalize_assignment(3, "TF")
    with pytest.raises(IncompleteAssignmentError):
        normalize_assignment(1, {1: True, 5: False})
    with pytest.raises(IncompleteAssignmentError):
        normalize_assignment(1, "X")


@pytest.mark.parametrize("tau, message", [
    # a mapping: every key an int (not a bool), every value a bool
    ({1: "false", 2: False}, "variable 1 has truth value 'false', not True or False"),
    ({1: True, "2": False}, "variable '2' is not an integer (truth value False)"),
    ({1: True, 2: 0}, "variable 2 has truth value 0, not True or False"),
    ({True: True, 2: False}, "variable True is not an integer (truth value True)"),
    ({1.0: True, 2: False}, "variable 1.0 is not an integer (truth value True)"),
    # a sequence: every item a bool
    ([1.5, "F"], "variable 1 has truth value 1.5, not True or False"),
    ([True, "F"], "variable 2 has truth value 'F', not True or False"),
    ((True, 1), "variable 2 has truth value 1, not True or False"),
    ([None, True], "variable 1 has truth value None, not True or False"),
])
def test_normalize_assignment_refuses_what_it_would_coerce(tau, message):
    with pytest.raises(IncompleteAssignmentError) as info:
        normalize_assignment(2, tau)
    assert str(info.value) == message


# -- construction -------------------------------------------------------------


def test_epsilon_bounds_at_one_fifth():
    assert epsilon_bound(BETA) == F(32, 375)
    assert epsilon_bound(BETA, gap=True) == F(32, 1875)


def test_auto_epsilon_is_half_the_bound():
    meta = sat_to_mcc(SAMPLE, BETA)
    assert meta.epsilon == F(16, 375)
    gap_meta = sat_to_mcc(SAMPLE, BETA, gap=True)
    assert gap_meta.epsilon == F(16, 1875)


def test_epsilon_rejected_outside_bound():
    with pytest.raises(EpsilonTooLargeError):
        sat_to_mcc(SAMPLE, BETA, epsilon=F(32, 375))
    with pytest.raises(EpsilonTooLargeError):
        sat_to_mcc(SAMPLE, BETA, epsilon=0)


def test_bias_must_be_strictly_inside_unit_interval():
    with pytest.raises(BiasOutOfRangeError):
        sat_to_mcc(SAMPLE, 1)
    with pytest.raises(BiasOutOfRangeError):
        sat_to_mcc(SAMPLE, 0)


def test_sample_formula_builds_28_nodes():
    meta = sat_to_mcc(SAMPLE, BETA)
    g = meta.graph
    assert g.n == 28  # 9 literal + 6 variable + 6 intermediate + u1..u5 + s + t
    assert validate(g) == []
    assert preprocess(g) == g
    kinds = {}
    for kind in meta.edge_kinds.values():
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {
        "forward": 3 + 2 * 9 + 3 + 2 + 1 * 8 + 2,
        "spine": 4,
        "shortcut1": 9,
        "shortcut2": 1,
        "shortcut3-first": 6,
        "shortcut3-second": 6,
    }


def test_edge_costs_match_construction():
    meta = sat_to_mcc(SAMPLE, BETA)
    g = meta.graph
    x = 1 - BETA
    for (u, v), kind in meta.edge_kinds.items():
        cost = g.cost(u, v)
        if kind == "forward":
            assert cost == x ** 3 - meta.epsilon
        elif kind == "shortcut1":
            assert cost == x ** 2
        elif kind in ("shortcut2", "shortcut3-second"):
            assert cost == 2 - BETA
        elif kind == "shortcut3-first":
            assert cost == 0
    assert g.cost(g.node_by_label("u1"), g.node_by_label("u2")) == x ** 2
    assert g.cost(g.node_by_label("u3"), g.node_by_label("u4")) == x ** 2
    assert g.cost(g.node_by_label("u4"), g.node_by_label("u5")) == x
    assert g.cost(g.node_by_label("u5"), g.node_by_label("t")) == 1


def test_shortcut1_targets_encode_literal_signs():
    meta = sat_to_mcc(SAMPLE, BETA)
    # first clause, first literal is negated x1: shortcut points at w1T
    assert (meta.literal_nodes[(1, 1)], meta.variable_nodes[(1, True)]) in meta.edge_kinds
    # second literal x2 (positive): shortcut points at w2F
    assert (meta.literal_nodes[(1, 2)], meta.variable_nodes[(2, False)]) in meta.edge_kinds


# tests/data/three_vars.cnf at beta = 1/5: every edge of sat_to_mcc's graph in
# insertion order as (tail, head, cost, kind); FWD is the variant's forward cost.
# Edge indices break ties downstream (minmax_path sorts ties by index), so this
# order is part of the construction.
FWD = object()
THREE_VARS_EDGES = [
    # s -> clause row 1 -> clause row 2 -> u1
    (0, 1, FWD, "forward"), (0, 2, FWD, "forward"), (0, 3, FWD, "forward"),
    (1, 4, FWD, "forward"), (1, 5, FWD, "forward"), (1, 6, FWD, "forward"),
    (2, 4, FWD, "forward"), (2, 5, FWD, "forward"), (2, 6, FWD, "forward"),
    (3, 4, FWD, "forward"), (3, 5, FWD, "forward"), (3, 6, FWD, "forward"),
    (4, 7, FWD, "forward"), (5, 7, FWD, "forward"), (6, 7, FWD, "forward"),
    (7, 8, F(16, 25), "spine"),
    # u2 -> w1T/w1F -> w2T/w2F -> w3T/w3F -> u3
    (8, 9, FWD, "forward"), (8, 10, FWD, "forward"),
    (9, 11, FWD, "forward"), (9, 12, FWD, "forward"),
    (10, 11, FWD, "forward"), (10, 12, FWD, "forward"),
    (11, 13, FWD, "forward"), (11, 14, FWD, "forward"),
    (12, 13, FWD, "forward"), (12, 14, FWD, "forward"),
    (13, 15, FWD, "forward"), (14, 15, FWD, "forward"),
    (15, 16, F(16, 25), "spine"), (16, 17, F(4, 5), "spine"), (17, 24, F(1), "spine"),
    (1, 10, F(16, 25), "shortcut1"), (2, 11, F(16, 25), "shortcut1"),
    (3, 14, F(16, 25), "shortcut1"), (4, 9, F(16, 25), "shortcut1"),
    (5, 12, F(16, 25), "shortcut1"), (6, 13, F(16, 25), "shortcut1"),
    (8, 24, F(9, 5), "shortcut2"),
    (9, 18, F(0), "shortcut3-first"), (18, 24, F(9, 5), "shortcut3-second"),
    (10, 19, F(0), "shortcut3-first"), (19, 24, F(9, 5), "shortcut3-second"),
    (11, 20, F(0), "shortcut3-first"), (20, 24, F(9, 5), "shortcut3-second"),
    (12, 21, F(0), "shortcut3-first"), (21, 24, F(9, 5), "shortcut3-second"),
    (13, 22, F(0), "shortcut3-first"), (22, 24, F(9, 5), "shortcut3-second"),
    (14, 23, F(0), "shortcut3-first"), (23, 24, F(9, 5), "shortcut3-second"),
]


@pytest.mark.parametrize("gap, forward_cost", [(False, F(176, 375)), (True, F(944, 1875))],
                         ids=["decision", "gap"])
def test_edge_order_is_pinned(gap, forward_cost):
    cnf = parse_dimacs((DATA / "three_vars.cnf").read_text())
    meta = sat_to_mcc(cnf, BETA, gap=gap)
    expected = [(tail, head, forward_cost if cost is FWD else cost, kind)
                for tail, head, cost, kind in THREE_VARS_EDGES]
    assert [(e.tail, e.head, e.cost) for e in meta.graph.edges] == \
        [(tail, head, cost) for tail, head, cost, _ in expected]
    assert list(meta.edge_kinds.items()) == \
        [((tail, head), kind) for tail, head, _, kind in expected]


def test_gap_threshold_value_and_identity():
    meta = sat_to_mcc(SAMPLE, BETA, gap=True)
    assert meta.gap_threshold == F(3381, 625)
    assert 1 + BETA * (1 - BETA) ** 4 == F(3381, 3125) == F(108192, 100000)


# -- assignment <-> configuration ---------------------------------------------


def test_satisfying_assignment_motivates_at_critical_reward():
    meta = sat_to_mcc(SAMPLE, BETA)
    cfg = assignment_to_config(meta, "TTT")
    assert is_motivating(meta.graph, cfg, BETA, 5).motivating
    assert min_motivating_reward(meta.graph, cfg, BETA) == 5


def test_single_variable_formula_config_shape():
    cnf = CnfFormula(1, ((1, 1, 1),))
    meta = sat_to_mcc(cnf, BETA)
    cfg = assignment_to_config(meta, "T")
    x = 1 - BETA
    w_true = meta.variable_nodes[(1, True)]
    w_false = meta.variable_nodes[(1, False)]
    expected = {(w_true, meta.intermediate_nodes[(1, True)]): x ** 2}
    for e in meta.graph.in_edges(w_false):
        if meta.edge_kinds[(e.tail, e.head)] == "forward":
            expected[(e.tail, e.head)] = F(1)
    assert cfg.extra == expected
    assert is_motivating(meta.graph, cfg, BETA, 5).motivating


def test_falsifying_assignment_is_not_motivating():
    meta = sat_to_mcc(SAMPLE, BETA)
    tau = {1: False, 2: True, 3: False}
    assert not SAMPLE.satisfied_by(tau)
    cfg = assignment_to_config(meta, tau)
    assert not is_motivating(meta.graph, cfg, BETA, 5).motivating


def test_round_trip_over_all_satisfying_assignments():
    for cnf in (SAMPLE, CnfFormula(2, ((1, -2, 2), (-1, -1, 2)))):
        meta = sat_to_mcc(cnf, BETA)
        for tau in cnf.satisfying_assignments():
            cfg = assignment_to_config(meta, tau)
            assert config_to_assignment(meta, cfg) == tau


def test_zero_config_gives_no_walk():
    meta = sat_to_mcc(SAMPLE, BETA)
    with pytest.raises(NoWalkError):
        config_to_assignment(meta, None)


def test_incomplete_assignment_rejected():
    meta = sat_to_mcc(SAMPLE, BETA)
    with pytest.raises(IncompleteAssignmentError):
        assignment_to_config(meta, "TT")


def test_unsatisfiable_formula_has_infimum_above_critical_reward():
    unsat = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
    meta = sat_to_mcc(unsat, BETA)
    assert exact_infimum(meta.graph, BETA).value > 5


def random_formula(seed, num_vars=8, num_clauses=24):
    rng = random.Random(seed)
    clauses = tuple(tuple(v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, num_vars + 1), 3))
                    for _ in range(num_clauses))
    return CnfFormula(num_vars, clauses)


def test_satisfiable_8_vars_24_clauses_solves_to_critical_reward():
    formula = random_formula(0)
    assert next(formula.satisfying_assignments(), None) is not None
    result = exact_infimum(sat_to_mcc(formula, BETA).graph, BETA)
    assert not result.exhausted
    assert result.value == 1 / BETA


@pytest.mark.parametrize("seed", [4, 7])
@pytest.mark.parametrize("gap", [False, True])
def test_hard_8_vars_24_clauses_solves_in_few_expansions(seed, gap):
    # without skipping dominated suffixes each of these ran for over 20 s:
    # the optimum 1/beta is found only after tens of thousands of suffixes
    formula = random_formula(seed)
    result = exact_infimum(sat_to_mcc(formula, BETA, gap=gap).graph, BETA)
    assert result.value == 1 / BETA
    assert not result.exhausted
    assert result.expansions < 2_000


def sweep_formulas(start, count=6):
    """The first `count` satisfiable and the first `count` unsatisfiable
    formulas drawn from seeds start, start+1, ...: 4-6 variables with 2-9
    clauses per variable, so that both outcomes occur."""
    found = {True: [], False: []}
    seed = start
    while min(len(formulas) for formulas in found.values()) < count:
        num_vars = 4 + seed % 3
        formula = random_formula(seed, num_vars, num_vars * (2 + seed % 8))
        formulas = found[next(formula.satisfying_assignments(), None) is not None]
        if len(formulas) < count:
            formulas.append(formula)
        seed += 1
    return found[True], found[False]


@pytest.mark.parametrize("gap", [False, True], ids=["decision", "gap"])
@pytest.mark.parametrize("beta", [F(1, 3), F(1, 5), F(1, 10)], ids=str)
def test_sweep_decides_every_formula_as_brute_force_sat_does(beta, gap):
    # the exact search against brute-force SAT: a satisfiable formula reaches
    # 1/beta, and the fence of the witness decodes to a satisfying assignment;
    # an unsatisfiable one lands exactly eps*(1+beta)/beta above the threshold
    satisfiable, unsatisfiable = sweep_formulas(100 * beta.denominator + 50 * gap)
    for formula in satisfiable + unsatisfiable:
        meta = sat_to_mcc(formula, beta, gap=gap)
        result = exact_infimum(meta.graph, beta)
        assert not result.exhausted
        if formula in satisfiable:
            assert result.value == 1 / beta
            fence = path_and_fence(meta.graph, beta, result.path, F(1, 10 ** 6))
            assert formula.satisfied_by(config_to_assignment(meta, fence))
        else:
            threshold = meta.gap_threshold if gap else 1 / beta
            assert result.value == threshold + meta.epsilon * (1 + beta) / beta


@pytest.mark.parametrize("num_vars, num_clauses, seed, gap, work", [
    (4, 8, 0, False, (1, 20)),
    (4, 8, 2, True, (1, 23)),
    (5, 12, 2, False, (1, 43)),
    (5, 12, 7, True, (1, 39)),
    (6, 16, 2, False, (1, 39)),
    (6, 16, 6, True, (1, 35)),
    (8, 24, 0, False, (1, 195)),
    (8, 24, 7, True, (1, 86)),
    (12, 50, 2, False, (1, 828)),
    (4, 20, 0, False, (13, 330)),  # unsatisfiable: the probe fails, a full round follows
])
def test_exact_search_work_is_pinned(num_vars, num_clauses, seed, gap, work):
    # (paths_evaluated, expansions) as recorded: a prefix bound left stale
    # after a fence prunes less, and one left stale after an undo prunes too
    # much, so either moves these counters. A satisfiable formula is solved
    # by the probe round alone; on the unsatisfiable one the full round
    # reuses the bounds the probe left behind, but not its dominance memo.
    formula = random_formula(seed, num_vars, num_clauses)
    meta = sat_to_mcc(formula, BETA, gap=gap)
    value = 1 / BETA
    if next(formula.satisfying_assignments(), None) is None:
        value = (meta.gap_threshold if gap else value) + meta.epsilon * (1 + BETA) / BETA
    result = exact_infimum(meta.graph, BETA)
    assert (result.value, result.paths_evaluated, result.expansions) == (value, *work)
    assert not result.exhausted


def test_gap_instance_decisions():
    unsat = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
    meta = sat_to_mcc(unsat, BETA, gap=True)
    assert exact_infimum(meta.graph, BETA).value > meta.gap_threshold
    sat_meta = sat_to_mcc(SAMPLE, BETA, gap=True)
    cfg = assignment_to_config(sat_meta, "TTT")
    assert is_motivating(sat_meta.graph, cfg, BETA, 5).motivating


# -- annotations round trip ---------------------------------------------------


def test_meta_annotations_round_trip():
    meta = sat_to_mcc(SAMPLE, BETA, gap=True)
    instance = Instance(graph=meta.graph, beta=meta.beta, reward=meta.reward,
                        annotations=meta_to_annotations(meta))
    parsed, _ = parse(serialize(instance))
    rebuilt = meta_from_instance(parsed)
    assert rebuilt.graph == meta.graph
    assert rebuilt.formula == meta.formula
    assert rebuilt.epsilon == meta.epsilon
    assert rebuilt.gap == meta.gap
    assert rebuilt.gap_threshold == meta.gap_threshold


def test_meta_from_instance_rejects_mismatched_graph():
    meta = sat_to_mcc(SAMPLE, BETA)
    other = sat_to_mcc(CnfFormula(1, ((1, 1, 1),)), BETA)
    instance = Instance(graph=other.graph, beta=BETA, reward=meta.reward,
                        annotations=meta_to_annotations(meta))
    with pytest.raises(SchemaError):
        meta_from_instance(instance)


def reduction_document(**changes) -> str:
    """SAMPLE as `reduce3sat --beta 1/5 --epsilon 1/1000` writes it, with some
    reduction annotations changed (None deletes the key)."""
    meta = sat_to_mcc(SAMPLE, BETA, epsilon=F(1, 1000))
    doc = json.loads(serialize(Instance(graph=meta.graph, beta=meta.beta, reward=meta.reward,
                                        annotations=meta_to_annotations(meta))))
    reduction = doc["annotations"]["reduction"]
    for key, value in changes.items():
        if value is None:
            del reduction[key]
        else:
            reduction[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize("gap,reward", [(False, F(5)), (True, F(3381, 625))])
def test_meta_from_instance_reads_gap_as_a_json_bool(gap, reward):
    meta = meta_from_instance(parse(reduction_document(gap=gap))[0])
    assert meta.gap is gap
    assert meta.epsilon == F(1, 1000)
    assert meta.extraction_reward == reward


@pytest.mark.parametrize("key,value,message", [
    pytest.param("epsilon", None, "reduction annotations: missing key 'epsilon'",
                 id="epsilon-missing"),
    pytest.param("num_vars", "three", "reduction annotations: key 'num_vars' must be int",
                 id="num_vars-string"),
    # int() read 3.9 as 3, and True as 1
    pytest.param("num_vars", 3.9, "reduction annotations: key 'num_vars' must be int",
                 id="num_vars-float"),
    pytest.param("num_vars", True, "reduction annotations: key 'num_vars' must be int",
                 id="num_vars-bool"),
    pytest.param("clauses", 7, "reduction annotations: key 'clauses' must be list",
                 id="clauses-int"),
    pytest.param("clauses", [[-1, 2, 3], 7], "reduction annotations: key 'clauses' must be "
                 "lists of int", id="clause-int"),
    pytest.param("clauses", [[-1, 2, 3], [1, -2, -3], [True, -2, 3]],
                 "reduction annotations: key 'clauses' must be lists of int",
                 id="literal-bool"),
    pytest.param("epsilon", 0.001, "reduction epsilon: rational must be a string, got 0.001",
                 id="epsilon-number"),
    pytest.param("epsilon", "1e-3", "reduction epsilon: not a rational: '1e-3'",
                 id="epsilon-exponent"),
    # bool("false") is True: the gap variant's extraction reward 3381/625, not 5
    pytest.param("gap", "false", "reduction annotations: key 'gap' must be bool",
                 id="gap-string"),
])
def test_meta_from_instance_rejects_malformed_annotations(key, value, message):
    instance, _ = parse(reduction_document(**{key: value}))
    with pytest.raises(SchemaError) as err:
        meta_from_instance(instance)
    assert str(err.value) == message


def test_meta_from_instance_requires_annotations():
    instance = Instance(graph=sat_to_mcc(SAMPLE, BETA).graph, beta=BETA)
    with pytest.raises(SchemaError):
        meta_from_instance(instance)
