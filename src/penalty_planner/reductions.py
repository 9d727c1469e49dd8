"""Constructive hardness instances from 3-CNF formulas.

A formula becomes a task graph in which the agent's walk spells out a
truth assignment: clause gadgets are rows of literal nodes, variable
gadgets are true/false node pairs, and three kinds of tempting shortcuts
make a penalty scheme work at the critical reward exactly when the walk
corresponds to a satisfying assignment. A stricter margin variant yields
the inapproximability gap instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .agent import is_motivating
from .errors import (
    CnfError,
    EpsilonTooLargeError,
    IncompleteAssignmentError,
    NoWalkError,
    SchemaError,
)
from .graph import (
    CostConfiguration,
    RationalLike,
    TaskGraph,
    as_rational,
    check_bias,
)
from .instances import Instance
from .serialization import _require, parse_rational

Clause = tuple[int, int, int]
AssignmentLike = Union[Mapping[int, bool], Sequence[bool], str]


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF formula: literals are signed 1-based variable indices."""

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise CnfError("formula needs at least one variable")
        if not self.clauses:
            raise CnfError("formula needs at least one clause")
        for clause in self.clauses:
            if len(clause) != 3:
                raise CnfError(f"clause {clause} does not have exactly 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise CnfError(f"literal {lit} out of range in clause {clause}")

    def satisfied_by(self, tau: Mapping[int, bool]) -> bool:
        return all(any((lit > 0) == tau[abs(lit)] for lit in clause)
                   for clause in self.clauses)

    def satisfying_assignments(self):
        """All satisfying assignments, by exhaustive enumeration."""
        if self.num_vars > 20:
            raise CnfError("exhaustive enumeration capped at 20 variables")
        for bits in range(1 << self.num_vars):
            tau = {k: bool(bits >> (k - 1) & 1) for k in range(1, self.num_vars + 1)}
            if self.satisfied_by(tau):
                yield tau

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF; clauses must have exactly three literals."""
    header: tuple[int, int] | None = None
    literals: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise CnfError(f"line {lineno}: duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"line {lineno}: malformed problem line {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise CnfError(f"line {lineno}: malformed problem line {line!r}") from None
            continue
        if header is None:
            raise CnfError(f"line {lineno}: clause before problem line")
        for tok in line.split():
            try:
                literals.append(int(tok))
            except ValueError:
                raise CnfError(f"line {lineno}: bad literal {tok!r}") from None
    if header is None:
        raise CnfError("missing problem line")
    num_vars, num_clauses = header
    clauses: list[Clause] = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            if len(current) != 3:
                raise CnfError(f"clause {tuple(current)} does not have exactly 3 literals")
            clauses.append((current[0], current[1], current[2]))
            current = []
        else:
            current.append(lit)
    if current:
        raise CnfError("unterminated clause (missing trailing 0)")
    if len(clauses) != num_clauses:
        raise CnfError(f"problem line promises {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def normalize_assignment(num_vars: int, tau: AssignmentLike) -> dict[int, bool]:
    """Accept a mapping, a bool sequence, or a 'TFT...' / '101...' string.

    A mapping's keys must be ints and its values bools, and a sequence's
    items bools: nothing is coerced, so 'false', 0 or 1.5 is refused.
    """
    if isinstance(tau, str):
        values = []
        for ch in tau.strip():
            if ch in "Tt1":
                values.append(True)
            elif ch in "Ff0":
                values.append(False)
            else:
                raise IncompleteAssignmentError(f"bad truth value {ch!r}")
        tau = values
    out: dict[int, bool] = {}
    for k, v in tau.items() if isinstance(tau, Mapping) else enumerate(tau, 1):
        if not isinstance(k, int) or isinstance(k, bool):
            raise IncompleteAssignmentError(f"variable {k!r} is not an integer "
                                            f"(truth value {v!r})")
        if not isinstance(v, bool):
            raise IncompleteAssignmentError(f"variable {k} has truth value {v!r}, "
                                            "not True or False")
        out[k] = v
    missing = [k for k in range(1, num_vars + 1) if k not in out]
    if missing:
        raise IncompleteAssignmentError(f"assignment misses variables {missing}")
    extra_keys = [k for k in out if not 1 <= k <= num_vars]
    if extra_keys:
        raise IncompleteAssignmentError(f"assignment has unknown variables {extra_keys}")
    return {k: out[k] for k in range(1, num_vars + 1)}


def epsilon_bound(beta: RationalLike, gap: bool = False) -> Fraction:
    """Strict upper bound the construction's margin must satisfy."""
    b = check_bias(beta, strict=True)
    x = 1 - b
    if gap:
        return min(b * x ** 3,
                   b * x ** 2 * (2 - b),
                   b * b * x ** 3 / (1 + b),
                   b * b * x ** 2 * (2 - b) / (1 + b))
    return min(x ** 2,
               b * x ** 3 / (1 + b),
               b * x ** 2 / (1 + b))


@dataclass(frozen=True)
class ReductionMeta:
    """Reduction output: the task graph plus the bookkeeping to translate
    between truth assignments and penalty schemes."""

    graph: TaskGraph
    formula: CnfFormula
    beta: Fraction
    epsilon: Fraction
    gap: bool
    reward: Fraction                # critical reward 1/beta
    gap_threshold: Fraction | None  # no-instances stay above this when gap
    edge_kinds: Mapping[tuple[int, int], str]
    literal_nodes: Mapping[tuple[int, int], int]      # (clause, position) -> node
    variable_nodes: Mapping[tuple[int, bool], int]    # (variable, value) -> node
    intermediate_nodes: Mapping[tuple[int, bool], int]

    @property
    def extraction_reward(self) -> Fraction:
        """Reward at which walks are read off (higher for gap instances)."""
        return self.gap_threshold if self.gap else self.reward


def sat_to_mcc(cnf: CnfFormula,
               beta: RationalLike,
               epsilon: RationalLike | None = None,
               gap: bool = False) -> ReductionMeta:
    """Build the decision (or gap) instance for a 3-CNF formula.

    The graph admits a motivating penalty scheme at reward 1/beta exactly
    when the formula is satisfiable. With `gap=True` the margin bound is
    tightened so that unsatisfiable formulas stay above
    (1 + beta*(1-beta)^4)/beta. When `epsilon` is omitted, half the
    applicable strict bound is used.

    Measured, not proven, at the default epsilon: the exact infimum is
    1/beta for a satisfiable formula and threshold + epsilon*(1+beta)/beta
    for an unsatisfiable one (threshold 1/beta, or `gap_threshold`), as
    `tests/test_reductions.py` pins on a seeded sweep.
    """
    b = check_bias(beta, strict=True)
    bound = epsilon_bound(b, gap=gap)
    if epsilon is None:
        eps = bound / 2
    else:
        eps = as_rational(epsilon)
        if eps <= 0 or eps >= bound:
            raise EpsilonTooLargeError(
                f"epsilon must lie strictly between 0 and {bound}, got {eps}")
    x = 1 - b
    fwd = x ** 3 - eps
    sc1 = x ** 2
    heavy = 2 - b
    num_clauses = len(cnf.clauses)
    num_vars = cnf.num_vars

    labels: list[str] = []

    def add_node(label: str) -> int:
        labels.append(label)
        return len(labels) - 1

    s = add_node("s")
    literal_nodes: dict[tuple[int, int], int] = {}
    for i in range(1, num_clauses + 1):
        for j in range(1, 4):
            literal_nodes[(i, j)] = add_node(f"v{i}_{j}")
    u1 = add_node("u1")
    u2 = add_node("u2")
    variable_nodes: dict[tuple[int, bool], int] = {}
    for k in range(1, num_vars + 1):
        variable_nodes[(k, True)] = add_node(f"w{k}T")
        variable_nodes[(k, False)] = add_node(f"w{k}F")
    u3 = add_node("u3")
    u4 = add_node("u4")
    u5 = add_node("u5")
    intermediate_nodes: dict[tuple[int, bool], int] = {}
    for k in range(1, num_vars + 1):
        intermediate_nodes[(k, True)] = add_node(f"z{k}T")
        intermediate_nodes[(k, False)] = add_node(f"z{k}F")
    t = add_node("t")

    edges: list[tuple[int, int, Fraction]] = []
    kinds: dict[tuple[int, int], str] = {}

    def add_edge(tail: int, head: int, cost: Fraction, kind: str) -> None:
        edges.append((tail, head, cost))
        kinds[(tail, head)] = kind

    for j in range(1, 4):
        add_edge(s, literal_nodes[(1, j)], fwd, "forward")
    for i in range(1, num_clauses):
        for j in range(1, 4):
            for j2 in range(1, 4):
                add_edge(literal_nodes[(i, j)], literal_nodes[(i + 1, j2)], fwd, "forward")
    for j in range(1, 4):
        add_edge(literal_nodes[(num_clauses, j)], u1, fwd, "forward")
    add_edge(u1, u2, sc1, "spine")
    for val in (True, False):
        add_edge(u2, variable_nodes[(1, val)], fwd, "forward")
    for k in range(1, num_vars):
        for val in (True, False):
            for val2 in (True, False):
                add_edge(variable_nodes[(k, val)], variable_nodes[(k + 1, val2)],
                         fwd, "forward")
    for val in (True, False):
        add_edge(variable_nodes[(num_vars, val)], u3, fwd, "forward")
    add_edge(u3, u4, sc1, "spine")
    add_edge(u4, u5, x, "spine")
    add_edge(u5, t, Fraction(1), "spine")
    # tempting exits: literal row -> variable row, early exit, variable -> target
    for i, clause in enumerate(cnf.clauses, start=1):
        for j, lit in enumerate(clause, start=1):
            target_value = lit < 0  # positive literal tempts toward the false node
            add_edge(literal_nodes[(i, j)], variable_nodes[(abs(lit), target_value)],
                     sc1, "shortcut1")
    add_edge(u2, t, heavy, "shortcut2")
    for k in range(1, num_vars + 1):
        for val in (True, False):
            add_edge(variable_nodes[(k, val)], intermediate_nodes[(k, val)],
                     Fraction(0), "shortcut3-first")
            add_edge(intermediate_nodes[(k, val)], t, heavy, "shortcut3-second")

    graph = TaskGraph(len(labels), edges, source=s, target=t, labels=labels)
    reward = 1 / b
    gap_threshold = (1 + b * x ** 4) / b if gap else None
    return ReductionMeta(graph=graph, formula=cnf, beta=b, epsilon=eps, gap=gap,
                         reward=reward, gap_threshold=gap_threshold,
                         edge_kinds=kinds,
                         literal_nodes=literal_nodes,
                         variable_nodes=variable_nodes,
                         intermediate_nodes=intermediate_nodes)


def assignment_to_config(meta: ReductionMeta, tau: AssignmentLike) -> CostConfiguration:
    """Penalty scheme guided by a truth assignment.

    Charges (1-beta)^2 on the shortcut exit of every variable node the
    assignment selects, and 1 on every forward edge into the variable nodes
    it rejects. For satisfying assignments the result is motivating at the
    critical reward.
    """
    assignment = normalize_assignment(meta.formula.num_vars, tau)
    x = 1 - meta.beta
    extra: dict[tuple[int, int], Fraction] = {}
    for k, value in assignment.items():
        visited = meta.variable_nodes[(k, value)]
        extra[(visited, meta.intermediate_nodes[(k, value)])] = x ** 2
        rejected = meta.variable_nodes[(k, not value)]
        for e in meta.graph.in_edges(rejected):
            if meta.edge_kinds[(e.tail, e.head)] == "forward":
                extra[(e.tail, e.head)] = Fraction(1)
    return CostConfiguration(extra)


def config_to_assignment(meta: ReductionMeta,
                         config: CostConfiguration | Mapping | None) -> dict[int, bool]:
    """Read a truth assignment off the agent's walk under the given scheme.

    Simulates at the extraction reward; raises NoWalkError if the agent can
    abandon. Otherwise follows one tie walk and records which variable node
    of each pair it visits. Whenever the scheme is motivating at that
    reward, the returned assignment satisfies the formula.
    """
    report = is_motivating(meta.graph, config, meta.beta, meta.extraction_reward,
                           walk_cap=1)
    if report.abandon_nodes:
        names = ", ".join(meta.graph.describe_node(v) for v in sorted(report.abandon_nodes))
        raise NoWalkError(f"agent can abandon at: {names}")
    walk = report.walks[0]  # the tie walk that takes the lowest head id
    node_to_var: dict[int, tuple[int, bool]] = {
        node: key for key, node in meta.variable_nodes.items()}
    tau: dict[int, bool] = {}
    for node in walk:
        if node in node_to_var:
            k, value = node_to_var[node]
            tau[k] = value
    if len(tau) != meta.formula.num_vars:
        missing = [k for k in range(1, meta.formula.num_vars + 1) if k not in tau]
        raise NoWalkError(f"walk never settled variables {missing}")
    return tau


def meta_to_annotations(meta: ReductionMeta) -> dict:
    """Instance-file annotations from which the reduction can be rebuilt."""
    return {
        "reduction": {
            "type": "3sat",
            "num_vars": meta.formula.num_vars,
            "clauses": [list(clause) for clause in meta.formula.clauses],
            "epsilon": str(meta.epsilon),
            "gap": meta.gap,
        },
    }


def meta_from_instance(instance: Instance) -> ReductionMeta:
    """Rebuild a ReductionMeta from an annotated instance file.

    The reduction is reconstructed from the stored formula and parameters,
    read with `parse`'s type rules (a mistyped one is a SchemaError naming
    it), then checked structurally against the file's graph. Other
    annotation keys, such as the `node_roles` and `edge_kinds` that older
    files carry, are ignored.
    """
    annotations = instance.annotations or {}
    red = annotations.get("reduction")
    if not isinstance(red, dict) or red.get("type") != "3sat":
        raise SchemaError("instance carries no 3sat reduction annotations")
    where = "reduction annotations"
    num_vars = _require(red, "num_vars", int, where)
    clauses = _require(red, "clauses", list, where)
    if not all(isinstance(c, list) and all(type(lit) is int for lit in c) for c in clauses):
        raise SchemaError(f"{where}: key 'clauses' must be lists of int")
    epsilon = parse_rational(_require(red, "epsilon", object, where), "reduction epsilon", {})
    gap = _require(red, "gap", bool, where)
    formula = CnfFormula(num_vars, tuple(tuple(clause) for clause in clauses))
    meta = sat_to_mcc(formula, instance.beta, epsilon=epsilon, gap=gap)
    if meta.graph != instance.graph:
        raise SchemaError("reduction annotations do not match the stored graph")
    return meta
