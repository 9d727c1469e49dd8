"""Command-line frontend.

Every command reads/writes the JSON instance format (see serialization)
and reports either a human-readable summary or, with --json, a machine
readable document carrying the same values. Exit codes: 0 success,
1 domain error (bad instance, no walk, budget exceeded, ...), 2 usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .agent import DEFAULT_WALK_CAP, is_motivating, min_motivating_reward
from .devices import (
    DEFAULT_EDGE_BUDGET,
    DEFAULT_PATH_BUDGET,
    brute_subgraph_opt,
    exact_infimum,
    fence_required_reward,
    minmax_path_approx,
    path_and_fence,
)
from .errors import ParameterOutOfRangeError, PlannerError
from .graph import CostConfiguration, TaskGraph, as_rational, validate
from .instances import (
    _LEAST_MAX_DENOMINATOR,
    _LEAST_MAX_NUMERATOR,
    Instance,
    _edge_density,
    gen_alice,
    gen_noopt,
    gen_random,
    gen_ratio,
)
from .reductions import (
    assignment_to_config,
    config_to_assignment,
    meta_from_instance,
    meta_to_annotations,
    parse_dimacs,
    sat_to_mcc,
)
from .serialization import format_rational, parse, serialize, to_dot


def _rational_arg(text: str) -> Fraction:
    try:
        return as_rational(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _density(text: str) -> float:
    """An argparse type: gen_random's edge probability, checked by the generator."""
    try:
        return _edge_density(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    except ParameterOutOfRangeError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise PlannerError(f"cannot read {path}: {exc}") from None


def _node_names(graph: TaskGraph, nodes) -> list[str]:
    return [graph.describe_node(v) for v in nodes]


def _resolve_path(graph: TaskGraph, text: str) -> list[int]:
    nodes = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            nodes.append(graph.node_by_label(token))
        except KeyError:
            try:
                v = int(token)
            except ValueError:
                v = -1  # neither a label nor an id
            if not 0 <= v < graph.n:
                raise PlannerError(f"unknown node {token!r}")
            nodes.append(v)
    return nodes


def _config_payload(config: CostConfiguration, graph: TaskGraph) -> list[dict]:
    return [
        {"from": graph.describe_node(u), "to": graph.describe_node(v),
         "extra": format_rational(x)}
        for (u, v), x in sorted(config.items())
    ]


# -- command handlers ---------------------------------------------------------

# what a handler returns: the --json payload, the human report's lines, and
# the document the command produces (None if it produces none)
Output = tuple[dict, list[str], str | None]


def _cmd_validate(args) -> Output:
    instance, _ = parse(_read_text(args.file), check=False)
    violations = validate(instance.graph)
    payload = {
        "valid": not violations,
        "violations": [{"kind": v.kind, "message": v.message} for v in violations],
    }
    lines = ["valid" if not violations else "invalid:"]
    lines.extend(f"  [{v.kind}] {v.message}" for v in violations)
    return payload, lines, None


def _cmd_simulate(args) -> Output:
    instance, config = parse(_read_text(args.file))
    reward = args.reward if args.reward is not None else instance.reward
    if reward is None:
        raise PlannerError("no reward: pass --reward or store one in the instance")
    graph = instance.graph
    report = is_motivating(graph, config, instance.beta, reward, walk_cap=args.walks)
    payload = {
        "motivating": report.motivating,
        "reward": format_rational(report.reward),
        "reachable": _node_names(graph, sorted(report.reachable)),
        "abandon_nodes": _node_names(graph, sorted(report.abandon_nodes)),
        "walks": [_node_names(graph, walk) for walk in report.walks],
        "walks_truncated": report.truncated,
    }
    lines = [
        f"motivating: {'yes' if report.motivating else 'no'}",
        f"reward:     {payload['reward']}",
        "reachable:  " + " ".join(payload["reachable"]),
    ]
    if report.abandon_nodes:
        lines.append("abandons at: " + " ".join(payload["abandon_nodes"]))
    suffix = " (truncated)" if report.truncated else ""
    lines.append(f"walks ({len(report.walks)}){suffix}:")
    lines.extend("  " + " -> ".join(walk) for walk in payload["walks"])
    return payload, lines, None


def _cmd_min_reward(args) -> Output:
    instance, config = parse(_read_text(args.file))
    value = min_motivating_reward(instance.graph, config, instance.beta)
    payload = {"min_motivating_reward": format_rational(value)}
    return payload, [f"min motivating reward: {format_rational(value)}"], None


def _cmd_fence(args) -> Output:
    instance, _ = parse(_read_text(args.file))
    graph = instance.graph
    nodes = _resolve_path(graph, args.path)
    config = path_and_fence(graph, instance.beta, nodes, args.epsilon)
    fenced_min = min_motivating_reward(graph, config, instance.beta)
    limit = fence_required_reward(graph, instance.beta, nodes)
    payload = {
        "path": _node_names(graph, nodes),
        "epsilon": format_rational(args.epsilon),
        "extra_costs": _config_payload(config, graph),
        "min_motivating_reward": format_rational(fenced_min),
        "required_reward_limit": format_rational(limit),
    }
    lines = [
        "fenced path: " + " -> ".join(_node_names(graph, nodes)),
        f"min motivating reward: {format_rational(fenced_min)}",
        f"limit as epsilon -> 0: {format_rational(limit)}",
    ]
    return payload, lines, serialize(
        Instance(graph=graph, beta=instance.beta, reward=fenced_min,
                 annotations=instance.annotations), config)


def _cmd_approx(args) -> Output:
    instance, _ = parse(_read_text(args.file))
    graph = instance.graph
    result = minmax_path_approx(graph, instance.beta)
    payload = {
        "minmax_path": _node_names(graph, result.minmax_path),
        "rho": format_rational(result.rho),
        "guaranteed_reward": format_rational(result.guaranteed_reward),
        "lower_bound": format_rational(result.lower_bound),
        "extra_costs": _config_payload(result.config, graph),
        "verified_motivating": result.verification.motivating,
    }
    lines = [
        "minmax path: " + " -> ".join(_node_names(graph, result.minmax_path)),
        f"rho: {format_rational(result.rho)}",
        f"motivating at 2*rho/beta = {format_rational(result.guaranteed_reward)} "
        f"(verified: {'yes' if result.verification.motivating else 'NO'})",
        f"no scheme below rho/beta = {format_rational(result.lower_bound)}",
    ]
    document = None
    if args.output:  # replayable instance+scheme document on request
        document = serialize(Instance(graph=graph, beta=instance.beta,
                                      reward=result.guaranteed_reward,
                                      annotations=instance.annotations), result.config)
    return payload, lines, document


def _cmd_exact(args) -> Output:
    instance, _ = parse(_read_text(args.file))
    graph = instance.graph
    result = exact_infimum(graph, instance.beta, path_budget=args.budget)
    payload = {
        "infimum": format_rational(result.value),
        "witness_path": _node_names(graph, result.path),
        "exhausted": result.exhausted,
        "paths_evaluated": result.paths_evaluated,
        "expansions": result.expansions,
    }
    lines = [
        f"infimum of motivating rewards: {format_rational(result.value)}",
        "witness path: " + " -> ".join(payload["witness_path"]),
        "(the infimum is approached by fences of the witness; it may not be attained)",
    ]
    if result.exhausted:
        lines.append(f"warning: path budget hit after {result.paths_evaluated} paths; "
                     "value is an upper bound only")
    return payload, lines, None


def _cmd_reduce3sat(args) -> Output:
    formula = parse_dimacs(_read_text(args.cnf))
    meta = sat_to_mcc(formula, args.beta, epsilon=args.epsilon, gap=args.gap)
    instance = Instance(graph=meta.graph, beta=meta.beta, reward=meta.reward,
                        annotations=meta_to_annotations(meta))
    payload = {
        "nodes": meta.graph.n,
        "edges": len(meta.graph.edges),
        "beta": format_rational(meta.beta),
        "epsilon": format_rational(meta.epsilon),
        "gap": meta.gap,
        "reward": format_rational(meta.reward),
    }
    if meta.gap_threshold is not None:
        payload["gap_threshold"] = format_rational(meta.gap_threshold)
    lines = [
        f"built instance: {meta.graph.n} nodes, {len(meta.graph.edges)} edges",
        f"critical reward 1/beta = {format_rational(meta.reward)}, "
        f"epsilon = {format_rational(meta.epsilon)}",
    ]
    if meta.gap_threshold is not None:
        lines.append("gap variant: unsatisfiable formulas stay above "
                     + format_rational(meta.gap_threshold))
    return payload, lines, serialize(instance)


def _cmd_assign2config(args) -> Output:
    instance, _ = parse(_read_text(args.file))
    meta = meta_from_instance(instance)
    config = assignment_to_config(meta, args.tau)
    report = is_motivating(meta.graph, config, meta.beta, meta.reward)
    payload = {
        "assignment": args.tau,
        "extra_costs": _config_payload(config, meta.graph),
        "motivating_at_critical_reward": report.motivating,
    }
    lines = [
        f"assignment {args.tau}: motivating at reward "
        f"{format_rational(meta.reward)}: {'yes' if report.motivating else 'no'}",
    ]
    return payload, lines, serialize(instance, config)


def _cmd_config2assign(args) -> Output:
    instance, config = parse(_read_text(args.file))
    meta = meta_from_instance(instance)
    tau = config_to_assignment(meta, config)
    text = "".join("T" if tau[k] else "F" for k in sorted(tau))
    satisfied = meta.formula.satisfied_by(tau)
    payload = {"assignment": text, "satisfies_formula": satisfied}
    return payload, [f"assignment: {text}",
                     f"satisfies the formula: {'yes' if satisfied else 'no'}"], None


def _cmd_gen(args) -> Output:
    instance = args.generate(args)
    payload = {
        "family": args.family,
        "nodes": instance.graph.n,
        "edges": len(instance.graph.edges),
        "beta": format_rational(instance.beta),
    }
    lines = [f"generated {args.family}: {instance.graph.n} nodes, "
             f"{len(instance.graph.edges)} edges"]
    return payload, lines, serialize(instance)


def _cmd_dot(args) -> Output:
    instance, config = parse(_read_text(args.file))
    highlight = None
    if args.highlight:
        highlight = _resolve_path(instance.graph, args.highlight)
    return {}, [], to_dot(instance, config, highlight)


def _cmd_compare(args) -> Output:
    instance, _ = parse(_read_text(args.file))
    graph = instance.graph
    beta = instance.beta
    # the subset enumeration refuses a graph over its edge budget at once,
    # before the exact search has spent its time
    sub_result = brute_subgraph_opt(graph, beta, edge_budget=args.edge_budget)
    inf_result = exact_infimum(graph, beta, path_budget=args.budget)
    penalty = inf_result.value
    prohibition = sub_result.value
    bound = 1 / beta
    ratio = None if penalty == 0 else prohibition / penalty
    ok = prohibition * beta <= penalty
    payload = {
        "penalty_infimum": format_rational(penalty),
        "prohibition_optimum": format_rational(prohibition),
        "ratio": None if ratio is None else format_rational(ratio),
        "bound": format_rational(bound),
        "ratio_within_bound": ok,
        "exhausted": inf_result.exhausted,
        "expansions": inf_result.expansions,
    }
    lines = [
        f"penalty schemes, infimum reward:   {format_rational(penalty)}",
        f"prohibition, optimal reward:       {format_rational(prohibition)}",
        f"ratio: {'n/a' if ratio is None else format_rational(ratio)}"
        f"  (bound 1/beta = {format_rational(bound)})",
    ]
    if not ok:
        raise PlannerError("ratio exceeds 1/beta; this indicates a bug")
    return payload, lines, None


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penalty-planner",
        description="Penalty-based commitment devices for present-biased "
                    "agents on task graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, func, help_text):
        sp = subparsers.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
        return sp

    sp = add(sub, "validate", _cmd_validate, "check task-graph invariants")
    sp.add_argument("file")

    sp = add(sub, "simulate", _cmd_simulate, "simulate the agent for a reward")
    sp.add_argument("file")
    sp.add_argument("--reward", type=_rational_arg, default=None)
    sp.add_argument("--walks", type=_int_at_least(0), default=DEFAULT_WALK_CAP,
                    help="cap on enumerated walks (default %(default)s)")

    sp = add(sub, "min-reward", _cmd_min_reward, "minimum motivating reward")
    sp.add_argument("file")

    sp = add(sub, "fence", _cmd_fence, "fence a path with penalties")
    sp.add_argument("file")
    sp.add_argument("--path", required=True,
                    help="comma-separated node labels (or ids)")
    sp.add_argument("--epsilon", type=_rational_arg, required=True)
    sp.add_argument("-o", "--output", default=None)

    sp = add(sub, "approx", _cmd_approx, "factor-2 penalty scheme")
    sp.add_argument("file")
    sp.add_argument("-o", "--output", default=None)

    sp = add(sub, "exact", _cmd_exact, "exact infimum over penalty schemes")
    sp.add_argument("file")
    sp.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_PATH_BUDGET)

    sp = add(sub, "reduce3sat", _cmd_reduce3sat, "3-SAT formula to task graph")
    sp.add_argument("cnf", help="DIMACS CNF file")
    sp.add_argument("--beta", type=_rational_arg, required=True)
    sp.add_argument("--epsilon", type=_rational_arg, default=None)
    sp.add_argument("--gap", action="store_true",
                    help="inapproximability-gap variant")
    sp.add_argument("-o", "--output", default=None)

    sp = add(sub, "assign2config", _cmd_assign2config,
             "penalty scheme from a truth assignment")
    sp.add_argument("file", help="instance produced by reduce3sat")
    sp.add_argument("--tau", required=True, help="assignment, e.g. TFT")
    sp.add_argument("-o", "--output", default=None)

    sp = add(sub, "config2assign", _cmd_config2assign,
             "truth assignment from a penalty scheme")
    sp.add_argument("file", help="instance with extra_costs")

    gen = sub.add_parser("gen", help="generate a named or random instance")
    families = gen.add_subparsers(dest="family", required=True)

    def add_gen(name, generate, help_text):
        gp = add(families, name, _cmd_gen, help_text)
        gp.set_defaults(generate=generate)
        gp.add_argument("-o", "--output", default=None)
        return gp

    gp = add_gen("alice", lambda a: gen_alice(a.m, a.beta, a.reward),
                 "weekly chores vs one-shot bailout")
    gp.add_argument("--m", type=_int_at_least(2), required=True)
    gp.add_argument("--beta", type=_rational_arg, default=Fraction(1, 3))
    gp.add_argument("--reward", type=_rational_arg, default=Fraction(6))

    gp = add_gen("ratio", lambda a: gen_ratio(a.beta, a.epsilon),
                 "penalty-vs-prohibition ratio graph")
    gp.add_argument("--beta", type=_rational_arg, required=True)
    gp.add_argument("--epsilon", type=_rational_arg, required=True)

    gp = add_gen("noopt", lambda a: gen_noopt(a.beta),
                 "seven-node graph with no optimal scheme")
    gp.add_argument("--beta", type=_rational_arg, required=True)

    gp = add_gen("random", lambda a: gen_random(
        a.n, a.density, a.beta, max_numerator=a.max_numerator,
        max_denominator=a.max_denominator, seed=a.seed), "seeded random DAG")
    gp.add_argument("--n", type=_int_at_least(2), required=True)
    gp.add_argument("--density", type=_density, required=True)
    gp.add_argument("--beta", type=_rational_arg, default=Fraction(1, 2))
    gp.add_argument("--max-numerator", type=_int_at_least(_LEAST_MAX_NUMERATOR), default=8)
    gp.add_argument("--max-denominator", type=_int_at_least(_LEAST_MAX_DENOMINATOR),
                    default=64)
    gp.add_argument("--seed", type=int, default=0)

    sp = add(sub, "dot", _cmd_dot, "DOT rendering of an instance")
    sp.add_argument("file")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--highlight", default=None,
                    help="comma-separated path to emphasize")

    sp = add(sub, "compare", _cmd_compare,
             "penalty infimum vs prohibition optimum vs the 1/beta bound")
    sp.add_argument("file")
    sp.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_PATH_BUDGET)
    sp.add_argument("--edge-budget", type=_int_at_least(0), default=DEFAULT_EDGE_BUDGET)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command and deliver its output.

    A produced document goes to -o; without -o it is itself the output (the
    human report is dropped so stdout stays parseable), and under --json it
    rides in the payload instead.
    """
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        payload, lines, document = args.func(args)
        if document is not None:
            if args.output not in (None, "-"):
                try:
                    with open(args.output, "w", encoding="utf-8") as fh:
                        fh.write(document)
                except OSError as exc:
                    raise PlannerError(f"cannot write {args.output}: {exc}") from None
                lines.append(f"wrote {args.output}")
            elif args.json:
                payload["document"] = document
            else:
                sys.stdout.write(document)
                lines = []
    except (PlannerError, ValueError) as exc:
        if not args.json:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report = {"command": args.command,
                  "error": {"type": type(exc).__name__, "message": str(exc)}}
    else:
        if not args.json:
            for line in lines:
                print(line)
            return 0
        report = {"command": args.command,
                  "elapsed_seconds": round(time.perf_counter() - started, 6),
                  "payload": payload}
    print(json.dumps(report, sort_keys=True, indent=2))
    return 1 if "error" in report else 0


if __name__ == "__main__":
    sys.exit(main())
