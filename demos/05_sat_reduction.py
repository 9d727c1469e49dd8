"""Hardness made concrete: a 3-CNF formula as a planning instance.

Each clause becomes a row of three literal nodes, each variable a
true/false node pair, and three kinds of tempting shortcuts tie the
agent's survival at reward 1/beta to satisfying the formula. Satisfying
assignments translate into penalty schemes and back, and the exact
solver's witness path, fenced, decodes to a satisfying assignment. For
unsatisfiable formulas the exact solver certifies that no scheme works at
the critical reward - with a strict gap in the inapproximability variant.
"""

from fractions import Fraction as F

from penalty_planner import (
    CnfFormula,
    assignment_to_config,
    config_to_assignment,
    exact_infimum,
    is_motivating,
    path_and_fence,
    sat_to_mcc,
)

beta = F(1, 5)

sat = CnfFormula(3, ((-1, 2, 3), (1, -2, -3), (1, -2, 3)))
meta = sat_to_mcc(sat, beta)
print(f"satisfiable formula -> {meta.graph.n} nodes, {len(meta.graph.edges)} edges, "
      f"margin eps = {meta.epsilon}")
tau = {1: True, 2: True, 3: True}
config = assignment_to_config(meta, tau)
print(f"assignment TTT prices {len(config)} edges; motivating at 1/beta = "
      f"{meta.reward}: {is_motivating(meta.graph, config, beta, meta.reward).motivating}")
print(f"reading the walk back: {config_to_assignment(meta, config)}")
inf = exact_infimum(meta.graph, beta)
fence = path_and_fence(meta.graph, beta, inf.path, F(1, 10 ** 6))
print(f"exact search: infimum {inf.value} = 1/beta; its witness path, fenced, "
      f"decodes to {config_to_assignment(meta, fence)}\n")

unsat = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
plain = sat_to_mcc(unsat, beta)
value = exact_infimum(plain.graph, beta).value
premium = plain.epsilon * (1 + beta) / beta
print(f"unsatisfiable formula: infimum {value} = {float(value)} > 5, "
      f"exactly 1/beta + eps*(1+beta)/beta: {value == 1 / beta + premium}")

gap = sat_to_mcc(unsat, beta, gap=True)
value = exact_infimum(gap.graph, beta).value
print(f"gap variant: infimum {value} = {float(value)} > "
      f"{gap.gap_threshold} = {float(gap.gap_threshold)}")
premium = gap.epsilon * (1 + beta) / beta
print(f"  exactly the threshold + eps*(1+beta)/beta: {value == gap.gap_threshold + premium}")
print("approximating the best reward within 1.08192 would therefore decide SAT")
