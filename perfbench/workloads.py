"""Seeded inputs, timed jobs and answer checks of the three workloads.

Each workload draws its inputs from a finite catalogue: the run seed picks
catalogue entries (and per-job choices such as the SAT variant), so every
input of every seed has an entry in `expected.json`. A job is a fixed
sequence of calls into the library's public functions; its outputs are
checked after the timed phase, by digest against `expected.json` and by
their meaning.

- fence-chain: deep narrow graphs; the fence recursion dominates.
- sat-decide: 3-SAT hardness graphs; the exact search dominates.
- simulate-wide: wide random DAGs; agent, graph, serialization, the
  minmax path and the CLI do the work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from penalty_planner import (
    agent,
    cli,
    devices,
    graph,
    instances,
    reductions,
    serialization,
)

from layers import Layers


@dataclass
class Job:
    key: str     # names the catalogue entry; keys the expected digest
    data: dict = field(default_factory=dict)


def digest(values: dict) -> str:
    """Digest of the path-independent exact values of one job."""
    text = json.dumps({k: str(v) for k, v in values.items()}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# -- fence-chain --------------------------------------------------------------

ALICE_BETAS = (Fraction(1, 3), Fraction(1, 4), Fraction(2, 5), Fraction(1, 2))
RATIO_BETAS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
NOOPT_BETAS = tuple(Fraction(k, 13) for k in range(1, 13))
FENCE_EPSILON = Fraction(1, 100)
CATALOGUE_SEED = 1702_01677


def _ratio_epsilon(beta: Fraction, main_len: int, index: int) -> Fraction:
    """A 50-digit epsilon giving about `main_len` main-path edge pairs.

    gen_ratio builds m = ceil(1 / (beta^2 (1-beta) eps^2)) edge pairs; the
    epsilon sits up to 1% above the value giving exactly `main_len`, and its
    numerator and denominator have 50 random digits, so the edge costs
    (1-beta) eps^2 carry 100-digit numerators.
    """
    rng = random.Random(f"ratio/{beta}/{main_len}/{index}/{CATALOGUE_SEED}")
    base = (1 / (float(beta) ** 2 * (1 - float(beta)) * main_len)) ** 0.5
    den = rng.randrange(10 ** 49, 10 ** 50)
    k = int(base * (1 + rng.random() / 100) * 10 ** 6)
    return Fraction(den * k // 10 ** 6 + rng.randrange(10 ** 40), den)


class FenceChain:
    name = "fence-chain"
    time_limit = 60.0  # about 20 times the slowest job
    # (family, size) -> jobs per pass; sizes are alice weeks or ratio
    # main-path edge pairs (the ratio graphs have 2*size + 2 nodes)
    # The counts place the median job among the alice m=50 jobs and the
    # tail quantile among the m=100 ones, not on a boundary between sizes.
    mix = {("alice", 400): 1, ("alice", 200): 2, ("alice", 100): 10,
           ("alice", 50): 10, ("ratio", 150): 1, ("ratio", 50): 2, ("noopt", 0): 10}
    ratio_variants = 2

    def _pool(self, family: str, size: int) -> list[str]:
        if family == "alice":
            return [f"alice:{size}:{b}" for b in ALICE_BETAS]
        if family == "ratio":
            return [f"ratio:{size}:{b}:{i}" for b in RATIO_BETAS
                    for i in range(self.ratio_variants)]
        return [f"noopt:{b}" for b in NOOPT_BETAS]

    def catalogue(self) -> list[str]:
        return [key for family_size in self.mix for key in self._pool(*family_size)]

    def draw(self, seed: int) -> list[str]:
        rng = random.Random(seed)
        keys = [rng.choice(self._pool(family, size))
                for (family, size), count in self.mix.items() for _ in range(count)]
        rng.shuffle(keys)
        return keys

    def setup(self, keys: list[str], layers: Layers, workdir: Path) -> list[Job]:
        jobs = []
        for key in keys:
            parts = key.split(":")
            if parts[0] == "alice":
                m, beta = int(parts[1]), Fraction(parts[2])
                inst = layers.call("instances.gen_alice", instances.gen_alice, m, beta)
                chain = tuple(range(m + 1))
            elif parts[0] == "ratio":
                size, beta, index = int(parts[1]), Fraction(parts[2]), int(parts[3])
                eps = _ratio_epsilon(beta, size, index)
                inst = layers.call("instances.gen_ratio", instances.gen_ratio, beta, eps)
                chain = tuple(range(inst.graph.target + 1))
            else:
                beta = Fraction(parts[1])
                inst = layers.call("instances.gen_noopt", instances.gen_noopt, beta)
                chain = (0, 1, 2, 3, 4, 6)
            text = layers.call("serialization.serialize", serialization.serialize, inst)
            jobs.append(Job(key, {"text": text, "chain": chain}))
        return jobs

    def run(self, job: Job, L: Layers) -> dict:
        text, chain = job.data["text"], job.data["chain"]
        inst, _ = L.call("serialization.parse", serialization.parse, text)
        L.count("serialization.bytes_in", len(text.encode()))
        g, beta = inst.graph, inst.beta
        violations = L.call("graph.validate", graph.validate, g)
        L.count("graph.nodes", g.n)
        L.count("graph.edges", len(g.edges))
        approx = L.call("devices.minmax_path_approx", devices.minmax_path_approx, g, beta)
        L.count("devices.minmax_path_approx.extras", len(approx.config))
        fence_value = L.call("devices.fence_required_reward",
                             devices.fence_required_reward, g, beta, chain)
        fence = L.call("devices.path_and_fence", devices.path_and_fence,
                       g, beta, chain, FENCE_EPSILON)
        L.count("devices.path_and_fence.extras", len(fence))
        reward = L.call("agent.min_motivating_reward", agent.min_motivating_reward,
                        g, fence, beta)
        report = L.call("agent.is_motivating", agent.is_motivating, g, fence, beta, reward)
        L.count("agent.reachable_nodes", len(report.reachable))
        L.count("agent.abandon_nodes", len(report.abandon_nodes))
        inf = L.call("devices.exact_infimum", devices.exact_infimum, g, beta)
        L.count("devices.exact_infimum.paths_evaluated", inf.paths_evaluated)
        L.count("devices.exact_infimum.exhausted", inf.exhausted)
        out_text = L.call("serialization.serialize", serialization.serialize, inst, fence)
        L.count("serialization.bytes_out", len(out_text.encode()))
        return {"violations": len(violations), "approx": approx,
                "fence_value": fence_value, "fence": fence, "reward": reward,
                "report": report, "inf": inf, "out_text": out_text}

    def summary(self, job: Job, out: dict) -> tuple[dict, str]:
        approx, inf, report = out["approx"], out["inf"], out["report"]
        values = {"fence_value": out["fence_value"], "fenced_reward": out["reward"],
                  "infimum": inf.value, "rho": approx.rho,
                  "guaranteed": approx.guaranteed_reward}
        witness = repr((inf.path, inf.exhausted, approx.minmax_path, approx.config,
                        out["fence"], report.motivating, sorted(report.reachable),
                        out["violations"], out["out_text"]))
        return values, witness

    def check(self, job: Job, out: dict) -> list[str]:
        text, chain = job.data["text"], job.data["chain"]
        inst, _ = serialization.parse(text)
        g, beta = inst.graph, inst.beta
        approx, inf, report = out["approx"], out["inf"], out["report"]
        problems = []
        if out["violations"]:
            problems.append("generated graph fails validation")
        problems += _check_approx(g, beta, approx)
        if not report.motivating or report.reachable != frozenset(chain):
            problems.append("fenced chain is not exactly what the agent reaches")
        if out["fence_value"] > out["reward"]:
            problems.append("fenced chain motivates below its fence value")
        if inf.exhausted or inf.path is None:
            problems.append("exact search gave no answer")
        else:
            devices.check_path(g, inf.path)
            refenced = (out["fence_value"] if inf.path == chain
                        else devices.fence_required_reward(g, beta, inf.path))
            if refenced != inf.value:
                problems.append("re-fencing the exact witness does not give the infimum")
            if not approx.lower_bound <= inf.value <= min(approx.guaranteed_reward,
                                                           out["fence_value"]):
                problems.append("infimum outside [rho/beta, min(2 rho/beta, fence)]")
        back_inst, back_fence = serialization.parse(out["out_text"])
        if back_inst.graph != g or back_fence != out["fence"]:
            problems.append("serialized fence does not round-trip")
        return problems


def _check_approx(g, beta, approx) -> list[str]:
    problems = []
    devices.check_path(g, approx.minmax_path)
    eta = agent.build_view(g, None, beta).eta
    path = approx.minmax_path
    if max(eta[e] for e in zip(path, path[1:])) != approx.rho:
        problems.append("max perceived cost on the minmax path is not rho")
    if not agent.is_motivating(g, approx.config, beta, approx.guaranteed_reward).motivating:
        problems.append("approximate scheme does not motivate at its stated reward")
    return problems


# -- sat-decide ---------------------------------------------------------------

SAT_BETA = Fraction(1, 5)


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> reductions.CnfFormula:
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return reductions.CnfFormula(num_vars, tuple(clauses))


class SatDecide:
    name = "sat-decide"
    # On a 2-vCPU 2.1 GHz Xeon VM the catalogue jobs that finish take at
    # most 0.23 s and the others at least 1.6 s; 0.6 s is a factor 2.6 from
    # both, so the same jobs time out on every run, all (8,24) among them.
    time_limit = 0.6
    # (vars, clauses) -> formulas in the catalogue; every pass runs each
    # formula once. (3, 20) has clause/variable ratio 6.7, so about half
    # of its draws are unsatisfiable.
    mix = {(3, 4): 4, (4, 8): 4, (5, 12): 4, (6, 16): 4, (8, 24): 2, (3, 20): 8}

    def formulas(self) -> dict[str, reductions.CnfFormula]:
        out = {}
        for (v, c), count in self.mix.items():
            rng = random.Random(f"sat/{v}x{c}/{CATALOGUE_SEED}")
            for i in range(count):
                out[f"sat:{v}x{c}:{i}"] = random_cnf(rng, v, c)
        return out

    def catalogue(self) -> list[str]:
        return [f"{k}:{variant}" for k in self.formulas() for variant in ("dec", "gap")]

    def draw(self, seed: int) -> list[str]:
        rng = random.Random(seed)
        keys = [f"{k}:{rng.choice(('dec', 'gap'))}" for k in self.formulas()]
        rng.shuffle(keys)
        return keys

    def setup(self, keys: list[str], layers: Layers, workdir: Path) -> list[Job]:
        formulas = self.formulas()
        jobs = []
        for key in keys:
            base, variant = key.rsplit(":", 1)
            formula = formulas[base]
            satisfying = list(formula.satisfying_assignments())
            # the assignment used for the configuration round trip
            tau = random.Random(key).choice(satisfying) if satisfying else None
            jobs.append(Job(key, {"formula": formula, "gap": variant == "gap",
                                  "satisfiable": bool(satisfying), "tau": tau}))
        return jobs

    def run(self, job: Job, L: Layers) -> dict:
        d = job.data
        meta = L.call("reductions.sat_to_mcc", reductions.sat_to_mcc,
                      d["formula"], SAT_BETA, gap=d["gap"])
        L.count("graph.nodes", meta.graph.n)
        L.count("graph.edges", len(meta.graph.edges))
        inf = L.call("devices.exact_infimum", devices.exact_infimum, meta.graph, SAT_BETA)
        L.count("devices.exact_infimum.paths_evaluated", inf.paths_evaluated)
        L.count("devices.exact_infimum.exhausted", inf.exhausted)
        out = {"meta": meta, "inf": inf}
        if d["satisfiable"]:
            cfg = L.call("reductions.assignment_to_config", reductions.assignment_to_config,
                         meta, d["tau"])
            report = L.call("agent.is_motivating", agent.is_motivating,
                            meta.graph, cfg, SAT_BETA, 1 / SAT_BETA)
            L.count("agent.reachable_nodes", len(report.reachable))
            L.count("agent.abandon_nodes", len(report.abandon_nodes))
            out["motivating"] = report.motivating
            out["tau_back"] = L.call("reductions.config_to_assignment",
                                     reductions.config_to_assignment, meta, cfg)
        return out

    def summary(self, job: Job, out: dict) -> tuple[dict, str]:
        inf = out["inf"]
        values = {"satisfiable": job.data["satisfiable"], "infimum": inf.value}
        witness = repr((inf.path, inf.exhausted, out.get("motivating"),
                        sorted(out.get("tau_back", {}).items())))
        return values, witness

    def check(self, job: Job, out: dict) -> list[str]:
        d, meta, inf = job.data, out["meta"], out["inf"]
        problems = []
        critical = 1 / SAT_BETA
        if inf.exhausted or inf.path is None:
            problems.append("exact search gave no answer")
        else:
            if devices.fence_required_reward(meta.graph, SAT_BETA, inf.path) != inf.value:
                problems.append("re-fencing the exact witness does not give the infimum")
            if d["satisfiable"] and inf.value != critical:
                problems.append("satisfiable formula, but the infimum is not 1/beta")
            floor = meta.gap_threshold if d["gap"] else critical
            if not d["satisfiable"] and not inf.value > floor:
                problems.append("unsatisfiable formula, but the infimum is not above "
                                + ("the gap threshold" if d["gap"] else "1/beta"))
        if d["satisfiable"]:
            if not out["motivating"]:
                problems.append("assignment scheme does not motivate at 1/beta")
            if not d["formula"].satisfied_by(out["tau_back"]):
                problems.append("assignment read off the scheme does not satisfy the formula")
        return problems


# -- simulate-wide ------------------------------------------------------------


class SimulateWide:
    name = "simulate-wide"
    time_limit = 30.0  # about 10 times the slowest job
    # (nodes before preprocessing, cost variant) -> (graphs, configuration
    # sets per graph, configurations per set). "rational" costs are p/q
    # with p <= 8, q <= 64; "01" costs are 0 or 1, which makes ties, and so
    # the agent's tie closure, large. Every pass runs each graph once, with
    # a configuration set the seed picks: the large graphs set the pace of
    # a pass, so they are fixed and only their configurations vary.
    mix = {(800, "rational"): (1, 6, 2), (800, "01"): (1, 6, 2),
           (200, "rational"): (24, 2, 3), (200, "01"): (24, 2, 3)}
    density = 0.05

    def catalogue(self) -> list[str]:
        return [f"random:{n}:{costs}:{i}:{j}"
                for (n, costs), (graphs, sets, _) in self.mix.items()
                for i in range(graphs) for j in range(sets)]

    def draw(self, seed: int) -> list[str]:
        rng = random.Random(seed)
        keys = [f"random:{n}:{costs}:{i}:{rng.randrange(sets)}"
                for (n, costs), (graphs, sets, _) in self.mix.items()
                for i in range(graphs)]
        rng.shuffle(keys)
        return keys

    def setup(self, keys: list[str], layers: Layers, workdir: Path) -> list[Job]:
        jobs = []
        for key in keys:
            _, n, costs, index, _ = key.split(":")
            n, index = int(n), int(index)
            top = (1, 1) if costs == "01" else (8, 64)
            inst = layers.call("instances.gen_random", instances.gen_random,
                               n, self.density, max_numerator=top[0],
                               max_denominator=top[1], seed=index * 2 + (costs == "01"))
            rng = random.Random(key)
            pairs = inst.graph.edge_pairs()
            configs = []
            for _ in range(self.mix[(n, costs)][2]):
                chosen = rng.sample(pairs, len(pairs) // 10)
                configs.append(graph.CostConfiguration(
                    {e: Fraction(rng.randint(1, top[0]), rng.randint(1, top[1]))
                     for e in chosen}))
            # the reward lets the CLI simulate the instance file
            reward = Fraction(rng.randint(1, 16), 2)
            text = layers.call("serialization.serialize", serialization.serialize,
                               instances.Instance(inst.graph, inst.beta, reward=reward))
            path = workdir / (key.replace(":", "-") + ".json")
            path.write_text(text, encoding="utf-8")
            jobs.append(Job(key, {"text": text, "configs": configs, "file": str(path),
                                  "reward": reward}))
        return jobs

    def run(self, job: Job, L: Layers) -> dict:
        text = job.data["text"]
        inst, _ = L.call("serialization.parse", serialization.parse, text)
        L.count("serialization.bytes_in", len(text.encode()))
        violations = L.call("graph.validate", graph.validate, inst.graph)
        g = L.call("graph.preprocess", graph.preprocess, inst.graph)
        L.count("graph.nodes", g.n)
        L.count("graph.edges", len(g.edges))
        beta = inst.beta
        per_config = []
        for cfg in job.data["configs"]:
            L.call("agent.build_view", agent.build_view, g, cfg, beta)
            reward = L.call("agent.min_motivating_reward", agent.min_motivating_reward,
                            g, cfg, beta)
            at = L.call("agent.is_motivating", agent.is_motivating, g, cfg, beta, reward)
            below = None
            if reward > 0:
                below = L.call("agent.is_motivating", agent.is_motivating,
                               g, cfg, beta, reward * Fraction(999, 1000))
            for report in (at, below):
                if report is not None:
                    L.count("agent.reachable_nodes", len(report.reachable))
                    L.count("agent.abandon_nodes", len(report.abandon_nodes))
            per_config.append((reward, at.motivating,
                               None if below is None else below.motivating))
        approx = L.call("devices.minmax_path_approx", devices.minmax_path_approx, g, beta)
        L.count("devices.minmax_path_approx.extras", len(approx.config))
        out_text = L.call("serialization.serialize", serialization.serialize,
                          inst, approx.config)
        L.count("serialization.bytes_out", len(out_text.encode()))
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            status = L.call("cli.main", cli.main, ["simulate", job.data["file"], "--json"])
        cli_text = buf.getvalue()
        report = json.loads(cli_text) if status == 0 else {}
        payload = report.get("payload", {})
        # the digits of the report's elapsed_seconds vary from run to run
        L.count("cli.bytes_out",
                len(cli_text.encode()) - len(str(report.get("elapsed_seconds", ""))))
        return {"violations": len(violations), "graph": g, "per_config": per_config,
                "approx": approx, "out_text": out_text, "cli_status": status,
                "cli_payload": payload}

    def summary(self, job: Job, out: dict) -> tuple[dict, str]:
        g, approx = out["graph"], out["approx"]
        payload = out["cli_payload"]
        values = {"nodes": g.n, "edges": len(g.edges),
                  "rewards": [r for (r, _, _) in out["per_config"]],
                  "rho": approx.rho, "cli_motivating": payload.get("motivating"),
                  "cli_reachable": len(payload.get("reachable", ()))}
        witness = repr((out["violations"], out["per_config"], approx.minmax_path,
                        approx.config, out["out_text"], out["cli_status"], payload))
        return values, witness

    def check(self, job: Job, out: dict) -> list[str]:
        inst, _ = serialization.parse(job.data["text"])
        g, beta = out["graph"], inst.beta
        problems = []
        if out["violations"]:
            problems.append("generated graph fails validation")
        if g != inst.graph:
            problems.append("preprocess changed an already preprocessed graph")
        for (_, at, below) in out["per_config"]:
            if not at:
                problems.append("not motivating at the minimum motivating reward")
            if below:
                problems.append("motivating below the minimum motivating reward")
        problems += _check_approx(g, beta, out["approx"])
        back_inst, back_cfg = serialization.parse(out["out_text"])
        if back_inst.graph != g or back_cfg != out["approx"].config:
            problems.append("serialized scheme does not round-trip")
        payload = out["cli_payload"]
        direct = agent.is_motivating(g, None, beta, job.data["reward"])
        if out["cli_status"] != 0 or payload.get("motivating") != direct.motivating \
                or len(payload.get("reachable", ())) != len(direct.reachable):
            problems.append("CLI simulate disagrees with is_motivating")
        return problems


WORKLOADS = {w.name: w for w in (FenceChain(), SatDecide(), SimulateWide())}
