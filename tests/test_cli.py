"""Command-line interface: flows, exit codes, JSON mode."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from penalty_planner import cli, meta_from_instance, parse
from penalty_planner.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_gen_then_simulate_alice(tmp_path, capsys):
    path = tmp_path / "alice.json"
    code, _, _ = run(capsys, "gen", "alice", "--m", "10", "--beta", "1/3",
                     "--reward", "6", "-o", str(path))
    assert code == 0
    code, payload, _ = run_json(capsys, "simulate", str(path), "--reward", "6")
    assert code == 0
    assert payload["payload"]["motivating"] is True
    code, payload, _ = run_json(capsys, "simulate", str(path), "--reward", "5999/1000")
    assert payload["payload"]["motivating"] is False
    assert payload["payload"]["abandon_nodes"][0] == "v1"


def test_simulate_uses_stored_reward(tmp_path, capsys):
    path = tmp_path / "alice.json"
    run(capsys, "gen", "alice", "--m", "5", "-o", str(path))
    code, payload, _ = run_json(capsys, "simulate", str(path))
    assert code == 0
    assert payload["payload"]["reward"] == "6"


def test_min_reward_command(tmp_path, capsys):
    path = tmp_path / "alice.json"
    run(capsys, "gen", "alice", "--m", "10", "-o", str(path))
    code, payload, _ = run_json(capsys, "min-reward", str(path))
    assert code == 0
    assert payload["payload"]["min_motivating_reward"] == "6"


def test_gen_noopt_then_exact(tmp_path, capsys):
    path = tmp_path / "g.json"
    run(capsys, "gen", "noopt", "--beta", "1/2", "-o", str(path))
    code, payload, _ = run_json(capsys, "exact", str(path))
    assert code == 0
    body = payload["payload"]
    assert body["infimum"] == "2"
    assert body["witness_path"] == ["s", "v1", "v2", "v3", "v4", "t"]
    assert body["exhausted"] is False


def test_fence_command_writes_config(tmp_path, capsys):
    src = tmp_path / "g.json"
    out = tmp_path / "fenced.json"
    run(capsys, "gen", "noopt", "--beta", "1/2", "-o", str(src))
    code, payload, _ = run_json(capsys, "fence", str(src),
                                "--path", "s,v1,w,t", "--epsilon", "1/10",
                                "-o", str(out))
    assert code == 0
    assert payload["payload"]["extra_costs"] == [
        {"from": "v1", "to": "v2", "extra": "1/40"}]
    instance, config = parse(out.read_text())
    assert config.get(1, 2) == F(1, 40)
    # an empty token in the path is skipped
    code, again, _ = run_json(capsys, "fence", str(src),
                              "--path", "s,,v1,w,t", "--epsilon", "1/10")
    assert code == 0
    assert again["payload"]["path"] == ["s", "v1", "w", "t"]
    assert again["payload"]["extra_costs"] == payload["payload"]["extra_costs"]


def test_approx_command(tmp_path, capsys):
    path = tmp_path / "alice.json"
    run(capsys, "gen", "alice", "--m", "10", "-o", str(path))
    code, payload, _ = run_json(capsys, "approx", str(path))
    assert code == 0
    body = payload["payload"]
    assert body["rho"] == "2"
    assert body["guaranteed_reward"] == "12"
    assert body["lower_bound"] == "6"
    assert body["verified_motivating"] is True


def test_reduce3sat_flow(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("c tiny unsat\np cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    out = tmp_path / "j.json"
    code, payload, _ = run_json(capsys, "reduce3sat", str(cnf),
                                "--beta", "1/5", "--gap", "-o", str(out))
    assert code == 0
    assert payload["payload"]["gap_threshold"] == "3381/625"
    code, payload, _ = run_json(capsys, "exact", str(out))
    assert code == 0
    value = F(payload["payload"]["infimum"])
    assert value > F(3381, 625)


def test_assignment_round_trip_via_files(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 3\n-1 2 3 0\n1 -2 -3 0\n1 -2 3 0\n")
    inst = tmp_path / "j.json"
    cfg = tmp_path / "cfg.json"
    run(capsys, "reduce3sat", str(cnf), "--beta", "1/5", "-o", str(inst))
    code, payload, _ = run_json(capsys, "assign2config", str(inst),
                                "--tau", "TTT", "-o", str(cfg))
    assert code == 0
    assert payload["payload"]["motivating_at_critical_reward"] is True
    code, payload, _ = run_json(capsys, "config2assign", str(cfg))
    assert code == 0
    assert payload["payload"]["assignment"] == "TTT"
    assert payload["payload"]["satisfies_formula"] is True


def _without_old_keys(document: str) -> dict:
    data = json.loads(document)
    for key in ("node_roles", "edge_kinds"):
        data["annotations"].pop(key, None)
    return data


@pytest.mark.parametrize("tau", ["TTT", "TFT", "FFF"])
def test_reduction_files_with_node_roles_and_edge_kinds_still_load(
        tmp_path, capsys, monkeypatch, tau):
    # three_vars_with_roles.json is what reduce3sat wrote for three_vars.cnf
    # at beta 1/5 while its annotations still held node_roles and edge_kinds
    monkeypatch.chdir(tmp_path)
    run(capsys, "reduce3sat", str(DATA / "three_vars.cnf"), "--beta", "1/5",
        "-o", "new.json")
    old_text = (DATA / "three_vars_with_roles.json").read_text()
    (tmp_path / "old.json").write_text(old_text)
    assert set(json.loads(old_text)["annotations"]) == {
        "reduction", "node_roles", "edge_kinds"}
    new_text = (tmp_path / "new.json").read_text()
    assert set(json.loads(new_text)["annotations"]) == {"reduction"}
    assert _without_old_keys(old_text) == json.loads(new_text)
    assert meta_from_instance(parse(old_text)[0]) == meta_from_instance(parse(new_text)[0])
    outputs = {}
    for name in ("old", "new"):
        code, made, _ = run_json(capsys, "assign2config", f"{name}.json",
                                 "--tau", tau, "-o", f"{name}_cfg.json")
        assert code == 0
        code, read, _ = run_json(capsys, "config2assign", f"{name}_cfg.json")
        read.pop("elapsed_seconds", None)
        outputs[name] = (made["payload"], code, read,
                         _without_old_keys((tmp_path / f"{name}_cfg.json").read_text()))
    assert outputs["old"] == outputs["new"]


def test_config2assign_no_walk_is_domain_error(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 1 1 0\n")
    inst = tmp_path / "j.json"
    run(capsys, "reduce3sat", str(cnf), "--beta", "1/5", "-o", str(inst))
    code, payload, err = run_json(capsys, "config2assign", str(inst))
    assert code == 1
    assert payload["error"]["type"] == "NoWalkError"


def test_validate_command_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "nodes": [{"id": 0}, {"id": 1}],
        "edges": [{"from": 0, "to": 1, "cost": "1"},
                  {"from": 1, "to": 0, "cost": "1"}],
        "source": 0, "target": 1, "beta": "1/2",
    }))
    code, payload, _ = run_json(capsys, "validate", str(path))
    assert code == 0
    assert payload["payload"]["valid"] is False
    assert payload["payload"]["violations"][0]["kind"] == "cycle"


def test_validate_accepts_clean_file(tmp_path, capsys):
    path = tmp_path / "g.json"
    run(capsys, "gen", "random", "--n", "8", "--density", "0.4",
        "--seed", "5", "-o", str(path))
    code, payload, _ = run_json(capsys, "validate", str(path))
    assert code == 0
    assert payload["payload"]["valid"] is True


DEAD_END = {
    "schema_version": 1,
    "nodes": [{"id": 0, "label": "s"}, {"id": 1, "label": "a"},
              {"id": 2, "label": "dead"}, {"id": 3, "label": "t"}],
    "edges": [{"from": 0, "to": 1, "cost": "1"}, {"from": 1, "to": 3, "cost": "1"},
              {"from": 0, "to": 2, "cost": "1/2"}],
    "source": 0, "target": 3, "beta": "1/2", "reward": "4",
}


def test_validate_reports_a_node_that_cannot_reach_the_target(tmp_path, capsys):
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(DEAD_END))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert out == "invalid:\n  [dead-end] node dead has no out-edge and cannot reach target t\n"
    code, payload, _ = run_json(capsys, "validate", str(path))
    assert payload["payload"] == {"valid": False, "violations": [
        {"kind": "dead-end", "message": "node dead has no out-edge and cannot reach target t"}]}


@pytest.mark.parametrize("command", ["simulate", "min-reward", "approx", "exact", "compare",
                                     "dot"])
def test_planning_commands_refuse_a_dead_end(tmp_path, capsys, command):
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(DEAD_END))
    code, payload, _ = run_json(capsys, command, str(path))
    assert code == 1
    assert payload["error"] == {
        "type": "ValidationError",
        "message": "node dead has no out-edge and cannot reach target t"}


def test_exact_warns_when_the_budget_stops_the_search(tmp_path, capsys):
    # the formula is unsatisfiable, so the probe round scores no path, and
    # the full round's first path is not the optimum: --budget 1 cuts it
    cnf, path = tmp_path / "f.cnf", tmp_path / "g.json"
    cnf.write_text("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    run(capsys, "reduce3sat", str(cnf), "--beta", "1/5", "-o", str(path))
    code, out, _ = run(capsys, "exact", str(path), "--budget", "1")
    assert code == 0
    assert out.splitlines()[0] == "infimum of motivating rewards: 9"
    assert out.splitlines()[-1] == ("warning: path budget hit after 1 paths; "
                                    "value is an upper bound only")
    code, out, _ = run(capsys, "exact", str(path))
    assert "infimum of motivating rewards: 657/125" in out
    assert "warning" not in out


def test_broken_json_is_domain_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "invalid JSON" in err


def test_dot_command(tmp_path, capsys):
    src = tmp_path / "g.json"
    run(capsys, "gen", "noopt", "--beta", "1/2", "-o", str(src))
    code, out, _ = run(capsys, "dot", str(src), "--highlight", "s,v1,w,t")
    assert code == 0
    assert out.startswith("digraph")
    assert "color=red" in out


def test_compare_command(tmp_path, capsys):
    path = tmp_path / "g.json"
    run(capsys, "gen", "random", "--n", "6", "--density", "0.5", "--beta", "1/2",
        "--seed", "9", "-o", str(path))
    code, payload, _ = run_json(capsys, "compare", str(path))
    assert code == 0
    assert payload["payload"]["ratio_within_bound"] is True
    assert payload["payload"]["expansions"] >= 1


def test_compare_refuses_an_oversized_graph_before_the_exact_search(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.json"
    run(capsys, "gen", "noopt", "--beta", "1/2", "-o", str(path))

    def exact_infimum(*args, **kwargs):
        raise AssertionError("compare ran the exact search on a graph it refuses")

    monkeypatch.setattr(cli, "exact_infimum", exact_infimum)
    code, out, err = run(capsys, "compare", str(path), "--edge-budget", "3")
    assert (code, out, err) == (1, "", "error: 7 edges exceed the enumeration budget of 3\n")


def test_exact_threads_env_default(tmp_path, capsys, monkeypatch):
    # PENALTY_PLANNER_THREADS is not read: the search is deterministic,
    # so two runs under different values report the same answer
    path = tmp_path / "g.json"
    run(capsys, "gen", "noopt", "--beta", "1/3", "-o", str(path))
    monkeypatch.setenv("PENALTY_PLANNER_THREADS", "4")
    code, payload, _ = run_json(capsys, "exact", str(path))
    assert code == 0
    monkeypatch.setenv("PENALTY_PLANNER_THREADS", "1")
    code, payload_one, _ = run_json(capsys, "exact", str(path))
    assert payload_one["payload"]["infimum"] == payload["payload"]["infimum"]
    assert payload_one["payload"]["witness_path"] == payload["payload"]["witness_path"]
    assert payload_one["payload"]["expansions"] == payload["payload"]["expansions"]


def test_stdout_document_stays_clean(capsys):
    # without -o the document is the output: parseable JSON, no report noise
    code, out, _ = run(capsys, "gen", "noopt", "--beta", "1/2")
    assert code == 0
    instance, _ = parse(out)
    assert instance.graph.n == 7
    # in JSON mode the document rides inside the report payload
    code, payload, _ = run_json(capsys, "gen", "noopt", "--beta", "1/2")
    assert code == 0
    instance, _ = parse(payload["payload"]["document"])
    assert instance.graph.n == 7


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(capsys, "simulate", "/nonexistent/instance.json")
    assert code == 1
    assert "cannot read" in err


def test_bad_epsilon_is_domain_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    run(capsys, "gen", "noopt", "--beta", "1/2", "-o", str(path))
    code, _, err = run(capsys, "fence", str(path), "--path", "s,v1,w,t",
                       "--epsilon", "0")
    assert code == 1
    assert "positive" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["fence"])  # missing file/path/epsilon
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["exact", "compare"])
@pytest.mark.parametrize("budget", ["0", "-3", "many"])
def test_budget_below_one_is_usage_error(tmp_path, capsys, command, budget):
    path = tmp_path / "g.json"
    run(capsys, "gen", "noopt", "--beta", "1/2", "-o", str(path))
    with pytest.raises(SystemExit) as err:
        main([command, str(path), "--budget", budget])
    assert err.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value", [
    ("simulate", "--walks", "-1"), ("simulate", "--walks", "-3"),
    ("simulate", "--walks", "many"), ("compare", "--edge-budget", "-1"),
])
def test_count_below_zero_is_usage_error(tmp_path, capsys, command, flag, value):
    path = tmp_path / "g.json"
    run(capsys, "gen", "noopt", "--beta", "1/2", "-o", str(path))
    with pytest.raises(SystemExit) as err:
        main([command, str(path), flag, value])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "FILE", "--reward", "abc"],
    ["simulate", "FILE", "--reward", "1e7000000"],
    ["gen", "noopt", "--beta", "0.5"],
    ["gen", "ratio", "--beta", "1/2", "--epsilon", " 1/10"],
], ids=["reward-word", "reward-exponent", "beta-decimal", "epsilon-padded"])
def test_reward_that_is_not_a_rational_is_usage_error(tmp_path, capsys, argv):
    # Fraction(str) takes the last three, and spends seconds on "1e7000000"
    path = tmp_path / "g.json"
    run(capsys, "gen", "noopt", "--beta", "1/2", "-o", str(path))
    flag, value = argv[-2:]
    with pytest.raises(SystemExit) as err:
        main([str(path) if arg == "FILE" else arg for arg in argv])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: not a rational: {value!r}\n")


@pytest.mark.parametrize("argv,flag", [
    (["gen", "alice", "--m", "1"], "--m"), (["gen", "alice", "--m", "-2"], "--m"),
    (["gen", "random", "--n", "0", "--density", "0.5"], "--n"),
    (["gen", "random", "--n", "1", "--density", "0.5"], "--n"),
])
def test_generator_count_below_two_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--max-numerator", "-1"), ("--max-denominator", "0"), ("--max-denominator", "-4"),
    ("--density", "0"), ("--density", "1.5"), ("--density", "-0.1"),
    ("--density", "nan"), ("--density", "dense"),
])
def test_random_cost_bounds_and_density_are_usage_errors(capsys, flag, value):
    with pytest.raises(SystemExit) as err:  # a repeated --density: the last one counts
        main(["gen", "random", "--n", "5", "--density", "0.5", flag, value])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


def test_random_cost_bounds_at_their_minimum_are_accepted(capsys):
    code, out, _ = run(capsys, "gen", "random", "--n", "5", "--density", "1",
                       "--max-numerator", "0", "--max-denominator", "1")
    assert code == 0
    assert {edge["cost"] for edge in json.loads(out)["edges"]} == {"0"}


@pytest.mark.parametrize("argv", [
    ["dot", "{file}", "--highlight", "0,{bad}"],
    ["fence", "{file}", "--path", "0,{bad},t", "--epsilon", "1/10"],
])
@pytest.mark.parametrize("bad", ["99", "-1", "x"])
def test_node_ids_outside_the_graph_are_unknown(tmp_path, capsys, argv, bad):
    path = tmp_path / "alice.json"
    run(capsys, "gen", "alice", "--m", "3", "-o", str(path))
    code, out, err = run(capsys, *(arg.format(file=path, bad=bad) for arg in argv))
    assert (code, out) == (1, "")
    assert err == f"error: unknown node '{bad}'\n"


def test_walks_default_is_the_agent_walk_cap(monkeypatch):
    # the parser reads the library's default when it is built
    from penalty_planner import cli
    monkeypatch.setattr(cli, "DEFAULT_WALK_CAP", 3)
    assert cli.build_parser().parse_args(["simulate", "g.json"]).walks == 3


def test_zero_walks_gives_the_verdict_only(tmp_path, capsys):
    path = tmp_path / "alice.json"
    run(capsys, "gen", "alice", "--m", "10", "-o", str(path))
    code, payload, _ = run_json(capsys, "simulate", str(path), "--walks", "0")
    assert code == 0
    assert payload["payload"]["motivating"] is True
    assert payload["payload"]["walks"] == []


def test_human_output_is_readable(tmp_path, capsys):
    path = tmp_path / "alice.json"
    run(capsys, "gen", "alice", "--m", "10", "-o", str(path))
    code, out, _ = run(capsys, "simulate", str(path), "--reward", "6")
    assert code == 0
    assert "motivating: yes" in out
    assert "v1 -> v2" in out
    assert "walks (1):" in out


def test_json_belongs_after_the_gen_family(capsys):
    # the gen parser itself has no --json, so it cannot be silently dropped
    with pytest.raises(SystemExit) as err:
        main(["gen", "--json", "alice", "--m", "3"])
    assert err.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_dot_written_to_a_file_stays_out_of_the_payload(tmp_path, capsys):
    src, out = tmp_path / "g.json", tmp_path / "g.dot"
    run(capsys, "gen", "noopt", "--beta", "1/2", "-o", str(src))
    code, payload, _ = run_json(capsys, "dot", str(src), "-o", str(out))
    assert code == 0
    assert payload["payload"] == {}
    assert out.read_text().startswith("digraph")


def test_negative_reward_writes_nothing(tmp_path, capsys):
    path = tmp_path / "alice.json"
    code, out, err = run(capsys, "gen", "alice", "--m", "3", "--reward", "-1",
                         "-o", str(path))
    assert code == 1
    assert out == ""
    assert "reward must be nonnegative" in err
    assert not path.exists()
