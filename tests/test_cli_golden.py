"""Golden records of the command line: every subcommand's exact bytes.

Each record holds one invocation's stdout, stderr, exit code and the bytes
of every file it wrote, with `elapsed_seconds` masked. The test replays the
invocations and compares. After an intended change of output, rewrite the
records with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of tests/data/cli_golden.json.
"""

import contextlib
import io
import json
import os
import re
import shutil
import sys
from pathlib import Path

import pytest

from penalty_planner import (
    Instance,
    assignment_to_config,
    meta_to_annotations,
    parse_dimacs,
    sat_to_mcc,
    serialize,
)
from penalty_planner.cli import main

DATA = Path(__file__).parent / "data"
RECORDS = DATA / "cli_golden.json"
INPUTS = ("alice_m3.json", "noopt_beta_1_2.json", "three_vars.cnf")

ELAPSED = re.compile(r'"elapsed_seconds": [-+.0-9e]+')

# document commands: human and --json, without and with -o
DOCUMENTS = [
    ["gen", "alice", "--m", "3"],
    ["gen", "ratio", "--beta", "1/2", "--epsilon", "9/10"],
    ["gen", "noopt", "--beta", "1/2"],
    ["gen", "random", "--n", "5", "--density", "0.5", "--seed", "3"],
    ["fence", "noopt_beta_1_2.json", "--path", "s,v1,w,t", "--epsilon", "1/10"],
    ["fence", "alice_m3.json", "--path", "v1,v2,v3,t", "--epsilon", "1/100"],
    ["approx", "alice_m3.json"],
    ["approx", "noopt_beta_1_2.json"],
    ["reduce3sat", "three_vars.cnf", "--beta", "1/5"],
    ["reduce3sat", "three_vars.cnf", "--beta", "1/5", "--gap"],
    ["assign2config", "sat.json", "--tau", "TFT"],
    ["dot", "noopt_beta_1_2.json", "--highlight", "s,v1,w,t"],
    ["dot", "sat_ttt.json"],
]

# report-only commands: human and --json
REPORTS = [
    ["validate", "alice_m3.json"],
    ["validate", "noopt_beta_1_2.json"],
    ["simulate", "alice_m3.json"],
    ["simulate", "alice_m3.json", "--reward", "5999/1000"],
    ["simulate", "alice_m3.json", "--walks", "0"],
    ["simulate", "noopt_beta_1_2.json", "--reward", "2"],
    ["min-reward", "alice_m3.json"],
    ["min-reward", "noopt_beta_1_2.json"],
    ["exact", "alice_m3.json"],
    ["exact", "noopt_beta_1_2.json"],
    ["exact", "noopt_beta_1_2.json", "--budget", "1"],
    ["exact", "sat.json"],
    ["config2assign", "sat_ttt.json"],
    ["compare", "alice_m3.json"],
    ["compare", "noopt_beta_1_2.json"],
    # domain errors, exit 1
    ["simulate", "noopt_beta_1_2.json"],
    ["simulate", "missing.json"],
    ["fence", "noopt_beta_1_2.json", "--path", "s,v1,w,t", "--epsilon", "0"],
    ["fence", "noopt_beta_1_2.json", "--path", "s,t", "--epsilon", "1"],
    ["fence", "noopt_beta_1_2.json", "--path", "s,v1,w,t", "--epsilon", "1/10",
     "-o", "missing/out.json"],
    ["config2assign", "alice_m3.json"],
]

OTHERS = [
    (["validate", "-"], "alice_m3.json"),
    (["gen", "alice", "--m", "3", "-o", "-"], None),
    (["gen", "alice", "--m", "3", "-o", "-", "--json"], None),
    # --json belongs after the family
    (["gen", "--json", "alice", "--m", "3"], None),
    # usage errors, exit 2
    (["gen", "alice"], None),
    (["fence", "noopt_beta_1_2.json"], None),
    (["exact", "noopt_beta_1_2.json", "--budget", "0"], None),
]


def invocations() -> list[tuple[list[str], str | None]]:
    cases = []
    for argv in DOCUMENTS:
        out = "out.dot" if argv[0] == "dot" else "out.json"
        for extra in ([], ["--json"], ["-o", out], ["-o", out, "--json"]):
            cases.append((argv + extra, None))
    for argv in REPORTS:
        cases.extend([(argv, None), (argv + ["--json"], None)])
    return cases + OTHERS


def prepare(workdir: Path) -> None:
    """Copy the inputs and build a 3-SAT instance and its scheme for tau=TTT."""
    for name in INPUTS:
        shutil.copy(DATA / name, workdir / name)
    meta = sat_to_mcc(parse_dimacs((DATA / "three_vars.cnf").read_text()), "1/5")
    instance = Instance(graph=meta.graph, beta=meta.beta, reward=meta.reward,
                        annotations=meta_to_annotations(meta))
    (workdir / "sat.json").write_text(serialize(instance))
    config = assignment_to_config(meta, "TTT")
    (workdir / "sat_ttt.json").write_text(serialize(instance, config))


def invoke(argv: list[str], stdin_file: str | None, workdir: Path) -> dict:
    """Run the command line in `workdir`; return what it printed and wrote."""
    before = set(os.listdir(workdir))
    stdin = (workdir / stdin_file).read_text() if stdin_file else ""
    out, err = io.StringIO(), io.StringIO()
    saved = os.getcwd(), sys.stdin
    os.chdir(workdir)
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(saved[0])
        sys.stdin = saved[1]
    written = sorted(set(os.listdir(workdir)) - before)
    return {
        "argv": argv,
        "stdin": stdin_file,
        "exit": code,
        "stdout": ELAPSED.sub('"elapsed_seconds": "<masked>"', out.getvalue()),
        "stderr": err.getvalue(),
        "files": {name: (workdir / name).read_text() for name in written},
    }


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


RECORDED = json.loads(RECORDS.read_text()) if RECORDS.exists() else []


def test_records_cover_every_invocation():
    assert [(r["argv"], r["stdin"]) for r in RECORDED] == invocations()


@pytest.mark.parametrize("record", RECORDED, ids=[" ".join(r["argv"]) for r in RECORDED])
def test_cli_bytes_match_record(record, tmp_path):
    prepare(tmp_path)
    got = invoke(record["argv"], record["stdin"], tmp_path)
    if record["exit"] == 2:
        # argparse's usage text varies across Python versions; its error line does not
        got["stderr"] = last_line(got["stderr"])
        record = {**record, "stderr": last_line(record["stderr"])}
    assert got == record


if __name__ == "__main__":
    import tempfile

    records = []
    for argv, stdin_file in invocations():
        with tempfile.TemporaryDirectory() as tmp:
            prepare(Path(tmp))
            records.append(invoke(argv, stdin_file, Path(tmp)))
    RECORDS.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(records)} records to {RECORDS}")
