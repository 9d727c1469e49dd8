"""Benchmark of penalty-planner: seeded workloads, answer-checked jobs, traced layers.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fence-chain --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --seed 1             # every workload, each in its own process
    python3 perfbench/run.py --record             # rewrite perfbench/expected.json
    python3 perfbench/compare.py A.json B.json    # exact counts of two traced runs

A run sets up the seeded inputs, then runs whole passes over the job list
as a closed loop with one client: jobs run back to back in this process,
with no threads and no child processes, until the next pass would end
after --seconds (at least one pass). Every job runs under an interval timer
of the workload's time limit. The set-up is timed SETUP_REPEATS times in
all; setup_s is the import time plus their median. After the timed phase
every distinct answer is checked: its exact values against expected.json,
and its witnesses by their meaning. End-to-end timings take each job's
slowest pass (see timing_metrics).

With --trace 1 untraced and traced passes alternate; the traced ones give
the per-layer metrics, per pass (the instances layer: per set-up).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A full result file, with the
machine it ran on, is written to .perfbench_out/ (and the spans of a
traced run beside it). The exit code is 0 when every answer is correct.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from layers import COUNTS, MODULES, TRACED, JobTimeout, Layers  # noqa: E402

try:
    from workloads import WORKLOADS, digest  # imports the library
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}")

END_TO_END = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
              "fail_frac": "fraction", "setup_s": "s", "peak_rss_mb": "MB"}
# fail_frac is 0 on two workloads, so it is printed but left out of the
# result line, whose `attempted` and `failed` carry the same information
RESULT_LINE = ("jobs_per_s", "job_p50_ms", "job_tail_ms", "setup_s", "peak_rss_mb")
SETUP_REPEATS = 3


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty list."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def machine() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "commit": commit_id()}


def commit_id() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _on_timer(signum, frame):
    raise JobTimeout()


class Checker:
    """Checks each distinct (input, output) pair once, after the timed phase.

    Passes repeat the same inputs, so most outputs repeat too; they are
    told apart by their exact values and their witnesses (paths, schemes,
    reports), and only the first of each kind is kept for checking.
    """

    def __init__(self, workload, expected: dict):
        self.workload = workload
        self.expected = expected
        self.pending: dict[tuple, tuple] = {}
        self.verdicts: dict[tuple, list[str]] = {}

    def note(self, job, out) -> tuple:
        values, witness = self.workload.summary(job, out)
        key = (job.key, digest(values), witness)
        if key not in self.pending and key not in self.verdicts:
            self.pending[key] = (job, out)
        return key

    def check_pending(self) -> None:
        for key, (job, out) in self.pending.items():
            try:
                problems = list(self.workload.check(job, out))
            except Exception as exc:  # a check that raises is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if job.key not in self.expected:
                problems.append("no expected digest recorded for this input")
            elif self.expected[job.key] not in (None, key[1]):
                problems.append("exact values differ from expected.json")
            self.verdicts[key] = problems
        self.pending.clear()


def run_pass(workload, jobs, layers: Layers, checker: Checker) -> dict:
    """One pass over the job list, back to back, each job under the timer."""
    records = []
    for i, job in enumerate(jobs):
        changed = len(layers.recursion_changed)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, workload.time_limit)
        try:
            try:
                out = layers.job(i, workload.run, job, layers)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            status = "done"
        except JobTimeout:
            out, status = None, "timeout"
        except Exception as exc:  # a library error fails the job, not the run
            out, status = f"{type(exc).__name__}: {exc}", "error"
        rec = {"key": job.key, "status": status, "seconds": time.perf_counter() - t0}
        if len(layers.recursion_changed) > changed:
            status = rec["status"] = "error"
            out = "sys.getrecursionlimit() changed by " + \
                ", ".join(layers.recursion_changed[changed:])
        if status == "done":
            rec["check"] = checker.note(job, out)
        elif status == "error":
            rec["problems"] = [out]
        records.append(rec)
    return {"traced": layers.trace, "jobs": records}


def apply_verdicts(passes: list[dict], checker: Checker) -> None:
    checker.check_pending()
    for p in passes:
        for rec in p["jobs"]:
            key = rec.pop("check", None)
            if key is not None:
                rec["digest"] = key[1]
                if checker.verdicts[key]:
                    rec["status"], rec["problems"] = "wrong", checker.verdicts[key]


def timing_metrics(passes: list[dict]) -> dict:
    """End-to-end timing over passes of one job list.

    Each job's latency is its slowest over the passes. A shared host runs
    in a prevailing slow state with spells up to 1.7 times faster; the
    slowest of a job's runs measures the prevailing state, and across runs
    it spreads about half as much as the median does. A pass made of these
    latencies gives the throughput; their median and tail give the job
    latencies.
    """
    n = len(passes[0]["jobs"])
    latency = [max(p["jobs"][j]["seconds"] for p in passes) for j in range(n)]
    attempted = n * len(passes)
    ok = sum(r["status"] == "done" for p in passes for r in p["jobs"])
    return {
        "jobs_per_s": ok / len(passes) / sum(latency),
        "job_p50_ms": statistics.median(latency) * 1000,
        # the highest percentile with ten samples beyond it
        "job_tail_ms": quantile(latency, max(0.0, 1 - 10 / n)) * 1000,
        "fail_frac": (attempted - ok) / attempted,
    }


def layer_metrics(traced: Layers, setup: Layers, passes: int, setups: int,
                  overhead_frac: float) -> dict:
    """Per-layer metrics, per traced pass (the instances layer: per set-up)."""
    self_s = traced.self_times()
    calls = traced.calls()
    setup_self = setup.self_times()
    setup_calls = setup.calls()
    out = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for name in TRACED:
        module = name.split(".")[0]
        if module == "instances":
            c, s = setup_calls.get(name, 0) / setups, setup_self.get(name, 0.0) / setups
        else:
            c, s = calls.get(name, 0) / passes, self_s.get(name, 0.0) / passes
        out[f"{name}.calls"] = (c, "count")
        out[f"{name}.self_s"] = (s, "s")
        module_self[module] += s
    for module, s in module_self.items():
        out[f"{module}.self_s"] = (s, "s")
    for name in COUNTS:
        out[name] = (traced.counts.get(name, 0) / passes, "count")
    # time inside jobs that no layer span covers: the benchmark's own code
    out["bench.uncovered_s"] = (self_s.get("job", 0.0) / passes, "s")
    out["trace.overhead_frac"] = (overhead_frac, "fraction")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_s = time.perf_counter() - STARTED
    workload = WORKLOADS[name]
    expected = json.loads(EXPECTED.read_text()).get(name, {})
    workdir = OUT_DIR / "inputs" / name
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_timer)

    # set-up: generate and serialize the seeded inputs. It is repeated,
    # for its time only, after the first rounds of passes: repetitions
    # spread over the run are less at the mercy of the host's speed at one
    # moment than back-to-back ones.
    setup_layers = Layers(trace)
    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        inputs = workload.setup(workload.draw(seed), setup_layers, workdir)
        setup_times.append(time.perf_counter() - t0)
        return inputs

    jobs = set_up()

    # timed phase: whole passes (untraced and traced alternating with
    # --trace 1) until the next round would end after `seconds`
    checker = Checker(workload, expected)
    plain, traced = Layers(False), Layers(True)
    passes = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        passes.append(run_pass(workload, jobs, plain, checker))
        if trace:
            passes.append(run_pass(workload, jobs, traced, checker))
        if len(setup_times) < SETUP_REPEATS:
            set_up()
        now = time.perf_counter()
        if now - started + (now - round_start) > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        set_up()
    setup_s = import_s + statistics.median(setup_times)
    apply_verdicts(passes, checker)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    e2e = timing_metrics(untraced)
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = peak_rss_mb
    metrics = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
    if trace:
        traced_jps = timing_metrics(traced_passes)["jobs_per_s"]
        overhead = e2e["jobs_per_s"] / traced_jps - 1 if traced_jps else 0.0
        metrics = layer_metrics(traced, setup_layers, len(traced_passes), SETUP_REPEATS,
                                overhead)

    jobs_all = [r for p in passes for r in p["jobs"]]
    status = {s: sum(r["status"] == s for r in jobs_all)
              for s in ("done", "timeout", "wrong", "error")}
    correct = status["wrong"] == 0 and status["error"] == 0

    print(f"workload {name}  seed {seed}  trace {int(trace)}  passes {len(passes)}  "
          f"jobs per pass {len(jobs)}  time limit {workload.time_limit:g} s")
    print("  closed loop, one client; " + "  ".join(f"{k} {v}" for k, v in status.items()))
    for k, v in e2e.items():
        print(f"  {k:<14} {v:12.4f} {END_TO_END[k]}")
    if trace:
        print(f"  per layer, per pass (instances: per set-up); "
              f"{len(traced_passes)} traced passes")
        for k, (v, unit) in metrics.items():
            print(f"    {k:<46} {v:14.6f} {unit}")
    seen = set()
    for r in jobs_all:
        if r.get("problems") and r["key"] not in seen:
            seen.add(r["key"])
            print(f"  {r['status'].upper()} {r['key']}: {'; '.join(r['problems'])}")

    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "time_limit_s": workload.time_limit, "machine": machine(),
              "setup_times_s": setup_times, "import_s": import_s,
              "correct": correct, "status": status,
              "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "passes": passes}
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        Path(f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "job"],
             "spans": traced.spans, "setup_spans": setup_layers.spans}) + "\n")

    print(json.dumps({"correct": correct, "attempted": len(jobs_all),
                      "failed": len(jobs_all) - status["done"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()
                                  if trace or k in RESULT_LINE}}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        try:
            rows.append((name, json.loads(lines[-1])))
        except json.JSONDecodeError:
            rows.append((name, None))
            worst = max(worst, 1)
    names = () if trace else RESULT_LINE
    if names:
        print("\n" + " " * 15 + "".join(f"{k:>16}" for k in names))
        print(" " * 15 + "".join(f"{END_TO_END[k]:>16}" for k in names))
        for name, result in rows:
            cells = [result["metrics"][k]["value"] if result else float("nan") for k in names]
            print(f"{name:<15}" + "".join(f"{v:16.4f}" for v in cells))
    return worst


def record(names: list[str]) -> int:
    """Run the whole catalogue of each workload once and store its digests."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    signal.signal(signal.SIGALRM, _on_timer)
    for name in names:
        workload = WORKLOADS[name]
        workdir = OUT_DIR / "inputs" / name
        workdir.mkdir(parents=True, exist_ok=True)
        layers = Layers(False)
        jobs = workload.setup(workload.catalogue(), layers, workdir)
        checker = Checker(workload, {job.key: None for job in jobs})
        passes = [run_pass(workload, jobs, layers, checker)]
        apply_verdicts(passes, checker)
        digests = {}
        for rec in passes[0]["jobs"]:
            print(f"{name} {rec['key']} {rec['status']} {rec['seconds']:.3f}s", flush=True)
            if rec["status"] in ("wrong", "error"):
                print(f"{name} {rec['key']}: {rec['problems']}", file=sys.stderr)
                return 1
            digests[rec["key"]] = rec.get("digest")
        expected[name] = digests
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run every catalogue input once and rewrite expected.json")
    args = parser.parse_args(argv)
    if args.record:
        return record([args.workload] if args.workload else list(WORKLOADS))
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
