"""Spans and counters recorded around the benchmark's calls into the library.

Every call from the benchmark into a library module goes through
`Layers.call`, named "<module>.<function>". With tracing on, a span (name,
start, end, parent, job id) is appended to an in-memory list, which the
benchmark writes out once the run ends. Either way, a call cut short by the
job timer is counted as "<name>.timeouts", and a call after which
sys.getrecursionlimit() differs is recorded (and the limit restored). The
library itself is not instrumented.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# The layers are the library's modules; each traced function and exact
# count below is reported for every workload, with zeros where unused.
TRACED = (
    "serialization.parse", "serialization.serialize",
    "graph.validate", "graph.preprocess",
    "agent.build_view", "agent.is_motivating", "agent.min_motivating_reward",
    "devices.minmax_path_approx", "devices.fence_required_reward",
    "devices.path_and_fence", "devices.exact_infimum",
    "reductions.sat_to_mcc", "reductions.assignment_to_config",
    "reductions.config_to_assignment",
    "cli.main",
    "instances.gen_alice", "instances.gen_ratio", "instances.gen_noopt",
    "instances.gen_random",
)
MODULES = ("serialization", "graph", "agent", "devices", "reductions",
           "instances", "cli")
COUNTS = (
    "devices.exact_infimum.paths_evaluated", "devices.exact_infimum.exhausted",
    "devices.exact_infimum.timeouts",
    "devices.path_and_fence.extras", "devices.minmax_path_approx.extras",
    "agent.reachable_nodes", "agent.abandon_nodes",
    "graph.nodes", "graph.edges",
    "serialization.bytes_in", "serialization.bytes_out", "cli.bytes_out",
)


class JobTimeout(BaseException):
    """Raised by the interval-timer handler when a job exceeds its limit.

    A BaseException, so that no `except Exception` inside a job can
    swallow it.
    """


class Layers:
    """Calls into the library, with optional spans and exact counters."""

    def __init__(self, trace: bool):
        self.trace = trace
        # span: [name, start, end, parent index or -1, job id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        # names of calls after which the recursion limit had changed
        self.recursion_changed: list[str] = []
        self._recursion_limit = sys.getrecursionlimit()
        self._open: list[int] = []
        self.job_id = -1

    def call(self, name: str, fn, *args, **kwargs):
        span = None
        if self.trace:
            span = [name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else -1, self.job_id]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        except JobTimeout:
            self.counts[name + ".timeouts"] += 1
            raise
        finally:
            if span is not None:
                span[2] = time.perf_counter()
                self._open.pop()
            if sys.getrecursionlimit() != self._recursion_limit:
                self.recursion_changed.append(name)
                sys.setrecursionlimit(self._recursion_limit)

    def job(self, job_id: int, fn, *args):
        """Run one job under a root span "job" (benchmark code, not a layer)."""
        self.job_id = job_id
        return self.call("job", fn, *args)

    def count(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time children cover.

        Calls run one at a time, so children of a span never overlap and
        their durations can simply be subtracted.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out
