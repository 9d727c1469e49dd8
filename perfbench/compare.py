"""Compare two traced result files of the same workload and seed.

    python3 perfbench/compare.py A.json B.json

Every exact count (each per-layer metric with unit "count") must be
identical between the two runs; the exit code is 1 if any differs. The
times of both runs are printed side by side, as measured: a count is
reported as a count, and no ratio of two times is claimed here.
"""

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.load(open(path, encoding="utf-8")) for path in argv)
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print("the two files are runs of different workloads or seeds", file=sys.stderr)
        return 2
    differ = 0
    print(f"{a['workload']} seed {a['seed']}: {a['machine']['commit'][:12]} "
          f"vs {b['machine']['commit'][:12]}")
    for name, m in a["metrics"].items():
        other = b["metrics"].get(name)
        if m["unit"] != "count":
            continue
        same = other is not None and other["value"] == m["value"]
        differ += not same
        theirs = "-" if other is None else f"{other['value']:g}"
        print(f"  {'same' if same else 'DIFFERS':8} {name:<46} {m['value']:>14g} {theirs:>14}")
    for name, m in {**a["end_to_end"], **{k: v for k, v in a["metrics"].items()
                                          if v["unit"] != "count"}}.items():
        other = b["end_to_end"].get(name) or b["metrics"].get(name)
        if other is not None:
            print(f"  {'':8} {name:<46} {m['value']:>14.6g} {other['value']:>14.6g} {m['unit']}")
    print(f"{differ} exact counts differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
