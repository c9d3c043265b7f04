"""Collect repeated runs, summarize them, and compare a change with its parent.

    # ten alternating pairs of the parent and the change, every workload
    python3 perfbench/compare.py runs --parent ../parent --change . \\
        --out perfbench/out/pairs.jsonl
    # one row per workload; --claim names the metric the change claims to improve
    python3 perfbench/compare.py report perfbench/out/pairs.jsonl --claim scan:wall_s

Both trees are measured by this benchmark's own code (``run.py`` next
to this file), run from each tree's root, for ``run_seconds`` of
BENCHMARK.json.  Pair i uses seed i (1 to 10) on both sides, and which
side runs first alternates from pair to pair.

With a single tree (``runs --change .`` alone), ``report`` prints each metric's median, quartiles
and spread (IQR over median) against a third of its bound, and
``--json`` writes that summary, with the per-layer figures of any
``--trace-records``, as a baseline file.

The rules for a comparison:

- a claimed metric improves when the change wins at least 9 of every 10
  pairs (ties count for neither side) and the medians differ by more
  than the parent's interquartile range;
- every other metric regresses when the change's median is worse than
  the parent's by more than the metric's bound in BENCHMARK.json;
- a metric whose spread on either side exceeds its bound is unresolved,
  unless every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, load_spec, record_stem
from workloads import WORKLOADS

PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def collect(args: argparse.Namespace) -> int:
    seconds = load_spec()["run_seconds"]
    trees = [(label, path) for label, path in (("parent", args.parent), ("change", args.change))
             if path is not None]
    status = 0
    with open(args.out, "a") as out:
        for i in range(PAIRS):
            seed = i + 1
            order = trees if i % 2 == 0 else trees[::-1]
            for workload in WORKLOADS:
                for label, path in order:
                    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                    done = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
                    if done.returncode != 0:
                        print(f"{label} {workload} pair {i}: {done.stderr.strip()}",
                              file=sys.stderr)
                        status = 1
                        continue
                    line = json.loads(done.stdout.strip().splitlines()[-1])
                    with open(record_stem(workload, seed, 0) + ".json") as fh:
                        meta = json.load(fh)["meta"]
                    out.write(json.dumps({"label": label, "pair": i, "workload": workload,
                                          "seed": seed, "meta": meta,
                                          "result": line}) + "\n")
                    out.flush()
                    print(f"{label:<8} {workload:<10} pair {i}: "
                          + "  ".join(f"{k} {m['value']:.4g}"
                                      for k, m in line["metrics"].items()))
    return status


def load_runs(path: str) -> dict:
    """label -> workload -> pair -> result line, with the run's metadata under "meta"."""
    runs: dict = {}
    with open(path) as fh:
        for text in fh:
            r = json.loads(text)
            runs.setdefault(r["label"], {}).setdefault(r["workload"], {})[r["pair"]] = dict(
                r["result"], meta=r["meta"])
    return runs


def summarize(results: list[dict], spec: dict) -> dict:
    summary = {"runs": len(results),
               "failed": sum(r["failed"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "meta": [r["meta"] for r in results],
               "metrics": {}}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        summary["metrics"][m["name"]] = {
            "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": m["bound"],
        }
    return summary


def compare_metric(m: dict, parent: list[float], change: list[float], claimed: bool) -> str:
    sign = 1 if m["better"] == "lower" else -1  # sign * (a - b) > 0: b is better than a
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if claimed:
        wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
        met = wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1
        return f"claim {'met' if met else 'NOT met'} ({wins}/{len(parent)} pairs won)"
    if max((p3 - p1) / pm, (c3 - c1) / cm) > m["bound"]:
        if all(sign * (p - c) > 0 for p in parent for c in change):
            return "better"
        return "unresolved"
    worse = sign * (cm - pm) / pm
    return "REGRESSION" if worse > m["bound"] else "ok"


def report(args: argparse.Namespace) -> int:
    spec = load_spec()
    runs = load_runs(args.file)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    status = 0
    if len(runs) == 1:
        (by_workload,) = runs.values()
        baseline = {}
        for workload, pairs in by_workload.items():
            s = summarize(list(pairs.values()), spec)
            baseline[workload] = s
            cells = []
            for name, v in s["metrics"].items():
                steady = "steady" if v["spread"] < v["bound"] / 3 else (
                    "ok" if v["spread"] <= v["bound"] else "UNSTEADY")
                cells.append(f"{name} {v['median']:.4g} [{v['q1']:.4g}, {v['q3']:.4g}] "
                             f"{v['unit']} spread {100 * v['spread']:.1f}% {steady}")
            print(f"{workload:<10} runs {s['runs']}  fail_ratio {s['failed'] / s['attempted']:.3g}"
                  "  |  " + "  |  ".join(cells))
        if args.json:
            traces = {}
            for path in args.trace_records:
                with open(path) as fh:
                    record = json.load(fh)
                traces[record["workload"]] = {"seed": record["seed"], "meta": record["meta"],
                                              "per_layer": record["measured"]}
            with open(args.json, "w") as fh:
                json.dump({"workloads": baseline, "traced": traces}, fh, indent=1)
        return 0
    parent, change = runs["parent"], runs["change"]
    for workload in WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        pairs = sorted(set(parent[workload]) & set(change[workload]))
        p_runs = [parent[workload][i] for i in pairs]
        c_runs = [change[workload][i] for i in pairs]
        cells = []
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in p_runs]
            c = [r["metrics"][m["name"]]["value"] for r in c_runs]
            verdict = compare_metric(m, p, c, (workload, m["name"]) in claims)
            if verdict.startswith(("REGRESSION", "claim NOT")):
                status = 1
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            cells.append(f"{m['name']} {pm:.4g} [{p1:.4g}, {p3:.4g}] -> "
                         f"{cm:.4g} [{c1:.4g}, {c3:.4g}] {m['unit']} {verdict}")
        p_fail = sum(r["failed"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs)
        if c_fail > p_fail:
            cells.append(f"MORE FAILURES {p_fail} -> {c_fail}")
            status = 1
        print(f"{workload:<10} {len(pairs)} pairs  |  " + "  |  ".join(cells))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_runs = sub.add_parser("runs", help="run the benchmark ten times, alternating trees")
    p_runs.add_argument("--parent", metavar="DIR", help="root of the parent's checkout")
    p_runs.add_argument("--change", metavar="DIR", help="root of the change's checkout")
    p_runs.add_argument("--out", required=True, help="JSON lines, appended to")
    p_rep = sub.add_parser("report", help="summarize one tree or compare two")
    p_rep.add_argument("file")
    p_rep.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    p_rep.add_argument("--json", help="with one tree: write the summary here")
    p_rep.add_argument("--trace-records", nargs="*", default=[], metavar="RECORD",
                       help="with --json: traced run records (perfbench/out/*-trace1.json)")
    args = parser.parse_args()
    if args.command == "runs" and args.parent is None and args.change is None:
        parser.error("runs needs --parent, --change or both")
    return collect(args) if args.command == "runs" else report(args)


if __name__ == "__main__":
    sys.exit(main())
