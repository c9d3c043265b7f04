"""Benchmark parkhanoi end to end, or per layer with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25   # one row per workload
    python3 perfbench/run.py --self-test                            # reduced sizes, ~15 s

One run times the import of ``parkhanoi.cli`` in several fresh
interpreters (``setup_s``), then starts ``worker.py`` in another fresh
interpreter for the workload itself.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the ``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).  The full record, with every
traced name, the failure messages and the run's metadata, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_LAUNCHES = 6  # before the workload, and as many again after it
RUN_LIMIT_S = 170
PROBE = "import sys; sys.path.insert(0, 'src'); import parkhanoi.cli; print(parkhanoi.cli.__file__)"


class BenchError(Exception):
    """The checkout cannot be benchmarked, or a process misbehaved."""


def load_spec() -> dict:
    try:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def record_stem(workload: str, seed: int, trace: int) -> str:
    """Path, without ``.json``, of a run's full record under ``perfbench/out``."""
    return os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")


def metadata(root: str) -> dict:
    """Where and on what a run was made; recorded, never gated on."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    src_lines = 0
    for folder, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "src_lines": src_lines,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def time_setup(root: str) -> list[float]:
    """Times from process start to ``parkhanoi.cli`` imported, in seconds."""
    src = os.path.realpath(os.path.join(root, "src"))
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE], cwd=root, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or not os.path.realpath(line.strip()).startswith(src + os.sep):
            raise BenchError(f"parkhanoi.cli does not import from {src}")
    return samples


def run_worker(root: str, args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"worker ran past {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_one(root: str, spec: dict, workload: str, seed: int, seconds: float, trace: int,
            small: bool = False, skew: int = 0) -> tuple[dict, dict]:
    """One run; returns (the result line, the full record)."""
    started = time.perf_counter()
    meta = metadata(root)
    if not os.path.isfile(os.path.join(root, "src", "parkhanoi", "cli.py")):
        raise BenchError("no src/parkhanoi/cli.py under the current directory")
    setup = [] if trace else time_setup(root)
    os.makedirs(OUT, exist_ok=True)
    stem = record_stem(workload, seed, trace)
    if small:
        stem += f"-small-skew{skew}"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--skew", str(skew)]
    if small:
        args.append("--small")
    if trace:
        args += ["--spans", stem + "-spans.json"]
    worker = run_worker(root, args, RUN_LIMIT_S - (time.perf_counter() - started))
    if not trace:  # spread the launches over the run, so one slow moment of the host
        setup += time_setup(root)  # does not decide the median

    measured = dict(worker.get("trace", {}))
    measured.update(
        wall_s=worker["wall_s"], setup_s=statistics.median(setup) if setup else None,
        peak_rss_mb=worker["peak_rss_mb"],
        first_output_s=worker["first_output_s"], latency_p50_ms=worker["latency_p50_ms"],
        latency_p99_ms=worker["latency_p99_ms"],
        fail_ratio=worker["failed"] / worker["attempted"],
    )
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"], 0 if m["unit"] in ("count", "B", "ratio") else None)
        if value is None:
            raise BenchError(f"{workload} did not measure {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    line = {
        "correct": worker["failed"] == 0 and worker["stdout_bytes_repeat"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "small": small, "meta": meta, "result": line, "measured": measured,
              "rounds": worker["rounds"], "steps": worker["steps"],
              "setup_samples_s": setup, "reference_ms": worker["reference_ms"],
              "failures": worker["failures"]}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    return line, record


def row(workload: str, record: dict) -> str:
    cells = [f"{workload:<10}"]
    for name, m in record["result"]["metrics"].items():
        cells.append(f"{name} {m['value']:.4g} {m['unit']}")
    cells.append(f"fail_ratio {record['measured']['fail_ratio']:.3g}")
    cells.append(f"({record['steps']} steps x {record['rounds']} rounds)")
    return "  ".join(cells)


def run_all(root: str, seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh ``run.py`` process; one row per workload."""
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{workload:<10}  error: {done.stderr.strip()}")
            ok = False
            continue
        with open(record_stem(workload, seed, trace) + ".json") as fh:
            record = json.load(fh)
        print(row(workload, record))
        ok = ok and record["result"]["correct"]
    return 0 if ok else 1


def self_test(root: str, spec: dict) -> int:
    """Every workload at reduced size, through the same worker, checks and tracer.

    Each must pass clean, must add up under tracing, and must fail once
    an expected value is shifted by one.
    """
    problems = []
    for workload in WORKLOADS:
        clean, _ = run_one(root, spec, workload, 1, 0.5, 0, small=True)
        traced, record = run_one(root, spec, workload, 1, 1.0, 1, small=True)
        skewed, _ = run_one(root, spec, workload, 1, 0.5, 0, small=True, skew=1)
        m = record["measured"]
        layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        gap = abs(layers + m["trace.unattributed_s"] - m["trace.wall_s"])
        checks = {
            "clean run has no failures": clean["failed"] == 0 and clean["correct"],
            "traced run has no failures": traced["failed"] == 0 and traced["correct"],
            "layer self times + unattributed = traced wall": gap <= 1e-6 * m["trace.wall_s"],
            "a skewed expectation raises fail_ratio above 0": skewed["failed"] > 0,
        }
        for what, passed in checks.items():
            print(f"{'PASS' if passed else 'FAIL'}  {workload:<10} {what}")
            if not passed:
                problems.append((workload, what))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    root = os.getcwd()
    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        if args.self_test:
            return self_test(root, spec)
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(root, args.seed, seconds, args.trace)
        line, record = run_one(root, spec, args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(row(args.workload, record))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
