"""One workload in one fresh interpreter; prints its measurements as JSON.

Started by ``run.py`` from the root of a checkout.  It imports
parkhanoi from ``./src``, repeats the workload's round until
``--seconds`` have passed (at least once), and checks every output
after the round that produced it, outside the timed region.

With ``--trace 1`` the first third of the time runs untraced and the
rest under ``tracer.Tracer``; the ratio of the two round times is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import resource
import statistics
import sys
import time

import oracles as o
from tracer import Tracer
from workloads import WORKLOADS, Output

ENUMERATORS = ("enumeration.enumerate_pf", "enumeration.enumerate_pf_displacement")

# The shared host's speed drifts by up to 30% over seconds to minutes,
# for the program and for any other pure-Python code running then, so a
# run's median alone moves with the host.  A fixed kernel of the
# benchmark's own, timed right before and after a step, follows that
# drift.  Over about 20 alternations with each step on a shared 2-vCPU
# host, the raw step times spread by 26-43% (IQR over median) and their
# ratios to the kernel by 8-18%.  The kernel does the program's two kinds
# of work, parking simulation and a breadth-first search over tower
# states.  Untraced step times are scaled to a host on which the kernel
# takes REFERENCE_S.
REFERENCE_S = 0.025
REFERENCE_EVERY_S = 2.0  # between steps, at most this long without a sample
REFERENCE_VECTORS = list(itertools.product(range(1, 6), repeat=5))


def reference_kernel() -> float:
    """Seconds to park every vector of [5]^5 twice and count the n=5 shortest paths.

    The collector is off meanwhile.  A collection started inside the
    kernel would walk the program's live objects too, and the kernel's
    time would then depend on the program it is meant to scale.
    """
    gc.disable()
    start = time.perf_counter()
    for _ in range(2):
        for prefs in REFERENCE_VECTORS:
            o.park(prefs)
    o.paths_to_ideal_layer.__wrapped__(5)  # past its cache, so the search runs each time
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds


class Sink:
    """Stands in for sys.stdout or sys.stderr during one step.

    Notes the time of the first write.  A kept stream is joined after
    the step; otherwise parts are hashed in batches and dropped, so a
    long listing costs the process no memory.
    """

    BATCH = 4096

    def __init__(self) -> None:
        self.start(True)

    def start(self, keep: bool) -> None:
        self.keep = keep
        self.parts: list[str] = []
        self.first: float | None = None
        self.digest = hashlib.sha256()
        self.size = 0
        self.lines = 0

    def write(self, s: str) -> int:
        if self.first is None:
            self.first = time.perf_counter()
        self.parts.append(s)
        if not self.keep and len(self.parts) >= self.BATCH:
            self._fold()
        return len(s)

    def flush(self) -> None:
        pass

    def _fold(self) -> None:
        chunk = "".join(self.parts)
        self.parts.clear()
        data = chunk.encode()
        self.digest.update(data)
        self.size += len(data)
        self.lines += chunk.count("\n")

    def finish(self) -> tuple[str | None, str, int, int]:
        text = "".join(self.parts) if self.keep else None
        self._fold()
        return text, self.digest.hexdigest(), self.size, self.lines


class Runner:
    def __init__(self, steps, package) -> None:
        self.steps = steps
        self.package = package
        self.out = Sink()
        self.err = Sink()
        self.samples: list[float] = []  # reference kernel times, in order
        self.sampled_at = float("-inf")

    def _sample(self) -> float:
        seconds = reference_kernel()
        self.samples.append(seconds)
        self.sampled_at = time.perf_counter()
        return seconds

    def _call_cli(self, argv):
        main = self.package.cli.main
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            return exc.code if isinstance(exc.code, int) else 2

    def round(self, scale: bool):
        """Run every step once; returns (wall, raw results, latencies, first-byte times).

        A step that printed nothing has first-byte time None.  With
        ``scale``, the reference kernel runs between steps and the
        latencies and first-byte times are scaled by the mean of the two
        samples around each step; ``wall`` never counts the kernel.
        """
        clock = time.perf_counter
        results, latencies, firsts, before = [], [], [], []
        real = sys.stdout, sys.stderr
        sampling = 0.0
        begin = clock()
        for step in self.steps:
            if scale and clock() - self.sampled_at >= REFERENCE_EVERY_S:
                sampling += self._sample()
            before.append(len(self.samples) - 1)
            error = first = None
            if step.argv is not None:
                self.out.start(step.keep_text)
                self.err.start(True)
                sys.stdout, sys.stderr = self.out, self.err
                t0 = clock()
                try:
                    value = self._call_cli(step.argv)
                except Exception as exc:  # a crash is a failed operation, not a crashed run
                    value, error = None, exc
                t1 = clock()
                sys.stdout, sys.stderr = real
                if self.out.first is not None:
                    first = self.out.first - t0
                value = (value, self.out.finish(), self.err.finish()[0])
            else:
                t0 = clock()
                try:
                    value = step.call(self.package)
                except Exception as exc:
                    value, error = None, exc
                t1 = clock()
            latencies.append(t1 - t0)
            firsts.append(first)
            results.append((value, error))
        if scale:
            sampling += self._sample()
            factors = [2 * REFERENCE_S / (self.samples[k] + self.samples[k + 1]) for k in before]
            latencies = [t * f for t, f in zip(latencies, factors)]
            firsts = [None if t is None else t * f for t, f in zip(firsts, factors)]
        return clock() - begin - sampling, results, latencies, firsts


def check_round(steps, results) -> tuple[int, list[str], int]:
    """(failed, first messages, stdout bytes) for one round's results."""
    failed, messages, stdout_bytes = 0, [], 0
    for step, (value, error) in zip(steps, results):
        if error is None:
            if step.argv is not None:
                rc, (text, digest, size, lines), err = value
                stdout_bytes += size
                value = Output(rc, text, digest, size, lines, err)
            try:
                error = step.check(value)
            except Exception as exc:  # malformed output fails its check
                error = f"check raised {exc!r}"
        if error is not None:
            failed += 1
            if len(messages) < 5:
                messages.append(f"{step.argv or 'library call'}: {error}")
    return failed, messages, stdout_bytes


def trace_metrics(tracer: Tracer, rounds: int, walls: list[float], base_wall: float,
                  stdout_bytes: float) -> dict[str, float]:
    """Per-round averages of everything the tracer saw, plus derived ratios."""
    metrics: dict[str, float] = {}
    for name, stat in sorted(tracer.stats.items()):
        metrics[f"{name}.calls"] = stat.calls / rounds
        metrics[f"{name}.s"] = stat.incl / rounds
        metrics[f"{name}.self_s"] = stat.self / rounds
        if stat.items:
            metrics[f"{name}.items"] = stat.items / rounds
            metrics[f"{name}.first_item_s"] = stat.first_item / rounds
    for layer, seconds in tracer.layer_self_times().items():
        metrics[f"{layer}.self_s"] = seconds / rounds
    scanned = sum(tracer.edges[(e, "parking.PreferenceVector")] for e in ENUMERATORS)
    yielded = sum(tracer.stats[e].items for e in ENUMERATORS if e in tracer.stats)
    parks = tracer.stats["parking.park"].calls if "parking.park" in tracer.stats else 0
    metrics["enumeration.vectors_scanned"] = scanned / rounds
    metrics["enumeration.scan_yield_ratio"] = yielded / scanned if scanned else 0.0
    metrics["parking.park_per_vector"] = parks / scanned if scanned else 0.0
    metrics["cli.stdout_bytes"] = stdout_bytes
    mean_wall = sum(walls) / rounds
    metrics["trace.wall_s"] = mean_wall
    metrics["trace.unattributed_s"] = (sum(walls) - tracer.top_level) / rounds
    metrics["trace.overhead_ratio"] = mean_wall / base_wall
    metrics["trace.spans"] = len(tracer.spans) + tracer.spans_dropped
    return metrics


# Every round runs the same inputs, so a step's repeats within one run
# differ only by the host's interference.  Over ten runs per workload on
# a shared 2-vCPU host, the median of the repeats varied least between
# runs (IQR 4.8-8.1% of wall_s), ahead of the mean of the fastest half
# (6.5-10.3%) and the minimum (7.1-18.7%).
def timings(times: list[list[float]], first_bytes: list[list[float]]) -> dict:
    """End-to-end timings from every untraced repeat of each step.

    ``wall_s`` and ``first_output_s`` take each step at the median of its
    repeats.  The latency percentiles are taken over every call of one
    round, so a pause that hits 1% of calls is in each round's p99; the
    median over rounds then drops a round that a burst on the host slowed.
    """
    per_step = [statistics.median(t) for t in times]
    printed = [statistics.median(f) for f in first_bytes if f]
    rounds = list(zip(*times))
    return {
        "wall_s": sum(per_step),
        "first_output_s": statistics.median(printed) if printed else None,
        "latency_p50_ms": 1e3 * statistics.median(quantile(r, 50) for r in rounds),
        "latency_p99_ms": 1e3 * statistics.median(quantile(r, 99) for r in rounds),
    }


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes (self-test)")
    parser.add_argument("--skew", type=int, default=0, help="shift one expected value")
    parser.add_argument("--spans", help="write the traced spans to this file")
    args = parser.parse_args()

    src = os.path.realpath("src")
    sys.path.insert(0, src)
    import parkhanoi.cli

    if not os.path.realpath(parkhanoi.__file__).startswith(src + os.sep):
        print(f"error: parkhanoi was imported from {parkhanoi.__file__}, not {src}",
              file=sys.stderr)
        return 2

    steps = WORKLOADS[args.workload](args.seed, args.small, args.skew)
    runner = Runner(steps, parkhanoi)
    attempted = failed = 0
    messages: list[str] = []
    stdout_bytes: list[int] = []
    times: list[list[float]] = [[] for _ in steps]  # every untraced repeat of each step
    first_bytes: list[list[float]] = [[] for _ in steps]

    peak_rss_mb = None

    def run_until(limit: float, start: float, keep_times: bool) -> list[float]:
        nonlocal attempted, failed, peak_rss_mb
        walls = []
        while True:
            wall, results, lat, first = runner.round(scale=keep_times)
            if peak_rss_mb is None:  # after one round, so it does not depend on --seconds
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            bad, why, size = check_round(steps, results)
            attempted += len(steps)
            failed += bad
            messages.extend(why[: 5 - len(messages)])
            walls.append(wall)
            stdout_bytes.append(size)
            if keep_times:
                for i, (t, f) in enumerate(zip(lat, first)):
                    times[i].append(t)
                    if f is not None:
                        first_bytes[i].append(f)
            if time.perf_counter() - start >= limit:
                return walls

    start = time.perf_counter()
    walls = run_until(args.seconds / 3 if args.trace else args.seconds, start, True)
    result = {
        **timings(times, first_bytes),
        "rounds": len(walls),
        "steps": len(steps),
        "peak_rss_mb": peak_rss_mb,
        "reference_ms": 1e3 * statistics.median(runner.samples),
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced_walls = run_until(args.seconds, start, False)
        result["trace"] = trace_metrics(
            tracer, len(traced_walls), traced_walls, sum(walls) / len(walls),
            sum(stdout_bytes[len(walls):]) / len(traced_walls),
        )
        if args.spans:
            tracer.dump_spans(args.spans)
    result.update(attempted=attempted, failed=failed, failures=messages,
                  stdout_bytes_repeat=len(set(stdout_bytes)) == 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
