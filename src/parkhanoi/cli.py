"""Command-line interface: park, enumerate, map, verify, solve, count.

Exit codes are a stable scripting contract: 0 success, 1 domain or
verification failure, 2 parse/validation error, 3 budget exceeded.  A
reader that closes standard output early, as ``| head`` does, also gets
exit 1, with no traceback.

Defaults can be overridden per invocation with flags, or globally with
environment variables: PARKHANOI_FORMAT, PARKHANOI_BUDGET_STATES and
PARKHANOI_BUDGET_N (flags win over the environment).  Output format is
json unless noted; ``enumerate`` defaults to lines, one comma-separated
vector per line, with the count on standard error.  ``solve --dot``
always prints DOT, streamed line by line once the search has run; when a
format is set, by flag or environment, it notes on standard error that
the format is ignored.  ``count`` over the scan budget names the
statistics it left unchecked in a note there.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from .bijection import make_record, pf_to_th, verify
from .enumeration import (
    DEFAULT_SCAN_MAX_N,
    brute_force_counts,
    enumerate_pf,
    enumerate_pf_displacement,
)
from .errors import BudgetExceededError, DomainError, ValidationError, check_int
from .hanoi import (
    DEFAULT_STATE_BUDGET,
    HanoiState,
    dot_ideal_lines,
    enumerate_ideal_states,
    ideal_state_lines,
    shortest_strategy,
)
from .parking import PreferenceVector, park

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

ENV_PREFIX = "PARKHANOI_"
FORMATS = ("json", "lines", "table")

Renderer = Callable[[], Iterable[str]]  # the lines of one text format


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _budget(flag_value: int | None, flag: str, env_name: str, default: int) -> int:
    """A budget from its flag, else its environment variable, else the default."""
    if flag_value is not None:
        value, source = flag_value, flag
    else:
        raw = _env(env_name)
        if raw is None:
            return default
        source = ENV_PREFIX + env_name
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValidationError(f"{source} must be an integer, got {raw!r}") from exc
    check_int(value, source, 1)
    return value


def _config_from(args: argparse.Namespace) -> None:
    """Resolve format and budgets onto ``args``: flag, else environment, else default."""
    fmt = args.format = args.format or _env("FORMAT")
    if fmt is not None and fmt not in FORMATS:
        raise ValidationError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
    args.budget_states = _budget(
        args.budget_states, "--budget-states", "BUDGET_STATES", DEFAULT_STATE_BUDGET
    )
    args.budget_n = _budget(args.budget_n, "--budget-n", "BUDGET_N", DEFAULT_SCAN_MAX_N)


@functools.cache  # built on first use, then shared by every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkhanoi",
        description=(
            "Parking functions with the displacement statistic, many-peg Tower of "
            "Hanoi ideal states, the explicit bijection between them, and "
            "exhaustive verification of the shared count n!(n-1)/2."
        ),
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default=None,
        help="output format (default: lines for enumerate, json otherwise; "
        f"env {ENV_PREFIX}FORMAT)",
    )
    parser.add_argument(
        "--budget-states",
        type=int,
        default=None,
        metavar="K",
        help="cap on the peg-symmetry orbits one state-graph search may visit and on "
        f"the nodes of the solve --dot tree (default {DEFAULT_STATE_BUDGET}, enough for "
        f"n <= 12, and n <= 7 with --dot; env {ENV_PREFIX}BUDGET_STATES)",
    )
    parser.add_argument(
        "--budget-n",
        type=int,
        default=None,
        metavar="N",
        help=f"cap on brute-force scans of [n]^n (default n <= {DEFAULT_SCAN_MAX_N}; "
        f"env {ENV_PREFIX}BUDGET_N)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_park = sub.add_parser("park", help="park cars with the given preferences")
    p_park.add_argument("prefs", help='comma-separated preferences, e.g. "3,1,1,3,2"')
    p_park.set_defaults(func=cmd_park)

    p_enum = sub.add_parser("enumerate", help="stream a combinatorial family")
    p_enum.add_argument(
        "kind",
        choices=("pf", "pf1", "ideal"),
        help="pf: parking functions; pf1: displacement one; ideal: tower states",
    )
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.set_defaults(func=cmd_enumerate)

    p_map = sub.add_parser("map", help="apply the bijection in either direction")
    p_map.add_argument("direction", choices=("th2pf", "pf2th"))
    p_map.add_argument("vector", help="comma-separated state or preference vector")
    p_map.set_defaults(func=cmd_map)

    p_verify = sub.add_parser("verify", help="run the full verification battery")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_solve = sub.add_parser("solve", help="one minimum-length winning strategy")
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument(
        "--dot",
        action="store_true",
        help="emit instead a DOT graph of every minimal path to the ideal layer",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_count = sub.add_parser("count", help="closed-form vs brute-force counts")
    p_count.add_argument("--n", type=int, required=True)
    p_count.set_defaults(func=cmd_count)

    return parser


# --- rendering ----------------------------------------------------------------


def render_state(state: HanoiState) -> str:
    """Draw pegs 0..n left to right, disks as width-proportional bars."""
    n = state.n
    stacks: dict[int, list[int]] = {p: [] for p in range(n + 1)}
    for disk in range(n, -1, -1):  # bottom first
        stacks[state.pegs[disk]].append(disk)
    height = max(len(s) for s in stacks.values())
    width = 2 * n + 1
    rows = []
    for level in range(height - 1, -1, -1):
        cells = []
        for p in range(n + 1):
            stack = stacks[p]
            token = "=" * (2 * stack[level] + 1) if level < len(stack) else "|"
            cells.append(token.center(width))
        rows.append(" ".join(cells).rstrip())
    base = " ".join("-" * width for _ in range(n + 1))
    labels = " ".join(str(p).center(width) for p in range(n + 1)).rstrip()
    return "\n".join(rows + [base, labels])


def _outcome_table(alpha: PreferenceVector, outcome) -> Iterator[str]:
    if not outcome.succeeded:
        yield f"car {outcome.failed_car} cannot park; not a parking function"
        return
    yield "car  preferred  parked  bumped"
    for i, (a, s, k) in enumerate(
        zip(alpha.prefs, outcome.assignment, outcome.displacements), start=1
    ):
        yield f"{i:>3}  {a:>9}  {s:>6}  {k:>6}"
    yield (
        f"total displacement {outcome.total_displacement}, "
        f"{outcome.lucky_count} lucky car(s)"
    )


def _emit(fmt: str, obj: Callable[[], Any], lines: Renderer, table: Renderer) -> None:
    """The one output path: ``obj()`` as one JSON line, or each line of the
    ``lines`` or ``table`` renderer, printed as soon as it is produced."""
    if fmt == "json":
        print(json.dumps(obj()))
    else:
        write = sys.stdout.write
        for line in (lines if fmt == "lines" else table)():
            write(line + "\n")


# --- commands -------------------------------------------------------------


def cmd_park(args: argparse.Namespace) -> int:
    alpha = PreferenceVector.from_text(args.prefs)
    outcome = park(alpha)
    _emit(
        args.format or "json",
        outcome.to_json_obj,
        lambda: (f"{key}={json.dumps(value)}" for key, value in outcome.to_json_obj().items()),
        lambda: _outcome_table(alpha, outcome),
    )
    return EXIT_OK if outcome.succeeded else EXIT_FAILURE


def cmd_enumerate(args: argparse.Namespace) -> int:
    fmt = args.format or "lines"
    items: Iterable  # typed values for json, their texts otherwise
    if args.kind == "ideal":  # the text listings build no state per line
        items = enumerate_ideal_states(args.n) if fmt == "json" else ideal_state_lines(args.n)
    else:
        if args.kind == "pf":
            stream = enumerate_pf(args.n, budget_n=args.budget_n)
        else:
            stream = enumerate_pf_displacement(args.n, 1, budget_n=args.budget_n)
        items = stream if fmt == "json" else map(PreferenceVector.to_text, stream)
    counter = itertools.count(1)
    numbered = zip(items, counter)  # items first: the end of the stream takes no number

    _emit(
        fmt,
        lambda: [list(item) for item, _ in numbered],
        lambda: (text for text, _ in numbered),
        lambda: (f"{i:>6}  {text}" for text, i in numbered),
    )
    print(f"count={next(counter) - 1}", file=sys.stderr)
    return EXIT_OK


def cmd_map(args: argparse.Namespace) -> int:
    if args.direction == "th2pf":
        record = make_record(HanoiState.from_text(args.vector))
        mapped = record.pf
    else:
        record = make_record(pf_to_th(PreferenceVector.from_text(args.vector)))
        mapped = record.ideal
    _emit(
        args.format or "json",
        record.to_json_obj,
        lambda: [mapped.to_text()],
        lambda: [
            f"parking side: {record.pf.to_text()}   (doubled value {record.doubled_value})",
            render_state(record.ideal),
        ],
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify(args.n, budget_n=args.budget_n, budget_states=args.budget_states)
    ok, layer = report.ok, report.ideal_layer

    def table():
        yield f"verification for n={args.n}: {'all checks pass' if ok else 'FAILURES'}"
        for r in report.counts:
            yield (
                f"  {r.statistic}: closed form {r.closed_form}, "
                f"brute force {r.brute_force}, match {r.match}"
            )
        yield f"  bijection ok: {report.bijection.ok}"
        if layer is not None:
            flags = f"{layer.flag_a}/{layer.flag_b}/{layer.flag_c}"
            yield (
                f"  minimum win {layer.min_win_moves} moves, ideal layer at "
                f"{layer.ideal_at_level}, flags a/b/c: {flags}"
            )

    _emit(
        args.format or "json",
        report.to_json_obj,
        lambda: [f"ok={json.dumps(ok)}", *(f"failed={json.dumps(f)}" for f in report.failures)],
        table,
    )
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_solve(args: argparse.Namespace) -> int:
    if args.dot:  # the search runs in this call, so its errors come before any line
        dot = dot_ideal_lines(args.n, budget_states=args.budget_states)
        _emit("lines", list, lambda: dot, list)  # DOT is the one format with --dot
        if args.format is not None:
            print("note: --format is ignored with --dot", file=sys.stderr)
        return EXIT_OK
    strategy = shortest_strategy(args.n, budget_states=args.budget_states)
    moves, states = list(enumerate(strategy.moves, start=1)), strategy.states
    ideal_after = strategy.ideal_after_move

    def table():
        yield f"start\n{render_state(states[0])}"
        for i, m in moves:
            marker = " (ideal)" if i == ideal_after else ""
            yield f"\nmove {i}: disk {m.disk} from peg {m.from_peg} to peg {m.to_peg}{marker}"
            yield render_state(states[i])

    _emit(
        args.format or "json",
        lambda: {
            "n": args.n,
            "min_win_moves": len(moves),
            "moves": strategy.to_json_obj(),
            "states": [list(s.pegs) for s in states],
            "ideal_after_move": ideal_after,
        },
        lambda: (
            f"move {i}: disk {m.disk} from {m.from_peg} to {m.to_peg} -> "
            f"{states[i].to_text()}{'  [ideal]' if i == ideal_after else ''}"
            for i, m in moves
        ),
        table,
    )
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    reports = brute_force_counts(args.n, budget_n=args.budget_n)

    def table():
        yield "statistic               closed_form  brute_force  match"
        for r in reports:
            bf = "-" if r.brute_force is None else str(r.brute_force)
            yield f"{r.statistic:<22}  {r.closed_form:>11}  {bf:>11}  {r.match}"

    _emit(
        args.format or "json",
        lambda: [r.to_json_obj() for r in reports],
        lambda: (
            f"{r.statistic}={r.closed_form} brute_force={r.brute_force} match={r.match}"
            for r in reports
        ),
        table,
    )
    unchecked = ", ".join(r.statistic for r in reports if r.brute_force is None)
    if unchecked:
        reason = f"n={args.n} is over the scan budget n <= {args.budget_n}"
        print(f"note: not checked by brute force: {unchecked}; {reason}", file=sys.stderr)
    return EXIT_FAILURE if any(r.match is False for r in reports) else EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _config_from(args)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def entrypoint() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at exit cannot fail again, and exit 1 without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAILURE
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
