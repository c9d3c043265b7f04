"""Command-line interface: park, enumerate, map, verify, solve, count.

Exit codes are a stable scripting contract: 0 success, 1 domain or
verification failure, 2 parse/validation error, 3 budget exceeded.

Defaults can be overridden per invocation with flags, or globally with
environment variables: PARKHANOI_FORMAT, PARKHANOI_BUDGET_STATES and
PARKHANOI_BUDGET_N (flags win over the environment).  Output format is
json unless noted; ``enumerate`` defaults to lines, one comma-separated
vector per line, with the count on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .bijection import make_record, pf_to_th, verify_bijection
from .enumeration import (
    DEFAULT_SCAN_MAX_N,
    brute_force_counts,
    enumerate_pf,
    enumerate_pf_displacement,
)
from .errors import BudgetExceededError, DomainError, ValidationError
from .hanoi import (
    DEFAULT_STATE_BUDGET,
    HanoiState,
    dot_ideal_tree,
    enumerate_ideal_states,
    is_ideal_state,
    optimal_strategies_through_ideal,
    shortest_strategy,
)
from .parking import PreferenceVector, park

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

ENV_PREFIX = "PARKHANOI_"
FORMATS = ("json", "lines", "table")


@dataclass
class CliConfig:
    output_format: str | None  # None means "use the command's default"
    budget_states: int
    budget_n: int

    def format_or(self, default: str) -> str:
        return self.output_format or default


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
    if value < 1:
        raise ValidationError(f"{source} must be a positive integer, got {value}")
    return value


def _config_from(args: argparse.Namespace) -> CliConfig:
    fmt = args.format or _env("FORMAT")
    if fmt is not None and fmt not in FORMATS:
        raise ValidationError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
    return CliConfig(
        output_format=fmt,
        budget_states=_budget(
            args.budget_states, "--budget-states", "BUDGET_STATES", DEFAULT_STATE_BUDGET
        ),
        budget_n=_budget(args.budget_n, "--budget-n", "BUDGET_N", DEFAULT_SCAN_MAX_N),
    )


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
        help="cap on the peg-symmetry orbits one state-graph search may visit "
        f"(default {DEFAULT_STATE_BUDGET}, enough for n <= 8; env {ENV_PREFIX}BUDGET_STATES)",
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


def _render_outcome_table(alpha: PreferenceVector, outcome) -> str:
    if not outcome.succeeded:
        return f"car {outcome.failed_car} cannot park; not a parking function"
    rows = ["car  preferred  parked  bumped"]
    for i, (a, s, k) in enumerate(
        zip(alpha.prefs, outcome.assignment, outcome.displacements), start=1
    ):
        rows.append(f"{i:>3}  {a:>9}  {s:>6}  {k:>6}")
    rows.append(
        f"total displacement {outcome.total_displacement}, "
        f"{outcome.lucky_count} lucky car(s)"
    )
    return "\n".join(rows)


def _print_json(obj) -> None:
    print(json.dumps(obj))


# --- commands -------------------------------------------------------------


def cmd_park(args: argparse.Namespace, config: CliConfig) -> int:
    alpha = PreferenceVector.from_text(args.prefs)
    outcome = park(alpha)
    fmt = config.format_or("json")
    if fmt == "json":
        _print_json(outcome.to_json_obj())
    elif fmt == "lines":
        for key, value in outcome.to_json_obj().items():
            print(f"{key}={json.dumps(value)}")
    else:
        print(_render_outcome_table(alpha, outcome))
    return EXIT_OK if outcome.succeeded else EXIT_FAILURE


def cmd_enumerate(args: argparse.Namespace, config: CliConfig) -> int:
    n = args.n
    stream: Iterable
    if args.kind == "pf":
        stream = enumerate_pf(n, budget_n=config.budget_n)
    elif args.kind == "pf1":
        stream = enumerate_pf_displacement(n, 1, budget_n=config.budget_n)
    else:
        stream = enumerate_ideal_states(n)
    fmt = config.format_or("lines")
    count = 0
    if fmt == "json":
        collected = []
        for item in stream:
            collected.append(list(item))
            count += 1
        _print_json(collected)
    else:
        for index, item in enumerate(stream, start=1):
            if fmt == "table":
                print(f"{index:>6}  {item.to_text()}")
            else:
                print(item.to_text())
            count = index
    print(f"count={count}", file=sys.stderr)
    return EXIT_OK


def cmd_map(args: argparse.Namespace, config: CliConfig) -> int:
    if args.direction == "th2pf":
        record = make_record(HanoiState.from_text(args.vector))
        mapped_text = record.pf.to_text()
    else:
        state = pf_to_th(PreferenceVector.from_text(args.vector))
        record = make_record(state)
        mapped_text = state.to_text()
    fmt = config.format_or("json")
    if fmt == "json":
        _print_json(record.to_json_obj())
    elif fmt == "lines":
        print(mapped_text)
    else:
        print(f"parking side: {record.pf.to_text()}   (doubled value {record.doubled_value})")
        print(render_state(record.ideal))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, config: CliConfig) -> int:
    n = args.n
    bijection = verify_bijection(n, budget_n=config.budget_n)
    counts = brute_force_counts(n, budget_n=config.budget_n)
    layer = None if n < 2 else optimal_strategies_through_ideal(
        n, budget_states=config.budget_states
    )
    failures = []
    if not bijection.ok:
        failures.append(
            {"check": "bijection", "expected": {"ok": True}, "actual": bijection.to_json_obj()}
        )
    for report in counts:
        if report.match is False:
            failures.append(
                {
                    "check": f"count:{report.statistic}",
                    "expected": report.closed_form,
                    "actual": report.brute_force,
                }
            )
    if layer is not None and not layer.ok:
        failures.append(
            {
                "check": "ideal_layer",
                "expected": {"min_win_moves": 2 * n + 3, "flags": {"a": True, "b": True, "c": True}},
                "actual": layer.to_json_obj(),
            }
        )
    ok = not failures
    obj = {
        "n": n,
        "bijection": bijection.to_json_obj(),
        "counts": [r.to_json_obj() for r in counts],
        "ideal_layer": layer.to_json_obj() if layer is not None else None,
        "failures": failures,
        "ok": ok,
    }
    fmt = config.format_or("json")
    if fmt == "json":
        _print_json(obj)
    elif fmt == "lines":
        print(f"ok={json.dumps(ok)}")
        for failure in failures:
            print(f"failed={json.dumps(failure)}")
    else:
        print(f"verification for n={n}: {'all checks pass' if ok else 'FAILURES'}")
        for report in counts:
            print(
                f"  {report.statistic}: closed form {report.closed_form}, "
                f"brute force {report.brute_force}, match {report.match}"
            )
        print(f"  bijection ok: {bijection.ok}")
        if layer is not None:
            print(
                f"  minimum win {layer.min_win_moves} moves, ideal layer at "
                f"{layer.ideal_at_level}, flags a/b/c: "
                f"{layer.flag_a}/{layer.flag_b}/{layer.flag_c}"
            )
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_solve(args: argparse.Namespace, config: CliConfig) -> int:
    n = args.n
    if args.dot:
        print(dot_ideal_tree(n, budget_states=config.budget_states))
        return EXIT_OK
    strategy = shortest_strategy(n, budget_states=config.budget_states)
    ideal_positions = [i for i, s in enumerate(strategy.states) if is_ideal_state(s)]
    ideal_after = ideal_positions[0] if ideal_positions else None
    fmt = config.format_or("json")
    if fmt == "json":
        _print_json(
            {
                "n": n,
                "min_win_moves": len(strategy.moves),
                "moves": strategy.to_json_obj(),
                "states": [list(s.pegs) for s in strategy.states],
                "ideal_after_move": ideal_after,
            }
        )
    elif fmt == "lines":
        for i, move in enumerate(strategy.moves, start=1):
            marker = "  [ideal]" if i == ideal_after else ""
            print(
                f"move {i}: disk {move.disk} from {move.from_peg} to {move.to_peg} "
                f"-> {strategy.states[i].to_text()}{marker}"
            )
    else:
        print(f"start\n{render_state(strategy.states[0])}")
        for i, move in enumerate(strategy.moves, start=1):
            marker = " (ideal)" if i == ideal_after else ""
            print(f"\nmove {i}: disk {move.disk} from peg {move.from_peg} to peg "
                  f"{move.to_peg}{marker}")
            print(render_state(strategy.states[i]))
    return EXIT_OK


def cmd_count(args: argparse.Namespace, config: CliConfig) -> int:
    reports = brute_force_counts(args.n, budget_n=config.budget_n)
    fmt = config.format_or("json")
    if fmt == "json":
        _print_json([r.to_json_obj() for r in reports])
    elif fmt == "lines":
        for r in reports:
            print(f"{r.statistic}={r.closed_form} brute_force={r.brute_force} "
                  f"match={r.match}")
    else:
        print("statistic               closed_form  brute_force  match")
        for r in reports:
            bf = "-" if r.brute_force is None else str(r.brute_force)
            print(f"{r.statistic:<22}  {r.closed_form:>11}  {bf:>11}  {r.match}")
    return EXIT_FAILURE if any(r.match is False for r in reports) else EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from(args)
        return args.func(args, config)
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
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
