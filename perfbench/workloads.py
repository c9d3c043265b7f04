"""The four workloads: what one round runs, and how each output is checked.

A round is a fixed list of steps.  A step is one call into the program,
either ``parkhanoi.cli.main(argv)`` or a public library function, and
carries a check that compares the output with ``oracles`` or with a
value pinned at the seed commit, never with another library call.

``small=True`` gives the reduced sizes the self-test runs.  ``skew``
shifts one expected value per workload by that amount; the self-test
uses it to show that a wrong expectation is counted as a failure.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import oracles as o

# Values pinned at the seed commit, by n.
SHORTEST_PATHS = {2: 1, 3: 22, 4: 342, 5: 4872}
DOT_SHA256 = {
    3: "31b158f52bf392dea9205c4f2122335d27eef719c793cf29097b551fbb7089d4",
    5: "bf1f4f84a5a02ca26393e63da56904dfed70925a4e5b2633aa6bb018f7412925",
}


@dataclass
class Output:
    """What a CLI step left behind: exit code, stdout and stderr."""

    rc: int
    text: str | None  # full stdout, when the step keeps it
    sha256: str
    size: int  # stdout bytes
    lines: int
    err: str


@dataclass
class Step:
    """One call: ``argv`` through the CLI, or ``call(parkhanoi)`` for a library call.

    ``check`` gets the Output (or the call's return value) and returns
    why it is wrong, or None.
    """

    check: Callable[[Any], str | None]
    argv: list[str] | None = None
    call: Callable[[Any], Any] | None = None
    keep_text: bool = True


def _json_check(rc: int, expected: Any) -> Callable[[Output], str | None]:
    def check(out: Output) -> str | None:
        if out.rc != rc:
            return f"exit code {out.rc}, expected {rc}"
        got = json.loads(out.text)
        return None if got == expected else f"got {got!r}, expected {expected!r}"

    return check


# --- scan ----------------------------------------------------------------------


def scan(seed: int, small: bool, skew: int) -> list[Step]:
    n = 4 if small else 6
    expected = [
        {"n": n, "statistic": "all_pf", "closed_form": o.cayley(n) + skew,
         "brute_force": o.cayley(n) + skew, "match": True},
        {"n": n, "statistic": "pf_by_displacement(1)", "closed_form": o.lah(n),
         "brute_force": o.lah(n), "match": True},
        {"n": n, "statistic": "ideal_states", "closed_form": o.lah(n),
         "brute_force": o.lah(n), "match": True},
    ]
    return [Step(argv=["count", "--n", str(n)], check=_json_check(0, expected))]


# --- search --------------------------------------------------------------------


def _check_verify(n: int, paths: int) -> Callable[[Output], str | None]:
    count = o.lah(n)
    bijection = {
        "n": n, "ideal_count": count, "pf_count": count, "expected_count": count,
        "injective": True, "structural_image_matches": True, "brute_image_matches": True,
        "round_trip_states_ok": True, "round_trip_prefs_ok": True, "ok": True,
    }
    counts = [
        {"n": n, "statistic": s, "closed_form": c, "brute_force": c, "match": True}
        for s, c in (("all_pf", o.cayley(n)), ("pf_by_displacement(1)", count),
                     ("ideal_states", count))
    ]
    layer = {
        "n": n, "ideal_count": count, "min_win_moves": 2 * n + 3, "ideal_at_level": n + 1,
        "shortest_paths": paths, "flags": {"a": True, "b": True, "c": True},
    }
    expected = {"n": n, "bijection": bijection, "counts": counts, "ideal_layer": layer,
                "failures": [], "ok": True}
    return _json_check(0, expected)


def _check_solve(n: int) -> Callable[[Output], str | None]:
    def check(out: Output) -> str | None:
        if out.rc != 0:
            return f"exit code {out.rc}"
        got = json.loads(out.text)
        state = (0,) * (n + 1)
        states = [state]
        for m in got["moves"]:
            state = o.apply_move(state, (m["disk"], m["from"], m["to"]))
            states.append(state)
        ideal_at = [i for i, s in enumerate(states) if o.is_ideal(s)]
        if got["n"] != n or got["min_win_moves"] != 2 * n + 3 or len(states) != 2 * n + 4:
            return f"not a {2 * n + 3}-move strategy: {got['min_win_moves']}"
        if state != (n,) * (n + 1):
            return "the strategy does not end with every disk on the last peg"
        if [list(s) for s in states] != got["states"]:
            return "the listed states do not follow from the moves"
        if ideal_at != [n + 1] or got["ideal_after_move"] != n + 1:
            return f"ideal states after moves {ideal_at}, reported {got['ideal_after_move']}"
        return None

    return check


def _check_dot(n: int, sha256: str) -> Callable[[Output], str | None]:
    def check(out: Output) -> str | None:
        if out.rc != 0:
            return f"exit code {out.rc}"
        if out.sha256 != sha256:
            return "DOT output differs from the seed's"
        return o.check_dot_tree(out.text.rstrip("\n"), n)

    return check


def search(seed: int, small: bool, skew: int) -> list[Step]:
    n = 3 if small else 5
    return [
        Step(argv=["verify", "--n", str(n)], check=_check_verify(n, SHORTEST_PATHS[n] + skew)),
        Step(argv=["solve", "--n", str(n)], check=_check_solve(n)),
        Step(argv=["solve", "--n", str(n), "--dot"], check=_check_dot(n, DOT_SHA256[n])),
    ]


# --- construct -----------------------------------------------------------------


def _listing_digest(n: int) -> tuple[str, int]:
    """sha256 and size of ``enumerate ideal --n n`` stdout, built from the definition."""
    digest = hashlib.sha256()
    size = 0
    for x in o.ideal_states_lex(n):
        line = (o.text(x) + "\n").encode()
        digest.update(line)
        size += len(line)
    return digest.hexdigest(), size


def construct(seed: int, small: bool, skew: int) -> list[Step]:
    n_list, n_map = (5, 4) if small else (8, 7)
    sha256, size = _listing_digest(n_list)
    lines = o.lah(n_list) + skew

    def check_listing(out: Output) -> str | None:
        if out.rc != 0 or out.err != f"count={o.lah(n_list)}\n":
            return f"exit code {out.rc}, stderr {out.err!r}"
        if (out.lines, out.size, out.sha256) != (lines, size, sha256):
            return f"{out.lines} lines, {out.size} bytes: not the sorted ideal states"
        return None

    def check_report(report) -> str | None:
        count = o.lah(n_map)
        got = (report.ok, report.ideal_count, report.pf_count, report.expected_count,
               report.injective, report.structural_image_matches, report.brute_image_matches,
               report.round_trip_states_ok, report.round_trip_prefs_ok)
        want = (True, count, count, count, True, True, None, True, True)
        return None if got == want else f"bijection report {got}, expected {want}"

    return [
        Step(argv=["enumerate", "ideal", "--n", str(n_list)], keep_text=False,
             check=check_listing),
        Step(call=lambda ph: ph.verify_bijection(n_map, check_image=False), check=check_report),
    ]


# --- requests --------------------------------------------------------------------
#
# Inputs are built from the definitions: uniform vectors for park, ideal
# states as (doubled peg, pair of disks, placement of the rest), and
# displacement-one vectors as (doubled value, pair of cars, arrangement
# of the other spots).  About 10% are malformed (exit 2) or well formed
# but off the map's domain (exit 1).


def _ideal_state(rng: random.Random, n: int) -> tuple[int, ...]:
    j = rng.randint(1, n - 1)
    pair = rng.sample(range(n), 2)
    rest_pegs = [p for p in range(1, n) if p != j]
    rng.shuffle(rest_pegs)
    x = [0] * (n + 1)
    for d in pair:
        x[d] = j
    for d, p in zip((d for d in range(n) if d not in pair), rest_pegs):
        x[d] = p
    return tuple(x)


def _displacement_one(rng: random.Random, n: int) -> tuple[int, ...]:
    j = rng.randint(1, n - 1)
    pair = rng.sample(range(n), 2)
    rest = [v for v in range(1, n + 1) if v not in (j, j + 1)]
    rng.shuffle(rest)
    a = [0] * n
    for i in pair:
        a[i] = j
    for i, v in zip((i for i in range(n) if i not in pair), rest):
        a[i] = v
    return tuple(a)


def _bad_request(rng: random.Random, n: int) -> tuple[list[str], int]:
    """A malformed (exit 2) or off-domain (exit 1) request."""
    kind = rng.randrange(5)
    if kind == 0:  # unparseable entry
        cmd = rng.choice([["park"], ["map", "th2pf"], ["map", "pf2th"]])
        return cmd + [f"1,{rng.choice(['x', '', '1.5'])},2"], 2
    if kind == 1:  # preference outside spots 1..n
        a = [rng.randint(1, n) for _ in range(n)]
        a[rng.randrange(n)] = rng.choice([0, n + 1])
        return rng.choice([["park"], ["map", "pf2th"]]) + [o.text(a)], 2
    if kind == 2:  # peg outside 0..n
        x = [rng.randint(0, n) for _ in range(n + 1)]
        x[rng.randrange(n + 1)] = n + 1
        return ["map", "th2pf", o.text(x)], 2
    if kind == 3:  # a valid state that is not ideal
        while True:
            x = tuple(rng.randint(0, n) for _ in range(n + 1))
            if not o.is_ideal(x):
                return ["map", "th2pf", o.text(x)], 1
    while True:  # a valid vector without the displacement-one shape
        a = tuple(rng.randint(1, n) for _ in range(n))
        if o.displacement(a) != 1:
            return ["map", "pf2th", o.text(a)], 1


def _expect(rc: int, stdout: str) -> Callable[[Output], str | None]:
    def check(out: Output) -> str | None:
        if out.rc != rc or out.text != stdout:
            return f"exit {out.rc} stdout {out.text!r}, expected exit {rc} stdout {stdout!r}"
        if rc == 2 or (rc == 1 and not stdout):
            if not out.err.startswith("error: "):
                return f"stderr {out.err!r} lacks the error line"
        return None

    return check


def requests(seed: int, small: bool, skew: int) -> list[Step]:
    rng = random.Random(seed)
    steps = []
    for i in range(50 if small else 2000):
        n = rng.randint(3, 8)
        fmt = rng.choice([None, "json", "lines", "table"])
        r = rng.random()
        if r < 0.40:
            a = tuple(rng.randint(1, n) for _ in range(n))
            argv = ["park", o.text(a)]
            rc, stdout = o.park_output(a, fmt or "json")
        elif r < 0.65:
            x = _ideal_state(rng, n)
            argv = ["map", "th2pf", o.text(x)]
            rc, stdout = 0, o.map_output(x, o.th_to_pf(x), o.text(o.th_to_pf(x)), fmt or "json")
        elif r < 0.90:
            a = _displacement_one(rng, n)
            x = o.pf_to_th(a)
            rc, stdout = 0, o.map_output(x, a, o.text(x), fmt or "json")
            argv = ["map", "pf2th", o.text(a)]
        else:
            argv, rc = _bad_request(rng, n)
            stdout = ""
        if fmt is not None:
            argv = ["--format", fmt] + argv
        steps.append(Step(argv=argv, check=_expect(rc + (skew if i == 0 else 0), stdout)))
    return steps


WORKLOADS = {"scan": scan, "search": search, "construct": construct, "requests": requests}
