"""Reference answers the benchmark checks the program's outputs against.

Everything here is derived from the definitions of parking functions,
the (n+1)-peg game and the explicit map.  None of it imports parkhanoi,
so a check that passes is agreement between two independent routes.
"""

from __future__ import annotations

import json
import math
from functools import cache


def cayley(n: int) -> int:
    """Number of parking functions of length n."""
    return (n + 1) ** (n - 1)


def lah(n: int) -> int:
    """Number of displacement-one parking functions, and of ideal states."""
    return math.factorial(n) * (n - 1) // 2


# --- parking ----------------------------------------------------------------


def park(prefs: tuple[int, ...]) -> tuple[list[int] | None, int | None]:
    """(assignment, failed_car): car i takes the first free spot at or after a_i."""
    n = len(prefs)
    taken = [False] * (n + 2)
    assignment = []
    for car, a in enumerate(prefs, start=1):
        spot = a
        while spot <= n and taken[spot]:
            spot += 1
        if spot > n:
            return None, car
        taken[spot] = True
        assignment.append(spot)
    return assignment, None


def parks_by_sorted_criterion(prefs: tuple[int, ...]) -> bool:
    """The i-th smallest preference is at most i."""
    return all(a <= i for i, a in enumerate(sorted(prefs), start=1))


def displacement(prefs: tuple[int, ...]) -> int | None:
    assignment, failed = park(prefs)
    if failed is not None:
        return None
    return sum(s - a for s, a in zip(assignment, prefs))


# --- the game -----------------------------------------------------------------


def is_ideal(x: tuple[int, ...]) -> bool:
    """Disk n alone on peg 0, peg n empty, every interior peg covered and
    exactly one interior peg holding two disks."""
    n = len(x) - 1
    if n < 2 or x[n] != 0 or any(p == 0 for p in x[:n]) or n in x:
        return False
    sizes = sorted(x.count(p) for p in range(1, n))
    return sizes == [1] * (n - 2) + [2]


def ideal_states_lex(n: int):
    """Ideal states of the n+1 peg game in lexicographic order, O(n) memory.

    Disks 0..n-1 are assigned interior pegs one at a time in increasing
    peg order, keeping only prefixes that can still cover every interior
    peg with exactly one peg used twice.
    """
    pegs = n - 1
    counts = [0] * (n + 1)
    x = [0] * (n + 1)

    def extend(i: int, doubled: bool):
        if i == n:
            yield tuple(x)
            return
        uncovered = sum(1 for p in range(1, n) if counts[p] == 0)
        for p in range(1, pegs + 1):
            if counts[p] == 2 or (counts[p] == 1 and doubled):
                continue
            now_doubled = doubled or counts[p] == 1
            left_uncovered = uncovered - (counts[p] == 0)
            left_disks = n - i - 1
            if left_disks != left_uncovered + (0 if now_doubled else 1):
                continue
            counts[p] += 1
            x[i] = p
            yield from extend(i + 1, now_doubled)
            counts[p] -= 1

    yield from extend(0, False)


def doubled_peg(x: tuple[int, ...]) -> int:
    n = len(x) - 1
    return next(p for p in range(1, n) if x.count(p) == 2)


def th_to_pf(x: tuple[int, ...]) -> tuple[int, ...]:
    """The map: drop disk n's peg, shift pegs above the doubled one up by one."""
    j = doubled_peg(x)
    return tuple(p + 1 if p > j else p for p in x[:-1])


def pf_to_th(a: tuple[int, ...]) -> tuple[int, ...]:
    j = next(v for v in a if a.count(v) == 2)
    return tuple(v - 1 if v > j + 1 else v for v in a) + (0,)


def legal_moves(x: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(disk, from, to) moves: a peg's smallest disk onto an empty peg or a larger top."""
    n = len(x) - 1
    top = {}
    for disk in range(n, -1, -1):
        top[x[disk]] = disk
    return [
        (disk, src, dst)
        for src, disk in top.items()
        for dst in range(n + 1)
        if dst != src and top.get(dst, n + 1) > disk
    ]


def apply_move(x: tuple[int, ...], move: tuple[int, int, int]) -> tuple[int, ...]:
    disk, src, dst = move
    if move not in legal_moves(x):
        raise ValueError(f"illegal move {move} in {x}")
    y = list(x)
    y[disk] = dst
    return tuple(y)


@cache
def paths_to_ideal_layer(n: int) -> int:
    """Number of shortest move sequences from the start to an ideal state.

    Breadth-first with path counting, stopped at depth n+1, where every
    ideal state sits.
    """
    start = (0,) * (n + 1)
    dist = {start: 0}
    ways = {start: 1}
    layer = [start]
    for depth in range(1, n + 2):
        nxt = []
        for x in layer:
            for move in legal_moves(x):
                y = list(x)
                y[move[0]] = move[2]
                y = tuple(y)
                if y not in dist:
                    dist[y] = depth
                    ways[y] = 0
                    nxt.append(y)
                if dist[y] == depth:
                    ways[y] += ways[x]
        layer = nxt
    return sum(ways[y] for y in layer if is_ideal(y))


# --- rendering ------------------------------------------------------------------
#
# The byte formats below are the CLI's documented output; the benchmark
# compares stdout with them byte for byte.


def text(vec) -> str:
    return ",".join(str(v) for v in vec)


def draw_state(x: tuple[int, ...]) -> str:
    """Pegs 0..n left to right, each disk a bar of width 2*disk+1."""
    n = len(x) - 1
    width = 2 * n + 1
    stacks = [[d for d in range(n, -1, -1) if x[d] == p] for p in range(n + 1)]
    height = max(len(s) for s in stacks)
    rows = []
    for level in reversed(range(height)):
        cells = [
            ("=" * (2 * s[level] + 1) if level < len(s) else "|").center(width) for s in stacks
        ]
        rows.append(" ".join(cells).rstrip())
    rows.append(" ".join("-" * width for _ in stacks))
    rows.append(" ".join(str(p).center(width) for p in range(n + 1)).rstrip())
    return "\n".join(rows)


def park_output(prefs: tuple[int, ...], fmt: str) -> tuple[int, str]:
    """(exit code, stdout) of ``park`` on a well-formed vector."""
    assignment, failed = park(prefs)
    if (failed is None) != parks_by_sorted_criterion(prefs):
        raise AssertionError(f"park oracles disagree on {prefs}")
    if failed is None:
        bumps = [s - a for s, a in zip(assignment, prefs)]
        fields = {
            "assignment": assignment,
            "displacements": bumps,
            "total_displacement": sum(bumps),
            "lucky_count": bumps.count(0),
            "failed_car": None,
        }
    else:
        fields = dict.fromkeys(
            ("assignment", "displacements", "total_displacement", "lucky_count"), None
        )
        fields["failed_car"] = failed
    if fmt == "json":
        out = json.dumps(fields)
    elif fmt == "lines":
        out = "\n".join(f"{k}={json.dumps(v)}" for k, v in fields.items())
    elif failed is not None:
        out = f"car {failed} cannot park; not a parking function"
    else:
        rows = ["car  preferred  parked  bumped"]
        for i, (a, s) in enumerate(zip(prefs, assignment), start=1):
            rows.append(f"{i:>3}  {a:>9}  {s:>6}  {s - a:>6}")
        rows.append(
            f"total displacement {fields['total_displacement']}, "
            f"{fields['lucky_count']} lucky car(s)"
        )
        out = "\n".join(rows)
    return (0 if failed is None else 1), out + "\n"


def map_output(state: tuple[int, ...], prefs: tuple[int, ...], mapped: str, fmt: str) -> str:
    """stdout of ``map`` for a matched pair; ``mapped`` is the side printed by ``lines``."""
    j = doubled_peg(state)
    if fmt == "json":
        out = json.dumps({"n": len(prefs), "ideal": list(state), "pf": list(prefs), "j": j})
    elif fmt == "lines":
        out = mapped
    else:
        out = f"parking side: {text(prefs)}   (doubled value {j})\n{draw_state(state)}"
    return out + "\n"


# --- DOT tree of minimal routes to the ideal layer -------------------------------


def check_dot_tree(dot: str, n: int) -> str | None:
    """Why the DOT output is not the tree of all shortest routes to the ideal
    layer, or None if it is."""
    lines = dot.split("\n")
    if lines[:2] != ["digraph ideal_tree {", "  node [shape=box];"] or lines[-1] != "}":
        return "DOT header or footer differs"
    labels, bold, children = {}, set(), {}
    for line in lines[2:-1]:
        body = line.strip().rstrip(";")
        if "->" in body:
            parent, child = (s.strip() for s in body.split("->"))
            children.setdefault(parent, []).append(child)
        else:
            node, attrs = body.split(" ", 1)
            label = attrs.split('label="', 1)[1].split('"', 1)[0]
            labels[node] = tuple(int(v) for v in label.split(","))
            if "style=bold" in attrs:
                bold.add(node)
    root = "s0"
    if labels.get(root) != (0,) * (n + 1):
        return "the root is not the starting state"
    leaves = []
    stack = [(root, 0)]
    seen = 0
    while stack:
        node, depth = stack.pop()
        seen += 1
        kids = children.get(node, [])
        if not kids:
            leaves.append((node, depth))
        for kid in kids:
            move = [
                (d, labels[node][d], labels[kid][d])
                for d in range(n + 1)
                if labels[node][d] != labels[kid][d]
            ]
            if len(move) != 1 or move[0] not in legal_moves(labels[node]):
                return f"edge {node} -> {kid} is not one legal move"
            stack.append((kid, depth + 1))
    if seen != len(labels):
        return "some nodes are not reachable from the root"
    if any(depth != n + 1 for _, depth in leaves) or {v for v, _ in leaves} != bold:
        return "bold nodes are not exactly the leaves at depth n+1"
    if not all(is_ideal(labels[v]) for v in bold):
        return "a bold leaf is not an ideal state"
    if len({labels[v] for v in bold}) != lah(n):
        return "the leaves do not carry every ideal state"
    if len(bold) != paths_to_ideal_layer(n):
        return "the tree does not hold every shortest route"
    return None

