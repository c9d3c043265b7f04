"""Hand-rolled reference implementations the suite checks the library against.

Deliberately simple and slow: these re-derive answers from the rules
without touching the package internals, so agreement means something.
``bijection_report_naive`` is the exception: it runs the package's
enumerators and the maps it is given, so it certifies the report's
bookkeeping, not the maps.
"""

from collections import Counter
from functools import cache
from itertools import permutations, product
from math import comb, factorial
from typing import NamedTuple

from parkhanoi import IdealLayerReport, enumerate_ideal_states, generate_displacement_one


def park_naive(prefs):
    """(assignment, failed_car), scanning a list street front to back per car."""
    n = len(prefs)
    street = [None] * (n + 1)  # spots 1..n
    assignment = []
    for car, preferred in enumerate(prefs, start=1):
        for spot in range(preferred, n + 1):
            if street[spot] is None:
                street[spot] = car
                assignment.append(spot)
                break
        else:
            return None, car
    return assignment, None


def is_pf_naive(prefs):
    return park_naive(prefs)[1] is None


def is_pf_sorted(prefs):
    """Classical criterion, no parking: the i-th smallest preference is at most i."""
    return all(a <= i for i, a in enumerate(sorted(prefs), start=1))


def displacement_naive(prefs):
    """Total bumping, or None when some car cannot park."""
    assignment, failed = park_naive(prefs)
    if failed is not None:
        return None
    return sum(s - a for s, a in zip(assignment, prefs))


def pf_with_displacement(n, d):
    """All vectors in [n]^n that park fully with total displacement d."""
    return {
        prefs
        for prefs in product(range(1, n + 1), repeat=n)
        if displacement_naive(prefs) == d
    }


def bijection_report_naive(n, th_to_pf, pf_to_th, scanned=None):
    """The fields of ``verify_bijection``'s report from two full passes over
    sets of map outputs, running every round trip both ways, with the image
    compared to the set of vectors ``scanned`` unless it is None."""
    states = list(enumerate_ideal_states(n))
    vectors = list(generate_displacement_one(n))
    image = {th_to_pf(x) for x in states}
    return {
        "n": n,
        "ideal_count": len(states),
        "pf_count": len(vectors),
        "expected_count": factorial(n) * (n - 1) // 2,
        "injective": len(image) == len(states),
        "structural_image_matches": image == set(vectors),
        "brute_image_matches": None if scanned is None else image == scanned,
        "round_trip_states_ok": all([pf_to_th(th_to_pf(x)) == x for x in states]),
        "round_trip_prefs_ok": all([th_to_pf(pf_to_th(a)) == a for a in vectors]),
    }


def shape_violation_naive(prefs):
    """Why prefs lacks the displacement-one shape, or None: each condition
    in turn, worded from a Counter of the entries."""
    n = len(prefs)
    counts = Counter(prefs)
    repeated = sorted(v for v, c in counts.items() if c >= 2)
    if len(repeated) != 1 or counts[repeated[0]] != 2:
        return "exactly one preference value must appear exactly twice"
    j = repeated[0]
    if j > n - 1:
        return f"the doubled preference is {j}; it must be at most {n - 1}"
    rest = set(counts) - {j}
    expected = set(range(1, n + 1)) - {j, j + 1}
    if rest == expected:
        return None
    return (
        f"the single preferences are {sorted(rest)}; they must be exactly "
        f"{sorted(expected)} (every spot except {j} and {j + 1})"
    )


def ideal_violation_naive(pegs):
    """Why pegs is not an ideal state, or None: each condition in turn,
    worded from a Counter of the pegs of disks 0..n-1."""
    n = len(pegs) - 1
    if pegs[n] != 0:
        return f"the largest disk sits on peg {pegs[n]}, not alone on the source peg 0"
    counts = Counter(pegs[:n])
    repeated = sorted(p for p, c in counts.items() if c >= 2)
    if len(repeated) != 1 or counts[repeated[0]] != 2:
        return "exactly one peg must hold exactly two of the disks 0..n-1"
    j = repeated[0]
    if not 1 <= j <= n - 1:
        return f"the doubled peg is {j}; it must be an interior peg (1..{n - 1})"
    rest = set(counts) - {j}
    expected = set(range(1, n)) - {j}
    if rest == expected:
        return None
    return (
        f"the singly covered pegs are {sorted(rest)}; they must be exactly the "
        f"other interior pegs {sorted(expected)}"
    )


@cache  # two tests read it at n = 8, where it sorts 141,120 vectors
def ideal_states_lex(n):
    """Every ideal state in lexicographic order, from the definition: disks
    0..n-1 on the interior pegs, each peg once and one peg j twice, and disk n
    on the source peg."""
    return sorted({(*p, 0) for j in range(1, n) for p in permutations((*range(1, n), j))})


def ideal_by_definition(vec):
    """Positional ideal-state test, straight from the description.

    Largest disk alone on the source peg, destination peg empty, and the
    interior pegs each covered with exactly one of them holding two disks.
    """
    n = len(vec) - 1
    if vec[n] != 0:
        return False
    if any(vec[d] == 0 for d in range(n)):
        return False
    if any(p == n for p in vec):
        return False
    sizes = [sum(1 for d in range(n + 1) if vec[d] == p) for p in range(1, n)]
    return sorted(sizes) == [1] * (n - 2) + [2]


def ideal_set_brute(n):
    """All ideal states of the n+1 peg game, by filtering the whole cube."""
    return {
        vec
        for vec in product(range(n + 1), repeat=n + 1)
        if ideal_by_definition(vec)
    }


def tops_naive(vec):
    """The smallest disk on each occupied peg, scanning the disks upwards."""
    tops = {}
    for disk, peg in enumerate(vec):
        tops.setdefault(peg, disk)
    return tops


def neighbors_naive(vec):
    """Every vector one legal move away: a peg's smallest disk moves onto
    an empty peg or onto a peg whose smallest disk is larger."""
    n = len(vec) - 1
    tops = tops_naive(vec)
    return [
        vec[:disk] + (to,) + vec[disk + 1 :]
        for peg, disk in tops.items()
        for to in range(n + 1)
        if to != peg and tops.get(to, n + 1) > disk
    ]


def bfs_layers(source):
    """Layered BFS over vectors from ``source`` by ``neighbors_naive``, with no
    symmetry reduction: yields the distance and shortest-path count of every
    vector reached, first for the source alone and then after each layer.
    The maps grow in place; the caller stops where it needs."""
    dist, ways = {source: 0}, {source: 1}
    frontier = [source]
    while frontier:
        yield dist, ways
        nxt = []
        for vec in frontier:
            for w in neighbors_naive(vec):
                if w not in dist:
                    dist[w] = dist[vec] + 1
                    ways[w] = 0
                    nxt.append(w)
                if dist[w] == dist[vec] + 1:
                    ways[w] += ways[vec]
        frontier = nxt


def shortest_wins_full_cube(n):
    """(minimum win length, number of minimum wins), by a BFS from the start
    until it reaches the end, with no bound on the depth."""
    end = (n,) * (n + 1)
    for dist, ways in bfs_layers((0,) * (n + 1)):
        if end in dist:
            return dist[end], ways[end]


def stirling2(m, k):
    """Stirling number of the second kind: partitions of m items into k blocks."""
    if m == 0 or k == 0:
        return int(m == k)
    return k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)


def orbit_count(n):
    """Orbits of {0..n}^(n+1) under relabelling the interior pegs 1..n-1.

    Choose the m disks on interior pegs, put each other disk on peg 0 or
    peg n, and split the m disks into at most n-1 unlabelled pegs.
    """
    return sum(
        comb(n + 1, m) * 2 ** (n + 1 - m) * sum(stirling2(m, k) for k in range(n))
        for m in range(n + 2)
    )


def shortest_win_count(n):
    """Shortest wins of the n+1 peg game in closed form, conjectured from
    the search: (n-1)! * sum over i = 1..n-1 of (n-i) * C(i+1, 2)^2."""
    return factorial(n - 1) * sum((n - i) * comb(i + 1, 2) ** 2 for i in range(1, n))


def ideal_route_count(n):
    """Shortest routes from the start to the ideal layer in closed form,
    conjectured from the search: (n-1)! * C(n+2, 4)."""
    return factorial(n - 1) * comb(n + 2, 4)


def orbit_key(vec):
    """Names the orbit of ``vec`` under relabelling the interior pegs: the
    disks on peg 0, the disks on peg n, and the unordered interior blocks."""
    n = len(vec) - 1
    blocks = {}
    for disk, peg in enumerate(vec):
        blocks.setdefault(peg, []).append(disk)
    inner = frozenset(tuple(b) for p, b in blocks.items() if 0 < p < n)
    return tuple(blocks.get(0, ())), tuple(blocks.get(n, ())), inner


class VectorOracle(NamedTuple):
    """Balls of radius n+2 around the start and the end, met in the middle."""

    dist_start: dict
    ways_start: dict
    dist_end: dict
    ways_end: dict
    min_win: int  # least d_start(v) + d_end(v) over the vectors in both balls
    on_win: list  # on_win[k]: the vectors k <= n+1 moves into a shortest win


def ball(source, radius):
    """Distances and shortest-path counts of the vectors within ``radius`` moves."""
    for level, (dist, ways) in enumerate(bfs_layers(source)):
        if level == radius:
            return dist, ways


@cache
def vector_oracle(n):
    """Both balls by ``bfs_layers``, with the mid layer (d_start = n+1 and
    d_end = L-n-1) and the vectors on a shortest win marked back from it:
    at depth k <= n, those with a neighbour on a win at depth k+1."""
    dist_start, ways_start = ball((0,) * (n + 1), n + 2)
    dist_end, ways_end = ball((n,) * (n + 1), n + 2)
    min_win = min(d + dist_end[v] for v, d in dist_start.items() if v in dist_end)
    mid = {v for v, d in dist_start.items() if d == n + 1 and dist_end.get(v) == min_win - n - 1}
    on_win = [mid]
    for k in range(n, -1, -1):
        on_win.insert(0, {v for v, d in dist_start.items() if d == k and any(
            w in on_win[0] for w in neighbors_naive(v))})
    return VectorOracle(dist_start, ways_start, dist_end, ways_end, min_win, on_win)


def ideal_layer_report(n):
    """The ideal-layer report from the vector oracle: ideal states by
    definition, shortest wins as the sum of ways_start * ways_end over the
    mid layer."""
    o = vector_oracle(n)
    candidates = (r + (0,) for r in product(range(1, n), repeat=n))
    ideal = {v for v in candidates if ideal_by_definition(v)}
    flag_a = all(o.dist_start.get(v) == n + 1 for v in ideal)
    flag_b = all(o.dist_end.get(v) == n + 2 for v in ideal)
    mid = o.on_win[n + 1]
    paths = sum(o.ways_start[v] * o.ways_end[v] for v in mid)
    flag_c = flag_a and flag_b and o.min_win == 2 * n + 3 and mid == ideal
    return IdealLayerReport(n, len(ideal), o.min_win, n + 1, paths, flag_a, flag_b, flag_c)


def lexicographic_shortest_win(n):
    """(disk, from, to) of the lexicographically smallest shortest win: from
    the start, always the smallest move onto a shortest win."""
    o = vector_oracle(n)

    def on_a_win(vec, k):
        if k <= n + 1:
            return vec in o.on_win[k]
        return o.dist_end.get(vec) == o.min_win - k

    vec = (0,) * (n + 1)
    moves = []
    for k in range(1, o.min_win + 1):
        steps = []
        for w in neighbors_naive(vec):
            if on_a_win(w, k):
                disk = next(i for i in range(n + 1) if w[i] != vec[i])
                steps.append(((disk, vec[disk], w[disk]), w))
        move, vec = min(steps)
        moves.append(move)
    return moves


def dot_tree(n):
    """The DOT text of ``solve --dot``: from the start, every move onto a
    shortest win, down to depth n+1."""
    on_win = vector_oracle(n).on_win
    lines = ["digraph ideal_tree {", "  node [shape=box];"]
    nodes = []

    def emit(vec, depth):
        node = len(nodes)
        nodes.append(vec)
        bold = ", style=bold" if depth == n + 1 else ""
        lines.append(f'  s{node} [label="{",".join(map(str, vec))}"{bold}];')
        if depth <= n:
            for w in neighbors_naive(vec):
                if w in on_win[depth + 1]:
                    lines.append(f"  s{node} -> s{emit(w, depth + 1)};")
        return node

    emit((0,) * (n + 1), 0)
    lines.append("}")
    return "\n".join(lines)
