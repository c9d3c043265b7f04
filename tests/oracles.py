"""Hand-rolled reference implementations the suite checks the library against.

Deliberately simple and slow: these re-derive answers from the rules
without touching the package internals, so agreement means something.
"""

from itertools import product
from math import comb


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


def neighbors_naive(vec):
    """Every vector one legal move away: a peg's smallest disk moves onto
    an empty peg or onto a peg whose smallest disk is larger."""
    n = len(vec) - 1
    tops = {}
    for disk, peg in enumerate(vec):
        tops.setdefault(peg, disk)
    return [
        vec[:disk] + (to,) + vec[disk + 1 :]
        for peg, disk in tops.items()
        for to in range(n + 1)
        if to != peg and tops.get(to, n + 1) > disk
    ]


def shortest_wins_full_cube(n):
    """(minimum win length, number of minimum wins), by layered BFS over
    every vector of {0..n}^(n+1) with no symmetry reduction."""
    start, end = (0,) * (n + 1), (n,) * (n + 1)
    dist, ways = {start: 0}, {start: 1}
    frontier = [start]
    while end not in dist:
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
