"""Exhaustive enumerators and closed-form counters.

The closed forms and the brute-force scans stay deliberately
independent so each can certify the other: (n+1)^(n-1) preference
vectors park successfully, n!(n-1)/2 of them with total displacement
one, and the same count of ideal tower states (OEIS A001286), which the
counts find with ``hanoi._ideal_orbits``, a filter over peg orbits.

Enumerators are streamed iterators with deterministic lexicographic
order; budgets are checked eagerly, before any scanning starts.  The
filtering enumerators and the counts share one depth-first walk over
the prefixes of [n]^n that parks each car once per prefix.  The
constructive ``generate_displacement_one`` places entries depth first and
streams each branch's vectors as one batch, its last few entries taken
from a table of tails built once per set of unused values.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from itertools import chain, permutations
from typing import Any

from .errors import BudgetExceededError, check_int
from .hanoi import _ideal_orbits
from .parking import PreferenceVector

#: Default cap on brute-force scans of [n]^n: n <= 7 (7^7 vectors).
DEFAULT_SCAN_MAX_N = 7


def cayley_count(n: int) -> int:
    """(n+1)^(n-1), the number of parking functions of length n.  Exact."""
    check_int(n, "n", 1)
    return (n + 1) ** (n - 1)


def lah_count(n: int) -> int:
    """n!(n-1)/2, the shared count of displacement-one parking functions
    of length n and of ideal states of the game on n+1 pegs.  Exact."""
    check_int(n, "n", 1)
    return math.factorial(n) * (n - 1) // 2


def _check_scan_budget(n: int, budget_n: int) -> None:
    check_int(n, "n", 1)
    check_int(budget_n, "budget_n", 1)
    if n > budget_n:
        raise BudgetExceededError(
            f"scanning all {n}^{n} preference vectors for n={n} exceeds the "
            f"budget n <= {budget_n}; raise the budget to scan anyway"
        )


def enumerate_pf(n: int, *, budget_n: int = DEFAULT_SCAN_MAX_N) -> Iterator[PreferenceVector]:
    """All parking functions of length n, lexicographically, streamed from
    the prefix-shared parking walk over [n]^n (see ``_scan``)."""
    _check_scan_budget(n, budget_n)
    return (pv for pv, _ in _scan(n))


def _scan(n: int) -> Iterator[tuple[PreferenceVector, int]]:
    """Each parking function of length n with its total displacement,
    lexicographically, by an iterative depth-first walk over prefixes.

    Each car parks once per prefix and is unparked on backtracking.  A car
    that rolls off the end fails every extension of its prefix and every
    larger preference (those spots are full too), so the walk backtracks
    at once.  Only leaves that park build a ``PreferenceVector``."""
    occupied = bytearray(n + 2)  # spots 1..n; 0 (unplaced) and n+1 (end of street) stay free
    prefs, spots = [0] * n, [0] * n  # per car; 0 means not placed yet
    total = [0] * (n + 1)  # total[i]: displacement of cars before car i
    car = 0
    while car >= 0:
        occupied[spots[car]] = 0
        preferred = prefs[car] = prefs[car] + 1
        spot = preferred
        while occupied[spot]:
            spot += 1
        if spot > n:
            prefs[car] = spots[car] = 0
            car -= 1
            continue
        occupied[spot] = 1
        spots[car] = spot
        total[car + 1] = total[car] + spot - preferred
        if car == n - 1:
            yield PreferenceVector(tuple(prefs)), total[n]
        else:
            car += 1


def enumerate_pf_displacement(
    n: int, d: int, *, budget_n: int = DEFAULT_SCAN_MAX_N
) -> Iterator[PreferenceVector]:
    """Parking functions of length n with total displacement exactly d,
    lexicographically, filtered from the prefix-shared parking walk.

    Any d >= 0 is accepted; beyond the maximum n(n-1)/2 the stream is
    simply empty.
    """
    check_int(d, "displacement", 0)
    _check_scan_budget(n, budget_n)
    return (pv for pv, k in _scan(n) if k == d)


def generate_displacement_one(n: int) -> Iterator[PreferenceVector]:
    """Displacement-one parking functions built constructively, not by filtering.

    Entries are placed depth first, each a new value until one value j
    repeats; the unused values other than j+1 then follow in every order.
    Yields the n!(n-1)/2 vectors in lexicographic order without storing them.

    Each branch yields one lazy batch of its prefix plus each tail, so no
    vector climbs the recursion's generators, and each vector is validated
    once, as it is built.  The tails after a prefix depend only on its unused
    values, so once at most four are unused they come from a table keyed by
    them, each entry built once by the same recursion from an empty prefix.
    Cutting at four drained n = 7 and n = 8 5-10% faster than at three, and
    25-30% faster than at two.  At n = 8 the recursion makes 401 calls for the
    stream, not 109,601, and 163 more to fill the table's 163 sets (5,474
    tails); it yields 1,680 batches from the table, 110,880 of the 141,120
    vectors, and 721 batches of permutations.
    """
    check_int(n, "n", 1)

    def place(prefix: tuple[int, ...], unused: tuple[int, ...]) -> Iterator[Iterable[Any]]:
        for v in range(1, n + 1):
            if v in unused:
                rest = tuple(u for u in unused if u != v)
                if len(rest) > 4:
                    yield from place(prefix + (v,), rest)
                    continue
                if rest not in tails:
                    tails[rest] = list(chain.from_iterable(place((), rest)))
                yield map((prefix + (v,)).__add__, tails[rest])
            elif v + 1 in unused:
                yield map((prefix + (v,)).__add__, permutations([u for u in unused if u != v + 1]))

    tails: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    return map(PreferenceVector, chain.from_iterable(place((), tuple(range(1, n + 1)))))


@dataclass(frozen=True)
class CountReport:
    """A closed-form count next to the matching exhaustive count.

    ``brute_force`` is None when the scan was skipped for budget, in
    which case ``match`` is indeterminate (None) rather than False.
    """

    n: int
    statistic: str
    closed_form: int
    brute_force: int | None

    @property
    def match(self) -> bool | None:
        if self.brute_force is None:
            return None
        return self.closed_form == self.brute_force

    def to_json_obj(self) -> dict[str, Any]:
        return {**asdict(self), "match": self.match}


def brute_force_counts(n: int, *, budget_n: int = DEFAULT_SCAN_MAX_N) -> list[CountReport]:
    """Count reports for all_pf, pf_by_displacement(1) and ideal_states: one
    scan of [n]^n tallies both parking-function counts, a filter of the ideal
    orbits the ideal states (none at n = 1); over the budget all three are None.
    BudgetExceededError if (n+1)^(n-1) has more digits than an int may print."""
    check_int(n, "n", 1)
    check_int(budget_n, "budget_n", 1)
    digits = math.floor((n - 1) * math.log10(n + 1)) + 1  # of cayley_count(n), the longest count
    if digits > getattr(sys, "get_int_max_str_digits", lambda: 0)() > 0:
        raise BudgetExceededError(
            f"cayley_count({n}) has {digits} digits, over the interpreter's limit "
            f"for printing an int; set PYTHONINTMAXSTRDIGITS to raise it"
        )
    return _count_reports(n, Counter(d for _, d in _scan(n)) if n <= budget_n else None)


def _count_reports(n: int, tally: Counter[int] | None) -> list[CountReport]:
    """The three count reports from a tally of ``_scan``'s displacements,
    or partial ones (no tally, no ideal filter) when the scan was skipped."""
    ideal_count = None if tally is None else _ideal_orbits(n).total()
    return [
        CountReport(n, "all_pf", cayley_count(n), None if tally is None else tally.total()),
        CountReport(n, "pf_by_displacement(1)", lah_count(n), None if tally is None else tally[1]),
        CountReport(n, "ideal_states", lah_count(n), ideal_count),
    ]
