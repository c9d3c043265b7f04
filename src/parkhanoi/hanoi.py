"""Tower of Hanoi on n+1 pegs with n+1 disks.

Disks are labeled 0..n by increasing size and pegs 0..n left to right;
peg 0 is the source, peg n the destination, pegs 1..n-1 the interior.
A state records the peg of every disk.  Stacking order on a peg is
implicit: smaller disks always sit above larger ones, so the vector
alone identifies the position.  The game starts with every disk on
peg 0 and is won when every disk reaches peg n.

A state is *ideal* when disk n is alone on the source peg, the
destination peg is the only empty peg, and the remaining n disks cover
the interior pegs with exactly one interior peg holding two disks.  Any
two distinct disks among 0..n-1 may form that doubled pair, disk 0
included.  Ideal states are the doorway of every minimum-length win:
the searches below verify exhaustively that the minimum win takes 2n+3
moves and that every minimum win sits in an ideal state right after
move n+1.  They share one breadth-first search from the start over the
orbits of the interior-peg relabelling, which fixes the start and the
end, cut at depth n+1 and met in the middle through the 0/n peg swap,
and cap the orbits it visits by a budget; ``dot_ideal_lines`` caps the
nodes of its tree by the same budget, then streams the tree.

States, moves and strategies are immutable values; all functions are
pure, and the searches are deterministic.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, permutations, product
from math import perm
from typing import Any

from .errors import BudgetExceededError, DomainError, IllegalMoveError, ValidationError
from .errors import _entry_cells, check_int, parse_vector, vector_text

#: Default cap on the orbits one state-graph search visits, and on the nodes
#: of the DOT tree: the search fits for n <= 12 (371,269 orbits), the tree for
#: n <= 7 (212,366 nodes; n = 8 has 2,525,490).
DEFAULT_STATE_BUDGET = 7**7


@dataclass(frozen=True)
class HanoiState:
    """Peg of each disk: ``pegs[i]`` holds disk i.  n+1 disks on n+1 pegs, n >= 2."""

    pegs: tuple[int, ...]

    def __post_init__(self) -> None:
        pegs = self.pegs
        if type(pegs) is not tuple:
            try:
                pegs = tuple(pegs)
            except TypeError as exc:
                raise ValidationError(f"pegs must be a sequence, got {pegs!r}") from exc
            object.__setattr__(self, "pegs", pegs)
        if len(pegs) < 3:
            raise ValidationError(f"a state needs at least 3 disks (n >= 2), got {len(pegs)}")
        n = len(pegs) - 1
        for disk, peg in enumerate(pegs):
            if type(peg) is not int and (not isinstance(peg, int) or isinstance(peg, bool)):
                raise ValidationError(f"peg of disk {disk} is not an integer: {peg!r}")
            if not 0 <= peg <= n:
                raise ValidationError(f"disk {disk} sits on peg {peg}, outside 0..{n}")

    @property
    def n(self) -> int:
        """Largest disk label; there are n+1 disks and n+1 pegs."""
        return len(self.pegs) - 1

    def top_disks(self) -> dict[int, int]:
        """Topmost (smallest) disk on each occupied peg."""
        return dict(zip(reversed(self.pegs), range(self.n, -1, -1)))  # smallest disk wins

    @classmethod
    def from_text(cls, text: str) -> "HanoiState":
        """Parse a comma-separated state such as ``"2,2,1,0"``."""
        return cls(parse_vector(text, "state"))

    def to_text(self) -> str:
        return vector_text(self.pegs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.pegs)

    def __len__(self) -> int:
        return len(self.pegs)


def as_state(value: HanoiState | Sequence[int]) -> HanoiState:
    """Coerce a raw peg vector, validating it."""
    if isinstance(value, HanoiState):
        return value
    return HanoiState(value)


@dataclass(frozen=True, order=True)
class HanoiMove:
    """Move one disk from one peg to another.

    Moves order lexicographically by (disk, from_peg, to_peg), so
    ``sorted(legal_moves(s))`` lists them in the order that ``_successors``
    and the DOT walk use.
    """

    disk: int
    from_peg: int
    to_peg: int

    def __post_init__(self) -> None:
        for name in ("disk", "from_peg", "to_peg"):
            check_int(getattr(self, name), name, 0)
        if self.from_peg == self.to_peg:
            raise ValidationError("a move must change pegs")

    def to_json_obj(self) -> dict[str, int]:
        return {"disk": self.disk, "from": self.from_peg, "to": self.to_peg}


def starting_state(n: int) -> HanoiState:
    """All n+1 disks stacked on the source peg."""
    check_int(n, "n", 2)
    return HanoiState((0,) * (n + 1))


def ending_state(n: int) -> HanoiState:
    """All n+1 disks stacked on the destination peg; reaching it wins."""
    check_int(n, "n", 2)
    return HanoiState((n,) * (n + 1))


def legal_moves(state: HanoiState | Sequence[int]) -> set[HanoiMove]:
    """All single-disk moves allowed from the state.

    Only a peg's top disk may move, and only onto an empty peg or a peg
    whose top disk is larger.
    """
    state = as_state(state)
    moves = _successors(state.pegs, state.n, range(state.n + 1))
    return {HanoiMove(disk, from_peg, to_peg) for disk, from_peg, to_peg, _ in moves}


def apply_move(state: HanoiState | Sequence[int], move: HanoiMove) -> HanoiState:
    """The state after one move; raises IllegalMoveError if it breaks the rules."""
    state = as_state(state)
    n = state.n
    if not isinstance(move, HanoiMove):
        raise ValidationError(f"a move must be a HanoiMove, got {move!r}")
    if move.disk > n or move.from_peg > n or move.to_peg > n:
        raise ValidationError(f"move {move} does not fit a game with disks/pegs 0..{n}")
    tops = state.top_disks()
    if tops.get(move.from_peg) != move.disk:
        raise IllegalMoveError(f"disk {move.disk} is not the top of peg {move.from_peg}")
    target = tops.get(move.to_peg)
    if target is not None and target < move.disk:
        raise IllegalMoveError(
            f"peg {move.to_peg} is topped by disk {target}, smaller than disk {move.disk}"
        )
    return HanoiState(state.pegs[: move.disk] + (move.to_peg,) + state.pegs[move.disk + 1 :])


@dataclass(frozen=True)
class Strategy:
    """A playthrough: the move list plus every state it visits.  The states are
    built from the moves, one ``apply_move`` each, from the all-on-source start."""

    n: int
    moves: tuple[HanoiMove, ...]
    states: tuple[HanoiState, ...] = field(init=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "moves", tuple(self.moves))
        except TypeError as exc:
            raise ValidationError(f"moves must be a sequence, got {self.moves!r}") from exc
        if not all(isinstance(move, HanoiMove) for move in self.moves):
            raise ValidationError("every move of a strategy must be a HanoiMove")
        states = accumulate(self.moves, apply_move, initial=starting_state(self.n))
        object.__setattr__(self, "states", tuple(states))

    @property
    def ideal_after_move(self) -> int | None:
        """The number of moves after which the play first stands in an ideal state, or None."""
        return next((i for i, s in enumerate(self.states) if is_ideal_state(s)), None)

    def to_json_obj(self) -> list[dict[str, int]]:
        return [m.to_json_obj() for m in self.moves]


# --- ideal states -----------------------------------------------------------


def _ideal_violation(x: tuple[int, ...]) -> str | int:
    """The doubled peg j (an int) when the pegs x are an ideal state, or the
    first broken ideal-state condition as a message.

    One set pass decides and words: with disk n on peg 0, one peg holds
    two of the disks 0..n-1 and the others one each exactly when their
    pegs take n-1 distinct values.  The state is ideal exactly when these
    are 1..n-1, and the doubled peg j is their sum less 1 + ... + (n-1);
    otherwise j is ``sum(low) - sum(pegs)``.

    Every entry of x must be a peg 0..n: each caller passes the pegs of a
    ``HanoiState``, or ``bijection._to_pegs`` of a validated vector.  Then
    n-1 distinct values are exactly the n-1 pegs 1..n-1 when neither 0 nor
    n is among them, so two membership tests decide."""
    n = len(x) - 1
    if x[n] != 0:
        return f"the largest disk sits on peg {x[n]}, not alone on the source peg 0"
    low = x[:n]
    pegs = set(low)
    if len(pegs) == n - 1:
        if 0 not in pegs and n not in pegs:
            return sum(low) - n * (n - 1) // 2
        j = sum(low) - sum(pegs)
        if not 1 <= j <= n - 1:
            return f"the doubled peg is {j}; it must be an interior peg (1..{n - 1})"
        return (
            f"the singly covered pegs are {sorted(pegs - {j})}; they must be exactly the "
            f"other interior pegs {sorted(set(range(1, n)) - {j})}"
        )
    return "exactly one peg must hold exactly two of the disks 0..n-1"


def is_ideal_state(state: HanoiState | Sequence[int]) -> bool:
    """Whether disk n is alone on the source peg, the destination peg is
    empty, and every interior peg is covered, exactly one of them twice."""
    return not isinstance(_ideal_violation(as_state(state).pegs), str)


def _doubled_peg(x: tuple[int, ...]) -> int:
    """The doubled peg of the ideal state with pegs x; raises DomainError naming the first
    broken condition."""
    found = _ideal_violation(x)
    if isinstance(found, str):
        raise DomainError(f"not an ideal state: {found}")
    return found


def _ideal_rows(n: int, cells: Callable[[int], Any], join: Any, close: Any) -> Iterator[Any]:
    """The vectors of ``enumerate_ideal_states(n)`` in its order, each joined from
    ``cells(n)[p]`` per entry ``p`` but the last, then ``close``: tuples by
    ``(range, tuple, (0,))``, text by ``(_entry_cells, "".join, "0")``.

    Each branch joins its prefix once and yields one lazy batch of prefix plus
    tail, so no row climbs the recursion's generators.  Once at most two
    interior pegs are unused, the tails come from a table keyed by them: each
    tuple over 1..n-1, one longer than the unused pegs, that covers them, in
    product order, then the close; else the unused pegs follow in every order.
    At n = 8 the recursion makes 3,620 calls, not 13,700, and yields 2,520
    batches from the table's 21 sets of 36 tails, 90,720 of the 141,120 rows,
    and 4,081 batches of permutations.
    """
    check_int(n, "n", 1)
    cell = cells(n)
    unit = [join([c]) for c in cell]  # one entry: (p,) or "p,"

    def place(prefix: Any, unused: _Vec) -> Iterator[Iterable[Any]]:
        if len(unused) <= 2:
            if unused not in tails:
                rows = product(range(1, n), repeat=len(unused) + 1)
                covers = (t for t in rows if set(unused).issubset(t))
                tails[unused] = [join([cell[p] for p in t]) + close for t in covers]
            yield map(prefix.__add__, tails[unused])
            return
        free = [cell[q] for q in unused]
        for p in range(1, n):
            if p in unused:
                yield from place(prefix + unit[p], tuple(q for q in unused if q != p))
            else:
                head = prefix + unit[p]
                yield (head + join(rest) + close for rest in permutations(free))

    tails: dict[_Vec, list[Any]] = {}
    return chain.from_iterable(place(join([]), tuple(range(1, n))))


def enumerate_ideal_states(n: int) -> Iterator[HanoiState]:
    """Every ideal state exactly once, in lexicographic order of the vector.

    Built directly, not by filtering all (n+1)^(n+1) vectors: disks 0..n-1
    are placed depth first, each on a new interior peg until one peg
    repeats, then the unused interior pegs follow in every order.  Yields
    n!(n-1)/2 states without storing them, none at n = 1, where the game
    has no interior peg.
    """
    return map(HanoiState, _ideal_rows(n, range, tuple, (0,)))


def ideal_state_lines(n: int) -> Iterator[str]:
    """The text of each state of ``enumerate_ideal_states(n)``, like ``"2,2,1,0"``,
    streamed in the same order with no ``HanoiState`` built; a bad ``n`` raises
    ValidationError at the call, before any line.  Each line is its branch's prefix
    text, written once per branch, then a tail text (see ``_ideal_rows``)."""
    return _ideal_rows(n, _entry_cells, "".join, "0")


# --- state-graph search ------------------------------------------------------
#
# Every vector of the cube {0..n}^(n+1) is a valid position, because
# stacking order is implicit, and the move graph connects them all.
# Relabelling the interior pegs 1..n-1 maps moves to moves and fixes both
# the start and the end, so one breadth-first search from the start cut at
# depth n+1, ``_search``, visits one canonical vector per orbit of that
# relabelling: interior pegs renumbered 1, 2, ... in the order their smallest
# disk appears.  For n = 7 it visits 1,590 orbits, of the graph's 94,783
# orbits and 16.7 M vectors.
#
# - Path counts are orbit totals: C[O] sums the shortest-path counts of
#   the vectors in O.  Expanding a representative u adds C[orbit(u)] once
#   per move of u into each next-layer orbit; this is exact because every
#   vector of orbit(u) has the same moves up to relabelling.
# - Swapping pegs 0 and n maps the start to the end and commutes with the
#   relabelling, so dist_end(v) = dist_start(swap v): one search from the
#   start serves both ends.
# - Meeting in the middle needs only depth n+1.  Every visited pair v,
#   swap v is a win of d(v) + d(swap v) moves, and a win of L <= 2n+2
#   moves passes a v with d(v) = floor(L/2) and d(swap v) = ceil(L/2),
#   both at most n+1.  So with no such pair no win is shorter than 2n+3
#   moves (``_cut``), and one of 2n+3 moves steps from depth n+1 to the
#   swap of depth n+1, the step that ``_meet_in_the_middle`` probes for.
# - Moves onto the empty interior pegs of a vector all land in one orbit,
#   so the kernel makes one of them, weighted by how many there are.
# - The probe skips moves that cannot close a win.  LB(v), one per disk off
#   peg n and two per disk on peg n smaller than a disk off it, bounds the
#   moves from v to the end (the larger disk lands only after the smaller
#   one leaves and before it returns).  It reads only peg n, so it is an
#   orbit's.  A move onto or off peg n changes it by 1, any other move not
#   at all, and a probe hit w has LB(w) <= d_end(w) = n+1.  So
#   ``_Orbits.probe`` skips u with LB(u) >= n+3, and makes only the moves
#   off peg n when LB(u) = n+2: there some disk off n is larger than one on
#   n (LB(u) > n+1 >= the disks off n), so a disk moved onto n, smaller
#   than every disk there, counts 2 instead of 1.
# - ``_pair_orbits`` builds the C(n,2) ideal orbits, one per doubled pair,
#   for the layer report; ``_ideal_orbits`` finds them by filtering
#   canonical vectors, for the count report, which certifies the count.

_Vec = tuple[int, ...]  # a peg vector, one entry per disk
_Dist = dict[_Vec, int]  # a distance or a path count per orbit


class _Orbits(dict):
    """Orbits of the interior-peg relabelling: ``orbits(vec)`` is vec's canonical
    vector, its interior pegs renumbered 1, 2, ... by first appearance through
    the relabelling ``orbits[tuple(dict.fromkeys(vec))]``, built once per order."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __missing__(self, order: _Vec) -> Callable[[int], int]:
        n, interior = self.n, [p for p in order if 0 < p < self.n]
        label = self[order] = {0: 0, n: n, **dict(zip(interior, range(1, n)))}.__getitem__
        return label

    def __call__(self, vec: Sequence[int]) -> _Vec:
        return tuple(map(self[tuple(dict.fromkeys(vec))], vec))

    def swap(self, vec: Sequence[int]) -> _Vec:  # its distance from the start is vec's to the end
        return self([self.n if p == 0 else 0 if p == self.n else p for p in vec])

    def moves(self, u: _Vec, off_n: bool = False) -> Iterator[tuple[_Vec, int]]:
        """Each move of the canonical u as the orbit it reaches and how many it
        stands for; with ``off_n``, only the moves off peg n."""
        n, k = self.n, len(set(u) - {0, self.n})  # interior pegs 1..k are in use
        spare = k + 1 if k < n - 1 else None  # stands for all n-1-k empty ones
        steps = _successors(u, n, (*range(min(k + 2, n)), n))
        for _, _, to_peg, w in (s for s in steps if s[1] == n) if off_n else steps:
            yield tuple(map(self[tuple(dict.fromkeys(w))], w)), n - 1 - k if to_peg == spare else 1

    def probe(self, u: _Vec) -> Iterator[tuple[_Vec, int]]:
        """The moves of u that may reach a vector n+1 moves from the end."""
        gap = _moves_left(u, self.n) - self.n - 1
        return self.moves(u, gap == 1) if gap < 2 else iter(())


def _moves_left(vec: _Vec, n: int) -> int:
    """LB(vec): a lower bound on the moves from vec to the end."""
    off = [d for d, p in enumerate(vec) if p != n]
    return len(off) + 2 * vec[: off[-1]].count(n) if off else 0


def _orbit_size(rep: tuple[int, ...], n: int) -> int:
    """Number of vectors in the orbit: ways to place its k interior pegs."""
    return perm(n - 1, len(set(rep) - {0, n}))


def _ideal_orbits(n: int) -> Counter[tuple[int, ...]]:
    """Each ideal orbit's canonical vector mapped to its size.  Disk n sits
    alone on peg 0, so only disks 0..n-1 are tried, on interior pegs in
    first-appearance order: one try per orbit, Bell(n)-1 in all, streamed."""
    vecs: Iterator[tuple[int, ...]] = iter([()])
    for _ in range(n):
        vecs = (r + (p,) for r in vecs for p in range(1, min(max(r, default=0) + 2, n)))
    ideal = ((*r, 0) for r in vecs)
    return Counter({v: _orbit_size(v, n) for v in ideal if is_ideal_state(v)})


def _pair_orbits(n: int) -> Counter[tuple[int, ...]]:
    """The ideal orbits built one per doubled pair k < k', each mapped to its
    (n-1)! vectors: disks 0..k'-1 on pegs 1..k', disk k' on peg k+1, the rest
    on pegs k'+1..n-1 and disk n on peg 0.  Shares no code with the filter."""
    pairs = ((k, k2) for k2 in range(n) for k in range(k2))
    return Counter({(*range(1, k2 + 1), k + 1, *range(k2 + 1, n), 0): perm(n - 1)
                    for k, k2 in pairs})


def _successors(
    vec: tuple[int, ...], n: int, targets: Sequence[int]
) -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
    """(disk, from, to, next vector) for each move onto ``targets``, in
    (disk, from, to) order when the targets are sorted."""
    tops = dict(zip(reversed(vec), range(n, -1, -1)))  # smallest disk wins
    for disk in sorted(tops.values()):
        from_peg = vec[disk]
        for to_peg in targets:
            top = tops.get(to_peg)
            if to_peg != from_peg and (top is None or top > disk):
                yield disk, from_peg, to_peg, vec[:disk] + (to_peg,) + vec[disk + 1 :]


def _search(n: int, budget_states: int, depth: int) -> tuple[_Dist, _Dist, _Orbits]:
    """Layered breadth-first search over orbits from the start, to ``depth`` moves:
    each visited orbit's distance and orbit-total count of shortest paths from
    the start, exact at every depth reached, and the relabellings it built.
    Raises BudgetExceededError past ``budget_states`` orbits."""
    check_int(n, "n", 2)
    check_int(budget_states, "budget_states", 1)
    orbits = _Orbits(n)
    dist = {(0,) * (n + 1): 0}
    count = dict.fromkeys(dist, 1)
    frontier = list(dist)
    for level in range(1, depth + 1):
        nxt = []
        for u in frontier:
            paths_u = count[u]
            for w, times in orbits.moves(u):
                seen = dist.get(w)
                if seen is None:
                    dist[w] = level
                    count[w] = paths_u * times
                    nxt.append(w)
                    if len(dist) > budget_states:
                        raise BudgetExceededError(
                            f"the search for n={n} visits more than {budget_states} "
                            f"peg-symmetry orbits, over the budget; raise the budget "
                            f"to search it"
                        )
                elif seen == level:
                    count[w] += paths_u * times
        frontier = nxt
    return dist, count, orbits


def _cut(n: int, budget_states: int) -> tuple[_Dist, _Dist, _Orbits, int | None]:
    """The search cut at depth n+1, its orbits, and its least d(o) + d(swap o), or None."""
    dist, count, orbits = _search(n, budget_states, n + 1)
    inside = (d + dist[s] for o, d in dist.items() if (s := orbits.swap(o)) in dist)
    return dist, count, orbits, min(inside, default=None)


def _meet_in_the_middle(n: int, budget_states: int) -> tuple[
    _Dist, _Dist, _Orbits, _Dist, int | None
]:
    """The cut search met in the middle: its distances, counts and orbits, the
    mid layer (the orbits n+1 moves into a shortest win) mapped to each of its
    vectors' shortest routes on to the end, and the minimum win, or None if no
    win takes 2n+3 moves or fewer.  With no win inside the cut, the probe finds
    each depth-(n+1) orbit's moves onto the swap s of one, C(s)/|s| routes each,
    among the moves that ``_Orbits.probe`` keeps by the lower bound LB."""
    dist, count, orbits, min_win = _cut(n, budget_states)
    last = [o for o, d in dist.items() if d == n + 1]
    if min_win is None:
        closing = {orbits.swap(s): count[s] // _orbit_size(s, n) for s in last}
        ends = ((o, sum(closing.get(w, 0) * m for w, m in orbits.probe(o))) for o in last)
    else:  # the state n+1 moves into a win inside the cut has its swap there too
        swaps = ((o, orbits.swap(o)) for o in last)
        ends = ((o, count[s] // _orbit_size(s, n)) for o, s in swaps
                if dist.get(s) == min_win - n - 1)
    mid = {o: e for o, e in ends if e}
    return dist, count, orbits, mid, min_win or (2 * n + 3 if mid else None)


def _met(min_win: int | None, n: int) -> int:
    """The cut's minimum win; raises DomainError when the cut met no win."""
    if min_win is None:
        raise DomainError(f"the search for n={n} cut at depth {n + 1} meets no win")
    return min_win


def shortest_win_length(n: int, *, budget_states: int = DEFAULT_STATE_BUDGET) -> int:
    """Minimum number of moves to win, met in the middle of the cut search."""
    return _met(_meet_in_the_middle(n, budget_states)[-1], n)


def _win_moves(n: int) -> list[tuple[int, int, int]]:
    """(disk, from, to) of a 2n+3-move win.  For n >= 3 it parks disks 0
    and 1 on peg 2 and disk 2 on peg 1, spreads disks 3..n-1 one per peg
    (ideal after move n+1), sends disk n home, clears disk 0 onto the empty
    source and gathers the rest on peg n, largest first."""
    if n == 2:
        return [(0, 0, 2), (1, 0, 1), (0, 2, 1), (2, 0, 2), (0, 1, 0), (1, 1, 2), (0, 0, 2)]
    return [
        (0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 0, 1),
        *((d, 0, d) for d in range(3, n + 1)),
        (0, 2, 0),
        *((d, d, n) for d in range(n - 1, 2, -1)),
        (2, 1, n), (1, 2, n), (0, 0, n),
    ]


def shortest_strategy(n: int, *, budget_states: int = DEFAULT_STATE_BUDGET) -> Strategy:
    """One minimum-length winning strategy, built and then certified.

    The moves are the fixed 2n+3-move pattern of ``_win_moves``, equal to the
    lexicographically smallest shortest win wherever that was computed (n =
    2..8); ``Strategy`` checks each move.  With no win inside the cut none is
    shorter, and the cut meets this one when the state after move n+1 and the
    swap of the state after move n+2 sit at depth n+1.  Raises DomainError if
    the cut meets no win or the moves are not a win of the minimum length.
    """
    dist, _, orbits, min_win = _cut(n, budget_states)
    strategy = Strategy(n, tuple(HanoiMove(*m) for m in _win_moves(n)))
    around = zip((orbits, orbits.swap), strategy.states[n + 1 :])  # after moves n+1 and n+2
    met = [dist.get(orbit(s.pegs)) for orbit, s in around] == [n + 1, n + 1]
    min_win = _met(min_win or (2 * n + 3 if met else None), n)
    if (end := strategy.states[-1]) != ending_state(n) or len(strategy.moves) != min_win:
        raise DomainError(
            f"the built strategy for n={n} ends at {end.to_text()} after "
            f"{len(strategy.moves)} moves, not a win of the minimum {min_win} moves"
        )
    return strategy


def dot_ideal_lines(n: int, *, budget_states: int = DEFAULT_STATE_BUDGET) -> Iterator[str]:
    """The lines of a DOT digraph of every minimal move sequence from the
    start to an ideal state, streamed in print order.

    A state k <= n+1 moves into a shortest win is one k moves from the start
    with a neighbour k+1 moves into one, so the orbits on a win are marked back
    from the mid layer; the tree has one node per shortest route to them.  The
    search, marking and node count run first, so BudgetExceededError (nodes
    over ``budget_states``) and DomainError (no win met) come before any line.
    Where flags (a)-(c) of ``optimal_strategies_through_ideal`` hold, the paths
    are the shortest routes to the ideal states.  Children come in (disk, from,
    to) order, so the leftmost path starts ``shortest_strategy``; found once per
    orbit, they map to each vector: the representative's interior pegs go to the
    vector's in order of first appearance, then to its empty ones, ascending.
    """
    dist, count, orbits, mid, min_win = _meet_in_the_middle(n, budget_states)
    _met(min_win, n)
    on_win = [mid.keys()]  # on_win[k]: the orbits k moves into a shortest win
    for k in range(n, -1, -1):
        steps = (w for o in on_win[0] for w, _ in orbits.moves(o))
        on_win.insert(0, {w for w in steps if dist.get(w) == k})
    nodes = sum(count[o] for layer in on_win for o in layer)
    if nodes > budget_states:
        raise BudgetExceededError(
            f"the DOT tree for n={n} has {nodes} nodes, over the budget of "
            f"{budget_states}; raise the budget to draw it"
        )
    moves: dict[_Vec, list[tuple[int, int]]] = {}  # (disk, to) per orbit, at one depth each
    children: dict[_Vec, list[tuple[_Vec, str]]] = {}  # per vector, with label texts

    def on_a_win(vec: _Vec, depth: int) -> list[tuple[_Vec, str]]:
        found = children.get(vec)
        if found is None:
            order = [p for p in dict.fromkeys(vec) if 0 < p < n]
            peg = [0, *order, *(p for p in range(1, n) if p not in order), n]  # label -> peg
            rep = orbits(vec)
            if rep not in moves:
                steps = _successors(rep, n, range(n + 1))
                moves[rep] = [(d, t) for d, _, t, w in steps if orbits(w) in on_win[depth]]
            found = children[vec] = [
                (child := vec[:d] + (to,) + vec[d + 1 :], vector_text(child))
                for d, to in sorted((d, peg[to]) for d, to in moves[rep])
            ]
        return found

    def walk() -> Iterator[str]:
        yield "digraph ideal_tree {"
        yield "  node [shape=box];"
        yield f'  s0 [label="{vector_text((0,) * (n + 1))}"];'
        stack = [(0, iter(on_a_win((0,) * (n + 1), 1)))]  # (node id, children left)
        last = 0
        while stack:
            node_id, rest = stack[-1]
            for vec, label in rest:
                last += 1
                if len(stack) <= n:  # the child's depth
                    yield f'  s{last} [label="{label}"];'
                    stack.append((last, iter(on_a_win(vec, len(stack) + 1))))
                    break
                yield f'  s{last} [label="{label}", style=bold];'  # a leaf at depth n+1
                yield f"  s{node_id} -> s{last};"
            else:  # every child done: the edge into this node follows its subtree
                stack.pop()
                if stack:
                    yield f"  s{stack[-1][0]} -> s{node_id};"
        yield "}"

    return walk()


@dataclass(frozen=True)
class IdealLayerReport:
    """Exhaustive shortest-path analysis of the ideal layer.

    Flags: (a) every ideal state is exactly n+1 moves from the start,
    (b) exactly n+2 moves from the end, and (c) every minimum-length win
    passes through exactly one ideal state, right after move n+1.
    ``min_win_moves`` is None when no win takes 2n+3 moves or fewer.
    """

    n: int
    ideal_count: int
    min_win_moves: int | None
    ideal_at_level: int
    shortest_path_count: int
    flag_a: bool
    flag_b: bool
    flag_c: bool

    @property
    def ok(self) -> bool:
        flags = self.flag_a and self.flag_b and self.flag_c
        return flags and self.min_win_moves == 2 * self.n + 3

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "ideal_count": self.ideal_count,
            "min_win_moves": self.min_win_moves,
            "ideal_at_level": self.ideal_at_level,
            "shortest_paths": self.shortest_path_count,
            "flags": {"a": self.flag_a, "b": self.flag_b, "c": self.flag_c},
        }


def optimal_strategies_through_ideal(
    n: int, *, budget_states: int = DEFAULT_STATE_BUDGET
) -> IdealLayerReport:
    """Verify, not assume, how minimum-length wins relate to ideal states.

    The cut search met in the middle gives the minimum win L.  On a shortest
    win the state after k moves is k from the start and L-k from the end, so
    given (a), (b) and L = 2n+3, flag (c) holds when the mid layer is the
    ideal set; both are unions of orbits.  An orbit is n+2 from the end when
    its swap lies past the cut and the probe saw it close a win.  A mid-layer
    orbit O carries C(O) times its routes on to the end in shortest wins.  The
    ideal orbits are built, one per doubled pair, by ``_pair_orbits``.
    """
    dist, count, orbits, mid_layer, min_win = _meet_in_the_middle(n, budget_states)
    ideal = _pair_orbits(n)
    flag_a = all(dist.get(o) == n + 1 for o in ideal)
    flag_b = all(o in mid_layer and orbits.swap(o) not in dist for o in ideal)
    path_count = sum(count[o] * ends for o, ends in mid_layer.items())
    flag_c = flag_a and flag_b and min_win == 2 * n + 3 and mid_layer.keys() == ideal.keys()
    return IdealLayerReport(
        n=n, ideal_count=ideal.total(), min_win_moves=min_win, ideal_at_level=n + 1,
        shortest_path_count=path_count, flag_a=flag_a, flag_b=flag_b, flag_c=flag_c,
    )
