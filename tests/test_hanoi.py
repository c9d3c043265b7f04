"""States, moves, ideal states and the state-graph searches."""

import hashlib
import re
import tracemalloc
from collections import Counter
from enum import IntEnum
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkhanoi import hanoi
from parkhanoi import (
    BudgetExceededError,
    DomainError,
    HanoiMove,
    HanoiState,
    IdealStateWitness,
    IllegalMoveError,
    Strategy,
    ValidationError,
    apply_move,
    dot_ideal_lines,
    ending_state,
    enumerate_ideal_states,
    ideal_state_lines,
    ideal_witness,
    is_ideal_state,
    lah_count,
    legal_moves,
    optimal_strategies_through_ideal,
    shortest_strategy,
    shortest_win_length,
    starting_state,
)

from oracles import (
    bfs_layers,
    dot_tree,
    ideal_by_definition,
    ideal_layer_report,
    ideal_route_count,
    ideal_set_brute,
    ideal_states_lex,
    lexicographic_shortest_win,
    neighbors_naive,
    orbit_count,
    orbit_key,
    shortest_win_count,
    shortest_wins_full_cube,
    tops_naive,
    vector_oracle,
)

IDEAL_N3 = [
    (1, 1, 2, 0),
    (1, 2, 1, 0),
    (1, 2, 2, 0),
    (2, 1, 1, 0),
    (2, 1, 2, 0),
    (2, 2, 1, 0),
]


def states(max_n=5):
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(*([st.integers(min_value=0, max_value=n)] * (n + 1)))
    )


def test_starting_and_ending_states():
    assert starting_state(3).pegs == (0, 0, 0, 0)
    assert starting_state(2).pegs == (0, 0, 0)
    assert ending_state(3).pegs == (3, 3, 3, 3)
    for bad in (1, 0, -1, 2.0):
        with pytest.raises(ValidationError):
            starting_state(bad)


def test_state_validation():
    with pytest.raises(ValidationError):
        HanoiState((0, 0))  # n < 2
    with pytest.raises(ValidationError):
        HanoiState((0, 0, 4, 0))  # peg out of range
    with pytest.raises(ValidationError):
        HanoiState.from_text("0,zero,0,0")
    assert HanoiState.from_text("2,2,1,0").to_text() == "2,2,1,0"


class Peg(IntEnum):
    SOURCE = 0
    ONE = 1
    TWO = 2


def test_state_accepts_exactly_the_integers():
    assert HanoiState((Peg.TWO, Peg.TWO, Peg.ONE, Peg.SOURCE)).pegs == (2, 2, 1, 0)
    listed = HanoiState([2, 2, 1, 0])
    assert type(listed.pegs) is tuple and listed.pegs == (2, 2, 1, 0)
    with pytest.raises(ValidationError, match=r"^peg of disk 1 is not an integer: True$"):
        HanoiState((2, True, 1, 0))
    with pytest.raises(ValidationError, match=r"^disk 2 sits on peg 4, outside 0\.\.3$"):
        HanoiState((0, 0, 4, 0))


@pytest.mark.parametrize("n", range(2, 5))
def test_state_text_over_the_cube(n):
    for pegs in product(range(n + 1), repeat=n + 1):
        state = HanoiState(pegs)
        assert state.to_text() == ",".join(map(str, pegs))
        assert HanoiState.from_text(state.to_text()) == state


def test_state_text_has_no_size_ceiling():
    pegs = tuple(range(300, -1, -1)) + (300, 0)  # n = 302, every peg 0..300 used
    state = HanoiState(pegs)
    assert state.to_text() == ",".join(map(str, pegs))
    assert HanoiState.from_text(state.to_text()) == state
    assert HanoiState((Peg.TWO, Peg.TWO, Peg.ONE, Peg.SOURCE)).to_text() == "2,2,1,0"


def test_legal_moves_from_start():
    moves = legal_moves(starting_state(3))
    assert moves == {HanoiMove(0, 0, 1), HanoiMove(0, 0, 2), HanoiMove(0, 0, 3)}


def test_legal_moves_mid_game():
    # disk 0 tops peg 2, disk 2 tops peg 1, disk 3 alone on peg 0, peg 3 empty
    moves = legal_moves((2, 2, 1, 0))
    assert moves == {
        HanoiMove(0, 2, 0),
        HanoiMove(0, 2, 1),
        HanoiMove(0, 2, 3),
        HanoiMove(2, 1, 0),
        HanoiMove(2, 1, 3),
        HanoiMove(3, 0, 3),
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_legal_moves_match_naive_neighbors(n):
    for vec in product(range(n + 1), repeat=n + 1):
        moved = sorted(apply_move(vec, move).pegs for move in legal_moves(vec))
        assert moved == sorted(neighbors_naive(vec))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_top_disks_match_naive_tops(n):
    for vec in product(range(n + 1), repeat=n + 1):
        assert HanoiState(vec).top_disks() == tops_naive(vec)


@given(states())
def test_no_move_lands_on_a_smaller_disk(vec):
    # the tops come from the oracle, not from the kernel's own expression
    state = HanoiState(vec)
    tops = tops_naive(vec)
    for move in legal_moves(state):
        target = tops.get(move.to_peg)
        assert target is None or target > move.disk


def test_apply_move_examples():
    assert apply_move((0, 0, 0, 0), HanoiMove(0, 0, 1)).pegs == (1, 0, 0, 0)
    assert apply_move((1, 0, 0, 0), HanoiMove(1, 0, 2)).pegs == (1, 2, 0, 0)


def test_apply_move_rejects_illegal():
    with pytest.raises(IllegalMoveError):
        apply_move((0, 0, 0, 0), HanoiMove(1, 0, 2))  # disk 1 is buried
    with pytest.raises(IllegalMoveError):
        apply_move((1, 0, 0, 0), HanoiMove(1, 0, 1))  # disk 0 tops peg 1
    with pytest.raises(ValidationError):
        apply_move((0, 0, 0, 0), HanoiMove(0, 0, 9))  # peg out of range
    for raw in [(0, 0, 1), None]:  # not a HanoiMove
        with pytest.raises(ValidationError, match=r"^a move must be a HanoiMove, got "):
            apply_move((0, 0, 0), raw)


def test_move_validation():
    with pytest.raises(ValidationError):
        HanoiMove(0, 1, 1)
    with pytest.raises(ValidationError):
        HanoiMove(-1, 0, 1)
    assert HanoiMove(0, 1, 2).reversed() == HanoiMove(0, 2, 1)
    assert HanoiMove(0, 1, 2).to_json_obj() == {"disk": 0, "from": 1, "to": 2}


@given(states())
def test_every_move_is_reversible(vec):
    state = HanoiState(vec)
    for move in legal_moves(state):
        after = apply_move(state, move)
        back = move.reversed()
        assert back in legal_moves(after)
        assert apply_move(after, back) == state


def test_ideal_examples():
    assert is_ideal_state((2, 2, 1, 0))
    assert is_ideal_state((1, 2, 1, 0))
    assert not is_ideal_state((0, 0, 0, 0))
    assert not is_ideal_state((3, 1, 2, 0))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ideal_matches_positional_definition(n):
    for vec in product(range(n + 1), repeat=n + 1):
        assert is_ideal_state(vec) == ideal_by_definition(vec)


def test_witness_round_trip():
    for vec in IDEAL_N3:
        witness = ideal_witness(vec)
        assert witness.to_state().pegs == vec
    w = ideal_witness((1, 2, 1, 0))
    assert w.doubled_peg == 1
    assert w.doubled_disks == (0, 2)  # disk 0 may be part of the pair
    assert w.singleton_assignment == ((1, 2),)


@pytest.mark.parametrize(
    "fields, message",
    [
        (
            (1, (0, 1), ((2, 1),)),
            "not an ideal state: exactly one peg must hold exactly two of the disks 0..n-1",
        ),
        (
            (3, (0, 1), ((2, 1),)),
            "not an ideal state: the doubled peg is 3; it must be an interior peg (1..2)",
        ),
        (
            (1, (0, 1), ((2, 2), (3, 4))),
            "not an ideal state: the singly covered pegs are [2, 4]; they must be "
            "exactly the other interior pegs [2, 3]",
        ),
        ((1, (0, 0), ((2, 2),)), "witness disks must be exactly 0..n-1, each once"),
        ((1, (0, 1), ((3, 2),)), "witness disks must be exactly 0..n-1, each once"),
    ],
    ids=["tripled peg", "exterior peg", "uncovered peg", "repeated disk", "disk out of range"],
)
def test_witness_is_checked_as_its_state(fields, message):
    # a directly built witness is checked by the ideal-state test of its state
    with pytest.raises(ValidationError) as exc:
        IdealStateWitness(*fields)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "fields",
    [
        (1, 5, ()),
        (1, (0, 1), 5),
        (1, (0, 1), ((2,),)),
        (1, (0, 1), ((2, 1, 0),)),
        (1, (0, 1), (2,)),
    ],
    ids=["pair not iterable", "singles not iterable", "short single", "long single", "int single"],
)
def test_witness_refuses_malformed_parts(fields):
    with pytest.raises(ValidationError) as exc:
        IdealStateWitness(*fields)
    assert str(exc.value) == "a witness needs a disk pair and (disk, peg) singles"


def test_witness_built_directly_equals_the_decomposition():
    assert IdealStateWitness(2, (1, 0), ((2, 1),)) == ideal_witness((2, 2, 1, 0))


def test_witness_rejects_non_ideal():
    with pytest.raises(DomainError) as exc:
        ideal_witness((0, 0, 0, 0))
    assert "exactly two" in str(exc.value)
    with pytest.raises(DomainError) as exc:
        ideal_witness((1, 2, 3, 1))
    assert "source peg" in str(exc.value)


def test_enumerate_ideal_states_n3():
    got = [s.pegs for s in enumerate_ideal_states(3)]
    assert got == IDEAL_N3  # lexicographic
    assert set(got) == ideal_set_brute(3)


def test_enumerate_ideal_states_streams(watch):
    built = watch(HanoiState, "__post_init__")
    assert next(enumerate_ideal_states(6)).pegs == (1, 1, 2, 3, 4, 5, 0)
    assert len(built) == 1


def test_enumerate_ideal_states_n2():
    assert [s.pegs for s in enumerate_ideal_states(2)] == [(1, 1, 0)]


@pytest.mark.parametrize("n", range(2, 9))
def test_enumerator_is_the_definition_in_order(n):
    # the tails after the last two unused pegs come from a table; the order must not move
    assert [s.pegs for s in enumerate_ideal_states(n)] == ideal_states_lex(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_ideal_state_lines_are_the_definition_in_order(n):
    # the text listing skips HanoiState, so its check shares no package code
    expected = [",".join(map(str, x)) for x in ideal_states_lex(n)]
    assert list(ideal_state_lines(n)) == expected


@pytest.mark.parametrize("n", [0, -1, True, "3", 2.0, None])
def test_ideal_state_lines_refuse_a_bad_n_at_the_call(n):
    with pytest.raises(ValidationError):
        ideal_state_lines(n)


def test_ideal_streams_start_without_a_permutation_table():
    # n = 12 has about 2.6 billion states: a tail table sized by the
    # permutations of the unused pegs would hang before the first one
    first = (1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0)
    assert next(ideal_state_lines(12)) == ",".join(map(str, first))
    assert next(enumerate_ideal_states(12)).pegs == first


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerator_equals_brute_filter(n):
    assert {s.pegs for s in enumerate_ideal_states(n)} == ideal_set_brute(n)


@pytest.mark.parametrize("n", range(2, 7))
def test_enumerator_count(n):
    assert sum(1 for _ in enumerate_ideal_states(n)) == lah_count(n)


@pytest.mark.parametrize("n", range(2, 8))
def test_ideal_orbits_are_the_enumerated_orbits(n):
    # the orbit filter and the constructive enumerator share no code
    enumerated = map(hanoi._Orbits(n), (s.pegs for s in enumerate_ideal_states(n)))
    assert hanoi._ideal_orbits(n) == Counter(enumerated)


@pytest.mark.parametrize("n", range(1, 10))
def test_ideal_orbits_total_is_lah(n):
    orbits = hanoi._ideal_orbits(n)
    assert orbits.total() == lah_count(n)
    assert (orbits == Counter()) == (n == 1)


def test_enumerate_rejects_small_n():
    # n = 1 has no interior peg and so no ideal state: an empty stream, as
    # the displacement-one stream is empty there
    with pytest.raises(ValidationError):
        enumerate_ideal_states(0)
    assert list(enumerate_ideal_states(1)) == []


@pytest.mark.parametrize("n,expected", [(2, 7), (3, 9), (4, 11)])
def test_shortest_win_length(n, expected):
    assert shortest_win_length(n) == expected


def test_search_budget():
    with pytest.raises(BudgetExceededError):
        shortest_win_length(4, budget_states=50)
    with pytest.raises(BudgetExceededError):
        optimal_strategies_through_ideal(4, budget_states=50)
    with pytest.raises(BudgetExceededError):
        shortest_strategy(4, budget_states=50)
    with pytest.raises(BudgetExceededError):
        dot_ideal_lines(4, budget_states=50)


# orbits within n+1 moves of the start, which the depth-cut search visits
CUT_ORBITS = {2: 9, 3: 28, 4: 77, 5: 210, 6: 573}
# nodes of the DOT tree: shortest routes to the states on a shortest win, to depth n+1
TREE_NODES = {2: 4, 3: 28, 4: 212, 5: 1914, 6: 19302}


@pytest.mark.parametrize("n", range(2, 7))
def test_budget_counts_visited_orbits(n):
    # every entry point fits a budget of exactly the orbits its search visits
    # and not one less: the search cut at depth n+1 visits the orbits within
    # n+1 moves, and the DOT tree must also fit its nodes in the budget
    for search, budget in (
        (shortest_win_length, CUT_ORBITS[n]),
        (dot_ideal_lines, max(CUT_ORBITS[n], TREE_NODES[n])),
        (shortest_strategy, CUT_ORBITS[n]),
        (optimal_strategies_through_ideal, CUT_ORBITS[n]),
    ):
        search(n, budget_states=budget)
        with pytest.raises(BudgetExceededError):
            search(n, budget_states=budget - 1)
    assert shortest_win_length(n, budget_states=CUT_ORBITS[n]) == 2 * n + 3


@pytest.mark.parametrize("n", range(2, 7))
def test_cut_orbits_are_the_orbits_within_n_plus_1(n):
    within = (v for v, d in vector_oracle(n).dist_start.items() if d <= n + 1)
    assert len(set(map(orbit_key, within))) == CUT_ORBITS[n]


@pytest.mark.parametrize("n", range(2, 7))  # n = 7 agrees too, outside the suite
def test_cut_orbits_match_the_vector_oracle(n):
    # the kernel, orbit by orbit, against a vector-level search that shares no
    # code with it: an orbit's distance is each of its vectors' distance, and
    # its count the sum of their shortest-path counts
    oracle = vector_oracle(n)
    orbits: dict[tuple, list[tuple[int, ...]]] = {}
    for vec in oracle.dist_start:
        orbits.setdefault(orbit_key(vec), []).append(vec)
    dist, count, _ = hanoi._search(n, hanoi.DEFAULT_STATE_BUDGET, n + 2)
    assert len(dist) == len(orbits)
    assert {orbit_key(o) for o in dist} == orbits.keys()
    for o, d in dist.items():
        vecs = orbits[orbit_key(o)]
        assert {oracle.dist_start[v] for v in vecs} == {d}
        assert count[o] == sum(oracle.ways_start[v] for v in vecs)


def dot_text(n):
    # the whole DOT text: the CLI prints these lines, each with its newline
    return "\n".join(dot_ideal_lines(n))


def test_dot_tree_runs_one_search_and_builds_no_state(watch):
    built, searches = watch(HanoiState, "__post_init__"), watch(hanoi, "_search")
    dot_text(5)
    assert (len(built), len(searches)) == (0, 1)
    assert [depth for *_, depth in searches] == [5 + 1]  # cut at depth n+1


@pytest.mark.parametrize("n, leaves", [(2, 1), (3, 10), (4, 90), (5, 840), (6, 8400)])
def test_dot_tree_leaves_match_the_closed_form(n, leaves):
    # the closed form shares no code with the cut search
    assert dot_text(n).count(", style=bold];") == leaves == ideal_route_count(n)


def test_dot_lines_raise_at_the_call():
    # the search, the marking and the node count run before the first line,
    # so the budget error comes from the call itself, before any next
    with pytest.raises(BudgetExceededError, match="has 212 nodes, over the budget of 211"):
        dot_ideal_lines(4, budget_states=TREE_NODES[4] - 1)


def test_dot_lines_first_line_comes_before_the_tree():
    # the joined n = 7 text is 13 MB; its first line needs only the cut search
    tracemalloc.start()
    try:
        first = next(dot_ideal_lines(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == "digraph ideal_tree {"
    assert peak < 4 * 2**20


@pytest.mark.parametrize("n", range(2, 7))  # n = 7 agrees too, outside the suite
def test_dot_lines_are_the_lines_of_the_tree(n):
    lines = list(dot_ideal_lines(n))
    assert "\n".join(lines) == dot_tree(n)
    assert not any("\n" in line for line in lines)


def test_dot_tree_n6_digest():
    # the goldens stop at n = 5; this pins the larger tree byte for byte
    digest = hashlib.sha256(dot_text(6).encode()).hexdigest()
    assert digest == "a383c190be4156cc048c92ddda91d27e2eb49e59b0cf6dea5d1d376633bf1a89"


@pytest.mark.parametrize("n", range(2, 7))
def test_dot_tree_leftmost_chain_is_the_solve_walk(n):
    # the tree and solve keep a child by the same shortest-win rule, and
    # both list children in (disk, from, to) order
    dot = dot_text(n)
    labels = dict(re.findall(r'^  s(\d+) \[label="([\d,]+)"', dot, re.MULTILINE))
    first_child: dict[str, str] = {}
    for parent, child in re.findall(r"^  s(\d+) -> s(\d+);$", dot, re.MULTILINE):
        first_child.setdefault(parent, child)
    chain, node = [], "0"
    while node is not None:
        chain.append(labels[node])
        node = first_child.get(node)
    assert chain == [s.to_text() for s in shortest_strategy(n).states[: n + 2]]


def test_orbit_closed_form_values():
    assert [orbit_count(n) for n in range(2, 9)] == [
        27, 136, 653, 3235, 16971, 94783, 562540
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_cut_report_equals_the_vector_oracle_report(n):
    report = optimal_strategies_through_ideal(n)
    assert report == ideal_layer_report(n)  # every field
    assert report.ok


@pytest.mark.parametrize("n", range(2, 10))  # criterion 8b pins n = 6..9 as well
def test_shortest_wins_match_the_closed_form(ideal_layer, n):
    report = ideal_layer(n)
    assert report.ok
    assert report.shortest_path_count == shortest_win_count(n)


@pytest.fixture
def shallow_cut(monkeypatch):
    """Cuts the search two moves short of depth n+1, where it meets no win."""
    search = hanoi._search
    monkeypatch.setattr(hanoi, "_search", lambda n, b, depth: search(n, b, depth - 2))


def test_cut_without_a_meeting_is_not_ok(shallow_cut):
    # a cut two moves short of n+1 meets no win: the report fails rather
    # than assuming the minimum
    report = optimal_strategies_through_ideal(4)
    assert report.min_win_moves is None and report.shortest_path_count == 0
    assert not (report.ok or report.flag_a or report.flag_b or report.flag_c)


@pytest.mark.parametrize("call", [shortest_win_length, dot_ideal_lines, shortest_strategy])
def test_cut_without_a_meeting_raises(shallow_cut, call):
    with pytest.raises(DomainError, match=r"^the search for n=4 cut at depth 5 meets no win$"):
        call(4)


@pytest.mark.parametrize("n", range(2, 7))
def test_probe_counts_each_mid_orbit_as_the_vector_oracle(n):
    # the last layer is never stored: each mid orbit's wins, C(o) times the
    # routes on from one of its vectors, against the vectors' own counts
    oracle = vector_oracle(n)
    orbits: dict[tuple, list[tuple[int, ...]]] = {}
    for vec in oracle.dist_start:
        orbits.setdefault(orbit_key(vec), []).append(vec)
    _, count, _, mid, min_win = hanoi._meet_in_the_middle(n, hanoi.DEFAULT_STATE_BUDGET)
    assert min_win == oracle.min_win == 2 * n + 3
    assert {orbit_key(o) for o in mid} == {orbit_key(v) for v in oracle.on_win[n + 1]}
    for o, ends in mid.items():
        vecs = orbits[orbit_key(o)]
        assert count[o] * ends == sum(oracle.ways_start[v] * oracle.ways_end[v] for v in vecs)


@pytest.mark.parametrize("n", range(2, 5))
def test_moves_left_bounds_the_distance_to_the_end(n):
    # the probe's prune rests on LB(v) <= d_end(v), over the whole cube
    end = (n,) * (n + 1)
    for d_end, _ in bfs_layers(end):
        pass  # the maps grow in place: d_end now holds the whole cube
    assert len(d_end) == (n + 1) ** (n + 1)
    assert d_end[(0,) * (n + 1)] == 2 * n + 3
    assert all(hanoi._moves_left(v, n) <= d for v, d in d_end.items())
    assert hanoi._moves_left(end, n) == 0


@pytest.mark.parametrize("n", range(2, 5))
def test_probe_keeps_every_move_that_may_close_a_win(n):
    # every move v -> w with LB(w) <= n+1 may land n+1 moves from the end, so
    # the probe of v's orbit makes it, with its full weight; the orbits with
    # LB = n+2 and their moves off peg n are the cases a looser prune drops
    orbits = hanoi._Orbits(n)
    probed: dict[tuple[int, ...], Counter] = {}
    for v in product(range(n + 1), repeat=n + 1):
        o = orbits(v)
        if o not in probed:
            probed[o] = Counter()
            for w, times in orbits.probe(o):
                probed[o][w] += times
        needed = (w for w in neighbors_naive(v) if hanoi._moves_left(w, n) <= n + 1)
        for w, moves in Counter(map(orbits, needed)).items():
            assert probed[o][w] == moves, (v, w)
    gaps = Counter(hanoi._moves_left(o, n) - n - 1 for o in probed)
    assert gaps[1] and gaps[2]  # each pruned case is reached


@pytest.mark.parametrize("n", range(2, 10))
def test_built_ideal_orbits_are_the_filtered_ones(n):
    # one orbit per doubled pair, against the Bell(n) filter: no shared code
    assert hanoi._pair_orbits(n) == hanoi._ideal_orbits(n)
    assert len(hanoi._pair_orbits(n)) == n * (n - 1) // 2


@pytest.mark.parametrize("vec, min_win, wins", [((2, 2, 2), 3, 1), ((1, 1, 2), 6, 2)])
def test_a_win_inside_the_cut_is_the_minimum(monkeypatch, vec, min_win, wins):
    # a fake shortcut puts vec 3 moves from the start: the end, for a win of 3
    # moves, or the swap of the ideal state, for wins of 6 through it; either
    # lies inside the cut, so every entry point reports it and flag (b) fails
    search = hanoi._search

    def shortcut(n, budget, depth):
        dist, count, orbits = search(n, budget, depth)
        dist[vec], count[vec] = n + 1, 1
        return dist, count, orbits

    monkeypatch.setattr(hanoi, "_search", shortcut)
    assert shortest_win_length(2) == min_win
    report = optimal_strategies_through_ideal(2)
    assert (report.min_win_moves, report.shortest_path_count) == (min_win, wins)
    assert report.flag_a and not (report.flag_b or report.flag_c or report.ok)
    with pytest.raises(DomainError, match=f"after 7 moves, not a win of the minimum {min_win} "):
        shortest_strategy(2)


def test_strategy_the_cut_does_not_meet_is_refused(monkeypatch):
    # a legal 13-move win at n = 4 that idles first: the state after move 5 is
    # 3 moves from the start, so the cut certifies no win by it
    build = hanoi._win_moves
    monkeypatch.setattr(hanoi, "_win_moves", lambda n: [(0, 0, 1), (0, 1, 0), *build(n)])
    moves = [HanoiMove(*m) for m in hanoi._win_moves(4)]
    assert Strategy(4, moves).states[-1] == ending_state(4)
    with pytest.raises(DomainError, match=r"^the search for n=4 cut at depth 5 meets no win$"):
        shortest_strategy(4)


@pytest.mark.parametrize("n", range(2, 7))
def test_built_strategy_is_the_lexicographic_walk(n):
    moves = [(m.disk, m.from_peg, m.to_peg) for m in shortest_strategy(n).moves]
    assert moves == lexicographic_shortest_win(n)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda moves: moves[:-1], "ends at 0,4,4,4,4 after 10 moves"),
        (lambda moves: moves[1:], "disk 1 is not the top of peg 0"),
        (
            lambda moves: [*moves[:2], moves[3], moves[2], *moves[4:]],
            "peg 1 is topped by disk 0, smaller than disk 2",
        ),
        (lambda moves: [*moves, (0, 4, 0), (0, 0, 4)], "ends at 4,4,4,4,4 after 13 moves"),
    ],
    ids=["one short", "wrong peg", "buried disk", "detour"],
)
def test_corrupted_move_list_is_refused(monkeypatch, corrupt, message):
    build = hanoi._win_moves
    monkeypatch.setattr(hanoi, "_win_moves", lambda n: corrupt(build(n)))
    with pytest.raises(DomainError, match=message):
        shortest_strategy(4)


def test_win_pattern_is_a_legal_win_at_large_n():
    # the pattern wins at any n, through one ideal state after move n+1,
    # wherever the search can certify its length or not
    state = starting_state(40)
    states = [state]
    for move in hanoi._win_moves(40):
        state = apply_move(state, HanoiMove(*move))
        states.append(state)
    assert len(states) == 84 and state == ending_state(40)
    assert [is_ideal_state(s) for s in states] == [i == 41 for i in range(84)]


@pytest.mark.parametrize("n", range(2, 6))
def test_search_matches_full_cube_oracle(n):
    min_win, wins = shortest_wins_full_cube(n)
    assert shortest_win_length(n) == min_win
    report = optimal_strategies_through_ideal(n)
    assert (report.min_win_moves, report.shortest_path_count) == (min_win, wins)
    assert len(shortest_strategy(n).moves) == min_win


def test_whole_cube_is_reachable_and_valid():
    # every vector is a legal stacking, and the move graph connects them all
    seen = {starting_state(2)}
    frontier = [starting_state(2)]
    while frontier:
        state = frontier.pop()
        for move in legal_moves(state):
            neighbor = apply_move(state, move)  # validates the state
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    assert len(seen) == 3**3


def test_ideal_layer_report_n2():
    report = optimal_strategies_through_ideal(2)
    assert report.ideal_count == 1
    assert report.min_win_moves == 7
    assert report.ideal_at_level == 3
    assert report.flag_a and report.flag_b and report.flag_c
    assert report.ok


def test_ideal_layer_report_n3():
    report = optimal_strategies_through_ideal(3)
    assert report.ideal_count == 6
    assert report.min_win_moves == 9
    assert report.ideal_at_level == 4
    assert report.ok
    obj = report.to_json_obj()
    assert obj["flags"] == {"a": True, "b": True, "c": True}
    assert set(obj) == {
        "n",
        "ideal_count",
        "min_win_moves",
        "ideal_at_level",
        "shortest_paths",
        "flags",
    }


def test_ideal_layer_law_holds_through_n5():
    report = optimal_strategies_through_ideal(5)
    assert report.ok
    assert report.ideal_count == lah_count(5)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=4))
def test_shortest_strategy_is_minimal_and_through_ideal(n):
    strategy = shortest_strategy(n)
    assert len(strategy.moves) == 2 * n + 3
    assert strategy.states[-1] == ending_state(n)
    assert is_ideal_state(strategy.states[n + 1])
    assert [is_ideal_state(s) for s in strategy.states].count(True) == 1


def test_strategy_validation():
    s0 = starting_state(2)
    m = HanoiMove(0, 0, 1)
    s1 = apply_move(s0, m)
    strategy = Strategy(2, (m,))
    assert strategy.states == (s0, s1) and strategy.n == 2
    assert Strategy(2, ()).states == (s0,)
    with pytest.raises(IllegalMoveError, match=r"^disk 1 is not the top of peg 0$"):
        Strategy(2, (HanoiMove(1, 0, 1),))
    with pytest.raises(ValidationError, match="does not fit a game"):
        Strategy(2, (HanoiMove(0, 0, 3),))
    with pytest.raises(ValidationError):
        Strategy(1, ())


def test_strategy_coerces_moves_and_refuses_raw_moves():
    m = HanoiMove(0, 0, 1)
    assert Strategy(2, [m]).moves == (m,)
    with pytest.raises(ValidationError, match=r"^every move of a strategy must be a HanoiMove$"):
        Strategy(2, ((0, 0, 1),))


def test_shortest_strategy_applies_each_move_once(watch):
    # the strategy's states are built from its moves, not replayed to check them
    calls = watch(hanoi, "apply_move")
    assert len(shortest_strategy(5).moves) == len(calls) == 13


def test_strategy_json():
    strategy = shortest_strategy(2)
    obj = strategy.to_json_obj()
    assert isinstance(obj, list) and len(obj) == 7
    assert set(obj[0]) == {"disk", "from", "to"}
