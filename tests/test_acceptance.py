"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they happen.  Budgets and tolerances are fixed here, not configurable.
"""

import time
from itertools import product

import networkx as nx

from parkhanoi import (
    apply_move,
    cayley_count,
    ending_state,
    enumerate_ideal_states,
    enumerate_pf,
    enumerate_pf_displacement,
    is_displacement_one_characterized,
    is_ideal_state,
    lah_count,
    legal_moves,
    optimal_strategies_through_ideal,
    shortest_win_length,
    starting_state,
    verify_bijection,
)
from parkhanoi.cli import main as cli_main

from oracles import displacement_naive, ideal_set_brute, shortest_win_count


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_01_cayley_count():
    start = time.monotonic()
    mismatches = [
        n for n in range(1, 8) if sum(1 for _ in enumerate_pf(n)) != cayley_count(n)
    ]
    elapsed = time.monotonic() - start
    _report(
        "criterion 1: |PF(n)| = (n+1)^(n-1) for n=1..7 by full scan",
        not mismatches and elapsed < 30.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_02_lah_count_parking_side():
    start = time.monotonic()
    mismatches = [
        n
        for n in range(1, 8)
        if sum(1 for _ in enumerate_pf_displacement(n, 1)) != lah_count(n)
    ]
    elapsed = time.monotonic() - start
    _report(
        "criterion 2: |PF(n, d=1)| = n!(n-1)/2 for n=1..7 by exhaustive filter",
        not mismatches and elapsed < 30.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_03_lah_count_tower_side():
    start = time.monotonic()
    count_ok = all(
        sum(1 for _ in enumerate_ideal_states(n)) == lah_count(n) for n in range(2, 9)
    )
    filter_ok = all(
        {s.pegs for s in enumerate_ideal_states(n)} == ideal_set_brute(n)
        for n in range(2, 5)
    )
    elapsed = time.monotonic() - start
    _report(
        "criterion 3: ideal-state counts match n!(n-1)/2 for n=2..8, and the "
        "constructive set equals the full-cube filter for n=2..4",
        count_ok and filter_ok and elapsed < 10.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_04_structural_equals_simulated_displacement_one():
    discrepancies = 0
    for n in range(1, 7):
        for prefs in product(range(1, n + 1), repeat=n):
            structural = is_displacement_one_characterized(prefs)
            simulated = displacement_naive(prefs) == 1
            if structural != simulated:
                discrepancies += 1
    _report(
        "criterion 4: structural displacement-one test agrees with "
        "simulate-then-check on all of [n]^n for n=1..6",
        discrepancies == 0,
        f"{discrepancies} discrepancies",
    )


def test_criterion_05_vector_ideal_test_equals_positional_definition():
    discrepancies = 0
    for n in range(2, 6):
        brute = ideal_set_brute(n)
        for vec in product(range(n + 1), repeat=n + 1):
            if is_ideal_state(vec) != (vec in brute):
                discrepancies += 1
    _report(
        "criterion 5: vector ideal-state test agrees with the positional "
        "definition on all of {0..n}^(n+1) for n=2..5",
        discrepancies == 0,
        f"{discrepancies} discrepancies",
    )


def test_criterion_06_bijection():
    start = time.monotonic()
    ok = True
    for n in range(1, 9):
        report = verify_bijection(n, check_image=(n <= 6))
        ok = ok and report.ok
        if n <= 6:
            ok = ok and report.brute_image_matches is True
    elapsed = time.monotonic() - start
    _report(
        "criterion 6: the map is a bijection with identity round trips for "
        "n=1..8, image checked against the exhaustive scan for n<=6",
        ok and elapsed < 15.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_07_minimum_win_length():
    start = time.monotonic()
    lengths = {n: shortest_win_length(n) for n in range(2, 6)}
    elapsed = time.monotonic() - start
    _report(
        "criterion 7: breadth-first search gives a 2n+3 move minimum win for n=2..5",
        all(lengths[n] == 2 * n + 3 for n in lengths) and elapsed < 5.0,
        f"{lengths}, {elapsed:.1f}s",
    )


def _state_graph(n):
    graph = nx.Graph()
    start = starting_state(n)
    frontier = [start]
    seen = {start}
    while frontier:
        state = frontier.pop()
        for move in legal_moves(state):
            neighbor = apply_move(state, move)
            graph.add_edge(state, neighbor)
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return graph


def test_criterion_08_ideal_layer_necessity():
    ok = True
    reports = {}
    for n in range(2, 5):
        report = optimal_strategies_through_ideal(n)
        reports[n] = report
        ok = (
            ok
            and report.flag_a
            and report.flag_b
            and report.flag_c
            and report.min_win_moves == 2 * n + 3
            and report.ideal_at_level == n + 1
        )
    # independent cross-check: walk every shortest win explicitly (n=2,3)
    for n in (2, 3):
        graph = _state_graph(n)
        paths = list(
            nx.all_shortest_paths(graph, starting_state(n), ending_state(n))
        )
        ok = ok and len(paths) == reports[n].shortest_path_count
        for path in paths:
            ideal_positions = [i for i, s in enumerate(path) if is_ideal_state(s)]
            ok = ok and ideal_positions == [n + 1]
    _report(
        "criterion 8: every minimum win visits exactly one ideal state, at "
        "move n+1, with ideal states n+1 from the start and n+2 from the "
        "end, for n=2..4",
        ok,
        f"shortest wins: { {n: r.shortest_path_count for n, r in reports.items()} }",
    )


# Shortest-win counts beyond the networkx cross-check: n = 6 was pinned
# from the full-cube breadth-first search over all 823,543 vectors; n = 7
# to 9 are certified by the closed form in ``oracles.shortest_win_count``.
SHORTEST_WINS_N6_FULL_CUBE = 68_880
SHORTEST_WINS_N7 = 997_920
SHORTEST_WINS_N8 = 15_029_280
SHORTEST_WINS_N9 = 236_839_680


def test_criterion_08b_ideal_layer_n6_to_n9(ideal_layer):
    start = time.monotonic()
    reports = {n: ideal_layer(n) for n in (6, 7, 8, 9)}
    elapsed = time.monotonic() - start
    ok = all(r.ok and r.ideal_at_level == n + 1 for n, r in reports.items())
    ok = ok and all(r.shortest_path_count == shortest_win_count(n) for n, r in reports.items())
    ok = ok and reports[6].shortest_path_count == SHORTEST_WINS_N6_FULL_CUBE
    ok = ok and reports[7].min_win_moves == 17
    ok = ok and reports[7].shortest_path_count == SHORTEST_WINS_N7
    ok = ok and reports[8].min_win_moves == 19
    ok = ok and reports[8].shortest_path_count == SHORTEST_WINS_N8
    ok = ok and reports[9].min_win_moves == 21
    ok = ok and reports[9].shortest_path_count == SHORTEST_WINS_N9
    _report(
        "criterion 8b: the ideal-layer law holds for n=6 (68,880 shortest wins, "
        "as the full-cube search found), n=7 (minimum win 17), n=8 (minimum "
        "win 19, 15,029,280 shortest wins, the closed form) and n=9 (minimum win "
        "21, 236,839,680 shortest wins, the closed form) within the default budget",
        ok,
        f"shortest wins: { {n: r.shortest_path_count for n, r in reports.items()} }, "
        f"{elapsed:.1f}s",
    )


def test_criterion_09_figure_golden(capsys):
    ideal_n3 = [s.pegs for s in enumerate_ideal_states(3)]
    golden = ideal_n3 == [
        (1, 1, 2, 0),
        (1, 2, 1, 0),
        (1, 2, 2, 0),
        (2, 1, 1, 0),
        (2, 1, 2, 0),
        (2, 2, 1, 0),
    ]
    exit_code = cli_main(["verify", "--n", "3"])
    capsys.readouterr()
    _report(
        "criterion 9: the six n=3 ideal states include (2,2,1,0) and "
        "'verify --n 3' exits 0",
        golden and (2, 2, 1, 0) in ideal_n3 and len(ideal_n3) == 6 and exit_code == 0,
        f"exit={exit_code}",
    )


def test_criterion_10_determinism(capsys):
    def streams():
        chunks = []
        for n in range(1, 6):
            chunks.append("\n".join(p.to_text() for p in enumerate_pf(n)))
            chunks.append(
                "\n".join(p.to_text() for p in enumerate_pf_displacement(n, 1))
            )
        for n in range(2, 6):
            chunks.append("\n".join(s.to_text() for s in enumerate_ideal_states(n)))
        return "\n".join(chunks).encode()

    first, second = streams(), streams()

    def verify_output():
        code = cli_main(["verify", "--n", "3"])
        out = capsys.readouterr().out
        return code, out.encode()

    code_a, report_a = verify_output()
    code_b, report_b = verify_output()
    _report(
        "criterion 10: repeated runs produce byte-identical enumeration "
        "streams and verification reports",
        first == second and report_a == report_b and code_a == code_b == 0,
        f"{len(first)} stream bytes, {len(report_a)} report bytes",
    )
