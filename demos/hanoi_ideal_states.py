#!/usr/bin/env python3
"""Ideal states of the Tower of Hanoi with as many pegs as disks.

The 4x4 game: disks 0..3 start stacked on peg 0 and must all reach
peg 3.  An ideal state parks the big disk alone, empties the target
peg, and spreads the other disks over the middle pegs with exactly one
doubled-up peg.  The search below confirms what makes them special.
"""

from parkhanoi import (
    enumerate_ideal_states,
    lah_count,
    legal_moves,
    make_record,
    optimal_strategies_through_ideal,
    shortest_strategy,
    shortest_win_length,
    starting_state,
)
from parkhanoi.cli import render_state


def main():
    n = 3
    start = starting_state(n)
    print("starting position:")
    print(render_state(start))
    print(f"\nlegal opening moves: {sorted(legal_moves(start))}\n")

    print(f"the game has {lah_count(n)} ideal states:")
    for state in enumerate_ideal_states(n):
        j = make_record(state).doubled_value
        pair = tuple(d for d, p in enumerate(state.pegs) if p == j)
        print(f"\n{state.to_text()}   (disks {pair} share peg {j})")
        print(render_state(state))

    print(f"\nminimum win for n={n}: {shortest_win_length(n)} moves (2n+3)")
    report = optimal_strategies_through_ideal(n)
    print(f"shortest winning strategies: {report.shortest_path_count}")
    print(f"every ideal state sits {n + 1} moves from the start: {report.flag_a}")
    print(f"and {n + 2} moves from the end: {report.flag_b}")
    print(f"every shortest win passes one ideal state, at move {n + 1}: {report.flag_c}")

    print("\none optimal playthrough:")
    strategy = shortest_strategy(n)
    for i, move in enumerate(strategy.moves, start=1):
        marker = "   <- ideal" if i == n + 1 else ""
        print(f"  {i:>2}. disk {move.disk}: peg {move.from_peg} -> peg "
              f"{move.to_peg}   {strategy.states[i].to_text()}{marker}")


if __name__ == "__main__":
    main()
