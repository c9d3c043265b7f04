"""Enumerators, closed-form counters and the counting harness."""

import math
import sys
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from parkhanoi import enumeration, hanoi
from parkhanoi import (
    BudgetExceededError,
    HanoiMove,
    ParkingOutcome,
    PreferenceVector,
    ValidationError,
    brute_force_counts,
    cayley_count,
    displacement,
    ending_state,
    enumerate_ideal_states,
    enumerate_pf,
    enumerate_pf_displacement,
    generate_displacement_one,
    is_ideal_state,
    lah_count,
    optimal_strategies_through_ideal,
    park,
    shortest_win_length,
    starting_state,
    verify,
    verify_bijection,
)
from oracles import displacement_naive, displacement_one_lex, pf_with_displacement


def test_enumerate_pf_small():
    assert [p.prefs for p in enumerate_pf(1)] == [(1,)]
    assert [p.prefs for p in enumerate_pf(2)] == [(1, 1), (1, 2), (2, 1)]
    assert sum(1 for _ in enumerate_pf(3)) == 16


@pytest.mark.parametrize("n", range(1, 6))
def test_pf_count_matches_formula(n):
    assert sum(1 for _ in enumerate_pf(n)) == cayley_count(n)


def test_cayley_values():
    assert cayley_count(1) == 1
    assert cayley_count(3) == 16
    assert cayley_count(5) == 1296
    assert cayley_count(30) == 31**29  # arbitrary precision


def test_lah_values():
    assert lah_count(1) == 0
    assert lah_count(3) == 6
    assert lah_count(5) == 240
    assert lah_count(25) == math.factorial(25) * 24 // 2


def test_counts_reject_bad_n():
    with pytest.raises(ValidationError):
        lah_count(0)
    with pytest.raises(ValidationError):
        cayley_count(-3)


def test_pf1_n3_exact_set():
    got = [p.prefs for p in enumerate_pf_displacement(3, 1)]
    assert got == sorted(got)
    assert set(got) == {
        (1, 1, 3),
        (1, 3, 1),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 2),
        (1, 2, 2),
    }
    assert (2, 2, 1) in set(got) and (1, 3, 1) in set(got)


def test_pf_displacement_zero_is_permutations():
    got = {p.prefs for p in enumerate_pf_displacement(3, 0)}
    assert got == {
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    }


def test_pf_displacement_maximum_is_all_ones():
    assert [p.prefs for p in enumerate_pf_displacement(3, 3)][-1] == (1, 1, 1)
    assert displacement((1, 1, 1)) == 3
    assert list(enumerate_pf_displacement(3, 4)) == []  # beyond the maximum


@pytest.mark.parametrize("n", range(1, 6))
def test_partition_by_displacement(n):
    max_d = n * (n - 1) // 2
    layers = [[p.prefs for p in enumerate_pf_displacement(n, d)] for d in range(max_d + 1)]
    for d, layer in enumerate(layers):
        assert layer == sorted(layer)
        assert set(layer) == pf_with_displacement(n, d)
    sizes = [len(layer) for layer in layers]
    assert sum(sizes) == cayley_count(n)
    assert sizes[0] == math.factorial(n)
    assert sizes[-1] == 1  # the all-ones vector alone has the maximum


@pytest.mark.parametrize(
    "scan",
    [lambda: brute_force_counts(5), lambda: list(enumerate_pf_displacement(5, 1))],
    ids=["brute_force_counts", "enumerate_pf_displacement"],
)
def test_scan_decides_each_vector_once(watch, scan):
    # no per-vector simulation, one validated vector per parking function
    # and none for a vector that fails
    outcomes, vectors = watch(ParkingOutcome, "__init__"), watch(PreferenceVector, "__post_init__")
    scan()
    assert len(outcomes) == 0
    assert len(vectors) == cayley_count(5)


@pytest.mark.parametrize("n", range(1, 7))
def test_scan_matches_two_independent_routes(n):
    # the prefix walk against a per-vector park scan and the naive oracle
    walked = [(pv.prefs, d) for pv, d in enumeration._scan(n)]
    cube = list(product(range(1, n + 1), repeat=n))
    outcomes = ((prefs, park(prefs)) for prefs in cube)
    by_park = [(prefs, o.total_displacement) for prefs, o in outcomes if o.succeeded]
    naive = ((prefs, displacement_naive(prefs)) for prefs in cube)
    by_oracle = [(prefs, d) for prefs, d in naive if d is not None]
    assert walked == by_park
    assert walked == by_oracle


def test_scan_n1_is_the_single_vector():
    assert [(pv.prefs, d) for pv, d in enumeration._scan(1)] == [((1,), 0)]


def test_scan_needs_no_recursion_depth():
    # a recursive walk over 1500 cars would pass the default recursion limit
    assert next(enumerate_pf(1500, budget_n=1500)).prefs == (1,) * 1500


def test_scan_streams_one_vector_at_a_time(watch):
    vectors = watch(PreferenceVector, "__post_init__")
    next(enumerate_pf(8, budget_n=8))
    assert len(vectors) == 1


def test_partition_law_n6_single_scan():
    # one pass over [6]^6 tallying displacements, against the formulas
    tally = Counter()
    for prefs in product(range(1, 7), repeat=6):
        outcome = park(prefs)
        if outcome.succeeded:
            tally[outcome.total_displacement] += 1
    assert sum(tally.values()) == cayley_count(6)
    assert tally[0] == math.factorial(6)
    assert tally[1] == lah_count(6)
    assert max(tally) == 15 and tally[15] == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_constructive_generator_is_the_definition_in_order(n):
    # the tails after the last four unused values come from a table; the order must not move
    assert [p.prefs for p in generate_displacement_one(n)] == displacement_one_lex(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_constructive_generator_equals_filter(n):
    constructed = [p.prefs for p in generate_displacement_one(n)]
    assert constructed == sorted(constructed)
    assert len(constructed) == lah_count(n)
    filtered = [p.prefs for p in enumerate_pf_displacement(n, 1)]
    assert set(constructed) == set(filtered)


@pytest.mark.parametrize("n", range(2, 8))
def test_constructive_streams_are_their_families_in_order(n):
    # strictly increasing, every item a member, lah_count(n) items: together
    # these pin the whole family in lexicographic order
    streams = [
        ([p.prefs for p in generate_displacement_one(n)], lambda a: displacement(a) == 1),
        ([s.pegs for s in enumerate_ideal_states(n)], is_ideal_state),
    ]
    for stream, member in streams:
        assert all(a < b for a, b in zip(stream, stream[1:]))
        assert all(map(member, stream))
        assert len(stream) == lah_count(n)


@pytest.mark.parametrize(
    "enumerator", [generate_displacement_one, enumerate_ideal_states], ids=lambda f: f.__name__
)
def test_constructive_streams_hold_only_a_prefix(enumerator):
    tracemalloc.start()
    try:
        next(enumerator(8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_budget_is_checked_eagerly():
    with pytest.raises(BudgetExceededError):
        enumerate_pf(8)
    with pytest.raises(BudgetExceededError):
        enumerate_pf_displacement(9, 1)
    # raising the budget unlocks the scan
    assert next(iter(enumerate_pf(8, budget_n=8))).prefs == (1,) * 8


def test_invalid_inputs():
    with pytest.raises(ValidationError):
        enumerate_pf(0)
    with pytest.raises(ValidationError):
        enumerate_pf_displacement(3, -1)


def test_brute_force_counts_n3():
    reports = brute_force_counts(3)
    assert [r.statistic for r in reports] == [
        "all_pf",
        "pf_by_displacement(1)",
        "ideal_states",
    ]
    assert [(r.closed_form, r.brute_force, r.match) for r in reports] == [
        (16, 16, True),
        (6, 6, True),
        (6, 6, True),
    ]


def test_brute_force_counts_n1():
    reports = brute_force_counts(1)
    assert [(r.closed_form, r.brute_force) for r in reports] == [
        (1, 1),
        (0, 0),
        (0, 0),
    ]
    assert all(r.match for r in reports)


def test_brute_force_counts_n4():
    reports = brute_force_counts(4)
    assert reports[1].brute_force == 36
    assert all(r.match for r in reports)


def test_brute_force_counts_partial_over_budget():
    reports = brute_force_counts(9, budget_n=7)
    assert all(r.brute_force is None for r in reports)
    assert all(r.match is None for r in reports)
    assert reports[0].closed_form == 10**8


def test_brute_force_counts_all_none_over_budget():
    reports = brute_force_counts(4, budget_n=3)
    assert [r.brute_force for r in reports] == [None, None, None]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_brute_force_counts_refuse_a_count_too_long_to_print():
    # refused before any closed form is computed, unless the limit is lifted
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(BudgetExceededError, match=r"^cayley_count\(1372\) has 4302 digits"):
            brute_force_counts(1372)
        assert brute_force_counts(1371)[0].closed_form == 1372**1370
        sys.set_int_max_str_digits(0)
        assert brute_force_counts(1372)[0].closed_form == 1373**1371
    finally:
        sys.set_int_max_str_digits(old)


def test_ideal_counts_skip_the_constructive_enumerator(monkeypatch):
    # the count row and the ideal layer read the orbit filter, so the
    # constructive enumerator stays an independent route for the bijection
    def refuse(n):
        raise AssertionError("enumerate_ideal_states was called")

    monkeypatch.setattr(hanoi, "enumerate_ideal_states", refuse)
    monkeypatch.setattr(enumeration, "enumerate_ideal_states", refuse, raising=False)
    assert all(r.match for r in brute_force_counts(6))
    assert optimal_strategies_through_ideal(6).ideal_count == lah_count(6)


def test_count_report_json():
    obj = brute_force_counts(2)[0].to_json_obj()
    assert obj == {
        "n": 2,
        "statistic": "all_pf",
        "closed_form": 3,
        "brute_force": 3,
        "match": True,
    }


def test_streams_are_deterministic():
    first = [p.to_text() for p in enumerate_pf(4)]
    second = [p.to_text() for p in enumerate_pf(4)]
    assert first == second
    assert first == sorted(first, key=lambda t: tuple(int(x) for x in t.split(",")))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cayley_count(0), "n must be a positive integer, got 0"),
        (lambda: lah_count(True), "n must be a positive integer, got True"),
        (lambda: generate_displacement_one(1.0), "n must be a positive integer, got 1.0"),
        (lambda: verify_bijection(-2), "n must be a positive integer, got -2"),
        (lambda: enumerate_pf(0), "n must be a positive integer, got 0"),
        (
            lambda: enumerate_pf_displacement(3, -1),
            "displacement must be a non-negative integer, got -1",
        ),
        (lambda: starting_state(1), "n must be an integer >= 2, got 1"),
        (lambda: ending_state("3"), "n must be an integer >= 2, got '3'"),
        (lambda: enumerate_ideal_states("3"), "n must be a positive integer, got '3'"),
        (lambda: HanoiMove(0, -1, 1), "from_peg must be a non-negative integer, got -1"),
        (lambda: HanoiMove(False, 0, 1), "disk must be a non-negative integer, got False"),
    ],
)
def test_integer_validation_messages(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", ["x", 2.5, 0, True], ids=repr)
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda b: shortest_win_length(3, budget_states=b), "budget_states"),
        (lambda b: enumerate_pf(3, budget_n=b), "budget_n"),
        (lambda b: brute_force_counts(3, budget_n=b), "budget_n"),
        (lambda b: verify(3, budget_n=b), "budget_n"),
        (lambda b: verify(3, budget_states=b), "budget_states"),
    ],
    ids=["shortest_win_length", "enumerate_pf", "brute_force_counts", "verify-n", "verify-states"],
)
def test_library_validates_budgets(call, name, bad):
    with pytest.raises(ValidationError) as exc:
        call(bad)
    assert str(exc.value) == f"{name} must be a positive integer, got {bad!r}"
