"""Parking process, displacement and the structural displacement-one test."""

import json
from enum import IntEnum
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkhanoi import (
    DomainError,
    PreferenceVector,
    ValidationError,
    displacement,
    displacement_one_violation,
    doubled_preference,
    is_displacement_one_characterized,
    is_parking_function,
    park,
)

from oracles import displacement_naive, is_pf_naive, is_pf_sorted, park_naive


def vectors(max_n=7):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(*([st.integers(min_value=1, max_value=n)] * n))
    )


def test_worked_example():
    # the length-5 walkthrough; car 5 is bumped from spot 2 to spot 5
    outcome = park([3, 1, 1, 3, 2])
    assert outcome.assignment == (3, 1, 2, 4, 5)
    assert outcome.displacements == (0, 0, 1, 1, 3)
    assert outcome.total_displacement == 5
    assert outcome.lucky_count == 2
    assert outcome.failed_car is None
    assert outcome.succeeded


def test_failure_case():
    # nobody prefers spot 1, so the street cannot fill
    outcome = park([3, 4, 2, 3])
    assert outcome.failed_car == 4
    assert outcome.assignment is None
    assert outcome.displacements is None
    assert outcome.total_displacement is None
    assert outcome.lucky_count is None
    assert not outcome.succeeded
    assert not is_parking_function([3, 4, 2, 3])


def test_permutation_is_all_lucky():
    outcome = park([1, 2, 3])
    assert outcome.assignment == (1, 2, 3)
    assert outcome.total_displacement == 0
    assert outcome.lucky_count == 3


@pytest.mark.parametrize("n", range(1, 7))
def test_all_ones_extreme(n):
    alpha = (1,) * n
    assert is_parking_function(alpha)
    assert displacement(alpha) == n * (n - 1) // 2


def test_displacement_distinguishes_unlucky_profiles():
    assert displacement([1, 2, 2]) == 1
    assert displacement([1, 2, 1]) == 2
    assert displacement([2, 2, 1]) == 1


def test_displacement_requires_parking_function():
    with pytest.raises(DomainError):
        displacement([3, 4, 2, 3])


def test_single_car():
    outcome = park([1])
    assert outcome.assignment == (1,)
    assert outcome.total_displacement == 0


@pytest.mark.parametrize(
    "bad",
    [(), (0, 1), (1, 3), (2,), (1, 1, 1, 5), 5, None],
)
def test_validation_rejects_out_of_range(bad):
    with pytest.raises(ValidationError):
        PreferenceVector(bad)


def test_validation_rejects_non_integers():
    with pytest.raises(ValidationError):
        PreferenceVector((1, "2"))
    with pytest.raises(ValidationError):
        PreferenceVector((True, 1))


class Spot(IntEnum):
    FIRST = 1
    SECOND = 2


def test_constructor_accepts_exactly_the_integers():
    assert PreferenceVector((Spot.SECOND, Spot.FIRST)).prefs == (2, 1)
    listed = PreferenceVector([3, 1, 1])
    assert type(listed.prefs) is tuple and listed.prefs == (3, 1, 1)
    with pytest.raises(ValidationError, match=r"^preference of car 1 is not an integer: True$"):
        PreferenceVector((True, 1))
    with pytest.raises(ValidationError, match=r"^preference of car 4 is 5, outside spots 1\.\.4$"):
        PreferenceVector((1, 1, 1, 5))


def test_text_round_trip():
    pv = PreferenceVector.from_text("3,1,1,3,2")
    assert pv.prefs == (3, 1, 1, 3, 2)
    assert pv.to_text() == "3,1,1,3,2"
    with pytest.raises(ValidationError):
        PreferenceVector.from_text("3,x,1")


@pytest.mark.parametrize("n", range(1, 6))
def test_text_over_the_cube(n):
    for prefs in product(range(1, n + 1), repeat=n):
        pv = PreferenceVector(prefs)
        assert pv.to_text() == ",".join(map(str, prefs))
        assert PreferenceVector.from_text(pv.to_text()) == pv


def test_text_has_no_size_ceiling():
    prefs = tuple(range(300, 0, -1)) + (1, 301)  # n = 302, spots 1..301 preferred
    pv = PreferenceVector(prefs)
    assert pv.to_text() == ",".join(map(str, prefs))
    assert PreferenceVector.from_text(pv.to_text()) == pv
    assert PreferenceVector((Spot.SECOND, Spot.FIRST)).to_text() == "2,1"


def test_outcome_json_keys():
    obj = park([3, 1, 1, 3, 2]).to_json_obj()
    assert list(obj) == [
        "assignment",
        "displacements",
        "total_displacement",
        "lucky_count",
        "failed_car",
    ]
    assert obj["failed_car"] is None
    assert json.dumps(obj)  # serializable


def test_structural_examples():
    assert is_displacement_one_characterized([2, 2, 1])
    assert displacement([2, 2, 1]) == 1
    assert not is_displacement_one_characterized([1, 2, 1])
    assert not is_displacement_one_characterized([1, 2, 3])
    assert not is_displacement_one_characterized([1])
    assert is_displacement_one_characterized([1, 1])


def test_violation_messages_name_the_condition():
    assert "exactly twice" in displacement_one_violation([1, 2, 3])
    assert "doubled preference" in displacement_one_violation([2, 2])
    assert "single preferences" in displacement_one_violation([1, 2, 1])
    assert displacement_one_violation([2, 2, 1]) is None


def test_doubled_preference():
    assert doubled_preference([2, 2, 1]) == 2
    assert doubled_preference([1, 3, 1]) == 1
    with pytest.raises(DomainError):
        doubled_preference([1, 2, 3])


@given(vectors())
def test_simulation_matches_naive_oracle(prefs):
    assignment, failed = park_naive(prefs)
    outcome = park(prefs)
    assert outcome.failed_car == failed
    if failed is None:
        assert outcome.assignment == tuple(assignment)
        assert outcome.total_displacement == displacement_naive(prefs)


@given(vectors())
def test_sorted_criterion_agreement(prefs):
    assert is_parking_function(prefs) == is_pf_naive(prefs)


@pytest.mark.parametrize("n", range(1, 7))
def test_sorted_criterion_agrees_exhaustively(n):
    for prefs in product(range(1, n + 1), repeat=n):
        assert is_parking_function(prefs) == is_pf_sorted(prefs)


@given(vectors())
def test_success_invariants(prefs):
    outcome = park(prefs)
    if outcome.succeeded:
        n = len(prefs)
        assert sorted(outcome.assignment) == list(range(1, n + 1))
        assert all(k >= 0 for k in outcome.displacements)
        assert outcome.total_displacement == sum(outcome.displacements)
        unlucky = sum(1 for k in outcome.displacements if k >= 1)
        assert outcome.lucky_count + unlucky == n


@given(st.permutations(list(range(1, 7))))
def test_permutations_have_zero_displacement(perm):
    assert displacement(tuple(perm)) == 0


@pytest.mark.parametrize("n", range(1, 5))
def test_zero_displacement_exactly_the_permutations(n):
    for prefs in product(range(1, n + 1), repeat=n):
        is_perm = sorted(prefs) == list(range(1, n + 1))
        outcome = park(prefs)
        zero = outcome.succeeded and outcome.total_displacement == 0
        assert zero == is_perm
