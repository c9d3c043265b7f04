"""The explicit map between ideal states and displacement-one parking functions."""

import json

import pytest

from parkhanoi import (
    DomainError,
    displacement,
    doubled_preference,
    enumerate_ideal_states,
    ideal_witness,
    lah_count,
    make_record,
    pf_to_th,
    th_to_pf,
    verify,
    verify_bijection,
)
from parkhanoi.cli import main

from oracles import pf_with_displacement
from test_cli import force_failures, verify_n2_obj


def test_forward_examples():
    assert th_to_pf((2, 2, 1, 0)).prefs == (2, 2, 1)
    assert th_to_pf((1, 2, 1, 0)).prefs == (1, 3, 1)
    assert th_to_pf((1, 1, 0)).prefs == (1, 1)
    # images really do park with one bump
    assert displacement((2, 2, 1)) == 1
    assert displacement((1, 3, 1)) == 1
    assert displacement((1, 1)) == 1


def test_inverse_examples():
    assert pf_to_th((2, 2, 1)).pegs == (2, 2, 1, 0)
    assert pf_to_th((1, 3, 1)).pegs == (1, 2, 1, 0)
    assert pf_to_th((1, 1)).pegs == (1, 1, 0)


def test_domain_errors_name_the_condition():
    with pytest.raises(DomainError) as exc:
        th_to_pf((0, 0, 0, 0))
    assert "not an ideal state" in str(exc.value)
    with pytest.raises(DomainError) as exc:
        pf_to_th((1, 2, 3))
    assert "not a displacement-one parking function" in str(exc.value)


@pytest.mark.parametrize("n", range(2, 6))
def test_round_trips(n):
    for state in enumerate_ideal_states(n):
        alpha = th_to_pf(state)
        assert pf_to_th(alpha) == state
        assert th_to_pf(pf_to_th(alpha)) == alpha


@pytest.mark.parametrize("n", range(2, 6))
def test_doubled_value_is_preserved(n):
    for state in enumerate_ideal_states(n):
        j = ideal_witness(state).doubled_peg
        assert doubled_preference(th_to_pf(state)) == j


@pytest.mark.parametrize("n", range(2, 5))
def test_image_equals_simulated_displacement_one(n):
    image = {th_to_pf(s).prefs for s in enumerate_ideal_states(n)}
    assert image == pf_with_displacement(n, 1)


def test_verify_bijection_vacuous_n1():
    report = verify_bijection(1)
    assert report.ideal_count == 0
    assert report.pf_count == 0
    assert report.expected_count == 0
    assert report.ok


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_bijection_small(n):
    report = verify_bijection(n)
    assert report.ideal_count == lah_count(n)
    assert report.injective
    assert report.structural_image_matches
    assert report.brute_image_matches is True
    assert report.round_trip_states_ok and report.round_trip_prefs_ok
    assert report.ok


def test_verify_bijection_without_image_scan():
    report = verify_bijection(4, check_image=False)
    assert report.brute_image_matches is None
    assert report.ok


def test_record_serialization():
    record = make_record((2, 2, 1, 0))
    assert record.to_json_obj() == {
        "n": 3,
        "ideal": [2, 2, 1, 0],
        "pf": [2, 2, 1],
        "j": 2,
    }


@pytest.mark.parametrize(
    "kinds", [("bijection",), ("count",), ("ideal_layer",), ("bijection", "count", "ideal_layer")]
)
def test_verify_lists_each_failed_check(monkeypatch, kinds):
    force_failures(monkeypatch, kinds)
    result = verify(2)
    assert [f["check"] for f in result["failures"]] == [
        "count:all_pf" if kind == "count" else kind for kind in kinds
    ]
    assert json.dumps(result) == json.dumps(verify_n2_obj(kinds))


@pytest.mark.parametrize("n", range(1, 6))
def test_verify_is_what_the_cli_prints(capsys, n):
    assert main(["--format", "json", "verify", "--n", str(n)]) == 0
    assert capsys.readouterr().out == json.dumps(verify(n)) + "\n"
