"""The explicit map between ideal states and displacement-one parking functions."""

import hashlib
import json
import tracemalloc
from dataclasses import asdict
from itertools import chain, product

import pytest

import parkhanoi
from parkhanoi import (
    DomainError,
    HanoiState,
    IdealStateWitness,
    PreferenceVector,
    ValidationError,
    VerifyReport,
    brute_force_counts,
    displacement,
    displacement_one_violation,
    doubled_preference,
    enumerate_ideal_states,
    ideal_witness,
    is_ideal_state,
    lah_count,
    make_record,
    optimal_strategies_through_ideal,
    pf_to_th,
    th_to_pf,
    verify,
    verify_bijection,
)
from parkhanoi.cli import main

from oracles import (
    bijection_report_naive,
    ideal_violation_naive,
    pf_with_displacement,
    shape_violation_naive,
)
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
    result = verify(2).to_json_obj()
    assert [f["check"] for f in result["failures"]] == [
        "count:all_pf" if kind == "count" else kind for kind in kinds
    ]
    assert json.dumps(result) == json.dumps(verify_n2_obj(kinds))


@pytest.mark.parametrize("n", range(1, 6))
def test_verify_scans_once_for_both_reports(watch, n):
    # one walk of [n]^n feeds the image check and the counts, which read
    # the same as the two public calls that each walk it themselves
    scans = watch(parkhanoi.enumeration, "_scan"), watch(parkhanoi.bijection, "_scan")
    report = verify(n)
    result = report.to_json_obj()
    assert scans[0] + scans[1] == [(n,)]
    assert result["bijection"] == verify_bijection(n).to_json_obj()
    assert result["counts"] == [r.to_json_obj() for r in brute_force_counts(n)]
    assert result["ok"]
    # the report is the public checks composed, field for field
    assert isinstance(report, VerifyReport)
    assert report.bijection == verify_bijection(n)
    assert report.counts == tuple(brute_force_counts(n))
    assert report.ideal_layer == (None if n == 1 else optimal_strategies_through_ideal(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_verify_is_what_the_cli_prints(capsys, n):
    assert main(["--format", "json", "verify", "--n", str(n)]) == 0
    assert capsys.readouterr().out == json.dumps(verify(n).to_json_obj()) + "\n"


# --- each map finds j in the pass that checks its input --------------------


def test_maps_build_no_witness(watch):
    built = watch(IdealStateWitness, "__post_init__")
    for state in enumerate_ideal_states(4):
        pf_to_th(th_to_pf(state))
    make_record((2, 2, 1, 0))
    assert built == []


def outcome(call, value):
    """What ``call(value)`` returns, or the text of the DomainError it raises."""
    try:
        return call(value)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("n", range(2, 5))
def test_tower_side_agrees_over_the_cube(n):
    for vec in product(range(n + 1), repeat=n + 1):
        witness = outcome(ideal_witness, vec)
        image = outcome(th_to_pf, vec)
        if isinstance(witness, str):
            assert image == witness and not is_ideal_state(vec)
        else:
            assert doubled_preference(image) == witness.doubled_peg and is_ideal_state(vec)


@pytest.mark.parametrize("n", range(1, 6))
def test_parking_side_agrees_over_the_cube(n):
    for vec in product(range(1, n + 1), repeat=n):
        j = outcome(doubled_preference, vec)
        state = outcome(pf_to_th, vec)
        violation = displacement_one_violation(vec)
        if isinstance(j, str):
            assert state == j == f"not a displacement-one parking function: {violation}"
        else:
            assert violation is None and ideal_witness(state).doubled_peg == j


@pytest.mark.parametrize("n", range(1, 7))
def test_shape_violation_is_the_counter_wording(n):
    # the set pass words each rejection as a Counter of the entries would
    for vec in product(range(1, n + 1), repeat=n):
        assert displacement_one_violation(vec) == shape_violation_naive(vec)


@pytest.mark.parametrize("n", range(2, 6))
def test_ideal_violation_is_the_counter_wording(n):
    for vec in product(range(n + 1), repeat=n + 1):
        found = ideal_violation_naive(vec)
        image = outcome(th_to_pf, vec)
        if found is None:
            assert isinstance(image, PreferenceVector)
        else:
            assert image == "not an ideal state: " + found


def outcomes_digest(call, vectors):
    """sha256 over one line per vector: the JSON record or text it maps to, or the error."""
    digest = hashlib.sha256()
    for vec in vectors:
        try:
            found = call(vec)
            line = json.dumps(found.to_json_obj()) if call is make_record else found.to_text()
        except DomainError as exc:
            line = f"DomainError: {exc}"
        digest.update((line + "\n").encode())
    return digest.hexdigest()


def test_map_outputs_and_errors_are_pinned():
    # every record and every DomainError text, byte for byte, as the two-pass maps produced them
    cube = chain.from_iterable(product(range(n + 1), repeat=n + 1) for n in range(2, 5))
    assert outcomes_digest(make_record, cube) == (
        "b17b8c0cfef05875352e3f26a9b791b51846e751db54f670257f00ab67a02154"
    )
    square = chain.from_iterable(product(range(1, n + 1), repeat=n) for n in range(1, 6))
    assert outcomes_digest(pf_to_th, square) == (
        "39edd068e20b84934b160005cd794edb62bc66461f6e22f865b8f73265776f2d"
    )


# --- one round trip per pair gives the report of two full passes ------------


def planted_fault(n, fault):
    """The maps the pass runs on entry tuples, ``_to_prefs`` and ``_to_pegs``, with
    one fault planted mid-stream: a state sent to the first state's image, a
    vector sent back to the first state, or none.  Mid-stream, so some round
    trips hold before one fails."""
    real_th, real_pf = parkhanoi.bijection._to_prefs, parkhanoi.bijection._to_pegs
    states = [s.pegs for s in enumerate_ideal_states(n)]
    first, faulty = states[0], states[len(states) // 2]
    first_image, faulty_image = real_th(first), real_th(faulty)
    if fault == "state to another's image":
        return (lambda x: first_image if x == faulty else real_th(x)), real_pf
    if fault == "vector to the wrong state":
        return real_th, (lambda a: first if a == faulty_image else real_pf(a))
    return real_th, real_pf


def lifted(maps):
    """Tuple maps lifted to ``th_to_pf`` and ``pf_to_th``'s types."""
    to_prefs, to_pegs = maps
    return (lambda x: PreferenceVector(to_prefs(x.pegs))), (lambda a: HanoiState(to_pegs(a.prefs)))


@pytest.mark.parametrize("fault", ["state to another's image", "vector to the wrong state", None])
@pytest.mark.parametrize("n", [3, 4])
def test_report_matches_two_full_passes(monkeypatch, n, fault):
    maps = planted_fault(n, fault)
    scanned = {PreferenceVector(p) for p in pf_with_displacement(n, 1)}
    monkeypatch.setattr(parkhanoi.bijection, "_to_prefs", maps[0])
    monkeypatch.setattr(parkhanoi.bijection, "_to_pegs", maps[1])
    naive = bijection_report_naive(n, *lifted(maps), scanned)
    assert asdict(verify_bijection(n)) == naive
    assert asdict(verify_bijection(n, check_image=False)) == {**naive, "brute_image_matches": None}
    assert verify(n).to_json_obj()["bijection"] == {**naive, "ok": fault is None}


@pytest.mark.parametrize("n, pairs", [(4, 36), (5, 240), (6, 1800)])
@pytest.mark.parametrize("check", [verify_bijection, verify])
def test_each_pair_is_mapped_once_each_way(watch, check, n, pairs):
    # with every round trip holding, each map runs once per state, and no
    # image vector is mapped a second time
    calls = {name: watch(parkhanoi.bijection, name) for name in ("_to_prefs", "_to_pegs")}
    check(n)
    assert {name: len(c) for name, c in calls.items()} == {"_to_prefs": pairs, "_to_pegs": pairs}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_a_passing_pass_builds_only_the_streamed_values(watch, n):
    # the pass maps entry tuples, so the only states and vectors it builds are
    # the ones the two public enumerators stream: 2 * lah(n), not 4 * lah(n)
    states, vectors = (watch(cls, "__post_init__") for cls in (HanoiState, PreferenceVector))
    assert verify_bijection(n, check_image=False).ok
    assert (len(states), len(vectors)) == (lah_count(n), lah_count(n))


# --- verify_bijection streams both families ---------------------------------


def test_verify_bijection_streams():
    # holding either family as a list at n = 7 peaks above 9 MiB; keeping
    # the image and constructive sets as entry tuples peaks near 3.8 MiB
    tracemalloc.start()
    try:
        report = verify_bijection(7, check_image=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 5 * 2**20


@pytest.mark.parametrize("name", ["enumerate_ideal_states", "generate_displacement_one"])
def test_verify_bijection_counts_a_duplicate(monkeypatch, name):
    real = getattr(parkhanoi.bijection, name)

    def doubled_first(n):
        items = real(n)
        first = next(items)
        return chain([first, first], items)

    monkeypatch.setattr(parkhanoi.bijection, name, doubled_first)
    report = verify_bijection(4)
    count = report.ideal_count if name == "enumerate_ideal_states" else report.pf_count
    assert count == lah_count(4) + 1
    assert report.injective is (name != "enumerate_ideal_states")
    assert report.structural_image_matches and report.brute_image_matches
    assert not report.ok


@pytest.mark.parametrize("bad", ["x", 2.5, 0, True], ids=repr)
@pytest.mark.parametrize("n", [1, 2])
def test_verify_checks_budgets_it_never_spends(n, bad):
    with pytest.raises(ValidationError) as exc:
        verify(n, budget_states=bad)
    assert str(exc.value) == f"budget_states must be a positive integer, got {bad!r}"
    with pytest.raises(ValidationError) as exc:
        verify_bijection(n, budget_n=bad, check_image=False)
    assert str(exc.value) == f"budget_n must be a positive integer, got {bad!r}"
