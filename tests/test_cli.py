"""Command-line surface: output encodings and the exit-code contract."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import parkhanoi.cli
import parkhanoi.enumeration
from parkhanoi import (
    BijectionReport,
    HanoiState,
    IdealLayerReport,
    ParkingOutcome,
    PreferenceVector,
    ValidationError,
    enumerate_ideal_states,
    lah_count,
)
from parkhanoi.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_park_json(capsys):
    code, out, err = run(capsys, "park", "3,1,1,3,2")
    assert code == 0
    obj = json.loads(out)
    assert obj["assignment"] == [3, 1, 2, 4, 5]
    assert obj["failed_car"] is None


def test_park_failure_exits_nonzero(capsys):
    code, out, _ = run(capsys, "park", "3,4,2,3")
    assert code == 1
    assert json.loads(out)["failed_car"] == 4


def test_park_single_car(capsys):
    code, out, _ = run(capsys, "park", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["assignment"] == [1]
    assert obj["total_displacement"] == 0


def test_park_parse_and_validation_errors(capsys):
    code, _, err = run(capsys, "park", "3,x,1")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "park", "7,1,2")
    assert code == 2


def test_park_table(capsys):
    code, out, _ = run(capsys, "--format", "table", "park", "3,1,1,3,2")
    assert code == 0
    assert "total displacement 5" in out


def test_enumerate_ideal(capsys):
    code, out, err = run(capsys, "enumerate", "ideal", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert "2,2,1,0" in lines
    assert lines == sorted(lines)
    assert err.strip() == "count=6"


def test_enumerate_ideal_n8_digest(capsys):
    # all 141,120 lines, byte for byte: the tail table must not move a state
    code, out, err = run(capsys, "enumerate", "ideal", "--n", "8")
    assert (code, err) == (0, "count=141120\n")
    assert (len(out), out.count("\n")) == (2_540_160, 141_120)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2f4bf53b59270503b6584b919aaddea569ebc53467acda823f75e8daaf9df993"
    )


@pytest.mark.parametrize("fmt,built", [("lines", 0), ("table", 0), ("json", lah_count(5))])
def test_enumerate_ideal_builds_states_only_for_json(capsys, watch, fmt, built):
    # the text listings stream the enumerator's vectors as text, with no state per line
    states = watch(HanoiState, "__post_init__")
    code, out, err = run(capsys, "--format", fmt, "enumerate", "ideal", "--n", "5")
    assert (code, err) == (0, f"count={lah_count(5)}\n")
    assert len(states) == built


def test_enumerate_pf1_n2(capsys):
    code, out, _ = run(capsys, "enumerate", "pf1", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["1,1"]


def test_enumerate_pf_n2(capsys):
    code, out, _ = run(capsys, "enumerate", "pf", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["1,1", "1,2", "2,1"]


def test_enumerate_json_mode(capsys):
    code, out, _ = run(capsys, "--format", "json", "enumerate", "ideal", "--n", "2")
    assert code == 0
    assert json.loads(out) == [[1, 1, 0]]


def test_enumerate_over_budget(capsys):
    code, _, err = run(capsys, "enumerate", "pf", "--n", "9")
    assert code == 3
    assert "budget" in err


def test_no_trailing_whitespace_in_lines(capsys):
    _, out, _ = run(capsys, "enumerate", "pf", "--n", "3")
    for line in out.splitlines():
        assert line == line.rstrip()


def test_map_th2pf(capsys):
    code, out, _ = run(capsys, "--format", "lines", "map", "th2pf", "2,2,1,0")
    assert code == 0
    assert out.strip() == "2,2,1"


def test_map_pf2th(capsys):
    code, out, _ = run(capsys, "--format", "lines", "map", "pf2th", "1,3,1")
    assert code == 0
    assert out.strip() == "1,2,1,0"


def test_map_json_record(capsys):
    code, out, _ = run(capsys, "map", "th2pf", "2,2,1,0")
    assert code == 0
    assert json.loads(out) == {"n": 3, "ideal": [2, 2, 1, 0], "pf": [2, 2, 1], "j": 2}


def in_grammar(text):
    # ASCII digits separated by single commas, written without a regex
    return all(part and all(c in "0123456789" for c in part) for part in text.split(","))


def exit_code(*argv):
    """main's exit code with its output discarded; argparse usage errors exit 2."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(list(argv))
        except SystemExit as exc:
            return exc.code


@given(
    st.one_of(
        st.text(),
        st.builds(
            lambda text, i, c: text[:i] + c + text[i:],
            st.sampled_from(["1,1", "2,2,1,0", "3,1,1,3,2"]),
            st.integers(0, 9),
            st.sampled_from([" ", "+", "-", "_", ",", ".", "\n", "\uff11", "\u0663", "x"]),
        ),
    ).filter(lambda text: not in_grammar(text))
)
def test_text_outside_the_grammar_is_rejected(text):
    for parse in (PreferenceVector.from_text, HanoiState.from_text):
        with pytest.raises(ValidationError, match="cannot parse"):
            parse(text)
    assert exit_code("park", text) == 2
    assert exit_code("map", "th2pf", text) == 2
    assert exit_code("map", "pf2th", text) == 2


@pytest.mark.parametrize(
    "text",
    [" 1, 1", "+1,1", "1_0,1", "\uff11,1", "1,,1", "1,", pytest.param("9" * 5000, id="9" * 8)],
)
def test_grammar_error_names_the_type(capsys, text):
    code, out, err = run(capsys, "park", text)
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse preference vector from {text!r}\n"
    code, out, err = run(capsys, "map", "th2pf", text)
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse state from {text!r}\n"


def test_leading_dash_is_an_option_without_the_terminator(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["park", "-1,1"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,kind",
    [
        (["park", "--", "-1,1"], "preference vector"),
        (["map", "pf2th", "--", "-1,1"], "preference vector"),
        (["map", "th2pf", "--", "-1,0,0"], "state"),
    ],
)
def test_leading_dash_after_the_terminator_reaches_the_grammar(capsys, argv, kind):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: cannot parse {kind} from {argv[-1]!r}\n")


@pytest.mark.parametrize("n", range(2, 7))
def test_map_round_trip_through_the_cli(capsys, n):
    for state in enumerate_ideal_states(n):
        code, pf, _ = run(capsys, "--format", "lines", "map", "th2pf", state.to_text())
        assert code == 0
        code, back, _ = run(capsys, "--format", "lines", "map", "pf2th", pf.strip())
        assert (code, back) == (0, state.to_text() + "\n")


def test_map_domain_error(capsys):
    code, _, err = run(capsys, "map", "th2pf", "0,0,0,0")
    assert code == 1
    assert "not an ideal state" in err
    code, _, err = run(capsys, "map", "pf2th", "1,2,3")
    assert code == 1
    assert "not a displacement-one parking function" in err


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_passes(capsys, n):
    code, out, _ = run(capsys, "verify", "--n", str(n))
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["failures"] == []
    if n == 1:
        assert obj["ideal_layer"] is None
    else:
        assert obj["ideal_layer"]["min_win_moves"] == 2 * n + 3


def force_failures(monkeypatch, kinds):
    """Make the named checks of ``verify`` fail, patching at class or module level."""
    if "bijection" in kinds:
        monkeypatch.setattr(BijectionReport, "ok", property(lambda self: False))
    if "count" in kinds:  # one more parking function than the scan finds
        monkeypatch.setattr(
            parkhanoi.enumeration, "cayley_count", lambda n: (n + 1) ** (n - 1) + 1
        )
    if "ideal_layer" in kinds:
        monkeypatch.setattr(IdealLayerReport, "ok", property(lambda self: False))


def verify_n2_obj(kinds):
    """The ``verify --n 2`` JSON object when the checks in ``kinds`` are forced to fail."""
    all_pf = 4 if "count" in kinds else 3
    bijection = {
        "n": 2, "ideal_count": 1, "pf_count": 1, "expected_count": 1, "injective": True,
        "structural_image_matches": True, "brute_image_matches": True,
        "round_trip_states_ok": True, "round_trip_prefs_ok": True,
        "ok": "bijection" not in kinds,
    }
    flags = {"a": True, "b": True, "c": True}
    layer = {
        "n": 2, "ideal_count": 1, "min_win_moves": 7, "ideal_at_level": 3,
        "shortest_paths": 1, "flags": flags,
    }
    failures = []
    if "bijection" in kinds:
        failures.append({"check": "bijection", "expected": {"ok": True}, "actual": bijection})
    if "count" in kinds:
        failures.append({"check": "count:all_pf", "expected": 4, "actual": 3})
    if "ideal_layer" in kinds:
        failures.append({
            "check": "ideal_layer",
            "expected": {"min_win_moves": 7, "flags": flags},
            "actual": layer,
        })
    return {
        "n": 2,
        "bijection": bijection,
        "counts": [
            {"n": 2, "statistic": "all_pf", "closed_form": all_pf, "brute_force": 3,
             "match": all_pf == 3},
            {"n": 2, "statistic": "pf_by_displacement(1)", "closed_form": 1, "brute_force": 1,
             "match": True},
            {"n": 2, "statistic": "ideal_states", "closed_form": 1, "brute_force": 1,
             "match": True},
        ],
        "ideal_layer": layer,
        "failures": failures,
        "ok": False,
    }


@pytest.mark.parametrize(
    "kinds", [("bijection",), ("count",), ("ideal_layer",), ("bijection", "count", "ideal_layer")]
)
def test_verify_failure_output(capsys, monkeypatch, kinds):
    force_failures(monkeypatch, kinds)
    obj = verify_n2_obj(kinds)
    all_pf = obj["counts"][0]
    table = (
        "verification for n=2: FAILURES\n"
        f"  all_pf: closed form {all_pf['closed_form']}, brute force 3, "
        f"match {all_pf['match']}\n"
        "  pf_by_displacement(1): closed form 1, brute force 1, match True\n"
        "  ideal_states: closed form 1, brute force 1, match True\n"
        f"  bijection ok: {obj['bijection']['ok']}\n"
        "  minimum win 7 moves, ideal layer at 3, flags a/b/c: True/True/True\n"
    )
    expected = {
        "json": json.dumps(obj) + "\n",
        "lines": "ok=false\n" + "".join(f"failed={json.dumps(f)}\n" for f in obj["failures"]),
        "table": table,
    }
    for fmt, stdout in expected.items():
        assert run(capsys, "--format", fmt, "verify", "--n", "2") == (1, stdout, "")


def test_solve_n2(capsys):
    code, out, _ = run(capsys, "solve", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["min_win_moves"] == 7
    assert len(obj["moves"]) == 7
    assert obj["ideal_after_move"] == 3
    assert obj["states"][0] == [0, 0, 0]
    assert obj["states"][-1] == [2, 2, 2]


def test_solve_lines_marks_ideal(capsys):
    code, out, _ = run(capsys, "--format", "lines", "solve", "--n", "2")
    assert code == 0
    marked = [line for line in out.splitlines() if "[ideal]" in line]
    assert len(marked) == 1
    assert marked[0].startswith("move 3:")


def test_solve_rejects_n1(capsys):
    code, _, err = run(capsys, "solve", "--n", "1")
    assert code == 2


def test_solve_dot(capsys):
    code, out, _ = run(capsys, "solve", "--n", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph ideal_tree {")
    assert out.rstrip().endswith("}")
    assert '"1,1,0"' in out  # the single ideal leaf


@pytest.mark.parametrize(
    "env, prefix", [({}, ["--format", "table"]), ({"PARKHANOI_FORMAT": "json"}, [])]
)
def test_solve_dot_notes_an_ignored_format(capsys, monkeypatch, env, prefix):
    code, plain, err = run(capsys, "solve", "--n", "2", "--dot")
    assert (code, err) == (0, "")
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *prefix, "solve", "--n", "2", "--dot")
    assert (code, out, err) == (0, plain, "note: --format is ignored with --dot\n")


def test_solve_dot_leaves_are_the_ideal_states(capsys):
    # the tree's leaf set together with one solved path reproduces the
    # picture: leaves = ideal states, path = one root-to-leaf route
    code, out, _ = run(capsys, "solve", "--n", "3", "--dot")
    assert code == 0
    leaves = {
        line.split('"')[1]
        for line in out.splitlines()
        if "style=bold" in line
    }
    code, states, _ = run(capsys, "enumerate", "ideal", "--n", "3")
    assert leaves == set(states.splitlines())


def test_solve_dot_fits_a_budget_of_its_tree_nodes(capsys):
    # the n = 4 tree has 212 nodes, more than the 158 orbits its search visits
    code, plain, _ = run(capsys, "solve", "--n", "4", "--dot")
    assert run(capsys, "--budget-states", "212", "solve", "--n", "4", "--dot") == (0, plain, "")
    code, out, err = run(capsys, "--budget-states", "211", "solve", "--n", "4", "--dot")
    assert (code, out) == (3, "")
    assert err == (
        "error: the DOT tree for n=4 has 212 nodes, over the budget of 211; "
        "raise the budget to draw it\n"
    )


def test_solve_dot_n9_is_refused_before_any_line(capsys):
    # 32,296,578 nodes: the count is known from the cut search, before any line is built
    start = time.monotonic()
    code, out, err = run(capsys, "solve", "--n", "9", "--dot")
    assert (code, out) == (3, "")
    assert err.startswith("error: the DOT tree for n=9 has 32296578 nodes, over the budget")
    assert time.monotonic() - start < 20


def test_solve_dot_n7_digest(capsys):
    # the n = 7 tree streams line by line; this pins all of its 13 MB
    code, out, err = run(capsys, "solve", "--n", "7", "--dot")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "994d083357edb7a0fa1687ca67d20f6571717c75695f4a99c95e4e729644297a"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "pf", "--n", "6"],
        ["enumerate", "ideal", "--n", "8"],
        ["solve", "--n", "6", "--dot"],
    ],
)
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # a reader that stops early, like ``| head -1``, closes the pipe mid-stream
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "from parkhanoi.cli import entrypoint; entrypoint()"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "3")
    assert code == 0
    reports = json.loads(out)
    assert [r["match"] for r in reports] == [True, True, True]


@pytest.fixture
def default_int_digits():
    # the interpreter's default cap on the digits of a printed int
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter prints an int of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("fmt", ["json", "lines", "table"])
def test_count_refuses_a_count_too_long_to_print(capsys, default_int_digits, fmt):
    # (n+1)^(n-1) has 4,299 digits at n = 1371 and 4,302 at n = 1372
    code, out, err = run(capsys, "--format", fmt, "count", "--n", "1372")
    assert (code, out) == (3, "")
    assert err == (
        "error: cayley_count(1372) has 4302 digits, over the interpreter's limit for "
        "printing an int; set PYTHONINTMAXSTRDIGITS to raise it\n"
    )
    code, out, _ = run(capsys, "--format", fmt, "count", "--n", "1371")
    assert code == 0 and str(1372**1370) in out


@pytest.mark.parametrize(
    "env, prefix", [({}, ["--budget-n", "3"]), ({"PARKHANOI_BUDGET_N": "3"}, [])]
)
def test_count_notes_unchecked_statistics(capsys, monkeypatch, env, prefix):
    code, _, err = run(capsys, "count", "--n", "4")
    assert (code, err) == (0, "")
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *prefix, "count", "--n", "4")
    assert code == 0
    assert [r["brute_force"] for r in json.loads(out)] == [None, None, None]
    assert err == (
        "note: not checked by brute force: all_pf, pf_by_displacement(1), ideal_states; "
        "n=4 is over the scan budget n <= 3\n"
    )


@pytest.mark.parametrize(
    "env, prefix",
    [
        ({}, ["--budget-n", "3"]),
        ({"PARKHANOI_BUDGET_N": "3"}, []),
        ({}, ["--budget-n", "3", "--budget-states", "10"]),  # the scan error wins
    ],
)
def test_verify_over_scan_budget(capsys, monkeypatch, env, prefix):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *prefix, "verify", "--n", "4")
    assert (code, out) == (3, "")
    assert err == (
        "error: scanning all 4^4 preference vectors for n=4 exceeds the budget n <= 3; "
        "raise the budget to scan anyway\n"
    )


def test_budget_flag_and_env(capsys, monkeypatch):
    monkeypatch.setenv("PARKHANOI_BUDGET_N", "3")
    code, _, _ = run(capsys, "enumerate", "pf", "--n", "4")
    assert code == 3
    code, _, _ = run(capsys, "--budget-n", "4", "enumerate", "pf", "--n", "4")
    assert code == 0


def test_env_format(capsys, monkeypatch):
    monkeypatch.setenv("PARKHANOI_FORMAT", "lines")
    code, out, _ = run(capsys, "park", "1,1")
    assert code == 0
    assert out.splitlines()[0] == "assignment=[1, 2]"


def test_bad_env_format(capsys, monkeypatch):
    monkeypatch.setenv("PARKHANOI_FORMAT", "xml")
    code, out, err = run(capsys, "park", "1")
    assert (code, out) == (2, "")
    assert err == "error: format must be one of json, lines, table, got 'xml'\n"
    code, out, _ = run(capsys, "--format", "lines", "park", "1")  # the flag wins
    assert code == 0 and out


def test_bad_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("PARKHANOI_BUDGET_N", "many")
    code, _, err = run(capsys, "enumerate", "pf", "--n", "2")
    assert code == 2
    assert "PARKHANOI_BUDGET_N" in err


def test_state_budget_flag(capsys):
    code, _, err = run(capsys, "--budget-states", "10", "solve", "--n", "3")
    assert code == 3


@pytest.mark.parametrize(
    "env, prefix",
    [({}, ["--budget-states", "10"]), ({"PARKHANOI_BUDGET_STATES": "10"}, [])],
)
def test_verify_checks_the_search_budget_before_any_scan(capsys, monkeypatch, watch, env, prefix):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    simulations, scans = watch(ParkingOutcome, "__init__"), watch(parkhanoi.bijection, "_scan")
    code, out, err = run(capsys, *prefix, "verify", "--n", "6")
    assert (code, out, len(simulations), scans) == (3, "", 0, [])
    assert err == (
        "error: the search for n=6 visits more than 10 peg-symmetry orbits, over the "
        "budget; raise the budget to search it\n"
    )


@pytest.mark.parametrize("flag", ["--budget-states", "--budget-n"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_budget_flag_is_rejected(capsys, flag, value):
    code, out, err = run(capsys, flag, value, "count", "--n", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize("name", ["PARKHANOI_BUDGET_STATES", "PARKHANOI_BUDGET_N"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_budget_env_is_rejected(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "count", "--n", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and name in err


def test_budget_flag_overrides_bad_env(capsys, monkeypatch):
    monkeypatch.setenv("PARKHANOI_BUDGET_STATES", "0")
    code, _, _ = run(capsys, "--budget-states", "200", "solve", "--n", "3")
    assert code == 0


def test_verify_n6_fits_default_budget(capsys):
    code, out, _ = run(capsys, "verify", "--n", "6")
    assert code == 0
    layer = json.loads(out)["ideal_layer"]
    assert layer["min_win_moves"] == 15
    assert layer["shortest_paths"] == 68880


def test_json_outputs_parse(capsys):
    for argv in (
        ["park", "1,2,2"],
        ["--format", "json", "enumerate", "pf1", "--n", "3"],
        ["map", "pf2th", "2,2,1"],
        ["verify", "--n", "2"],
        ["solve", "--n", "2"],
        ["count", "--n", "2"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        json.loads(out)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "everything", "--n", "2"])
    assert exc.value.code == 2


def test_parser_is_built_once(capsys):
    parkhanoi.cli.build_parser.cache_clear()
    assert run(capsys, "park", "1,1")[0] == 0
    assert run(capsys, "map", "th2pf", "2,2,1,0")[0] == 0
    info = parkhanoi.cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
