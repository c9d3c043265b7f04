"""Rules on the package source itself, checked by parsing it, and one check that
runs it under ``python -O``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parkhanoi

SOURCES = sorted(Path(parkhanoi.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # ``python -O`` strips asserts, so no invariant may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node, [node.module]


def test_imports_are_stdlib_or_relative():
    # the runtime stays stdlib-only: every import is relative or from the stdlib
    found = [
        f"{path.name}:{node.lineno}:{name}"
        for path in SOURCES
        for node, names in absolute_imports(ast.parse(path.read_text(), filename=str(path)))
        for name in names
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert SOURCES and found == []


def package_import_names(tree):
    # every dotted part and name that an import takes from the package
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if node.level > 0 or module[0] == "parkhanoi":
                yield node, [*module, *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "parkhanoi":
                    yield node, alias.name.split(".")


def private_package_names(path):
    # every underscore name a module takes from the package: by import, or as
    # an attribute of a name such an import binds, like ``hanoi._search``
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node, names in package_import_names(tree):
        yield from (f"{path.name}:{node.lineno}:{name}" for name in names if name.startswith("_"))
        bound.update(
            alias.asname or alias.name.split(".")[0]
            for alias in node.names
            if isinstance(node, ast.ImportFrom) or alias.name.split(".")[0] == "parkhanoi"
        )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                yield f"{path.name}:{node.lineno}:{node.attr}"


def test_cli_reads_no_result_by_string_key():
    # each report owns its JSON shape: the CLI reads typed fields, never a dict key
    path = Path(parkhanoi.__file__).parent / "cli.py"
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    ]
    assert found == []


def test_private_names_shared_between_modules_are_pinned():
    # a new coupling between modules through an underscore name is added here on purpose;
    # cli.py takes none, so no library logic can hide behind an underscore import
    taken = {p.name: {f.split(":")[2] for f in private_package_names(p)} for p in SOURCES}
    assert {name: names for name, names in taken.items() if names} == {
        "bijection.py": {
            "_check_scan_budget", "_count_reports", "_scan", "_doubled_peg", "_doubled"
        },
        "enumeration.py": {"_ideal_orbits"},
        "hanoi.py": {"_entry_cells"},
    }


def test_only_errors_spells_the_vector_separator():
    # one writer of the vector grammar: no other module holds the literal ","
    # (an f-string like f"{p}," holds it too), so no second spelling can drift
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value == ","
    ]
    assert SOURCES and found == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "3"], ["solve", "--n", "3"], ["map", "th2pf", "2,2,1,0"],
        ["enumerate", "ideal", "--n", "5"], ["solve", "--n", "3", "--dot"],
    ],
)
def test_optimised_run_prints_the_same(argv):
    # ``python -O`` strips asserts, so a run under it must print the same
    src = str(Path(parkhanoi.__file__).resolve().parent.parent)
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "from parkhanoi.cli import entrypoint; entrypoint()"
    plain, optimised = (
        subprocess.run([sys.executable, *flags, "-c", code, *argv], capture_output=True, env=env)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == 0 and plain.stdout
    assert (optimised.returncode, optimised.stdout) == (plain.returncode, plain.stdout)


def test_oracles_take_no_private_name():
    # an oracle certifies the package only while it shares no code with it
    assert list(private_package_names(Path(__file__).parent / "oracles.py")) == []


def test_public_surface_is_pinned():
    # a new public name must be added here on purpose
    assert sorted(parkhanoi.__all__) == [
        "BijectionRecord", "BijectionReport", "BudgetExceededError", "CountReport",
        "DEFAULT_SCAN_MAX_N", "DEFAULT_STATE_BUDGET", "DomainError", "HanoiMove",
        "HanoiState", "IdealLayerReport", "IllegalMoveError",
        "ParkingOutcome", "PreferenceVector", "Strategy", "ValidationError",
        "VerifyReport", "apply_move", "as_preference_vector", "as_state", "brute_force_counts",
        "cayley_count", "displacement", "displacement_one_violation", "dot_ideal_lines",
        "doubled_preference", "ending_state", "enumerate_ideal_states", "enumerate_pf",
        "enumerate_pf_displacement", "generate_displacement_one", "ideal_state_lines",
        "is_displacement_one_characterized", "is_ideal_state", "is_parking_function",
        "lah_count", "legal_moves", "make_record", "optimal_strategies_through_ideal",
        "park", "pf_to_th", "shortest_strategy", "shortest_win_length", "starting_state",
        "th_to_pf", "verify", "verify_bijection",
    ]
    # each listed name resolves, and each public name the package imports is
    # listed, so a name retired from one place only fails here
    assert all(hasattr(parkhanoi, name) for name in parkhanoi.__all__)
    tree = ast.parse(Path(parkhanoi.__file__).read_text())
    imported = {a.asname or a.name for node, _ in package_import_names(tree) for a in node.names}
    assert {name for name in imported if not name.startswith("_")} <= set(parkhanoi.__all__)


def stdout_writes(tree):
    # every reference to sys.stdout.write, and every print to stdout
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "write":
            if ast.unparse(node.value) == "sys.stdout":
                yield node
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "print":
            file = next((k.value for k in node.keywords if k.arg == "file"), None)
            if file is None or ast.unparse(file) == "sys.stdout":
                yield node


def test_only_emit_writes_stdout():
    # one stdout writer: every command's output goes through cli._emit
    found, allowed = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "cli.py":
            emit = next(n for n in tree.body if getattr(n, "name", None) == "_emit")
            allowed = set(stdout_writes(emit))
        found += [f"{path.name}:{n.lineno}" for n in stdout_writes(tree) if n not in allowed]
    assert allowed and found == []


def test_only_watch_wraps_a_constructor():
    # one call recorder: a test counts constructions through conftest's watch
    modules = [path for path in Path(__file__).parent.glob("*.py") if path.name != "conftest.py"]
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "monkeypatch.setattr"
        and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
        and node.args[1].value in ("__init__", "__post_init__")
    ]
    assert modules and found == []
