"""Byte-identical CLI output against pinned goldens.

``golden_cli.json`` holds, for each command line, the exit code, the
byte count and sha256 of stdout, and the sha256 of stderr.  The
``verify``, ``solve`` and ``solve --dot`` stdout digests were captured
from the full-cube breadth-first search that preceded the peg-symmetric
one; the ``park``, ``enumerate``, ``map`` and ``count`` lines, the error
paths and every stderr digest were captured before the CLI's output
branches were folded into one emitter.  A pass means neither rewrite
changed an output byte.  Re-pinned since, for their ``note:`` lines: the
stderr digests of ``solve --dot`` with a format set and of
``--budget-n 3 count --n 5``; and ``enumerate ideal --n 1`` in every format,
which exited 2 and now prints the empty stream with ``count=0``, byte for
byte as ``enumerate pf1 --n 1`` does.  The ``PARKHANOI_*`` environment is cleared for
each call.  To re-pin after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py > tests/golden_cli.json``.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from parkhanoi.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())

SEARCHES = [
    f"--format {fmt} {cmd} --n {n}{dot}"
    for cmd, dot in (("verify", ""), ("solve", ""), ("solve", " --dot"))
    for n in range(2, 6)
    for fmt in ("json", "lines", "table")
]
COMMANDS = [
    "park 3,1,1,3,2",
    "park 3,4,2,3",
    *(f"map th2pf {x}" for x in ("1,1,0", "2,2,1,0", "3,1,2,2,0")),
    *(f"map pf2th {a}" for a in ("1,1", "1,3,1", "2,4,1,2")),
    *(f"enumerate {kind} --n {n}" for kind in ("pf", "pf1", "ideal") for n in range(1, 6)),
    *(f"count --n {n}" for n in range(1, 6)),
]
ERRORS = [
    "park 3,x,1",
    "map th2pf 0,0,0,0",
    "map pf2th 1,2,3",
    "--budget-n 3 count --n 5",
    "--budget-n 3 enumerate pf --n 5",
    "--budget-states 10 solve --n 3",
    "--budget-n 0 count --n 1",
    "count --n 0",
]
KEYS = SEARCHES + [
    f"{fmt}{cmd}"
    for cmd in COMMANDS
    for fmt in ("", "--format json ", "--format lines ", "--format table ")
] + ERRORS


def capture(key):
    out, err = io.StringIO(), io.StringIO()
    clean_env = {k: v for k, v in os.environ.items() if not k.startswith("PARKHANOI_")}
    with mock.patch.dict(os.environ, clean_env, clear=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(key.split())
    data = out.getvalue().encode()
    return {
        "exit": code,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def test_goldens_cover_every_format_and_size():
    assert len(KEYS) == len(set(KEYS))
    assert set(GOLDEN) == set(KEYS)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cli_output_matches_golden(key):
    assert capture(key) == GOLDEN[key]


if __name__ == "__main__":
    print("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(capture(k))}" for k in KEYS) + "\n}")
