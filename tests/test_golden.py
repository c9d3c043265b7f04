"""Byte-identical CLI output against goldens pinned before the search rewrite.

``golden_cli.json`` holds the exit code, byte count and sha256 of stdout
for ``verify``, ``solve`` and ``solve --dot`` at n = 2..5 in every
``--format``.  They were captured from the full-cube breadth-first
search that preceded the peg-symmetric one, so a pass means the rewrite
changed no output byte.  To re-pin after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py > tests/golden_cli.json``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from parkhanoi.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


def capture(key):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(key.split())
    data = buf.getvalue().encode()
    return {"exit": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def test_goldens_cover_every_format_and_size():
    expected = {
        f"--format {fmt} {cmd} --n {n}{dot}"
        for cmd, dot in (("verify", ""), ("solve", ""), ("solve", " --dot"))
        for n in range(2, 6)
        for fmt in ("json", "lines", "table")
    }
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cli_output_matches_golden(key):
    assert capture(key) == GOLDEN[key]


if __name__ == "__main__":
    print("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(capture(k))}" for k in GOLDEN) + "\n}")
