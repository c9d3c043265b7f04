"""The documented examples run: the README quickstart, its command lines and
every demo."""

import doctest
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from parkhanoi.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_quickstart():
    readme = (ROOT / "README.md").read_text()
    quickstart = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", quickstart, re.DOTALL).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "quickstart", "README.md", 0)
    assert doctest.DocTestRunner().run(test) == (0, len(test.examples))


def readme_command_lines():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines()]


@pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
def test_readme_command_line_runs(capsys, argv):
    assert argv[0] == "parkhanoi"
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_demos_are_found():
    assert DEMOS
