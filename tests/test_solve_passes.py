"""The CI's agreement gate: `.github/solve_passes.py FILE`."""

import json
import pathlib
import subprocess
import sys

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parents[1] / ".github"
          / "solve_passes.py")
SOLVE = {"command": "solve darcy", "system": 1}


def gate(tmp_path, *lines):
    path = tmp_path / "solve.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return subprocess.run([sys.executable, str(SCRIPT), str(path)],
                          capture_output=True, text=True)


def diff(**extra):
    return {"command": "solve diff", "diffs": {"f": 0.0}, **extra}


def test_passes_one_passing_diff_line(tmp_path):
    proc = gate(tmp_path, SOLVE, SOLVE, diff(**{"pass": True}))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


@pytest.mark.parametrize("lines, message", [
    ([SOLVE], "0 solve diff lines, expected exactly one"),
    ([diff(**{"pass": True})] * 2, "2 solve diff lines, expected exactly one"),
    ([SOLVE, diff(**{"pass": False})], "solve diff does not pass"),
    ([SOLVE, diff()], "solve diff does not pass"),
], ids=["no-diff", "two-diffs", "false", "no-tol"])
def test_fails_unless_exactly_one_diff_line_passes(tmp_path, lines, message):
    proc = gate(tmp_path, *lines)
    assert proc.returncode == 1
    assert proc.stderr.startswith(message)


def test_fails_a_missing_file(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT),
                           str(tmp_path / "missing.jsonl")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
