"""The CI's peak-RSS gate: `.github/peak_rss.py LIMIT_MB -- COMMAND ...`."""

import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / ".github" / "peak_rss.py"


def gate(limit, *command):
    return subprocess.run([sys.executable, str(SCRIPT), limit, "--",
                           sys.executable, "-c", *command],
                          capture_output=True, text=True)


def test_passes_a_command_under_its_limit_and_keeps_its_output():
    proc = gate("1024", "print('out')")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "out\n"
    assert proc.stderr.startswith("peak RSS ")
    assert float(proc.stderr.split()[2]) > 1.0  # MB, not kB


@pytest.mark.parametrize("limit, command, message", [
    ("1024", "raise SystemExit(3)", "command failed with exit status 3"),
    ("1", "pass", "reaches 1 MB"),
])
def test_fails_a_failed_command_or_a_peak_at_its_limit(limit, command,
                                                       message):
    proc = gate(limit, command)
    assert proc.returncode == 1
    assert message in proc.stderr
