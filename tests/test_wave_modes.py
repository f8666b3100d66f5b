"""The CI's wave spectrum gate: `.github/wave_modes.py FILE COUNT ...`."""

import json
import math
import pathlib
import subprocess
import sys

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parents[1] / ".github"
          / "wave_modes.py")
MODES = [2.0, 5.0, 5.0, 8.0, 10.0, 13.0]


def write(tmp_path, name, values):
    path = tmp_path / name
    path.write_text(json.dumps({"command": "wave", "formulation": "primal",
                                "kind": "whitney", "omega_squared": values})
                    + "\n")
    return str(path)


def gate(tmp_path, values, *args):
    return subprocess.run([sys.executable, str(SCRIPT),
                           write(tmp_path, "wave.jsonl", values), *args],
                          capture_output=True, text=True)


def test_passes_zeros_then_modes_near_their_references(tmp_path):
    like = write(tmp_path, "dual.jsonl", [v * (1 + 1e-10) for v in MODES])
    proc = gate(tmp_path, [0.0] * 3 + MODES, "9", "--zeros", "3",
                "--lowest", "2.01", "0.01", "--like", like, "1e-8")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{MODES}\n"


@pytest.mark.parametrize("values, args, message", [
    (MODES, ["7"], "6 omega_squared values, expected 7"),
    ([0.0, 1e-300, *MODES], ["8", "--zeros", "2"],
     "1 of the first 2 values are not 0.0"),
    (MODES, ["6", "--lowest", str(2 * math.pi ** 2), "0.01"],
     "lowest nonzero omega^2 2.0 is not within 0.01 of 19.7392, relative"),
], ids=["count", "zeros", "lowest"])
def test_fails_each_condition(tmp_path, values, args, message):
    proc = gate(tmp_path, values, *args)
    assert proc.returncode == 1
    assert proc.stderr == message + "\n"


@pytest.mark.parametrize("other", [MODES[:5], [*MODES[:5], 13.0 * (1 + 1e-7)]],
                         ids=["length", "value"])
def test_fails_modes_unlike_the_other_run(tmp_path, other):
    like = write(tmp_path, "dual.jsonl", other)
    proc = gate(tmp_path, [0.0, *MODES], "7", "--zeros", "1", "--like", like,
                "1e-8")
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"omega^2 past the zeros {MODES} is not "
                                  f"within 1e-08 of {other}, relative")
