"""Check that a `decstar solve` run's formulations agree.

Usage: python .github/solve_passes.py FILE

FILE holds the JSON lines that `decstar solve ... --tol TOL` printed for a
pair of formulations.  The exit status is zero when exactly one of them is
the pair's `solve diff` line and it reports `"pass": true`.
"""

import json
import sys


def main(argv) -> int | str:
    if len(argv) != 1:
        return "usage: solve_passes.py FILE"
    with open(argv[0]) as fh:
        lines = [json.loads(line) for line in fh]
    diffs = [line for line in lines if line["command"] == "solve diff"]
    if len(diffs) != 1:
        return f"{len(diffs)} solve diff lines, expected exactly one"
    if diffs[0].get("pass") is not True:
        return f"solve diff does not pass: {json.dumps(diffs[0])}"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
