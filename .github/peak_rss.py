"""Run a command and gate its peak resident set size.

Usage: python .github/peak_rss.py LIMIT_MB -- COMMAND [ARG ...]

The command inherits stdin, stdout and stderr.  Its peak RSS, as
getrusage(RUSAGE_CHILDREN) reports it (the largest waited-for child), goes
to stderr.  The exit status is nonzero when the command fails or its peak
reaches LIMIT_MB.
"""

import resource
import subprocess
import sys


def main(argv) -> int | str:
    if len(argv) < 3 or argv[1] != "--":
        return "usage: peak_rss.py LIMIT_MB -- COMMAND [ARG ...]"
    limit = float(argv[0])
    code = subprocess.run(argv[2:]).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MB", file=sys.stderr)
    if code:
        return f"command failed with exit status {code}"
    if peak >= limit:
        return f"peak RSS {peak:.1f} MB reaches {limit:g} MB"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
