"""Check the spectrum that a `decstar wave` run printed.

Usage: python .github/wave_modes.py FILE COUNT [--zeros K]
           [--lowest VALUE RTOL] [--like OTHER RTOL]

FILE holds the JSON line of a `decstar wave --count COUNT` run.  The values
past the first K are printed.  The exit status is zero when the line has
COUNT `omega_squared` values, the first K of them (default 0) exactly 0.0,
and, when asked for:

- `--lowest`: the first value past them within RTOL, relative, of VALUE;
- `--like`: the values past them within RTOL, relative, of the
  `omega_squared` values of the `decstar wave` line in file OTHER.
"""

import argparse
import json
import sys


def spectrum(path) -> list:
    with open(path) as fh:
        return json.load(fh)["omega_squared"]


def main(argv) -> int | str:
    parser = argparse.ArgumentParser(prog="wave_modes.py")
    parser.add_argument("file")
    parser.add_argument("count", type=int)
    parser.add_argument("--zeros", type=int, default=0)
    parser.add_argument("--lowest", nargs=2, type=float,
                        metavar=("VALUE", "RTOL"))
    parser.add_argument("--like", nargs=2, metavar=("OTHER", "RTOL"))
    args = parser.parse_args(argv)
    w, k = spectrum(args.file), args.zeros
    print(w[k:])
    if len(w) != args.count:
        return f"{len(w)} omega_squared values, expected {args.count}"
    if any(w[:k]):
        return (f"{sum(v != 0 for v in w[:k])} of the first {k} values "
                f"are not 0.0")
    if args.lowest is not None:
        value, rtol = args.lowest
        if not abs(w[k] / value - 1) <= rtol:
            return (f"lowest nonzero omega^2 {w[k]} is not within {rtol:g} "
                    f"of {value:g}, relative")
    if args.like is not None:
        other, rtol = spectrum(args.like[0]), float(args.like[1])
        if len(other) != len(w) - k or not all(
                abs(a / b - 1) <= rtol for a, b in zip(w[k:], other)):
            return (f"omega^2 past the zeros {w[k:]} is not within {rtol:g} "
                    f"of {other}, relative")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
