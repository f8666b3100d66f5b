"""Command-line front end.

Subcommands cover mesh ingestion/generation, dual construction, Hodge star
assembly and export, condition-number experiments, mixed-system solving,
wave eigensystems, and field sampling.  Every subcommand prints one JSON
summary line per result on stdout; artifacts (Matrix Market matrices, CSV
tables, JSON meshes) are written to --out.  Identical inputs and flags
produce byte-identical artifacts.

Each `cmd_*` reads the parsed argparse namespace alone.  `main` checks the
settings several commands share (an existing --out directory, --grid of at
least 16, --P values above 1/2) before it dispatches, turns every
rejected input (a `decstar.Error`), `OSError` and `MemoryError` into one
`error:` line on stderr and exit status 1, and prints every warning as one
`warning:` line on stderr.  Its first call in a process, and only that one,
runs `gc.freeze()`: the ~40k objects left tracked by importing numpy and
scipy move to a permanent generation, so no command pays a full collection
over them (a 13-23 ms pause on a 2-core host).
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import Error, hodge, mesh, systems, whitney
from .sibson import DualInterpolation


# ---------------------------------------------------------------------------
# mesh ingestion: a file path or a builtin generator spec


# each builtin's fields after its name; a bracketed field may be left out
BUILTIN_FIELDS = {"two_triangle": "", "fig8": ":P", "grid": ":m[:skew]",
                  "equilateral": ":m", "random": ":n:seed[:dim]"}
BUILTIN_HELP = ("a JSON mesh file, or a builtin spec: "
                + " | ".join(map("".join, BUILTIN_FIELDS.items())))


def resolve_mesh(spec: str) -> mesh.SimplicialComplex:
    if Path(spec).exists():
        return mesh.load_mesh(spec)
    name, _, rest = spec.partition(":")
    args = rest.split(":") if rest else []
    fields = BUILTIN_FIELDS.get(name)
    if fields is None:
        raise Error(f"mesh {spec!r} is neither a file nor a builtin spec "
                    f"({BUILTIN_HELP})")
    most = fields.count(":")
    if not most - fields.count("[") <= len(args) <= most:
        raise Error(f"bad mesh spec {spec!r}: expected {name}{fields}")
    try:
        if name == "two_triangle":
            return mesh.two_triangle_mesh()
        if name == "fig8":
            return mesh.generate_fig8(float(args[0]))
        if name == "grid":
            skew = float(args[1]) if len(args) > 1 else 0.0
            return mesh.structured_grid(int(args[0]), skew)
        if name == "equilateral":
            return mesh.equilateral_grid(int(args[0]))
        dim = int(args[2]) if len(args) > 2 else 2
        return mesh.random_delaunay(int(args[0]), int(args[1]), dim)
    except ValueError as exc:
        raise Error(f"bad mesh spec {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# artifact readers and writers


def write_matrix_market(matrix, path: Path) -> None:
    import scipy.io  # on first use, see `systems`

    scipy.io.mmwrite(str(path), sp.coo_matrix(matrix), symmetry="general")


def write_cochain_csv(values, path: Path, header: str = "id,value") -> None:
    lines = [f"{i},{v:.17g}" for i, v in enumerate(np.asarray(values))]
    path.write_text("\n".join([header, *lines]) + "\n")


def _text_lines(path, what: str) -> io.StringIO:
    """The lines of a UTF-8 text file; bytes that are not UTF-8 are an
    `Error` naming `what`, the file and their line."""
    data = Path(path).read_bytes()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise Error(f"{what} {path}, line {line}: not UTF-8 text") from None


def read_cochain_csv(path, expected: int) -> np.ndarray:
    """A cochain of `expected` values from `id,value` rows, zero where no
    row gives one.  Line 1 is a header when its first two fields do not
    parse as `int,float`.  A file that is not UTF-8 text, a row that does
    not parse or has other than two fields, a non-finite value and a
    repeated or out-of-range id are each an `Error` naming the file and
    line."""
    out = np.full(expected, np.nan)  # NaN until a row gives the value
    for row, line in enumerate(_text_lines(path, "cochain file"), 1):
        where = f"cochain file {path}, line {row}"
        fields = line.split(",")
        try:
            sid, val = int(fields[0]), float(fields[1])
            parsed = len(fields) == 2
        except (ValueError, IndexError):
            if row == 1 or not line.strip():  # a header or a blank line
                continue
            parsed = False
        if not parsed:
            raise Error(f"{where}: expected 'id,value', got "
                        f"{line.strip()[:40]!r}")
        if not np.isfinite(val):
            raise Error(f"{where}: value {val} is not finite")
        if not 0 <= sid < expected:
            raise Error(f"{where}: cochain id {sid} out of range "
                        f"0..{expected - 1}")
        if not np.isnan(out[sid]):
            raise Error(f"{where}: cochain id {sid} repeated")
        out[sid] = val
    return np.nan_to_num(out, nan=0.0)


def _read_off(path) -> tuple[list, list]:
    """Vertices and cells of an OFF-style text mesh: an optional `OFF`
    line, a counts line `nv nc [ne]`, then one line per vertex (2 or 3
    coordinates, as many on every line) and one per cell (its vertex count,
    then that many vertex indices).  `#` starts a comment; blank lines are
    skipped.  A file that is not UTF-8 text, a line that does not parse and
    a missing or extra line are each an `Error` naming the file."""
    rows = [(no, line.split("#")[0].split())
            for no, line in enumerate(_text_lines(path, "OFF-style mesh"), 1)]
    rows = [row for row in rows if row[1]]
    if rows and rows[0][1] == ["OFF"]:
        del rows[0]
    if not rows:
        raise Error(f"OFF-style mesh {path}: no counts line 'nv nc [ne]'")

    def parse(row, kind, expected, fits):
        no, tokens = row
        try:
            values = [kind(t) for t in tokens]
        except ValueError:
            values = None
        if values is None or not fits(values):
            raise Error(f"OFF-style mesh {path}, line {no}: expected "
                        f"{expected}, got {' '.join(tokens)[:40]!r}")
        return values

    nv, nc = parse(rows[0], int, "counts 'nv nc [ne]'",
                   lambda c: len(c) in (2, 3) and min(c) >= 0)[:2]
    if len(rows) != 1 + nv + nc:
        raise Error(f"OFF-style mesh {path}: expected {nv} vertex and "
                    f"{nc} cell lines after the counts, got {len(rows) - 1}")
    dim = len(rows[1][1]) if nv else 0
    verts = [parse(row, float, f"{dim} vertex coordinates",
                   lambda v: len(v) == dim) for row in rows[1:1 + nv]]
    cells = [parse(row, int, "a cell 'count i0 i1 ...'",
                   lambda c: c[0] == len(c) - 1)[1:] for row in rows[1 + nv:]]
    return verts, cells


def _finite_or_null(obj):
    """Replace every non-finite float in a JSON-ready structure by None."""
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def emit(obj) -> None:
    """Print one strict-JSON line; non-finite numbers are written as null."""
    print(json.dumps(_finite_or_null(obj), sort_keys=True, allow_nan=False))


def _simplex_counts(comp: mesh.SimplicialComplex) -> dict:
    """The number of k-simplices for each degree k, keyed by str(k)."""
    return {str(k): len(s) for k, s in enumerate(comp.simplices)}


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_info(args) -> int:
    comp = resolve_mesh(args.mesh)
    dual = mesh.build_dual(comp, args.rule)
    emit({
        "command": "info",
        "dimension": comp.dim,
        "counts": _simplex_counts(comp),
        "rule": args.rule,
        **mesh.quality_report(comp, dual),
    })
    return 0


def cmd_dual(args) -> int:
    comp = resolve_mesh(args.mesh)
    dual = mesh.build_dual(comp, args.rule)
    paths = {}
    for k in range(comp.dim + 1):
        path = args.out / f"dual_measures_k{k}.csv"
        write_cochain_csv(dual.measures[k], path, header="simplex,measure")
        paths[str(k)] = str(path)
    emit({
        "command": "dual",
        "rule": args.rule,
        "measure_files": paths,
        "negative_cells": {
            str(k): [int(i) for i in dual.negative_cells(k)]
            for k in range(comp.dim + 1)
        },
    })
    return 0


def _dual_for_kind(comp, args):
    """The dual mesh if the Hodge kind reads one, else None."""
    if args.kind in hodge.READS_DUAL:
        return mesh.build_dual(comp, args.rule)
    return None


def _assemble_star(args) -> hodge.HodgeOperator:
    comp = resolve_mesh(args.mesh)
    return hodge.assemble(args.kind, comp, _dual_for_kind(comp, args), args.k,
                          args.grid)


def cmd_hodge(args) -> int:
    op = _assemble_star(args)
    path = args.out / f"hodge_{args.kind}_k{args.k}.mtx"
    write_matrix_market(op.matrix, path)
    emit({
        "command": "hodge",
        "kind": args.kind,
        "k": args.k,
        "rule": args.rule,
        "shape": list(op.matrix.shape),
        "nnz": int(op.matrix.nnz),
        "symmetric": (op.matrix != op.matrix.T).nnz == 0,
        "file": str(path),
    })
    return 0


def cmd_cond(args) -> int:
    est = hodge.condition_estimate(_assemble_star(args).matrix, args.method,
                                   args.block)
    emit({"command": "cond", "kind": args.kind, "k": args.k, **est})
    return 0


def cmd_table1(args) -> int:
    if not args.P:
        raise Error("--P needs at least one value")
    rows = hodge.table1_experiment(args.P, args.grid)
    path = args.out / "table1.csv"
    path.write_text(hodge.table1_csv(rows))
    for r in rows:
        emit({"command": "table1", **r, "file": str(path)})
    return 0


def cmd_solve(args) -> int:
    ids = args.system
    if not ids:
        raise Error("--system needs at least one formulation id")
    if len(set(ids)) < len(ids):
        raise Error("--system repeats a formulation id: "
                    + ",".join(map(str, ids)))
    if args.seed < 0:
        raise Error(f"--seed must be non-negative, got {args.seed}")
    if args.tol is not None and not 0 <= args.tol < np.inf:
        raise Error(f"--tol must be finite and non-negative, got {args.tol:g}")
    problem, assemble = {
        "darcy": ("darcy", systems.assemble_darcy),
        "magneto": ("magnetostatics", systems.assemble_magnetostatics),
    }[args.problem]
    rows = [systems._formulation(problem, sid) for sid in ids]
    if len({(row.degree, row.load) for row in rows}) > 1:
        raise Error("systems 1-2 and 3-4 take loads on different spaces and "
                    "cannot share one run; pick systems from a single pair")
    comp = resolve_mesh(args.mesh)
    dual = _dual_for_kind(comp, args)
    if args.load is not None:
        load = read_cochain_csv(args.load,
                                rows[0].load_derivative(comp).shape[0])
        rows[0].check_load(comp, load)
    else:
        load = rows[0].default_load(comp, args.seed)
    M, Minv = hodge.hodge_pair(comp, dual, rows[0].hodge_degree(comp.dim),
                               args.kind, args.grid)
    reports = []
    for sid in ids:
        report = systems.solve(assemble(comp, sid, load, M, Minv), args.gauge)
        reports.append(report)
        out = {
            "command": f"solve {args.problem}",
            "system": sid,
            "name": report.system,
            "residual": report.residual,
            "gauge": report.gauge_applied,
            "seconds": report.seconds,
            "kind": args.kind,
        }
        if args.write:
            for name, vec in sorted(report.recovered.items()):
                path = args.out / f"{report.system}_{name}.csv"
                write_cochain_csv(vec, path)
                out[f"file_{name}"] = str(path)
        emit(out)
    if len(reports) == 2:  # distinct ids from one pair: at most two
        d = systems.cross_validate(*reports)
        line = {"command": "solve diff",
                "pair": [report.system for report in reports], "diffs": d}
        if args.tol is not None:  # each diff relative to its field's scale
            line["pass"] = all(d[key] <= args.tol * max(
                np.abs(r.recovered[key]).max() for r in reports) for key in d)
        emit(line)
    return 0


def cmd_wave(args) -> int:
    comp = resolve_mesh(args.mesh)
    dual = _dual_for_kind(comp, args)
    # one interpolation for both degrees, so each polygon's regions are
    # built once; on a 3D mesh the assembly reports its own error
    interp = (DualInterpolation(comp, dual)
              if args.kind == "dual_inverse" and comp.dim == 2 else None)
    M1, M1inv = hodge.hodge_pair(comp, dual, 1, args.kind, args.grid, interp)
    M2, M2inv = hodge.hodge_pair(comp, dual, 2, args.kind, args.grid, interp)
    ws = systems.assemble_wave(comp, args.formulation, M1, M2, M1inv, M2inv)
    vals = ws.eigenpairs(args.count)
    emit({
        "command": "wave",
        "formulation": args.formulation,
        "kind": args.kind,
        "omega_squared": [float(v) for v in vals],
    })
    return 0


def cmd_sample_field(args) -> int:
    comp = resolve_mesh(args.mesh)
    mesh.check_degree(comp, args.k)
    if args.samples < 1:
        raise Error(f"--samples must be at least 1, got {args.samples}")
    if args.cochain is not None:
        weights = read_cochain_csv(args.cochain, len(comp.simplices[args.k]))
    else:
        weights = np.ones(len(comp.simplices[args.k]))
    if args.space == "primal":
        fld = whitney.interpolate(comp, args.k, weights)
    else:
        dual = mesh.build_dual(comp, args.rule)
        di = DualInterpolation(comp, dual)
        fld = di.interpolate(comp.dim - args.k, weights)
    pts = mesh.pixel_centers(comp.vertices.min(axis=0),
                             comp.vertices.max(axis=0), args.samples)
    vals = fld(pts).reshape(len(pts), -1)
    inside = ~np.isnan(vals).any(axis=1)  # NaN marks points outside the mesh
    rows = [",".join(f"{c:.17g}" for c in row)
            for row in np.hstack([pts, vals])[inside]]
    ncomp = vals.shape[1] if rows else 0
    header = (",".join("xyz"[:comp.dim])
              + "," + ",".join(f"value{i}" for i in range(ncomp)))
    path = args.out / "field_samples.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    emit({
        "command": "sample-field",
        "space": args.space,
        "k": args.k,
        "samples": len(rows),
        "file": str(path),
    })
    return 0


def cmd_fig8(args) -> int:
    if len(args.P) != 1:
        raise Error("fig8 takes exactly one --P value")
    comp = mesh.generate_fig8(args.P[0])
    path = args.out / f"fig8_P{args.P[0]:g}.json"
    mesh.save_mesh(comp, path)
    emit({
        "command": "fig8",
        "P": args.P[0],
        "counts": _simplex_counts(comp),
        "file": str(path),
    })
    return 0


def cmd_convert(args) -> int:
    """Convert an OFF-style text mesh (see `_read_off`) to the JSON mesh
    format."""
    comp = mesh.build_complex(*_read_off(args.input))
    path = args.out / (Path(args.input).stem + ".json")
    mesh.save_mesh(comp, path)
    emit({
        "command": "convert",
        "dimension": comp.dim,
        "counts": _simplex_counts(comp),
        "file": str(path),
    })
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _float_list(text: str):
    return [float(t) for t in text.split(",") if t]


def _int_list(text: str):
    return [int(t) for t in text.split(",") if t]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every `main`
    call; parsing leaves it unchanged and every default is immutable."""
    parser = argparse.ArgumentParser(
        prog="decstar",
        description="Discrete exterior calculus meshes, Hodge stars, and "
                    "mixed solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # one declaration per shared flag; the call order keeps each
    # subcommand's flags (and its usage line) in their documented order
    def add_out(p):
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory")

    def add_common(p):
        p.add_argument("--mesh", required=True, help=BUILTIN_HELP)
        p.add_argument("--rule", default="barycentric",
                       choices=["barycentric", "circumcentric"],
                       help="dual mesh center rule")
        add_out(p)

    def add_star(p):
        p.add_argument("--kind", default="diag", choices=hodge.KINDS)
        p.add_argument("--grid", type=int, default=128,
                       help="quadrature grid resolution")

    p = sub.add_parser("info", help="mesh counts and quality report")
    add_common(p)

    p = sub.add_parser("dual", help="dual mesh measures and diagnostics")
    add_common(p)

    for name, help_ in [("hodge", "assemble a Hodge star and export it"),
                        ("cond", "condition number of a Hodge star")]:
        p = sub.add_parser(name, help=help_)
        add_common(p)
        p.add_argument("--k", type=int, default=1, help="form degree")
        add_star(p)
        if name == "cond":
            p.add_argument("--method", default="full",
                           choices=["full", "leading-block"])
            p.add_argument("--block", type=int, default=5)

    p = sub.add_parser("table1",
                       help="condition-number study on the two-fan family")
    p.add_argument("--P", type=_float_list, default=(2.0, 5.0, 10.0),
                   help="comma-separated P values (> 1/2)")
    p.add_argument("--grid", type=int, default=512)
    add_out(p)

    p = sub.add_parser("solve", help="assemble and solve a mixed system")
    p.add_argument("problem", choices=["darcy", "magneto"])
    add_common(p)
    p.add_argument("--system", type=_int_list, required=True,
                   help="comma-separated formulation ids from one pair "
                        "(1,2 or 3,4)")
    add_star(p)
    p.add_argument("--gauge", default="pin", choices=["pin", "augment"])
    p.add_argument("--load", default=None,
                   help="CSV cochain (id,value) for the source term")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the default random load")
    p.add_argument("--tol", type=float, default=None,
                   help="pass/fail threshold for cross-formulation diffs, "
                        "relative to each field's largest |entry| in either "
                        "formulation (finite, non-negative)")
    p.add_argument("--write", action="store_true",
                   help="write recovered cochains as CSV")

    p = sub.add_parser("wave", help="wave eigensystem spectrum")
    add_common(p)
    p.add_argument("--formulation", default="primal",
                   choices=["primal", "dual"])
    add_star(p)
    p.add_argument("--count", type=int, default=6,
                   help="number of smallest eigenvalues to report, "
                        "counting the kernel's 0.0 values")

    p = sub.add_parser("sample-field",
                       help="sample a cochain interpolant on a uniform grid")
    add_common(p)
    p.add_argument("--k", type=int, default=1, help="primal form degree")
    p.add_argument("--space", default="primal", choices=["primal", "dual"])
    p.add_argument("--cochain", default=None,
                   help="CSV cochain (id,value); defaults to all ones")
    p.add_argument("--samples", type=int, default=16,
                   help="samples per axis")

    p = sub.add_parser("fig8", help="generate a two-fan mesh as JSON")
    p.add_argument("--P", type=_float_list, required=True)
    add_out(p)

    p = sub.add_parser("convert",
                       help="convert an OFF-style text mesh to JSON")
    p.add_argument("input", help="OFF-style mesh file")
    add_out(p)

    return parser


_freeze_import_heap = functools.cache(gc.freeze)


COMMANDS = {
    "info": cmd_info,
    "dual": cmd_dual,
    "hodge": cmd_hodge,
    "cond": cmd_cond,
    "table1": cmd_table1,
    "solve": cmd_solve,
    "wave": cmd_wave,
    "sample-field": cmd_sample_field,
    "fig8": cmd_fig8,
    "convert": cmd_convert,
}


def _warn(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command; the first call freezes the heap (module docstring)."""
    _freeze_import_heap()
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warn  # one line each, without a listing
        try:
            if not args.out.is_dir():
                raise Error(f"output directory {args.out} does not exist")
            if getattr(args, "grid", 16) < 16:
                raise Error(f"--grid must be at least 16, got {args.grid}")
            for p in getattr(args, "P", []):
                if p <= 0.5:
                    raise Error(f"--P values must exceed 1/2, got {p:g}")
            return COMMANDS[args.command](args)
        except (Error, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
