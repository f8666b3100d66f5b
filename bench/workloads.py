"""The benchmark workloads: CLI argument lists and the checks of their output.

Each workload is a list of CLI operations.  `prepare` writes the seeded
inputs and returns the operations; `check` turns the captured results into
one list of failure reasons per operation.  An operation counts as failed
when it exits nonzero, raises, or fails any of its checks.

Workloads, and why each is here:

- table1: the paper's condition-number study in one call.  Almost all of its
  time is the Sibson clip kernel in large batches (six calls of about 66k
  points at grid 128); mesh, whitney and systems do almost no work.  Grid
  128 passes the same checks as grid 512 in a twentieth of the time, so a
  run holds about ten samples.
- dual_inverse: the same kernel in small batches, one per dual polygon (64
  calls of about 2k points per operation on an 8 x 8 lattice), plus the
  dual-polygon ring walks and the sparse assembly of the dual-inverse star.
- mixed_2d: mesh, whitney, hodge and systems each carry real time and
  sibson none.  The six calls rebuild the same mesh, dual and Hodge pair,
  and use systems both for saddle solves and for eigensolves.  A 14 x 14
  lattice (196 vertices) keeps a sample near 4 s.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io

import inputs

WORKLOADS = ("table1", "dual_inverse", "mixed_2d")

# Input sizes the benchmark measures, and a tiny set for its own tests.
FULL = {"table1": {"grid": 128},
        "dual_inverse": {"lattice": 8, "grid": 32},
        "mixed_2d": {"lattice": 14}}
TINY = {"table1": {"grid": 64},
        "dual_inverse": {"lattice": 4, "grid": 16},
        "mixed_2d": {"lattice": 4}}

# Table 1 of the paper: condition numbers of the diagonal, Whitney and
# dual-inverse stars on the two-fan family, with the tolerances of the
# repository's acceptance criterion 1.
PUBLISHED = {2.0: (6.3, 3.2, 1.5), 5.0: (17.2, 9.9, 1.3), 10.0: (34.6, 21.6, 1.4)}
REL_TOL_DIAG_WHITNEY = 0.02
ABS_TOL_DUAL_INVERSE = 0.3

SYMMETRY_RTOL = 1e-12
NULL_RTOL = 1e-8
SPECTRUM_RTOL = 1e-8
SOLVE_TOL = 1e-8
WAVE_MODES = 6


@dataclass
class Op:
    label: str
    argv: list


@dataclass
class OpResult:
    code: int
    stdout: str
    stderr: str

    def lines(self) -> list:
        return [json.loads(l) for l in self.stdout.splitlines() if l.strip()]


def prepare(name: str, seed: int, work: Path, sizes: dict = FULL):
    """Write the inputs of workload `name` under `work` and return its
    operations and the facts its checks need."""
    size = sizes[name]
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    if name == "table1":
        ops = [Op("table1", ["table1", "--P", "2,5,10", "--grid",
                             str(size["grid"]), "--out", str(out)])]
        return ops, {}
    if name == "dual_inverse":
        facts = inputs.mesh_inputs(work, size["lattice"], seed)
        ops = [Op(f"hodge k{k}", ["hodge", "--mesh", str(facts["mesh"]),
                                  "--kind", "dual_inverse", "--k", str(k),
                                  "--grid", str(size["grid"]),
                                  "--out", str(out)])
               for k in (1, 2)]
        return ops, facts
    if name == "mixed_2d":
        facts = inputs.mixed_2d_inputs(work, size["lattice"], seed)
        common = ["--mesh", str(facts["mesh"]), "--kind", "whitney"]
        ops = []
        for problem in ("darcy", "magneto"):
            for pair in ("12", "34"):
                ops.append(Op(f"solve {problem} {pair}", [
                    "solve", problem, *common, "--system", ",".join(pair),
                    "--tol", str(SOLVE_TOL),
                    "--load", str(facts["loads"][f"{problem}_{pair}"]),
                    "--out", str(out)]))
        count = facts["vertices"] - 1 + WAVE_MODES
        ops.append(Op("wave primal", ["wave", *common, "--formulation",
                                      "primal", "--count", str(count)]))
        ops.append(Op("wave dual", ["wave", *common, "--formulation", "dual",
                                    "--count", str(WAVE_MODES)]))
        return ops, facts
    raise ValueError(f"unknown workload {name!r}")


def check(name: str, ops: list, results: list, facts: dict) -> list:
    """Failure reasons per operation; an empty list means it passed."""
    problems = [[] for _ in ops]
    parsed = []
    for i, res in enumerate(results):
        if res.code != 0:
            problems[i].append(f"exit status {res.code}: {res.stderr.strip()[-300:]}")
            parsed.append(None)
            continue
        try:
            parsed.append(res.lines())
        except json.JSONDecodeError as exc:
            problems[i].append(f"stdout is not JSON lines: {exc}")
            parsed.append(None)
    checker = {"table1": _check_table1, "dual_inverse": _check_dual_inverse,
               "mixed_2d": _check_mixed_2d}[name]
    try:
        checker(ops, parsed, facts, problems)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        for bad in problems:
            bad.append(f"output not in the expected form: {exc!r}")
    return problems


def _check_table1(ops, parsed, facts, problems):
    rows = parsed[0]
    if rows is None:
        return
    bad = problems[0]
    if sorted(r.get("P") for r in rows) != sorted(PUBLISHED):
        bad.append(f"table1 rows for P={[r.get('P') for r in rows]}")
        return
    for r in rows:
        ref_diag, ref_whit, ref_dual = PUBLISHED[r["P"]]
        if abs(r["cond_diag"] - ref_diag) > REL_TOL_DIAG_WHITNEY * ref_diag:
            bad.append(f"P={r['P']:g}: cond_diag {r['cond_diag']} vs {ref_diag}")
        if abs(r["cond_whitney"] - ref_whit) > REL_TOL_DIAG_WHITNEY * ref_whit:
            bad.append(f"P={r['P']:g}: cond_whitney {r['cond_whitney']} vs {ref_whit}")
        if abs(r["cond_dual_inverse"] - ref_dual) > ABS_TOL_DUAL_INVERSE:
            bad.append(f"P={r['P']:g}: cond_dual_inverse "
                       f"{r['cond_dual_inverse']} vs {ref_dual}")
    path = Path(rows[0]["file"])
    try:
        with open(path, newline="") as fh:
            table = list(csv.DictReader(fh))
    except OSError as exc:
        bad.append(f"table1 CSV unreadable: {exc}")
        return
    keys = ("cond_diag", "cond_whitney", "cond_dual_inverse")
    expected = sorted((r["P"], *(float(f"{r[k]:.6g}") for k in keys)) for r in rows)
    try:
        got = sorted((float(t["P"]), *(float(t[k]) for k in keys)) for t in table)
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"table1 CSV malformed: {exc}")
        return
    if got != expected:
        bad.append(f"table1 CSV rows {got} differ from the printed rows {expected}")


def _check_dual_inverse(ops, parsed, facts, problems):
    from decstar import hodge, mesh

    comp = None
    for i, lines in enumerate(parsed):
        if lines is None:
            continue
        bad = problems[i]
        if len(lines) != 1:
            bad.append(f"expected one summary line, got {len(lines)}")
            continue
        line = lines[0]
        k = line["k"]
        try:
            A = scipy.io.mmread(line["file"]).tocsr()
        except (OSError, ValueError) as exc:
            bad.append(f"matrix file unreadable: {exc}")
            continue
        A.sum_duplicates()
        n_expected = facts["edges"] if k == 1 else facts["triangles"]
        if A.shape != (n_expected, n_expected):
            bad.append(f"k={k}: shape {A.shape}, expected {n_expected} square")
            continue
        if A.nnz != line["nnz"]:
            bad.append(f"k={k}: file holds {A.nnz} nonzeros, summary says {line['nnz']}")
        dense = A.toarray()
        scale = np.abs(dense).max()
        asym = np.abs(dense - dense.T).max()
        if not asym <= SYMMETRY_RTOL * scale:
            bad.append(f"k={k}: asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:g} x {scale:.3e}")
            continue
        lam_min = np.linalg.eigvalsh(0.5 * (dense + dense.T)).min()
        if not lam_min > 0:
            bad.append(f"k={k}: minimum eigenvalue {lam_min:.3e} is not positive")
        if comp is None:
            comp = mesh.load_mesh(facts["mesh"])
        audit = hodge.sparsity_audit(
            hodge.HodgeOperator(k, "dual_inverse", A, ""), comp)
        if not audit.within_bound:
            r = int(np.argmax(audit.row_nonzeros > audit.bounds))
            bad.append(f"k={k}: row {r} has {audit.row_nonzeros[r]} nonzeros, "
                       f"bound {audit.bounds[r]}")


def _check_mixed_2d(ops, parsed, facts, problems):
    waves = {}
    for i, (op, lines) in enumerate(zip(ops, parsed)):
        if lines is None:
            continue
        bad = problems[i]
        if op.argv[0] == "solve":
            diffs = [l for l in lines if l.get("command") == "solve diff"]
            solved = [l for l in lines if l.get("command", "").startswith("solve ")
                      and "system" in l]
            if len(solved) != 2 or len(diffs) != 1:
                bad.append(f"expected 2 solves and 1 diff line, got "
                           f"{len(solved)} and {len(diffs)}")
            for d in diffs:
                if d.get("pass") is not True:
                    bad.append(f"formulations {d.get('pair')} disagree: {d.get('diffs')}")
        else:
            if len(lines) != 1:
                bad.append(f"expected one summary line, got {len(lines)}")
                continue
            waves[i] = np.asarray(lines[0]["omega_squared"], dtype=float)
    primal_i, dual_i = len(ops) - 2, len(ops) - 1
    if primal_i not in waves:
        return
    primal = waves[primal_i]
    null = facts["vertices"] - 1
    if len(primal) != null + WAVE_MODES:
        problems[primal_i].append(f"{len(primal)} primal eigenvalues, "
                                  f"expected {null + WAVE_MODES}")
        return
    small = int(np.sum(np.abs(primal) < NULL_RTOL * np.abs(primal).max()))
    if small != null:
        problems[primal_i].append(f"{small} primal eigenvalues below "
                                  f"{NULL_RTOL:g} x max, expected V-1 = {null}")
    if dual_i not in waves:
        return
    dual = waves[dual_i]
    if len(dual) != WAVE_MODES:
        problems[dual_i].append(f"{len(dual)} dual eigenvalues, expected {WAVE_MODES}")
        return
    rel = np.abs(primal[null:] - dual) / np.abs(dual)
    if not rel.max() <= SPECTRUM_RTOL:
        problems[dual_i].append(f"dual spectrum differs from the primal "
                                f"nonzero spectrum by {rel.max():.3e} relative")


def health(passed: list) -> dict:
    """Solver health values printed by the operations that passed."""
    residual = diff = 0.0
    for res in passed:
        for l in res.lines():
            if "residual" in l:
                residual = max(residual, float(l["residual"]))
            if l.get("command") == "solve diff":
                diff = max([diff, *map(float, l["diffs"].values())])
    return {"systems.residual_max": residual, "systems.pair_diff_max": diff}
