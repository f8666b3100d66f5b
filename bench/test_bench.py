"""Tests of the benchmark itself: inputs, checks, failure counting, tracing.

    python3 -m pytest bench
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.io

import decstar.cli
import inputs
import spans
import worker
import workloads
from decstar import hodge, mesh


def _files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_input_files(tmp_path, name):
    for run in ("a", "b", "c"):
        workloads.prepare(name, 7 if run != "c" else 8, tmp_path / run, workloads.FULL)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    if name != "table1":
        assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_vertex_loads_are_mean_zero(tmp_path):
    facts = inputs.mixed_2d_inputs(tmp_path, 6, seed=3)
    for name, path in facts["loads"].items():
        values = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
        size = facts["vertices"] if name in ("darcy_34", "magneto_12") else facts["triangles"]
        assert len(values) == size
        if size == facts["vertices"]:
            assert abs(values.sum()) < 1e-12


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_passes_its_checks_at_tiny_size(tmp_path, name):
    report = worker.execute(name, 1, tmp_path, "plain", workloads.TINY)
    assert report["failures"] == []
    assert report["failed"] == 0 and report["attempted"] >= 1
    assert report["run_s"] > 0 and report["peak_rss_mb"] > 0


def test_traced_run_reports_every_layer_metric_and_uninstalls(tmp_path):
    main = decstar.cli.main
    report = worker.execute("mixed_2d", 1, tmp_path, "traced", workloads.TINY)
    assert decstar.cli.main is main
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    added_by_runner = {"run.wall_s", "run.cpu_s", "trace.overhead"}
    listed = {m["name"] for m in spec["per_layer"]}
    assert set(report["layers"]) == listed - added_by_runner
    layers = report["layers"]
    assert layers["sibson.coords.s"] == 0.0
    assert layers["whitney.gram.calls"] > 0
    assert layers["mesh.vertices"] == 16
    assert layers["systems.pair_diff_max"] <= workloads.SOLVE_TOL
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["name"] == "cli.main"


def test_self_time_excludes_children_and_nodes_count_outermost_calls():
    trace = [
        {"id": 0, "parent": None, "name": "cli.main", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "hodge.dual_inverse", "start": 1.0, "end": 9.0,
         "nnz": 5},
        {"id": 2, "parent": 1, "name": "sibson.coords_grad", "start": 2.0, "end": 8.0,
         "points": 10},
        {"id": 3, "parent": 2, "name": "sibson.coords", "start": 3.0, "end": 7.0,
         "points": 50, "sites": 4},
    ]
    layers = spans.layer_metrics(trace, run_s=12.0)
    assert layers["sibson.coords.s"] == 4.0
    assert layers["hodge.dual_inverse.s"] == 2.0
    assert layers["cli.self.s"] == 2.0
    assert layers["hodge.quad_nodes"] == 10
    assert layers["sibson.clip_evals"] == 200
    assert layers["sibson.ns_per_clip"] == pytest.approx(2e7)
    assert layers["hodge.nnz"] == 5
    assert layers["run.untraced_share"] == pytest.approx(2.0 / 12.0)


def _table1_result(tmp_path, scale_whitney=1.0):
    rows = [(2.0, 6.34, 3.24, 1.43), (5.0, 17.21, 9.93, 1.36),
            (10.0, 34.59, 21.57, 1.33)]
    csv_path = tmp_path / "table1.csv"
    csv_path.write_text("P,cond_diag,cond_whitney,cond_dual_inverse\n" + "".join(
        f"{p:g},{d:.6g},{w:.6g},{q:.6g}\n" for p, d, w, q in rows))
    stdout = "".join(json.dumps({
        "command": "table1", "P": p, "cond_diag": d,
        "cond_whitney": w * scale_whitney, "cond_dual_inverse": q,
        "file": str(csv_path)}) + "\n" for p, d, w, q in rows)
    return workloads.OpResult(0, stdout, "")


def test_checker_accepts_the_published_table_and_flags_a_value_off_by_5pct(tmp_path):
    ops = [workloads.Op("table1", ["table1"])]
    good = workloads.check("table1", ops, [_table1_result(tmp_path)], {})
    assert good == [[]]
    bad = workloads.check("table1", ops, [_table1_result(tmp_path, 1.05)], {})
    assert any("cond_whitney" in reason for reason in bad[0])


def test_checker_flags_an_asymmetric_matrix(tmp_path):
    ops, facts = workloads.prepare("dual_inverse", 1, tmp_path, workloads.TINY)
    results = [worker.run_op(op.argv) for op in ops]
    assert workloads.check("dual_inverse", ops, results, facts) == [[], []]
    path = json.loads(results[0].stdout)["file"]
    A = scipy.io.mmread(path).tocsr()
    i, j = A[0].indices[A[0].indices != 0][:1][0], 0
    A[j, i] = A[j, i] * (1 + 1e-6)
    scipy.io.mmwrite(path, A.tocoo(), symmetry="general")
    problems = workloads.check("dual_inverse", ops, results, facts)
    assert any("asymmetry" in reason for reason in problems[0])
    assert problems[1] == []


def test_checker_flags_a_failed_formulation_comparison(tmp_path):
    ops, facts = workloads.prepare("mixed_2d", 1, tmp_path, workloads.TINY)
    results = [worker.run_op(op.argv) for op in ops]
    assert workloads.check("mixed_2d", ops, results, facts) == [[]] * len(ops)
    results[0].stdout = results[0].stdout.replace('"pass": true', '"pass": false')
    problems = workloads.check("mixed_2d", ops, results, facts)
    assert any("disagree" in reason for reason in problems[0])
    assert all(p == [] for p in problems[1:])


def test_cli_exit_status_1_counts_as_a_failed_operation(tmp_path, monkeypatch):
    prepare = workloads.prepare

    def with_missing_mesh(name, seed, work, sizes):
        ops, facts = prepare(name, seed, work, sizes)
        ops[0].argv[ops[0].argv.index("--mesh") + 1] = str(work / "missing.json")
        return ops, facts

    monkeypatch.setattr(workloads, "prepare", with_missing_mesh)
    report = worker.execute("dual_inverse", 1, tmp_path, "plain", workloads.TINY)
    assert report["attempted"] == 2 and report["failed"] == 1
    assert "exit status 1" in report["failures"][0]


# The workloads use jittered-lattice meshes.  On the library's own random
# meshes (`random:n:seed`: uniform points plus the box corners), each box
# side is a single edge next to a sliver triangle, and the library fails the
# benchmark's checks there.  These record the defects; they pass once fixed.


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="dual-inverse "
                   "1-form star is numerically singular on random:120:1")
def test_dual_inverse_star_is_positive_definite_on_a_random_mesh():
    comp = mesh.random_delaunay(120, 1)
    dual = mesh.build_dual(comp, "barycentric")
    star = hodge.assemble_dual_inverse(comp, dual, 1, 32).toarray()
    assert np.linalg.eigvalsh(star).min() > 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="Darcy "
                   "formulations 1 and 2 differ by about 3e-6 on random:300:5")
def test_darcy_formulations_agree_on_a_random_mesh(tmp_path):
    res = worker.run_op(["solve", "darcy", "--mesh", "random:300:5", "--kind",
                         "whitney", "--system", "1,2", "--tol", "1e-8",
                         "--out", str(tmp_path)])
    assert res.code == 0
    diff = [l for l in res.lines() if l["command"] == "solve diff"][0]
    assert diff["pass"] is True, diff
