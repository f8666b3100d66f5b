import ast
import contextlib
import importlib
import io
import itertools
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

import decstar
from decstar import cli, hodge, mesh, systems
from decstar.sibson import DualInterpolation

SUBCOMMANDS = ["info", "dual", "hodge", "cond", "table1", "solve", "wave",
               "sample-field", "fig8", "convert"]


def strict_json(line):
    """json.loads that rejects the non-standard Infinity/-Infinity/NaN."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(line, parse_constant=reject)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    lines = [strict_json(l) for l in out.out.splitlines() if l.strip()]
    return code, lines, out.err


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_help_contract(name):
    proc = subprocess.run(
        [sys.executable, "-m", "decstar.cli", name, "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert name in proc.stdout


def test_top_level_help():
    proc = subprocess.run(
        [sys.executable, "-m", "decstar.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for name in SUBCOMMANDS:
        assert name in proc.stdout


@pytest.mark.parametrize("module, unused", [
    ("decstar.mesh", ["scipy"]),
    ("decstar.cli", ["scipy.linalg", "scipy.io", "scipy.sparse.linalg",
                     "scipy.sparse.csgraph"]),
])
def test_import_loads_no_unused_scipy_module(module, unused):
    """scipy modules that few commands use load inside the functions that
    use them, so a fresh interpreter's import of `module` loads none of
    `unused` or their submodules."""
    script = (f"import json, sys, {module}\n"
              f"print(json.dumps(sorted(m for m in sys.modules for u in "
              f"{unused!r} if m == u or m.startswith(u + '.'))))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_first_main_call_freezes_the_heap_once(tmp_path):
    """Importing the CLI freezes nothing; the first `main` moves the heap to
    the collector's permanent generation and a second `main` adds nothing,
    so each later call's cycles stay collectable.  Both print the same."""
    script = ("import gc, json, sys\n"
              "import decstar.cli\n"
              "counts = [gc.get_freeze_count()]\n"
              "for _ in range(2):\n"
              "    assert decstar.cli.main(sys.argv[1:]) == 0\n"
              "    counts.append(gc.get_freeze_count())\n"
              "print(json.dumps(counts))")
    argv = ["info", "--mesh", "grid:2", "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    first, second, counts = proc.stdout.splitlines()
    assert first == second
    imported, after_first, after_second = json.loads(counts)
    assert imported == 0
    assert after_first > 10_000
    assert after_second == after_first


def test_info_summary(capsys):
    code, lines, _ = run(["info", "--mesh", "two_triangle"], capsys)
    assert code == 0
    assert lines[0]["counts"] == {"0": "4", "1": "5", "2": "2"} or \
        lines[0]["counts"] == {"0": 4, "1": 5, "2": 2}


def test_info_resolves_an_equilateral_grid(capsys):
    code, lines, _ = run(["info", "--mesh", "equilateral:3"], capsys)
    assert code == 0
    assert lines[0]["counts"] == {"0": 16, "1": 33, "2": 18}
    assert lines[0]["primal_range"][1] == pytest.approx([1.0, 1.0])
    assert lines[0]["primal_range"][2] == pytest.approx([3 ** 0.5 / 4] * 2)
    assert lines[0]["worst_aspect_ratio"] == pytest.approx(1.0)


def test_info_zero_dual_measure_is_strict_json(capsys):
    # right triangles put circumcenters on the hypotenuses, so the diagonal
    # edges have zero dual length and an unbounded dual gradation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, lines, _ = run(["info", "--mesh", "grid:4", "--rule",
                              "circumcentric"], capsys)
    assert code == 0
    assert lines[0]["dual_gradation"] == [4.0, None, 1.0]


def test_strict_json_rejects_non_finite():
    with pytest.raises(ValueError):
        strict_json('{"condition": Infinity}')
    with pytest.raises(ValueError):
        strict_json("[NaN]")


@pytest.mark.parametrize("kind", ["diag", "whitney", "dual_inverse"])
@pytest.mark.parametrize("k", [5, -1])
def test_out_of_range_degree_fails(kind, k, capsys):
    code, lines, err = run(["cond", "--mesh", "grid:2", "--k", str(k),
                            "--kind", kind, "--grid", "16"], capsys)
    assert code == 1
    assert lines == []
    assert err.startswith("error: degree k=") and err.count("\n") == 1


def test_bad_mesh_spec_fails(capsys):
    code, lines, err = run(["info", "--mesh", "nonsense:1"], capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("spec, message", [
    ("grid:4:0:1", "expected grid:m[:skew]"),
    ("two_triangle:3", "expected two_triangle"),
    ("fig8:2:1", "expected fig8:P"),
    ("fig8", "expected fig8:P"),
    ("equilateral:3:1", "expected equilateral:m"),
    ("random:5:1:2:0", "expected random:n:seed[:dim]"),
    ("random:5", "expected random:n:seed[:dim]"),
    ("random:5:1:1", "dimension must be 2 or 3, got 1"),
])
def test_mesh_spec_field_counts(spec, message, capsys):
    code, lines, err = run(["info", "--mesh", spec], capsys)
    assert (code, lines, err) == (
        1, [], f"error: bad mesh spec {spec!r}: {message}\n")


SPAN = "vertex coordinates span {}; a 2D mesh must span less than 5.79e+76"
SPAN_3D = "vertex coordinates span {}; a 3D mesh must span less than 9.699e+50"


UNIT_MESHES = {  # the unit square as two triangles, the unit tetrahedron
    2: ([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]]),
    3: ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2, 3]]),
}


def scaled_mesh(dim, side):
    """The JSON unit mesh of dimension `dim`, scaled by `side`."""
    vertices, cells = UNIT_MESHES[dim]
    return json.dumps({"dimension": dim, "cells": cells,
                       "vertices": (side * np.array(vertices)).tolist()})


def triangle_mesh(cells):
    return json.dumps({"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
                       "cells": cells})


HUGE = [[0, 0], [1e200, 0], [0, 1e200]]
BAD_MESH_FILES = {
    "huge.json": json.dumps({"dimension": 2, "vertices": HUGE,
                             "cells": [[0, 1, 2]]}),
    "huge.off": "OFF\n3 1\n" + "".join(f"{x!r} {y!r}\n" for x, y in HUGE)
                + "3 0 1 2\n",
    "duplicate.json": triangle_mesh([[0, 1, 2], [2, 1, 0]]),
    # past the extent limit a simplex's edge Gram determinant can overflow,
    # and then wave gives all-zero spectra and info a wrong degenerate simplex
    "square1e100.json": scaled_mesh(2, 1e100),
    "tet1e90.json": scaled_mesh(3, 1e90),
    "square1e77.json": scaled_mesh(2, 1e77),
    "tet1e52.json": scaled_mesh(3, 1e52),
    "no_cells.json": triangle_mesh([]),
    "no_cells.off": "OFF\n3 0 0\n0 0\n1 0\n0 1\n",
    "edge_cell.json": triangle_mesh([[0, 1]]),
    "repeated.json": triangle_mesh([[0, 1, 2], [0, 0, 1]]),
}


@pytest.mark.parametrize("argv, message", [
    (["info", "--mesh", "huge.json"], SPAN.format("1e+200")),
    (["convert", "huge.off"], SPAN.format("1e+200")),
    (["info", "--mesh", "fig8:1e300"],
     "bad mesh spec 'fig8:1e300': " + SPAN.format("2e+300")),
    (["table1", "--P", "1e300", "--grid", "16"], SPAN.format("2e+300")),
    (["fig8", "--P", "1e160"], SPAN.format("2e+160")),
    (["info", "--mesh", "duplicate.json"], "duplicate cell 1: (0, 1, 2)"),
    (["wave", "--kind", "whitney", "--count", "5", "--mesh",
      "square1e100.json"], SPAN.format("1e+100")),
    (["wave", "--kind", "whitney", "--count", "6", "--mesh", "tet1e90.json"],
     SPAN_3D.format("1e+90")),
    (["info", "--mesh", "square1e77.json"], SPAN.format("1e+77")),
    (["info", "--mesh", "tet1e52.json"], SPAN_3D.format("1e+52")),
    (["info", "--mesh", "no_cells.json"], "mesh has no cells"),
    (["convert", "no_cells.off"], "mesh has no cells"),
    (["info", "--mesh", "edge_cell.json"], "cells must have 3 vertices each"),
    (["info", "--mesh", "repeated.json"], "cell 1 has repeated vertices"),
    # a non-finite generator parameter is rejected before any coordinate is
    # computed, so no floating-point warning comes first
    (["fig8", "--P", "inf"], "fig8 mesh requires a finite P, got inf"),
    (["table1", "--P", "inf", "--grid", "16"],
     "fig8 mesh requires a finite P, got inf"),
    (["info", "--mesh", "fig8:inf"],
     "bad mesh spec 'fig8:inf': fig8 mesh requires a finite P, got inf"),
    (["info", "--mesh", "grid:2:inf"],
     "bad mesh spec 'grid:2:inf': grid skew must be finite, got inf"),
    (["fig8", "--P", "nan"], "fig8 mesh requires P > 1/2"),
])
def test_huge_coordinates_fail_cleanly(tmp_path, monkeypatch, capsys, argv,
                                       message):
    # every mesh error a file can reach is one error line, and no file
    monkeypatch.chdir(tmp_path)
    for name, text in BAD_MESH_FILES.items():
        (tmp_path / name).write_text(text)
    code, lines, err = run(argv, capsys)
    assert (code, lines, err) == (1, [], f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        BAD_MESH_FILES)


@pytest.mark.parametrize("dim, side, count", [(2, 5.78e76, 5),
                                              (3, 9.69e50, 6)])
def test_spectra_just_below_the_extent_limit_scale_with_side(
        tmp_path, capsys, dim, side, count):
    # omega^2 scales as 1 / side^2, so side^2 omega^2 is the unit mesh's
    spectra = []
    for scale in (1.0, side):
        path = tmp_path / f"scaled{scale:g}.json"
        path.write_text(scaled_mesh(dim, scale))
        code, lines, err = run(["info", "--mesh", str(path)], capsys)
        assert (code, err) == (0, "")
        code, lines, err = run(["wave", "--kind", "whitney", "--count",
                                str(count), "--mesh", str(path),
                                "--out", str(tmp_path)], capsys)
        assert (code, err) == (0, "")
        spectra.append(scale ** 2 * np.array(lines[0]["omega_squared"]))
    unit, scaled = spectra
    np.testing.assert_allclose(scaled, unit, rtol=1e-10,
                               atol=1e-10 * unit.max())


def test_degenerate_mesh_fails(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dimension": 2,
        "vertices": [[0, 0], [1, 0], [2, 0]],
        "cells": [[0, 1, 2]],
    }))
    code, _, err = run(["info", "--mesh", str(bad)], capsys)
    assert code == 1
    assert "error:" in err


def test_hodge_writes_matrix_market(tmp_path, capsys):
    code, lines, _ = run([
        "hodge", "--mesh", "fig8:2", "--k", "1", "--kind", "diag",
        "--rule", "circumcentric", "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    path = tmp_path / "hodge_diag_k1.mtx"
    text = path.read_text()
    assert text.startswith("%%MatrixMarket matrix coordinate real general")
    assert lines[0]["shape"] == [13, 13]
    assert lines[0]["symmetric"] is True


def test_hodge_deterministic_output(tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        code, _, _ = run([
            "hodge", "--mesh", "grid:3", "--k", "1", "--kind", "whitney",
            "--out", str(d),
        ], capsys)
        assert code == 0
        outs.append((d / "hodge_whitney_k1.mtx").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("spec", ["grid:4", "random:30:7"])
@pytest.mark.parametrize("kind", hodge.KINDS)
def test_hodge_reports_each_star_exactly_symmetric(spec, kind, tmp_path,
                                                   capsys):
    """Every star is symmetric by construction, and `hodge` compares it
    with its transpose entry for entry."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code, lines, _ = run(["hodge", "--mesh", spec, "--kind", kind,
                              "--out", str(tmp_path)], capsys)
    assert code == 0 and lines[0]["symmetric"] is True


def test_memory_error_is_one_line(monkeypatch, capsys):
    def exhaust(args):
        raise MemoryError("Unable to allocate 12.1 GiB for an array")

    monkeypatch.setitem(cli.COMMANDS, "info", exhaust)
    code = cli.main(["info", "--mesh", "two_triangle"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: out of memory: Unable to allocate 12.1 GiB for an array\n"


def test_cond_leading_block_densifies_only_the_block(monkeypatch, capsys):
    # the leading 5 x 5 block is sliced from the sparse star; no larger
    # square is densified
    comp = mesh.structured_grid(8)
    block = hodge.assemble_whitney(comp, 1).matrix.toarray()[:5, :5]
    want = hodge.condition_estimate(block)["condition"]

    def refuse_square(original):
        def guarded(a, *args, **kwargs):
            shape = np.shape(a)
            if len(shape) == 2 and shape[0] == shape[1] and shape[0] > 5:
                raise AssertionError(f"toarray on a {shape} matrix")
            return original(a, *args, **kwargs)
        return guarded

    classes = [sp._base._spbase]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if "toarray" in vars(cls):
            monkeypatch.setattr(cls, "toarray", refuse_square(cls.toarray))
    code, lines, err = run(["cond", "--mesh", "grid:8", "--kind", "whitney",
                            "--k", "1", "--method", "leading-block"], capsys)
    assert code == 0, err
    assert lines[0]["condition"] == want


def test_cond_summary(capsys):
    code, lines, _ = run([
        "cond", "--mesh", "fig8:2", "--k", "1", "--kind", "whitney",
        "--method", "leading-block",
    ], capsys)
    assert code == 0
    assert lines[0]["condition"] == pytest.approx(3.2443, abs=1e-3)


def test_table1_golden(tmp_path, capsys):
    code, lines, _ = run([
        "table1", "--P", "2,5,10", "--grid", "64", "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    assert (tmp_path / "table1.csv").read_text() == (
        "P,cond_diag,cond_whitney,cond_dual_inverse\n"
        "2,6.34129,3.24431,1.43021\n"
        "5,17.2089,9.93151,1.35549\n"
        "10,34.5946,21.5704,1.32198\n"
    )
    assert lines[0]["cond_diag"] == pytest.approx(6.341, abs=1e-3)


def test_table1_makes_one_sibson_pass_per_p(tmp_path, monkeypatch, capsys):
    # the dual-inverse block integrates over one hub cell; the mirror
    # symmetry of the two-fan mesh gives the other hub's half
    sibson = importlib.import_module("decstar.sibson")
    calls = []
    batch = sibson.SibsonCell.coords_and_gradients_batch

    def counted(self, pts):
        calls.append(len(pts))
        return batch(self, pts)

    monkeypatch.setattr(sibson.SibsonCell, "coords_and_gradients_batch",
                        counted)
    code, _, _ = run(["table1", "--P", "2,5,10", "--grid", "64",
                      "--out", str(tmp_path)], capsys)
    assert code == 0
    assert len(calls) == 3


def test_table1_determinism(tmp_path, capsys):
    texts = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        code, _, _ = run(["table1", "--P", "2", "--grid", "64",
                          "--out", str(d)], capsys)
        assert code == 0
        texts.append((d / "table1.csv").read_bytes())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("values", [",", ""])
def test_table1_rejects_an_empty_p_list(values, tmp_path, capsys):
    code, lines, err = run(["table1", "--P", values, "--grid", "16",
                            "--out", str(tmp_path)], capsys)
    assert (code, lines, err) == (1, [], "error: --P needs at least one value\n")
    assert not (tmp_path / "table1.csv").exists()


# each summary line carries the command's own fields and its computation's
# record (`quality_report`, `condition_estimate`, a `table1_experiment` row)
SUMMARY_KEYS = {
    "info": ({"command", "dimension", "counts", "rule", "primal_range",
              "dual_range", "ratio_range", "primal_gradation",
              "dual_gradation", "worst_aspect_ratio"},
             ["info", "--mesh", "grid:4"]),
    "cond": ({"command", "kind", "k", "method", "lambda_max", "lambda_min",
              "condition"},
             ["cond", "--mesh", "grid:8", "--kind", "whitney", "--k", "1"]),
    "table1": ({"command", "P", "cond_diag", "cond_whitney",
                "cond_dual_inverse", "seconds", "file"},
               ["table1", "--P", "2", "--grid", "16"]),
}


@pytest.mark.parametrize("name", sorted(SUMMARY_KEYS))
def test_summary_keys(name, tmp_path, capsys):
    keys, argv = SUMMARY_KEYS[name]
    code, lines, err = run(argv + ["--out", str(tmp_path)], capsys)
    assert (code, err, len(lines)) == (0, "", 1)
    assert set(lines[0]) == keys and lines[0]["command"] == name


def test_table1_rejects_small_p(capsys):
    code, _, err = run(["table1", "--P", "0.4", "--grid", "64"], capsys)
    assert code == 1
    assert "1/2" in err


def test_grid_floor_enforced(capsys):
    code, _, err = run(["table1", "--P", "2", "--grid", "8"], capsys)
    assert code == 1
    assert "16" in err


# the settings several subcommands share are checked once, before dispatch:
# the output directory first, then --grid, then --P

WITH_GRID = {
    "hodge": ["hodge", "--mesh", "grid:2"],
    "cond": ["cond", "--mesh", "grid:2"],
    "solve": ["solve", "darcy", "--mesh", "grid:2", "--system", "1"],
    "wave": ["wave", "--mesh", "grid:2"],
    "table1": ["table1", "--P", "2"],
}
MINIMAL_ARGV = {
    **WITH_GRID,
    "info": ["info", "--mesh", "grid:2"],
    "dual": ["dual", "--mesh", "grid:2"],
    "sample-field": ["sample-field", "--mesh", "grid:2"],
    "fig8": ["fig8", "--P", "2"],
    "convert": ["convert", "square.off"],
}


@pytest.mark.parametrize("name", sorted(WITH_GRID))
def test_grid_floor_on_every_command_with_grid(name, capsys):
    code, lines, err = run(WITH_GRID[name] + ["--grid", "8"], capsys)
    assert (code, lines) == (1, [])
    assert err == "error: --grid must be at least 16, got 8\n"


@pytest.mark.parametrize("name", ["table1", "fig8"])
def test_p_floor_on_every_command_with_p(name, capsys):
    code, lines, err = run([name, "--P", "0.4"], capsys)
    assert (code, lines) == (1, [])
    assert err == "error: --P values must exceed 1/2, got 0.4\n"


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_missing_out_directory_comes_first(name, tmp_path, capsys):
    missing = tmp_path / "missing"
    argv = MINIMAL_ARGV[name] + ["--out", str(missing)]
    if name in WITH_GRID:
        argv += ["--grid", "8"]
    code, lines, err = run(argv, capsys)
    assert (code, lines) == (1, [])
    assert err == f"error: output directory {missing} does not exist\n"


def test_solve_cross_validation(capsys, tmp_path):
    code, lines, _ = run([
        "solve", "darcy", "--mesh", "two_triangle", "--system", "1,2",
        "--kind", "whitney", "--tol", "1e-8", "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    diff = [l for l in lines if l["command"] == "solve diff"][0]
    assert diff["pass"] is True
    assert max(diff["diffs"].values()) < 1e-8


def test_solve_rejects_mixed_groups(capsys):
    code, _, err = run([
        "solve", "darcy", "--mesh", "two_triangle", "--system", "1,3",
    ], capsys)
    assert code == 1
    assert "pair" in err


def test_solve_incompatible_load(tmp_path, capsys):
    load = tmp_path / "load.csv"
    load.write_text("id,value\n0,1.0\n1,1.0\n2,1.0\n3,1.0\n")
    code, _, err = run([
        "solve", "magneto", "--mesh", "two_triangle", "--system", "1",
        "--load", str(load),
    ], capsys)
    assert code == 1
    assert "range" in err


def test_solve_writes_cochains(tmp_path, capsys):
    code, lines, _ = run([
        "solve", "darcy", "--mesh", "grid:3", "--system", "1",
        "--kind", "diag", "--write", "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    f_csv = (tmp_path / "darcy-1_f.csv").read_text().splitlines()
    assert f_csv[0] == "id,value"
    assert len(f_csv) == 1 + 33  # header plus one row per edge
    assert lines[0]["file_f"].endswith("darcy-1_f.csv")


def test_wave_summary(capsys):
    code, lines, _ = run([
        "wave", "--mesh", "grid:3", "--kind", "whitney", "--count", "3",
    ], capsys)
    assert code == 0
    assert len(lines[0]["omega_squared"]) == 3


def test_whitney_star_builds_no_dual(tmp_path, monkeypatch, capsys):
    # the Whitney star never reads the dual mesh, so the commands that
    # assemble one must not build it
    out = ["--mesh", "grid:3", "--kind", "whitney", "--out", str(tmp_path)]
    argvs = [["hodge", *out], ["solve", "darcy", "--system", "1,2", *out],
             ["wave", *out]]

    def lines_of(argv):
        code, lines, _ = run(argv, capsys)
        assert code == 0
        return [{k: v for k, v in l.items() if k != "seconds"} for l in lines]

    expect = [lines_of(argv) for argv in argvs]

    def no_dual(*args, **kwargs):
        raise AssertionError("the dual mesh was built")

    monkeypatch.setattr(mesh, "build_dual", no_dual)
    assert [lines_of(argv) for argv in argvs] == expect


def test_dual_inverse_star_walks_each_vertex_ring_once(tmp_path, monkeypatch,
                                                      capsys):
    # the dual mesh carries no polygons; the interpolation structure walks
    # the ring of every vertex, once
    sibson = importlib.import_module("decstar.sibson")
    walked = []
    ring = mesh.vertex_ring

    def counted(comp, v):
        walked.append(v)
        return ring(comp, v)

    monkeypatch.setattr(mesh, "vertex_ring", counted)
    monkeypatch.setattr(sibson, "vertex_ring", counted)
    code, _, _ = run(["hodge", "--kind", "dual_inverse", "--mesh", "grid:4",
                      "--out", str(tmp_path)], capsys)
    assert code == 0
    assert sorted(walked) == list(range(25))


def counted_region_builds(monkeypatch):
    """Per `sibson._site_regions` call from now on, whether each of its
    (loop, domain) pairs clips a loop to itself."""
    sibson = importlib.import_module("decstar.sibson")
    calls = []
    build = sibson._site_regions

    def counted(pairs):
        calls.append([np.array_equal(loop, domain) for loop, domain in pairs])
        return build(pairs)

    monkeypatch.setattr(sibson, "_site_regions", counted)
    return calls


def test_dual_inverse_star_builds_each_cell_regions_once(tmp_path,
                                                        monkeypatch, capsys):
    # every dual polygon builds its restricted site regions once, clipped
    # to itself, all in one batched call
    calls = counted_region_builds(monkeypatch)
    code, _, _ = run(["hodge", "--kind", "dual_inverse", "--k", "1", "--mesh",
                      "grid:4", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert calls == [[True] * 25]


def test_dual_wave_builds_each_cell_regions_once(tmp_path, monkeypatch,
                                                  capsys):
    # the star's two degrees share one interpolation: 81 polygons on
    # grid:8, one build each
    calls = counted_region_builds(monkeypatch)
    code, lines, _ = run(["wave", "--mesh", "grid:8", "--grid", "32",
                          "--formulation", "dual", "--kind", "dual_inverse",
                          "--out", str(tmp_path)], capsys)
    assert code == 0 and len(lines[0]["omega_squared"]) == 6
    assert calls == [[True] * 81]


@pytest.mark.parametrize("samples", [4, 16])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_dual_field_builds_the_sampled_polygons_regions_once(
        tmp_path, monkeypatch, capsys, k, samples):
    # the field builds the regions of the polygons that own its points, each
    # clipped to itself, in one batched call; at k = 0 it reads only their
    # measures and builds none
    comp = mesh.structured_grid(8)
    di = DualInterpolation(comp, mesh.build_dual(comp, "barycentric"))
    owner = di.locate(mesh.pixel_centers(comp.vertices.min(axis=0),
                                         comp.vertices.max(axis=0), samples))
    sampled = len(np.unique(owner[owner >= 0]))
    calls = counted_region_builds(monkeypatch)
    code, lines, _ = run(["sample-field", "--space", "dual", "--mesh",
                          "grid:8", "--k", str(k), "--samples", str(samples),
                          "--out", str(tmp_path)], capsys)
    assert code == 0 and lines[0]["samples"] == samples ** 2
    assert calls == ([] if k == 0 else [[True] * sampled])


def test_main_calls_in_a_row_match_fresh_processes(tmp_path, capsys):
    # every `main` call in a process parses with one shared parser; each
    # still prints what a fresh process prints, timings aside
    def untimed(text):
        rows = [json.loads(l) for l in text.splitlines() if l.strip()]
        return [{k: v for k, v in r.items() if k != "seconds"} for r in rows]

    for argv in (["table1", "--grid", "16"],
                 ["hodge", "--mesh", "grid:3", "--kind", "whitney"],
                 ["cond", "--mesh", "grid:3", "--k", "2"],
                 ["hodge", "--mesh", "grid:3", "--grid", "8"],
                 ["table1", "--grid", "16", "--P", "3"],
                 ["table1", "--grid", "16"]):
        argv = [*argv, "--out", str(tmp_path)]
        code = cli.main(argv)
        out = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "decstar.cli", *argv],
                              capture_output=True, text=True)
        assert code == proc.returncode
        assert untimed(out.out) == untimed(proc.stdout)
        assert out.err == proc.stderr


def test_self_intersecting_dual_polygon_is_one_line(tmp_path, capsys):
    # the flat-sided dual polygon of vertex 4 of random:21:34 is a bowtie
    code, lines, err = run(["sample-field", "--space", "dual", "--mesh",
                            "random:21:34", "--out", str(tmp_path)], capsys)
    assert code == 1 and lines == []
    assert err == "error: dual polygon of vertex 4 intersects itself\n"


def test_sample_field(tmp_path, capsys):
    code, lines, _ = run([
        "sample-field", "--mesh", "grid:3", "--k", "1", "--samples", "6",
        "--out", str(tmp_path),
    ], capsys)
    assert code == 0
    body = (tmp_path / "field_samples.csv").read_text().splitlines()
    assert body[0] == "x,y,value0,value1"
    assert lines[0]["samples"] > 0


def test_convert_off(tmp_path, capsys):
    off = tmp_path / "square.off"
    off.write_text("OFF\n4 2 0\n0 0\n1 0\n1 1\n0 1\n3 0 1 2\n3 0 2 3\n")
    code, lines, _ = run(["convert", str(off), "--out", str(tmp_path)],
                         capsys)
    assert code == 0
    assert lines[0]["counts"]["2"] == 2
    code2, lines2, _ = run(["info", "--mesh",
                            str(tmp_path / "square.json")], capsys)
    assert code2 == 0


OFF_MESHES = {
    # the token after 2 * nv coordinates reads "3", the arity of a triangle
    "tet": ("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 3\n0 0 1\n4 0 1 2 3\n",
            3, {"0": 4, "1": 6, "2": 4, "3": 1}),
    # a counts line without the edge count
    "square": ("4 2\n0 0\n1 0\n1 1\n0 1\n3 0 1 2\n3 0 2 3\n",
               2, {"0": 4, "1": 5, "2": 2}),
}


@pytest.mark.parametrize("name", sorted(OFF_MESHES))
def test_convert_reads_dimension_from_vertex_lines(tmp_path, capsys, name):
    text, dim, counts = OFF_MESHES[name]
    off = tmp_path / f"{name}.off"
    off.write_text(text)
    code, lines, err = run(["convert", str(off), "--out", str(tmp_path)],
                           capsys)
    assert code == 0, err
    assert lines[0]["dimension"] == dim and lines[0]["counts"] == counts
    doc = json.loads((tmp_path / f"{name}.json").read_text())
    assert len(doc["vertices"][0]) == dim


MALFORMED_OFF = {
    "not_text": b"OFF\n4 2 0\n0 0\n1 \xff0\n",
    "empty": b"# only a comment\n",
    "bad_counts": b"OFF\n4 x 0\n",
    "one_count": b"OFF\n4\n0 0\n",
    "missing_lines": b"OFF\n4 2 0\n0 0\n1 0\n1 1\n0 1\n3 0 1 2\n",
    "extra_lines": b"3 1\n0 0\n1 0\n0 1\n3 0 1 2\n3 0 1 2\n",
    "count_mismatch": b"4 2 0\n0 0\n1 0\n1 1\n0 1\n3 0 1 2\n4 0 2 3\n",
    "ragged_vertices": b"4 2 0\n0 0\n1 0 0\n1 1\n0 1\n3 0 1 2\n3 0 2 3\n",
    "text_vertex": b"3 1\n0 0\n1 a\n0 1\n3 0 1 2\n",
    "float_index": b"3 1\n0 0\n1 0\n0 1\n3 0 1 2.0\n",
    "no_vertices": b"0 0\n",
    "unused_vertex": b"5 2 0\n0 0\n1 0\n1 1\n0 1\n0.5 2\n3 0 1 2\n3 0 2 3\n",
}


def test_malformed_off_files_fail_cleanly(tmp_path):
    for name, data in MALFORMED_OFF.items():
        path = tmp_path / f"{name}.off"
        path.write_bytes(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(["convert", str(path), "--out", str(tmp_path)])
        assert code == 1, name
        err = stderr.getvalue()
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
        assert "Traceback" not in err, name
        assert stdout.getvalue() == "", name
        assert not (tmp_path / f"{name}.json").exists(), name


def test_fig8_subcommand(tmp_path, capsys):
    code, lines, _ = run(["fig8", "--P", "3", "--out", str(tmp_path)],
                         capsys)
    assert code == 0
    assert (tmp_path / "fig8_P3.json").exists()
    assert lines[0]["counts"] == {"0": 8, "1": 13, "2": 6}


def test_cond_rejects_bad_block(capsys):
    for block in ("0", "-3", "14"):
        code, lines, err = run(["cond", "--mesh", "fig8:2", "--kind", "whitney",
                                "--method", "leading-block", "--block", block],
                               capsys)
        assert code == 1 and lines == []
        assert err.startswith("error: leading block size") and err.count("\n") == 1


def test_wave_rejects_bad_count(capsys):
    # grid:2 has 16 edges (primal unknowns) and 8 triangles (dual unknowns)
    for formulation, size in (("primal", 16), ("dual", 8)):
        argv = ["wave", "--mesh", "grid:2", "--kind", "whitney",
                "--formulation", formulation, "--count"]
        code, lines, _ = run(argv + [str(size)], capsys)
        assert code == 0 and len(lines[0]["omega_squared"]) == size
        for count in ("0", "-1", str(size + 1), "1000"):
            code, lines, err = run(argv + [count], capsys)
            assert code == 1 and lines == []
            assert err.startswith("error: eigenpair count") \
                and err.count("\n") == 1


def test_solve_rejects_repeated_system_ids(capsys):
    code, lines, err = run(["solve", "darcy", "--mesh", "grid:3", "--kind",
                            "whitney", "--system", "1,1", "--tol", "1e-8"],
                           capsys)
    assert code == 1 and lines == []
    assert err == "error: --system repeats a formulation id: 1,1\n"


def test_solve_rejects_empty_system_list(capsys):
    code, lines, err = run(["solve", "darcy", "--mesh", "grid:2",
                            "--system", ","], capsys)
    assert code == 1 and lines == []
    assert err.startswith("error: --system") and err.count("\n") == 1


@pytest.mark.parametrize("flags, error", [
    (["--system", "1,1"], "--system repeats a formulation id: 1,1"),
    (["--system", ","], "--system needs at least one formulation id"),
    (["--system", "1,3"], "systems 1-2 and 3-4 take loads on different "
                          "spaces and cannot share one run; pick systems "
                          "from a single pair"),
    (["--system", "5"], "darcy system id must be 1-4, got 5"),
    (["--system", "1", "--seed", "-1"], "--seed must be non-negative, got -1"),
    (["--system", "1,2", "--tol", "nan"],
     "--tol must be finite and non-negative, got nan"),
    (["--system", "1,2", "--tol", "-1"],
     "--tol must be finite and non-negative, got -1"),
    (["--system", "1,2", "--tol", "inf"],
     "--tol must be finite and non-negative, got inf"),
], ids=["repeated", "empty", "mixed-pair", "out-of-range", "seed", "tol-nan",
        "tol-negative", "tol-inf"])
def test_solve_checks_its_arguments_before_the_mesh(flags, error, monkeypatch,
                                                    capsys):
    def refuse(spec):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(cli, "resolve_mesh", refuse)
    code, lines, err = run(["solve", "darcy", "--mesh", "grid:256", "--kind",
                            "whitney", *flags], capsys)
    assert code == 1 and lines == []
    assert err == f"error: {error}\n"


def test_solve_accepts_a_zero_tol(capsys):
    code, lines, _ = run(["solve", "darcy", "--mesh", "grid:4", "--kind",
                          "whitney", "--system", "1,2", "--tol", "0"], capsys)
    assert code == 0 and lines[-1]["command"] == "solve diff"
    assert lines[-1]["pass"] is (max(lines[-1]["diffs"].values()) == 0)


def test_the_package_raises_one_error_type():
    """`decstar.Error` is the package's one exception class, and every
    `raise` in it raises that class; the `SystemExit` of the `__main__`
    guard in `cli` is the one other raise."""
    package = Path(decstar.__file__).parent
    modules = [importlib.import_module(f"decstar.{path.stem}")
               for path in sorted(package.glob("[!_]*.py"))]
    defined = {obj for module in [decstar, *modules]
               for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__.startswith("decstar")}
    assert defined == {decstar.Error}
    others = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc
                if not (isinstance(exc, ast.Call)
                        and isinstance(exc.func, ast.Name)
                        and exc.func.id == "Error"):
                    others.append(f"{path.name}: {ast.unparse(node)}")
    assert others == ["cli.py: raise SystemExit(main())"]
    guard = ast.parse((package / "cli.py").read_text()).body[-1]
    assert ast.unparse(guard) == ("if __name__ == '__main__':\n"
                                  "    raise SystemExit(main())")


def test_solve_3d_default_load_is_compatible(capsys):
    # the default current of systems 1-2 is D_{n-2}^T applied to a seeded
    # vector, in its range, which in 3D is not just the mean-zero vectors
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, lines, err = run(["solve", "magneto", "--mesh", "random:12:3:3",
                                "--system", "1,2", "--tol", "1e-8"], capsys)
    assert code == 0, err
    diff = [l for l in lines if l["command"] == "solve diff"][0]
    assert diff["pass"] is True


def test_fig8_json_keeps_edge_order(tmp_path, capsys):
    code, lines, _ = run(["fig8", "--P", "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "fig8_P2.json").read_text())
    assert "simplex_order" in doc
    conds = []
    for spec in ("fig8:2", str(tmp_path / "fig8_P2.json")):
        code, lines, _ = run(["cond", "--mesh", spec, "--kind", "whitney",
                              "--method", "leading-block"], capsys)
        assert code == 0
        conds.append(lines[0]["condition"])
    assert conds[0] == conds[1] == pytest.approx(3.2443, abs=1e-3)


# ---------------------------------------------------------------------------
# fuzzing: every argv of a small grammar exits 0, 1 or 2 without a traceback
# and prints only strict-JSON lines

MESHES = ["grid:2", "two_triangle", "fig8:2", "random:8:1:3"]
INTS = ["0", "-1", "-3", "1", "2", "3"]
LISTS = ["", ",", "0", "-1", "2", "0.5,2", "1,2", "3,4", "1,3", "5"]
GRIDS = ["0", "-5", "16"]
COMMON = {"--mesh": MESHES, "--rule": ["barycentric", "circumcentric"]}
KIND = {"--kind": ["diag", "whitney", "dual_inverse"], "--grid": GRIDS}
GRAMMAR = {
    "info": [COMMON],
    "dual": [COMMON],
    "hodge": [COMMON, KIND, {"--k": INTS}],
    "cond": [COMMON, KIND, {"--k": INTS, "--method": ["full", "leading-block"],
                            "--block": INTS + ["100"]}],
    "table1": [{"--P": LISTS, "--grid": GRIDS}],
    "solve": [COMMON, KIND, {"--system": LISTS, "--seed": INTS,
                             "--tol": ["0", "-1", "1e-8"],
                             "--gauge": ["pin", "augment"]}],
    "wave": [COMMON, KIND, {"--count": INTS,
                            "--formulation": ["primal", "dual"]}],
    "sample-field": [COMMON, {"--k": INTS, "--space": ["primal", "dual"],
                              "--samples": INTS}],
    "fig8": [{"--P": LISTS}],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    if command == "solve":
        argv.append(draw(st.sampled_from(["darcy", "magneto"])))
    for group in GRAMMAR[command]:
        for flag, values in group.items():
            value = draw(st.sampled_from([None] + values))
            if value is not None:
                argv += [flag, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_out(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_cli_fuzz(fuzz_out, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("ignore")
        try:
            code = cli.main(argv + ["--out", str(fuzz_out)])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr.getvalue()
    for line in stdout.getvalue().splitlines():
        strict_json(line)


# malformed mesh files: each one is a one-line error and exit status 1

SQUARE = '"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]'
MALFORMED_MESHES = {
    "not_json": b"{dimension: 2",
    "empty": b"",
    "not_text": b"\xff\xfe\x00\xd8",
    "not_an_object": b"[2, [], []]",
    "empty_arrays": b'{"dimension": 2, "vertices": [], "cells": []}',
    "one_d_vertices": b'{"dimension": 2, "vertices": [0, 1, 2], '
                      b'"cells": [[0, 1, 2]]}',
    "ragged_cells": f'{{"dimension": 2, {SQUARE}, '
                    f'"cells": [[0, 1, 2], [0, 2]]}}'.encode(),
    "float_cells": f'{{"dimension": 2, {SQUARE}, '
                   f'"cells": [[0, 1, 2.5]]}}'.encode(),
    "wrong_dimension": f'{{"dimension": 3, {SQUARE}, '
                       f'"cells": [[0, 1, 2], [0, 2, 3]]}}'.encode(),
    "dimension_4": f'{{"dimension": 4, {SQUARE}, '
                   f'"cells": [[0, 1, 2]]}}'.encode(),
    "text_vertices": b'{"dimension": 2, "vertices": [["a", "b"], [1, 0], '
                     b'[0, 1]], "cells": [[0, 1, 2]]}',
    "nan_vertices": b'{"dimension": 2, "vertices": [[NaN, 0], [1, 0], '
                    b'[0, 1]], "cells": [[0, 1, 2]]}',
    "order_not_a_map": f'{{"dimension": 2, {SQUARE}, '
                       f'"cells": [[0, 1, 2], [0, 2, 3]], '
                       f'"simplex_order": [[0, 1]]}}'.encode(),
    "scalar_cells": f'{{"dimension": 2, {SQUARE}, "cells": 1}}'.encode(),
    "negative_scalar_cells": f'{{"dimension": 2, {SQUARE}, '
                             f'"cells": -1}}'.encode(),
    "directory": None,
}


@pytest.fixture(scope="module")
def malformed_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")
    for name, data in MALFORMED_MESHES.items():
        if data is None:
            (root / f"{name}.json").mkdir()
        else:
            (root / f"{name}.json").write_bytes(data)
    return root


MALFORMED_COCHAINS = {
    "non_integer_id": b"id,value\n0,1\nx,2\n",
    "one_field": b"id,value\n5\n",
    "non_numeric_value": b"id,value\n0,abc\n",
    "nan_value": b"0,nan\n",
    "infinite_value": b"id,value\n1,-inf\n",
    "repeated_id": b"0,1\n0,2\n",
    "negative_first_id": b"-1,3\n0,1\n",
    "id_out_of_range": b"id,value\n99999,1\n",
    "binary": b"0,1\n\xff\xfe\x00\x81\n",
    "extra_field": b"id,value\n0,1.5,7\n",
    "trailing_comma_first_line": b"0,1.5,\n1,2\n",
    "three_columns": b"id,x,y\n0,0.5,0.25\n",
}


@pytest.mark.parametrize("argv", [
    ["sample-field", "--mesh", "grid:2", "--k", "1", "--samples", "4",
     "--cochain"],
    ["solve", "darcy", "--mesh", "grid:2", "--system", "1,2", "--load"],
])
def test_malformed_cochain_files_fail_cleanly(tmp_path, argv):
    for name, data in MALFORMED_COCHAINS.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv + [str(path), "--out", str(tmp_path)])
        assert code == 1, name
        err = stderr.getvalue()
        assert err.startswith(f"error: cochain file {path}, line "), (name,
                                                                      err)
        assert err.count("\n") == 1 and "Traceback" not in err, (name, err)
        assert stdout.getvalue() == "", name


@pytest.mark.parametrize("argv", [["info"], ["dual"],
                                  ["hodge", "--kind", "whitney"],
                                  ["solve", "darcy", "--system", "1,2"]])
def test_malformed_mesh_files_fail_cleanly(malformed_dir, argv):
    for name in MALFORMED_MESHES:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv + ["--mesh", str(malformed_dir / f"{name}.json"),
                                    "--out", str(malformed_dir)])
        assert code == 1, name
        err = stderr.getvalue()
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
        assert "Traceback" not in err
        for line in stdout.getvalue().splitlines():
            strict_json(line)


@pytest.mark.parametrize("argv", [
    ["info"], ["hodge", "--kind", "dual_inverse"],
    ["sample-field", "--space", "dual"],
    ["solve", "darcy", "--system", "3,4", "--kind", "whitney"]])
def test_vertex_in_no_cell_fails(tmp_path, capsys, argv):
    """A vertex that no cell uses is an error of the mesh, not of the
    command that trips over it later."""
    path = tmp_path / "unused.json"
    path.write_text(json.dumps({
        "dimension": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 2]],
        "cells": [[0, 1, 2], [0, 2, 3]]}))
    code, lines, err = run(argv + ["--mesh", str(path), "--out",
                                   str(tmp_path)], capsys)
    assert (code, lines, err) == (1, [], "error: vertex 4 is in no cell\n")


def _assert_runs_cleanly(argv, case):
    """Run the CLI in-process: exit status 0 or 1, strict-JSON stdout, no
    traceback, and on failure exactly one `error:` line on stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    err = stderr.getvalue()
    assert code in (0, 1), (case, code, err)
    assert "Traceback" not in err, case
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
    for line in stdout.getvalue().splitlines():
        strict_json(line)


VALID_JSON_MESH = {
    "dimension": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
    "cells": [[0, 1, 2], [0, 2, 3]],
    "simplex_order": {"1": [[0, 2], [0, 1], [0, 3], [1, 2], [2, 3]]}}
JSON_SCALARS = (st.integers(-3, 9), st.floats(allow_nan=True), st.booleans(),
                st.none(), st.text(max_size=3), st.just(2 ** 70),
                st.just(float("nan")))
JSON_VALUES = st.one_of(
    *JSON_SCALARS,
    st.lists(st.lists(st.one_of(*JSON_SCALARS), max_size=4), max_size=3),
    st.sampled_from([{"1": [[0, 1]]}, {"x": [[0, 2]]}, {"0": [[0], [1]]},
                     {"2": [[0, 1, 2], [0, 2, 3]]}, {"1": [[0, 1, 2]]},
                     {"-1": []}, {}, [[0, 1]], {"1": "01"},
                     {"1": [[0.5, 1]]}]))


@st.composite
def mutated_json_meshes(draw):
    """`VALID_JSON_MESH` with one to three values replaced or removed, each
    found by a walk from the root that stops at each level half the time."""
    doc = json.loads(json.dumps(VALID_JSON_MESH))
    for _ in range(draw(st.integers(1, 3))):
        parent, key = doc, draw(st.sampled_from(sorted(doc)))
        while (isinstance(parent[key], (list, dict)) and parent[key]
               and draw(st.booleans())):
            parent = parent[key]
            key = draw(st.sampled_from(sorted(parent) if isinstance(
                parent, dict) else range(len(parent))))
        if isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
            del parent[key]
        else:  # a copy: the sampled values are shared between examples
            parent[key] = json.loads(json.dumps(draw(JSON_VALUES)))
        if not doc:
            break
    return json.dumps(doc)


VALID_OFF = "OFF\n4 2 0\n0 0\n1 0\n1 1\n0 1\n3 0 1 2\n3 0 2 3\n"
OFF_TOKENS = st.sampled_from(["0", "1", "2", "3", "4", "-1", "2.5", "1e400",
                              "nan", "x", "OFF", "#", "99999999999999999999"])


@st.composite
def mutated_off_meshes(draw):
    """`VALID_OFF` with one to three tokens replaced, inserted or deleted."""
    lines = [line.split() for line in VALID_OFF.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        row = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(row)))
        action = draw(st.sampled_from(["replace", "insert", "delete"]))
        if action == "insert" or not row:
            row.insert(at, draw(OFF_TOKENS))
        elif action == "replace":
            row[min(at, len(row) - 1)] = draw(OFF_TOKENS)
        else:
            del row[min(at, len(row) - 1)]
    return "".join(" ".join(row) + "\n" for row in lines)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(text=mutated_json_meshes())
def test_fuzzed_json_mesh_fields_fail_cleanly(fuzz_out, text):
    """`info` on a JSON mesh with some field values replaced or removed
    succeeds or ends in one error line, never a traceback."""
    path = fuzz_out / "fuzzed_mesh.json"
    path.write_text(text)
    _assert_runs_cleanly(["info", "--mesh", str(path), "--out", str(fuzz_out)],
                         text)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(text=mutated_off_meshes())
def test_fuzzed_off_mesh_tokens_fail_cleanly(fuzz_out, text):
    """`convert` on an OFF file with tokens replaced, inserted or deleted
    succeeds or ends in one error line, never a traceback."""
    path = fuzz_out / "fuzzed.off"
    path.write_text(text)
    _assert_runs_cleanly(["convert", str(path), "--out", str(fuzz_out)], text)


TWO_SQUARES = {
    "dimension": 2,
    "vertices": [[0, 0], [1, 0], [0, 1], [1, 1], [3, 0], [4, 0], [3, 1],
                 [4, 1]],
    "cells": [[0, 1, 2], [1, 3, 2], [4, 5, 6], [5, 7, 6]]}


def test_two_component_mesh_solves_every_pair(tmp_path, capsys):
    """On two disjoint squares each kernel has a constant, or a root, per
    component, and Darcy's pressure is mean-zero on each component."""
    path = tmp_path / "two_squares.json"
    path.write_text(json.dumps(TWO_SQUARES))
    labels = {"pin": "pin dof 0, 4", "augment": "mean-zero augmentation"}
    for problem in ("darcy", "magneto"):
        for pair in ("1,2", "3,4"):
            for gauge, label in labels.items():
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    code, lines, err = run(
                        ["solve", problem, "--mesh", str(path), "--system",
                         pair, "--gauge", gauge, "--tol", "1e-8"], capsys)
                case = (problem, pair, gauge)
                assert code == 0, (case, err)
                assert label in (lines[0]["gauge"], lines[1]["gauge"]), case
                assert lines[2]["pass"] is True, (case, lines[2])


BARYCENTRIC_DIAG_WARNING = (
    "warning: diagonal Hodge star with a barycentric dual is uncorrected; "
    "the circumcentric dual is the intended pairing\n")


@pytest.mark.parametrize("argv", [["hodge"], ["cond"], ["wave"],
                                  ["solve", "darcy", "--system", "1,2"]])
def test_warnings_print_on_one_line(tmp_path, argv):
    # a fresh process, so no warning filter of the test run applies
    proc = subprocess.run(
        [sys.executable, "-m", "decstar.cli", *argv, "--mesh", "grid:3",
         "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == BARYCENTRIC_DIAG_WARNING
    for line in proc.stdout.splitlines():
        strict_json(line)


# One rejected argv for each exception class that `decstar.Error` replaced
# (`whitney`'s degree and length checks have none: the CLI checks first),
# with the stderr and exit status that each printed before.  The last two
# are a load out of range that a pinned gauge once let through.  A `--load`
# is checked before the star is built, so the three out of range print no
# warning of the diagonal star's.
REJECTED = [
    ("info --mesh grid:4:0:1",
     "error: bad mesh spec 'grid:4:0:1': expected grid:m[:skew]"),
    ("info --mesh nosuch",
     f"error: mesh 'nosuch' is neither a file nor a builtin spec "
     f"({cli.BUILTIN_HELP})"),
    ("fig8 --P inf", "error: fig8 mesh requires a finite P, got inf"),
    ("hodge --mesh grid:4 --k 5",
     "error: degree k=5 out of range 0..2 for a 2D mesh"),
    ("cond --mesh grid:4 --method leading-block --block 0",
     BARYCENTRIC_DIAG_WARNING
     + "error: leading block size 0 out of range 1..56"),
    ("sample-field --space dual --mesh random:21:34",
     "error: dual polygon of vertex 4 intersects itself"),
    ("wave --mesh grid:4 --count 0",
     BARYCENTRIC_DIAG_WARNING
     + "error: eigenpair count must be at least 1, got 0"),
    ("solve magneto --mesh random:60:2 --system 1,2 --kind dual_inverse "
     "--grid 32",
     "error: dual_inverse Hodge star of degree 1 is singular: Factor is "
     "exactly singular"),
    ("solve darcy --mesh grid:4 --system 1,3",
     "error: systems 1-2 and 3-4 take loads on different spaces and cannot "
     "share one run; pick systems from a single pair"),
    ("solve darcy --mesh grid:4 --system 1,2 --seed -1",
     "error: --seed must be non-negative, got -1"),
    ("sample-field --mesh grid:4 --k 7",
     "error: degree k=7 out of range 0..2 for a 2D mesh"),
    ("table1 --P ,", "error: --P needs at least one value"),
    ("solve magneto --mesh grid:3 --system 1,2 --load {ones}",
     "error: load is not in the range of the derivative (residual "
     "7.500e-01)"),
    ("hodge --mesh random:5:1:3 --kind dual_inverse",
     "error: dual-inverse assembly is implemented for 2D meshes"),
    ("sample-field --space dual --mesh random:12:3:3",
     "error: dual interpolation machinery is 2D"),
    ("solve darcy --mesh grid:3 --system 3 --load {ones}",
     "error: load is not in the range of the derivative (residual "
     "7.500e-01)"),
    ("solve darcy --mesh grid:3 --system 3,4 --load {ones}",
     "error: load is not in the range of the derivative (residual "
     "7.500e-01)"),
]


@pytest.mark.parametrize("argv, stderr", REJECTED,
                         ids=[argv for argv, _ in REJECTED])
def test_rejected_inputs_print_what_they_printed(argv, stderr, tmp_path,
                                                 capsys):
    ones = tmp_path / "ones.csv"
    ones.write_text("1,1\n2,1\n3,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # a fresh process's filter
        code, lines, err = run(
            [*argv.format(ones=ones).split(), "--out", str(tmp_path)], capsys)
    assert (code, lines, err) == (1, [], stderr + "\n")


def test_solve_reads_the_load_before_building_the_star(tmp_path, monkeypatch,
                                                       capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("star built before the load was read")

    monkeypatch.setattr(hodge, "hodge_pair", refuse)
    path = tmp_path / "load.csv"
    path.write_text("id,value\n0,abc\n")
    code, lines, err = run(["solve", "darcy", "--mesh", "grid:3", "--system",
                            "1,2", "--load", str(path)], capsys)
    assert code == 1 and lines == []
    assert err == (f"error: cochain file {path}, line 2: expected 'id,value', "
                   f"got '0,abc'\n")


@pytest.mark.parametrize("problem", ["darcy", "magneto"])
@pytest.mark.parametrize("system", ["1", "2", "1,2", "3", "4", "3,4"])
def test_solve_rejects_a_load_out_of_range_before_any_star(
        problem, system, tmp_path, monkeypatch, capsys):
    """A `--load` in ker L^T, off the range of the pair's load derivative L,
    is one error line with nothing on stdout, before any Hodge star is
    built, whether or not the formulation lifts its load.  On the top cells
    (Darcy 1-2) L is onto and every load is in range."""
    pair, built = hodge.hodge_pair, []

    def record(*args, **kwargs):
        built.append(args[2:4])
        return pair(*args, **kwargs)

    monkeypatch.setattr(hodge, "hodge_pair", record)
    row = systems._formulation(
        {"darcy": "darcy", "magneto": "magnetostatics"}[problem],
        int(system[0]))
    checked = 0
    for spec in ("grid:3", "random:12:3:3"):
        cokernel = row.load_cokernel(cli.resolve_mesh(spec))
        if cokernel is None:
            continue
        path = tmp_path / "load.csv"
        cli.write_cochain_csv(cokernel.kernel[:, 0].toarray().ravel(), path)
        code, lines, err = run(["solve", problem, "--mesh", spec, "--system",
                                system, "--load", str(path)], capsys)
        assert (code, lines, built) == (1, [], []), spec
        assert err.startswith("error: load is not in the range of the "
                              "derivative (residual ")
        assert err.count("\n") == 1
        checked += 1
    assert (checked == 0) == (problem == "darcy" and system[0] in "12")


@pytest.mark.parametrize("system", ["3", "4", "3,4"])
@pytest.mark.parametrize("scale", [1e-11, 1e-6, 1.0])
def test_solve_rejects_a_constant_vertex_load_at_any_scale(system, scale,
                                                           tmp_path, capsys):
    """A constant load on the 25 vertices of grid:4 lies wholly in
    ker D_0, off the range of D_0^T, at any scale: the range check is
    relative to |load|, with no floor."""
    path = tmp_path / "load.csv"
    cli.write_cochain_csv(np.full(25, scale), path)
    code, lines, err = run(["solve", "darcy", "--mesh", "grid:4", "--kind",
                            "whitney", "--system", system, "--load",
                            str(path)], capsys)
    assert (code, lines) == (1, [])
    assert err == (f"error: load is not in the range of the derivative "
                   f"(residual {5 * scale:.3e})\n")


@pytest.mark.parametrize("problem", ["darcy", "magneto"])
@pytest.mark.parametrize("system", ["1,2", "3,4"])
def test_solve_residual_is_relative_with_no_floor(problem, system, tmp_path,
                                                  capsys):
    """`solve`'s residual is a relative backward error with no floor: a
    load scaled by 2^-40, which scales every solve exactly, reports the
    same residuals bit for bit, and a zero load reports 0.0."""
    row = systems._formulation(
        {"darcy": "darcy", "magneto": "magnetostatics"}[problem],
        int(system[0]))
    load = row.default_load(cli.resolve_mesh("grid:4"), seed=5)
    path, residuals = tmp_path / "load.csv", []
    for scale in (1.0, 2.0 ** -40, 0.0):
        cli.write_cochain_csv(scale * load, path)
        code, lines, _ = run(["solve", problem, "--mesh", "grid:4", "--kind",
                              "whitney", "--system", system, "--load",
                              str(path), "--tol", "1e-8", "--out",
                              str(tmp_path)], capsys)
        assert code == 0 and lines[2]["pass"] is True, scale
        residuals.append([line["residual"] for line in lines[:2]])
    assert residuals[1] == residuals[0]
    assert residuals[2] == [0.0, 0.0]


def test_solve_tol_is_relative_to_each_field(tmp_path, capsys):
    """random:30:2:3 scaled by 2^-30 and 2^34 scales each Darcy field and
    its difference alike, so every pair and star passes `--tol 1e-8` at
    each scale, though the absolute pressure differences span 2^64."""
    base = cli.resolve_mesh("random:30:2:3")
    passes = []
    for j in (-30, 0, 34):
        path = tmp_path / f"scaled{j}.json"
        mesh.save_mesh(mesh.build_complex(np.ldexp(base.vertices, j),
                                          base.simplices[3]), path)
        for pair, kind in itertools.product(("1,2", "3,4"), ("diag",
                                                             "whitney")):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                code, lines, err = run(["solve", "darcy", "--mesh", str(path),
                                        "--system", pair, "--kind", kind,
                                        "--tol", "1e-8"], capsys)
            assert code == 0, err
            passes.append(lines[2]["pass"])
    assert passes == [True] * 12


def test_an_indefinite_star_is_one_error_line(monkeypatch, capsys):
    """A non-diagonal star that is not positive definite fails its LU's
    certificate: one error line naming it, and nothing on stdout."""
    assemble = hodge.assemble

    def negated(*args, **kwargs):
        star = assemble(*args, **kwargs)
        star.matrix = -star.matrix
        return star

    monkeypatch.setattr(hodge, "assemble", negated)
    for argv in (["solve", "darcy", "--system", "1,2"],
                 ["wave", "--formulation", "dual"]):
        code, lines, err = run([*argv, "--mesh", "grid:4", "--kind",
                                "dual_inverse", "--grid", "32"], capsys)
        assert (code, lines) == (1, []), argv
        assert err == ("error: dual_inverse Hodge star of degree 1 is not "
                       "positive definite\n"), argv


def solid_torus_json() -> str:
    """A 3 x 3 x 1 block of unit cubes less its middle one, each cut into
    six tetrahedra about its main diagonal: a solid torus, with one loop
    (b_1 = 1) and no cavity (b_2 = 0)."""
    verts = [[i, j, k] for k in range(2) for j in range(4) for i in range(4)]
    index = {tuple(v): n for n, v in enumerate(verts)}
    cells = []
    for i, j in itertools.product(range(3), repeat=2):
        if (i, j) == (1, 1):
            continue
        for axes in itertools.permutations(range(3)):
            corner, tet = [i, j, 0], [index[i, j, 0]]
            for axis in axes:
                corner[axis] += 1
                tet.append(index[tuple(corner)])
            cells.append(tet)
    return json.dumps({"dimension": 3, "vertices": verts, "cells": cells})


@pytest.mark.parametrize("system", ["1,2", "3,4"])
def test_solve_magneto_on_a_solid_torus_is_one_error_line(system, tmp_path,
                                                          capsys):
    """3D magnetostatics lifts its load through D_1 or D_1^T.  Off the two
    forests a solid torus leaves one more edge than face, so the block of
    D_1 that lifts it is not square: one error line, with nothing on
    stdout and no traceback."""
    path = tmp_path / "torus.json"
    path.write_text(solid_torus_json())
    code, lines, err = run(["solve", "magneto", "--mesh", str(path),
                            "--kind", "whitney", "--system", system,
                            "--out", str(tmp_path)], capsys)
    assert (code, lines) == (1, [])
    assert err == ("error: load block of D_1 is 80 x 81, not square: the "
                   "mesh has a hole or a cavity\n")


def test_solve_darcy_on_a_solid_torus_names_the_pressure_recovery(tmp_path,
                                                                  capsys):
    """Darcy 3 solves on a solid torus, but its loop carries a harmonic
    flux that Darcy 4's vertex pressure cannot produce: after Darcy 3's
    summary, one error line names the failed recovery, not the load, which
    passed the range check."""
    path = tmp_path / "torus.json"
    path.write_text(solid_torus_json())
    code, lines, err = run(["solve", "darcy", "--mesh", str(path), "--kind",
                            "whitney", "--system", "3,4", "--out",
                            str(tmp_path)], capsys)
    assert (code, [line["name"] for line in lines]) == (1, ["darcy-3"])
    assert err.startswith("error: Darcy pressure recovery failed: the flux "
                          "has a part that no pressure produces; the mesh "
                          "likely has a hole or a cavity (residual ")
    assert err.count("\n") == 1


def test_cond_reports_a_singular_dual_inverse_star(tmp_path, capsys):
    """The random:60:2 dual-inverse star at k = 1 has a zero row: `cond`
    prints its condition as null, as `solve` rejects it."""
    code, lines, _ = run(["cond", "--mesh", "random:60:2", "--kind",
                          "dual_inverse", "--k", "1", "--grid", "32",
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (lines[0]["lambda_min"], lines[0]["condition"]) == (0.0, None)
