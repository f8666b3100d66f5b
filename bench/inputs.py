"""Seeded input files for the benchmark workloads.

Everything here depends only on numpy and scipy, never on decstar, so the
inputs a run feeds the CLI do not change when the library does.  The same
seed gives byte-identical files.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
from scipy.spatial import Delaunay


JITTER = 0.3


def jittered_lattice_2d(m: int, seed: int):
    """Delaunay triangulation of an m x m lattice on the unit box, each node
    moved by up to JITTER lattice spacings; boundary nodes move only along
    their side and the corners stay put.

    The workloads use this rather than uniform random points as in
    `decstar.mesh.random_delaunay`: with only the box corners on the
    boundary, every box side is one edge next to a sliver triangle, and the
    library fails the benchmark's checks on such meshes (see the xfail tests
    in test_bench.py).  The degenerate-cell filter is that function's.
    """
    rng = np.random.default_rng(seed)
    axis = np.linspace(0.0, 1.0, m)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    h = 1.0 / (m - 1)
    offsets = rng.uniform(-JITTER * h, JITTER * h, pts.shape)
    offsets[(pts == 0.0) | (pts == 1.0)] = 0.0
    pts = pts + offsets
    cells = []
    for cell in Delaunay(pts).simplices:
        if abs(np.linalg.det(pts[cell[1:]] - pts[cell[0]])) > 1e-10:
            cells.append(sorted(cell.tolist()))
    return pts, sorted(cells)


def edge_count(cells) -> int:
    return len({e for c in cells for e in itertools.combinations(c, 2)})


def write_mesh_json(path: Path, pts, cells) -> None:
    """A decstar JSON mesh with coordinates written as plain %.17g."""
    verts = ", ".join(f"[{x:.17g}, {y:.17g}]" for x, y in pts)
    tris = ", ".join(f"[{a}, {b}, {c}]" for a, b, c in cells)
    path.write_text(
        f'{{"dimension": 2, "vertices": [{verts}], "cells": [{tris}]}}\n'
    )


def write_load_csv(path: Path, values) -> None:
    """An id,value cochain CSV; values as plain %.17g text, because the
    CLI's reader does not accept numpy scalar reprs."""
    lines = ["id,value"] + [f"{i},{float(v):.17g}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


def mesh_inputs(out: Path, lattice: int, seed: int) -> dict:
    """The seeded mesh file of a workload and its simplex counts."""
    pts, cells = jittered_lattice_2d(lattice, seed)
    mesh = out / "mesh.json"
    write_mesh_json(mesh, pts, cells)
    return {"mesh": mesh, "vertices": len(pts), "edges": edge_count(cells),
            "triangles": len(cells)}


def mixed_2d_inputs(out: Path, lattice: int, seed: int) -> dict:
    """Mesh and the four solve loads of the mixed_2d workload.

    Darcy systems 3,4 and magnetostatics systems 1,2 take vertex loads,
    which must be mean-zero to lie in the range of the gradient's adjoint.
    """
    facts = mesh_inputs(out, lattice, seed)
    rng = np.random.default_rng([seed, 1])
    facts["loads"] = {}
    for name, size, centred in [("darcy_12", facts["triangles"], False),
                                ("darcy_34", facts["vertices"], True),
                                ("magneto_12", facts["vertices"], True),
                                ("magneto_34", facts["triangles"], False)]:
        values = rng.standard_normal(size)
        if centred:
            values -= values.mean()
        facts["loads"][name] = out / f"load_{name}.csv"
        write_load_csv(facts["loads"][name], values)
    return facts
