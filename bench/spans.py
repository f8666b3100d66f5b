"""Traced-run instrumentation: spans around calls into decstar's modules.

The tracer replaces public functions and methods of decstar's modules with
wrappers that record one span per call: name, start, end, the span that
caused it, the CLI operation it belongs to, and work counters taken from the
call's arguments and result.  Nothing under `src/` knows about it; untraced
runs never install it.

Each name is wrapped where callers look it up.  `decstar.hodge` binds
`whitney_gram_matrix` by name at import, so the hodge binding is wrapped as
well as the whitney one.  The sibson module is reached through
`importlib.import_module`, because `decstar/__init__.py` rebinds the
attribute `decstar.sibson` to the `sibson()` function.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict


class Tracer:
    """Records nested spans in memory while installed."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._patches = []

    def patch(self, owner, attr: str, name: str, counters=None) -> None:
        original = getattr(owner, attr)
        signature = inspect.signature(original)
        tracer = self

        def traced(*args, **kwargs):
            span = {"id": len(tracer.spans),
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "request": tracer.request, "name": name}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if counters is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(counters(result, bound.arguments))
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        for owner, attr, name, counters in instrumentation():
            self.patch(owner, attr, name, counters)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _complex_size(result, args):
    return {"vertices": len(result.simplices[0]),
            "edges": len(result.simplices[1]) if result.dim >= 1 else 0,
            "triangles": len(result.simplices[2]) if result.dim >= 2 else 0}


def _operator_nnz(result, args):
    return {"nnz": int(result.matrix.nnz)}


def _pair_inverse_nnz(result, args):
    # hodge_pair assembles one side and derives the other by inversion
    derived = result[0] if args["kind"] == "dual_inverse" else result[1]
    return {"inverse_nnz": int(derived.nnz)}


def _coords_work(result, args):
    return {"points": len(result), "sites": int(args["self"].n_sites)}


def _coords_grad_points(result, args):
    return {"points": len(result[0])}


def _solve_dofs(result, args):
    return {"dofs": len(result.u) + len(result.w)}


def _eig_dofs(result, args):
    return {"dofs": int(args["self"].stiffness.shape[0])}


def instrumentation():
    """(owner, attribute, span name, counters) for every traced call."""
    cli = importlib.import_module("decstar.cli")
    mesh = importlib.import_module("decstar.mesh")
    whitney = importlib.import_module("decstar.whitney")
    sibson = importlib.import_module("decstar.sibson")
    hodge = importlib.import_module("decstar.hodge")
    systems = importlib.import_module("decstar.systems")
    return [
        (cli, "main", "cli.main", None),
        (cli, "read_cochain_csv", "cli.io", None),
        (cli, "write_cochain_csv", "cli.io", None),
        (cli, "write_matrix_market", "cli.io", None),
        (mesh, "load_mesh", "cli.io", None),
        (mesh, "build_complex", "mesh.build_complex", _complex_size),
        (mesh, "build_dual", "mesh.build_dual", None),
        (whitney, "whitney_gram_matrix", "whitney.gram", None),
        (hodge, "whitney_gram_matrix", "whitney.gram", None),
        (sibson.SibsonCell, "coords_batch", "sibson.coords", _coords_work),
        (sibson.SibsonCell, "coords_and_gradients_batch", "sibson.coords_grad",
         _coords_grad_points),
        (sibson.DualInterpolation, "__init__", "sibson.interp_setup", None),
        (hodge, "assemble_diag", "hodge.diag", _operator_nnz),
        (hodge, "assemble_whitney", "hodge.whitney", _operator_nnz),
        (hodge, "assemble_dual_inverse", "hodge.dual_inverse", _operator_nnz),
        (hodge, "hodge_pair", "hodge.pair", _pair_inverse_nnz),
        (hodge, "table1_experiment", "hodge.table1", None),
        (systems, "assemble_darcy", "systems.assemble", None),
        (systems, "assemble_magnetostatics", "systems.assemble", None),
        (systems, "solve", "systems.solve", _solve_dofs),
        (systems, "assemble_wave", "systems.wave_assemble", None),
        (systems.WaveSystem, "eigenpairs", "systems.eig", _eig_dofs),
    ]


def layer_metrics(spans: list, run_s: float) -> dict:
    """Per-layer metrics of one traced worker, from its spans.

    Every `.s` metric is self time: the span's duration minus the part of
    it that traced child calls cover.  Returns every per-layer metric that
    the spans determine; the caller adds the run-level and health values.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        self_s[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
        calls[s["name"]] += 1
    by_id = {s["id"]: s for s in spans}

    def total(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    def biggest(key):
        return max((s[key] for s in spans if key in s), default=0)

    coords = [s for s in spans if s["name"] == "sibson.coords"]
    points = sum(s["points"] for s in coords)
    clip_evals = sum(s["points"] * s["sites"] for s in coords)
    # quadrature nodes enter sibson through its outermost batch call
    quad_nodes = sum(
        s["points"] for s in spans
        if s["name"].startswith("sibson.coords")
        and not (s["parent"] is not None
                 and by_id[s["parent"]]["name"].startswith("sibson."))
    )
    dofs = [s["dofs"] for s in spans if "dofs" in s]
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return {
        "mesh.build_complex.s": self_s["mesh.build_complex"],
        "mesh.build_dual.s": self_s["mesh.build_dual"],
        "mesh.vertices": biggest("vertices"),
        "mesh.edges": biggest("edges"),
        "mesh.triangles": biggest("triangles"),
        "whitney.gram.s": self_s["whitney.gram"],
        "whitney.gram.calls": calls["whitney.gram"],
        "sibson.coords.s": self_s["sibson.coords"],
        "sibson.coords.calls": len(coords),
        "sibson.points": points,
        "sibson.clip_evals": clip_evals,
        "sibson.points_per_call": points / len(coords) if coords else 0.0,
        "sibson.ns_per_clip": (1e9 * self_s["sibson.coords"] / clip_evals
                               if clip_evals else 0.0),
        "sibson.interp_setup.s": self_s["sibson.interp_setup"],
        "hodge.dual_inverse.s": self_s["hodge.dual_inverse"],
        "hodge.quad_nodes": quad_nodes,
        "hodge.nnz": (total("hodge.diag", "nnz") + total("hodge.whitney", "nnz")
                      + total("hodge.dual_inverse", "nnz")),
        "hodge.pair.s": self_s["hodge.pair"],
        "hodge.pair.inverse_nnz": total("hodge.pair", "inverse_nnz"),
        "hodge.table1.s": self_s["hodge.table1"],
        "systems.assemble.s": self_s["systems.assemble"],
        "systems.solve.s": self_s["systems.solve"],
        "systems.eig.s": self_s["systems.eig"],
        "systems.wave_assemble.s": self_s["systems.wave_assemble"],
        "systems.dofs": sum(dofs),
        "systems.dense_bytes": sum(8 * n * n for n in dofs),
        "cli.io.s": self_s["cli.io"],
        "cli.self.s": self_s["cli.main"],
        "run.untraced_share": max(run_s - top, 0.0) / run_s,
    }
