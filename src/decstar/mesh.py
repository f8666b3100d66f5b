"""Oriented simplicial complexes, their dual meshes, and mesh quality reports.

The primal mesh is an n-dimensional simplicial complex (n = 2 or 3) given by
vertex coordinates and top-dimensional cells.  The dual mesh assigns to every
primal k-simplex an (n-k)-cell built from barycenters or circumcenters of its
cofaces, with signed measures accumulated over the elementary subdivision
simplices.  Dual cells of boundary simplices are clipped to the domain: the
boundary contributes edge midpoints and the primal vertex itself as dual cell
vertices, so that vertex dual areas always sum to the mesh volume under the
barycentric rule.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

BARYCENTRIC = "barycentric"
CIRCUMCENTRIC = "circumcentric"

# Relative determinant threshold used to flag degenerate simplices.
DEGENERACY_RTOL = 1e-12


class MeshError(ValueError):
    """Raised for invalid mesh input (degenerate, duplicate, out of range)."""


def simplex_measure(points: np.ndarray) -> float:
    """Unsigned k-volume of the simplex spanned by the given points.

    Uses the Gram determinant, so it works for a k-simplex embedded in any
    ambient dimension.  A single point has measure 1 by convention.
    """
    pts = np.asarray(points, dtype=float)
    k = len(pts) - 1
    if k == 0:
        return 1.0
    edges = pts[1:] - pts[0]
    gram = edges @ edges.T
    det = np.linalg.det(gram)
    if det < 0.0:
        det = 0.0
    return math.sqrt(det) / math.factorial(k)


def barycenter(points: np.ndarray) -> np.ndarray:
    return np.asarray(points, dtype=float).mean(axis=0)


def circumcenter(points: np.ndarray) -> np.ndarray:
    """Point equidistant from all vertices, within the simplex's affine hull.

    Raises MeshError for degenerate simplices (relative determinant below
    DEGENERACY_RTOL at the simplex's own scale).
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) == 1:
        return pts[0].copy()
    edges = pts[1:] - pts[0]
    gram = 2.0 * edges @ edges.T
    rhs = np.einsum("ij,ij->i", edges, edges)
    scale = float(np.max(np.abs(edges))) or 1.0
    k = len(pts) - 1
    if abs(np.linalg.det(gram)) <= (DEGENERACY_RTOL * (2.0 * scale * scale) ** k):
        raise MeshError("degenerate simplex has no circumcenter")
    sol = np.linalg.solve(gram, rhs)
    return pts[0] + sol @ edges


def center(points: np.ndarray, rule: str) -> np.ndarray:
    if rule == BARYCENTRIC:
        return barycenter(points)
    if rule == CIRCUMCENTRIC:
        return circumcenter(points)
    raise MeshError(f"unknown center rule {rule!r}")


@dataclass(frozen=True)
class SimplicialComplex:
    """An oriented simplicial complex with all faces enumerated.

    simplices[k] holds the k-simplices as strictly increasing vertex tuples,
    one row each; orientations[k] carries a +-1 sign per simplex relative to
    that sorted tuple.  face_indices[k][r, m] is the index of the k-face of
    (k+1)-simplex r obtained by deleting vertex position m.
    """

    dim: int
    vertices: np.ndarray
    simplices: list  # list of (N_k, k+1) int arrays
    orientations: list  # list of (N_k,) int arrays
    measures: list  # list of (N_k,) float arrays
    face_indices: list  # face_indices[k]: (N_{k+1}, k+2) int array
    index: list = field(repr=False)  # list of dict tuple -> int

    def simplex_points(self, k: int, i: int) -> np.ndarray:
        return self.vertices[self.simplices[k][i]]

    def measure(self, k: int, i: int) -> float:
        """Exact length/area/volume of a k-simplex; 1 for vertices."""
        return float(self.measures[k][i])

    def cofaces(self, k: int, i: int) -> np.ndarray:
        """Indices of the (k+1)-simplices containing k-simplex i."""
        if k >= self.dim:
            return np.empty(0, dtype=int)
        rows, _ = np.nonzero(self.face_indices[k] == i)
        return np.unique(rows)

    def boundary_simplices(self, k: int) -> np.ndarray:
        """Boolean mask of k-simplices lying on the domain boundary."""
        n = self.dim
        counts = np.bincount(
            self.face_indices[n - 1].ravel(), minlength=len(self.simplices[n - 1])
        )
        on_bdry = counts == 1
        if k == n - 1:
            return on_bdry
        if k == n:
            return np.zeros(len(self.simplices[n]), dtype=bool)
        mask = np.zeros(len(self.simplices[k]), dtype=bool)
        bdry_faces = np.nonzero(on_bdry)[0]
        for f in bdry_faces:
            for sub in itertools.combinations(self.simplices[n - 1][f], k + 1):
                mask[self.index[k][tuple(sub)]] = True
        return mask

    def incidence_matrix(self, k: int):
        """Signed incidence matrix D_k from k-cochains to (k+1)-cochains."""
        import scipy.sparse as sp

        if not 0 <= k < self.dim:
            raise MeshError(f"incidence degree k={k} out of range for n={self.dim}")
        n_rows = len(self.simplices[k + 1])
        n_cols = len(self.simplices[k])
        rows = np.repeat(np.arange(n_rows), k + 2)
        cols = self.face_indices[k].ravel()
        signs = np.tile([(-1) ** m for m in range(k + 2)], n_rows).astype(float)
        signs *= np.repeat(self.orientations[k + 1], k + 2)
        signs *= self.orientations[k][cols]
        return sp.csr_matrix((signs, (rows, cols)), shape=(n_rows, n_cols))

    def with_leading_simplices(self, k: int, leading) -> "SimplicialComplex":
        """Return a copy with the given k-simplices enumerated first, in order."""
        lead_ids = [self.index[k][tuple(sorted(t))] for t in leading]
        rest = [i for i in range(len(self.simplices[k])) if i not in set(lead_ids)]
        perm = np.array(lead_ids + rest)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        simplices = list(self.simplices)
        orientations = list(self.orientations)
        measures = list(self.measures)
        face_indices = list(self.face_indices)
        index = list(self.index)
        simplices[k] = self.simplices[k][perm]
        orientations[k] = self.orientations[k][perm]
        measures[k] = self.measures[k][perm]
        if k > 0:
            face_indices[k - 1] = self.face_indices[k - 1][perm]
        if k < self.dim:
            face_indices[k] = inv[self.face_indices[k]]
        index[k] = {tuple(s): i for i, s in enumerate(simplices[k])}
        return SimplicialComplex(
            self.dim, self.vertices, simplices, orientations, measures,
            face_indices, index,
        )


def build_complex(vertices, cells) -> SimplicialComplex:
    """Build the full complex from top-dimensional cells.

    Rejects degenerate cells (zero measure), duplicate cells, and vertex
    indices out of range.  Cell orientation is recorded as the sign of the
    cell's determinant for the sorted vertex tuple; lower simplices carry +1
    and are identified with their sorted tuples.
    """
    verts = np.asarray(vertices, dtype=float)
    cells = np.asarray(cells, dtype=int)
    if verts.ndim != 2 or verts.shape[1] not in (2, 3):
        raise MeshError("vertices must be an (V, 2) or (V, 3) array")
    n = verts.shape[1]
    if cells.ndim != 2 or cells.shape[1] != n + 1:
        raise MeshError(f"cells must have {n + 1} vertices each")
    if cells.min(initial=0) < 0 or cells.max(initial=-1) >= len(verts):
        raise MeshError("cell vertex index out of range")

    scale = float(np.ptp(verts, axis=0).max()) or 1.0
    sorted_cells = np.sort(cells, axis=1)
    seen = set()
    orient_n = np.empty(len(cells), dtype=int)
    for ci, cell in enumerate(sorted_cells):
        if len(set(cell.tolist())) != n + 1:
            raise MeshError(f"cell {ci} has repeated vertices")
        key = tuple(cell)
        if key in seen:
            raise MeshError(f"duplicate cell {ci}: {key}")
        seen.add(key)
        det = np.linalg.det(verts[cell[1:]] - verts[cell[0]])
        if abs(det) <= DEGENERACY_RTOL * scale**n:
            raise MeshError(f"degenerate cell {ci}: {key}")
        orient_n[ci] = 1 if det > 0 else -1

    simplices = [None] * (n + 1)
    index = [None] * (n + 1)
    simplices[n] = sorted_cells
    # Enumerate every lower-dimensional face exactly once, lexicographically.
    for k in range(n - 1, -1, -1):
        faces = set()
        for s in simplices[k + 1]:
            faces.update(itertools.combinations(s.tolist(), k + 1))
        simplices[k] = np.array(sorted(faces), dtype=int)
    for k in range(n + 1):
        index[k] = {tuple(s): i for i, s in enumerate(simplices[k])}

    face_indices = []
    for k in range(n):
        upper = simplices[k + 1]
        fi = np.empty((len(upper), k + 2), dtype=int)
        for r, s in enumerate(upper):
            s = s.tolist()
            for m in range(k + 2):
                fi[r, m] = index[k][tuple(s[:m] + s[m + 1:])]
        face_indices.append(fi)

    measures = []
    for k in range(n + 1):
        if k == 0:
            measures.append(np.ones(len(simplices[0])))
        else:
            measures.append(
                np.array([simplex_measure(verts[s]) for s in simplices[k]])
            )
    orientations = [np.ones(len(simplices[k]), dtype=int) for k in range(n)]
    orientations.append(orient_n)

    return SimplicialComplex(
        n, verts, simplices, orientations, measures, face_indices, index
    )


# ---------------------------------------------------------------------------
# Dual mesh


@dataclass(frozen=True)
class DualCell:
    """The (n-k)-dimensional dual cell of a primal k-simplex.

    `points` are the dual vertex coordinates making up the cell.  For 2D the
    structure is explicit: a point (k=n), a polyline (k=n-1), or a closed
    polygon loop in order (k=0).  In 3D, k=n gives a point, k=n-1 a polyline,
    and k=1 and k=0 the centers spanning the cell's elementary simplices.
    """

    degree: int
    generator: int
    points: np.ndarray
    measure: float


@dataclass(frozen=True)
class DualMesh:
    rule: str
    complex: SimplicialComplex
    cells: list  # cells[k][i] -> DualCell for primal k-simplex i
    measures: list  # measures[k]: (N_k,) array of |*sigma^k|

    def negative_cells(self, k: int):
        """Indices of primal k-simplices with nonpositive dual measure."""
        return np.nonzero(self.measures[k] <= 0)[0]


def _side_sign(base_pts: np.ndarray, opposite: np.ndarray, query: np.ndarray) -> float:
    """+1 if `query` and `opposite` are on the same side of aff(base_pts)."""
    base_pts = np.asarray(base_pts, dtype=float)
    v0 = base_pts[0]
    edges = (base_pts[1:] - v0).T  # (dim, k)

    def residual(p):
        if edges.size == 0:
            return p - v0
        coef, *_ = np.linalg.lstsq(edges, p - v0, rcond=None)
        return p - v0 - edges @ coef

    d = float(residual(query) @ residual(opposite))
    if d == 0.0:
        return 0.0
    return 1.0 if d > 0 else -1.0


def _chain_contributions(complex: SimplicialComplex, rule: str):
    """Signed elementary dual volumes for every chain sigma^k < ... < sigma^n.

    Returns centers[k] (center of each k-simplex) and a per-(k, i) list of
    (chain simplex ids, signed volume).
    """
    n = complex.dim
    centers = [
        np.array([center(complex.simplex_points(k, i), rule)
                  for i in range(len(complex.simplices[k]))])
        for k in range(n + 1)
    ]

    contributions = [dict() for _ in range(n + 1)]

    def recurse(k, chain_ids, chain_pts, sign):
        i = chain_ids[0]
        vol = simplex_measure(np.array(chain_pts))
        contributions[k].setdefault(i, []).append((tuple(chain_ids), sign * vol))
        if k == 0:
            return
        # extend the chain downward: every (k-1)-face of sigma^k
        for m in range(k + 1):
            f = complex.face_indices[k - 1][i, m]
            face_verts = set(complex.simplices[k - 1][f].tolist())
            simplex_verts = set(complex.simplices[k][i].tolist())
            (opp,) = simplex_verts - face_verts
            # side of the deepest center accumulated so far w.r.t. the face
            s = _side_sign(
                complex.vertices[complex.simplices[k - 1][f]],
                complex.vertices[opp],
                chain_pts[-1],
            )
            recurse(k - 1, [f] + chain_ids,
                    chain_pts + [centers[k - 1][f]], sign * s)

    # Chains are built top-down from each n-simplex; chain_pts accumulates
    # centers from dimension n downward, so the dual simplex of the chain
    # (sigma^k < ... < sigma^n) has vertices [c_n, ..., c_k].
    for t in range(len(complex.simplices[n])):
        recurse(n, [t], [centers[n][t]], 1.0)
    return centers, contributions


def vertex_ring(complex: SimplicialComplex, v: int) -> list:
    """The dual polygon of vertex v of a 2D complex, as tags in ring order.

    Tags are ("m", e) for the midpoint of edge e, ("c", t) for the center of
    triangle t and ("v", v) for the vertex itself, each emitted once.  An
    interior vertex gives alternating midpoints and centers; a boundary
    vertex's ring runs from one boundary-edge midpoint to the other and
    closes through the vertex.
    """
    edges = complex.cofaces(0, v).tolist()
    tris_of_edge = {e: complex.cofaces(1, e).tolist() for e in edges}
    bdry = [e for e in edges if len(tris_of_edge[e]) == 1]
    e = bdry[0] if bdry else edges[0]
    first = tri = tris_of_edge[e][0]
    tags = [("m", e)]
    while True:
        tags.append(("c", tri))
        # the other edge of `tri` at v
        e = next(int(f) for f in complex.face_indices[1][tri]
                 if f != e and v in complex.simplices[1][f])
        rest = [t for t in tris_of_edge[e] if t != tri]
        if not rest:
            return tags + [("m", e), ("v", v)]
        if rest[0] == first:
            return tags
        tags.append(("m", e))
        tri = rest[0]


def build_dual(complex: SimplicialComplex, rule: str) -> DualMesh:
    """Construct the dual mesh under the barycentric or circumcentric rule.

    Dual measures are signed sums over the elementary subdivision simplices;
    with the circumcentric rule on obtuse configurations individual cells can
    come out nonpositive, which `DualMesh.negative_cells` reports.
    """
    if rule not in (BARYCENTRIC, CIRCUMCENTRIC):
        raise MeshError(f"unknown center rule {rule!r}")
    n = complex.dim
    centers, contributions = _chain_contributions(complex, rule)

    cells = [[] for _ in range(n + 1)]
    measures = []
    for k in range(n + 1):
        meas = np.zeros(len(complex.simplices[k]))
        for i in range(len(complex.simplices[k])):
            chain_list = contributions[k].get(i, [])
            meas[i] = sum(v for _, v in chain_list) if k < n else 1.0
            if k == n:
                pts = centers[n][i][None, :]
            elif k == n - 1:
                # polyline through the face center; one or two n-cell centers
                tris = complex.cofaces(k, i)
                if len(tris) == 2:
                    pts = np.array([centers[n][tris[0]], centers[k][i],
                                    centers[n][tris[1]]])
                else:
                    pts = np.array([centers[k][i], centers[n][tris[0]]])
            elif k == 0 and n == 2:
                pts = np.array([centers[{"v": 0, "m": 1, "c": 2}[kind]][j]
                                for kind, j in vertex_ring(complex, i)])
            else:
                uniq = {}
                for chain, _ in chain_list:
                    for depth, sid in enumerate(chain):
                        uniq[(k + depth, sid)] = centers[k + depth][sid]
                pts = np.array(list(uniq.values())) if uniq else np.empty((0, n))
            cells[k].append(DualCell(k, i, pts, float(meas[i])))
        measures.append(meas)
    return DualMesh(rule, complex, cells, measures)


# ---------------------------------------------------------------------------
# Quality report


@dataclass(frozen=True)
class QualityReport:
    primal_range: list  # per k: (min |sigma^k|, max |sigma^k|)
    dual_range: list  # per k: (min |*sigma^k|, max |*sigma^k|)
    ratio_range: list  # per k: (min, max) of |*sigma^k| / |sigma^k|
    primal_gradation: list  # per k: max/min of |sigma^k|
    dual_gradation: list  # per k: max/min of |*sigma^k|
    worst_aspect_ratio: float


def aspect_ratio(points: np.ndarray) -> float:
    """Circumradius over (n times inradius); 1 for the regular simplex."""
    pts = np.asarray(points, dtype=float)
    n = len(pts) - 1
    c = circumcenter(pts)
    R = float(np.linalg.norm(c - pts[0]))
    vol = simplex_measure(pts)
    surf = sum(
        simplex_measure(np.delete(pts, m, axis=0)) for m in range(n + 1)
    )
    r = n * vol / surf
    return R / (n * r)


def _gradation(measures: np.ndarray) -> float:
    """max/min of the measures; infinite when the smallest one is zero."""
    lo = measures.min()
    return float(measures.max() / lo) if lo != 0 else math.inf


def quality_report(complex: SimplicialComplex, dual: DualMesh) -> QualityReport:
    n = complex.dim
    primal_range, dual_range, ratio_range = [], [], []
    primal_grad, dual_grad = [], []
    for k in range(n + 1):
        pm = complex.measures[k]
        dm = dual.measures[k]
        primal_range.append((float(pm.min()), float(pm.max())))
        dual_range.append((float(dm.min()), float(dm.max())))
        ratio = dm / pm
        ratio_range.append((float(ratio.min()), float(ratio.max())))
        primal_grad.append(_gradation(pm))
        dual_grad.append(_gradation(dm))
    worst = max(
        aspect_ratio(complex.simplex_points(n, i))
        for i in range(len(complex.simplices[n]))
    )
    return QualityReport(primal_range, dual_range, ratio_range,
                         primal_grad, dual_grad, float(worst))


# ---------------------------------------------------------------------------
# Generators

FIG8_EDGE_ORDER = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]


def _equilateral_apex(a, b, away_from):
    """Apex of the equilateral triangle on segment ab, away from a point."""
    a, b, away_from = map(np.asarray, (a, b, away_from))
    mid = 0.5 * (a + b)
    d = b - a
    normal = np.array([-d[1], d[0]])
    apex = mid + (math.sqrt(3.0) / 2.0) * normal
    if (apex - mid) @ (away_from - mid) > 0:
        apex = mid - (math.sqrt(3.0) / 2.0) * normal
    return apex


def generate_fig8(P: float) -> SimplicialComplex:
    """Two slim triangles on a shared unit edge, flanked by four equilateral
    triangles; condition-number stress mesh parameterized by the half-width P.

    Edge enumeration is pinned so the first five edges are (v1,v2), (v1,v3),
    (v1,v4), (v2,v3), (v2,v4).
    """
    if not P > 0.5:
        raise MeshError("fig8 mesh requires P > 1/2")
    v1 = np.array([0.0, 0.0])
    v2 = np.array([0.0, 1.0])
    v3 = np.array([P, 0.5])
    v4 = np.array([-P, 0.5])
    o13 = _equilateral_apex(v1, v3, v2)
    o23 = _equilateral_apex(v2, v3, v1)
    o14 = _equilateral_apex(v1, v4, v2)
    o24 = _equilateral_apex(v2, v4, v1)
    vertices = np.array([v1, v2, v3, v4, o13, o23, o14, o24])
    cells = [
        (0, 1, 2),  # v1 v2 v3
        (0, 1, 3),  # v1 v2 v4
        (0, 2, 4),  # v1 v3 o13
        (1, 2, 5),  # v2 v3 o23
        (0, 3, 6),  # v1 v4 o14
        (1, 3, 7),  # v2 v4 o24
    ]
    cplx = build_complex(vertices, cells)
    return cplx.with_leading_simplices(1, FIG8_EDGE_ORDER)


def two_triangle_mesh() -> SimplicialComplex:
    """Unit square split along the diagonal."""
    vertices = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    return build_complex(vertices, [(0, 1, 2), (0, 2, 3)])


def structured_grid(m: int, skew: float = 0.0) -> SimplicialComplex:
    """m x m unit-square grid of right triangles (2*m*m cells)."""
    xs = np.linspace(0.0, 1.0, m + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([(X + skew * Y).ravel(), Y.ravel()])
    cells = []
    for i in range(m):
        for j in range(m):
            a = i * (m + 1) + j
            b = a + m + 1
            cells.append((a, b, a + 1))
            cells.append((a + 1, b, b + 1))
    return build_complex(verts, cells)


def equilateral_grid(m: int) -> SimplicialComplex:
    """Uniform mesh of equilateral triangles, m rows of m up/down pairs."""
    h = math.sqrt(3.0) / 2.0
    verts = []
    for j in range(m + 1):
        off = 0.5 * (j % 2)
        for i in range(m + 1):
            verts.append((i + off, j * h))
    cells = []
    for j in range(m):
        for i in range(m):
            a = j * (m + 1) + i
            b = a + m + 1
            if j % 2 == 0:
                cells.append((a, a + 1, b))
                cells.append((a + 1, b, b + 1))
            else:
                cells.append((a, a + 1, b + 1))
                cells.append((a, b, b + 1))
    return build_complex(verts, cells)


def random_delaunay(n_points: int, seed: int, dim: int = 2) -> SimplicialComplex:
    """Delaunay triangulation of random points plus the unit-box corners."""
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    pts = rng.random((n_points, dim))
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=dim)))
    pts = np.vstack([corners, pts])
    tri = Delaunay(pts)
    keep = []
    for cell in tri.simplices:
        vol = abs(np.linalg.det(pts[cell[1:]] - pts[cell[0]]))
        if vol > 1e-10:
            keep.append(sorted(cell.tolist()))
    return build_complex(pts, keep)


# ---------------------------------------------------------------------------
# JSON mesh interchange


def complex_to_json(complex: SimplicialComplex) -> dict:
    """The mesh as a JSON document.  `build_complex` enumerates the lower
    simplices lexicographically; a complex that orders some degree otherwise
    (say, `generate_fig8`'s pinned edges) also carries "simplex_order", that
    degree's simplices in their order."""
    doc = {
        "dimension": complex.dim,
        "vertices": complex.vertices.tolist(),
        "cells": complex.simplices[complex.dim].tolist(),
    }
    for k in range(1, complex.dim):
        rows = complex.simplices[k].tolist()
        if rows != sorted(rows):
            doc.setdefault("simplex_order", {})[str(k)] = rows
    return doc


def complex_from_json(doc) -> SimplicialComplex:
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    for key in ("dimension", "vertices", "cells"):
        if key not in doc:
            raise MeshError(f"mesh document missing {key!r}")
    verts = np.asarray(doc["vertices"], dtype=float)
    if verts.shape[1] != doc["dimension"]:
        raise MeshError("vertex coordinate size disagrees with dimension")
    comp = build_complex(verts, doc["cells"])
    for key, order in doc.get("simplex_order", {}).items():
        try:
            k = int(key)
            listed = sorted(sorted(int(v) for v in s) for s in order)
        except (TypeError, ValueError) as exc:
            raise MeshError(f"bad simplex_order[{key!r}]: {exc}") from exc
        if not (0 < k < comp.dim and listed == comp.simplices[k].tolist()):
            raise MeshError(f"simplex_order[{key!r}] is not an ordering of "
                            f"the mesh's {key}-simplices")
        comp = comp.with_leading_simplices(k, order)
    return comp


def load_mesh(path) -> SimplicialComplex:
    with open(path) as fh:
        return complex_from_json(json.load(fh))


def save_mesh(complex: SimplicialComplex, path) -> None:
    with open(path, "w") as fh:
        json.dump(complex_to_json(complex), fh)
        fh.write("\n")
