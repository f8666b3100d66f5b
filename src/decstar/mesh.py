"""Oriented simplicial complexes, their dual meshes, and mesh quality reports.

The primal mesh is an n-dimensional simplicial complex (n = 2 or 3) given by
vertex coordinates and top-dimensional cells.  The dual mesh assigns to every
primal k-simplex an (n-k)-cell spanned by the barycenters or circumcenters of
its cofaces, and is held as the two things the Hodge stars read from it: the
centers of all simplices (the dual vertices) and the signed cell measures,
accumulated over the elementary subdivision simplices.  Dual cells of
boundary simplices are clipped to the domain: the boundary contributes edge
midpoints and the primal vertex itself as dual cell vertices, so that vertex
dual areas always sum to the mesh volume under the barycentric rule.  In 2D,
`vertex_ring` lists the dual vertices of a vertex's dual polygon in order.

Assembly works on whole arrays of simplices: faces are enumerated by one
stable lexsort of their sorted vertex tuples (`_unique_rows`), measures and
side signs come from one closed-form determinant rule (`_det`), and
adjacency is read off the incidence matrices: `cofaces` and
`boundary_simplices` take the column structure of each D_k, in CSC form.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import Error

BARYCENTRIC = "barycentric"
CIRCUMCENTRIC = "circumcentric"

# Relative determinant threshold used to flag degenerate simplices.
DEGENERACY_RTOL = 1e-12


def _det(a) -> np.ndarray:
    """Determinants of a stack (..., m, m) of order m = 0..3 by cofactor
    expansion along the first row, with no logarithm and no division: a
    stack scaled by 2^j has them scaled by exactly 2^(j m).  The empty
    determinant is 1."""
    a = np.asarray(a, dtype=float)
    m = a.shape[-1]
    if m < 2:
        return a[..., 0, 0].copy() if m else np.ones(a.shape[:-2])
    if m == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return (a[..., 0, 0] * _det(a[..., 1:, [1, 2]])
            - a[..., 0, 1] * _det(a[..., 1:, [0, 2]])
            + a[..., 0, 2] * _det(a[..., 1:, [0, 1]]))


def simplex_measures(points) -> np.ndarray:
    """Unsigned k-volumes of a stack of k-simplices, points shaped (..., k+1, d).

    A full-dimensional simplex (k = d) takes |det(edges)| / k!, which keeps
    its relative accuracy on slivers.  Lower dimensions take the Gram
    determinant, which squares the conditioning but works in any ambient
    dimension; a point's empty Gram determinant gives it measure 1.
    """
    pts = np.asarray(points, dtype=float)
    k = pts.shape[-2] - 1
    edges = pts[..., 1:, :] - pts[..., :1, :]
    if k == pts.shape[-1]:
        return np.abs(_det(edges)) / math.factorial(k)
    det = _det(edges @ np.swapaxes(edges, -1, -2))
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(k)


def simplex_centers(points, rule: str) -> np.ndarray:
    """Barycenters or circumcenters of a stack (m, k+1, d) of k-simplices.

    A circumcenter is the point equidistant from all vertices within the
    simplex's affine hull.  Raises `Error` for a degenerate simplex
    (relative determinant below DEGENERACY_RTOL at the simplex's own scale).
    """
    pts = np.asarray(points, dtype=float)
    if rule == BARYCENTRIC:
        return pts.mean(axis=1)
    if rule != CIRCUMCENTRIC:
        raise Error(f"unknown center rule {rule!r}")
    k = pts.shape[1] - 1
    if k == 0:
        return pts[:, 0].copy()
    edges = pts[:, 1:] - pts[:, :1]
    gram = 2.0 * edges @ np.swapaxes(edges, -1, -2)
    rhs = np.einsum("mij,mij->mi", edges, edges)
    scale = np.abs(edges).max(axis=(1, 2))
    scale[scale == 0] = 1.0
    if np.any(np.abs(_det(gram))
              <= DEGENERACY_RTOL * (2.0 * scale * scale) ** k):
        raise Error("degenerate simplex has no circumcenter")
    sol = np.linalg.solve(gram, rhs[..., None])
    return pts[:, 0] + (np.swapaxes(sol, -1, -2) @ edges)[:, 0]


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
    measures: list  # (N_k,) lengths, areas, volumes; 1 for vertices
    face_indices: list  # face_indices[k]: (N_{k+1}, k+2) int array

    @cached_property
    def _incidence(self) -> dict:
        """D_k per k, built on first use (`incidence_matrix`)."""
        return {}

    @cached_property
    def _coboundary(self) -> list:
        """Per k < dim, D_k in CSC form: the (k+1)-simplices containing
        k-simplex i are the rows of its column i, ascending."""
        table = []
        for k in range(self.dim):
            csc = self.incidence_matrix(k).tocsc()
            csc.indices.flags.writeable = False
            table.append(csc)
        return table

    @cached_property
    def vertex_components(self) -> np.ndarray:
        """The connected component of each vertex, in the column order of
        D_0, numbered in the order of the components' first vertices."""
        from scipy.sparse.csgraph import connected_components

        D0 = self._coboundary[0]
        return connected_components(D0.T @ D0, directed=False)[1]

    def cofaces(self, k: int, i: int) -> np.ndarray:
        """Indices of the (k+1)-simplices containing k-simplex i."""
        if k >= self.dim:
            return np.empty(0, dtype=int)
        csc = self._coboundary[k]
        return csc.indices[csc.indptr[i]:csc.indptr[i + 1]]

    def boundary_simplices(self, k: int) -> np.ndarray:
        """Boolean mask of k-simplices lying on the domain boundary: the
        (n-1)-simplices with one coface, and their faces."""
        n = self.dim
        counts = np.diff(self._coboundary[n - 1].indptr)
        ids = np.nonzero(counts == 1)[0] if k < n else []
        for level in range(n - 2, k - 1, -1):
            ids = self.face_indices[level][ids].ravel()
        mask = np.zeros(len(self.simplices[k]), dtype=bool)
        mask[ids] = True
        return mask

    def incidence_matrix(self, k: int):
        """Signed incidence matrix D_k from k-cochains to (k+1)-cochains, in
        canonical CSR form.  It is built once per complex and shared: every
        call returns the same matrix, whose arrays are read-only."""
        import scipy.sparse as sp

        if not 0 <= k < self.dim:
            raise Error(f"incidence degree k={k} out of range for n={self.dim}")
        if k not in self._incidence:
            n_rows = len(self.simplices[k + 1])
            n_cols = len(self.simplices[k])
            rows = np.repeat(np.arange(n_rows), k + 2)
            cols = self.face_indices[k].ravel()
            signs = np.tile([(-1) ** m for m in range(k + 2)],
                            n_rows).astype(float)
            signs *= np.repeat(self.orientations[k + 1], k + 2)
            signs *= self.orientations[k][cols]
            D = sp.csr_matrix((signs, (rows, cols)), shape=(n_rows, n_cols))
            D.sum_duplicates()
            for a in (D.data, D.indices, D.indptr):
                a.flags.writeable = False
            self._incidence[k] = D
        return self._incidence[k]

    def with_leading_simplices(self, k: int, leading) -> "SimplicialComplex":
        """Return a copy with the given k-simplices enumerated first, in order."""
        index = {tuple(s): i for i, s in enumerate(self.simplices[k].tolist())}
        lead_ids = [index[tuple(sorted(t))] for t in leading]
        lead = set(lead_ids)
        perm = np.array(lead_ids + [i for i in range(len(self.simplices[k]))
                                    if i not in lead])
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        simplices = list(self.simplices)
        orientations = list(self.orientations)
        measures = list(self.measures)
        face_indices = list(self.face_indices)
        simplices[k] = self.simplices[k][perm]
        orientations[k] = self.orientations[k][perm]
        measures[k] = self.measures[k][perm]
        if k > 0:
            face_indices[k - 1] = self.face_indices[k - 1][perm]
        if k < self.dim:
            face_indices[k] = inv[self.face_indices[k]]
        return SimplicialComplex(
            self.dim, self.vertices, simplices, orientations, measures,
            face_indices,
        )


def check_degree(complex: SimplicialComplex, k: int) -> None:
    """Reject a form degree k outside 0..n on an n-dimensional complex."""
    if not 0 <= k <= complex.dim:
        raise Error(f"degree k={k} out of range 0..{complex.dim} for a "
                    f"{complex.dim}D mesh")


def _numeric_array(values, name: str, kinds: str) -> np.ndarray:
    """`values` as a rectangular array whose dtype kind is one of `kinds`."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise Error(f"{name} must be a rectangular array") from exc
    if arr.size and arr.dtype.kind not in kinds:
        raise Error(f"{name} must not hold {arr.dtype} values")
    return arr


def _unique_rows(rows: np.ndarray):
    """`np.unique(rows, axis=0, return_index=True, return_inverse=True)` of
    a 2D integer array from one stable lexsort: the distinct rows in
    lexicographic order, the index of each one's first occurrence, and the
    index of each row among the distinct ones."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], order[new], inverse


def build_complex(vertices, cells) -> SimplicialComplex:
    """Build the full complex from top-dimensional cells.

    Rejects degenerate cells (zero measure), duplicate cells, vertex
    indices out of range and vertices in no cell.  Cell orientation is
    recorded as the sign of the cell's determinant for the sorted vertex
    tuple; lower simplices carry +1 and are identified with their sorted
    tuples.
    """
    verts = _numeric_array(vertices, "vertices", "iuf")
    if verts.ndim != 2 or verts.shape[1] not in (2, 3):
        raise Error("vertices must be an (V, 2) or (V, 3) array")
    verts = verts.astype(float)
    if not np.isfinite(verts).all():
        raise Error("vertex coordinates must be finite")
    n = verts.shape[1]
    cells = _numeric_array(cells, "cells", "iu")
    if cells.ndim and len(cells) == 0:
        raise Error("mesh has no cells")
    if cells.ndim != 2 or cells.shape[1] != n + 1:
        raise Error(f"cells must have {n + 1} vertices each")
    if cells.min() < 0 or cells.max() >= len(verts):
        raise Error("cell vertex index out of range")

    # the largest power of the extent formed downstream, a simplex's edge
    # Gram determinant in `simplex_centers`, is at most (2 n scale**2)**n
    scale = float(np.ptp(verts, axis=0).max()) or 1.0
    limit = math.sqrt(np.finfo(float).max ** (1 / n) / (2 * n))
    if not scale < limit:
        raise Error(f"vertex coordinates span {scale:.4g}; a {n}D mesh "
                    f"must span less than {limit:.4g}")
    # The first cell failing a check names the error: repeated vertices,
    # then an earlier identical cell, then a vanishing determinant.
    sorted_cells = np.sort(cells.astype(int), axis=1)
    _, first, inverse = _unique_rows(sorted_cells)
    det = _det(verts[sorted_cells[:, 1:]] - verts[sorted_cells[:, :1]])
    repeated = (np.diff(sorted_cells, axis=1) == 0).any(axis=1)
    duplicate = first[inverse] != np.arange(len(cells))
    degenerate = np.abs(det) <= DEGENERACY_RTOL * scale**n
    bad = np.nonzero(repeated | duplicate | degenerate)[0]
    if len(bad):
        ci = int(bad[0])
        key = tuple(sorted_cells[ci].tolist())
        if repeated[ci]:
            raise Error(f"cell {ci} has repeated vertices")
        if duplicate[ci]:
            raise Error(f"duplicate cell {ci}: {key}")
        raise Error(f"degenerate cell {ci}: {key}")
    uses = np.bincount(sorted_cells.ravel(), minlength=len(verts))
    if not uses.all():
        raise Error(f"vertex {int(np.argmin(uses))} is in no cell")

    # Enumerate every lower-dimensional face exactly once, lexicographically:
    # column m of `faces` deletes vertex position m of each (k+1)-simplex.
    simplices = [None] * n + [sorted_cells]
    face_indices = [None] * n
    for k in range(n - 1, -1, -1):
        keep = [[j for j in range(k + 2) if j != m] for m in range(k + 2)]
        faces = simplices[k + 1][:, keep].reshape(-1, k + 1)
        simplices[k], _, inverse = _unique_rows(faces)
        face_indices[k] = inverse.reshape(-1, k + 2)
    measures = [simplex_measures(verts[simp]) for simp in simplices]
    orientations = [np.ones(len(simplices[k]), dtype=int) for k in range(n)]
    orientations.append(np.where(det > 0, 1, -1))

    return SimplicialComplex(
        n, verts, simplices, orientations, measures, face_indices
    )


def pixel_centers(lo, hi, m: int) -> np.ndarray:
    """The centers of the m**d equal cells of a grid over the box from
    corner `lo` to corner `hi`, one row each, the first axis slowest."""
    d = len(lo)
    out = np.empty((m,) * d + (d,))
    for i, (a, b) in enumerate(zip(lo, hi)):
        axis = np.linspace(a, b, m, endpoint=False) + (b - a) / (2 * m)
        out[..., i] = axis.reshape((m,) + (1,) * (d - 1 - i))
    return out.reshape(-1, d)


# ---------------------------------------------------------------------------
# Dual mesh


@dataclass(frozen=True)
class DualMesh:
    """The dual of a complex as its dual vertices and cell measures.

    centers[k] holds the (N_k, dim) centers of the primal k-simplices under
    `rule`, the dual vertices that span the dual cells; measures[k] holds the
    signed measures |*sigma^k| of the dual cells of the k-simplices.
    """

    rule: str
    centers: list  # centers[k]: (N_k, dim) array
    measures: list  # measures[k]: (N_k,) array of |*sigma^k|

    def negative_cells(self, k: int):
        """Indices of primal k-simplices with nonpositive dual measure."""
        return np.nonzero(self.measures[k] <= 0)[0]


def _side_signs(complex: SimplicialComplex, centers: list, k: int) -> np.ndarray:
    """(N_k, k+1) signs: +1 where the center of k-simplex i and the vertex
    that its face m omits lie on the same side of that face's affine hull,
    -1 on opposite sides, 0 if the center lies on it: sign det(E_m E^T),
    E the simplex's edges and E_m those with vertex m moved to the center."""
    pts = complex.vertices[complex.simplices[k]]  # (N_k, k+1, dim)
    moved = np.repeat(pts[:, None], k + 1, axis=1)
    moved[:, np.arange(k + 1), np.arange(k + 1)] = centers[k][:, None]
    edges = pts[:, None, 1:] - pts[:, None, :1]
    return np.sign(_det((moved[..., 1:, :] - moved[..., :1, :])
                        @ np.swapaxes(edges, -1, -2)))


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
        # the other edge of `tri` at v: face m of `tri` omits its vertex m
        (e,) = (f for f, u in zip(complex.face_indices[1][tri].tolist(),
                                  complex.simplices[2][tri].tolist())
                if u != v and f != e)
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
    n = complex.dim
    counts = [len(s) for s in complex.simplices]
    centers = [simplex_centers(complex.vertices[s], rule)
               for s in complex.simplices]

    # Chains sigma^k < ... < sigma^n, one row each with the simplex ids from
    # degree n down to k, grown a degree at a time in depth-first order.  A
    # chain's elementary dual simplex spans the centers of its row; its sign
    # is the product of the side signs of the steps down.
    chains = np.arange(counts[n])[:, None]
    sign = np.ones(counts[n])
    measures = [None] * n + [np.ones(counts[n])]
    for k in range(n, 0, -1):
        sign = (sign[:, None]
                * _side_signs(complex, centers, k)[chains[:, -1]]).ravel()
        chains = np.column_stack([
            np.repeat(chains, k + 1, axis=0),
            complex.face_indices[k - 1][chains[:, -1]].ravel()])
        pts = np.stack([centers[n - j][chains[:, j]]
                        for j in range(n - k + 2)], axis=1)
        measures[k - 1] = np.bincount(chains[:, -1], minlength=counts[k - 1],
                                      weights=sign * simplex_measures(pts))
    return DualMesh(rule, centers, measures)


# ---------------------------------------------------------------------------
# Quality report


def _gradation(measures: np.ndarray) -> float:
    """max/min of the measures; infinite when the smallest one is zero."""
    lo = measures.min()
    return float(measures.max() / lo) if lo != 0 else math.inf


def quality_report(complex: SimplicialComplex, dual: DualMesh) -> dict:
    """Mesh quality, keyed as `info` prints it.  Each list has one entry per
    degree k: `primal_range` and `dual_range` are the (min, max) of
    |sigma^k| and |*sigma^k|, `ratio_range` that of |*sigma^k| / |sigma^k|,
    and `primal_gradation` and `dual_gradation` the max/min of |sigma^k|
    and |*sigma^k|.  `worst_aspect_ratio` is the largest circumradius over
    n times the inradius, 1 for the regular simplex."""
    def span(m):
        return float(m.min()), float(m.max())

    n, pm, dm = complex.dim, complex.measures, dual.measures
    # the inradius is n |T| / |dT|
    pts = complex.vertices[complex.simplices[n]]
    R = np.linalg.norm(simplex_centers(pts, CIRCUMCENTRIC) - pts[:, 0], axis=1)
    surf = pm[n - 1][complex.face_indices[n - 1]].sum(axis=1)
    worst = (R / (n * (n * pm[n] / surf))).max()
    return {"primal_range": [span(m) for m in pm],
            "dual_range": [span(m) for m in dm],
            "ratio_range": [span(d / p) for p, d in zip(pm, dm)],
            "primal_gradation": [_gradation(m) for m in pm],
            "dual_gradation": [_gradation(m) for m in dm],
            "worst_aspect_ratio": float(worst)}


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
        raise Error("fig8 mesh requires P > 1/2")
    if not math.isfinite(P):
        raise Error(f"fig8 mesh requires a finite P, got {P:g}")
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
    if not math.isfinite(skew):
        raise Error(f"grid skew must be finite, got {skew:g}")
    xs = np.linspace(0.0, 1.0, m + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([(X + skew * Y).ravel(), Y.ravel()])
    a = (np.arange(m)[:, None] * (m + 1) + np.arange(m)).ravel()  # i m + j
    b = a + m + 1
    cells = np.column_stack([a, b, a + 1, a + 1, b, b + 1]).reshape(-1, 3)
    return build_complex(verts, cells)


def equilateral_grid(m: int) -> SimplicialComplex:
    """Uniform mesh of equilateral triangles, m rows of m up/down pairs."""
    j, i = np.divmod(np.arange((m + 1) ** 2), m + 1)  # row j, column i
    # odd rows shift by half a side; m < 0 leaves no vertex row at all
    verts = (np.column_stack([i + 0.5 * (j % 2), j * (math.sqrt(3.0) / 2.0)])
             if m >= 0 else [])
    a = (np.arange(m)[:, None] * (m + 1) + np.arange(m)).ravel()  # j m + i
    b, odd = a + m + 1, a // (m + 1) % 2
    cells = np.column_stack([a, a + 1, b + odd, a + 1 - odd, b, b + 1])
    return build_complex(verts, cells.reshape(-1, 3))


def random_delaunay(n_points: int, seed: int, dim: int = 2) -> SimplicialComplex:
    """Delaunay triangulation of random points plus the unit-box corners."""
    if dim not in (2, 3):
        raise Error(f"dimension must be 2 or 3, got {dim}")
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    pts = rng.random((n_points, dim))
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=dim)))
    pts = np.vstack([corners, pts])
    cells = Delaunay(pts).simplices
    vol = np.abs(_det(pts[cells[:, 1:]] - pts[cells[:, :1]]))
    return build_complex(pts, np.sort(cells[vol > 1e-10], axis=1))


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
        try:
            doc = json.loads(doc)
        except ValueError as exc:  # not JSON, or not UTF-8/16/32 text
            raise Error(f"mesh document is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise Error("mesh document must be a JSON object")
    for key in ("dimension", "vertices", "cells"):
        if key not in doc:
            raise Error(f"mesh document missing {key!r}")
    if type(doc["dimension"]) is not int or doc["dimension"] not in (2, 3):
        raise Error(f"dimension must be 2 or 3, got {doc['dimension']!r}")
    comp = build_complex(doc["vertices"], doc["cells"])
    if comp.dim != doc["dimension"]:
        raise Error("vertex coordinate size disagrees with dimension")
    orders = doc.get("simplex_order", {})
    if not isinstance(orders, dict):
        raise Error("simplex_order must map degrees to simplex lists")
    for key, order in orders.items():
        try:
            k = int(key)
            order = [[operator.index(v) for v in s] for s in order]
        except (TypeError, ValueError) as exc:
            raise Error(f"bad simplex_order[{key!r}]: {exc}") from exc
        listed = sorted(sorted(s) for s in order)
        if not (0 < k < comp.dim and listed == comp.simplices[k].tolist()):
            raise Error(f"simplex_order[{key!r}] is not an ordering of "
                        f"the mesh's {key}-simplices")
        comp = comp.with_leading_simplices(k, order)
    return comp


def load_mesh(path) -> SimplicialComplex:
    with open(path, "rb") as fh:
        return complex_from_json(fh.read())


def save_mesh(complex: SimplicialComplex, path) -> None:
    with open(path, "w") as fh:
        json.dump(complex_to_json(complex), fh)
        fh.write("\n")
