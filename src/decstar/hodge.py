"""Discrete Hodge star operators: diagonal, Whitney, and dual-inverse.

Three discretizations of the Hodge star are assembled as sparse symmetric
matrices indexed by primal k-simplices.  The diagonal star is the ratio of
dual to primal measures; the Whitney star is the Gram matrix of primal
Whitney forms; the dual-inverse star is the Gram matrix of dual Whitney
forms, assembled directly (its sparsity is the point: the inverse of the
Whitney star would be dense).  `hodge_pair` therefore never forms that
inverse; it solves with the sparse LU factors of the assembled star.

The Table 1 study of the two-fan mesh family takes its dual-inverse
column from one hub cell, whose ring of triangle centers comes from the
same `vertex_ring` walk as every dual polygon.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import Error
from .mesh import (DualMesh, SimplicialComplex, check_degree, generate_fig8,
                   pixel_centers, vertex_ring)
from .whitney import whitney_gram_matrix
from .sibson import DualInterpolation, SibsonCell, edge_forms
from .systems import FactorizedInverse


@dataclass
class HodgeOperator:
    """A discrete Hodge star matrix."""

    degree: int
    kind: str  # "diag" | "whitney" | "dual_inverse"
    matrix: sp.csr_matrix
    space: str  # index space description

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


# ---------------------------------------------------------------------------
# assembly


def assemble_diag(complex: SimplicialComplex, dual: DualMesh,
                  k: int) -> HodgeOperator:
    """Diagonal Hodge star: entries |dual cell| / |primal simplex|."""
    check_degree(complex, k)
    if dual.rule == "barycentric":
        warnings.warn(
            "diagonal Hodge star with a barycentric dual is uncorrected; "
            "the circumcentric dual is the intended pairing",
            stacklevel=2,
        )
    dual_m = dual.measures[k]
    bad = dual.negative_cells(k)
    if len(bad):
        detail = ", ".join(
            f"simplex {i}: dual measure {dual_m[i]:.3e}" for i in bad[:10]
        )
        raise Error(f"nonpositive dual measures for degree {k}: {detail}")
    mat = sp.diags(dual_m / complex.measures[k]).tocsr()
    return HodgeOperator(k, "diag", mat, f"primal {k}-simplices")


def assemble_whitney(complex: SimplicialComplex, k: int) -> HodgeOperator:
    """Whitney (Galerkin) Hodge star: Gram matrix of Whitney k-forms."""
    mat = whitney_gram_matrix(complex, k)
    return HodgeOperator(k, "whitney", mat, f"primal {k}-simplices")


def _cell_quadrature(cell, resolution: int):
    """Pixel-center quadrature nodes and weight over a polygon's bbox.

    The nodes are the pixel centers that `SibsonCell.contains` claims, in
    `pixel_centers` order.  Its even-odd test runs once per side and pixel
    row, not per pixel: every center of a row has the row's y, so it meets
    each side at the same x (`SibsonCell.side_crossings`), with the same
    bits.  A center is inside when an odd number of sides meet its row
    right of it."""
    lo, hi = cell.vertices.min(axis=0), cell.vertices.max(axis=0)
    pts = pixel_centers(lo, hi, resolution)
    grid = pts.reshape(resolution, resolution, 2)  # [x index, y index]
    xint, straddles = cell.side_crossings(grid[0, :, 1])
    xint[~straddles] = -np.inf  # a side off the row is right of no center
    x = grid[:, :1, 0]
    inside = np.zeros((resolution, resolution), dtype=bool)
    for row in xint:
        inside ^= x < row
    return pts[inside.ravel()], np.prod(hi - lo) / resolution ** 2


def assemble_dual_inverse(complex: SimplicialComplex, dual: DualMesh, k: int,
                          resolution: int = 128,
                          interp: DualInterpolation | None = None
                          ) -> HodgeOperator:
    """Inverse dual Hodge star: Gram matrix of dual Whitney forms.

    Entries are integrated by pixel-grid quadrature over the per-vertex dual
    polygons whose union carries the forms' supports; on each polygon,
    `DualInterpolation.forms` evaluates the forms supported there.  Every
    polygon's site regions are built in one batched pass before the first
    polygon.  `interp` is the mesh's `DualInterpolation`, built here when
    None; a caller that assembles several degrees passes one, so each
    polygon's regions are built once.
    """
    if complex.dim != 2:
        raise Error("dual-inverse assembly is implemented for 2D meshes")
    check_degree(complex, k)
    di = DualInterpolation(complex, dual) if interp is None else interp
    n = complex.dim
    N = len(complex.simplices[k])
    space = f"dual {n - k}-cells of primal {k}-simplices"
    if k == 0:
        mat = sp.diags(1.0 / np.array([c.measure for c in di.cells])).tocsr()
        return HodgeOperator(k, "dual_inverse", mat, space)
    di.build_regions(range(len(di.cells)))
    rows, cols, vals = [], [], []
    for v in range(len(complex.vertices)):
        pts, w = _cell_quadrature(di.cells[v], resolution)
        if len(pts) < 10:
            raise Error(f"quadrature resolution {resolution} leaves fewer "
                        f"than 10 interior samples in the dual polygon of "
                        f"vertex {v}")
        gens, fields = di.forms(v, k, pts)
        fields = fields.reshape(len(gens), -1)  # (G, d q), points last
        # F F^T by numpy's loops: `F @ F.T` would start OpenBLAS buffers
        # that nothing else in the `hodge` command uses, 0.1 MB more peak
        # RSS.  Symmetric by construction: the upper triangle, mirrored
        gram = np.triu(w * np.einsum("aq,bq->ab", fields, fields))
        gram += np.triu(gram, 1).T
        rows.append(np.repeat(gens, len(gens)))
        cols.append(np.tile(gens, len(gens)))
        vals.append(gram.ravel())
    mat = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                np.concatenate(cols))),
                        shape=(N, N)).tocsr()
    mat.eliminate_zeros()
    return HodgeOperator(k, "dual_inverse", mat, space)


KINDS = ("diag", "whitney", "dual_inverse")
READS_DUAL = ("diag", "dual_inverse")  # the kinds that read the dual mesh


def assemble(kind: str, complex: SimplicialComplex, dual: DualMesh | None,
             k: int, resolution: int = 128,
             interp: DualInterpolation | None = None) -> HodgeOperator:
    """The Hodge star of one of `KINDS` at degree k: M_k for diag and
    whitney, its inverse M_k^{-1} for dual_inverse.  Only the kinds in
    `READS_DUAL` read `dual`; the others take None.  Only dual_inverse reads
    `interp` (see `assemble_dual_inverse`)."""
    if kind == "diag":
        return assemble_diag(complex, dual, k)
    if kind == "whitney":
        return assemble_whitney(complex, k)
    if kind == "dual_inverse":
        return assemble_dual_inverse(complex, dual, k, resolution, interp)
    raise Error(f"unknown Hodge kind {kind!r}")


def hodge_pair(complex: SimplicialComplex, dual: DualMesh | None, k: int,
               kind: str, resolution: int = 128,
               interp: DualInterpolation | None = None):
    """A Hodge matrix and its exact inverse, from a single assembly.

    The mixed-system equivalences hold only when M and M^{-1} are exact
    inverse pairs.  The assembled side is returned as its sparse matrix; a
    diagonal star is inverted entrywise, and any other star's inverse is a
    `systems.FactorizedInverse`, whose one LU certifies the star at its first
    solve.  Quadrature can leave a dual-inverse star indefinite, so its LU
    is made here.  `interp` is passed on to `assemble`.
    """
    A = assemble(kind, complex, dual, k, resolution, interp).matrix
    if A.nnz == np.count_nonzero(A.diagonal()):  # diagonal: entrywise
        inv = sp.diags(1.0 / A.diagonal()).tocsr()
    else:
        inv = FactorizedInverse(A, f"{kind} Hodge star of degree {k}")
        if kind == "dual_inverse":
            inv.lu
    return (inv, A) if kind == "dual_inverse" else (A, inv)


# ---------------------------------------------------------------------------
# diagnostics


def condition_estimate(A: sp.spmatrix | np.ndarray, method: str = "full",
                       block_size: int = 5) -> dict:
    """Condition number via dense symmetric eigendecomposition, keyed as
    `cond` prints it: `method`, the largest and smallest eigenvalue
    magnitudes `lambda_max` and `lambda_min`, and their ratio `condition`,
    infinite when `lambda_min` is at most 1e-12 `lambda_max`, so that
    scaling A moves no estimate, and a zero A is singular.

    method="leading-block" uses the spectrum of the leading block_size x
    block_size submatrix, the estimate used for the parameterized-mesh study;
    a sparse matrix is sliced before it is densified, so only that block is.
    """
    A = sp.csr_matrix(A) if sp.issparse(A) else np.asarray(A, dtype=float)
    if method == "leading-block":
        if not 1 <= block_size <= A.shape[0]:
            raise Error(f"leading block size {block_size} out of range "
                        f"1..{A.shape[0]}")
        A = A[:block_size, :block_size]
    # eigh, not eigvalsh: the two differ in the last bits of Table 1 blocks
    vals = np.abs(np.linalg.eigh(A.toarray() if sp.issparse(A) else A)[0])
    lmax, lmin = float(vals.max()), float(vals.min())
    singular = lmin <= 1e-12 * lmax
    return {"method": method, "lambda_max": lmax, "lambda_min": lmin,
            "condition": math.inf if singular else lmax / lmin}


def neighborhood_sizes(complex: SimplicialComplex, k: int) -> np.ndarray:
    """Per k-simplex, the number of n-simplices incident on at least one of
    its vertices: the row counts of (k-simplex x vertex)(vertex x cell)."""
    def vertices_of(simplices):  # one row per simplex, a 1 per vertex
        return sp.csr_matrix((np.ones(simplices.size), simplices.ravel(),
                              np.arange(0, simplices.size + 1,
                                        simplices.shape[1])),
                             shape=(len(simplices), len(complex.vertices)))

    touch = (vertices_of(complex.simplices[k])
             @ vertices_of(complex.simplices[complex.dim]).T)
    return np.diff(touch.tocsr().indptr)


@dataclass
class SparsityReport:
    row_nonzeros: np.ndarray
    bounds: np.ndarray
    within_bound: bool


def sparsity_audit(operator: HodgeOperator,
                   complex: SimplicialComplex) -> SparsityReport:
    """Check row-wise nonzero counts against the adjacency bound
    C(n+1, k+1) * A(sigma^k), with A the vertex-incident n-simplex count."""
    k = operator.degree
    counts = np.diff(operator.matrix.tocsr().indptr)
    bounds = math.comb(complex.dim + 1, k + 1) * neighborhood_sizes(complex, k)
    return SparsityReport(counts, bounds, bool(np.all(counts <= bounds)))


# ---------------------------------------------------------------------------
# closed forms for the parameterized two-fan mesh


def fig8_diag_entries(P: float):
    """Closed-form diagonal star entries (first edge; remaining four)."""
    lead = (4 * P ** 2 - 1) / (4 * P)
    rho = 1 / (4 * P ** 4) + P / math.sqrt(3 + 12 * P ** 2)
    return lead, rho


def fig8_diag_condition(P: float) -> float:
    """Condition number of the diagonal block diag(lead, rho, rho, rho,
    rho): its largest entry over its smallest.  lead is the larger entry
    for P above about 0.9038, rho below."""
    lead, rho = fig8_diag_entries(P)
    return max(lead, rho) / min(lead, rho)


def fig8_whitney_entries(P: float):
    """Closed-form Whitney block coefficients (alpha, beta, gamma, delta)."""
    alpha = (12 * P ** 2 + 1) / (24 * P)
    beta = (4 * P ** 2 - 1) / (48 * P)
    gamma = (12 * P ** 2 + 20 * math.sqrt(3) * P + 21) / (144 * P)
    delta = (4 * P ** 2 - 5) / (48 * P)
    return alpha, beta, gamma, delta


def fig8_whitney_block(P: float) -> np.ndarray:
    """The published 5x5 Whitney block.  Off-diagonal delta entries appear
    with the sign induced by sorted-vertex edge orientations, which matches
    the published magnitudes; the spectrum is orientation-independent."""
    a, b, g, d = fig8_whitney_entries(P)
    return np.array([
        [a, b, b, b, b],
        [b, g, 0, d, 0],
        [b, 0, g, 0, d],
        [b, d, 0, g, 0],
        [b, 0, d, 0, g],
    ])


def fig8_whitney_condition(P: float) -> float:
    s3 = math.sqrt(3)
    num = (24 * P ** 2 + 5 * s3 * P
           + math.sqrt(288 * P ** 4 - 120 * s3 * P ** 3 + 3 * P ** 2 + 9) + 3)
    return num / (10 * s3 * P + 18)


# ---------------------------------------------------------------------------
# condition-number experiment


def fig8_dual_inverse_block(P: float, resolution: int = 512) -> np.ndarray:
    """The 5x5 dual-inverse block of the two-fan study, with the published
    patch substitutions, from one quadrature pass over the first hub's cell.

    The two-fan mesh is a neighborhood cut out of a larger triangulation, so
    the hub cell is the plain ring of the centers of the four triangles at
    v1 in `vertex_ring` order (fan on v1v3, t123, t124, fan on v1v4),
    without boundary closure.  With eta12 = eta(t123, t124) and
    eta13 = eta(t123, fan13) on it:

    - vartheta = 2 <eta12, eta12>: the mirror y -> 1 - y swaps the hubs,
      so the second hub's cell carries an equal half;
    - zeta = <eta12, eta13>, which also replaces the cross term xi, whose
      cells leave the patch;
    - theta = 2 <eta13, eta13>: its fan-tip half leaves the patch and is
      replaced by the hub half;
    - kappa, the negligible opposite-edge term, is zero.
    """
    comp = generate_fig8(P)
    tris = [t for tag, t in vertex_ring(comp, 0) if tag == "c"]
    centers = comp.vertices[comp.simplices[2][tris]].mean(axis=1)
    cell = SibsonCell(centers, restricted=True)
    labels = tris if cell.vertices is centers else tris[::-1]
    pts, w = _cell_quadrature(cell, resolution)
    vals, grads = cell.coords_and_gradients_batch(pts)
    fan13, t123, t124, _ = (labels.index(t) for t in tris)
    # (2, q) rows: the points-last storage behind the (q, 2) views
    eta12, eta13 = edge_forms(vals, grads, [t123, t123],
                              [t124, fan13]).transpose(0, 2, 1)

    def dot(a, b):
        return w * float(np.einsum("dq,dq->", a, b))

    vartheta = 2.0 * dot(eta12, eta12)
    zeta = dot(eta12, eta13)
    theta = 2.0 * dot(eta13, eta13)
    xi = zeta
    kappa = 0.0
    return np.array([
        [vartheta, zeta, zeta, zeta, zeta],
        [zeta, theta, kappa, xi, 0],
        [zeta, kappa, theta, 0, xi],
        [zeta, xi, 0, theta, kappa],
        [zeta, 0, xi, kappa, theta],
    ])


def table1_experiment(P_values, resolution: int = 512) -> list:
    """Condition numbers of the three Hodge stars on the two-fan mesh family,
    one dict per P keyed as `table1` prints it: `P`, `cond_diag`,
    `cond_whitney`, `cond_dual_inverse` and the row's wall time `seconds`.

    Diagonal column: ratio of the closed-form extreme diagonal entries.
    Whitney column: eigenvalue ratio of the assembled leading 5x5 block.
    Dual-inverse column: eigenvalue ratio of the quadrature 5x5 block from
    fig8_dual_inverse_block, one Sibson pass over the first hub's cell as
    `vertex_ring` walks it.
    """
    rows = []
    for P in P_values:
        t0 = time.perf_counter()
        whit = assemble_whitney(generate_fig8(P), 1).matrix
        block = fig8_dual_inverse_block(P, resolution)
        rows.append({
            "P": P, "cond_diag": fig8_diag_condition(P),
            "cond_whitney": condition_estimate(whit, "leading-block",
                                               5)["condition"],
            "cond_dual_inverse": condition_estimate(block)["condition"],
            "seconds": time.perf_counter() - t0,
        })
    return rows


def table1_csv(rows) -> str:
    lines = ["P,cond_diag,cond_whitney,cond_dual_inverse"]
    for r in rows:
        lines.append(f"{r['P']:g},{r['cond_diag']:.6g},"
                     f"{r['cond_whitney']:.6g},{r['cond_dual_inverse']:.6g}")
    return "\n".join(lines) + "\n"
