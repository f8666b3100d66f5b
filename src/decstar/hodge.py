"""Discrete Hodge star operators: diagonal, Whitney, and dual-inverse.

Three discretizations of the Hodge star are assembled as sparse symmetric
matrices indexed by primal k-simplices.  The diagonal star is the ratio of
dual to primal measures; the Whitney star is the Gram matrix of primal
Whitney forms; the dual-inverse star is the Gram matrix of dual Whitney
forms, assembled directly (its sparsity is the point: the inverse of the
Whitney star would be dense).  `hodge_pair` therefore never forms that
inverse; it solves with the sparse LU factors of the assembled star.
What a kind reads besides the complex is built once per command, by
`star_input`, and shared by every degree assembled from it.

The Table 1 study of the two-fan mesh family takes its dual-inverse
column from the right half of one hub cell, whose ring of triangle centers
comes from the same `vertex_ring` walk as every dual polygon: the mesh's
mirror y -> 1 - y swaps its two hubs, and the mirror x -> -x maps the hub
cell onto itself, giving its left half.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import Error, mesh
from .mesh import (DualMesh, SimplicialComplex, check_degree, generate_fig8,
                   vertex_ring)
from .whitney import whitney_gram_matrix
from .sibson import (CLIP_CHUNK, DualInterpolation, SibsonCell, edge_forms,
                     side_crossings)
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


# quadrature pixels per group of polygons in `_cell_quadrature`: a group's
# nodes come from one pass and live only while the group is integrated
PIXEL_BUDGET = 1 << 14


def _cell_quadrature(cells, resolution: int):
    """Pixel-center quadrature nodes and weight of each polygon of `cells`
    over its bbox, yielded in order, a group of `PIXEL_BUDGET` pixels (at
    least one polygon) per pass.

    A polygon's nodes are the pixel centers of its bbox
    (`mesh.pixel_centers`, whose arithmetic the pass repeats) that
    `SibsonCell.contains` claims, in `pixel_centers` order.  The even-odd
    test runs once per side and pixel row, not per pixel: every center of a
    row has the row's y, so it meets each side at the same x
    (`side_crossings`), with the same bits.  A center is inside when an odd
    number of sides meet its row right of it.  The shorter side loops of a
    group are padded with sides between NaN corners, which straddle no row,
    so that one test runs over the whole group."""
    m = resolution
    per_group = max(1, PIXEL_BUDGET // m ** 2)
    for start in range(0, len(cells), per_group):
        group = [cell.vertices for cell in cells[start:start + per_group]]
        # each side from a corner in `a` to the next in `b`, NaN-padded,
        # which fmin and fmax skip
        a = np.full((len(group), max(map(len, group)), 2), np.nan)
        b = a.copy()
        for row_a, row_b, loop in zip(a, b, group):
            row_a[:len(loop)] = loop
            row_b[:len(loop) - 1], row_b[len(loop) - 1] = loop[1:], loop[0]
        lo, hi = np.fmin.reduce(a, axis=1), np.fmax.reduce(a, axis=1)
        # (cells, axis, m): np.linspace's steps, written out, plus half a
        # pixel; np.linspace over many boxes would switch them all to
        # another formula when one box is flat
        span = (hi - lo)[..., None]
        axes = np.arange(m) * (span / m) + lo[..., None] + span / (2 * m)
        xint, straddles = side_crossings(a, b, axes[:, 1:])
        xint[~straddles] = -np.inf  # a side off the row is right of no center
        x = axes[:, 0, :, None]
        inside = np.zeros((len(group), m, m), dtype=bool)  # [cell, x, y]
        for side in xint.transpose(1, 0, 2):
            inside ^= x < side[:, None]
        # the nodes, x slowest: each x repeated for the centers it keeps
        per_x = np.count_nonzero(inside, axis=2)
        pts = np.empty((per_x.sum(), 2))
        pts[:, 0] = np.repeat(axes[:, 0], per_x.ravel())
        pts[:, 1] = np.broadcast_to(axes[:, 1:], inside.shape)[inside]
        ends = np.cumsum(per_x.sum(axis=1)).tolist()
        weights = np.prod(span[..., 0], axis=1) / m ** 2
        for first, end, w in zip([0] + ends[:-1], ends, weights):
            yield pts[first:end], w


def assemble_dual_inverse(complex: SimplicialComplex,
                          dual: DualMesh | DualInterpolation, k: int,
                          resolution: int = 128) -> HodgeOperator:
    """Inverse dual Hodge star: Gram matrix of dual Whitney forms.

    Entries are integrated by pixel-grid quadrature over the per-vertex dual
    polygons whose union carries the forms' supports; on each polygon,
    `DualInterpolation.forms` evaluates the forms supported there, and its
    local Gram block is one product, scattered with its own generators.
    Every polygon's site regions are built in one batched pass before the
    first polygon, and the quadrature nodes a group of polygons per pass
    (`_cell_quadrature`).  `dual` is the dual mesh, or its
    `DualInterpolation` (`star_input`), whose regions every degree
    assembled from it shares.
    """
    if complex.dim != 2:
        raise Error("dual-inverse assembly is implemented for 2D meshes")
    check_degree(complex, k)
    di = (dual if isinstance(dual, DualInterpolation)
          else DualInterpolation(complex, dual))
    n = complex.dim
    N = len(complex.simplices[k])
    space = f"dual {n - k}-cells of primal {k}-simplices"
    if k == 0:
        mat = sp.diags(1.0 / np.array([c.measure for c in di.cells])).tocsr()
        return HodgeOperator(k, "dual_inverse", mat, space)
    di.build_regions(range(len(di.cells)))
    gens, vals = [], []
    for v, (pts, w) in enumerate(_cell_quadrature(di.cells, resolution)):
        if len(pts) < 10:
            raise Error(f"quadrature resolution {resolution} leaves fewer "
                        f"than 10 interior samples in the dual polygon of "
                        f"vertex {v}")
        local, fields = di.forms(v, k, pts)
        fields = fields.reshape(len(local), -1)  # (G, d q), points last
        # F F^T by numpy's loops: `F @ F.T` would start OpenBLAS buffers
        # that nothing else in the `hodge` command uses, 0.1 MB more peak
        # RSS.  Entries (a, b) and (b, a) are the same sum, bit for bit
        gens.append(local)
        vals.append((w * np.einsum("aq,bq->ab", fields, fields)).ravel())
    rows = np.concatenate([np.repeat(g, len(g)) for g in gens])
    cols = np.concatenate([np.tile(g, len(g)) for g in gens])
    mat = sp.coo_matrix((np.concatenate(vals), (rows, cols)),
                        shape=(N, N)).tocsr()
    mat.eliminate_zeros()
    return HodgeOperator(k, "dual_inverse", mat, space)


KINDS = ("diag", "whitney", "dual_inverse")


def star_input(kind: str, complex: SimplicialComplex, rule: str):
    """What a star of `kind` reads besides the complex, built once for all
    its degrees: None for whitney; for diag, and for dual_inverse on a mesh
    other than 2D (whose assembly is an error), the dual mesh of center
    `rule`; for dual_inverse in 2D, that mesh's `DualInterpolation`."""
    if kind == "whitney":
        return None
    dual = mesh.build_dual(complex, rule)
    if kind == "dual_inverse" and complex.dim == 2:
        return DualInterpolation(complex, dual)
    return dual


def assemble(kind: str, complex: SimplicialComplex, dual, k: int,
             resolution: int = 128) -> HodgeOperator:
    """The Hodge star of one of `KINDS` at degree k: M_k for diag and
    whitney, its inverse M_k^{-1} for dual_inverse.  `dual` is what the
    kind reads besides the complex (`star_input`)."""
    if kind == "diag":
        return assemble_diag(complex, dual, k)
    if kind == "whitney":
        return assemble_whitney(complex, k)
    if kind == "dual_inverse":
        return assemble_dual_inverse(complex, dual, k, resolution)
    raise Error(f"unknown Hodge kind {kind!r}")


def hodge_pair(complex: SimplicialComplex, dual, k: int, kind: str,
               resolution: int = 128):
    """A Hodge matrix and its exact inverse, from a single assembly.

    The mixed-system equivalences hold only when M and M^{-1} are exact
    inverse pairs.  The assembled side is returned as its sparse matrix; a
    diagonal star is inverted entrywise, and any other star's inverse is a
    `systems.FactorizedInverse`, whose one LU certifies the star at its first
    solve.  Quadrature can leave a dual-inverse star indefinite, so its LU
    is made here.  `dual` is passed on to `assemble`.
    """
    A = assemble(kind, complex, dual, k, resolution).matrix
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


# ---------------------------------------------------------------------------
# condition-number experiment


def fig8_dual_inverse_block(comp: SimplicialComplex,
                            resolution: int = 512) -> np.ndarray:
    """The 5x5 dual-inverse block of the two-fan mesh `comp`
    (`generate_fig8`), with the published patch substitutions, from one
    quadrature pass over the right half of the first hub's cell.

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

    The mirror R = diag(-1, 1), x -> -x, maps the hub cell onto itself and
    swaps t123 with t124 and the fan on v1v3 with the fan on v1v4, so with
    eta24 = eta(t124, fan14), eta12(Rx) = -R eta12(x) and
    eta13(Rx) = R eta24(x).  Only the quadrature nodes with x >= -tol are
    evaluated, tol being 1e-12 of the cell's width, and over the nodes m
    with x > tol, whose mirrors are the nodes left of the axis:

    - <eta12, eta12> = sum |eta12|^2 + sum_m |eta12|^2;
    - <eta12, eta13> = sum eta12 . eta13 - sum_m eta12 . eta24;
    - <eta13, eta13> = sum |eta13|^2 + sum_m |eta24|^2.

    The nodes on the axis, a column of them at an odd `resolution`, count
    once.
    """
    tris = [t for tag, t in vertex_ring(comp, 0) if tag == "c"]
    centers = comp.vertices[comp.simplices[2][tris]].mean(axis=1)
    cell = SibsonCell(centers, restricted=True)
    labels = tris if cell.vertices is centers else tris[::-1]
    pts, w = next(_cell_quadrature([cell], resolution))
    fan13, t123, t124, fan14 = (labels.index(t) for t in tris)
    # the nodes come x slowest, so those with x >= -tol are a tail of
    # them, and those with x > tol a tail of that
    tol = 1e-12 * np.ptp(cell.vertices[:, 0])
    first = np.searchsorted(pts[:, 0], -tol)
    mirrored = np.searchsorted(pts[:, 0], tol, side="right")
    # the sums over the half and over m, `CLIP_CHUNK` points at a time,
    # which bounds the (sites, 2, points) arrays
    half, mirror = np.zeros(3), np.zeros(3)
    for lo in range(first, len(pts), CLIP_CHUNK):
        vals, grads = cell.coords_and_gradients_batch(pts[lo:lo + CLIP_CHUNK])
        # (2, q) rows: the points-last storage behind the (q, 2) views
        eta12, eta13, eta24 = edge_forms(vals, grads, [t123, t123, t124],
                                         [t124, fan13, fan14]
                                         ).transpose(0, 2, 1)
        half += [np.einsum("dq,dq->", a, b)
                 for a, b in ((eta12, eta12), (eta12, eta13), (eta13, eta13))]
        eta12, eta24 = (a[:, max(mirrored - lo, 0):] for a in (eta12, eta24))
        mirror += [np.einsum("dq,dq->", a, b) for a, b in
                   ((eta12, eta12), (eta12, eta24), (eta24, eta24))]
    sums = half + [1.0, -1.0, 1.0] * mirror
    vartheta, zeta, theta = w * sums * [2.0, 1.0, 2.0]
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
    fig8_dual_inverse_block, one Sibson pass over the right half of the
    first hub's cell as `vertex_ring` walks it.
    """
    rows = []
    for P in P_values:
        t0 = time.perf_counter()
        comp = generate_fig8(P)
        whit = assemble_whitney(comp, 1).matrix
        block = fig8_dual_inverse_block(comp, resolution)
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
