"""Barycentric coordinates and lowest-order Whitney k-forms on the primal mesh.

Forms are attached to sorted vertex tuples, matching the incidence-matrix
orientation convention.  Inner products of Whitney forms are evaluated in
closed form: barycentric gradients are constant per element and the pair
integrals of barycentric coordinates have an exact formula, so no quadrature
is involved in assembly.  Assembly is batched over elements: one stacked
inverse gives every element's barycentric gradients, fixed local index
tables for (n, k) turn their Gram matrices into all element matrices at
once, and those are scattered into a sparse matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import SimplicialComplex


class DegreeError(ValueError):
    pass


@dataclass(frozen=True)
class BarycentricFrame:
    """Affine data for barycentric coordinates on one n-simplex.

    lambda_i(x) = offsets[i] + gradients[i] . x, with sum_i lambda_i = 1.
    """

    cell: int
    gradients: np.ndarray  # (n+1, n)
    offsets: np.ndarray  # (n+1,)

    def coords(self, x) -> np.ndarray:
        return self.offsets + self.gradients @ np.asarray(x, dtype=float)

    def contains(self, x, tol: float = 1e-12) -> bool:
        return bool(np.all(self.coords(x) >= -tol))


def _barycentric_coefficients(complex: SimplicialComplex, cells) -> np.ndarray:
    """(C, n+1, n+1) stack: column j of each holds (offset, gradient) of
    lambda_j on that cell, from one batched inverse."""
    pts = complex.vertices[complex.simplices[complex.dim][cells]]
    ones = np.ones(pts.shape[:-1] + (1,))
    return np.linalg.inv(np.concatenate([ones, pts], axis=-1))


def barycentric_frame(complex: SimplicialComplex, cell: int) -> BarycentricFrame:
    coeff = _barycentric_coefficients(complex, [cell])[0]
    return BarycentricFrame(cell, coeff[1:].T.copy(), coeff[0].copy())


def locate_cell(complex: SimplicialComplex, x, tol: float = 1e-12):
    """Index of the first n-simplex containing x, or None."""
    coeff = _barycentric_coefficients(complex, slice(None))
    lam = coeff[:, 0, :] + np.asarray(x, dtype=float) @ coeff[:, 1:, :]
    inside = np.nonzero((lam >= -tol).all(axis=1))[0]
    return int(inside[0]) if len(inside) else None


def eval_whitney(complex: SimplicialComplex, k: int, simplex_id: int, x,
                 cell: int):
    """Whitney k-form of a k-simplex evaluated at x inside the given n-simplex.

    Scalar for k = 0 and k = n, vector-valued otherwise.  Zero if the simplex
    is not a face of the cell.  Raises if x lies outside the cell.
    """
    n = complex.dim
    if not 0 <= k <= n:
        raise DegreeError(f"degree k={k} out of range for n={n}")
    frame = barycentric_frame(complex, cell)
    if not frame.contains(x, tol=1e-9):
        raise ValueError("evaluation point outside the stated element")
    # positions of the k-simplex's vertices in the cell, if it is a face
    cell_verts = complex.simplices[n][cell].tolist()
    verts = complex.simplices[k][simplex_id].tolist()
    pos = ([cell_verts.index(v) for v in verts]
           if set(verts) <= set(cell_verts) else None)
    if k == 0:
        return float(frame.coords(x)[pos[0]]) if pos else 0.0
    if k == n:
        if pos is None:
            return 0.0
        return 1.0 / complex.measure(n, cell)
    if pos is None:
        return np.zeros(n)
    lam = frame.coords(x)
    g = frame.gradients
    if k == 1:
        i, j = pos
        return lam[i] * g[j] - lam[j] * g[i]
    if k == 2 and n == 3:
        i, j, l = pos
        return 2.0 * (
            lam[i] * np.cross(g[j], g[l])
            + lam[j] * np.cross(g[l], g[i])
            + lam[l] * np.cross(g[i], g[j])
        )
    raise DegreeError(f"unsupported (k, n) = ({k}, {n})")


@dataclass
class WhitneyField:
    """Piecewise interpolant of a primal k-cochain (the I_k map)."""

    complex: SimplicialComplex
    k: int
    weights: np.ndarray

    def __call__(self, x, cell: int | None = None):
        if cell is None:
            cell = locate_cell(self.complex, x)
            if cell is None:
                raise ValueError("point not inside any element")
        n = self.complex.dim
        scalar = self.k in (0, n)
        total = 0.0 if scalar else np.zeros(n)
        for sid in _cell_faces(self.complex, self.k, [cell])[0]:
            w = self.weights[sid]
            if w != 0.0:
                total = total + w * eval_whitney(self.complex, self.k, sid, x, cell)
        return total


def interpolate(complex: SimplicialComplex, k: int, cochain) -> WhitneyField:
    weights = np.asarray(cochain, dtype=float)
    if weights.shape != (len(complex.simplices[k]),):
        raise DegreeError(
            f"cochain has length {len(weights)}, expected "
            f"{len(complex.simplices[k])} for degree {k}"
        )
    return WhitneyField(complex, k, weights)


def _cell_faces(complex: SimplicialComplex, k: int, cells) -> np.ndarray:
    """Global ids of the k-faces of the given n-simplices, (C, C(n+1, k+1)),
    in the order of `itertools.combinations` of each cell's vertices.

    A face is reached by deleting the cell's other vertex positions through
    `face_indices`, largest position first so the rest keep their places.
    """
    n = complex.dim
    cells = np.asarray(cells)
    columns = []
    for local in itertools.combinations(range(n + 1), k + 1):
        ids = cells
        for level, m in enumerate(sorted(set(range(n + 1)) - set(local),
                                         reverse=True)):
            ids = complex.face_indices[n - 1 - level][ids, m]
        columns.append(ids)
    return np.stack(columns, axis=-1)


def _pair_table(n: int, k: int):
    """Fixed local index tables of the element Gram matrices for (n, k).

    For local k-faces I <= J (vertex positions in the cell) the entry is
    (k!)^2 sum_{p,q} (-1)^(p+q) int(lambda_I[p] lambda_J[q]) det G[I-p, J-q]
    with G the Gram matrix of the barycentric gradients and int(lambda_a
    lambda_b) = |T| (1 + [a = b]) / ((n+1)(n+2)).  Returns each minor's rows
    and columns and weight (-1)^(p+q) (1 + [I[p] = J[q]]), (k+1)^2 terms per
    pair of local face indices, and those pairs."""
    local = list(itertools.combinations(range(n + 1), k + 1))
    pairs = [(a, b) for a in range(len(local)) for b in range(a, len(local))]
    rows, cols, weights = [], [], []
    for a, b in pairs:
        I, J = local[a], local[b]
        for p in range(k + 1):
            for q in range(k + 1):
                rows.append(I[:p] + I[p + 1:])
                cols.append(J[:q] + J[q + 1:])
                weights.append((-1) ** (p + q) * (2.0 if I[p] == J[q] else 1.0))
    shape = (len(rows), k)
    return (np.array(rows, dtype=int).reshape(shape),
            np.array(cols, dtype=int).reshape(shape),
            np.array(weights), np.array(pairs))


def whitney_inner_product(complex: SimplicialComplex, k: int,
                          i: int, j: int) -> float:
    """Exact L2 inner product of the Whitney k-forms of simplices i and j."""
    return float(whitney_gram_matrix(complex, k)[i, j])


def whitney_gram_matrix(complex: SimplicialComplex, k: int):
    """Assemble the full Gram matrix of Whitney k-forms.

    The element matrices of all cells come from one batched kernel; each
    unordered pair of a cell's faces is scattered once into the upper
    triangle, which is then mirrored, so the matrix is exactly symmetric.
    """
    n = complex.dim
    if not 0 <= k <= n:
        raise DegreeError(f"degree k={k} out of range for n={n}")
    N = len(complex.simplices[k])
    cells = np.arange(len(complex.simplices[n]))
    # column j of grads[c] is the gradient of lambda_j on cell c
    grads = _barycentric_coefficients(complex, cells)[:, 1:, :]
    gram = np.swapaxes(grads, 1, 2) @ grads
    rows, cols, weights, pairs = _pair_table(n, k)
    dets = np.linalg.det(gram[:, rows[:, :, None], cols[:, None, :]])
    vals = (dets * weights).reshape(len(cells), len(pairs), -1).sum(axis=-1)
    vals *= (math.factorial(k) ** 2 / ((n + 1) * (n + 2))
             * complex.measures[n][:, None])
    faces = _cell_faces(complex, k, cells)
    fa, fb = faces[:, pairs[:, 0]].ravel(), faces[:, pairs[:, 1]].ravel()
    mat = sp.coo_matrix((vals.ravel(), (np.minimum(fa, fb), np.maximum(fa, fb))),
                        shape=(N, N)).tocsr()
    mat = (mat + sp.triu(mat, 1).T).tocsr()
    mat.eliminate_zeros()
    return mat
