"""Barycentric coordinates and lowest-order Whitney k-forms on the primal mesh.

Forms are attached to sorted vertex tuples, matching the incidence-matrix
orientation convention.  Inner products of Whitney forms are evaluated in
closed form: barycentric gradients are constant per element and the pair
integrals of barycentric coordinates have an exact formula, so no quadrature
is involved in assembly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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


def barycentric_frame(complex: SimplicialComplex, cell: int) -> BarycentricFrame:
    n = complex.dim
    pts = complex.simplex_points(n, cell)
    A = np.column_stack([np.ones(n + 1), pts])
    coeff = np.linalg.inv(A)  # column j holds (offset, gradient) of lambda_j
    return BarycentricFrame(cell, coeff[1:].T.copy(), coeff[0].copy())


def locate_cell(complex: SimplicialComplex, x, tol: float = 1e-12):
    """Index of an n-simplex containing x, or None.  Linear scan."""
    for cell in range(len(complex.simplices[complex.dim])):
        if barycentric_frame(complex, cell).contains(x, tol):
            return cell
    return None


def _local_positions(complex: SimplicialComplex, k: int, simplex_id: int, cell: int):
    """Positions of the k-simplex's vertices within the cell tuple, or None."""
    cell_verts = complex.simplices[complex.dim][cell].tolist()
    pos = []
    for v in complex.simplices[k][simplex_id]:
        if v not in cell_verts:
            return None
        pos.append(cell_verts.index(v))
    return pos


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
    pos = _local_positions(complex, k, simplex_id, cell)
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
        for sid in _faces_of_cell(self.complex, self.k, cell):
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


def _faces_of_cell(complex: SimplicialComplex, k: int, cell: int):
    """Global indices of the k-faces of an n-simplex."""
    n = complex.dim
    verts = complex.simplices[n][cell].tolist()
    return [
        complex.index[k][combo]
        for combo in itertools.combinations(verts, k + 1)
    ]


def _local_pair_integral(grads: np.ndarray, measure: float, n: int,
                         I: tuple, J: tuple) -> float:
    """Integral over one element of W_I . W_J for local vertex tuples I, J."""
    k = len(I) - 1
    gram = grads @ grads.T
    coef = float(math.factorial(k)) ** 2
    total = 0.0
    for p in range(k + 1):
        Ip = I[:p] + I[p + 1:]
        for q in range(k + 1):
            Jq = J[:q] + J[q + 1:]
            if k == 0:
                det = 1.0
            else:
                det = np.linalg.det(gram[np.ix_(Ip, Jq)])
            lam_int = measure * (2.0 if I[p] == J[q] else 1.0) / ((n + 1) * (n + 2))
            total += (-1.0) ** (p + q) * lam_int * det
    return coef * total


def whitney_inner_product(complex: SimplicialComplex, k: int,
                          i: int, j: int) -> float:
    """Exact L2 inner product of the Whitney k-forms of simplices i and j."""
    n = complex.dim
    cells_i = _supporting_cells(complex, k, i)
    cells_j = _supporting_cells(complex, k, j)
    total = 0.0
    for cell in sorted(cells_i & cells_j):
        frame = barycentric_frame(complex, cell)
        I = tuple(_local_positions(complex, k, i, cell))
        J = tuple(_local_positions(complex, k, j, cell))
        total += _local_pair_integral(
            frame.gradients, complex.measure(n, cell), n, I, J
        )
    return total


def _supporting_cells(complex: SimplicialComplex, k: int, simplex_id: int) -> set:
    n = complex.dim
    if k == n:
        return {simplex_id}
    ids = {simplex_id}
    for kk in range(k, n):
        next_ids = set()
        for s in ids:
            next_ids.update(complex.cofaces(kk, s).tolist())
        ids = next_ids
    return ids


def whitney_gram_matrix(complex: SimplicialComplex, k: int):
    """Assemble the full Gram matrix of Whitney k-forms (element loop)."""
    import scipy.sparse as sp

    n = complex.dim
    if not 0 <= k <= n:
        raise DegreeError(f"degree k={k} out of range for n={n}")
    N = len(complex.simplices[k])
    mat = sp.lil_matrix((N, N))
    for cell in range(len(complex.simplices[n])):
        frame = barycentric_frame(complex, cell)
        meas = complex.measure(n, cell)
        faces = _faces_of_cell(complex, k, cell)
        locals_ = list(itertools.combinations(range(n + 1), k + 1))
        for (fi, I), (fj, J) in itertools.combinations_with_replacement(
            zip(faces, locals_), 2
        ):
            val = _local_pair_integral(frame.gradients, meas, n, I, J)
            mat[fi, fj] += val
            if fi != fj:
                mat[fj, fi] += val
    return mat.tocsr()
