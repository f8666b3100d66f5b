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

import numpy as np
import scipy.sparse as sp

from . import Error
from .mesh import SimplicialComplex, _det, check_degree


def _barycentric_coefficients(complex: SimplicialComplex, cells) -> np.ndarray:
    """(C, n+1, n+1) stack: column j of each holds (offset, gradient) of
    lambda_j on that cell, from one batched inverse."""
    pts = complex.vertices[complex.simplices[complex.dim][cells]]
    ones = np.ones(pts.shape[:-1] + (1,))
    return np.linalg.inv(np.concatenate([ones, pts], axis=-1))


LOCATE_CHUNK = 1 << 22  # barycentric coordinates per chunk of points


def locate_cell(complex: SimplicialComplex, pts) -> np.ndarray:
    """Index of the first n-simplex containing each point of a (q, n) batch,
    -1 for points outside every simplex.

    A point is inside when its barycentric coordinates are all >= -1e-12.
    The barycentric coefficients of all cells are formed once, and the
    points are tested in chunks of at most `LOCATE_CHUNK` coordinates
    (32 MB).
    """
    pts = np.asarray(pts, dtype=float)
    coeff = _barycentric_coefficients(complex, slice(None))
    C, n = len(coeff), complex.dim
    offsets = coeff[:, 0, :].T  # (n+1, C), row j for lambda_j
    grads = coeff[:, 1:, :].transpose(1, 2, 0).reshape(n, -1)
    found = np.full(len(pts), -1)
    step = max(1, LOCATE_CHUNK // (C * (n + 1)))
    for s in range(0, len(pts), step):
        lam = offsets + (pts[s:s + step] @ grads).reshape(-1, n + 1, C)
        inside = lam.min(axis=1) >= -1e-12
        found[s:s + step] = np.where(inside.any(axis=1),
                                     inside.argmax(axis=1), -1)
    return found


def _whitney_values(complex: SimplicialComplex, k: int, cells, pts):
    """Whitney k-forms of all k-faces of each point's n-simplex, evaluated
    at a (q, n) batch of points: (q, F) for k = 0 and k = n, (q, F, n)
    otherwise, with the faces in `_cell_faces` order.
    """
    n = complex.dim
    coeff = _barycentric_coefficients(complex, cells)
    g = np.swapaxes(coeff[:, 1:, :], 1, 2).copy()  # g[:, j] is grad lambda_j
    lam = coeff[:, 0, :] + (g @ pts[..., None])[..., 0]
    if k == 0:
        return lam
    if k == n:
        return (1.0 / complex.measures[n][cells])[:, None]
    pos = np.array(list(itertools.combinations(range(n + 1), k + 1))).T
    if k == 1:
        i, j = pos
        return lam[:, i, None] * g[:, j] - lam[:, j, None] * g[:, i]
    i, j, l = pos  # k = 2, n = 3: the one case left
    return 2.0 * (lam[:, i, None] * np.cross(g[:, j], g[:, l])
                  + lam[:, j, None] * np.cross(g[:, l], g[:, i])
                  + lam[:, l, None] * np.cross(g[:, i], g[:, j]))


def interpolate(complex: SimplicialComplex, k: int, cochain):
    """Piecewise interpolant of a primal k-cochain (the I_k map): a field of
    one point or a (q, n) batch, evaluated in the n-simplex that
    `locate_cell` finds for each point; NaN at points outside the mesh.
    Faces of weight 0 are skipped."""
    check_degree(complex, k)
    weights = np.asarray(cochain, dtype=float)
    if weights.shape != (len(complex.simplices[k]),):
        raise Error(f"cochain has length {len(weights)}, expected "
                    f"{len(complex.simplices[k])} for degree {k}")
    n = complex.dim

    def field(x):
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        cells = locate_cell(complex, pts)
        out = np.full((len(pts),) + ((n,) if 0 < k < n else ()), np.nan)
        ok = np.nonzero(cells >= 0)[0]
        if len(ok):
            vals = _whitney_values(complex, k, cells[ok], pts[ok])
            w = weights[_cell_faces(complex, k, cells[ok])]
            w = w.reshape(w.shape + (1,) * (out.ndim - 1))
            total = np.zeros(out[ok].shape)
            for wf, vf in zip(np.swapaxes(w, 0, 1), np.swapaxes(vals, 0, 1)):
                np.add(total, wf * vf, out=total, where=wf != 0)
            out[ok] = total
        return out[0] if x.ndim == 1 else out

    return field


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
    lambda_b) = |T| (1 + [a = b]) / ((n+1)(n+2)).  Returns, per term, the
    positions of I-p and J-q among the k-subsets of local vertices in
    `itertools.combinations` order and the weight (-1)^(p+q)
    (1 + [I[p] = J[q]]), (k+1)^2 terms per pair of local face indices, and
    those pairs."""
    local = list(itertools.combinations(range(n + 1), k + 1))
    subsets = {s: i for i, s in
               enumerate(itertools.combinations(range(n + 1), k))}
    pairs = [(a, b) for a in range(len(local)) for b in range(a, len(local))]
    rows, cols, weights = [], [], []
    for a, b in pairs:
        I, J = local[a], local[b]
        for p in range(k + 1):
            for q in range(k + 1):
                rows.append(subsets[I[:p] + I[p + 1:]])
                cols.append(subsets[J[:q] + J[q + 1:]])
                weights.append((-1) ** (p + q) * (2.0 if I[p] == J[q] else 1.0))
    return np.array(rows), np.array(cols), np.array(weights), np.array(pairs)


def whitney_gram_matrix(complex: SimplicialComplex, k: int):
    """Assemble the full Gram matrix of Whitney k-forms.

    The element matrices of all cells come from one batched kernel; each
    unordered pair of a cell's faces is scattered once into the upper
    triangle, which is then mirrored, so the matrix is exactly symmetric.
    """
    check_degree(complex, k)
    n = complex.dim
    N = len(complex.simplices[k])
    cells = np.arange(len(complex.simplices[n]))
    # column j of grads[c] is the gradient of lambda_j on cell c
    grads = _barycentric_coefficients(complex, cells)[:, 1:, :]
    # Cauchy-Binet: a k x k minor of the gradient Gram matrix is the sum over
    # k-sets of axes of products of k x k minors of the gradients, which
    # keep their accuracy on slivers where the Gram matrix squares the
    # conditioning.  minors[c, s, m]: axes s, local vertex subset m.
    axes = np.array(list(itertools.combinations(range(n), k)), dtype=int)
    subsets = np.array(list(itertools.combinations(range(n + 1), k)),
                       dtype=int)
    minors = _det(grads[:, axes[:, None, :, None], subsets[None, :, None, :]])
    rows, cols, weights, pairs = _pair_table(n, k)
    dets = np.einsum("csr,csr->cr", minors[:, :, rows], minors[:, :, cols])
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
