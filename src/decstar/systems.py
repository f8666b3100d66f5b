"""Mixed saddle-point systems and wave eigensystems on primal/dual cochains.

Each physical problem (magnetostatics, Darcy flow) admits four equivalent
mixed formulations, two discretizing the flux-like variable on the primal
mesh and two on the dual mesh.  The eight formulations are rows of one
table, from which `_assemble_formulation` builds each saddle system: a row
names its layout (primal-first or dual-first), the degree of its Hodge pair,
the sign of its Hodge block, the space its load lives on (and so the
derivative a load is lifted through) and how its physical cochains are
recovered.

All systems are symmetric 2x2 block systems with sparse blocks, and they
are solved sparse.  A Hodge block c H whose inverse G, the other side of its
Hodge pair, is a sparse matrix is eliminated: what remains is the sparse
second-order operator B^T G B of the formulation equivalences (Benzi, Golub
& Liesen, Acta Numerica 2005).  That is every diagonal star, and every
inverse block G^{-1} that `hodge.hodge_pair` keeps as a `FactorizedInverse`.
Any other Hodge block is factored together with the whole block system.
Particular solutions come from one sparse LU of a square block of the
load derivative L = D_j or D_j^T, on rows and columns read off `_gauge`'s
forests (`_LoadBlock`, the tree-cotree lift, by `_pins`); Darcy 2 and 4
lift their load through L and recover the pressure through L^T from the
same LU, whose every solve checks its own residual.  A flux with a part
that no pressure produces, which a hole or a cavity of the mesh carries,
fails that recovery: the `Error` `NO_PRESSURE`.  Loads need no LU: a
default load is L applied to a seeded vector, and `_Formulation.check_load`
rejects a given one that ker L^T does not annihilate, once per run, before
any Hodge star is built.  A Darcy pressure is fixed up to ker L^T: trivial
for Darcy 1-2, the constants on each component for Darcy 3-4, whose
pressures are reported mean-free.  So every Darcy pressure is minimum-norm,
and no recovered cochain depends on the gauge or the particular solution.

Every factorization in the package is one sparse LU in SuperLU's
symmetric mode, `_symmetric_lu`, and an exactly singular matrix is one
`Error` naming it: "saddle system is singular: ...", "load block of D_<j>
is singular: ...", "wave shifted system is singular: ..." or "<kind> Hodge
star of degree <k> is singular: ...".  A star's one LU, made by its first
solve (`FactorizedInverse`), certifies it positive definite, as a wave
mass's own LU does.  A load block that is not square, on a mesh with a
hole or a cavity, is an `Error` too.

Every kernel, of a derivative block in either layout, of a load derivative
or of a wave pencil, comes from one rule, `_gauge`: a sparse basis and the
dofs that pin it, read off a spanning forest of the vertex graph (edges
join vertices; each component is rooted at its first vertex) or of the cell
graph (faces join top cells, and boundary faces the exterior, its one
root).  On a mesh without holes or cavities ker D_0 is the constants on
each component, pinned at its root; ker D_1 = range(D_0) is spanned by D_0
less its root columns, pinned on the forest's edges (Albanese & Rubinacci
1988); ker D_{n-2}^T = range(D_{n-1}^T) by D_{n-1}^T, pinned on the tree's
faces (Manges & Cendes 1995); and ker D_{n-1}^T is trivial.

A wave pencil (C^T H C, M) keeps its Hodge factors as assembled.  Its
gradient-type kernel range(Z) is reported as exact zeros, and the physical
eigenvalues past it come from shift-invert Lanczos, whose solves are one
sparse LU of a block system with an extra unknown per inverse factor.  Only
requests too small or too full for ARPACK densify the pencil, for LAPACK.

Throughout the package, scipy.linalg, scipy.io, scipy.sparse.linalg and
scipy.sparse.csgraph are imported inside the functions that use them: they
add to the start of every CLI command, and most commands use none of them.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from . import Error
from .mesh import SimplicialComplex


@dataclass
class Gauge:
    """The kernel of a derivative from `_gauge`: a sparse basis Z of it
    (columns), the dofs that pin it and how `solve` reports each strategy;
    [[G, Z], [Z^T, 0]] is nonsingular for symmetric G with ker G = range(Z)."""

    kernel: sp.csr_matrix
    labels: dict  # strategy -> report
    pins: Callable[[], np.ndarray]  # found on demand


@dataclass
class MixedSystem:
    """The symmetric saddle-point system [[c H, B], [B^T, 0]] [u; w] = [f; g]
    of one formulation, with its recovery rule.

    The recovery callable maps the solved unknowns (u, w) to the physical
    pair of cochains the formulation approximates.
    """

    name: str
    H: object  # Hodge matrix M_d or M_d^{-1}: sparse, or a FactorizedInverse
    G: sp.csr_matrix | None  # H^{-1}, the pair's other side, if it is sparse
    c: float  # -sign of the formulation's row, +1 or -1
    B: sp.csr_matrix  # derivative block
    f: np.ndarray
    g: np.ndarray
    recover: Callable  # (u, w) -> dict of named physical cochains
    gauge: Gauge | None  # kernel of B, None when it is trivial


@dataclass
class SolveReport:
    system: str
    u: np.ndarray
    w: np.ndarray
    recovered: dict
    residual: float
    gauge_applied: str | None
    seconds: float


@dataclass
class WaveSystem:
    """The pencil (K, M) of one wave formulation, K = C^T H C, with the
    Hodge factors H and M as assembled: each a sparse matrix or a
    `FactorizedInverse`.  `kernel` is a basis Z (full column rank) of the
    pencil's gradient-type kernel range(Z), or None when it has none, and
    `shift` the Lanczos shift sigma = -1 / diam^2 for the diagonal diam of
    the mesh's bounding box: omega^2 scales as sigma does."""

    formulation: str  # "primal" | "dual"
    derivative: sp.csr_matrix  # C
    hodge: object  # H
    mass: object  # M
    kernel: sp.csr_matrix | None  # Z
    shift: float  # sigma

    @property
    def stiffness(self):
        """K = C^T H C as a `LinearOperator`, never formed."""
        from scipy.sparse.linalg import LinearOperator

        C, H = self.derivative, self.hodge
        n = C.shape[1]

        def product(X):
            return C.T @ (H @ (C @ X))

        return LinearOperator((n, n), matvec=product, matmat=product,
                              dtype=float)

    @property
    def nullity(self) -> int:
        return 0 if self.kernel is None else self.kernel.shape[1]

    def eigenpairs(self, count: int | None = None) -> np.ndarray:
        """Generalized eigenvalues omega^2, ascending; the `count` smallest
        when given.  No eigenvectors are computed.

        The kernel range(Z) is reported as `nullity` exact zeros, and the
        physical values past it are the lowest of the pencil deflated by the
        M-orthogonal projector P = I - Z (Z^T M Z)^{-1} Z^T M.  They come
        from shift-invert Lanczos (ARPACK, Lehoucq, Sorensen & Yang 1998)
        at `shift`, with P applied after each solve with K - sigma M
        (applying P to ARPACK's input as well gives wrong values).  A
        request ARPACK cannot serve, max(2k + 1, 20) >= n - nullity Lanczos
        vectors for k physical values, is solved by LAPACK `eigh` on the
        dense pencil; that includes every value (`count` None).  Either way
        the mass's own LU first certifies it positive definite.
        """
        n = self.mass.shape[0]
        if count is not None and count < 1:
            raise Error(f"eigenpair count must be at least 1, got {count}")
        if count is not None and count > n:
            raise Error(f"eigenpair count must be at most {n}, got {count}")
        count = n if count is None else count
        M = self.mass
        (M if isinstance(M, FactorizedInverse)
         else FactorizedInverse(M, "wave mass matrix")).lu
        zeros = np.zeros(min(count, self.nullity))
        k = count - len(zeros)
        if k == 0:
            return zeros
        if max(2 * k + 1, 20) >= n - self.nullity:
            vals = self._dense_eigenvalues(k)
        else:
            vals = self._lanczos_eigenvalues(k)
        return np.sort(np.concatenate([zeros, vals]))

    def _dense_eigenvalues(self, k: int) -> np.ndarray:
        """The k lowest values past the kernel, by LAPACK `eigh` on the
        dense pencil; doubling both operands to symmetrize them leaves the
        values unchanged."""
        import scipy.linalg

        n = self.mass.shape[0]
        K, M = (X @ np.eye(n) for X in (self.stiffness, self.mass))
        try:
            return scipy.linalg.eigh(
                K + K.T, M + M.T, eigvals_only=True,
                subset_by_index=[self.nullity, self.nullity + k - 1])
        except scipy.linalg.LinAlgError as exc:
            raise Error("wave mass matrix is not positive definite") from exc

    def _lanczos_eigenvalues(self, k: int) -> np.ndarray:
        """The k lowest values past the kernel, by shift-invert Lanczos.

        Each solve with K - sigma M is one sparse LU of a block system in
        which every inverse factor is an extra unknown: H = G^{-1} adds
        s with G s = C y, and M = F^{-1} adds t with F t = y, so that

            [[C^T H C - sigma M,  C^T,  -sigma I],   [y]   [b]
             [C,                  -G,          0], . [s] = [0]
             [-sigma I,            0,    sigma F]]   [t]   [0]

        keeps only the terms of the factors present and is symmetric.
        """
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

        C, H, M, sigma = self.derivative, self.hodge, self.mass, self.shift
        n = C.shape[1]
        A, borders = sp.csr_matrix((n, n)), []
        if isinstance(H, FactorizedInverse):
            borders.append((C.T, -H.G))
        else:
            A = A + C.T @ H @ C
        if isinstance(M, FactorizedInverse):
            borders.append((-sigma * sp.identity(n), sigma * M.G))
        else:
            A = A - sigma * M
        lu = _symmetric_lu(_bordered(A, borders), "wave shifted system")
        project = self._kernel_projector()
        pad = np.zeros(lu.shape[0] - n)

        def operator(matvec):
            return LinearOperator((n, n), matvec=matvec, dtype=float)

        def solve(b):
            return project(lu.solve(np.concatenate([b, pad]))[:n])

        # ARPACK's convergence floor is absolute: (K, s M) has Ritz values ~1
        scale = _binary_order(sigma)
        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            return scale * eigsh(
                self.stiffness, k, operator(lambda x: scale * (M @ x)),
                sigma=sigma / scale, OPinv=operator(solve), v0=v0, rng=0,
                return_eigenvectors=False)
        except ArpackError as exc:
            raise Error(f"wave eigensolve failed: {exc}") from exc

    def _kernel_projector(self) -> Callable:
        """x -> P x, P = I - Z (Z^T M Z)^{-1} Z^T M.  Z^T M Z is factored
        when M is sparse; for M = F^{-1} the bordered system
        [[F, Z], [Z^T, 0]] [w; c] = [x; 0] gives c = (Z^T M Z)^{-1} Z^T M x
        in one solve."""
        Z, M = self.kernel, self.mass
        if Z is None:
            return lambda x: x
        if isinstance(M, FactorizedInverse):
            n = Z.shape[0]
            lu = _symmetric_lu(_bordered(M.G, [(Z, None)]), "wave mass")
            pad = np.zeros(Z.shape[1])
            return lambda x: x - Z @ lu.solve(np.concatenate([x, pad]))[n:]
        ZM = (Z.T @ M).tocsr()
        lu = _symmetric_lu(ZM @ Z, "wave kernel mass")
        return lambda x: x - Z @ lu.solve(ZM @ x)


def _bordered(A, borders) -> sp.csc_matrix:
    """The symmetric block matrix with A in the corner, each border B_i
    beside and below it, and E_i (None: zero) on the diagonal past it:
    [[A, B_1, B_2], [B_1^T, E_1, 0], [B_2^T, 0, E_2]] for two borders."""
    rows = [[A, *(B for B, _ in borders)]]
    for i, (B, E) in enumerate(borders):
        rows.append([B.T, *(E if j == i else None
                            for j in range(len(borders)))])
    return sp.bmat(rows, format="csc")


def _symmetric_lu(A, what: str, ordering: str | None = None,
                  diag_pivot_thresh: float = 1e-3):
    """Sparse LU of a square matrix in SuperLU's symmetric mode: one
    `ordering` for rows and columns, and diagonal pivots while they are at
    least `diag_pivot_thresh` of their column.  It is the package's one
    factorization, of symmetric matrices and of `_LoadBlock`'s
    nonsymmetric one; an exactly singular A is the `Error` "`what` is
    singular: ..." with SuperLU's reason.

    By default the ordering is the minimum degree of A + A^T when A has no
    zero on its diagonal, so that its pivots can stay there, and COLAMD
    otherwise: on the grid:32 dual-inverse primal wave system, whose first
    diagonal block is zero, minimum degree had 15 times the fill of COLAMD
    and took 200 times as long."""
    from scipy.sparse.linalg import splu

    A = sp.csc_matrix(A)
    if ordering is None:
        ordering = "MMD_AT_PLUS_A" if A.diagonal().all() else "COLAMD"
    try:
        return splu(A, permc_spec=ordering,
                    diag_pivot_thresh=diag_pivot_thresh,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise Error(f"{what} is singular: {exc}") from exc


class FactorizedInverse:
    """G^{-1}, the inverse side of a Hodge pair with a sparse symmetric G,
    applied to arrays (`self @ x`) by solves with one LU of G, `lu`, made on
    first use.  Its pivots are diagonal, so by Sylvester's law of inertia
    they are all positive exactly when G is positive definite: any other G
    is the `Error` "`what` is not positive definite", or `_symmetric_lu`'s
    "`what` is singular: ...".  `nnz` is the fill of the factors."""

    def __init__(self, G, what: str):
        self.G, self.what = sp.csc_matrix(G), what
        self.shape = self.G.shape

    @functools.cached_property
    def lu(self):
        lu = _symmetric_lu(self.G, self.what, diag_pivot_thresh=0.0)
        if (lu.perm_r != lu.perm_c).any() or (lu.U.diagonal() <= 0).any():
            raise Error(f"{self.what} is not positive definite")
        return lu

    @property
    def nnz(self) -> int:
        return int(self.lu.L.nnz + self.lu.U.nnz)

    def __matmul__(self, x):
        return self.lu.solve(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# helpers


# compatible loads leave a residual of at most this share of |rhs|
LOAD_RESIDUAL_TOL = 1e-10
OUT_OF_RANGE = "load is not in the range of the derivative"


def _check_residual(residual: float, rhs, what: str = OUT_OF_RANGE) -> None:
    """The `Error` "`what` (residual ...)" when the absolute `residual` of a
    solve or a range check exceeds `LOAD_RESIDUAL_TOL` of |rhs|."""
    if residual > LOAD_RESIDUAL_TOL * np.linalg.norm(rhs):
        raise Error(f"{what} (residual {residual:.3e})")


class _LoadBlock:
    """One sparse LU for particular solutions of L x = b (`solve`) and of
    L^T y = c (`solve_transpose`), L = D_j or (`transposed`) D_j^T, each
    checking its own residual: a right-hand side off the range is an `Error`,
    `OUT_OF_RANGE` unless `solve_transpose` names another.

    The LU is of a square block K of D_j, on rows and columns read off
    `_gauge`'s forests (`_pins`): for j = 0 the vertex forest's edges and
    the non-root vertices; for j = n - 1 every top cell and the cell forest's
    faces; for j = 1 in 3D the faces off the cell forest and the edges off
    the vertex forest (Le Menach, Clenet & Piriou, IEEE Trans. Magn. 1998).
    On a mesh without holes or cavities K is nonsingular, and a forest's K
    factors with no fill.  The solutions are zero off K; any serves, since
    two differ by an element of ker L = range(B), which the multiplier
    absorbs.
    """

    def __init__(self, complex: SimplicialComplex, j: int, transposed: bool):
        n, self.transposed = complex.dim, transposed
        self.D = complex.incidence_matrix(j)

        def free(size, pins):  # the dofs that `pins` leaves
            return np.delete(np.arange(size), pins)

        self.rows = (_pins(complex, 1) if j == 0
                     else free(self.D.shape[0], _pins(complex, j, True)))
        self.cols = (_pins(complex, n - 2, True) if j == n - 1
                     else free(self.D.shape[1], _pins(complex, j)))
        K, what = self.D[self.rows][:, self.cols], f"load block of D_{j}"
        if K.shape[0] != K.shape[1]:
            raise Error(f"{what} is {K.shape[0]} x {K.shape[1]}, not square: "
                        f"the mesh has a hole or a cavity")
        self.lu = _symmetric_lu(K, what, "COLAMD")

    def _through(self, rhs, transposed: bool, what: str):
        rhs = np.asarray(rhs, dtype=float)
        if transposed:  # D_j^T x = rhs
            x = np.zeros(self.D.shape[0])
            x[self.rows] = self.lu.solve(rhs[self.cols], trans="T")
            image = self.D.T @ x
        else:  # D_j x = rhs
            x = np.zeros(self.D.shape[1])
            x[self.cols] = self.lu.solve(rhs[self.rows])
            image = self.D @ x
        _check_residual(np.linalg.norm(image - rhs), rhs, what)
        return x

    def solve(self, rhs):
        """A solution x of L x = rhs."""
        return self._through(rhs, self.transposed, OUT_OF_RANGE)

    def solve_transpose(self, rhs, what: str = OUT_OF_RANGE):
        """A solution y of L^T y = rhs; the `Error` `what` if there is
        none."""
        return self._through(rhs, not self.transposed, what)


def _gauge(complex: SimplicialComplex, j: int,
           transposed: bool = False) -> Gauge | None:
    """The kernel of D_j (transposed: of D_j^T) by the module's one rule,
    on the vertex graph or (transposed) the cell graph; None if trivial."""
    n = complex.dim
    if (n - 1 - j if transposed else j) not in (0, 1):
        raise Error(f"no gauge rule for D_{j}" + "^T" * transposed)
    if transposed and j == n - 1:
        return None
    if transposed:  # one component, rooted at the exterior: no column
        A, roots, links, columns = (complex.incidence_matrix(n - 1).T, [],
                                    "faces", "cell boundaries")
    else:
        labels = complex.vertex_components
        roots = _pins(complex, 0)
        if j == 0:
            Z = sp.identity(len(roots), format="csr")[labels]
            return Gauge(Z, {"pin": "pin dof " + ", ".join(map(str, roots)),
                             "augment": "mean-zero augmentation"},
                         lambda: roots)
        A, links, columns = complex.incidence_matrix(0), "edges", "gradients"
    A = A.tocsc()
    Z = A[:, np.delete(np.arange(A.shape[1]), roots)].tocsr()
    m = Z.shape[1]
    return Gauge(Z, {"pin": f"pin tree of {m} {links}",
                     "augment": f"augmentation by {m} {columns}"},
                 lambda: _pins(complex, j, transposed))


def _pins(complex: SimplicialComplex, j: int,
          transposed: bool = False) -> np.ndarray:
    """The dofs, ascending, that pin the kernel of D_j (transposed: of
    D_j^T) by `_gauge`'s rule: for D_0 each vertex component's root, its
    first vertex; for D_1 the vertex forest's edges; for D_{n-2}^T the cell
    forest's faces; none for D_{n-1}^T, whose kernel is trivial."""
    n = complex.dim
    if transposed:
        if j == n - 1:
            return np.empty(0, dtype=int)
        return _spanning_forest(complex.incidence_matrix(n - 1).T)
    if j == 0:
        return np.unique(complex.vertex_components, return_index=True)[1]
    return _spanning_forest(complex.incidence_matrix(0))


def _spanning_forest(A) -> np.ndarray:
    """The links (rows) of the spanning forest with the lowest ids of the
    graph with incidence A, ascending.  A link with one end joins it to an
    extra root node; of parallel links only the lowest counts."""
    from scipy.sparse.csgraph import minimum_spanning_tree

    A = sp.csr_matrix(A)
    ends = np.array([np.minimum.reduceat(A.indices, A.indptr[:-1]),
                     np.maximum.reduceat(A.indices, A.indptr[:-1])])
    ends[1, np.diff(A.indptr) == 1] = A.shape[1]
    # the first link of each (lower end, upper end) pair, in pair order
    ids = np.unique(ends[0] * (A.shape[1] + 1) + ends[1],
                    return_index=True)[1]
    weights = sp.coo_matrix((ids + 1.0, tuple(ends[:, ids])),
                            shape=(A.shape[1] + 1,) * 2)
    return np.sort(minimum_spanning_tree(weights).data.astype(int) - 1)


# ---------------------------------------------------------------------------
# the eight formulations


class _Formulation(NamedTuple):
    """One mixed formulation: a row of `_FORMULATIONS`.

    The Hodge pair has degree d = range(n + 1)[degree], so -2 stands for
    n - 1.  A primal-first layout has u on the primal d-simplices, Hodge
    block -sign M_d and B = D_d^T, so it constrains D_d u on the
    (d+1)-simplices.  A dual-first one has u on the dual cells of the
    d-simplices, Hodge block -sign M_d^{-1} and B = D_{d-1}, so it
    constrains D_{d-1}^T u on the (d-1)-simplices.  The load lives on the
    (d+1)-simplices in the range of D_d (load "up") or on the
    (d-1)-simplices in the range of D_{d-1}^T (load "down").  On the side
    the layout constrains it is the second right-hand side g; otherwise it
    is lifted through that derivative to a particular solution x0, and
    -sign x0 is the first, f.
    """

    orientation: str
    degree: int
    sign: float
    load: str
    recover: Callable  # (u, w, parts) -> dict of named physical cochains

    def hodge_degree(self, n: int) -> int:
        return range(n + 1)[self.degree]

    def load_degree(self, n: int) -> int:
        """j of the load derivative, D_j (load "up") or D_j^T (load "down")."""
        return self.hodge_degree(n) - (self.load == "down")

    def load_derivative(self, complex: SimplicialComplex):
        """The derivative whose range holds this formulation's load."""
        D = complex.incidence_matrix(self.load_degree(complex.dim))
        return D if self.load == "up" else D.T

    def load_cokernel(self, complex: SimplicialComplex) -> Gauge | None:
        """ker L^T for L = `load_derivative`: loads are orthogonal to it and
        Darcy pressures free in it."""
        return _gauge(complex, self.load_degree(complex.dim),
                      self.load == "up")

    def check_load(self, complex: SimplicialComplex, load) -> None:
        """Rejects a load off the range of `load_derivative`, which the
        `load_cokernel` basis Z does not annihilate, for every formulation of
        the pair.  The residual |diag(Z^T Z)^{-1/2} Z^T load| is the norm of
        its part in ker L^T when Z's columns are orthogonal."""
        cokernel = self.load_cokernel(complex)
        if cokernel is not None:
            Z = cokernel.kernel
            norms = np.sqrt(np.ravel(Z.multiply(Z).sum(axis=0)))
            _check_residual(np.linalg.norm(Z.T @ load / norms), load)

    def default_load(self, complex: SimplicialComplex, seed: int):
        """L applied to a seeded vector, L = `load_derivative`: in range(L)
        by construction, so every formulation of the pair accepts it."""
        L = self.load_derivative(complex)
        return L @ np.random.default_rng(seed).standard_normal(L.shape[1])


# a Darcy 2 or 4 flux off range(L^T): it has a harmonic part, which a loop
# or a cavity of the mesh carries
NO_PRESSURE = ("Darcy pressure recovery failed: the flux has a part that no "
               "pressure produces; the mesh likely has a hole or a cavity")


def _mean_free(p, labels):
    """p less its mean on each component of `labels`, or p if None: a Darcy
    pressure less its part in ker L^T, trivial for Darcy 1-2's cell ones."""
    return p if labels is None else p - (
        np.bincount(labels, p) / np.bincount(labels))[labels]


def _flux_and_pressure(u, w, parts):
    p = parts.block.solve_transpose(-u, NO_PRESSURE)
    return {"f": parts.H @ u, "p": _mean_free(p, parts.components)}


def _flux_and_multiplier(u, w, parts):
    return {"f": u, "p": _mean_free(w, parts.components)}


_FORMULATIONS = {
    ("magnetostatics", 1): _Formulation(
        "primal-first", -2, 1.0, "down",
        lambda u, w, parts: {"b": u, "h": parts.x0 + parts.B @ w}),
    ("magnetostatics", 2): _Formulation(
        "dual-first", -2, 1.0, "down",
        lambda u, w, parts: {"b": parts.B @ w, "h": u}),
    ("magnetostatics", 3): _Formulation(
        "dual-first", 1, 1.0, "up",
        lambda u, w, parts: {"b": u, "h": parts.H @ u}),
    ("magnetostatics", 4): _Formulation(
        "primal-first", 1, 1.0, "up",
        lambda u, w, parts: {"b": parts.B @ w, "h": u}),
    ("darcy", 1): _Formulation("primal-first", -2, -1.0, "up",
                               _flux_and_multiplier),
    ("darcy", 2): _Formulation("dual-first", -2, 1.0, "up", _flux_and_pressure),
    ("darcy", 3): _Formulation("dual-first", 1, -1.0, "down",
                               _flux_and_multiplier),
    ("darcy", 4): _Formulation("primal-first", 1, -1.0, "down",
                               _flux_and_pressure),
}


def _formulation(problem: str, system: int) -> _Formulation:
    if (problem, system) not in _FORMULATIONS:
        raise Error(f"{problem} system id must be 1-4, got {system}")
    return _FORMULATIONS[problem, system]


def _assemble_formulation(problem: str, complex: SimplicialComplex,
                          system: int, load, M, M_inv) -> MixedSystem:
    row = _formulation(problem, system)
    name = f"{problem}-{system}"
    d = row.hodge_degree(complex.dim)
    primal = row.orientation == "primal-first"
    L = row.load_derivative(complex)
    load = np.asarray(load, dtype=float)
    if load.shape != (L.shape[0],):
        raise Error(f"{name}: load has length {len(load)}, expected "
                    f"{L.shape[0]}")
    # B = D_d^T or D_{d-1}, and G = H^{-1}, kept when it is sparse
    H, G, j = (M, M_inv, d) if primal else (M_inv, M, d - 1)
    B = (complex.incidence_matrix(j).T if primal
         else complex.incidence_matrix(j)).tocsr()
    if H.shape[0] != B.shape[0]:
        raise Error(f"block dimension mismatch: Hodge block {H.shape} vs "
                    f"derivative block {B.shape}")
    f, g, x0, block = np.zeros(B.shape[0]), load, None, None
    k, down = row.load_degree(complex.dim), row.load == "down"
    if primal == down:  # the layout leaves the load's space free
        # one LU lifts the load and recovers the Darcy pressure
        block = _LoadBlock(complex, k, down)
        x0 = block.solve(load)
        f, g = -row.sign * x0, np.zeros(B.shape[1])
    parts = SimpleNamespace(B=B, H=H, x0=x0, block=block, components=(
        complex.vertex_components if down and k == 0 else None))  # L = D_0^T
    return MixedSystem(name, H, G if sp.issparse(G) else None, -row.sign, B,
                       f, g, lambda u, w: row.recover(u, w, parts),
                       _gauge(complex, j, primal))


def assemble_magnetostatics(complex: SimplicialComplex, system: int, j,
                            M, M_inv) -> MixedSystem:
    """The four magnetostatics formulations, dimension-generic.

    Systems 1-2 discretize the flux b as a primal (n-1)-cochain and the
    field h as a dual 1-cochain (indexed by primal (n-1)-simplices); systems
    3-4 swap the roles.  M / M_inv are the Hodge matrices pairing those
    spaces, which must be exact inverses of each other for the formulation
    equivalences to hold.

    Loads: systems 1-2 take the current as a dual cochain indexed by primal
    (n-2)-simplices; systems 3-4 take it as a primal 2-cochain (the field h
    is a primal 1-cochain in every dimension).
    """
    return _assemble_formulation("magnetostatics", complex, system, j,
                                 M, M_inv)


def assemble_darcy(complex: SimplicialComplex, system: int, phi,
                   M, M_inv) -> MixedSystem:
    """The four Darcy-flow formulations, dimension-generic.

    Systems 1-2 discretize the flux f as a primal (n-1)-cochain with the
    source phi a primal n-cochain; systems 3-4 use a dual flux with the
    source a dual n-cochain (indexed by primal vertices).
    """
    return _assemble_formulation("darcy", complex, system, phi, M, M_inv)


# ---------------------------------------------------------------------------
# solve and compare


def solve(system: MixedSystem, gauge: str = "pin") -> SolveReport:
    """Sparse solve of a mixed system, gauged by `_gauge`'s kernel of B.

    The gauged system is [[c H, Bg], [Bg^T, E]] [u; y] = [f; g].
    gauge="pin" zeroes the gauge dofs: Bg is B without their columns, E the
    identity on them, y = w.  gauge="augment" borders the system with the
    kernel basis Z of B: Bg = [B, 0], E = [[0, Z], [Z^T, 0]],
    y = [w; multipliers], so w is orthogonal to the kernel.  A Hodge block
    whose inverse G is sparse (`system.G`) is eliminated,
    (Bg^T G Bg - c E) y = Bg^T G f - c g and u = G (f - Bg y) / c; any other
    is factored with the whole system.  Either way H and f are divided by
    a power of two s that scales with H (`_binary_order`), and y = [w / s;
    multipliers], so the matrix has the same bits at every mesh scale.  The
    residual is the larger block row backward error |r_i| / (|A_i1| |u| +
    |A_i2| |y| + |b_i|) of that system, |c H u / s| for |A_11| |u|; above
    1e-6 it is rank deficiency beyond the declared gauge, an error.
    """
    t0 = time.perf_counter()
    H, c, B, f, g = system.H, system.c, system.B, system.f, system.g
    n1 = B.shape[1]
    E = sp.csr_matrix((n1, n1))
    applied = None
    if system.gauge is not None:
        if gauge == "pin":
            free = np.ones(n1)
            free[system.gauge.pins()] = 0.0
            B = B @ sp.diags(free)
            E = sp.diags(1.0 - free)
            g = g * free
        elif gauge == "augment":
            extra = system.gauge.kernel.shape[1]
            B = sp.hstack([B, sp.csr_matrix((B.shape[0], extra))])
            E = _bordered(E, [(system.gauge.kernel, None)])
            g = np.concatenate([g, np.zeros(extra)])
        else:
            raise Error(f"unknown gauge strategy {gauge!r}")
        applied = system.gauge.labels[gauge]
    B, E, G = B.tocsr(), E.tocsr(), system.G
    if G is not None:
        scale = 1 / _binary_order(G)
        lu = _symmetric_lu(scale * (B.T @ G @ B) - c * E, "saddle system")
        y = lu.solve(B.T @ (G @ f) - c * g)
        u = G @ (f - scale * (B @ y)) / c
    else:
        scale = _binary_order(H)
        lu = _symmetric_lu(_bordered(c / scale * H, [(B, E)]), "saddle system")
        x = lu.solve(np.concatenate([f / scale, g]))
        u, y = x[:len(f)], x[len(f):]
    norm = np.linalg.norm
    Hu, fs, nB, ny = H @ u / scale, f / scale, norm(B.data), norm(y)
    rows = [(c * Hu + B @ y - fs, norm(Hu) + nB * ny + norm(fs)),
            (B.T @ u + E @ y - g, nB * norm(u) + norm(E.data) * ny + norm(g))]
    residual = max(norm(r) / s if s else 0.0 for r, s in rows)
    if not (np.isfinite(u).all() and np.isfinite(y).all()) or residual > 1e-6:
        raise Error(f"saddle system rank-deficient beyond the declared "
                    f"gauge (residual {residual:.3e})")
    w = scale * y[:n1]
    recovered = system.recover(u, w)
    return SolveReport(system.name, u, w, recovered, float(residual),
                       applied, time.perf_counter() - t0)


def _binary_order(A) -> float:
    """The power of two just above max |A|: A over it is exact, and the same
    for A and 2^j A."""
    return 2.0 ** np.frexp(np.max(abs(A)))[1]


def cross_validate(a: SolveReport, b: SolveReport) -> dict:
    """Max-norm differences of the cochains that two formulations of one
    pair recover; both recover the same ones, none of them gauge-dependent.
    `solve --tol` passes each at most tol times its field's max |entry|."""
    return {key: float(np.abs(va - b.recovered[key]).max())
            for key, va in a.recovered.items()}


# ---------------------------------------------------------------------------
# wave eigensystems


def assemble_wave(complex: SimplicialComplex, formulation: str,
                  M1, M2, M1_inv, M2_inv) -> WaveSystem:
    """Wave eigensystems for the electric (primal) or magnetic (dual) field.

    primal: (D_1^T M_2 D_1) e = omega^2 M_1 e, with kernel ker D_1, the
            gradients range(D_0).
    dual:   (D_1 M_1^{-1} D_1^T) h = omega^2 M_2^{-1} h, with kernel
            ker D_1^T: range(D_2^T) in 3D, none in 2D.
    """
    D1 = complex.incidence_matrix(1).tocsr()
    if formulation == "primal":
        C, H, M = D1, M2, M1
    elif formulation == "dual":
        C, H, M = D1.T.tocsr(), M1_inv, M2_inv
    else:
        raise Error(f"unknown wave formulation {formulation!r}")
    kernel = _gauge(complex, 1, formulation == "dual")
    Z = None if kernel is None else kernel.kernel
    extent = complex.vertices.max(axis=0) - complex.vertices.min(axis=0)
    return WaveSystem(formulation, C, H, M, Z, -1.0 / float(extent @ extent))
