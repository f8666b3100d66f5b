"""Mixed saddle-point systems and wave eigensystems on primal/dual cochains.

Each physical problem (magnetostatics, Darcy flow) admits four equivalent
mixed formulations, two discretizing the flux-like variable on the primal
mesh and two on the dual mesh.  The eight formulations are rows of one table
over the two generic layouts of `assemble_generic`: each row names its layout,
the degree of its Hodge pair, the sign of its Hodge block, the space its load
lives on (and so the derivative a load is lifted through) and how its
physical cochains are recovered.  All systems are symmetric 2x2 block
matrices, solved by dense factorization at the scales this library targets;
the pressure-like gauge of a dual-first layout is handled by pinning one
degree of freedom or by a mean-zero augmentation.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .mesh import SimplicialComplex


class SystemError(ValueError):
    pass


class IncompatibleLoadError(SystemError):
    """Right-hand side not in the range of the relevant derivative."""


@dataclass
class MixedSystem:
    """A 2x2 block saddle-point system with its recovery rules.

    The recovery callable maps the solved block unknowns (u, w) to the
    physical pair of cochains the formulation approximates.
    """

    name: str
    blocks: tuple  # ((A, B), (C, None)) dense blocks; C = B.T
    rhs: tuple  # (f, g) arrays
    recover: callable  # (u, w) -> dict of named physical cochains
    gauge: int | None = None  # index into the second block needing pinning

    def matrix(self) -> np.ndarray:
        (A, B), (C, _) = self.blocks
        return np.block([[A, B], [C, np.zeros((C.shape[0], B.shape[1]))]])

    def rhs_vector(self) -> np.ndarray:
        return np.concatenate([np.asarray(self.rhs[0], dtype=float),
                               np.asarray(self.rhs[1], dtype=float)])


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
    formulation: str  # "primal" | "dual"
    stiffness: np.ndarray
    mass: np.ndarray

    def eigenpairs(self, count: int | None = None):
        """Generalized eigenpairs (omega^2, mode), ascending; the `count`
        smallest when given."""
        if count is not None and count < 1:
            raise SystemError(f"eigenpair count must be at least 1, got {count}")
        try:
            vals, vecs = scipy.linalg.eigh(self.stiffness, self.mass)
        except scipy.linalg.LinAlgError as exc:
            raise SystemError("wave mass matrix is not positive definite") \
                from exc
        if count is not None:
            vals, vecs = vals[:count], vecs[:, :count]
        return vals, vecs


# ---------------------------------------------------------------------------
# helpers


def _as_dense(M):
    return M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)


def particular_solution(D, rhs, tol: float = 1e-10) -> np.ndarray:
    """Minimum-norm solution of D x = rhs; rejects incompatible loads."""
    D = _as_dense(D)
    rhs = np.asarray(rhs, dtype=float)
    x, *_ = np.linalg.lstsq(D, rhs, rcond=None)
    residual = np.linalg.norm(D @ x - rhs)
    scale = max(np.linalg.norm(rhs), 1.0)
    if residual > tol * scale:
        raise IncompatibleLoadError(
            f"load is not in the range of the derivative "
            f"(least-squares residual {residual:.3e})"
        )
    return x


def _check_load(name, load, expected):
    load = np.asarray(load, dtype=float)
    if load.shape != (expected,):
        raise SystemError(
            f"{name}: load has length {len(load)}, expected {expected}"
        )
    return load


# ---------------------------------------------------------------------------
# generic mixed systems


def assemble_generic(complex: SimplicialComplex, k: int, orientation: str,
                     M, M_inv, f, g) -> MixedSystem:
    """The two generic mixed layouts for a k-form unknown with an
    (n-k-1)-form intermediary.

    orientation="primal-first": u is a primal k-cochain and the blocks are
    ((-M_k, D_k^T), (D_k, 0)).  orientation="dual-first": u is a dual
    k-cochain, indexed by primal (n-k)-simplices, and the blocks are
    ((-M_{n-k}^{-1}, D_{n-k-1}), (D_{n-k-1}^T, 0)); M and M_inv are then the
    Hodge pair for degree n-k.
    """
    n = complex.dim
    if orientation == "primal-first":
        D = complex.incidence_matrix(k)
        A = -_as_dense(M)
        B = D.T.toarray()
        sizes = (len(complex.simplices[k]), D.shape[0])
    elif orientation == "dual-first":
        m = n - k
        D = complex.incidence_matrix(m - 1)
        A = -_as_dense(M_inv)
        B = D.toarray()
        sizes = (len(complex.simplices[m]), D.shape[1])
    else:
        raise SystemError(f"unknown orientation {orientation!r}")
    f = _check_load("generic f", f, sizes[0])
    g = _check_load("generic g", g, sizes[1])
    if A.shape[0] != B.shape[0]:
        raise SystemError(
            f"block dimension mismatch: Hodge block {A.shape} vs derivative "
            f"block {B.shape}"
        )
    return MixedSystem(
        name=f"generic-{orientation}-k{k}",
        blocks=((A, B), (B.T, None)),
        rhs=(f, g),
        recover=lambda u, w: {"u": u, "w": w},
        gauge=None,
    )


# ---------------------------------------------------------------------------
# the eight formulations


class _Formulation(NamedTuple):
    """One mixed formulation, as a row over `assemble_generic`.

    The Hodge pair has degree d = range(n + 1)[degree], so -2 stands for
    n - 1.  A primal-first layout constrains D_d u on the (d+1)-simplices and
    a dual-first one D_{d-1}^T u on the (d-1)-simplices.  The load lives on
    the (d+1)-simplices in the range of D_d (load "up") or on the
    (d-1)-simplices in the range of D_{d-1}^T (load "down").  On the side
    the layout constrains it is the second right-hand side; otherwise it is
    lifted through that derivative to a particular solution x0, and -sign x0
    is the first.  `sign` multiplies the generic layout's Hodge block.
    """

    orientation: str
    degree: int
    sign: float
    load: str
    recover: Callable  # (u, w, parts) -> dict of named physical cochains

    def hodge_degree(self, n: int) -> int:
        return range(n + 1)[self.degree]

    def load_derivative(self, complex: SimplicialComplex):
        """The derivative whose range holds this formulation's load."""
        d = self.hodge_degree(complex.dim)
        if self.load == "up":
            return complex.incidence_matrix(d)
        return complex.incidence_matrix(d - 1).T


def _flux_and_pressure(u, w, parts):
    return {"f": parts.H @ u, "p": particular_solution(parts.L.T, -u)}


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
    ("darcy", 1): _Formulation(
        "primal-first", -2, -1.0, "up",
        lambda u, w, parts: {"f": u, "p": w}),
    ("darcy", 2): _Formulation("dual-first", -2, 1.0, "up", _flux_and_pressure),
    ("darcy", 3): _Formulation(
        "dual-first", 1, -1.0, "down",
        lambda u, w, parts: {"f": u, "p": w}),
    ("darcy", 4): _Formulation("primal-first", 1, -1.0, "down",
                               _flux_and_pressure),
}


def _formulation(problem: str, system: int) -> _Formulation:
    if (problem, system) not in _FORMULATIONS:
        raise SystemError(f"{problem} system id must be 1-4, got {system}")
    return _FORMULATIONS[problem, system]


def _assemble_formulation(problem: str, complex: SimplicialComplex,
                          system: int, load, M, M_inv) -> MixedSystem:
    row = _formulation(problem, system)
    name = f"{problem}-{system}"
    n = complex.dim
    d = row.hodge_degree(n)
    primal = row.orientation == "primal-first"
    L = row.load_derivative(complex)
    load = _check_load(name, load, L.shape[0])
    H = _as_dense(M if primal else M_inv)
    f, g, x0 = np.zeros(len(complex.simplices[d])), load, None
    if primal != (row.load == "up"):
        x0 = particular_solution(L, load)
        f = -row.sign * x0
        g = np.zeros(len(complex.simplices[d + 1 if primal else d - 1]))
    signed = row.sign * H
    generic = assemble_generic(complex, d if primal else n - d,
                               row.orientation, signed, signed, f, g)
    parts = SimpleNamespace(B=generic.blocks[0][1], H=H, L=L, x0=x0)
    return dataclasses.replace(
        generic, name=name, gauge=None if primal else 0,
        recover=lambda u, w: row.recover(u, w, parts))


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
    """Dense solve of a mixed system with gauge handling.

    gauge="pin" zeroes one gauge degree of freedom; gauge="augment" enforces
    a zero mean on the gauge variable via a bordered system.  Rank
    deficiency beyond the declared gauge is an error.
    """
    t0 = time.perf_counter()
    K = system.matrix()
    b = system.rhs_vector()
    n0 = len(system.rhs[0])
    applied = None
    if system.gauge is not None:
        gi = n0 + system.gauge
        if gauge == "pin":
            K = K.copy()
            K[gi, :] = 0.0
            K[:, gi] = 0.0
            K[gi, gi] = 1.0
            b = b.copy()
            b[gi] = 0.0
            applied = f"pin dof {system.gauge}"
        elif gauge == "augment":
            m = K.shape[0]
            n1 = m - n0
            Ka = np.zeros((m + 1, m + 1))
            Ka[:m, :m] = K
            Ka[m, n0:m] = 1.0
            Ka[n0:m, m] = 1.0
            K = Ka
            b = np.concatenate([b, [0.0]])
            applied = "mean-zero augmentation"
        else:
            raise SystemError(f"unknown gauge strategy {gauge!r}")
    try:
        x = scipy.linalg.solve(K, b, assume_a="sym")
    except scipy.linalg.LinAlgError as exc:
        raise SystemError(f"saddle system singular: {exc}") from exc
    residual = np.linalg.norm(K @ x - b) / max(np.linalg.norm(b), 1.0)
    if not np.isfinite(x).all() or residual > 1e-6:
        null_dim = K.shape[0] - np.linalg.matrix_rank(K)
        raise SystemError(
            f"saddle system rank-deficient beyond the declared gauge "
            f"(residual {residual:.3e}, null-space dimension {null_dim})"
        )
    total = n0 + len(system.rhs[1])
    u, w = x[:n0], x[n0:total]
    recovered = system.recover(u, w)
    return SolveReport(system.name, u, w, recovered, float(residual),
                       applied, time.perf_counter() - t0)


def align_gauge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shift b by a constant so its mean matches a's (pressure alignment)."""
    return b + (a.mean() - b.mean())


def cross_validate(reports: list, align: tuple = ("p",)) -> dict:
    """Pairwise max-norm differences of recovered cochains across reports.

    Fields named in `align` are compared after constant-shift alignment.
    """
    out = {}
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            ra, rb = reports[i], reports[j]
            diffs = {}
            for key in ra.recovered:
                if key not in rb.recovered:
                    continue
                va = np.asarray(ra.recovered[key])
                vb = np.asarray(rb.recovered[key])
                if key in align:
                    vb = align_gauge(va, vb)
                diffs[key] = float(np.abs(va - vb).max())
            out[(ra.system, rb.system)] = diffs
    return out


# ---------------------------------------------------------------------------
# wave eigensystems


def assemble_wave(complex: SimplicialComplex, formulation: str,
                  M1, M2, M1_inv=None, M2_inv=None) -> WaveSystem:
    """Wave eigensystems for the electric (primal) or magnetic (dual) field.

    primal: (D_1^T M_2 D_1) e = omega^2 M_1 e.
    dual:   (D_1 M_1^{-1} D_1^T) h = omega^2 M_2^{-1} h.
    """
    D1 = complex.incidence_matrix(1).toarray()
    if formulation == "primal":
        A = D1.T @ _as_dense(M2) @ D1
        B = _as_dense(M1)
    elif formulation == "dual":
        if M1_inv is None or M2_inv is None:
            raise SystemError("dual wave system needs inverse Hodge matrices")
        A = D1 @ _as_dense(M1_inv) @ D1.T
        B = _as_dense(M2_inv)
    else:
        raise SystemError(f"unknown wave formulation {formulation!r}")
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise SystemError("wave mass matrix is not positive definite") from exc
    return WaveSystem(formulation, A, B)
