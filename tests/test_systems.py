import itertools
import json
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from decstar import Error, cli, hodge, mesh, systems
from test_cli import TWO_SQUARES


def make_pair(comp, kind="whitney", k=1):
    dual = mesh.build_dual(comp, "barycentric")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return hodge.hodge_pair(comp, dual, k, kind, resolution=48)


def meshes():
    return [mesh.two_triangle_mesh(), mesh.generate_fig8(2.0),
            mesh.structured_grid(4)]


def loads(comp, seed=0):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(len(comp.simplices[2]))
    phibar = rng.standard_normal(len(comp.vertices))
    phibar -= phibar.mean()
    jbar = rng.standard_normal(len(comp.vertices))
    jbar -= jbar.mean()
    j = rng.standard_normal(len(comp.simplices[2]))
    return phi, phibar, jbar, j


@pytest.mark.parametrize("kind", ["diag", "whitney"])
def test_darcy_primal_pair_equivalence(kind):
    for comp in meshes():
        M, Minv = make_pair(comp, kind)
        phi, *_ = loads(comp)
        r1 = systems.solve(systems.assemble_darcy(comp, 1, phi, M, Minv))
        r2 = systems.solve(systems.assemble_darcy(comp, 2, phi, M, Minv))
        diffs = systems.cross_validate(r1, r2)
        assert max(diffs.values()) < 1e-8


@pytest.mark.parametrize("kind", ["diag", "whitney"])
def test_darcy_dual_pair_equivalence(kind):
    for comp in meshes():
        M, Minv = make_pair(comp, kind)
        _, phibar, *_ = loads(comp)
        r3 = systems.solve(systems.assemble_darcy(comp, 3, phibar, M, Minv))
        r4 = systems.solve(systems.assemble_darcy(comp, 4, phibar, M, Minv))
        diffs = systems.cross_validate(r3, r4)
        assert max(diffs.values()) < 1e-8


@pytest.mark.parametrize("kind", ["diag", "whitney"])
def test_magnetostatics_pair_equivalences(kind):
    for comp in meshes():
        M, Minv = make_pair(comp, kind)
        _, _, jbar, j = loads(comp)
        r1 = systems.solve(systems.assemble_magnetostatics(comp, 1, jbar, M, Minv))
        r2 = systems.solve(systems.assemble_magnetostatics(comp, 2, jbar, M, Minv))
        d12 = systems.cross_validate(r1, r2)
        assert max(d12.values()) < 1e-8
        r3 = systems.solve(systems.assemble_magnetostatics(comp, 3, j, M, Minv))
        r4 = systems.solve(systems.assemble_magnetostatics(comp, 4, j, M, Minv))
        d34 = systems.cross_validate(r3, r4)
        assert max(d34.values()) < 1e-8


def test_conservation_laws():
    comp = mesh.structured_grid(4)
    M, Minv = make_pair(comp)
    phi, phibar, jbar, j = loads(comp, seed=4)
    Dtop = comp.incidence_matrix(1).toarray()
    D0 = comp.incidence_matrix(0).toarray()
    for sid in (1, 2):
        r = systems.solve(systems.assemble_darcy(comp, sid, phi, M, Minv))
        assert np.abs(Dtop @ r.recovered["f"] - phi).max() < 1e-10
        rm = systems.solve(systems.assemble_magnetostatics(comp, sid, jbar,
                                                           M, Minv))
        assert np.abs(Dtop @ rm.recovered["b"]).max() < 1e-10
        assert np.abs(D0.T @ rm.recovered["h"] - jbar).max() < 1e-10
    for sid in (3, 4):
        r = systems.solve(systems.assemble_darcy(comp, sid, phibar, M, Minv))
        assert np.abs(D0.T @ r.recovered["f"] - phibar).max() < 1e-10
        rm = systems.solve(systems.assemble_magnetostatics(comp, sid, j,
                                                           M, Minv))
        assert np.abs(Dtop @ rm.recovered["h"] - j).max() < 1e-10
        assert np.abs(D0.T @ rm.recovered["b"]).max() < 1e-10


def test_incompatible_load_rejected():
    comp = mesh.structured_grid(3)
    M, Minv = make_pair(comp)
    bad = np.ones(len(comp.vertices))  # nonzero mean: not in the range
    with pytest.raises(Error, match="not in the range"):
        systems.assemble_magnetostatics(comp, 1, bad, M, Minv)
    with pytest.raises(Error, match="not in the range"):
        systems.assemble_darcy(comp, 4, bad, M, Minv)


def test_load_length_validated():
    comp = mesh.structured_grid(3)
    M, Minv = make_pair(comp)
    with pytest.raises(Error, match="length"):
        systems.assemble_darcy(comp, 1, np.ones(3), M, Minv)
    with pytest.raises(Error, match="system id must be 1-4"):
        systems.assemble_darcy(comp, 7, np.ones(3), M, Minv)
    # a star of the wrong degree: vertices against darcy-1's edges
    M0, M0inv = make_pair(comp, k=0)
    with pytest.raises(Error, match="block dimension mismatch"):
        systems.assemble_darcy(comp, 1, np.ones(len(comp.simplices[2])),
                               M0, M0inv)


def test_gauge_strategies_agree():
    """Every formulation recovers the same cochains under either gauge, on
    one and two components in 2D and in 3D, with either star: none of them
    depends on the multipliers' kernel part."""
    comps = [cli.resolve_mesh("grid:4"), cli.resolve_mesh("random:30:2:3"),
             mesh.complex_from_json(TWO_SQUARES)]
    for comp, kind in itertools.product(comps, ["diag", "whitney"]):
        for (problem, sid), row in systems._FORMULATIONS.items():
            M, Minv = make_pair(comp, kind, k=row.hodge_degree(comp.dim))
            load = row.default_load(comp, seed=sid)
            system = PROBLEMS[problem](comp, sid, load, M, Minv)
            r_pin = systems.solve(system, gauge="pin")
            r_aug = systems.solve(system, gauge="augment")
            for key, want in r_aug.recovered.items():
                diff = np.abs(r_pin.recovered[key] - want).max()
                assert diff <= 1e-10 * np.abs(want).max(), \
                    (comp.dim, kind, problem, sid, key)


def test_solve_reports_residual_and_gauge():
    comp = mesh.two_triangle_mesh()
    M, Minv = make_pair(comp)
    phi, *_ = loads(comp, seed=3)
    report = systems.solve(systems.assemble_darcy(comp, 1, phi, M, Minv))
    assert report.residual < 1e-10
    assert report.gauge_applied is None
    report2 = systems.solve(systems.assemble_darcy(comp, 2, phi, M, Minv))
    assert report2.gauge_applied == "pin dof 0"


@pytest.mark.parametrize("kind", ["diag", "whitney"])
@pytest.mark.parametrize("sid", [2, 3])
def test_an_undeclared_kernel_is_rank_deficiency_beyond_the_gauge(kind, sid):
    """A system whose B keeps its kernel but declares no gauge, with a
    second right-hand side off range(B^T), has no solution; its LU meets no
    exactly zero pivot, and the residual check rejects what it returns."""
    comp = mesh.structured_grid(4)
    row = systems._formulation("darcy", sid)
    M, Minv = make_pair(comp, kind, k=row.hodge_degree(comp.dim))
    system = systems.assemble_darcy(comp, sid, row.default_load(comp, sid),
                                    M, Minv)
    system.g = system.g + system.gauge.kernel[:, 0].toarray().ravel()
    system.gauge = None
    with pytest.raises(Error, match=r"^saddle system rank-deficient beyond "
                                    r"the declared gauge \(residual "):
        systems.solve(system)


@pytest.mark.parametrize("F", [sp.diags([1.0, 0.0]),
                               sp.csr_matrix(np.ones((2, 2)))])
def test_an_exactly_singular_matrix_is_not_positive_definite(F):
    """A positive semidefinite F with an exactly zero pivot fails the
    diagonal-pivot LU of its `FactorizedInverse` with the singular line."""
    inverse = systems.FactorizedInverse(F, "matrix")
    with pytest.raises(Error, match="^matrix is singular: .*exactly singular"):
        inverse.lu
    with pytest.raises(Error, match="^matrix is singular: "):
        inverse @ np.ones(2)


@pytest.mark.parametrize("F", [sp.diags([1.0, -1.0]),
                               sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]]),
                               sp.csr_matrix([[1.0, 2.0], [2.0, 1.0]])])
def test_a_nonsingular_indefinite_matrix_is_not_positive_definite(F):
    """A negative pivot, or an off-diagonal one where the diagonal is zero,
    fails the certificate of a `FactorizedInverse`'s LU, at its first
    solve as at `lu`."""
    inverse = systems.FactorizedInverse(F, "matrix")
    with pytest.raises(Error, match="^matrix is not positive definite$"):
        inverse @ np.ones(2)


def test_a_factorized_inverse_makes_its_one_lu_on_first_use(monkeypatch):
    """No LU at construction; the first solve makes it, and every later
    solve and `nnz` reuse it."""
    calls = _recorded_splu(monkeypatch)
    G = sp.csr_matrix([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    inverse = systems.FactorizedInverse(G, "star")
    assert calls == []
    x = inverse @ np.array([1.0, 0.0, 1.0])
    assert np.allclose(G @ x, [1.0, 0.0, 1.0])
    assert inverse @ np.eye(3) @ G == pytest.approx(np.eye(3))
    assert inverse.nnz > 0 and inverse.lu is inverse.lu
    assert calls == [("_symmetric_lu", 3, "star")]


def test_blocks_follow_the_formulation_table():
    """Each row's saddle blocks: B is D_d^T (primal-first) or D_{d-1}
    (dual-first), the Hodge block is -sign times the Hodge side the layout
    uses, and the load sits on g when the layout constrains its space, else
    it is lifted into f."""
    layouts = [("grid:3", (1, 2, 3, 4)), ("random:12:3:3", (1, 2))]
    factorized_blocks = set()
    for spec, ids in layouts:
        comp = cli.resolve_mesh(spec)
        for (problem, sid), row in systems._FORMULATIONS.items():
            if sid not in ids:
                continue
            d = row.hodge_degree(comp.dim)
            M, Minv = make_pair(comp, "whitney", k=d)
            load = row.default_load(comp, seed=sid)
            system = PROBLEMS[problem](comp, sid, load, M, Minv)
            primal = row.orientation == "primal-first"
            want = (comp.incidence_matrix(d).T if primal
                    else comp.incidence_matrix(d - 1))
            assert sp.isspmatrix_csr(system.B)
            assert system.B.shape == want.shape
            assert (system.B != want).nnz == 0
            H = M if primal else Minv
            assert system.H is H
            assert system.c == -row.sign
            factorized_blocks.add(isinstance(H, systems.FactorizedInverse))
            assert system.f.shape == (system.B.shape[0],)
            assert system.g.shape == (system.B.shape[1],)
            L = row.load_derivative(comp)
            if primal == (row.load == "up"):
                assert not system.f.any()
                assert np.array_equal(system.g, load)
            else:
                assert not system.g.any()
                lifted = L @ (-row.sign * system.f)
                assert np.abs(lifted - load).max() <= 1e-10 * max(
                    np.abs(load).max(), 1.0)
    assert factorized_blocks == {True, False}  # both kinds of Hodge block


def test_wave_systems():
    comp = mesh.structured_grid(3)
    dual = mesh.build_dual(comp, "barycentric")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        M1, M1inv = hodge.hodge_pair(comp, dual, 1, "whitney")
        M2, M2inv = hodge.hodge_pair(comp, dual, 2, "whitney")
    primal = systems.assemble_wave(comp, "primal", M1, M2, M1inv, M2inv)
    vals_p = primal.eigenpairs()
    # gradient fields are stationary: kernel dimension is N_vertices - 1
    n_zero = int((np.abs(vals_p) < 1e-9).sum())
    assert n_zero == len(comp.vertices) - 1
    dual_sys = systems.assemble_wave(comp, "dual", M1, M2, M1inv, M2inv)
    vals_d = dual_sys.eigenpairs()
    pos_p = np.sort(vals_p[np.abs(vals_p) > 1e-9])
    pos_d = np.sort(vals_d[np.abs(vals_d) > 1e-9])
    # with exact inverse pairs the nonzero spectra coincide
    assert len(pos_d) == len(pos_p)
    assert np.abs(pos_p - pos_d).max() < 1e-8


def wave_systems(comp, kind, resolution=32):
    """The primal and dual wave systems of `comp` with one star kind."""
    dual = mesh.build_dual(comp, "barycentric")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (M1, M1inv), (M2, M2inv) = (
            hodge.hodge_pair(comp, dual, k, kind, resolution) for k in (1, 2))
    return {f: systems.assemble_wave(comp, f, M1, M2, M1inv, M2inv)
            for f in ("primal", "dual")}


def dense(X):
    """A sparse matrix, `FactorizedInverse` or `LinearOperator` as an array."""
    return X @ np.eye(X.shape[0])


@pytest.mark.parametrize("kind", ["diag", "whitney", "dual_inverse"])
def test_wave_eigenvalues_match_a_full_eigh_with_vectors(kind):
    for ws in wave_systems(mesh.structured_grid(4, 0.3), kind).values():
        K, M = dense(ws.stiffness), dense(ws.mass)
        full = scipy.linalg.eigh(0.5 * (K + K.T), 0.5 * (M + M.T))[0]
        for count in (1, 10):
            vals = ws.eigenpairs(count)
            assert len(vals) == count
            assert np.abs(vals - full[:count]).max() <= \
                1e-12 * np.abs(full).max()


@pytest.mark.parametrize("kind", ["diag", "whitney", "dual_inverse"])
def test_wave_eigensolve_leaves_its_operands_unchanged(kind):
    for ws in wave_systems(mesh.structured_grid(3), kind).values():
        before = dense(ws.stiffness), dense(ws.mass)
        first = ws.eigenpairs(5)
        assert np.array_equal(ws.eigenpairs(5), first)
        assert np.array_equal(dense(ws.stiffness), before[0])
        assert np.array_equal(dense(ws.mass), before[1])
        everything = ws.eigenpairs()
        assert len(everything) == ws.mass.shape[0]
        assert np.all(np.diff(everything) >= 0)


def test_primal_wave_spectrum_past_its_kernel_is_the_dual_one():
    comp = mesh.structured_grid(8, 0.3)
    waves = wave_systems(comp, "whitney")
    null = len(comp.vertices) - 1
    primal = waves["primal"].eigenpairs(null + 6)
    dual = waves["dual"].eigenpairs(6)
    assert int((np.abs(primal) < 1e-8 * np.abs(primal).max()).sum()) == null
    assert np.abs(primal[null:] / dual - 1.0).max() <= 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the dual-"
                   "inverse star's dual wave spectrum is 0.86 too low on "
                   "grid:16")
def test_dual_inverse_dual_wave_matches_the_whitney_star():
    comp = mesh.structured_grid(16)
    dual = mesh.build_dual(comp, "barycentric")
    spectra = []
    for kind in ("dual_inverse", "whitney"):
        pairs = [hodge.hodge_pair(comp, dual, k, kind, 32) for k in (1, 2)]
        ws = systems.assemble_wave(comp, "dual", pairs[0][0], pairs[1][0],
                                   pairs[0][1], pairs[1][1])
        spectra.append(ws.eigenpairs(6))
    dual_inverse, whitney = spectra
    assert np.abs(dual_inverse / whitney - 1.0).max() <= 0.05


def _gauged_system():
    comp = mesh.structured_grid(3)
    M, Minv = make_pair(comp, k=1)
    row = systems._formulation("darcy", 3)  # B = D_0: the constants
    return systems.assemble_darcy(comp, 3, row.default_load(comp, 0), M, Minv)


@pytest.mark.parametrize("call, error", [
    (lambda: hodge.assemble("sharp", mesh.structured_grid(2), None, 1),
     "unknown Hodge kind 'sharp'"),
    (lambda: systems.solve(_gauged_system(), "fix"),
     "unknown gauge strategy 'fix'"),
    (lambda: systems.assemble_wave(mesh.structured_grid(2), "mixed",
                                   *[None] * 4),
     "unknown wave formulation 'mixed'"),
    (lambda: systems._gauge(mesh.structured_grid(2), 2), "no gauge rule for D_2"),
    (lambda: mesh.structured_grid(2).incidence_matrix(2),
     "incidence degree k=2 out of range for n=2"),
], ids=["hodge-kind", "gauge", "wave-formulation", "gauge-rule",
        "incidence-degree"])
def test_library_inputs_out_of_their_domain_are_errors(call, error):
    with pytest.raises(Error, match=f"^{error}$"):
        call()


def test_indefinite_wave_mass_is_rejected_by_the_eigensolve():
    comp = mesh.structured_grid(3)
    M2, M2inv = hodge.hodge_pair(comp, None, 2, "whitney")
    M1 = -sp.identity(len(comp.simplices[1]), format="csr")
    ws = systems.assemble_wave(comp, "primal", M1, M2, M1, M2inv)
    with pytest.raises(Error,
                       match="^wave mass matrix is not positive definite$"):
        ws.eigenpairs()


def dense_wave_reference(ws, count):
    """The `count` lowest values of the pencil by LAPACK on dense copies."""
    K, M = dense(ws.stiffness), dense(ws.mass)
    return scipy.linalg.eigh(K + K.T, M + M.T, eigvals_only=True,
                             subset_by_index=[0, count - 1])


def assert_lanczos_matches_dense(ws, modes=6):
    """The sparse spectrum through `modes` physical values: exact zeros on
    the kernel, then the dense values to 1e-10 relative.  The request must
    take the Lanczos branch: ARPACK's 20 vectors fit past the kernel."""
    n = ws.mass.shape[0]
    assert max(2 * modes + 1, 20) < n - ws.nullity
    vals = ws.eigenpairs(ws.nullity + modes)
    ref = dense_wave_reference(ws, ws.nullity + modes)
    assert not vals[:ws.nullity].any()
    assert np.abs(ref[:ws.nullity]).max(initial=0.0) <= 1e-10 * ref.max()
    rel = np.abs(vals[ws.nullity:] / ref[ws.nullity:] - 1.0)
    assert rel.max() <= 1e-10, (ws.formulation, rel.max())


WAVE_MESHES = st.one_of(
    st.tuples(st.just("random"), st.integers(25, 80), st.integers(0, 10_000)),
    st.tuples(st.just("grid"), st.integers(4, 10),
              st.floats(-0.3, 0.3, allow_subnormal=False)))


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(case=WAVE_MESHES)
def test_lanczos_wave_spectra_match_dense_eigh(case):
    """Diag and Whitney stars in both formulations, and the dual-inverse
    star on grids, where it is nonsingular."""
    name, size, param = case
    if name == "random":
        comp, kinds = mesh.random_delaunay(size, param), ("diag", "whitney")
    else:
        comp = mesh.structured_grid(size, param)
        kinds = ("diag", "whitney", "dual_inverse")
    for kind in kinds:
        for ws in wave_systems(comp, kind, 16).values():
            assert ws.nullity == (len(comp.vertices) - 1
                                  if ws.formulation == "primal" else 0)
            assert_lanczos_matches_dense(ws)


@pytest.mark.parametrize("kind", ["diag", "whitney"])
def test_3d_lanczos_wave_spectra_match_dense_eigh(kind):
    """In 3D the dual pencil has the kernel range(D_2^T), one dimension
    per tetrahedron."""
    comp = mesh.random_delaunay(30, 2, 3)
    waves = wave_systems(comp, kind)
    assert waves["primal"].nullity == len(comp.vertices) - 1
    assert waves["dual"].nullity == len(comp.simplices[3])
    for ws in waves.values():
        assert_lanczos_matches_dense(ws)


def crossed_grid(m):
    """The unit square in m x m squares, each cut into four triangles at
    its center: symmetric under quarter turns, so modes pair up exactly."""
    x = np.linspace(0.0, 1.0, m + 1)
    corners = np.array([(a, b) for b in x for a in x])
    centers = np.array([(a, b) for b in x[:-1] + 0.5 / m
                        for a in x[:-1] + 0.5 / m])
    cells = []
    for j in range(m):
        for i in range(m):
            a, b = j * (m + 1) + i, j * (m + 1) + i + 1
            c, d = b + m + 1, a + m + 1
            e = len(corners) + j * m + i
            cells += [[a, b, e], [b, c, e], [c, d, e], [d, a, e]]
    return mesh.build_complex(np.vstack([corners, centers]), np.array(cells))


@pytest.mark.parametrize("kind", ["diag", "whitney"])
def test_lanczos_keeps_double_eigenvalues(kind):
    """A single-vector Lanczos run could return one copy of a double
    eigenvalue; on the quarter-turn symmetric crossed grid it must return
    both, as dense `eigh` does."""
    for ws in wave_systems(crossed_grid(6), kind).values():
        assert_lanczos_matches_dense(ws, modes=8)
        phys = ws.eigenpairs(ws.nullity + 8)[ws.nullity:]
        assert np.sum(np.diff(phys) <= 1e-10 * phys[1:]) == 3


@pytest.mark.parametrize("spec", ["grid:4", "random:12:3:3"])
def test_load_block_particular_solutions(spec):
    """For every load degree j and either orientation of L (D_j or D_j^T),
    `_LoadBlock.solve` solves L x = rhs and `solve_transpose` L^T y = rhs
    for a right-hand side in range, maps zero to zero, and rejects one in
    ker of the adjoint, off the range, at any scale."""
    comp = cli.resolve_mesh(spec)
    rng = np.random.default_rng(3)
    for j in sorted({0, 1, comp.dim - 1}):
        for transposed in (False, True):
            block = systems._LoadBlock(comp, j, transposed)
            D = comp.incidence_matrix(j)
            L = (D.T if transposed else D).tocsr()
            rejected = 0
            for op, solve in ((L, block.solve), (L.T, block.solve_transpose)):
                rhs = op @ rng.standard_normal(op.shape[1])
                x = solve(rhs)
                assert np.linalg.norm(op @ x - rhs) \
                    <= 1e-12 * np.linalg.norm(rhs), (j, transposed)
                assert not solve(np.zeros(op.shape[0])).any()
                # none for D_{n-1}, which is onto
                off = scipy.linalg.null_space(op.T.toarray())
                for scale in (1.0, 1e-11) if off.shape[1] else ():
                    with pytest.raises(Error, match="not in the range"):
                        solve(scale * off[:, 0])
                    rejected += 1
            assert rejected, (j, transposed)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(case=st.one_of(
    st.tuples(st.just(2), st.integers(3, 60), st.integers(0, 10_000)),
    st.tuples(st.just(3), st.integers(5, 40), st.integers(0, 10_000))))
def test_load_block_is_square_and_nonsingular(relabelled_delaunay, case):
    """The block K of D_j that `_LoadBlock` factors is square and of full
    rank for every load degree j on random Delaunay meshes, which have no
    holes or cavities."""
    dim, n_points, seed = case
    comp = mesh.build_complex(*relabelled_delaunay(n_points, seed, dim))
    for j in sorted({0, 1, dim - 1}):
        block = systems._LoadBlock(comp, j, False)
        K = block.D[block.rows][:, block.cols].toarray()
        assert K.shape[0] == K.shape[1], (j, K.shape)
        assert np.linalg.matrix_rank(K) == len(K), j


# ---------------------------------------------------------------------------
# the dense pipeline that the sparse one replaced, kept as a reference


def lstsq_reference(D, rhs, tol=1e-10):
    """Minimum-norm least-squares solution of D x = rhs by dense least
    squares, rejected when its residual exceeds `tol` of |rhs|."""
    x, *_ = np.linalg.lstsq(D, rhs, rcond=None)
    residual = np.linalg.norm(D @ x - rhs)
    if residual > tol * np.linalg.norm(rhs):
        raise Error(f"load is not in the range (residual {residual:.3e})")
    return x


class LstsqGram:
    """`systems._LoadBlock` by `lstsq_reference` on L = D_j, or D_j^T when
    `transposed`: minimum-norm solutions in place of the block's."""

    def __init__(self, complex, j, transposed):
        D = complex.incidence_matrix(j).toarray()
        self.D = D.T if transposed else D

    def solve(self, rhs):
        return lstsq_reference(self.D, rhs)

    def solve_transpose(self, rhs, what=None):
        return lstsq_reference(self.D.T, rhs)


def dense_pair_reference(comp, dual, k, kind, resolution):
    """The Hodge pair with the non-diagonal inverse formed by np.linalg.inv,
    both sides as CSR matrices."""
    A = hodge.assemble(kind, comp, dual, k, resolution).matrix
    if A.nnz == np.count_nonzero(A.diagonal()):
        inv = sp.diags(1.0 / A.diagonal()).tocsr()
    else:
        inv = sp.csr_matrix(np.linalg.inv(A.toarray()))
    return (inv, A) if kind == "dual_inverse" else (A, inv)


def dense_solve_reference(system, gauge):
    """Dense LU of the whole block matrix, pinning or bordering the gauge."""
    A, B = system.c * system.H.toarray(), system.B.toarray()
    f, g = system.f, system.g
    n0, n1 = B.shape
    K = np.block([[A, B], [B.T, np.zeros((n1, n1))]])
    b = np.concatenate([f, g])
    if system.gauge is not None and gauge == "pin":
        for gi in n0 + system.gauge.pins():
            K[gi, :] = K[:, gi] = 0.0
            K[gi, gi] = 1.0
            b[gi] = 0.0
    elif system.gauge is not None:
        Z = system.gauge.kernel.toarray()
        border = np.vstack([np.zeros((n0, Z.shape[1])), Z])
        K = np.block([[K, border], [border.T, np.zeros((Z.shape[1],) * 2)]])
        b = np.concatenate([b, np.zeros(Z.shape[1])])
    x = scipy.linalg.solve(K, b, assume_a="sym")
    return x[:n0], x[n0:n0 + n1]


# every formulation of both problems, in 2D and 3D
PROBLEMS = {"darcy": systems.assemble_darcy,
            "magnetostatics": systems.assemble_magnetostatics}
FORMULATION_MESHES = st.one_of(
    st.tuples(st.just(2), st.integers(3, 30), st.integers(0, 10_000)),
    st.tuples(st.just(3), st.integers(2, 12), st.integers(0, 10_000)))


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(case=FORMULATION_MESHES)
@example(case=(2, 14, 75))  # a dual polygon that 16 pixels per axis miss
def test_sparse_solves_match_dense_reference(relabelled_delaunay, case):
    """Sparse pair, sparse solve and load-block particular solutions give the
    recovered cochains of the dense pipeline, to 1e-8 of max|reference|.
    A dual-inverse star that the pixel quadrature rejects is skipped, on
    its own message: too few samples in a dual polygon, or a singular
    star whose dense copy is singular too."""
    dim, n_points, seed = case
    comp = mesh.build_complex(*relabelled_delaunay(n_points, seed, dim))
    dual = mesh.build_dual(comp, "barycentric")
    rng = np.random.default_rng(seed)
    kinds = ("diag", "whitney", "dual_inverse") if dim == 2 else ("diag",
                                                                 "whitney")
    for kind in kinds:
        for (problem, sid), row in systems._FORMULATIONS.items():
            d = row.hodge_degree(dim)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                star = None
                try:
                    star = hodge.assemble(kind, comp, dual, d, 16).matrix
                    pair = hodge.hodge_pair(comp, dual, d, kind, 16)
                except Error as exc:
                    # the pixel rule can miss (much of) the dual cell of a
                    # sliver: too few samples, or a zero row
                    assert kind == "dual_inverse"
                    if star is None:
                        assert str(exc).startswith(
                            "quadrature resolution 16 leaves fewer than 10 "
                            "interior samples in the dual polygon of vertex ")
                    else:
                        assert "is singular" in str(exc)
                        star = star.toarray()
                        assert np.linalg.matrix_rank(star) < len(star)
                    continue
                ref_pair = dense_pair_reference(comp, dual, d, kind, 16)
            L = row.load_derivative(comp)
            load = L @ rng.standard_normal(L.shape[1])
            for gauge in ("pin", "augment"):
                report = systems.solve(
                    PROBLEMS[problem](comp, sid, load, *pair), gauge)
                with mock.patch.object(systems, "_LoadBlock", LstsqGram):
                    ref_system = PROBLEMS[problem](comp, sid, load, *ref_pair)
                    ref = ref_system.recover(
                        *dense_solve_reference(ref_system, gauge))
                for key, want in ref.items():
                    got = report.recovered[key]
                    assert np.abs(got - want).max() \
                        <= 1e-8 * max(1.0, np.abs(want).max()), \
                        (kind, problem, sid, gauge, key)


def test_default_load_is_the_load_derivative_of_a_seeded_vector():
    """Every formulation's default load, on one and two components in 2D
    and in 3D, is L applied to the seeded vector, in range(L) by
    construction, so `check_load` accepts it; the seeded vector itself has
    a part in a nontrivial ker L^T, which it rejects."""
    comps = [cli.resolve_mesh("grid:4"), cli.resolve_mesh("random:12:3:3"),
             mesh.complex_from_json(TWO_SQUARES)]
    for comp, row in itertools.product(comps, systems._FORMULATIONS.values()):
        L = row.load_derivative(comp)
        load = row.default_load(comp, seed=7)
        seeded = np.random.default_rng(7).standard_normal(L.shape[1])
        assert np.array_equal(load, L @ seeded)
        row.check_load(comp, load)
        raw = np.random.default_rng(7).standard_normal(L.shape[0])
        if row.load_cokernel(comp) is None:
            row.check_load(comp, raw)
        else:
            with pytest.raises(Error, match="load is not in the range"):
                row.check_load(comp, raw)


@pytest.mark.parametrize("problem", ["darcy", "magneto"])
@pytest.mark.parametrize("kind", ["diag", "whitney"])
def test_3d_dual_first_gauge_is_a_spanning_tree(problem, kind, capsys):
    labels = {"pin": "pin tree of 19 edges",
              "augment": "augmentation by 19 gradients"}
    for gauge, label in labels.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            code = cli.main(["solve", problem, "--mesh", "random:12:3:3",
                             "--system", "1,2", "--kind", kind, "--gauge",
                             gauge, "--tol", "1e-8"])
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert lines[1]["gauge"] == label
        assert lines[2]["pass"] is True


def test_3d_systems_solve_every_pair(capsys):
    """All eight 3D formulations agree pairwise under either gauge; system
    4's derivative D_1^T has the kernel range(D_2^T), one dimension per
    tetrahedron, pinned on a tree of the cell graph."""
    for spec in ("random:30:2:3", "random:60:4:3"):
        tets = len(cli.resolve_mesh(spec).simplices[3])
        labels = {"pin": f"pin tree of {tets} faces",
                  "augment": f"augmentation by {tets} cell boundaries"}
        for problem in ("darcy", "magneto"):
            for pair in ("1,2", "3,4"):
                for kind in ("diag", "whitney"):
                    for gauge, label in labels.items():
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", UserWarning)
                            code = cli.main(
                                ["solve", problem, "--mesh", spec, "--system",
                                 pair, "--kind", kind, "--gauge", gauge,
                                 "--tol", "1e-8"])
                        out = capsys.readouterr().out.splitlines()
                        lines = [json.loads(l) for l in out]
                        case = (spec, problem, pair, kind, gauge)
                        assert code == 0, case
                        assert lines[2]["pass"] is True, (case, lines[2])
                        if pair == "3,4":
                            assert lines[1]["gauge"] == label, case


def two_component_union(relabelled_delaunay, a, b):
    """The disjoint union of two relabelled Delaunay meshes, given as
    (n_points, seed, dim), the second shifted clear of the first."""
    (va, ca), (vb, cb) = (relabelled_delaunay(*case) for case in (a, b))
    return mesh.build_complex(np.vstack([va, vb + 2.0]),
                              np.vstack([ca, cb + len(va)]))


GAUGE_MESHES = st.one_of(
    st.tuples(st.sampled_from([2, 3]), st.integers(3, 14),
              st.integers(0, 10_000), st.booleans()),
    st.tuples(st.just("grid"), st.integers(1, 6)), st.just(("tet",)))


@settings(derandomize=True, database=None, max_examples=16, deadline=None)
@given(case=GAUGE_MESHES)
def test_gauge_spans_and_pins_the_kernel(relabelled_delaunay, case):
    """For every derivative whose kernel a solve asks `_gauge` for, D_0,
    D_1, D_{n-2}^T and D_{n-1}^T: the basis Z is annihilated, has as many
    columns as the derivative's rank deficiency, and Z[pins] is square and
    nonsingular.  Meshes with two components need one root each; grid
    corners and a lone tetrahedron have cells with several boundary
    faces."""
    if case[0] == "grid":
        comp = mesh.structured_grid(case[1])
    elif case[0] == "tet":
        comp = mesh.build_complex(np.vstack([np.zeros(3), np.eye(3)]),
                                  [[0, 1, 2, 3]])
    elif case[3]:
        dim, n_points, seed = case[:3]
        comp = two_component_union(relabelled_delaunay, (n_points, seed, dim),
                                   (n_points + 2, seed + 1, dim))
    else:
        comp = mesh.build_complex(*relabelled_delaunay(*case[1:3], case[0]))
    dim = comp.dim
    for j, transposed in ((0, False), (1, False), (dim - 2, True),
                          (dim - 1, True)):
        D = comp.incidence_matrix(j)
        D = (D.T if transposed else D).toarray()
        deficiency = D.shape[1] - np.linalg.matrix_rank(D)
        gauge = systems._gauge(comp, j, transposed)
        if gauge is None:
            assert deficiency == 0, (j, transposed)
            continue
        Z = gauge.kernel.toarray()
        assert not (D @ Z).any(), (j, transposed)
        assert Z.shape[1] == deficiency, (j, transposed)
        square = Z[gauge.pins()]
        assert square.shape == (deficiency, deficiency), (j, transposed)
        assert np.linalg.matrix_rank(square) == deficiency, (j, transposed)


def _refuse_square(original, name):
    def guarded(a, *args, **kwargs):
        shape = np.shape(a)
        if len(shape) == 2 and shape[0] == shape[1] and shape[0] > 4:
            raise AssertionError(f"{name} on a {shape} matrix")
        return original(a, *args, **kwargs)
    return guarded


def _refuse_dense_squares(monkeypatch):
    """Make an N x N inverse, densified sparse matrix or dense `eigh` an
    error; a 2-D array above the 4 x 4 of a simplex frame counts as N x N."""
    monkeypatch.setattr(np.linalg, "inv", _refuse_square(np.linalg.inv, "inv"))
    monkeypatch.setattr(scipy.linalg, "eigh",
                        _refuse_square(scipy.linalg.eigh, "eigh"))
    classes = [sp._base._spbase]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if "toarray" in vars(cls):
            monkeypatch.setattr(cls, "toarray",
                                _refuse_square(cls.toarray, "toarray"))


def test_solve_forms_no_dense_square_matrix(monkeypatch, capsys):
    """No N x N inverse or densified matrix on the diag and Whitney solve
    paths."""
    _refuse_dense_squares(monkeypatch)
    for kind in ("diag", "whitney"):
        for pair in ("1,2", "3,4"):
            for problem in ("darcy", "magneto"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    code = cli.main(["solve", problem, "--mesh", "grid:8",
                                     "--system", pair, "--kind", kind,
                                     "--tol", "1e-8"])
                out = capsys.readouterr().out.splitlines()
                assert code == 0
                assert json.loads(out[-1])["pass"] is True


@pytest.mark.parametrize("kind", ["diag", "whitney", "dual_inverse"])
@pytest.mark.parametrize("formulation", ["primal", "dual"])
def test_wave_forms_no_dense_square_matrix(monkeypatch, capsys, kind,
                                           formulation):
    """`wave --count 6` at grid:8 needs no dense operand: the primal values
    are kernel zeros, and the dual ones come from Lanczos."""
    _refuse_dense_squares(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code = cli.main(["wave", "--mesh", "grid:8", "--kind", kind,
                         "--grid", "32", "--formulation", formulation,
                         "--count", "6"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    vals = json.loads(out[0])["omega_squared"]
    assert len(vals) == 6 and (vals[0] == 0.0) == (formulation == "primal")


def _lanczos_wave(argv_tail, capsys):
    """Run a grid:8 Whitney `wave` past the primal kernel, so that Lanczos
    serves it, and return its exit status, stdout and stderr."""
    code = cli.main(["wave", "--mesh", "grid:8", "--kind", "whitney",
                     *argv_tail])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("formulation, count", [("primal", 86),
                                                ("dual", 6)])
def test_nonconverging_lanczos_is_one_error_line(monkeypatch, capsys,
                                                 formulation, count):
    import scipy.sparse.linalg

    eigsh = scipy.sparse.linalg.eigsh
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                        lambda *a, **kw: eigsh(*a, **kw, maxiter=1))
    code, out, err = _lanczos_wave(["--formulation", formulation,
                                    "--count", str(count)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: wave eigensolve failed: ARPACK") \
        and err.count("\n") == 1


def test_indefinite_mass_on_the_lanczos_branch_is_one_error_line(
        monkeypatch, capsys):
    pair = hodge.hodge_pair

    def negated_mass(comp, dual, k, *args):
        M, M_inv = pair(comp, dual, k, *args)
        return (-M, M_inv) if k == 1 else (M, M_inv)

    monkeypatch.setattr(hodge, "hodge_pair", negated_mass)
    code, out, err = _lanczos_wave(["--count", "86"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: wave mass matrix is not positive definite\n"


def test_solve_runs_no_iterative_solver(monkeypatch, capsys):
    """Default loads, lifts and pressure recovery factor and solve; an
    iterative least-squares solver is never called."""
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("iterative least-squares solver called")

    for name in ("lsmr", "lsqr"):
        monkeypatch.setattr(scipy.sparse.linalg, name, refuse)
    runs = [(problem, "grid:8", pair) for problem in ("darcy", "magneto")
            for pair in ("1,2", "3,4")]
    runs += [(problem, "random:12:3:3", "1,2")
             for problem in ("darcy", "magneto")]
    for problem, spec, pair in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code = cli.main(["solve", problem, "--mesh", spec, "--system",
                             pair, "--tol", "1e-8"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0, (problem, spec, pair)
        assert json.loads(out[-1])["pass"] is True


def _recorded_splu(monkeypatch):
    """Wrap scipy's `splu`; the list it returns gets the calling function's
    name, the order of each matrix factored and the `what` that the caller
    names it by (None without one)."""
    import sys

    import scipy.sparse.linalg

    splu, calls = scipy.sparse.linalg.splu, []

    def record(A, *args, **kwargs):
        caller = sys._getframe(1)
        calls.append((caller.f_code.co_name, A.shape[0],
                      caller.f_locals.get("what")))
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", record)
    return calls


def test_every_factorization_is_one_symmetric_lu(monkeypatch, tmp_path,
                                                 capsys):
    """`solve` of both problems and pairs and `wave` of both formulations,
    with each star kind, factor only through `_symmetric_lu`.  A `solve`,
    on grid:4 and on random:12:3:3, with the default load or with it given
    as a `--load`, factors nothing but saddle systems, load blocks and Hodge
    stars: loads need no factorization.  A Darcy run factors one load block,
    for Darcy 2 or 4, whose load lift and pressure recovery share the one
    LU.  A star's one LU comes at its first solve, so a lone primal-first
    Whitney `solve` and a Whitney `wave` factor no star; only `hodge_pair`'s
    certificate of a dual-inverse star factors it there.  A wave's mass is
    factored once: a Whitney primal wave's M_1 only as "wave mass matrix"."""
    calls = _recorded_splu(monkeypatch)
    pair, paired = hodge.hodge_pair, []

    def record_pair(*args, **kwargs):  # the LUs made inside hodge_pair
        start = len(calls)
        result = pair(*args, **kwargs)
        paired.extend(str(what) for *_, what in calls[start:])
        return result

    monkeypatch.setattr(hodge, "hodge_pair", record_pair)

    def run(args, case):
        start, first = len(calls), len(paired)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code = cli.main(args)
        assert code == 0, (case, capsys.readouterr().err)
        whats = [str(what) for *_, what in calls[start:]]
        stars = [what for what in whats if " Hodge star of degree " in what]
        # hodge_pair factors a dual-inverse star, and it alone
        assert paired[first:] == (stars if "dual_inverse" in args else []), \
            (case, whats)
        if "dual_inverse" in args:
            assert stars, case
        return whats

    problems = {"darcy": "darcy", "magneto": "magnetostatics"}
    cases = [("grid:4", kind) for kind in hodge.KINDS]
    cases += [("random:12:3:3", kind) for kind in ("diag", "whitney")]
    path = tmp_path / "load.csv"
    for spec, kind in cases:
        comp = cli.resolve_mesh(spec)
        for (problem, name), pair_ids in itertools.product(problems.items(),
                                                           ("1,2", "3,4")):
            row = systems._formulation(name, int(pair_ids[0]))
            cli.write_cochain_csv(row.default_load(comp, seed=0), path)
            for load in ([], ["--load", str(path)]):
                start = len(calls)
                case = (spec, kind, problem, pair_ids, load)
                whats = run(["solve", problem, "--system", pair_ids, "--mesh",
                             spec, "--kind", kind, "--grid", "32", *load,
                             "--out", str(tmp_path)], case)
                assert all(what == "saddle system"
                           or what.startswith("load block of D_")
                           or " Hodge star of degree " in what
                           for what in whats), (case, whats)
                if problem == "darcy":
                    blocks = [order for _, order, what in calls[start:]
                              if str(what).startswith("load block")]
                    # the top cells, or the vertices less one root (one
                    # component)
                    assert blocks == ([len(comp.simplices[comp.dim])]
                                      if pair_ids == "1,2"
                                      else [len(comp.vertices) - 1]), case
    for spec in ("grid:4", "random:12:3:3"):
        whats = run(["solve", "darcy", "--system", "1", "--mesh", spec,
                     "--kind", "whitney"], spec)
        assert whats == ["saddle system"], (spec, whats)
    whitney_waves = {"primal": ["wave mass matrix", "wave shifted system",
                                "wave kernel mass"],
                     "dual": ["wave mass matrix", "wave shifted system"]}
    for formulation, count in (("primal", "30"), ("dual", "6")):
        for kind in hodge.KINDS:  # Lanczos serves both formulations
            whats = run(["wave", "--formulation", formulation, "--count",
                         count, "--mesh", "grid:4", "--kind", kind, "--grid",
                         "32"], (formulation, kind))
            if kind == "whitney":
                assert whats == whitney_waves[formulation], whats
        whats = run(["wave", "--formulation", formulation, "--count",
                     {"primal": "300", "dual": "6"}[formulation], "--mesh",
                     "grid:16", "--kind", "whitney"], (formulation, "grid:16"))
        assert whats == whitney_waves[formulation], whats
    assert "kernel Gram matrix" not in {what for *_, what in calls}
    assert {caller for caller, *_ in calls} == {"_symmetric_lu"}


@pytest.mark.parametrize("command, problem, sid", [
    ("darcy", "darcy", 1), ("darcy", "darcy", 3),
    ("magneto", "magnetostatics", 2), ("magneto", "magnetostatics", 4)])
def test_a_system_that_neither_lifts_nor_recovers_factors_no_gram(
        monkeypatch, tmp_path, capsys, command, problem, sid):
    """A formulation that neither lifts its load nor recovers a pressure
    through the load derivative factors no load block: not for the default
    load, and not to check an in-range `--load`."""
    comp = mesh.structured_grid(4)
    row = systems._formulation(problem, sid)
    path = tmp_path / "load.csv"
    cli.write_cochain_csv(row.default_load(comp, seed=3), path)
    calls = _recorded_splu(monkeypatch)
    for load in ([], ["--load", str(path)]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code = cli.main(["solve", command, "--mesh", "grid:4", "--system",
                             str(sid), *load, "--out", str(tmp_path)])
        assert code == 0, (load, capsys.readouterr().err)
    assert [what for *_, what in calls
            if str(what).startswith("load block")] == []


@pytest.mark.parametrize("kind", ["diag", "whitney"])
@pytest.mark.parametrize("problem, sid", [(problem, sid)
                                          for problem in PROBLEMS
                                          for sid in (1, 2, 3, 4)])
def test_a_hodge_block_with_a_sparse_inverse_is_eliminated(
        monkeypatch, kind, problem, sid):
    """`solve` factors B^T G B, of order B.shape[1], when the Hodge block's
    inverse G is sparse (every diagonal star, the Whitney dual-first
    layouts), and the whole block system otherwise (Whitney primal-first)."""
    comp = mesh.structured_grid(4)
    row = systems._formulation(problem, sid)
    M, Minv = make_pair(comp, kind, k=row.hodge_degree(comp.dim))
    system = PROBLEMS[problem](comp, sid, row.default_load(comp, seed=sid),
                               M, Minv)
    calls = _recorded_splu(monkeypatch)
    systems.solve(system)
    n0, n1 = system.B.shape
    eliminated = kind == "diag" or row.orientation == "dual-first"
    assert (system.G is not None) == eliminated
    assert calls[0][1] == (n1 if eliminated else n0 + n1)  # then recovery
