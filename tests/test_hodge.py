import functools
import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import Delaunay
from hypothesis import example, given, settings, strategies as st

from decstar import Error, cli, hodge, mesh, sibson, systems, whitney
from decstar.sibson import DualInterpolation, SibsonCell, edge_forms

from fig8_whitney import fig8_whitney_block, fig8_whitney_condition


def test_diag_entries_are_measure_ratios():
    comp = mesh.equilateral_grid(3)
    dual = mesh.build_dual(comp, "circumcentric")
    op = hodge.assemble_diag(comp, dual, 1)
    expect = dual.measures[1] / comp.measures[1]
    assert np.abs(op.matrix.diagonal() - expect).max() < 1e-14
    assert op.matrix.nnz == len(comp.simplices[1])


def test_diag_barycentric_warns():
    comp = mesh.structured_grid(3)
    dual = mesh.build_dual(comp, "barycentric")
    with pytest.warns(UserWarning):
        hodge.assemble_diag(comp, dual, 1)


def test_diag_rejects_degenerate_dual():
    comp = mesh.structured_grid(3)  # right triangles: circumcenters on edges
    dual = mesh.build_dual(comp, "circumcentric")
    with pytest.raises(Error, match="nonpositive"):
        hodge.assemble_diag(comp, dual, 1)


def test_whitney_star_matches_gram():
    comp = mesh.random_delaunay(20, 3)
    op = hodge.assemble_whitney(comp, 1)
    G = whitney.whitney_gram_matrix(comp, 1)
    assert np.abs((op.matrix - G).toarray()).max() == 0


def test_whitney_star_sparsity_lemma():
    # entries vanish unless the two simplices share a containing element
    comp = mesh.random_delaunay(25, 12)
    op = hodge.assemble_whitney(comp, 1).matrix.tocoo()
    for i, j in zip(op.row, op.col):
        cells_i = set(comp.cofaces(1, int(i)).tolist())
        cells_j = set(comp.cofaces(1, int(j)).tolist())
        assert cells_i & cells_j


def test_dual_inverse_symmetric_pd_and_sparse():
    comp = mesh.structured_grid(4)
    dual = mesh.build_dual(comp, "barycentric")
    for k in (0, 1, 2):
        op = hodge.assemble_dual_inverse(comp, dual, k, resolution=48)
        A = op.matrix.toarray()
        assert np.abs(A - A.T).max() < 1e-12
        assert np.linalg.eigvalsh(A).min() > 0
        report = hodge.sparsity_audit(op, comp)
        assert report.within_bound


def test_dual_inverse_vertex_block_is_inverse_areas():
    comp = mesh.structured_grid(3)
    dual = mesh.build_dual(comp, "barycentric")
    di = DualInterpolation(comp, dual)
    op = hodge.assemble_dual_inverse(comp, dual, 0)
    expect = np.array([1.0 / c.measure for c in di.cells])
    assert np.abs(op.matrix.diagonal() - expect).max() < 1e-14


def test_dual_inverse_requires_2d():
    comp = mesh.random_delaunay(12, 1, dim=3)
    dual = mesh.build_dual(comp, "barycentric")
    with pytest.raises(Error, match="implemented for 2D meshes"):
        hodge.assemble_dual_inverse(comp, dual, 1)


def test_dual_inverse_resolution_guard():
    comp = mesh.structured_grid(3)
    dual = mesh.build_dual(comp, "barycentric")
    with pytest.raises(Error, match="resolution"):
        hodge.assemble_dual_inverse(comp, dual, 2, resolution=3)


def test_hodge_pair_exact_inverses():
    comp = mesh.structured_grid(3)
    dual = mesh.build_dual(comp, "barycentric")
    for kind, k in itertools.product(("diag", "whitney", "dual_inverse"),
                                     (1, 2)):
        with np.errstate(all="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                M, Minv = hodge.hodge_pair(comp, dual, k, kind, resolution=48)
        assembled, derived = (Minv, M) if kind == "dual_inverse" else (M, Minv)
        diagonal = assembled.nnz == np.count_nonzero(assembled.diagonal())
        assert isinstance(derived, systems.FactorizedInverse) != diagonal
        eye = np.eye(M.shape[0])
        prod = M @ (Minv @ eye)
        assert np.abs(prod - eye).max() < 1e-10


def test_condition_estimate_full_and_block():
    A = np.diag([4.0, 2.0, 1.0])
    est = hodge.condition_estimate(A)
    assert est["condition"] == pytest.approx(4.0)
    est2 = hodge.condition_estimate(A, "leading-block", 2)
    assert est2["condition"] == pytest.approx(2.0)
    singular = hodge.condition_estimate(np.zeros((2, 2)))
    assert singular["condition"] == np.inf


@pytest.mark.parametrize("k", [0, 1, 2])
def test_condition_estimate_is_scale_invariant(k):
    """A star is singular only relative to its largest eigenvalue: the
    Whitney stars of grid:4 shrunk by 1e-5 (k = 0 entries near 1e-12) keep
    their condition numbers."""
    comp = mesh.structured_grid(4)
    small = mesh.build_complex(1e-5 * comp.vertices, comp.simplices[2])
    want, got = (hodge.condition_estimate(hodge.assemble_whitney(c, k).matrix)
                 ["condition"] for c in (comp, small))
    assert np.isfinite(want)
    assert got == pytest.approx(want, rel=1e-9)


def _dual_inverse_star(spec, k, scale=1.0, shift=0.0):
    comp = cli.resolve_mesh(spec)
    comp = mesh.build_complex(scale * comp.vertices + shift,
                              comp.simplices[2])
    dual = mesh.build_dual(comp, "barycentric")
    return hodge.assemble_dual_inverse(comp, dual, k, 32).matrix.toarray()


ASSEMBLE = {"darcy": systems.assemble_darcy,
            "magnetostatics": systems.assemble_magnetostatics}


def _scaled_outputs(spec, j):
    """The outputs of the pipeline on mesh `spec` scaled by 2^j, each as
    (value, e): it should be its value at 2^0 times 2^(e j), or times some
    power of two for e None.  The stars, spectra and solves read the
    barycentric dual."""
    comp = cli.resolve_mesh(spec)
    n = comp.dim
    comp = mesh.build_complex(np.ldexp(comp.vertices, j), comp.simplices[n])
    duals = {rule: mesh.build_dual(comp, rule)
             for rule in (mesh.BARYCENTRIC, mesh.CIRCUMCENTRIC)}
    dual = duals[mesh.BARYCENTRIC]
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the barycentric diag star warns
        for k in range(n + 1):
            out[f"measure {k}"] = comp.measures[k], k
            for rule, d in duals.items():
                out[f"{rule} dual measure {k}"] = d.measures[k], n - k
            for kind in ("diag", "whitney"):
                star = hodge.assemble(kind, comp, dual, k).matrix
                out[f"{kind} star {k}"] = star, n - 2 * k
                out[f"{kind} cond {k}"] = np.array(
                    [hodge.condition_estimate(star)["condition"]]), 0
        if n == 2:
            for k in (1, 2):
                star = hodge.assemble_dual_inverse(comp, dual, k, 32).matrix
                out[f"dual_inverse star {k}"] = star, 2 * k - n
        for kind in ("diag", "whitney"):
            pairs = {d: hodge.hodge_pair(comp, dual, d, kind) for d in (1, 2)}
            for form in ("primal", "dual"):
                (M1, M1inv), (M2, M2inv) = pairs[1], pairs[2]
                ws = systems.assemble_wave(comp, form, M1, M2, M1inv, M2inv)
                out[f"{kind} {form} wave"] = ws.eigenpairs(8), -2
            for (problem, sid), row in systems._FORMULATIONS.items():
                system = ASSEMBLE[problem](comp, sid,
                                           row.default_load(comp, sid),
                                           *pairs[row.hodge_degree(n)])
                for gauge in ("pin", "augment"):
                    report = systems.solve(system, gauge)
                    name = f"{kind} {problem} {sid} {gauge}"
                    out[f"{name} residual"] = np.array([report.residual]), 0
                    for key, value in report.recovered.items():
                        out[f"{name} {key}"] = value, None
    return out


@functools.cache
def _unit_outputs(spec):
    return _scaled_outputs(spec, 0)


def _is_scaled(got, want, e) -> bool:
    """got == want 2^e bit for bit; for e None, 2^e is the ratio of their
    largest magnitudes."""
    got, want = (a.toarray() if sp.issparse(a) else np.asarray(a)
                 for a in (got, want))
    if e is None:
        e = np.frexp(np.abs(got).max() / np.abs(want).max())[1] - 1
    return np.array_equal(got, np.ldexp(want, e))


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(j=st.integers(-40, 40))
@example(j=-40)
@example(j=40)
@pytest.mark.parametrize("spec",
                         ["grid:4:0.3", "random:30:7", "random:30:2:3"])
def test_dual_inverse_star_scales_exactly_by_powers_of_two(spec, j):
    """Scaling a mesh by 2^j is exact in binary floating point, and so is
    every step after it: measures, dual measures under both rules, the
    diag, Whitney and (2D) dual-inverse stars, their condition numbers, the
    wave spectra, and the recovered cochains and residual of every mixed
    formulation under both gauges scale by their power of two, bit for
    bit.  Absolute tolerances once merged distinct dual-inverse sites on a
    mesh shrunk by 2^-24 and moved the k = 1 star by 91% of its largest
    entry; numpy's LU determinant made no measure of degree k >= 1 scale
    exactly."""
    want = _unit_outputs(spec)
    got = _scaled_outputs(spec, j)
    assert got.keys() == want.keys()
    for name, (value, e) in got.items():
        assert _is_scaled(value, want[name][0],
                          None if e is None else e * j), name


@pytest.mark.parametrize("shift", [2.0 ** 12, 2.0 ** 14])
def test_dual_inverse_star_is_blind_to_translation(shift):
    """Translating random:30:7 far from the origin moves its k = 1 star by
    rounding only, where coordinate-relative tolerances once merged distinct
    sites and moved it by 25% (2^12) and 91% (2^14) of its largest entry."""
    want = _dual_inverse_star("random:30:7", 1)
    got = _dual_inverse_star("random:30:7", 1, shift=shift)
    assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


def signed_relabelling(old, new, perm, k):
    """The signed permutation P taking k-cochains of `old` to those of
    `new`, in which old vertex v is vertex perm[v]: a k-simplex maps to the
    sorted tuple of its relabelled vertices, with the sign of that sort,
    and a top cell also with both complexes' cell orientations."""
    mapped = perm[old.simplices[k]]
    inversions = sum((mapped[:, i] > mapped[:, j]
                      for i, j in itertools.combinations(range(k + 1), 2)),
                     np.zeros(len(mapped), dtype=int))
    sign = (-1.0) ** inversions
    index = {tuple(s): i for i, s in enumerate(new.simplices[k].tolist())}
    rows = [index[tuple(s)] for s in np.sort(mapped, axis=1).tolist()]
    if k == old.dim:
        sign = sign * old.orientation * new.orientation[rows]
    n = len(rows)
    return sp.csr_matrix((sign, (rows, np.arange(n))), shape=(n, n))


def _relabelling_cases():
    for n, seed, dim in [(120, 1, 2), (30, 7, 2), (40, 2, 3)]:
        for kind, k in itertools.product(hodge.KINDS, range(dim + 1)):
            if kind == "dual_inverse" and dim == 3:
                continue
            yield pytest.param((n, seed, dim), kind, k,
                               id=f"random:{n}:{seed}:{dim}-{kind}-k{k}")


@pytest.mark.parametrize("args, kind, k", _relabelling_cases())
def test_every_star_is_covariant_under_relabelling(relabelled_delaunay, args,
                                                   kind, k):
    """Relabelling `mesh.random_delaunay(*args)` (a vertex permutation, a
    cell shuffle and a vertex order within each cell) turns each star S
    into P S P^T for the signed permutation P of its k-simplices, to 1e-12
    of max |S|."""
    old = mesh.random_delaunay(*args)
    verts, cells = relabelled_delaunay(*args)
    new = mesh.build_complex(verts, cells)
    # old vertex v is the row of `verts` with its coordinates
    row = {tuple(x): i for i, x in enumerate(verts.tolist())}
    perm = np.array([row[tuple(x)] for x in old.vertices.tolist()])
    stars = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "diagonal Hodge star with a "
                                "barycentric dual")
        for comp in (old, new):
            star = hodge.star_input(kind, comp, "barycentric")
            stars.append(hodge.assemble(kind, comp, star, k, 32).matrix)
    P = signed_relabelling(old, new, perm, k)
    S, S_new = stars
    assert abs(S_new - P @ S @ P.T).max() <= 1e-12 * abs(S).max()


def jittered_lattice(m, seed):
    """The benchmark's mesh family: the Delaunay triangulation of an m x m
    lattice on the unit box, each node moved by up to 0.3 lattice spacings,
    boundary nodes only along their side and the corners not at all."""
    rng = np.random.default_rng(seed)
    axis = np.linspace(0.0, 1.0, m)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"),
                   axis=-1).reshape(-1, 2)
    h = 1.0 / (m - 1)
    offsets = rng.uniform(-0.3 * h, 0.3 * h, pts.shape)
    offsets[(pts == 0.0) | (pts == 1.0)] = 0.0
    pts = pts + offsets
    cells = [sorted(c.tolist()) for c in Delaunay(pts).simplices
             if abs(np.linalg.det(pts[c[1:]] - pts[c[0]])) > 1e-10]
    return mesh.build_complex(pts, sorted(cells))


@pytest.mark.parametrize("spec", ["random:120:1", "random:30:7", "grid:8:0.3",
                                  "lattice:8:7"])
def test_dual_inverse_star_keeps_its_bits_under_a_cell_shuffle(spec):
    """Shuffling the input cells, and the vertices within each, renumbers
    the triangles and nothing else: the edges, their orientation and every
    dual polygon stay, and so does each bit of the k = 1 star, whose dual
    edges take their direction from the mesh, not from the numbering.
    `lattice:m:seed` is a `jittered_lattice`."""
    name, _, args = spec.partition(":")
    comp = (jittered_lattice(*map(int, args.split(":"))) if name == "lattice"
            else cli.resolve_mesh(spec))
    rng = np.random.default_rng(37)
    cells = comp.simplices[2][rng.permutation(len(comp.simplices[2]))]
    shuffled = mesh.build_complex(comp.vertices, rng.permuted(cells, axis=1))
    assert not np.array_equal(shuffled.simplices[2], comp.simplices[2])
    assert np.array_equal(shuffled.simplices[1], comp.simplices[1])
    stars = [hodge.assemble_dual_inverse(
        c, mesh.build_dual(c, "barycentric"), 1, 32).matrix
        for c in (comp, shuffled)]
    assert np.array_equal(stars[0].indptr, stars[1].indptr)
    assert np.array_equal(stars[0].indices, stars[1].indices)
    assert stars[0].data.tobytes() == stars[1].data.tobytes()


def test_neighborhood_size():
    comp = mesh.two_triangle_mesh()
    # the diagonal edge touches all vertices, hence both triangles
    diag_edge = next(
        i for i, e in enumerate(comp.simplices[1].tolist())
        if len(comp.cofaces(1, i)) == 2
    )
    assert hodge.neighborhood_sizes(comp, 1)[diag_edge] == 2


def test_fig8_diag_closed_forms():
    for P in (2.0, 5.0, 10.0):
        comp = mesh.generate_fig8(P)
        dual = mesh.build_dual(comp, "circumcentric")
        op = hodge.assemble_diag(comp, dual, 1)
        lead, rho = hodge.fig8_diag_entries(P)
        assert op.matrix.diagonal()[0] == pytest.approx(lead, abs=1e-12)
        assert rho > 0
        assert hodge.fig8_diag_condition(P) == pytest.approx(lead / rho,
                                                             abs=1e-12)


@pytest.mark.parametrize("P", [0.6, 0.8])
def test_fig8_diag_condition_below_the_crossover(P):
    # below P ~ 0.9038 the four rho entries are the larger ones
    lead, rho = hodge.fig8_diag_entries(P)
    assert lead < rho
    eig = np.linalg.eigvalsh(np.diag([lead, rho, rho, rho, rho]))
    cond = hodge.fig8_diag_condition(P)
    assert cond >= 1.0
    assert cond == pytest.approx(eig[-1] / eig[0], rel=1e-14)


def test_fig8_whitney_block_matches_assembly():
    for P in (2.0, 5.0):
        comp = mesh.generate_fig8(P)
        block = hodge.assemble_whitney(comp, 1).matrix.toarray()[:5, :5]
        closed = fig8_whitney_block(P)
        assert np.abs(np.abs(block) - np.abs(closed)).max() < 1e-12
        assert np.abs(np.linalg.eigvalsh(block)
                      - np.linalg.eigvalsh(closed)).max() < 1e-12
        assert fig8_whitney_condition(P) == pytest.approx(
            hodge.condition_estimate(block)["condition"], abs=1e-10
        )


def test_table1_small_resolution_sane():
    rows = hodge.table1_experiment([2.0], resolution=96)
    row = rows[0]
    assert row["cond_diag"] == pytest.approx(hodge.fig8_diag_condition(2.0))
    assert row["cond_whitney"] == pytest.approx(
        fig8_whitney_condition(2.0), rel=1e-8
    )
    assert 1.0 < row["cond_dual_inverse"] < 2.0
    csv = hodge.table1_csv(rows)
    assert csv.splitlines()[0] == "P,cond_diag,cond_whitney,cond_dual_inverse"
    assert csv.splitlines()[1].startswith("2,")


def fig8_hub_cell(comp, hub):
    """One hub cell of the two-fan mesh, built by hand: the ring of the
    barycenters of the fan triangle on hub-v3, t123, t124 and the fan
    triangle on hub-v4, found by vertex sets, its restricted Sibson cell,
    and the ring's triangle at each of the cell's sites."""
    tri = {frozenset(t): i for i, t in enumerate(comp.simplices[2].tolist())}

    def fan(v):
        return next(i for t, i in tri.items() if {hub, v} <= t and max(t) >= 4)

    ring = [fan(2), tri[frozenset((0, 1, 2))], tri[frozenset((0, 1, 3))],
            fan(3)]
    centers = comp.vertices[comp.simplices[2][ring]].mean(axis=1)
    cell = SibsonCell(centers, restricted=True)
    return ring, cell, ring if cell.vertices is centers else ring[::-1]


def fig8_hub_products(comp, hub, resolution):
    """The two-fan hub protocol on one whole hub cell (`fig8_hub_cell`):
    one Sibson pass over it, `sibson.CLIP_CHUNK` points at a time.  Returns
    the ring and <eta12, eta12>, <eta12, eta13>, <eta13, eta13> for
    eta12 = eta(t123, t124) and eta13 = eta(t123, fan13)."""
    ring, cell, labels = fig8_hub_cell(comp, hub)
    pts, w = next(hodge._cell_quadrature([cell], resolution))
    sums = np.zeros(3)
    for lo in range(0, len(pts), sibson.CLIP_CHUNK):
        lam, grads = cell.coords_and_gradients_batch(
            pts[lo:lo + sibson.CLIP_CHUNK])

        def eta(a, b):
            return edge_forms(lam, grads, [labels.index(a)],
                              [labels.index(b)])[0]

        eta12, eta13 = eta(ring[1], ring[2]), eta(ring[1], ring[0])
        sums += [np.einsum("qd,qd->", eta12, eta12),
                 np.einsum("qd,qd->", eta12, eta13),
                 np.einsum("qd,qd->", eta13, eta13)]
    return (ring, *(w * sums))


def fig8_half_hub_products(comp, resolution):
    """The first hub's three products from the right half of its cell, as
    the Table 1 block takes them: one Sibson pass over the nodes with
    x >= -tol, tol = 1e-12 of the cell's width, `sibson.CLIP_CHUNK` of them
    at a time, and the nodes m with x > tol once more through the mirror
    x -> -x, which swaps t123 with t124 and fan13 with fan14:
    <eta12, eta12> = sum |eta12|^2 + sum_m |eta12|^2,
    <eta12, eta13> = sum eta12 . eta13 - sum_m eta12 . eta24 and
    <eta13, eta13> = sum |eta13|^2 + sum_m |eta24|^2,
    for eta24 = eta(t124, fan14)."""
    ring, cell, labels = fig8_hub_cell(comp, 0)
    pts, w = next(hodge._cell_quadrature([cell], resolution))
    tol = 1e-12 * (cell.vertices[:, 0].max() - cell.vertices[:, 0].min())
    pts = pts[pts[:, 0] >= -tol]
    half, mirror = np.zeros(3), np.zeros(3)
    for lo in range(0, len(pts), sibson.CLIP_CHUNK):
        chunk = pts[lo:lo + sibson.CLIP_CHUNK]
        lam, grads = cell.coords_and_gradients_batch(chunk)

        def eta(a, b):  # (2, q): the forms' points-last storage
            return edge_forms(lam, grads, [labels.index(a)],
                              [labels.index(b)])[0].T

        eta12, eta13, eta24 = (eta(ring[1], ring[2]), eta(ring[1], ring[0]),
                               eta(ring[2], ring[3]))
        half += [np.einsum("dq,dq->", eta12, eta12),
                 np.einsum("dq,dq->", eta12, eta13),
                 np.einsum("dq,dq->", eta13, eta13)]
        # m is a tail of the chunk, the nodes coming x slowest; its slice
        # of the (2, q) storage is a view, like the block's
        axis = np.count_nonzero(chunk[:, 0] <= tol)
        assert np.all(chunk[axis:, 0] > tol)
        eta12, eta24 = eta12[:, axis:], eta24[:, axis:]
        mirror += [np.einsum("dq,dq->", eta12, eta12),
                   np.einsum("dq,dq->", eta12, eta24),
                   np.einsum("dq,dq->", eta24, eta24)]
    return w * (half + [1.0, -1.0, 1.0] * mirror)


@pytest.mark.parametrize("P", [0.75, 2.0, 5.0, 10.0])
def test_fig8_block_matches_two_hub_protocol(P):
    comp = mesh.generate_fig8(P)
    # at 17, the middle column of pixels lies on the axis x = 0
    for resolution in (128, 17):
        ring1, vartheta1, zeta, theta_half = fig8_hub_products(comp, 0,
                                                               resolution)
        ring2, vartheta2, _, _ = fig8_hub_products(comp, 1, resolution)
        # the hand-built rings are the ring walk's triangles, in its order
        assert (ring1, ring2) == ([2, 0, 1, 4], [3, 0, 1, 5])
        for hub, ring in ((0, ring1), (1, ring2)):
            assert [t for tag, t in mesh.vertex_ring(comp, hub)
                    if tag == "c"] == ring
        # the mirror y -> 1 - y swaps the hubs: the second carries an equal
        # half
        assert vartheta2 == pytest.approx(vartheta1, rel=1e-14, abs=0)
        block = hodge.fig8_dual_inverse_block(comp, resolution)
        # the mirror x -> -x gives the left half of the first hub's cell
        half = fig8_half_hub_products(comp, resolution)
        assert block[0, 0] == 2 * half[0]
        assert block[0, 1] == half[1] and block[1, 3] == half[1]
        assert block[1, 1] == 2 * half[2]
        assert block[1, 2] == 0
        # and the whole cell's sums within rounding
        assert block[0, 0] == pytest.approx(vartheta1 + vartheta2,
                                            rel=1e-14, abs=0)
        bound = 1e-14 * np.abs(block).max()
        assert abs(block[0, 0] - (vartheta1 + vartheta2)) <= bound
        assert abs(block[0, 1] - zeta) <= bound
        assert abs(block[1, 1] - 2 * theta_half) <= bound


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(P=st.floats(0.5, 200, exclude_min=True), resolution=st.integers(16, 96))
def test_fig8_hub_cell_is_its_own_x_mirror(P, resolution):
    """The Table 1 block integrates over the right half of the first hub's
    cell and mirrors it: that holds only while the cell's corners and
    `_cell_quadrature`'s inside mask are exact mirrors under x -> -x."""
    _, cell, _ = fig8_hub_cell(mesh.generate_fig8(P), 0)
    corners = {(x, y) for x, y in cell.vertices.tolist()}
    assert corners == {(-x, y) for x, y in corners}
    pts, _ = next(hodge._cell_quadrature([cell], resolution))
    # each node's pixel: its center is lo + (i + 1/2) span / m
    lo, hi = cell.vertices.min(axis=0), cell.vertices.max(axis=0)
    ij = np.rint((pts - lo) / (hi - lo) * resolution - 0.5).astype(int)
    inside = np.zeros((resolution, resolution), dtype=bool)
    inside[ij[:, 0], ij[:, 1]] = True
    assert np.count_nonzero(inside) == len(pts)
    assert np.array_equal(inside, inside[::-1])


def entry_dual_inverse(comp, di, k, resolution):
    """The dual-inverse star by per-entry accumulation, as a reference for
    the scattered local Gram matrices of `assemble_dual_inverse`."""
    N = len(comp.simplices[k])
    mat = sp.lil_matrix((N, N))
    quadrature = hodge._cell_quadrature(di.cells, resolution)
    for v, (sc, (pts, w)) in enumerate(zip(di.cells, quadrature)):
        lookup = di.site_lookup[v]
        if k == 2:
            lam = sc.coords_batch(pts)
            fields = [(g, lam[:, i]) for (kind, g), i in lookup.items()
                      if kind == "c"]
        else:
            lam, grads = sc.coords_and_gradients_batch(pts)
            fields = []
            for e in comp.cofaces(0, v).tolist():
                tag_a, tag_b = di.edge_endpoint_tags(e)
                if tag_a in lookup and tag_b in lookup:
                    ia, ib = lookup[tag_a], lookup[tag_b]
                    fields.append((e, lam[:, ia, None] * grads[:, ib]
                                   - lam[:, ib, None] * grads[:, ia]))
        for a, (ga, Fa) in enumerate(fields):
            for gb, Fb in fields[a:]:
                val = w * float(np.sum(Fa * Fb))
                mat[ga, gb] += val
                if ga != gb:
                    mat[gb, ga] += val
    return mat.tocsr()


def one_point_dual_inverse(comp, di, k, resolution):
    """The dense dual-inverse star from batches of one point through the
    public batch methods and `edge_forms`: a reference for the points-last
    layout from the clip kernel to the Gram matrix."""
    N = len(comp.simplices[k])
    star = np.zeros((N, N))
    quadrature = hodge._cell_quadrature(di.cells, resolution)
    for v, (sc, (pts, w)) in enumerate(zip(di.cells, quadrature)):
        lookup = di.site_lookup[v]
        if k == 2:
            gens = [g for kind, g in lookup if kind == "c"]
            sites = [lookup["c", g] for g in gens]
            fields = np.array([sc.coords_batch(x[None])[0, sites]
                               for x in pts]).T  # (G, q)
        else:
            gens = comp.cofaces(0, v).tolist()
            ia, ib = np.array([[lookup[t] for t in di.edge_endpoint_tags(e)]
                               for e in gens]).T
            fields = np.concatenate(
                [edge_forms(*sc.coords_and_gradients_batch(x[None]), ia, ib)
                 for x in pts], axis=1)  # (G, q, 2)
        fields = fields.reshape(len(gens), -1)
        star[np.ix_(gens, gens)] += w * (fields @ fields.T)
    return star


# random:30:7 leaves fewer than 10 pixels in some dual polygon at grid 8
@pytest.mark.parametrize("spec, resolution", [("grid:3", 8),
                                              ("random:30:7", 12)])
@pytest.mark.parametrize("k", [1, 2])
def test_dual_inverse_matches_one_point_batches(spec, resolution, k):
    comp = cli.resolve_mesh(spec)
    dual = mesh.build_dual(comp, "barycentric")
    di = DualInterpolation(comp, dual)
    star = hodge.assemble_dual_inverse(comp, dual, k,
                                       resolution).matrix.toarray()
    ref = one_point_dual_inverse(comp, di, k, resolution)
    assert np.abs(star - ref).max() <= 1e-13 * np.abs(ref).max()


def quadrature_polygons() -> list:
    """A non-convex polygon on the unit box with horizontal sides, one of
    them on a pixel row at resolution 8 (y = 9/16), a corner on another
    (y = 5/16) and a vertical side through pixel centers (x = 13/16); and
    random star-shaped polygons of 3 to 14 corners."""
    polygons = [np.array([[0, 0], [1, 0], [1, 0.4], [0.8125, 0.4],
                          [0.8125, 0.5625], [0.6, 0.5625], [0.5, 1],
                          [0.2, 0.3125], [0, 0.5]])]
    rng = np.random.default_rng(34)
    for n in (3, 5, 9, 14):
        angles = np.sort(rng.uniform(0, 2 * np.pi, n))
        radii = rng.uniform(0.3, 1.0, n)
        polygons.append(radii[:, None] * np.column_stack(
            [np.cos(angles), np.sin(angles)]) + rng.uniform(-2, 2, 2))
    return polygons


def pixel_quadrature(cell, resolution):
    """One polygon's quadrature nodes and weight from the per-point
    `SibsonCell.contains` over its bbox's `pixel_centers`."""
    lo, hi = cell.vertices.min(axis=0), cell.vertices.max(axis=0)
    centers = mesh.pixel_centers(lo, hi, resolution)
    return centers[cell.contains(centers)], np.prod(hi - lo) / resolution ** 2


@pytest.mark.parametrize("resolution", [8, 13, 32, 64])
def test_cell_quadrature_nodes_are_the_pixel_centers_the_cell_contains(
        monkeypatch, resolution):
    """The per-row even-odd test claims the pixel centers that the
    per-point `SibsonCell.contains` claims, in `pixel_centers` order: for
    each polygon alone, and for all of them, of 3 to 14 corners, in one
    group, where the shorter side loops are padded."""
    cells = [SibsonCell(loop, restricted=True)
             for loop in quadrature_polygons()]
    lo, hi = cells[0].vertices.min(axis=0), cells[0].vertices.max(axis=0)
    centers = mesh.pixel_centers(lo, hi, resolution)
    if resolution == 8:  # sides and a corner on centers
        assert {0.3125, 0.5625} <= set(centers[:, 1].tolist())
        assert 0.8125 in centers[:, 0]
    alone = [q for cell in cells
             for q in hodge._cell_quadrature([cell], resolution)]
    monkeypatch.setattr(hodge, "PIXEL_BUDGET", len(cells) * resolution ** 2)
    grouped = list(hodge._cell_quadrature(cells, resolution))
    for cell, one, group in zip(cells, alone, grouped, strict=True):
        pts, w = pixel_quadrature(cell, resolution)
        for got_pts, got_w in (one, group):
            assert np.array_equal(got_pts, pts)
            assert got_w == w


def loop_dual_inverse(comp, di, k, resolution):
    """The dual-inverse star one polygon at a time: its nodes by
    `pixel_quadrature`, its local Gram block's upper triangle mirrored, and
    its COO rows and columns built with it."""
    N = len(comp.simplices[k])
    rows, cols, vals = [], [], []
    for v, cell in enumerate(di.cells):
        pts, w = pixel_quadrature(cell, resolution)
        gens, fields = di.forms(v, k, pts)
        fields = fields.reshape(len(gens), -1)
        gram = np.triu(w * np.einsum("aq,bq->ab", fields, fields))
        gram += np.triu(gram, 1).T
        rows.append(np.repeat(gens, len(gens)))
        cols.append(np.tile(gens, len(gens)))
        vals.append(gram.ravel())
    mat = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                np.concatenate(cols))),
                        shape=(N, N)).tocsr()
    mat.eliminate_zeros()
    return mat


# random:40:1 has edges whose form vanishes on its whole support
@pytest.mark.parametrize("spec, resolution", [
    ("grid:3", 8), ("random:30:7", 12), ("grid:16:0.5", 16),
    ("random:40:1", 32)])
@pytest.mark.parametrize("k", [1, 2])
def test_grouped_star_is_the_polygon_loop_bit_for_bit(monkeypatch, spec,
                                                      resolution, k):
    """A budget of one pixel, a group of one polygon; and groups of three,
    the last one short."""
    comp = cli.resolve_mesh(spec)
    di = DualInterpolation(comp, mesh.build_dual(comp, "barycentric"))
    assert len(di.cells) % 3
    ref = loop_dual_inverse(comp, di, k, resolution)
    for budget in (1, 3 * resolution ** 2):
        monkeypatch.setattr(hodge, "PIXEL_BUDGET", budget)
        star = hodge.assemble_dual_inverse(comp, di, k, resolution).matrix
        assert np.array_equal(star.indptr, ref.indptr)
        assert np.array_equal(star.indices, ref.indices)
        assert star.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("per_group", [3, None])
def test_too_few_samples_name_the_first_such_vertex_of_a_group(monkeypatch,
                                                               per_group):
    """The dual polygons of vertices 2 and 3 of random:30:4 hold fewer than
    10 pixel centers at resolution 8: the error names vertex 2, the last of
    a group of three, or the third of a group of all the polygons."""
    comp = cli.resolve_mesh("random:30:4")
    di = DualInterpolation(comp, mesh.build_dual(comp, "barycentric"))
    few = [v for v, cell in enumerate(di.cells)
           if len(pixel_quadrature(cell, 8)[0]) < 10]
    assert few[:2] == [2, 3]
    if per_group:
        monkeypatch.setattr(hodge, "PIXEL_BUDGET", per_group * 8 ** 2)
    else:
        assert hodge.PIXEL_BUDGET >= len(di.cells) * 8 ** 2
    with pytest.raises(Error, match="leaves fewer than 10 interior samples "
                       "in the dual polygon of vertex 2$"):
        hodge.assemble_dual_inverse(comp, di, 1, 8)


@pytest.mark.parametrize("P", [0.75, 2.0])
def test_fig8_block_matches_one_point_batches(P):
    # the whole hub cell, point by point; at 17, the middle column of
    # pixels lies on the axis x = 0
    comp = mesh.generate_fig8(P)
    tris = [t for tag, t in mesh.vertex_ring(comp, 0) if tag == "c"]
    centers = comp.vertices[comp.simplices[2][tris]].mean(axis=1)
    cell = SibsonCell(centers, restricted=True)
    labels = tris if cell.vertices is centers else tris[::-1]
    fan13, t123, t124, _ = (labels.index(t) for t in tris)
    for resolution in (64, 17):
        pts, w = next(hodge._cell_quadrature([cell], resolution))
        eta12, eta13 = np.concatenate(
            [edge_forms(*cell.coords_and_gradients_batch(x[None]),
                        [t123, t123], [t124, fan13]) for x in pts], axis=1)

        def dot(a, b):
            return w * float(np.sum(a * b))

        block = hodge.fig8_dual_inverse_block(comp, resolution)
        want = {(0, 0): 2 * dot(eta12, eta12), (0, 1): dot(eta12, eta13),
                (1, 1): 2 * dot(eta13, eta13)}
        for (i, j), value in want.items():
            assert block[i, j] == pytest.approx(value, rel=1e-13, abs=0)


def test_dual_inverse_matches_per_entry_assembly():
    # random_delaunay(40, 1) has edges whose form vanishes on its whole
    # support, so exact-zero entries must not be stored
    comp = mesh.random_delaunay(40, 1)
    dual = mesh.build_dual(comp, "barycentric")
    di = DualInterpolation(comp, dual)
    for k in (1, 2):
        A = hodge.assemble_dual_inverse(comp, dual, k, 32)
        ref = entry_dual_inverse(comp, di, k, 32)
        assert A.matrix.nnz == ref.nnz
        assert ((A.matrix != 0) != (ref != 0)).nnz == 0
        scale = abs(ref).max()
        assert abs(A.matrix - ref).max() <= 1e-12 * scale
        assert (A.matrix != A.matrix.T).nnz == 0


def test_singular_star_is_a_hodge_error():
    # at resolution 16 the pixel rule misses the dual cell of a sliver
    # triangle, which leaves the dual-inverse star a zero row
    comp = mesh.random_delaunay(6, 0)
    dual = mesh.build_dual(comp, "barycentric")
    with pytest.raises(Error, match="singular"):
        hodge.hodge_pair(comp, dual, 1, "dual_inverse", resolution=16)
