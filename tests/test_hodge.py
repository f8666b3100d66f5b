import functools
import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from decstar import Error, cli, hodge, mesh, systems, whitney
from decstar.sibson import DualInterpolation, SibsonCell, edge_forms


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
        closed = hodge.fig8_whitney_block(P)
        assert np.abs(np.abs(block) - np.abs(closed)).max() < 1e-12
        assert np.abs(np.linalg.eigvalsh(block)
                      - np.linalg.eigvalsh(closed)).max() < 1e-12
        assert hodge.fig8_whitney_condition(P) == pytest.approx(
            hodge.condition_estimate(block)["condition"], abs=1e-10
        )


def test_table1_small_resolution_sane():
    rows = hodge.table1_experiment([2.0], resolution=96)
    row = rows[0]
    assert row["cond_diag"] == pytest.approx(hodge.fig8_diag_condition(2.0))
    assert row["cond_whitney"] == pytest.approx(
        hodge.fig8_whitney_condition(2.0), rel=1e-8
    )
    assert 1.0 < row["cond_dual_inverse"] < 2.0
    csv = hodge.table1_csv(rows)
    assert csv.splitlines()[0] == "P,cond_diag,cond_whitney,cond_dual_inverse"
    assert csv.splitlines()[1].startswith("2,")


def fig8_hub_products(comp, hub, resolution):
    """The two-fan hub protocol on one hub cell, built by hand: the ring of
    the barycenters of the fan triangle on hub-v3, t123, t124 and the fan
    triangle on hub-v4, found by vertex sets, and one Sibson pass over it.
    Returns the ring and <eta12, eta12>, <eta12, eta13>, <eta13, eta13> for
    eta12 = eta(t123, t124) and eta13 = eta(t123, fan13)."""
    tri = {frozenset(t): i for i, t in enumerate(comp.simplices[2].tolist())}

    def fan(v):
        return next(i for t, i in tri.items() if {hub, v} <= t and max(t) >= 4)

    ring = [fan(2), tri[frozenset((0, 1, 2))], tri[frozenset((0, 1, 3))],
            fan(3)]
    centers = comp.vertices[comp.simplices[2][ring]].mean(axis=1)
    cell = SibsonCell(centers, restricted=True)
    labels = ring if cell.vertices is centers else ring[::-1]
    pts, w = hodge._cell_quadrature(cell, resolution)
    lam, grads = cell.coords_and_gradients_batch(pts)

    def eta(a, b):
        return edge_forms(lam, grads, [labels.index(a)], [labels.index(b)])[0]

    def dot(a, b):
        return w * float(np.einsum("qd,qd->", a, b))

    eta12, eta13 = eta(ring[1], ring[2]), eta(ring[1], ring[0])
    return ring, dot(eta12, eta12), dot(eta12, eta13), dot(eta13, eta13)


@pytest.mark.parametrize("P", [0.75, 2.0, 5.0, 10.0])
def test_fig8_block_matches_two_hub_protocol(P):
    comp = mesh.generate_fig8(P)
    ring1, vartheta1, zeta, theta_half = fig8_hub_products(comp, 0, 128)
    ring2, vartheta2, _, _ = fig8_hub_products(comp, 1, 128)
    # the hand-built rings are the ring walk's triangles, in its order
    assert (ring1, ring2) == ([2, 0, 1, 4], [3, 0, 1, 5])
    for hub, ring in ((0, ring1), (1, ring2)):
        assert [t for tag, t in mesh.vertex_ring(comp, hub)
                if tag == "c"] == ring
    # the mirror y -> 1 - y swaps the hubs: the second carries an equal half
    assert vartheta2 == pytest.approx(vartheta1, rel=1e-14, abs=0)
    block = hodge.fig8_dual_inverse_block(P, 128)
    assert block[0, 0] == pytest.approx(vartheta1 + vartheta2, rel=1e-14,
                                        abs=0)
    assert block[0, 0] == 2 * vartheta1
    assert block[0, 1] == zeta and block[1, 3] == zeta
    assert block[1, 1] == 2 * theta_half
    assert block[1, 2] == 0


def loop_dual_inverse(comp, di, k, resolution):
    """The dual-inverse star by per-entry accumulation, as a reference for
    the scattered local Gram matrices of `assemble_dual_inverse`."""
    N = len(comp.simplices[k])
    mat = sp.lil_matrix((N, N))
    for v in range(len(comp.vertices)):
        sc = di.cells[v]
        pts, w = hodge._cell_quadrature(sc, resolution)
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
    for v, sc in enumerate(di.cells):
        pts, w = hodge._cell_quadrature(sc, resolution)
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


@pytest.mark.parametrize("resolution", [8, 13, 32, 64])
def test_cell_quadrature_nodes_are_the_pixel_centers_the_cell_contains(
        resolution):
    """The per-row even-odd test claims the pixel centers that the
    per-point `SibsonCell.contains` claims, in `pixel_centers` order."""
    for i, loop in enumerate(quadrature_polygons()):
        cell = SibsonCell(loop, restricted=True)
        lo, hi = cell.vertices.min(axis=0), cell.vertices.max(axis=0)
        centers = mesh.pixel_centers(lo, hi, resolution)
        if i == 0 and resolution == 8:  # sides and a corner on centers
            assert {0.3125, 0.5625} <= set(centers[:, 1].tolist())
            assert 0.8125 in centers[:, 0]
        pts, w = hodge._cell_quadrature(cell, resolution)
        assert np.array_equal(pts, centers[cell.contains(centers)])
        assert w == np.prod(hi - lo) / resolution ** 2


@pytest.mark.parametrize("P", [0.75, 2.0])
def test_fig8_block_matches_one_point_batches(P):
    comp = mesh.generate_fig8(P)
    tris = [t for tag, t in mesh.vertex_ring(comp, 0) if tag == "c"]
    centers = comp.vertices[comp.simplices[2][tris]].mean(axis=1)
    cell = SibsonCell(centers, restricted=True)
    labels = tris if cell.vertices is centers else tris[::-1]
    fan13, t123, t124, _ = (labels.index(t) for t in tris)
    pts, w = hodge._cell_quadrature(cell, 64)
    eta12, eta13 = np.concatenate(
        [edge_forms(*cell.coords_and_gradients_batch(x[None]), [t123, t123],
                    [t124, fan13]) for x in pts], axis=1)

    def dot(a, b):
        return w * float(np.sum(a * b))

    block = hodge.fig8_dual_inverse_block(P, 64)
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
        ref = loop_dual_inverse(comp, di, k, 32)
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
