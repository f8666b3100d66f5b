import numpy as np
import pytest

from decstar import mesh
from decstar.sibson import (
    DualFacePartition,
    DualInterpolation,
    DualWhitneyForm,
    PolyCell,
    SibsonCell,
    SibsonError,
    _bisector_clip,
    clip_halfplane,
    clipped_voronoi_measures,
    is_convex,
    polygon_area,
)


def regular_polygon(n, radius=1.0, phase=0.0):
    ang = phase + 2 * np.pi * np.arange(n) / n
    return PolyCell(radius * np.column_stack([np.cos(ang), np.sin(ang)]))


def random_convex_cell(rng, n_pts=12):
    from scipy.spatial import ConvexHull

    pts = rng.uniform(-1, 1, size=(n_pts, 2))
    hull = ConvexHull(pts)
    return PolyCell(pts[hull.vertices])


def interior_points(cell, rng, count, margin):
    out = []
    lo, hi = cell.vertices.min(axis=0), cell.vertices.max(axis=0)
    scale = margin * cell.diameter
    while len(out) < count:
        p = rng.uniform(lo, hi)
        if cell.contains(p)[0] and cell.boundary_distance(p) > scale:
            out.append(p)
    return np.array(out)


def classical_reference(sc, x):
    """Classical Sibson coordinates at one point by direct half-plane
    clipping, independent of the batch kernel.

    The inserted point's Voronoi region among the sites is clipped out of a
    box around x, grown until the region stays clear of it, and then cut
    into its overlap with each site's Voronoi region.
    """
    sites = sc.sites
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    half = 4.0 * sc.cell.diameter
    for _ in range(50):
        region = x + half * corners
        for v in sites:
            region = clip_halfplane(region, 0.5 * (x + v), v - x)
        if len(region) >= 3 and np.abs(region - x).max() < half * (1 - 1e-9):
            break
        half *= 4.0
    else:
        raise AssertionError("inserted Voronoi region is unbounded")
    overlaps = np.empty(len(sites))
    for i, vi in enumerate(sites):
        sub = region
        for j, vj in enumerate(sites):
            if j == i:
                continue
            sub = clip_halfplane(sub, 0.5 * (vi + vj), vj - vi)
            if len(sub) == 0:
                break
        overlaps[i] = abs(polygon_area(sub - x)) if len(sub) >= 3 else 0.0
    return overlaps / overlaps.sum()


def test_properties_on_convex_cells():
    rng = np.random.default_rng(42)
    for trial in range(5):
        cell = random_convex_cell(rng)
        sc = SibsonCell(cell)
        assert not sc.restricted  # convex cells use the exact classical form
        pts = interior_points(cell, rng, 40, margin=1e-4)
        for p in pts:
            lam = sc.evaluate(p).coords
            assert abs(lam.sum() - 1) < 1e-10
            assert lam.min() > -1e-10
            assert np.abs(lam @ cell.vertices - p).max() < 1e-10
        batch = sc.coords_batch(pts)
        exact = np.array([classical_reference(sc, p) for p in pts])
        assert np.abs(batch - exact).max() < 1e-7


def test_lagrange_property_at_vertices():
    cell = regular_polygon(7)
    sc = SibsonCell(cell)
    for i, v in enumerate(cell.vertices):
        lam = sc.evaluate(v).coords
        expect = np.zeros(len(cell.vertices))
        expect[i] = 1.0
        assert np.abs(lam - expect).max() < 1e-12


def test_linearity_on_edges():
    cell = regular_polygon(6)
    sc = SibsonCell(cell)
    rng = np.random.default_rng(3)
    m = len(cell.vertices)
    for i in range(m):
        a, b = cell.vertices[i], cell.vertices[(i + 1) % m]
        for t in rng.uniform(0.1, 0.9, 4):
            lam = sc.evaluate((1 - t) * a + t * b).coords
            expect = np.zeros(m)
            expect[i], expect[(i + 1) % m] = 1 - t, t
            assert np.abs(lam - expect).max() < 1e-12


def test_batch_matches_single_point():
    rng = np.random.default_rng(7)
    cell = random_convex_cell(rng)
    sc = SibsonCell(cell)
    pts = interior_points(cell, rng, 20, margin=0.02)
    batch = sc.coords_batch(pts)
    for p, row in zip(pts, batch):
        assert np.abs(sc.evaluate(p).coords - row).max() < 1e-9


def test_gradients_reproduce_identity():
    rng = np.random.default_rng(11)
    cell = random_convex_cell(rng)
    sc = SibsonCell(cell)
    for p in interior_points(cell, rng, 8, margin=0.05):
        g = sc.gradients(p)
        J = g.T @ cell.vertices  # d/dx of sum lam_i v_i should be identity
        assert np.abs(J - np.eye(2)).max() < 1e-10
        batch = sc.coords_and_gradients_batch(p[None])[1][0]
        assert np.abs(batch - g).max() < 1e-12


def central_differences(sc, pts):
    """Central differences of coords_batch at h = 1e-7 * diam, (q, n, 2).

    One point per call: the classical variant sizes its bounding box by the
    batch's point nearest the boundary, and a larger box adds rounding that
    the 1 / h of a difference quotient would magnify.
    """
    h = 1e-7 * sc.cell.diameter
    steps = (np.array([h, 0.0]), np.array([0.0, h]))
    return np.array([
        np.stack([(sc.coords_batch(p + e) - sc.coords_batch(p - e))[0] / (2 * h)
                  for e in steps], axis=1)
        for p in pts
    ])


def assert_matches_differences(sc, pts):
    """Exact gradients agree with central differences and sum to zero.

    Gradients scale as 1 / diam, so gaps are compared in that unit.  At
    h = 1e-7 * diam the differences carry a rounding error of about
    eps * diam / h ~ 1e-9 of it, so the median gap must be tiny.  A stencil
    that straddles a kink of an area's second derivative (the bisector
    passing a region corner) adds O(h) there, hence the looser bound on the
    largest gap.
    """
    lam, grads = sc.coords_and_gradients_batch(pts)
    assert np.abs(lam - sc.coords_batch(pts)).max() < 1e-14
    diam = sc.cell.diameter
    gap = diam * np.abs(grads - central_differences(sc, pts)).max(axis=(1, 2))
    assert np.median(gap) < 1e-7
    assert gap.max() < 1e-4
    assert diam * np.abs(grads.sum(axis=1)).max() < 1e-12


def test_exact_gradients_on_convex_cells():
    rng = np.random.default_rng(20)
    for _ in range(5):
        cell = random_convex_cell(rng)
        sc = SibsonCell(cell)
        assert not sc.restricted
        assert_matches_differences(sc, interior_points(cell, rng, 60, 1e-3))


def test_exact_gradients_on_nonconvex_cells():
    # restricted path: an L-shaped cell, and a C-shaped one where the
    # bisector of a point in one arm can cut a site region in both arms
    cells = [
        [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]],
        [[0, 0], [3, 0], [3, 1], [1, 1], [1, 2], [3, 2], [3, 3], [0, 3]],
    ]
    rng = np.random.default_rng(21)
    for loop in cells:
        cell = PolyCell(np.array(loop, dtype=float))
        sc = SibsonCell(cell)
        assert sc.restricted
        assert_matches_differences(sc, interior_points(cell, rng, 200, 1e-3))


def test_bisector_clip_two_piece_chord():
    # x = 2 bisects x = (1, 1.2) and site (3, 1.2) and cuts both arms of the
    # C, leaving chord pieces {2} x [0, 1] and {2} x [2, 3]
    loop = np.array([[0, 0], [3, 0], [3, 1], [1, 1], [1, 2], [3, 2], [3, 3],
                     [0, 3]], dtype=float)
    area, length, moment = _bisector_clip(loop, np.array([3.0, 1.2]),
                                          np.array([[1.0, 1.2]]))
    assert area[0] == pytest.approx(5.0, abs=1e-14)
    assert length[0] == pytest.approx(2.0, abs=1e-14)
    # integral of (y - (2, 1.2)) over both pieces: (0, -0.7 + 1.3)
    assert np.abs(moment[0] - [0.0, 0.6]).max() < 1e-14


def test_exact_gradients_on_mesh_dual_polygons():
    comp = mesh.random_delaunay(60, 3)
    di = DualInterpolation(comp, mesh.build_dual(comp, "barycentric"))
    rng = np.random.default_rng(22)
    for v, cell in enumerate(di.cells):
        assert_matches_differences(di.evaluator(v),
                                   interior_points(cell, rng, 10, 1e-3))


def test_boundary_distance_batch_matches_loop():
    rng = np.random.default_rng(23)
    cell = random_convex_cell(rng)
    pts = rng.uniform(-1.5, 1.5, size=(50, 2))

    def one_point(x):  # the per-point formula, as a reference
        v = cell.vertices
        d = np.roll(v, -1, axis=0) - v
        t = np.clip(np.einsum("id,id->i", x - v, d)
                    / np.einsum("id,id->i", d, d), 0.0, 1.0)
        return float(np.linalg.norm(v + t[:, None] * d - x, axis=1).min())

    loop = np.array([one_point(p) for p in pts])
    assert np.array_equal(cell.boundary_distance(pts), loop)
    assert cell.boundary_distance(pts[0]) == loop[0]


def test_restricted_variant_on_nonconvex_cell():
    # L-shaped cell: auto mode selects the restricted construction
    loop = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                     [1.0, 2.0], [0.0, 2.0]])
    assert not is_convex(loop)
    cell = PolyCell(loop)
    sc = SibsonCell(cell)
    assert sc.restricted
    pts = interior_points(cell, np.random.default_rng(0), 25, margin=0.02)
    lam = sc.coords_batch(pts)
    assert np.abs(lam.sum(axis=1) - 1).max() < 1e-10
    assert lam.min() > -1e-10


def test_restricted_loses_linear_precision_near_boundary():
    # the restricted ratios are intentionally different from the classical
    # ones near the boundary; the library must keep both variants distinct
    cell = PolyCell(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    x = np.array([0.5, 0.1])
    lam_r = SibsonCell(cell, restricted=True).evaluate(x).coords
    lam_u = SibsonCell(cell, restricted=False).evaluate(x).coords
    assert np.abs(lam_u @ cell.vertices - x).max() < 1e-10
    assert np.abs(lam_r @ cell.vertices - x).max() > 1e-3


def test_evaluation_rejects_bad_points():
    cell = regular_polygon(5)
    with pytest.raises(SibsonError):
        SibsonCell(cell).evaluate(np.array([3.0, 3.0]))
    # sampled measures are 3D only; 2D areas come from the exact kernel
    with pytest.raises(SibsonError):
        clipped_voronoi_measures(cell, cell.vertices[0])


def test_measures_partition_cell():
    cell = regular_polygon(8, phase=0.3)
    areas = SibsonCell(cell).region_areas
    assert areas.sum() == pytest.approx(cell.measure, abs=1e-12)
    assert np.all(areas > 0)


def test_3d_sampled_partition_and_sign():
    tet = PolyCell(
        np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        faces=[[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    )
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.dirichlet(np.ones(4) * 3) @ tet.vertices
        ov = clipped_voronoi_measures(tet, x, resolution=32)
        assert np.all(ov >= 0)
        lam = ov / ov.sum()
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(SibsonError):
        clipped_voronoi_measures(tet, np.array([0.2, 0.2, 0.2]), resolution=2)


# ---------------------------------------------------------------------------
# dual interpolation on a mesh


@pytest.fixture(scope="module")
def grid_interp():
    comp = mesh.structured_grid(4)
    dual = mesh.build_dual(comp, "barycentric")
    return comp, dual, DualInterpolation(comp, dual)


def test_dual_cells_partition_domain(grid_interp):
    comp, dual, di = grid_interp
    total = sum(c.measure for c in di.cells)
    assert total == pytest.approx(comp.measures[2].sum(), abs=1e-10)


def test_site_tags_structure(grid_interp):
    comp, dual, di = grid_interp
    bdry = comp.boundary_simplices(0)
    tris = comp.simplices[2]
    for v in range(len(comp.vertices)):
        tags = di.site_tags[v]
        n_tris = int((tris == v).any(axis=1).sum())
        kinds = [t[0] for t in tags]
        if bdry[v]:
            assert kinds.count("c") == n_tris
            assert kinds.count("m") == 2
            assert kinds.count("v") == 1
        else:
            assert kinds == ["c"] * n_tris


def test_dual_vertex_form_is_cell_indicator(grid_interp):
    comp, dual, di = grid_interp
    v = int(np.argmin(np.abs(comp.vertices - comp.vertices.mean(0)).sum(1)))
    form = DualWhitneyForm(0, v)
    inside = comp.vertices[v]
    assert di.eval_form(form, inside) == pytest.approx(
        1.0 / di.cells[v].measure, abs=1e-12
    )
    other = (v + 1) % len(comp.vertices)
    assert di.eval_form(form, comp.vertices[other]) == 0.0


def test_dual_zero_form_is_sibson_coordinate(grid_interp):
    comp, dual, di = grid_interp
    v = int(np.argmin(np.abs(comp.vertices - comp.vertices.mean(0)).sum(1)))
    x = comp.vertices[v] + np.array([0.03, 0.02])
    sc = di.evaluator(v)
    lam = sc.evaluate(x).coords
    lookup = di.site_lookup[v]
    for (kind, gen), idx in lookup.items():
        if kind != "c":
            continue
        val = di.eval_form(DualWhitneyForm(2, gen), x, cell_vertex=v)
        assert val == pytest.approx(lam[idx], abs=1e-12)


def test_dual_zero_cochain_interpolation_affine(grid_interp):
    comp, dual, di = grid_interp

    def f(p):
        return 1.0 + 2.0 * p[0] - 0.5 * p[1]

    coch = np.array([
        f(comp.simplex_points(2, t).mean(axis=0))
        for t in range(len(comp.simplices[2]))
    ])
    field = di.interpolate(0, coch)
    bdry = comp.boundary_simplices(0)
    for v in np.nonzero(~bdry)[0]:
        x = comp.vertices[v] + np.array([0.01, -0.015])
        assert field(x) == pytest.approx(f(x), abs=1e-9)


def test_dual_edge_form_line_duality(grid_interp):
    comp, dual, di = grid_interp
    interior = np.nonzero(~comp.boundary_simplices(1))[0]
    e = int(interior[len(interior) // 2])
    form = DualWhitneyForm(1, e)
    t1, t2 = (int(t) for t in comp.cofaces(1, e))

    def path_integral(edge_id):
        pts = dual.cells[1][edge_id].points
        total = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            ts = np.linspace(0, 1, 81)[1::2]
            seg = b - a
            vals = [di.eval_form(form, a + t * seg) @ seg for t in ts]
            total += np.mean(vals)
        return total

    c1 = comp.simplex_points(2, t1).mean(axis=0)
    first = dual.cells[1][e].points[0]
    sign = 1.0 if np.allclose(first, c1) else -1.0
    # the circulation along the form's own dual edge is close to one, not
    # exactly one: the path runs along the boundary between two dual
    # polygons, and the restricted form of either polygon carries a few
    # percent less than one along it
    assert 0.85 < sign * path_integral(e) < 1.1
    # a distant edge's dual path carries no circulation of this form
    far = int(interior[0]) if interior[0] != e else int(interior[-1])
    if not (set(comp.simplices[1][far]) & set(comp.simplices[1][e])):
        assert abs(path_integral(far)) < 2e-2


def test_interpolate_validates_length(grid_interp):
    comp, dual, di = grid_interp
    with pytest.raises(SibsonError):
        di.interpolate(0, np.ones(3))


def test_dual_face_partition_weights():
    ring = np.array([
        [0.3, 0.0, 0.0], [0.0, 0.4, 0.0], [-0.35, 0.0, 0.1],
        [0.0, -0.3, 0.05],
    ])
    apex = np.array([0.0, 0.0, 0.6])
    part = DualFacePartition.build(ring, apex)
    assert np.asarray(part.weights).sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.asarray(part.weights) > 0)


def test_polygon_helpers():
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert polygon_area(sq) == pytest.approx(1.0)
    assert is_convex(sq)
