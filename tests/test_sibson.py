import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decstar import Error, cli, hodge, mesh, sibson, whitney
from decstar.sibson import (
    DualInterpolation,
    SibsonCell,
    _bisector_clip,
    polygon_area,
)


def clip_halfplane(loop: np.ndarray, point, normal) -> np.ndarray:
    """Sutherland-Hodgman clip keeping {y : (y - point) . normal <= 0}, one
    loop at a time: the reference that `sibson._site_regions` must match.

    The signed distances come from one matrix product; the walk over the
    corners runs on Python floats, whose arithmetic is numpy's."""
    point = np.asarray(point, dtype=float)
    normal = np.asarray(normal, dtype=float)
    d = ((loop - point) @ normal).tolist()
    corners = loop.tolist()
    out = []
    m = len(corners)
    for i in range(m):
        (ax, ay), (bx, by) = corners[i], corners[(i + 1) % m]
        da, db = d[i], d[(i + 1) % m]
        if da <= 0:
            out.append((ax, ay))
        if (da <= 0) != (db <= 0):
            t = da / (da - db)
            out.append((ax + t * (bx - ax), ay + t * (by - ay)))
    return np.array(out) if out else np.empty((0, 2))


def site_regions_reference(loop: np.ndarray, domain: np.ndarray) -> list:
    """Voronoi region of each site of `loop` clipped to `domain`, one
    `clip_halfplane` per pair of sites; None for a region with fewer than
    three corners."""
    # coincident sites: each coordinate within 1e-8 of the loop's extent
    close = (np.abs(loop[:, None] - loop[None]).max(axis=2)
             <= 1e-8 * np.ptp(loop, axis=0).max())
    regions = []
    for i, vi in enumerate(loop):
        region = domain
        for j, vj in enumerate(loop):
            if j == i or close[i, j]:
                continue
            region = clip_halfplane(region, 0.5 * (vi + vj), vj - vi)
            if len(region) == 0:
                break
        regions.append(region if len(region) >= 3 else None)
    return regions


def regular_polygon(n, radius=1.0, phase=0.0):
    ang = phase + 2 * np.pi * np.arange(n) / n
    return SibsonCell(radius * np.column_stack([np.cos(ang), np.sin(ang)]),
                      restricted=False)


def random_convex_cell(rng, n_pts=12):
    from scipy.spatial import ConvexHull

    pts = rng.uniform(-1, 1, size=(n_pts, 2))
    hull = ConvexHull(pts)
    return SibsonCell(pts[hull.vertices], restricted=False)


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
    sites = sc.vertices
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    half = 4.0 * sc.diameter
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
        sc = random_convex_cell(rng)
        assert not sc.restricted  # convex cells use the exact classical form
        pts = interior_points(sc, rng, 40, margin=1e-4)
        for p in pts:
            lam = sc.limit_coords(p)[0]
            assert abs(lam.sum() - 1) < 1e-10
            assert lam.min() > -1e-10
            assert np.abs(lam @ sc.vertices - p).max() < 1e-10
        batch = sc.coords_batch(pts)
        exact = np.array([classical_reference(sc, p) for p in pts])
        assert np.abs(batch - exact).max() < 1e-7


def test_lagrange_property_at_vertices():
    sc = regular_polygon(7)
    for i, v in enumerate(sc.vertices):
        lam = sc.limit_coords(v)[0]
        expect = np.zeros(len(sc.vertices))
        expect[i] = 1.0
        assert np.abs(lam - expect).max() < 1e-12


def test_linearity_on_edges():
    sc = regular_polygon(6)
    rng = np.random.default_rng(3)
    m = len(sc.vertices)
    for i in range(m):
        a, b = sc.vertices[i], sc.vertices[(i + 1) % m]
        for t in rng.uniform(0.1, 0.9, 4):
            lam = sc.limit_coords((1 - t) * a + t * b)[0]
            expect = np.zeros(m)
            expect[i], expect[(i + 1) % m] = 1 - t, t
            assert np.abs(lam - expect).max() < 1e-12


def test_batch_matches_single_point():
    rng = np.random.default_rng(7)
    sc = random_convex_cell(rng)
    pts = interior_points(sc, rng, 20, margin=0.02)
    batch = sc.coords_batch(pts)
    for p, row in zip(pts, batch):
        assert np.abs(sc.limit_coords(p)[0] - row).max() < 1e-9


def test_gradients_reproduce_identity():
    rng = np.random.default_rng(11)
    sc = random_convex_cell(rng)
    pts = interior_points(sc, rng, 8, margin=0.05)
    for g in sc.coords_and_gradients_batch(pts)[1]:
        J = g.T @ sc.vertices  # d/dx of sum lam_i v_i should be identity
        assert np.abs(J - np.eye(2)).max() < 1e-10


def central_differences(sc, pts):
    """Central differences of coords_batch at h = 1e-7 * diam, (q, n, 2).

    Every point of a batch is clipped in the bounding box that its own
    distance to the boundary asks for, so the batch gives each point what a
    batch of one gives it (`test_classical_batch_matches_single_points`).
    """
    h = 1e-7 * sc.diameter
    steps = (np.array([h, 0.0]), np.array([0.0, h]))
    return np.stack([(sc.coords_batch(pts + e) - sc.coords_batch(pts - e))
                     / (2 * h) for e in steps], axis=2)


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
    diam = sc.diameter
    gap = diam * np.abs(grads - central_differences(sc, pts)).max(axis=(1, 2))
    assert np.median(gap) < 1e-7
    assert gap.max() < 1e-4
    assert diam * np.abs(grads.sum(axis=1)).max() < 1e-12


def test_exact_gradients_on_convex_cells():
    rng = np.random.default_rng(20)
    for _ in range(5):
        sc = random_convex_cell(rng)
        assert not sc.restricted
        assert_matches_differences(sc, interior_points(sc, rng, 60, 1e-3))


def test_exact_gradients_on_nonconvex_cells():
    # restricted path: an L-shaped cell, and a C-shaped one where the
    # bisector of a point in one arm can cut a site region in both arms
    cells = [
        [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]],
        [[0, 0], [3, 0], [3, 1], [1, 1], [1, 2], [3, 2], [3, 3], [0, 3]],
    ]
    rng = np.random.default_rng(21)
    for loop in cells:
        sc = SibsonCell(np.array(loop, dtype=float), restricted=True)
        assert_matches_differences(sc, interior_points(sc, rng, 200, 1e-3))


def test_bisector_clip_two_piece_chord():
    # x = 2 bisects x = (1, 1.2) and site (3, 1.2) and cuts both arms of the
    # C, leaving chord pieces {2} x [0, 1] and {2} x [2, 3]
    loop = np.array([[0, 0], [3, 0], [3, 1], [1, 1], [1, 2], [3, 2], [3, 3],
                     [0, 3], [0, 0]], dtype=float)  # closed
    area, gx, gy = _bisector_clip(loop, np.array([3.0, 1.2]),
                                  np.array([1.0]), np.array([1.2]))
    assert area[0] == pytest.approx(5.0, abs=1e-14)
    # chord length 2; integral of (y - (2, 1.2)) over both pieces is
    # (0, -0.7 + 1.3); gradient ((0, 0.6) + (2 / 2) (2, 0)) / |(2, 0)|
    assert np.abs([gx[0] - 1.0, gy[0] - 0.3]).max() < 1e-14


# cells whose widest restricted site region has fewer than 8 corners (the
# 9-gon) or 8 and more: numpy sums 8 or more terms along a contiguous axis
# pairwise, so the last two pin the order of the kernel's sums over sides
KERNEL_CELLS = {
    "9-gon": [[np.cos(a), np.sin(a)] for a in 2 * np.pi * np.arange(9) / 9],
    "12-gon": [[np.cos(a), np.sin(a)] for a in 2 * np.pi * np.arange(12) / 12],
    "non-convex 10-gon": [[0, 0], [4, 0], [4, 1], [2, 1.5], [4, 2], [4, 3],
                          [0, 3], [0, 2], [1, 1.5], [0, 1]],
}


@pytest.mark.parametrize("name", KERNEL_CELLS)
@pytest.mark.parametrize("restricted", [True, False])
def test_kernel_gives_each_point_its_one_point_bits(monkeypatch, name,
                                                    restricted):
    """A point's coordinates and gradients do not depend on the batch it is
    in or on how the batch is split into clip passes."""
    sc = SibsonCell(np.array(KERNEL_CELLS[name], dtype=float), restricted)
    pts = interior_points(sc, np.random.default_rng(28), 40, 1e-3)
    lam, grads = sc.coords_and_gradients_batch(pts)
    if restricted:
        widest = max(len(r) - 1 for r in sc.regions if r is not None)
        assert (widest >= 8) == (name != "9-gon")
    for x, lam_x, grads_x in zip(pts, lam, grads):
        one_lam, one_grads = sc.coords_and_gradients_batch(x[None])
        assert np.array_equal(one_lam[0], lam_x)
        assert np.array_equal(one_grads[0], grads_x)
    assert np.array_equal(sc.coords_batch(pts), lam)
    monkeypatch.setattr(sibson, "CLIP_CHUNK", 7)
    split_lam, split_grads = sc.coords_and_gradients_batch(pts)
    assert np.array_equal(split_lam, lam)
    assert np.array_equal(split_grads, grads)
    assert np.array_equal(sc.coords_batch(pts), lam)


def plain_bisector_clip(region, site, px, py, chord=True):
    """The clip kernel's arithmetic in its plain form: an open loop closed
    here, and every temporary a fresh array.  `_bisector_clip` must give
    its bits."""
    closed = np.vstack([region, region[:1]])
    cx, cy = closed[:, :1], closed[:, 1:]
    nx, ny = site[0] - px, site[1] - py
    nrm = np.sqrt(nx ** 2 + ny ** 2)
    nrm = np.where(nrm == 0.0, 1.0, nrm)
    hx, hy = nx / nrm, ny / nrm
    rx = cx - 0.5 * (px + site[0])
    ry = cy - 0.5 * (py + site[1])
    d = rx * hx + ry * hy
    out = d > 0
    da, db = d[:-1], d[1:]
    sign = out[1:].astype(float) - out[:-1]
    t = da / np.where(sign == 0.0, 1.0, da - db)
    inside = (~out[:-1]) - sign * (1.0 - t)
    cross = rx[:-1] * ry[1:] - ry[:-1] * rx[1:]
    area = 0.5 * sibson._row_sum(inside * cross)
    if not chord:
        return area, None, None
    s = rx * hy - ry * hx
    sa = s[:-1]
    crossing = sa + t * (s[1:] - sa)
    signed = sign * crossing
    half = 0.5 * sibson._row_sum(signed)
    along = 0.5 * sibson._row_sum(signed * crossing)
    return (area, (along * hy + half * nx) / nrm,
            (along * -hx + half * ny) / nrm)


@pytest.mark.parametrize("name", KERNEL_CELLS)
@pytest.mark.parametrize("restricted", [True, False])
def test_clip_kernel_has_the_bits_of_its_plain_arithmetic(name, restricted):
    """Every region of a convex or non-convex cell, some of 8 or more
    corners, clipped for a batch that holds every site, points near the
    sites and points inside and outside the cell: the kernel's in-place
    arithmetic gives the bits of the plain formulas, with and without the
    chord terms."""
    sc = SibsonCell(np.array(KERNEL_CELLS[name], dtype=float), restricted)
    rng = np.random.default_rng(33)
    lo, hi = sc.vertices.min(axis=0), sc.vertices.max(axis=0)
    pts = np.concatenate([sc.vertices,
                          sc.vertices + 1e-9 * rng.standard_normal((
                              sc.n_sites, 2)),
                          interior_points(sc, rng, 40, 1e-3),
                          rng.uniform(2 * lo - hi, 2 * hi - lo, (40, 2))])
    px, py = np.ascontiguousarray(pts.T)
    regions = sc.regions if restricted else sc._boxed_regions(0)
    if restricted:
        widest = max(len(r) - 1 for r in regions if r is not None)
        assert (widest >= 8) == (name != "9-gon")
    for region, site in zip(regions, sc.vertices):
        if region is None:
            continue
        assert np.array_equal(region[-1], region[0])  # closed
        for chord in (True, False):
            got = _bisector_clip(region, site, px, py, chord=chord)
            want = plain_bisector_clip(region[:-1], site, px, py,
                                       chord=chord)
            for a, b in zip(got, want):
                assert (a is None and b is None) or np.array_equal(a, b)
            assert chord or got[1] is None


@pytest.mark.parametrize("name", KERNEL_CELLS)
def test_area_only_clip_matches_full_clip(name):
    sc = SibsonCell(np.array(KERNEL_CELLS[name], dtype=float), True)
    pts = interior_points(sc, np.random.default_rng(29), 40, 1e-3)
    px, py = np.ascontiguousarray(pts.T)
    for region, site in zip(sc.regions, sc.vertices):
        if region is None:
            continue
        area, gx, gy = _bisector_clip(region, site, px, py, chord=False)
        assert gx is None and gy is None
        assert np.array_equal(area, _bisector_clip(region, site, px, py)[0])


def test_exact_gradients_on_mesh_dual_polygons(crossing_dual_polygons):
    # the dual polygon of vertex 14 of random_delaunay(60, 3) is a bowtie,
    # on which no interpolant is defined; seed 0 has none
    comp = mesh.random_delaunay(60, 3)
    dual = mesh.build_dual(comp, "barycentric")
    assert crossing_dual_polygons(comp, dual) == [14]
    with pytest.raises(Error,
                       match="^dual polygon of vertex 14 intersects itself$"):
        DualInterpolation(comp, dual)
    comp = mesh.random_delaunay(60, 0)
    dual = mesh.build_dual(comp, "barycentric")
    assert crossing_dual_polygons(comp, dual) == []
    di = DualInterpolation(comp, dual)
    rng = np.random.default_rng(22)
    for sc in di.cells:
        assert_matches_differences(sc, interior_points(sc, rng, 10, 1e-3))


def test_classical_batch_matches_single_points():
    # every point is clipped in the box its own boundary distance asks for,
    # so a batch gives each point what a batch of one gives it
    rng = np.random.default_rng(24)
    for _ in range(20):
        sc = random_convex_cell(rng)
        assert not sc.restricted
        pts = interior_points(sc, rng, 60, 1e-3)
        lam, grads = sc.coords_and_gradients_batch(pts)
        for x, lam_x, grads_x in zip(pts, lam, grads):
            one_lam, one_grads = sc.coords_and_gradients_batch(x[None])
            assert np.array_equal(one_lam[0], lam_x)
            assert np.array_equal(one_grads[0], grads_x)


def test_restricted_batch_matches_single_points_on_wide_dual_polygons():
    """On mesh dual polygons of 8 or more sites, where `np.sum` over the
    sites would add a batch of one pairwise and a larger batch row by row,
    the restricted coordinates and gradients give each point of a batch the
    bits of a batch of one: the sums over sites add the sites in order."""
    comp = mesh.random_delaunay(40, 3)
    di = DualInterpolation(comp, mesh.build_dual(comp, "barycentric"))
    wide = [sc for sc in di.cells if sc.n_sites >= 8]
    assert len(wide) >= 5 and max(sc.n_sites for sc in wide) >= 10
    rng = np.random.default_rng(30)
    for sc in wide:
        assert sc.restricted
        pts = interior_points(sc, rng, 30, 1e-3)
        lam = sc.coords_batch(pts)
        lam_g, grads = sc.coords_and_gradients_batch(pts)
        for x, lam_x, lam_gx, grads_x in zip(pts, lam, lam_g, grads):
            assert np.array_equal(sc.coords_batch(x[None])[0], lam_x)
            one_lam, one_grads = sc.coords_and_gradients_batch(x[None])
            assert np.array_equal(one_lam[0], lam_gx)
            assert np.array_equal(one_grads[0], grads_x)


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
    # L-shaped cell: restricted coordinates are a partition of unity
    loop = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                     [1.0, 2.0], [0.0, 2.0]])
    sc = SibsonCell(loop, restricted=True)
    pts = interior_points(sc, np.random.default_rng(0), 25, margin=0.02)
    lam = sc.coords_batch(pts)
    assert np.abs(lam.sum(axis=1) - 1).max() < 1e-10
    assert lam.min() > -1e-10


def test_restricted_loses_linear_precision_near_boundary():
    # the restricted ratios are intentionally different from the classical
    # ones near the boundary; the library must keep both variants distinct
    loop = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    x = np.array([0.5, 0.1])
    lam_r = SibsonCell(loop, restricted=True).limit_coords(x)[0]
    lam_u = SibsonCell(loop, restricted=False).limit_coords(x)[0]
    assert np.abs(lam_u @ loop - x).max() < 1e-10
    assert np.abs(lam_r @ loop - x).max() > 1e-3


def counted_site_regions(monkeypatch):
    """The domain of every (loop, domain) pair that `_site_regions` builds
    regions for from now on."""
    domains = []
    build = sibson._site_regions

    def counted(pairs):
        domains.extend(domain for _, domain in pairs)
        return build(pairs)

    monkeypatch.setattr(sibson, "_site_regions", counted)
    return domains


def test_classical_cell_builds_only_boxed_regions(monkeypatch):
    domains = counted_site_regions(monkeypatch)
    sc = random_convex_cell(np.random.default_rng(25))
    assert not sc.restricted
    sc.coords_and_gradients_batch(
        interior_points(sc, np.random.default_rng(26), 30, 1e-3))
    assert domains
    assert all(len(d) == 4 and not np.array_equal(d, sc.vertices)
               for d in domains)


def test_locating_and_measuring_build_no_site_regions(monkeypatch):
    domains = counted_site_regions(monkeypatch)
    comp = mesh.structured_grid(4)
    dual = mesh.build_dual(comp, "barycentric")
    di = DualInterpolation(comp, dual)
    pts = np.random.default_rng(27).uniform(-0.1, 1.1, (200, 2))
    assert (di.locate(pts) >= 0).any()
    di.interpolate(2, np.ones(len(comp.vertices)))(pts)
    hodge.assemble_dual_inverse(comp, dual, 0)
    assert domains == []


@st.composite
def region_pairs(draw):
    """A (loop, domain) pair for `_site_regions`: a convex or star-shaped
    non-convex loop, maybe with a near-duplicate site, and as its domain the
    loop itself, a box about its centroid (the classical variant's) or a
    small box at one site, outside which most regions vanish."""
    n = draw(st.integers(3, 11))
    angles = np.sort(draw(st.lists(
        st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=n, max_size=n,
        unique=True)))
    convex = draw(st.booleans())
    radii = np.ones(n) if convex else np.array(draw(st.lists(
        st.floats(0.2, 1.0), min_size=n, max_size=n)))
    center = np.array(draw(st.tuples(st.floats(-5, 5), st.floats(-5, 5))))
    loop = center + radii[:, None] * np.column_stack([np.cos(angles),
                                                      np.sin(angles)])
    if draw(st.booleans()):  # a site that coincides with its neighbour
        i = draw(st.integers(0, n - 1))
        twin = loop[i] + draw(st.floats(-1e-9, 1e-9))
        loop = np.insert(loop, i + 1, twin, axis=0)
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    domain = draw(st.sampled_from(["cell", "box", "site box"]))
    if domain == "cell":
        return loop, loop
    if domain == "box":
        return loop, loop.mean(axis=0) + draw(st.floats(1.0, 8.0)) * corners
    at = loop[draw(st.integers(0, len(loop) - 1))]
    return loop, at + draw(st.floats(0.01, 0.5)) * corners


def assert_regions_match_reference(pairs):
    for built, (loop, domain) in zip(sibson._site_regions(pairs), pairs):
        reference = site_regions_reference(loop, domain)
        assert len(built) == len(reference) == len(loop)
        for region, ref in zip(built, reference):
            if ref is None:
                assert region is None
            else:  # closed: the first corner again after the last
                assert region.shape == (len(ref) + 1, 2)
                assert np.array_equal(region[:-1], ref)
                assert np.array_equal(region[-1], ref[0])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(pairs=st.lists(region_pairs(), min_size=1, max_size=4))
def test_batched_site_regions_match_per_pair_clips(pairs):
    # pairs of mixed lengths share one batch, padded; each region has the
    # bits of the per-pair Sutherland-Hodgman reference
    assert_regions_match_reference(pairs)


def test_batched_site_regions_cover_vanishing_and_twin_sites(monkeypatch):
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    twins = np.insert(square, 1, square[0] + 1e-10, axis=0)
    box = square[0] + 0.1 * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0],
                                      [-1.0, 1.0]])
    pairs = [(square, square), (twins, twins), (square, box),
             (regular_polygon(9).vertices, 3.0 * square - 1.5)]
    built = sibson._site_regions(pairs)
    # only the site at the small box's center keeps a region there; the
    # twins skip each other, so each gets their shared region
    assert [r is None for r in built[2]] == [False, True, True, True]
    assert np.allclose(built[1][0], built[1][1], rtol=0, atol=1e-9)
    assert_regions_match_reference(pairs)
    monkeypatch.setattr(sibson, "REGION_CHUNK", 3)  # chunks split pairs
    assert_regions_match_reference(pairs)


def test_measures_partition_cell():
    cell = regular_polygon(8, phase=0.3)
    areas = np.array([0.0 if r is None else abs(polygon_area(r))
                      for r in cell.regions])
    assert areas.sum() == pytest.approx(cell.measure, abs=1e-12)
    assert np.all(areas > 0)


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
        tags = list(di.site_lookup[v])
        assert [di.site_lookup[v][t] for t in tags] == list(range(len(tags)))
        n_tris = int((tris == v).any(axis=1).sum())
        kinds = [t[0] for t in tags]
        if bdry[v]:
            assert kinds.count("c") == n_tris
            assert kinds.count("m") == 2
            assert kinds.count("v") == 1
        else:
            assert kinds == ["c"] * n_tris


def unit(n, i):
    out = np.zeros(n)
    out[i] = 1.0
    return out


def test_dual_vertex_form_is_cell_indicator(grid_interp):
    comp, dual, di = grid_interp
    v = int(np.argmin(np.abs(comp.vertices - comp.vertices.mean(0)).sum(1)))
    form = di.interpolate(2, unit(len(comp.vertices), v))
    inside = comp.vertices[v]
    assert form(inside) == pytest.approx(1.0 / di.cells[v].measure, abs=1e-12)
    other = (v + 1) % len(comp.vertices)
    assert form(comp.vertices[other]) == 0.0


def test_dual_zero_form_is_sibson_coordinate(grid_interp):
    comp, dual, di = grid_interp
    v = int(np.argmin(np.abs(comp.vertices - comp.vertices.mean(0)).sum(1)))
    x = comp.vertices[v] + np.array([0.03, 0.02])
    lam = di.cells[v].limit_coords(x)[0]
    lookup = di.site_lookup[v]
    for (kind, gen), idx in lookup.items():
        if kind != "c":
            continue
        val = di.interpolate(0, unit(len(comp.simplices[2]), gen))(x)
        assert val == pytest.approx(lam[idx], abs=1e-12)


def test_dual_zero_cochain_interpolation_affine(grid_interp):
    comp, dual, di = grid_interp

    def f(p):
        return 1.0 + 2.0 * p[0] - 0.5 * p[1]

    coch = np.array([f(c) for c in
                     comp.vertices[comp.simplices[2]].mean(axis=1)])
    field = di.interpolate(0, coch)
    bdry = comp.boundary_simplices(0)
    for v in np.nonzero(~bdry)[0]:
        x = comp.vertices[v] + np.array([0.01, -0.015])
        assert field(x) == pytest.approx(f(x), abs=1e-9)


def test_dual_edge_form_line_duality(grid_interp):
    comp, dual, di = grid_interp
    interior = np.nonzero(~comp.boundary_simplices(1))[0]
    e = int(interior[len(interior) // 2])
    form = di.interpolate(1, unit(len(comp.simplices[1]), e))
    t1, t2 = (int(t) for t in comp.cofaces(1, e))

    def dual_edge(edge_id):
        # from the center of the edge's first triangle through its midpoint
        # to the center of its last
        tris = comp.cofaces(1, edge_id)
        return np.concatenate([dual.centers[2][tris[:-1]],
                               dual.centers[1][[edge_id]],
                               dual.centers[2][tris[-1:]]])

    def path_integral(edge_id):
        pts = dual_edge(edge_id)
        total = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            ts = np.linspace(0, 1, 81)[1::2]
            seg = b - a
            total += np.mean(form(a + ts[:, None] * seg) @ seg)
        return total

    c1 = comp.vertices[comp.simplices[2][t1]].mean(axis=0)
    first = dual_edge(e)[0]
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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="dual 1-forms "
                   "miss a constant field by 0.84 on grid:16")
def test_dual_edge_forms_reproduce_a_constant_field():
    """The exact dual cochain of u = (1, 0.3), u . (x_b - x_a) along each
    dual edge a -> b, interpolates to u inside interior polygons."""
    comp = mesh.structured_grid(16)
    dual = mesh.build_dual(comp, "barycentric")
    di = DualInterpolation(comp, dual)
    u = np.array([1.0, 0.3])

    def point(tag):
        kind, j = tag
        return dual.centers[{"c": 2, "m": 1}[kind]][j]

    cochain = np.array([u @ (point(b) - point(a)) for a, b in
                        map(di.edge_endpoint_tags,
                            range(len(comp.simplices[1])))])
    interior = np.nonzero(~comp.boundary_simplices(0))[0][:40]
    assert len(interior) == 40
    pts = np.vstack([comp.vertices[v] + 0.3 * (di.cells[v].vertices
                                               - comp.vertices[v])
                     for v in interior])
    assert np.array_equal(np.repeat(interior, 6), di.locate(pts))
    assert np.abs(di.interpolate(1, cochain)(pts) - u).max() <= 1e-8


def test_interpolate_validates_length(grid_interp):
    comp, dual, di = grid_interp
    with pytest.raises(Error, match="length"):
        di.interpolate(0, np.ones(3))


def test_polygon_helpers():
    # a cell keeps a counter-clockwise loop as given and reverses a
    # clockwise one, which is how its callers know to reverse their labels
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert polygon_area(sq) == pytest.approx(1.0)
    assert SibsonCell(sq, restricted=True).vertices is sq
    cw = sq[::-1]
    cell = SibsonCell(cw, restricted=True)
    assert cell.vertices is not cw and np.array_equal(cell.vertices, sq)
    assert cell.measure == pytest.approx(1.0)


def milbradt_pick(sc, x):
    """The Milbradt-Pick limit at one point x on the boundary of cell sc,
    as a reference: 1 at a site within 1e-12 diam of x, else 1 - t and t at
    the ends of the side nearest to x, t the parameter of x's projection."""
    v = sc.vertices
    coords = np.zeros(sc.n_sites)
    d = np.linalg.norm(v - x, axis=1)
    if d.min() <= 1e-12 * sc.diameter:
        coords[d.argmin()] = 1.0
        return coords
    seg = np.roll(v, -1, axis=0) - v
    t = np.clip(np.einsum("id,id->i", x - v, seg)
                / np.einsum("id,id->i", seg, seg), 0.0, 1.0)
    i = int(np.linalg.norm(v + t[:, None] * seg - x, axis=1).argmin())
    coords[[i, (i + 1) % sc.n_sites]] = 1.0 - t[i], t[i]
    return coords


def test_batched_limit_matches_point_formula():
    """`limit_coords` gives a shuffled batch of side, site and interior
    points of grid:16 dual polygons the per-point Milbradt-Pick limit on
    the boundary and the kernel inside, bit for bit, with and without
    gradients."""
    comp = mesh.structured_grid(16)
    di = DualInterpolation(comp, mesh.build_dual(comp, "barycentric"))
    rng = np.random.default_rng(31)
    rows = 0
    for v in (0, 5, 17, 144):  # corner, boundary and interior polygons
        sc = di.cells[v]
        a, b = sc.vertices, np.roll(sc.vertices, -1, axis=0)
        t = rng.uniform(0.0, 1.0, (3, sc.n_sites, 1))
        jitter = 1e-14 * sc.diameter * rng.standard_normal(a.shape)
        edge = np.vstack([a, a + jitter, *((1 - t) * a + t * b)])
        pts = np.vstack([edge, interior_points(sc, rng, 20, 1e-3)])
        order = rng.permutation(len(pts))
        pts, on_edge = pts[order], (order < len(edge))
        rows += on_edge.sum()
        ref = np.array([milbradt_pick(sc, x) for x in pts[on_edge]])
        lam = sc.limit_coords(pts)
        assert np.array_equal(lam[on_edge], ref)
        assert np.array_equal(lam[~on_edge], sc.coords_batch(pts[~on_edge]))
        # the kernel's gradients are NaN at a jittered site outside the
        # cell, where every overlap is 0
        with np.errstate(invalid="ignore"):
            lam_g, grads = sc.limit_coords(pts, with_gradients=True)
            kernel = sc.coords_and_gradients_batch(pts)[1]
        assert np.array_equal(lam_g, lam)
        assert np.array_equal(grads, kernel, equal_nan=True)
    assert rows > 100


# ---------------------------------------------------------------------------
# The per-point dual sampler that the batched fields replaced, kept as
# reference.


def loop_dual_field(di, p, weights):
    """Dual interpolant of primal p-simplex weights, one point per call:
    the first polygon whose even-odd test claims x, Sibson coordinates with
    the Milbradt-Pick limit within 1e-12 diam of the boundary or of a site,
    gradients from a batch of one, and the forms summed one at a time.  Zero
    outside every polygon."""
    def coords(sc, x):
        tol = 1e-12 * sc.diameter
        if (sc.boundary_distance(x) <= tol
                or np.linalg.norm(sc.vertices - x, axis=1).min() <= tol):
            return milbradt_pick(sc, x)
        return sc.coords_batch(x[None])[0]

    def field(x):
        v = next((v for v, c in enumerate(di.cells) if c.contains(x)[0]), None)
        if v is None:
            return np.zeros(2) if p == 1 else 0.0
        if p == 0:
            return weights[v] / di.cells[v].measure
        lookup = di.site_lookup[v]
        sc = di.cells[v]
        lam = coords(sc, x)
        if p == 2:
            total = 0.0
            for (kind, t), i in lookup.items():
                if kind == "c":
                    total += weights[t] * lam[i]
            return total
        grads = sc.coords_and_gradients_batch(x[None])[1][0]
        total = np.zeros(2)
        for e in di.complex.cofaces(0, v).tolist():
            tag_a, tag_b = di.edge_endpoint_tags(e)
            if tag_a in lookup and tag_b in lookup:
                ia, ib = lookup[tag_a], lookup[tag_b]
                total += weights[e] * (lam[ia] * grads[ib] - lam[ib] * grads[ia])
        return total

    return field


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(case=st.tuples(st.integers(3, 25), st.integers(0, 10_000)))
def test_dual_fields_match_point_loop(relabelled_delaunay,
                                     crossing_dual_polygons, case):
    """Batched dual fields equal the per-point sampler bit for bit wherever
    a polygon's even-odd test claims the point, are finite at the other
    points of the mesh and NaN outside it.  The points are random ones in
    and around the mesh plus corners and edge midpoints of dual polygons,
    where polygons meet and the Milbradt-Pick limit applies.  For p = 0
    the batch multiplies by 1 / |cell| where the loop divides by |cell|, so
    a random cochain is compared to 2 ulp there and the all-ones cochain
    exactly.  A mesh with a self-intersecting dual polygon has no dual
    fields."""
    n_points, seed = case
    comp = mesh.build_complex(*relabelled_delaunay(n_points, seed, 2))
    dual = mesh.build_dual(comp, "barycentric")
    crossing = crossing_dual_polygons(comp, dual)
    if crossing:
        with pytest.raises(Error, match=f"^dual polygon of vertex "
                                        f"{crossing[0]} intersects itself$"):
            DualInterpolation(comp, dual)
        return
    di = DualInterpolation(comp, dual)
    rng = np.random.default_rng(seed)
    lo, hi = comp.vertices.min(axis=0), comp.vertices.max(axis=0)
    on_edges = np.vstack([np.vstack([v, 0.5 * (v + np.roll(v, -1, axis=0))])
                          for v in (c.vertices for c in di.cells)])
    pts = np.vstack([
        rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), (60, 2)),
        rng.choice(on_edges, 30, replace=False)])
    outside = whitney.locate_cell(comp, pts) < 0
    claimed = np.array([any(c.contains(x)[0] for c in di.cells) for x in pts])
    assert 0 < outside.sum() and not (claimed & outside).any()
    for p in (0, 1, 2):
        N = len(comp.simplices[p])
        for ones, weights in ((True, np.ones(N)),
                              (False, rng.standard_normal(N))):
            got = di.interpolate(2 - p, weights)(pts)
            ref = np.array([loop_dual_field(di, p, weights)(x) for x in pts])
            assert np.isnan(got[outside]).all()
            assert np.isfinite(got[~outside]).all()
            if p == 0 and not ones:
                np.testing.assert_array_max_ulp(got[claimed], ref[claimed], 2)
            else:
                assert np.array_equal(got[claimed], ref[claimed])


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(case=st.tuples(st.integers(3, 40), st.integers(0, 10_000)))
def test_dual_fields_do_not_depend_on_how_regions_were_built(
        crossing_dual_polygons, case):
    """A dual field gives the same bits whether every polygon first built
    its own site regions, one at a time on first use, or the field built
    those of its points' polygons in its one batched pass.  The points are
    a pixel grid over the mesh and every polygon corner."""
    comp = mesh.random_delaunay(*case)
    dual = mesh.build_dual(comp, "barycentric")
    if crossing_dual_polygons(comp, dual):
        return  # no DualInterpolation, so no dual fields
    rng = np.random.default_rng(case[1])
    for p in (0, 1, 2):
        weights = rng.standard_normal(len(comp.simplices[p]))
        alone, batched = (DualInterpolation(comp, dual) for _ in range(2))
        for cell in alone.cells:
            cell.regions  # built by the cell itself
        pts = np.vstack([mesh.pixel_centers(comp.vertices.min(axis=0),
                                            comp.vertices.max(axis=0), 20)]
                        + [cell.vertices for cell in alone.cells])
        assert np.array_equal(alone.interpolate(2 - p, weights)(pts),
                              batched.interpolate(2 - p, weights)(pts),
                              equal_nan=True)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(case=st.tuples(st.integers(3, 39), st.integers(0, 10_000)))
def test_dual_edge_ends_are_sites_of_each_edge_vertex(relabelled_delaunay,
                                                     crossing_dual_polygons,
                                                     case):
    """Both ends of the dual edge of every edge at v, its triangles' centers
    or a boundary edge's midpoint, are sites of v's polygon, so
    `DualInterpolation.forms` has a form for every edge at v.  The sites
    are tags of the ring, so the barycentric rule stands for both."""
    n_points, seed = case
    comp = mesh.build_complex(*relabelled_delaunay(n_points, seed, 2))
    dual = mesh.build_dual(comp, "barycentric")
    if crossing_dual_polygons(comp, dual):
        return  # no DualInterpolation, so no forms
    di = DualInterpolation(comp, dual)
    for v, lookup in enumerate(di.site_lookup):
        for e in comp.cofaces(0, v).tolist():
            assert set(di.edge_endpoint_tags(e)) <= set(lookup), (v, e)


def locate_reference(di, pts):
    """Owner polygons by the triangle-first rule: every point is located
    among the triangles, only the points inside one are tested against the
    polygons, in vertex order within each polygon's box, and a point inside
    a triangle that no polygon claims goes to that triangle's vertex polygon
    with the nearest boundary."""
    tri = whitney.locate_cell(di.complex, pts)
    owner = np.where(tri >= 0, -1, -2)  # -2: outside every triangle
    for v, cell in enumerate(di.cells):
        box = np.all((pts >= cell.vertices.min(axis=0))
                     & (pts <= cell.vertices.max(axis=0)), axis=1)
        sel = np.nonzero((owner == -1) & box)[0]
        owner[sel[cell.contains(pts[sel])]] = v
    for i in np.nonzero(owner == -1)[0]:
        verts = di.complex.simplices[2][tri[i]]
        gaps = [di.cells[v].boundary_distance(pts[i]) for v in verts]
        owner[i] = verts[int(np.argmin(gaps))]
    return np.maximum(owner, -1)


def l_shaped_delaunay(n_points, seed):
    """Delaunay triangulation of the L [0, 1]^2 minus (1/2, 1]^2: its
    corners, its re-entrant sides split every 1/8, and random points at
    least 1/16 from those sides, so that each piece of them is a Delaunay
    edge; the triangles whose centroid lies in the removed square are
    dropped.  None unless the rest tile the L."""
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    pts = rng.random((4 * n_points, 2))
    steps = np.arange(5) / 8
    pts = np.vstack([[[0, 0], [1, 0], [0, 1]],
                     np.column_stack([0.5 + steps, np.full(5, 0.5)]),
                     np.column_stack([np.full(4, 0.5), 0.5 + steps[1:]]),
                     pts[(pts <= 7 / 16).any(axis=1)][:n_points]])
    cells = Delaunay(pts).simplices
    vol = np.abs(np.linalg.det(pts[cells[:, 1:]] - pts[cells[:, :1]]))
    keep = (vol > 1e-10) & (pts[cells].mean(axis=1) <= 0.5).any(axis=1)
    try:
        comp = mesh.build_complex(pts, cells[keep])
    except Error:
        return None
    return comp if abs(comp.measures[2].sum() - 0.75) < 1e-12 else None


def assert_locate_matches_reference(comp, seed):
    """`locate` gives the triangle-first rule's owners at pixel grids of 7,
    16 and 33 per axis, every polygon corner and side midpoint, the mesh
    vertices and 200 random points in a box 20% larger than the mesh."""
    dual = mesh.build_dual(comp, "barycentric")
    try:
        di = DualInterpolation(comp, dual)
    except Error:
        return  # a self-intersecting dual polygon: nothing to locate in
    lo, hi = comp.vertices.min(axis=0), comp.vertices.max(axis=0)
    rng = np.random.default_rng(seed)
    pts = np.vstack(
        [mesh.pixel_centers(lo, hi, m) for m in (7, 16, 33)]
        + [np.vstack([c.vertices, (c.vertices + np.roll(c.vertices, -1, 0)) / 2])
           for c in di.cells]
        + [comp.vertices, rng.uniform(lo - (hi - lo) / 10,
                                      hi + (hi - lo) / 10, (200, 2))])
    owner = di.locate(pts)
    assert (owner == -1).any() and np.array_equal(owner,
                                                  locate_reference(di, pts))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=st.tuples(st.booleans(), st.integers(3, 40),
                      st.integers(0, 10_000)))
def test_locate_matches_the_triangle_first_rule(case):
    """The polygon pass runs first and only unclaimed points meet the
    triangles, on convex and L-shaped random meshes alike: a polygon that
    reached outside the L would claim points the reference leaves at -1."""
    l_shaped, n_points, seed = case
    comp = (l_shaped_delaunay if l_shaped else mesh.random_delaunay)(
        n_points, seed)
    if comp is not None:
        assert_locate_matches_reference(comp, seed)


@pytest.mark.parametrize("P", [0.55, 0.8, 2.0, 10.0])
def test_locate_matches_the_triangle_first_rule_on_fig8(P):
    assert_locate_matches_reference(mesh.generate_fig8(P), 0)


def test_sample_field_dual_csv_matches_point_loop(tmp_path, capsys):
    comp = mesh.structured_grid(4)
    di = DualInterpolation(comp, mesh.build_dual(comp, "barycentric"))
    axis = (np.arange(8) + 0.5) / 8
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    for k in (0, 1, 2):
        assert cli.main(["sample-field", "--space", "dual", "--mesh", "grid:4",
                         "--k", str(k), "--samples", "8",
                         "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        field = loop_dual_field(di, k, np.ones(len(comp.simplices[k])))
        rows = [np.concatenate([x, np.atleast_1d(field(x))]) for x in pts]
        header = "x,y," + ",".join(f"value{i}" for i in range(len(rows[0]) - 2))
        expect = "\n".join([header] + [",".join(f"{c:.17g}" for c in row)
                                       for row in rows]) + "\n"
        assert (tmp_path / "field_samples.csv").read_text() == expect


def test_sample_field_spaces_share_points_on_a_skewed_grid(tmp_path, capsys):
    # grid:4:0.5 is a parallelogram: sample points off the mesh are not
    # written, and the three on its slanted side are evaluated in a vertex
    # polygon of their triangle
    out = {}
    for space in ("primal", "dual"):
        assert cli.main(["sample-field", "--space", space, "--mesh",
                         "grid:4:0.5", "--samples", "8",
                         "--out", str(tmp_path)]) == 0
        line = capsys.readouterr().out
        rows = (tmp_path / "field_samples.csv").read_text().splitlines()[1:]
        out[space] = (line.replace(space, ""),
                      [",".join(r.split(",")[:2]) for r in rows])
    assert out["primal"] == out["dual"]
    assert len(out["dual"][1]) == 46
