import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decstar import Error, hodge, mesh
from decstar.sibson import DualInterpolation, polygon_area


def ring_points(dual, tags):
    """The dual vertices named by `mesh.vertex_ring` tags, in order."""
    return np.array([dual.centers[{"v": 0, "m": 1, "c": 2}[kind]][j]
                     for kind, j in tags])


def test_single_triangle_counts():
    comp = mesh.build_complex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    assert [len(comp.simplices[k]) for k in range(3)] == [3, 3, 1]


def test_single_tetrahedron_counts():
    comp = mesh.build_complex(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[0, 1, 2, 3]],
    )
    assert [len(comp.simplices[k]) for k in range(4)] == [4, 6, 4, 1]


def test_fig8_counts_and_euler():
    comp = mesh.generate_fig8(2.0)
    counts = [len(comp.simplices[k]) for k in range(3)]
    assert counts == [8, 13, 6]
    assert counts[0] - counts[1] + counts[2] == 1


def test_fig8_leading_edges_pinned():
    comp = mesh.generate_fig8(3.0)
    lead = [tuple(e) for e in comp.simplices[1][:5].tolist()]
    assert lead == mesh.FIG8_EDGE_ORDER


def test_fig8_requires_large_p():
    with pytest.raises(Error, match="requires P > 1/2"):
        mesh.generate_fig8(0.5)


def test_degenerate_cell_rejected():
    with pytest.raises(Error) as exc:
        mesh.build_complex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0, 1, 2]])
    assert str(exc.value) == "degenerate cell 0: (0, 1, 2)"


def test_duplicate_cell_rejected():
    with pytest.raises(Error) as exc:
        mesh.build_complex(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2], [2, 1, 0]]
        )
    assert str(exc.value) == "duplicate cell 1: (0, 1, 2)"


@pytest.mark.parametrize("vertices, message", [
    ([[0, 0], [1e200, 0], [0, 1e200]],
     "vertex coordinates span 1e+200; a 2D mesh must span less than "
     "5.79e+76"),
    ([[0, 0, 0], [1e103, 0, 0], [0, 1, 0], [0, 0, 1]],
     "vertex coordinates span 1e+103; a 3D mesh must span less than "
     "9.699e+50"),
    ([[0, 0], [5.8e76, 0], [0, 1]],
     "vertex coordinates span 5.8e+76; a 2D mesh must span less than "
     "5.79e+76"),
    ([[0, 0, 0], [9.7e50, 0, 0], [0, 1, 0], [0, 0, 1]],
     "vertex coordinates span 9.7e+50; a 3D mesh must span less than "
     "9.699e+50"),
])
def test_extent_whose_measures_overflow_rejected(vertices, message):
    with pytest.raises(Error) as exc:
        mesh.build_complex(vertices, [list(range(len(vertices)))])
    assert str(exc.value) == message


def test_extent_below_the_overflow_limit_builds():
    # the limit is sqrt(max ** (1/n) / (2n)), where (2 n extent**2)**n, the
    # bound of the largest Gram determinant the pipeline forms, reaches the
    # largest float; the float just below it builds
    for dim in (2, 3):
        limit = math.sqrt(np.finfo(float).max ** (1 / dim) / (2 * dim))
        cell = [list(range(dim + 1))]
        with pytest.raises(Error, match="must span less than"):
            mesh.build_complex(np.vstack([np.zeros(dim), limit * np.eye(dim)]),
                               cell)
        extent = np.nextafter(limit, 0.0)
        vertices = np.vstack([np.zeros(dim), extent * np.eye(dim)])
        comp = mesh.build_complex(vertices, cell)
        assert all(np.isfinite(m).all() for m in comp.measures)
        assert comp.measures[dim][0] == pytest.approx(
            extent ** dim / math.factorial(dim), rel=1e-12)


@pytest.mark.parametrize("dim", [0, 1, 4])
def test_random_delaunay_dimension_checked(dim):
    with pytest.raises(Error) as exc:
        mesh.random_delaunay(5, 1, dim)
    assert str(exc.value) == f"dimension must be 2 or 3, got {dim}"


def test_out_of_range_index_rejected():
    with pytest.raises(Error, match="index out of range"):
        mesh.build_complex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 3]])


def test_incidence_rows_sum_structure():
    comp = mesh.structured_grid(3)
    D0 = comp.incidence_matrix(0).toarray()
    assert D0.shape == (len(comp.simplices[1]), len(comp.vertices))
    assert np.all(np.sort(np.abs(D0), axis=1)[:, -2:] == 1)
    assert np.all(D0.sum(axis=1) == 0)


@pytest.mark.parametrize("dim", [2, 3])
def test_incidence_matrix_is_built_once_and_read_only(dim):
    comp = mesh.random_delaunay(12, 3, dim=dim)
    for k in range(comp.dim):
        D = comp.incidence_matrix(k)
        assert comp.incidence_matrix(k) is D
        assert D.format == "csr" and D.has_canonical_format
        for a in (D.data, D.indices, D.indptr):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            D.data[0] = 2.0
        # the CSC form that `cofaces` reads is derived from it
        assert (comp._coboundary[k] != D).nnz == 0


DELAUNAY_3D = st.builds(lambda n, seed: mesh.random_delaunay(n, seed, dim=3),
                        st.integers(4, 30), st.integers(0, 10_000))


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(spec=DELAUNAY_3D)
@example(spec=mesh.structured_grid(4))
@example(spec=mesh.random_delaunay(30, 7))
@example(spec=mesh.random_delaunay(18, 3, dim=3))
def test_boundary_of_boundary_is_zero(spec):
    for k in range(spec.dim - 1):
        prod = spec.incidence_matrix(k + 1) @ spec.incidence_matrix(k)
        assert abs(prod).max() == 0


def test_measures_positive_and_vertex_unit():
    comp = mesh.random_delaunay(40, 11)
    assert np.all(comp.measures[0] == 1.0)
    for k in range(1, comp.dim + 1):
        assert np.all(comp.measures[k] > 0)


def test_barycentric_dual_measures_positive():
    for comp in (mesh.structured_grid(4, skew=0.2),
                 mesh.random_delaunay(25, 5),
                 mesh.random_delaunay(15, 2, dim=3)):
        dual = mesh.build_dual(comp, "barycentric")
        for k in range(comp.dim + 1):
            assert len(dual.negative_cells(k)) == 0
            assert len(dual.measures[k]) == len(comp.simplices[k])
        assert np.all(dual.measures[comp.dim] == 1.0)


def test_dual_vertex_cells_partition_area():
    comp = mesh.structured_grid(4)
    dual = mesh.build_dual(comp, "barycentric")
    assert dual.measures[0].sum() == pytest.approx(comp.measures[2].sum(),
                                                   abs=1e-12)


def test_vertex_dual_measures_are_exact_sums_of_elementary_triangles():
    # the Gram determinant put these 1.1e-13 relative off on this mesh
    comp = mesh.random_delaunay(5, 90)
    dual = mesh.build_dual(comp, "barycentric")
    exact = [Fraction(0)] * len(comp.vertices)
    for t, edges in enumerate(comp.face_indices[1]):
        a = [Fraction(x) for x in dual.centers[2][t]]
        for e in edges:
            b = [Fraction(x) for x in dual.centers[1][e]]
            for v in comp.simplices[1][e]:
                p = [Fraction(x) for x in comp.vertices[v]]
                exact[v] += abs((b[0] - a[0]) * (p[1] - a[1])
                                - (b[1] - a[1]) * (p[0] - a[0])) / 2
    exact = np.array([float(x) for x in exact])
    assert np.abs(dual.measures[0] / exact - 1.0).max() <= 1e-15


def test_dyadic_grid_dual_measures_are_exact():
    dual = mesh.build_dual(mesh.structured_grid(4), "circumcentric")
    assert set(dual.measures[0]) == {1 / 16, 1 / 32, 1 / 64}


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(n=st.integers(3, 40), seed=st.integers(0, 10_000))
def test_vertex_ring_walks_each_element_once(crossing_dual_polygons, n, seed):
    comp = mesh.random_delaunay(n, seed)
    dual = mesh.build_dual(comp, "barycentric")
    boundary = comp.boundary_simplices(1)
    site_tags = []
    for v in range(len(comp.vertices)):
        ring = mesh.vertex_ring(comp, v)
        loop = ring_points(dual, ring)
        assert not np.all(loop == np.roll(loop, -1, axis=0), axis=1).any()
        area = polygon_area(loop)
        assert abs(area) == pytest.approx(dual.measures[0][v], rel=1e-12)
        # the interpolation polygon drops the interior-edge midpoints and
        # runs counter-clockwise
        kept = [t for t in ring if t[0] != "m" or boundary[t[1]]]
        site_tags.append(kept if area > 0 else kept[::-1])
    # ... unless one of those polygons intersects itself
    crossing = crossing_dual_polygons(comp, dual)
    if crossing:
        with pytest.raises(Error, match=f"^dual polygon of vertex "
                                        f"{crossing[0]} intersects itself$"):
            DualInterpolation(comp, dual)
    else:
        lookup = DualInterpolation(comp, dual).site_lookup
        assert [list(tags) for tags in lookup] == site_tags


def test_build_dual_walks_no_vertex_ring(monkeypatch):
    def no_ring(*args):
        raise AssertionError("build_dual walked a vertex ring")

    monkeypatch.setattr(mesh, "vertex_ring", no_ring)
    for comp in (mesh.structured_grid(4), mesh.random_delaunay(20, 1),
                 mesh.random_delaunay(12, 3, dim=3)):
        for rule in ("barycentric", "circumcentric"):
            dual = mesh.build_dual(comp, rule)
            assert [len(c) for c in dual.centers] \
                == [len(s) for s in comp.simplices]


def test_circumcentric_dual_on_equilateral():
    comp = mesh.equilateral_grid(3)
    dual = mesh.build_dual(comp, "circumcentric")
    interior = ~comp.boundary_simplices(1)
    ratios = dual.measures[1][interior] / comp.measures[1][interior]
    assert np.allclose(ratios, 1.0 / np.sqrt(3.0), atol=1e-12)


def test_dual_rule_validation():
    comp = mesh.two_triangle_mesh()
    with pytest.raises(Error, match="unknown center rule 'midpoint'"):
        mesh.build_dual(comp, "midpoint")


def test_json_roundtrip(tmp_path):
    comp = mesh.random_delaunay(20, 9)
    path = tmp_path / "m.json"
    mesh.save_mesh(comp, path)
    back = mesh.load_mesh(path)
    assert np.array_equal(back.vertices, comp.vertices)
    for k in range(comp.dim + 1):
        assert np.array_equal(back.simplices[k], comp.simplices[k])


def test_json_keeps_simplex_order(tmp_path):
    comp = mesh.generate_fig8(2.0)
    doc = mesh.complex_to_json(comp)
    assert list(doc["simplex_order"]) == ["1"]
    path = tmp_path / "fig8.json"
    mesh.save_mesh(comp, path)
    back = mesh.load_mesh(path)
    for k in range(comp.dim + 1):
        assert np.array_equal(back.simplices[k], comp.simplices[k])
    for k in range(comp.dim):
        assert np.array_equal(back.face_indices[k], comp.face_indices[k])
    # a document without the key loads with lexicographic simplices, and a
    # key that is not an ordering of the mesh's simplices is rejected
    del doc["simplex_order"]
    plain = mesh.complex_from_json(json.dumps(doc))
    assert plain.simplices[1].tolist() == sorted(comp.simplices[1].tolist())
    assert "simplex_order" not in mesh.complex_to_json(plain)
    for bad in ({"1": [[0, 1]]}, {"2": [[0, 1, 2]]}, {"x": []}):
        with pytest.raises(Error, match="simplex_order"):
            mesh.complex_from_json(json.dumps({**doc, "simplex_order": bad}))


def test_json_missing_key_rejected():
    with pytest.raises(Error, match="cells"):
        mesh.complex_from_json(json.dumps({"dimension": 2, "vertices": []}))


def test_quality_report_finite():
    comp = mesh.random_delaunay(30, 13)
    dual = mesh.build_dual(comp, "barycentric")
    rep = mesh.quality_report(comp, dual)
    assert rep["worst_aspect_ratio"] >= 1.0 - 1e-12
    for k in range(comp.dim + 1):
        assert rep["primal_range"][k][0] > 0
        assert rep["dual_range"][k][0] > 0
        assert np.isfinite(rep["ratio_range"][k]).all()


def test_with_leading_simplices_reorders():
    comp = mesh.generate_fig8(2.0)
    target = [(0, 2), (0, 1)]
    re = comp.with_leading_simplices(1, target)
    assert [tuple(e) for e in re.simplices[1][:2].tolist()] == target
    for k in range(comp.dim - 1):
        prod = re.incidence_matrix(k + 1) @ re.incidence_matrix(k)
        assert abs(prod).max() == 0


def exact_det(rows) -> int:
    """The determinant of a small integer matrix by the Leibniz formula."""
    m = len(rows)
    total = 0
    for perm in itertools.permutations(range(m)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]]
                                                for i in range(m))
    return total


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_det_is_exact_on_small_integer_matrices(m):
    stack = np.random.default_rng(m).integers(-9, 10, size=(200, m, m))
    want = [exact_det(a.tolist()) for a in stack]
    assert mesh._det(stack).tolist() == want
    assert mesh._det(stack[0]) == want[0]


def test_det_of_one_entry_is_the_entry():
    """numpy's LU determinant goes through logarithms and gives
    0.007812500000000002 here; cofactor expansion has no rounding."""
    assert mesh._det([[1 / 128]]) == 1 / 128
    entries = np.random.default_rng(0).standard_normal((1000, 1, 1))
    assert np.array_equal(mesh._det(entries), entries[:, 0, 0])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(m=st.integers(0, 3), j=st.integers(-40, 40), seed=st.integers(0, 99))
@example(m=3, j=-40, seed=0)
@example(m=3, j=40, seed=0)
def test_det_scales_by_exact_powers_of_two(m, j, seed):
    a = np.random.default_rng(seed).standard_normal((100, m, m))
    assert np.array_equal(mesh._det(np.ldexp(a, j)),
                          np.ldexp(mesh._det(a), j * m))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_det_agrees_with_numpy_to_rounding(m):
    """Both are backward stable: they agree to a few units of rounding
    relative to the product of the row norms, Hadamard's bound on |det|."""
    a = np.random.default_rng(m).standard_normal((10_000, m, m))
    a[:100, -1] = a[:100, 0] + 1e-9 * a[:100, -1]  # nearly singular rows
    bound = np.prod(np.linalg.norm(a, axis=-1), axis=-1)
    err = np.abs(mesh._det(a) - np.linalg.det(a))
    assert (err <= 8 * np.finfo(float).eps * bound).all()


@pytest.mark.parametrize("pts", [
    [[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]],  # collinear triangle
    [[[1.0, 2.0], [1.0, 2.0]]],  # edge of length zero
    [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
      [1.0, 1.0, 0.0]]],  # flat tetrahedron
])
def test_a_degenerate_simplex_has_no_circumcenter(pts):
    """A degenerate simplex has a barycenter but no circumcenter."""
    with pytest.raises(Error) as exc:
        mesh.simplex_centers(pts, mesh.CIRCUMCENTRIC)
    assert str(exc.value) == "degenerate simplex has no circumcenter"
    assert np.array_equal(mesh.simplex_centers(pts, mesh.BARYCENTRIC),
                          np.mean(pts, axis=1))


def test_vertex_circumcenters_need_their_own_branch():
    """A vertex has no edges: the degeneracy test's extent, a maximum over
    the empty edge stack, has no value, so `simplex_centers` returns the
    vertices themselves before reaching it."""
    pts = np.random.default_rng(0).random((5, 1, 3))
    assert np.array_equal(mesh.simplex_centers(pts, mesh.CIRCUMCENTRIC),
                          pts[:, 0])
    edges = pts[:, 1:] - pts[:, :1]
    with pytest.raises(ValueError, match="zero-size array"):
        np.abs(edges).max(axis=(1, 2))


def loop_structured_grid(m, skew=0.0):
    """(vertices, cells) of `mesh.structured_grid`, cell by cell."""
    xs = np.linspace(0.0, 1.0, m + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([(X + skew * Y).ravel(), Y.ravel()])
    cells = []
    for i in range(m):
        for j in range(m):
            a = i * (m + 1) + j
            b = a + m + 1
            cells.append((a, b, a + 1))
            cells.append((a + 1, b, b + 1))
    return verts, cells


def loop_equilateral_grid(m):
    """(vertices, cells) of `mesh.equilateral_grid`, vertex by vertex and
    cell by cell."""
    h = math.sqrt(3.0) / 2.0
    verts = []
    for j in range(m + 1):
        off = 0.5 * (j % 2)
        for i in range(m + 1):
            verts.append((i + off, j * h))
    cells = []
    for j in range(m):
        for i in range(m):
            a = j * (m + 1) + i
            b = a + m + 1
            if j % 2 == 0:
                cells.append((a, a + 1, b))
                cells.append((a + 1, b, b + 1))
            else:
                cells.append((a, a + 1, b + 1))
                cells.append((a, b, b + 1))
    return verts, cells


def outcome(build):
    """The complex `build()` returns, or the type and text of its error."""
    try:
        return build()
    except (Error, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("m", range(-2, 6))
def test_grid_generators_match_their_loops(m):
    """Same vertices, simplices and orientations, or the same error: for
    m < 0 the equilateral grid has no vertex rows ("vertices must be ..."),
    the square grid no cells or no sample points."""
    cases = [(lambda: mesh.structured_grid(m), loop_structured_grid, (m,)),
             (lambda: mesh.structured_grid(m, 0.3), loop_structured_grid,
              (m, 0.3)),
             (lambda: mesh.equilateral_grid(m), loop_equilateral_grid, (m,))]
    for build, loop, args in cases:
        got = outcome(build)
        want = outcome(lambda: mesh.build_complex(*loop(*args)))
        if isinstance(want, tuple):
            assert got == want
            continue
        assert np.array_equal(got.vertices, want.vertices)
        for k in range(3):
            assert np.array_equal(got.simplices[k], want.simplices[k])
            assert np.array_equal(got.orientations[k], want.orientations[k])


# ---------------------------------------------------------------------------
# The per-simplex loops that the array kernels of `build_complex`,
# `build_dual` and the incidence-matrix adjacency replaced, kept as
# references.


def loop_measure(points):
    pts = np.asarray(points, dtype=float)
    k = len(pts) - 1
    if k == 0:
        return 1.0
    edges = pts[1:] - pts[0]
    det = np.linalg.det(edges @ edges.T)
    return math.sqrt(max(det, 0.0)) / math.factorial(k)


def loop_build_complex(vertices, cells):
    """(simplices, face_indices, orientations, measures), simplex by simplex."""
    verts = np.asarray(vertices, dtype=float)
    n = verts.shape[1]
    top = np.sort(np.asarray(cells, dtype=int), axis=1)
    dets = np.array([np.linalg.det(verts[c[1:]] - verts[c[0]]) for c in top])
    orient = np.where(dets > 0, 1, -1)
    simplices = [None] * n + [top]
    for k in range(n - 1, -1, -1):
        faces = set()
        for s in simplices[k + 1]:
            faces.update(itertools.combinations(s.tolist(), k + 1))
        simplices[k] = np.array(sorted(faces), dtype=int)
    index = [{tuple(s): i for i, s in enumerate(simp.tolist())}
             for simp in simplices]
    face_indices = [
        np.array([[index[k][tuple(s[:m] + s[m + 1:])] for m in range(k + 2)]
                  for s in simplices[k + 1].tolist()])
        for k in range(n)]
    # a cell's measure is |det| / n!, as in `build_complex`
    measures = [np.array([loop_measure(verts[s]) for s in simp])
                for simp in simplices[:n]] + [np.abs(dets) / math.factorial(n)]
    orientations = [np.ones(len(s), dtype=int) for s in simplices[:n]]
    return simplices, face_indices, orientations + [orient], measures


def scan_cofaces(comp, k, i):
    if k >= comp.dim:
        return np.empty(0, dtype=int)
    rows, _ = np.nonzero(comp.face_indices[k] == i)
    return np.unique(rows)


def loop_center(points, rule):
    pts = np.asarray(points, dtype=float)
    if rule == "barycentric" or len(pts) == 1:
        return pts.mean(axis=0)
    edges = pts[1:] - pts[0]
    sol = np.linalg.solve(2.0 * edges @ edges.T,
                          np.einsum("ij,ij->i", edges, edges))
    return pts[0] + sol @ edges


def loop_side_sign(base_pts, opposite, query):
    """+1 if `query` and `opposite` are on the same side of aff(base_pts)."""
    v0 = base_pts[0]
    edges = (base_pts[1:] - v0).T

    def residual(p):
        if edges.size == 0:
            return p - v0
        coef, *_ = np.linalg.lstsq(edges, p - v0, rcond=None)
        return p - v0 - edges @ coef

    return float(np.sign(residual(query) @ residual(opposite)))


def loop_vertex_ring(comp, v):
    edges = scan_cofaces(comp, 0, v).tolist()
    tris_of_edge = {e: scan_cofaces(comp, 1, e).tolist() for e in edges}
    bdry = [e for e in edges if len(tris_of_edge[e]) == 1]
    e = bdry[0] if bdry else edges[0]
    first = tri = tris_of_edge[e][0]
    tags = [("m", e)]
    while True:
        tags.append(("c", tri))
        e = next(int(f) for f in comp.face_indices[1][tri]
                 if f != e and v in comp.simplices[1][f])
        rest = [t for t in tris_of_edge[e] if t != tri]
        if not rest:
            return tags + [("m", e), ("v", v)]
        if rest[0] == first:
            return tags
        tags.append(("m", e))
        tri = rest[0]


def loop_build_dual(comp, rule):
    """(measures, 2D vertex ring points) by the recursive walk over the
    chains sigma^k < ... < sigma^n, top-down from each n-simplex, and by the
    scanning ring walk."""
    n = comp.dim
    centers = [np.array([loop_center(comp.vertices[comp.simplices[k][i]], rule)
                         for i in range(len(comp.simplices[k]))])
               for k in range(n + 1)]
    chains = [dict() for _ in range(n + 1)]

    def recurse(k, ids, pts, sign):
        chains[k].setdefault(ids[0], []).append(
            (ids, sign * loop_measure(np.array(pts))))
        for m in range(k + 1 if k > 0 else 0):
            f = comp.face_indices[k - 1][ids[0], m]
            (opp,) = (set(comp.simplices[k][ids[0]].tolist())
                      - set(comp.simplices[k - 1][f].tolist()))
            s = loop_side_sign(comp.vertices[comp.simplices[k - 1][f]],
                               comp.vertices[opp], pts[-1])
            recurse(k - 1, [f] + ids, pts + [centers[k - 1][f]], sign * s)

    for t in range(len(comp.simplices[n])):
        recurse(n, [t], [centers[n][t]], 1.0)
    measures = [np.array([sum(v for _, v in chains[k][i]) if k < n else 1.0
                          for i in range(len(comp.simplices[k]))])
                for k in range(n + 1)]
    rings = [np.array([centers[{"v": 0, "m": 1, "c": 2}[kind]][j]
                       for kind, j in loop_vertex_ring(comp, i)])
             for i in range(len(comp.vertices))] if n == 2 else []
    return measures, rings


MESHES = st.one_of(
    st.tuples(st.just(2), st.integers(3, 30), st.integers(0, 10_000)),
    st.tuples(st.just(3), st.integers(2, 12), st.integers(0, 10_000)))


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(case=MESHES)
def test_build_complex_matches_loop(relabelled_delaunay, case):
    dim, n_points, seed = case
    verts, cells = relabelled_delaunay(n_points, seed, dim)
    comp = mesh.build_complex(verts, cells)
    simplices, face_indices, orientations, measures = \
        loop_build_complex(verts, cells)
    for k in range(dim + 1):
        assert np.array_equal(comp.simplices[k], simplices[k])
        assert np.array_equal(comp.orientations[k], orientations[k])
        assert np.abs(comp.measures[k] - measures[k]).max() \
            <= 1e-14 * np.abs(measures[k]).max()
    for k in range(dim):
        assert np.array_equal(comp.face_indices[k], face_indices[k])


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(case=MESHES)
def test_unique_rows_match_numpy_unique(relabelled_delaunay, case):
    """`_unique_rows` gives the rows, first indices and inverse of
    `np.unique(rows, axis=0)`, dtypes included, on the rows `build_complex`
    ranks: the sorted cells, here twice in a shuffled order so that every
    cell repeats, and the faces of each degree, of a relabelled random mesh
    and of grid:16."""
    dim, n_points, seed = case
    rng = np.random.default_rng(seed)
    for comp in (mesh.build_complex(*relabelled_delaunay(n_points, seed, dim)),
                 mesh.structured_grid(16)):
        cells = comp.simplices[comp.dim]
        rows = [np.vstack([cells, cells])[rng.permutation(2 * len(cells))]]
        for k in range(comp.dim):
            keep = [[j for j in range(k + 2) if j != m] for m in range(k + 2)]
            rows.append(comp.simplices[k + 1][:, keep].reshape(-1, k + 1))
        for r in rows:
            want = np.unique(r, axis=0, return_index=True, return_inverse=True)
            for got, ref in zip(mesh._unique_rows(r), want):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)


def walk_boundary(comp, k):
    """k-simplices inside an (n-1)-simplex with one coface, by scanning."""
    n = comp.dim
    facets = [set(f) for i, f in enumerate(comp.simplices[n - 1].tolist())
              if len(scan_cofaces(comp, n - 1, i)) == 1]
    return np.array([any(set(s) <= f for f in facets)
                     for s in comp.simplices[k].tolist()], dtype=bool)


def walk_neighborhood(comp, k):
    """Per k-simplex, the n-simplices sharing a vertex with it, by scanning."""
    cells = [set(c) for c in comp.simplices[comp.dim].tolist()]
    return np.array([sum(1 for c in cells if c & set(s))
                     for s in comp.simplices[k].tolist()])


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(case=MESHES)
def test_adjacency_matches_reference_walks(relabelled_delaunay, case):
    # cofaces, the boundary mask and the neighbourhood sizes all come from
    # the incidence matrices; each matches its own scan
    dim, n_points, seed = case
    comps = [mesh.build_complex(*relabelled_delaunay(n_points, seed, dim)),
             mesh.random_delaunay(n_points, seed, dim)]
    fig8 = mesh.generate_fig8(2.0)
    comps += [fig8, fig8.with_leading_simplices(0, [(5,), (2,)]),
              fig8.with_leading_simplices(1, [(3, 7), (0, 2)]),
              fig8.with_leading_simplices(2, [(1, 3, 7)])]
    for comp in comps:
        for k in range(comp.dim + 1):
            for i in range(len(comp.simplices[k])):
                assert np.array_equal(comp.cofaces(k, i),
                                      scan_cofaces(comp, k, i))
            assert np.array_equal(comp.boundary_simplices(k),
                                  walk_boundary(comp, k))
            assert np.array_equal(hodge.neighborhood_sizes(comp, k),
                                  walk_neighborhood(comp, k))


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(case=MESHES, rule=st.sampled_from(["barycentric", "circumcentric"]))
def test_build_dual_matches_loop(relabelled_delaunay, case, rule):
    dim, n_points, seed = case
    comp = mesh.build_complex(*relabelled_delaunay(n_points, seed, dim))
    dual = mesh.build_dual(comp, rule)
    measures, rings = loop_build_dual(comp, rule)
    # 3D circumcentric: where a center lies on a face's hull (slivers), the
    # loop's side sign is rounding noise and its chain volume, the square
    # root of a rounding-level Gram determinant, is about 1e-8 of the
    # largest measure; the array kernel gives both a clean zero there
    rtol = 1e-6 if (dim, rule) == (3, "circumcentric") else 1e-12
    for k in range(dim + 1):
        assert np.abs(dual.measures[k] - measures[k]).max() \
            <= rtol * np.abs(measures[k]).max()
    for v, pts in enumerate(rings):
        assert np.array_equal(ring_points(dual, mesh.vertex_ring(comp, v)), pts)
