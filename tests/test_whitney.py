import numpy as np
import pytest

from decstar import mesh, whitney
from decstar.whitney import DegreeError


def edge_integral(comp, field, edge_id, quad=3):
    """Line integral of a vector field along an oriented (sorted) edge."""
    a, b = comp.simplex_points(1, edge_id)
    nodes, weights = np.polynomial.legendre.leggauss(quad)
    cell = int(comp.cofaces(1, edge_id)[0])
    total = 0.0
    for t, w in zip(nodes, weights):
        x = 0.5 * (a + b) + 0.5 * t * (b - a)
        total += w * float(field(x, cell) @ (b - a)) * 0.5
    return total


def test_barycentric_partition_of_unity():
    comp = mesh.random_delaunay(25, 1)
    rng = np.random.default_rng(0)
    for cell in range(len(comp.simplices[2])):
        frame = whitney.barycentric_frame(comp, cell)
        x = rng.dirichlet(np.ones(3)) @ comp.simplex_points(2, cell)
        lam = frame.coords(x)
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(lam >= -1e-12)


def test_locate_cell():
    comp = mesh.structured_grid(3)
    for cell in (0, 5, 11):
        x = comp.simplex_points(2, cell).mean(axis=0)
        assert whitney.locate_cell(comp, x) == cell
    assert whitney.locate_cell(comp, [5.0, 5.0]) is None


def test_edge_whitney_cochain_duality():
    comp = mesh.random_delaunay(20, 4)
    n_edges = len(comp.simplices[1])
    for i in range(n_edges):
        field = whitney.interpolate(comp, 1, np.eye(n_edges)[i])
        for j in list(range(n_edges))[:: max(1, n_edges // 8)] + [i]:
            cells_j = set(comp.cofaces(1, j).tolist())
            cells_i = set(comp.cofaces(1, i).tolist())
            if not cells_i & cells_j and i != j:
                continue

            def restricted(x, cell, j=j):
                return whitney.eval_whitney(comp, 1, i, x, cell)

            val = edge_integral(comp, restricted, j)
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_vertex_and_face_duality():
    comp = mesh.two_triangle_mesh()
    for v in range(len(comp.vertices)):
        cell = int(comp.cofaces(0, v)[0] if comp.dim == 0 else
                   whitney.locate_cell(comp, comp.vertices[v], tol=1e-9))
        val = whitney.eval_whitney(comp, 0, v, comp.vertices[v], cell)
        assert val == pytest.approx(1.0, abs=1e-12)
    for t in range(len(comp.simplices[2])):
        x = comp.simplex_points(2, t).mean(axis=0)
        val = whitney.eval_whitney(comp, 2, t, x, t)
        assert val * comp.measure(2, t) == pytest.approx(1.0, abs=1e-12)


def test_edge_interpolant_reproduces_constants():
    comp = mesh.random_delaunay(25, 8)
    u = np.array([0.7, -0.3])
    coch = np.array([
        u @ (comp.simplex_points(1, e)[1] - comp.simplex_points(1, e)[0])
        for e in range(len(comp.simplices[1]))
    ])
    field = whitney.interpolate(comp, 1, coch)
    rng = np.random.default_rng(5)
    for cell in range(0, len(comp.simplices[2]), 3):
        x = rng.dirichlet(np.ones(3) * 3) @ comp.simplex_points(2, cell)
        assert np.allclose(field(x, cell), u, atol=1e-11)


def test_inner_product_matches_quadrature():
    comp = mesh.two_triangle_mesh()
    rng = np.random.default_rng(2)
    for i in range(len(comp.simplices[1])):
        for j in range(i, len(comp.simplices[1])):
            exact = whitney.whitney_inner_product(comp, 1, i, j)
            approx = 0.0
            for cell in range(len(comp.simplices[2])):
                pts = comp.simplex_points(2, cell)
                area = comp.measure(2, cell)
                samples = rng.dirichlet(np.ones(3), size=4000) @ pts
                vals = np.array([
                    whitney.eval_whitney(comp, 1, i, x, cell)
                    @ whitney.eval_whitney(comp, 1, j, x, cell)
                    for x in samples
                ])
                approx += area * vals.mean()
            assert approx == pytest.approx(exact, abs=0.02 * max(1, abs(exact)))


def test_gram_matrix_symmetric_positive_definite():
    comp = mesh.random_delaunay(20, 6)
    for k in range(comp.dim + 1):
        G = whitney.whitney_gram_matrix(comp, k).toarray()
        assert np.abs(G - G.T).max() < 1e-14
        assert np.linalg.eigvalsh(G).min() > 0


def test_gram_matches_pairwise_inner_products():
    comp = mesh.two_triangle_mesh()
    G = whitney.whitney_gram_matrix(comp, 1).toarray()
    for i in range(G.shape[0]):
        for j in range(G.shape[1]):
            assert G[i, j] == pytest.approx(
                whitney.whitney_inner_product(comp, 1, i, j), abs=1e-13
            )


def test_tet_face_whitney_flux_duality():
    comp = mesh.build_complex(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[0, 1, 2, 3]],
    )
    # the flux of a face's own 2-form through that face is one
    rng = np.random.default_rng(3)
    for f in range(len(comp.simplices[2])):
        pts = comp.simplex_points(2, f)
        verts = comp.simplices[2][f]
        normal = np.cross(pts[1] - pts[0], pts[2] - pts[0]) / 2.0
        samples = rng.dirichlet(np.ones(3), size=6000) @ pts
        vals = np.array([
            whitney.eval_whitney(comp, 2, f, x, 0) @ normal for x in samples
        ])
        # orientation: sorted-tuple convention pairs with the sorted normal
        assert abs(vals.mean()) == pytest.approx(1.0, abs=0.01)
        assert len(verts) == 3


def test_degree_validation():
    comp = mesh.two_triangle_mesh()
    with pytest.raises(DegreeError):
        whitney.interpolate(comp, 1, np.ones(2))
    with pytest.raises(DegreeError):
        whitney.eval_whitney(comp, 3, 0, [0.2, 0.2], 0)
    for k in (-1, 3):
        with pytest.raises(DegreeError):
            whitney.whitney_gram_matrix(comp, k)
