import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decstar import Error, mesh, systems, whitney
from decstar.sibson import DualInterpolation


def unit_field(comp, k, i):
    """The Whitney field of the unit cochain on k-simplex i."""
    return whitney.interpolate(comp, k, np.eye(len(comp.simplices[k]))[i])


def edge_integral(comp, field, edge_id, quad=3):
    """Line integral of a vector field along an oriented (sorted) edge.  A
    Whitney field located in either triangle of the edge has the same
    tangential component along it."""
    a, b = comp.vertices[comp.simplices[1][edge_id]]
    nodes, weights = np.polynomial.legendre.leggauss(quad)
    x = 0.5 * (a + b) + 0.5 * nodes[:, None] * (b - a)
    return 0.5 * float(weights @ (field(x) @ (b - a)))


def test_barycentric_partition_of_unity():
    comp = mesh.random_delaunay(25, 1)
    rng = np.random.default_rng(0)
    for cell in range(len(comp.simplices[2])):
        verts = comp.simplices[2][cell]
        x = rng.dirichlet(np.ones(3)) @ comp.vertices[verts]
        lam = np.array([unit_field(comp, 0, v)(x) for v in verts])
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(lam >= -1e-12)


def test_locate_cell():
    comp = mesh.structured_grid(3)
    cells = np.array([0, 5, 11])
    x = comp.vertices[comp.simplices[2][cells]].mean(axis=1)
    assert np.array_equal(whitney.locate_cell(comp, x), cells)
    assert np.array_equal(whitney.locate_cell(comp, [[5.0, 5.0]]), [-1])


def test_edge_whitney_cochain_duality():
    comp = mesh.random_delaunay(20, 4)
    n_edges = len(comp.simplices[1])
    for i in range(n_edges):
        field = unit_field(comp, 1, i)
        for j in list(range(n_edges))[:: max(1, n_edges // 8)] + [i]:
            cells_j = set(comp.cofaces(1, j).tolist())
            cells_i = set(comp.cofaces(1, i).tolist())
            if not cells_i & cells_j and i != j:
                continue
            val = edge_integral(comp, field, j)
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_vertex_and_face_duality():
    comp = mesh.two_triangle_mesh()
    for v in range(len(comp.vertices)):
        val = unit_field(comp, 0, v)(comp.vertices[v])
        assert val == pytest.approx(1.0, abs=1e-12)
    for t in range(len(comp.simplices[2])):
        x = comp.vertices[comp.simplices[2][t]].mean(axis=0)
        val = unit_field(comp, 2, t)(x)
        assert val * comp.measures[2][t] == pytest.approx(1.0, abs=1e-12)


def test_edge_interpolant_reproduces_constants():
    comp = mesh.random_delaunay(25, 8)
    u = np.array([0.7, -0.3])
    ends = comp.vertices[comp.simplices[1]]
    coch = (ends[:, 1] - ends[:, 0]) @ u
    field = whitney.interpolate(comp, 1, coch)
    rng = np.random.default_rng(5)
    for cell in range(0, len(comp.simplices[2]), 3):
        pts = comp.vertices[comp.simplices[2][cell]]
        x = rng.dirichlet(np.ones(3) * 3) @ pts
        assert np.allclose(field(x), u, atol=1e-11)


def test_inner_product_matches_quadrature():
    comp = mesh.two_triangle_mesh()
    rng = np.random.default_rng(2)
    G = whitney.whitney_gram_matrix(comp, 1)
    eye = np.eye(len(comp.simplices[1]))
    for i in range(len(comp.simplices[1])):
        for j in range(i, len(comp.simplices[1])):
            exact = G[i, j]
            approx = 0.0
            for cell in range(len(comp.simplices[2])):
                pts = comp.vertices[comp.simplices[2][cell]]
                area = comp.measures[2][cell]
                samples = rng.dirichlet(np.ones(3), size=4000) @ pts
                vals = np.einsum(
                    "qd,qd->q",
                    whitney.interpolate(comp, 1, eye[i])(samples),
                    whitney.interpolate(comp, 1, eye[j])(samples))
                approx += area * vals.mean()
            assert approx == pytest.approx(exact, abs=0.02 * max(1, abs(exact)))


DELAUNAY_3D = st.builds(lambda n, seed: mesh.random_delaunay(n, seed, dim=3),
                        st.integers(4, 30), st.integers(0, 10_000))


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(comp=DELAUNAY_3D)
@example(comp=mesh.random_delaunay(20, 6))
def test_gram_matrix_symmetric_positive_definite(comp):
    for k in range(comp.dim + 1):
        G = whitney.whitney_gram_matrix(comp, k)
        assert abs(G - G.T).max() < 1e-14
        systems.FactorizedInverse(G, "Gram matrix").lu  # certifies G SPD
        assert np.linalg.eigvalsh(G.toarray()).min() > 0


def test_tet_face_whitney_flux_duality():
    comp = mesh.build_complex(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[0, 1, 2, 3]],
    )
    # the flux of a face's own 2-form through that face is one
    rng = np.random.default_rng(3)
    for f in range(len(comp.simplices[2])):
        pts = comp.vertices[comp.simplices[2][f]]
        verts = comp.simplices[2][f]
        normal = np.cross(pts[1] - pts[0], pts[2] - pts[0]) / 2.0
        samples = rng.dirichlet(np.ones(3), size=6000) @ pts
        unit = np.eye(len(comp.simplices[2]))[f]
        vals = whitney.interpolate(comp, 2, unit)(samples) @ normal
        # orientation: sorted-tuple convention pairs with the sorted normal
        assert abs(vals.mean()) == pytest.approx(1.0, abs=0.01)
        assert len(verts) == 3


def test_degree_validation():
    comp = mesh.two_triangle_mesh()
    with pytest.raises(Error, match="cochain has length 2"):
        whitney.interpolate(comp, 1, np.ones(2))
    for k in (-1, 3):
        with pytest.raises(Error, match="out of range 0..2"):
            whitney.whitney_gram_matrix(comp, k)


@pytest.mark.parametrize("degree", [-1, 3])
@pytest.mark.parametrize("space", ["primal", "dual"])
def test_interpolants_reject_out_of_range_degrees(space, degree):
    """Both library interpolants check the degree when the field is made,
    not when it is evaluated."""
    comp = mesh.structured_grid(2)
    if space == "primal":
        with pytest.raises(Error, match=f"^degree k={degree} out of range "
                                        f"0..2 for a 2D mesh$"):
            whitney.interpolate(comp, degree, np.ones(3))
    else:
        di = DualInterpolation(comp, mesh.build_dual(comp, "barycentric"))
        with pytest.raises(Error, match=f"^dual degree {degree} out of "
                                        f"range 0..2$"):
            di.interpolate(degree, np.ones(3))


# ---------------------------------------------------------------------------
# The element loop that the batched Gram kernel replaced, kept as reference.


def loop_pair_integral(grads, measure, n, I, J):
    """Integral over one element of W_I . W_J for local vertex tuples I, J.

    Row j of `grads` is grad lambda_j.  Each minor of their Gram matrix is
    summed over sets of axes by Cauchy-Binet, from minors of the gradients
    themselves."""
    k = len(I) - 1
    total = 0.0
    for p in range(k + 1):
        Ip = I[:p] + I[p + 1:]
        for q in range(k + 1):
            Jq = J[:q] + J[q + 1:]
            det = sum(np.linalg.det(grads[np.ix_(Ip, S)])
                      * np.linalg.det(grads[np.ix_(Jq, S)])
                      for S in itertools.combinations(range(n), k)) if k else 1.0
            lam_int = measure * (2.0 if I[p] == J[q] else 1.0) \
                / ((n + 1) * (n + 2))
            total += (-1.0) ** (p + q) * lam_int * det
    return math.factorial(k) ** 2 * total


def loop_gram(comp, k):
    n = comp.dim
    N = len(comp.simplices[k])
    G = np.zeros((N, N))
    locals_ = list(itertools.combinations(range(n + 1), k + 1))
    index = {tuple(s): i for i, s in enumerate(comp.simplices[k].tolist())}
    for cell in range(len(comp.simplices[n])):
        pts = comp.vertices[comp.simplices[n][cell]]
        grads = np.linalg.inv(np.column_stack([np.ones(n + 1), pts]))[1:].T
        verts = comp.simplices[n][cell].tolist()
        faces = [index[combo]
                 for combo in itertools.combinations(verts, k + 1)]
        for (fi, I), (fj, J) in itertools.combinations_with_replacement(
                zip(faces, locals_), 2):
            val = loop_pair_integral(grads, comp.measures[n][cell], n, I, J)
            G[fi, fj] += val
            if fi != fj:
                G[fj, fi] += val
    return G


MESHES = st.one_of(
    st.tuples(st.just(2), st.integers(3, 30), st.integers(0, 10_000)),
    st.tuples(st.just(3), st.integers(2, 12), st.integers(0, 10_000)))


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(case=MESHES)
def test_gram_matches_element_loop(relabelled_delaunay, case):
    dim, n_points, seed = case
    comp = mesh.build_complex(*relabelled_delaunay(n_points, seed, dim))
    for k in range(dim + 1):
        G = whitney.whitney_gram_matrix(comp, k)
        ref = loop_gram(comp, k)
        assert np.abs(G.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()
        assert G.nnz == np.count_nonzero(ref)
        assert (G != G.T).nnz == 0


def sort_sign(rows):
    """Per row, the sign of the permutation that sorts it."""
    inversions = sum((rows[:, a] > rows[:, b]).astype(int)
                     for a, b in itertools.combinations(range(rows.shape[1]), 2))
    return 1 - 2 * (inversions % 2)


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(case=MESHES)
def test_gram_is_permutation_equivariant(relabelled_delaunay, case):
    """Relabelling the vertices by perm maps simplex s to sorted(perm[s]),
    and its Whitney form changes sign with the parity of that sort.  The
    two labellings round differently: on random_delaunay(3, 61), whose worst
    barycentric frame has condition number 1.6e3, the element loop differs
    by 1.5e-12 of max|G| as well."""
    dim, n_points, seed = case
    verts, cells = relabelled_delaunay(n_points, seed, dim)
    perm = np.random.default_rng(seed).permutation(len(verts))
    moved = np.empty_like(verts)
    moved[perm] = verts
    comp = mesh.build_complex(verts, cells)
    other = mesh.build_complex(moved, perm[cells])
    for k in range(dim + 1):
        image = perm[comp.simplices[k]]
        index = {tuple(s): i for i, s in enumerate(other.simplices[k].tolist())}
        ids = np.array([index[tuple(sorted(s))] for s in image.tolist()])
        sign = sort_sign(image) if k < dim else np.ones(len(ids))
        G = whitney.whitney_gram_matrix(comp, k).toarray()
        H = whitney.whitney_gram_matrix(other, k).toarray()[np.ix_(ids, ids)]
        assert np.abs(H - np.outer(sign, sign) * G).max() \
            <= 1e-10 * np.abs(G).max()


# ---------------------------------------------------------------------------
# The per-point sampler that the batched primal field of
# `whitney.interpolate` replaced, kept as reference.


def loop_whitney_field(comp, k, weights):
    """Primal interpolant one point per call: the first cell whose
    barycentric coordinates are all >= -1e-12, then the weighted Whitney
    forms of its faces summed one at a time.  Raises outside the mesh."""
    n = comp.dim
    coeff = whitney._barycentric_coefficients(comp, slice(None))

    def form(sid, x, cell):
        lam = coeff[cell, 0] + coeff[cell, 1:].T.copy() @ x
        g = coeff[cell, 1:].T.copy()
        cell_verts = comp.simplices[n][cell].tolist()
        verts = comp.simplices[k][sid].tolist()
        pos = [cell_verts.index(v) for v in verts]
        if k == 0:
            return float(lam[pos[0]])
        if k == n:
            return 1.0 / comp.measures[n][cell]
        if k == 1:
            i, j = pos
            return lam[i] * g[j] - lam[j] * g[i]
        i, j, l = pos
        return 2.0 * (lam[i] * np.cross(g[j], g[l])
                      + lam[j] * np.cross(g[l], g[i])
                      + lam[l] * np.cross(g[i], g[j]))

    def field(x):
        lam = coeff[:, 0, :] + x @ coeff[:, 1:, :]
        inside = np.nonzero((lam >= -1e-12).all(axis=1))[0]
        if not len(inside):
            raise ValueError("point not inside any element")
        cell = int(inside[0])
        total = 0.0 if k in (0, n) else np.zeros(n)
        for sid in whitney._cell_faces(comp, k, [cell])[0]:
            if weights[sid] != 0.0:
                total = total + weights[sid] * form(sid, x, cell)
        return total

    return field


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(case=MESHES)
def test_fields_match_point_loop(relabelled_delaunay, case):
    """Batched primal fields agree with the per-point sampler to 1e-12 of
    the field's size inside the mesh and are NaN outside it."""
    dim, n_points, seed = case
    comp = mesh.build_complex(*relabelled_delaunay(n_points, seed, dim))
    rng = np.random.default_rng(seed)
    lo, hi = comp.vertices.min(axis=0), comp.vertices.max(axis=0)
    pts = rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), (60, dim))
    for k in range(dim + 1):
        weights = rng.standard_normal(len(comp.simplices[k]))
        weights[::4] = 0.0
        got = whitney.interpolate(comp, k, weights)(pts)
        ref = loop_whitney_field(comp, k, weights)
        inside = []
        for x, val in zip(pts, got):
            try:
                expect = ref(x)
            except ValueError:
                assert np.isnan(val).all()
                continue
            inside.append((val, expect))
        assert 0 < len(inside) < len(pts)
        vals, expect = (np.array(a) for a in zip(*inside))
        assert np.abs(vals - expect).max() <= 1e-12 * np.abs(expect).max()
