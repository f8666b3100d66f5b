import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decstar import mesh
from decstar.mesh import MeshError
from decstar.sibson import DualInterpolation, polygon_area


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
    with pytest.raises(MeshError):
        mesh.generate_fig8(0.5)


def test_degenerate_cell_rejected():
    with pytest.raises(MeshError, match="cell 0"):
        mesh.build_complex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0, 1, 2]])


def test_duplicate_cell_rejected():
    with pytest.raises(MeshError):
        mesh.build_complex(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2], [2, 1, 0]]
        )


def test_out_of_range_index_rejected():
    with pytest.raises(MeshError):
        mesh.build_complex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 3]])


def test_incidence_rows_sum_structure():
    comp = mesh.structured_grid(3)
    D0 = comp.incidence_matrix(0).toarray()
    assert D0.shape == (len(comp.simplices[1]), len(comp.vertices))
    assert np.all(np.sort(np.abs(D0), axis=1)[:, -2:] == 1)
    assert np.all(D0.sum(axis=1) == 0)


def test_boundary_of_boundary_is_zero():
    for spec in (mesh.structured_grid(4), mesh.random_delaunay(30, 7),
                 mesh.random_delaunay(18, 3, dim=3)):
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


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(n=st.integers(3, 40), seed=st.integers(0, 10_000))
def test_vertex_ring_walks_each_element_once(n, seed):
    comp = mesh.random_delaunay(n, seed)
    dual = mesh.build_dual(comp, "barycentric")
    di = DualInterpolation(comp, dual)
    boundary = comp.boundary_simplices(1)
    for v in range(len(comp.vertices)):
        loop = dual.cells[0][v].points
        assert not np.all(loop == np.roll(loop, -1, axis=0), axis=1).any()
        area = polygon_area(loop)
        assert abs(area) == pytest.approx(dual.measures[0][v], rel=1e-12)
        # the interpolation polygon drops the interior-edge midpoints and
        # runs counter-clockwise
        kept = [t for t in mesh.vertex_ring(comp, v)
                if t[0] != "m" or boundary[t[1]]]
        assert di.site_tags[v] == (kept if area > 0 else kept[::-1])


def test_circumcentric_dual_on_equilateral():
    comp = mesh.equilateral_grid(3)
    dual = mesh.build_dual(comp, "circumcentric")
    interior = ~comp.boundary_simplices(1)
    ratios = dual.measures[1][interior] / comp.measures[1][interior]
    assert np.allclose(ratios, 1.0 / np.sqrt(3.0), atol=1e-12)


def test_dual_rule_validation():
    comp = mesh.two_triangle_mesh()
    with pytest.raises(MeshError):
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
        with pytest.raises(MeshError, match="simplex_order"):
            mesh.complex_from_json(json.dumps({**doc, "simplex_order": bad}))


def test_json_missing_key_rejected():
    with pytest.raises(MeshError, match="cells"):
        mesh.complex_from_json(json.dumps({"dimension": 2, "vertices": []}))


def test_quality_report_finite():
    comp = mesh.random_delaunay(30, 13)
    dual = mesh.build_dual(comp, "barycentric")
    rep = mesh.quality_report(comp, dual)
    assert rep.worst_aspect_ratio >= 1.0 - 1e-12
    for k in range(comp.dim + 1):
        assert rep.primal_range[k][0] > 0
        assert rep.dual_range[k][0] > 0
        assert np.isfinite(rep.ratio_range[k]).all()


def test_with_leading_simplices_reorders():
    comp = mesh.generate_fig8(2.0)
    target = [(0, 2), (0, 1)]
    re = comp.with_leading_simplices(1, target)
    assert [tuple(e) for e in re.simplices[1][:2].tolist()] == target
    for k in range(comp.dim - 1):
        prod = re.incidence_matrix(k + 1) @ re.incidence_matrix(k)
        assert abs(prod).max() == 0
