import numpy as np
import pytest

from koopman_lyap.box import Box
from koopman_lyap.cpa import (
    BBound,
    CPAError,
    _curvature_corrections,
    _simplex_gradients,
    build_triangulation,
    certify,
    estimate_b_bound,
)
from koopman_lyap.expr import parse_vector_field


def _box(lo, hi):
    return Box(np.array([lo, lo], dtype=float), np.array([hi, hi], dtype=float))


@pytest.fixture(scope="module")
def tri_small():
    return build_triangulation(_box(-1.0, 1.0), 2)


# --- mesh construction ----------------------------------------------------------


def test_counts_small(tri_small):
    assert tri_small.n_vertices == 9
    assert tri_small.n_simplices == 8


def test_counts_production_mesh():
    tri = build_triangulation(_box(-2.0, 2.0), 108)
    assert tri.n_vertices == 11881
    assert tri.n_simplices == 23328
    assert tri.origin_vertex is not None


def test_origin_vertex_identified(tri_small):
    ov = tri_small.origin_vertex
    assert ov is not None
    np.testing.assert_array_equal(tri_small.vertices[ov], [0.0, 0.0])


def test_origin_is_base_vertex_everywhere(tri_small):
    ov = tri_small.origin_vertex
    touching = [s for s in tri_small.simplices if ov in s]
    # an interior vertex of this mesh belongs to six triangles
    assert len(touching) == 6
    for s in touching:
        assert s[0] == ov


def test_every_simplex_has_positive_area(tri_small):
    pts = tri_small.vertices[tri_small.simplices]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    np.testing.assert_allclose(areas, 0.5, rtol=1e-12)  # h = 1, area h^2/2


def test_odd_cells_on_symmetric_box_rejected():
    with pytest.raises(CPAError, match="even cell count"):
        build_triangulation(_box(-1.0, 1.0), 3)


def test_odd_cells_fine_when_origin_outside():
    tri = build_triangulation(Box(np.array([1.0, 1.0]), np.array([3.0, 3.0])), 3)
    assert tri.origin_vertex is None
    assert tri.n_simplices == 18


def test_cell_count_floor():
    with pytest.raises(CPAError, match="at least 2"):
        build_triangulation(_box(-1.0, 1.0), 1)


def test_triangulation_is_two_dimensional_only():
    dom = Box(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(CPAError, match="2-D"):
        build_triangulation(dom, 2)


# --- affine gradients ------------------------------------------------------------


def test_simplex_gradient_reproduces_affine(tri_small):
    vals = 2.0 * tri_small.vertices[:, 0] + 3.0 * tri_small.vertices[:, 1] + 7.0
    grads = _simplex_gradients(tri_small, vals)
    for s in range(tri_small.n_simplices):
        np.testing.assert_allclose(grads[s], [2.0, 3.0], rtol=1e-13)


def test_simplex_gradient_of_square_term():
    # on the lower-left triangle of [0,1]^2 with two cells, the interpolant
    # of x1^2 has gradient (h, 0) with h the cell width
    tri = build_triangulation(Box(np.zeros(2), np.ones(2)), 2)
    vals = tri.vertices[:, 0] ** 2
    base = tri.simplices[0]
    np.testing.assert_array_equal(tri.vertices[base[0]], [0.0, 0.0])
    np.testing.assert_allclose(_simplex_gradients(tri, vals)[0], [0.5, 0.0], atol=1e-15)


def test_gradient_rejects_wrong_value_count(tri_small):
    with pytest.raises(CPAError, match="vertex_values"):
        _simplex_gradients(tri_small, np.zeros(4))


# --- curvature bound -------------------------------------------------------------


def test_bbound_validation():
    with pytest.raises(CPAError, match="square"):
        BBound(np.zeros((2, 3)))
    with pytest.raises(CPAError, match="nonnegative"):
        BBound(np.array([[1.0, -0.1], [-0.1, 1.0]]))
    with pytest.raises(CPAError, match="symmetric"):
        BBound(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(CPAError, match="nonnegative"):
        BBound(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_estimate_b_bound_cubic_field():
    fld = parse_vector_field(["-2*x1", "-3*(x2 - x1^2)"])
    dom = _box(-2.0, 2.0)
    exact = estimate_b_bound(fld, dom, safety=1.0)
    np.testing.assert_array_equal(exact.matrix, [[6.0, 0.0], [0.0, 0.0]])
    padded = estimate_b_bound(fld, dom)  # default safety 1.1
    np.testing.assert_allclose(padded.matrix, [[6.6, 0.0], [0.0, 0.0]], rtol=1e-15)


def test_estimate_b_bound_duffing():
    fld = parse_vector_field(["x2", "-3*x2 - 1*x1 - 1*x1^3"])
    b = estimate_b_bound(fld, _box(-2.0, 2.0), safety=1.0)
    np.testing.assert_allclose(b.matrix, [[12.0, 0.0], [0.0, 0.0]], rtol=1e-15)


def test_estimate_b_bound_linear_field_is_zero():
    fld = parse_vector_field(["-2*x1 + x2", "-3*x2"])
    b = estimate_b_bound(fld, _box(-2.0, 2.0))
    np.testing.assert_array_equal(b.matrix, np.zeros((2, 2)))


def test_estimate_b_bound_override():
    fld = parse_vector_field(["-2*x1", "-3*(x2 - x1^2)"])
    dom = _box(-2.0, 2.0)
    b = estimate_b_bound(fld, dom, override=np.array([[6.0, 0.0], [0.0, 0.0]]))
    # overrides pass through without the safety factor
    np.testing.assert_array_equal(b.matrix, [[6.0, 0.0], [0.0, 0.0]])
    with pytest.raises(CPAError, match="below the observed"):
        estimate_b_bound(fld, dom, override=np.array([[5.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(CPAError, match="shape"):
        estimate_b_bound(fld, dom, override=np.zeros((3, 3)))


def test_estimate_b_bound_safety_floor():
    fld = parse_vector_field(["-2*x1", "-3*x2"])
    with pytest.raises(CPAError, match="at least 1"):
        estimate_b_bound(fld, _box(-1.0, 1.0), safety=0.9)


def test_curvature_correction_base_vertex_is_zero(tri_small):
    E = _curvature_corrections(tri_small, BBound(np.array([[6.0, 0.0], [0.0, 0.0]])))
    for s in range(tri_small.n_simplices):
        assert E[s, 0] == 0.0


def test_curvature_correction_known_values():
    tri = build_triangulation(_box(-1.0, 1.0), 4)  # h = 0.5
    b = BBound(np.array([[6.0, 0.0], [0.0, 0.0]]))
    h = 0.5
    E = _curvature_corrections(tri, b)
    for s, svtx in enumerate(tri.simplices):
        deltas = tri.vertices[svtx] - tri.vertices[svtx[0]]
        for i in (1, 2):
            e = E[s, i]
            dx = abs(deltas[i][0])
            dy = abs(deltas[i][1])
            # quad term 6 dx^2, linear term 6 dx scaled by the last axis offset
            assert e == pytest.approx(0.5 * (6 * dx * dx + 6 * dx * dy), abs=1e-15)
            if (dx, dy) == (h, 0.0):
                assert e == pytest.approx(3 * h * h, abs=1e-15)


def test_curvature_correction_zero_bound(tri_small):
    E = _curvature_corrections(tri_small, BBound(np.zeros((2, 2))))
    for s in range(tri_small.n_simplices):
        for i in range(3):
            assert E[s, i] == 0.0


def test_curvature_scales_quadratically_with_mesh():
    # origin at the corner keeps simplex 0 congruent across refinements
    b = BBound(np.array([[2.0, 1.0], [1.0, 4.0]]))
    dom = Box(np.zeros(2), 2.0 * np.ones(2))
    coarse = build_triangulation(dom, 2)
    fine = build_triangulation(dom, 4)
    e_coarse = _curvature_corrections(coarse, b)
    e_fine = _curvature_corrections(fine, b)
    for i in (1, 2):
        assert e_coarse[0, i] > 0.0
        assert e_fine[0, i] == pytest.approx(e_coarse[0, i] / 4.0, rel=1e-14)


# --- certification ---------------------------------------------------------------


@pytest.fixture(scope="module")
def radial_setup():
    # f = -x with V = ||x||^2: every decrease check passes with B = 0
    fld = parse_vector_field(["-1*x1", "-1*x2"])
    tri = build_triangulation(_box(-1.0, 1.0), 8)
    vals = np.sum(tri.vertices**2, axis=1)
    return fld, tri, vals


def test_certify_clean_case(radial_setup):
    fld, tri, vals = radial_setup
    report = certify(tri, vals, fld, BBound(np.zeros((2, 2))))
    assert report.certified
    assert report.n_lc1_failures == 0
    assert report.n_lc2_failures == 0
    assert report.failure_radius == 0.0
    assert report.pair_pass_fraction == 1.0
    # six pairs around the origin are exempt from the decrease check
    assert report.n_pairs_checked == 3 * tri.n_simplices - 6
    text = report.summary_text()
    assert "certified:           True" in text


def test_certify_margins_strictly_negative(radial_setup):
    fld, tri, vals = radial_setup
    report = certify(tri, vals, fld, BBound(np.zeros((2, 2))))
    checked = report.lc2_margins[report.lc2_checked]
    # h = 0.25; the tightest checked margin is -h^2
    assert np.max(checked) == pytest.approx(-0.0625, abs=1e-12)


def test_certify_curvature_bound_fails_near_origin(radial_setup):
    # with B = 2I the decrease margin flips sign only where V is flat,
    # in the cells adjacent to the origin
    fld, tri, vals = radial_setup
    report = certify(tri, vals, fld, BBound(2.0 * np.eye(2)))
    assert not report.certified
    assert report.n_lc1_failures == 0
    assert report.n_lc2_failures > 0
    assert 0.0 < report.failure_radius <= 2.0 * np.sqrt(2.0) * 0.25


def test_certify_margins_monotone_in_b(radial_setup):
    fld, tri, vals = radial_setup
    m1 = certify(tri, vals, fld, BBound(3.0 * np.eye(2))).lc2_margins
    m2 = certify(tri, vals, fld, BBound(6.0 * np.eye(2))).lc2_margins
    assert np.all(m2 >= m1 - 1e-15)


def test_certify_flat_values_fail_positivity(radial_setup):
    fld, tri, _ = radial_setup
    report = certify(tri, np.zeros(tri.n_vertices), fld, BBound(np.zeros((2, 2))))
    assert report.n_lc1_failures == tri.n_vertices - 1
    assert not report.certified
    # zero gradients leave every checked decrease margin at exactly 0
    assert report.n_lc2_failures == report.n_pairs_checked
    assert report.pair_pass_fraction == 0.0


def test_origin_positivity_tolerance(radial_setup):
    fld, tri, vals = radial_setup
    noisy = vals.copy()
    noisy[tri.origin_vertex] = 5e-11  # inside the origin slack
    report = certify(tri, noisy, fld, BBound(np.zeros((2, 2))))
    assert report.n_lc1_failures == 0
    noisy[tri.origin_vertex] = 5e-9  # outside it
    report = certify(tri, noisy, fld, BBound(np.zeros((2, 2))))
    assert report.n_lc1_failures == 1


def test_failures_csv_format(tmp_path, radial_setup):
    fld, tri, vals = radial_setup
    bad = vals.copy()
    victim = tri.n_vertices - 1
    bad[victim] = -1.0
    report = certify(tri, bad, fld, BBound(40.0 * np.eye(2)))
    path = tmp_path / "failures.csv"
    report.write_failures_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "simplex_index,vertex_index,x1,x2,lhs_margin"
    assert len(lines) == 1 + report.n_lc1_failures + report.n_lc2_failures
    first = lines[1].split(",")
    # positivity rows carry simplex index -1 and the global vertex index
    assert first[0] == "-1"
    assert int(first[1]) == victim
    assert float(first[4]) == -1.0


def test_certify_input_validation(radial_setup):
    fld, tri, vals = radial_setup
    with pytest.raises(CPAError, match="vertex_values"):
        certify(tri, vals[:-1], fld, BBound(np.zeros((2, 2))))
    with pytest.raises(CPAError, match="2x2"):
        certify(tri, vals, fld, BBound(np.zeros((3, 3))))
