import tracemalloc

import numpy as np
import pytest

from koopman_lyap import cpa, pipeline
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
    # certify checks the count once, before any simplex gradient is formed
    fld = parse_vector_field(["-1*x1", "-1*x2"])
    with pytest.raises(CPAError, match="vertex_values"):
        certify(tri_small, np.zeros(4), fld, BBound(np.zeros((2, 2))))


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
        # every triangle, rotated or not, spans one cell on the x1 axis
        ext = np.max(np.abs(deltas[:, 0]))
        assert ext == h
        for i in (1, 2):
            e = E[s, i]
            dx = abs(deltas[i][0])
            # quad term 6 dx^2, linear term 6 dx scaled by the simplex's x1-extent
            assert e == pytest.approx(0.5 * (6 * dx * dx + 6 * dx * ext), abs=1e-15)
            if dx == h:
                assert e == pytest.approx(6 * h * h, abs=1e-15)


@pytest.mark.parametrize("cells", [4, 6])
@pytest.mark.parametrize(
    "B", [[[0.0, 1.0], [1.0, 0.0]], [[6.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 6.0]],
          [[2.0, 1.0], [1.0, 4.0]]],
)
def test_curvature_correction_bounds_the_interpolation_error(cells, B):
    # brute force on every simplex the builder makes, the ones rotated to put
    # the origin first included: for quadratics g with |H_rs| = B_rs under
    # every sign pattern, |g(x) - sum_i lambda_i g(x_i)| <= sum_i lambda_i E_i
    # on a grid of barycentric samples lambda
    tri = build_triangulation(_box(-1.0, 1.0), cells)
    E = _curvature_corrections(tri, BBound(np.array(B)))
    q = 40
    i, j = np.meshgrid(np.arange(q + 1), np.arange(q + 1), indexing="ij")
    keep = i + j <= q
    lam = np.stack([q - i[keep] - j[keep], i[keep], j[keep]], axis=1) / q  # (p, 3)
    X = tri.vertices[tri.simplices]  # (ns, 3, 2)
    x = np.einsum("pi,sid->spd", lam, X)
    bound = lam @ E.T  # (p, ns)
    for signs in np.ndindex(2, 2, 2):
        s = np.where(np.array(signs) == 1, -1.0, 1.0)
        H = np.array(B) * np.array([[s[0], s[1]], [s[1], s[2]]])
        g_x = 0.5 * np.einsum("spd,de,spe->sp", x, H, x)
        g_v = 0.5 * np.einsum("sid,de,sie->si", X, H, X)
        err = np.abs(g_x - g_v @ lam.T)  # (ns, p)
        assert np.max(err - bound.T) <= 1e-14, signs


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


def test_nan_margin_counts_as_failure():
    # a NaN vertex value makes the margins of its simplices NaN; a pair
    # passes only on a margin known to be negative
    fld = parse_vector_field(["-1*x1", "-1*x2"])
    tri = build_triangulation(_box(-1.0, 1.0), 4)
    vals = np.sum(tri.vertices**2, axis=1)
    vals[np.flatnonzero(np.all(tri.vertices == [0.5, 0.5], axis=1))] = np.nan
    report = certify(tri, vals, fld, BBound(np.zeros((2, 2))))
    nan_pairs = int(np.sum(report.lc2_checked & np.isnan(report.lc2_margins)))
    assert nan_pairs > 0
    # every other checked margin is negative (f = -x, V = ||x||^2, B = 0)
    assert report.n_lc2_failures == nan_pairs
    assert report.pair_pass_fraction == 1.0 - nan_pairs / report.n_pairs_checked
    assert not report.certified


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
    pipeline._write_failures(path, report)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "simplex_index,vertex_index,x1,x2,lhs_margin"
    assert report.n_lc2_failures > 0
    assert len(lines) == 1 + report.n_lc1_failures + report.n_lc2_failures
    # positivity rows carry simplex index -1 and the global vertex index
    x1, x2 = tri.vertices[victim]
    assert lines[1] == f"-1,{victim},{x1:.17g},{x2:.17g},-1"
    # decrease rows: simplex index, local vertex index, the vertex, the margin
    bad_s, bad_i = np.nonzero(report.lc2_failed)
    for line, s, i in zip(lines[2:], bad_s, bad_i, strict=True):
        x1, x2 = tri.vertices[tri.simplices[s, i]]
        assert line == f"{s},{i},{x1:.17g},{x2:.17g},{report.lc2_margins[s, i]:.17g}"


def test_certify_input_validation(radial_setup):
    fld, tri, vals = radial_setup
    with pytest.raises(CPAError, match="vertex_values"):
        certify(tri, vals[:-1], fld, BBound(np.zeros((2, 2))))
    with pytest.raises(CPAError, match="2x2"):
        certify(tri, vals, fld, BBound(np.zeros((3, 3))))


# --- block-wise certification ------------------------------------------------------


def _unrotated_simplices(cells):
    n1 = cells + 1
    v00 = (np.arange(cells, dtype=np.int64)[:, None] * n1 + np.arange(cells)).ravel()
    v10, v01, v11 = v00 + n1, v00 + 1, v00 + n1 + 1
    return np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(2 * cells * cells, 3)


_MESHES = pytest.mark.parametrize(
    "lo, hi, cells",
    [
        (-1.0, 1.0, 2), (-1.0, 1.0, 4), (-2.0, 2.0, 10),
        (0.0, 2.0, 4), (-2.0, 0.0, 4), (0.5, 1.5, 3),
    ],
    ids=["sym2", "sym4", "sym10", "origin_lower_corner", "origin_upper_corner", "no_origin"],
)


@_MESHES
def test_triangulation_rotation_matches_full_rotation(lo, hi, cells):
    tri = build_triangulation(_box(lo, hi), cells)
    plain = _unrotated_simplices(cells)
    ov = tri.origin_vertex
    if ov is None:
        np.testing.assert_array_equal(tri.simplices, plain)
        return
    # the reference: every triple rotated so the origin comes first
    shift = np.argmax(plain == ov, axis=1)
    full = np.take_along_axis(plain, (np.arange(3) + shift[:, None]) % 3, axis=1)
    np.testing.assert_array_equal(tri.simplices, full)
    changed = np.any(tri.simplices != plain, axis=1)
    assert np.all(np.any(plain[changed] == ov, axis=1))


def _reference_gradients(tri, vals):
    # the general formula: per simplex, the 2 x 2 system of its edge vectors
    pts = tri.vertices[tri.simplices]
    M = pts[:, 1:, :] - pts[:, 0:1, :]
    rhs = vals[tri.simplices][:, 1:] - vals[tri.simplices][:, 0:1]
    return np.linalg.solve(M, rhs[:, :, None])[:, :, 0]


def _reference_corrections(tri, B):
    # the general formula: |delta_i| and ext_s from the vertex coordinates
    pts = tri.vertices[tri.simplices]
    D = np.abs(pts - pts[:, 0:1, :])
    Y = D + D.max(axis=1, keepdims=True)
    return 0.5 * sum(D[:, :, r] * B[r, s] * Y[:, :, s] for r in range(2) for s in range(2))


@_MESHES
def test_cell_formulas_match_the_general_simplex_formulas(lo, hi, cells):
    # the rotated triangles at the origin included; a box with unequal
    # widths per axis, so that w_1 != w_2
    tri = build_triangulation(Box(np.array([lo, 1.5 * lo]), np.array([hi, 1.5 * hi])), cells)
    rng = np.random.default_rng(cells)
    A = rng.uniform(0, 5, (2, 2))
    for B in (np.array([[12.0, 0.5], [0.5, 1.0]]), A + A.T):
        np.testing.assert_array_equal(
            _curvature_corrections(tri, BBound(B)).view(np.uint64),
            _reference_corrections(tri, B).view(np.uint64),
        )
    # each component is a difference over a width on both sides, the
    # reference's solve rounds a few times more: within 4 eps max|V| / min w
    # (measured 1.4 here, 2.2 at most on meshes of up to 144 cells)
    w = min(np.diff(a).min() for a in tri.domain.axes(cells + 1))
    for scale in (1e-3, 1.0, 1e3):
        vals = scale * rng.standard_normal(tri.n_vertices)
        err = np.abs(_simplex_gradients(tri, vals) - _reference_gradients(tri, vals))
        assert err.max() <= 4 * np.finfo(float).eps * np.abs(vals).max() / w


def _whole_mesh_margins(tri, vals, fld, b):
    # the formulas of the whole-mesh certify, one pass over every simplex:
    # the gradients as whole-array slices of the (n1, n1) vertex values, the
    # lower triangle's edges v00 -> v10 and v10 -> v11 and the upper's
    # v01 -> v11 and v00 -> v01, each over its cell's width
    V = vals.reshape(tri.cells + 1, -1)
    w1, w2 = (np.diff(a) for a in tri.domain.axes(tri.cells + 1))
    grads = np.stack(
        [
            (V[1:, :-1] - V[:-1, :-1]) / w1[:, None],
            (V[1:, 1:] - V[1:, :-1]) / w2,
            (V[1:, 1:] - V[:-1, 1:]) / w1[:, None],
            (V[:-1, 1:] - V[:-1, :-1]) / w2,
        ],
        axis=2,
    ).reshape(-1, 2)
    E = _reference_corrections(tri, b.matrix)
    fV = fld.evaluate_at(tri.vertices)
    lhs = (
        np.einsum("sd,sid->si", grads, fV[tri.simplices])
        + np.abs(grads).sum(axis=1)[:, None] * E
    )
    checked = np.ones_like(lhs, dtype=bool)
    checked[tri.simplices == tri.origin_vertex] = False
    return lhs, checked


@pytest.mark.parametrize("chunk", [1, 7, 1024])
def test_blockwise_certify_matches_whole_mesh(chunk, monkeypatch, tmp_path):
    fld = parse_vector_field(["x2 - sin(x1)", "-3*x2 - x1^3 + exp(x1) - 1"])
    tri = build_triangulation(_box(-1.0, 1.0), 10)
    x1, x2 = tri.vertices.T
    vals = x1**2 + 0.5 * x1 * x2 + x2**2
    vals[np.argmin(np.sum((tri.vertices - [0.4, -0.2]) ** 2, axis=1))] = np.nan
    b = BBound(np.array([[12.0, 0.5], [0.5, 1.0]]))
    ref_lhs, ref_checked = _whole_mesh_margins(tri, vals, fld, b)

    monkeypatch.setattr(cpa, "_CHUNK", chunk)
    report = certify(tri, vals, fld, b)

    # A NaN's sign bit depends on which of numpy's loops produced it (a vector
    # body or a tail), so NaN margins are compared by position only.
    nan = np.isnan(ref_lhs)
    assert 0 < nan.sum() < nan.size
    np.testing.assert_array_equal(np.isnan(report.lc2_margins), nan)
    np.testing.assert_array_equal(
        report.lc2_margins[~nan].view(np.uint64), ref_lhs[~nan].view(np.uint64)
    )
    np.testing.assert_array_equal(report.lc2_checked, ref_checked)

    ref = cpa.CertificationReport(tri, report.vertex_ok, ref_lhs, ref_checked, vals)
    for attr in ("n_lc1_failures", "n_pairs_checked", "n_lc2_failures"):
        assert getattr(report, attr) == getattr(ref, attr), attr
    assert 0 < report.n_lc2_failures < report.n_pairs_checked
    pipeline._write_failures(tmp_path / "blocks.csv", report)
    pipeline._write_failures(tmp_path / "whole.csv", ref)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_certify_working_set_does_not_grow_with_mesh():
    # beyond its report and f at the vertices (nv x 2 floats, fewer than the
    # ns x 3 margins), certify holds one block of simplex rows at a time
    fld = parse_vector_field(["x2", "-3*x2 - 1*x1 - 1*x1^3"])
    b = BBound(np.array([[12.0, 0.0], [0.0, 0.0]]))
    extra = {}
    for cells in (64, 256):
        tri = build_triangulation(_box(-2.0, 2.0), cells)
        vals = np.sum(tri.vertices**2, axis=1)
        tracemalloc.start()
        try:
            report = certify(tri, vals, fld, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (report.vertex_ok, report.lc2_margins, report.lc2_checked))
        extra[cells] = peak - held - 16 * tri.n_vertices
    assert extra[256] - extra[64] <= 1 << 20, extra
