"""Continuous piecewise affine certification on a triangulated 2-D box.

Layout. The box is split into cells x cells rectangles over the n1^2 vertices
of Box.grid(n1), n1 = cells + 1. Cell c = i * cells + j has corner v00 =
i * n1 + j, v10 = v00 + n1, v01 = v00 + 1, v11 = v10 + 1 and widths w (the
np.diff of Box.axes); its simplices are 2c = (v00, v10, v11) and 2c + 1 =
(v00, v11, v01). The candidate function is sampled at the vertices; on each
triangle its affine interpolant has per axis one edge difference over w_s
as gradient: x1 from v00 -> v10 or v01 -> v11, x2 from v10 -> v11 or
v00 -> v01. Rotating a triple (below) keeps its edges.

Two check families make the interpolant a certificate:

  positivity      V(0) = 0 (|V| <= 1e-10 at the origin vertex) and V > 0 at
                  every other vertex;
  decrease        for every triangle nu with vertices x_0..x_2 and affine
                  gradient g_nu,

                      g_nu . f(x_i) + ||g_nu||_1 E_{nu,i} < 0,

                  where the curvature term with delta = x_i - x_0 is

                      E_{nu,i} = 1/2 sum_{r,s} B_rs |delta_r| (|delta_s| + ext_s),

                  ext_s = max_k |e_s . (x_k - x_0)| the simplex's extent on
                  axis s, and B bounds all second partials of the components
                  of f on the box. With ext_s (Giesl & Hafstein, JMAA 410,
                  2014) E bounds the error whichever vertex is x_0. A
                  triangle spans its cell, so ext_s = w_s whichever vertex is
                  first, and |delta_s| is w_s if the edge x_0 x_i crosses
                  axis s (index step n1 or n1 + 1 on x1, 1 or n1 + 1 on x2).

At the origin the decrease inequality cannot be strict (f(0) = 0), so pairs
whose vertex is the origin are skipped. That exception is only sound when
the origin is the designated first vertex of every triangle containing it;
the builder rotates vertex triples to guarantee it.

All checks are vectorized over blocks of _CHUNK simplex rows, with f read
from one evaluation per vertex (nv x 2 floats, fewer than the ns x 3 margins,
formed _CHUNK vertices at a time), so that beyond its report and those values
the memory certify needs does not grow with the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .box import Box
from .expr import VectorField

__all__ = [
    "CPAError",
    "Triangulation",
    "build_triangulation",
    "BBound",
    "estimate_b_bound",
    "CertificationReport",
    "certify",
]

_CHUNK = 1024  # simplex rows, or vertices, per block of certify
_B_PROBES = 201  # probe-grid nodes per axis of estimate_b_bound


class CPAError(ValueError):
    pass


@dataclass(frozen=True)
class Triangulation:
    """Regular triangulation of a 2-D box in the module docstring's Layout,
    which certify reads from simplex indices: make it with build_triangulation."""

    domain: Box
    cells: int
    vertices: np.ndarray  # ((cells+1)^2, 2)
    simplices: np.ndarray  # (2*cells^2, 3) int
    origin_vertex: int | None

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_simplices(self) -> int:
        return self.simplices.shape[0]


def build_triangulation(domain: Box, cells: int) -> Triangulation:
    """Two congruent triangles per cell, diagonal bottom-left to top-right.

    If the origin lies in the box it must land exactly on a grid vertex;
    pick an even cell count on a symmetric box to guarantee that.
    """
    if domain.dim != 2:
        raise CPAError("triangulation is 2-D only")
    if cells < 2:
        raise CPAError("need at least 2 cells per axis")

    n1 = cells + 1
    vertices = domain.grid(n1)

    tol = 1e-9 * float(np.max(domain.widths))
    origin_vertex = None
    if domain.contains(np.zeros(2)):
        hits = np.nonzero(np.max(np.abs(vertices), axis=1) <= tol)[0]
        if hits.size == 0:
            raise CPAError(
                "origin lies in the domain but is not a grid vertex; "
                "use an even cell count on a symmetric box"
            )
        origin_vertex = int(hits[0])

    # the module docstring's Layout
    v00 = (np.arange(cells, dtype=np.int64)[:, None] * n1 + np.arange(cells)).ravel()
    simplices = np.empty((cells * cells, 6), dtype=np.int64)
    for col, offset in enumerate((0, n1, n1 + 1, 0, n1 + 1, 1)):
        np.add(v00, offset, out=simplices[:, col])
    simplices = simplices.reshape(2 * cells * cells, 3)

    if origin_vertex is not None:
        # Rotate triples so the origin is the base vertex wherever it occurs.
        hit, shift = np.nonzero(simplices == origin_vertex)
        simplices[hit] = np.take_along_axis(simplices[hit], (np.arange(3) + shift[:, None]) % 3, 1)

    vertices.setflags(write=False)
    simplices.setflags(write=False)
    return Triangulation(
        domain=domain,
        cells=cells,
        vertices=vertices,
        simplices=simplices,
        origin_vertex=origin_vertex,
    )


def _cells(tri: Triangulation, rows):
    """Per simplex of rows (module docstring, Layout): its cell's v00, 1 on
    an upper triangle (else 0), and the cell's widths, shape (n_rows, 2)."""
    cell, upper = np.divmod(np.arange(*rows.indices(tri.n_simplices)), 2)
    i, j = np.divmod(cell, tri.cells)
    w1, w2 = (np.diff(a) for a in tri.domain.axes(tri.cells + 1))
    return i * (tri.cells + 1) + j, upper, np.stack([w1[i], w2[j]], axis=1)


def _simplex_gradients(
    tri: Triangulation, vertex_values: np.ndarray, rows=slice(None)
) -> np.ndarray:
    """Affine-interpolant gradient on the simplices of rows (all by default),
    shape (n_rows, 2), from the (n_vertices,) vertex values: per axis one
    edge difference over the cell's width."""
    v00, upper, w = _cells(tri, rows)
    n1, V = tri.cells + 1, vertex_values
    a = v00 + upper  # x1 edge: v00 -> v10 (lower), v01 -> v11 (upper)
    b = v00 + n1 * (1 - upper)  # x2 edge: v10 -> v11 (lower), v00 -> v01 (upper)
    return np.stack([V[a + n1] - V[a], V[b + 1] - V[b]], axis=1) / w


@dataclass(frozen=True)
class BBound:
    """Elementwise bound on the second partials of the field components."""

    matrix: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.matrix, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise CPAError("B must be square")
        if not np.all(np.isfinite(B)) or np.any(B < 0):
            raise CPAError("B entries must be finite and nonnegative")
        if np.max(np.abs(B - B.T)) > 0:
            raise CPAError("B must be symmetric")
        B.setflags(write=False)
        object.__setattr__(self, "matrix", B)


def estimate_b_bound(
    fld: VectorField,
    domain: Box,
    safety: float = 1.1,
    override=None,
) -> BBound:
    """B_rs = safety * max_j sup |d^2 f_j / dx_r dx_s| over a probe grid.

    The probe maximum is a lower bound on the true sup, hence the safety
    factor. An override is validated against the probe maximum (no safety
    applied) and returned verbatim.
    """
    if safety < 1.0:
        raise CPAError("safety factor must be at least 1")
    d = fld.dim
    cols = [c for c in domain.grid(_B_PROBES).T]
    probe_max = np.zeros((d, d))
    for r in range(d):
        for s in range(r, d):
            worst = 0.0
            for comp in fld.components:
                second = comp.derivative(r + 1).derivative(s + 1)
                worst = max(worst, float(np.max(np.abs(second.evaluate(cols)))))
            probe_max[r, s] = probe_max[s, r] = worst

    if override is not None:
        B = np.asarray(override, dtype=float)
        if B.shape != (d, d):
            raise CPAError(f"override must have shape ({d}, {d})")
        if np.any(B < probe_max - 1e-9 * (1.0 + probe_max)):
            raise CPAError(
                "override is below the observed second-derivative maximum"
            )
        return BBound(B)
    return BBound(safety * probe_max)


def _curvature_corrections(tri: Triangulation, b: BBound, rows=slice(None)) -> np.ndarray:
    """E_{nu,i} for the simplices of rows (all by default) and each local
    vertex, shape (n_rows, 3), from the cell widths (module docstring)."""
    B, n1, S = b.matrix, tri.cells + 1, tri.simplices[rows]
    step = np.abs(S - S[:, :1])
    w = _cells(tri, rows)[2][:, None]  # ext_s
    D = w * np.stack([step >= n1, step % n1 == 1], axis=2)  # |delta_is|
    Y = D + w
    return 0.5 * sum(D[:, :, r] * B[r, s] * Y[:, :, s] for r in range(2) for s in range(2))


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of the vertex and per-pair checks.

    lc2_margins holds the decrease left-hand sides (negative = pass); pairs
    at the origin vertex are exempt and masked out of lc2_checked.
    """

    tri: Triangulation
    vertex_ok: np.ndarray  # (nv,) bool, positivity
    lc2_margins: np.ndarray  # (ns, 3) float
    lc2_checked: np.ndarray  # (ns, 3) bool
    vertex_values: np.ndarray

    @cached_property
    def lc2_failed(self) -> np.ndarray:
        """(ns, 3) bool: checked pairs whose decrease margin is not negative,
        NaN included."""
        return self.lc2_checked & ~(self.lc2_margins < 0.0)

    @property
    def n_lc1_failures(self) -> int:
        return int(np.sum(~self.vertex_ok))

    @property
    def n_pairs_checked(self) -> int:
        return int(np.sum(self.lc2_checked))

    @property
    def n_lc2_failures(self) -> int:
        return int(np.sum(self.lc2_failed))

    @property
    def pair_pass_fraction(self) -> float:
        checked = self.n_pairs_checked
        return 1.0 if checked == 0 else 1.0 - self.n_lc2_failures / checked

    @property
    def certified(self) -> bool:
        return self.n_lc1_failures == 0 and self.n_lc2_failures == 0

    @property
    def failure_radius(self) -> float:
        """Largest ||x|| over vertices involved in any failed check."""
        radii = [0.0]
        bad_v = np.nonzero(~self.vertex_ok)[0]
        if bad_v.size:
            radii.append(float(np.max(np.linalg.norm(self.tri.vertices[bad_v], axis=1))))
        bad_s, bad_i = np.nonzero(self.lc2_failed)
        if bad_s.size:
            pts = self.tri.vertices[self.tri.simplices[bad_s, bad_i]]
            radii.append(float(np.max(np.linalg.norm(pts, axis=1))))
        return max(radii)

    def summary_text(self) -> str:
        lines = [
            "cpa certification",
            f"  vertices:            {self.tri.n_vertices}",
            f"  simplices:           {self.tri.n_simplices}",
            f"  positivity failures: {self.n_lc1_failures}",
            f"  pairs checked:       {self.n_pairs_checked}",
            f"  decrease failures:   {self.n_lc2_failures}",
            f"  pair pass fraction:  {self.pair_pass_fraction:.6f}",
            f"  failure radius:      {self.failure_radius:.12g}",
            f"  certified:           {self.certified}",
        ]
        return "\n".join(lines) + "\n"


def certify(
    tri: Triangulation,
    vertex_values: np.ndarray,
    fld: VectorField,
    b: BBound,
) -> CertificationReport:
    """Run both check families on sampled vertex values."""
    vals = np.asarray(vertex_values, dtype=float)
    if vals.shape != (tri.n_vertices,):
        raise CPAError(f"vertex_values must have shape ({tri.n_vertices},)")
    if b.matrix.shape != (2, 2):
        raise CPAError("B must be 2x2 for a 2-D triangulation")

    vertex_ok = vals > 0.0
    if tri.origin_vertex is not None:
        vertex_ok[tri.origin_vertex] = abs(vals[tri.origin_vertex]) <= 1e-10

    # f once per vertex, (nv, 2), evaluated _CHUNK vertices at a time so
    # that the field's temporaries stay block-sized
    f_all = np.empty((tri.n_vertices, 2))
    for s in range(0, tri.n_vertices, _CHUNK):
        f_all[s : s + _CHUNK] = fld.evaluate_at(tri.vertices[s : s + _CHUNK])
    lhs = np.empty((tri.n_simplices, 3))
    for s in range(0, len(lhs), _CHUNK):
        rows = slice(s, s + _CHUNK)
        grads = _simplex_gradients(tri, vals, rows)
        lhs[rows] = (
            np.einsum("sd,sid->si", grads, f_all[tri.simplices[rows]])
            + np.abs(grads).sum(axis=1)[:, None] * _curvature_corrections(tri, b, rows)
        )
    ov = tri.origin_vertex
    checked = np.ones_like(lhs, dtype=bool) if ov is None else tri.simplices != ov
    return CertificationReport(
        tri=tri, vertex_ok=vertex_ok, lc2_margins=lhs, lc2_checked=checked, vertex_values=vals
    )
