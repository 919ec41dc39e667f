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
_layout rotates vertex triples to guarantee it.

No simplex table is stored: _layout gives the vertices of any simplices.
certify forms the margins per block of _CHUNK simplices from f evaluated
once per vertex, _CHUNK vertices at a time, and keeps of each block only the
count of checked pairs and the failed ones: nv x 2 values and the failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Regular triangulation of a 2-D box in the module docstring's Layout:
    vertices, origin_vertex and cell_widths are built from domain and cells,
    _layout gives the vertices of any simplex. The origin, if in the box,
    must be a grid vertex (an even cell count on a symmetric box is)."""

    domain: Box
    cells: int
    vertices: np.ndarray = field(init=False)  # ((cells+1)^2, 2)
    origin_vertex: int | None = field(init=False)
    cell_widths: np.ndarray = field(init=False, repr=False)  # (2, cells)

    def __post_init__(self):
        domain, cells = self.domain, self.cells
        if domain.dim != 2:
            raise CPAError("triangulation is 2-D only")
        if cells < 2:
            raise CPAError("need at least 2 cells per axis")
        n1 = cells + 1
        try:
            origin_vertex = domain.origin_node(n1)
        except ValueError as exc:
            raise CPAError(str(exc)) from None
        vertices = domain.grid(n1)
        cell_widths = np.diff(domain.axes(n1), axis=1)
        for a in (vertices, cell_widths):
            a.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "origin_vertex", origin_vertex)
        object.__setattr__(self, "cell_widths", cell_widths)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_simplices(self) -> int:
        return 2 * self.cells * self.cells


def build_triangulation(domain: Box, cells: int) -> Triangulation:
    """The Triangulation of domain with cells x cells cells."""
    return Triangulation(domain, cells)


def _layout(tri: Triangulation, s: np.ndarray):
    """Per simplex index of s (module docstring, Layout): its vertex indices
    (n, 3), a triple holding the origin rotated to put it first; the first
    vertices a of its x1 edge and b of its x2 edge; its cell's widths."""
    upper = s & 1
    i, j = np.divmod(s >> 1, tri.cells)
    n1 = tri.cells + 1
    v00 = i * n1 + j
    a = v00 + upper  # x1 edge: v00 -> v10 (lower), v01 -> v11 (upper)
    b = v00 + n1 * (1 - upper)  # x2 edge: v10 -> v11 (lower), v00 -> v01 (upper)
    S = np.stack([v00, a + n1, b + 1], axis=1)  # (v00, v10, v11) or (v00, v11, v01)
    hit = S == tri.origin_vertex  # all False without the origin
    if hit.any():
        rows, shift = np.nonzero(hit)
        S[rows] = np.take_along_axis(S[rows], (np.arange(3) + shift[:, None]) % 3, 1)
    w1, w2 = tri.cell_widths
    return S, a, b, (w1[i], w2[j])


def _simplex_gradients(tri: Triangulation, vertex_values: np.ndarray, layout) -> np.ndarray:
    """Affine-interpolant gradient on the simplices of a _layout, shape
    (n, 2), from the (n_vertices,) vertex values: per axis one edge
    difference over the cell's width."""
    _, a, b, (w1, w2) = layout
    n1, V = tri.cells + 1, vertex_values
    return np.stack([(V[a + n1] - V[a]) / w1, (V[b + 1] - V[b]) / w2], axis=1)


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
    # the nodes of axis l along array axis l broadcast to the grid's values
    cols = [a.reshape(-1, *[1] * (d - 1 - l)) for l, a in enumerate(domain.axes(_B_PROBES))]
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


def _curvature_corrections(tri: Triangulation, b: BBound, layout) -> np.ndarray:
    """E_{nu,i} for the simplices of a _layout and each local vertex, shape
    (n, 3), from the cell widths (module docstring)."""
    S, _, _, (w1, w2) = layout
    B, n1 = b.matrix, tri.cells + 1
    step = np.abs(S - S[:, :1])
    ext = w1[:, None], w2[:, None]  # ext_s
    D = ext[0] * (step >= n1), ext[1] * (step % n1 == 1)  # |delta_is|
    Y = D[0] + ext[0], D[1] + ext[1]
    return 0.5 * sum(D[r] * B[r, s] * Y[s] for r in range(2) for s in range(2))


def _margins(tri: Triangulation, vertex_values: np.ndarray, f: np.ndarray, b: BBound, s):
    """Decrease left-hand sides (n, 3) of the simplices s, from the vertex
    values and f (n_vertices, 2) at every vertex, and their vertex indices."""
    layout = _layout(tri, s)
    grads = _simplex_gradients(tri, vertex_values, layout)
    lhs = (
        np.einsum("sd,sid->si", grads, f[layout[0]])
        + np.abs(grads).sum(axis=1)[:, None] * _curvature_corrections(tri, b, layout)
    )
    return lhs, layout[0]


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of the vertex and per-pair checks: positivity per vertex; the
    count of checked pairs (those at the origin vertex are exempt) and the
    failed ones, in simplex then local vertex order. A pair passes only on a
    negative margin (the decrease left-hand side), so NaN fails."""

    tri: Triangulation
    vertex_ok: np.ndarray  # (nv,) bool, positivity
    vertex_values: np.ndarray  # (nv,)
    n_pairs_checked: int
    failed_pairs: np.ndarray  # (nf, 2) int: simplex, local vertex
    failed_margins: np.ndarray  # (nf,) float

    @property
    def failed_vertices(self) -> np.ndarray:
        """(nf,) the vertex index of each failed pair."""
        s, i = self.failed_pairs.T
        return _layout(self.tri, s)[0][np.arange(len(s)), i]

    @property
    def n_lc1_failures(self) -> int:
        return int(np.sum(~self.vertex_ok))

    @property
    def n_lc2_failures(self) -> int:
        return len(self.failed_margins)

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
        bad = np.concatenate([np.flatnonzero(~self.vertex_ok), self.failed_vertices])
        return float(np.max(np.linalg.norm(self.tri.vertices[bad], axis=1), initial=0.0))

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
    n_checked, failed, margins = 0, [], []
    for start in range(0, tri.n_simplices, _CHUNK):
        s = np.arange(start, min(start + _CHUNK, tri.n_simplices))
        lhs, S = _margins(tri, vals, f_all, b, s)
        checked = S != tri.origin_vertex  # every pair if the box has no origin
        n_checked += int(np.count_nonzero(checked))
        bad_s, bad_i = np.nonzero(checked & ~(lhs < 0.0))
        failed.append(np.stack([s[bad_s], bad_i], axis=1))
        margins.append(lhs[bad_s, bad_i])
    return CertificationReport(
        tri=tri, vertex_ok=vertex_ok, vertex_values=vals, n_pairs_checked=n_checked,
        failed_pairs=np.concatenate(failed), failed_margins=np.concatenate(margins),
    )
