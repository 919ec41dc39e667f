"""Continuous piecewise affine certification on a triangulated 2-D box.

The box is split into cells x cells squares, each cut along the diagonal
from its bottom-left to its top-right corner, giving 2 * cells^2 congruent
triangles over (cells + 1)^2 vertices. The candidate function is sampled at
the vertices; on each triangle it is replaced by the affine interpolant.

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
                  of f on the box. E_{nu,0} = 0 by construction. With ext_s
                  (Giesl & Hafstein, JMAA 410, 2014) E bounds the error
                  whichever vertex is x_0, so also on the triangles the
                  builder rotates to put the origin first.

At the origin the decrease inequality cannot be strict (f(0) = 0), so pairs
whose vertex is the origin are skipped. That exception is only sound when
the origin is the designated first vertex of every triangle containing it;
the builder rotates vertex triples to guarantee it.

All checks are pure arithmetic on per-simplex rows, evaluated vectorized
over blocks of _CHUNK rows, so that the memory certify needs beyond its
report does not grow with the mesh.
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

_CHUNK = 1024  # simplex rows per block of certify
_B_PROBES = 201  # probe-grid nodes per axis of estimate_b_bound


class CPAError(ValueError):
    pass


@dataclass(frozen=True)
class Triangulation:
    """Regular triangulation of a 2-D box; simplices store vertex indices
    with the designated base vertex first."""

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

    # cell (i, j) in row-major order gives triangles (v00, v10, v11) and
    # (v00, v11, v01), with vid(i, j) = i * n1 + j; v10 = v00 + n1,
    # v11 = v00 + n1 + 1 and v01 = v00 + 1
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


def _simplex_gradients(
    tri: Triangulation, vertex_values: np.ndarray, rows=slice(None)
) -> np.ndarray:
    """Affine-interpolant gradient on the simplices of rows (all by default),
    shape (n_rows, 2), from the (n_vertices,) vertex values."""
    S = tri.simplices[rows]
    pts = tri.vertices[S]  # (ns, 3, 2)
    M = pts[:, 1:, :] - pts[:, 0:1, :]  # (ns, 2, 2)
    v = vertex_values[S]
    rhs = v[:, 1:] - v[:, 0:1]
    # trailing axis keeps numpy's stacked-solve from reading rhs as one matrix
    return np.linalg.solve(M, rhs[:, :, None])[:, :, 0]


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
    vertex, shape (n_rows, 3)."""
    B = b.matrix
    pts = tri.vertices[tri.simplices[rows]]
    D = np.abs(pts - pts[:, 0:1, :])  # |delta_i| = |x_i - x_0|, (ns, 3, 2)
    Y = D + D.max(axis=1, keepdims=True)  # |delta_is| + ext_s
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

    ns = tri.n_simplices
    lhs = np.empty((ns, 3))
    checked = np.ones((ns, 3), dtype=bool)
    for s in range(0, ns, _CHUNK):
        rows = slice(s, min(s + _CHUNK, ns))
        S = tri.simplices[rows]
        # f on the block's contiguous range of vertex indices only
        lo = int(S.min())
        fV = fld.evaluate_at(tri.vertices[lo : int(S.max()) + 1])[S - lo]
        grads = _simplex_gradients(tri, vals, rows)
        lhs[rows] = (
            np.einsum("sd,sid->si", grads, fV)
            + np.abs(grads).sum(axis=1)[:, None] * _curvature_corrections(tri, b, rows)
        )
        if tri.origin_vertex is not None:
            checked[rows] = S != tri.origin_vertex

    return CertificationReport(
        tri=tri,
        vertex_ok=vertex_ok,
        lc2_margins=lhs,
        lc2_checked=checked,
        vertex_values=vals,
    )
