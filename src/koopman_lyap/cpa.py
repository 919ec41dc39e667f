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

                      E_{nu,i} = 1/2 sum_{r,s} B_rs |delta_r| (|delta_s| + |delta_last|)

                  and B bounds all second partials of the components of f on
                  the box. E_{nu,0} = 0 by construction.

At the origin the decrease inequality cannot be strict (f(0) = 0), so pairs
whose vertex is the origin are skipped. That exception is only sound when
the origin is the designated first vertex of every triangle containing it;
the builder rotates vertex triples to guarantee it.

All checks are pure arithmetic on per-simplex rows, evaluated vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    xs, ys = domain.axes(n1)
    mesh = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.stack([m.ravel() for m in mesh], axis=-1)

    def vid(i, j):
        return i * n1 + j

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

    simplices = np.empty((2 * cells * cells, 3), dtype=np.int64)
    t = 0
    for i in range(cells):
        for j in range(cells):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            simplices[t] = (v00, v10, v11)
            simplices[t + 1] = (v00, v11, v01)
            t += 2

    if origin_vertex is not None:
        # Rotate triples so the origin is the base vertex wherever it occurs.
        for row in range(simplices.shape[0]):
            tri = simplices[row]
            where = np.nonzero(tri == origin_vertex)[0]
            if where.size:
                p = int(where[0])
                simplices[row] = np.roll(tri, -p)

    vertices.setflags(write=False)
    simplices.setflags(write=False)
    return Triangulation(
        domain=domain,
        cells=cells,
        vertices=vertices,
        simplices=simplices,
        origin_vertex=origin_vertex,
    )


def _simplex_gradients(tri: Triangulation, vertex_values: np.ndarray) -> np.ndarray:
    """Affine-interpolant gradient on every simplex, shape (n_simplices, 2)."""
    vals = np.asarray(vertex_values, dtype=float)
    if vals.shape != (tri.n_vertices,):
        raise CPAError(f"vertex_values must have shape ({tri.n_vertices},)")
    pts = tri.vertices[tri.simplices]  # (ns, 3, 2)
    M = pts[:, 1:, :] - pts[:, 0:1, :]  # (ns, 2, 2)
    rhs = vals[tri.simplices][:, 1:] - vals[tri.simplices][:, 0:1]
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
    probe_resolution: int = 201,
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
    cols = [c for c in domain.grid(probe_resolution).T]
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


def _curvature_corrections(tri: Triangulation, b: BBound) -> np.ndarray:
    """E_{nu,i} for every simplex and local vertex, shape (n_simplices, 3)."""
    B = b.matrix
    pts = tri.vertices[tri.simplices]
    D = np.abs(pts - pts[:, 0:1, :])  # |x_i - x_0|, (ns, 3, 2)
    quad = np.einsum("sir,ru,siu->si", D, B, D)
    lin = np.einsum("sir,r->si", D, B.sum(axis=1))
    return 0.5 * (quad + lin * D[:, :, -1])


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

    @property
    def lc2_ok(self) -> np.ndarray:
        return (self.lc2_margins < 0.0) | ~self.lc2_checked

    @property
    def n_lc1_failures(self) -> int:
        return int(np.sum(~self.vertex_ok))

    @property
    def n_pairs_checked(self) -> int:
        return int(np.sum(self.lc2_checked))

    @property
    def n_lc2_failures(self) -> int:
        return int(np.sum(self.lc2_checked & (self.lc2_margins >= 0.0)))

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
        bad_s, bad_i = np.nonzero(self.lc2_checked & (self.lc2_margins >= 0.0))
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

    def write_failures_csv(self, path) -> None:
        """Failed checks, one row each: simplex_index, vertex_index, x1, x2,
        lhs_margin. Positivity failures use simplex_index -1 and the global
        vertex index; their margin column holds the offending V value."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("simplex_index,vertex_index,x1,x2,lhs_margin\n")
            for v in np.nonzero(~self.vertex_ok)[0]:
                x1, x2 = self.tri.vertices[v]
                fh.write(
                    f"-1,{v},{x1:.17g},{x2:.17g},{self.vertex_values[v]:.17g}\n"
                )
            bad_s, bad_i = np.nonzero(self.lc2_checked & (self.lc2_margins >= 0.0))
            for s, i in zip(bad_s, bad_i):
                x1, x2 = self.tri.vertices[self.tri.simplices[s, i]]
                fh.write(
                    f"{s},{i},{x1:.17g},{x2:.17g},{self.lc2_margins[s, i]:.17g}\n"
                )


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

    grads = _simplex_gradients(tri, vals)
    E = _curvature_corrections(tri, b)
    fV = fld.evaluate_at(tri.vertices)
    lhs = (
        np.einsum("sd,sid->si", grads, fV[tri.simplices])
        + np.abs(grads).sum(axis=1)[:, None] * E
    )
    checked = np.ones_like(lhs, dtype=bool)
    if tri.origin_vertex is not None:
        checked[tri.simplices == tri.origin_vertex] = False

    return CertificationReport(
        tri=tri,
        vertex_ok=vertex_ok,
        lc2_margins=lhs,
        lc2_checked=checked,
        vertex_values=vals,
    )
