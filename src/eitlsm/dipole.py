"""Dipole singular solutions and auxiliary-circle layer potentials.

A unit dipole at y with direction a generates the free-space field
a . Psi(x - y) with Psi(r) = -(1/2pi) r/|r|^2; subtracting the background
Neumann correction yields the singular solution whose boundary trace drives
the sampling equation. The additive constant of the singular solution is
absorbed by working in zero-mean Fourier coordinates throughout.

On the unit disk that trace has a closed form, ``disk_dipole_traces``,
which is what the sweep uses. ``SingularTraceComputer`` computes the same
traces through the background FEM system of a mesh; it is the reference
that the oracle checks and the tests compare against.

Layer densities live on an auxiliary circle of radius R > 1 enclosing the
body. The boundary normal derivative of their single layer (logarithmic
kernel, periodic trapezoid rule, geometrically convergent since the kernel
between the two circles is analytic) maps density samples to zero-mean
boundary currents; it is also available in closed Fourier form with mode
multiplier (1/2) R^(1-|k|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .forward import assemble_system
from .geometry import BoundaryField, DiskMesh, fourier_modes, fourier_projector
from .media import AdmittanceField, InclusionGeometry

__all__ = [
    "DipoleSpec",
    "AuxCircle",
    "SingularTraceComputer",
    "disk_dipole_traces",
    "singular_trace",
    "layer_current_matrix",
    "layer_current_multipliers",
]


@dataclass
class DipoleSpec:
    """Dipole source location y (strictly interior) and unit direction."""

    y: tuple[float, float]
    direction: tuple[float, float]

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        if np.hypot(*y) >= 1.0:
            raise ConfigurationError(f"dipole location {tuple(y)} is not interior")
        norm = np.hypot(*d)
        if norm == 0.0:
            raise ConfigurationError("dipole direction must be nonzero")
        self.y = (float(y[0]), float(y[1]))
        self.direction = (float(d[0] / norm), float(d[1] / norm))


@dataclass
class AuxCircle:
    """Quadrature circle of radius > 1 enclosing the body.

    ``count`` uniform nodes carry the density samples; an operator built for
    truncation N requires count >= 4N + 4.
    """

    radius: float = 2.0
    count: int = 128

    def __post_init__(self):
        if self.radius <= 1.0:
            raise ConfigurationError(f"auxiliary radius must exceed 1, got {self.radius}")
        if self.count < 4:
            raise ConfigurationError(f"need at least 4 quadrature nodes, got {self.count}")

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.count) / self.count

    @property
    def nodes(self) -> np.ndarray:
        ang = self.angles
        return self.radius * np.column_stack([np.cos(ang), np.sin(ang)])

    @property
    def weight(self) -> float:
        """Arc length per node (trapezoid weight)."""
        return 2.0 * np.pi * self.radius / self.count

    def require_order(self, N: int) -> None:
        if self.count < 4 * N + 4:
            raise ConfigurationError(
                f"{self.count} quadrature nodes are too few for truncation N={N} "
                f"(need >= {4 * N + 4})"
            )


def _dipole_boundary_values(bpts: np.ndarray, ys: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """a . Psi(x - y) at boundary points for a batch of (y, a); shape (B, nb)."""
    d = bpts[None, :, :] - ys[:, None, :]
    r2 = np.einsum("bki,bki->bk", d, d)
    ad = np.einsum("bki,bi->bk", d, dirs)
    return -ad / (2.0 * np.pi * r2)


def _dipole_neumann_data(bpts: np.ndarray, ys: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Outward normal derivative of a . Psi(x - y) on the unit circle.

    With nu = x on |x| = 1 this is
    -(1/2pi) [ nu.a / r^2 - 2 (nu.(x-y)) (a.(x-y)) / r^4 ].
    """
    d = bpts[None, :, :] - ys[:, None, :]
    r2 = np.einsum("bki,bki->bk", d, d)
    nd = np.einsum("ki,bki->bk", bpts, d)
    ad = np.einsum("bki,bi->bk", d, dirs)
    na = np.einsum("ki,bi->bk", bpts, dirs)
    return -(na / r2 - 2.0 * nd * ad / r2**2) / (2.0 * np.pi)


class SingularTraceComputer:
    """Boundary traces of dipole singular solutions on a fixed mesh.

    Assembles and condenses the background (gamma = I) system once and
    forms its boundary operator R = P S, where S maps nodal boundary
    currents to nodal traces (one column per boundary vertex) and P is the
    Fourier projector. ``trace_batch`` then costs two matrix products for any
    number of dipoles.
    """

    def __init__(self, mesh: DiskMesh, N: int):
        self._projector = fourier_projector(mesh, N)
        self.mesh = mesh
        self.N = N
        system = assemble_system(mesh, AdmittanceField(InclusionGeometry(components=[]), []))
        self._response = self._projector @ system.boundary_solve(np.eye(mesh.n_boundary))
        self._clearance = 2.0 * mesh.h_target

    def _check_interior(self, ys: np.ndarray) -> None:
        rad = np.hypot(ys[:, 0], ys[:, 1])
        limit = 1.0 - self._clearance
        if (rad > limit).any():
            worst = float(rad.max())
            raise ConfigurationError(
                f"dipole location at radius {worst:.4g} is closer than 2*h_target "
                f"= {self._clearance:.4g} to the boundary; the trace would be inaccurate"
            )

    def trace_batch(self, ys, dirs) -> np.ndarray:
        """Fourier coefficients of phi_y for each (y, direction); shape (B, 2N).

        phi_y is the free-space dipole field on the boundary minus the
        background trace of its (mean-free) Neumann data.
        """
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        self._check_interior(ys)
        mesh = self.mesh
        bpts = mesh.vertices[mesh.boundary]
        g = _dipole_neumann_data(bpts, ys, dirs)
        g = g - g.mean(axis=1, keepdims=True)  # admissible (zero-mean) currents
        w = _dipole_boundary_values(bpts, ys, dirs)
        return w @ self._projector.T - g @ self._response.T

    def trace(self, spec: DipoleSpec) -> BoundaryField:
        coeffs = self.trace_batch([spec.y], [spec.direction])[0]
        return BoundaryField(coeffs=coeffs, N=self.N, smoothness=0.5)


def disk_dipole_traces(ys, dirs, N: int) -> np.ndarray:
    """Exact Fourier coefficients of phi_y on the unit disk; shape (B, 2N).

    With the unit direction a = a1 + i a2 and y = y1 + i y2, the trace that
    ``SingularTraceComputer.trace_batch`` approximates on a mesh is
    c_n = -(1/2pi) conj(a) conj(y)^(n-1) for n > 0 and
    c_n = -(1/2pi) a y^(|n|-1) for n < 0. Locations with |y| >= 1 are refused.
    """
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if not (np.hypot(ys[:, 0], ys[:, 1]) < 1.0).all():
        raise ConfigurationError("a dipole location is not strictly inside the unit disk")
    y = ys[:, 0] + 1j * ys[:, 1]
    out = np.empty((len(ys), 2 * N), dtype=complex)
    out[:, N - 1] = (dirs[:, 0] + 1j * dirs[:, 1]) / (-2.0 * np.pi * np.hypot(*dirs.T))
    # mode -k holds a y^(k-1) / (-2pi) in column N - k, each column y times the next
    for k in range(N - 2, -1, -1):
        np.multiply(out[:, k + 1], y, out=out[:, k])
    np.conjugate(out[:, N - 1::-1], out=out[:, N:])  # mode n > 0 is the conjugate of -n
    return out


def singular_trace(mesh: DiskMesh, spec: DipoleSpec, N: int) -> BoundaryField:
    """Trace phi_y of the dipole singular solution, as a zero-mean field.

    Computes the dipole's Neumann data on the boundary analytically, removes
    its mean, and corrects with the background boundary operator, in Fourier
    coefficients (smoothness +1/2). For repeated calls on one mesh use
    :class:`SingularTraceComputer` directly: it forms that operator once.
    """
    return SingularTraceComputer(mesh, N).trace(spec)


# ---------------------------------------------------------------------------
# Layer potentials on the auxiliary circle


def layer_current_matrix(aux: AuxCircle, N: int) -> np.ndarray:
    """Quadrature form of the boundary-current operator: density samples to
    zero-mean Fourier coefficients of the normal derivative on the unit circle.

    The kernel nu . grad_x G(x, z) is evaluated on a uniform grid of
    max(4N + 4, 256) boundary points and projected by the trapezoid rule;
    the n = 0 row is structurally absent, consistent with the layer current
    having zero mean.
    """
    aux.require_order(N)
    n_theta = max(4 * N + 4, 256)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    xb = np.column_stack([np.cos(theta), np.sin(theta)])
    nodes = aux.nodes
    d = xb[:, None, :] - nodes[None, :, :]
    r2 = np.einsum("pqi,pqi->pq", d, d)
    nd = np.einsum("pi,pqi->pq", xb, d)
    kernel = -(nd / r2) / (2.0 * np.pi) * aux.weight  # (n_theta, count)
    modes = fourier_modes(N)
    proj = np.exp(-1j * np.outer(modes, theta)) / n_theta
    return proj @ kernel


def layer_current_multipliers(aux: AuxCircle, N: int) -> np.ndarray:
    """Closed Fourier form of the boundary-current operator.

    Maps density Fourier modes to current modes diagonally: mode k with
    k != 0 carries the multiplier (1/2) R^(1-|k|); the constant density
    produces zero current. Returned as the (2N, count) matrix composed with
    the nodal DFT, so it acts on density samples exactly like the quadrature
    form (up to the trapezoid aliasing error).
    """
    aux.require_order(N)
    modes = fourier_modes(N)
    mult = 0.5 * aux.radius ** (1.0 - np.abs(modes).astype(float))
    # density samples -> density Fourier modes (trapezoid DFT on the circle)
    dft = np.exp(-1j * np.outer(modes, aux.angles)) / aux.count
    return mult[:, None] * dft
