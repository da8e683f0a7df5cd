"""Dipole singular solutions and auxiliary-circle layer potentials.

A unit dipole at y with direction a generates the free-space field
a . Psi(x - y) with Psi(r) = -(1/2pi) r/|r|^2; subtracting the background
Neumann correction yields the singular solution whose boundary trace drives
the sampling equation. The additive constant of the singular solution is
absorbed by working in zero-mean Fourier coordinates throughout.

On the unit disk that trace has a closed form, ``disk_dipole_traces``,
which is what the sweep uses. ``SingularTraceComputer`` computes the same
traces through the background FEM system of a mesh; it is the reference
that the oracle checks and the tests compare against. Both, like
``DipoleSpec``, refuse a NaN location or one outside |y| < 1 (|y| <= 1 -
2 h_target for the FEM traces), and a zero or non-finite direction.

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
from .media import AdmittanceField

__all__ = [
    "DipoleSpec",
    "AuxCircle",
    "SingularTraceComputer",
    "disk_dipole_traces",
    "singular_trace",
    "layer_current_matrix",
    "layer_current_multipliers",
]


def _unit_dipoles(ys, dirs, inside=lambda r: r < 1.0, region="strictly inside the unit disk"):
    """(B, 2) locations, each y with ``inside(|y|)`` true (never so for NaN), and
    unit directions of a dipole batch; ``region`` names the rule on y."""
    ys = np.asarray(ys, dtype=float).reshape(-1, 2)
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 2)
    ok = inside(np.hypot(ys[:, 0], ys[:, 1]))
    if not ok.all():
        raise ConfigurationError(f"dipole location {ys[ok.argmin()].tolist()} is not {region}")
    norm = np.hypot(dirs[:, 0], dirs[:, 1])
    if not (np.isfinite(norm) & (norm > 0.0)).all():
        raise ConfigurationError("a dipole direction is zero or not finite")
    return ys, dirs / norm[:, None]


@dataclass
class DipoleSpec:
    """Dipole source location y (strictly interior) and unit direction."""

    y: tuple[float, float]
    direction: tuple[float, float]

    def __post_init__(self):
        (y,), (d,) = _unit_dipoles(self.y, self.direction)  # one dipole, each a pair
        self.y, self.direction = tuple(y.tolist()), tuple(d.tolist())


@dataclass
class AuxCircle:
    """Quadrature circle of radius > 1 enclosing the body.

    ``count`` uniform nodes carry the density samples; an operator built for
    truncation N requires count >= 4N + 4.
    """

    radius: float = 2.0
    count: int = 128

    def __post_init__(self):
        if not self.radius > 1.0:
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
        system = assemble_system(mesh, AdmittanceField([], []))
        self._response = self._projector @ system.boundary_solve(np.eye(mesh.n_boundary))

    def trace_batch(self, ys, dirs) -> np.ndarray:
        """Fourier coefficients of phi_y for each (y, direction); shape (B, 2N).

        phi_y is the free-space dipole field a . Psi(x - y) on the boundary
        minus the background trace of its Neumann data, made mean-free. With
        nu = x on |x| = 1 that data, the outward normal derivative of the
        field, is -(1/2pi) [ nu.a / r^2 - 2 (nu.(x-y)) (a.(x-y)) / r^4 ].
        Locations need |y| <= 1 - 2*h_target.
        """
        limit = 1.0 - 2.0 * self.mesh.h_target
        ys, dirs = _unit_dipoles(ys, dirs, lambda r: r <= limit,
                                 f"at radius <= 1 - 2*h_target = {limit:.4g}, where "
                                 "the trace is accurate")
        bpts = self.mesh.vertices[self.mesh.boundary]
        d = bpts[None, :, :] - ys[:, None, :]
        r2 = np.einsum("bki,bki->bk", d, d)
        ad = np.einsum("bki,bi->bk", d, dirs)
        nd = np.einsum("ki,bki->bk", bpts, d)
        na = np.einsum("ki,bi->bk", bpts, dirs)
        g = -(na / r2 - 2.0 * nd * ad / r2**2) / (2.0 * np.pi)
        g -= g.mean(axis=1, keepdims=True)  # admissible (zero-mean) currents
        return (-ad / (2.0 * np.pi * r2)) @ self._projector.T - g @ self._response.T


def disk_dipole_traces(ys, dirs, N: int) -> np.ndarray:
    """Exact Fourier coefficients of phi_y on the unit disk; shape (B, 2N).

    With the unit direction a = a1 + i a2 and y = y1 + i y2, the trace that
    ``SingularTraceComputer.trace_batch`` approximates on a mesh is
    c_n = -(1/2pi) conj(a) conj(y)^(n-1) for n > 0 and
    c_n = -(1/2pi) a y^(|n|-1) for n < 0. Locations need |y| < 1.
    """
    ys, dirs = _unit_dipoles(ys, dirs)
    y = ys[:, 0] + 1j * ys[:, 1]
    out = np.empty((len(ys), 2 * N), dtype=complex)
    out[:, N - 1] = (dirs[:, 0] + 1j * dirs[:, 1]) / (-2.0 * np.pi)
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
    coeffs = SingularTraceComputer(mesh, N).trace_batch([spec.y], [spec.direction])[0]
    return BoundaryField(coeffs=coeffs, N=N, smoothness=0.5)


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
