"""Unit-disk triangulations and zero-mean Fourier boundary fields.

The disk is meshed with concentric rings of vertices (ring i of M carries
6i vertices, uniformly spaced in angle) joined by a deterministic annulus
zip, so the boundary ring is exactly uniform and every downstream quadrature
over the boundary is a plain periodic trapezoid rule.

Boundary data lives in ``BoundaryField``: truncated Fourier coefficients
for modes 1 <= |n| <= N with the n = 0 component structurally absent, which
realizes the zero-mean constraint on boundary currents and traces. The
Sobolev norm of smoothness s is sum_n |n|^(2s) |f_n|^2 on this mean-free
space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "DiskMesh",
    "BoundaryField",
    "fourier_modes",
    "check_mesh_settings",
    "build_disk_mesh",
    "fourier_projector",
    "trace_to_fourier",
]


def fourier_modes(N: int) -> np.ndarray:
    """Mode numbers in coefficient-vector order: -N..-1, 1..N."""
    return np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])


@dataclass(eq=False)
class BoundaryField:
    """Zero-mean function on the unit circle, stored as Fourier coefficients.

    Parameters
    ----------
    coeffs : complex array, shape (2N,)
        Coefficients f_n ordered n = -N..-1, 1..N (no n = 0 entry).
    N : int
        Truncation order, N >= 1.
    smoothness : float
        Sobolev index s of the space the field is viewed in (-1/2 for
        currents, +1/2 for traces).
    """

    coeffs: np.ndarray
    N: int
    smoothness: float

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.N < 1:
            raise ConfigurationError(f"truncation order must be >= 1, got {self.N}")
        if self.coeffs.shape != (2 * self.N,):
            raise ConfigurationError(
                f"coefficient vector has shape {self.coeffs.shape}, expected ({2 * self.N},)"
            )

    @property
    def modes(self) -> np.ndarray:
        return fourier_modes(self.N)

    def sobolev_norm(self, s: float | None = None) -> float:
        """Norm ( sum |n|^(2s) |f_n|^2 )^(1/2); s defaults to the field's tag."""
        if s is None:
            s = self.smoothness
        w = np.abs(self.modes).astype(float) ** s
        return float(np.linalg.norm(w * self.coeffs))


@dataclass(eq=False)
class DiskMesh:
    """Conforming triangulation of the unit disk.

    Fields
    ------
    vertices : float array (nv, 2)
    triangles : int array (nt, 3), positively oriented
    boundary : int array (nb,), vertex indices on the unit circle ordered
        by strictly increasing polar angle in [0, 2pi)
    h_target : float, requested maximum edge length
    boundary_angles : float array (nb,), polar angle in [0, 2pi) of each boundary vertex
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    h_target: float
    boundary_angles: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary)

    @property
    def boundary_weights(self) -> np.ndarray:
        """Periodic trapezoid weights in angle, w_k = (theta_{k+1} - theta_{k-1})/2."""
        theta = self.boundary_angles
        gaps = np.diff(theta, append=theta[0] + 2 * np.pi)
        return 0.5 * (gaps + np.roll(gaps, 1))

    def boundary_edge_lengths(self) -> np.ndarray:
        """Length of boundary edge k = (boundary[k], boundary[k+1]), cyclic."""
        bp = self.vertices[self.boundary]
        return np.linalg.norm(np.roll(bp, -1, axis=0) - bp, axis=1)


def check_order(N: int, nb: int, where: str = "") -> None:
    """Refuse a truncation order N that aliases on nb boundary vertices (2N + 1 > nb)."""
    if 2 * N + 1 > nb:
        raise ConfigurationError(f"{where}truncation N={N} aliases on {nb} boundary vertices "
                                 f"(need 2N+1 <= {nb})")


def check_mesh_settings(h_target: float, N: int | None = None, where: str = "") -> None:
    """Refuse an ``h_target`` that ``build_disk_mesh`` cannot use and an ``N`` (if given) that
    aliases on its boundary; messages name ``h_target`` or ``N`` after ``where``."""
    if not (0.0 < h_target <= 0.5):
        raise ConfigurationError(f"{where}h_target: must lie in (0, 0.5], got {h_target}")
    # M = ceil(1/h_target) rings hold 1 + 3M(M + 1) vertices, over 10^6 when M > 576;
    # the quotient stays a float, since it may be inf
    if 1.0 / float(h_target) > 576:
        raise ConfigurationError(f"{where}h_target: {h_target} gives over 10^6 mesh vertices")
    if N is not None:
        check_order(N, 6 * math.ceil(1.0 / h_target), f"{where}N: ")


def build_disk_mesh(h_target: float) -> DiskMesh:
    """Triangulate the unit disk with maximum edge length <= 1.5 * h_target.

    Vertices sit on M = ceil(1/h_target) concentric rings, ring i holding
    6i uniformly spaced vertices at radius i/M; annuli are zipped by angular
    merge. All triangles are positively oriented and the triangulation is
    conforming by construction.

    Parameters
    ----------
    h_target : float
        Requested edge scale in (0, 0.5], with M <= 576 (at most 10^6 vertices).
    """
    check_mesh_settings(h_target)
    M = math.ceil(1.0 / h_target)
    verts = [np.zeros((1, 2))]
    ring_start = np.zeros(M + 1, dtype=int)
    count = 1
    for i in range(1, M + 1):
        n_i = 6 * i
        ring_start[i] = count
        ang = 2.0 * np.pi * np.arange(n_i) / n_i
        r = i / M
        verts.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
        count += n_i
    vertices = np.concatenate(verts)

    tris = []
    s1 = ring_start[1]
    for j in range(6):
        tris.append((0, s1 + j, s1 + (j + 1) % 6))
    for i in range(1, M):
        na, nb = 6 * i, 6 * (i + 1)
        sa, sb = ring_start[i], ring_start[i + 1]
        ia = ib = 0
        while ia < na or ib < nb:
            # advance whichever ring has the smaller next (unwrapped) angle
            if ib >= nb or (ia < na and (ia + 1) * nb <= (ib + 1) * na):
                tris.append((sa + ia % na, sb + ib % nb, sa + (ia + 1) % na))
                ia += 1
            else:
                tris.append((sa + ia % na, sb + ib % nb, sb + (ib + 1) % nb))
                ib += 1
    triangles = np.array(tris, dtype=int)

    boundary = ring_start[M] + np.arange(6 * M)
    x, y = vertices[boundary].T
    return DiskMesh(vertices, triangles, boundary, h_target, np.mod(np.arctan2(y, x), 2 * np.pi))


def fourier_projector(mesh: DiskMesh, N: int) -> np.ndarray:
    """Matrix P, shape (2N, nb), taking nodal boundary values to zero-mean Fourier coefficients.

    Row n holds the periodic trapezoid-rule integral over the
    angle-parameterized boundary,

        f_n = (1/2pi) sum_k w_k f(theta_k) exp(-i n theta_k),

    with the weights of :attr:`DiskMesh.boundary_weights`; the n = 0 row is
    absent (mean removal is structural). Requires 2N + 1 <= nb.
    """
    check_order(N, mesh.n_boundary)
    E = np.exp(-1j * np.outer(fourier_modes(N), mesh.boundary_angles))
    return E * (mesh.boundary_weights / (2 * np.pi))


def trace_to_fourier(mesh: DiskMesh, nodal, N: int, smoothness: float) -> BoundaryField:
    """Project nodal boundary values to a zero-mean Fourier field (see :func:`fourier_projector`).

    Parameters
    ----------
    mesh : DiskMesh
    nodal : complex array, one value per boundary vertex
    N : int
        Truncation order; requires 2N + 1 <= number of boundary vertices.
    smoothness : float
        Sobolev tag attached to the result.
    """
    nodal = np.asarray(nodal, dtype=complex)
    nb = mesh.n_boundary
    if nodal.shape != (nb,):
        raise ConfigurationError(
            f"nodal data has shape {nodal.shape}, expected ({nb},) for this mesh"
        )
    return BoundaryField(coeffs=fourier_projector(mesh, N) @ nodal, N=N, smoothness=smoothness)
