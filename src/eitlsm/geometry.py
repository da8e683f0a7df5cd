"""Unit-disk triangulations and zero-mean Fourier boundary fields.

The disk is meshed with concentric rings of vertices (ring i of M carries
6i vertices, uniformly spaced in angle), so the boundary ring is exactly
uniform and every downstream quadrature over the boundary is a plain periodic
trapezoid rule. Rings i and i+1 are joined sector by sector: each 60 degree
sector holds 2i+1 triangles, one step along ring i+1, then i pairs of steps
along ring i and ring i+1.

Boundary data lives in ``BoundaryField``: truncated Fourier coefficients
for modes 1 <= |n| <= N with the n = 0 component structurally absent, which
realizes the zero-mean constraint on boundary currents and traces. The
Sobolev norm of smoothness s is sum_n |n|^(2s) |f_n|^2 on this mean-free
space.
"""

from __future__ import annotations

import math

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

    def __init__(self, coeffs, N: int, smoothness: float):
        if N < 1:
            raise ConfigurationError(f"truncation order must be >= 1, got {N}")
        self.coeffs, self.N, self.smoothness = np.asarray(coeffs, dtype=complex), N, smoothness
        if self.coeffs.shape != (2 * N,):
            raise ConfigurationError(
                f"coefficient vector has shape {self.coeffs.shape}, expected ({2 * N},)"
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


class DiskMesh:
    """Ring triangulation of the unit disk, a function of ``h_target`` alone.

    The M = ceil(1/h_target) rings, ring i at radius i/M, are numbered from
    the centre (ring 0) outward. The triangulation is conforming; every
    triangle is positively oriented, joins adjacent rings and has edges <= 1.5 * h_target.

    Fields
    ------
    h_target : float in (0, 0.5] with M <= 576 (at most 10^6 vertices), the only
        parameter; construction sets the five below from it
    vertices : float array (nv, 2)
    triangles : int array (nt, 3)
    ring_starts : int array (M + 2,), the first vertex of each ring, then nv
    pair_starts : int array (M + 1,), the first triangle of each ring pair i (rings i, i + 1), then nt
    boundary_angles : float array (nb,), polar angle 2 pi k / nb of boundary vertex k
    """

    def __init__(self, h_target: float):
        check_mesh_settings(h_target)
        self.h_target = h_target
        M = math.ceil(1.0 / h_target)
        i = np.arange(M + 1)
        self.ring_starts = np.append(0, 1 + 3 * i * (i + 1))
        size = np.diff(self.ring_starts)  # 1, then 6i on ring i
        ring = np.repeat(i, size)
        ang = 2.0 * np.pi * (np.arange(len(ring)) - self.ring_starts[ring]) / size[ring]
        r = ring / M
        self.vertices = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        self.boundary_angles = ang[self.ring_starts[-2]:].copy()  # 2 pi k / nb exactly

        # Ring pair i (the centre a ring of one) owns triangles [6i^2, 6(i+1)^2): per sector an
        # outer step, then i (inner, outer) pairs; from slots (a, b) they add (a, b, a+1), (a, b, b+1).
        self.pair_starts = 6 * i**2
        pair = np.repeat(i[:-1], np.diff(self.pair_starts))
        sector, step = np.divmod(np.arange(self.pair_starts[-1]) - self.pair_starts[pair], 2 * pair + 1)
        a, b = sector * pair + step // 2, sector * (pair + 1) + (step + 1) // 2
        na, nb = np.maximum(6 * pair, 1), 6 * pair + 6
        sa, sb = self.ring_starts[pair], self.ring_starts[pair + 1]
        third = np.where(step % 2 == 1, sa + (a + 1) % na, sb + (b + 1) % nb)
        self.triangles = np.column_stack([sa + a % na, sb + b % nb, third])

    @property
    def boundary(self) -> np.ndarray:
        """Vertex indices of the outer ring, on the unit circle, in strictly increasing angle."""
        return np.arange(self.ring_starts[-2], self.n_vertices)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary)

    def boundary_edge_lengths(self) -> np.ndarray:
        """Length of boundary edge k = (boundary[k], boundary[k+1]), cyclic: the chord 2 sin(pi/nb)."""
        return np.full(self.n_boundary, 2 * np.sin(np.pi / self.n_boundary))


def check_order(N: int, nb: int, where: str = "") -> None:
    """Refuse a truncation order N that aliases on nb boundary vertices (2N + 1 > nb)."""
    if 2 * N + 1 > nb:
        raise ConfigurationError(f"{where}truncation N={N} aliases on {nb} boundary vertices "
                                 f"(need 2N+1 <= {nb})")


def check_mesh_settings(h_target: float, N: int | None = None, where: str = "") -> None:
    """Refuse an ``h_target`` that ``DiskMesh`` cannot use and an ``N`` (if given) that
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
    """Triangulate the unit disk at edge scale ``h_target``: ``DiskMesh(h_target)``."""
    return DiskMesh(h_target)


def fourier_projector(mesh: DiskMesh, N: int) -> np.ndarray:
    """Matrix P, shape (2N, nb), taking nodal boundary values to zero-mean Fourier coefficients.

    Row n holds the periodic trapezoid-rule integral over the uniform boundary
    ring, the equal-weight DFT

        f_n = (1/nb) sum_k f(theta_k) exp(-i n theta_k);

    the n = 0 row is absent (mean removal is structural). Requires 2N + 1 <= nb.
    """
    check_order(N, mesh.n_boundary)
    return np.exp(-1j * np.outer(fourier_modes(N), mesh.boundary_angles)) / mesh.n_boundary


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
