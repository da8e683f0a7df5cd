import collections

import numpy as np
import pytest

from eitlsm import (
    BoundaryField,
    ConfigurationError,
    build_disk_mesh,
    fourier_modes,
    fourier_to_trace,
    max_edge_length,
    trace_to_fourier,
    triangle_areas,
)
from conftest import fourier_coefficient


def edge_counts(mesh):
    counts = collections.Counter()
    for a, b, c in mesh.triangles:
        for e in ((a, b), (b, c), (c, a)):
            counts[frozenset(e)] += 1
    return counts


@pytest.mark.parametrize("h", [0.5, 0.2, 0.05])
def test_mesh_invariants(h):
    mesh = build_disk_mesh(h)
    areas = triangle_areas(mesh)
    assert (areas > 0).all()
    # conforming: every edge in 1 (boundary) or 2 (interior) triangles
    counts = edge_counts(mesh)
    assert set(counts.values()) <= {1, 2}
    n_boundary_edges = sum(1 for v in counts.values() if v == 1)
    assert n_boundary_edges == mesh.n_boundary
    # boundary on the unit circle, angles strictly increasing
    radii = np.linalg.norm(mesh.vertices[mesh.boundary], axis=1)
    assert np.abs(radii - 1.0).max() <= 1e-12
    assert (np.diff(mesh.boundary_angles) > 0).all()
    assert mesh.boundary_angles[0] >= 0.0 and mesh.boundary_angles[-1] < 2 * np.pi
    assert max_edge_length(mesh) <= 1.5 * h


def test_mesh_area_converges_to_pi():
    mesh = build_disk_mesh(0.05)
    assert abs(triangle_areas(mesh).sum() - np.pi) <= 0.01 * np.pi


def test_mesh_refinement_scaling():
    coarse = build_disk_mesh(0.2)
    fine = build_disk_mesh(0.1)
    assert len(fine.triangles) >= 4 * 0.8 * len(coarse.triangles)
    assert max_edge_length(fine) <= 0.5 * 1.2 * max_edge_length(coarse)


@pytest.mark.parametrize("h", [0.0, -0.1, 0.6])
def test_mesh_h_target_validation(h):
    with pytest.raises(ConfigurationError):
        build_disk_mesh(h)


def test_trace_to_fourier_cosine():
    mesh = build_disk_mesh(0.1)
    theta = mesh.boundary_angles
    field = trace_to_fourier(mesh, np.cos(theta), N=8, smoothness=-0.5)
    modes = field.modes
    oracle = np.array([fourier_coefficient(np.cos, n) for n in modes])
    assert np.abs(field.coeffs - oracle).max() <= 1e-10
    assert abs(field.coeffs[modes == 1][0] - 0.5) <= 1e-10
    assert abs(field.coeffs[modes == -1][0] - 0.5) <= 1e-10


def test_trace_to_fourier_constant_killed():
    mesh = build_disk_mesh(0.1)
    field = trace_to_fourier(mesh, np.ones(mesh.n_boundary), N=6, smoothness=-0.5)
    assert np.abs(field.coeffs).max() <= 1e-12


def test_trace_to_fourier_sin3():
    mesh = build_disk_mesh(0.1)
    theta = mesh.boundary_angles
    field = trace_to_fourier(mesh, np.sin(3 * theta), N=8, smoothness=-0.5)
    modes = field.modes
    oracle = np.array([fourier_coefficient(lambda t: np.sin(3 * t), n) for n in modes])
    assert np.abs(field.coeffs - oracle).max() <= 1e-10
    assert abs(field.coeffs[modes == 3][0] - (-0.5j)) <= 1e-10
    assert abs(field.coeffs[modes == -3][0] - 0.5j) <= 1e-10


def test_trace_to_fourier_aliasing_rejected():
    mesh = build_disk_mesh(0.5)  # 12 boundary vertices
    with pytest.raises(ConfigurationError):
        trace_to_fourier(mesh, np.zeros(mesh.n_boundary), N=6, smoothness=-0.5)


def test_fourier_to_trace_single_mode():
    mesh = build_disk_mesh(0.2)
    N = 4
    coeffs = np.zeros(2 * N, dtype=complex)
    modes = fourier_modes(N)
    coeffs[modes == 1] = 0.5
    coeffs[modes == -1] = 0.5
    field = BoundaryField(coeffs, N, smoothness=-0.5)
    nodal = fourier_to_trace(field, mesh)
    assert np.abs(nodal - np.cos(mesh.boundary_angles)).max() <= 1e-12


def test_fourier_to_trace_zero():
    mesh = build_disk_mesh(0.2)
    field = BoundaryField(np.zeros(8, dtype=complex), 4, smoothness=-0.5)
    assert np.abs(fourier_to_trace(field, mesh)).max() == 0.0


def test_round_trip_band_limited():
    mesh = build_disk_mesh(0.1)
    rng = np.random.default_rng(42)
    N = 10
    coeffs = rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N)
    field = BoundaryField(coeffs, N, smoothness=0.5)
    back = trace_to_fourier(mesh, fourier_to_trace(field, mesh), N, smoothness=0.5)
    assert np.abs(back.coeffs - coeffs).max() <= 1e-10


def test_sobolev_norm_monotone_in_s():
    rng = np.random.default_rng(3)
    field = BoundaryField(rng.standard_normal(12) + 1j * rng.standard_normal(12), 6, 0.0)
    norms = [field.sobolev_norm(s) for s in (-0.5, 0.0, 0.5, 1.0)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_real_valued_flag():
    N = 3
    modes = fourier_modes(N)
    coeffs = np.zeros(2 * N, dtype=complex)
    coeffs[modes == 2] = 1.0 - 0.5j
    coeffs[modes == -2] = 1.0 + 0.5j
    assert BoundaryField(coeffs, N, 0.0).is_real_valued()
    coeffs[modes == -2] = 1.0 - 0.5j
    assert not BoundaryField(coeffs, N, 0.0).is_real_valued()
