import collections
import dataclasses

import numpy as np
import pytest

from eitlsm import (
    BoundaryField,
    ConfigurationError,
    DiskMesh,
    build_disk_mesh,
    fourier_modes,
    trace_to_fourier,
)
from conftest import fourier_coefficient


def signed_areas(mesh):
    p = mesh.vertices[mesh.triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def max_edge(mesh):
    p = mesh.vertices[mesh.triangles]
    edges = np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    return float(np.linalg.norm(edges, axis=1).max())


def edge_counts(mesh):
    counts = collections.Counter()
    for a, b, c in mesh.triangles:
        for e in ((a, b), (b, c), (c, a)):
            counts[frozenset(e)] += 1
    return counts


@pytest.mark.parametrize("h", [0.5, 0.2, 0.05])
def test_mesh_invariants(h):
    mesh = build_disk_mesh(h)
    assert (signed_areas(mesh) > 0).all()
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
    assert max_edge(mesh) <= 1.5 * h


def test_mesh_holds_its_boundary_angles():
    names = [f.name for f in dataclasses.fields(DiskMesh)]
    assert names == ["vertices", "triangles", "boundary", "h_target", "boundary_angles"]
    mesh = build_disk_mesh(0.2)
    bp = mesh.vertices[mesh.boundary]
    expected = np.mod(np.arctan2(bp[:, 1], bp[:, 0]), 2 * np.pi)
    assert mesh.boundary_angles.tobytes() == expected.tobytes()


def test_mesh_area_converges_to_pi():
    mesh = build_disk_mesh(0.05)
    assert abs(signed_areas(mesh).sum() - np.pi) <= 0.01 * np.pi


def test_mesh_refinement_scaling():
    coarse = build_disk_mesh(0.2)
    fine = build_disk_mesh(0.1)
    assert len(fine.triangles) >= 4 * 0.8 * len(coarse.triangles)
    assert max_edge(fine) <= 0.5 * 1.2 * max_edge(coarse)


@pytest.mark.parametrize("h", [0.0, -0.1, 0.6, 1e-4, 5e-324])
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


def test_round_trip_band_limited():
    mesh = build_disk_mesh(0.1)
    rng = np.random.default_rng(42)
    N = 10
    coeffs = rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N)
    # synthesize f(theta_k) = sum_n f_n exp(i n theta_k) at the boundary vertices
    nodal = np.exp(1j * np.outer(mesh.boundary_angles, fourier_modes(N))) @ coeffs
    back = trace_to_fourier(mesh, nodal, N, smoothness=0.5)
    assert np.abs(back.coeffs - coeffs).max() <= 1e-10


def test_sobolev_norm_monotone_in_s():
    rng = np.random.default_rng(3)
    field = BoundaryField(rng.standard_normal(12) + 1j * rng.standard_normal(12), 6, 0.0)
    norms = [field.sobolev_norm(s) for s in (-0.5, 0.0, 0.5, 1.0)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
