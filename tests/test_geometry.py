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
    # ring layout: ring i of M holds 6i vertices, the centre is ring 0
    starts = mesh.ring_starts
    assert starts[-1] == mesh.n_vertices
    assert np.array_equal(np.diff(starts), [1] + [6 * i for i in range(1, len(starts) - 1)])
    ring = np.searchsorted(starts, mesh.triangles, side="right") - 1
    assert (np.ptp(ring, axis=1) == 1).all()  # every triangle joins two adjacent rings
    # the boundary is the outer ring, in vertex order
    on_boundary_edges = set().union(*(e for e, c in counts.items() if c == 1))
    assert np.array_equal(mesh.boundary, sorted(on_boundary_edges))


@pytest.mark.parametrize("h", [0.5, 0.2, 0.05, 0.03, 0.015])
def test_mesh_maps_onto_itself_under_a_sixth_turn(h):
    # the FEM's sector DFT needs the 60 degree rotation (ring i, slot j) -> (i, j + i mod 6i)
    # to permute the vertices and the triangle set
    mesh = build_disk_mesh(h)
    starts = mesh.ring_starts
    ring = np.searchsorted(starts, np.arange(mesh.n_vertices), side="right") - 1
    turn = starts[ring] + (np.arange(mesh.n_vertices) - starts[ring] + ring) % np.maximum(6 * ring, 1)
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    assert np.abs(mesh.vertices[turn] - mesh.vertices @ [[c, s], [-s, c]]).max() <= 1e-12
    triangles = np.unique(np.sort(mesh.triangles, axis=1), axis=0)
    assert np.array_equal(np.unique(np.sort(turn[mesh.triangles], axis=1), axis=0), triangles)
    assert len(triangles) == len(mesh.triangles)


@pytest.mark.parametrize("h", [0.5, 0.3, 0.2, 0.1, 0.05, 0.03, 0.015])
def test_ring_pairs_hold_their_triangles(h):
    # the FEM reads ring i's rows from ring pairs i - 1 and i alone
    mesh = build_disk_mesh(h)
    M = len(mesh.ring_starts) - 2
    assert np.array_equal(mesh.pair_starts, [6 * i * i for i in range(M + 1)])
    assert mesh.pair_starts[-1] == len(mesh.triangles)
    ring = np.searchsorted(mesh.ring_starts, mesh.triangles, side="right") - 1
    pair = np.repeat(np.arange(M), np.diff(mesh.pair_starts))
    assert (ring.min(axis=1) == pair).all() and (ring.max(axis=1) == pair + 1).all()


def merged_ring_mesh(h):
    """Reference ring mesh: one loop over the rings, a two-cursor merge per ring pair."""
    M = int(np.ceil(1.0 / h))
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
    return np.concatenate(verts), np.array(tris, dtype=int), np.append(ring_start, count)


@pytest.mark.parametrize("h", [0.5, 0.3, 0.2, 0.1, 0.05, 0.03, 0.015, 0.005])
def test_mesh_matches_the_ring_merge(h):
    mesh = DiskMesh(h)
    for name, expected in zip(("vertices", "triangles", "ring_starts"), merged_ring_mesh(h)):
        got = getattr(mesh, name)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()


def test_mesh_holds_its_boundary_angles():
    # a mesh is a value of h_target: nothing else can be handed to the constructor
    assert [f.name for f in dataclasses.fields(DiskMesh) if f.init] == ["h_target"]
    for h in (0.2, 0.03):  # at 0.03, arctan2 of the vertex coordinates misses 23 of 204 by an ulp
        mesh = DiskMesh(h)
        nb = mesh.n_boundary
        expected = 2 * np.pi * np.arange(nb) / nb
        assert mesh.boundary_angles.tobytes() == expected.tobytes()


@pytest.mark.parametrize("h", [0.5, 0.2, 0.1, 0.03, 0.0075])
def test_boundary_quadrature_is_the_uniform_ring_constant(h):
    mesh = DiskMesh(h)
    nb = mesh.n_boundary
    chord = 2 * np.sin(np.pi / nb)
    assert np.all(mesh.boundary_edge_lengths() == chord)
    # the constant is the chord the boundary vertices span, whose coordinates carry the
    # roundoff of their angles (about 1e-15 absolute)
    bp = mesh.vertices[mesh.boundary]
    gaps = np.linalg.norm(np.roll(bp, -1, axis=0) - bp, axis=1)
    assert np.linalg.norm(gaps - chord) <= 1e-13 * np.linalg.norm(gaps)


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
