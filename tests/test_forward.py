import tracemalloc

import numpy as np
import pytest

from eitlsm import (
    AdmittanceField,
    BoundaryField,
    ConfigurationError,
    Disk,
    FemSystem,
    SolverError,
    add_noise,
    assemble_system,
    build_disk_mesh,
    compute_background_nd_map,
    compute_nd_map,
    fourier_modes,
    fourier_projector,
    load_nd_map,
    parse_scenario,
    reciprocity_defect,
    save_nd_map,
    trace_to_fourier,
)
from conftest import ANISO_DOC, SWEEP_DOC, two_phase_diagonal


def background_field():
    return AdmittanceField([], [])


def cos_field(N, n):
    coeffs = np.zeros(2 * N, dtype=complex)
    modes = fourier_modes(N)
    coeffs[modes == n] = 0.5
    coeffs[modes == -n] = 0.5
    return BoundaryField(coeffs, N, smoothness=-0.5)


# ---------------------------------------------------------------------------
# assembly


def element_stiffness(mesh, field):
    """P1 element matrices, shape (nt, 3, 3), with gamma frozen at centroids."""
    p = mesh.vertices[mesh.triangles]
    # grad phi_i is the edge opposite vertex i turned by 90 degrees, over twice the area
    edges = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)
    area = 0.5 * (edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0])
    grads = np.stack([-edges[..., 1], edges[..., 0]], axis=-1) / (2 * area[:, None, None])
    gamma = field.evaluate_batch(p.mean(axis=1))
    return area[:, None, None] * np.einsum("tia,tab,tjb->tij", grads, gamma, grads)


def full_stiffness(mesh, field):
    """Dense P1 stiffness matrix with gamma frozen at centroids, summed element by element."""
    K = np.zeros((mesh.n_vertices,) * 2, dtype=complex)
    np.add.at(K, (mesh.triangles[:, :, None], mesh.triangles[:, None, :]),
              element_stiffness(mesh, field))
    return K


def dense_bordered(mesh, field):
    """The bordered boundary matrix by dense elimination of every interior vertex at once."""
    K = full_stiffness(mesh, field)
    inner, bnd = np.arange(mesh.boundary[0]), mesh.boundary
    schur = K[np.ix_(bnd, bnd)] - K[np.ix_(bnd, inner)] @ np.linalg.solve(K[np.ix_(inner, inner)],
                                                                          K[np.ix_(inner, bnd)])
    ell = mesh.boundary_edge_lengths()
    constraint = 0.5 * (ell + np.roll(ell, 1))
    return np.block([[schur, constraint[:, None]], [constraint, 0.0]])


def test_stiffness_constant_nullspace_and_symmetry(aniso_field):
    mesh = build_disk_mesh(0.1)
    K = full_stiffness(mesh, aniso_field)
    assert K.shape == (mesh.n_vertices,) * 2
    # constants in the null space of the unconstrained Neumann matrix
    ones = np.ones(mesh.n_vertices)
    assert np.abs(K @ ones).max() <= 1e-12
    # complex symmetric (not Hermitian) for symmetric gamma
    defect = abs(K - K.T).max()
    assert defect <= 1e-14
    assert abs(K - K.conj().T).max() > 1e-3  # genuinely complex


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def test_identity_admittance_gives_laplace_stiffness():
    mesh = build_disk_mesh(0.2)
    # cotangent-formula oracle on a few random triangles
    rng = np.random.default_rng(0)
    K = full_stiffness(mesh, background_field())
    for _ in range(10):
        t = mesh.triangles[rng.integers(len(mesh.triangles))]
        p = mesh.vertices[t]
        for i in range(3):
            j = (i + 1) % 3
            k = (j + 1) % 3
            u, v = p[i] - p[k], p[j] - p[k]
            expected = -0.5 * (u @ v) / abs(_cross2(u, v))
            others = [tt for tt in mesh.triangles
                      if t[i] in tt and t[j] in tt and not np.array_equal(tt, t)]
            for tt in others:
                kk = [w for w in tt if w not in (t[i], t[j])][0]
                q = mesh.vertices
                u2, v2 = q[t[i]] - q[kk], q[t[j]] - q[kk]
                expected += -0.5 * (u2 @ v2) / abs(_cross2(u2, v2))
            assert K[t[i], t[j]].real == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("rule", ["trapezoid", "galerkin"])
def test_condensed_solve_matches_full_bordered_solve(aniso_field, rule):
    mesh = build_disk_mesh(0.1)
    nv, nb, bnd = mesh.n_vertices, mesh.n_boundary, mesh.boundary
    ell = mesh.boundary_edge_lengths()
    full = np.zeros((nv + 1, nv + 1), dtype=complex)
    full[:nv, :nv] = full_stiffness(mesh, aniso_field)
    full[bnd, nv] = full[nv, bnd] = 0.5 * (ell + np.roll(ell, 1))
    # load: trapezoid weights in angle, or the exact P1 mass of the boundary edges
    if rule == "trapezoid":
        mass = 2 * np.pi / nb * np.eye(nb)
    else:
        mass = np.zeros((nb, nb))
        for k in range(nb):
            edge = [k, (k + 1) % nb]
            mass[np.ix_(edge, edge)] += ell[k] / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    currents = np.exp(1j * np.outer(mesh.boundary_angles, fourier_modes(3)))
    rhs = np.zeros((nv + 1, 6), dtype=complex)
    rhs[bnd] = mass @ currents
    expected = np.linalg.solve(full, rhs)[bnd]
    if rule == "trapezoid":
        got = assemble_system(mesh, aniso_field).boundary_solve(currents)
    else:  # compute_nd_map applies the galerkin load to the ND map: compare there
        got = compute_nd_map(mesh, aniso_field, 3, load_rule="galerkin").matrix
        expected = fourier_projector(mesh, 3) @ expected
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


# gamma = 3 I on a disk whose triangles reach the boundary ring, and on a small centred disk
REACHING_DOC = {"inclusions": [{"shape": "disk", "center": [0.5, 0.0], "radius": 0.49,
                                "h": [[2.0, 0.0], [0.0, 2.0]]}]}
CENTRED_DOC = {"inclusions": [{"shape": "disk", "center": [0.0, 0.0], "radius": 0.15,
                               "h": [[2.0, 0.0], [0.0, 2.0]]}]}


@pytest.mark.parametrize("h", [0.2, 0.1, 0.05])
@pytest.mark.parametrize("doc", [{"inclusions": []}, ANISO_DOC, REACHING_DOC, CENTRED_DOC],
                         ids=["background", "aniso", "reaching", "centred"])
def test_condensation_matches_dense_elimination(h, doc):
    mesh = build_disk_mesh(h)
    field = parse_scenario(doc)
    system = assemble_system(mesh, field)
    M = len(mesh.ring_starts) - 2
    if doc is REACHING_DOC:
        assert system.dense_rings == M  # no annulus: the elimination is dense throughout
    elif doc["inclusions"] == []:
        assert system.dense_rings == 1
    else:
        assert 1 <= system.dense_rings < M
    dense = dense_bordered(mesh, field)
    assert np.linalg.norm(system._bordered - dense) <= 1e-13 * np.linalg.norm(dense)


def test_singular_blocks_raise_solver_error(monkeypatch):
    mesh = build_disk_mesh(0.2)  # rings of 1, 6, ..., 30 vertices
    laplace = element_stiffness(mesh, background_field())
    for dense_rings in (1, 5):  # with and without an annulus outside the dense rings
        with pytest.raises(SolverError, match="singular: Schur complement of ring 0"):
            FemSystem(mesh, np.zeros_like(laplace), dense_rings)
    # the Laplacian condenses to a boundary matrix that is singular on the constants,
    # and a zero constraint row fixes no mean
    monkeypatch.setattr(mesh, "boundary_edge_lengths", lambda: np.zeros(mesh.n_boundary))
    unconstrained = FemSystem(mesh, laplace, 1)
    with pytest.raises(SolverError, match="singular: boundary matrix bordered"):
        unconstrained.boundary_solve(cos_current(mesh, 1))


def test_singular_fourier_block_names_ring_and_block():
    # the Laplacian on ring pair 0 keeps the centre invertible; on ring pair 2 each triangle
    # with two ring-2 vertices adds the unit Laplacian of their edge, so ring 2 holds the
    # Laplacian of its 12-cycle: rotation invariant, and singular only on the constants,
    # which the sector DFT puts in Fourier block 0
    mesh = build_disk_mesh(0.2)
    kloc = np.zeros((len(mesh.triangles), 3, 3), dtype=complex)
    pairs, starts = mesh.pair_starts, mesh.ring_starts
    kloc[:pairs[1]] = element_stiffness(mesh, background_field())[:pairs[1]]
    for t in range(pairs[2], pairs[3]):
        on_ring = np.flatnonzero(mesh.triangles[t] < starts[3])
        if len(on_ring) == 2:
            kloc[t][np.ix_(on_ring, on_ring)] = [[1.0, -1.0], [-1.0, 1.0]]
    with pytest.raises(SolverError, match="singular: Schur complement of ring 2, Fourier block 0$"):
        FemSystem(mesh, kloc, 1)


def test_assembly_peak_memory_on_a_fine_mesh():
    # ring strips are read from the element matrices, and the assembly temporaries are freed
    # before the rings are eliminated: global sorted triplets, or live temporaries, each take
    # the peak past 20 MB
    mesh, field = build_disk_mesh(0.015), parse_scenario(SWEEP_DOC)
    tracemalloc.start()
    try:
        assemble_system(mesh, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_assembly_refuses_non_coercive_field():
    # gamma = -3 I inside
    hopeless = AdmittanceField([Disk(center=(0.0, 0.0), radius=0.3)], [np.diag([-4.0, -4.0])])
    mesh = build_disk_mesh(0.2)
    with pytest.raises(SolverError, match="coercivity"):
        assemble_system(mesh, hopeless)


# ---------------------------------------------------------------------------
# boundary solves


def cos_current(mesh, n):
    return np.cos(n * mesh.boundary_angles)[:, None]


def test_zero_current_zero_trace():
    mesh = build_disk_mesh(0.2)
    system = assemble_system(mesh, background_field())
    trace = system.boundary_solve(np.zeros((mesh.n_boundary, 1)))
    assert np.abs(trace).max() <= 1e-14


def test_harmonic_mode_one():
    mesh = build_disk_mesh(0.05)
    system = assemble_system(mesh, background_field())
    # separation of variables: u = r cos(theta), trace cos(theta)
    trace = system.boundary_solve(cos_current(mesh, 1))[:, 0]
    assert np.abs(trace - np.cos(mesh.boundary_angles)).max() <= 2.0 * 0.05**2
    # boundary trace mean, with the equal weights of the uniform ring, is zero
    assert abs(trace.mean()) <= 1e-10


def test_harmonic_mode_two_trace():
    mesh = build_disk_mesh(0.05)
    system = assemble_system(mesh, background_field())
    trace = system.boundary_solve(cos_current(mesh, 2))[:, 0]
    field = trace_to_fourier(mesh, trace, 8, 0.5)
    expect = cos_field(8, 2).coeffs / 2.0  # mode-n trace = f_n / |n|
    assert np.abs(field.coeffs - expect).max() <= 1e-3


def test_sup_error_quadratic_in_h():
    errs = []
    for h in (0.1, 0.05):
        mesh = build_disk_mesh(h)
        system = assemble_system(mesh, background_field())
        trace = system.boundary_solve(cos_current(mesh, 1))[:, 0]
        errs.append(np.abs(trace - np.cos(mesh.boundary_angles)).max())
    assert errs[1] <= 0.35 * errs[0]  # ~ 4x drop for O(h^2)


def test_boundary_solve_columns_are_independent():
    # one multi-column solve equals the column-by-column solves
    mesh = build_disk_mesh(0.1)
    system = assemble_system(mesh, background_field())
    currents = np.hstack([cos_current(mesh, 1), cos_current(mesh, 3)])
    both = system.boundary_solve(currents)
    for k in range(2):
        alone = system.boundary_solve(currents[:, k:k + 1])[:, 0]
        assert np.abs(both[:, k] - alone).max() <= 1e-14
    # refused before the assembly, which would refuse this field for coercivity
    hopeless = AdmittanceField([Disk(center=(0.0, 0.0), radius=0.3)], [np.diag([-4.0, -4.0])])
    with pytest.raises(ConfigurationError, match="load rule"):
        compute_nd_map(mesh, hopeless, 4, load_rule="midpoint")


# ---------------------------------------------------------------------------
# ND maps


def test_nd_map_zero_perturbation_matches_background(mesh05):
    empty = parse_scenario({"inclusions": []})
    nd = compute_nd_map(mesh05, empty, 8)
    nd0 = compute_background_nd_map(mesh05, 8)
    assert np.abs(nd.matrix - nd0.matrix).max() <= 1e-10


def test_background_fem_matches_analytic(background_nd05):
    modes = background_nd05.modes
    band = np.abs(modes) <= 8
    diag = np.diag(background_nd05.matrix)
    oracle = 1.0 / np.abs(modes).astype(float)
    rel = np.abs(diag - oracle) / oracle
    assert rel[band].max() <= 0.02


def test_concentric_diagonal_oracle(concentric_nd05):
    modes = concentric_nd05.modes
    band = np.abs(modes) <= 8
    diag = np.diag(concentric_nd05.matrix)
    oracle = two_phase_diagonal(modes, rho=0.5, sigma=2.0)
    rel = np.abs(diag - oracle) / np.abs(oracle)
    assert rel[band].max() <= 0.02


def test_complex_concentric_diagonal_oracle(mesh05):
    # gamma = 2 + i inside rho = 0.5: the sign of Im gamma reaches the ND map
    doc = {"inclusions": [{"shape": "disk", "center": [0.0, 0.0], "radius": 0.5,
                           "h": [[[1.0, 1.0], 0.0], [0.0, [1.0, 1.0]]]}]}
    nd = compute_nd_map(mesh05, parse_scenario(doc), 8)
    oracle = two_phase_diagonal(nd.modes, rho=0.5, sigma=2.0 + 1.0j)
    rel = np.abs(np.diag(nd.matrix) - oracle) / np.abs(oracle)
    assert rel.max() <= 0.02


def test_concentric_difference_decays_monotonically(concentric_nd05, background_nd05):
    diff = np.abs(np.diag(concentric_nd05.matrix - background_nd05.matrix))
    pos = diff[concentric_nd05.N:]  # n = 1..N
    assert (np.diff(pos) < 0).all()


def test_diagonal_error_shrinks_under_refinement(concentric_field):
    # ring counts with even M resolve the rho = 0.5 interface exactly, so the
    # comparison sees the pure FEM error rather than interface smearing
    errs = []
    for h in (0.05, 0.025):
        mesh = build_disk_mesh(h)
        nd = compute_nd_map(mesh, concentric_field, 8)
        modes = nd.modes
        oracle = two_phase_diagonal(modes, 0.5, 2.0)
        errs.append((np.abs(np.diag(nd.matrix) - oracle) / np.abs(oracle)).max())
    assert errs[1] <= 0.5 * errs[0]


def test_reciprocity_anisotropic(mesh05, aniso_field):
    nd = compute_nd_map(mesh05, aniso_field, 12)
    assert nd.symmetry_defect() <= 1e-8  # map invariant
    # galerkin load: the defect is consistency-order and shrinks with h
    coarse = compute_nd_map(build_disk_mesh(0.1), aniso_field, 12, load_rule="galerkin")
    fine = compute_nd_map(mesh05, aniso_field, 12, load_rule="galerkin")
    assert fine.symmetry_defect() < coarse.symmetry_defect()


@pytest.mark.parametrize("h", [0.1, 0.03])
def test_galerkin_load_is_the_trapezoid_load_times_its_symbol(aniso_field, h):
    # on the uniform ring the P1 edge mass is circulant: mode n is scaled by
    # ell/6 (4 + 2 cos(2 pi n/nb)), the trapezoid load by 2 pi/nb
    mesh = build_disk_mesh(h)
    trapezoid = compute_nd_map(mesh, aniso_field, 12).matrix
    galerkin = compute_nd_map(mesh, aniso_field, 12, load_rule="galerkin").matrix
    nb, ell = mesh.n_boundary, 2 * np.sin(np.pi / mesh.n_boundary)
    symbol = ell * nb / (6 * np.pi) * (2 + np.cos(2 * np.pi * fourier_modes(12) / nb))
    assert np.abs(galerkin - trapezoid * symbol).max() <= 1e-13 * np.abs(galerkin).max()


def test_real_gamma_preserves_real_fields(concentric_nd05):
    # real map in Fourier coordinates: conj(M[m, n]) = M[-m, -n]
    m = concentric_nd05.matrix
    flipped = np.flipud(np.fliplr(m))
    assert np.abs(np.conj(m) - flipped).max() <= 1e-12 * np.abs(m).max()


def test_nd_map_truncation_guard():
    mesh = build_disk_mesh(0.5)  # 12 boundary vertices
    with pytest.raises(ConfigurationError):
        compute_nd_map(mesh, parse_scenario({"inclusions": []}), 6)


# ---------------------------------------------------------------------------
# noise


def test_add_noise_contract(background_nd05):
    nd = background_nd05
    same = add_noise(nd, 0.0, 123)
    assert np.array_equal(same.matrix, nd.matrix)
    a = add_noise(nd, 0.01, 7)
    b = add_noise(nd, 0.01, 7)
    assert np.array_equal(a.matrix, b.matrix)
    c = add_noise(nd, 0.01, 8)
    assert not np.array_equal(a.matrix, c.matrix)
    rel = np.linalg.norm(a.matrix - nd.matrix) / np.linalg.norm(nd.matrix)
    assert abs(rel - 0.01) <= 1e-12
    assert a.provenance == "noisy(0.01,7)"
    # symmetrized noise preserves reciprocity
    assert reciprocity_defect(a.matrix) <= 1e-8


def test_add_noise_level_validated(background_nd05):
    with pytest.raises(ConfigurationError):
        add_noise(background_nd05, 1.5, 0)


# ---------------------------------------------------------------------------
# file format


def test_nd_file_round_trip(tmp_path, concentric_nd05):
    noisy = add_noise(concentric_nd05, 0.037, 99)
    path = tmp_path / "map.nd"
    save_nd_map(noisy, path)
    back = load_nd_map(path)
    assert np.array_equal(back.matrix, noisy.matrix)  # bit-exact
    assert back.N == noisy.N
    assert back.provenance == noisy.provenance


def test_nd_file_gz_name_is_plain_text(tmp_path, concentric_nd05):
    # the file name is user-set: a .gz suffix must not switch the format to gzip
    noisy = add_noise(concentric_nd05, 0.037, 99)
    path = tmp_path / "run" / "m.nd.gz"
    path.parent.mkdir()
    save_nd_map(noisy, path)
    assert path.read_bytes().startswith(f"ndmap N {noisy.N}".encode())
    assert np.array_equal(load_nd_map(path).matrix, noisy.matrix)


def test_nd_file_malformed_header(tmp_path):
    path = tmp_path / "bad.nd"
    path.write_text("not an ndmap\n")
    with pytest.raises(ConfigurationError):
        load_nd_map(path)


_GOOD_ROWS = ["1 0 0 0", "0 0 1 0"]


@pytest.mark.parametrize("lines,where", [
    pytest.param(["ndmap N x provenance fem"] + _GOOD_ROWS, "header", id="N-not-integer"),
    pytest.param(["ndmap N 0 provenance fem"], "header", id="N-zero"),
    pytest.param(["ndmap N 1 provenance fem", "1 0 nan 0", "0 0 1 0"], "row 0", id="nan"),
    pytest.param(["ndmap N 1 provenance fem", "1 0 0 0", "0 0 one 0"], "row 1", id="non-numeric"),
    pytest.param(["ndmap N 1 provenance fem", "1 0 0 0"], "row 1", id="missing-row"),
    pytest.param(["ndmap N 1 provenance fem"] + _GOOD_ROWS + ["0 0 0 0"], "row 2", id="extra-row"),
])
def test_nd_file_malformed_body(tmp_path, lines, where):
    path = tmp_path / "bad.nd"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=f"ND-map {where} in ") as info:
        load_nd_map(path)
    assert str(path) in str(info.value)
