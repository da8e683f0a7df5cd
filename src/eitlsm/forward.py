"""P1 finite-element Neumann solves and Neumann-to-Dirichlet maps.

The weak form int_B gamma grad(u) . grad(v) dx = int_dB f v dS is assembled
with linear triangles and gamma frozen at each centroid; the zero-mean trace
constraint is a single Lagrange multiplier row, which keeps the system
complex symmetric. ND maps are stored as (2N)x(2N) complex matrices in the
zero-mean Fourier basis (column n = Fourier trace of the solution driven by
the current exp(i n theta)). Every solve goes through one boundary operator,
``FemSystem.boundary_solve``: nodal boundary currents in, nodal boundary
traces out, any number of columns at once.

Boundary loads use the periodic trapezoid quadrature paired with the
trapezoid trace projection; on the uniformly spaced boundary this pairing
is adjoint-exact, so discrete reciprocity M[m,n] = M[-n,-m] holds to solver
roundoff, and it is also markedly more accurate for the ND diagonal than
the P1-consistent ("galerkin") load, which is kept as an option.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, SolverError
from .geometry import DiskMesh, check_order, fourier_modes, fourier_projector
from .media import AdmittanceField, InclusionGeometry, check_coercivity

__all__ = [
    "FemSystem",
    "NdMap",
    "assemble_system",
    "compute_nd_map",
    "compute_background_nd_map",
    "nd_map_from_system",
    "add_noise",
    "reciprocity_defect",
    "save_nd_map",
    "load_nd_map",
]


@dataclass(eq=False)
class NdMap:
    """Neumann-to-Dirichlet map on zero-mean Fourier coefficients.

    ``matrix`` acts on coefficient vectors ordered n = -N..-1, 1..N and maps
    smoothness -1/2 (currents) to +1/2 (traces). ``provenance`` is one of
    ``analytic``, ``fem`` or ``noisy(level,seed)``.
    """

    matrix: np.ndarray
    N: int
    provenance: str

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (2 * self.N, 2 * self.N):
            raise ConfigurationError(
                f"ND matrix shape {self.matrix.shape} does not match N={self.N}"
            )

    @property
    def modes(self) -> np.ndarray:
        return fourier_modes(self.N)

    def symmetry_defect(self) -> float:
        """Relative reciprocity defect ||M - M_sym|| / ||M|| (Frobenius)."""
        return reciprocity_defect(self.matrix)


def reciprocity_defect(matrix: np.ndarray) -> float:
    sym = np.flipud(np.fliplr(matrix.T))
    return float(np.linalg.norm(matrix - sym) / np.linalg.norm(matrix))


class FemSystem:
    """Assembled and factorized Neumann system on a disk mesh.

    Holds the complex-symmetric stiffness matrix for int gamma grad(u).grad(v)
    and the LU factorization of the system augmented by the boundary
    mean-constraint vector. The factorization is reused by every solve;
    it is immutable and safe to share read-only. ``assemble_system`` also
    records its coercivity verdict as ``coercivity``.
    """

    def __init__(self, mesh: DiskMesh, stiffness: sp.csc_matrix, constraint: np.ndarray):
        self.mesh = mesh
        self.stiffness = stiffness
        augmented = sp.bmat(
            [[stiffness, sp.csc_matrix(constraint[:, None])],
             [sp.csc_matrix(constraint[None, :]), None]],
            format="csc", dtype=complex,
        )
        try:
            self._lu = spla.splu(augmented)
        except RuntimeError as exc:
            raise SolverError(f"constrained Neumann system is singular: {exc}") from None

    def boundary_solve(self, currents, rule: str = "trapezoid") -> np.ndarray:
        """Boundary traces, shape (nb, k), of the solutions driven by nodal currents (nb, k).

        Each column of ``currents`` is turned into a load b_i = int f phi_i dS:
        ``trapezoid`` (default) uses the periodic trapezoid rule in angle, the
        adjoint of the trace projection; ``galerkin`` evaluates the
        P1-consistent edge mass exactly. All columns share one back-substitution
        call; the Lagrange multiplier absorbs any residual mean of the data.
        """
        currents = np.asarray(currents, dtype=complex)
        mesh = self.mesh
        if rule == "trapezoid":
            loads = mesh.boundary_weights[:, None] * currents
        elif rule == "galerkin":
            ell = mesh.boundary_edge_lengths()[:, None]
            nxt = np.roll(currents, -1, axis=0)
            prv = np.roll(currents, 1, axis=0)
            loads = (ell * (2 * currents + nxt) + np.roll(ell, 1, axis=0) * (2 * currents + prv)) / 6.0
        else:
            raise ConfigurationError(f"unknown load rule {rule!r}")
        rhs = np.zeros((mesh.n_vertices + 1, currents.shape[1]), dtype=complex)
        rhs[mesh.boundary] = loads
        sol = self._lu.solve(rhs)
        if not np.isfinite(sol).all():
            raise SolverError("Neumann solve produced non-finite values")
        return sol[mesh.boundary]


def assemble_system(mesh: DiskMesh, admittance: AdmittanceField) -> FemSystem:
    """Assemble the P1 stiffness matrix with gamma frozen at centroids.

    The coercivity assumption is checked on the admittance's values first,
    so an inclusion that no centroid samples is judged too; assembly is
    refused when it fails, since the constrained system is then not
    guaranteed solvable (no Lax-Milgram bound).
    """
    verts, tris = mesh.vertices, mesh.triangles
    verdict = check_coercivity(admittance)
    if not verdict["holds"]:
        raise SolverError(
            "admittance fails the coercivity assumption "
            f"(best alpha={verdict['alpha']:.3g} at z={verdict['z']:.3g}); "
            "the Lax-Milgram hypothesis is unavailable"
        )

    p = verts[tris]
    x, y = p[..., 0], p[..., 1]
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    area = 0.5 * det
    gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1) / det[:, None]
    gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1) / det[:, None]
    gam = admittance.evaluate_batch(p.mean(axis=1))
    gax = gam[:, 0, 0][:, None] * gx + gam[:, 0, 1][:, None] * gy
    gay = gam[:, 1, 0][:, None] * gx + gam[:, 1, 1][:, None] * gy
    kloc = area[:, None, None] * (
        gx[:, :, None] * gax[:, None, :] + gy[:, :, None] * gay[:, None, :]
    )
    rows = np.repeat(tris, 3, axis=1).reshape(-1)
    cols = np.tile(tris, (1, 3)).reshape(-1)
    stiffness = sp.coo_matrix(
        (kloc.reshape(-1), (rows, cols)), shape=(mesh.n_vertices,) * 2
    ).tocsc()

    ell = mesh.boundary_edge_lengths()
    constraint = np.zeros(mesh.n_vertices)
    constraint[mesh.boundary] = 0.5 * (ell + np.roll(ell, 1))
    system = FemSystem(mesh, stiffness, constraint)
    system.coercivity = verdict
    return system


def compute_nd_map(mesh: DiskMesh, admittance: AdmittanceField, N: int,
                   load_rule: str = "trapezoid") -> NdMap:
    """FEM Neumann-to-Dirichlet map: columns are traces of mode solves."""
    check_order(N, mesh.n_boundary)  # before the assembly
    system = assemble_system(mesh, admittance)
    return nd_map_from_system(system, N, load_rule=load_rule)


def nd_map_from_system(system: FemSystem, N: int, load_rule: str = "trapezoid") -> NdMap:
    """ND map from an already assembled system: one boundary solve of the 2N mode currents."""
    mesh = system.mesh
    projector = fourier_projector(mesh, N)
    currents = np.exp(1j * np.outer(mesh.boundary_angles, fourier_modes(N)))
    traces = system.boundary_solve(currents, rule=load_rule)
    return NdMap(matrix=projector @ traces, N=N, provenance="fem")


def compute_background_nd_map(mesh: DiskMesh | None, N: int,
                              load_rule: str = "trapezoid") -> NdMap:
    """Inclusion-free ND map.

    With ``mesh=None`` returns the analytic diagonal 1/|n| (the separation
    of variables solution on the disk); otherwise runs the FEM path with
    gamma = I on the given mesh.
    """
    if mesh is None:
        modes = fourier_modes(N)
        matrix = np.diag(1.0 / np.abs(modes).astype(float)).astype(complex)
        return NdMap(matrix=matrix, N=N, provenance="analytic")
    background = AdmittanceField(InclusionGeometry(components=[]), [])
    return compute_nd_map(mesh, background, N, load_rule=load_rule)


def add_noise(nd: NdMap, level: float, seed: int) -> NdMap:
    """Frobenius-calibrated symmetric complex Gaussian perturbation.

    M' = M + level * ||M||_F * E / ||E||_F with E symmetrized to preserve
    the reciprocity invariant; the (level, seed) pair is recorded in the
    provenance tag and the construction is deterministic in the seed.
    """
    if not (0.0 <= level < 1.0):
        raise ConfigurationError(f"noise level must lie in [0, 1), got {level}")
    if level == 0.0:
        return NdMap(matrix=nd.matrix.copy(), N=nd.N, provenance=nd.provenance)
    rng = np.random.default_rng(seed)
    shape = nd.matrix.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sym = 0.5 * (raw + np.flipud(np.fliplr(raw.T)))
    scale = level * np.linalg.norm(nd.matrix) / np.linalg.norm(sym)
    return NdMap(
        matrix=nd.matrix + scale * sym,
        N=nd.N,
        provenance=f"noisy({level!r},{seed})",
    )


def save_nd_map(nd: NdMap, path) -> None:
    """Write the text ND-map format.

    Header ``ndmap N <N> provenance <tag>``; then the 2N x 2N complex matrix,
    one row per line, entries as ``re im`` pairs at 17 significant digits
    (bit-exact round trip).
    """
    with open(path, "w") as fh:
        fh.write(f"ndmap N {nd.N} provenance {nd.provenance}\n")
        for row in nd.matrix:
            fh.write(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row) + "\n")


def load_nd_map(path) -> NdMap:
    """Read the text ND-map format written by :func:`save_nd_map`."""
    try:
        fh = open(path, errors="replace")  # undecodable bytes fail as non-numeric entries
    except FileNotFoundError:
        raise ConfigurationError(f"ND-map file not found: {path}") from None
    with fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != "ndmap" or header[1] != "N" or header[3] != "provenance":
            raise ConfigurationError(f"malformed ND-map header in {path}")
        try:
            N = int(header[2])
        except ValueError:
            raise ConfigurationError(
                f"ND-map header in {path}: N must be an integer, got {header[2]!r}"
            ) from None
        if N < 1:
            raise ConfigurationError(f"ND-map header in {path}: N must be >= 1, got {N}")
        provenance = header[4]
        rows = []
        for k in range(2 * N):
            tokens = fh.readline().split()
            if len(tokens) != 4 * N:
                raise ConfigurationError(f"ND-map row {k} in {path} has {len(tokens)} values")
            try:
                row = np.array([float(t) for t in tokens])
            except ValueError:
                raise ConfigurationError(f"ND-map row {k} in {path} has a non-numeric entry") from None
            if not np.isfinite(row).all():
                raise ConfigurationError(f"ND-map row {k} in {path} has a non-finite entry")
            rows.append(row.view(complex))  # (re, im) pairs, bit-exact with signed zeros
        if fh.read().strip():
            raise ConfigurationError(f"ND-map row {2 * N} in {path} is extra: N={N} gives {2 * N} rows")
    return NdMap(matrix=np.stack(rows), N=N, provenance=provenance)
