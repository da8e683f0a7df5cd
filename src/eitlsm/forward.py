"""P1 finite-element Neumann solves and Neumann-to-Dirichlet maps.

The weak form int_B gamma grad(u) . grad(v) dx = int_dB f v dS is assembled
with linear triangles and gamma frozen at each centroid; the zero-mean trace
constraint is a single Lagrange multiplier row, which keeps the system
complex symmetric. ND maps are stored as (2N)x(2N) complex matrices in the
zero-mean Fourier basis (column n = Fourier trace of the solution driven by
the current exp(i n theta)). ``FemSystem`` condenses the ring mesh onto its
boundary, densely where gamma varies and in six Fourier blocks per ring where
gamma = I; every solve goes through its one boundary operator,
``boundary_solve``: nodal currents in, nodal traces out, any number of columns.

The boundary ring is uniform, so its quadrature is constant: weight 2pi/nb,
edge length and mean-constraint entry ell = 2 sin(pi/nb). Trapezoid loads pair
with the equal-weight DFT trace projection adjoint-exactly, so reciprocity
M[m,n] = M[-n,-m] holds to solver roundoff; they are also more accurate for the
ND diagonal than the P1-consistent ("galerkin") load. That load is circulant on
the uniform ring, so ``compute_nd_map`` applies it as its symbol on the columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SolverError
from .geometry import DiskMesh, check_order, fourier_modes, fourier_projector
from .media import AdmittanceField, check_coercivity

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
    smoothness -1/2 (currents) to +1/2 (traces). ``provenance`` is ``fem``
    or ``noisy(level,seed)`` for the maps this package computes;
    ``load_nd_map`` reads any tag.
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
    """Neumann system on a ring-ordered disk mesh, condensed onto its boundary.

    ``kloc`` holds the (nt, 3, 3) element matrices of the complex-symmetric stiffness
    matrix, block tridiagonal in the M rings: lower block rows [L_i | D_i], read
    from the triangles of ring pairs i - 1 and i alone, added in triangle order.
    Rings 0..a (a = ``dense_rings`` >= 1) are eliminated densely,
    S <- D_i - L_i S^-1 L_i^T. Outside ring a gamma must be I: every block then
    commutes with the sixth turn (ring i, slot j) -> (i, j + i mod 6i), and the
    DFT over a ring's six sectors splits it into six blocks, read off its
    sector-0 rows. Rings a+1..M fold into a two-port between ring a and the
    current ring, P <- P - Q R^-1 Q^H, Q <- -Q R^-1 L^H, R <- D - L R^-1 L^H,
    joined once in nodal values: S_M = R - Q^H (S_a + P)^-1 Q. S_M bordered by
    the mean constraint ell is the one matrix every boundary solve uses. The system is
    immutable and safe to share read-only; ``assemble_system`` records ``coercivity``.
    """

    def __init__(self, mesh: DiskMesh, kloc: np.ndarray, dense_rings: int):
        self.mesh = mesh
        self.dense_rings = a = dense_rings
        starts, pairs = mesh.ring_starts, mesh.pair_starts
        M = len(starts) - 2

        def strip(ring: int, height: int) -> np.ndarray:
            """The first ``height`` rows of ring's lower block row [L | D]."""
            span = slice(pairs[max(ring - 1, 0)], pairs[min(ring + 1, M)])
            first, tri = starts[max(ring - 1, 0)], mesh.triangles[span]
            rows, cols = np.broadcast_arrays(tri[:, :, None] - starts[ring], tri[:, None, :] - first)
            # the upper block is L^T, not L^H
            keep = (rows >= 0) & (rows < height) & (cols < starts[ring + 1] - first)
            out = np.zeros((height, starts[ring + 1] - first), dtype=complex)
            np.add.at(out, (rows[keep], cols[keep]), kloc[span][keep])
            return out

        schur = np.zeros((0, 0), dtype=complex)
        for ring in range(a + 1):
            lower, diag = np.hsplit(strip(ring, starts[ring + 1] - starts[ring]), [len(schur)])
            schur = diag - lower @ _solve(schur, lower.T, f"Schur complement of ring {ring - 1}")

        port = np.zeros((6, a, a), dtype=complex)
        for ring in range(a + 1, M + 1):
            lower, diag = np.hsplit(strip(ring, ring), [6 * (ring - 1)])
            # C_d couples sector 0 to sector d; Fourier block m is sum_d C_d W[m, d]
            lower, diag = ((_SECTOR_DFT @ part.reshape(ring, 6, -1)).swapaxes(0, 1)
                           for part in (lower, diag))
            if ring == a + 1:
                coupling, own = lower.conj().swapaxes(1, 2), diag
                continue
            x = _solve(own, np.concatenate([coupling, lower], axis=1).conj().swapaxes(1, 2),
                       f"Schur complement of ring {ring - 1}")
            port = port - coupling @ x[..., :a]
            coupling, own = -coupling @ x[..., a:], diag - lower @ x[..., a:]
        if a < M:
            coupling = _circulant(coupling)
            far = _solve(schur + _circulant(port), coupling,
                         f"Schur complement of ring {a} with the annulus")
            schur = _circulant(own) - coupling.conj().T @ far
        constraint = mesh.boundary_edge_lengths()
        self._bordered = np.block([[schur, constraint[:, None]], [constraint, 0.0]])

    def boundary_solve(self, currents) -> np.ndarray:
        """Boundary traces, shape (nb, k), of the solutions driven by nodal currents (nb, k).

        Each column of ``currents`` is loaded by the periodic trapezoid rule in angle,
        b = (2pi/nb) f, the adjoint of the trace projection. All columns share one
        solve of the bordered matrix; the Lagrange multiplier absorbs any residual mean.
        """
        loads = 2 * np.pi / self.mesh.n_boundary * np.asarray(currents, dtype=complex)
        rhs = np.vstack([loads, np.zeros_like(loads[:1])])
        sol = _solve(self._bordered, rhs, "boundary matrix bordered by the mean constraint")
        if not np.isfinite(sol).all():
            raise SolverError("Neumann solve produced non-finite values")
        return sol[:-1]


def _solve(matrix: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        if matrix.ndim == 3:  # six Fourier blocks: name the first with a zero pivot
            what += f", Fourier block {np.argmin(abs(np.linalg.slogdet(matrix)[0]))}"
        raise SolverError(f"constrained Neumann system is singular: {what}") from None


# W[m, d] = exp(2 pi i m d / 6), indexing the sixth roots of unity, each rounded once
_SIXTH_ROOTS = (np.array([2, 1, -1, -2, -1, 1]) + 3**0.5 * 1j * np.array([0, 1, 1, 0, -1, -1])) / 2
_SECTOR_DFT = _SIXTH_ROOTS[np.outer(np.arange(6), np.arange(6)) % 6]


def _circulant(blocks: np.ndarray) -> np.ndarray:
    """The (6p, 6q) nodal block-circulant matrix with the six (p, q) Fourier ``blocks``:
    its block (s, t) is C_(t - s mod 6) = (1/6) sum_m W[m, s] blocks[m] conj(W[m, t])."""
    nodal = np.einsum("ms,mpq,mt->sptq", _SECTOR_DFT, blocks / 6, _SECTOR_DFT.conj())
    return nodal.reshape(6 * blocks.shape[1], 6 * blocks.shape[2])


def assemble_system(mesh: DiskMesh, admittance: AdmittanceField) -> FemSystem:
    """Assemble the P1 stiffness matrix with gamma frozen at centroids.

    Coercivity is checked on the admittance's values first, so an inclusion that no
    centroid samples is judged too; assembly is refused when it fails, since the
    constrained system is then not guaranteed solvable (no Lax-Milgram bound). The
    bound on gamma keeps every element stiffness finite.
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
    kloc = area[:, None, None] * (gx[:, :, None] * gax[:, None, :]
                                  + gy[:, :, None] * gay[:, None, :])
    # dense out to the outermost ring that a triangle with gamma != I touches, at least ring 1
    outermost = tris[(gam != np.eye(2)).any(axis=(1, 2))].max(initial=mesh.ring_starts[1])
    dense_rings = int(np.count_nonzero(mesh.ring_starts[1:] <= outermost))
    del p, x, y, det, area, gx, gy, gam, gax, gay  # the rings are eliminated from kloc alone
    system = FemSystem(mesh, kloc, dense_rings)
    system.coercivity = verdict
    return system


def compute_nd_map(mesh: DiskMesh, admittance: AdmittanceField, N: int,
                   load_rule: str = "trapezoid") -> NdMap:
    """FEM Neumann-to-Dirichlet map: columns are traces of mode solves.

    ``galerkin`` loads the P1-consistent edge mass, not the trapezoid rule of ``boundary_solve``:
    on the uniform ring the circulant ell (c_{k-1} + 4 c_k + c_{k+1}) / 6, whose symbol
    ell nb (2 + cos(2 pi n/nb)) / (6 pi) scales column n of the trapezoid map.
    """
    if load_rule not in ("trapezoid", "galerkin"):
        raise ConfigurationError(f"unknown load rule {load_rule!r}")
    check_order(N, mesh.n_boundary)  # before the assembly
    nd = nd_map_from_system(assemble_system(mesh, admittance), N)
    if load_rule == "galerkin":
        nb, ell = mesh.n_boundary, mesh.boundary_edge_lengths()[0]
        nd.matrix *= ell * nb / (6 * np.pi) * (2 + np.cos(2 * np.pi * nd.modes / nb))
    return nd


def nd_map_from_system(system: FemSystem, N: int) -> NdMap:
    """ND map from an assembled system: one trapezoid-loaded boundary solve of the 2N mode currents."""
    mesh = system.mesh
    projector = fourier_projector(mesh, N)
    currents = np.exp(1j * np.outer(mesh.boundary_angles, fourier_modes(N)))
    return NdMap(matrix=projector @ system.boundary_solve(currents), N=N, provenance="fem")


def compute_background_nd_map(mesh: DiskMesh, N: int) -> NdMap:
    """Inclusion-free ND map: the FEM path with gamma = I on the given mesh."""
    background = AdmittanceField([], [])
    return compute_nd_map(mesh, background, N)


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


def _write_table(path, header: str, table: np.ndarray, sep: str, newline: str) -> None:
    """``header``, then each row of ``table`` as its cells joined by ``sep``; every line ends in
    ``newline``. A cell is its float64 as ``%.17g``, formatted once per distinct value: finite
    values read back bit for bit, whole numbers print as integers and -0.0 as ``-0``."""
    table = np.asarray(table, dtype=np.float64)
    bits, cell = np.unique(table.view(np.int64), return_inverse=True)
    text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
    rows = zip(*([text[i] for i in col] for col in cell.reshape(table.shape).T.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write(newline.join([header, *map(sep.join, rows)]) + newline)


def save_nd_map(nd: NdMap, path) -> None:
    """Write the text ND-map format.

    Header ``ndmap N <N> provenance <tag>``; then the 2N x 2N complex matrix,
    one row per line, entries as space-separated ``re im`` pairs in the
    ``%.17g`` cells of :func:`_write_table` (bit-exact round trip).
    """
    _write_table(path, f"ndmap N {nd.N} provenance {nd.provenance}",
                 np.ascontiguousarray(nd.matrix).view(float), " ", "\n")


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
