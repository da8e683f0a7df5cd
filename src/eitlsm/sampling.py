"""Sobolev-weighted Tikhonov inversion, Morozov selection and the grid sweep.

The sampling equation (Lambda - Lambda0) psi_y = phi_y is solved in weighted
coordinates: with W_s = diag(|n|^s) the functional

    ||A psi - phi||_{1/2}^2 + alpha ||psi||_{-1/2}^2

becomes an ordinary least-squares problem for the matrix W_{1/2} A W_{1/2},
whose SVD is computed once per data set and reused by every sweep point.
The Morozov parameter alpha(delta) is found by Newton steps on 1/residual -
1/delta in x = 1/alpha, using the strict monotonicity of the residual. Since
Vh is unitary, the residual and the solution norm depend only on s^2 and
|U^H phi|^2, so the search runs on all sweep points and directions at once,
as whole-array operations, and no solution vector is formed for the indicator.

The indicator I(y) = ||psi_y^delta||_{-1/2} is small where the dipole trace
is (approximately) in the range of the data operator - i.e. inside the
inclusion - and blows up outside; thresholding it yields the support
estimate. Both the psi-norm and the selected alpha are recorded, since it
is genuinely open which makes the better cut-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dipole import SingularTraceComputer, disk_dipole_traces
from .errors import ConfigurationError, EstimationError
from .forward import NdMap
from .geometry import BoundaryField, DiskMesh, fourier_modes

__all__ = [
    "RelativeData",
    "MorozovResult",
    "IndicatorMap",
    "make_relative_data",
    "tikhonov_solve",
    "morozov_alpha",
    "grid_points",
    "check_sweep_settings",
    "check_cutoff",
    "indicator_map",
    "estimate_support",
    "support_cutoff",
    "sweep_diagnostics",
    "write_indicator_csv",
    "write_mask_csv",
    "write_indicator_pgm",
    "DEFAULT_CUTOFF_MULTIPLIER",
    "FLAGS",
]

# Calibrated on the reference inclusion scenario (see decision record in the
# repository README): the band [min I, c min I] must cover the whole of the
# inclusion's indicator range while excluding exterior points.
DEFAULT_CUTOFF_MULTIPLIER = 70.0

MOROZOV_RTOL = 1e-8


class RelativeData:
    """Difference map Lambda - Lambda0 with its Sobolev-weighted singular system.

    ``weighted`` holds W_{1/2} A W_{1/2}; its SVD (U, s, Vh) is cached and
    shared read-only by all solves. Immutable after construction.
    """

    @np.errstate(over="ignore", invalid="ignore")  # overflow is refused below
    def __init__(self, difference: np.ndarray, N: int):
        difference = np.asarray(difference, dtype=complex)
        if difference.shape != (2 * N, 2 * N):
            raise ConfigurationError(
                f"difference matrix shape {difference.shape} does not match N={N}"
            )
        self.N = N
        self.modes = fourier_modes(N)
        self.matrix = difference
        self.weights = np.abs(self.modes).astype(float) ** 0.5
        self.weighted = self.weights[:, None] * difference * self.weights[None, :]
        if not np.isfinite(self.weighted).all():  # LAPACK's SVD may never return on them
            raise ConfigurationError("the weighted difference of the ND maps is not finite; "
                                     "their entries are too large")
        u, s, vh = np.linalg.svd(self.weighted)
        self.U, self.singular_values, self.Vh = u, s, vh

    def weighted_rhs(self, rhs: BoundaryField) -> np.ndarray:
        if rhs.N != self.N:
            raise ConfigurationError(f"rhs order {rhs.N} does not match data order {self.N}")
        return self.weights * rhs.coeffs


@np.errstate(over="ignore")  # RelativeData refuses an overflowed difference
def make_relative_data(measured: NdMap, background: NdMap) -> RelativeData:
    """Assemble Lambda - Lambda0 and its weighted singular system."""
    if measured.N != background.N:
        raise ConfigurationError(
            f"truncation mismatch: measured N={measured.N}, background N={background.N}"
        )
    return RelativeData(measured.matrix - background.matrix, measured.N)


def _solve_weighted(data: RelativeData, phit: np.ndarray, alpha: float):
    """Tikhonov minimizer in weighted coordinates; returns (psit, residual)."""
    s = data.singular_values
    beta = data.U.conj().T @ phit
    psit = data.Vh.conj().T @ ((s / (s**2 + alpha)) * beta)
    residual = float(np.linalg.norm((alpha / (s**2 + alpha)) * beta))
    return psit, residual


def _unweight(data: RelativeData, psit: np.ndarray) -> BoundaryField:
    return BoundaryField(data.weights * psit, data.N, smoothness=-0.5)


def tikhonov_solve(data: RelativeData, rhs: BoundaryField, alpha: float) -> BoundaryField:
    """Unique minimizer of the weighted Tikhonov functional (alpha > 0).

    The returned field has smoothness -1/2 and its Sobolev norm equals the
    Euclidean norm of the weighted solution by construction.
    """
    if alpha <= 0.0:
        raise ConfigurationError(f"regularization parameter must be positive, got {alpha}")
    psit, _ = _solve_weighted(data, data.weighted_rhs(rhs), alpha)
    return _unweight(data, psit)


FLAGS = ("ok", "infeasible-low", "infeasible-high", "not-converged")
MOROZOV_MAX_STEPS = 300


@dataclass
class MorozovResult:
    alpha: float
    psi: BoundaryField
    residual: float
    delta: float
    flag: str  # one of FLAGS
    residual_floor: float
    residual_ceiling: float

    @property
    def feasible(self) -> bool:
        return self.flag == "ok"


@dataclass(eq=False)
class _MorozovRows:
    """Discrepancy-principle results for a batch of weighted right-hand sides."""

    alpha: np.ndarray  # (R,) inf when infeasible-high, 0 when infeasible-low
    residual: np.ndarray  # (R,)
    indicator: np.ndarray  # (R,) ||psit|| = ||s/(s^2+alpha) U^H phit||
    floor: np.ndarray  # (R,) alpha -> 0 limit of the residual
    ceiling: np.ndarray  # (R,) ||phit||, the alpha -> inf limit
    flag: np.ndarray  # (R,) one of FLAGS
    steps: np.ndarray  # (R,) residual evaluations of the Newton search


@np.errstate(divide="ignore", invalid="ignore")
def _tikhonov_filter(s: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Rows s/(s^2 + alpha), 0 on null directions; alpha may be 0 or inf."""
    return np.where(s > 0.0, s / (s**2 + alpha[:, None]), 0.0)


def _rowwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, each row alone: numpy hands a one-row product to gemv, which sums in
    another order than gemm, so a lone row is doubled to match it in a batch."""
    return ((a if len(a) > 1 else np.repeat(a, 2, axis=0)) @ b)[: len(a)]


# a failed row may overflow or divide 0 by 0; it is flagged, not warned about
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _morozov_rows(data: RelativeData, phit: np.ndarray, delta: np.ndarray) -> _MorozovRows:
    """Morozov's alpha for every row of ``phit`` (R, 2N) at once.

    Rules and flags are those of ``morozov_alpha``. One product gives r^2 of
    every row at the knots x = 1/s_k^2 and their geometric midpoints, so each
    row starts in its knot interval; the Newton steps then act on all rows
    not yet converged. Every operation acts on each row alone, so a row's
    result does not depend on the batch it is solved in.
    """
    s = data.singular_values
    s2 = s**2
    beta2 = np.abs(_rowwise(phit, data.U.conj()))  # |U^H phit|^2, squared in place
    beta2 *= beta2

    def newton_terms(x: np.ndarray, b2: np.ndarray, u: np.ndarray, w: np.ndarray, t: np.ndarray):
        """r, ||psit|| and -(1/2) dr^2/dx at x, with u = s^2 x and w = 1 / (1 + u)."""
        np.multiply(x[:, None], s2, out=u)
        np.reciprocal(np.add(u, 1.0, out=w), out=w)
        np.multiply(np.multiply(w, w, out=t), b2, out=t)
        r = np.sqrt(t.sum(axis=1))
        t *= u  # ||psit||^2 = sum b2 (s x w)^2, summed without forming x^2
        psi = np.sqrt(x) * np.sqrt(t.sum(axis=1))
        t *= w
        return r, psi, t.sum(axis=1) / x

    ceiling = np.sqrt(beta2.sum(axis=1))  # ||phit||, U being unitary
    floor = np.sqrt(beta2[:, s <= 0.0].sum(axis=1))
    flag = np.full(len(phit), "ok", dtype=f"<U{max(map(len, FLAGS))}")
    high = delta >= ceiling
    low = ~high & (delta <= floor)
    flag[high], flag[low] = "infeasible-high", "infeasible-low"
    alpha = np.where(high, np.inf, 0.0)
    residual = np.where(high, ceiling, floor)
    indicator = np.zeros(len(phit))
    indicator[low] = np.sqrt((_tikhonov_filter(s, alpha[low]) ** 2 * beta2[low]).sum(axis=1))
    steps = np.zeros(len(phit), dtype=int)

    idx = np.flatnonzero(~high & ~low)
    d, f, c = delta[idx], floor[idx], ceiling[idx]
    # With U unitary, sum |beta_i|^2 = c^2, so r(alpha) >= alpha / (s_1^2 + alpha) * c,
    # which reaches d at hi; and with s_min the least positive singular value,
    # r(alpha)^2 <= f^2 + (alpha / s_min^2)^2 (c^2 - f^2), which is at most d^2 at lo.
    # In x = 1/alpha the root lies in [1/hi, 1/lo].
    hi = s2[0] * d / (c - d)
    s_min2 = s[s > 0.0][-1] ** 2 if s[0] > 0.0 else 0.0
    x_lo, x_hi = 1.0 / hi, 1.0 / (s_min2 * np.sqrt((d - f) / (c - f) * ((d + f) / (c + f))))
    stuck = ~np.isfinite(x_hi)  # no usable bracket (1/lo overflows): reported at hi
    alpha[idx[stuck]] = hi[stuck]
    residual[idx[stuck]], indicator[idx[stuck]], _ = newton_terms(
        x_lo[stuck], beta2[idx[stuck]], *np.empty((3, stuck.sum(), len(s))))
    live = np.flatnonzero(~stuck)  # if any, 1/s_min^2 is a finite knot
    knots = 1.0 / s2[(s2 > 0.0) & (1.0 / s2 < np.inf)]
    knots = np.sort(np.concatenate([knots, np.sqrt(knots[1:]) * np.sqrt(knots[:-1])]))
    b2 = beta2 if len(live) == len(phit) else beta2[idx[live]]
    d, x_lo, x_hi = d[live], x_lo[live], x_hi[live]
    at_knots = _rowwise(b2, (1.0 / (1.0 + np.outer(s2, knots))) ** 2)  # r^2, (n, K)
    left = (at_knots > (d**2)[:, None]).sum(axis=1)  # knots left of the root
    edges = np.concatenate([[0.0], knots, [np.inf]])
    x_lo, x_hi = np.maximum(x_lo, edges[left]), np.minimum(x_hi, edges[left + 1])
    # log-log interpolation of r^2 in the knot interval, or out of the first or the
    # last one; a lone knot gives k = -1, and 0/0 sends the start to the midpoint
    k = np.clip(left - 1, 0, len(knots) - 2)[:, None]
    ra, rb = (np.log(np.take_along_axis(at_knots, k + j, 1)[:, 0]) for j in (0, 1))
    ka, kb = np.log(knots[k[:, 0]]), np.log(knots[k[:, 0] + 1])
    xl = np.exp(ka + (2.0 * np.log(d) - ra) / (rb - ra) * (kb - ka))
    work = np.empty((3, *b2.shape))
    for _ in range(MOROZOV_MAX_STEPS):
        # a step that leaves the bracket takes its geometric midpoint instead
        xl = np.where((xl > x_lo) & (xl < x_hi), xl, np.sqrt(x_lo) * np.sqrt(x_hi))
        rows = idx[live]
        steps[rows] += 1
        r, psi, slope = newton_terms(xl, b2, *work[:, : len(live)])
        alpha[rows], residual[rows], indicator[rows] = 1.0 / xl, r, psi
        hit = np.abs(r - d) <= MOROZOV_RTOL * d
        if hit.any():
            live, b2, d, r, slope, xl, x_lo, x_hi = (
                v[~hit] for v in (live, b2, d, r, slope, xl, x_lo, x_hi))
        if not len(live):
            break
        below = r < d  # the root lies left of xl
        x_lo, x_hi = np.where(below, x_lo, xl), np.where(below, xl, x_hi)
        xl = xl + r * r * (r - d) / (d * slope)  # Newton on 1/r(x) - 1/d

    missed = ~(np.abs(residual[idx] - delta[idx]) <= MOROZOV_RTOL * delta[idx])  # or not finite
    flag[idx[missed]] = "not-converged"  # such a row keeps the values of its last step
    return _MorozovRows(alpha, residual, indicator, floor, ceiling, flag, steps)


def morozov_alpha(data: RelativeData, rhs: BoundaryField, delta: float) -> MorozovResult:
    """Select alpha so that the residual matches the discrepancy level delta.

    residual(alpha) increases strictly from the alpha -> 0 floor f to
    c = ||rhs||; Newton steps on 1/residual - 1/delta in x = 1/alpha, kept in
    the closed-form bracket [1/hi, 1/lo] of ``_morozov_rows``, bring it within
    MOROZOV_RTOL of delta. Outside the feasible window the result is
    flagged: below the floor the alpha -> 0 (minimum-norm) solution is
    returned, at or above ||rhs|| the zero current already satisfies the
    constraint. A search that fails (1/lo overflowing, as when s_min^2
    underflows, or MOROZOV_MAX_STEPS spent) is flagged "not-converged".
    This is a one-row call into the sweep kernel.
    """
    if delta <= 0.0:
        raise ConfigurationError(f"discrepancy level must be positive, got {delta}")
    phit = data.weighted_rhs(rhs)
    row = _morozov_rows(data, phit[None, :], np.array([float(delta)]))
    filtered = _tikhonov_filter(data.singular_values, row.alpha)[0] * (data.U.conj().T @ phit)
    psit = data.Vh.conj().T @ filtered
    return MorozovResult(float(row.alpha[0]), _unweight(data, psit), float(row.residual[0]),
                         delta, str(row.flag[0]), float(row.floor[0]), float(row.ceiling[0]))


# ---------------------------------------------------------------------------
# Grid sweep


_DIRECTION_SETS = {
    "max-xy": ((1.0, 0.0), (0.0, 1.0)),
    "x": ((1.0, 0.0),),
    "y": ((0.0, 1.0),),
}

# A contract on every sweep, not a limit of the closed-form traces the CLI uses:
# it keeps the FEM reference traces (2 * h_target clearance) valid for h_target <= 0.05.
R_MAX = 0.9


def check_sweep_settings(spacing: float, r_max: float, directions: str, where: str = "") -> None:
    """Refuse a grid or direction strategy that ``indicator_map`` cannot use; messages
    name the setting as the run configuration does (``grid.r_max``) after ``where``."""
    if spacing <= 0.0:
        raise ConfigurationError(f"{where}grid.spacing: must be positive, got {spacing}")
    # the lattice has (2k + 1)^2 cells, k = floor(r_max / spacing): over 10^6 when
    # k >= 500. The quotient stays a float, since it may overflow an int or be inf.
    if r_max / spacing + 1e-9 >= 500:
        raise ConfigurationError(f"{where}grid.spacing: {spacing} gives a lattice of over "
                                 f"10^6 cells for r_max {r_max}")
    if r_max > R_MAX:
        raise ConfigurationError(
            f"{where}grid.r_max: must be <= {R_MAX}, got {r_max}")
    if directions not in _DIRECTION_SETS:
        raise ConfigurationError(f"{where}directions: unknown strategy {directions!r}; "
                                 f"choose from {sorted(_DIRECTION_SETS)}")


def check_cutoff(rule: str, c: float, q: float, where: str = "") -> None:
    """Refuse a cut-off that ``support_cutoff`` cannot apply (names as above)."""
    if rule not in ("multiplier", "quantile"):
        raise ConfigurationError(
            f"{where}cutoff.rule: expected 'multiplier' or 'quantile', got {rule!r}")
    if rule == "multiplier" and c < 1.0:
        raise ConfigurationError(f"{where}cutoff.c: multiplier must be >= 1, got {c}")
    if rule == "quantile" and not (0.0 < q < 1.0):
        raise ConfigurationError(f"{where}cutoff.q: quantile must lie in (0, 1), got {q}")


@dataclass(eq=False)
class IndicatorMap:
    """Per-point sweep results on a square grid clipped to |y| <= r_max."""

    points: np.ndarray  # (P, 2)
    indicator: np.ndarray  # (P,)  direction-combined ||psi||_{-1/2}
    alpha: np.ndarray  # (P,)  selected regularization parameter
    residual: np.ndarray  # (P,) achieved residual
    delta: np.ndarray  # (P,) per-point discrepancy level
    spacing: float
    r_max: float
    flag: np.ndarray  # (P,) Morozov flag (one of FLAGS) of the maximizing direction
    steps: np.ndarray  # (P,) its Newton residual evaluations

    def __len__(self) -> int:
        return len(self.points)

    @property
    def feasible(self) -> np.ndarray:
        return self.flag == "ok"


def grid_points(spacing: float, r_max: float) -> np.ndarray:
    """Square lattice of pitch ``spacing`` clipped to the disk |y| <= r_max."""
    if spacing <= 0.0:
        raise ConfigurationError(f"grid spacing must be positive, got {spacing}")
    k = int(math.floor(r_max / spacing + 1e-9))
    i, j = np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1), indexing="ij")
    pts = np.column_stack([i.ravel() * spacing, j.ravel() * spacing])
    return pts[np.hypot(pts[:, 0], pts[:, 1]) <= r_max + 1e-12]


def indicator_map(data: RelativeData, mesh: DiskMesh | None, grid_spec: dict, delta_rule: dict,
                  directions: str = "max-xy",
                  trace_computer: SingularTraceComputer | None = None) -> IndicatorMap:
    """Sweep the sampling grid: Morozov-regularized solve per point and direction.

    All points and directions are solved together: their weighted dipole
    traces are stacked into one (P * ndir, 2N) array and a single
    whole-array Newton search selects every alpha at once (see
    ``morozov_alpha`` for the per-row rule and flags).

    Parameters
    ----------
    data : RelativeData
    mesh : DiskMesh | None
        None (what ``reconstruct`` passes) takes the closed-form disk traces
        of ``disk_dipole_traces``; a mesh takes the FEM reference traces of
        ``SingularTraceComputer`` on it. A given ``trace_computer`` wins.
    grid_spec : dict with keys ``spacing`` and ``r_max`` (r_max <= 0.9)
    delta_rule : dict with key ``epsilon``; per point delta = epsilon * ||phi_y||_{1/2}
    directions : "max-xy" (default), "x" or "y"
        The indicator is the maximum of ||psi||_{-1/2} over the listed dipole
        directions; alpha and feasibility follow the maximizing direction
        (the first one on ties).
    """
    try:
        spacing = float(grid_spec["spacing"])
        r_max = float(grid_spec["r_max"])
    except KeyError as exc:
        raise ConfigurationError(f"grid_spec is missing key {exc}") from None
    try:
        epsilon = float(delta_rule["epsilon"])
    except KeyError:
        raise ConfigurationError("delta_rule is missing key 'epsilon'") from None
    check_sweep_settings(spacing, r_max, directions)
    if not 0.0 < epsilon < 1.0:  # at or above 1, delta >= ||phi_y||: every point infeasible-high
        raise ConfigurationError(f"epsilon must lie in (0, 1), got {epsilon}")
    dirs = _DIRECTION_SETS[directions]
    pts = grid_points(spacing, r_max)
    n_pts = len(pts)
    phit = np.zeros((0, 2 * data.N), dtype=complex)
    if n_pts:
        ys = np.repeat(pts, len(dirs), axis=0)
        ds = np.tile(np.asarray(dirs, dtype=float), (n_pts, 1))
        if trace_computer is None and mesh is None:
            traces = disk_dipole_traces(ys, ds, data.N)
        else:
            traces = (trace_computer or SingularTraceComputer(mesh, data.N)).trace_batch(ys, ds)
        phit = np.multiply(traces, data.weights, out=traces)  # (P * ndir, 2N)
    delta = epsilon * np.sqrt(np.einsum("ij,ij->i", phit.view(float), phit.view(float)))
    rows = _morozov_rows(data, phit, delta)

    best = np.arange(n_pts) * len(dirs) + rows.indicator.reshape(n_pts, len(dirs)).argmax(axis=1)
    return IndicatorMap(
        points=pts,
        indicator=rows.indicator[best],
        alpha=rows.alpha[best],
        residual=rows.residual[best],
        delta=delta[best],
        spacing=spacing,
        r_max=r_max,
        flag=rows.flag[best],
        steps=rows.steps[best],
    )


def support_cutoff(imap: IndicatorMap, rule: str = "multiplier",
                   c: float = DEFAULT_CUTOFF_MULTIPLIER, q: float = 0.1,
                   use_alpha: bool = False) -> float:
    """Threshold of ``estimate_support``: inside is I(y) <= it (alpha(y) >= it)."""
    check_cutoff(rule, c, q)
    feasible = imap.feasible
    if len(imap) == 0 or not feasible.any():
        raise EstimationError("no feasible sweep point; cannot estimate the support")
    values = (imap.alpha if use_alpha else imap.indicator)[feasible]
    if rule == "multiplier":
        return float(values.max() / c if use_alpha else c * values.min())
    return float(np.quantile(values, 1.0 - q if use_alpha else q))


def estimate_support(imap: IndicatorMap, rule: str = "multiplier",
                     c: float = DEFAULT_CUTOFF_MULTIPLIER, q: float = 0.1,
                     use_alpha: bool = False) -> np.ndarray:
    """Binary inside/outside mask over the sweep grid.

    The default rule marks y as inside when I(y) <= c * min I over feasible
    points (the alternative thresholds at the q-quantile of the feasible
    indicator values). With ``use_alpha`` the same band logic is applied to
    the regularization parameter, which is large inside: alpha(y) >= max/c.
    Infeasible points are never marked inside.
    """
    cut = support_cutoff(imap, rule, c, q, use_alpha)
    mask = imap.alpha >= cut if use_alpha else imap.indicator <= cut
    return mask & imap.feasible


def sweep_diagnostics(imap: IndicatorMap, cutoff: float) -> dict:
    """Flag counts, then over feasible points: Newton steps, alpha and
    indicator ranges, and the distance from the indicator ``cutoff`` to the
    nearest value at or below it and above it (None when a side is empty)."""
    feasible = imap.feasible
    values = imap.indicator[feasible]
    below, above = values[values <= cutoff], values[values > cutoff]
    return {
        "flags": {name: int((imap.flag == name).sum()) for name in FLAGS},
        "morozov_steps": {"median": float(np.median(imap.steps[feasible])),
                          "max": int(imap.steps[feasible].max())},
        "alpha": {"min": float(imap.alpha[feasible].min()),
                  "max": float(imap.alpha[feasible].max())},
        "indicator": {"min": float(values.min()), "max": float(values.max())},
        "cutoff": {
            "value": cutoff,
            "gap_below": float(cutoff - below.max()) if below.size else None,
            "gap_above": float(above.min() - cutoff) if above.size else None,
        },
    }


# ---------------------------------------------------------------------------
# Output files


def _write_csv(path, points: np.ndarray, columns: dict) -> None:
    """The bytes of ``np.savetxt(fmt="%.17g", delimiter=",", newline="\\r\\n")`` under a
    header x,y,<columns>, booleans as 0/1; each distinct float64 is formatted once."""
    table = np.column_stack([points, *columns.values()]).astype(np.float64, copy=False)
    bits, cell = np.unique(table.view(np.int64), return_inverse=True)
    text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
    cells = zip(*([text[i] for i in col] for col in cell.reshape(table.shape).T.tolist()))
    with open(path, "w", newline="") as fh:  # rows end in \r\n, as the csv module writes them
        fh.write("\r\n".join([",".join(["x", "y", *columns]), *map(",".join, cells)]) + "\r\n")


def write_indicator_csv(imap: IndicatorMap, path) -> None:
    """CSV with header x,y,indicator,alpha,feasible (17 significant digits)."""
    _write_csv(path, imap.points, {"indicator": imap.indicator, "alpha": imap.alpha,
                                   "feasible": imap.feasible})


def write_mask_csv(imap: IndicatorMap, mask: np.ndarray, path) -> None:
    """CSV with header x,y,inside."""
    _write_csv(path, imap.points, {"inside": mask})


def write_indicator_pgm(imap: IndicatorMap, path) -> None:
    """ASCII portable graymap of log10 I(y) for visual inspection.

    Bright pixels mark large indicator values (exterior points); grid cells
    outside the sweep disk or infeasible render black. The scaling is
    deterministic (min/max of the finite feasible values).
    """
    spacing, r_max = imap.spacing, imap.r_max
    k = int(math.floor(r_max / spacing + 1e-9))
    size = 2 * k + 1
    img = np.zeros((size, size), dtype=int)
    shown = imap.feasible & (imap.indicator > 0)
    if shown.any():
        logs = np.log10(imap.indicator[shown])
        lo, hi = logs.min(), logs.max()
        col, row = np.rint(imap.points[shown] / spacing).astype(int).T
        img[k - row, col + k] = 1 + np.rint((logs - lo) / (hi - lo if hi > lo else 1.0) * 254)
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, img, fmt="%d", header=f"P2\n{size} {size}\n255", comments="")
