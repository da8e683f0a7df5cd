"""Sobolev-weighted Tikhonov inversion, Morozov selection and the grid sweep.

The sampling equation (Lambda - Lambda0) psi_y = phi_y is solved in weighted
coordinates: with W_s = diag(|n|^s) the functional

    ||A psi - phi||_{1/2}^2 + alpha ||psi||_{-1/2}^2

becomes an ordinary least-squares problem for the matrix W_{1/2} A W_{1/2},
whose SVD is computed once per data set and reused by every sweep point.
The Morozov parameter alpha(delta) is found by bisection in log(alpha),
using the strict monotonicity of the residual. Since Vh is unitary, the
residual and the solution norm depend only on s^2 and |U^H phi|^2, so the
bisection runs on all sweep points and directions at once, as whole-array
operations, and no solution vector is formed for the indicator.

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

    beta: np.ndarray  # (R, 2N) U^H phit
    alpha: np.ndarray  # (R,) inf when infeasible-high, 0 when infeasible-low
    residual: np.ndarray  # (R,)
    indicator: np.ndarray  # (R,) ||psit|| = ||s/(s^2+alpha) beta||
    floor: np.ndarray  # (R,) alpha -> 0 limit of the residual
    ceiling: np.ndarray  # (R,) ||phit||, the alpha -> inf limit
    flag: np.ndarray  # (R,) one of FLAGS
    steps: np.ndarray  # (R,) bisection steps taken


@np.errstate(divide="ignore", invalid="ignore")
def _tikhonov_filter(s: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Rows s/(s^2 + alpha), 0 on null directions; alpha may be 0 or inf."""
    return np.where(s > 0.0, s / (s**2 + alpha[:, None]), 0.0)


# a failed row may overflow or divide 0 by 0; it is flagged, not warned about
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _morozov_rows(data: RelativeData, phit: np.ndarray, delta: np.ndarray) -> _MorozovRows:
    """Morozov's alpha for every row of ``phit`` (R, 2N) at once.

    Rules and flags are those of ``morozov_alpha``; the bisection steps all
    active rows together and freezes each row once it converges. Every
    operation acts on each row alone, so a row's result does not depend on
    the batch it is solved in.
    """
    s = data.singular_values
    s2 = s**2
    # numpy hands a one-row product to gemv, which sums in another order than
    # gemm; doubling a lone row keeps it bit-identical to the same row in a batch
    rows = phit if len(phit) > 1 else np.repeat(phit, 2, axis=0)
    beta = (rows @ data.U.conj())[: len(phit)]
    beta2 = beta.real**2 + beta.imag**2

    def residual(alpha: np.ndarray, idx: np.ndarray) -> np.ndarray:
        gain = alpha[:, None] / (s2 + alpha[:, None])
        return np.sqrt((gain**2 * beta2[idx]).sum(axis=1))

    ceiling = np.linalg.norm(phit, axis=1)
    floor = np.sqrt(beta2[:, s <= 0.0].sum(axis=1))
    flag = np.full(len(phit), "ok", dtype=f"<U{max(map(len, FLAGS))}")
    high = delta >= ceiling
    low = ~high & (delta <= floor)
    flag[high], flag[low] = "infeasible-high", "infeasible-low"
    alpha = np.where(high, np.inf, 0.0)
    steps = np.zeros(len(phit), dtype=int)

    idx = np.flatnonzero(~high & ~low)
    d, f, c = delta[idx], floor[idx], ceiling[idx]
    # With U unitary, sum |beta_i|^2 = c^2, so r(alpha) >= alpha / (s_1^2 + alpha) * c,
    # which reaches d at hi; and with s_min the least positive singular value,
    # r(alpha)^2 <= f^2 + (alpha / s_min^2)^2 (c^2 - f^2), which is at most d^2 at lo.
    hi = s2[0] * d / (c - d)
    s_min2 = s[s > 0.0][-1] ** 2 if s[0] > 0.0 else 0.0
    lo = s_min2 * np.sqrt((d - f) / (c - f) * ((d + f) / (c + f)))
    mid = hi.copy()  # the alpha reported for a row with no usable bracket
    converged = np.zeros(len(idx), dtype=bool)
    active = np.flatnonzero(lo > 0.0)  # lo underflows to 0 when s_min^2 does
    for _ in range(MOROZOV_MAX_STEPS):
        if not len(active):
            break
        mid[active] = np.sqrt(lo[active]) * np.sqrt(hi[active])  # lo * hi may underflow
        steps[idx[active]] += 1
        res = residual(mid[active], idx[active])
        hit = np.abs(res - d[active]) <= MOROZOV_RTOL * d[active]
        converged[active[hit]] = True
        below = (res < d[active])[~hit]
        active = active[~hit]
        lo[active[below]] = mid[active[below]]
        hi[active[~below]] = mid[active[~below]]
    alpha[idx] = mid

    achieved = np.where(high, ceiling, floor)
    achieved[idx] = residual(mid, idx)
    flag[idx[~converged | ~np.isfinite(achieved[idx])]] = "not-converged"
    indicator = np.sqrt((_tikhonov_filter(s, alpha) ** 2 * beta2).sum(axis=1))
    return _MorozovRows(beta, alpha, achieved, indicator, floor, ceiling, flag, steps)


def morozov_alpha(data: RelativeData, rhs: BoundaryField, delta: float) -> MorozovResult:
    """Select alpha so that the residual matches the discrepancy level delta.

    residual(alpha) increases strictly from the alpha -> 0 floor f to
    c = ||rhs||; bisection on log(alpha) brings it within MOROZOV_RTOL of
    delta, inside the closed-form bracket hi = s_1^2 delta / (c - delta) and
    lo = s_min^2 sqrt((delta^2 - f^2) / (c^2 - f^2)), with s_min the least
    positive singular value. Outside the feasible window the result is
    flagged: below the floor the alpha -> 0 (minimum-norm) solution is
    returned, at or above ||rhs|| the zero current already satisfies the
    constraint. A bisection that fails (a bracket that underflows to 0, as
    when s_min^2 does, MOROZOV_MAX_STEPS spent or a non-finite residual) is
    flagged "not-converged". This is a one-row call into the sweep kernel.
    """
    if delta <= 0.0:
        raise ConfigurationError(f"discrepancy level must be positive, got {delta}")
    phit = data.weighted_rhs(rhs)
    row = _morozov_rows(data, phit[None, :], np.array([float(delta)]))
    filtered = _tikhonov_filter(data.singular_values, row.alpha)[0] * row.beta[0]
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
    steps: np.ndarray  # (P,) its bisection steps

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
    whole-array bisection selects every alpha at once (see ``morozov_alpha``
    for the per-row rule and flags).

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
    if epsilon <= 0.0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
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
        phit = traces * data.weights  # (P * ndir, 2N)
    delta = epsilon * np.linalg.norm(phit, axis=1)
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
    """Flag counts, then over feasible points: bisection steps, alpha and
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
    """CSV of x, y and the named per-point columns, rows ending in \\r\\n as
    the csv module writes them: floats at 17 significant digits, booleans as
    0/1 (``%.17g`` of 0.0 and 1.0)."""
    with open(path, "w", newline="") as fh:  # a handle: savetxt gzips a path ending in .gz
        np.savetxt(fh, np.column_stack([points, *columns.values()]), fmt="%.17g", delimiter=",",
                   header=",".join(["x", "y", *columns]), comments="", newline="\r\n")


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
