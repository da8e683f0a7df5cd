"""Sobolev-weighted Tikhonov inversion, Morozov selection and the grid sweep.

The sampling equation (Lambda - Lambda0) psi_y = phi_y is solved in weighted
coordinates: with W_s = diag(|n|^s) the functional

    ||A psi - phi||_{1/2}^2 + alpha ||psi||_{-1/2}^2

becomes an ordinary least-squares problem for the matrix W_{1/2} A W_{1/2},
whose SVD is computed once per data set and reused by every sweep point.
The Morozov parameter alpha(delta) is found by Newton steps on 1/residual -
1/delta in x = 1/alpha, concave in x, which rise to the root from left of it.
Since Vh is unitary, the residual and the solution norm depend only on s^2
and |U^H phi|^2, so the search runs on the x and y dipoles of a block of
sweep points at once, as whole-array operations, and no solution vector is
formed for the indicator.

The indicator I(y) = ||psi_y^delta||_{-1/2} is small where the dipole trace
is (approximately) in the range of the data operator - i.e. inside the
inclusion - and blows up outside; thresholding it yields the support
estimate. Both the psi-norm and the selected alpha are recorded, since it
is genuinely open which makes the better cut-off.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .dipole import SingularTraceComputer, disk_dipole_traces
from .errors import ConfigurationError, EstimationError
from .forward import NdMap, _write_table
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

# bounds the weighted difference's norm, so s_1: Morozov's hi = s_1^2 delta / (||phit|| - delta)
# stays finite (below 1e296), since delta = epsilon ||phit|| with epsilon < 1 rounds to at most
# (1 - 2^-53) ||phit||
S_MAX = 1e140


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
        if not np.linalg.norm(self.weighted) <= S_MAX:  # NaN too: LAPACK's SVD may hang on it
            raise ConfigurationError("the weighted difference of the ND maps is not finite or "
                                     f"its norm exceeds {S_MAX:g}; their entries are too large")
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
    """Tikhonov minimizer in weighted coordinates, alpha in [0, inf]; returns (psit, residual)."""
    beta = data.U.conj().T @ phit
    f, g = _tikhonov_filter(data.singular_values, np.asarray(alpha))
    return data.Vh.conj().T @ (f * beta), float(np.linalg.norm(g * beta))


def _unweight(data: RelativeData, psit: np.ndarray) -> BoundaryField:
    return BoundaryField(data.weights * psit, data.N, smoothness=-0.5)


def tikhonov_solve(data: RelativeData, rhs: BoundaryField, alpha: float) -> BoundaryField:
    """Unique minimizer of the weighted Tikhonov functional (alpha > 0).

    The returned field has smoothness -1/2 and its Sobolev norm equals the
    Euclidean norm of the weighted solution by construction.
    """
    if not alpha > 0.0:
        raise ConfigurationError(f"regularization parameter must be positive, got {alpha}")
    psit, _ = _solve_weighted(data, data.weighted_rhs(rhs), alpha)
    return _unweight(data, psit)


FLAGS = ("ok", "infeasible-low", "infeasible-high", "not-converged")
MOROZOV_MAX_STEPS = 300


class MorozovResult(namedtuple("MorozovResult",
                               "alpha psi residual delta flag residual_floor residual_ceiling")):
    """``morozov_alpha``'s choice: ``psi`` a BoundaryField and ``flag`` one of FLAGS."""

    __slots__ = ()

    @property
    def feasible(self) -> bool:
        return self.flag == "ok"


class _MorozovRows(namedtuple("_MorozovRows", "alpha residual indicator floor ceiling flag steps")):
    """Discrepancy-principle results for R weighted right-hand sides, each an (R,) array:
    ``alpha`` (inf when infeasible-high, 0 when infeasible-low), ``residual``, ``indicator``
    ||psit|| = ||s/(s^2+alpha) U^H phit||, the alpha -> 0 and alpha -> inf limits of the
    residual (``floor``, and ``ceiling`` = ||phit||), ``flag`` (one of FLAGS) and ``steps``,
    the residual evaluations of the Newton search."""

    __slots__ = ()


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _tikhonov_filter(s: np.ndarray, alpha: np.ndarray):
    """Rows of s/(s^2 + alpha) and alpha/(s^2 + alpha), alpha in [0, inf], as 1/(s + t) and
    1/(1 + s/t) with t = alpha/s, never forming s^2; 0 and 1 on null directions."""
    t = alpha[..., None] / s
    return np.where(s > 0.0, 1.0 / (s + t), 0.0), np.where(s > 0.0, 1.0 / (1.0 + s / t), 1.0)


def _rowwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, each row alone: numpy hands a one-row product to gemv, which sums in
    another order than gemm, so a lone row is doubled to match it in a batch."""
    return ((a if len(a) > 1 else np.repeat(a, 2, axis=0)) @ b)[: len(a)]


def _row_norms(phit: np.ndarray) -> np.ndarray:
    """||phit|| of each row, which bounds the residual (U being unitary): the sweep's delta
    is epsilon times it, summed alike, so that delta is below it for every epsilon < 1."""
    flat = phit.view(float)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


# a failed row may overflow or divide 0 by 0; it is flagged, not warned about
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _morozov_rows(data: RelativeData, phit: np.ndarray, delta: np.ndarray) -> _MorozovRows:
    """Morozov's alpha for every row of ``phit`` (R, 2N) at once.

    Rules and flags are those of ``morozov_alpha``. Each row starts left of its
    root, and plain Newton steps act on all rows not yet converged. Every
    operation acts on each row alone, so a row's result does not depend on the
    batch it is solved in.
    """
    s = data.singular_values
    s2 = s**2
    beta2 = np.abs(_rowwise(phit, data.U.conj()))  # |U^H phit|^2, squared in place
    beta2 *= beta2

    def newton_terms(x: np.ndarray, b2: np.ndarray, u: np.ndarray, w: np.ndarray, t: np.ndarray):
        """r, ||psit|| and -(1/2) dr^2/dx at x, with u = s^2 x and w = 1 / (1 + u)."""
        np.minimum(np.multiply(x[:, None], s2, out=u), np.finfo(float).max, out=u)  # no inf * 0
        np.reciprocal(np.add(u, 1.0, out=w), out=w)
        np.multiply(np.multiply(w, w, out=t), b2, out=t)
        r = np.sqrt(t.sum(axis=1))
        t *= u  # ||psit||^2 = sum b2 (s x w)^2, summed without forming x^2
        psi = np.sqrt(x) * np.sqrt(t.sum(axis=1))
        t *= w
        return r, psi, t.sum(axis=1) / x

    ceiling = _row_norms(phit)
    floor = np.sqrt(beta2[:, s <= 0.0].sum(axis=1))
    flag = np.full(len(phit), "ok", dtype=f"<U{max(map(len, FLAGS))}")
    high = delta >= ceiling
    low = ~high & (delta <= floor)
    flag[high], flag[low] = "infeasible-high", "infeasible-low"
    alpha = np.where(high, np.inf, 0.0)
    residual = np.where(high, ceiling, floor)
    indicator = np.zeros(len(phit))
    steps = np.zeros(len(phit), dtype=int)

    idx = np.flatnonzero(~high & ~low)
    d = delta[idx]
    # With U unitary, sum |beta_i|^2 = c^2, so r(alpha) >= alpha / (s_1^2 + alpha) * c,
    # which reaches d at hi: in x = 1/alpha the root lies right of 1/hi
    hi = s2[0] * d / (ceiling[idx] - d)
    stuck = ~np.isfinite(1.0 / hi)  # as when s_1^2 underflows: reported at hi
    alpha[idx[stuck]] = hi[stuck]
    fixed = np.concatenate([np.flatnonzero(low), idx[stuck]])  # by the filter, free of overflow
    fb, gb = (part * np.sqrt(beta2[fixed]) for part in _tikhonov_filter(s, alpha[fixed]))
    residual[fixed], indicator[fixed] = np.hypot.reduce(gb, axis=1), np.hypot.reduce(fb, axis=1)
    live = np.flatnonzero(~stuck)
    # the start: the larger of 1/hi and the last knot left of the root (0 if there is none)
    knots = 1.0 / s2[(s2 > 0.0) & (1.0 / s2 < np.inf)]
    knots = np.sort(np.concatenate([knots, np.sqrt(knots[1:]) * np.sqrt(knots[:-1])]))
    b2 = beta2 if len(live) == len(phit) else beta2[idx[live]]
    d = d[live]
    at_knots = _rowwise(b2, (1.0 / (1.0 + np.outer(s2, knots))) ** 2)  # r^2, (n, K)
    left = (at_knots > (d**2)[:, None]).sum(axis=1)  # knots left of the root
    # with w = 1/(1 + s^2 x) and v = s^2 w, (1/r)'' <= 0 is (sum b2 w^2 v)^2 <= r^2 sum b2 w^2 v^2,
    # Cauchy-Schwarz: 1/r is concave in x, so Newton from left of the root climbs to it
    x = np.maximum(1.0 / hi[live], np.concatenate([[0.0], knots])[left])
    work = np.empty((3, *b2.shape))
    for _ in range(MOROZOV_MAX_STEPS):
        rows = idx[live]
        steps[rows] += 1
        r, psi, slope = newton_terms(x, b2, *work[:, : len(live)])
        alpha[rows], residual[rows], indicator[rows] = 1.0 / x, r, psi
        x = x + r * r * (r - d) / (d * slope)  # Newton on 1/r(x) - 1/d
        going = ~(np.abs(r - d) <= MOROZOV_RTOL * d) & np.isfinite(x)
        if not going.all():
            live, b2, d, x = (v[going] for v in (live, b2, d, x))
        if not len(live):
            break

    missed = ~(np.abs(residual[idx] - delta[idx]) <= MOROZOV_RTOL * delta[idx])  # or not finite
    flag[idx[missed]] = "not-converged"  # such a row keeps the values of its last step
    return _MorozovRows(alpha, residual, indicator, floor, ceiling, flag, steps)


def morozov_alpha(data: RelativeData, rhs: BoundaryField, delta: float) -> MorozovResult:
    """Select alpha so that the residual matches the discrepancy level delta.

    residual(alpha) increases strictly from the alpha -> 0 floor f to
    c = ||rhs||; Newton steps on 1/residual - 1/delta, concave in x = 1/alpha,
    rise from 1/hi or a knot left of the root until the residual is within
    MOROZOV_RTOL of delta. Outside the feasible window the result is flagged:
    below the floor the alpha -> 0 (minimum-norm) solution is returned, at or
    above ||rhs|| the zero current already satisfies the constraint. A search
    that fails is flagged "not-converged", at its last finite step (an iterate
    overflows, as when s_min^2 underflows, or MOROZOV_MAX_STEPS are spent), or
    at alpha = hi when 1/hi overflows (0 when s_1^2 underflows too). This is
    a one-row call into the sweep kernel and ``_solve_weighted``.
    """
    if not delta > 0.0:
        raise ConfigurationError(f"discrepancy level must be positive, got {delta}")
    phit = data.weighted_rhs(rhs)
    row = _morozov_rows(data, phit[None, :], np.array([float(delta)]))
    psit, _ = _solve_weighted(data, phit, row.alpha[0])
    return MorozovResult(float(row.alpha[0]), _unweight(data, psit), float(row.residual[0]),
                         delta, str(row.flag[0]), float(row.floor[0]), float(row.ceiling[0]))


# ---------------------------------------------------------------------------
# Grid sweep


# the sweep builds traces and selects alpha for this many dipole rows at a time, so
# its memory stays bounded on any grid; a row's result does not depend on its block
_BLOCK_ROWS = 2**15

# A contract on every sweep, not a limit of the closed-form traces the CLI uses:
# it keeps the FEM reference traces (2 * h_target clearance) valid for h_target <= 0.05.
R_MAX = 0.9


def _lattice_half_width(spacing: float, r_max: float, where: str = "") -> int:
    """k of the (2k + 1)^2-cell lattice of pitch ``spacing`` covering |y| <= r_max;
    refuses a spacing that is not positive or gives over 10^6 cells (k >= 500), and
    an r_max that is not finite."""
    if not spacing > 0.0:
        raise ConfigurationError(f"{where}grid.spacing: must be positive, got {spacing}")
    if not math.isfinite(r_max):
        raise ConfigurationError(f"{where}grid.r_max: must be finite, got {r_max}")
    k = r_max / spacing + 1e-9  # a float until bounded: it may overflow an int or be inf
    if not k < 500:
        raise ConfigurationError(f"{where}grid.spacing: {spacing} gives a lattice of over "
                                 f"10^6 cells for r_max {r_max}")
    return math.floor(k)


def check_sweep_settings(spacing: float, r_max: float, epsilon: float, where: str = "") -> None:
    """Refuse a grid or discrepancy factor that ``indicator_map`` cannot use; messages
    name the setting as the run configuration does (``grid.r_max``) after ``where``."""
    _lattice_half_width(spacing, r_max, where)
    if r_max > R_MAX:
        raise ConfigurationError(
            f"{where}grid.r_max: must be <= {R_MAX}, got {r_max}")
    if not 0.0 < epsilon < 1.0:  # at or above 1, delta >= ||phi_y||: every point infeasible-high
        raise ConfigurationError(f"{where}delta_rule.epsilon: must lie in (0, 1), got {epsilon}")


def check_cutoff(rule: str, c: float, q: float, where: str = "") -> None:
    """Refuse a cut-off that ``support_cutoff`` cannot apply (names as above)."""
    if rule not in ("multiplier", "quantile"):
        raise ConfigurationError(
            f"{where}cutoff.rule: expected 'multiplier' or 'quantile', got {rule!r}")
    if rule == "multiplier" and not c >= 1.0:
        raise ConfigurationError(f"{where}cutoff.c: multiplier must be >= 1, got {c}")
    if rule == "quantile" and not (0.0 < q < 1.0):
        raise ConfigurationError(f"{where}cutoff.q: quantile must lie in (0, 1), got {q}")


class IndicatorMap:
    """Per-point sweep results on a square grid of pitch ``spacing`` clipped to |y| <= r_max.

    ``points`` is (P, 2); each other array is (P,): ``indicator``, the larger
    ||psi||_{-1/2} of the x and y dipoles; the selected regularization ``alpha``,
    achieved ``residual`` and discrepancy level ``delta``; and the Morozov ``flag``
    (one of FLAGS) and Newton residual evaluations (``steps``) of the maximizing direction.
    """

    def __init__(self, points, indicator, alpha, residual, delta, spacing, r_max, flag, steps):
        self.points, self.indicator, self.alpha, self.residual, self.delta = (
            points, indicator, alpha, residual, delta)
        self.spacing, self.r_max, self.flag, self.steps = spacing, r_max, flag, steps

    def __len__(self) -> int:
        return len(self.points)

    @property
    def feasible(self) -> np.ndarray:
        return self.flag == "ok"


def grid_points(spacing: float, r_max: float) -> np.ndarray:
    """Square lattice of pitch ``spacing`` clipped to the disk |y| <= r_max."""
    k = _lattice_half_width(spacing, r_max)
    i, j = np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1), indexing="ij")
    pts = np.column_stack([i.ravel() * spacing, j.ravel() * spacing])
    return pts[np.hypot(pts[:, 0], pts[:, 1]) <= r_max + 1e-12]


def indicator_map(data: RelativeData, mesh: DiskMesh | None, grid_spec: dict, delta_rule: dict,
                  trace_computer: SingularTraceComputer | None = None) -> IndicatorMap:
    """Sweep the sampling grid: Morozov-regularized solve per point for the x and y dipoles.

    The weighted dipole traces of the points, x then y, are stacked into rows
    of a (2P, 2N) array, and one whole-array Newton search selects the alpha
    of every row (see ``morozov_alpha`` for the per-row rule and flags); this
    runs in blocks of ``_BLOCK_ROWS`` rows.

    Parameters
    ----------
    data : RelativeData
    mesh : DiskMesh | None
        None (what ``reconstruct`` passes) takes the closed-form disk traces
        of ``disk_dipole_traces``; a mesh takes the FEM reference traces of
        ``SingularTraceComputer`` on it. A given ``trace_computer`` wins.
    grid_spec : dict with keys ``spacing`` and ``r_max`` (r_max <= 0.9)
    delta_rule : dict with key ``epsilon``; per point delta = epsilon * ||phi_y||_{1/2}

    The indicator is the larger ||psi||_{-1/2} of the two directions; alpha
    and feasibility follow that direction (x on ties).
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
    check_sweep_settings(spacing, r_max, epsilon)
    pts = grid_points(spacing, r_max)
    if trace_computer is None and mesh is not None and len(pts):
        trace_computer = SingularTraceComputer(mesh, data.N)
    imap = IndicatorMap(pts, *np.zeros((4, len(pts))), spacing, r_max,
                        flag=np.empty(len(pts), dtype=f"<U{max(map(len, FLAGS))}"),
                        steps=np.zeros(len(pts), dtype=int))
    step = _BLOCK_ROWS // 2  # points per block
    for start in range(0, len(pts), step):
        block = slice(start, start + step)
        ys = np.repeat(pts[block], 2, axis=0)
        ds = np.tile(np.eye(2), (len(ys) // 2, 1))
        traces = (disk_dipole_traces(ys, ds, data.N) if trace_computer is None
                  else trace_computer.trace_batch(ys, ds))
        phit = np.multiply(traces, data.weights, out=traces)  # (2 * points, 2N)
        delta = epsilon * _row_norms(phit)
        rows = _morozov_rows(data, phit, delta)
        best = np.arange(0, len(ys), 2) + rows.indicator.reshape(-1, 2).argmax(axis=1)
        imap.indicator[block], imap.alpha[block], imap.residual[block], imap.delta[block] = (
            rows.indicator[best], rows.alpha[best], rows.residual[best], delta[best])
        imap.flag[block], imap.steps[block] = rows.flag[best], rows.steps[best]
    return imap


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


def write_indicator_csv(imap: IndicatorMap, path) -> None:
    """CSV with header x,y,indicator,alpha,feasible, rows ending in \\r\\n and the
    ``%.17g`` cells of :func:`~eitlsm.forward._write_table`; ``feasible`` is 0/1."""
    _write_table(path, "x,y,indicator,alpha,feasible",
                 np.column_stack([imap.points, imap.indicator, imap.alpha, imap.feasible]),
                 ",", "\r\n")


def write_mask_csv(imap: IndicatorMap, mask: np.ndarray, path) -> None:
    """CSV with header x,y,inside (1 inside the support estimate, else 0), laid out
    as :func:`write_indicator_csv`."""
    _write_table(path, "x,y,inside", np.column_stack([imap.points, mask]), ",", "\r\n")


def write_indicator_pgm(imap: IndicatorMap, path) -> None:
    """ASCII portable graymap of log10 I(y) for visual inspection.

    Bright pixels mark large indicator values (exterior points); grid cells
    outside the sweep disk or infeasible render black. The scaling is
    deterministic (min/max of the finite feasible values). Header lines ``P2``, the
    size and 255; then one line per image row of whole-number pixels, printed as integers.
    """
    k = _lattice_half_width(imap.spacing, imap.r_max)
    size = 2 * k + 1
    img = np.zeros((size, size))
    shown = imap.feasible & (imap.indicator > 0)
    if shown.any():
        logs = np.log10(imap.indicator[shown])
        lo, hi = logs.min(), logs.max()
        col, row = np.rint(imap.points[shown] / imap.spacing).astype(int).T
        img[k - row, col + k] = 1 + np.rint((logs - lo) / (hi - lo if hi > lo else 1.0) * 254)
    _write_table(path, f"P2\n{size} {size}\n255", img, " ", "\n")
