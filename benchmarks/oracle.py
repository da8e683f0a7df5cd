"""Independent checks of the files `eitlsm simulate` and `eitlsm reconstruct` write.

Nothing here calls into the `eitlsm` package. The ND files and the CSV
outputs are read with this module's own parsers; the dipole traces come from
the closed-form trace on the unit disk; the Morozov parameter comes from
numpy's SVD and scipy's Brent root finder applied to the discrepancy
principle (Engl-Hanke-Neubauer 1996). Every check returns a list of failure
messages, empty when the check passes.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.optimize import brentq


def modes(n_order: int) -> np.ndarray:
    """Mode numbers in the coefficient order of the ND files: -N..-1, 1..N."""
    return np.concatenate([np.arange(-n_order, 0), np.arange(1, n_order + 1)])


def read_nd(path: str) -> tuple[np.ndarray, str]:
    """Parse an ND file: header `ndmap N <N> provenance <tag>`, then 2N rows of re/im pairs."""
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 5 or head[:2] != ["ndmap", "N"] or head[3] != "provenance":
            raise ValueError(f"{path}: bad header {head}")
        n_order = int(head[2])
        rows = [line.split() for line in fh if line.strip()]
    if len(rows) != 2 * n_order or any(len(r) != 4 * n_order for r in rows):
        raise ValueError(f"{path}: expected {2 * n_order} rows of {4 * n_order} numbers")
    vals = np.array(rows, dtype=float)
    return vals[:, 0::2] + 1j * vals[:, 1::2], head[4]


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def grid(spacing: float, r_max: float) -> np.ndarray:
    """Square lattice of pitch `spacing` clipped to |y| <= r_max, in x-major order."""
    k = int(math.floor(r_max / spacing + 1e-9))
    idx = np.arange(-k, k + 1) * spacing
    xs, ys = np.meshgrid(idx, idx, indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    return pts[np.hypot(pts[:, 0], pts[:, 1]) <= r_max + 1e-12]


def inside(points: np.ndarray, scenario: dict) -> np.ndarray:
    """Membership of points in the union of the scenario's disks and ellipses."""
    out = np.zeros(len(points), dtype=bool)
    for inc in scenario["inclusions"]:
        d = points - np.asarray(inc["center"], dtype=float)
        if inc["shape"] == "disk":
            out |= np.hypot(d[:, 0], d[:, 1]) < inc["radius"]
        else:
            c, s = math.cos(inc.get("tilt", 0.0)), math.sin(inc.get("tilt", 0.0))
            u, v = c * d[:, 0] + s * d[:, 1], -s * d[:, 0] + c * d[:, 1]
            a, b = inc["semi_axes"]
            out |= (u / a) ** 2 + (v / b) ** 2 < 1.0
    return out


def disk_dipole_trace(y: np.ndarray, direction: complex, n_order: int) -> np.ndarray:
    """Closed-form Fourier coefficients of the singular-solution trace on the unit disk.

    With a = a1 + i a2 and y = y1 + i y2: c_n = -(1/2pi) conj(a) conj(y)^(n-1)
    for n > 0 and c_n = -(1/2pi) a y^(|n|-1) for n < 0. Returns (P, 2N).
    """
    yc = y[:, 0] + 1j * y[:, 1]
    out = np.empty((len(yc), 2 * n_order), dtype=complex)
    for col, n in enumerate(modes(n_order)):
        if n > 0:
            out[:, col] = np.conj(direction) * np.conj(yc) ** (n - 1)
        else:
            out[:, col] = direction * yc ** (-n - 1)
    return -out / (2.0 * np.pi)


class Morozov:
    """Sobolev-weighted Tikhonov solves with alpha from the discrepancy principle.

    With W = diag(|n|^(1/2)) and U s V^H = W A W, the weighted right-hand side
    b = W phi gives beta = U^H b; the residual is ||alpha/(s^2+alpha) beta||
    and the indicator ||psi||_{-1/2} = ||s/(s^2+alpha) beta||.
    """

    def __init__(self, difference: np.ndarray, weights: np.ndarray):
        self.weights = weights
        u, self.s, _ = np.linalg.svd(weights[:, None] * difference * weights[None, :])
        self.uh = u.conj().T

    def solve(self, phi: np.ndarray, epsilon: float) -> tuple[float, float, bool]:
        """Return (indicator, alpha, feasible) for one trace phi at delta = epsilon ||phi||_{1/2}."""
        b = self.weights * phi
        delta = epsilon * np.linalg.norm(b)
        beta = self.uh @ b
        s2 = self.s**2
        floor = np.linalg.norm(beta[self.s == 0.0])
        if not floor < delta < np.linalg.norm(beta):
            return math.nan, math.nan, False

        def gap(t: float) -> float:
            alpha = math.exp(t)
            return math.log(np.linalg.norm(alpha / (s2 + alpha) * beta)) - math.log(delta)

        lo, hi = -50.0, 50.0
        while gap(lo) > 0.0:
            lo -= 50.0
        while gap(hi) < 0.0:
            hi += 50.0
        alpha = math.exp(brentq(gap, lo, hi, xtol=1e-13, rtol=1e-13, maxiter=500))
        return float(np.linalg.norm(self.s / (s2 + alpha) * beta)), alpha, True


def self_test() -> list[str]:
    """The oracle's own closed forms: scalar Morozov and the centered x-dipole."""
    errors = []
    a, b = 0.37 - 0.21j, 0.93 + 0.44j
    solver = Morozov(np.array([[a]]), np.array([1.0]))
    epsilon = 0.4
    delta = epsilon * abs(b)
    _, alpha, ok = solver.solve(np.array([b]), epsilon)
    expected = delta * abs(a) ** 2 / (abs(b) - delta)
    if not ok or abs(alpha - expected) > 1e-10 * expected:
        errors.append(f"scalar Morozov: alpha {alpha!r}, closed form {expected!r}")
    coeffs = disk_dipole_trace(np.zeros((1, 2)), 1.0 + 0.0j, 4)[0]
    target = np.where(np.abs(modes(4)) == 1, -1.0 / (2.0 * np.pi), 0.0)
    if np.abs(coeffs - target).max() > 1e-15:
        errors.append(f"centered x-dipole trace {coeffs} != c_(+-1) = -1/(2 pi)")
    return errors


def check_simulate(measured_path: str, background_path: str, n_order: int) -> list[str]:
    """Background diagonal against 1/|n| and reciprocity of the measured map."""
    errors = []
    measured, tag = read_nd(measured_path)
    background, _ = read_nd(background_path)
    k = np.abs(modes(n_order)).astype(float)
    if measured.shape != (2 * n_order, 2 * n_order) or background.shape != measured.shape:
        return [f"ND shapes {measured.shape}, {background.shape} for N={n_order}"]
    if tag != "fem":
        errors.append(f"measured provenance {tag!r}, expected 'fem'")
    band = k <= 8
    diag_err = float((np.abs(np.diag(background) - 1.0 / k) * k)[band].max())
    if not diag_err <= 2e-2:
        errors.append(f"background diagonal differs from 1/|n| by {diag_err:.3e} (> 2e-2)")
    # M[m, n] = M[-n, -m]; mode -n sits at the mirrored index
    mirrored = measured[::-1, ::-1].T
    defect = float(np.linalg.norm(measured - mirrored) / np.linalg.norm(measured))
    if not defect <= 1e-6:
        errors.append(f"reciprocity defect {defect:.3e} (> 1e-6)")
    return errors


def check_reconstruct(out_dir: str, spec: dict, sample_seed: int) -> list[str]:
    """Grid, feasibility, sampled indicator and alpha, mask and (on ref) the cut-off window."""
    cfg, tol = spec["config"], spec["tolerance"]
    errors = []
    header, table = read_csv(f"{out_dir}/indicator.csv")
    if header != ["x", "y", "indicator", "alpha", "feasible"]:
        return [f"indicator.csv header {header}"]
    pts = grid(cfg["grid"]["spacing"], cfg["grid"]["r_max"])
    if table.shape != (len(pts), 5) or np.abs(table[:, :2] - pts).max() > 1e-12:
        return [f"indicator.csv has {len(table)} rows, not the {len(pts)}-point grid"]
    indicator, alpha, feasible = table[:, 2], table[:, 3], table[:, 4]
    if not (feasible == 1).all():
        errors.append(f"{int((feasible != 1).sum())} infeasible points")

    mheader, mtable = read_csv(f"{out_dir}/mask.csv")
    if mheader != ["x", "y", "inside"] or mtable.shape != (len(pts), 3):
        return errors + ["mask.csv does not match the grid"]
    truth = inside(pts, cfg["scenario"])
    symdiff = int(((mtable[:, 2] == 1) != truth).sum())
    if symdiff > tol["symdiff_share"] * truth.sum():
        errors.append(f"mask symmetric difference {symdiff} > {tol['symdiff_share']} |D| "
                      f"(|D| = {int(truth.sum())})")
    if "cutoff_window" in tol:
        low = indicator[truth].max() / indicator.min()
        high = indicator[~truth].min() / indicator.min()
        want_low, want_high = tol["cutoff_window"]
        if not (low <= want_low and high >= want_high):
            errors.append(f"cut-off window ({low:.2f}, {high:.2f}) does not cover "
                          f"({want_low}, {want_high})")

    measured, _ = read_nd(f"{out_dir}/measured.nd")
    background, _ = read_nd(f"{out_dir}/background.nd")
    n_order = cfg["N"]
    solver = Morozov(measured - background, np.abs(modes(n_order)).astype(float) ** 0.5)
    pick = np.random.default_rng(sample_seed).choice(len(pts), tol["sample"], replace=False)
    phis = [disk_dipole_trace(pts[pick], a, n_order) for a in (1.0, 1.0j)]
    ind_err, alpha_err = [], []
    for row, k in enumerate(pick):
        solved = [solver.solve(phi[row], cfg["delta_rule"]["epsilon"]) for phi in phis]
        if not all(ok for _, _, ok in solved):
            errors.append(f"oracle finds point {tuple(pts[k])} infeasible")
            continue
        ind = max(i for i, _, _ in solved)
        ind_err.append(abs(indicator[k] - ind) / ind)
        # alpha follows the maximizing direction; where the two directions'
        # indicators nearly tie, trace errors may flip which one that is
        alpha_err.append(min(abs(math.log(alpha[k] / alp)) for _, alp, _ in solved))
    if ind_err:
        for name, errs in (("indicator", ind_err), ("alpha", alpha_err)):
            med, top = float(np.median(errs)), max(errs)
            if med > tol[name][0] or top > tol[name][1]:
                errors.append(f"{name} differs from the oracle: median {med:.3e}, max {top:.3e} "
                              f"(tolerance {tol[name]})")
    return errors
