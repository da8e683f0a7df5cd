import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitlsm import (
    BoundaryField,
    ConfigurationError,
    EstimationError,
    IndicatorMap,
    NdMap,
    RelativeData,
    SingularTraceComputer,
    estimate_support,
    fourier_modes,
    grid_points,
    indicator_map,
    make_relative_data,
    morozov_alpha,
    tikhonov_solve,
    write_indicator_csv,
    write_indicator_pgm,
    write_mask_csv,
)
from eitlsm.sampling import MOROZOV_MAX_STEPS, _morozov_rows, _solve_weighted, _write_csv
from conftest import two_phase_diagonal


def scalar_surrogate(a):
    """N = 1 diagonal data: both modes carry the same scalar a."""
    return RelativeData(np.diag([a, a]).astype(complex), 1)


def rhs_field(b, N=1, smoothness=0.5):
    coeffs = np.zeros(2 * N, dtype=complex)
    coeffs[0] = b
    return BoundaryField(coeffs, N, smoothness)


def analytic_concentric_data(N=12, rho=0.5, sigma=2.0):
    modes = fourier_modes(N)
    diag = two_phase_diagonal(modes, rho, sigma) - 1.0 / np.abs(modes)
    return RelativeData(np.diag(diag).astype(complex), N)


# ---------------------------------------------------------------------------
# RelativeData


def test_relative_data_zero_difference(background_nd05):
    data = make_relative_data(background_nd05, background_nd05)
    assert np.abs(data.matrix).max() == 0.0
    assert np.abs(data.singular_values).max() == 0.0


def test_relative_data_dimension_mismatch(background_nd05):
    other = NdMap(np.eye(16), 8, "fem")
    with pytest.raises(ConfigurationError):
        make_relative_data(background_nd05, other)


def test_relative_data_weighted_consistency(concentric_nd05, background_nd05):
    data = make_relative_data(concentric_nd05, background_nd05)
    w = np.abs(data.modes).astype(float) ** 0.5
    direct = w[:, None] * data.matrix * w[None, :]
    assert np.abs(data.weighted - direct).max() <= 1e-12
    s = data.singular_values
    assert (s >= 0).all() and (np.diff(s) <= 0).all()


def test_singular_values_decay_geometrically():
    data = analytic_concentric_data()
    s = data.singular_values
    ratios = s[1:] / s[:-1]
    assert np.mean(ratios) < 0.9


def test_weighted_injectivity_at_truncation(concentric_nd05, background_nd05):
    data = make_relative_data(concentric_nd05, background_nd05)
    assert data.singular_values.min() > 0.0


def test_weighted_injectivity_anisotropic(mesh05, aniso_field, background_nd05):
    from eitlsm import compute_nd_map

    measured = compute_nd_map(mesh05, aniso_field, 12)
    data = make_relative_data(measured, background_nd05)
    assert data.singular_values.min() > 0.0


# ---------------------------------------------------------------------------
# Tikhonov


def test_tikhonov_zero_rhs():
    data = scalar_surrogate(0.8 - 0.1j)
    psi = tikhonov_solve(data, rhs_field(0.0), alpha=0.1)
    assert np.abs(psi.coeffs).max() == 0.0
    assert psi.smoothness == -0.5


def test_tikhonov_penalty_dominance():
    data = analytic_concentric_data()
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(2 * data.N) + 1j * rng.standard_normal(2 * data.N)
    rhs = BoundaryField(coeffs, data.N, smoothness=0.5)
    s1 = data.singular_values[0]
    alpha = 1e6 * s1**2
    psi = tikhonov_solve(data, rhs, alpha)
    phit = data.weighted_rhs(rhs)
    assert psi.sobolev_norm() <= np.linalg.norm(phit) * s1 / alpha + 1e-15


def test_tikhonov_scalar_closed_form():
    a, b, alpha = 0.37 - 0.21j, 0.93 + 0.44j, 0.057
    data = scalar_surrogate(a)
    psi = tikhonov_solve(data, rhs_field(b), alpha)
    expected = np.conj(a) * b / (abs(a) ** 2 + alpha)
    assert abs(psi.coeffs[0] - expected) <= 1e-14
    assert abs(psi.coeffs[1]) == 0.0


def test_tikhonov_requires_positive_alpha():
    with pytest.raises(ConfigurationError):
        tikhonov_solve(scalar_surrogate(1.0), rhs_field(1.0), alpha=0.0)


# ---------------------------------------------------------------------------
# Morozov


def test_morozov_infeasible_high():
    data = scalar_surrogate(0.5)
    rhs = rhs_field(1.0)
    res = morozov_alpha(data, rhs, delta=1.5)
    assert res.flag == "infeasible-high"
    assert not res.feasible
    assert np.abs(res.psi.coeffs).max() == 0.0
    assert res.residual_ceiling == pytest.approx(1.0)


def test_morozov_infeasible_low():
    # one exactly-zero singular direction: the alpha -> 0 residual floor is
    # the projection of the rhs on it
    data = RelativeData(np.diag([0.7, 0.0]).astype(complex), 1)
    coeffs = np.array([0.5, 0.3], dtype=complex)
    rhs = BoundaryField(coeffs, 1, smoothness=0.5)
    res = morozov_alpha(data, rhs, delta=0.1)
    assert res.flag == "infeasible-low"
    assert res.alpha == 0.0
    assert res.residual_floor == pytest.approx(0.3)
    # minimum-norm solution on the nonzero direction
    assert res.psi.coeffs[0] == pytest.approx(0.5 / 0.7)


def test_morozov_scalar_closed_form():
    a, b = 0.37 - 0.21j, 0.93 + 0.44j
    delta = 0.4 * abs(b)
    res = morozov_alpha(scalar_surrogate(a), rhs_field(b), delta)
    assert res.feasible
    expected_alpha = delta * abs(a) ** 2 / (abs(b) - delta)
    assert res.alpha == pytest.approx(expected_alpha, rel=1e-6)
    assert res.residual == pytest.approx(delta, rel=1e-6)


def test_morozov_residual_matches_delta_on_concentric():
    data = analytic_concentric_data()
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal(2 * data.N) + 1j * rng.standard_normal(2 * data.N)
    rhs = BoundaryField(coeffs, data.N, smoothness=0.5)
    for eps in (0.3, 0.03, 0.003):
        delta = eps * rhs.sobolev_norm()
        res = morozov_alpha(data, rhs, delta)
        assert res.feasible
        assert abs(res.residual - delta) <= 1e-6 * delta
        # independent residual evaluation at the returned alpha
        _, check = _solve_weighted(data, data.weighted_rhs(rhs), res.alpha)
        assert check == pytest.approx(res.residual, rel=1e-12)


def test_residual_and_norm_monotone_in_alpha():
    data = analytic_concentric_data()
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(2 * data.N) + 1j * rng.standard_normal(2 * data.N)
    rhs = BoundaryField(coeffs, data.N, smoothness=0.5)
    alphas = np.logspace(-10, 2, 20)
    residuals, norms = [], []
    for alpha in alphas:
        psi = tikhonov_solve(data, rhs, alpha)
        _, res = _solve_weighted(data, data.weighted_rhs(rhs), alpha)
        residuals.append(res)
        norms.append(psi.sobolev_norm())
    assert (np.diff(residuals) > 0).all()
    assert (np.diff(norms) < 0).all()


def test_noise_monotonicity_in_delta():
    # a larger discrepancy ball never yields a larger solution norm
    data = analytic_concentric_data()
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal(2 * data.N) + 1j * rng.standard_normal(2 * data.N)
    rhs = BoundaryField(coeffs, data.N, smoothness=0.5)
    base = rhs.sobolev_norm()
    norms = []
    for eps in (1e-3, 1e-2, 1e-1, 0.5):
        res = morozov_alpha(data, rhs, eps * base)
        norms.append(res.psi.sobolev_norm())
    assert (np.diff(norms) <= 0).all()


def test_morozov_underflow_not_converged():
    # s_2^2 underflows to 0, so the residual never drops below 1 > delta and
    # the closed-form lower bracket s_min^2 * sqrt(...) is 0: flagged, never
    # reported as "ok"
    data = RelativeData(np.diag([1.0, 1e-200]), 1)
    res = morozov_alpha(data, BoundaryField([1.0, 1.0], 1, 0.5), 0.5)
    assert res.flag == "not-converged"
    assert not res.feasible


def log_bisection_alpha(s, beta2, delta):
    """Reference Morozov alpha: 200 bisection steps in log(alpha) over [1e-320, 1e10]."""
    lo, hi = np.log(1e-320), np.log(1e10)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        alpha = np.exp(mid)
        if np.sqrt(((alpha / (s**2 + alpha)) ** 2 * beta2).sum()) < delta:
            lo = mid
        else:
            hi = mid
    return np.exp(0.5 * (lo + hi))


def test_morozov_bracket_spans_a_wide_spectrum():
    # singular values from 1 down to 1e-150: the smallest-residual rows need
    # alpha down to 3e-308, which the closed-form bracket still encloses
    N = 8
    s = np.logspace(0.0, -150.0, 2 * N)
    data = RelativeData(np.diag(s / np.abs(fourier_modes(N))), N)
    np.testing.assert_allclose(data.singular_values, s, rtol=1e-12)
    rng = np.random.default_rng(5)
    phit = rng.standard_normal((10, 2 * N)) + 1j * rng.standard_normal((10, 2 * N))
    delta = np.repeat([0.3, 0.03, 0.003, 1e-5, 1e-8], 2) * np.linalg.norm(phit, axis=1)
    rows = _morozov_rows(data, phit, delta)
    assert (rows.flag == "ok").all()
    assert (np.abs(rows.residual - delta) <= 1e-6 * delta).all()
    assert (rows.steps <= MOROZOV_MAX_STEPS).all()
    # the Newton search lands where a plain bisection does, and the indicator
    # summed in the search matches the solution it stands for
    beta2 = np.abs(phit @ data.U.conj()) ** 2
    for i in range(len(phit)):
        assert abs(np.log(rows.alpha[i] / log_bisection_alpha(s, beta2[i], delta[i]))) <= 1e-6
        psit, _ = _solve_weighted(data, phit[i], rows.alpha[i])
        assert np.linalg.norm(psit) == pytest.approx(rows.indicator[i], rel=1e-12)


def test_newton_step_leaving_the_bracket_takes_the_midpoint():
    # singular values 1 and 0.01 and a right-hand side mostly on the first: from
    # the knot-interval start the first two Newton steps land outside the
    # bracket, and the safeguard's geometric midpoints carry the row to convergence
    data = RelativeData(np.diag([1.0, 0.01]).astype(complex), 1)
    phit = np.array([[1.0, 1e-3]], dtype=complex)
    for eps in (0.1, 0.3):
        delta = np.array([eps * np.linalg.norm(phit)])
        row = _morozov_rows(data, phit, delta)
        assert row.flag[0] == "ok" and row.steps[0] <= 8
        assert abs(row.residual[0] - delta[0]) <= 1e-8 * delta[0]
        beta2 = np.abs(phit[0] @ data.U.conj()) ** 2
        reference = log_bisection_alpha(data.singular_values, beta2, delta[0])
        assert abs(np.log(row.alpha[0] / reference)) <= 1e-6


def test_morozov_batch_rows_are_independent():
    # dense data whose zero first row and column give an exact zero singular
    # value, with the mode n = -N as its null direction
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    dense[0, :] = dense[:, 0] = 0.0
    data = RelativeData(0.1 * dense, 8)
    rhs, delta, kinds = [], [], []
    for k in range(12):
        coeffs = rng.standard_normal(2 * data.N) + 1j * rng.standard_normal(2 * data.N)
        kind = ("high", "low", "ok")[k % 3]
        if kind == "ok":
            coeffs[0] = 0.0  # nothing on the null direction: floor 0
        phit = data.weighted_rhs(BoundaryField(coeffs, data.N, 0.5))
        ceiling = np.linalg.norm(phit)
        floor = abs(phit[0])
        rhs.append(phit)
        delta.append({"high": 1.2 * ceiling, "low": 0.5 * floor,
                      "ok": (0.3, 0.03, 0.003)[k // 3 % 3] * ceiling}[kind])
        kinds.append(kind)
    phit, delta, kinds = np.array(rhs), np.array(delta), np.array(kinds)
    batch = _morozov_rows(data, phit, delta)
    assert list(batch.flag) == [{"high": "infeasible-high", "low": "infeasible-low",
                                 "ok": "ok"}[k] for k in kinds]

    for i in range(len(phit)):
        alone = _morozov_rows(data, phit[i:i + 1], delta[i:i + 1])
        for name in ("alpha", "residual", "indicator"):
            assert getattr(alone, name)[0].tobytes() == getattr(batch, name)[i].tobytes()
        field = BoundaryField(phit[i] / data.weights, data.N, 0.5)
        single = morozov_alpha(data, field, delta[i])
        assert single.flag == batch.flag[i]

    ok, high, low = kinds == "ok", kinds == "high", kinds == "low"
    for i in np.flatnonzero(ok):
        psit, residual = _solve_weighted(data, phit[i], batch.alpha[i])
        assert residual == pytest.approx(batch.residual[i], rel=1e-12)
        assert np.linalg.norm(psit) == pytest.approx(batch.indicator[i], rel=1e-12)
        assert abs(batch.residual[i] - delta[i]) <= 1e-6 * delta[i]
    assert np.isinf(batch.alpha[high]).all() and (batch.indicator[high] == 0.0).all()
    assert (batch.alpha[low] == 0.0).all()
    min_norm = np.linalg.norm(phit[low] @ np.linalg.pinv(data.weighted).T, axis=1)
    np.testing.assert_allclose(batch.indicator[low], min_norm, rtol=1e-12)


# ---------------------------------------------------------------------------
# sweep and support estimate


def test_grid_points_geometry():
    pts = grid_points(0.1, 0.35)
    assert (np.linalg.norm(pts, axis=1) <= 0.35 + 1e-12).all()
    assert any((p == (0.0, 0.0)).all() for p in pts)
    assert len(grid_points(0.1, -1.0)) == 0


def test_indicator_map_empty_grid(mesh05, concentric_nd05, background_nd05):
    data = make_relative_data(concentric_nd05, background_nd05)
    imap = indicator_map(data, mesh05, {"spacing": 0.1, "r_max": -1.0}, {"epsilon": 0.01})
    assert len(imap) == 0
    with pytest.raises(EstimationError):
        estimate_support(imap)


def test_indicator_map_validation(mesh05, concentric_nd05, background_nd05):
    data = make_relative_data(concentric_nd05, background_nd05)
    with pytest.raises(ConfigurationError):
        indicator_map(data, mesh05, {"spacing": 0.1, "r_max": 0.95}, {"epsilon": 0.01})
    for epsilon in (0.0, 1.0):  # at 1, delta = ||phi_y||: every point infeasible-high
        with pytest.raises(ConfigurationError, match="epsilon"):
            indicator_map(data, mesh05, {"spacing": 0.1, "r_max": 0.5}, {"epsilon": epsilon})
    with pytest.raises(ConfigurationError):
        indicator_map(data, mesh05, {"spacing": 0.1, "r_max": 0.5},
                      {"epsilon": 0.01}, directions="diag")


@pytest.fixture(scope="module")
def small_sweep(mesh05, concentric_nd05, background_nd05):
    data = make_relative_data(concentric_nd05, background_nd05)
    computer = SingularTraceComputer(mesh05, data.N)
    imap = indicator_map(
        data, mesh05, {"spacing": 0.15, "r_max": 0.75}, {"epsilon": 0.01},
        trace_computer=computer,
    )
    return data, computer, imap


def test_closed_form_sweep_matches_fem_sweep(small_sweep):
    data, _, fem = small_sweep
    closed = indicator_map(data, None, {"spacing": 0.15, "r_max": 0.75}, {"epsilon": 0.01})
    assert np.array_equal(closed.points, fem.points)
    assert np.array_equal(closed.flag, fem.flag)
    assert np.array_equal(estimate_support(closed), estimate_support(fem))


def test_indicator_finite_positive_at_feasible_points(small_sweep):
    _, _, imap = small_sweep
    assert imap.feasible.all()
    assert (imap.flag == "ok").all() and (imap.steps > 0).all()
    assert np.isfinite(imap.indicator).all()
    assert (imap.indicator > 0).all()
    assert (np.linalg.norm(imap.points, axis=1) < 1.0).all()
    # Morozov contract holds on every feasible point
    rel = np.abs(imap.residual - imap.delta) / imap.delta
    assert rel.max() <= 1e-6


def test_indicator_dichotomy_small(small_sweep):
    _, _, imap = small_sweep
    inside = np.linalg.norm(imap.points, axis=1) < 0.5
    med_in = np.median(imap.indicator[inside])
    med_out = np.median(imap.indicator[~inside])
    assert med_out >= 5.0 * med_in


def test_estimate_support_constant_field(small_sweep):
    _, _, imap = small_sweep
    flat = dataclasses.replace(imap, indicator=np.ones(len(imap)))
    mask = estimate_support(flat, rule="multiplier", c=3.0)
    assert mask.all()


def test_estimate_support_rules(small_sweep):
    _, _, imap = small_sweep
    inside = np.linalg.norm(imap.points, axis=1) < 0.5
    mask = estimate_support(imap)  # default multiplier rule
    sym = (mask != inside).sum() / inside.sum()
    assert sym <= 0.3
    q = inside.mean()
    qmask = estimate_support(imap, rule="quantile", q=q)
    assert (qmask != inside).sum() / inside.sum() <= 0.3
    # alpha-based variant: marked points carry the largest selected alphas
    # (the >= 80% agreement with the norm mask is asserted on the reference
    # scenario in the acceptance suite)
    amask = estimate_support(imap, use_alpha=True)
    if amask.any() and (~amask).any():
        assert imap.alpha[amask].min() >= imap.alpha[~amask].max()
    with pytest.raises(ConfigurationError):
        estimate_support(imap, rule="median")
    with pytest.raises(ConfigurationError):
        estimate_support(imap, rule="quantile", q=1.5)


# ---------------------------------------------------------------------------
# outputs


def test_csv_and_pgm_outputs(tmp_path, small_sweep):
    _, _, imap = small_sweep
    mask = estimate_support(imap)
    ipath, mpath, ppath = tmp_path / "i.csv", tmp_path / "m.csv", tmp_path / "i.pgm"
    write_indicator_csv(imap, ipath)
    write_mask_csv(imap, mask, mpath)
    write_indicator_pgm(imap, ppath)

    with open(ipath) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(imap)
    k = 7
    assert float(rows[k]["x"]) == imap.points[k, 0]
    assert float(rows[k]["indicator"]) == imap.indicator[k]
    assert rows[k]["feasible"] == "1"

    with open(mpath) as fh:
        mrows = list(csv.DictReader(fh))
    assert [r["inside"] == "1" for r in mrows] == list(mask)

    lines = ppath.read_text().splitlines()
    assert lines[0] == "P2"
    size = int(lines[1].split()[0])
    assert len(lines) == 3 + size
    values = [int(v) for line in lines[3:] for v in line.split()]
    assert max(values) <= 255 and min(values) >= 0


def hand_map(flag, **columns):
    """An IndicatorMap on the 3 x 3 lattice of pitch 0.1, with zero residuals."""
    n = len(flag)
    return IndicatorMap(residual=np.zeros(n), delta=np.zeros(n), spacing=0.1, r_max=0.15,
                        flag=np.asarray(flag, dtype="<U15"), steps=np.zeros(n, dtype=int),
                        **columns)


def test_output_bytes_are_fixed(tmp_path):
    # one row per flag, alpha at inf, 0, the least subnormal and an ordinary value,
    # and a signed zero coordinate
    imap = hand_map(
        ["ok", "infeasible-low", "infeasible-high", "not-converged", "ok"],
        points=np.array([[-0.0, 0.1], [0.1, 0.0], [0.0, -0.1], [-0.1, -0.1], [0.1, 0.1]]),
        indicator=np.array([2.5, 7.0, 0.0, 1e300, 0.1 + 0.2]),
        alpha=np.array([1.25e-3, 0.0, np.inf, 5e-324, 1 / 3]),
    )
    empty = hand_map([], points=np.zeros((0, 2)), indicator=np.zeros(0), alpha=np.zeros(0))
    mask = np.array([True, False, False, False, False])
    expected = [
        (imap, mask,
         b"x,y,indicator,alpha,feasible\r\n"
         b"-0,0.10000000000000001,2.5,0.00125,1\r\n"
         b"0.10000000000000001,0,7,0,0\r\n"
         b"0,-0.10000000000000001,0,inf,0\r\n"
         b"-0.10000000000000001,-0.10000000000000001,1.0000000000000001e+300,"
         b"4.9406564584124654e-324,0\r\n"
         b"0.10000000000000001,0.10000000000000001,0.30000000000000004,0.33333333333333331,1\r\n",
         b"x,y,inside\r\n"
         b"-0,0.10000000000000001,1\r\n"
         b"0.10000000000000001,0,0\r\n"
         b"0,-0.10000000000000001,0\r\n"
         b"-0.10000000000000001,-0.10000000000000001,0\r\n"
         b"0.10000000000000001,0.10000000000000001,0\r\n",
         b"P2\n3 3\n255\n0 255 1\n0 0 0\n0 0 0\n"),
        (empty, np.zeros(0, dtype=bool),
         b"x,y,indicator,alpha,feasible\r\n",
         b"x,y,inside\r\n",
         b"P2\n3 3\n255\n0 0 0\n0 0 0\n0 0 0\n"),
    ]
    for m, inside, indicator_bytes, mask_bytes, image_bytes in expected:
        write_indicator_csv(m, tmp_path / "i.csv")
        write_mask_csv(m, inside, tmp_path / "m.csv")
        write_indicator_pgm(m, tmp_path / "i.pgm")
        assert (tmp_path / "i.csv").read_bytes() == indicator_bytes
        assert (tmp_path / "m.csv").read_bytes() == mask_bytes
        assert (tmp_path / "i.pgm").read_bytes() == image_bytes


bit_patterns = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**52), 2**52),  # subnormals of either sign and +-0.0
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 1.0, 0.1])
    .map(lambda v: int(np.float64(v).view(np.int64))),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(0, 12).flatmap(
    lambda n: st.lists(bit_patterns, min_size=5 * n, max_size=5 * n)), st.data())
def test_csv_writer_matches_savetxt_bytes(tmp_path_factory, patterns, data):
    # the cell cache must not change a byte: random float64 bit patterns with
    # repeated values, against np.savetxt with the format the writer documents
    table = np.array(patterns, dtype=np.int64).view(np.float64).reshape(-1, 5)
    if len(table) and data.draw(st.booleans()):
        table[1::2] = table[0]  # every other row repeats the first
    inside = table[:, 4] > 0.0
    path = tmp_path_factory.mktemp("csv")
    _write_csv(path / "w.csv", table[:, :2], {"a": table[:, 2], "b": table[:, 3], "inside": inside})
    with open(path / "s.csv", "w", newline="") as fh:
        np.savetxt(fh, np.column_stack([table[:, :4], inside]), fmt="%.17g", delimiter=",",
                   header="x,y,a,b,inside", comments="", newline="\r\n")
    assert (path / "w.csv").read_bytes() == (path / "s.csv").read_bytes()


def test_feasible_follows_flag(tmp_path, small_sweep):
    _, _, imap = small_sweep
    k = int(np.argmin(imap.indicator))  # inside the support estimate while "ok"
    assert imap.feasible[k] and estimate_support(imap)[k]
    flag = imap.flag.copy()
    flag[k] = "not-converged"
    changed = dataclasses.replace(imap, flag=flag)
    assert np.array_equal(changed.feasible, flag == "ok")
    assert not estimate_support(changed)[k]
    write_indicator_csv(changed, tmp_path / "i.csv")
    with open(tmp_path / "i.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["feasible"] for r in rows] == ["1" if ok else "0" for ok in flag == "ok"]
