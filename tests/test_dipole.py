import numpy as np
import pytest

from eitlsm import (
    AuxCircle,
    ConfigurationError,
    DipoleSpec,
    SingularTraceComputer,
    build_disk_mesh,
    disk_dipole_traces,
    fourier_modes,
    layer_current_matrix,
    layer_current_multipliers,
    singular_trace,
)


# ---------------------------------------------------------------------------
# kernels


def test_dipole_spec_validation():
    spec = DipoleSpec(y=(0.1, 0.1), direction=(3.0, 4.0))
    assert np.hypot(*spec.direction) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ConfigurationError):
        DipoleSpec(y=(1.0, 0.0), direction=(1.0, 0.0))
    with pytest.raises(ConfigurationError):
        DipoleSpec(y=(0.0, 0.0), direction=(0.0, 0.0))


# ---------------------------------------------------------------------------
# singular traces


def centered_dipole_error(h):
    mesh = build_disk_mesh(h)
    field = singular_trace(mesh, DipoleSpec(y=(0.0, 0.0), direction=(1.0, 0.0)), N=8)
    modes = field.modes
    # analytic reflection: phi = -cos(theta)/pi, coefficients -1/(2 pi) at n = +-1
    target = np.zeros(16, dtype=complex)
    target[modes == 1] = -1.0 / (2 * np.pi)
    target[modes == -1] = -1.0 / (2 * np.pi)
    return np.abs(field.coeffs - target).max() * 2 * np.pi


def test_centered_dipole_trace():
    assert centered_dipole_error(0.05) <= 0.01
    # zero mean is structural: the field has no n = 0 entry and synthesis
    # of the stored modes integrates to zero by construction


def test_centered_dipole_convergence():
    errs = [centered_dipole_error(h) for h in (0.08, 0.04)]
    assert errs[1] <= 0.6 * errs[0]  # at least linear decay in h


def test_rotation_equivariance():
    mesh = build_disk_mesh(0.04)
    comp = SingularTraceComputer(mesh, N=10)
    beta = 0.7
    rot = np.array([[np.cos(beta), -np.sin(beta)], [np.sin(beta), np.cos(beta)]])
    y = np.array([0.3, 0.1])
    a = np.array([1.0, 0.0])
    c1 = comp.trace_batch([y], [a])[0]
    c2 = comp.trace_batch([rot @ y], [rot @ a])[0]
    modes = fourier_modes(10)
    # phi_rot(theta) = phi(theta - beta): coefficients pick up exp(-i n beta)
    predicted = c1 * np.exp(-1j * modes * beta)
    scale = np.abs(c1).max()
    assert np.abs(c2 - predicted).max() <= 1e-4 * scale


def closed_form_traces(ys, dirs, N):
    # phi_y on the unit disk, with a = a1 + i a2 and y = y1 + i y2:
    # c_n = -(1/2pi) conj(a) conj(y)^(n-1) for n > 0, -(1/2pi) a y^(|n|-1) for n < 0
    modes = fourier_modes(N)
    y = (ys[:, 0] + 1j * ys[:, 1])[:, None]
    a = (dirs[:, 0] + 1j * dirs[:, 1])[:, None]
    k = np.abs(modes) - 1
    return np.where(modes > 0, np.conj(a) * np.conj(y) ** k, a * y**k) / (-2 * np.pi)


def test_off_centre_traces_match_closed_form():
    pts = np.array([(0.3, 0.1), (-0.5, 0.2), (0.1, -0.6), (-0.4, -0.45)])
    ys = np.repeat(pts, 2, axis=0)
    dirs = np.tile(np.eye(2), (len(pts), 1))
    exact = closed_form_traces(ys, dirs, 8)
    library = disk_dipole_traces(ys, dirs, 8)
    assert np.abs(library - exact).max() <= 1e-14 * np.abs(exact).max()
    errs = []
    for h in (0.05, 0.03):
        traces = SingularTraceComputer(build_disk_mesh(h), N=8).trace_batch(ys, dirs)
        errs.append([(np.abs(traces - ref).max(axis=1) / np.abs(ref).max(axis=1)).max()
                     for ref in (exact, library)])
    errs = np.array(errs)
    assert (errs[0] <= 5e-4).all()
    assert (errs[1] < errs[0]).all()


def test_disk_dipole_traces_match_the_power_formula():
    # the recurrence against numpy's complex power at y = 0, on the circle
    # |y| = 0.9 and at random points inside it, in each row's 2-norm
    rng = np.random.default_rng(3)
    radius, angle = 0.9 * np.sqrt(rng.random(200)), 2.0 * np.pi * rng.random(200)
    ys = np.vstack([[(0.0, 0.0)], 0.9 * np.column_stack([np.cos(angle[:8]), np.sin(angle[:8])]),
                    np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])])
    dirs = rng.standard_normal((len(ys), 2))
    unit = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    for N in (1, 2, 16):
        traces = disk_dipole_traces(ys, dirs, N)
        power = closed_form_traces(ys, unit, N)
        error = np.linalg.norm(traces - power, axis=1) / np.linalg.norm(power, axis=1)
        assert error.max() <= 1e-15
        assert np.count_nonzero(traces[0]) == 2  # y = 0: only the modes +-1


def test_disk_dipole_traces_refuse_non_interior():
    for y in ((1.0, 0.0), (0.0, -1.0), (0.8, 0.7), (np.nan, 0.0)):
        with pytest.raises(ConfigurationError, match="unit disk"):
            disk_dipole_traces([(0.0, 0.0), y], [(1.0, 0.0), (0.0, 1.0)], 4)
    assert disk_dipole_traces((0.99, 0.0), (1.0, 0.0), 4).shape == (1, 8)


def test_dipole_too_close_to_boundary():
    mesh = build_disk_mesh(0.1)
    with pytest.raises(ConfigurationError, match="2\\*h_target"):
        singular_trace(mesh, DipoleSpec(y=(0.95, 0.0), direction=(1.0, 0.0)), N=6)


# ---------------------------------------------------------------------------
# layer potentials


def test_aux_circle_validation():
    with pytest.raises(ConfigurationError):
        AuxCircle(radius=0.9)
    aux = AuxCircle(radius=2.0, count=32)
    with pytest.raises(ConfigurationError):
        aux.require_order(8)  # needs >= 36 nodes


def test_single_layer_constant_density_constant_inside():
    aux = AuxCircle(radius=2.0, count=128)
    current = layer_current_matrix(aux, N=8) @ np.ones(aux.count)
    assert np.abs(current).max() <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_layer_current_mode_multiplier(k):
    aux = AuxCircle(radius=2.0, count=128)
    lmat = layer_current_matrix(aux, N=8)
    modes = fourier_modes(8)
    out = lmat @ np.exp(1j * k * aux.angles)
    expected = np.zeros(16, dtype=complex)
    expected[modes == k] = 0.5 * aux.radius ** (1 - k)
    assert np.abs(out - expected).max() <= 1e-10


def test_layer_quadrature_matches_closed_form():
    aux = AuxCircle(radius=2.0, count=128)
    quad = layer_current_matrix(aux, N=8)
    closed = layer_current_multipliers(aux, N=8)
    assert np.abs(quad - closed).max() <= 1e-8


def test_range_of_layer_current_dense():
    # random band-limited zero-mean target, fitted in the H^{-1/2} norm
    rng = np.random.default_rng(5)
    N = 8
    modes = fourier_modes(N)
    target = np.where(np.abs(modes) <= 6,
                      rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N), 0.0)
    w = np.abs(modes).astype(float) ** -0.5
    residuals = []
    for count in (64, 96, 128):
        aux = AuxCircle(radius=2.0, count=count)
        lmat = layer_current_matrix(aux, N)
        sol, *_ = np.linalg.lstsq(w[:, None] * lmat, w * target, rcond=None)
        res = np.linalg.norm(w * (lmat @ sol - target)) / np.linalg.norm(w * target)
        residuals.append(res)
    assert residuals[0] <= 1e-3
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a + 1e-12  # non-increasing up to roundoff
