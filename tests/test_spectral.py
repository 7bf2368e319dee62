import numpy as np
import pytest

from nlgp.spectral import PeriodicGrid, WaveField


def test_grid_basic_geometry():
    grid = PeriodicGrid(2 * np.pi, 16)
    assert grid.points[0] == 0.0
    assert np.allclose(np.diff(grid.points), grid.spacing)
    # last point stops one spacing short of the period (periodic wrap)
    assert np.isclose(grid.points[-1], grid.period - grid.spacing)
    assert grid.modes[0] == -8 and grid.modes[-1] == 7


def test_grid_rejects_bad_mode_counts():
    with pytest.raises(ValueError):
        PeriodicGrid(1.0, 15)
    with pytest.raises(ValueError):
        PeriodicGrid(1.0, 2)
    with pytest.raises(ValueError):
        PeriodicGrid(-1.0, 16)


def test_basis_mode_matches_analytic_exponential():
    grid = PeriodicGrid(5.0, 32)
    for j in (-16, -3, 0, 1, 7):
        f = WaveField.basis_mode(grid, j)
        expect = np.exp(-2j * np.pi * j * grid.points / grid.period) / np.sqrt(
            grid.period
        )
        assert np.max(np.abs(f.samples - expect)) < 1e-14


def test_basis_mode_has_unit_coefficient():
    grid = PeriodicGrid(3.0, 64)
    f = WaveField.basis_mode(grid, 5)
    coeffs = f.coeffs
    idx = np.where(grid.modes == 5)[0][0]
    assert abs(coeffs[idx] - 1.0) < 1e-13
    mask = np.ones(grid.num_modes, bool)
    mask[idx] = False
    assert np.max(np.abs(coeffs[mask])) < 1e-13


def test_coefficient_roundtrip():
    rng = np.random.default_rng(11)
    grid = PeriodicGrid(4.0, 128)
    samples = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    f = WaveField(grid, samples)
    g = WaveField.from_coeffs(grid, f.coeffs)
    assert np.max(np.abs(g.samples - samples)) < 1e-13


def test_parseval_identity():
    rng = np.random.default_rng(3)
    grid = PeriodicGrid(7.0, 64)
    samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    f = WaveField(grid, samples)
    quad = np.sum(np.abs(samples) ** 2) * grid.spacing
    assert abs(np.sum(np.abs(f.coeffs) ** 2) - quad) < 1e-12 * quad
    assert abs(f.l2_norm() ** 2 - quad) < 1e-12 * quad


def test_derivative_matches_closed_form():
    grid = PeriodicGrid(2 * np.pi, 64)
    x = grid.points
    f = WaveField(grid, np.exp(np.cos(x)).astype(complex))
    df = f.derivative(1)
    assert np.max(np.abs(df.samples - (-np.sin(x) * np.exp(np.cos(x))))) < 1e-12
    d2f = f.derivative(2)
    expect = (np.sin(x) ** 2 - np.cos(x)) * np.exp(np.cos(x))
    assert np.max(np.abs(d2f.samples - expect)) < 1e-10


def test_derivative_of_basis_mode_is_multiplier():
    grid = PeriodicGrid(3.0, 32)
    j = 4
    f = WaveField.basis_mode(grid, j)
    df = f.derivative(1)
    mult = -2j * np.pi * j / grid.period
    assert np.max(np.abs(df.samples - mult * f.samples)) < 1e-13


def test_hs_norm_on_single_mode_is_bracket_weight():
    grid = PeriodicGrid(2 * np.pi, 64)
    for j in (0, 3, -7):
        f = WaveField.basis_mode(grid, j)
        weight = (1.0 + (2 * np.pi * j / grid.period) ** 2) ** 0.5
        assert abs(f.hs_norm(1.0) - weight) < 1e-12
        assert abs(f.hs_norm(0.0) - 1.0) < 1e-12


def test_hs_norm_rejects_negative_order():
    grid = PeriodicGrid(1.0, 8)
    f = WaveField(grid, np.zeros(grid.num_modes, dtype=complex))
    with pytest.raises(ValueError):
        f.hs_norm(-1.0)


def test_conjugate_symmetry_of_real_fields():
    # real samples force c_{-j} = conj(c_j) away from the unmatched Nyquist row
    rng = np.random.default_rng(21)
    grid = PeriodicGrid(2 * np.pi, 32)
    for _ in range(5):
        f = WaveField(grid, rng.standard_normal(32).astype(complex))
        c = f.coeffs
        for j in range(1, 16):
            ip = np.where(grid.modes == j)[0][0]
            im = np.where(grid.modes == -j)[0][0]
            assert abs(c[im] - np.conj(c[ip])) < 1e-12


def test_wave_field_rejects_arrays_off_its_grid():
    grid = PeriodicGrid(1.0, 8)
    with pytest.raises(ValueError, match="samples shape"):
        WaveField(grid, np.zeros(6))
    # a column of 8 transforms to 8 columns of one sample: the coefficient
    # check, not the sample check, must name it
    with pytest.raises(ValueError, match="coeffs shape"):
        WaveField.from_coeffs(grid, np.zeros((8, 1)))


def test_both_views_are_the_numpy_transforms_bitwise():
    rng = np.random.default_rng(9)
    grid = PeriodicGrid(3.0, 30)  # 1/N is inexact at N = 30
    c = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    f = WaveField.from_coeffs(grid, c)
    assert np.array_equal(f.samples, np.fft.fft(np.fft.ifftshift(c)) / np.sqrt(3.0))
    g = WaveField(grid, f.samples)
    assert np.array_equal(g.coeffs, np.sqrt(3.0) * np.fft.fftshift(np.fft.ifft(f.samples)))
    # from_coeffs keeps a read-only copy of its input as the coefficient view
    kept = c.copy()
    c[:] = 0.0
    assert np.array_equal(f.coeffs, kept) and not f.coeffs.flags.writeable
