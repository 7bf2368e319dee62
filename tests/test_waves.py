import numpy as np
import pytest

from nlgp.kernels import KernelSpec, ScaledKernel
from nlgp.spectral import PeriodicGrid
from nlgp.waves import (
    BetaZeroError,
    OffsetTooSmallError,
    PeriodMismatchError,
    SineSquared,
    build_solution,
    solution_params,
    stationary_residual,
)


def _local_kernel():
    return ScaledKernel(KernelSpec.gaussian_normalized(), 0.0)


def test_reference_parameter_set():
    # B=1, V0=-1, k=1, eps=0: beta=1, A=1, D=sqrt(2), omega=3/2
    p = solution_params(1.0, -1.0, 1.0, 1, _local_kernel())
    assert p.beta == pytest.approx(1.0, abs=1e-15)
    assert p.A == pytest.approx(1.0, abs=1e-14)
    assert p.D == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert p.omega == pytest.approx(1.5, abs=1e-14)
    assert p.epsilon == 0.0


def test_profile_is_elliptic_combination():
    grid = PeriodicGrid(2 * np.pi, 128)
    state = build_solution(1.0, -1.0, 1.0, 1, _local_kernel(), grid)
    x = grid.points
    expect = np.sqrt(1.0) * np.cos(x) + 1j * np.sqrt(2.0) * np.sin(x)
    assert np.max(np.abs(state.field.samples - expect)) < 1e-14


def test_intensity_and_l2_norm_closed_forms():
    grid = PeriodicGrid(2 * np.pi, 128)
    state = build_solution(0.7, -0.4, 1.0, 1, _local_kernel(), grid)
    measured = np.abs(state.field.samples) ** 2
    assert np.max(np.abs(measured - state.intensity())) < 1e-13
    # ||phi||_2 = sqrt(T (B + A/2)) from integrating the intensity
    p = state.params
    assert state.field.l2_norm() == pytest.approx(np.sqrt(grid.period * (p.B + p.A / 2.0)),
                                                  rel=1e-12)


def test_phase_tangent_identity():
    # tan(theta) = sqrt((B+A)/B) tan(kx) wherever cos(kx) != 0
    grid = PeriodicGrid(2 * np.pi, 256)
    B, V0, k = 0.8, -0.5, 1.0
    state = build_solution(B, V0, k, 1, _local_kernel(), grid)
    A = state.params.A
    x = grid.points
    keep = np.abs(np.cos(k * x)) > 0.2
    lhs = np.tan(np.angle(state.field.samples)[keep])
    rhs = np.sqrt((B + A) / B) * np.tan(k * x[keep])
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_residual_small_for_random_valid_tuples():
    rng = np.random.default_rng(31)
    base = KernelSpec.gaussian_normalized()
    for _ in range(5):
        B = float(rng.uniform(0.2, 2.0))
        V0 = float(rng.uniform(-2.0, -0.05))
        k = float(rng.integers(1, 4))
        eps = float(rng.uniform(0.0, 0.5))
        grid = PeriodicGrid(2 * np.pi, 128)
        state = build_solution(B, V0, k, 1, ScaledKernel(base, eps), grid)
        assert stationary_residual(state) < 1e-9


def test_residual_with_raw_kernel_and_defocusing():
    # non-unit kernel mass shifts omega; the residual must stay at rounding level
    grid = PeriodicGrid(2 * np.pi, 128)
    raw = ScaledKernel(KernelSpec.gaussian_raw(), 0.3)
    state = build_solution(1.2, -0.7, 1.0, 1, raw, grid)
    assert stationary_residual(state) < 1e-9
    focusing = build_solution(0.9, 0.4, 1.0, -1, raw, grid)
    assert stationary_residual(focusing) < 1e-9


def test_omega_shift_for_non_unit_mass_kernel():
    B, V0, k = 1.0, -0.8, 1.0
    raw = ScaledKernel(KernelSpec.gaussian_raw(), 0.2)
    p = solution_params(B, V0, k, 1, raw)
    textbook = (V0 + k**2) / 2.0 + B - V0 / (2.0 * p.beta)
    shift = (np.sqrt(np.pi) - 1.0) * (B + p.A / 2.0)
    assert p.omega == pytest.approx(textbook + shift, rel=1e-13)
    unit = solution_params(B, V0, k, 1, _local_kernel())
    textbook_unit = (V0 + k**2) / 2.0 + B - V0 / 2.0
    assert unit.omega == pytest.approx(textbook_unit, rel=1e-14)


def test_residual_stays_at_rounding_floor_as_N_doubles():
    # The profile is band-limited, so refining N adds no truncation error.
    # The floor itself creeps up like eps_mach*(N/2)^2 from the second
    # derivative symbol, hence the fixed slack instead of monotonicity.
    kern = ScaledKernel(KernelSpec.gaussian_normalized(), 0.15)
    prev = None
    for N in (32, 64, 128, 256):
        grid = PeriodicGrid(2 * np.pi, N)
        res = stationary_residual(build_solution(1.0, -0.6, 1.0, 1, kern, grid))
        assert res < 1e-11
        if prev is not None:
            assert res <= prev + 1e-11
        prev = res


def test_offset_lower_bound_enforced():
    # alpha=1, V0=2, eps=0 gives A=-2, so B must be at least 2
    with pytest.raises(OffsetTooSmallError):
        solution_params(1.0, 2.0, 1.0, 1, _local_kernel())
    p = solution_params(2.0, 2.0, 1.0, 1, _local_kernel())
    assert p.A == pytest.approx(-2.0)
    assert p.D == pytest.approx(0.0, abs=1e-12)


def test_zero_offset_allowed_when_A_nonnegative():
    grid = PeriodicGrid(2 * np.pi, 64)
    state = build_solution(0.0, -1.0, 1.0, 1, _local_kernel(), grid)
    assert state.params.D is None
    x = grid.points
    assert np.max(np.abs(state.field.samples - 1j * np.sin(x))) < 1e-14
    assert stationary_residual(state) < 1e-10


def test_beta_zero_rejected(tmp_path):
    # table transform hitting zero at s = 2k makes the dispersion relation singular
    path = tmp_path / "zero.csv"
    path.write_text("0.0,1.0\n1.0,0.5\n2.0,0.0\n3.0,0.0\n")
    base = KernelSpec.from_table(path)
    with pytest.raises(BetaZeroError):
        solution_params(1.0, -1.0, 1.0, 1, ScaledKernel(base, 1.0))


def test_grid_period_must_hold_integer_wave_count():
    kern = _local_kernel()
    with pytest.raises(PeriodMismatchError):
        build_solution(1.0, -1.0, 1.0, 1, kern, PeriodicGrid(3.0 * np.pi, 64))
    # multiple wave periods are fine
    state = build_solution(1.0, -1.0, 1.0, 1, kern, PeriodicGrid(4 * np.pi, 64))
    assert stationary_residual(state) < 1e-9


def test_solution_converges_pointwise_as_epsilon_vanishes():
    base = KernelSpec.gaussian_normalized()
    grid = PeriodicGrid(2 * np.pi, 64)
    ref = build_solution(1.0, -1.0, 1.0, 1, ScaledKernel(base, 0.0), grid)
    assert ref.params.beta == pytest.approx(1.0, abs=1e-15)
    sup_gaps = []
    for eps in (0.1, 0.01, 0.001):
        state = build_solution(1.0, -1.0, 1.0, 1, ScaledKernel(base, eps), grid)
        sup_gaps.append(float(np.max(np.abs(state.field.samples
                                            - ref.field.samples))))
    assert all(a > b for a, b in zip(sup_gaps[:-1], sup_gaps[1:]))
    assert sup_gaps[-1] < 1e-6


def test_sine_squared_potential_matches_formula():
    grid = PeriodicGrid(2 * np.pi, 64)
    v = SineSquared(-0.9, 1.0).values(grid)
    assert np.max(np.abs(v - (-0.9) * np.sin(grid.points) ** 2)) < 1e-14


def test_invalid_scalar_inputs():
    kern = _local_kernel()
    with pytest.raises(ValueError):
        solution_params(-0.5, -1.0, 1.0, 1, kern)  # negative offset
    with pytest.raises(ValueError):
        solution_params(1.0, -1.0, 0.0, 1, kern)  # k must be positive
    with pytest.raises(ValueError):
        solution_params(1.0, -1.0, 1.0, 2, kern)  # alpha is a sign
