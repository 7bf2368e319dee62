import csv
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from nlgp import evolution
from nlgp.evolution import (
    EvolutionConfig,
    NonFiniteError,
    StepSizeUnderflowError,
    Trajectory,
    evolve,
    perturbed_initial,
    random_band_limited,
    write_summary_csv,
    write_trajectory_csv,
)
from nlgp.experiments import FIGURE_REGIMES
from nlgp.kernels import KernelSpec, ScaledKernel
from nlgp.spectral import PeriodicGrid, WaveField
from nlgp.waves import SineSquared, build_solution, solution_params


def _local():
    return ScaledKernel(KernelSpec.gaussian_normalized(), 0.0)


NO_POTENTIAL = SineSquared(0.0, 1.0)


def _phi(grid, B=1.0, V0=-1.0, kern=None):
    kern = kern if kern is not None else _local()
    return build_solution(solution_params(B, V0, 1.0, 1, kern), grid)


def test_local_plane_wave_phase_rotation():
    # psi = a e^{i kappa x} rotates at kappa^2/2 + alpha a^2 with no potential
    grid = PeriodicGrid(2 * np.pi, 64)
    a, j = 0.7, 2
    psi0 = WaveField(grid, a * np.exp(1j * j * grid.points))
    cfg = EvolutionConfig(kernel=_local(), potential=NO_POTENTIAL,
                          alpha=1, time_horizon=1.0, record_every=0.5,
                          rtol=1e-11, atol=1e-11)
    traj = evolve(psi0, cfg)
    freq = j**2 / 2.0 + a**2
    for t, samples in zip(traj.times, traj.samples):
        expect = psi0.samples * np.exp(-1j * freq * t)
        assert np.max(np.abs(samples - expect)) < 1e-7


def test_nonlocal_plane_wave_sees_kernel_mass():
    # under convolution the |psi|^2 background picks up the factor zeta_hat(0)
    grid = PeriodicGrid(2 * np.pi, 64)
    a, j = 0.5, 1
    kern = ScaledKernel(KernelSpec.gaussian_raw(), 0.3)
    psi0 = WaveField(grid, a * np.exp(1j * j * grid.points))
    cfg = EvolutionConfig(kernel=kern, potential=NO_POTENTIAL,
                          alpha=1, time_horizon=1.0, record_every=1.0,
                          rtol=1e-11, atol=1e-11)
    traj = evolve(psi0, cfg)
    freq = j**2 / 2.0 + a**2 * np.sqrt(np.pi)
    expect = psi0.samples * np.exp(-1j * freq * 1.0)
    assert np.max(np.abs(traj.samples[-1] - expect)) < 1e-7


def test_stationary_state_is_fixed_up_to_phase():
    grid = PeriodicGrid(2 * np.pi, 64)
    kern = ScaledKernel(KernelSpec.gaussian_normalized(), 0.05)
    params = solution_params(1.0, -1.0, 1.0, 1, kern)
    phi = build_solution(params, grid)
    cfg = EvolutionConfig(kernel=kern, potential=SineSquared(-1.0, 1.0),
                          alpha=1, time_horizon=3.0, record_every=1.0)
    traj = evolve(phi, cfg)
    dev = traj.deviation_from(phi)
    assert np.max(dev) < 1e-7
    # and the phase advances at the dispersion frequency omega
    t_end = traj.times[-1]
    expect = phi.samples * np.exp(-1j * params.omega * t_end)
    assert np.max(np.abs(traj.samples[-1] - expect)) < 1e-6


def test_mass_and_energy_conserved():
    grid = PeriodicGrid(8 * np.pi, 128)
    kern = ScaledKernel(KernelSpec.gaussian_raw(), 0.01)
    phi = _phi(grid, B=1.0, V0=-1.0, kern=kern)
    psi0 = perturbed_initial(phi, 0.01, 2)
    cfg = EvolutionConfig(kernel=kern, potential=SineSquared(-1.0, 1.0),
                          alpha=1, time_horizon=10.0, record_every=0.5)
    traj = evolve(psi0, cfg)
    assert traj.mass_drift() < 1e-8
    assert traj.energy_drift() < 1e-6


def test_conserved_quantities_match_closed_forms():
    grid = PeriodicGrid(2 * np.pi, 64)
    a = 0.6
    psi = WaveField(grid, a * np.ones(64, complex))
    cfg = EvolutionConfig(kernel=_local(), potential=NO_POTENTIAL,
                          alpha=1, time_horizon=1.0, record_every=1.0)
    traj = evolve(psi, cfg)
    mass, energy = traj.mass[0], traj.energy[0]
    # constant field: mass = a^2 T, energy = (alpha/2) a^4 T
    assert mass == pytest.approx(a**2 * grid.period, rel=1e-12)
    assert energy == pytest.approx(0.5 * a**4 * grid.period, rel=1e-12)


def test_time_reversal_round_trip():
    # conjugation reverses the flow; the round trip accumulates a few hundred
    # local tolerances, hence the 1e-9 budget at rtol = 1e-12 over T = 2
    grid = PeriodicGrid(2 * np.pi, 64)
    kern = ScaledKernel(KernelSpec.gaussian_normalized(), 0.05)
    phi = _phi(grid, kern=kern)
    psi0 = perturbed_initial(phi, 0.05, 7)
    cfg = EvolutionConfig(kernel=kern, potential=SineSquared(-1.0, 1.0),
                          alpha=1, time_horizon=2.0, record_every=2.0,
                          rtol=1e-12, atol=1e-12)
    fwd = evolve(psi0, cfg)
    flipped = WaveField(grid, np.conj(fwd.samples[-1]))
    back = evolve(flipped, cfg)
    recovered = np.conj(back.samples[-1])
    assert np.max(np.abs(recovered - psi0.samples)) < 1e-9


def test_record_times_cover_horizon():
    grid = PeriodicGrid(2 * np.pi, 32)
    phi = _phi(grid)
    cfg = EvolutionConfig(kernel=_local(),
                          potential=SineSquared(-1.0, 1.0), alpha=1,
                          time_horizon=1.0, record_every=0.3)
    traj = evolve(phi, cfg)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.times) == len(traj.samples) == len(traj.mass)
    # ceil(1/0.3 - 1e-9) + 1 records, the last moved to the horizon
    assert len(traj.times) == 5 and traj.times[-1] == 1.0
    assert traj.times[-1] - traj.times[-2] == pytest.approx(0.1, abs=1e-12)


def test_perturbation_profile_properties():
    grid = PeriodicGrid(8 * np.pi, 128)
    m = random_band_limited(grid, seed=1234, mode_cutoff=16)
    assert np.max(np.abs(m.samples.imag)) < 1e-13
    assert m.l2_norm() == pytest.approx(1.0, rel=1e-12)
    idx = np.abs(grid.modes) > 16
    assert np.max(np.abs(m.coeffs[idx])) < 1e-13
    again = random_band_limited(grid, seed=1234, mode_cutoff=16)
    assert np.array_equal(m.samples, again.samples)
    other = random_band_limited(grid, seed=1235, mode_cutoff=16)
    assert np.max(np.abs(m.samples - other.samples)) > 1e-3


def test_perturbed_initial_is_band_limited_with_norm_nu():
    # psi0 - phi = nu * p, p band-limited to |j| <= min(16, N // 8) with
    # ||p||_2 = 1: the published 16 modes, or fewer where they would leave
    # the inner half of the evolved band |j| < N/4; regime 1a's small |phi|
    # is where the phase factor spreads the product m * e^{i theta} furthest
    # above the band
    reg = FIGURE_REGIMES["1a"]
    kern = ScaledKernel(KernelSpec.gaussian_raw(), reg["eps"])
    params = solution_params(reg["B"], reg["V0"], 1.0, 1, kern)
    for num_modes, band in ((64, 8), (128, 16), (256, 16)):
        grid = PeriodicGrid(8.0 * np.pi, num_modes)
        phi = build_solution(params, grid)
        psi0 = perturbed_initial(phi, 0.05, 11)
        diff = WaveField(grid, psi0.samples - phi.samples)
        assert np.max(np.abs(diff.coeffs[np.abs(grid.modes) > band])) < 1e-15
        assert np.min(np.abs(diff.coeffs[np.abs(grid.modes) == band])) > 1e-6
        assert diff.l2_norm() == pytest.approx(0.05, rel=1e-13)
    again = perturbed_initial(phi, 0.05, 11)
    assert np.array_equal(again.samples, psi0.samples)
    other = perturbed_initial(phi, 0.05, 12)
    assert np.max(np.abs(other.samples - psi0.samples)) > 1e-3
    clean = perturbed_initial(phi, 0.0, 11)
    assert np.array_equal(clean.samples, phi.samples)


def test_perturbation_validation():
    grid = PeriodicGrid(2 * np.pi, 32)
    phi = _phi(grid)
    with pytest.raises(ValueError, match="nu must be nonnegative"):
        perturbed_initial(phi, -0.1, 1)
    # N = 6 leaves no band below N/8; unperturbed, the state is still fine
    small = _phi(PeriodicGrid(2 * np.pi, 6))
    with pytest.raises(ValueError, match="N >= 8 grid modes, got N = 6"):
        perturbed_initial(small, 0.01, 1)
    assert perturbed_initial(small, 0.0, 1) is small
    with pytest.raises(ValueError):
        random_band_limited(grid, seed=1, mode_cutoff=16)  # cutoff = N/2
    # the generator seeds -s as s, so a negative seed is refused
    with pytest.raises(ValueError, match="seed must be nonnegative, got -3"):
        perturbed_initial(phi, 0.1, -3)


def test_adaptive_blow_up_is_not_reported_as_a_stall():
    # at tolerances of 1e3 the state overflows between records; the solver
    # then gives up with a step-size message, but the last right-hand side
    # it evaluated is non-finite (N = 128 gives the perturbation 16 modes;
    # at B = 50 the stepper creeps for 1.4 million right-hand sides before
    # the overflow, at B = 100 it overflows within 400)
    grid = PeriodicGrid(2 * np.pi, 128)
    phi = _phi(grid, B=100.0, V0=0.0)
    psi0 = perturbed_initial(phi, 0.5, 1234)
    cfg = EvolutionConfig(kernel=_local(), potential=NO_POTENTIAL,
                          alpha=1, time_horizon=5.0, record_every=0.25,
                          rtol=1e3, atol=1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="non-finite") as info:
            evolve(psi0, cfg)
    partial = info.value.trajectory
    assert np.array_equal(partial.times, [0.0])


def test_stepper_stall_raises_with_partial_trajectory(monkeypatch):
    # the stepper reaches three records, then gives up on a finite state: a
    # stall, not a blow-up
    def stalls_after_third(fun, t_span, y0, *, t_eval, **kwargs):
        return SimpleNamespace(success=False, t=t_eval[:3],
                               y=np.tile(np.asarray(y0)[:, None], 3),
                               message="Required step size is less than "
                                       "spacing between numbers.")

    monkeypatch.setattr(evolution, "solve_ivp", stalls_after_third)
    grid = PeriodicGrid(2 * np.pi, 32)
    phi = _phi(grid)
    cfg = EvolutionConfig(kernel=_local(),
                          potential=SineSquared(-1.0, 1.0), alpha=1,
                          time_horizon=1.0, record_every=0.25)
    with pytest.raises(StepSizeUnderflowError, match="stalled") as info:
        evolve(phi, cfg)
    partial = info.value.trajectory
    assert isinstance(partial, Trajectory)
    assert np.array_equal(partial.times, [0.0, 0.25, 0.5])
    assert len(partial.samples) == len(partial.mass) == 3


def test_non_finite_record_raises_with_finite_prefix(monkeypatch):
    # the solver's third record holds a NaN: a blow-up at that record's
    # time, carrying the two finite records before it
    def nan_at_third(fun, t_span, y0, *, t_eval, **kwargs):
        y = np.tile(np.asarray(y0)[:, None], 3)
        y[0, 2] = np.nan
        return SimpleNamespace(success=False, t=t_eval[:3], y=y,
                               message="Required step size is less than "
                                       "spacing between numbers.")

    monkeypatch.setattr(evolution, "solve_ivp", nan_at_third)
    grid = PeriodicGrid(2 * np.pi, 32)
    cfg = EvolutionConfig(kernel=_local(),
                          potential=SineSquared(-1.0, 1.0), alpha=1,
                          time_horizon=1.0, record_every=0.25)
    with pytest.raises(NonFiniteError, match="non-finite state at t = 0.5 ") as info:
        evolve(_phi(grid), cfg)
    partial = info.value.trajectory
    assert np.array_equal(partial.times, [0.0, 0.25])
    assert len(partial.samples) == len(partial.mass) == 2
    assert np.all(np.isfinite(partial.samples))


def test_tolerances_must_be_positive():
    common = dict(kernel=_local(), potential=NO_POTENTIAL, alpha=1)
    for tols in (dict(rtol=0.0), dict(atol=0.0), dict(rtol=-1e-10)):
        with pytest.raises(ValueError, match="rtol and atol must be positive"):
            EvolutionConfig(**common, **tols)


def test_config_checks_alpha_horizon_and_record_spacing():
    common = dict(kernel=_local(), potential=NO_POTENTIAL)
    for bad, message in ((dict(alpha=0), "alpha must be"),
                         (dict(alpha=1, time_horizon=0.0), "time_horizon must be"),
                         (dict(alpha=1, time_horizon=-1.0), "time_horizon must be"),
                         (dict(alpha=1, record_every=0.0), "record_every must lie"),
                         (dict(alpha=1, time_horizon=1.0, record_every=1.5),
                          "record_every must lie")):
        with pytest.raises(ValueError, match=message):
            EvolutionConfig(**common, **bad)
    # record_every may equal the horizon
    EvolutionConfig(**common, alpha=-1, time_horizon=1.0, record_every=1.0)


def test_adaptive_evolve_is_one_solver_call_over_the_record_grid(monkeypatch):
    real = evolution.solve_ivp
    calls = []

    def recording(fun, t_span, y0, **kwargs):
        calls.append((t_span, kwargs))
        return real(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(evolution, "solve_ivp", recording)
    grid = PeriodicGrid(2 * np.pi, 32)
    cfg = EvolutionConfig(kernel=_local(),
                          potential=SineSquared(-1.0, 1.0), alpha=1,
                          time_horizon=1.0, record_every=0.25,
                          rtol=1e-8, atol=1e-8)
    traj = evolve(_phi(grid), cfg)
    assert len(calls) == 1
    t_span, kwargs = calls[0]
    assert tuple(t_span) == (0.0, 1.0)
    assert np.array_equal(kwargs["t_eval"], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert kwargs["max_step"] == cfg.record_every
    assert np.array_equal(traj.times, kwargs["t_eval"])


def test_sine_squared_period_validation():
    pot = SineSquared(-1.0, 1.0)
    with pytest.raises(ValueError):
        pot.values(PeriodicGrid(1.5, 16))
    vals = pot.values(PeriodicGrid(np.pi, 16))  # half the wave period tiles it
    assert vals.shape == (16,)


def test_rhs_vanishes_outside_the_evolved_band():
    # the band mask acts on the potential term too, so at V0 != 0 and with
    # every mode of the state excited, each entry |j| >= N/4 of the
    # right-hand side, the unmatched j = -N/2 included, is exactly zero
    grid = PeriodicGrid(8 * np.pi, 128)  # regime 1a's grid
    phi = _phi(grid, B=0.01, V0=-2.46)
    cfg = EvolutionConfig(kernel=_local(),
                          potential=SineSquared(-2.46, 1.0), alpha=1)
    rng = np.random.default_rng(7)
    noise = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    rhs = evolution._Workspace(cfg, grid).rhs(
        0.0, np.fft.fft(phi.samples + 1e-3 * noise))
    outside = np.abs(np.fft.fftfreq(128, 1 / 128)) >= 32
    assert np.all(rhs[outside] == 0.0)
    assert np.all(rhs[~outside] != 0.0)


@pytest.mark.parametrize("kern", [_local(),
                                  ScaledKernel(KernelSpec.gaussian_normalized(), 0.5)])
def test_rhs_is_the_galerkin_rhs_on_the_evolved_band(kern):
    # a state on |j| < N/4 has its exact (Fourier-Galerkin) right-hand side
    # from the N-point grid: the zero-padded 2N-point grid, which aliases
    # nowhere on that band, agrees within round-off, for a constant and a
    # nonlocal multiplier; outside the band the right-hand side is 0
    N, t = 32, 0.3
    rng = np.random.default_rng(9)
    coarse, fine = PeriodicGrid(2 * np.pi, N), PeriodicGrid(2 * np.pi, 2 * N)
    band = 4 * np.abs(coarse.modes) < N
    c = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * band
    padded = np.zeros(2 * N, complex)
    padded[N // 2:3 * N // 2] = c
    cfg = EvolutionConfig(kernel=kern, potential=SineSquared(-1.0, 1.0), alpha=1)
    rhs = []
    for grid, coeffs in ((coarse, c), (fine, padded)):
        ws = evolution._Workspace(cfg, grid)
        u = ws.phase(t) * np.fft.fft(WaveField.from_coeffs(grid, coeffs).samples)
        # in coefficient order, per unit length of the transform
        rhs.append(np.fft.fftshift(ws.rhs(t, u) / ws.phase(t)) / grid.num_modes)
    exact = rhs[1][N // 2:3 * N // 2]
    assert np.max(np.abs(rhs[0][band] - exact[band])) <= 1e-15 * np.max(np.abs(exact))
    assert np.all(rhs[0][~band] == 0.0)


@pytest.mark.parametrize("seed", [1234, 1, 2, 3])
def test_regime_1a_conserves_mass_and_energy(seed):
    # the band's right-hand side is the Galerkin one, which conserves both;
    # what is left is the stepper's (seeds 1234, 1-7 and 801-803: at most
    # 2.4e-12 and 1.6e-11; the former exponential filter drifted the mass
    # by 5.4e-7 to 8.8e-7 at these four seeds)
    traj = evolve(*_regime("1a", 30.0, seed=seed))
    assert traj.mass_drift() < 1e-11
    assert traj.energy_drift() < 1e-10


def test_csv_writers_round_trip(tmp_path):
    grid = PeriodicGrid(2 * np.pi, 16)
    phi = _phi(grid)
    cfg = EvolutionConfig(kernel=_local(),
                          potential=SineSquared(-1.0, 1.0), alpha=1,
                          time_horizon=0.5, record_every=0.25)
    traj = evolve(phi, cfg)
    tpath = tmp_path / "traj.csv"
    spath = tmp_path / "summary.csv"
    write_trajectory_csv(traj, tpath)
    write_summary_csv(traj, spath, traj.deviation_from(phi))
    with open(tpath) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(traj.times) * grid.num_modes
    # every value parses back to the stored sample bit for bit
    column = {key: np.array([float(r[key]) for r in rows])
              for key in ("t", "x_index", "re_psi", "im_psi")}
    assert np.array_equal(column["t"], np.repeat(traj.times, grid.num_modes))
    assert np.array_equal(column["x_index"],
                          np.tile(np.arange(grid.num_modes), len(traj.times)))
    assert np.array_equal(column["re_psi"], traj.samples.real.ravel())
    assert np.array_equal(column["im_psi"], traj.samples.imag.ravel())
    with open(spath) as fh:
        srows = list(csv.DictReader(fh))
    assert set(srows[0]) == {"t", "mass", "energy", "mod_deviation"}
    assert len(srows) == len(traj.times)
    # repr round trip keeps bit-exact floats
    assert float(srows[0]["mass"]) == traj.mass[0]


def test_trajectory_csv_bytes_match_csv_writer(tmp_path):
    # the joined lines must be the bytes csv.writer writes, special floats
    # (-0.0, nan, +-inf, subnormals) and the \r\n row ends included
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1.5]
    samples = np.empty((3, 8), complex)
    samples.real, samples.imag = [special] * 3, [special[::-1]] * 3
    times = np.array([0.0, -0.0, 0.1 + 0.2])
    traj = Trajectory(times=times, samples=samples, mass=np.ones(3), energy=np.ones(3))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x_index", "re_psi", "im_psi"])
        for t, row in zip(times.tolist(), samples):
            w.writerows(zip([t] * row.size, range(row.size), row.real.tolist(),
                            row.imag.tolist()))
    assert path.read_bytes() == ref.read_bytes()
    assert b"-0.0,0,-0.0,-1.5\r\n" in path.read_bytes()


def _flow(monkeypatch, cfg, psi0):
    """The right-hand side and initial state evolve hands to the stepper."""
    real, seen = evolution.solve_ivp, []

    def capture(fun, t_span, y0, **kwargs):
        seen.append((fun, y0, t_span, kwargs))
        return real(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(evolution, "solve_ivp", capture)
    evolve(psi0, cfg)
    monkeypatch.setattr(evolution, "solve_ivp", real)
    return seen[0]


def _nonlocal_n32(tol):
    """A nonlocal flow at N = 32 that the stepper solves at rtol = atol = tol."""
    grid = PeriodicGrid(2 * np.pi, 32)
    kern = ScaledKernel(KernelSpec.gaussian_normalized(), 0.5)
    psi0 = perturbed_initial(_phi(grid, B=4.0, kern=kern), 0.5, 3)
    cfg = EvolutionConfig(kernel=kern,
                          potential=SineSquared(-1.0, 1.0), alpha=1,
                          time_horizon=2.0, record_every=0.5,
                          rtol=tol, atol=tol)
    return psi0, cfg


@pytest.mark.parametrize("flow, rejects", [
    # DOP853's first steps at 1e-8 include one rejected attempt
    pytest.param(lambda: _nonlocal_n32(1e-8), True, id="1e-08-True"),
    pytest.param(lambda: _nonlocal_n32(1e-2), True, id="0.01-True"),
    # the benchmarked path: N = 128, constant multiplier, 1e-10
    pytest.param(lambda: _regime("1a", 2.0), False, id="regime-1a"),
])
def test_stepper_takes_scipy_dop853_steps_exactly(monkeypatch, flow, rejects):
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    psi0, cfg = flow()
    fun, y0, t_span, kwargs = _flow(monkeypatch, cfg, psi0)
    times = []

    def timed(t, y):
        times.append(t)
        return fun(t, y)

    ours = evolution.solve_ivp(timed, t_span, y0, **kwargs)
    ref = scipy_solve_ivp(fun, t_span, y0, method="DOP853", **kwargs)
    assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)
    assert ours.nfev == ref.nfev == len(times) and ours.success and ref.success
    # an attempt's last two calls, and no other two in a row, are both at its
    # end time (node 1 and the FSAL slope): a retry ends earlier
    ends = np.array([b for a, b in zip(times, times[1:]) if a == b])
    assert bool(np.any(np.diff(ends) <= 0)) == rejects


def test_tableau_is_scipys_dop853():
    from scipy.integrate._ivp import dop853_coefficients as dop853

    assert np.array_equal(evolution._C, dop853.C)
    assert np.array_equal(evolution._A, dop853.A)
    assert np.array_equal(evolution._A[12, :12], dop853.B)
    assert np.array_equal(evolution._E5, dop853.E5)
    assert np.array_equal(evolution._E3, dop853.E3)
    assert np.array_equal(evolution._D, dop853.D)


@pytest.mark.parametrize("kern, ffts", [
    (ScaledKernel(KernelSpec.gaussian_raw(), 0.0), 2),
    (ScaledKernel(KernelSpec.gaussian_normalized(), 0.0), 2),
    (ScaledKernel(KernelSpec.gaussian_normalized(), 0.5), 4),
])
def test_constant_multiplier_skips_the_convolution_transforms(monkeypatch, kern,
                                                             ffts):
    grid = PeriodicGrid(2 * np.pi, 32)
    cfg = EvolutionConfig(kernel=kern,
                          potential=SineSquared(-1.0, 1.0), alpha=1,
                          time_horizon=0.5, record_every=0.5)
    ws = evolution._Workspace(cfg, grid)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    q = np.abs(y) ** 2
    conv = np.fft.ifft(np.fft.fft(q) * ws.mult)
    explicit = ws.band_i * np.fft.fft(y * (conv + ws.V))
    rhs = ws.rhs(0.0, np.fft.fft(y))
    assert np.max(np.abs(rhs - explicit)) <= 1e-13 * np.max(np.abs(explicit))

    fun, y0, _, _ = _flow(monkeypatch, cfg, _phi(grid, kern=kern))
    calls = []
    for name in ("_fft", "_ifft"):
        orig = getattr(evolution, name)
        monkeypatch.setattr(evolution, name, lambda *args, _fn=orig, **kwargs:
                            calls.append(1) or _fn(*args, **kwargs))
    fun(0.1, y0)
    assert len(calls) == ffts


@pytest.mark.parametrize("N", [4, 30, 128, 256])
@pytest.mark.parametrize("shape", [(), (5,)])
def test_direct_transforms_equal_numpy_fft_bitwise(N, shape):
    # at N = 30 the ifft scale 1/N is inexact
    rng = np.random.default_rng(N)
    a = rng.standard_normal((*shape, N)) + 1j * rng.standard_normal((*shape, N))
    for x in (a, a.real):
        assert np.array_equal(evolution._fft(x), np.fft.fft(x))
        assert np.array_equal(evolution._ifft(x), np.fft.ifft(x))


@pytest.mark.parametrize("N", [4, 32, 128, 256])
def test_half_spectrum_phase_equals_full_exponential(N):
    grid = PeriodicGrid(8 * np.pi, N)
    cfg = EvolutionConfig(kernel=_local(), potential=NO_POTENTIAL,
                          alpha=1, time_horizon=1.0, record_every=1.0)
    ws = evolution._Workspace(cfg, grid)
    for t in (0.0, 1e-7, 0.3, 2.5, 17.0, 29.999, 1234.5):
        assert np.array_equal(ws.phase(t), np.exp(ws.i_half_ksq * t)), t


def _regime(which, horizon, tol=1e-10, seed=1234):
    """A perturbed figure regime at ``seed`` and N = 128, as the figures
    command evolves it, to ``horizon`` at rtol = atol = ``tol``."""
    reg = FIGURE_REGIMES[which]
    grid = PeriodicGrid(8.0 * np.pi, 128)
    kern = ScaledKernel(KernelSpec.gaussian_raw(), reg["eps"])
    phi = build_solution(solution_params(reg["B"], reg["V0"], 1.0, 1, kern), grid)
    psi0 = perturbed_initial(phi, reg["nu"], seed)
    cfg = EvolutionConfig(kernel=kern,
                          potential=SineSquared(reg["V0"], 1.0), alpha=1,
                          time_horizon=horizon, record_every=0.25,
                          rtol=tol, atol=tol)
    return psi0, cfg


def test_cached_phase_leaves_regime_1a_bitwise_unchanged(monkeypatch):
    # the node-1 and FSAL stages share one exponential; the trajectory must
    # equal the one that exponentiates on every right-hand side
    psi0, cfg = _regime("1a", 2.0)
    exps = []
    cached = evolution._Workspace.phase
    monkeypatch.setattr(evolution._Workspace, "phase", lambda ws, t: (
        exps.append(t != ws._phase[0]) or cached(ws, t)))
    traj = evolve(psi0, cfg)
    monkeypatch.setattr(evolution._Workspace, "phase", lambda ws, t: (
        np.exp(ws.i_half_ksq_half * t)[ws.fold]))
    ref = evolve(psi0, cfg)
    for name in ("times", "samples", "mass", "energy"):
        assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
    # after the two initial-step calls, each attempt's 12 calls make 11
    # exponentials, and each step that covers a record makes 3 more calls
    # for its interpolant: the 9 records 0, 0.25, ..., 2 lie in 9 steps
    attempts = exps.count(False)
    assert len(exps) == 2 + 12 * attempts + 3 * len(traj.times)


@pytest.mark.parametrize("which, max_nfev", [("1a", 12_000), ("1b", 6_000)])
def test_default_tolerance_accuracy_and_work_over_the_figure_horizon(monkeypatch,
                                                                    which, max_nfev):
    # at rtol = atol = 1e-10 over T = 30 the states stay within 5e-9 of a
    # 1e-13 run, in at most max_nfev right-hand sides
    real, nfev = evolution.solve_ivp, []

    def counting(*args, **kwargs):
        sol = real(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(evolution, "solve_ivp", counting)
    traj = evolve(*_regime(which, 30.0))
    ref = evolve(*_regime(which, 30.0, tol=1e-13))
    assert np.max(np.abs(traj.samples - ref.samples)) <= 5e-9
    assert nfev[0] <= max_nfev


def test_direct_transforms_leave_regime_1a_bitwise_unchanged(monkeypatch):
    # the trajectory must equal the one that transforms through np.fft
    psi0, cfg = _regime("1a", 2.0)
    traj = evolve(psi0, cfg)
    monkeypatch.setattr(evolution, "_fft", np.fft.fft)
    monkeypatch.setattr(evolution, "_ifft", np.fft.ifft)
    ref = evolve(psi0, cfg)
    for name in ("times", "samples", "mass", "energy"):
        assert np.array_equal(getattr(traj, name), getattr(ref, name)), name


def test_work_buffers_alias_neither_inputs_nor_results(monkeypatch):
    # the stepper and the right-hand side write into buffers they allocate
    # once per call; none of them may leak into y0, a result or a later run
    psi0, cfg = _regime("1a", 2.0)
    fun, y0, t_span, kwargs = _flow(monkeypatch, cfg, psi0)
    kept = y0.copy()
    first = evolution.solve_ivp(fun, t_span, y0, **kwargs)
    assert np.array_equal(y0, kept)
    second = evolution.solve_ivp(fun, t_span, y0, **kwargs)
    assert not np.shares_memory(first.y, second.y)
    assert np.array_equal(first.y, second.y)
    one, two = evolve(psi0, cfg), evolve(psi0, cfg)
    for name in ("times", "samples", "mass", "energy"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name


def test_horizon_just_past_a_multiple_is_recorded_once():
    # ceil(T/every - 1e-9) puts the last multiple of every within 1e-9*every
    # of T; it is moved to T, with no second record beside it
    horizon = 0.75 + 1.25e-10
    cfg = EvolutionConfig(kernel=_local(), potential=SineSquared(-1.0, 1.0),
                          alpha=1, time_horizon=horizon, record_every=0.25)
    traj = evolve(_phi(PeriodicGrid(2 * np.pi, 32)), cfg)
    assert len(traj.samples) == math.ceil(horizon / 0.25 - 1e-9) + 1 == 4
    assert traj.times.tolist() == [0.0, 0.25, 0.5, horizon]
