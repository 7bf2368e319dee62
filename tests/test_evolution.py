import csv
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from nlgp import evolution
from nlgp.evolution import (
    EvolutionConfig,
    NonFiniteError,
    PerturbationSpec,
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
from nlgp.waves import SineSquared, build_solution


def _local():
    return ScaledKernel(KernelSpec.gaussian_normalized(), 0.0)


NO_POTENTIAL = SineSquared(0.0, 1.0)


def _state(grid, B=1.0, V0=-1.0, kern=None):
    return build_solution(B, V0, 1.0, 1, kern if kern is not None else _local(),
                          grid)


def test_local_plane_wave_phase_rotation():
    # psi = a e^{i kappa x} rotates at kappa^2/2 + alpha a^2 with no potential
    grid = PeriodicGrid(2 * np.pi, 64)
    a, j = 0.7, 2
    psi0 = WaveField(grid, a * np.exp(1j * j * grid.points))
    cfg = EvolutionConfig(grid=grid, kernel=_local(), potential=NO_POTENTIAL,
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
    cfg = EvolutionConfig(grid=grid, kernel=kern, potential=NO_POTENTIAL,
                          alpha=1, time_horizon=1.0, record_every=1.0,
                          rtol=1e-11, atol=1e-11)
    traj = evolve(psi0, cfg)
    freq = j**2 / 2.0 + a**2 * np.sqrt(np.pi)
    expect = psi0.samples * np.exp(-1j * freq * 1.0)
    assert np.max(np.abs(traj.samples[-1] - expect)) < 1e-7


def test_stationary_state_is_fixed_up_to_phase():
    grid = PeriodicGrid(2 * np.pi, 64)
    kern = ScaledKernel(KernelSpec.gaussian_normalized(), 0.05)
    state = _state(grid, kern=kern)
    cfg = EvolutionConfig(grid=grid, kernel=kern, potential=SineSquared(-1.0, 1.0),
                          alpha=1, time_horizon=3.0, record_every=1.0)
    traj = evolve(state.field, cfg)
    dev = traj.deviation_from(state.field)
    assert np.max(dev) < 1e-7
    # and the phase advances at the dispersion frequency omega
    t_end = traj.times[-1]
    expect = state.field.samples * np.exp(-1j * state.params.omega * t_end)
    assert np.max(np.abs(traj.samples[-1] - expect)) < 1e-6


def test_mass_and_energy_conserved():
    grid = PeriodicGrid(8 * np.pi, 128)
    kern = ScaledKernel(KernelSpec.gaussian_raw(), 0.01)
    state = _state(grid, B=1.0, V0=-1.0, kern=kern)
    psi0 = perturbed_initial(state, PerturbationSpec(nu=0.01, seed=2, mode_cutoff=16))
    cfg = EvolutionConfig(grid=grid, kernel=kern, potential=SineSquared(-1.0, 1.0),
                          alpha=1, time_horizon=10.0, record_every=0.5)
    traj = evolve(psi0, cfg)
    assert traj.mass_drift() < 1e-8
    assert traj.energy_drift() < 1e-6


def test_conserved_quantities_match_closed_forms():
    grid = PeriodicGrid(2 * np.pi, 64)
    a = 0.6
    psi = WaveField(grid, a * np.ones(64, complex))
    cfg = EvolutionConfig(grid=grid, kernel=_local(), potential=NO_POTENTIAL,
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
    state = _state(grid, kern=kern)
    psi0 = perturbed_initial(state, PerturbationSpec(nu=0.05, seed=7,
                                                     mode_cutoff=10))
    cfg = EvolutionConfig(grid=grid, kernel=kern, potential=SineSquared(-1.0, 1.0),
                          alpha=1, time_horizon=2.0, record_every=2.0,
                          rtol=1e-12, atol=1e-12)
    fwd = evolve(psi0, cfg)
    flipped = WaveField(grid, np.conj(fwd.samples[-1]))
    back = evolve(flipped, cfg)
    recovered = np.conj(back.samples[-1])
    assert np.max(np.abs(recovered - psi0.samples)) < 1e-9


def test_record_times_cover_horizon():
    grid = PeriodicGrid(2 * np.pi, 32)
    state = _state(grid)
    cfg = EvolutionConfig(grid=grid, kernel=_local(),
                          potential=SineSquared(-1.0, 1.0), alpha=1,
                          time_horizon=1.0, record_every=0.3)
    traj = evolve(state.field, cfg)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.times) == len(traj.samples) == len(traj.mass)


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


def test_perturbed_initial_modulates_along_phase():
    grid = PeriodicGrid(2 * np.pi, 64)
    state = _state(grid)
    spec = PerturbationSpec(nu=0.05, seed=11, mode_cutoff=8)
    psi0 = perturbed_initial(state, spec)
    diff = psi0.samples - state.field.samples
    # the perturbation rides the local phase: diff = nu * m * e^{i theta}
    expected_mag = 0.05 * np.abs(
        random_band_limited(grid, seed=11, mode_cutoff=8).samples)
    assert np.max(np.abs(np.abs(diff) - expected_mag)) < 1e-12
    clean = perturbed_initial(state, PerturbationSpec(nu=0.0, seed=11,
                                                      mode_cutoff=8))
    assert np.array_equal(clean.samples, state.field.samples)


def test_perturbation_validation():
    grid = PeriodicGrid(2 * np.pi, 32)
    with pytest.raises(ValueError):
        PerturbationSpec(nu=-0.1, seed=1, mode_cutoff=8)
    with pytest.raises(ValueError):
        random_band_limited(grid, seed=1, mode_cutoff=16)  # cutoff = N/2


def test_adaptive_blow_up_is_not_reported_as_a_stall():
    # at tolerances of 1e3 the state overflows between records; the solver
    # then gives up with a step-size message, but the last right-hand side
    # it evaluated is non-finite
    grid = PeriodicGrid(2 * np.pi, 32)
    state = _state(grid, B=50.0, V0=0.0)
    psi0 = perturbed_initial(state, PerturbationSpec(nu=0.5, seed=1234,
                                                     mode_cutoff=8))
    cfg = EvolutionConfig(grid=grid, kernel=_local(), potential=NO_POTENTIAL,
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
    state = _state(grid)
    cfg = EvolutionConfig(grid=grid, kernel=_local(),
                          potential=SineSquared(-1.0, 1.0), alpha=1,
                          time_horizon=1.0, record_every=0.25)
    with pytest.raises(StepSizeUnderflowError, match="stalled") as info:
        evolve(state.field, cfg)
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
    cfg = EvolutionConfig(grid=grid, kernel=_local(),
                          potential=SineSquared(-1.0, 1.0), alpha=1,
                          time_horizon=1.0, record_every=0.25)
    with pytest.raises(NonFiniteError, match="non-finite state at t = 0.5 ") as info:
        evolve(_state(grid).field, cfg)
    partial = info.value.trajectory
    assert np.array_equal(partial.times, [0.0, 0.25])
    assert len(partial.samples) == len(partial.mass) == 2
    assert np.all(np.isfinite(partial.samples))


def test_tolerances_must_be_positive():
    grid = PeriodicGrid(2 * np.pi, 32)
    common = dict(grid=grid, kernel=_local(), potential=NO_POTENTIAL, alpha=1)
    for tols in (dict(rtol=0.0), dict(atol=0.0), dict(rtol=-1e-10)):
        with pytest.raises(ValueError, match="rtol and atol must be positive"):
            EvolutionConfig(**common, **tols)


def test_adaptive_evolve_is_one_solver_call_over_the_record_grid(monkeypatch):
    real = evolution.solve_ivp
    calls = []

    def recording(fun, t_span, y0, **kwargs):
        calls.append((t_span, kwargs))
        return real(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(evolution, "solve_ivp", recording)
    grid = PeriodicGrid(2 * np.pi, 32)
    cfg = EvolutionConfig(grid=grid, kernel=_local(),
                          potential=SineSquared(-1.0, 1.0), alpha=1,
                          time_horizon=1.0, record_every=0.25,
                          rtol=1e-8, atol=1e-8)
    traj = evolve(_state(grid).field, cfg)
    assert len(calls) == 1
    t_span, kwargs = calls[0]
    assert tuple(t_span) == (0.0, 1.0)
    assert np.array_equal(kwargs["t_eval"], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert kwargs["max_step"] == cfg.record_every
    assert np.array_equal(traj.times, kwargs["t_eval"])


def test_grid_mismatch_rejected():
    grid = PeriodicGrid(2 * np.pi, 32)
    other = PeriodicGrid(2 * np.pi, 64)
    state = _state(grid)
    cfg = EvolutionConfig(grid=other, kernel=_local(), potential=NO_POTENTIAL,
                          alpha=1, time_horizon=1.0, record_every=1.0)
    with pytest.raises(ValueError):
        evolve(state.field, cfg)


def test_sine_squared_period_validation():
    pot = SineSquared(-1.0, 1.0)
    with pytest.raises(ValueError):
        pot.values(PeriodicGrid(1.5, 16))
    vals = pot.values(PeriodicGrid(np.pi, 16))  # half the wave period tiles it
    assert vals.shape == (16,)


def test_rhs_never_feeds_the_unmatched_nyquist_mode():
    # the filter acts on the potential term too, so at V0 != 0 the j = -N/2
    # entry (index N/2 in FFT order) of the right-hand side is exactly zero
    grid = PeriodicGrid(8 * np.pi, 128)  # regime 1a's grid
    state = _state(grid, B=0.01, V0=-2.46)
    cfg = EvolutionConfig(grid=grid, kernel=_local(),
                          potential=SineSquared(-2.46, 1.0), alpha=1)
    rng = np.random.default_rng(7)
    noise = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    rhs = evolution._Workspace(cfg).nonlinear_rhs_hat(
        0.0, state.field.samples + 1e-3 * noise)
    assert rhs[64] == 0.0


def test_csv_writers_round_trip(tmp_path):
    grid = PeriodicGrid(2 * np.pi, 16)
    state = _state(grid)
    cfg = EvolutionConfig(grid=grid, kernel=_local(),
                          potential=SineSquared(-1.0, 1.0), alpha=1,
                          time_horizon=0.5, record_every=0.25)
    traj = evolve(state.field, cfg)
    tpath = tmp_path / "traj.csv"
    spath = tmp_path / "summary.csv"
    write_trajectory_csv(traj, tpath)
    write_summary_csv(traj, spath, reference=state.field)
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


@pytest.mark.parametrize("tol, rejects", [(1e-8, False), (1e-2, True)])
def test_stepper_takes_scipy_rk45_steps_exactly(monkeypatch, tol, rejects):
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    grid = PeriodicGrid(2 * np.pi, 32)
    kern = ScaledKernel(KernelSpec.gaussian_normalized(), 0.5)
    psi0 = perturbed_initial(_state(grid, B=4.0, kern=kern),
                             PerturbationSpec(nu=0.5, seed=3, mode_cutoff=8))
    cfg = EvolutionConfig(grid=grid, kernel=kern,
                          potential=SineSquared(-1.0, 1.0), alpha=1,
                          time_horizon=2.0, record_every=0.5,
                          rtol=tol, atol=tol)
    fun, y0, t_span, kwargs = _flow(monkeypatch, cfg, psi0)
    times = []

    def timed(t, y):
        times.append(t)
        return fun(t, y)

    ours = evolution.solve_ivp(timed, t_span, y0, **kwargs)
    ref = scipy_solve_ivp(fun, t_span, y0, method="RK45", **kwargs)
    assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)
    assert ours.nfev == ref.nfev and ours.success and ref.success
    # an attempt's last stage is at its end time: a retry ends earlier
    ends = np.array(times[2:][5::6])
    assert bool(np.any(np.diff(ends) <= 0)) == rejects


@pytest.mark.parametrize("kern, ffts", [
    (ScaledKernel(KernelSpec.gaussian_raw(), 0.0), 2),
    (ScaledKernel(KernelSpec.gaussian_normalized(), 0.0), 2),
    (ScaledKernel(KernelSpec.gaussian_normalized(), 0.5), 4),
])
def test_constant_multiplier_skips_the_convolution_transforms(monkeypatch, kern,
                                                             ffts):
    grid = PeriodicGrid(2 * np.pi, 32)
    cfg = EvolutionConfig(grid=grid, kernel=kern,
                          potential=SineSquared(-1.0, 1.0), alpha=1,
                          time_horizon=0.5, record_every=0.5)
    ws = evolution._Workspace(cfg)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    q = np.abs(y) ** 2
    conv = np.fft.ifft(np.fft.fft(q) * ws.mult)
    explicit = ws.filt_i * np.fft.fft(y * (conv + ws.V))
    rhs = ws.nonlinear_rhs_hat(0.0, y)
    assert np.max(np.abs(rhs - explicit)) <= 1e-13 * np.max(np.abs(explicit))

    fun, y0, _, _ = _flow(monkeypatch, cfg, _state(grid, kern=kern).field)
    calls = []
    for name in ("_fft", "_ifft"):
        orig = getattr(evolution, name)
        monkeypatch.setattr(evolution, name, lambda a, _fn=orig:
                            calls.append(1) or _fn(a))
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
    cfg = EvolutionConfig(grid=grid, kernel=_local(), potential=NO_POTENTIAL,
                          alpha=1, time_horizon=1.0, record_every=1.0)
    ws = evolution._Workspace(cfg)
    for t in (0.0, 1e-7, 0.3, 2.5, 17.0, 29.999, 1234.5):
        assert np.array_equal(ws.phase(t), np.exp(ws.i_half_ksq * t)), t


def _regime_1a_to_t2():
    """Perturbed regime-1a state and its first two time units at N = 128."""
    reg = FIGURE_REGIMES["1a"]
    grid = PeriodicGrid(8.0 * np.pi, 128)
    kern = ScaledKernel(KernelSpec.gaussian_raw(), reg["eps"])
    state = build_solution(reg["B"], reg["V0"], 1.0, 1, kern, grid)
    psi0 = perturbed_initial(state, PerturbationSpec(nu=reg["nu"], seed=1234,
                                                     mode_cutoff=16))
    cfg = EvolutionConfig(grid=grid, kernel=kern,
                          potential=SineSquared(reg["V0"], 1.0), alpha=1,
                          time_horizon=2.0, record_every=0.25,
                          rtol=1e-10, atol=1e-10)
    return psi0, cfg


def test_cached_phase_leaves_regime_1a_bitwise_unchanged(monkeypatch):
    # the sixth and FSAL stages share one exponential; the trajectory must
    # equal the one that exponentiates on every right-hand side
    psi0, cfg = _regime_1a_to_t2()
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
    # after the two initial-step calls, each step's six calls make five
    # exponentials
    assert (len(exps) - 2) % 6 == 0 and exps.count(False) == (len(exps) - 2) // 6


def test_direct_transforms_leave_regime_1a_bitwise_unchanged(monkeypatch):
    # the trajectory must equal the one that transforms through np.fft
    psi0, cfg = _regime_1a_to_t2()
    traj = evolve(psi0, cfg)
    monkeypatch.setattr(evolution, "_fft", np.fft.fft)
    monkeypatch.setattr(evolution, "_ifft", np.fft.ifft)
    ref = evolve(psi0, cfg)
    for name in ("times", "samples", "mass", "energy"):
        assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
