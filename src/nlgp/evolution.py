"""Filtered pseudo-spectral time evolution of the (non)local GP equation.

The integrated system is  i psi_t = -psi_xx/2 + alpha*psi*(R*|psi|^2) + V*psi,
with the convolution acting as a Fourier multiplier on |psi|^2 and the fixed
exponential filter applied to the nonlinear product.  The local cubic equation
is the kernel at eps = 0: the unit-mass kernel's multiplier is then exactly 1.

The flow is always stepped in integrating-factor form: the stiff Laplacian
symbol is applied exactly through u = exp(i*|kappa|^2*t/2) * psi_hat, and the
stepper (adaptive RK45 or fixed RK4) integrates only the filtered nonlinear
and potential terms.  Each run is one pass over the record grid: the adaptive
stepper is a single solver call whose snapshots are the Dormand-Prince dense
output at the record times, with steps capped at record_every.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import solve_ivp

from . import kernels
from .spectral import PeriodicGrid, WaveField, filter_multipliers
from .waves import SineSquared, StationaryState


class StepSizeUnderflowError(RuntimeError):
    """The adaptive stepper stalled.  Carries the trajectory so far."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class NonFiniteError(RuntimeError):
    """NaN/Inf appeared in the state, signalling blow-up.  Carries the
    trajectory accumulated before the failure."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class AdaptiveRK45:
    """Dormand-Prince embedded RK 4(5), the ode45 family."""

    rtol: float = 1e-10
    atol: float = 1e-10

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be positive")


@dataclass(frozen=True)
class FixedRK4:
    """Fixed-step RK4 on the integrating-factor form, for reproducibility studies."""

    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class EvolutionConfig:
    grid: PeriodicGrid
    kernel: kernels.ScaledKernel  # eps = 0 is the local equation
    potential: SineSquared  # V0 = 0 is no potential
    alpha: int
    time_horizon: float = 30.0
    stepper: AdaptiveRK45 | FixedRK4 = AdaptiveRK45()
    record_every: float = 0.25

    def __post_init__(self):
        if self.alpha not in (+1, -1):
            raise ValueError(f"alpha must be +1 or -1, got {self.alpha}")
        if self.time_horizon <= 0:
            raise ValueError("time_horizon must be positive")
        if not 0 < self.record_every <= self.time_horizon:
            raise ValueError("record_every must lie in (0, time_horizon]")


class _Workspace:
    """Precomputed arrays in unshifted FFT order for fast right-hand sides."""

    def __init__(self, cfg: EvolutionConfig):
        grid = cfg.grid
        N = grid.num_modes
        j = np.fft.fftfreq(N, d=1.0 / N)  # 0..N/2-1, -N/2..-1
        kappa = 2.0 * np.pi * j / grid.period
        self.half_ksq = 0.5 * kappa**2
        self.kappa = kappa
        self.mult = np.asarray(kernels.multiplier(cfg.kernel, kappa), dtype=float)
        self.V = cfg.potential.values(grid)
        self.filt = np.fft.ifftshift(filter_multipliers(grid))
        self.filt[j == -N // 2] = 0.0  # unmatched Nyquist mode always dropped
        self.alpha = cfg.alpha
        self.h = grid.spacing

    def nonlinear_rhs_hat(self, t, y):
        """FFT of -i*(alpha*psi*(R*|psi|^2) + V*psi), the product filtered."""
        q = y.real**2 + y.imag**2
        conv = np.fft.ifft(np.fft.fft(q) * self.mult)
        p_hat = np.fft.fft(y * conv) * self.filt
        return -1j * (self.alpha * p_hat + np.fft.fft(self.V * y))

    def mass_energy(self, y):
        q = y.real**2 + y.imag**2
        mass = float(np.sum(q) * self.h)
        dpsi = np.fft.ifft(np.fft.fft(y) * (-1j * self.kappa))
        conv = np.fft.ifft(np.fft.fft(q) * self.mult).real
        dens = np.abs(dpsi) ** 2 + 2.0 * self.V * q + self.alpha * q * conv
        return mass, float(0.5 * np.sum(dens) * self.h)


@dataclass(eq=False)
class Trajectory:
    times: np.ndarray
    states: list = dc_field(repr=False)
    mass: np.ndarray = dc_field(repr=False)
    energy: np.ndarray = dc_field(repr=False)

    def mass_drift(self) -> float:
        return float(np.max(np.abs(self.mass - self.mass[0])) / abs(self.mass[0]))

    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energy - self.energy[0])) / abs(self.energy[0]))

    def deviation_from(self, reference: WaveField) -> np.ndarray:
        """sup_x | |psi(t)| - |phi| | per snapshot: distance from the phase orbit."""
        ref = np.abs(reference.samples)
        return np.array(
            [np.max(np.abs(np.abs(s.samples) - ref)) for s in self.states]
        )


def _record_times(cfg: EvolutionConfig) -> np.ndarray:
    n = int(np.ceil(cfg.time_horizon / cfg.record_every - 1e-9))
    t = np.arange(n + 1) * cfg.record_every
    if t[-1] < cfg.time_horizon - 1e-12 * cfg.time_horizon:
        t = np.append(t, cfg.time_horizon)
    else:
        t[-1] = cfg.time_horizon
    return t


def _rk4_pass(f, rec, u, dt):
    """Fixed-step RK4 across the record grid: the state at each record time
    reached, stopping after the first non-finite one."""
    reached = [u]
    for t0, t1 in zip(rec[:-1], rec[1:]):
        nsteps = max(1, int(np.ceil((t1 - t0) / dt - 1e-12)))
        h = (t1 - t0) / nsteps
        t = t0
        for _ in range(nsteps):
            k1 = f(t, u)
            k2 = f(t + h / 2, u + h / 2 * k1)
            k3 = f(t + h / 2, u + h / 2 * k2)
            k4 = f(t + h, u + h * k3)
            u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        reached.append(u)
        if not np.all(np.isfinite(u)):
            break
    return reached


def evolve(psi0: WaveField, cfg: EvolutionConfig) -> Trajectory:
    """Integrate to cfg.time_horizon in one pass, recording snapshots every
    record_every.

    Raises NonFiniteError on blow-up and StepSizeUnderflowError on stepper
    stall; both carry the finite prefix in their ``trajectory`` attribute.
    """
    if psi0.grid != cfg.grid:
        raise ValueError("initial state grid does not match config grid")
    ws = _Workspace(cfg)
    rec = _record_times(cfg)

    # psi_hat' = -i*half_ksq*psi_hat + N(psi) becomes u' = e(t)*N(psi) for
    # u = e(t)*psi_hat, e(t) = exp(i*half_ksq*t): the stiff part is exact.
    # The last (t, u') evaluated tells a blow-up from a stall when the
    # adaptive solver gives up.
    last = None

    def f(t, u):
        nonlocal last
        e = np.exp(1j * ws.half_ksq * t)
        last = t, e * ws.nonlinear_rhs_hat(t, np.fft.ifft(u / e))
        return last[1]

    u0 = np.fft.fft(psi0.samples.astype(complex))
    # overflow is reported below as NonFiniteError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(cfg.stepper, FixedRK4):
            reached, message = _rk4_pass(f, rec, u0, cfg.stepper.dt), ""
        else:
            sol = solve_ivp(f, (rec[0], rec[-1]), u0, method="RK45",
                            rtol=cfg.stepper.rtol, atol=cfg.stepper.atol,
                            t_eval=rec, max_step=cfg.record_every)
            # t = 0 is u0 itself: a solver that fails before its first
            # record returns sol.t and sol.y as empty lists
            reached = [u0] + [sol.y[:, i] for i in range(1, len(sol.t))]
            message = sol.message

    states = []

    def partial():
        m_e = np.array([ws.mass_energy(st.samples) for st in states]).reshape(-1, 2)
        return Trajectory(rec[:len(states)], states, m_e[:, 0], m_e[:, 1])

    for t, u in zip(rec, reached):
        if not np.all(np.isfinite(u)):
            raise NonFiniteError(f"non-finite state at t = {t:.6g} (blow-up)",
                                 trajectory=partial())
        states.append(WaveField(cfg.grid, np.fft.ifft(u / np.exp(1j * ws.half_ksq * t))))
    if len(reached) < len(rec):
        if last is not None and not np.all(np.isfinite(last[1])):
            raise NonFiniteError(f"non-finite state at t = {last[0]:.6g} "
                                 "(blow-up)", trajectory=partial())
        raise StepSizeUnderflowError(
            f"stepper stalled after t = {rec[len(states) - 1]:.6g}: {message}",
            trajectory=partial())
    return partial()


@dataclass(frozen=True)
class PerturbationSpec:
    """Random perturbation nu*m(x)*exp(i*theta(x)) with ||m||_2 = 1."""

    nu: float
    seed: int
    mode_cutoff: int = 16

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")
        if self.mode_cutoff < 1:
            raise ValueError("mode_cutoff must be positive")


def random_band_limited(grid: PeriodicGrid, seed: int, mode_cutoff: int) -> WaveField:
    """Real field with modes |j| <= mode_cutoff, seeded, normalized to ||m||_2 = 1."""
    if mode_cutoff >= grid.num_modes // 2:
        raise ValueError("mode_cutoff must be below the Nyquist index")
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.num_modes, dtype=complex)
    modes = grid.modes
    c[modes == 0] = rng.normal()
    for m in range(1, mode_cutoff + 1):
        re, im = rng.normal(), rng.normal()
        c[modes == m] = (re + 1j * im) / 2.0
        c[modes == -m] = (re - 1j * im) / 2.0
    f = WaveField.from_coeffs(grid, c)
    return WaveField(grid, f.samples.real / f.l2_norm())


def perturbed_initial(state: StationaryState, spec: PerturbationSpec) -> WaveField:
    """phi + nu*m(x)*exp(i*theta(x)) with theta the phase of phi; deterministic per seed."""
    phi = state.field
    if spec.nu == 0:
        return phi
    m = random_band_limited(phi.grid, spec.seed, spec.mode_cutoff)
    theta = np.angle(phi.samples)
    return WaveField(phi.grid, phi.samples + spec.nu * m.samples * np.exp(1j * theta))


# ---------------------------------------------------------------------------
# CSV export


def write_trajectory_csv(traj: Trajectory, path):
    """Long format: one row per (t, grid index) with Re/Im of the state."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x_index", "re_psi", "im_psi"])
        for t, state in zip(traj.times, traj.states):
            for idx, val in enumerate(state.samples):
                w.writerow([repr(float(t)), idx, repr(float(val.real)),
                            repr(float(val.imag))])


def write_summary_csv(traj: Trajectory, path, reference: WaveField):
    """Per-snapshot mass, energy and orbit deviation from ``reference``."""
    dev = traj.deviation_from(reference)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "mass", "energy", "mod_deviation"])
        for t, m, e, d in zip(traj.times, traj.mass, traj.energy, dev):
            w.writerow([repr(float(t)), repr(float(m)), repr(float(e)),
                        repr(float(d))])
