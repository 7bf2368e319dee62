"""Filtered pseudo-spectral time evolution of the (non)local GP equation.

The integrated system is  i psi_t = -psi_xx/2 + alpha*psi*(R*|psi|^2) + V*psi,
with the convolution acting as a Fourier multiplier on |psi|^2 and the fixed
exponential filter applied to the nonlinear and potential terms.  The local
cubic equation is the kernel at eps = 0: the unit-mass kernel's multiplier is
then exactly 1, and any constant multiplier is applied pointwise, without the
convolution's FFT pair.

The flow is stepped in integrating-factor form: the stiff Laplacian symbol
is applied exactly through u = exp(i*|kappa|^2*t/2) * psi_hat, and the
adaptive Dormand-Prince 5(4) solver below integrates only the filtered
nonlinear and potential terms.  Each run is one call of that solver, whose
snapshots are its dense output at the record times, with steps capped at
record_every.  The solver and the right-hand side allocate their work arrays
once per call and write into them, with the arithmetic of scipy's RK45 kept
operation for operation, so that the results equal scipy's bit for bit.  The
grid is the initial state's: a config holds only the equation and the solver
settings.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field as dc_field
from types import SimpleNamespace

import numpy as np

from . import kernels
from .runs import BlowUpError, write_csv
from .spectral import PeriodicGrid, WaveField, _fft, _ifft, filter_multipliers
from .waves import SineSquared


class StepSizeUnderflowError(BlowUpError):
    """The adaptive stepper stalled."""


class NonFiniteError(BlowUpError):
    """NaN/Inf appeared in the state, signalling blow-up."""


@dataclass(frozen=True)
class EvolutionConfig:
    kernel: kernels.ScaledKernel  # eps = 0 is the local equation
    potential: SineSquared  # V0 = 0 is no potential
    alpha: int
    time_horizon: float = 30.0
    rtol: float = 1e-10  # Dormand-Prince 5(4) tolerances
    atol: float = 1e-10
    record_every: float = 0.25

    def __post_init__(self):
        if self.alpha not in (+1, -1):
            raise ValueError(f"alpha must be +1 or -1, got {self.alpha}")
        if self.time_horizon <= 0:
            raise ValueError("time_horizon must be positive")
        if not 0 < self.record_every <= self.time_horizon:
            raise ValueError("record_every must lie in (0, time_horizon]")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be positive")


# Dormand-Prince 5(4) as scipy's RK45 writes it: nodes C, stages A, weights
# B, error weights E (FSAL stage last) and the quartic dense output P
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([[0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0],
               [44/45, -56/15, 32/9, 0, 0],
               [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
               [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rms(x):  # np.linalg.norm(x) / sqrt(x.size), summed as np.linalg.norm sums
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)) / x.size**0.5


def solve_ivp(fun, t_span, y0, *, rtol, atol, t_eval, max_step):
    """Dormand-Prince 5(4) with FSAL forward over t_span, sampled at the sorted
    t_eval by its quartic dense output (Hairer, Norsett & Wanner, II.4).

    Initial step, RMS error norm, controller and interpolant are scipy's
    RK45, operation for operation, so ``t``, ``y`` (n by len(t)) and ``nfev``
    equal ``scipy.integrate.solve_ivp(method="RK45")``'s bit for bit, although
    the work arrays are allocated once per call and written in place (``fun``
    must not keep the stage input it is given).  Name and call shape are
    scipy's too: the benchmark tracer wraps this attribute, times ``fun`` as
    the right-hand side and reads ``nfev``, and the stall tests replace it.
    """
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=np.result_type(y0, float))
    rtol = max(rtol, 100 * np.finfo(float).eps)
    f = fun(t, y)
    abs_y = np.abs(y)
    scale = atol + abs_y * rtol  # initial step for error order 4
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 5))
    h_abs = min(100 * h0, h1, t_bound - t, max_step)
    # the tableau cast to y's type as scipy's mixed-type np.dot casts it; per
    # stage: node, the slopes so far as columns, tableau row, the stage's row
    K, x, err = np.empty((7, y.size), y.dtype), np.empty_like(y), np.empty_like(y)
    A, B, E, P = (m.astype(y.dtype) for m in (_A, _B, _E, _P))
    stages = [(_C[s].item(), K[:s].T, A[s, :s], K[s]) for s in range(1, 6)]
    abs_new, times, nfev, ys, i = np.empty_like(abs_y), t_eval.tolist(), 2, [], 0
    message = "The solver successfully reached the end of the integration interval."
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_bound)
            h_abs = h = t_new - t
            K[0] = f
            for c, k_prev, a, k in stages:
                np.multiply(np.dot(k_prev, a, out=x), h, out=x)
                k[...] = fun(t + c * h, np.add(y, x, out=x))
            y_new = np.dot(K[:-1].T, B)
            np.add(y, np.multiply(h, y_new, out=y_new), out=y_new)
            K[-1] = f_new = fun(t + h, y_new)  # f survives a rejected attempt
            nfev += 6
            np.maximum(abs_y, np.abs(y_new, out=abs_new), out=scale)
            np.add(atol, np.multiply(scale, rtol, out=scale), out=scale)
            np.multiply(np.dot(K.T, E, out=err), h, out=err)
            error_norm = _rms(np.divide(err, scale, out=err))
            if error_norm < 1:  # accept; grow at most 10x, not at all after a retry
                factor = min(10, 0.9 * error_norm**-0.2) if error_norm else 10
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs, rejected = h_abs * max(0.2, 0.9 * error_norm**-0.2), True
        else:
            message = "Required step size is less than spacing between numbers."
            break
        j = bisect.bisect_right(times, t_new)
        if j > i:  # the records this step covers
            x_rec = np.cumprod(np.tile((t_eval[i:j] - t) / h, (4, 1)), axis=0)
            ys.append(h * np.dot(K.T.dot(P), x_rec) + y[:, None])
            i = j
        t, y, f, abs_y, abs_new = t_new, y_new, f_new, abs_new, abs_y
    return SimpleNamespace(t=t_eval[:i],
                           y=np.hstack(ys) if ys else np.empty((y.size, 0)),
                           nfev=nfev, success=t >= t_bound, message=message)


class _Workspace:
    """Precomputed arrays in unshifted FFT order and right-hand-side buffers."""

    def __init__(self, cfg: EvolutionConfig, grid: PeriodicGrid):
        N = grid.num_modes
        j = np.fft.fftfreq(N, d=1.0 / N)  # 0..N/2-1, -N/2..-1
        kappa = 2.0 * np.pi * j / grid.period
        self.i_half_ksq = 1j * (0.5 * kappa**2)  # stiff symbol, applied exactly
        self.i_half_ksq_half = self.i_half_ksq[:N // 2 + 1]
        self.fold = np.abs(j).astype(np.intp)
        self.kappa = kappa
        # alpha (+-1, an exact factor) rides on the multiplier
        self.mult = cfg.alpha * np.asarray(kernels.multiplier(cfg.kernel, kappa),
                                           dtype=float)
        # a constant multiplier (every eps = 0 kernel) makes R*q = c*q
        self.local = self.mult[0] if np.all(self.mult == self.mult[0]) else None
        self.V = cfg.potential.values(grid)
        filt = np.fft.ifftshift(filter_multipliers(grid))
        filt[j == -N // 2] = 0.0  # unmatched Nyquist mode gets no RHS
        self.filt_i = -1j * filt
        self.h = grid.spacing
        # buffers: phase, psi, u/e and transforms, R*|psi|^2, squares, |psi|^2
        self._half, self._e = np.empty(N // 2 + 1, complex), np.empty(N, complex)
        self._psi, self._hat, self._conv = np.empty((3, N), complex)
        self._sq, self._q = np.empty(2 * N), np.empty(N)
        self._phase, self.last = (None, self._e), None  # last: (t, u') of rhs

    def phase(self, t):
        """exp(i*half_ksq*t) at one time: the symbol is even in j, so entries
        0..N/2 (every |j| once) are exponentiated and gathered by |j| into a
        buffer (fold is in range: "clip" only spares numpy's copy of out).
        The last (t, phase) is kept: a Dormand-Prince step evaluates its
        sixth and FSAL stages at the same t + h."""
        if t != self._phase[0]:
            half = np.multiply(self.i_half_ksq_half, t, out=self._half)
            np.exp(half, out=half).take(self.fold, out=self._e, mode="clip")
            self._phase = t, self._e
        return self._phase[1]

    def rhs(self, t, u):
        """u' = e*filt_i*FFT(psi*(alpha*(R*|psi|^2) + V)) at psi = IFFT(u/e),
        e = exp(i*half_ksq*t): -i times the filtered nonlinear and potential
        terms in the integrating-factor variable u = e*psi_hat.  Only the
        result is a fresh array; it is kept with t as ``last``."""
        e = self.phase(t)
        psi = _ifft(np.divide(u, e, out=self._hat), out=self._psi)
        sq = np.square(psi.view(float), out=self._sq)
        w = np.add(sq[0::2], sq[1::2], out=self._q)
        if self.local is not None:
            np.multiply(self.local, w, out=w)
        else:  # complex, as the convolution's inverse transform returns it
            w = _ifft(np.multiply(_fft(w, out=self._hat), self.mult, out=self._hat),
                      out=self._conv)
        hat = _fft(np.multiply(psi, np.add(w, self.V, out=w), out=psi), out=self._hat)
        self.last = t, np.multiply(e, np.multiply(self.filt_i, hat, out=hat))
        return self.last[1]

    def mass_energy(self, y):
        """Mass and energy of each row of the (records, N) sample array y."""
        q = y.real**2 + y.imag**2
        dpsi = _ifft(_fft(y) * (-1j * self.kappa))
        conv = self.local * q if self.local is not None else _ifft(_fft(q) * self.mult).real
        dens = np.abs(dpsi) ** 2 + 2.0 * self.V * q + q * conv
        return np.sum(q, axis=-1) * self.h, 0.5 * np.sum(dens, axis=-1) * self.h


@dataclass(eq=False)
class Trajectory:
    """Snapshots at ``times``: row i of ``samples`` is psi(times[i]) on the grid."""

    times: np.ndarray
    samples: np.ndarray = dc_field(repr=False)  # (records, N), complex
    mass: np.ndarray = dc_field(repr=False)
    energy: np.ndarray = dc_field(repr=False)

    def mass_drift(self) -> float:
        return float(np.max(np.abs(self.mass - self.mass[0])) / abs(self.mass[0]))

    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energy - self.energy[0])) / abs(self.energy[0]))

    def deviation_from(self, reference: WaveField) -> np.ndarray:
        """sup_x | |psi(t)| - |phi| | per snapshot: distance from the phase orbit."""
        return np.max(np.abs(np.abs(self.samples) - np.abs(reference.samples)), axis=1)


def _record_times(cfg: EvolutionConfig) -> np.ndarray:
    """0, record_every, ... with the last of the n + 1 records moved to the
    horizon: n = ceil(T/record_every - 1e-9) puts n*record_every within
    1e-9*record_every of T or beyond it, and (n - 1)*record_every below it."""
    n = int(np.ceil(cfg.time_horizon / cfg.record_every - 1e-9))
    t = np.arange(n + 1) * cfg.record_every
    t[-1] = cfg.time_horizon
    return t


def evolve(psi0: WaveField, cfg: EvolutionConfig) -> Trajectory:
    """Integrate psi0 on its grid to cfg.time_horizon in one pass, recording
    snapshots every record_every.

    Raises NonFiniteError on blow-up and StepSizeUnderflowError on stepper
    stall; both carry the finite prefix in their ``trajectory`` attribute.
    """
    ws = _Workspace(cfg, psi0.grid)
    rec = _record_times(cfg)

    # psi_hat' = -i*half_ksq*psi_hat + N(psi) becomes u' = e(t)*N(psi) for
    # u = e(t)*psi_hat, e(t) = exp(i*half_ksq*t): the stiff part is exact
    u0 = _fft(psi0.samples.astype(complex))
    # overflow is reported below as NonFiniteError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(ws.rhs, (rec[0], rec[-1]), u0, rtol=cfg.rtol, atol=cfg.atol,
                        t_eval=rec, max_step=cfg.record_every)
    # t = 0 is u0 itself: a solver that fails before its first record
    # returns no columns in sol.y
    reached = np.array([u0, *np.transpose(sol.y)[1:]])

    # n records, the finite prefix of those reached, make the trajectory
    finite = np.all(np.isfinite(reached), axis=1)
    n = len(reached) if finite.all() else int(np.argmin(finite))
    samples = _ifft(reached[:n] / np.exp(ws.i_half_ksq * rec[:n, None]))
    traj = Trajectory(rec[:n], samples, *ws.mass_energy(samples))
    if n < len(reached):
        raise NonFiniteError(f"non-finite state at t = {rec[n]:.6g} (blow-up)",
                             trajectory=traj)
    if n < len(rec):  # a non-finite last right-hand side is a blow-up too
        if ws.last is not None and not np.all(np.isfinite(ws.last[1])):
            raise NonFiniteError(f"non-finite state at t = {ws.last[0]:.6g} "
                                 "(blow-up)", trajectory=traj)
        raise StepSizeUnderflowError(
            f"stepper stalled after t = {rec[n - 1]:.6g}: {sol.message}",
            trajectory=traj)
    return traj


def random_band_limited(grid: PeriodicGrid, seed: int, mode_cutoff: int) -> WaveField:
    """Real field with modes |j| <= mode_cutoff, seeded, normalized to ||m||_2 = 1.

    The 2*mode_cutoff + 1 normals come from the stdlib ``random.Random(seed)``,
    which would seed -s as s, so a negative seed is refused."""
    if mode_cutoff >= grid.num_modes // 2:
        raise ValueError("mode_cutoff must be below the Nyquist index")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    gauss = random.Random(seed).gauss
    c = np.zeros(grid.num_modes, dtype=complex)
    modes = grid.modes
    c[modes == 0] = gauss(0.0, 1.0)
    for m in range(1, mode_cutoff + 1):
        re, im = gauss(0.0, 1.0), gauss(0.0, 1.0)
        c[modes == m] = (re + 1j * im) / 2.0
        c[modes == -m] = (re - 1j * im) / 2.0
    f = WaveField.from_coeffs(grid, c)
    return WaveField(grid, f.samples.real / f.l2_norm())


def perturbed_initial(phi: WaveField, nu: float, seed: int) -> WaveField:
    """phi + nu*p with ||p||_2 = 1 and p band-limited to |j| <= min(16, N // 8):
    p is m*exp(i*theta), with theta the phase of phi and m the seeded field
    of :func:`random_band_limited`, projected onto those modes and rescaled.

    The band is the published runs' 16 modes, or fewer where the evolution's
    fixed filter would damp them: it multiplies the right-hand side at
    j = N/8 by 0.99945 and at j = N/4 by 0.87.  So a perturbation needs
    N >= 8.  The projection matters: the phase factor spreads m's modes, and
    it nearly jumps where |phi| is small (in regime 1a at N = 128, 11-44% of
    the product's energy lies above |j| = 16), which the adaptive stepper
    would resolve at a cost of thousands of steps.
    """
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if nu == 0:
        return phi
    n = phi.grid.num_modes
    if n < 8:
        raise ValueError(f"a perturbation needs N >= 8 grid modes, got N = {n}")
    band = min(16, n // 8)
    m = random_band_limited(phi.grid, seed, band)
    aligned = WaveField(phi.grid, m.samples * np.exp(1j * np.angle(phi.samples)))
    c = np.where(np.abs(phi.grid.modes) <= band, aligned.coeffs, 0.0)
    p = WaveField.from_coeffs(phi.grid, c / np.linalg.norm(c))
    return WaveField(phi.grid, phi.samples + nu * p.samples)


# ---------------------------------------------------------------------------
# CSV export


def write_trajectory_csv(traj: Trajectory, path):
    """Long format: one row per (t, grid index) with Re/Im of the state."""
    index = range(traj.samples.shape[1])
    write_csv(path, ("t", "x_index", "re_psi", "im_psi"),
              (([t] * len(index), index, row.real.tolist(), row.imag.tolist())
               for t, row in zip(traj.times.tolist(), traj.samples)))


def write_summary_csv(traj: Trajectory, path, deviation: np.ndarray):
    """Per-snapshot mass, energy and orbit ``deviation`` (see deviation_from)."""
    write_csv(path, ("t", "mass", "energy", "mod_deviation"),
              [(traj.times.tolist(), traj.mass.tolist(), traj.energy.tolist(),
                deviation.tolist())])
