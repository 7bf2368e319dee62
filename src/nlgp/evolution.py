"""Pseudo-spectral time evolution of the (non)local GP equation.

The integrated system is  i psi_t = -psi_xx/2 + alpha*psi*(R*|psi|^2) + V*psi,
with the convolution acting as a Fourier multiplier on |psi|^2.  Only the
modes |j| < N/4 are evolved, where the N-point grid aliases none of these
terms (Orszag's rule for a cubic term): the right-hand side is the exact
Fourier-Galerkin one, which conserves mass and energy.  The local cubic
equation is the kernel at eps = 0: the unit-mass kernel's multiplier is then
exactly 1, and any constant multiplier is applied pointwise, without the
convolution's FFT pair.

The flow is stepped in integrating-factor form: the stiff Laplacian symbol
is applied exactly through u = exp(i*|kappa|^2*t/2) * psi_hat, and the
adaptive Dormand-Prince 8(5,3) solver below integrates only the band's
nonlinear and potential terms.  Each run is one call of that solver, whose
snapshots are its dense output at the record times, with steps capped at
record_every.  The solver and the right-hand side allocate their work arrays
once per call and write into them, with the arithmetic of scipy's DOP853
kept operation for operation, so that the results equal scipy's bit for bit.
The grid is the initial state's: a config holds only the equation and the
solver settings.
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
from .spectral import PeriodicGrid, WaveField, _fft, _ifft
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
    rtol: float = 1e-10  # Dormand-Prince 8(5,3) tolerances
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


# Dormand-Prince 8(5,3), Hairer's dop853 (Hairer, Norsett & Wanner, II.10)
# in doubles, as scipy's DOP853 holds it: nodes _C; stage rows _A, of which
# rows 1-11 are the step's stages, row 12 its weights and rows 13-15 the
# dense output's extra stages; error weights _E5 and _E3 = weights - bhh (the
# FSAL stage last); and the last four of the interpolant's seven rows, _D
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
               0.7777777777777778])
_A = np.zeros((16, 16))
_A[1, :1] = 0.05260015195876773
_A[2, :2] = 0.0197250569845379, 0.0591751709536137
_A[3, [0, 2]] = 0.02958758547680685, 0.08876275643042054
_A[4, [0, 2, 3]] = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A[5, [0, 3, 4]] = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_A[6, [0, 3, 4, 5]] = (0.037109375, 0.17025221101954405, 0.06021653898045596,
                       -0.017578125)
_A[7, [0, 3, 4, 5, 6]] = (0.03709200011850479, 0.17038392571223998,
                          0.10726203044637328, -0.015319437748624402,
                          0.008273789163814023)
_A[8, [0, 3, 4, 5, 6, 7]] = (0.6241109587160757, -3.3608926294469414,
                             -0.868219346841726, 27.59209969944671,
                             20.154067550477894, -43.48988418106996)
_A[9, [0, 3, 4, 5, 6, 7, 8]] = (0.47766253643826434, -2.4881146199716677,
                                -0.590290826836843, 21.230051448181193,
                                15.279233632882423, -33.28821096898486,
                                -0.020331201708508627)
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = (-0.9371424300859873, 5.186372428844064,
                                    1.0914373489967295, -8.149787010746927,
                                    -18.52006565999696, 22.739487099350505,
                                    2.4936055526796523, -3.0467644718982196)
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = (2.273310147516538, -10.53449546673725,
                                        -2.0008720582248625, -17.9589318631188,
                                        27.94888452941996, -2.8589982771350235,
                                        -8.87285693353063, 12.360567175794303,
                                        0.6433927460157636)
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = (0.054293734116568765, 4.450312892752409,
                                      1.8915178993145003, -5.801203960010585,
                                      0.3111643669578199, -0.1521609496625161,
                                      0.20136540080403034, 0.04471061572777259)
_A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = (0.056167502283047954, 0.25350021021662483,
                                       -0.2462390374708025, -0.12419142326381637,
                                       0.15329179827876568, 0.00820105229563469,
                                       0.007567897660545699, -0.008298)
_A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = (0.03183464816350214, 0.028300909672366776,
                                        0.053541988307438566, -0.05492374857139099,
                                        -0.00010834732869724932,
                                        0.0003825710908356584,
                                        -0.00034046500868740456, 0.1413124436746325)
_A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = (-0.42889630158379194, -4.697621415361164,
                                       7.683421196062599, 4.06898981839711,
                                       0.3567271874552811, -0.0013990241651590145,
                                       2.9475147891527724, -9.15095847217987)
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (0.01312004499419488, -1.2251564463762044,
                                   -0.4957589496572502, 1.6643771824549864,
                                   -0.35032884874997366, 0.3341791187130175,
                                   0.08192320648511571, -0.022355307863886294)
_E3 = np.append(_A[12, :12], 0.0)
_E3[[0, 8, 11]] -= 0.2440944881889764, 0.7338466882816118, 0.022058823529411766
_D = np.zeros((4, 16))
_D[:, [0, *range(5, 16)]] = (
    (-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412,
     84.32040550667716, 11.99229113618279),
    (-25.69393346270375, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564))


def _norm(x):  # np.linalg.norm(x), summed as np.linalg.norm sums
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _rms(x):  # np.linalg.norm(x) / sqrt(x.size)
    return _norm(x) / x.size**0.5


def solve_ivp(fun, t_span, y0, *, rtol, atol, t_eval, max_step):
    """Dormand-Prince 8(5,3) with FSAL forward over t_span, sampled at the
    sorted t_eval by its seventh-order dense output (Hairer, Norsett & Wanner,
    II.10).  A step makes 12 calls of ``fun``; a step that covers a record
    makes 3 more, for the interpolant.

    Initial step, error norm |h|*|e5|^2/sqrt((|e5|^2 + 0.01*|e3|^2)*n),
    controller and interpolant are scipy's DOP853, operation for operation,
    so ``t``, ``y`` (n by len(t)) and ``nfev`` equal
    ``scipy.integrate.solve_ivp(method="DOP853")``'s bit for bit, although
    the work arrays are allocated once per call and written in place (``fun``
    must not keep the stage input it is given).  Name and call shape are
    scipy's too: the benchmark tracer wraps this attribute, times ``fun`` as
    the right-hand side and reads ``nfev``, and the stall tests replace it.
    """
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=np.result_type(y0, float))
    n = y.size
    rtol = max(rtol, 100 * np.finfo(float).eps)
    f = fun(t, y)
    abs_y = np.abs(y)
    scale = atol + abs_y * rtol  # initial step for error order 7
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 8))
    h_abs = min(100 * h0, h1, t_bound - t, max_step)
    # the tableau cast to y's type as scipy's mixed-type np.dot casts it; per
    # stage: node, the slopes so far as columns, tableau row, the stage's row.
    # K holds the 12 stages, the FSAL slope and the 3 interpolation stages;
    # F the interpolant's coefficients
    K, F = np.empty((16, n), y.dtype), np.empty((7, n), y.dtype)
    x, err5, err3 = np.empty((3, n), y.dtype)
    A, E5, E3, D = (m.astype(y.dtype) for m in (_A, _E5, _E3, _D))
    stages = [(_C[s].item(), K[:s].T, A[s, :s], K[s]) for s in range(16)]
    step, extra, slopes, b = stages[1:12], stages[13:], K[:13].T, A[12, :12]
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
            for c, k_prev, a, k in step:
                np.multiply(np.dot(k_prev, a, out=x), h, out=x)
                k[...] = fun(t + c * h, np.add(y, x, out=x))
            y_new = np.dot(K[:12].T, b)
            np.add(y, np.multiply(h, y_new, out=y_new), out=y_new)
            K[12] = f_new = fun(t + h, y_new)  # f survives a rejected attempt
            nfev += 12
            np.maximum(abs_y, np.abs(y_new, out=abs_new), out=scale)
            np.add(atol, np.multiply(scale, rtol, out=scale), out=scale)
            e5 = _norm(np.divide(np.dot(slopes, E5, out=err5), scale, out=err5))**2
            e3 = _norm(np.divide(np.dot(slopes, E3, out=err3), scale, out=err3))**2
            error_norm = (abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * n)
                          if e5 or e3 else 0.0)
            if error_norm < 1:  # accept; grow at most 10x, not at all after a retry
                factor = min(10, 0.9 * error_norm**-0.125) if error_norm else 10
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs, rejected = h_abs * max(0.2, 0.9 * error_norm**-0.125), True
        else:
            message = "Required step size is less than spacing between numbers."
            break
        j = bisect.bisect_right(times, t_new)
        if j > i:  # the records this step covers
            for c, k_prev, a, k in extra:
                np.multiply(np.dot(k_prev, a, out=x), h, out=x)
                k[...] = fun(t + c * h, np.add(y, x, out=x))
            nfev += 3
            np.subtract(y_new, y, out=F[0])
            np.subtract(np.multiply(h, K[0], out=F[1]), F[0], out=F[1])
            np.multiply(h, np.add(f_new, K[0], out=x), out=x)
            np.subtract(np.multiply(2, F[0], out=F[2]), x, out=F[2])
            np.multiply(h, np.dot(D, K, out=F[3:]), out=F[3:])
            frac = ((t_eval[i:j] - t) / h)[:, None]
            y_rec = np.zeros((j - i, n), y.dtype)
            for q, row in enumerate(F[::-1]):  # y + sum of F[q]*x^a*(1 - x)^b
                y_rec += row
                y_rec *= frac if q % 2 == 0 else 1 - frac
            y_rec += y
            ys.append(y_rec.T)
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
        # -i on |j| < N/4, where psi*(R*|psi|^2 + V) aliases nowhere (V's
        # harmonic 2n < N/2, see waves.build_solution), and 0 outside, Nyquist too
        self.band_i = -1j * (4 * np.abs(j) < N)
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
        node-1 stage and its FSAL slope at the same t + h."""
        if t != self._phase[0]:
            half = np.multiply(self.i_half_ksq_half, t, out=self._half)
            np.exp(half, out=half).take(self.fold, out=self._e, mode="clip")
            self._phase = t, self._e
        return self._phase[1]

    def rhs(self, t, u):
        """u' = e*band_i*FFT(psi*(alpha*(R*|psi|^2) + V)) at psi = IFFT(u/e),
        e = exp(i*half_ksq*t): -i times the nonlinear and potential terms on
        |j| < N/4 in the integrating-factor variable u = e*psi_hat.  Only the
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
        self.last = t, np.multiply(e, np.multiply(self.band_i, hat, out=hat))
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
    snapshots every record_every.  psi0's coefficients outside the evolved
    band |j| < N/4 follow only the free flow.

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

    The band is the published runs' 16 modes, or fewer where they would
    leave the inner half of the evolved band |j| < N/4.  So a perturbation
    needs N >= 8.  The projection matters: the phase factor spreads m's
    modes, and it nearly jumps where |phi| is small (in regime 1a at N = 128,
    11-44% of the product's energy lies above |j| = 16), which the adaptive
    stepper would resolve at a cost of thousands of steps.
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
