"""Exact traveling-wave states of the periodic (non)local GP equation.

For the potential V(x) = V0 sin^2(kx) the equation admits the stationary
profile (in the frame rotating at frequency omega)

    phi(x) = sqrt(B) cos(kx) + i sqrt(B+A) sin(kx),

where A = -V0/(alpha*beta(k; eps)) and beta is the kernel multiplier at
s = 2k.  The family exists whenever beta != 0 and B >= max(-A, 0):
:func:`solution_params` checks a tuple once, and :func:`build_solution`
samples phi, a plain WaveField, on a grid holding whole wave periods 2*pi/k;
the caller keeps the parameters beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .spectral import PeriodicGrid, WaveField


class BetaZeroError(ValueError):
    """beta(k; eps) vanishes, so A = -V0/(alpha*beta) is undefined."""


class OffsetTooSmallError(ValueError):
    """The offset B violates B >= max(-A, 0)."""


class PeriodMismatchError(ValueError):
    """Grid period is not an integer multiple of the solution period 2*pi/k."""


_BETA_FLOOR = 1e-12


@dataclass(frozen=True)
class SineSquared:
    """Potential V(x) = V0 sin^2(kx); V0 = 0 is no potential."""

    V0: float
    k: float

    def values(self, grid: PeriodicGrid) -> np.ndarray:
        # sin^2(kx) has period pi/k; it must tile the grid period.
        ratio = grid.period * self.k / np.pi
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"potential period pi/k = {np.pi/self.k!r} does not divide "
                f"grid period {grid.period!r}"
            )
        return self.V0 * np.sin(self.k * grid.points) ** 2


@dataclass(frozen=True)
class SolutionParams:
    """Inputs (B, V0, k, alpha, kernel) with the derived (beta, A, D, omega).

    Build through :func:`solution_params`; the constructor does not validate.
    D = sqrt(1 + A/B) is None at B = 0, where the modulus has no background
    offset and the linearization uses the canonical block form directly.
    """

    B: float
    V0: float
    k: float
    alpha: int
    kernel: kernels.ScaledKernel
    beta: float
    A: float
    D: float | None
    omega: float


def solution_params(B, V0, k, alpha, kernel: kernels.ScaledKernel) -> SolutionParams:
    """Validate the input tuple and fill in beta, A, D, omega."""
    if k <= 0:
        raise ValueError(f"wavenumber k must be positive, got {k}")
    if alpha not in (+1, -1):
        raise ValueError(f"alpha must be +1 or -1, got {alpha}")
    if B < 0:
        raise OffsetTooSmallError(f"offset B must be nonnegative, got {B}")
    bta = kernels.beta(kernel, k)
    if V0 == 0.0:
        # A = -V0/(alpha beta) and the V0/(2 beta) frequency term both vanish
        # identically, so a degenerate beta (huge eps) is harmless here.
        A = 0.0
        omega_pot = 0.0
    else:
        if abs(bta) < _BETA_FLOOR:
            raise BetaZeroError(
                f"beta(k={k}, eps={kernel.epsilon}) = {bta:.3e} vanishes; "
                "the solution family is undefined there"
            )
        A = -V0 / (alpha * bta)
        omega_pot = -V0 / (2.0 * bta)
    if B < max(-A, 0.0) - 1e-12:
        raise OffsetTooSmallError(
            f"need B >= max(-A, 0) = {max(-A, 0.0):.6g}, got B = {B}"
        )
    D = float(np.sqrt(1.0 + A / B)) if B > 0 else None
    omega = (V0 + k**2) / 2.0 + alpha * B + omega_pot
    # For kernels of non-unit mass, stationarity shifts the rotation frequency
    # by a constant: the textbook formula above assumes zeta_hat(0) = 1.
    zh0 = float(kernel.base.zeta_hat(0.0))
    omega += alpha * (zh0 - 1.0) * (B + A / 2.0)
    return SolutionParams(float(B), float(V0), float(k), int(alpha), kernel,
                          float(bta), float(A), D, float(omega))


def build_solution(params: SolutionParams, grid: PeriodicGrid) -> WaveField:
    """The stationary profile phi of ``params`` (from :func:`solution_params`)
    on ``grid``, whose period must be a whole number of wave periods."""
    ratio = grid.period * params.k / (2.0 * np.pi)
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise PeriodMismatchError(
            f"grid period {grid.period!r} is not an integer multiple of 2*pi/k = "
            f"{2*np.pi/params.k!r}"
        )
    x = grid.points
    samples = (np.sqrt(params.B) * np.cos(params.k * x)
               + 1j * np.sqrt(params.B + params.A) * np.sin(params.k * x))
    return WaveField(grid, samples)


def stationary_residual(params: SolutionParams, phi: WaveField) -> float:
    """L2 norm of -phi''/2 + alpha*phi*(R*|phi|^2) + V*phi - omega*phi.

    Evaluated pseudo-spectrally; for the band-limited exact profile this
    measures discretization error only and sits near machine precision.
    """
    grid = phi.grid
    lap = phi.derivative(2)
    modsq = WaveField(grid, np.abs(phi.samples) ** 2)
    conv = kernels.convolve_periodic(params.kernel, modsq)
    V = SineSquared(params.V0, params.k).values(grid)
    r = (-0.5 * lap.samples
         + params.alpha * phi.samples * conv.samples
         + V * phi.samples
         - params.omega * phi.samples)
    return WaveField(grid, r).l2_norm()
