"""Uniform periodic grids, Fourier coefficient transforms, norms, and the filter.

Fields live on the circle of circumference T, sampled at x_m = m*T/N.  The
coefficient view expands a field in the orthonormal basis

    e_j(x) = exp(-2*pi*i*j*x/T) / sqrt(T),    j = -N/2 .. N/2-1,

so that f = sum_j c_j e_j with c_j = integral f(x) conj(e_j(x)) dx.  The DFT
evaluates that integral exactly for band-limited fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MACHINE_EPS = float(np.finfo(float).eps)


# np.fft.fft/ifft along the last axis: the pocketfft gufuncs numpy calls for
# them, with the same arguments, so bit for bit the same without numpy's
# per-call argument handling; looked up per call so that importing nlgp does
# not import numpy.fft
def _fft(a, out=None):
    out = np.empty(a.shape, complex) if out is None else out
    return np.fft._pocketfft_umath.fft(a, 1.0, out=out)


def _ifft(a, out=None):
    out = np.empty(a.shape, complex) if out is None else out
    return np.fft._pocketfft_umath.ifft(a, 1.0 / a.shape[-1], out=out)


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid of ``num_modes`` points on a circle of circumference ``period``."""

    period: float
    num_modes: int

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.num_modes < 4 or self.num_modes % 2 != 0:
            raise ValueError(f"num_modes must be even and >= 4, got {self.num_modes}")

    @cached_property
    def points(self) -> np.ndarray:
        x = np.arange(self.num_modes) * (self.period / self.num_modes)
        x.setflags(write=False)
        return x

    @cached_property
    def modes(self) -> np.ndarray:
        """Mode indices j = -N/2 .. N/2-1 in ascending order."""
        j = np.arange(-self.num_modes // 2, self.num_modes // 2)
        j.setflags(write=False)
        return j

    @property
    def spacing(self) -> float:
        return self.period / self.num_modes


@dataclass(frozen=True, eq=False)
class WaveField:
    """Complex periodic field with sample and Fourier-coefficient views.

    Immutable: every operation returns a new instance.  The coefficient array
    is ordered like ``grid.modes`` (j = -N/2 .. N/2-1).
    """

    grid: PeriodicGrid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        s = np.ascontiguousarray(self.samples, dtype=complex)
        if s.shape != (self.grid.num_modes,):
            raise ValueError(
                f"samples shape {s.shape} does not match grid with N={self.grid.num_modes}"
            )
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @classmethod
    def from_coeffs(cls, grid: PeriodicGrid, coeffs) -> "WaveField":
        c = np.array(coeffs, dtype=complex)  # a copy: it is the field's coeffs
        if c.shape != (grid.num_modes,):
            raise ValueError(f"coeffs shape {c.shape} does not match grid")
        f = cls(grid, _fft(np.fft.ifftshift(c)) / np.sqrt(grid.period))
        c.setflags(write=False)
        f.__dict__["coeffs"] = c  # primes the cached property
        return f

    @classmethod
    def basis_mode(cls, grid: PeriodicGrid, j: int) -> "WaveField":
        """The orthonormal basis field e_j."""
        x = grid.points
        return cls(grid, np.exp(-2j * np.pi * j * x / grid.period) / np.sqrt(grid.period))

    @cached_property
    def coeffs(self) -> np.ndarray:
        c = np.sqrt(self.grid.period) * np.fft.fftshift(_ifft(self.samples))
        c.setflags(write=False)
        return c

    # -- norms ------------------------------------------------------------

    def l2_norm(self) -> float:
        """L2 norm via Parseval on the coefficients."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def linf_norm(self) -> float:
        """Sup norm evaluated on the grid samples (a grid functional)."""
        return float(np.max(np.abs(self.samples)))

    def hs_norm(self, s: float) -> float:
        """Sobolev H_s norm, sqrt(sum <j>^s |c_j|^2), <j> = 1 + 4 pi^2 j^2 / T^2; s >= 0."""
        if s < 0:
            raise ValueError(f"Sobolev order must be nonnegative, got s={s}")
        bracket = 1.0 + 4.0 * np.pi**2 * self.grid.modes.astype(float) ** 2 / self.grid.period**2
        return float(np.sqrt(np.sum(bracket**s * np.abs(self.coeffs) ** 2)))

    # -- calculus ---------------------------------------------------------

    def derivative(self, order: int = 1) -> "WaveField":
        """Spectral derivative: coefficient j picks up (-2*pi*i*j/T)^order."""
        sym = (-2j * np.pi * self.grid.modes / self.grid.period) ** order
        return WaveField.from_coeffs(self.grid, self.coeffs * sym)


def filter_multipliers(grid: PeriodicGrid) -> np.ndarray:
    """Exponential filter exp(ln(eps_mach) * (|j|/(N/2))^8) on grid.modes.

    The highest retained mode is damped to machine epsilon while the j = 0
    mode passes through unchanged.
    """
    eta = np.abs(grid.modes) / (grid.num_modes // 2)
    return np.exp(np.log(MACHINE_EPS) * eta**8)
