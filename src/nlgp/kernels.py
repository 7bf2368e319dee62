"""Nonlocality kernels, their Fourier multipliers, and hypothesis validators.

A kernel is an even profile zeta(x) >= 0 on the line; the scaled family
R(x; eps) = zeta(x/eps)/eps concentrates to a delta function as eps -> 0.
Convolution of a T-periodic field against R acts mode-wise through the
multiplier R_hat(s; eps) = zeta_hat(eps*s), with zeta_hat the transform
zeta_hat(s) = integral exp(-i*s*x) zeta(x) dx.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, kv

from .spectral import WaveField


class NonpositiveMultiplierError(ValueError):
    """A computation required zeta_hat > 0 but the kernel violates it."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel profile with its transform.

    ``zeta_hat`` is a vectorised closed form (or, for tabulated kernels, an
    interpolant): it takes scalars or arrays of s.
    """

    family: str
    zeta: callable
    zeta_hat: callable

    @classmethod
    def gaussian_normalized(cls) -> "KernelSpec":
        """zeta = exp(-x^2)/sqrt(pi), unit mass, zeta_hat(s) = exp(-s^2/4)."""
        return cls(
            family="gaussian-normalized",
            zeta=lambda x: np.exp(-np.asarray(x, float) ** 2) / np.sqrt(np.pi),
            zeta_hat=lambda s: np.exp(-np.asarray(s, float) ** 2 / 4.0),
        )

    @classmethod
    def gaussian_raw(cls) -> "KernelSpec":
        """zeta = exp(-x^2) with mass sqrt(pi); violates the unit-mass hypothesis."""
        return cls(
            family="gaussian-raw",
            zeta=lambda x: np.exp(-np.asarray(x, float) ** 2),
            zeta_hat=lambda s: np.sqrt(np.pi) * np.exp(-np.asarray(s, float) ** 2 / 4.0),
        )

    @classmethod
    def algebraic_decay(cls, p: float) -> "KernelSpec":
        """zeta proportional to (1+x^2)^(-p/2), normalized to unit mass.

        Needs 1 < p <= 80 (integrability; see the check for the upper
        bound).  The transform is Basset's integral (DLMF 10.32.11): with
        nu = (p-1)/2,
        zeta_hat(s) = 2^(1-nu)/Gamma(nu) * |s|^nu * K_nu(|s|), which tends
        to 1 as s -> 0.
        """
        if not 1 < p <= 80:
            # beyond p = 80, K_nu overflows near s = 0 while zeta_hat is
            # still more than ~1e-14 below its limit 1 there
            raise ValueError(f"algebraic decay needs 1 < p <= 80, got p={p}")
        nu = (p - 1.0) / 2.0
        c = gamma(p / 2.0) / (np.sqrt(np.pi) * gamma(nu))
        c_hat = 2.0 ** (1.0 - nu) / gamma(nu)
        zeta = lambda x: c * (1.0 + np.asarray(x, float) ** 2) ** (-p / 2.0)

        def zeta_hat(s):
            a = np.abs(np.asarray(s, float))
            with np.errstate(invalid="ignore", over="ignore"):
                val = c_hat * (a**nu * kv(nu, a))
            # 0 * inf where a^nu underflows and K_nu overflows (s -> 0, limit
            # 1) or the reverse (s -> inf, limit 0)
            return np.where(np.isfinite(val), val, np.where(a < 1.0, 1.0, 0.0))[()]

        return cls(family=f"algebraic:{p:g}", zeta=zeta, zeta_hat=zeta_hat)

    @classmethod
    def from_table(cls, path) -> "KernelSpec":
        """Tabulated (s, zeta_hat(s)) CSV, linearly interpolated, even in s.

        The profile itself is reconstructed by a trapezoid inverse transform
        over the tabulated range; it is approximate and only used by the
        hypothesis validators.
        """
        s_tab, zh_tab = _read_table(path)
        zh = lambda s: np.interp(np.abs(np.asarray(s, float)), s_tab, zh_tab)

        def zeta(x):
            # zeta(x) = (1/pi) * integral_0^inf zeta_hat(s) cos(s x) ds, in
            # chunks of x so no (points x rows) temporary exceeds ~2 MB
            x = np.asarray(x, float)
            flat = x.ravel()
            out = np.empty(flat.size)
            step = max(1, (1 << 18) // s_tab.size)
            for i in range(0, flat.size, step):
                cos = np.cos(np.multiply.outer(flat[i:i + step], s_tab))
                out[i:i + step] = np.trapezoid(zh_tab * cos, s_tab, axis=-1)
            return out.reshape(x.shape)[()] / np.pi

        return cls(family=f"custom:{path}", zeta=zeta, zeta_hat=zh)


def _read_table(path):
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            rows.append((float(row[0]), float(row[1])))
    if len(rows) < 2:
        raise ValueError(f"kernel table {path} needs at least two (s, zeta_hat) rows")
    rows.sort()
    s_tab = np.array([r[0] for r in rows])
    zh_tab = np.array([r[1] for r in rows])
    if s_tab[0] < 0:
        raise ValueError("tabulate zeta_hat on s >= 0 only (it is even in s)")
    return s_tab, zh_tab


def kernel_from_name(name: str) -> KernelSpec:
    """Parse a kernel selection string used by configs and the CLI."""
    if name == "gaussian-normalized":
        return KernelSpec.gaussian_normalized()
    if name == "gaussian-raw":
        return KernelSpec.gaussian_raw()
    if name.startswith("algebraic:"):
        return KernelSpec.algebraic_decay(float(name.split(":", 1)[1]))
    if name.startswith("custom:"):
        return KernelSpec.from_table(name.split(":", 1)[1])
    raise ValueError(
        f"unknown kernel {name!r}; expected gaussian-normalized, gaussian-raw, "
        "algebraic:p, or custom:path"
    )


@dataclass(frozen=True)
class ScaledKernel:
    """A base kernel at nonlocality scale eps >= 0 (eps = 0 is the delta limit)."""

    base: KernelSpec
    epsilon: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")


def multiplier(kern: ScaledKernel, s) -> float | np.ndarray:
    """Fourier symbol of convolution against R(.; eps): zeta_hat(eps*s)."""
    return kern.base.zeta_hat(kern.epsilon * np.asarray(s, dtype=float))


def convolve_periodic(kern: ScaledKernel, f: WaveField) -> WaveField:
    """R_eps * f computed coefficient-wise: c_j -> c_j * zeta_hat(eps*2*pi*j/T)."""
    grid = f.grid
    mult = multiplier(kern, 2.0 * np.pi * grid.modes / grid.period)
    return WaveField.from_coeffs(grid, f.coeffs * mult)


def beta(kern: ScaledKernel, k: float) -> float:
    """beta(k; eps) = integral R(x; eps) cos(2kx) dx = multiplier at s = 2k."""
    if k <= 0:
        raise ValueError(f"wavenumber k must be positive, got {k}")
    return float(multiplier(kern, 2.0 * k))


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first call: importing nlgp skips it."""
    from scipy.integrate import quad
    return quad(*args, **kwargs)


def x_weighted_l1(base: KernelSpec) -> float:
    """||x zeta(x)||_L1 by quadrature (the Lipschitz constant of the multiplier)."""
    val, _ = quad(lambda x: x * base.zeta(x), 0, np.inf, epsabs=1e-12, limit=200)
    return 2.0 * val


# ---------------------------------------------------------------------------
# Hypothesis validators


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    kernel_family: str
    which: str
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        mark = {True: "pass", False: "FAIL"}
        return [f"{c.name}: {mark[c.passed]}  ({c.detail})" for c in self.checks]


_SAMPLE_X = np.linspace(-30.0, 30.0, 4001)


def _check_nonnegative(zeta) -> HypothesisCheck:
    vals = np.asarray(zeta(_SAMPLE_X), float)
    ok = bool(np.min(vals) >= -1e-12)
    return HypothesisCheck("nonnegativity", ok, f"min zeta on lattice = {np.min(vals):.3e}")


def _check_even(zeta) -> HypothesisCheck:
    x = _SAMPLE_X[_SAMPLE_X > 0]
    gap = float(np.max(np.abs(np.asarray(zeta(x)) - np.asarray(zeta(-x)))))
    return HypothesisCheck("evenness", gap <= 1e-12, f"max |zeta(x)-zeta(-x)| = {gap:.3e}")


def _check_unit_mass(zeta) -> HypothesisCheck:
    mass, _ = quad(zeta, 0, np.inf, epsabs=1e-12, limit=200)
    mass *= 2.0
    ok = abs(mass - 1.0) <= 1e-8
    return HypothesisCheck("unit L1 mass", bool(ok), f"integral zeta = {mass:.10f}")


def _check_first_moment(zeta) -> HypothesisCheck:
    try:
        val, err, _, *flag = quad(lambda x: x * zeta(x), 0, np.inf, epsabs=1e-10,
                                  limit=200, full_output=1)
    except Exception as exc:  # quadrature blew up: treat as non-integrable
        return HypothesisCheck("x*zeta integrable", False, f"quadrature failed: {exc}")
    # QUADPACK can flag a divergent integral (ier > 0, message returned) while
    # its error estimate stays small, as for x^-1/2 tails
    ok = not flag and np.isfinite(val) and val > 0 and err < 1e-6 * max(1.0, abs(val))
    detail = f"||x zeta||_L1 = {2*val:.6g}"
    if flag:
        detail += f" (QUADPACK: {flag[0].splitlines()[0]})"
    return HypothesisCheck("x*zeta integrable", bool(ok), detail)


def _check_decay_envelope(zeta_hat, label: str) -> HypothesisCheck:
    """Fit |zeta_hat(s)| ~ (1+s)^(-q) over s in [1, 1e3]; need q > 1/2 + 1e-3."""
    s = np.logspace(0.0, 3.0, 60)
    vals = np.abs(np.asarray(zeta_hat(s), float))
    keep = vals > 1e-280  # underflowed tails carry no slope information
    if keep.sum() < 5:
        # decays so fast the samples underflow almost immediately: passes trivially
        return HypothesisCheck(label, True, "transform underflows by s ~ 1 (superfast decay)")
    slope = np.polyfit(np.log(1.0 + s[keep]), np.log(vals[keep]), 1)[0]
    q = -slope
    ok = q >= 0.5 + 1e-3
    return HypothesisCheck(label, bool(ok), f"fitted decay exponent q = {q:.4f} (need > 0.501)")


def _check_transform_positive(zeta_hat) -> HypothesisCheck:
    s = np.linspace(0.0, 50.0, 2001)
    vals = np.asarray(zeta_hat(s), float)
    mn = float(np.min(vals))
    return HypothesisCheck("zeta_hat > 0", mn > 0.0, f"min zeta_hat on [0,50] = {mn:.3e}")


def validate_hypotheses(kern: ScaledKernel, which: str = "H") -> ValidationReport:
    """Numerically audit the kernel hypotheses.

    which = "H": nonnegativity, unit mass, first-moment integrability, and the
    transform decay envelope.  which = "Hprime": nonnegativity + evenness +
    unit mass, strict positivity of zeta_hat, and the same decay envelope.
    Failures land in the report; nothing raises.
    """
    z = kern.base.zeta
    zh = kern.base.zeta_hat
    if which == "H":
        checks = (
            _check_nonnegative(z),
            _check_unit_mass(z),
            _check_first_moment(z),
            _check_decay_envelope(zh, "transform decay envelope"),
        )
    elif which == "Hprime":
        checks = (
            _check_nonnegative(z),
            _check_even(z),
            _check_unit_mass(z),
            _check_transform_positive(zh),
            _check_decay_envelope(zh, "transform decay envelope"),
        )
    else:
        raise ValueError(f"which must be 'H' or 'Hprime', got {which!r}")
    return ValidationReport(kern.base.family, which, checks)
