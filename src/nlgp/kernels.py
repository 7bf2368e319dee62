"""Nonlocality kernels, their Fourier multipliers, and hypothesis validators.

A kernel is an even profile zeta(x) >= 0 on the line; the scaled family
R(x; eps) = zeta(x/eps)/eps concentrates to a delta function as eps -> 0.
Convolution of a T-periodic field against R acts mode-wise through the
multiplier R_hat(s; eps) = zeta_hat(eps*s), with zeta_hat the transform
zeta_hat(s) = integral exp(-i*s*x) zeta(x) dx.

The algebraic kernel's a^nu K_nu(a) uses Temme's series (J. Comput. Phys. 19
(1975) 324-337) and a trapezoid rule (Trefethen & Weideman, SIAM Review 56
(2014) 385-458).  Each family states its first moment ||x zeta||_L1, so no
validator integrates; csv is imported only to read a tabulated kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import WaveField


@dataclass(frozen=True)
class KernelSpec:
    """Kernel profile with its transform.

    ``zeta_hat`` is a vectorised closed form (or, for tabulated kernels, an
    interpolant): it takes scalars or arrays of s.  ``decreasing`` states that
    zeta_hat is non-increasing in |s|, so its minimum over an interval of s
    sits at the end farthest from 0; only the built-in families set it.
    ``first_moment`` is ||x zeta||_L1, so |zeta_hat(eps s) - zeta_hat(0)| <= eps |s|
    first_moment; inf (the default: diverges or not stated) fails hypothesis H.
    """

    family: str
    zeta: callable
    zeta_hat: callable
    decreasing: bool = False
    first_moment: float = math.inf

    @classmethod
    def gaussian_normalized(cls) -> "KernelSpec":
        """zeta = exp(-x^2)/sqrt(pi), unit mass, zeta_hat(s) = exp(-s^2/4)."""
        return cls(
            family="gaussian-normalized",
            zeta=lambda x: np.exp(-np.asarray(x, float) ** 2) / np.sqrt(np.pi),
            zeta_hat=lambda s: np.exp(-np.asarray(s, float) ** 2 / 4.0),
            decreasing=True,  # exp(-s^2/4) decreases in |s|
            first_moment=1.0 / math.sqrt(math.pi),
        )

    @classmethod
    def gaussian_raw(cls) -> "KernelSpec":
        """zeta = exp(-x^2) with mass sqrt(pi); violates the unit-mass hypothesis."""
        return cls(
            family="gaussian-raw",
            zeta=lambda x: np.exp(-np.asarray(x, float) ** 2),
            zeta_hat=lambda s: np.sqrt(np.pi) * np.exp(-np.asarray(s, float) ** 2 / 4.0),
            decreasing=True,  # as exp(-s^2/4)
            first_moment=1.0,
        )

    @classmethod
    def algebraic_decay(cls, p: float) -> "KernelSpec":
        """zeta proportional to (1+x^2)^(-p/2), normalized to unit mass.

        Needs 1 < p <= 80 (integrability; see the check for the upper
        bound).  The transform is Basset's integral (DLMF 10.32.11): with
        nu = (p-1)/2,
        zeta_hat(s) = 2^(1-nu)/Gamma(nu) * |s|^nu * K_nu(|s|), which tends
        to 1 as s -> 0.  It decreases in |s|: d/ds[s^nu K_nu(s)] =
        -s^nu K_(nu-1)(s) < 0 (DLMF 10.29.4).  With c the normalization,
        ||x zeta||_L1 = 2c/(p-2) for p > 2, inf for p <= 2.  ``_power_kv`` gives
        |s|^nu K_nu(|s|) by Temme's series (1975) and a trapezoid rule
        (Trefethen & Weideman 2014).
        """
        if not 1 < p <= 80:
            # the transform is checked against quadrature up to p = 80
            raise ValueError(f"algebraic decay needs 1 < p <= 80, got p={p}")
        nu = (p - 1.0) / 2.0
        c = math.gamma(p / 2.0) / (math.sqrt(math.pi) * math.gamma(nu))
        c_hat = 2.0 ** (1.0 - nu) / math.gamma(nu)
        power_kv = _power_kv(nu)
        zeta = lambda x: c * (1.0 + np.asarray(x, float) ** 2) ** (-p / 2.0)

        def zeta_hat(s):
            a = np.abs(np.asarray(s, float))
            out = np.ones(a.shape)  # the limit 1 at s = 0
            nonzero = a != 0.0
            if nonzero.any():
                # past a = 750, e^-a and so zeta_hat are 0
                out[nonzero] = c_hat * power_kv(np.minimum(a[nonzero], 750.0))
            return np.minimum(out, 1.0)[()]  # rounding must not lift it past zeta_hat(0)

        return cls(family=f"algebraic:{p:g}", zeta=zeta, zeta_hat=zeta_hat, decreasing=True,
                   first_moment=2.0 * c / (p - 2.0) if p > 2 else math.inf)

    @classmethod
    def from_table(cls, path) -> "KernelSpec":
        """Tabulated (s, zeta_hat(s)) CSV, one finite pair per row at distinct s >= 0,
        linearly interpolated, even in s.

        The profile itself is reconstructed by a trapezoid inverse transform
        over the tabulated range; it is approximate and only used by the
        hypothesis validators.  The first moment is inf: each kink of the
        piecewise-linear zeta_hat the engines use, s = 0 of its even extension
        included, adds a cos(s_i x)/x^2 term to zeta, so x zeta is not in L1.
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


# Gamma1(mu) = (1/Gamma(1-mu) - 1/Gamma(1+mu))/(2 mu) by its even Taylor series
# (odd coefficients of 1/Gamma(1+z)), free of the difference's cancellation
# as mu -> 0; the terms left out are below 1e-18 at |mu| = 1/2
_GAMMA1 = (-0.5772156649015329, 0.04200263503409524, 0.04219773455554433,
           -0.0072189432466631, 0.00021524167411495098, 2.013485478078824e-05,
           -1.133027231981696e-06, -6.116095104481416e-09, 1.18127457048702e-09,
           -7.782263439905071e-12)
_TERMS = 13  # Temme's terms fall like (x/2)^(2i)/i!^2, x <= 2
# e^a K_mu(a) = int_0^inf e^(-v^2) 2 cosh(mu t)/sqrt(2a + v^2) dv, t = 2 asinh(v/sqrt(2a)):
# the integrand is analytic for |Im v| < sqrt(2a), and 21 trapezoid nodes on
# [0, 6.2] reach rounding for a > 2
_NODES = np.linspace(0.0, 6.2, 21)
_MOMENTS = (np.where(_NODES > 0, 1.0, 0.5) * _NODES[1] * np.exp(-_NODES**2)
            * _NODES ** np.arange(3)[:, None])  # weights times 1, v, v^2


def _power_kv(nu: float):
    """The function a -> a^nu K_nu(a) on arrays of a > 0, for one nu > 0.

    With nu = n + mu, |mu| <= 1/2, K_mu and K_(mu+1) come from Temme's series
    for a <= 2 and from the trapezoid rule above for a > 2; F_m = a^m K_m then
    steps up by F_(m+1) = a^2 F_(m-1) + 2m F_m, which never divides by a, over
    the common factor a^mu (or a^mu e^-a).
    """
    n = math.floor(nu + 0.5)
    mu = nu - n
    rp, rm = 1.0 / math.gamma(1.0 + mu), 1.0 / math.gamma(1.0 - mu)
    fact = math.pi * mu / math.sin(math.pi * mu) if mu else 1.0
    # Temme's recurrences (Numerical Recipes' bessik) run on the coefficients
    # of f_i, p_i, q_i in the basis (x/2)^-mu, (x/2)^mu, sinh(mu d)/mu with
    # d = -log(x/2); coef holds the (x/2)^(2i) terms of K_mu and x K_(mu+1)
    g1 = 0.5 * fact * sum(g * mu ** (2 * i) for i, g in enumerate(_GAMMA1))
    f, p, q = np.array([[g1, g1, 0.5 * fact * (rm + rp)], [0.5 / rp, 0, 0], [0, 0.5 / rm, 0]])
    coef, c = np.empty((_TERMS, 2, 3)), 1.0
    for i in range(_TERMS):
        if i:
            f = (i * f + p + q) / (i * i - mu * mu)
            p, q, c = p / (i - mu), q / (i + mu), c / i
        coef[i] = c * f, 2.0 * c * (p - i * f)
    horner = list(coef.reshape(_TERMS, 6, 1)[::-1])

    def power_kv(a):
        shape = np.shape(a)
        a = np.asarray(a, float).ravel()
        small = a <= 2.0
        f0, f1, scale = np.empty((3, a.size))  # F_mu, F_(mu+1) over scale

        hx = np.maximum(0.5 * a[small], 5e-324)  # half the least subnormal is 0
        up, d = hx**-mu, -np.log(hx)  # e^(mu d) without the |mu d| ulps of exp
        sh = np.where(np.abs(mu * d) < 1, np.sinh(mu * d), 0.5 * (up - 1 / up)) / mu if mu else d
        x2, series = hx * hx, np.zeros((6, hx.size))
        for row in horner:  # Horner, not BLAS: no value depends on its place in a
            series *= x2
            series += row
        # the sum over the basis term by term: no (2, 3, len(a)) temporary
        S = series.reshape(2, 3, -1)
        f0[small], f1[small] = S[:, 0] * up + S[:, 1] * (1 / up) + S[:, 2] * sh
        scale[small] = (2.0 * hx)**mu

        # E = e^(mu t), cosh t = 1 + v^2/a and sinh t = v root/a give
        # a e^a K_(mu+1) = a e^a K_mu + sum w (v^2 (E + 1/E)/root + v (E - 1/E))
        y = a[~small]
        root = np.sqrt(2.0 * y[:, None] + _NODES**2)
        up = ((_NODES + root) / np.sqrt(2.0 * y[:, None])) ** (2.0 * mu)
        k0, k2 = np.sum(((up + 1 / up) / root)[:, None] * _MOMENTS[::2], axis=2).T
        f0[~small], f1[~small] = k0, y * k0 + k2 + np.sum((up - 1 / up) * _MOMENTS[1], axis=1)
        scale[~small] = y**mu * np.exp(-y)

        for m in mu + np.arange(1, n):
            f0, f1 = f1, a * a * f0 + 2.0 * m * f1
        return ((f1 if n else f0) * scale).reshape(shape)

    return power_kv


def _read_table(path):
    import csv
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                vals = [float(v) for v in row[:2]]
            except ValueError:
                vals = []  # reported as a short row
            if len(vals) < 2 or not np.all(np.isfinite(vals)):
                raise ValueError(f"kernel table {path} line {reader.line_num}: need two "
                                 f"finite numbers s, zeta_hat, got {','.join(row)!r}")
            rows.append(vals)
    if len(rows) < 2:
        raise ValueError(f"kernel table {path} needs at least two (s, zeta_hat) rows")
    rows.sort()
    s_tab = np.array([r[0] for r in rows])
    zh_tab = np.array([r[1] for r in rows])
    if s_tab[0] < 0:
        raise ValueError("tabulate zeta_hat on s >= 0 only (it is even in s)")
    if np.any(np.diff(s_tab) == 0):
        s = s_tab[np.argmin(np.diff(s_tab))]  # sorted: the least step is a repeat
        raise ValueError(f"kernel table {path} repeats s = {s}: zeta_hat needs one value per s")
    return s_tab, zh_tab


def kernel_from_name(name: str) -> KernelSpec:
    """Parse a kernel selection string used by configs and the CLI."""
    if name == "gaussian-normalized":
        return KernelSpec.gaussian_normalized()
    if name == "gaussian-raw":
        return KernelSpec.gaussian_raw()
    if name.startswith("algebraic:"):
        try:
            p = float(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"kernel {name!r} needs a number p in algebraic:p") from None
        return KernelSpec.algebraic_decay(p)
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


def _check_unit_mass(zeta_hat) -> HypothesisCheck:
    """The mass every engine uses, zeta_hat(0) = integral zeta: the L1 mass if zeta >= 0."""
    mass = float(zeta_hat(0.0))
    return HypothesisCheck("unit L1 mass", abs(mass - 1.0) <= 1e-8,
                           f"integral zeta = {mass:.10f}")


def _check_first_moment(first_moment) -> HypothesisCheck:
    return HypothesisCheck("x*zeta integrable", math.isfinite(first_moment),
                           f"||x zeta||_L1 = {first_moment:.6g}")


def _check_decay_envelope(zeta_hat) -> HypothesisCheck:
    """Fit |zeta_hat(s)| ~ (1+s)^(-q) over s in [1, 1e3]; need q > 1/2 + 1e-3."""
    s = np.logspace(0.0, 3.0, 60)
    vals = np.abs(np.asarray(zeta_hat(s), float))
    keep = vals > 1e-280  # underflowed tails carry no slope information
    if keep.sum() < 5:
        # decays so fast the samples underflow almost immediately: passes trivially
        ok, detail = True, "transform underflows by s ~ 1 (superfast decay)"
    else:
        q = -np.polyfit(np.log(1.0 + s[keep]), np.log(vals[keep]), 1)[0]
        ok, detail = q >= 0.5 + 1e-3, f"fitted decay exponent q = {q:.4f} (need > 0.501)"
    return HypothesisCheck("transform decay envelope", bool(ok), detail)


def _check_transform_positive(zeta_hat) -> HypothesisCheck:
    s = np.linspace(0.0, 50.0, 2001)
    vals = np.asarray(zeta_hat(s), float)
    mn = float(np.min(vals))
    return HypothesisCheck("zeta_hat > 0", mn > 0.0, f"min zeta_hat on [0,50] = {mn:.3e}")


# each hypothesis set in report order, each check with the KernelSpec field it reads
_HYPOTHESES = {
    "H": ((_check_nonnegative, "zeta"), (_check_unit_mass, "zeta_hat"),
          (_check_first_moment, "first_moment"), (_check_decay_envelope, "zeta_hat")),
    "Hprime": ((_check_nonnegative, "zeta"), (_check_even, "zeta"),
               (_check_unit_mass, "zeta_hat"), (_check_transform_positive, "zeta_hat"),
               (_check_decay_envelope, "zeta_hat")),
}


def validate_hypotheses(base: KernelSpec, which: str = "H") -> ValidationReport:
    """Numerically audit the kernel hypotheses on the base profile zeta; they
    do not depend on eps, as R(x; eps) = zeta(x/eps)/eps only rescales it.

    which = "H": nonnegativity, unit mass as zeta_hat(0), a finite stated
    first moment, and the transform decay envelope.
    which = "Hprime": nonnegativity + evenness + unit mass, strict positivity
    of zeta_hat, and the same decay envelope.  Failures land in the report.
    """
    if which not in _HYPOTHESES:
        raise ValueError(f"which must be 'H' or 'Hprime', got {which!r}")
    return ValidationReport(base.family, tuple(check(getattr(base, reads))
                                               for check, reads in _HYPOTHESES[which]))
