import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, k1

from nlgp import kernels
from nlgp.kernels import (
    KernelSpec,
    ScaledKernel,
    beta,
    convolve_periodic,
    kernel_from_name,
    multiplier,
    validate_hypotheses,
    _power_kv,
)
from nlgp.spectral import PeriodicGrid, WaveField


def _x_weighted_l1(base):
    """||x zeta(x)||_L1 by quadrature (the Lipschitz constant of the multiplier)."""
    return 2.0 * quad(lambda x: x * base.zeta(x), 0, np.inf, epsabs=1e-12, limit=200)[0]


def test_gaussian_normalized_closed_forms():
    base = KernelSpec.gaussian_normalized()
    assert abs(base.zeta(0.0) - 1.0 / np.sqrt(np.pi)) < 1e-14
    assert abs(base.zeta_hat(0.0) - 1.0) < 1e-14
    assert abs(base.zeta_hat(2.0) - np.exp(-1.0)) < 1e-14
    assert abs(_x_weighted_l1(base) - 1.0 / np.sqrt(np.pi)) < 1e-6


def test_gaussian_raw_closed_forms():
    base = KernelSpec.gaussian_raw()
    assert abs(base.zeta(0.0) - 1.0) < 1e-14
    assert abs(base.zeta_hat(0.0) - np.sqrt(np.pi)) < 1e-14
    assert abs(_x_weighted_l1(base) - 1.0) < 1e-6


def test_algebraic_decay_transform_values():
    # p = 3: zeta(x) = 1/(2 (1+x^2)^{3/2}) and the cosine transform is |s| K_1(|s|)
    base = KernelSpec.algebraic_decay(3.0)
    assert abs(base.zeta(0.0) - 0.5) < 1e-12
    x = np.linspace(-60, 60, 20001)
    mass = np.trapezoid(base.zeta(x), x)
    assert abs(mass - 1.0) < 1e-3
    assert base.zeta_hat(0.0) == 1.0
    assert abs(base.zeta_hat(1.0) - k1(1.0)) < 1e-13
    assert abs(base.zeta_hat(2.5) - 2.5 * k1(2.5)) < 1e-13


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 4.0, 7.0])
def test_algebraic_decay_matches_cosine_quadrature(p):
    base = KernelSpec.algebraic_decay(p)
    s = np.geomspace(1e-3, 40.0, 20)
    oracle = np.array([
        2.0 * quad(base.zeta, 0, np.inf, weight="cos", wvar=si,
                   epsabs=1e-13, limit=400)[0]
        for si in s])
    got = base.zeta_hat(s)
    assert got.shape == s.shape
    assert np.max(np.abs(got - oracle)) < 1e-10
    assert np.array_equal(base.zeta_hat(-s), got)


@pytest.mark.parametrize("p", [30.0, 80.0])
def test_algebraic_decay_large_power(p):
    # the cosine-weighted rule fails for these narrow profiles (width
    # ~ 1/sqrt(p)), so the oracle is plain quadrature over [0, 20]
    base = KernelSpec.algebraic_decay(p)
    s = np.concatenate([np.geomspace(1e-12, 1e-4, 9), np.geomspace(1e-3, 40.0, 20)])
    oracle = np.array([
        2.0 * quad(lambda x: base.zeta(x) * np.cos(si * x), 0, 20,
                   epsabs=1e-14, epsrel=1e-13, limit=2000)[0]
        for si in s])
    assert np.max(np.abs(base.zeta_hat(s) - oracle)) < 1e-12


@pytest.mark.parametrize("nu", [0.025, 0.25, 0.5, 0.75, 1.0, 1 + 1e-9, 1 - 1e-9, 1.05,
                                1.5, 2 + 1e-4, 3.0, 5.65, 14.5, 39.5])
def test_power_kv_matches_scipy(nu):
    # a^nu K_nu(a) across both branches (Temme's series up to a = 2, the
    # trapezoid rule beyond) and the recurrence in nu; the reference is
    # taken in extended precision from kv, and from kve past a = 2
    from scipy.special import kv, kve

    a = np.concatenate([np.geomspace(1e-300, 700.0, 1500), np.linspace(1.9, 2.1, 801)])
    al = a.astype(np.longdouble)
    with np.errstate(all="ignore"):
        ref = np.where(a <= 2.0, al**nu * kv(nu, a), al**nu * kve(nu, a) * np.exp(-al))
    keep = np.isfinite(ref) & (ref > 1e-290)
    power_kv = _power_kv(nu)
    got = power_kv(a)
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
    assert np.max(np.abs(got[keep] / ref[keep] - 1.0)) <= 1e-13
    # a value does not depend on its place in the array, nor on the array
    assert np.array_equal(power_kv(a[::-1]), got[::-1])
    assert np.array_equal([power_kv(x) for x in a[::97]], got[::97])
    assert np.ndim(power_kv(a[5])) == 0


def _small_s_deficit(nu, s):
    """Leading term of 1 - zeta_hat(s) as s -> 0+ (from the series of K_nu)."""
    if s == 0.0:
        return 0.0
    if nu < 1:
        return gamma(1 - nu) / gamma(1 + nu) * (s / 2) ** (2 * nu)
    if nu == 1:
        return (s / 2) ** 2 * (2 * (np.log(2) - np.log(s)) + 1 - 2 * np.euler_gamma)
    return (s / 2) ** 2 / (nu - 1)


@pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
def test_algebraic_decay_transform_at_extreme_s(p):
    # |s|^nu underflows against an overflowing K_nu (0 * inf at s = 0); the
    # transform must still be finite, positive and approach 1 as it should.
    # For p = 1.5 the approach is slow (1 - zeta_hat ~ 1e-6 at s = 1e-12),
    # so the deficit is checked against its leading term, not against 0.
    base = KernelSpec.algebraic_decay(p)
    for s in (0.0, 5e-324, 1e-300, 1e-12, 1e-8, 1e-5):  # s/2 rounds to 0 at 5e-324
        val = float(base.zeta_hat(s))
        assert np.isfinite(val) and 0.0 < val <= 1.0 + 1e-12, (s, val)
        lead = _small_s_deficit((p - 1) / 2, s)
        assert abs((1.0 - val) - lead) <= 1e-12 + 1e-3 * lead, (s, val)
    vals = base.zeta_hat(np.array([0.0, 1e-300, 1e-5]))
    assert np.all(np.isfinite(vals)) and vals[0] == 1.0
    # at the other end |s|^nu overflows against a vanishing K_nu
    assert np.array_equal(base.zeta_hat(np.array([1e3, 1e200, -1e300])), [0.0] * 3)


def test_algebraic_transform_stays_at_or_below_one_near_zero():
    # |zeta_hat| <= zeta_hat(0) = 1 for a nonnegative unit-mass kernel;
    # Temme's series rounds up to 4 ulps past it near s = 0 at large p
    s = np.geomspace(1e-12, 1e-4, 2001)
    for p in (20.0, 80.0):
        assert np.max(KernelSpec.algebraic_decay(p).zeta_hat(s)) <= 1.0
    # where the series stays below 1 the values are the uncapped closed form
    nu = 1.0  # p = 3
    c_hat = 2.0 ** (1.0 - nu) / gamma(nu)
    assert np.array_equal(KernelSpec.algebraic_decay(3.0).zeta_hat(s),
                          c_hat * _power_kv(nu)(s))


def test_algebraic_decay_requires_integrable_tail():
    # above p = 80, K_nu overflows near s = 0 before zeta_hat is within
    # ~1e-14 of its limit 1 there
    for p in (1.0, 0.5, np.nan, np.inf, -np.inf, 80.5):
        with pytest.raises(ValueError, match="1 < p <= 80"):
            KernelSpec.algebraic_decay(p)


def test_kernel_from_name():
    assert kernel_from_name("gaussian-normalized").family == "gaussian-normalized"
    assert kernel_from_name("gaussian-raw").family == "gaussian-raw"
    assert kernel_from_name("algebraic:2.5").family == "algebraic:2.5"
    with pytest.raises(ValueError):
        kernel_from_name("triangle")


def test_scaled_kernel_rejects_negative_epsilon():
    base = KernelSpec.gaussian_normalized()
    with pytest.raises(ValueError):
        ScaledKernel(base, -0.1)


def test_multiplier_is_transform_at_scaled_argument():
    base = KernelSpec.gaussian_normalized()
    kern = ScaledKernel(base, 0.7)
    s = np.array([0.0, 1.0, -2.3, 5.0])
    assert np.max(np.abs(multiplier(kern, s) - np.exp(-((0.7 * s) ** 2) / 4))) < 1e-14


def test_epsilon_zero_multiplier_is_kernel_mass():
    for name in ("gaussian-normalized", "gaussian-raw"):
        kern = ScaledKernel(kernel_from_name(name), 0.0)
        zh0 = kern.base.zeta_hat(0.0)
        s = np.linspace(-40, 40, 17)
        assert np.max(np.abs(multiplier(kern, s) - zh0)) < 1e-14


def test_epsilon_zero_unit_mass_multiplier_is_exactly_one():
    # eps = 0 with the unit-mass kernel is the local equation: the evolution
    # and the AES reference flow rely on this multiplier being exactly 1.0
    kern = ScaledKernel(KernelSpec.gaussian_normalized(), 0.0)
    for period, n in ((2 * np.pi, 64), (8 * np.pi, 128), (1.0, 256)):
        kappa = 2 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / period
        assert np.all(multiplier(kern, kappa) == 1.0)


def test_algebraic_transform_evaluates_only_nonzero_arguments(monkeypatch):
    # s = 0 is the limit 1 and needs no Bessel function: an eps = 0
    # multiplier does no power_kv work, and a mixed array passes only its
    # nonzero entries, with the values of a one-element evaluation
    seen = []

    def recording(nu):
        power_kv = _power_kv(nu)
        return lambda a: seen.append(np.array(a)) or power_kv(a)

    monkeypatch.setattr(kernels, "_power_kv", recording)
    kern = ScaledKernel(KernelSpec.algebraic_decay(3.0), 0.0)
    kappa = np.arange(-64, 65, dtype=float)
    assert np.all(multiplier(kern, kappa) == 1.0) and multiplier(kern, 0.0) == 1.0
    assert seen == []
    s = np.array([0.0, 1.5, -0.0, -4.0])
    got = kern.base.zeta_hat(s)
    assert [a.tolist() for a in seen] == [[1.5, 4.0]]
    assert got[0] == got[2] == 1.0
    assert got[1] == kern.base.zeta_hat(1.5) and got[3] == kern.base.zeta_hat(4.0)


def test_convolution_acts_as_multiplier_on_basis_modes():
    # the core identity: R_eps * e_j = zeta_hat(2 pi j eps / T) e_j
    rng = np.random.default_rng(17)
    grid = PeriodicGrid(2 * np.pi, 64)
    bases = [KernelSpec.gaussian_normalized(), KernelSpec.gaussian_raw(),
             KernelSpec.algebraic_decay(2.5)]
    for _ in range(20):
        base = bases[rng.integers(len(bases))]
        eps = float(rng.uniform(0.0, 2.0))
        j = int(rng.integers(-32, 32))
        kern = ScaledKernel(base, eps)
        e_j = WaveField.basis_mode(grid, j)
        out = convolve_periodic(kern, e_j)
        r_hat = multiplier(kern, 2 * np.pi * j / grid.period)
        assert WaveField(grid, out.samples - r_hat * e_j.samples).l2_norm() < 1e-12


def test_convolution_of_constant_is_mass_multiple():
    grid = PeriodicGrid(2 * np.pi, 32)
    one = WaveField(grid, np.ones(32, complex))
    kern = ScaledKernel(KernelSpec.gaussian_raw(), 0.4)
    out = convolve_periodic(kern, one)
    assert np.max(np.abs(out.samples - np.sqrt(np.pi))) < 1e-12


def test_multiplier_decays_monotonically_in_epsilon():
    kern_vals = []
    for eps in (1.0, 10.0, 100.0, 1000.0):
        kern = ScaledKernel(KernelSpec.gaussian_normalized(), eps)
        kern_vals.append(float(multiplier(kern, 1.3)))
    # non-increasing and vanishing; the tail underflows to exactly zero
    assert all(a >= b for a, b in zip(kern_vals[:-1], kern_vals[1:]))
    assert kern_vals[0] > kern_vals[1]
    assert kern_vals[-1] < 1e-300


def test_only_the_built_in_families_declare_a_decreasing_transform(tmp_path):
    # b_star takes the band minima of a decreasing transform at the band ends
    s = np.geomspace(1e-3, 700.0, 400)
    for base in (KernelSpec.gaussian_normalized(), KernelSpec.gaussian_raw(),
                 *(KernelSpec.algebraic_decay(p) for p in (1.5, 3.0, 80.0))):
        assert base.decreasing, base.family
        vals = base.zeta_hat(s)
        assert np.all(np.diff(vals) <= 0.0), base.family
    table = KernelSpec.from_table(_write_table(tmp_path, [(0.0, 1.0), (1.0, 0.5)]))
    hand_built = KernelSpec("hand", table.zeta, table.zeta_hat)
    assert not table.decreasing and not hand_built.decreasing


def test_beta_is_multiplier_at_twice_wavenumber():
    kern = ScaledKernel(KernelSpec.gaussian_normalized(), 0.25)
    k = 1.5
    assert beta(kern, k) == pytest.approx(float(multiplier(kern, 2 * k)), rel=1e-14)


def test_beta_rejects_a_nonpositive_wavenumber():
    kern = ScaledKernel(KernelSpec.gaussian_normalized(), 0.25)
    for k in (0.0, -1.0):
        with pytest.raises(ValueError, match="wavenumber k must be positive"):
            beta(kern, k)


def test_multiplier_lipschitz_in_epsilon():
    # |zeta_hat(eps1 s) - zeta_hat(eps2 s)| <= |eps1 - eps2| |s| ||x zeta||_1
    rng = np.random.default_rng(23)
    base = KernelSpec.gaussian_normalized()
    bound_const = _x_weighted_l1(base)
    for _ in range(50):
        e1, e2 = rng.uniform(0.0, 3.0, 2)
        s = float(rng.uniform(-10, 10))
        gap = abs(float(multiplier(ScaledKernel(base, e1), s))
                  - float(multiplier(ScaledKernel(base, e2), s)))
        assert gap <= abs(e1 - e2) * abs(s) * bound_const + 1e-12


def _write_table(tmp_path, rows, name="kern.csv"):
    path = tmp_path / name
    path.write_text("\n".join(f"{s},{v}" for s, v in rows) + "\n")
    return path


def test_from_table_interpolates_transform(tmp_path):
    s_grid = np.linspace(0, 12, 1201)
    rows = list(zip(s_grid, np.exp(-(s_grid**2) / 4)))
    base = KernelSpec.from_table(_write_table(tmp_path, rows))
    s = np.linspace(0, 10, 101)
    assert np.max(np.abs(base.zeta_hat(s) - np.exp(-(s**2) / 4))) < 1e-4
    # reconstructed zeta should resemble the normalized Gaussian
    x = np.linspace(-4, 4, 81)
    assert np.max(np.abs(base.zeta(x) - np.exp(-(x**2)) / np.sqrt(np.pi))) < 1e-3


def test_from_table_input_validation(tmp_path):
    with pytest.raises(ValueError):
        KernelSpec.from_table(_write_table(tmp_path, [(0.0, 1.0)]))
    with pytest.raises(ValueError):
        KernelSpec.from_table(_write_table(tmp_path, [(-1.0, 1.0), (0.0, 1.0)]))
    # out-of-order rows are sorted on load, not rejected
    base = KernelSpec.from_table(
        _write_table(tmp_path, [(0.0, 1.0), (2.0, 0.5), (1.0, 0.8)]))
    assert abs(base.zeta_hat(1.5) - 0.65) < 1e-12


def test_from_table_skips_comment_and_blank_rows(tmp_path):
    path = tmp_path / "kern.csv"
    path.write_text("# s, zeta_hat\n0.0,1.0\n\n  # halfway down\n2.0,0.5\n")
    assert KernelSpec.from_table(path).zeta_hat(1.0) == 0.75


def test_decay_envelope_passes_a_transform_that_vanishes(tmp_path):
    # zeta_hat = 0 from s = 1 on: no slope to fit, and nothing to fail
    base = KernelSpec.from_table(_write_table(tmp_path, [(0.0, 1.0), (1.0, 0.0)]))
    check = kernels._check_decay_envelope(base.zeta_hat, "transform decay envelope")
    assert check.passed and "underflows" in check.detail


def test_validate_normalized_gaussian_passes_both_sets():
    base = KernelSpec.gaussian_normalized()
    for which in ("H", "Hprime"):
        report = validate_hypotheses(base, which=which)
        assert report.all_passed, report.lines()


def test_validate_rejects_an_unknown_hypothesis_set():
    with pytest.raises(ValueError, match="which must be 'H' or 'Hprime', got 'both'"):
        validate_hypotheses(KernelSpec.gaussian_normalized(), which="both")


def test_validate_raw_gaussian_fails_unit_mass():
    report = validate_hypotheses(KernelSpec.gaussian_raw(), which="H")
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["unit L1 mass"]
    assert not report.all_passed


def test_validate_algebraic_passes_H():
    report = validate_hypotheses(KernelSpec.algebraic_decay(3.0), which="H")
    assert report.all_passed, report.lines()


def test_validate_algebraic_passes_Hprime():
    report = validate_hypotheses(KernelSpec.algebraic_decay(3.0), which="Hprime")
    assert report.all_passed, report.lines()


def test_validate_first_moment_rejects_divergent_tails():
    # x*zeta ~ x^(1-P): integrable only for P > 2; QUADPACK returns a
    # negative value with a small error estimate at P = 1.5
    def first_moment(base):
        report = validate_hypotheses(base, which="H")
        return next(c for c in report.checks if c.name == "x*zeta integrable")

    for p in (1.5, 2.0):
        check = first_moment(KernelSpec.algebraic_decay(p))
        assert not check.passed, check.detail
    for base in (KernelSpec.algebraic_decay(2.5), KernelSpec.algebraic_decay(3.0),
                 KernelSpec.gaussian_normalized()):
        check = first_moment(base)
        assert check.passed, check.detail


def test_first_moment_reports_a_failed_quadrature_as_a_failure():
    def zeta(x):
        raise ArithmeticError("no value")

    check = kernels._check_first_moment(zeta)
    assert (check.passed, check.detail) == (False, "quadrature failed: no value")


def test_validate_oscillating_table_fails_positivity(tmp_path):
    # a transform that dips negative violates the strict-positivity hypothesis
    s_grid = np.linspace(0, 20, 2001)
    vals = np.exp(-(s_grid**2) / 16) * np.cos(1.5 * s_grid)
    base = KernelSpec.from_table(_write_table(tmp_path, list(zip(s_grid, vals))))
    report = validate_hypotheses(base, which="Hprime")
    by_name = {c.name: c.passed for c in report.checks}
    assert not by_name["zeta_hat > 0"]
    assert not report.all_passed


def test_validate_asymmetric_kernel_fails_evenness():
    skew = KernelSpec(
        family="test-skew",
        zeta=lambda x: np.exp(-np.square(x - 0.5)) / np.sqrt(np.pi),
        zeta_hat=lambda s: np.exp(-np.square(s) / 4),
    )
    report = validate_hypotheses(skew, which="Hprime")
    by_name = {c.name: c.passed for c in report.checks}
    assert not by_name["evenness"]


def test_validation_report_lines_are_informative():
    report = validate_hypotheses(KernelSpec.gaussian_raw(), which="H")
    lines = report.lines()
    assert any("FAIL" in ln for ln in lines)
    assert any("pass" in ln for ln in lines)
    assert len(lines) == len(report.checks)


def test_from_table_profile_matches_one_shot_transform(tmp_path):
    # zeta is evaluated in chunks of x; each value must equal the one-shot
    # trapezoid over the whole (points x rows) cosine table
    s_grid = np.linspace(0, 20, 2001)
    vals = np.exp(-(s_grid**2) / 16) * np.cos(1.5 * s_grid)
    base = KernelSpec.from_table(_write_table(tmp_path, list(zip(s_grid, vals))))
    x = np.linspace(-30, 30, 707)
    one_shot = np.trapezoid(vals * np.cos(np.multiply.outer(x, s_grid)),
                            s_grid, axis=-1) / np.pi
    assert np.max(np.abs(base.zeta(x) - one_shot)) <= 1e-15
    assert np.max(np.abs(base.zeta(x.reshape(7, 101)) - one_shot.reshape(7, 101))) <= 1e-15
    assert abs(base.zeta(x[3]) - one_shot[3]) <= 1e-15
    assert np.ndim(base.zeta(x[3])) == 0
    assert base.zeta(np.array([])).shape == (0,)


def test_quadrature_is_imported_only_when_a_validator_runs(tmp_path):
    # importing the package and the CLI, and a spectrum of the algebraic
    # kernel, load no scipy module; the first quadrature loads
    # scipy.integrate, with the verdicts of the eager import
    cfg = tmp_path / "s.cfg"
    cfg.write_text("kernel.epsilon = 0.5\nspectrum.truncation = 16\n")
    script = (
        "import sys\n"
        "import nlgp, nlgp.cli\n"
        "from nlgp.kernels import KernelSpec, validate_hypotheses\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m.startswith('scipy')]\n"
        "assert not scipy_modules(), scipy_modules()\n"
        f"nlgp.cli.main(['spectrum', '--kernel', 'algebraic:3', '--config', {str(cfg)!r}])\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "base = KernelSpec.gaussian_normalized()\n"
        "for which in ('H', 'Hprime'):\n"
        "    print(*validate_hypotheses(base, which).lines(), sep='\\n')\n"
        "assert 'scipy.integrate' in sys.modules\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                         capture_output=True, check=True).stdout.splitlines()
    assert out[0].startswith("max real part ")
    base = KernelSpec.gaussian_normalized()
    expected = [line for which in ("H", "Hprime")
                for line in validate_hypotheses(base, which).lines()]
    assert out[3:] == expected
    assert all(line.split(": ")[1].startswith("pass") for line in expected)
