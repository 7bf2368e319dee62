import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import k1

from nlgp import bloch
from nlgp.bloch import (
    EigensolveError,
    InvalidMuError,
    TruncationTooSmallError,
    a_crit,
    analytic_spectrum_V0_zero,
    assemble,
    b_star,
    eigen_summary,
    full_period_spectrum,
    generalized_zero_mode,
    hill_quadratic_form,
    krein_form,
    match_spectra,
    matrix_quadratic_form,
    phase_zero_mode,
    spectrum,
)
from nlgp.experiments import FIGURE_REGIMES
from nlgp.kernels import KernelSpec, ScaledKernel
from nlgp.waves import solution_params


def _params(B=1.0, V0=0.0, k=1.0, alpha=1, eps=0.0, base=None):
    if base is None:
        base = KernelSpec.gaussian_normalized()
    return solution_params(B, V0, k, alpha, ScaledKernel(base, eps))


def test_assemble_validates_inputs():
    p = _params()
    with pytest.raises(InvalidMuError):
        assemble(1.0, 16, p)
    with pytest.raises(InvalidMuError):
        assemble(-0.1, 16, p)
    with pytest.raises(TruncationTooSmallError):
        assemble(0.5, 4, p)


def test_L_matrix_is_hermitian():
    rng = np.random.default_rng(41)
    for _ in range(5):
        p = _params(B=float(rng.uniform(0.2, 2.0)),
                    V0=float(rng.uniform(-1.5, -0.01)),
                    eps=float(rng.uniform(0.0, 0.4)))
        op = assemble(float(rng.uniform(0.0, 0.999)), 20, p)
        gap = np.max(np.abs(op.L_matrix - op.L_matrix.conj().T))
        assert gap < 1e-12


def test_JL_matrix_is_J_times_L():
    p = _params(B=0.8, V0=-0.4, eps=0.1)
    op = assemble(0.3, 12, p)
    n = 2 * 12 + 1
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    assert np.max(np.abs(op.JL_matrix - J @ op.L_matrix)) < 1e-14


def test_free_case_is_diagonal_with_kinetic_symbols():
    p = _params(B=0.0, V0=0.0)
    mu = 0.37
    M = 10
    op = assemble(mu, M, p)
    n = 2 * M + 1
    js = np.arange(-M, M + 1)
    diag = 0.5 * ((js - mu) ** 2 - 1.0)
    offdiag = op.L_matrix - np.diag(np.diag(op.L_matrix))
    assert np.max(np.abs(offdiag)) < 1e-14
    assert np.max(np.abs(np.diag(op.L_matrix)[:n] - diag)) < 1e-14
    assert np.max(np.abs(np.diag(op.L_matrix)[n:] - diag)) < 1e-14
    # free spectrum: +- (i k^2 / 2)|(n-mu)^2 - 1|
    eigs = np.linalg.eigvals(op.JL_matrix)
    expect = np.concatenate([np.abs(diag), -np.abs(diag)])
    assert np.max(np.abs(eigs.real)) < 1e-12
    assert np.max(np.abs(np.sort(eigs.imag) - np.sort(expect))) < 1e-12


def test_B_zero_reduces_to_block_diagonal_canonical_form():
    p = _params(B=0.0, V0=-0.3)
    op = assemble(0.25, 12, p)
    n = 2 * 12 + 1
    assert np.max(np.abs(op.L_matrix[:n, n:])) == 0.0
    assert np.max(np.abs(op.L_matrix[n:, :n])) == 0.0


def test_reference_analytic_eigenvalue():
    # k=1, mu=0.5, B=1, eps=0, n=0, positive axis:
    # c_0 = 0.25, lambda_p = (i/2)(0.25 - sqrt(0.0625 + 1))
    p = _params(B=1.0)
    eigs = analytic_spectrum_V0_zero([0], 0.5, p)
    pos = [e for e in eigs if e.branch == "positive-axis" and e.n == 0][0]
    assert pos.c_n == pytest.approx(0.25, abs=1e-14)
    assert pos.lambda_p.real == pytest.approx(0.0, abs=1e-14)
    assert pos.lambda_p.imag == pytest.approx(-0.3903882032022076, abs=1e-12)
    # lambda_inf for n=0 is (k^2/2)|mu^2 - 2 mu| -> 0.375
    assert abs(pos.lambda_inf.imag) == pytest.approx(0.375, abs=1e-14)


def test_analytic_rejects_bad_inputs():
    p_v0 = _params(B=1.0, V0=-0.5)
    with pytest.raises(ValueError):
        analytic_spectrum_V0_zero([0], 0.5, p_v0)
    p = _params(B=1.0)
    with pytest.raises(InvalidMuError):
        analytic_spectrum_V0_zero([0], 0.0, p)


def test_analytic_lambda_p_vanishes_at_B_zero():
    p = _params(B=0.0)
    for e in analytic_spectrum_V0_zero(range(-3, 4), 0.3, p):
        assert abs(e.lambda_p) < 1e-14
        assert e.alpha_n == pytest.approx(0.0, abs=1e-14)


def test_analytic_alpha_n_in_unit_interval():
    rng = np.random.default_rng(53)
    for _ in range(10):
        p = _params(B=float(rng.uniform(0.0, 3.0)),
                    eps=float(rng.uniform(0.0, 1.0)))
        mu = float(rng.uniform(0.05, 0.95))
        for e in analytic_spectrum_V0_zero(range(-6, 7), mu, p):
            assert 0.0 <= e.alpha_n < 1.0


def test_analytic_lambda_p_decays_as_epsilon_grows():
    sups = []
    for eps in (1.0, 10.0, 100.0):
        p = _params(B=1.0, eps=eps)
        eigs = analytic_spectrum_V0_zero(range(-4, 5), 0.3, p)
        sups.append(max(abs(e.lambda_p) for e in eigs))
    assert sups[0] > sups[1] > sups[2]
    assert sups[-1] < 1e-3  # k^2 scale


def test_analytic_eigenvalues_found_in_matrix_spectrum():
    rng = np.random.default_rng(67)
    for _ in range(4):
        p = _params(B=float(rng.uniform(0.1, 2.5)),
                    k=float(rng.integers(1, 3)),
                    eps=float(rng.uniform(0.0, 0.8)))
        mu = float(rng.uniform(0.05, 0.95))
        analytic = analytic_spectrum_V0_zero(range(-8, 9), mu, p)
        report = spectrum(assemble(mu, 32, p))
        pairs, worst = match_spectra(analytic, report, gap_tol=1e-6)
        assert len(pairs) == len(analytic)
        assert worst < 1e-6


def test_spectrum_closed_under_negative_conjugation():
    p = _params(B=0.7, V0=-0.6, eps=0.15)
    rep = spectrum(assemble(0.3, 24, p))
    eigs = np.array(rep.eigenvalues)
    for lam in eigs[::7]:
        assert np.min(np.abs(eigs - (-np.conj(lam)))) < 1e-9


def test_mu_reflection_conjugates_interior_spectrum():
    # the centred window makes the truncation at 1 - mu the exact mirror of
    # the one at mu, so every eigenvalue off the origin has its conjugate
    p = _params(B=0.9, V0=-0.4, eps=0.1)
    M = 20
    for mu in (0.2, 0.45):
        rep = spectrum(assemble(mu, M, p))
        e1 = np.array(rep.eigenvalues)
        e2 = np.conj(np.array(spectrum(assemble(1.0 - mu, M, p)).eigenvalues))
        far = e1[np.abs(e1) >= rep.scale]
        assert far.size >= e1.size - 2
        gap = max(np.min(np.abs(e2 - lam)) for lam in far)
        assert gap < 1e-9


def test_interior_eigenvalues_stable_under_truncation_doubling():
    p = _params(B=1.0, V0=-0.3, eps=0.05)
    M = 16
    e1 = np.array(spectrum(assemble(0.3, M, p)).eigenvalues)
    e2 = np.array(spectrum(assemble(0.3, 2 * M, p)).eigenvalues)
    interior = e1[np.abs(e1.imag) < p.k**2 * M / 4.0]
    assert interior.size > 0
    worst = max(np.min(np.abs(e2 - lam)) for lam in interior)
    assert worst < 1e-8


def test_spectrum_of_stable_regime_is_imaginary():
    p = _params(B=1.0, V0=-0.01, eps=0.01, base=KernelSpec.gaussian_raw())
    rep = spectrum(assemble(0.5, 32, p))
    assert rep.max_real_part < 1e-8
    assert rep.count_identity_holds


def test_spectrum_of_unstable_regime_has_positive_abscissa():
    p = _params(B=0.01, V0=-2.46)
    reports = full_period_spectrum(4, p, 32)
    assert len(reports) == 4
    assert max(r.max_real_part for r in reports) > 1e-3


def test_near_origin_pair_excluded_from_abscissa():
    p = _params(B=1.0, V0=-0.01, eps=0.01)
    rep = spectrum(assemble(0.0, 32, p))
    assert rep.near_origin >= 2  # phase-symmetry Jordan pair
    assert rep.max_real_part < 1e-8


def test_count_identity_holds_away_from_origin():
    rng = np.random.default_rng(71)
    for _ in range(5):
        p = _params(B=float(rng.uniform(0.1, 2.0)),
                    eps=float(rng.uniform(0.0, 0.5)))
        mu = float(rng.uniform(0.1, 0.9))
        rep = spectrum(assemble(mu, 24, p))
        if rep.near_origin == 0:
            k_r, k_c, k_i_minus, n_L = rep.counts
            assert k_r + k_c + k_i_minus == n_L
            assert rep.count_identity_holds


_TINY_MU_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="n(L)'s shift tau leaves out the small negative eigenvalue of L that "
           "belongs to the split phase pair the inertia count signs: (0, 0, 3, 2)")


@pytest.mark.parametrize("eps, M, mu", [
    pytest.param(eps, M, mu, marks=() if M == 8 and mu == 1e-3 else _TINY_MU_DEFECT)
    for eps in (0.0, 0.25) for M in (8, 16, 64) for mu in (1e-5, 1e-4, 1e-3)])
def test_count_identity_holds_at_tiny_mu(eps, M, mu):
    # the phase pair splits off the origin as mu leaves 0, and L's eigenvalue
    # on it is about -mu^2/2; n(L) counts it only below -tau, and tau grows
    # like M^2: at 1e-3 it does at M = 8 (tau = 3.2e-7), not at M = 16 (1.3e-6)
    rep = spectrum(assemble(mu, M, _params(B=0.5, V0=0.0, eps=eps)))
    assert rep.counts == (0, 0, 3, 3)


@pytest.mark.parametrize("alpha, B, V0, M", [
    (-1, 0.25, 0.0, 8), (-1, 0.25, 0.0, 16), (-1, 0.25, 0.0, 32), (-1, 0.25, 0.0, 64),
    (1, 4.0, -2.0, 32), (1, 4.0, -2.0, 64)])
def test_full_period_spectrum_answers_at_mu_zero(alpha, B, V0, M):
    # valid states at eps = 0 where round-off splits a double nu at mu = 0
    # (nu = 1 into two real nu 1.5e-7 apart at alpha = -1, M = 16 and 32;
    # real pairs 3e-4 apart at |nu| ~ 1926 at alpha = +1, M = 64): each split
    # lies within the round-off scale h and is one cluster
    reports = full_period_spectrum(4, _params(B=B, V0=V0, alpha=alpha), M)
    assert [rep.mu for rep in reports] == [0.0, 0.25, 0.5, 0.75]


@pytest.mark.parametrize("B, V0, M", [(16.0, -0.5, 64), (8.0, 0.5, 128)])
def test_large_B_defocusing_states_are_stable_at_every_mu(B, V0, M):
    # eps = 0, alpha = +1 and L >= 0: every nu is Krein-definite and cannot
    # leave the imaginary axis, whatever round-off makes of a double nu
    # (absolute tolerances read an abscissa of 1.4e-6, or a failed jump check)
    for rep in full_period_spectrum(4, _params(B=B, V0=V0), M):
        assert (rep.max_real_part, rep.counts) == (0.0, (0, 0, 0, 0)), rep.mu


_SCAN_B = np.geomspace(1.5, 32.0, 10)


@pytest.mark.parametrize("eps, V0, M, i", [
    (0.0, -1.0, 32, 8), (0.0, -1.0, 32, 9), (0.0, -1.0, 64, 9),
    (0.0, -0.5, 32, 6), (0.0, -0.5, 64, 5), (0.0, -0.5, 64, 8),
    (0.0, 0.5, 32, 7), (0.0, 0.5, 64, 5), (0.0, 0.5, 64, 8),
    (0.25, -1.0, 32, 7), (0.25, -1.0, 64, 8), (0.25, -0.5, 32, 8),
    (0.25, 0.5, 64, 8), (0.25, 0.5, 64, 9)])
def test_definite_states_answer_stable_without_an_eigensolve_error(eps, V0, M, i):
    # the states of the alpha = +1 scan over B = geomspace(1.5, 32, 10) where
    # absolute tolerances made round-off either an abscissa of 1.2e-6 to
    # 2.1e-6 or a failed jump check (exit 4)
    reports = full_period_spectrum(4, _params(B=_SCAN_B[i], V0=V0, eps=eps), M)
    assert max(rep.max_real_part for rep in reports) <= bloch.UNSTABLE_ABSCISSA
    assert all(rep.counts[3] == 0 for rep in reports)


def test_focusing_plane_wave_counts_do_not_depend_on_truncation():
    # alpha = -1, B = 1, V0 = 0: lambda = +-2i is a Jordan block, which
    # round-off splits into two real nu or a complex pair; within h either is
    # one indefinite cluster, so the counts do not move with M
    p = _params(B=1.0, V0=0.0, alpha=-1)
    counts = {M: spectrum(assemble(0.0, M, p)).counts for M in (32, 64, 128)}
    assert set(counts.values()) == {(0, 2, 2, 5)}, counts


@pytest.mark.parametrize("M", [16, 32])
def test_sweep_shift_misses_the_singular_leading_block_of_a_coupled_pair(M):
    # alpha = -1, B = 4, V0 = 0, eps = 0.25 at mu = 0: the odd block's nu =
    # 4 -+ 3.76 are a coupled pair with no cluster between them, and L' - 4P,
    # although far from singular, has a singular leading block, where the
    # unpivoted sweep stops; the golden-section shift of the gap misses it
    rep = spectrum(assemble(0.0, M, _params(B=4.0, V0=0.0, alpha=-1, eps=0.25)))
    assert rep.counts == (0, 6, 2, 9)


def test_definite_cluster_enters_the_abscissa_as_zero():
    # alpha = +1, B = V0 = 0.5, M = 64 at mu = 0: round-off makes a double nu
    # near -4.24 a complex pair with |Re lambda| = 2.3e-15; its jump equals
    # its size, so it keeps its Krein sign and cannot leave the axis
    rep = spectrum(assemble(0.0, 64, _params(B=0.5, V0=0.5)))
    off = (rep.eigenvalues.real != 0.0) & (np.abs(rep.eigenvalues) >= rep.scale)
    assert off.sum() == 2 and rep.krein[off].tolist() == [1.0, 1.0]
    assert rep.max_real_part == 0.0


def test_krein_form_matches_matrix_quadratic_form():
    rng = np.random.default_rng(83)
    for _ in range(6):
        p = _params(B=float(rng.uniform(0.2, 2.0)),
                    eps=float(rng.uniform(0.0, 0.6)))
        mu = float(rng.uniform(0.1, 0.9))
        M = 24
        op = assemble(mu, M, p)
        n = int(rng.integers(-6, 7))
        branch = ("positive-axis", "negative-axis")[rng.integers(2)]
        closed = krein_form(n, branch, mu, p)
        eig = [e for e in analytic_spectrum_V0_zero([n], mu, p)
               if e.branch == branch][0]
        vec = eig.eigenvector(M)
        assert closed == pytest.approx(matrix_quadratic_form(op, vec),
                                       rel=1e-8, abs=1e-8)


def test_krein_form_B_zero_reduction():
    # alpha_n = 0: the form collapses to 2 pi k^2 ((n - mu)^2 - 1)
    p = _params(B=0.0)
    mu = 0.3
    for n in (0, 1, 3, -2):
        val = krein_form(n, "positive-axis", mu, p)
        assert val == pytest.approx(2 * np.pi * ((n - mu) ** 2 - 1.0), rel=1e-12)
    assert krein_form(0, "positive-axis", mu, p) < 0
    assert krein_form(1, "positive-axis", mu, p) < 0
    assert krein_form(3, "positive-axis", mu, p) > 0


def test_krein_form_shares_the_closed_form_guards():
    # at mu = 0 the n = 1 negative branch has c_n = 0: the guard must fire
    # before the form divides by it
    with pytest.raises(InvalidMuError):
        krein_form(1, "negative-axis", 0.0, _params())
    with pytest.raises(ValueError, match="V0 = 0"):
        krein_form(3, "positive-axis", 0.3, _params(V0=-0.5))
    with pytest.raises(ValueError, match="branch must be"):
        krein_form(0, "positive", 0.3, _params())


def test_eigenvector_truncation_and_match_gap_guards():
    p = _params(B=1.0, eps=0.2)
    # modes 7 and 5 need M > 9; at M = 8 both still index the vector
    ae = [e for e in analytic_spectrum_V0_zero([7], 0.3, p)
          if e.branch == "positive-axis"][0]
    assert ae.coupled_n == 5 and ae.eigenvector(10).shape == (42,)
    with pytest.raises(TruncationTooSmallError, match="need truncation > 9"):
        ae.eigenvector(8)
    # a closed form 1e-3 off the matrix spectrum has no partner within 1e-4
    report = spectrum(assemble(0.3, 24, p))
    off = replace(ae, lambda_p=ae.lambda_p + 1e-3j)
    assert match_spectra([ae], report)[1] < 1e-8
    with pytest.raises(EigensolveError, match="has no matrix partner"):
        match_spectra([ae, off], report)


def test_krein_form_positive_for_large_modes():
    p = _params(B=1.3, eps=0.2)
    for n in (5, -5, 9):
        for branch in ("positive-axis", "negative-axis"):
            assert krein_form(n, branch, 0.3, p) > 0.0


def test_b_star_reference_values():
    local = ScaledKernel(KernelSpec.gaussian_normalized(), 0.0)
    assert b_star(1.0, local) == pytest.approx(1.0, rel=1e-12)
    assert b_star(2.0, local) == pytest.approx(4.0, rel=1e-12)
    smeared = ScaledKernel(KernelSpec.gaussian_normalized(), 0.5)
    # minimizer sits at mu = 1 for the n = 0 ratio: B* = exp(1/16)
    assert b_star(1.0, smeared) == pytest.approx(np.exp(1.0 / 16.0), rel=1e-6)


def test_b_star_algebraic_kernel_at_small_epsilon():
    # the multipliers nearest s = 0 decide B*; here the n = 0 and n = 1
    # ratios at mu = 1 give B* = 1/zeta_hat(0.1) = 1/(0.1 K_1(0.1))
    kern = ScaledKernel(KernelSpec.algebraic_decay(3.0), 0.1)
    assert abs(b_star(1.0, kern) - 1.0 / (0.1 * k1(0.1))) < 1e-12


def test_b_star_grows_with_epsilon():
    base = KernelSpec.gaussian_normalized()
    vals = [b_star(1.0, ScaledKernel(base, e)) for e in (0.0, 1.0, 10.0)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1e6


def _four_band_b_star(k, kern, samples=10001):
    mus = np.linspace(0.0, 1.0, samples)
    r = {n: float(np.min(kern.base.zeta_hat(k * kern.epsilon * (n - mus))))
         for n in (2, -1, 0, 1)}
    return max(0.75 * k**2 / r[2], 0.75 * k**2 / r[-1], k**2 / r[0], k**2 / r[1])


def test_b_star_two_bands_equal_the_four_band_maximum(tmp_path):
    # zeta_hat is even: the n = -1 and n = 1 bands repeat n = 2 and n = 0
    bases = [KernelSpec.gaussian_normalized(), KernelSpec.gaussian_raw(),
             *(KernelSpec.algebraic_decay(q) for q in (1.5, 3.0, 7.0))]
    for base in bases:
        for eps in (0.0, 0.1, 0.5, 1.0, 3.0):
            for k in (0.5, 1.0, 2.0):
                kern = ScaledKernel(base, eps)
                assert b_star(k, kern) == _four_band_b_star(k, kern), (base.family, eps, k)
    path = tmp_path / "bump.csv"
    s = np.linspace(0, 30, 601)
    vals = 1.0 / (1.0 + s**2) + 0.3 * np.exp(-(s - 2.0) ** 2)  # not monotone
    path.write_text("\n".join(f"{a},{b}" for a, b in zip(s, vals)) + "\n")
    for eps in (0.5, 1.3, 2.0):
        kern = ScaledKernel(KernelSpec.from_table(path), eps)
        assert b_star(1.0, kern) == pytest.approx(_four_band_b_star(1.0, kern),
                                                  rel=1e-15, abs=0.0)


def test_b_star_is_bitwise_the_per_band_sampling(tmp_path):
    # b_star samples both bands in one zeta_hat call; the reference makes
    # one call per band
    path = tmp_path / "table.csv"
    s = np.linspace(0, 30, 601)
    path.write_text("\n".join(f"{a},{b}" for a, b in zip(s, np.exp(-s / 3))) + "\n")
    mus = np.linspace(0.0, 1.0, 10001)
    for base in (KernelSpec.gaussian_normalized(), KernelSpec.gaussian_raw(),
                 KernelSpec.algebraic_decay(3.0), KernelSpec.from_table(path)):
        for eps in (0.1, 0.5, 2.0):
            kern = ScaledKernel(base, eps)
            r2, r0 = (float(np.min(base.zeta_hat(1.0 * eps * (n - mus)))) for n in (2, 0))
            assert b_star(1.0, kern) == max(0.75 / r2, 1.0 / r0), (base.family, eps)


def test_b_star_rejects_sign_changing_transform(tmp_path):
    path = tmp_path / "osc.csv"
    s = np.linspace(0, 30, 601)
    vals = np.exp(-s / 4) * np.cos(2.0 * s)
    path.write_text("\n".join(f"{a},{b}" for a, b in zip(s, vals)) + "\n")
    kern = ScaledKernel(KernelSpec.from_table(path), 1.0)
    assert b_star(1.0, kern) is None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(family=st.sampled_from(["gaussian-normalized", "gaussian-raw", "algebraic"]),
       p=st.floats(1.0, 80.0, exclude_min=True), eps=st.floats(0.0, 60.0),
       k=st.floats(0.0, 4.0, exclude_min=True))
@example(family="gaussian-normalized", p=3.0, eps=60.0, k=4.0)  # zeta_hat(2k eps) is 0
@example(family="algebraic", p=3.0, eps=60.0, k=4.0)
@example(family="algebraic", p=67.87039321878123, eps=4.977611511851837e-06,
         k=0.043762058893578516)  # the largest rounding gap seen, 17 ulps
def test_band_end_b_star_is_the_sampled_b_star(family, p, eps, k):
    # the built-in kernels' B* comes from the far band ends; the same kernel
    # with decreasing=False takes the 2 x 10,001-point sampled path
    base = (KernelSpec.algebraic_decay(p) if family == "algebraic"
            else getattr(KernelSpec, family.replace("-", "_"))())
    assert base.decreasing
    new, old = (b_star(k, ScaledKernel(b, eps))
                for b in (base, replace(base, decreasing=False)))
    if new is None or old is None:
        assert new is None and old is None  # both undefined together
        return
    assert new <= old  # each band end is one of the samples
    if family != "algebraic" or k * eps >= 1e-4:
        assert new == old
    else:
        # below k eps ~ 3e-5 zeta_hat moves between neighbouring samples by
        # less than _power_kv's rounding near 1, so the sampled minimum is a
        # rounding low of the band, seen up to 17 ulps (1.9e-15) under its end
        assert old - new <= 4e-15 * old


def test_above_b_star_all_signatures_positive():
    p = _params(B=2.0)  # B* = 1 here
    for mu in (0.2, 0.5, 0.8):
        rep = spectrum(assemble(mu, 24, p))
        k_r, k_c, k_i_minus, n_L = rep.counts
        assert k_r == 0 and k_c == 0 and k_i_minus == 0 and n_L == 0
        assert all(rep.krein[~np.isnan(rep.krein)] == +1.0)


def test_below_b_star_negative_signature_appears():
    p = _params(B=0.5)
    found = False
    for mu in (0.1, 0.25, 0.4, 0.5, 0.75):
        rep = spectrum(assemble(mu, 24, p))
        if rep.counts[3] > 0:
            found = True
    assert found


def test_a_crit_value_and_predicate():
    assert a_crit(1.0) == pytest.approx(2.4533, abs=5e-4)
    assert a_crit(2.0) == pytest.approx(4 * a_crit(1.0), rel=1e-14)
    # at eps = 0 beta = 1, so V0 = -A gives A itself: a_crit(1.0) is the boundary
    for A, predicate in ((2.46, "unstable-predicted"), (a_crit(1.0), "unstable-predicted"),
                         (1.0, "inconclusive"), (-0.5, "inconclusive")):
        p = _params(B=1.0, V0=-A)
        assert p.A == A
        assert eigen_summary(full_period_spectrum(1, p, 8), p)["predicate"] == predicate


def test_hill_form_reference_values():
    assert hill_quadratic_form({0: 1.0}, 0.0, 1.0) == pytest.approx(-0.5)
    for A in (0.2, 0.45):
        assert hill_quadratic_form({1: 1.0}, A, 1.0) == pytest.approx(A)
    assert hill_quadratic_form({}, 0.3, 1.0) == 0.0


def test_hill_form_matches_canonical_block():
    rng = np.random.default_rng(97)
    p = _params(B=0.0, V0=-0.3)
    M = 12
    op = assemble(0.0, M, p)
    n = 2 * M + 1
    L_minus = op.L_matrix[n:, n:]
    for _ in range(10):
        g = {int(j): complex(rng.standard_normal(), rng.standard_normal())
             for j in rng.integers(-8, 9, size=6)}
        vec = np.zeros(n, complex)
        for j, c in g.items():
            vec[M + j] = c
        direct = float(np.real(vec.conj() @ L_minus @ vec))
        assert hill_quadratic_form(g, p.A, p.k) == pytest.approx(direct,
                                                                 rel=1e-10,
                                                                 abs=1e-10)


def test_plus_block_has_two_negative_directions():
    # B = 0 and A in (0, k^2/2): the first canonical block counts exactly 2
    for A in (0.1, 0.3, 0.45):
        p = _params(B=0.0, V0=-A)
        for mu in (0.25, 0.5, 0.8):
            op = assemble(mu, 24, p)
            n = 2 * 24 + 1
            evals = np.linalg.eigvalsh(op.L_matrix[:n, :n])
            assert int(np.sum(evals < 0)) == 2


def test_zero_modes_at_mu_zero():
    for (B, V0, eps) in ((1.0, -0.7, 0.0), (0.8, -0.3, 0.2), (1.2, 0.0, 0.1)):
        p = _params(B=B, V0=V0, eps=eps)
        op = assemble(0.0, 20, p)
        v = phase_zero_mode(op)
        assert np.max(np.abs(op.JL_matrix @ v)) < 1e-10
    # generalized mode: at V0 = 0 (D = 1) L maps (cos, sin) to 2B (cos, sin)
    p = _params(B=1.3, V0=0.0, eps=0.0)
    op = assemble(0.0, 20, p)
    g = generalized_zero_mode(op)
    assert np.max(np.abs(op.L_matrix @ g - 2.0 * 1.3 * g)) < 1e-10
    # at B = 0, D is undefined
    op = assemble(0.0, 8, _params(B=0.0))
    for mode in (phase_zero_mode, generalized_zero_mode):
        with pytest.raises(ValueError, match="B > 0"):
            mode(op)


def test_full_period_spectrum_merges_in_mu_order():
    p = _params(B=1.0, V0=-0.5, eps=0.05)
    reports = full_period_spectrum(4, p, 16)
    assert [r.mu for r in reports] == [0.0, 0.25, 0.5, 0.75]


def test_sweep_solves_mu_up_to_one_half(monkeypatch):
    solved, eigs = [], []
    spectra_fn, eig_fn = bloch._spectra, np.linalg.eigvals
    monkeypatch.setattr(bloch, "_spectra",
                        lambda mus, bands: solved.append(list(mus)) or spectra_fn(mus, bands))
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a, *args, **kw: eigs.append(np.shape(a)) or eig_fn(a, *args, **kw))
    reports = full_period_spectrum(4, _params(B=1.0, V0=-0.5, eps=0.05), 16)
    assert solved == [[0.0, 0.25, 0.5]]  # one stacked solve
    # one eigvals call per parity block, each on the three solved mu
    assert eigs == [(3, 2 * 17, 2 * 17), (3, 2 * 16, 2 * 16)]
    assert [r.mu for r in reports] == [0.0, 0.25, 0.5, 0.75]
    assert all(r.eigenvalues.size == 2 * (2 * 16 + 1) for r in reports)


def test_sweep_and_b_star_sample_zeta_hat_once():
    calls = []
    base = KernelSpec.algebraic_decay(3.0)
    counting = KernelSpec(base.family, base.zeta,
                          lambda s: calls.append(np.shape(s)) or base.zeta_hat(s))
    p = _params(B=1.0, V0=-0.5, eps=0.5, base=counting)
    calls.clear()  # solution_params samples beta
    full_period_spectrum(4, p, 16)
    assert calls == [(3, 2 * 16 + 1)]
    calls.clear()
    b_star(1.0, p.kernel, samples=101)
    assert calls == [(2, 101)]
    calls.clear()  # a decreasing transform: the two far band ends
    b_star(1.0, ScaledKernel(replace(counting, decreasing=True), 0.5), samples=101)
    assert calls == [(2, 1)]


_BAND_BASES = {"gaussian-normalized": KernelSpec.gaussian_normalized(),
               "gaussian-raw": KernelSpec.gaussian_raw(),
               "algebraic:1.5": KernelSpec.algebraic_decay(1.5),
               "algebraic:3": KernelSpec.algebraic_decay(3.0)}


def _square_L_real(mu, M, p):
    """L' as the square matrix, the way it was assembled before the bands."""
    modes = np.arange(-M, M + 1) - (mu - 1.0 if mu > 0.5 else mu)
    a_cc = 2.0 * p.alpha * p.B
    a_cs = 2.0 * p.alpha * np.sqrt(p.B * (p.B + p.A))
    a_ss = 2.0 * p.alpha * (p.B + p.A)
    Dg = np.diag(0.5 * p.k**2 * (modes**2 - 1.0))
    lam = np.asarray(p.kernel.base.zeta_hat(p.k * p.kernel.epsilon * modes), dtype=float)
    lo = np.concatenate([[0.0], lam[:-1]])
    hi = np.concatenate([lam[1:], [0.0]])
    F = np.diag(0.25 * lam[1:-1], 2)
    side = np.diag(0.25 * (lo + hi))
    L12 = -a_cs * (np.diag(0.25 * (hi - lo)) + F.T - F)
    return np.block([[Dg + a_cc * (side + F + F.T), L12],
                     [L12.T, Dg - a_ss * (F + F.T - side)]])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kernel=st.sampled_from(sorted(_BAND_BASES)),
       B=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), V0=st.floats(-3.0, 0.0),
       eps=st.floats(0.0, 1.0), alpha=st.sampled_from([1, -1]),
       n=st.sampled_from([1, 2, 3, 4, 8]), M=st.sampled_from([8, 16, 33, 64]))
# B lies below -A within solution_params' round-off allowance: B + A = 0
@example(kernel="algebraic:1.5", B=2.2426492623724913e-213,
         V0=-2.1837444675588885e-164, eps=0.0, alpha=-1, n=1, M=8)
def test_band_blocks_and_stacked_sweep_match_one_operator_bitwise(kernel, B, V0, eps,
                                                                  alpha, n, M):
    try:
        p = _params(B=B, V0=V0, eps=eps, alpha=alpha, base=_BAND_BASES[kernel])
    except ValueError:  # B below max(-A, 0): no solution to linearise about
        assume(False)
    size = 2 * M + 1
    for r in range(n // 2 + 1):
        op = assemble(r / n, M, p)
        # the bands hold the square form's entries, signed zeros included
        assert _same_bits(op.L_real, _square_L_real(r / n, M, p)), r
        X = op.bands.reshape(1, 2, 2, 4, -1)[:, ::-1]
        for first in (0, 1):
            half = np.arange(first, size, 2)
            idx = np.concatenate([half, half + size])
            Lb = op.L_real[np.ix_(idx, idx)]
            gathered = np.concatenate([Lb[half.size:], Lb[:half.size]])
            assert _same_bits(bloch._dense(X, first, 2)[0], gathered), (r, first)
    for rep in full_period_spectrum(n, p, M)[:n // 2 + 1]:
        one = spectrum(assemble(rep.mu, M, p))
        assert _same_bits(rep.eigenvalues, one.eigenvalues), rep.mu
        assert np.array_equal(rep.krein, one.krein, equal_nan=True), rep.mu
        assert (rep.counts, rep.near_origin) == (one.counts, one.near_origin), rep.mu
        assert rep.max_real_part == one.max_real_part


_MIRROR_BASES = {"gaussian-normalized": KernelSpec.gaussian_normalized(),
                 "algebraic:3": KernelSpec.algebraic_decay(3.0)}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(kernel=st.sampled_from(sorted(_MIRROR_BASES)),
       B=st.floats(0.0, 2.0), V0=st.floats(-3.0, 0.0), eps=st.floats(0.0, 1.0),
       n=st.sampled_from([3, 4, 5, 8]), M=st.integers(8, 24))
def test_mirrored_reports_match_independent_solves(kernel, B, V0, eps, n, M):
    try:
        p = _params(B=B, V0=V0, eps=eps, base=_MIRROR_BASES[kernel])
    except ValueError:  # B below max(-A, 0): no solution to linearise about
        assume(False)
    reports = full_period_spectrum(n, p, M)
    for r in range(n // 2 + 1, n):
        mirrored, solved = reports[r], spectrum(assemble(r / n, M, p))
        assert mirrored.mu == r / n
        assert mirrored.counts == solved.counts
        assert mirrored.near_origin == solved.near_origin
        for rep in (mirrored, solved):  # NaN exactly off the imaginary axis
            w = rep.eigenvalues
            on_axis = (np.abs(w) < rep.scale) | (np.abs(w.real) < rep.scale)
            assert rep.krein.dtype == np.float64
            assert np.array_equal(np.isnan(rep.krein), ~on_axis), (r, rep.mu)
        labels = solved.krein
        far = np.abs(mirrored.eigenvalues) >= mirrored.scale
        for lam, kr in zip(mirrored.eigenvalues[far], mirrored.krein[far]):
            near = (np.abs(solved.eigenvalues - lam)
                    <= 1e-9 * max(1.0, abs(lam)))
            assert near.any(), (r, lam)
            assert (np.isnan(labels[near]).any() if np.isnan(kr)
                    else kr in labels[near]), (r, lam, kr)


def test_eigen_summary_fields():
    p = _params(B=2.0, V0=-0.2, eps=0.0)
    reports = full_period_spectrum(2, p, 16)
    summary = eigen_summary(reports, p)
    assert summary["verdict"] == "spectrally stable"
    assert summary["b_star"] == pytest.approx(1.0, rel=1e-10)
    assert summary["a_crit"] == pytest.approx(a_crit(1.0))
    assert summary["A"] == pytest.approx(p.A)
    assert summary["predicate"] == "inconclusive"
    assert len(summary["per_mu"]) == 2


def test_eigen_csv_export(tmp_path):
    import csv as csvmod

    p = _params(B=1.0, V0=-0.5, eps=0.0)
    reports = full_period_spectrum(2, p, 12)
    path = tmp_path / "eig.csv"
    bloch.write_eigen_csv(reports, path)
    with open(path) as fh:
        rows = list(csvmod.DictReader(fh))
    expected = sum(len(r.eigenvalues) for r in reports)
    assert len(rows) == expected
    assert set(rows[0]) == {"mu", "re_lambda", "im_lambda", "krein", "flag"}
    assert any(r["flag"] == "near-origin" for r in rows)  # mu = 0 pair


def test_eigen_csv_bytes_match_csv_writer(tmp_path):
    # every label kind, signed zeros and a mu that is a numpy float; label 0
    # reads "zero-mode" at the origin and "indefinite" away from it
    import csv as csvmod

    w = np.array([-0.0 - 3.5j, 2e-7 + 0.0j, 0.0 + 1e-9j, 0.25 - 0.0j, -0.0 + 4.0j,
                  0.0 + 4.0j, 1.5 + 2.5j])
    krein = np.array([1.0, 0.0, 0.0, np.nan, 0.0, 0.0, np.nan])
    reports = [bloch.EigenReport(mu=mu, eigenvalues=w, krein=krein, max_real_part=1.5,
                                 counts=(1, 1, 1, 3), scale=1e-6)
               for mu in (0.0, np.float64(0.1) + 0.2)]
    path = tmp_path / "eig.csv"
    bloch.write_eigen_csv(reports, path)
    ref = tmp_path / "ref.csv"
    labels = ["+1", "zero-mode", "zero-mode", "", "indefinite", "indefinite", ""]
    with open(ref, "w", newline="") as fh:
        out = csvmod.writer(fh)
        out.writerow(["mu", "re_lambda", "im_lambda", "krein", "flag"])
        for rep in reports:
            for lam, label in zip(rep.eigenvalues, labels):
                flag = "near-origin" if abs(lam) < rep.scale else ""
                out.writerow([repr(float(rep.mu)), repr(float(lam.real)),
                              repr(float(lam.imag)), label, flag])
    assert path.read_bytes() == ref.read_bytes()


# ---------------------------------------------------------------------------
# Real-symmetric form L' = T* L T


def _regime_params(name, base=None):
    reg = FIGURE_REGIMES[name]
    return _params(B=reg["B"], V0=reg["V0"], eps=reg["eps"],
                   base=KernelSpec.gaussian_raw() if base is None else base)


def _real_form_cases():
    gauss = _params(B=0.8, V0=-0.4, eps=0.2)
    alg = _params(B=1.0, V0=-1.0, eps=0.5, base=KernelSpec.algebraic_decay(3.0))
    return [(p, mu, M) for p in (gauss, alg) for mu in (0.0, 0.3, 0.5)
            for M in (16, 32)]


def test_real_form_is_real_and_exactly_symmetric():
    for p, mu, M in _real_form_cases():
        Lp = assemble(mu, M, p).L_real
        assert Lp.dtype == np.float64
        assert np.array_equal(Lp, Lp.T)


def test_spectrum_matches_complex_eigensolve_of_JL():
    for p, mu, M in _real_form_cases():
        op = assemble(mu, M, p)
        rep = spectrum(op)
        ref = scipy.linalg.eigvals(op.JL_matrix)
        assert rep.eigenvalues.size == ref.size
        for mine, other in ((rep.eigenvalues, ref), (ref, rep.eigenvalues)):
            for lam in mine[np.abs(mine) >= rep.scale]:
                gap = np.min(np.abs(other - lam))
                assert gap <= 1e-9 * max(1.0, abs(lam)), (mu, M, lam, gap)


def test_krein_labels_match_sign_of_quadratic_form():
    # below B* negative signatures appear; each label must be the sign of
    # <L v, v> on the eigenvector of the complex matrix JL
    seen = set()
    for B, mu in ((0.5, 0.25), (0.5, 0.4), (1.5, 0.3)):
        op = assemble(mu, 24, _params(B=B, V0=-0.3, eps=0.2))
        rep = spectrum(op)
        ref, V = scipy.linalg.eig(op.JL_matrix)
        for lam, label in zip(rep.eigenvalues, rep.krein):
            if label not in (1.0, -1.0):
                continue
            gaps = np.abs(ref - lam)
            i = int(np.argmin(gaps))
            assert gaps[i] < 1e-9 * max(1.0, abs(lam))
            assert np.sort(gaps)[1] > 1e-6  # the match is unambiguous
            assert np.sign(matrix_quadratic_form(op, V[:, i])) == label
            seen.add(label)
    assert seen == {1.0, -1.0}


def test_stable_regimes_have_positive_zero_abscissa(tmp_path):
    for name in ("1b", "2a"):
        reports = full_period_spectrum(4, _regime_params(name), 32)
        for rep in reports:
            assert rep.max_real_part == 0.0
            assert math.copysign(1.0, rep.max_real_part) == 1.0
        path = tmp_path / f"{name}.csv"
        bloch.write_eigen_csv(reports, path)
        rows = path.read_text().splitlines()[1:]
        assert rows and not any(row.split(",")[1] == "-0.0" for row in rows)


def test_near_origin_eigenvalues_are_labelled_zero_modes():
    # the phase-symmetry Jordan pair splits by ~1e-7 onto either axis;
    # its label must not depend on which
    alg = _params(B=1.0, V0=-1.0, eps=0.5, base=KernelSpec.algebraic_decay(3.0))
    for p in (_regime_params("1a"), _regime_params("1b"), alg):
        rep = spectrum(assemble(0.0, 64, p))
        near = [kr for lam, kr in zip(rep.eigenvalues, rep.krein)
                if abs(lam) < rep.scale]
        assert len(near) == rep.near_origin >= 2
        assert all(kr == 0.0 for kr in near)


# ---------------------------------------------------------------------------
# Parity split: L' couples mode j only to j and j +- 2


def _parity_cases():
    kernels = (
        _params(B=0.5, V0=-0.4, eps=0.2),  # below B*: negative signatures
        _params(B=1.0, V0=-1.0, eps=0.01, base=KernelSpec.gaussian_raw()),
        _params(B=1.0, V0=-1.0, eps=0.5, base=KernelSpec.algebraic_decay(3.0)),
    )
    return [(p, mu, M) for p in kernels for mu in (0.0, 0.25, 0.5, 0.75)
            for M in (16, 64)]


def test_real_form_never_couples_even_and_odd_modes():
    for p, mu, M in _parity_cases():
        Lp = assemble(mu, M, p).L_real
        odd = np.tile(np.arange(-M, M + 1) % 2 == 1, 2)
        assert np.all(Lp[np.ix_(odd, ~odd)] == 0.0), (mu, M)
        assert np.all(Lp[np.ix_(~odd, odd)] == 0.0), (mu, M)


_FORM_TOL = 1e-8  # a Krein form below this times |w|^2 is labelled 0


def _round_off_scale(Lr):
    """h = 8 sqrt(eps_mach max(1, max |L'_jj|)), the split of a Jordan block."""
    return 8.0 * math.sqrt(np.finfo(float).eps * max(1.0, np.max(np.abs(np.diag(Lr)))))


def _full_solve_oracle(op):
    """Counts and on-axis Krein labels from one solve of the whole P L'."""
    n = op.size // 2
    Lr = op.L_real
    nu, W = scipy.linalg.eig(np.concatenate([Lr[n:], Lr[:n]]))
    w = 1j * nu
    scale = _round_off_scale(Lr)
    origin = np.abs(w) < scale
    on_axis = ~origin & (np.abs(w.real) < scale)
    right = ~origin & (w.real >= scale)
    X = W[:, on_axis]
    form = 2.0 * nu.real[on_axis] * np.real(np.sum(X[:n].conj() * X[n:], axis=0))
    nrm2 = np.sum(np.abs(X) ** 2, axis=0)
    sig = np.where(np.abs(form) < _FORM_TOL * nrm2, 0.0, np.sign(form))
    ev_L = scipy.linalg.eigvalsh(Lr)
    n_L = int(np.sum(ev_L < -1e-8 * max(1.0, float(np.max(np.abs(ev_L))))))
    k_r = int(np.sum(right & (np.abs(w.imag) < scale)))
    counts = (k_r, int(np.sum(right)) - k_r, int(np.sum(sig < 0)), n_L)
    return counts, int(np.sum(origin)), w[on_axis], sig


def test_split_spectrum_matches_full_solve_oracle():
    negative = 0
    for p, mu, M in _parity_cases():
        op = assemble(mu, M, p)
        rep = spectrum(op)
        counts, near_origin, on_axis, sig = _full_solve_oracle(op)
        assert rep.scale == _round_off_scale(op.L_real), (mu, M)
        assert rep.counts == counts, (mu, M)
        assert rep.near_origin == near_origin, (mu, M)
        labels = rep.krein
        for lam, s in zip(on_axis, sig):
            near = np.abs(rep.eigenvalues - lam) <= 1e-9 * max(1.0, abs(lam))
            assert s in labels[near], (mu, M, lam)
        negative += counts[2]
    assert negative > 0


def test_spectrum_solves_two_parity_blocks(monkeypatch):
    # one vector-free eigensolve per parity block, and no other: the Krein
    # signs and n(L) come from inertia counts
    seen, solver = [], np.linalg.eigvals

    def record(a, *args, **kwargs):
        seen.append(np.shape(a))
        return solver(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("spectrum needs eigenvalues only")

    monkeypatch.setattr(np.linalg, "eigvals", record)
    for name in ("eig", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    p = _params(B=1.0, V0=-1.0, eps=0.5, base=KernelSpec.algebraic_decay(3.0))
    for M in (16, 64):
        for mu in (0.0, 0.25):
            seen.clear()
            rep = spectrum(assemble(mu, M, p))
            assert rep.eigenvalues.size == 2 * (2 * M + 1)
            # a stack of one block per call: the sweep's solve on one mu
            assert seen == [(1, 2 * (M + 1), 2 * (M + 1)), (1, 2 * M, 2 * M)], seen


# ---------------------------------------------------------------------------
# Krein signs and n(L) from inertia counts


_ORACLE_BASES = {"gaussian-normalized": KernelSpec.gaussian_normalized(),
                 "gaussian-raw": KernelSpec.gaussian_raw(),
                 "algebraic:3": KernelSpec.algebraic_decay(3.0),
                 "algebraic:2.5": KernelSpec.algebraic_decay(2.5)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kernel=st.sampled_from(sorted(_ORACLE_BASES)),
       B=st.floats(0.0, 2.0), V0=st.floats(-3.0, 0.0), eps=st.floats(0.0, 1.0),
       mu=st.one_of(st.sampled_from([0.0, 0.25, 0.5]),
                    st.floats(0.0, 1.0, exclude_max=True)),
       M=st.integers(8, 48))
# mu = 0 at M = 64: the +-j modes decouple near the edge, so on-axis
# eigenvalues come in exact and one-ulp ties that must share one jump
@example(kernel="gaussian-raw", B=0.5, V0=-0.4, eps=0.2, mu=0.0, M=64)
def test_inertia_counts_match_eigenvector_oracle(kernel, B, V0, eps, mu, M):
    try:
        p = _params(B=B, V0=V0, eps=eps, base=_ORACLE_BASES[kernel])
    except ValueError:  # B below max(-A, 0): no solution to linearise about
        assume(False)
    op = assemble(mu, M, p)
    rep = spectrum(op)
    counts, near_origin, on_axis, sig = _full_solve_oracle(op)
    assert rep.near_origin == near_origin
    k_r, k_c, k_im, n_L = rep.counts
    assert (k_r, k_c, n_L) == (counts[0], counts[1], counts[3])
    # the oracle leaves a sign out where its form is below tolerance (as for
    # the split phase pair at tiny mu); the inertia count still signs it
    unsigned = int(np.sum(sig == 0.0))
    assert counts[2] <= k_im <= counts[2] + unsigned
    labels = rep.krein
    for lam, s in zip(on_axis[sig != 0.0], sig[sig != 0.0]):
        near = np.abs(rep.eigenvalues - lam) <= 1e-9 * max(1.0, abs(lam))
        if s not in labels[near]:
            # an indefinite cluster: labelled 0, and the oracle sees both signs
            assert 0.0 in labels[near], (lam, s, labels[near])
            close = np.abs(on_axis - lam) <= 1e-9 * max(1.0, abs(lam))
            assert -s in sig[close], (lam, s, sig[close])


def test_indefinite_cluster_is_labelled_zero_and_counted():
    # at B = V0 = 0, L' is the kinetic diagonal: mode j gives nu = +-d_j with
    # Krein sign sign(d_j).  At mu = 1e-5 the modes j = 1 (d < 0) and j = -1
    # (d > 0) put nu 1e-10 apart at +-1e-5: two clusters of opposite signs
    op = assemble(1e-5, 8, _params(B=0.0, V0=0.0))
    rep = spectrum(op)
    small = np.abs(rep.eigenvalues) < 1e-4
    assert np.sum(small) == 4 and rep.near_origin == 0
    assert [kr for kr, sm in zip(rep.krein, small) if sm] == [0.0] * 4
    # each cluster still adds its one negative sign: j = 0 and j = 1 give
    # the four negative directions of L'
    assert rep.counts == _full_solve_oracle(op)[0] == (0, 0, 4, 4)
    assert rep.count_identity_holds


@pytest.mark.parametrize("M", [
    pytest.param(M, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="N3: the pair next to the origin is split by less than the round-off "
               "scale h, so spectrum labels it zero where the oracle signs it"))
    for M in (8, 15)])
def test_pair_next_to_the_origin_cluster_keeps_the_oracle_signs(M):
    # at B = V0 = eps = 0 and mu = 1e-6 the four nu = +-1e-6 (1 -+ 5e-7) pair
    # opposite Krein signs 1e-12 apart.  At M = 8 (h = 6.7e-7) each pair is
    # one indefinite cluster, labelled 0, which the oracle signs -+1; at
    # M = 15 (h = 1.3e-6) all four lie in the origin cluster, and the oracle
    # has no on-axis sign left to compare
    op = assemble(1e-6, M, _params(B=0.0, V0=0.0))
    rep = spectrum(op)
    _, _, on_axis, sig = _full_solve_oracle(op)
    small = np.abs(on_axis) < 1e-5
    assert small.any(), rep.scale
    nearest = [int(np.argmin(np.abs(rep.eigenvalues - lam))) for lam in on_axis[small]]
    assert rep.krein[nearest].tolist() == sig[small].tolist()


def test_inertia_sweep_rejects_singular_and_non_finite_pivots():
    ops = [assemble(mu, 8, _params(B=1.0, V0=-0.5, eps=0.2)) for mu in (0.25, 0.5)]
    bands = np.stack([op.bands for op in ops])
    s = t = np.zeros((4, 3))  # group 2 o + b: operator o, parity block b
    assert bloch._negative_counts(bands, s, t, [0.25, 0.5]).shape == (4, 3)
    broken = bands.copy()
    broken[1, 0, 1, 3] = np.nan  # L'[3, 3] of the operator at mu = 0.5
    for bad in (np.zeros_like(bands), broken):
        with pytest.raises(bloch.EigensolveError,
                           match="at mu=0.5: a singular or non-finite pivot"):
            bloch._negative_counts(np.stack([bands[0], bad[1]]), s, t, [0.25, 0.5])


# alpha = +1, V0 = -1, eps = 0 at large B: L is nonnegative, so n(L) = 0 and
# these states are spectrally stable, but the sweep answers otherwise
_LARGE_B = [(1e3, 16), (1e4, 64), (1e4, 16), (1e5, 16)]


@pytest.mark.parametrize("B, M", _LARGE_B)
def test_large_B_states_have_nonnegative_L(B, M):
    # L's least eigenvalue is the phase mode's (about 1e-11 in size at mu = 0),
    # and the next one is about 1/2
    p = _params(B=B, V0=-1.0)
    for mu in (0.0, 0.25, 0.5):
        ev = np.linalg.eigvalsh(assemble(mu, M, p).L_real)
        assert ev[0] > -1e-9, (mu, ev[:2])
        if mu == 0.0:
            assert ev[1] > 0.4, ev[:2]


@pytest.mark.parametrize("B, M", [
    pytest.param(B, M, marks=pytest.mark.xfail(
        strict=True, raises=EigensolveError if (B, M) in ((1e3, 16), (1e4, 64))
        else AssertionError,
        reason="at large B the mu = 0 sweep of a stable state fails its jump parity "
               "or reports k_r = 1; the phase pair's split outgrowing h is a guess"))
    for B, M in _LARGE_B])
def test_large_B_stable_states_are_reported_stable(B, M):
    p = _params(B=B, V0=-1.0)
    reports = full_period_spectrum(4, p, M)
    assert eigen_summary(reports, p)["verdict"] == "spectrally stable"
    assert reports[0].counts[0] == 0  # k_r at mu = 0
