"""Floquet-Bloch stability analysis of the traveling-wave states.

Perturbations of period 2*pi*n/k decompose over Bloch parameters mu = r/n.
After scaling x -> kx, the linearized operator at each mu acts on pairs of
(real, imaginary) perturbation components expanded in e^{-ijx}/sqrt(2*pi),
j = -M..M.  The building blocks are the kinetic symbol k^2((j-mu)^2-1)/2,
the cos/sin multiply stencils, and the convolution multiplier diagonal
r_j = zeta_hat(k*eps*(j-mu)).  Every block couples mode j only to j and
j +- 2 (cos^2, sin^2 and sin cos have period pi/k), so the problem splits
exactly by the parity of j: the 2 pi-periodic problem at mu is the union of
the pi-periodic problems at mu/2 and (mu + 1)/2.

The reflection (p, q)(x) -> (p(-x), -q(-x)) maps mu to 1 - mu and sigma(JL)
to its conjugate, with the same Krein signs and n(L).  The window of j - mu is
centred (mu > 1/2 taken as mu - 1, so index i holds mode i - M + 1 there): the
truncations at mu and 1 - mu mirror each other exactly and a sweep solves
only mu <= 1/2.

Eigenvalues of JL with positive real part signal spectral instability;
purely imaginary eigenvalues carry a Krein signature sgn(<L v, v>) whose
negative values mark the collisions that can trigger instability.  The
signatures and n(L) are read off inertia counts, not eigenvectors (the
graphical Krein signature of Kollar & Miller, SIAM Review 56, 2014).  A sweep
over mu is one stacked solve on the bands of L': one eigvals call per parity
and one block-LDL^T sweep of L' - nu P for every mu at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import ScaledKernel
from .runs import ConfigError, write_csv
from .waves import SolutionParams

TWO_PI = 2.0 * np.pi


class InvalidMuError(ConfigError):
    """Bloch parameter outside [0, 1)."""


class TruncationTooSmallError(ConfigError):
    """Fourier truncation too small to represent the coupling stencils."""


class EigensolveError(RuntimeError):
    """The dense eigensolver or the inertia sweep of ``spectrum`` failed.
    A sweep that met a singular or non-finite pivot marks the (group, shift)
    entries that ``failed``."""

    def __init__(self, message, failed=None):
        super().__init__(message)
        self.failed = failed


@dataclass(frozen=True, eq=False)
class BlochOperator:
    """Truncated L_mu as bands of the real-symmetric L' = T* L T, T = diag(I, iI).

    ``bands[c]`` is block c = 0..3 of L' = [[PP, PQ], [QP, QQ]] as four rows:
    its off-band value (a signed zero, which dgeev's rounding depends on), and
    its diagonals 0, +2 and -2, these two at the higher mode (column j holds
    X[j-2, j] and X[j, j-2]).  ``L_real``, ``L_matrix`` = T L' T* and
    ``JL_matrix`` = J L are built on access, for the oracles."""

    mu: float
    truncation: int
    D: float | None
    bands: np.ndarray

    @property
    def size(self) -> int:
        return 2 * (2 * self.truncation + 1)

    @property
    def L_real(self) -> np.ndarray:
        return _dense(self.bands.reshape(2, 2, 4, -1), 0, 1)

    @property
    def L_matrix(self) -> np.ndarray:
        t = np.repeat([1.0, 1.0j], self.size // 2)
        return t[:, None] * self.L_real * t.conj()

    @property
    def JL_matrix(self) -> np.ndarray:
        L, n = self.L_matrix, self.size // 2
        return np.concatenate([L[n:], -L[:n]])


def _dense(X: np.ndarray, first: int, step: int) -> np.ndarray:
    """Dense (..., 2m, 2m) grid of bands X (..., 2, 2, 4, n) on modes first::step."""
    m = X[..., 1, first::step].shape[-1]
    out = np.empty(X.shape[:-4] + (2, m, 2, m))
    quad, k = out.swapaxes(-3, -2), 2 // step  # (..., 2, 2, m, m); j +- 2 at +-k
    quad[...] = X[..., 0, :1, None]
    for row, part in (1, quad), (2, quad[..., :-k, k:]), (3, quad[..., k:, :-k]):
        # einsum gives the diagonals as writeable views
        np.einsum("...ii->...i", part)[...] = X[..., row, first + 2 * (row > 1)::step]
    return out.reshape(X.shape[:-4] + (2 * m, 2 * m))


def assemble(mu: float, truncation: int, params: SolutionParams) -> BlochOperator:
    """Build the truncated L_mu in its real-symmetric form L', as bands.

    The nonlocal coupling enters L as 2*alpha times the block matrix
    [[B CLC, sqrt(B(B+A)) CLS], [sqrt(B(B+A)) SLC, (B+A) SLS]] where C and S
    are the cos/sin shift stencils and Lam = diag(r_j).  With S = i St (St
    real antisymmetric), L' = [[Dg + a_cc CLC, -a_cs CLSt],
    [a_cs StLC, Dg - a_ss StLSt]] with a_* the coefficients above times 2*alpha.
    At B = 0 the off-diagonal blocks vanish and the matrix is the canonical
    diag(L+_mu, L-_mu) form used by the instability analysis.
    """
    if not 0.0 <= mu < 1.0:
        raise InvalidMuError(f"Bloch parameter must lie in [0, 1), got {mu}")
    check_settings(truncation)
    return BlochOperator(mu=float(mu), truncation=int(truncation), D=params.D,
                         bands=_bands([mu], truncation, params)[0])


def _bands(mus, truncation: int, params: SolutionParams) -> np.ndarray:
    """``BlochOperator.bands`` at each mu, from one zeta_hat call: band arrays
    combined by the square form's operations hold its entries and signed zeros."""
    centre = np.array([[mu - 1.0 if mu > 0.5 else mu] for mu in mus])
    modes = np.arange(-truncation, truncation + 1) - centre
    k, B, A, alpha = params.k, params.B, params.A, params.alpha
    a_cc = 2.0 * alpha * B
    a_cs = 2.0 * alpha * np.sqrt(B * (B + A))
    a_ss = 2.0 * alpha * (B + A)

    lam = params.kernel.base.zeta_hat(k * params.kernel.epsilon * modes)
    z = np.zeros_like(lam)
    lo = np.concatenate([z[:, :1], lam[:, :-1]], axis=1)  # r_{j-1}, zero past the edge
    hi = np.concatenate([lam[:, 1:], z[:, :1]], axis=1)   # r_{j+1}
    f = np.concatenate([z[:, :2], 0.25 * lam[:, 1:-1]], axis=1)  # F[j-2, j] = r_{j-1}/4
    band = lambda diag=z, up=z, down=z: np.stack([z, diag, up, down], axis=1)
    Dg = band(0.5 * k**2 * (modes**2 - 1.0))
    side, F, FT = band(0.25 * (lo + hi)), band(up=f), band(down=f)
    L12 = -a_cs * (band(0.25 * (hi - lo)) + FT - F)  # -a_cs C Lam St
    return np.stack([Dg + a_cc * (side + F + FT), L12, L12[:, [0, 1, 3, 2]],
                     Dg - a_ss * (F + FT - side)], axis=1)


@dataclass(frozen=True, eq=False)
class EigenReport:
    """Spectrum of one Bloch operator with Krein bookkeeping.

    ``krein`` is a float array aligned with ``eigenvalues``: +1/-1 for purely
    imaginary eigenvalues in a cluster of one Krein sign, NaN for eigenvalues
    off the imaginary axis, and 0 for the origin modes and for every member of an
    indefinite cluster (purely imaginary eigenvalues within 1e-9 max(1, |lambda|)
    of each other whose signs differ, so no member has a sign of its own).
    Eigenvalues within ``_ORIGIN_TOL`` of the origin are symmetry
    (phase/translation) modes: round-off decides on which axis the split
    phase Jordan pair lands.  They stay in the list but are excluded from
    ``max_real_part`` and from the count identity.
    """

    mu: float
    eigenvalues: np.ndarray
    krein: np.ndarray
    max_real_part: float
    counts: tuple  # (k_r, k_c, k_i_minus, n_L)
    near_origin: int

    @property
    def count_identity_holds(self) -> bool:
        k_r, k_c, k_im, n_L = self.counts
        return k_r + k_c + k_im == n_L


_ORIGIN_TOL = 1e-6
_IM_AXIS_TOL = 1e-8
_CLUSTER_TOL = 1e-9
UNSTABLE_ABSCISSA = 1e-8  # a spectral abscissa above this is "unstable"


def spectrum(op: BlochOperator) -> EigenReport:
    """Dense eigensolve of JL with Krein signatures and stability counts.

    JL = T (i P L') T* with P the block swap, so the real matrix P L' is
    solved, in its even-j and odd-j blocks, for its eigenvalues only (dgeev
    without vectors) and lambda = i nu: real nu lie exactly on the imaginary
    axis, complex nu come in the pairs lambda, -conj(lambda).  A real nu is
    where an eigenvalue curve of the pencil L' - s P crosses zero, with slope
    -w^T P w, and w^T L' w = nu w^T P w; so the sign of <L v, v> is sign(nu)
    times the jump of the negative count of L' - s P as s crosses nu.  Real
    nu within 1e-9 max(1, |nu|) of each other share one jump, and so do two
    clusters between which the sweep meets a singular pivot; a cluster whose
    jump is smaller than its size is indefinite and still adds its exact
    number of negative signs to k_i^-.  n(L) is the negative count of
    L' + tau I, tau = 1e-8 max(1, max |L'_jj|), leaving out the near-zero
    symmetry eigenvalues of L'.  A sweep makes this solve for all mu at once.
    """
    return _spectra([op.mu], op.bands[None])[0]


def _spectra(mus, bands: np.ndarray) -> list:
    """``spectrum`` at every mu of a stack of bands, in one stacked solve."""
    X = bands.reshape(len(mus), 2, 2, 4, -1)[:, ::-1]  # P L' = [[QP, QQ], [PP, PQ]]
    nus = []
    for blocks in (_dense(X, b, 2) for b in (0, 1)):
        try:
            nus.append(np.linalg.eigvals(blocks))
        except np.linalg.LinAlgError:
            for a, mu in zip(blocks, mus):  # on failure only: name the failing mu
                try:
                    np.linalg.eigvals(a)
                except np.linalg.LinAlgError as exc:
                    raise EigensolveError(f"eigensolve failed at mu={mu}: {exc}") from None
            raise
    # group g = 2 o + b holds the nu of parity block b of operator o
    half = np.tile([nus[0].shape[1] // 2, nus[1].shape[1] // 2], len(mus))
    nu = np.concatenate(nus, axis=1)
    group = np.repeat(np.arange(half.size), 2 * half)
    w = 1j * nu
    w.real += 0.0  # 1j * nu gives Re = -0.0 for real nu < 0
    scale, origin = _IM_AXIS_TOL * (1.0 + np.abs(w)), np.abs(w) < _ORIGIN_TOL
    right = ~origin & (w.real > scale)

    # clusters of real nu per group, in (group, nu) order; the origin modes
    # form one cluster, so no shift falls where L' is singular
    real = np.flatnonzero(origin | (np.abs(w.real) < scale))
    real = real[np.lexsort((nu.real.flat[real], group[real]))]
    x, xg, xo = nu.real.flat[real], group[real], origin.flat[real]
    joined = (xg[1:] == xg[:-1]) & (
        (np.diff(x) <= _CLUSTER_TOL * np.maximum(1.0, np.abs(x[1:])))
        | (xo[1:] & xo[:-1]))
    tau = 1e-8 * np.maximum(1.0, np.max(np.abs(bands[:, ::3, 1]), axis=(1, 2)))
    while True:
        first = np.flatnonzero(np.concatenate([[True], ~joined]))
        last = np.append(first[1:], real.size) - 1
        size, cg = last - first + 1, xg[first]
        # shifts below, between and above a group's k clusters in columns 0..k (the
        # second write keeps "above" for the top one only), then (0, tau) for n(L)
        k = np.bincount(cg, minlength=half.size)
        rank = np.arange(cg.size) - np.searchsorted(cg, cg)
        s = np.zeros((half.size, k.max() + 2))
        s[cg, rank + 1] = x[last] + 1.0
        s[cg, rank] = np.where(rank > 0, 0.5 * (x[first - 1] + x[first]), x[first] - 1.0)
        t = np.where(np.arange(s.shape[1]) <= k[:, None], 0.0, np.repeat(tau, 2)[:, None])
        try:
            neg = _negative_counts(bands, s, t, mus)
            break
        except EigensolveError as exc:
            # the unpivoted sweep meets a singular leading block where a shift
            # splits a double nu that round-off made two clusters (nu = 2 -+ 4e-8
            # at mu = 0, alpha = -1, B = 1, V0 = 0, where L' - s P has an
            # eigenvalue of 1e-14 across the gap): the two become one cluster
            g, c = np.nonzero(exc.failed)
            if np.any((c == 0) | (c >= k[g])):  # an end or n(L) shift
                raise
            joined[first[np.searchsorted(cg, g) + c] - 1] = True

    ends = neg[np.arange(half.size), k]
    for g in np.flatnonzero((neg[:, 0] != half) | (ends != half)):  # -s P: h negative
        raise EigensolveError(
            f"inertia sweep failed at mu={mus[g // 2]}: the Krein jumps of block "
            f"{g % 2} do not sum to zero (end counts {neg[g, 0]}, {ends[g]}, "
            f"expected {half[g]})")
    jump = neg[cg, rank + 1] - neg[cg, rank]
    for c in np.flatnonzero((np.abs(jump) > size) | ((size - jump) % 2 != 0)):
        raise EigensolveError(
            f"inertia sweep failed at mu={mus[cg[c] // 2]}: a cluster's "
            "negative-count jump exceeds its size or differs from it in parity")

    at_origin = np.logical_or.reduceat(xo, first) if real.size else xo
    sgn = np.sign(x[first])
    definite = ~at_origin & (np.abs(jump) == size)
    krein = np.full(nu.shape, np.nan)
    krein.flat[real] = np.repeat(np.where(definite, sgn * np.sign(jump), 0.0), size)
    k_im = np.bincount(cg // 2, np.where(at_origin, 0, (size - sgn * jump) / 2), len(mus))
    k_r = np.sum(right & (np.abs(w.imag) < scale), axis=1)
    counts = np.stack([k_r, np.sum(right, axis=1) - k_r, k_im,
                       neg[::2, -1] + neg[1::2, -1]], axis=1).astype(int).tolist()
    abscissa = np.max(w.real, axis=1, where=~origin, initial=-np.inf).tolist()
    order = np.lexsort((w.real, w.imag))
    w, krein = (np.take_along_axis(a, order, 1) for a in (w, krein))
    return [EigenReport(mu, w[o], krein[o], abscissa[o], tuple(counts[o]),
                        int(np.sum(origin[o]))) for o, mu in enumerate(mus)]


def _negative_counts(bands: np.ndarray, s: np.ndarray, t: np.ndarray, mus) -> np.ndarray:
    """Negative count of L'_b - s[g, c] P_b + t[g, c] I, group g = 2 o + b.

    In the interleaved order (p_j, q_j), j = b, b + 2, ..., parity block b
    of L' - s P is block tridiagonal with 2x2 blocks, since L' couples mode
    j only to j and j +- 2.  A block-LDL^T (Sturm) sweep of every operator
    o, block and column at once gives the pivots S_i = [[a, b], [b, c]] =
    D_i - E_i^T adj(S_(i-1)) E_i / det(S_(i-1)); by Sylvester's law of
    inertia each adds 1 - (sign(a) + sign(a det)) / 2 to the negative count."""
    n = bands.shape[-1]
    rows = n // 2 + 1  # the even block's length
    # each block's diagonal and coupling of mode index - 2 into mode index by
    # mode index 2i + b (row i of block b), the odd block padded by an
    # identity row that takes no shift s: row, group
    V = np.zeros((len(bands), 4, 2, 2 * rows))
    V[..., :n], V[:, ::3, 0, n] = bands[:, :, 1:3], 1.0
    (pp, e00), (pq, e01), (_, e10), (qq, e11) = V.reshape(
        -1, 4, 2, rows, 2).transpose(1, 2, 3, 0, 4).reshape(4, 2, rows, -1, 1)
    # E^T adj(S) E = Ka a + Kb b + Kc c for S = [[a, b], [b, c]]
    K = np.stack([e10 * e10, e10 * e11, e11 * e11,
                  -2.0 * e00 * e10, -(e00 * e11 + e10 * e01), -2.0 * e01 * e11,
                  e00 * e00, e00 * e01, e01 * e01], axis=1).reshape(rows, 3, 3, -1, 1)
    live = 2 * np.arange(rows)[:, None, None] + np.arange(len(s))[:, None] % 2 < n
    a, b, c, det = pp[0] + t, pq[0] - s, qq[0] + t, 1.0
    count, least, most = np.zeros(s.shape), np.full(s.shape, np.inf), np.zeros(s.shape)
    with np.errstate(all="ignore"):  # a zero pivot is reported below
        for i, (Ka, Kb, Kc) in enumerate(K):
            u = (Ka * a + Kb * b + Kc * c) / det
            a = pp[i] + t - u[0]
            b = pq[i] - s * live[i] - u[1]
            c = qq[i] + t - u[2]
            det = a * c - b * b
            least, most = np.minimum(least, abs(det)), np.maximum(most, abs(det))
            count += np.sign(a) + np.sign(a * det)
    failed = ~((least > 0.0) & (most < np.inf))  # NaN fails both tests
    for g in np.flatnonzero(failed.any(axis=1)):
        raise EigensolveError(f"inertia sweep failed at mu={mus[g // 2]}: a singular "
                              "or non-finite pivot", failed)
    return (rows - count / 2).astype(int)


def check_settings(truncation: int, n_periods: int = 1) -> None:
    """Refuse truncation < 8 or n_periods < 1 before any state is built."""
    if n_periods < 1:
        raise InvalidMuError(f"n_periods must be >= 1 (mu = r/n_periods), got {n_periods}")
    if truncation < 8:
        raise TruncationTooSmallError(f"need truncation >= 8, got {truncation}")


def full_period_spectrum(n_periods: int, params: SolutionParams,
                         truncation: int) -> list:
    """Spectra at mu = r/n_periods, r = 0..n_periods-1, in mu order.

    sigma(JL) over perturbations of period 2*pi*n/k is the union of the
    per-mu spectra.  Only r <= n/2 is solved; the report at r > n/2 is the
    conjugate of the one at n - r (see the module docstring).
    """
    check_settings(truncation, n_periods)
    mus = [r / n_periods for r in range(n_periods // 2 + 1)]
    solved = _spectra(mus, _bands(mus, truncation, params))
    return [solved[r] if 2 * r <= n_periods
            else _mirror(solved[n_periods - r], r / n_periods)
            for r in range(n_periods)]


def _mirror(rep: EigenReport, mu: float) -> EigenReport:
    """The report at mu = 1 - rep.mu: conjugate eigenvalues, same labels."""
    w = rep.eigenvalues.conj()
    w.imag += 0.0  # conjugating a real eigenvalue gives Im = -0.0
    order = np.lexsort((w.real, w.imag))
    return replace(rep, mu=mu, eigenvalues=w[order], krein=rep.krein[order])


# ---------------------------------------------------------------------------
# Closed-form V0 = 0 spectrum


@dataclass(frozen=True)
class AnalyticEigen:
    """One closed-form eigenpair of JL_mu at V0 = 0 (so D = 1).

    The eigenvalue is lambda_inf + lambda_p.  The eigenvector couples the
    base mode n to ``coupled_n`` = n -+ 2 with weight -alpha_n:
    phi = (1, base_sign*i) e^{-inx} - alpha_n (1, -base_sign*i) e^{-i*coupled_n*x}.
    """

    n: int
    branch: str  # "positive-axis" | "negative-axis"
    mu: float
    lambda_inf: complex
    lambda_p: complex
    c_n: float
    r_hat: float
    alpha_n: float
    coupled_n: int
    base_sign: int  # +1 for (1, i) on the base mode, -1 for (1, -i)

    @property
    def eigenvalue(self) -> complex:
        return self.lambda_inf + self.lambda_p

    def eigenvector(self, truncation: int) -> np.ndarray:
        """Coefficient vector on the assemble() basis at this mu, per block."""
        M = int(truncation)
        shift = int(self.mu > 0.5)  # the window at mu > 1/2 holds 1-M..M+1
        reach = max(abs(self.n - shift), abs(self.coupled_n - shift))
        if reach > M - 2:
            raise TruncationTooSmallError(
                f"modes {self.n}, {self.coupled_n} need truncation > {reach + 2}"
            )
        size = 2 * M + 1
        wvec = np.zeros(size, dtype=complex)
        zvec = np.zeros(size, dtype=complex)
        s2p = np.sqrt(TWO_PI)  # e^{-inx} = sqrt(2 pi) * basis vector
        sb = 1j * self.base_sign
        i, ic = self.n - shift + M, self.coupled_n - shift + M
        wvec[i] = s2p
        zvec[i] = sb * s2p
        wvec[ic] = -self.alpha_n * s2p
        zvec[ic] = self.alpha_n * sb * s2p  # -alpha * (-sb)
        return np.concatenate([wvec, zvec])


def _analytic_one(n: int, positive_axis: bool, mu: float,
                  params: SolutionParams) -> AnalyticEigen:
    if params.V0 != 0.0:
        raise ValueError(f"closed forms require V0 = 0, got V0 = {params.V0}")
    if not 0.0 < mu < 1.0:
        raise InvalidMuError(f"closed forms need mu in (0, 1), got {mu}")
    k, B = params.k, params.B
    kern = params.kernel
    # mode n couples to n + 2d through the multiplier at n + d, with d = +1
    # on the positive axis for n in {0, 1} and off it for the other n
    d = 1 if positive_axis == (n in (0, 1)) else -1
    lam_inf = (0.5j if positive_axis else -0.5j) * k**2 * abs((n - mu) ** 2 - 1.0)
    c = k**2 * (n - mu + d) ** 2
    r = float(kern.base.zeta_hat(k * kern.epsilon * (n + d - mu)))
    root = np.sqrt(c**2 + 4.0 * c * B * r)
    lam_p = 0.5j * d * (c - root)
    gamma = B * r / c
    delta = (B * r + 0.5 * (root - c)) / c
    return AnalyticEigen(
        n=n, branch="positive-axis" if positive_axis else "negative-axis",
        mu=float(mu), lambda_inf=lam_inf, lambda_p=lam_p, c_n=float(c),
        r_hat=r, alpha_n=float(gamma / (1.0 + delta)),
        coupled_n=n + 2 * d, base_sign=-d,
    )


def analytic_spectrum_V0_zero(n_range, mu: float, params: SolutionParams) -> list:
    """Closed-form eigenpairs at V0 = 0 for each n in n_range, both branches."""
    out = []
    for n in n_range:
        out.append(_analytic_one(int(n), True, mu, params))
        out.append(_analytic_one(int(n), False, mu, params))
    return out


def krein_form(n: int, branch: str, mu: float, params: SolutionParams) -> float:
    """Closed-form <L_mu phi_n, phi_n> on the analytic eigenvector.

    Equals 2 pi k^2 ((n-mu)^2 - 1 + alpha_n^2 ((n-+2-mu)^2 - 1))
    + 4 pi B r_mid (1 - alpha_n)^2, with r_mid the multiplier halfway
    between the coupled modes.
    """
    if branch not in ("positive-axis", "negative-axis"):
        raise ValueError(f"branch must be positive-axis or negative-axis, got {branch!r}")
    ae = _analytic_one(n, branch == "positive-axis", mu, params)
    k, B = params.k, params.B
    al = ae.alpha_n
    kinetic = TWO_PI * k**2 * ((n - mu) ** 2 - 1.0 + al**2 * ((ae.coupled_n - mu) ** 2 - 1.0))
    return float(kinetic + 2.0 * TWO_PI * B * ae.r_hat * (1.0 - al) ** 2)


def matrix_quadratic_form(op: BlochOperator, vec: np.ndarray) -> float:
    """<L v, v> with the assembled matrix, as w^H L' w for w = T* v."""
    n = op.size // 2
    w = np.concatenate([vec[:n], -1j * vec[n:]])
    return float(np.real(w.conj() @ (op.L_real @ w)))


def match_spectra(analytic: list, report: EigenReport, gap_tol: float = 1e-4):
    """Greedy nearest-neighbor pairing of closed-form vs matrix eigenvalues.

    Returns (pairs, worst_gap) where pairs maps each AnalyticEigen to the
    closest matrix eigenvalue; raises if any gap exceeds gap_tol.
    """
    w = report.eigenvalues
    pairs = []
    worst = 0.0
    for ae in analytic:
        gaps = np.abs(w - ae.eigenvalue)
        i = int(np.argmin(gaps))
        if gaps[i] > gap_tol:
            raise EigensolveError(
                f"analytic eigenvalue {ae.eigenvalue:.6g} (n={ae.n}, {ae.branch}) "
                f"has no matrix partner within {gap_tol:g} (best {gaps[i]:.3g})"
            )
        pairs.append((ae, complex(w[i])))
        worst = max(worst, float(gaps[i]))
    return pairs, worst


# ---------------------------------------------------------------------------
# Thresholds


def b_star(k: float, kernel: ScaledKernel, samples: int = 10001) -> float | None:
    """Offset threshold B* above which (V0 = 0) no negative-Krein modes remain.

    B* = max(3k^2/(4 r~_2), 3k^2/(4 r~_-1), k^2/r~_0, k^2/r~_1) with
    r~_n = min over mu in [0,1] of zeta_hat(k*eps*(n-mu)).  zeta_hat is even,
    so r~_-1 = r~_2 and r~_1 = r~_0: two bands, n - mu in [1, 2] and [-1, 0].
    When zeta_hat is non-increasing in |s| (``kernel.base.decreasing``, as for
    every built-in family) each minimum sits at the band end farthest from 0,
    so B* = max(3k^2/(4 beta), k^2/zeta_hat(k*eps)) with beta = zeta_hat(2k*eps),
    from two evaluations.  Other kernels (tables) are sampled at ``samples``
    values of mu per band.  B* is undefined, and None is returned, unless
    zeta_hat > 0 on both bands.
    """
    if kernel.base.decreasing:
        modes = np.array([[2.0], [-1.0]])  # the far band ends
    else:
        modes = np.array([[2.0], [0.0]]) - np.linspace(0.0, 1.0, samples)  # n - mu
    r2, r0 = np.min(kernel.base.zeta_hat(k * kernel.epsilon * modes), axis=1).tolist()
    if r2 > 0.0 and r0 > 0.0:  # False for NaN too
        return max(0.75 * k**2 / r2, k**2 / r0)
    return None


def a_crit(k: float) -> float:
    """Instability threshold on A: 2(-1+sqrt(4-6/pi))/(1-2/pi) * k^2 ~ 2.4533 k^2."""
    const = 2.0 * (-1.0 + np.sqrt(4.0 - 6.0 / np.pi)) / (1.0 - 2.0 / np.pi)
    return const * k**2


def instability_predicate(A: float, k: float) -> str:
    """"unstable-predicted" iff A >= a_crit(k); otherwise "inconclusive",
    negative A included.

    The prediction is derived under small B and eps; that hypothesis is
    the caller's to check, not enforced here.
    """
    return "unstable-predicted" if A >= a_crit(k) else "inconclusive"


def hill_quadratic_form(g: dict, A: float, k: float) -> float:
    """Quadratic form of L-_0 (eps = 0, mu = 0) on coefficients g = {j: g_j}.

    sum_j k^2 (j^2 - 1)/2 |g_j|^2 + (A/2)|g_j - g_{j+2}|^2, with g_j = 0
    outside the support of g.
    """
    if not g:
        return 0.0
    lo = min(g) - 2
    hi = max(g) + 2
    total = 0.0
    for j in range(lo, hi + 1):
        gj = complex(g.get(j, 0.0))
        gj2 = complex(g.get(j + 2, 0.0))
        total += 0.5 * k**2 * (j**2 - 1.0) * abs(gj) ** 2
        total += 0.5 * A * abs(gj - gj2) ** 2
    return float(total)


# ---------------------------------------------------------------------------
# Symmetry (zero) modes at mu = 0


def phase_zero_mode(op: BlochOperator) -> np.ndarray:
    """(D sin x, -cos x): generated by the phase symmetry, in ker(JL) at mu = 0."""
    sin_c, cos_c = _sin_cos(op)
    return np.concatenate([op.D * sin_c, -cos_c])


def generalized_zero_mode(op: BlochOperator) -> np.ndarray:
    """(D cos x, sin x): the generalized eigenvector partner of the phase mode."""
    sin_c, cos_c = _sin_cos(op)
    return np.concatenate([op.D * cos_c, sin_c])


def _sin_cos(op: BlochOperator):
    """The coefficient vectors of sin x and cos x on op's basis."""
    if op.D is None:
        raise ValueError("zero mode vectors need B > 0 (D defined)")
    M = op.truncation
    sin_c, cos_c = np.zeros((2, 2 * M + 1), dtype=complex)
    # sin x = (e^{ix} - e^{-ix})/(2i): j = -1 entry -i/2, j = +1 entry +i/2
    sin_c[M - 1], sin_c[M + 1] = -0.5j, 0.5j
    cos_c[M - 1] = cos_c[M + 1] = 0.5
    return sin_c, cos_c


# ---------------------------------------------------------------------------
# Export


def _krein_label(value, near_origin: bool) -> str:
    if math.isnan(value):
        return ""
    if value == 0.0:
        return "zero-mode" if near_origin else "indefinite"
    return "+1" if value > 0 else "-1"


def write_eigen_csv(reports: list, path):
    """One row per eigenvalue: mu, Re, Im, krein label, near-origin flag."""
    def columns(rep):
        w = rep.eigenvalues
        near = (np.abs(w) < _ORIGIN_TOL).tolist()
        return ([float(rep.mu)] * w.size, w.real.tolist(), w.imag.tolist(),
                [_krein_label(kr, nr) for kr, nr in zip(rep.krein.tolist(), near)],
                ["near-origin" if nr else "" for nr in near])
    write_csv(path, ("mu", "re_lambda", "im_lambda", "krein", "flag"),
              map(columns, reports))


def eigen_summary(reports: list, params: SolutionParams) -> dict:
    """Aggregate verdicts across a mu sweep, for report files and the CLI."""
    abscissa = max(rep.max_real_part for rep in reports)
    return {
        "max_real_part": abscissa,
        "verdict": ("unstable" if abscissa > UNSTABLE_ABSCISSA
                    else "spectrally stable"),
        "per_mu": [
            {"mu": rep.mu, "max_real_part": rep.max_real_part,
             "counts": {"k_r": rep.counts[0], "k_c": rep.counts[1],
                        "k_i_minus": rep.counts[2], "n_L": rep.counts[3]},
             "near_origin": rep.near_origin}
            for rep in reports
        ],
        "b_star": b_star(params.k, params.kernel),
        "a_crit": a_crit(params.k),
        "A": params.A,
        "predicate": instability_predicate(params.A, params.k),
    }
