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
centred (mu > 1/2 taken as mu - 1), so the truncations at mu and 1 - mu mirror
each other exactly and a sweep solves only mu <= 1/2.

Eigenvalues of JL with positive real part signal spectral instability;
purely imaginary eigenvalues carry a Krein signature sgn(<L v, v>) whose
negative values mark the collisions that can trigger instability.  The
signatures and n(L) are read off inertia counts, not eigenvectors: the
graphical Krein signature of Kollar & Miller (SIAM Review 56, 2014) is the
direction in which an eigenvalue curve of the pencil L' - nu P crosses zero,
and one block-LDL^T sweep counts the negative eigenvalues of L' - nu P at
shifts between the purely imaginary eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernels import NonpositiveMultiplierError, ScaledKernel
from .waves import SolutionParams

TWO_PI = 2.0 * np.pi


class InvalidMuError(ValueError):
    """Bloch parameter outside [0, 1)."""


class TruncationTooSmallError(ValueError):
    """Fourier truncation too small to represent the coupling stencils."""


class EigensolveError(RuntimeError):
    """The dense eigensolver or the inertia sweep of ``spectrum`` failed."""


@dataclass(frozen=True, eq=False)
class BlochOperator:
    """Truncated L_mu as the real-symmetric L' = T* L T, T = diag(I, iI).

    ``L_matrix`` = T L' T* and ``JL_matrix`` = J L are built on access.
    """

    mu: float
    truncation: int
    D: float | None
    L_real: np.ndarray

    @property
    def size(self) -> int:
        return 2 * (2 * self.truncation + 1)

    @property
    def L_matrix(self) -> np.ndarray:
        t = np.repeat([1.0, 1.0j], self.size // 2)
        return t[:, None] * self.L_real * t.conj()

    @property
    def JL_matrix(self) -> np.ndarray:
        n = self.size // 2
        L = self.L_matrix
        return np.concatenate([L[n:], -L[:n]])


def assemble(mu: float, truncation: int, params: SolutionParams) -> BlochOperator:
    """Build the truncated L_mu in its real-symmetric form L'.

    The nonlocal coupling enters L as 2*alpha times the block matrix
    [[B CLC, sqrt(B(B+A)) CLS], [sqrt(B(B+A)) SLC, (B+A) SLS]] where C and S
    are the cos/sin shift stencils and Lam = diag(r_j).  With S = i St (St
    real antisymmetric), L' = [[Dg + a_cc CLC, -a_cs CLSt],
    [a_cs StLC, Dg - a_ss StLSt]] with a_* the coefficients above times 2*alpha.
    At B = 0 the off-diagonal blocks vanish and the matrix is the canonical
    diag(L+_mu, L-_mu) form used by the instability analysis.  The window of
    j - mu is centred, mu > 1/2 taken as mu - 1 (index i holds mode i - M + 1),
    so the truncation at 1 - mu mirrors the one at mu exactly.
    """
    if not 0.0 <= mu < 1.0:
        raise InvalidMuError(f"Bloch parameter must lie in [0, 1), got {mu}")
    if truncation < 8:
        raise TruncationTooSmallError(f"need truncation >= 8, got {truncation}")
    M = int(truncation)
    modes = np.arange(-M, M + 1) - (mu - 1.0 if mu > 0.5 else mu)
    k, B, A, alpha = params.k, params.B, params.A, params.alpha
    a_cc = 2.0 * alpha * B
    a_cs = 2.0 * alpha * np.sqrt(B * (B + A))
    a_ss = 2.0 * alpha * (B + A)

    Dg = np.diag(0.5 * k**2 * (modes**2 - 1.0))
    lam = np.asarray(params.kernel.base.zeta_hat(k * params.kernel.epsilon * modes),
                     dtype=float)
    # the stencils couple neighbours, so each product has the diagonals 0
    # and +-2 only; built entry by entry, L' is exactly symmetric
    lo = np.concatenate([[0.0], lam[:-1]])  # r_{j-1}, zero past the edge
    hi = np.concatenate([lam[1:], [0.0]])   # r_{j+1}
    F = np.diag(0.25 * lam[1:-1], 2)
    side = np.diag(0.25 * (lo + hi))
    L12 = -a_cs * (np.diag(0.25 * (hi - lo)) + F.T - F)  # -a_cs C Lam St
    L_real = np.block([[Dg + a_cc * (side + F + F.T), L12],
                       [L12.T, Dg - a_ss * (F + F.T - side)]])
    return BlochOperator(mu=float(mu), truncation=M, D=params.D, L_real=L_real)


@dataclass(frozen=True, eq=False)
class EigenReport:
    """Spectrum of one Bloch operator with Krein bookkeeping.

    ``krein`` aligns with ``eigenvalues``: +1/-1 for purely imaginary
    eigenvalues in a cluster of one Krein sign, None for eigenvalues off the
    imaginary axis, and 0 for the origin modes and for every member of an
    indefinite cluster (purely imaginary eigenvalues within 1e-9 max(1, |lambda|)
    of each other whose signs differ, so no member has a sign of its own).
    Eigenvalues within ``_ORIGIN_TOL`` of the origin are symmetry
    (phase/translation) modes: round-off decides on which axis the split
    phase Jordan pair lands.  They stay in the list but are excluded from
    ``max_real_part`` and from the count identity.
    """

    mu: float
    eigenvalues: np.ndarray
    krein: tuple
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


def spectrum(op: BlochOperator) -> EigenReport:
    """Dense eigensolve of JL with Krein signatures and stability counts.

    JL = T (i P L') T* with P the block swap, so the real matrix P L' is
    solved and lambda = i nu: a real nu lies exactly on the imaginary axis,
    and complex nu come in conjugate pairs, i.e. the pairs lambda,
    -conj(lambda).  L' and P L' split exactly into an even-j and an odd-j
    block, and each block is solved on its own for its eigenvalues only
    (numpy.linalg.eigvals, LAPACK dgeev without vectors).

    The Krein signs and n(L) come from inertia counts instead of
    eigenvectors: the graphical Krein signature (Kollar & Miller, SIAM
    Review 56, 2014).  A real nu is where an eigenvalue curve of the
    symmetric pencil L' - s P crosses zero, with slope -w^T P w, and
    w^T L' w = nu w^T P w; so the sign of <L v, v> is sign(nu) times the
    jump of the negative count of L' - s P as s crosses nu.  Real nu within
    1e-9 max(1, |nu|) of each other share one jump; a cluster whose jump is
    smaller than its size is indefinite and still adds its exact number of
    negative signs to k_i^-.  n(L) is the negative count of L' + tau I,
    tau = 1e-8 max(1, max |L'_jj|), which leaves out the near-zero
    symmetry eigenvalues of L'.
    """
    n = op.size // 2
    blocks = []
    for first in (0, 1):
        half = np.arange(first, n, 2)
        h = half.size
        idx = np.concatenate([half, half + n])
        Lb = op.L_real[np.ix_(idx, idx)]
        try:
            blocks.append(np.linalg.eigvals(np.concatenate([Lb[h:], Lb[:h]])))
        except np.linalg.LinAlgError as exc:
            raise EigensolveError(f"eigensolve failed at mu={op.mu}: {exc}") from None
    block = np.repeat([0, 1], [b.size for b in blocks])
    nu = np.concatenate(blocks)
    w = 1j * nu
    w.real += 0.0  # 1j * nu gives Re = -0.0 for real nu < 0

    mag = np.abs(w)
    scale = _IM_AXIS_TOL * (1.0 + mag)
    origin = mag < _ORIGIN_TOL
    on_axis = ~origin & (np.abs(w.real) < scale)
    right = ~origin & (w.real > scale)

    # clusters of real nu per block, in (block, nu) order; the origin modes
    # form one cluster, so no shift falls where L' is singular
    real = np.flatnonzero(origin | on_axis)
    real = real[np.lexsort((nu.real[real], block[real]))]
    x, xb, xo = nu.real[real], block[real], origin[real]
    joined = (xb[1:] == xb[:-1]) & (
        (np.diff(x) <= _CLUSTER_TOL * np.maximum(1.0, np.abs(x[1:])))
        | (xo[1:] & xo[:-1]))
    first = np.flatnonzero(np.concatenate([[True], ~joined]))
    last = np.append(first[1:], real.size) - 1
    size = last - first + 1

    # shifts below, between and above each block's clusters, then the n(L)
    # column (s, t) = (0, tau), which also pads the shorter row
    shifts = []
    for b in (0, 1):
        lo, hi = x[first[xb[first] == b]], x[last[xb[first] == b]]
        shifts.append(np.concatenate([lo[:1] - 1.0, 0.5 * (hi[:-1] + lo[1:]),
                                      hi[-1:] + 1.0]) if lo.size else np.zeros(1))
    tau = 1e-8 * max(1.0, float(np.max(np.abs(np.diagonal(op.L_real)))))
    cols = max(sh.size for sh in shifts) + 1
    s, t = np.zeros((2, cols)), np.full((2, cols), tau)
    for b, sh in enumerate(shifts):
        s[b, :sh.size], t[b, :sh.size] = sh, 0.0
    neg = _negative_counts(op, s, t)
    n_L = int(neg[0, -1] + neg[1, -1])
    jumps = []
    for b, sh in enumerate(shifts):
        nb, h = neg[b, :sh.size], blocks[b].size // 2
        if nb[0] != h or nb[-1] != h:  # -s P has h negative eigenvalues
            raise EigensolveError(
                f"inertia sweep failed at mu={op.mu}: the Krein jumps of block "
                f"{b} do not sum to zero (end counts {nb[0]}, {nb[-1]}, "
                f"expected {h})")
        jumps.append(np.diff(nb))
    jump = np.concatenate(jumps)
    if np.any((np.abs(jump) > size) | ((size - jump) % 2 != 0)):
        raise EigensolveError(
            f"inertia sweep failed at mu={op.mu}: a cluster's negative-count "
            "jump exceeds its size or differs from it in parity")

    at_origin = np.logical_or.reduceat(xo, first) if real.size else xo
    sgn = np.sign(x[first])
    definite = ~at_origin & (np.abs(jump) == size)
    krein = np.full(w.size, None, dtype=object)
    krein[real] = np.repeat(np.where(definite, sgn * np.sign(jump), 0.0), size)
    k_im = int(np.sum(np.where(at_origin, 0.0, (size - sgn * jump) / 2)))
    k_r = int(np.sum(right & (np.abs(w.imag) < scale)))
    k_c = int(np.sum(right)) - k_r

    order = np.lexsort((w.real, w.imag))
    w = w[order]
    return EigenReport(
        mu=op.mu, eigenvalues=w, krein=tuple(krein[order]),
        max_real_part=float(np.max(w.real[~origin[order]], initial=-np.inf)),
        counts=(k_r, k_c, k_im, n_L),
        near_origin=int(np.sum(origin)),
    )


def _negative_counts(op: BlochOperator, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Negative count of L'_b - s[b, c] P_b + t[b, c] I for parity block b.

    In the interleaved order (p_j, q_j), j = b, b + 2, ..., a parity block
    of L' - s P is block tridiagonal with 2x2 blocks, since L' couples mode
    j only to j and j +- 2.  A block-LDL^T (Sturm) sweep gives the pivots
    S_i = D_i - E_i^T adj(S_(i-1)) E_i / det(S_(i-1)), and by Sylvester's
    law of inertia the block's negative count is the sum of theirs.  Both
    blocks and every column run in one sweep; the odd block is padded with
    an identity row to the even block's length.
    """
    n = op.size // 2
    rows = n // 2 + 1
    L = op.L_real
    P, Q = slice(0, n), slice(n, 2 * n)
    # the bands of L' by mode index 2i + b (row i of block b), padded to
    # 2 * rows; E holds the coupling of mode index - 2 into mode index
    diag = np.zeros((3, 2 * rows))
    diag[::2, n:] = 1.0  # the padding row is the identity
    E = np.zeros((4, 2 * rows))
    diag[:, :n] = [np.diagonal(L[P, P]), np.diagonal(L[P, Q]), np.diagonal(L[Q, Q])]
    E[:, 2:n] = [np.diagonal(L[r, c], 2) for r, c in ((P, P), (P, Q), (Q, P), (Q, Q))]
    e00, e01, e10, e11 = E
    # E^T adj(S) E = Ka a + Kb b + Kc c for S = [[a, b], [b, c]]
    K = np.array([e10 * e10, e10 * e11, e11 * e11,
                  -2.0 * e00 * e10, -(e00 * e11 + e10 * e01), -2.0 * e01 * e11,
                  e00 * e00, e00 * e01, e01 * e01])
    K = K.reshape(3, 3, rows, 2, 1).transpose(2, 0, 1, 3, 4).copy()
    D = np.empty((rows, 3) + s.shape)  # row, (a, b, c), block, column
    D[:] = diag.reshape(3, rows, 2, 1).transpose(1, 0, 2, 3)
    D[:, ::2] += t
    D[:, 1] -= s * (np.arange(2 * rows).reshape(rows, 2, 1) < n)

    pivot_a, pivot_det = np.empty((2, rows) + s.shape)
    S, det = D[0], 1.0  # row 0 has no coupling: K[0] = 0
    with np.errstate(all="ignore"):  # a zero pivot is reported below
        for i in range(rows):
            Ka, Kb, Kc = K[i]
            S = D[i] - (Ka * S[0] + Kb * S[1] + Kc * S[2]) / det
            det = S[0] * S[2] - S[1] * S[1]
            pivot_a[i], pivot_det[i] = S[0], det
    if not np.all(np.isfinite(pivot_det) & (pivot_det != 0.0)):
        raise EigensolveError(f"inertia sweep failed at mu={op.mu}: a singular "
                              "or non-finite pivot")
    return np.sum((pivot_det < 0) + 2 * ((pivot_det > 0) & (pivot_a < 0)), axis=0)


def full_period_spectrum(n_periods: int, params: SolutionParams,
                         truncation: int) -> list:
    """Spectra at mu = r/n_periods, r = 0..n_periods-1, in mu order.

    sigma(JL) over perturbations of period 2*pi*n/k is the union of the
    per-mu spectra.  Only r <= n/2 is solved; the report at r > n/2 is the
    conjugate of the one at n - r (see the module docstring).
    """
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    solved = [spectrum(assemble(r / n_periods, truncation, params))
              for r in range(n_periods // 2 + 1)]
    return [solved[r] if 2 * r <= n_periods
            else _mirror(solved[n_periods - r], r / n_periods)
            for r in range(n_periods)]


def _mirror(rep: EigenReport, mu: float) -> EigenReport:
    """The report at mu = 1 - rep.mu: conjugate eigenvalues, same labels."""
    w = rep.eigenvalues.conj()
    w.imag += 0.0  # conjugating a real eigenvalue gives Im = -0.0
    order = np.lexsort((w.real, w.imag))
    return replace(rep, mu=mu, eigenvalues=w[order],
                   krein=tuple(rep.krein[i] for i in order))


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
    rhat = lambda m: float(kern.base.zeta_hat(k * kern.epsilon * (m - mu)))
    if positive_axis:
        lam_inf = 0.5j * k**2 * abs((n - mu) ** 2 - 1.0)
        if n in (0, 1):
            c = k**2 * (mu - (1 + n)) ** 2
            mid, coupled, base_sign = n + 1, n + 2, -1
            shrink = True  # lambda_p = (i/2)(c - sqrt(...)) pulls down
        else:
            c = k**2 * (n - mu - 1.0) ** 2
            mid, coupled, base_sign = n - 1, n - 2, +1
            shrink = False
    else:
        lam_inf = -0.5j * k**2 * abs((n - mu) ** 2 - 1.0)
        if n in (0, 1):
            c = k**2 * (mu + 1 - n) ** 2
            mid, coupled, base_sign = n - 1, n - 2, +1
            shrink = False
        else:
            c = k**2 * (n - mu + 1.0) ** 2
            mid, coupled, base_sign = n + 1, n + 2, -1
            shrink = True
    r = rhat(mid)
    root = np.sqrt(c**2 + 4.0 * c * B * r)
    lam_p = 0.5j * (c - root) if shrink else 0.5j * (root - c)
    gamma = B * r / c
    delta = (B * r + 0.5 * (root - c)) / c
    return AnalyticEigen(
        n=n, branch="positive-axis" if positive_axis else "negative-axis",
        mu=float(mu), lambda_inf=lam_inf, lambda_p=lam_p, c_n=float(c),
        r_hat=r, alpha_n=float(gamma / (1.0 + delta)),
        coupled_n=coupled, base_sign=base_sign,
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


def b_star(k: float, kernel: ScaledKernel, samples: int = 10001) -> float:
    """Offset threshold B* above which (V0 = 0) no negative-Krein modes remain.

    B* = max(3k^2/(4 r~_2), 3k^2/(4 r~_-1), k^2/r~_0, k^2/r~_1) with
    r~_n = min over mu in [0,1] of zeta_hat(k*eps*(n-mu)), by dense sampling.
    zeta_hat is even, so r~_-1 = r~_2 and r~_1 = r~_0: two bands are sampled.
    """
    mus = np.linspace(0.0, 1.0, samples)
    r_min = {}
    for n in (2, 0):
        vals = np.asarray(kernel.base.zeta_hat(k * kernel.epsilon * (n - mus)), float)
        r_min[n] = float(np.min(vals))
        if r_min[n] <= 0.0:
            raise NonpositiveMultiplierError(
                f"zeta_hat takes non-positive value {r_min[n]:.3e} near mode {n}; "
                "B* needs a strictly positive multiplier"
            )
    return max(0.75 * k**2 / r_min[2], k**2 / r_min[0])


def a_crit(k: float) -> float:
    """Instability threshold on A: 2(-1+sqrt(4-6/pi))/(1-2/pi) * k^2 ~ 2.4533 k^2."""
    const = 2.0 * (-1.0 + np.sqrt(4.0 - 6.0 / np.pi)) / (1.0 - 2.0 / np.pi)
    return const * k**2


def instability_predicate(A: float, k: float) -> str:
    """"unstable-predicted" iff A >= a_crit(k); otherwise "inconclusive".

    The prediction is derived under small B and eps; that hypothesis is
    the caller's to check, not enforced here.
    """
    if A < 0:
        raise ValueError(f"A must be nonnegative, got {A}")
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
    if op.D is None:
        raise ValueError("phase mode vector needs B > 0 (D defined)")
    return _pair_vector(op.truncation, op.D, kind="sin-cos")


def generalized_zero_mode(op: BlochOperator) -> np.ndarray:
    """(D cos x, sin x): the generalized eigenvector partner of the phase mode."""
    if op.D is None:
        raise ValueError("generalized mode vector needs B > 0 (D defined)")
    return _pair_vector(op.truncation, op.D, kind="cos-sin")


def _pair_vector(M: int, D: float, kind: str) -> np.ndarray:
    size = 2 * M + 1
    sin_c = np.zeros(size, dtype=complex)
    cos_c = np.zeros(size, dtype=complex)
    # sin x = (e^{ix} - e^{-ix})/(2i): j = -1 entry -i/2, j = +1 entry +i/2
    sin_c[M - 1] = -0.5j
    sin_c[M + 1] = +0.5j
    cos_c[M - 1] = 0.5
    cos_c[M + 1] = 0.5
    if kind == "sin-cos":
        return np.concatenate([D * sin_c, -cos_c])
    return np.concatenate([D * cos_c, sin_c])


# ---------------------------------------------------------------------------
# Export


def _krein_label(value, near_origin: bool) -> str:
    if value is None:
        return ""
    if value == 0.0:
        return "zero-mode" if near_origin else "indefinite"
    return "+1" if value > 0 else "-1"


def write_eigen_csv(reports: list, path):
    """One row per eigenvalue: mu, Re, Im, krein label, near-origin flag.

    The bytes of csv.writer (floats as their repr, rows ended by CR LF),
    written as one string per report.
    """
    with open(path, "w", newline="") as fh:
        fh.write("mu,re_lambda,im_lambda,krein,flag\r\n")
        for rep in reports:
            mu, w = float(rep.mu), rep.eigenvalues
            near = (np.abs(w) < _ORIGIN_TOL).tolist()
            fh.write("".join([
                f"{mu!r},{re!r},{im!r},{_krein_label(kr, nr)},"
                f"{'near-origin' if nr else ''}\r\n"
                for re, im, kr, nr in zip(w.real.tolist(), w.imag.tolist(), rep.krein, near)]))


def eigen_summary(reports: list, params: SolutionParams) -> dict:
    """Aggregate verdicts across a mu sweep, for report files and the CLI."""
    abscissa = max(rep.max_real_part for rep in reports)
    try:
        bs = b_star(params.k, params.kernel)
    except NonpositiveMultiplierError:
        bs = None
    ac = a_crit(params.k)
    return {
        "max_real_part": abscissa,
        "verdict": "unstable" if abscissa > 1e-8 else "spectrally stable",
        "per_mu": [
            {"mu": rep.mu, "max_real_part": rep.max_real_part,
             "counts": {"k_r": rep.counts[0], "k_c": rep.counts[1],
                        "k_i_minus": rep.counts[2], "n_L": rep.counts[3]},
             "near_origin": rep.near_origin}
            for rep in reports
        ],
        "b_star": bs,
        "a_crit": ac,
        "A": params.A,
        "predicate": instability_predicate(params.A, params.k) if params.A >= 0
                     else "inconclusive",
    }
