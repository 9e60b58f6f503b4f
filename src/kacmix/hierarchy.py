"""Scalar calculus of the marginal hierarchy and its convergence bounds.

Everything here reduces to exact combinatorics or elementary inequalities:
the leading coefficient that multiplies the limiting collision operator in
the equation for an s-particle marginal, the geometric constants bounding
the hierarchy operators at finite N and in the limit, the horizon up to
which the iterated mild expansion converges, and the geometric tail factor
that shows the expansion's remainder vanishes.  Binomials
are evaluated in exact integer arithmetic and converted to float at the
end, so N up to 1e6 and beyond is safe.

The one stochastic ingredient is `verify_trace_identity`, a Monte-Carlo
check that tracing a single collision against an observed block of s
particles gives the same pairing whether the unobserved colliders are kept
inside a large system or appended as fresh marginal particles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .laws import CollisionLaw

__all__ = [
    "coeff_leading",
    "HierarchyConstants",
    "hierarchy_constants",
    "remainder_bound",
    "duhamel_remainder_factor",
    "TraceIdentityReport",
    "verify_trace_identity",
]


def coeff_leading(N: int, s: int, k: int) -> float:
    """Coefficient of the order-(s+k) coupling term at system size N.

    Equals N * binom(N-s, k) / ((k+1) * binom(N, k+1)), evaluated as an
    exact rational and rounded once.  It is identically 1 for s = 1 and
    tends to 1 as N grows for every fixed (s, k); when s + k > N there are
    not enough particles and the coupling vanishes, so 0 is returned.
    """
    if N < 1:
        raise ValueError(f"leading coefficient: N must be >= 1, got {N}")
    if s < 1:
        raise ValueError(f"leading coefficient: s must be >= 1, got {s}")
    if k < 0:
        raise ValueError(f"leading coefficient: k must be >= 0, got {k}")
    if s + k > N:
        return 0.0
    # int / int rounds the exact quotient once.
    return N * math.comb(N - s, k) / ((k + 1) * math.comb(N, k + 1))


@dataclass(frozen=True)
class HierarchyConstants:
    """All scalar constants of the hierarchy bounds for one mixture.

    R_k = 2 * sum_{l=k+1}^{M} beta_l * (1-epsilon)^{-l} * binom(l, k) are the
    finite-N operator norm constants, valid whenever the system is large
    enough that M/N <= epsilon (epsilon = 0 gives their exact N -> infinity
    limit); rho_k = 2 * beta_{k+1} * (k+1) are the limit operator norm
    constants; C_k = sum_{l=k+2}^{M} (1-epsilon)^{-l} * beta_l * binom(l, k)
    are the remainder constants, zero for k >= M-1.  All three run over
    k = 0..M-1.

    T_star is the smaller of the reciprocals of sum R_k e^k and sum rho_k e^k.
    Hierarchy-expansion results need T < T_max = T_star / m with m = M - 1;
    for m = 0 there is a single coupling order, the 1/m reduction is vacuous
    and T_max is T_star itself.

    theta1 and theta2 are the contraction factors T * sum R_k e^k and
    T * sum rho_k e^k at the stored reference time T; both must be in (0,1)
    for the expansion at that time to converge.
    """

    M: int
    betas: Tuple[float, ...]
    epsilon: float
    R: Tuple[float, ...]
    rho: Tuple[float, ...]
    C: Tuple[float, ...]
    T_star: float
    T_max: float
    T: float
    theta1: float
    theta2: float


def hierarchy_constants(
    M: int,
    betas: Sequence[float],
    epsilon: float = 0.5,
    T: Optional[float] = None,
) -> HierarchyConstants:
    """Assemble the full constants table for a mixture.

    The reference time T defaults to T_max / 2, the midpoint of the proven
    horizon; any T in (0, T_star) gives theta factors below 1.
    """
    b = tuple(float(x) for x in betas)
    if M < 1:
        raise ValueError(f"hierarchy constants: M must be >= 1, got {M}")
    if len(b) != M:
        raise ValueError(f"hierarchy constants: expected {M} weights, got {len(b)}")
    if any(x < 0 for x in b):
        raise ValueError("hierarchy constants: weights must be nonnegative")
    if abs(sum(b) - 1.0) > 1e-12:
        raise ValueError(f"hierarchy constants: weights sum to {sum(b)!r}, expected 1")
    if not (0.0 <= epsilon < 1.0):
        raise ValueError(f"hierarchy constants: epsilon must be in [0, 1), got {epsilon}")
    R = np.zeros(M)
    C = np.zeros(M)
    for k in range(M):
        R[k] = 2.0 * sum(
            b[ell - 1] * (1.0 - epsilon) ** (-ell) * math.comb(ell, k)
            for ell in range(k + 1, M + 1)
        )
        C[k] = sum(
            (1.0 - epsilon) ** (-ell) * b[ell - 1] * math.comb(ell, k)
            for ell in range(k + 2, M + 1)
        )
    rho = np.array([2.0 * b[k] * (k + 1) for k in range(M)])
    # both weighted sums are positive: the weights are nonnegative and sum to 1
    weights = np.exp(np.arange(M))
    sum_R = float(R @ weights)
    sum_rho = float(rho @ weights)
    t_star = min(1.0 / sum_R, 1.0 / sum_rho)
    t_max = t_star / (M - 1) if M >= 2 else t_star
    t_ref = t_max / 2.0 if T is None else float(T)
    if not (t_ref > 0 and math.isfinite(t_ref)):
        raise ValueError(f"hierarchy constants: reference time must be positive, got {t_ref}")
    return HierarchyConstants(
        M=M,
        betas=b,
        epsilon=float(epsilon),
        R=tuple(R),
        rho=tuple(rho),
        C=tuple(C),
        T_star=t_star,
        T_max=t_max,
        T=t_ref,
        theta1=t_ref * sum_R,
        theta2=t_ref * sum_rho,
    )


def remainder_bound(
    N: int, s: int, k: int, M: int, betas: Sequence[float], epsilon: float
) -> float:
    """Norm bound C_k * s^2 / N on the finite-N remainder of the coupling term.

    Requires 0 < epsilon < 1 and N >= M / epsilon (the regime in which the
    bound is established) and s <= N.  Decays like 1/N at fixed (s, k).
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"remainder bound: epsilon must be in (0, 1), got {epsilon}")
    if N < M / epsilon:
        raise ValueError(
            f"remainder bound: requires N >= M/epsilon = {M / epsilon:.6g}, got N={N}"
        )
    if not 1 <= s <= N:
        raise ValueError(f"remainder bound: requires 1 <= s <= N, got s={s}")
    if k < 0:
        raise ValueError(f"remainder bound: k must be >= 0, got {k}")
    C = hierarchy_constants(M, betas, epsilon).C
    c_k = float(C[k]) if k < M else 0.0
    return c_k * s * s / N


def duhamel_remainder_factor(s: int, n: int, m: int, T: float, T_star: float) -> float:
    """The scalar tail factor s * (m T / T_star)^{n+1} * (e (n+1))^{s/m} * e^s.

    This is what remains after bounding the n-times-iterated mild expansion;
    for T < T_star / m the geometric factor wins over the slow (n+1)^{s/m}
    growth and the factor tends to 0, which is the quantitative content of
    the convergence argument.  Evaluated through logarithms.
    """
    if s < 1 or n < 0 or m < 1:
        raise ValueError(
            f"remainder factor: need s >= 1, n >= 0, m >= 1, got s={s}, n={n}, m={m}"
        )
    if not (T > 0 and T_star > 0 and math.isfinite(T) and math.isfinite(T_star)):
        raise ValueError("remainder factor: need finite positive T and T_star")
    log_val = (
        math.log(s)
        + (n + 1) * math.log(m * T / T_star)
        + (s / m) * (1.0 + math.log(n + 1.0))
        + s
    )
    try:
        return math.exp(log_val)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# trace identity validator
# ---------------------------------------------------------------------------


def _probe(groups: np.ndarray) -> np.ndarray:
    """Bounded probe: product over slots of tanh(sum of coordinates)."""
    return np.prod(np.tanh(groups.sum(axis=-1)), axis=-1)


@dataclass(frozen=True)
class TraceIdentityReport:
    """Paired Monte-Carlo comparison of the two sides of the trace identity.

    `difference` and `diff_stderr` come from the per-sample paired
    difference, which shares the observed block and the scattering draw
    between the sides; `passed` is the 3-sigma criterion on that pairing.
    With no unobserved colliders (r = 0) the two sides coincide pointwise
    and all spreads are exactly zero.
    """

    law: str
    K: int
    n_overlap: int
    r: int
    s: int
    N: int
    d: int
    n_samples: int
    lhs_mean: float
    lhs_stderr: float
    rhs_mean: float
    rhs_stderr: float
    difference: float
    diff_stderr: float

    @property
    def passed(self) -> bool:
        return abs(self.difference) <= 3.0 * self.diff_stderr


# Samples drawn per pass of `verify_trace_identity`; bounds its memory.
TRACE_CHUNK = 250_000


def verify_trace_identity(
    law: CollisionLaw,
    n_overlap: int,
    N: int,
    s: int,
    n_samples: int = 10**6,
    rng: Optional[np.random.Generator] = None,
) -> TraceIdentityReport:
    """Check that integrating out colliders commutes with taking marginals.

    One collision of order K touches `n_overlap` of the first s (observed)
    particles plus r = K - n_overlap unobserved ones.  The identity states
    that pairing the observed marginal change against the bounded probe
    prod_j tanh(sum of the coordinates of v_j), j = 1..s, gives the same
    value whether the unobserved colliders are r of the remaining N - s
    particles of the full Gaussian system (left side) or r fresh particles
    appended to the s-particle marginal (right side).

    Both sides reduce to expectations over the observed block, the r tail
    velocities and the scattering draw; coordinates that neither the probe
    nor the collision reads integrate out exactly and are not sampled.  The
    observed block and the scattering draw are shared between the sides
    (common random numbers), the tail draws are independent, so the paired
    difference estimates the identity gap directly.
    """
    K = law.order
    d = law.dim
    if not 1 <= n_overlap <= min(K, s):
        raise ValueError(
            f"trace identity: invalid index pattern, need 1 <= n <= min(K, s) "
            f"(n={n_overlap}, K={K}, s={s})"
        )
    r = K - n_overlap
    if s > N or s + r > N:
        raise ValueError(
            f"trace identity: invalid index pattern, need s + (K - n) <= N "
            f"(s={s}, K={K}, n={n_overlap}, N={N})"
        )
    if n_samples < 2:
        raise ValueError(f"trace identity: n_samples must be >= 2, got {n_samples}")
    gen = rng if rng is not None else np.random.default_rng()

    # A collision changes only the first n_overlap observed slots, so each
    # side's probe change is the untouched factor prod_{j > n} tanh(.) times
    # the change of prod_{j <= n} tanh(.).
    sums = np.zeros(3)  # A, B, D = A - B
    sums_sq = np.zeros(3)
    done = 0
    while done < n_samples:
        b = min(TRACE_CHUNK, n_samples - done)
        observed = gen.standard_normal((b, s, d))
        tail_full = gen.standard_normal((b, r, d))
        tail_marg = gen.standard_normal((b, r, d))
        omega = law.sample_angle(gen, size=b)
        untouched = _probe(observed[:, n_overlap:])
        base = _probe(observed[:, :n_overlap])
        group = np.empty((b, K, d))
        group[:, :n_overlap] = observed[:, :n_overlap]
        group[:, n_overlap:] = tail_full
        a = untouched * (_probe(law.apply(omega, group)[:, :n_overlap]) - base)
        group[:, n_overlap:] = tail_marg
        bb = untouched * (_probe(law.apply(omega, group)[:, :n_overlap]) - base)
        dd = a - bb
        sums += (a.sum(), bb.sum(), dd.sum())
        sums_sq += ((a * a).sum(), (bb * bb).sum(), (dd * dd).sum())
        done += b

    means = sums / n_samples
    variances = np.maximum(sums_sq - sums * sums / n_samples, 0.0) / (n_samples - 1)
    stderrs = np.sqrt(variances / n_samples)
    return TraceIdentityReport(
        law=law.tag,
        K=K,
        n_overlap=n_overlap,
        r=r,
        s=s,
        N=N,
        d=d,
        n_samples=n_samples,
        lhs_mean=float(means[0]),
        lhs_stderr=float(stderrs[0]),
        rhs_mean=float(means[1]),
        rhs_stderr=float(stderrs[1]),
        difference=float(means[2]),
        diff_stderr=float(stderrs[2]),
    )
