"""Collision transformation laws for particle groups of order K.

A law maps a group of K velocities in R^d and a random scattering parameter
omega to a new group of K velocities.  Every built-in law is a linear isometry
of R^{dK} for each omega (so the group's kinetic energy is conserved exactly),
inverts itself at least in distribution over omega, and samples omega from a
distribution that is insensitive to relabeling the K slots.  Those three
properties are what the particle simulator, the mean-field sampler and the
marginal calculus rely on; `check_h2_involution` / `check_h3_symmetry` verify
the two distributional ones by Monte Carlo and `h1_max_error` checks the
isometry directly.

Shape conventions: a velocity group is an array of shape (K, d), or (B, K, d)
for a batch of B groups.  Scattering parameters are a scalar angle (KacToy),
a unit vector of shape (d,) (BinaryMaxwell), or a unit vector of R^{dK} stored
as shape (K, d) (the symmetric reflection laws).  `sample_angle(rng, size)`
always draws a batch, so its result has a leading axis of length `size`;
`apply` takes one group with one parameter or a batch of each.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "CollisionLaw",
    "BinaryMaxwell",
    "KacToy",
    "SymmetricK",
    "SymmetricKMomentum",
    "MixtureSpec",
    "h1_max_error",
    "check_h2_involution",
    "check_h3_symmetry",
    "HypothesisReport",
]

# Norm below which a Gaussian draw is rejected before normalizing to the
# sphere; the event has probability ~0 but would otherwise divide by zero.
_SPHERE_REDRAW_EPS = 1e-12

_KACTOY_KERNELS = ("uniform", "raised_cosine")


def _unit_vectors(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Sample `size` uniform points on the unit sphere of R^n as normalized Gaussians.

    Degenerate draws with norm below 1e-12 are redrawn.
    """
    out = rng.standard_normal((int(size), n))
    norms = np.sqrt(np.einsum("ij,ij->i", out, out))
    while (norms < _SPHERE_REDRAW_EPS).any():
        bad = np.flatnonzero(norms < _SPHERE_REDRAW_EPS)
        out[bad] = rng.standard_normal((bad.size, n))
        norms[bad] = np.sqrt(np.einsum("ij,ij->i", out[bad], out[bad]))
    out /= norms[:, None]
    return out


def _left_sum(x: np.ndarray) -> np.ndarray:
    """np.add.reduce(x, axis=-1), bit for bit.

    Below 8 terms numpy's sum is a left fold, and the fold over slices is
    several times cheaper on a short or strided axis; from 8 terms on numpy
    may sum pairwise, so the reduce itself is kept there.
    """
    n = x.shape[-1]
    if not 2 <= n < 8:
        return np.add.reduce(x, axis=-1)
    total = x[..., 0] + x[..., 1]
    for j in range(2, n):
        total += x[..., j]
    return total


class CollisionLaw:
    """Common interface of the transformation laws.

    Subclasses define `order` (K), `dim` (d), `tag`, angle sampling and the
    forward/inverse group maps.  Instances are immutable; all randomness
    comes from the generator handed in.  The mean-field sampler moves only a
    group's first slot, so a law that fails `check_h3_symmetry` is outside its contract.
    """

    tag = "abstract"
    # True when apply(omega, apply(omega, V)) == V holds pointwise for every
    # omega, not merely in distribution over omega.
    pointwise_involution = False

    @property
    def order(self) -> int:
        raise NotImplementedError

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def sample_angle(self, rng: np.random.Generator, size: int):
        raise NotImplementedError

    def apply(self, angle, group: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_inverse(self, angle, group: np.ndarray) -> np.ndarray:
        """Apply the inverse map; defaults to `apply` for pointwise involutions."""
        if self.pointwise_involution:
            return self.apply(angle, group)
        raise NotImplementedError(f"{self.tag}: no inverse map implemented")

    @property
    def describe(self) -> str:
        """Tag plus parameters, e.g. ``symmetric_k(k=2,d=1)``; unique per variant."""
        fields = getattr(self, "__dataclass_fields__", None)
        if not fields:
            return self.tag
        inner = ",".join(f"{name}={getattr(self, name)}" for name in fields)
        return f"{self.tag}({inner})"

    def _check_group(self, group: np.ndarray) -> np.ndarray:
        g = np.asarray(group, dtype=np.float64)
        if g.shape[-2:] != (self.order, self.dim):
            raise ValueError(
                f"{self.tag}: expected group shape (..., {self.order}, {self.dim}), "
                f"got {g.shape}"
            )
        return g


@dataclass(frozen=True)
class BinaryMaxwell(CollisionLaw):
    """Pair law exchanging the relative-velocity component along omega.

    omega is uniform on the unit sphere S^{d-1} and

        (v1, v2) -> (v1 + <omega, v2 - v1> omega,  v2 - <omega, v2 - v1> omega)

    conserves the pair's energy and momentum and is its own inverse.  Swapping
    the two labels commutes with the map for every omega.
    """

    d: int = 3

    tag = "binary_maxwell"
    pointwise_involution = True

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("binary_maxwell: d must be >= 1")

    @property
    def order(self) -> int:
        return 2

    @property
    def dim(self) -> int:
        return self.d

    def sample_angle(self, rng, size):
        return _unit_vectors(rng, self.d, size)

    def apply(self, angle, group):
        g = self._check_group(group)
        w = np.asarray(angle, dtype=np.float64)
        hw = _left_sum(w * (g[..., 1, :] - g[..., 0, :]))[..., None] * w
        out = g.copy()
        out[..., 0, :] += hw
        out[..., 1, :] -= hw
        return out


@dataclass(frozen=True)
class KacToy(CollisionLaw):
    """One-dimensional pair rotation (v1, v2) -> R(theta)(v1, v2).

    The rotation matrix is [[cos t, sin t], [-sin t, cos t]] with t drawn
    from an even angle density on (-pi, pi): "uniform" or "raised_cosine"
    (1 + cos t)/(2 pi).  Defined for d = 1 only; conserves v1^2 + v2^2
    exactly but not momentum.  The inverse is the rotation by -t, which has
    the same law as t because the density is even.
    """

    kernel: str = "uniform"

    tag = "kac_toy"

    def __post_init__(self):
        if self.kernel not in _KACTOY_KERNELS:
            raise ValueError(
                f"kac_toy: unknown kernel {self.kernel!r}; expected one of {_KACTOY_KERNELS}"
            )

    @property
    def order(self) -> int:
        return 2

    @property
    def dim(self) -> int:
        return 1

    def sample_angle(self, rng, size):
        if self.kernel == "uniform":
            return rng.uniform(-math.pi, math.pi, size=size)
        # Raised cosine by rejection against the uniform proposal, acceptance
        # probability (1 + cos t)/2.
        batch = int(size)
        out = np.empty(batch)
        filled = 0
        while filled < batch:
            cand = rng.uniform(-math.pi, math.pi, size=batch - filled)
            keep = cand[rng.random(batch - filled) <= 0.5 * (1.0 + np.cos(cand))]
            out[filled : filled + keep.size] = keep
            filled += keep.size
        return out

    def apply(self, angle, group):
        g = self._check_group(group)
        th = np.asarray(angle, dtype=np.float64)
        c, s = np.cos(th), np.sin(th)
        v1, v2 = g[..., 0, 0], g[..., 1, 0]
        out = np.empty_like(g)
        w1, w2 = out[..., 0, 0], out[..., 1, 0]  # views: written in place, rounded as c v1 + s v2
        np.multiply(c, v1, out=w1)
        w1 += s * v2
        np.multiply(c, v2, out=w2)
        w2 -= s * v1
        return out

    def apply_inverse(self, angle, group):
        return self.apply(np.negative(angle), group)


@dataclass(frozen=True)
class SymmetricK(CollisionLaw):
    """Order-K reflection law: one Householder reflection of the whole group.

    omega is uniform on the unit sphere of R^{dK} (stored as shape (K, d)) and

        V* = V - 2 <omega, V> omega,   i.e.   v_i* = v_i - 2 (sum_l <omega_l, v_l>) omega_i,

    with the inner product over all K*d components.  Exact pointwise
    involution; conserves energy but not momentum.  k = 1 is allowed and
    reflects a single velocity in R^d.
    """

    k: int = 2
    d: int = 3

    tag = "symmetric_k"
    pointwise_involution = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"{self.tag}: order k must be >= 1")
        if self.d < 1:
            raise ValueError(f"{self.tag}: d must be >= 1")

    @property
    def order(self) -> int:
        return self.k

    @property
    def dim(self) -> int:
        return self.d

    def sample_angle(self, rng, size):
        return _unit_vectors(rng, self.k * self.d, size).reshape(-1, self.k, self.d)

    def apply(self, angle, group):
        g = self._check_group(group)
        w = np.asarray(angle, dtype=np.float64)
        proj = np.add.reduce(w * g, axis=(-2, -1), keepdims=True)
        return g - 2.0 * proj * w


@dataclass(frozen=True)
class SymmetricKMomentum(SymmetricK):
    """SymmetricK restricted to reflection directions with zero slot sum.

    omega is drawn by projecting a Gaussian of R^{dK} onto the subspace
    {omega : omega_1 + ... + omega_K = 0} and normalizing, the uniform law on
    that subspace's unit sphere.  The zero-sum constraint makes the reflection
    conserve total momentum as well as energy.  Requires k >= 2 (for k = 1
    the subspace is {0}).
    """

    tag = "symmetric_k_momentum"

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"{self.tag}: order k must be >= 2")
        if self.d < 1:
            raise ValueError(f"{self.tag}: d must be >= 1")

    def sample_angle(self, rng, size):
        batch = int(size)
        out = np.empty((batch, self.k, self.d))
        filled = 0
        while filled < batch:
            cand = rng.standard_normal((batch - filled, self.k, self.d))
            cand -= _left_sum(cand.swapaxes(1, 2))[:, None, :] / self.k
            flat = cand.reshape(cand.shape[0], -1)
            norms = np.sqrt(np.add.reduce(flat * flat, axis=1))
            ok = norms >= _SPHERE_REDRAW_EPS
            kept = cand[ok] / norms[ok][:, None, None]
            out[filled : filled + kept.shape[0]] = kept
            filled += kept.shape[0]
        return out


@dataclass(frozen=True)
class MixtureSpec:
    """A normalized mixture of collision laws of orders 1..M.

    `laws[K-1]` must have order K, all laws share one ambient dimension, and
    the weights form a probability vector (checked to 1e-12).  `alpha` is the
    per-particle collision rate sum_K beta_K * K used by the mean-field
    sampler.
    """

    laws: tuple
    beta: tuple

    def __post_init__(self):
        laws = tuple(self.laws)
        beta = tuple(float(b) for b in self.beta)
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "beta", beta)
        if len(laws) == 0:
            raise ValueError("mixture: at least one law is required")
        if len(laws) != len(beta):
            raise ValueError("mixture: len(laws) != len(beta)")
        for pos, law in enumerate(laws):
            if law.order != pos + 1:
                raise ValueError(
                    f"mixture: laws[{pos}] must have order {pos + 1}, got {law.order}"
                )
        dims = {law.dim for law in laws}
        if len(dims) != 1:
            raise ValueError(f"mixture: all laws must share one dimension, got {dims}")
        if any(b < 0.0 for b in beta):
            raise ValueError("mixture: weights must be nonnegative")
        if abs(sum(beta) - 1.0) > 1e-12:
            raise ValueError(f"mixture: weights sum to {sum(beta)!r}, expected 1")
        # Order K takes the uniforms in [edges[K-1], edges[K]); edges[0] = 0
        # and the top edge is exactly 1, guarding it against rounding.
        cum = np.cumsum((0.0,) + beta)
        cum[-1] = 1.0
        object.__setattr__(self, "_cum_beta", cum)
        alpha = sum(b * (k + 1) for k, b in enumerate(beta))
        object.__setattr__(self, "_alpha", alpha)
        cum_sb = np.cumsum([0.0] + [b * (k + 1) / alpha for k, b in enumerate(beta)])
        cum_sb[-1] = 1.0
        object.__setattr__(self, "_cum_sizebiased", cum_sb)

    @property
    def m(self) -> int:
        """Highest collision order in the mixture."""
        return len(self.laws)

    @property
    def dim(self) -> int:
        return self.laws[0].dim

    @property
    def alpha(self) -> float:
        return self._alpha

    def order_from_uniform(self, u):
        """Map uniform [0,1) draws (a scalar or an array) to orders K in 1..M.

        The count of edges at or below u is the order; zero-weight orders
        have empty intervals and never occur.
        """
        return _count_edges(self._cum_beta, u)

    def order_from_uniform_sizebiased(self, u):
        """Map uniform [0,1) draws to orders K with probability beta_K*K/alpha.

        This is the order distribution seen from a tagged particle: order-K
        events involve K particles, so each particle's collision clock carries
        the rate-weighted mixture that the mean-field sampler uses.
        """
        return _count_edges(self._cum_sizebiased, u)


def _count_edges(edges: np.ndarray, u):
    """Count of edges at or below each u in [0, 1); a float u is bisected, faster than a numpy call.

    Edge 0 is 0 and the top edge is 1, so for an array the count is 1 plus
    the interior edges at or below u: equal to `searchsorted(side="right")`
    and several times cheaper for the few edges of a mixture.
    """
    if isinstance(u, float):
        return bisect.bisect_right(edges, u)
    count = np.ones(u.shape, dtype=np.intp)
    for edge in edges[1:-1].tolist():
        count += u >= edge
    return count


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Monte-Carlo comparison of two omega-averages that should coincide.

    `mean_forward` and `mean_reference` estimate the two sides, `difference`
    their paired per-sample difference, and `combined_stderr` the standard
    error of that difference (exactly 0 when the identity holds pointwise).
    """

    law: str
    hypothesis: str
    mean_forward: float
    mean_reference: float
    difference: float
    combined_stderr: float
    n_samples: int

    @property
    def passed(self) -> bool:
        return abs(self.difference) <= 3.0 * self.combined_stderr


def _probe(group: np.ndarray) -> np.ndarray:
    """Bounded test function: tanh of the first slot's coordinate sum.

    Deliberately not symmetric under slot permutations, so it can expose a
    labeling dependence if one existed.
    """
    return np.tanh(np.sum(group[..., 0, :], axis=-1))


def _fixed_group(law: CollisionLaw, n_samples: int) -> np.ndarray:
    """A deterministic non-degenerate group, repeated n_samples times."""
    base = np.arange(1, law.order * law.dim + 1, dtype=np.float64)
    V = (0.5 * base * (-1.0) ** base).reshape(law.order, law.dim)
    return np.broadcast_to(V, (n_samples, law.order, law.dim))


def _paired_report(law, hypothesis, forward, reference):
    diff = forward - reference
    mean_diff = float(np.mean(diff))
    if diff.size > 1:
        stderr = float(np.std(diff, ddof=1) / math.sqrt(diff.size))
    else:
        stderr = 0.0
    return HypothesisReport(
        law=law.describe,
        hypothesis=hypothesis,
        mean_forward=float(np.mean(forward)),
        mean_reference=float(np.mean(reference)),
        difference=mean_diff,
        combined_stderr=stderr,
        n_samples=int(diff.size),
    )


def check_h2_involution(
    law: CollisionLaw,
    n_samples: int = 10**5,
    rng: Optional[np.random.Generator] = None,
) -> HypothesisReport:
    """Check that the forward and inverse maps agree in distribution over omega.

    Estimates E_omega[probe(T^omega V)] against E_omega[probe((T^omega)^-1 V)]
    for a fixed group V, using the same omega draws on both sides, so that
    pointwise involutions report difference == 0 with stderr == 0.  The report
    passes when |difference| <= 3 * combined_stderr.
    """
    rng = np.random.default_rng() if rng is None else rng
    group = _fixed_group(law, n_samples)
    omega = law.sample_angle(rng, size=n_samples)
    forward = _probe(law.apply(omega, group))
    inverse = _probe(law.apply_inverse(omega, group))
    return _paired_report(law, "H2", forward, inverse)


def check_h3_symmetry(
    law: CollisionLaw,
    n_samples: int = 10**5,
    rng: Optional[np.random.Generator] = None,
) -> HypothesisReport:
    """Check that relabeling the K slots does not change omega-averages.

    Compares E_omega[probe(sigma T^omega sigma^-1 V)] with
    E_omega[probe(T^omega V)] on paired omega draws for a fixed group V,
    where sigma swaps the first two slots (the identity when K = 1, making
    the check trivially exact).
    """
    rng = np.random.default_rng() if rng is None else rng
    swap = np.arange(law.order)  # sigma, its own inverse
    swap[:2] = swap[:2][::-1]
    group = _fixed_group(law, n_samples)
    omega = law.sample_angle(rng, size=n_samples)
    plain = _probe(law.apply(omega, group))
    conjugated = _probe(law.apply(omega, group[:, swap, :])[:, swap, :])
    return _paired_report(law, "H3", conjugated, plain)


def h1_max_error(
    law: CollisionLaw,
    n_samples: int = 10**4,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Worst relative energy defect over random (omega, V) pairs.

    Returns max |‖T^omega V‖^2 - ‖V‖^2| / max(1, ‖V‖^2) over `n_samples`
    independent pairs with standard normal V; the isometry property makes
    this zero up to float rounding (of order 1e-15).
    """
    rng = np.random.default_rng() if rng is None else rng
    group = rng.standard_normal((n_samples, law.order, law.dim))
    omega = law.sample_angle(rng, size=n_samples)
    before = np.sum(group * group, axis=(1, 2))
    moved = law.apply(omega, group)
    after = np.sum(moved * moved, axis=(1, 2))
    return float(np.max(np.abs(after - before) / np.maximum(1.0, before)))
