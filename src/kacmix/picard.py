"""Deterministic grid solver for the one-dimensional binary toy model.

Specialized to d = 1 with the pure rotation collision (beta_2 = 1, so the
loss rate is alpha = 2).  The mild form of the equation,

    f(t) = exp(-alpha t) f0 + int_0^t exp(-alpha (t - s)) Qplus[f(s), f(s)] ds,

is iterated as a Picard sequence starting from the constant-in-time iterate
f_0(t) = f0.  States live on a uniform velocity grid over [-L, L]; the time
integral uses a fixed trapezoid rule.

The gain term uses that a collision only rotates the pair (v, w) (as
Bobylev 1975 does in Fourier variables): with (v, w) = r (cos phi, sin phi)
and g_k(r) the k-th Fourier coefficient of f x f on the circle of radius r,
Qplus(v) = alpha int dw sum_k B_k g_k(r) exp(i k phi), B_k = int b exp(i k theta).
Only the kernel's harmonics are kept: k = 0 (circle averages) for `uniform`,
|k| <= 1 for `raised_cosine`, and for a callable k = 0 plus each |k| < n_theta
with |B_k| > 1e-12 B_0; `n_theta` bounds the harmonics the solver carries.
f x f is sampled on circles of radius 0, h, 2h, ... beyond L sqrt(2) at
4 n_theta angles (odd circles turned by half a spacing) and B_k is the
midpoint rule on 4 n_theta angles.
One synthesis matrix (sum over w, linear interpolation in r, exp(i k phi)),
built once per grid, n_theta and kernel, takes the harmonics to the lattice.
A per-row factor (a + c v^2) then makes the discrete gain mass and energy
exactly alpha B_0 M^2 and alpha (B_0 M m2 + m1^2 int b sin(2 theta)), the
exact operator's values (B_0 = 1 for the built-in kernels).

The iteration is a contraction only on a short horizon, so the solver
refuses t_end at or beyond a guard time and tells the caller to sub-step;
`picard_evolve_toy` does that sub-stepping for any horizon.
Mass (the plain h * sum functional) is tracked after every sweep and a drift
beyond `mass_tol` aborts the solve: it means the grid is too coarse or too
short for the requested horizon, and silently continuing would return a
density that no longer represents a probability.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Tuple, Union

import numpy as np

__all__ = [
    "ALPHA_TOY",
    "GridDensity",
    "gaussian_grid_density",
    "uniform_grid_density",
    "picard_solve_toy",
    "picard_evolve_toy",
    "PicardResult",
    "angular_nodes",
    "check_angular_resolution",
]

ALPHA_TOY = 2.0
# Horizon below which the Picard sweep is trusted to contract.
T_GUARD_TOY = 0.25 / ALPHA_TOY

# name: (angle density b(theta), highest angular harmonic of b)
_KERNELS = {
    "uniform": (lambda theta: np.full_like(theta, 1.0 / (2.0 * math.pi)), 0),
    "raised_cosine": (lambda theta: (1.0 + np.cos(theta)) / (2.0 * math.pi), 1),
}


@dataclass(frozen=True)
class GridDensity:
    """A density sampled on a uniform velocity grid over [-L, L].

    `values[i]` approximates f at grid point -L + i*h with h = 2L/(n_v - 1).
    The mass functional is the plain Riemann sum h * sum(values); for the
    rapidly decaying densities this solver handles, the difference from the
    trapezoid rule is far below the tracked tolerances.
    """

    L: float
    values: Tuple[float, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError(f"grid density: expected a 1-d value array, got shape {vals.shape}")
        if vals.size < 2:
            raise ValueError(f"grid density: at least 2 grid points required, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid density: values must be finite")
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError(f"grid density: L must be positive and finite, got {self.L}")
        object.__setattr__(self, "values", tuple(float(v) for v in vals))

    @property
    def n_v(self) -> int:
        return len(self.values)

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.n_v - 1)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n_v)

    def value_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def mass(self) -> float:
        return self.h * float(np.sum(self.values))

    def moment(self, p: int) -> float:
        v = self.grid
        return self.h * float(np.sum(v**p * self.value_array()))


def gaussian_grid_density(L: float = 8.0, n_v: int = 513, sigma: float = 1.0) -> GridDensity:
    """A standard (or scaled) Gaussian on the grid, normalized to mass 1."""
    v = np.linspace(-L, L, n_v)
    vals = np.exp(-0.5 * (v / sigma) ** 2)
    h = 2.0 * L / (n_v - 1)
    vals /= h * vals.sum()
    return GridDensity(L=L, values=tuple(vals))


def uniform_grid_density(a: float, L: float = 8.0, n_v: int = 513) -> GridDensity:
    """The uniform density on [-a, a] sampled on the grid, normalized to mass 1.

    Grid points straddling the jump get the half value, which is what linear
    interpolation of the step would produce; the result is then rescaled so
    the discrete mass is exactly 1.
    """
    if not 0 < a < L:
        raise ValueError(f"uniform grid density: need 0 < a < L, got a={a}, L={L}")
    v = np.linspace(-L, L, n_v)
    h = 2.0 * L / (n_v - 1)
    vals = np.where(np.abs(v) < a, 1.0, 0.0)
    vals[np.isclose(np.abs(v), a, rtol=0.0, atol=1e-12 * L)] = 0.5
    vals /= h * vals.sum()
    return GridDensity(L=L, values=tuple(vals))


def angular_nodes(n_theta: int) -> int:
    """Angles per circle of the gain operator: more than four per period of each harmonic."""
    return 4 * n_theta


def check_angular_resolution(kernel: Union[str, Callable], n_theta: int):
    """(angle density, highest harmonic it may carry); raises unless it is below n_theta.

    A callable may carry any harmonic below n_theta; the gain operator keeps
    those whose quadrature coefficient is not zero to rounding.
    """
    if callable(kernel):
        return kernel, n_theta - 1
    if kernel not in _KERNELS:
        raise ValueError(
            f"unknown scattering kernel {kernel!r}; expected one of {sorted(_KERNELS)} or a callable density"
        )
    density, k_max = _KERNELS[kernel]
    if k_max >= n_theta:
        raise ValueError(
            f"picard solve: n_theta={n_theta} cannot carry the {kernel!r} kernel's angular "
            f"harmonic k={k_max}; n_theta must be at least {k_max + 1}"
        )
    return density, k_max


class _PolarGain:
    """Qplus[f, f] on the grid from the circle harmonics of f x f (see the module docstring)."""

    def __init__(self, L: float, n_v: int, n_theta: int, kernel) -> None:
        density, k_max = check_angular_resolution(kernel, n_theta)
        n_psi = angular_nodes(n_theta)
        h = 2.0 * L / (n_v - 1)
        theta = -math.pi + (2.0 * math.pi / n_psi) * (np.arange(n_psi) + 0.5)
        b = np.asarray(density(theta), dtype=float)
        if b.shape != theta.shape or not np.all(np.isfinite(b)) or np.any(b < 0):
            raise ValueError("scattering kernel must map angles to finite nonnegative densities")
        b = b * (2.0 * math.pi / n_psi)
        ks = np.arange(k_max + 1)
        harmonics = np.exp(1j * np.outer(ks, theta)) @ b
        kept = np.abs(harmonics) > 1e-12 * abs(harmonics[0])
        kept[0] = True
        ks, harmonics = ks[kept], harmonics[kept]
        self.b0, self.sin2 = float(harmonics[0].real), float(b @ np.sin(2.0 * theta))

        # f at r cos(psi) for radius r = j h and angle psi: lattice cell and
        # fraction of the linear interpolant, cell n_v (a zero row) outside
        n_r = int(math.sqrt(2.0) * (n_v - 1) / 2.0) + 2
        j = np.arange(n_r)[:, None]
        psi = (2.0 * math.pi / n_psi) * (np.arange(n_psi) + 0.5 * (j % 2))
        u = j * np.cos(psi) + (n_v - 1) / 2.0
        self.cell = np.minimum(np.clip(u, 0.0, n_v - 1.0).astype(np.intp), n_v - 2)
        self.frac = (u - self.cell)[..., None]
        self.cell[(u < 0.0) | (u > n_v - 1.0)] = n_v
        # circle features: cos(k psi) / n_psi for k >= 0, then sin(k psi) / n_psi for k >= 1
        kpsi = ks[:, None] * psi[:, None, :]
        self.analysis = np.concatenate([np.cos(kpsi), np.sin(kpsi[:, 1:])], axis=1) / n_psi

        # Harmonic k of a lattice pair (v_i, w) at radius r and angle phi
        # contributes 2 Re(B_k exp(i k phi) g_k(r)) (B_0 g_0 for k = 0); g_k is
        # interpolated linearly between the circles j = floor(r / h) and j + 1.
        v = np.linspace(-L, L, n_v)
        rad = np.hypot(v[:, None], v[None, :]) / h
        j = rad.astype(np.intp)
        lam = rad - j
        phase = 2.0 * harmonics[1:, None, None] * np.exp(1j * ks[1:, None, None] * np.arctan2(v, v[:, None]))
        cell = (j * n_v + np.arange(n_v)[:, None]).ravel()
        synth = np.empty((n_r, 2 * ks.size - 1, n_v))
        for q, coef in enumerate([np.full_like(rad, self.b0), *phase.real, *phase.imag]):
            w = ALPHA_TOY * h * coef
            col = np.bincount(cell, (w * (1.0 - lam)).ravel(), minlength=n_r * n_v)
            col += np.bincount(cell + n_v, (w * lam).ravel(), minlength=n_r * n_v)
            synth[:, q] = col.reshape(n_r, n_v)
        self.synthesis = synth.reshape(-1, n_v).T.copy()
        self.h, self.v = h, v

    def gain_batch(self, f_rows: np.ndarray) -> np.ndarray:
        """Qplus[f, f] on the grid for a stack of value vectors (shape (m, n_v))."""
        m, n_v = f_rows.shape
        table = np.zeros((n_v + 1, m))
        table[:n_v] = f_rows.T
        slope = np.zeros((n_v + 1, m))
        slope[: n_v - 1] = np.diff(f_rows.T, axis=0)
        gain = np.empty((n_v, m))
        chunk = max(1, 2**15 // self.cell.size)  # rows per pass, sized for the cache
        for lo in range(0, m, chunk):
            cols = slice(lo, lo + chunk)
            fx = np.take(table[:, cols], self.cell, axis=0)
            fx += self.frac * np.take(slope[:, cols], self.cell, axis=0)
            fx *= np.roll(fx, fx.shape[1] // 4, axis=1)  # f(r sin psi) = f(r cos(psi - pi / 2))
            gain[:, cols] = self.synthesis @ np.matmul(self.analysis, fx).reshape(-1, fx.shape[-1])
        gain = gain.T

        # conservative correction gain * (a + c v^2): exact discrete mass and energy
        v = self.v
        mass, m1, m2 = (self.h * f_rows @ np.stack([v**0, v, v**2], axis=1)).T
        mu0, mu2, mu4 = (self.h * gain @ np.stack([v**0, v**2, v**4], axis=1)).T
        t0 = ALPHA_TOY * self.b0 * mass**2
        t2 = ALPHA_TOY * (self.b0 * mass * m2 + self.sin2 * m1**2)
        det = mu0 * mu4 - mu2**2
        det[det <= 0.0] = np.inf  # only an all-zero gain; it stays zero
        a, c = (t0 * mu4 - t2 * mu2) / det, (t2 * mu0 - t0 * mu2) / det
        return gain * (a[:, None] + c[:, None] * v**2)


@functools.lru_cache(maxsize=4)
def _polar_gain(L: float, n_v: int, n_theta: int, kernel) -> _PolarGain:
    """The gain operator of a grid, built once and reused across sweeps and solves."""
    return _PolarGain(L, n_v, n_theta, kernel)


@dataclass(frozen=True)
class PicardResult:
    """Output of a Picard solve: the final density plus diagnostics.

    `contraction_factors[i]` is the ratio of successive sup-in-time L1
    increments between sweeps i+1 and i+2; values below 1 certify the
    iteration contracted on the requested horizon.  `mass_drift` is the
    worst deviation of the discrete mass from 1 over all time nodes of the
    final iterate, and `min_value` the most negative grid value produced.
    A result of `picard_evolve_toy` covers `substeps` restarted solves:
    `n_iter` counts all their sweeps, the increments and factors are
    concatenated, and `mass_drift` and `min_value` are the worst over all.
    """

    density: GridDensity
    n_iter: int
    increments: Tuple[float, ...]
    contraction_factors: Tuple[float, ...]
    mass_drift: float
    min_value: float
    substeps: int = 1


def picard_solve_toy(
    kernel: Union[str, Callable],
    f0: GridDensity,
    t_end: float,
    n_iter: int = 8,
    n_theta: int = 64,
    n_time: int = 32,
    mass_tol: float = 1e-4,
) -> PicardResult:
    """Iterate the mild equation to t_end on the grid of f0.

    Returns the n_iter-th Picard iterate evaluated at t_end together with
    contraction and conservation diagnostics.  Raises when t_end reaches the
    guard horizon (contraction is only guaranteed on short intervals; solve
    to a shorter time and restart from the result to go further), when
    n_theta is too small for the kernel, and when the discrete mass drifts
    beyond mass_tol after any sweep.
    """
    if not (t_end >= 0.0 and math.isfinite(t_end)):
        raise ValueError(f"picard solve: t_end must be finite and >= 0, got {t_end}")
    if t_end >= T_GUARD_TOY:
        raise ValueError(
            f"picard solve: t_end={t_end} is at or beyond the stability horizon "
            f"t_guard={T_GUARD_TOY}; sub-step instead (solve to t < t_guard, rebuild "
            f"f0 from the result, and repeat until the target time is reached)"
        )
    if n_iter < 1:
        raise ValueError(f"picard solve: n_iter must be >= 1, got {n_iter}")
    if n_time < 1 or n_theta < 1:
        raise ValueError("picard solve: n_time and n_theta must be >= 1")

    quad = _polar_gain(f0.L, f0.n_v, n_theta, kernel)
    f0_vals = f0.value_array()
    start = PicardResult(f0, 0, (), (), abs(f0.mass() - 1.0), float(f0_vals.min()))
    if t_end == 0.0:
        return start

    # Trapezoid weights against the memory kernel: for target node j,
    # weight_ji = dt * exp(-alpha (t_j - t_i)) * (1/2 at i in {0, j}, else 1).
    n_nodes = n_time + 1
    times = np.linspace(0.0, t_end, n_nodes)
    decay = np.exp(-ALPHA_TOY * times)
    weights = np.tril(np.exp(-ALPHA_TOY * (times[:, None] - times[None, :]))) * (t_end / n_time)
    weights[:, 0] *= 0.5
    weights[np.diag_indices(n_nodes)] *= 0.5
    weights[0] = 0.0

    iterate = np.tile(f0_vals, (n_nodes, 1))
    increments: List[float] = []
    mass_drift, min_value = start.mass_drift, start.min_value
    h = f0.h
    for sweep in range(n_iter):
        gains = quad.gain_batch(iterate)
        new = decay[:, None] * f0_vals[None, :] + weights @ gains
        increments.append(h * float(np.abs(new - iterate).sum(axis=1).max()))
        iterate = new
        node_mass = h * iterate.sum(axis=1)
        mass_drift = max(mass_drift, float(np.abs(node_mass - 1.0).max()))
        min_value = min(min_value, float(iterate.min()))
        if mass_drift > mass_tol:
            raise RuntimeError(
                f"picard solve: mass drifted to {mass_drift:.3e} (> {mass_tol:.1e}) "
                f"after sweep {sweep + 1}; refine the grid or shorten the horizon"
            )

    factors = tuple(
        increments[i + 1] / increments[i]
        for i in range(len(increments) - 1)
        if increments[i] > 0.0
    )
    return PicardResult(
        density=GridDensity(L=f0.L, values=tuple(iterate[-1])),
        n_iter=n_iter,
        increments=tuple(increments),
        contraction_factors=factors,
        mass_drift=mass_drift,
        min_value=min_value,
    )


def picard_evolve_toy(
    kernel: Union[str, Callable],
    f0: GridDensity,
    t_end: float,
    n_iter: int = 8,
    n_theta: int = 64,
    n_time: int = 32,
) -> PicardResult:
    """The solution at any horizon t_end, as equal sub-steps of Picard solves.

    The horizon is cut into the fewest equal sub-steps no longer than
    0.8 * T_GUARD_TOY (up to rounding), and each sub-step is one `picard_solve_toy` restarted
    from the previous density.  The count absorbs rounding in t_end (1.0 is
    ten sub-steps of 0.1, not ten and a near-empty eleventh); t_end = 0
    returns f0 without a solve.
    """
    n_steps = math.ceil(t_end / (0.8 * T_GUARD_TOY) - 1e-9)
    steps = [PicardResult(f0, 0, (), (), abs(f0.mass() - 1.0), min(f0.values))]
    for _ in range(n_steps):
        steps.append(picard_solve_toy(
            kernel, steps[-1].density, t_end=t_end / n_steps, n_iter=n_iter, n_theta=n_theta, n_time=n_time
        ))
    return PicardResult(
        steps[-1].density, sum(r.n_iter for r in steps), sum((r.increments for r in steps), ()),
        sum((r.contraction_factors for r in steps), ()), max(r.mass_drift for r in steps),
        min(r.min_value for r in steps), substeps=n_steps,
    )
