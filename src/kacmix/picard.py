"""Deterministic grid solver for the one-dimensional binary toy model.

Specialized to d = 1 with the pure rotation collision (beta_2 = 1, so the
loss rate is alpha = 2).  The mild form of the equation,

    f(t) = exp(-alpha t) f0 + int_0^t exp(-alpha (t - s)) Qplus[f(s), f(s)] ds,

is iterated as a Picard sequence starting from the constant-in-time iterate
f_0(t) = f0.  States live on a uniform velocity grid over [-L, L]; the gain
term is evaluated by quadrature over the scattering angle and the partner
velocity, with linear interpolation at the pre-collisional points; the time
integral uses a fixed trapezoid rule.

The iteration is a contraction only on a short horizon, so the solver
refuses t_end at or beyond a guard time and tells the caller to sub-step;
`picard_evolve_toy` does that sub-stepping for any horizon.
Mass (the plain h * sum functional) is tracked after every sweep and a drift
beyond `mass_tol` aborts the solve: it means the grid is too coarse or too
short for the requested horizon, and silently continuing would return a
density that no longer represents a probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "ALPHA_TOY",
    "GridDensity",
    "gaussian_grid_density",
    "uniform_grid_density",
    "gain_toy",
    "picard_solve_toy",
    "picard_evolve_toy",
    "PicardResult",
]

ALPHA_TOY = 2.0
# Horizon below which the Picard sweep is trusted to contract.
T_GUARD_TOY = 0.25 / ALPHA_TOY

_KERNELS = {
    "uniform": lambda theta: np.full_like(theta, 1.0 / (2.0 * math.pi)),
    "raised_cosine": lambda theta: (1.0 + np.cos(theta)) / (2.0 * math.pi),
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


def _resolve_kernel(kernel: Union[str, Callable[[np.ndarray], np.ndarray]]):
    if callable(kernel):
        return kernel
    try:
        return _KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown scattering kernel {kernel!r}; expected one of {sorted(_KERNELS)} or a callable density"
        ) from None


def _interp_uniform(values: np.ndarray, u: np.ndarray, n_v: int) -> np.ndarray:
    """Linear interpolation of grid values at fractional indices u.

    Points outside [0, n_v - 1] contribute zero (the density is treated as
    supported inside the box).  Exploits the uniform grid: no search needed.
    """
    inside = (u >= 0.0) & (u <= n_v - 1.0)
    uc = np.clip(u, 0.0, n_v - 1.0)
    i = np.minimum(uc.astype(np.intp), n_v - 2)
    frac = uc - i
    out = (1.0 - frac) * values[..., i] + frac * values[..., i + 1]
    return np.where(inside, out, 0.0)


class _GainQuadrature:
    """Precomputed angle nodes and index geometry for the toy gain term.

    For each angle theta the pre-collisional pair of a grid point v and a
    partner w is (v cos - w sin, v sin + w cos); both coordinates are affine
    in the (v, w) lattice indices, so the fractional interpolation indices
    are outer sums computed on the fly.  The integrand factorizes as
    f(x) * f(y), hence bilinear interpolation of the product equals the
    product of the two univariate linear interpolations used here.
    """

    def __init__(self, L: float, n_v: int, n_theta: int, kernel) -> None:
        self.L = L
        self.n_v = n_v
        h = 2.0 * L / (n_v - 1)
        self.h = h
        width = 2.0 * math.pi / n_theta
        theta = -math.pi + width * (np.arange(n_theta) + 0.5)
        b = np.asarray(kernel(theta), dtype=float)
        if b.shape != theta.shape or not np.all(np.isfinite(b)) or np.any(b < 0):
            raise ValueError("scattering kernel must map angles to finite nonnegative densities")
        self.theta_weights = b * width
        self.cos = np.cos(theta)
        self.sin = np.sin(theta)
        self.idx = np.arange(n_v, dtype=float)

    def gain_batch(self, f_rows: np.ndarray) -> np.ndarray:
        """Qplus[f, f] on the grid for a stack of value vectors (shape (m, n_v)).

        The index geometry per angle is shared by every input row, so all rows
        are interpolated together: the rows are stored as columns of an
        (n_v + 1, m) table whose last row is zero, and one gather per
        interpolation index fetches every row's value.  Pre-collisional points
        outside the box index that zero row.  Each interpolant is written as
        f[i] + frac * (f[i+1] - f[i]), and v is processed in chunks small
        enough for the gathered blocks to stay in cache.
        """
        f_rows = np.atleast_2d(np.asarray(f_rows, dtype=float))
        m, n_v = f_rows.shape
        if n_v != self.n_v:
            raise ValueError(f"gain: expected rows of length {self.n_v}, got {n_v}")
        idx = self.idx
        table = np.zeros((n_v + 1, m))
        table[:n_v] = f_rows.T
        slope = np.zeros((n_v + 1, m))
        slope[: n_v - 1] = table[1:n_v] - table[: n_v - 1]
        v_chunk = max(1, 2**15 // (n_v * m))
        gx, gy, tmp = (np.empty((v_chunk, n_v, m)) for _ in range(3))
        out = np.zeros((n_v, m))
        for q in range(self.theta_weights.size):
            c, s, wq = self.cos[q], self.sin[q], self.theta_weights[q]
            if wq == 0.0:
                continue
            # fractional indices of x = v c - w s and y = v s + w c
            ux = c * idx[:, None] - s * idx[None, :] + (self.L / self.h) * (1.0 - c + s)
            uy = s * idx[:, None] + c * idx[None, :] + (self.L / self.h) * (1.0 - c - s)
            inside = (ux >= 0.0) & (ux <= n_v - 1.0) & (uy >= 0.0) & (uy <= n_v - 1.0)
            np.clip(ux, 0.0, n_v - 1.0, out=ux)
            np.clip(uy, 0.0, n_v - 1.0, out=uy)
            ix = np.minimum(ux.astype(np.intp), n_v - 2)
            iy = np.minimum(uy.astype(np.intp), n_v - 2)
            fracx = (ux - ix)[..., None]
            fracy = (uy - iy)[..., None]
            ix[~inside] = n_v
            for lo in range(0, n_v, v_chunk):
                hi = min(lo + v_chunk, n_v)
                a, b, d = gx[: hi - lo], gy[: hi - lo], tmp[: hi - lo]
                np.take(table, ix[lo:hi], axis=0, out=a)
                np.take(slope, ix[lo:hi], axis=0, out=d)
                d *= fracx[lo:hi]
                a += d
                np.take(table, iy[lo:hi], axis=0, out=b)
                np.take(slope, iy[lo:hi], axis=0, out=d)
                d *= fracy[lo:hi]
                b += d
                out[lo:hi] += wq * np.einsum("vwm,vwm->vm", a, b)
        return 2.0 * self.h * out.T

    def gain(self, f_values: np.ndarray) -> np.ndarray:
        """Qplus[f, f] on the grid for one value vector (shape (n_v,))."""
        return self.gain_batch(np.asarray(f_values, dtype=float)[None, :])[0]


def gain_toy(
    f0: GridDensity,
    kernel: Union[str, Callable] = "uniform",
    n_theta: int = 64,
) -> GridDensity:
    """The gain operator applied once to a grid density (diagnostic helper)."""
    quad = _GainQuadrature(f0.L, f0.n_v, n_theta, _resolve_kernel(kernel))
    return GridDensity(L=f0.L, values=tuple(quad.gain(f0.value_array())))


@dataclass(frozen=True)
class PicardResult:
    """Output of a Picard solve: the final density plus diagnostics.

    `contraction_factors[i]` is the ratio of successive sup-in-time L1
    increments between sweeps i+1 and i+2; values below 1 certify the
    iteration contracted on the requested horizon.  `mass_drift` is the
    worst deviation of the discrete mass from 1 over all time nodes of the
    final iterate, and `min_value` the most negative grid value produced.
    """

    density: GridDensity
    n_iter: int
    increments: Tuple[float, ...]
    contraction_factors: Tuple[float, ...]
    mass_drift: float
    min_value: float


def picard_solve_toy(
    kernel: Union[str, Callable],
    f0: GridDensity,
    t_end: float,
    n_iter: int = 8,
    n_theta: int = 64,
    n_time: int = 32,
    t_guard: float = T_GUARD_TOY,
    mass_tol: float = 1e-4,
) -> PicardResult:
    """Iterate the mild equation to t_end on the grid of f0.

    Returns the n_iter-th Picard iterate evaluated at t_end together with
    contraction and conservation diagnostics.  Raises when t_end reaches the
    guard horizon (contraction is only guaranteed on short intervals; solve
    to a shorter time and restart from the result to go further) and when
    the discrete mass drifts beyond mass_tol after any sweep.
    """
    if not (t_end >= 0.0 and math.isfinite(t_end)):
        raise ValueError(f"picard solve: t_end must be finite and >= 0, got {t_end}")
    if t_end >= t_guard:
        raise ValueError(
            f"picard solve: t_end={t_end} is at or beyond the stability horizon "
            f"t_guard={t_guard}; sub-step instead (solve to t < t_guard, rebuild "
            f"f0 from the result, and repeat until the target time is reached)"
        )
    if n_iter < 1:
        raise ValueError(f"picard solve: n_iter must be >= 1, got {n_iter}")
    if n_time < 1 or n_theta < 1:
        raise ValueError("picard solve: n_time and n_theta must be >= 1")

    quad = _GainQuadrature(f0.L, f0.n_v, n_theta, _resolve_kernel(kernel))
    f0_vals = f0.value_array()
    n_nodes = n_time + 1
    times = np.linspace(0.0, t_end, n_nodes)
    decay = np.exp(-ALPHA_TOY * times)

    # Trapezoid weights against the memory kernel: for target node j,
    # weight_ji = dt * exp(-alpha (t_j - t_i)) * (1/2 at i in {0, j}, else 1).
    dt = t_end / n_time if n_time > 0 else 0.0
    weights = np.zeros((n_nodes, n_nodes))
    for j in range(1, n_nodes):
        w = np.full(j + 1, dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        weights[j, : j + 1] = w * np.exp(-ALPHA_TOY * (times[j] - times[: j + 1]))

    if t_end == 0.0:
        return PicardResult(
            density=f0,
            n_iter=0,
            increments=(),
            contraction_factors=(),
            mass_drift=abs(f0.mass() - 1.0),
            min_value=float(f0_vals.min()),
        )

    iterate = np.tile(f0_vals, (n_nodes, 1))
    increments: List[float] = []
    mass_drift = abs(f0.mass() - 1.0)
    min_value = float(f0_vals.min())
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
) -> GridDensity:
    """The density at any horizon t_end, as equal sub-steps of Picard solves.

    The horizon is cut into the fewest equal sub-steps no longer than
    0.8 * T_GUARD_TOY (up to rounding), and each sub-step is one `picard_solve_toy` restarted
    from the previous density.  The count absorbs rounding in t_end (1.0 is
    ten sub-steps of 0.1, not ten and a near-empty eleventh); t_end = 0
    returns f0 without a solve.
    """
    max_step = 0.8 * T_GUARD_TOY
    n_steps = math.ceil(t_end / max_step - 1e-9)
    f = f0
    for _ in range(n_steps):
        f = picard_solve_toy(
            kernel, f, t_end=t_end / n_steps, n_iter=n_iter, n_theta=n_theta, n_time=n_time
        ).density
    return f
