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
|k| <= 1 for `raised_cosine`; `n_theta` bounds the harmonics the solver carries.
The circles have radius 0, h, 2h, ... beyond L sqrt(2), each with the
n_psi = 4 n_theta angles psi_i = 2 pi i / n_psi (odd circles turned by half
a spacing), and B_k is the midpoint rule on 4 n_theta angles.
One synthesis matrix (sum over w, linear interpolation in r, exp(i k phi)),
built once per solve, takes the harmonics to the lattice.
The lattice sum over w meets (v, w) and (v, -w) at one radius and opposite
phi, so the sine part of g_k reaches the grid only through Im B_k, which is
zero for an angle density even in theta: only the cos(k psi) sums are taken.

Those sums fold onto a quarter circle.  Each circle's angle set is closed
under psi -> -psi and psi -> pi - psi, and the grid is symmetric about 0, so
with the even and odd parts e = (f + f[::-1]) / 2 and o = (f - f[::-1]) / 2
the orbit {psi, -psi, pi - psi, pi + psi} contributes

    sum cos(k psi') f(r cos psi') f(r sin psi') = 4 cos(k psi) p_k(x) e(y),
    p_k = e for even k, o for odd k,   x = r cos psi,  y = r sin psi.

Even circles sample i = 0..n_theta, where the orbits of psi = 0 and pi / 2
have two points (orbit weight 2, else 4); odd circles sample i < n_theta,
all of weight 4.  y is x at the partner angle pi / 2 - psi, i.e. the quarter
reversed (partner n_theta - i on even circles, n_theta - 1 - i on odd ones),
so only e and o are interpolated, at about n_psi / 4 angles per circle.
This is the full-circle sum up to rounding.
A per-row factor (a + c v^2) then makes the discrete gain mass and energy
exactly alpha B_0 M^2 and alpha B_0 M m2, the exact operator's values for an
angle density that is even in theta, as both kernels are (B_0 = 1).

The iteration is a contraction only on a short horizon, so a solve cuts
t_end into equal sub-steps below a guard time and restarts the iteration
from the density reached at the end of each, rescaled to mass 1: mass 1 is
an unstable fixed point of the mass equation dM/dt = alpha (M^2 - M), so
roundoff left in the mass would otherwise grow like exp(alpha t).  Node 0
of every Picard iterate is the sub-step's initial density, and so is every
node of the first, so a sub-step takes the gain of that density once and
then the gain of the n_time later nodes per sweep: 1 + (n_iter - 1) n_time
rows in all.  Each solve builds its own gain operator, which keeps its gather
and product buffers, one pair per batch size, for the solve's sweeps:
allocated per call, they would go back to the kernel on free and be faulted
in afresh, costing more than the gather.
Mass (the plain h * sum functional) is tracked after every sweep and a drift
beyond `MASS_TOL_TOY` aborts the solve: with the rescaling, it means that
f0's mass is off 1 or that the gain does not conserve mass, and silently
continuing would return a density that no longer represents a probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .laws import KacToy, MixtureSpec
from .simulator import GaussianInitial, InitialLaw, UniformBoxInitial

__all__ = [
    "ALPHA_TOY",
    "PicardGrid",
    "toy_kernel",
    "grid_initial",
    "GridDensity",
    "gaussian_grid_density",
    "uniform_grid_density",
    "picard_solve_toy",
    "PicardResult",
    "angular_nodes",
    "check_angular_resolution",
]

# The loss rate of the one problem the solver covers: all weight on one
# order-2 `KacToy` (`toy_kernel`), from Gaussian or uniform data (`grid_initial`).
ALPHA_TOY = 2.0
# Horizon below which the Picard sweep is trusted to contract.
T_GUARD_TOY = 0.25 / ALPHA_TOY
# Largest drift of the discrete mass from 1 that a solve accepts.
MASS_TOL_TOY = 1e-4


@dataclass(frozen=True)
class PicardGrid:
    """The solver's resolution; its defaults are the defaults of every grid and solve here."""

    L: float = 8.0
    n_v: int = 513
    n_theta: int = 64
    n_time: int = 32
    n_iter: int = 8


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


def gaussian_grid_density(L: float = PicardGrid.L, n_v: int = PicardGrid.n_v) -> GridDensity:
    """The standard Gaussian on the grid, normalized to mass 1."""
    v = np.linspace(-L, L, n_v)
    vals = np.exp(-0.5 * v**2)
    h = 2.0 * L / (n_v - 1)
    vals /= h * vals.sum()
    return GridDensity(L=L, values=tuple(vals))


def uniform_grid_density(a: float, L: float = PicardGrid.L, n_v: int = PicardGrid.n_v) -> GridDensity:
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


def toy_kernel(mixture: MixtureSpec) -> str:
    """The kernel of a mixture with all weight on one `KacToy`; raises ValueError for any other."""
    law, beta = next((law, beta) for law, beta in zip(mixture.laws, mixture.beta) if beta != 0.0)
    if not (isinstance(law, KacToy) and beta == 1.0):
        raise ValueError("picard solver requires a mixture with all weight on one toy rotation law")
    return law.kernel


def grid_initial(initial: InitialLaw, grid: PicardGrid) -> GridDensity:
    """f0 on the grid for Gaussian or uniform initial data; raises ValueError for any other."""
    if isinstance(initial, GaussianInitial):
        return gaussian_grid_density(L=grid.L, n_v=grid.n_v)
    if isinstance(initial, UniformBoxInitial):
        return uniform_grid_density(initial.a, L=grid.L, n_v=grid.n_v)
    raise ValueError(f"picard solver supports gaussian or uniform initial data, got {initial.tag!r}")


def angular_nodes(n_theta: int) -> int:
    """Angles per circle of the gain operator: more than four per period of each harmonic."""
    return 4 * n_theta


def check_angular_resolution(kernel: str, n_theta: int):
    """(angle density, highest harmonic) of a named kernel; raises unless the harmonic is below n_theta."""
    density, k_max = KacToy(kernel).angle_kernel
    if k_max >= n_theta:
        raise ValueError(
            f"picard solve: n_theta={n_theta} cannot carry the {kernel!r} kernel's angular "
            f"harmonic k={k_max}; n_theta must be at least {k_max + 1}"
        )
    return density, k_max


class _PolarGain:
    """Qplus[f, f] on the grid from the circle harmonics of f x f (see the module docstring)."""

    def __init__(self, L: float, n_v: int, n_theta: int, kernel: str) -> None:
        density, k_max = check_angular_resolution(kernel, n_theta)
        n_psi = angular_nodes(n_theta)
        h = 2.0 * L / (n_v - 1)
        theta = -math.pi + (2.0 * math.pi / n_psi) * (np.arange(n_psi) + 0.5)
        b = density(theta) * (2.0 * math.pi / n_psi)
        ks = np.arange(k_max + 1)
        harmonics = np.exp(1j * np.outer(ks, theta)) @ b
        self.b0 = float(harmonics[0].real)

        # Harmonic k of a lattice pair (v_i, w) at radius r and angle phi
        # contributes 2 Re(B_k exp(i k phi)) times the cosine sum of g_k(r) (B_0 g_0
        # for k = 0), interpolated linearly between the circles j = floor(r / h)
        # and j + 1.
        n_r = int(math.sqrt(2.0) * (n_v - 1) / 2.0) + 2
        v = np.linspace(-L, L, n_v)
        rad = np.hypot(v[:, None], v[None, :]) / h
        j = rad.astype(np.intp)
        lam = rad - j
        phase = 2.0 * harmonics[1:, None, None] * np.exp(1j * ks[1:, None, None] * np.arctan2(v, v[:, None]))
        cell = (j * n_v + np.arange(n_v)[:, None]).ravel()
        synth = np.empty((n_r, ks.size, n_v))
        for k, coef in enumerate([np.full_like(rad, self.b0), *phase.real]):
            w = ALPHA_TOY * h * coef
            col = np.bincount(cell, (w * (1.0 - lam)).ravel(), minlength=n_r * n_v)
            col += np.bincount(cell + n_v, (w * lam).ravel(), minlength=n_r * n_v)
            synth[:, k] = col.reshape(n_r, n_v)

        # Circle feature k sums cos(k psi) p(r cos psi) (f + f[::-1])(r sin psi) over a
        # quarter circle, with the part p = f + f[::-1] = 2 e for even k and
        # f - f[::-1] = 2 o for odd k (see the module docstring).
        self.n_parts = min(2, ks.size)
        self.stacks, blocks = [], []
        for parity in (0, 1):
            # circles j = parity, parity + 2, ... at psi_i = 2 pi i / n_psi, i = 0..n_theta
            # (even j) or 2 pi (i + 1/2) / n_psi, i < n_theta (odd j): f at r cos psi_i,
            # lattice cell and fraction of the linear interpolant, cell n_v (zero) outside
            js = np.arange(parity, n_r, 2)
            psi = (2.0 * math.pi / n_psi) * (np.arange(n_theta + 1 - parity) + 0.5 * parity)
            u = js[:, None] * np.cos(psi) + (n_v - 1) / 2.0
            cell = np.minimum(np.clip(u, 0.0, n_v - 1.0).astype(np.intp), n_v - 2)
            frac = u - cell
            cell[(u < 0.0) | (u > n_v - 1.0)] = n_v
            # orbit weight (2 at psi = 0 and pi / 2, else 4) / n_psi, over 4 for the doubled parts
            orbit = np.full(psi.size, 1.0 / n_psi)
            if parity == 0:
                orbit[[0, -1]] *= 0.5
            coefs = []
            for part in range(self.n_parts):
                k = ks[part::2]
                coefs.append(orbit[:, None] * np.cos(k * psi[:, None]))
                blocks.append(synth[parity::2, k].reshape(-1, n_v))
            self.stacks.append((cell, frac, coefs))
        self.synthesis = np.concatenate(blocks)
        self.cells = max(cell.size for cell, _, _ in self.stacks)  # per row, in the larger stack
        self.buffers: dict = {}  # batch size -> the gather and product buffers both stacks share
        self.h, self.v, self.v2 = h, v, v**2
        self.moments2, self.moments4 = np.stack([v**0, self.v2], axis=1), np.stack([v**0, self.v2, v**4], axis=1)

    def gain_batch(self, f_rows: np.ndarray) -> np.ndarray:
        """Qplus[f, f] on the grid for each row of f_rows (shape (m, n_v)); no result aliases a buffer."""
        m, n_v = f_rows.shape
        if m not in self.buffers:
            self.buffers[m] = np.empty(2 * self.n_parts * m * self.cells), np.empty(m * self.cells)
        gather, product = self.buffers[m]
        mirror = f_rows[:, ::-1]
        parts = f_rows + mirror if self.n_parts == 1 else np.concatenate([f_rows + mirror, f_rows - mirror])
        # values and slopes of the parts on the lattice cells (cell n_v is zero)
        table = np.zeros((2, parts.shape[0], n_v + 1))
        table[0, :, :n_v] = parts
        table[1, :, : n_v - 1] = np.diff(parts, axis=1)
        features = []
        for cell, frac, coefs in self.stacks:
            out = gather[: table.shape[1] * 2 * cell.size].reshape(2, -1, *cell.shape)
            x, slope = np.take(table, cell, axis=2, out=out, mode="clip")  # cells are 0..n_v
            slope *= frac
            x += slope
            x = x.reshape(-1, m, *cell.shape)
            y = x[0, ..., ::-1]  # r sin psi is r cos(pi / 2 - psi): the quarter reversed
            xy = product[: m * cell.size].reshape(m, *cell.shape)
            for part, coef in enumerate(coefs):
                np.multiply(x[part], y, out=xy)
                features.append((xy.reshape(-1, cell.shape[1]) @ coef).reshape(m, -1))
        gain = np.concatenate(features, axis=1) @ self.synthesis

        # conservative correction gain * (a + c v^2): exact discrete mass and energy
        mass, m2 = (self.h * f_rows @ self.moments2).T
        mu0, mu2, mu4 = (self.h * gain @ self.moments4).T
        t0 = ALPHA_TOY * self.b0 * mass**2
        t2 = ALPHA_TOY * (self.b0 * mass * m2)
        det = mu0 * mu4 - mu2**2
        det[det <= 0.0] = np.inf  # only an all-zero gain; it stays zero
        a, c = (t0 * mu4 - t2 * mu2) / det, (t2 * mu0 - t0 * mu2) / det
        return gain * (a[:, None] + c[:, None] * self.v2)


@dataclass(frozen=True)
class PicardResult:
    """Output of a Picard solve: the final density plus diagnostics.

    A solve runs `substeps` restarted iterations of equal length (none at
    t_end = 0), and `n_iter` counts the sweeps of all of them.  `increments`
    holds the sup-in-time L1 increment of every sweep, and
    `contraction_factors` the ratios of successive increments within each
    sub-step; values below 1 certify that the iteration contracted.
    `mass_drift` is the worst deviation of the discrete mass from 1 over all
    time nodes of all iterates, and `min_value` the most negative grid value
    produced.
    """

    density: GridDensity
    n_iter: int
    increments: Tuple[float, ...]
    contraction_factors: Tuple[float, ...]
    mass_drift: float
    min_value: float
    substeps: int


def picard_solve_toy(
    kernel: str,
    f0: GridDensity,
    t_end: float,
    n_iter: int = PicardGrid.n_iter,
    n_theta: int = PicardGrid.n_theta,
    n_time: int = PicardGrid.n_time,
) -> PicardResult:
    """Iterate the mild equation to the horizon t_end on the grid of f0.

    The horizon is cut into the fewest equal sub-steps no longer than
    0.8 * T_GUARD_TOY, up to rounding (1.0 is ten sub-steps of 0.1, not ten
    and a near-empty eleventh).  Each sub-step runs n_iter sweeps restarted
    from the previous density rescaled to mass 1, so mass roundoff cannot
    grow from one sub-step to the next; t_end = 0 returns f0 without a
    sweep.  Raises when t_end is negative or not finite, when n_theta is
    too small for the kernel, and when the discrete mass drifts beyond
    MASS_TOL_TOY after any sweep.
    """
    if not (t_end >= 0.0 and math.isfinite(t_end)):
        raise ValueError(f"picard solve: t_end must be finite and >= 0, got {t_end}")
    if n_iter < 1:
        raise ValueError(f"picard solve: n_iter must be >= 1, got {n_iter}")
    if n_time < 1 or n_theta < 1:
        raise ValueError("picard solve: n_time and n_theta must be >= 1")

    quad = _PolarGain(f0.L, f0.n_v, n_theta, kernel)
    mass_drift, min_value = abs(f0.mass() - 1.0), min(f0.values)
    if t_end == 0.0:
        return PicardResult(f0, 0, (), (), mass_drift, min_value, substeps=0)
    n_steps = max(1, math.ceil(t_end / (0.8 * T_GUARD_TOY) - 1e-9))
    dt = t_end / n_steps

    # Trapezoid weights against the memory kernel: for target node j,
    # weight_ji = dt * exp(-alpha (t_j - t_i)) * (1/2 at i in {0, j}, else 1),
    # each row scaled so that alpha * sum_i weight_ji = 1 - exp(-alpha t_j):
    # exact on constants, so mass 1 stays a fixed point of the sweep.
    n_nodes = n_time + 1
    times = np.linspace(0.0, dt, n_nodes)
    decay = np.exp(-ALPHA_TOY * times)
    weights = np.tril(np.exp(-ALPHA_TOY * (times[:, None] - times[None, :]))) * (dt / n_time)
    weights[:, 0] *= 0.5
    weights[np.diag_indices(n_nodes)] *= 0.5
    weights[0] = 0.0
    weights[1:] *= ((1.0 - decay[1:]) / (ALPHA_TOY * weights[1:].sum(axis=1)))[:, None]

    increments: List[float] = []
    factors: List[float] = []
    h = f0.h
    f = f0
    for _ in range(n_steps):
        f_vals = f.value_array()
        mass_drift = max(mass_drift, abs(f.mass() - 1.0))
        # Every node of the first iterate is f, and node 0 of every later one
        # (decay[0] == 1, weights[0] == 0): one gain row of f serves them all.
        iterate = np.tile(f_vals, (n_nodes, 1))
        gains = np.tile(quad.gain_batch(f_vals[None, :]), (n_nodes, 1))
        step: List[float] = []
        for sweep in range(n_iter):
            if sweep:
                gains[1:] = quad.gain_batch(iterate[1:])
            new = decay[:, None] * f_vals[None, :] + weights @ gains
            step.append(h * float(np.abs(new - iterate).sum(axis=1).max()))
            iterate = new
            node_mass = h * iterate.sum(axis=1)
            mass_drift = max(mass_drift, float(np.abs(node_mass - 1.0).max()))
            min_value = min(min_value, float(iterate.min()))
            if mass_drift > MASS_TOL_TOY:
                raise RuntimeError(
                    f"picard solve: mass drifted to {mass_drift:.3e} (> {MASS_TOL_TOY:.1e}) "
                    f"after sweep {sweep + 1}: the gain does not conserve mass, or f0's mass is "
                    f"off 1 (by {abs(f0.mass() - 1.0):.1e}); mass 1 is an unstable fixed point"
                )
        increments += step
        factors += [b / a for a, b in zip(step, step[1:]) if a > 0.0]
        end = iterate[-1]
        f = GridDensity(L=f0.L, values=tuple(end / (h * end.sum())))

    return PicardResult(
        density=f,
        n_iter=n_steps * n_iter,
        increments=tuple(increments),
        contraction_factors=tuple(factors),
        mass_drift=mass_drift,
        min_value=min_value,
        substeps=n_steps,
    )
