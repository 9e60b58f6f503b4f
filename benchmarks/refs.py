"""Exact references the benchmark checks kacmix's outputs against.

Every built-in collision law is a linear isometry whose angle law does not
depend on the velocities: the Maxwell-type kernel with cut-off of the limit
equation.  For such kernels the limit equation closes on its moments and in
Fourier variables (Bobylev 1975), so the references here involve no Monte
Carlo and none of kacmix's code:

* the fourth-moment closed form of the one-dimensional toy rotation law;
* the Fourier-side solver of the toy limit equation;
* the Poisson band of the N-particle collision count;
* the power-sum identity for averages over ordered distinct tuples.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as cheb

# Toy rotation law with the uniform angle kernel: each particle collides at
# rate 2, and E_theta[cos^4] = 3/8, E_theta[cos^2 sin^2] = 1/8 give
# dm4/dt = 2 (3/4 m4 + 3/4 m2^2 - m4) = -m4/2 + 3/2 m2^2.
TOY_RATE = 2.0
TOY_M4_DECAY = 0.5


def toy_m4(t: float, m2: float, m4_0: float) -> float:
    """Fourth moment of the toy limit equation at time t.

    m2 is conserved and m4 relaxes to m4_inf = 3 m2^2 at rate 1/2:
    m4(t) = m4_inf + (m4(0) - m4_inf) exp(-t/2).  Needs m1 = m3 = 0 at t = 0,
    which holds for every even initial density.
    """
    m4_inf = 3.0 * m2 * m2
    return m4_inf + (m4_0 - m4_inf) * math.exp(-TOY_M4_DECAY * t)


def uniform_charfn(a: float):
    """Characteristic function sin(a xi)/(a xi) of the uniform law on [-a, a]."""

    def phi(xi):
        x = a * np.asarray(xi, dtype=float)
        return np.sinc(x / math.pi)

    return phi


class ToyFourierSolver:
    """Fourier form of the toy limit equation, integrated on a xi grid.

    For the uniform rotation kernel the characteristic function of the
    one-particle law solves

        phi_t(xi) = 2 (E_theta[phi(xi cos theta) phi(xi sin theta)] - phi(xi)).

    The right-hand side at xi only reads phi on [0, |xi|], so a grid on
    [-xi_max, xi_max] closes without boundary data.  phi is even and entire,
    so it is held as its values at Chebyshev points and interpolated
    spectrally; the angle average uses Gauss-Legendre nodes on [0, pi/2]
    (the integrand only depends on |cos|, |sin|), and time steps are RK4.
    """

    def __init__(self, xi_max: float = 2.0, n_nodes: int = 32, n_theta: int = 48):
        self.xi_max = float(xi_max)
        j = np.arange(n_nodes)
        self.nodes = self.xi_max * np.cos(math.pi * (j + 0.5) / n_nodes)
        gl_x, gl_w = np.polynomial.legendre.leggauss(n_theta)
        theta = 0.25 * math.pi * (gl_x + 1.0)
        self._weights = gl_w / 2.0  # mean over [0, pi/2]
        u = self.nodes / self.xi_max
        # Node values -> Chebyshev coefficients -> values at the rotated
        # points, as two fixed matrices of shape (n_nodes * n_theta, n_nodes).
        self._to_coef = np.linalg.inv(cheb.chebvander(u, n_nodes - 1))
        self._at_cos = cheb.chebvander(np.outer(u, np.cos(theta)).ravel(), n_nodes - 1) @ self._to_coef
        self._at_sin = cheb.chebvander(np.outer(u, np.sin(theta)).ravel(), n_nodes - 1) @ self._to_coef
        self._shape = (n_nodes, n_theta)

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        return self._to_coef @ values

    def _rhs(self, values: np.ndarray) -> np.ndarray:
        pairs = (self._at_cos @ values) * (self._at_sin @ values)
        gain = pairs.reshape(self._shape) @ self._weights
        return TOY_RATE * (gain - values)

    def solve(self, phi0, t_end: float, dt: float = 0.005) -> np.ndarray:
        """Chebyshev coefficients of phi at t_end, starting from phi0(xi)."""
        values = np.asarray(phi0(self.nodes), dtype=float)
        n_steps = max(1, math.ceil(t_end / dt - 1e-9))
        h = t_end / n_steps
        for _ in range(n_steps):
            k1 = self._rhs(values)
            k2 = self._rhs(values + 0.5 * h * k1)
            k3 = self._rhs(values + 0.5 * h * k2)
            k4 = self._rhs(values + h * k3)
            values = values + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return self.coefficients(values)

    def evaluate(self, coefficients: np.ndarray, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if np.any(np.abs(xi) > self.xi_max):
            raise ValueError(f"xi outside the solved range [-{self.xi_max}, {self.xi_max}]")
        return cheb.chebval(xi / self.xi_max, coefficients)

    def taylor_coefficient(self, coefficients: np.ndarray, power: int) -> float:
        """Coefficient of xi^power in phi; m_{2k} = (2k)! (-1)^k times the xi^{2k} one."""
        poly = cheb.cheb2poly(coefficients)
        return float(poly[power]) / self.xi_max**power


def toy_charfn_values(a: float, times, xi: float = 1.0) -> dict:
    """phi_t(xi) of the toy limit equation from uniform data on [-a, a], per t."""
    solver = ToyFourierSolver(xi_max=max(2.0, abs(xi)))
    phi0 = uniform_charfn(a)
    return {float(t): float(solver.evaluate(solver.solve(phi0, float(t)), xi)) for t in times}


def poisson_band(n: int, t: float, width: float = 5.0):
    """(low, high) for the event count of a rate-n Poisson clock run to time t."""
    mean = n * t
    half = width * math.sqrt(mean)
    return mean - half, mean + half


def distinct_tuple_average(values: np.ndarray, s: int) -> float:
    """Average of g(v_i1)...g(v_is) over ordered s-tuples of distinct particles.

    Uses the power sums p_k = sum_i g_i^k: for s = 2 the ordered distinct sum
    is p1^2 - p2, for s = 3 it is p1^3 - 3 p1 p2 + 2 p3; for s = 1 it is p1.
    """
    g = np.asarray(values, dtype=float)
    n = g.size
    p1, p2, p3 = (float(np.sum(g**k)) for k in (1, 2, 3))
    if s == 1:
        total = p1
    elif s == 2:
        total = p1 * p1 - p2
    elif s == 3:
        total = p1**3 - 3.0 * p1 * p2 + 2.0 * p3
    else:
        raise ValueError(f"power-sum identity implemented for s <= 3, got {s}")
    return total / math.prod(range(n - s + 1, n + 1))


def distinct_pair_average_explicit(values: np.ndarray, chunk: int = 512) -> float:
    """The s = 2 average as an explicit sum over ordered distinct pairs.

    The pair products are formed a block of rows at a time, with the
    diagonal (i == j) zeroed, so memory stays at chunk * n.
    """
    g = np.asarray(values, dtype=float)
    n = g.size
    total = 0.0
    for lo in range(0, n, chunk):
        block = np.outer(g[lo : lo + chunk], g)
        rows = np.arange(block.shape[0])
        block[rows, lo + rows] = 0.0
        total += float(block.sum())
    return total / (n * (n - 1))


def distinct_tuple_scale(values: np.ndarray, s: int) -> float:
    """Average of |g|^s over ordered tuples: the size that cancellations start from."""
    return float(np.mean(np.abs(np.asarray(values, dtype=float)))) ** s
