"""Tests of the benchmark's exact references.

Run from the repository root:  python3 -m pytest benchmarks/test_refs.py
"""

import itertools
import math

import numpy as np
import pytest

import checks
import refs

SQRT3 = math.sqrt(3.0)


def _moment_ode_m4(t, m2, m4_0, steps=2000):
    """m4 of the toy equation from its moment ODE, angle averages by quadrature."""
    theta = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    c4 = float(np.mean(np.cos(theta) ** 4))
    c2s2 = float(np.mean(np.cos(theta) ** 2 * np.sin(theta) ** 2))
    s4 = float(np.mean(np.sin(theta) ** 4))

    def rhs(m4):
        return refs.TOY_RATE * (c4 * m4 + 6.0 * c2s2 * m2 * m2 + s4 * m4 - m4)

    h = t / steps
    m4 = m4_0
    for _ in range(steps):
        k1 = rhs(m4)
        k2 = rhs(m4 + 0.5 * h * k1)
        k3 = rhs(m4 + 0.5 * h * k2)
        k4 = rhs(m4 + h * k3)
        m4 += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return m4


@pytest.mark.parametrize("t", [0.0, 0.4, 1.0, 5.0])
def test_m4_closed_form_solves_the_moment_equation(t):
    assert refs.toy_m4(t, 1.3, 2.1) == pytest.approx(_moment_ode_m4(t, 1.3, 2.1), rel=1e-10)


def test_m4_closed_form_relaxes_to_three_m2_squared():
    assert refs.toy_m4(0.0, 1.0, 1.8) == pytest.approx(1.8)
    assert refs.toy_m4(200.0, 1.1, 1.8) == pytest.approx(3.0 * 1.1**2)


@pytest.mark.parametrize("t", [0.0, 0.4, 1.0, 2.0])
def test_fourier_taylor_coefficients_reproduce_the_moments(t):
    solver = refs.ToyFourierSolver()
    coef = solver.solve(refs.uniform_charfn(SQRT3), t) if t > 0 else solver.coefficients(
        refs.uniform_charfn(SQRT3)(solver.nodes)
    )
    # phi(xi) = 1 - m2 xi^2 / 2 + m4 xi^4 / 24 - ...
    assert solver.taylor_coefficient(coef, 0) == pytest.approx(1.0, abs=1e-12)
    assert -2.0 * solver.taylor_coefficient(coef, 2) == pytest.approx(1.0, abs=1e-9)
    m4 = 24.0 * solver.taylor_coefficient(coef, 4)
    assert m4 == pytest.approx(refs.toy_m4(t, 1.0, 1.8), abs=1e-8)


def test_fourier_solver_keeps_the_gaussian():
    solver = refs.ToyFourierSolver()
    coef = solver.solve(lambda xi: np.exp(-0.5 * np.asarray(xi) ** 2), 1.0)
    xi = np.linspace(-2.0, 2.0, 41)
    assert np.max(np.abs(solver.evaluate(coef, xi) - np.exp(-0.5 * xi**2))) < 1e-12


def test_fourier_solution_moves_uniform_data():
    phi = refs.toy_charfn_values(SQRT3, [0.5, 1.0])
    phi0 = math.sin(SQRT3) / SQRT3
    assert phi0 < phi[0.5] < phi[1.0] < math.exp(-0.5)


def test_poisson_band_holds_simulated_counts():
    n, t = 3000, 15.0
    low, high = refs.poisson_band(n, t)
    assert (low, high) == pytest.approx((n * t - 5 * math.sqrt(n * t), n * t + 5 * math.sqrt(n * t)))
    counts = np.random.default_rng(7).poisson(n * t, size=10_000)
    assert np.all((counts >= low) & (counts <= high))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_power_sums_match_enumeration(s):
    g = np.random.default_rng(s).normal(size=9)
    brute = [math.prod(g[list(idx)]) for idx in itertools.permutations(range(g.size), s)]
    assert refs.distinct_tuple_average(g, s) == pytest.approx(np.mean(brute), rel=1e-12, abs=1e-15)
    if s == 2:
        assert refs.distinct_pair_average_explicit(g, chunk=4) == pytest.approx(np.mean(brute), rel=1e-12)


def test_explicit_pair_sum_agrees_with_power_sums():
    g = np.random.default_rng(3).uniform(-1.0, 1.0, size=1500)
    explicit = refs.distinct_pair_average_explicit(g, chunk=128)
    assert refs.distinct_tuple_average(g, 2) == pytest.approx(explicit, rel=1e-10)


def test_discrete_uniform_moments_of_a_resolved_box():
    # a on the grid with a fine spacing: close to the continuum a^2/3, a^4/5.
    m2, m4 = checks.discrete_uniform_moments(2.0, 8.0, 4001)
    assert m2 == pytest.approx(4.0 / 3.0, rel=1e-5)
    assert m4 == pytest.approx(16.0 / 5.0, rel=1e-5)
