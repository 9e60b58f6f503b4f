"""Fixed-point grid solver for the 1-d pair-rotation collision equation.

Oracles, in decreasing strength: the Gaussian is an exact stationary point;
the fourth moment of any symmetric solution relaxes as
m4(t) = 3 m2^2 + (m4(0) - 3 m2^2) exp(-t/2) for the flat kernel, evaluated
here in its grid-self-consistent form (the closed form with the grid's own
initial moments); and the raised-cosine kernel must reproduce the same m2/m4
trajectories because odd angle harmonics integrate out of both moments.

Unit tests run on reduced grids to stay fast; the acceptance suite exercises
the default resolution.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from kacmix import picard
from kacmix.picard import (
    ALPHA_TOY,
    GridDensity,
    gain_toy,
    gaussian_grid_density,
    picard_evolve_toy,
    picard_solve_toy,
    uniform_grid_density,
)

SMALL = dict(n_theta=24, n_time=12)


def small_gaussian(n_v=257, L=8.0):
    return gaussian_grid_density(L=L, n_v=n_v)


def m4_closed_form(m2_0, m4_0, t):
    return 3.0 * m2_0**2 + (m4_0 - 3.0 * m2_0**2) * np.exp(-0.5 * t)


# ---------------------------------------------------------------------------
# grid densities
# ---------------------------------------------------------------------------


def test_reference_densities_have_unit_mass():
    g = gaussian_grid_density(n_v=257)
    assert g.mass() == pytest.approx(1.0, abs=1e-15)
    assert g.moment(2) == pytest.approx(1.0, abs=1e-6)
    u = uniform_grid_density(1.0, n_v=257)
    assert u.mass() == pytest.approx(1.0, abs=1e-15)
    assert u.moment(2) == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert u.moment(1) == pytest.approx(0.0, abs=1e-15)


def test_grid_density_geometry():
    g = GridDensity(L=2.0, values=(0.0, 1.0, 0.0, 1.0, 0.0))
    assert g.n_v == 5
    assert g.h == pytest.approx(1.0)
    assert np.array_equal(g.grid, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert g.mass() == pytest.approx(2.0)
    with pytest.raises(ValueError, match="at least"):
        GridDensity(L=1.0, values=(1.0,))
    with pytest.raises(ValueError, match="L"):
        GridDensity(L=-1.0, values=(0.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# gain operator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", ["uniform", "raised_cosine"])
def test_gain_mass_is_alpha_times_mass_squared(kernel):
    f = small_gaussian()
    g = gain_toy(f, kernel=kernel, n_theta=32)
    assert g.mass() == pytest.approx(ALPHA_TOY * f.mass() ** 2, abs=2e-4)


def test_gain_of_gaussian_is_gaussian_scaled():
    """At the fixed point, gain(f) = alpha * f (collision balance)."""
    f = small_gaussian(n_v=513)
    g = gain_toy(f, kernel="uniform", n_theta=64)
    resid = np.asarray(g.values) - ALPHA_TOY * np.asarray(f.values)
    assert float(np.max(np.abs(resid))) <= 2e-4


def test_gain_preserves_energy_functional():
    f = uniform_grid_density(2.0, n_v=257)
    g = gain_toy(f, kernel="uniform", n_theta=48)
    # second moment of the gain equals alpha * m2 (per unit mass)
    assert g.moment(2) * g.mass() ** 0 == pytest.approx(
        ALPHA_TOY * f.moment(2), rel=5e-3
    )


# ---------------------------------------------------------------------------
# solver invariants
# ---------------------------------------------------------------------------


def test_mass_conservation_and_positivity():
    res = picard_solve_toy("uniform", small_gaussian(), t_end=0.1, **SMALL)
    assert abs(res.mass_drift) <= 1e-4
    assert res.min_value >= -1e-12
    assert res.density.mass() == pytest.approx(1.0, abs=1e-4)


def test_contraction_of_the_iteration():
    res = picard_solve_toy("uniform", uniform_grid_density(1.5, n_v=257), t_end=0.1, **SMALL)
    assert len(res.increments) == res.n_iter
    # successive sweep increments shrink geometrically
    assert all(f < 0.5 for f in res.contraction_factors), res.contraction_factors
    assert res.increments[-1] < 1e-10


def test_gaussian_is_stationary():
    res = picard_solve_toy("uniform", small_gaussian(), t_end=0.1, **SMALL)
    m2 = res.density.moment(2)
    m4 = res.density.moment(4)
    assert m2 == pytest.approx(1.0, abs=2e-3)
    assert m4 == pytest.approx(3.0, abs=6e-3)


def test_fourth_moment_relaxation_matches_closed_form():
    f0 = uniform_grid_density(2.0, n_v=257)
    m2_0, m4_0 = f0.moment(2), f0.moment(4)
    t = 0.1
    res = picard_solve_toy("uniform", f0, t_end=t, **SMALL)
    target = m4_closed_form(m2_0, m4_0, t)
    assert res.density.moment(4) == pytest.approx(target, abs=2e-3)
    assert res.density.moment(2) == pytest.approx(m2_0, abs=2e-3)


def test_raised_cosine_equals_uniform_on_even_data():
    """For even densities the cosine harmonic of the kernel cancels exactly.

    The gain integrand at angles theta and pi - theta coincides whenever f is
    even in v, so the extra cos(theta) term of the raised-cosine kernel
    integrates to zero and both kernels evolve even data identically (to
    rounding; the midpoint angle grid shares the reflection symmetry).
    """
    f0 = uniform_grid_density(1.5, n_v=257)
    ru = picard_solve_toy("uniform", f0, t_end=0.1, **SMALL)
    rc = picard_solve_toy("raised_cosine", f0, t_end=0.1, **SMALL)
    gap = np.max(np.abs(np.asarray(rc.density.values) - np.asarray(ru.density.values)))
    assert gap <= 1e-13, gap


def test_kernels_differ_on_asymmetric_data():
    """A shifted density breaks the even symmetry and exposes the kernel."""
    v = np.linspace(-8.0, 8.0, 257)
    vals = np.exp(-0.5 * (v - 1.0) ** 2)
    h = 16.0 / 256
    f0 = GridDensity(L=8.0, values=tuple(vals / (h * vals.sum())))
    gu = gain_toy(f0, kernel="uniform", n_theta=32)
    gc = gain_toy(f0, kernel="raised_cosine", n_theta=32)
    gap = np.max(np.abs(np.asarray(gc.values) - np.asarray(gu.values)))
    assert gap > 1e-3, gap


# ---------------------------------------------------------------------------
# horizons beyond the guard
# ---------------------------------------------------------------------------


def test_evolve_across_substeps_matches_closed_form():
    """Two restarted solves of 0.1 follow the m4 relaxation from uniform data."""
    f0 = uniform_grid_density(math.sqrt(3.0), n_v=97)
    t = 0.2
    f = picard_evolve_toy("uniform", f0, t_end=t, n_iter=6, n_theta=32, n_time=16)
    target = m4_closed_form(f0.moment(2), f0.moment(4), t)
    assert abs(f.moment(4) - target) <= 0.03, (f.moment(4), target)


@pytest.mark.parametrize("t_end, n_solves", [(0.0, 0), (0.4, 4), (1.0, 10)])
def test_evolve_substep_count(monkeypatch, t_end, n_solves):
    """Sub-steps are counted robustly: no trailing solve over a rounding remainder."""
    lengths = []

    def counting_solve(kernel, f, t_end, **grid):
        lengths.append(t_end)
        return SimpleNamespace(density=f)

    monkeypatch.setattr(picard, "picard_solve_toy", counting_solve)
    f0 = small_gaussian(n_v=33)
    assert picard_evolve_toy("uniform", f0, t_end) is f0
    assert lengths == [0.1] * n_solves


# ---------------------------------------------------------------------------
# error contracts
# ---------------------------------------------------------------------------


def test_horizon_guard():
    with pytest.raises(ValueError, match="sub-step"):
        picard_solve_toy("uniform", small_gaussian(), t_end=0.2, **SMALL)


def test_t_end_zero_returns_initial_density():
    f0 = small_gaussian()
    res = picard_solve_toy("uniform", f0, t_end=0.0, **SMALL)
    assert res.density.values == f0.values
    assert res.n_iter == 0


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError, match="kernel"):
        picard_solve_toy("hard_sphere", small_gaussian(), t_end=0.05)


def test_mass_tolerance_violation_raises():
    coarse = gaussian_grid_density(L=8.0, n_v=17)
    with pytest.raises(RuntimeError, match="refine the grid"):
        picard_solve_toy("uniform", coarse, t_end=0.1, n_theta=8, n_time=8, mass_tol=1e-10)


def test_determinism():
    f0 = uniform_grid_density(1.0, n_v=129)
    r1 = picard_solve_toy("uniform", f0, t_end=0.05, **SMALL)
    r2 = picard_solve_toy("uniform", f0, t_end=0.05, **SMALL)
    assert r1.density.values == r2.density.values
    assert r1.increments == r2.increments
