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

import numpy as np
import pytest

from kacmix import picard
from kacmix.picard import (
    ALPHA_TOY,
    GridDensity,
    gaussian_grid_density,
    picard_evolve_toy,
    picard_solve_toy,
    uniform_grid_density,
)

SMALL = dict(n_theta=24, n_time=12)


def small_gaussian(n_v=257, L=8.0):
    return gaussian_grid_density(L=L, n_v=n_v)


def gain(f0, kernel, n_theta):
    """Qplus[f0, f0] from the solver's polar gain operator, as a grid density."""
    op = picard._polar_gain(f0.L, f0.n_v, n_theta, kernel)
    return GridDensity(L=f0.L, values=tuple(op.gain_batch(f0.value_array()[None])[0]))


def grid_density(fn, n_v=257, L=8.0):
    v = np.linspace(-L, L, n_v)
    vals = fn(v)
    return GridDensity(L=L, values=tuple(vals / (2.0 * L / (n_v - 1) * vals.sum())))


DATA = {
    "uniform": lambda n_v: uniform_grid_density(2.0, n_v=n_v),
    "gaussian": lambda n_v: small_gaussian(n_v=n_v),
    "shifted_gaussian": lambda n_v: grid_density(lambda v: np.exp(-0.5 * (v - 1.0) ** 2), n_v),
}
KERNEL_DENSITIES = {
    "uniform": lambda theta: np.full_like(theta, 1.0 / (2.0 * math.pi)),
    "raised_cosine": lambda theta: (1.0 + np.cos(theta)) / (2.0 * math.pi),
}


def sin_2theta(theta):
    """A callable kernel without reflection symmetry: harmonics 0 and 2 only."""
    return (1.0 + np.sin(2.0 * theta)) / (2.0 * math.pi)


def oracle_gain(f, density, n_theta):
    """Brute-force Qplus[f, f]: midpoint rule in theta, lattice sum over w,
    linear interpolation of f at the pre-collisional pair (v c - w s, v s + w c)."""
    v, vals = f.grid, f.value_array()
    theta = -math.pi + (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
    out = np.zeros(f.n_v)
    for th, weight in zip(theta, density(theta) * (2.0 * math.pi / n_theta)):
        c, s = math.cos(th), math.sin(th)
        fx = np.interp(v[:, None] * c - v[None, :] * s, v, vals, left=0.0, right=0.0)
        fy = np.interp(v[:, None] * s + v[None, :] * c, v, vals, left=0.0, right=0.0)
        out += weight * (fx * fy).sum(axis=1)
    return ALPHA_TOY * f.h * out


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
    """The conservative correction makes gain mass and energy exact to rounding."""
    for name, make in DATA.items():
        f = make(257)
        g = gain(f, kernel=kernel, n_theta=32)
        assert g.mass() == pytest.approx(ALPHA_TOY * f.mass() ** 2, rel=1e-12, abs=0.0), name
        assert g.moment(2) == pytest.approx(ALPHA_TOY * f.mass() * f.moment(2), rel=1e-12, abs=0.0), name


def test_gain_of_gaussian_is_gaussian_scaled():
    """At the fixed point, gain(f) = alpha * f (collision balance)."""
    f = small_gaussian(n_v=513)
    g = gain(f, kernel="uniform", n_theta=64)
    resid = np.asarray(g.values) - ALPHA_TOY * np.asarray(f.values)
    assert float(np.max(np.abs(resid))) <= 2e-4


def test_gain_preserves_energy_functional():
    """Energy of the gain is alpha (M m2 + m1^2 int b sin 2theta), also for a
    callable kernel without reflection symmetry (here int b sin 2theta = 1/2)."""
    f = DATA["shifted_gaussian"](129)
    g = gain(f, kernel=lambda theta: (1.0 + np.sin(2.0 * theta)) / (2.0 * math.pi), n_theta=8)
    mass, m1, m2 = f.mass(), f.moment(1), f.moment(2)
    assert g.mass() == pytest.approx(ALPHA_TOY * mass**2, rel=1e-12, abs=0.0)
    assert g.moment(2) == pytest.approx(ALPHA_TOY * (mass * m2 + 0.5 * m1**2), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kernel", ["uniform", "raised_cosine"])
def test_gain_fourth_moment_converges_with_the_grid(kernel):
    """m4 of the gain approaches alpha (3/4 M m4 + 3/4 m2^2) as the grid refines."""
    for name, make in DATA.items():
        errors = []
        for n_v in (65, 129, 257):
            f = make(n_v)
            exact = ALPHA_TOY * (0.75 * f.mass() * f.moment(4) + 0.75 * f.moment(2) ** 2)
            errors.append(abs(gain(f, kernel, n_theta=64).moment(4) - exact))
        assert errors[2] < errors[1] < errors[0], (name, errors)


@pytest.mark.parametrize("kernel", ["uniform", "raised_cosine", sin_2theta])
def test_polar_gain_matches_brute_force_quadrature(kernel):
    """Against the (theta, w) midpoint quadrature, on asymmetric two-bump data.

    The named kernels differ there by 0.06; the discretizations agree to 3e-3.
    """
    f = grid_density(lambda v: np.exp(-2.0 * (v + 0.8) ** 2) + 0.5 * np.exp(-0.78 * (v - 1.2) ** 2), 65, L=6.0)
    polar = gain(f, kernel, n_theta=128).value_array()
    brute = oracle_gain(f, KERNEL_DENSITIES.get(kernel, kernel), n_theta=256)
    assert np.max(np.abs(polar - brute)) <= 5e-3


def test_callable_kernel_keeps_every_harmonic():
    """A callable carries all harmonics below n_theta; the ones the named
    kernel drops are zero, so both give the same gain."""
    f = DATA["shifted_gaussian"](65)
    named = gain(f, "raised_cosine", n_theta=16).value_array()
    called = gain(f, KERNEL_DENSITIES["raised_cosine"], n_theta=16).value_array()
    assert np.max(np.abs(named - called)) <= 1e-13


def test_callable_kernel_drops_harmonics_that_are_zero_to_rounding():
    """Only the harmonics a callable kernel carries enter its operator, so it
    is as small as the named kernel's; the kept set need not be contiguous."""
    named = picard._PolarGain(8.0, 65, 64, "raised_cosine")
    called = picard._PolarGain(8.0, 65, 64, KERNEL_DENSITIES["raised_cosine"])
    assert called.synthesis.shape == named.synthesis.shape
    assert called.analysis.shape == named.analysis.shape
    sin2 = picard._PolarGain(8.0, 65, 64, sin_2theta)
    assert sin2.analysis.shape == named.analysis.shape  # cos 0, cos 2 psi, sin 2 psi


def test_n_theta_must_carry_the_kernel_harmonics():
    f = small_gaussian(n_v=33)
    with pytest.raises(ValueError, match="n_theta=1"):
        picard_solve_toy("raised_cosine", f, t_end=0.05, n_theta=1, n_time=4)
    assert picard_solve_toy("uniform", f, t_end=0.05, n_theta=1, n_time=4, n_iter=2).n_iter == 2


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
    f0 = DATA["shifted_gaussian"](257)
    gu = gain(f0, kernel="uniform", n_theta=32)
    gc = gain(f0, kernel="raised_cosine", n_theta=32)
    gap = np.max(np.abs(np.asarray(gc.values) - np.asarray(gu.values)))
    assert gap > 1e-3, gap


# ---------------------------------------------------------------------------
# horizons beyond the guard
# ---------------------------------------------------------------------------


def test_evolve_across_substeps_matches_closed_form():
    """Two restarted solves of 0.1 follow the m4 relaxation from uniform data,
    on one gain operator built for the first and reused by the second."""
    f0 = uniform_grid_density(math.sqrt(3.0), n_v=97)
    t = 0.2
    picard._polar_gain.cache_clear()
    res = picard_evolve_toy("uniform", f0, t_end=t, n_iter=6, n_theta=32, n_time=16)
    info = picard._polar_gain.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert (res.substeps, res.n_iter) == (2, 12)
    assert res.mass_drift <= 1e-4
    target = m4_closed_form(f0.moment(2), f0.moment(4), t)
    assert abs(res.density.moment(4) - target) <= 0.03, (res.density.moment(4), target)


@pytest.mark.parametrize("t_end, n_solves", [(0.0, 0), (0.4, 4), (1.0, 10)])
def test_evolve_substep_count(monkeypatch, t_end, n_solves):
    """Sub-steps are counted robustly: no trailing solve over a rounding remainder."""
    lengths = []

    def counting_solve(kernel, f, t_end, **grid):
        lengths.append(t_end)
        return picard.PicardResult(f, 1, (), (), 0.0, 0.0)

    monkeypatch.setattr(picard, "picard_solve_toy", counting_solve)
    f0 = small_gaussian(n_v=33)
    res = picard_evolve_toy("uniform", f0, t_end)
    assert res.density is f0
    assert (res.substeps, res.n_iter) == (n_solves, n_solves)
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
