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
import tracemalloc

import numpy as np
import pytest

from kacmix import picard
from kacmix.limit import toy_m4
from kacmix.picard import (
    ALPHA_TOY,
    GridDensity,
    gaussian_grid_density,
    picard_solve_toy,
    uniform_grid_density,
)

SMALL = dict(n_theta=24, n_time=12)


def small_gaussian(n_v=257, L=8.0):
    return gaussian_grid_density(L=L, n_v=n_v)


def gain(f0, kernel, n_theta):
    """Qplus[f0, f0] from the solver's polar gain operator, as a grid density."""
    op = picard._polar_gain(f0.L, f0.n_v, n_theta, kernel)
    return GridDensity(L=f0.L, values=tuple(op.gain_batch(f0.value_array()[None], {})[0]))


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


def full_circle_gain(f_rows, L, n_theta, kernel):
    """Qplus[f, f] of each row from f x f sampled on whole circles, at all
    4 n_theta angles of each, with the sine harmonics kept and the sum over
    w taken pair by pair: the sum that the solver's quarter-circle fold
    reproduces.  The conservative correction is the solver's."""
    n_v = f_rows.shape[1]
    k_max = {"uniform": 0, "raised_cosine": 1}[kernel]
    n_psi = 4 * n_theta
    h = 2.0 * L / (n_v - 1)
    theta = -math.pi + (2.0 * math.pi / n_psi) * (np.arange(n_psi) + 0.5)
    ks = np.arange(k_max + 1)
    harmonics = np.exp(1j * np.outer(ks, theta)) @ (KERNEL_DENSITIES[kernel](theta) * (2.0 * math.pi / n_psi))
    b0 = float(harmonics[0].real)

    # f x f at the lattice cells of r cos(psi) and r sin(psi), cell n_v outside
    n_r = int(math.sqrt(2.0) * (n_v - 1) / 2.0) + 2
    j = np.arange(n_r)[:, None]
    psi = (2.0 * math.pi / n_psi) * (np.arange(n_psi) + 0.5 * (j % 2))
    u = j * np.cos(psi) + (n_v - 1) / 2.0
    cell = np.minimum(np.clip(u, 0.0, n_v - 1.0).astype(np.intp), n_v - 2)
    frac = (u - cell)[..., None]
    cell[(u < 0.0) | (u > n_v - 1.0)] = n_v
    kpsi = ks[:, None] * psi[:, None, :]
    analysis = np.concatenate([np.cos(kpsi), np.sin(kpsi[:, 1:])], axis=1) / n_psi
    table = np.zeros((n_v + 1, f_rows.shape[0]))
    table[:n_v] = f_rows.T
    slope = np.zeros_like(table)
    slope[: n_v - 1] = np.diff(f_rows.T, axis=0)
    fx = np.take(table, cell, axis=0) + frac * np.take(slope, cell, axis=0)
    fx *= np.roll(fx, n_psi // 4, axis=1)
    circle = np.matmul(analysis, fx)  # (n_r, features, rows)

    # back to the lattice: linear in r between circles, exp(i k phi) per harmonic
    v = np.linspace(-L, L, n_v)
    rad = np.hypot(v[:, None], v[None, :]) / h
    jr = rad.astype(np.intp)
    lam = (rad - jr)[..., None]
    phase = 2.0 * harmonics[1:, None, None] * np.exp(1j * ks[1:, None, None] * np.arctan2(v, v[:, None]))
    coefs = [np.full_like(rad, b0), *phase.real, *phase.imag]
    gain = np.zeros((n_v, f_rows.shape[0]))
    for q, coef in enumerate(coefs):
        g = np.concatenate([circle[:, q], np.zeros((1, f_rows.shape[0]))])
        gain += ALPHA_TOY * h * (coef[..., None] * ((1.0 - lam) * g[jr] + lam * g[jr + 1])).sum(axis=1)
    gain = gain.T

    mass, m2 = (h * f_rows @ np.stack([v**0, v**2], axis=1)).T
    mu0, mu2, mu4 = (h * gain @ np.stack([v**0, v**2, v**4], axis=1)).T
    t0, t2 = ALPHA_TOY * b0 * mass**2, ALPHA_TOY * b0 * mass * m2
    det = mu0 * mu4 - mu2**2
    a, c = (t0 * mu4 - t2 * mu2) / det, (t2 * mu0 - t0 * mu2) / det
    return gain * (a[:, None] + c[:, None] * v**2)


def asymmetric_rows(n_v, L=6.0):
    """The two-bump data of the brute-force test, a shifted Gaussian and two random rows."""
    v = np.linspace(-L, L, n_v)
    rng = np.random.default_rng(n_v)
    return np.stack([
        np.exp(-2.0 * (v + 0.8) ** 2) + 0.5 * np.exp(-0.78 * (v - 1.2) ** 2),
        np.exp(-0.5 * (v - 1.0) ** 2),
        rng.random(n_v),
        rng.random(n_v) * np.exp(-0.1 * (v - 2.0) ** 2),
    ])


def allocating_gain(op, f_rows):
    """The operator's gain with a fresh gather and product per stack and call:
    the same arithmetic in the same order as `gain_batch`, without buffers."""
    m, n_v = f_rows.shape
    mirror = f_rows[:, ::-1]
    parts = f_rows + mirror if op.n_parts == 1 else np.concatenate([f_rows + mirror, f_rows - mirror])
    table = np.zeros((2, parts.shape[0], n_v + 1))
    table[0, :, :n_v] = parts
    table[1, :, : n_v - 1] = np.diff(parts, axis=1)
    features = []
    for cell, frac, coefs in op.stacks:
        x, slope = np.take(table, cell, axis=2)
        slope *= frac
        x += slope
        x = x.reshape(-1, m, *cell.shape)
        y = x[0, ..., ::-1]
        for part, coef in enumerate(coefs):
            features.append(((x[part] * y).reshape(-1, cell.shape[1]) @ coef).reshape(m, -1))
    gain = np.concatenate(features, axis=1) @ op.synthesis

    v = op.v
    mass, m2 = (op.h * f_rows @ np.stack([v**0, v**2], axis=1)).T
    mu0, mu2, mu4 = (op.h * gain @ np.stack([v**0, v**2, v**4], axis=1)).T
    t0 = ALPHA_TOY * op.b0 * mass**2
    t2 = ALPHA_TOY * (op.b0 * mass * m2)
    det = mu0 * mu4 - mu2**2
    det[det <= 0.0] = np.inf
    a, c = (t0 * mu4 - t2 * mu2) / det, (t2 * mu0 - t0 * mu2) / det
    return gain * (a[:, None] + c[:, None] * v**2)


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
    """Energy of the gain is alpha (M m2 + m1^2 int b sin 2theta), and the
    sin 2theta term vanishes for both kernels because they are even in
    theta: the gain of data with a large mean m1 carries no m1^2 term."""
    f = DATA["shifted_gaussian"](129)
    mass, m1, m2 = f.mass(), f.moment(1), f.moment(2)
    assert m1 == pytest.approx(1.0, abs=1e-6)
    for kernel in ("uniform", "raised_cosine"):
        g = gain(f, kernel=kernel, n_theta=8)
        assert g.mass() == pytest.approx(ALPHA_TOY * mass**2, rel=1e-12, abs=0.0), kernel
        assert g.moment(2) == pytest.approx(ALPHA_TOY * mass * m2, rel=1e-12, abs=0.0), kernel


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


@pytest.mark.parametrize("kernel", ["uniform", "raised_cosine"])
def test_polar_gain_matches_brute_force_quadrature(kernel):
    """Against the (theta, w) midpoint quadrature, on asymmetric two-bump data.

    The named kernels differ there by 0.06; the discretizations agree to 3e-3.
    """
    f = grid_density(lambda v: np.exp(-2.0 * (v + 0.8) ** 2) + 0.5 * np.exp(-0.78 * (v - 1.2) ** 2), 65, L=6.0)
    polar = gain(f, kernel, n_theta=128).value_array()
    brute = oracle_gain(f, KERNEL_DENSITIES[kernel], n_theta=256)
    assert np.max(np.abs(polar - brute)) <= 5e-3


@pytest.mark.parametrize("kernel, n_theta", [("uniform", 1)] + [
    (kernel, n_theta) for kernel in ("uniform", "raised_cosine") for n_theta in (2, 3, 7, 32)
])
@pytest.mark.parametrize("n_v", [3, 64, 65, 97])
def test_quarter_circle_fold_matches_the_full_circle(kernel, n_theta, n_v):
    """The folded gain is the full-circle quadrature up to rounding.

    Odd n_theta makes the quarter odd, and even n_v puts the grid centre
    between two nodes, so the mirror f[::-1] pairs no node with itself.
    """
    rows = asymmetric_rows(n_v)
    folded = picard._PolarGain(6.0, n_v, n_theta, kernel).gain_batch(rows, {})
    full = full_circle_gain(rows, 6.0, n_theta, kernel)
    assert np.max(np.abs(folded - full)) <= 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("kernel", ["uniform", "raised_cosine"])
def test_gain_of_a_row_does_not_depend_on_its_batch(kernel):
    rows = asymmetric_rows(97)
    op = picard._PolarGain(6.0, 97, 32, kernel)
    buffers = {}
    batch = op.gain_batch(rows, buffers)
    for i in range(rows.shape[0]):
        alone = op.gain_batch(rows[i : i + 1], buffers)[0]
        assert np.max(np.abs(batch[i] - alone)) <= 1e-14 * np.max(np.abs(alone)), i


@pytest.mark.parametrize("kernel", ["uniform", "raised_cosine"])
@pytest.mark.parametrize("n_theta", [2, 8, 32])
@pytest.mark.parametrize("n_v", [33, 97])
def test_gain_through_one_buffer_set_matches_the_allocating_gain(kernel, n_theta, n_v):
    """Batches of 1, 32, 3, 32 and 1 rows through one buffer set give the
    allocating gain bit for bit, and no result aliases a buffer."""
    op = picard._PolarGain(6.0, n_v, n_theta, kernel)
    v = np.linspace(-6.0, 6.0, n_v)
    rng = np.random.default_rng(n_v * n_theta)
    buffers, results = {}, []
    for m in (1, 32, 3, 32, 1):
        rows = rng.random((m, n_v)) * np.exp(-0.1 * (v - rng.normal()) ** 2)
        got = op.gain_batch(rows, buffers)
        assert np.array_equal(got, allocating_gain(op, rows)), m
        results.append((got, got.copy()))
    assert sorted(buffers) == [1, 3, 32]
    for got, kept in results:
        assert np.array_equal(got, kept)


@pytest.mark.parametrize("kernel", ["uniform", "raised_cosine"])
def test_warm_gain_call_allocates_little(kernel):
    """On the benchmark grid a warm 32-row call allocates no gather or product
    (allocated per call, they take the peak to 1.3 MB and 2.5 MB)."""
    op = picard._PolarGain(8.0, 97, 32, kernel)
    rows = np.tile(gaussian_grid_density(L=8.0, n_v=97).value_array(), (32, 1))
    buffers = {}
    op.gain_batch(rows, buffers)
    tracemalloc.start()
    try:
        op.gain_batch(rows, buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 1024, peak


def test_the_cached_operator_keeps_no_buffer_of_a_solve():
    """The solve's buffers go with it: the cached operator would pin them otherwise."""
    f0 = small_gaussian(n_v=65)
    op = picard._polar_gain(f0.L, f0.n_v, 8, "raised_cosine")
    before = dict(vars(op))
    picard_solve_toy("raised_cosine", f0, t_end=0.1, n_theta=8, n_time=12)
    assert vars(op).keys() == before.keys()
    assert all(vars(op)[key] is value for key, value in before.items())


@pytest.mark.parametrize("n_iter", [1, 2, 5])
def test_solve_evaluates_the_gain_of_f0_once(monkeypatch, n_iter):
    """Node 0 is f0 in every sweep and every node is f0 in the first: a solve
    evaluates 1 + (n_iter - 1) n_time gain rows."""
    rows = []
    gain_batch = picard._PolarGain.gain_batch

    def counting(self, f_rows, buffers):
        rows.append(f_rows.shape[0])
        return gain_batch(self, f_rows, buffers)

    monkeypatch.setattr(picard._PolarGain, "gain_batch", counting)
    picard_solve_toy("uniform", small_gaussian(n_v=65), t_end=0.1, n_iter=n_iter, n_theta=8, n_time=12)
    assert sum(rows) == 1 + (n_iter - 1) * 12


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
    target = toy_m4(t, m2_0, m4_0)
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
    """Two restarted sub-steps of 0.1 follow the m4 relaxation from uniform data,
    on one gain operator built once for the whole solve."""
    f0 = uniform_grid_density(math.sqrt(3.0), n_v=97)
    t = 0.2
    picard._polar_gain.cache_clear()
    res = picard_solve_toy("uniform", f0, t_end=t, n_iter=6, n_theta=32, n_time=16)
    info = picard._polar_gain.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    assert (res.substeps, res.n_iter) == (2, 12)
    assert res.mass_drift <= 1e-4
    target = toy_m4(t, f0.moment(2), f0.moment(4))
    assert abs(res.density.moment(4) - target) <= 0.03, (res.density.moment(4), target)


def test_one_solve_equals_chained_solves():
    """A solve to 0.2 restarts at 0.1 exactly as a second solve from the first's density."""
    f0 = uniform_grid_density(math.sqrt(3.0), n_v=97)
    grid = dict(n_iter=6, n_theta=32, n_time=16)
    whole = picard_solve_toy("uniform", f0, t_end=0.2, **grid)
    first = picard_solve_toy("uniform", f0, t_end=0.1, **grid)
    second = picard_solve_toy("uniform", first.density, t_end=0.1, **grid)
    assert whole.density.values == second.density.values
    assert whole.increments == first.increments + second.increments
    assert whole.contraction_factors == first.contraction_factors + second.contraction_factors


@pytest.mark.parametrize("t_end", [2.0, 5.0, 20.0])
def test_long_horizons_keep_the_mass_and_follow_the_closed_form(t_end):
    """The time rule is exact on constants and each sub-step ends at mass 1, so the unstable mass 1 holds."""
    f0 = uniform_grid_density(math.sqrt(3.0), n_v=97)
    res = picard_solve_toy("uniform", f0, t_end=t_end, n_iter=8, n_theta=32, n_time=32)
    assert res.mass_drift <= 1e-12
    target = toy_m4(t_end, f0.moment(2), f0.moment(4))
    assert abs(res.density.moment(4) - target) <= 0.05, (res.density.moment(4), target)


@pytest.mark.parametrize("t_end, substeps", [(0.0, 0), (0.4, 4), (1.0, 10)])
def test_evolve_substep_count(t_end, substeps):
    """Sub-steps are counted robustly: no trailing solve over a rounding remainder."""
    res = picard_solve_toy("uniform", small_gaussian(n_v=33), t_end, n_iter=2, n_theta=4, n_time=32)
    assert (res.substeps, res.n_iter, len(res.increments)) == (substeps, 2 * substeps, 2 * substeps)


# ---------------------------------------------------------------------------
# error contracts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t_end", [-1.0, math.nan, math.inf])
def test_evolve_rejects_a_negative_or_non_finite_horizon(t_end):
    with pytest.raises(ValueError, match="t_end must be finite and >= 0"):
        picard_solve_toy("uniform", small_gaussian(n_v=33), t_end)


def test_t_end_zero_returns_initial_density():
    f0 = small_gaussian()
    res = picard_solve_toy("uniform", f0, t_end=0.0, **SMALL)
    assert res.density.values == f0.values
    assert res.n_iter == 0


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError, match="kernel"):
        picard_solve_toy("hard_sphere", small_gaussian(), t_end=0.05)


def test_mass_tolerance_violation_raises(monkeypatch):
    """A gain that loses 1% of its mass drifts the mass by about 2e-3 in one sweep."""
    exact = picard._PolarGain.gain_batch
    monkeypatch.setattr(picard._PolarGain, "gain_batch", lambda self, f_rows, buffers: 0.99 * exact(self, f_rows, buffers))
    with pytest.raises(RuntimeError, match="the gain does not conserve mass"):
        picard_solve_toy("uniform", small_gaussian(n_v=33), t_end=0.1, n_theta=8, n_time=4)


def test_determinism():
    f0 = uniform_grid_density(1.0, n_v=129)
    r1 = picard_solve_toy("uniform", f0, t_end=0.05, **SMALL)
    r2 = picard_solve_toy("uniform", f0, t_end=0.05, **SMALL)
    assert r1.density.values == r2.density.values
    assert r1.increments == r2.increments
