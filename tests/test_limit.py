"""Exact references of the limit equation (`kacmix.limit`).

The limit closed form is checked against the benchmark's own copy, which
shares no code with kacmix.  The finite-N forms are checked for the
properties their derivation implies: they tend to the limit at rate 1/N,
Gaussian data are a fixed point, the pair gap starts at 0 and is O(1/N)
with N times the gap tending to mu4 - m4(t), and together they solve the
moment equation they were derived from.  The exact chaos means of
`limit_mean` are checked against the closed forms they must agree with:
the fourth moment through the xi^4 Taylor coefficient of phi_t, phi_0 at
t = 0, a solve at doubled resolution and the benchmark's Fourier solver.
"""

import importlib.util
import itertools
import math
import pathlib

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from kacmix.laws import BinaryMaxwell, KacToy, MixtureSpec, SymmetricK, SymmetricKMomentum
from kacmix.limit import _toy_charfn, limit_mean, toy_m4, toy_m4_finite_n, toy_pair_v2v2
from kacmix.observables import BoxFactor, CosineFactor, TanhFactor
from kacmix.simulator import GaussianInitial, TwoPointInitial, UniformBoxInitial

REFS_PATH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "refs.py"
_spec = importlib.util.spec_from_file_location("benchmark_refs", REFS_PATH)
refs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(refs)

TIMES = [0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 40.0]
# (mu2, mu4) of iid even data: uniform on [-sqrt 3, sqrt 3], two-point +-sqrt 2,
# Gaussian of variance 1.5, and a heavier tail than the Gaussian
DATA = [(1.0, 9.0 / 5.0), (2.0, 4.0), (1.5, 3.0 * 1.5**2), (1.0, 5.0)]
SIZES = [2, 3, 6, 20, 100, 10**3, 10**4, 10**6]


def test_limit_m4_matches_the_benchmark_oracle():
    for t, m2, m4_0 in itertools.product(TIMES, [0.5, 1.0, 1.3, 2.0], [0.25, 1.8, 3.0, 7.5]):
        assert abs(toy_m4(t, m2, m4_0) - refs.toy_m4(t, m2, m4_0)) <= 1e-12, (t, m2, m4_0)


@pytest.mark.parametrize("mu2, mu4", DATA)
def test_finite_n_m4_tends_to_the_limit(mu2, mu4):
    """N |m4_N(t) - m4(t)| <= 6 |mu4 - 3 mu2^2| at every N >= 2 and t.

    m4_N - m4 = (m4* - 3 mu2^2)(1 - e^(-B t)) + (mu4 - 3 mu2^2)(e^(-B t) - e^(-t/2)),
    and the two terms are at most 3/(N + 2) and (3 t / (2 (N - 1))) e^(-t/2)
    times |mu4 - 3 mu2^2|, with t e^(-t/2) <= 2/e.
    """
    excess = abs(mu4 - 3.0 * mu2**2)
    for t in TIMES:
        limit = toy_m4(t, mu2, mu4)
        for n in SIZES:
            finite = toy_m4_finite_n(t, n, mu2, mu4)
            assert n * abs(finite - limit) <= 6.0 * excess + 1e-14 * n * mu4, (t, n, finite, limit)
    if excess == 0.0:  # Gaussian data are a fixed point at every N
        for t, n in itertools.product(TIMES, SIZES):
            assert toy_m4_finite_n(t, n, mu2, mu4) == pytest.approx(3.0 * mu2**2, rel=1e-14)
    else:  # and other data move
        assert abs(toy_m4_finite_n(1.0, 6, mu2, mu4) - mu4) > 0.1 * excess


@pytest.mark.parametrize("mu2, mu4", DATA)
def test_pair_gap_starts_at_zero_and_decays_like_one_over_n(mu2, mu4):
    """gap = (mu4 - m4_N(t)) / (N - 1): |N gap| <= 2 |mu4 - 3 mu2^2|, and N gap -> mu4 - m4(t)."""
    excess = abs(mu4 - 3.0 * mu2**2)
    for n in SIZES:
        assert abs(toy_pair_v2v2(0.0, n, mu2, mu4) - mu2**2) <= 1e-14 * mu4
    for t in TIMES:
        for n in SIZES:
            gap = toy_pair_v2v2(t, n, mu2, mu4) - mu2**2
            assert n * abs(gap) <= 2.0 * excess + 1e-14 * n * mu4, (t, n, gap)
        n = 10**6
        scaled = n * (toy_pair_v2v2(t, n, mu2, mu4) - mu2**2)
        assert scaled == pytest.approx(mu4 - toy_m4(t, mu2, mu4), abs=1e-4 * (1.0 + excess))


@pytest.mark.parametrize("mu2, mu4", DATA)
def test_finite_n_forms_solve_the_moment_equation(mu2, mu4):
    """dm4_N/dt = (3/2) pair_v2v2 - (1/2) m4_N, by central differences.

    Together with the two checks above this pins both finite-N forms: a
    wrong rate B or a pair gap over N instead of N - 1 tends to the same
    limit but breaks this equation.
    """
    h = 1e-5
    for t, n in itertools.product([0.0, 0.5, 2.0, 5.0], [2, 3, 6, 20, 100]):
        slope = (toy_m4_finite_n(t + h, n, mu2, mu4) - toy_m4_finite_n(t - h, n, mu2, mu4)) / (2.0 * h)
        rhs = 1.5 * toy_pair_v2v2(t, n, mu2, mu4) - 0.5 * toy_m4_finite_n(t, n, mu2, mu4)
        assert slope == pytest.approx(rhs, abs=1e-7 * mu4), (t, n, slope, rhs)


def test_finite_n_needs_two_particles():
    with pytest.raises(ValueError, match="N >= 2"):
        toy_m4_finite_n(1.0, 1, 1.0, 1.8)


# ---------------------------------------------------------------------------
# exact chaos means
# ---------------------------------------------------------------------------

A = math.sqrt(3.0)
UNIFORM = UniformBoxInitial(A)
COS1 = CosineFactor((1.0,))
TOY = MixtureSpec((SymmetricK(k=1, d=1), KacToy()), (0.0, 1.0))


def uniform_phi0(x):
    return np.sinc(A * np.asarray(x) / math.pi)


@pytest.mark.parametrize("beta2", [1.0, 0.5])
def test_fourier_solution_has_the_limit_fourth_moment(beta2):
    """phi = 1 - m2 xi^2 / 2 + m4 xi^4 / 24 - ..., read off the solved node values.

    The nodes are Chebyshev-Lobatto points of w = 2 (xi / xi_max)^2 - 1, so
    phi = g(w), and the xi^2 and xi^4 coefficients are 2 g'(-1) / xi_max^2
    and 2 g''(-1) / xi_max^4.
    """
    times = [0.0, 0.5, 1.0, 3.0]
    nodes, values = _toy_charfn(uniform_phi0, 2.0 * beta2, 1.0, times)
    w = 2.0 * nodes**2 - 1.0
    for t, row in zip(times, values):
        coef = chebyshev.chebfit(w, row, len(w) - 1)
        m2 = -2.0 * 2.0 * chebyshev.chebval(-1.0, chebyshev.chebder(coef))
        m4 = 24.0 * 2.0 * chebyshev.chebval(-1.0, chebyshev.chebder(coef, 2))
        assert m2 == pytest.approx(1.0, abs=1e-8), t
        assert m4 == pytest.approx(toy_m4(t, 1.0, 9.0 / 5.0, beta2), abs=1e-6), t


@pytest.mark.parametrize("initial", [UNIFORM, TwoPointInitial(1.0)], ids=["uniform", "two-point"])
@pytest.mark.parametrize("xi", [1.0, 3.0, 6.0])
def test_fourier_value_starts_at_phi0_and_is_resolved(initial, xi):
    times = [0.0, 0.25, 1.0, 2.0]
    kind, values = limit_mean(TOY, initial, CosineFactor((xi,)), times)
    assert kind == "fourier"
    a = initial.a
    phi0 = math.sin(a * xi) / (a * xi) if initial is UNIFORM else math.cos(a * xi)
    assert values[0] == pytest.approx(phi0, abs=1e-15)

    def start(x):
        return uniform_phi0(x) if initial is UNIFORM else np.cos(a * x)

    spread = a * xi
    n = 17 + 2 * math.ceil(spread)
    _, fine = _toy_charfn(start, 2.0, xi, times, n_nodes=2 * n, step=0.05 / max(1.0, spread))
    assert np.abs(values - fine[:, 0]).max() <= 1e-9


def test_fourier_value_matches_the_benchmark_solver():
    times = [0.5, 1.0]
    _, values = limit_mean(TOY, UNIFORM, COS1, times)
    oracle = refs.toy_charfn_values(A, times, xi=1.0)
    assert np.abs(values - [oracle[t] for t in times]).max() <= 1e-9


def test_fourier_rate_follows_the_toy_weight():
    """Sign flips and the d = 1 exchange leave phi alone: KacToy at weight b runs the toy clock at b t."""
    half = MixtureSpec((SymmetricK(k=1, d=1), KacToy("raised_cosine")), (0.5, 0.5))
    _, slow = limit_mean(half, UNIFORM, COS1, [0.5, 1.0, 2.0])
    _, fast = limit_mean(TOY, UNIFORM, COS1, [0.25, 0.5, 1.0])
    assert np.abs(slow - fast).max() <= 1e-9
    exchange = MixtureSpec((SymmetricK(k=1, d=1), BinaryMaxwell(d=1)), (0.3, 0.7))
    assert limit_mean(exchange, UNIFORM, COS1, [0.0, 5.0]) == ("fourier", pytest.approx([math.sin(A) / A] * 2))


@pytest.mark.parametrize("d", [1, 3])
def test_gaussian_and_symmetry_means(d):
    mixture = MixtureSpec(
        (SymmetricK(k=1, d=d), BinaryMaxwell(d=d), SymmetricKMomentum(k=3, d=d)), (0.2, 0.5, 0.3)
    )
    times = [0.0, 0.5, 1.0]
    kind, values = limit_mean(mixture, GaussianInitial(), CosineFactor((0.5,)), times)
    assert kind == "gaussian"
    np.testing.assert_allclose(values, math.exp(-0.125 * d), rtol=1e-15)
    kind, values = limit_mean(mixture, GaussianInitial(), CosineFactor(tuple(range(d))), times)
    np.testing.assert_allclose(values, math.exp(-0.5 * sum(x * x for x in range(d))), rtol=1e-15)
    for initial in (GaussianInitial(), UNIFORM, TwoPointInitial(2.0)):
        assert limit_mean(mixture, initial, TanhFactor(0.7), times) == ("symmetry", pytest.approx([0.0] * 3))


def test_no_exact_mean_where_none_is_known():
    order3 = MixtureSpec((SymmetricK(k=1, d=1), KacToy(), SymmetricK(k=3, d=1)), (0.2, 0.5, 0.3))
    d3 = MixtureSpec((SymmetricK(k=1, d=3), BinaryMaxwell(d=3)), (0.5, 0.5))
    assert limit_mean(TOY, GaussianInitial(), BoxFactor(), [1.0]) is None
    assert limit_mean(d3, UNIFORM, COS1, [1.0]) is None
    assert limit_mean(order3, UNIFORM, COS1, [1.0]) is None
    # an unweighted order-3 law changes nothing
    idle3 = MixtureSpec(order3.laws, (0.0, 1.0, 0.0))
    assert limit_mean(idle3, UNIFORM, COS1, [1.0])[0] == "fourier"
