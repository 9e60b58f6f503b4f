"""Exact fourth moments of the toy law (`kacmix.limit`).

The limit closed form is checked against the benchmark's own copy, which
shares no code with kacmix.  The finite-N forms are checked for the
properties their derivation implies: they tend to the limit at rate 1/N,
Gaussian data are a fixed point, the pair gap starts at 0 and is O(1/N)
with N times the gap tending to mu4 - m4(t), and together they solve the
moment equation they were derived from.
"""

import importlib.util
import itertools
import pathlib

import pytest

from kacmix.limit import toy_m4, toy_m4_finite_n, toy_pair_v2v2

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
