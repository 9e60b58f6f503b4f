"""Marginal-hierarchy calculus: exact coefficients, bounds, horizons, traces.

The scalar functions are pinned by hand-computed rationals; the asymptotic
statements (coefficient gap ~ 1/N) get log-log slope checks; the partial
trace identity is validated by the Monte-Carlo comparison the module ships.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacmix.hierarchy import (
    bound_C,
    bound_R,
    bound_rho,
    coeff_leading,
    duhamel_remainder_factor,
    hierarchy_constants,
    horizon_T_star,
    remainder_bound,
    verify_trace_identity,
)
from kacmix.laws import BinaryMaxwell, SymmetricK

HALF_HALF = (0.5, 0.5)


# ---------------------------------------------------------------------------
# leading coefficients
# ---------------------------------------------------------------------------


def test_coeff_hand_values():
    # N=4, s=2, k=1: 4 * C(2,1) / (2 * C(4,2)) = 8/12 = 2/3
    assert coeff_leading(4, 2, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    # k = 0 couplings carry weight exactly 1 for every N >= s
    assert coeff_leading(10, 2, 0) == 1.0
    assert coeff_leading(3, 3, 0) == 1.0


@pytest.mark.parametrize("N", [1, 2, 7, 100, 10**6])
@pytest.mark.parametrize("k", [0, 1, 2, 4])
def test_coeff_is_one_for_single_particle_marginal(N, k):
    if 1 + k <= N:
        assert coeff_leading(N, 1, k) == 1.0


def test_coeff_vanishes_when_tuple_does_not_fit():
    assert coeff_leading(4, 3, 2) == 0.0
    assert coeff_leading(2, 2, 1) == 0.0


def test_coeff_matches_brute_force_rational():
    for N in (5, 9, 23, 50):
        for s in (1, 2, 3):
            for k in (0, 1, 2):
                if s + k > N:
                    continue
                exact = Fraction(N * math.comb(N - s, k), (k + 1) * math.comb(N, k + 1))
                assert coeff_leading(N, s, k) == pytest.approx(float(exact), abs=1e-15)


def test_coeff_gap_scales_as_one_over_n():
    """|coeff - 1| ~ s(s-1+k)... / N: slope -1 on a log-log grid."""
    for s in (2, 3, 5):
        Ns = [100, 1000, 10_000, 100_000]
        gaps = [abs(coeff_leading(n, s, 1) - 1.0) for n in Ns]
        slope = np.polyfit(np.log(Ns), np.log(gaps), 1)[0]
        assert abs(slope - (-1.0)) <= 0.05, (s, slope)


def test_coeff_validates_arguments():
    with pytest.raises(ValueError, match="N"):
        coeff_leading(0, 1, 1)
    with pytest.raises(ValueError, match="s"):
        coeff_leading(4, 0, 1)
    with pytest.raises(ValueError, match="k"):
        coeff_leading(4, 1, -1)


# ---------------------------------------------------------------------------
# norm-bound constants
# ---------------------------------------------------------------------------


def test_bound_tables_hand_values():
    # M=2, beta=(1/2,1/2), eps=0: R_0 = 2*(b1*C(1,0) + b2*C(2,0)) = 2,
    # R_1 = 2*b2*C(2,1) = 2; rho_0 = 2*b1*1 = 1, rho_1 = 2*b2*2 = 2.
    np.testing.assert_array_equal(bound_R(2, HALF_HALF, 0.0), [2.0, 2.0])
    np.testing.assert_array_equal(bound_rho(2, HALF_HALF), [1.0, 2.0])
    # C_0 = (1-eps)^-2 * b2 * C(2,0) = 1/2 at eps=0; C_1 = 0 (no higher order)
    np.testing.assert_array_equal(bound_C(2, HALF_HALF, 0.0), [0.5, 0.0])


def test_bound_R_single_law_with_tail_weight():
    # M=1, beta=(1,), eps=1/4: R_0 = 2*(3/4)^-1*1 = 8/3
    np.testing.assert_allclose(bound_R(1, (1.0,), 0.25), [8.0 / 3.0], rtol=1e-15)


def test_bound_R_monotone_in_epsilon():
    values = [bound_R(2, HALF_HALF, e)[0] for e in (0.0, 0.2, 0.5, 0.8)]
    assert values == sorted(values)
    with pytest.raises(ValueError, match="epsilon"):
        bound_R(2, HALF_HALF, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    betas=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
)
def test_rho_sum_is_bounded_by_2m(betas):
    total = sum(betas)
    b = tuple(x / total for x in betas)
    rho = bound_rho(len(b), b)
    # sum_k rho_k = 2 sum_K beta_K K <= 2M
    assert sum(rho) <= 2 * len(b) + 1e-12


def test_horizon_hand_value():
    R = bound_R(2, HALF_HALF, 0.0)
    rho = bound_rho(2, HALF_HALF)
    hor = horizon_T_star(R, rho, m=1)
    # theta = T*(R_0 + R_1 e) and T*(rho_0 + rho_1 e); the binding sum is 2+2e
    assert hor.T_star == pytest.approx(1.0 / (2.0 + 2.0 * math.e), abs=1e-15)
    assert hor.T_max == pytest.approx(hor.T_star, abs=1e-15)  # m = 1
    zero = horizon_T_star((2.0,), (1.0,), m=0)
    assert zero.T_max == zero.T_star  # documented m = 0 edge


def test_hierarchy_constants_assembly():
    hc = hierarchy_constants(2, HALF_HALF, epsilon=0.0)
    assert hc.R == (2.0, 2.0) and hc.rho == (1.0, 2.0)
    assert hc.T == pytest.approx(hc.T_max / 2.0)
    assert hc.theta1 == pytest.approx(0.5, abs=1e-12)
    assert 0.0 < hc.theta2 < 1.0
    with pytest.raises(ValueError, match="weights"):
        hierarchy_constants(2, (0.9, 0.2), epsilon=0.0)


@settings(max_examples=60, deadline=None)
@given(
    betas=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4),
    eps=st.floats(0.0, 0.9),
    frac=st.floats(0.05, 0.95),
)
def test_theta_factors_below_one_inside_horizon(betas, eps, frac):
    total = sum(betas)
    b = tuple(x / total for x in betas)
    hc = hierarchy_constants(len(b), b, epsilon=eps, T=None)
    assert 0.0 < hc.theta1 < 1.0 and 0.0 < hc.theta2 < 1.0
    shorter = hierarchy_constants(len(b), b, epsilon=eps, T=frac * hc.T_max)
    assert shorter.theta1 < 1.0 and shorter.theta2 < 1.0


# ---------------------------------------------------------------------------
# remainder and tail scalars
# ---------------------------------------------------------------------------


def test_remainder_bound_hand_value():
    # M=2, beta=(1/2,1/2), eps=1/2, N=100, s=4, k=0:
    # C_0 = (1/2)^-2 * 1/2 * C(2,0) = 2; bound = 2 * 4^2 / 100 = 0.32
    assert remainder_bound(100, 4, 0, 2, HALF_HALF, 0.5) == pytest.approx(0.32)


def test_remainder_bound_vanishes_at_top_order():
    assert remainder_bound(100, 4, 1, 2, HALF_HALF, 0.5) == 0.0


def test_remainder_bound_preconditions():
    with pytest.raises(ValueError, match="epsilon"):
        remainder_bound(100, 4, 0, 2, HALF_HALF, 0.0)
    with pytest.raises(ValueError, match="N >= M"):
        remainder_bound(3, 1, 0, 2, HALF_HALF, 0.5)
    with pytest.raises(ValueError, match="s"):
        remainder_bound(100, 0, 0, 2, HALF_HALF, 0.5)


def test_duhamel_remainder_factor_decays():
    hc = hierarchy_constants(2, HALF_HALF, epsilon=0.0)
    T = hc.T_max / 2.0
    for s in (1, 2, 4):
        vals = [
            duhamel_remainder_factor(s, n, m=1, T=T, T_star=hc.T_star)
            for n in range(1, 201)
        ]
        below = [n for n, v in enumerate(vals, start=1) if v < 1e-6]
        assert below and below[0] <= 200, s
        peak = max(range(len(vals)), key=vals.__getitem__)
        tail = vals[peak:]
        assert all(a >= b for a, b in zip(tail, tail[1:])), s


# ---------------------------------------------------------------------------
# partial trace identity
# ---------------------------------------------------------------------------


def test_trace_identity_full_overlap_cancels_exactly():
    """r = 0 (tuple inside the observed block) makes both sides identical."""
    rep = verify_trace_identity(
        BinaryMaxwell(d=1), n_overlap=2, N=4, s=2, n_samples=4000,
        rng=np.random.default_rng(31),
    )
    assert rep.difference == 0.0 and rep.diff_stderr == 0.0
    assert rep.passed


def test_trace_identity_constant_probe_is_exact_zero():
    """Both sides track the probe's change, which a constant probe kills."""
    rep = verify_trace_identity(
        SymmetricK(k=3, d=1),
        n_overlap=2,
        N=6,
        s=2,
        probe=lambda groups: np.ones(groups.shape[0]),
        n_samples=4000,
        rng=np.random.default_rng(32),
    )
    assert rep.lhs_mean == 0.0 and rep.rhs_mean == 0.0
    assert rep.difference == 0.0 and rep.diff_stderr == 0.0


@pytest.mark.parametrize(
    "law,n_overlap,s",
    [
        (BinaryMaxwell(d=1), 1, 1),
        (BinaryMaxwell(d=2), 1, 2),
        (SymmetricK(k=3, d=1), 2, 2),
        (SymmetricK(k=2, d=2), 1, 2),
    ],
)
def test_trace_identity_statistical_cells(law, n_overlap, s):
    rep = verify_trace_identity(
        law, n_overlap=n_overlap, N=6, s=s, n_samples=200_000,
        rng=np.random.default_rng(33),
    )
    assert rep.diff_stderr > 0.0
    assert rep.passed, (rep.difference, rep.diff_stderr)


def test_trace_identity_rejects_bad_index_pattern():
    with pytest.raises(ValueError, match="invalid index pattern"):
        verify_trace_identity(BinaryMaxwell(d=1), n_overlap=3, N=6, s=2, n_samples=10)
    with pytest.raises(ValueError, match="invalid index pattern"):
        verify_trace_identity(SymmetricK(k=3, d=1), n_overlap=1, N=3, s=2, n_samples=10)
