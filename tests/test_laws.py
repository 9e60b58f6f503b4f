"""Collision transformation laws: exact frozen examples and invariants.

Hand-derived reference values pin the map conventions (rotation sign, index
order on the master vector); hypothesis sweeps cover the energy isometry and
the involution/inverse algebra on random groups.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacmix.cli import BUILTIN_LAWS
from kacmix.laws import (
    BinaryMaxwell,
    KacToy,
    MixtureSpec,
    SymmetricK,
    SymmetricKMomentum,
    check_h2_involution,
    check_h3_symmetry,
    h1_max_error,
)

ALL_LAWS = [
    BinaryMaxwell(d=1),
    BinaryMaxwell(d=3),
    KacToy(kernel="uniform"),
    KacToy(kernel="raised_cosine"),
    SymmetricK(k=1, d=1),
    SymmetricK(k=2, d=1),
    SymmetricK(k=3, d=3),
    SymmetricKMomentum(k=2, d=3),
    SymmetricKMomentum(k=3, d=1),
]

finite_coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def group_strategy(law):
    n = law.order * law.dim
    return st.lists(finite_coord, min_size=n, max_size=n).map(
        lambda xs: np.array(xs).reshape(law.order, law.dim)
    )


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------


def test_kac_toy_quarter_turn_master_order():
    """Rotation by pi/2 sends (v1, v2) to (v2, -v1); index order matters."""
    law = KacToy(kernel="uniform")
    state = np.array([[1.0], [2.0], [3.0]])  # (a, b, c)

    def collide(indices):
        out = state.copy()
        out[indices] = law.apply(math.pi / 2, out[indices])
        return out

    out = collide([0, 2])
    assert np.allclose(out[:, 0], [3.0, 2.0, -1.0]), out  # (c, b, -a)

    out = collide([2, 0])
    assert np.allclose(out[:, 0], [-3.0, 2.0, 1.0]), out  # (-c, b, a)

    # the untouched row is bit-identical
    assert out[1, 0] == state[1, 0]


def test_binary_maxwell_1d_is_a_swap():
    """In d=1 the unit sphere is {-1, +1} and the map swaps the pair exactly."""
    law = BinaryMaxwell(d=1)
    group = np.array([[2.5], [-0.5]])
    for omega in (np.array([1.0]), np.array([-1.0])):
        out = law.apply(omega, group)
        assert out[0, 0] == -0.5 and out[1, 0] == 2.5


def test_symmetric_k1_1d_is_reflection():
    law = SymmetricK(k=1, d=1)
    group = np.array([[1.75]])
    for omega in (np.array([[1.0]]), np.array([[-1.0]])):
        out = law.apply(omega, group)
        assert out[0, 0] == -1.75


def test_symmetric_k_formula_matches_householder():
    """v* = v - 2 <omega, v> omega with the inner product over all K*d slots."""
    law = SymmetricK(k=2, d=2)
    rng = np.random.default_rng(1)
    omega = law.sample_angle(rng, size=1)[0]
    group = rng.standard_normal((2, 2))
    flat_o, flat_v = omega.ravel(), group.ravel()
    expected = (flat_v - 2.0 * (flat_o @ flat_v) * flat_o).reshape(2, 2)
    assert np.allclose(law.apply(omega, group), expected, atol=1e-14)


# ---------------------------------------------------------------------------
# energy isometry (H1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.describe)
def test_h1_energy_isometry(law):
    assert h1_max_error(law, n_samples=2000, rng=np.random.default_rng(2)) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_h1_on_arbitrary_groups(data):
    """Energy is conserved for adversarial (not just Gaussian) velocities."""
    law = data.draw(st.sampled_from(ALL_LAWS))
    group = data.draw(group_strategy(law))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    omega = law.sample_angle(rng, size=1)[0]
    out = law.apply(omega, group)
    before = float(np.sum(group * group))
    after = float(np.sum(out * out))
    assert abs(after - before) <= 1e-10 * max(1.0, before)


# ---------------------------------------------------------------------------
# involutions and inverses (H2)
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pointwise_involutions_square_to_identity(data):
    law = data.draw(
        st.sampled_from([l for l in ALL_LAWS if l.pointwise_involution])
    )
    group = data.draw(group_strategy(law))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    omega = law.sample_angle(rng, size=1)[0]
    twice = law.apply(omega, law.apply(omega, group))
    assert np.allclose(twice, group, atol=1e-9), law.describe


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kac_toy_inverse_recovers_input(data):
    law = KacToy(kernel="uniform")
    group = data.draw(group_strategy(law))
    theta = data.draw(st.floats(-math.pi, math.pi, allow_nan=False))
    back = law.apply_inverse(theta, law.apply(theta, group))
    assert np.allclose(back, group, atol=1e-9)


def test_h2_reports_exact_zero_for_involutions():
    for law in (BinaryMaxwell(d=2), SymmetricK(k=2, d=2), SymmetricKMomentum(k=3, d=1)):
        rep = check_h2_involution(law, n_samples=500, rng=np.random.default_rng(3))
        assert rep.difference == 0.0 and rep.combined_stderr == 0.0, law.describe
        assert rep.passed


def test_h2_kac_toy_statistical():
    rep = check_h2_involution(KacToy(), n_samples=10**5, rng=np.random.default_rng(4))
    assert rep.combined_stderr > 0.0
    assert rep.passed, (rep.difference, rep.combined_stderr)


# ---------------------------------------------------------------------------
# slot relabeling (H3)
# ---------------------------------------------------------------------------


def test_h3_binary_maxwell_swap_commutes_exactly():
    rep = check_h3_symmetry(BinaryMaxwell(d=3), n_samples=500, rng=np.random.default_rng(5))
    assert rep.difference == 0.0 and rep.combined_stderr == 0.0


def test_h3_symmetric_k_statistical():
    rep = check_h3_symmetry(SymmetricK(k=3, d=1), n_samples=10**5, rng=np.random.default_rng(6))
    assert rep.combined_stderr > 0.0
    assert rep.passed, (rep.difference, rep.combined_stderr)


# ---------------------------------------------------------------------------
# momentum behavior
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_momentum_conserving_laws(data):
    law = data.draw(
        st.sampled_from([BinaryMaxwell(d=2), SymmetricKMomentum(k=2, d=2), SymmetricKMomentum(k=4, d=1)])
    )
    group = data.draw(group_strategy(law))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    omega = law.sample_angle(rng, size=1)[0]
    out = law.apply(omega, group)
    before = group.sum(axis=0)
    after = out.sum(axis=0)
    scale = max(1.0, float(np.max(np.abs(group))))
    assert np.allclose(after, before, atol=1e-9 * scale), law.describe


def test_plain_symmetric_k_breaks_momentum():
    """Without the zero-sum constraint the reflection moves the slot sum."""
    law = SymmetricK(k=2, d=1)
    group = np.array([[1.0], [2.0]])
    rng = np.random.default_rng(7)
    moved = [
        abs(float(law.apply(law.sample_angle(rng, size=1)[0], group).sum() - group.sum()))
        for _ in range(50)
    ]
    assert max(moved) > 0.1


def test_momentum_variant_angle_sums_to_zero():
    law = SymmetricKMomentum(k=3, d=2)
    omega = law.sample_angle(np.random.default_rng(8), size=200)
    assert omega.shape == (200, 3, 2)
    assert np.allclose(omega.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(omega.reshape(200, -1), axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="k must be >= 2"):
        SymmetricKMomentum(k=1, d=2)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_raised_cosine_kernel_mean():
    """E[cos theta] = 1/2 under the raised-cosine angle density."""
    law = KacToy(kernel="raised_cosine")
    theta = law.sample_angle(np.random.default_rng(9), size=200_000)
    mean = float(np.mean(np.cos(theta)))
    stderr = float(np.std(np.cos(theta)) / math.sqrt(theta.size))
    assert abs(mean - 0.5) <= 4 * stderr, (mean, stderr)


def test_uniform_kernel_mean_cos_is_zero():
    law = KacToy(kernel="uniform")
    theta = law.sample_angle(np.random.default_rng(10), size=200_000)
    mean = float(np.mean(np.cos(theta)))
    assert abs(mean) <= 4 / math.sqrt(2 * theta.size)


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError, match="unknown kernel"):
        KacToy(kernel="vhs")


# ---------------------------------------------------------------------------
# exact means over the angle
# ---------------------------------------------------------------------------


def _fixed_group(law):
    """A (K, d) group with distinct, nonzero entries and a nonzero slot mean."""
    return np.linspace(-1.3, 2.1, law.order * law.dim).reshape(law.order, law.dim)


def _exact_mean(law, v):
    """E_omega[T^omega V] in closed form, from the second moments of the angle law."""
    k, d = law.order, law.dim
    if isinstance(law, SymmetricKMomentum):  # E omega omega^T: the zero-sum projection / (d (k - 1))
        return v - 2.0 * (v - v.mean(axis=0)) / (d * (k - 1))
    if isinstance(law, SymmetricK):  # E omega omega^T = I / (d k)
        return (1.0 - 2.0 / (d * k)) * v
    if isinstance(law, BinaryMaxwell):  # E omega omega^T = I / d
        return np.stack([v[0] + (v[1] - v[0]) / d, v[1] - (v[1] - v[0]) / d])
    return {"uniform": 0.0, "raised_cosine": 0.5}[law.kernel] * v  # E sin = 0


def test_mean_of_each_law_is_exact():
    """Every coordinate of the mean over 1e5 angles is within 5 standard errors of its closed form.

    Unlike the H2/H3 checks, which compare two samples of the same law, this
    fails a reflection law that returns its input, a pair law that swaps its
    slots in d > 1, and a rotation that does not turn.
    """
    rng = np.random.default_rng(2024)
    n = 10**5
    for law in BUILTIN_LAWS:
        v = _fixed_group(law)
        out = law.apply(law.sample_angle(rng, n), np.broadcast_to(v, (n,) + v.shape))
        # centred first: a law with a constant output (d = 1 reflections) then
        # sums zeros, not 1e5 copies of a value with their rounding
        dev = out - _exact_mean(law, v)
        gap, stderr = np.abs(dev.mean(axis=0)), dev.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(gap <= 5.0 * stderr + 1e-12), (law.describe, gap, stderr)


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


def test_mixture_alpha_and_order_draws():
    mix = MixtureSpec(
        (SymmetricK(k=1, d=1), KacToy(), SymmetricK(k=3, d=1)),
        (0.0, 0.5, 0.5),
    )
    assert mix.m == 3
    assert mix.alpha == pytest.approx(2.5)
    # plain draw: zero-weight order 1 is never produced
    assert mix.order_from_uniform(0.0) == 2
    assert mix.order_from_uniform(0.499) == 2
    assert mix.order_from_uniform(0.501) == 3
    assert mix.order_from_uniform(0.999999) == 3
    # size-biased draw: P(K) = beta_K K / alpha = (0, 0.4, 0.6)
    assert mix.order_from_uniform_sizebiased(0.399) == 2
    assert mix.order_from_uniform_sizebiased(0.401) == 3


@settings(max_examples=300, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_mixture_draws_cover_positive_orders_only(u):
    mix = MixtureSpec(
        (SymmetricK(k=1, d=1), KacToy(), SymmetricK(k=3, d=1)),
        (0.0, 0.25, 0.75),
    )
    assert mix.order_from_uniform(u) in (2, 3)
    assert mix.order_from_uniform_sizebiased(u) in (2, 3)


ORDER_DRAW_MIXTURES = [
    pytest.param((0.2, 0.5, 0.3), id="three_orders"),
    pytest.param((0.0, 0.5, 0.0, 0.5), id="zero_weights_repeat_edges"),
    pytest.param((0.0, 0.0, 1.0), id="one_live_order"),
    pytest.param((1.0,), id="one_order"),
]


@pytest.mark.parametrize("beta", ORDER_DRAW_MIXTURES)
@pytest.mark.parametrize("sizebiased", [False, True], ids=["plain", "sizebiased"])
def test_order_draw_by_comparisons_equals_searchsorted(beta, sizebiased):
    """An array of uniforms maps to 1 + its interior edges at or below u: searchsorted(side="right").

    The uniforms include every edge (zero-weight orders repeat an edge)
    and the floats on either side of each; the scalar path bisects the same
    edges.  The top edge, 1, is outside [0, 1).
    """
    laws = tuple(SymmetricK(k=k, d=1) for k in range(1, len(beta) + 1))
    mix = MixtureSpec(laws, beta)
    edges = mix._cum_sizebiased if sizebiased else mix._cum_beta
    draw = mix.order_from_uniform_sizebiased if sizebiased else mix.order_from_uniform
    inner = edges[:-1]
    u = np.concatenate([
        inner,
        np.nextafter(inner, 1.0),
        np.nextafter(inner, -1.0)[inner > 0],
        [np.nextafter(1.0, 0.0)],
        np.random.default_rng(5).random(1000),
    ])
    orders = draw(u)
    assert np.array_equal(orders, edges.searchsorted(u, side="right"))
    assert orders.min() >= 1 and orders.max() <= mix.m
    assert all(beta[k - 1] > 0 for k in set(orders.tolist()))
    assert [draw(float(x)) for x in u.tolist()] == orders.tolist()


def test_toy_rotation_rounds_as_its_formula():
    """KacToy writes slot 1 as c v1 + s v2 and slot 2 as c v2 - s v1, each product rounded once."""
    rng = np.random.default_rng(9)
    theta = rng.uniform(-math.pi, math.pi, 257)
    groups = rng.standard_normal((257, 2, 1)) * 10.0 ** rng.integers(-3, 4, (257, 2, 1))
    c, s = np.cos(theta), np.sin(theta)
    v1, v2 = groups[:, 0, 0], groups[:, 1, 0]
    out = KacToy().apply(theta, groups)
    assert np.array_equal(out[:, 0, 0], c * v1 + s * v2)
    assert np.array_equal(out[:, 1, 0], c * v2 - s * v1)
    one = KacToy().apply(theta[0], groups[0])
    assert one.shape == (2, 1) and np.array_equal(one, out[0])


def test_mixture_validation():
    with pytest.raises(ValueError, match="order 1"):
        MixtureSpec((KacToy(),), (1.0,))
    with pytest.raises(ValueError, match="sum"):
        MixtureSpec((SymmetricK(k=1, d=1), KacToy()), (0.5, 0.6))
    with pytest.raises(ValueError, match="dimension"):
        MixtureSpec((SymmetricK(k=1, d=3), KacToy()), (0.5, 0.5))
    with pytest.raises(ValueError, match="nonnegative"):
        MixtureSpec((SymmetricK(k=1, d=1), KacToy()), (-0.5, 1.5))


def test_describe_labels_are_unique():
    labels = [law.describe for law in ALL_LAWS]
    assert len(set(labels)) == len(labels), labels
