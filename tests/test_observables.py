"""Bounded test observables: factor algebra, labels, and evaluation shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacmix.observables import (
    BoxFactor,
    CosineFactor,
    ObservableSpec,
    TanhFactor,
)


def test_tanh_factor_values_and_label():
    f = TanhFactor()
    pts = np.array([[0.0], [1.0], [-1.0]])
    assert np.allclose(f.evaluate(pts), [0.0, np.tanh(1.0), -np.tanh(1.0)])
    assert f.label == "tanh[1]"
    assert TanhFactor(a=0.5).label == "tanh[0.5]"


def test_cosine_factor_multidim():
    f = CosineFactor((1.0, 2.0))
    pts = np.array([[0.0, 0.0], [np.pi, 0.0]])
    assert np.allclose(f.evaluate(pts), [1.0, -1.0])
    assert f.label == "cos[1,2]"
    # xi = 0 degenerates to the constant 1
    zero = CosineFactor((0.0,))
    assert np.allclose(zero.evaluate(np.array([[3.2], [-1.1]])), 1.0)
    # a one-entry frequency is shared by every coordinate, as a box's scalar bounds are
    pts3 = np.array([[0.3, -1.2, 2.0], [1.0, 1.0, 1.0]])
    assert np.array_equal(CosineFactor((1.0,)).evaluate(pts3), CosineFactor((1.0, 1.0, 1.0)).evaluate(pts3))
    with pytest.raises(ValueError, match="frequency has d=2"):
        f.evaluate(pts3)


@pytest.mark.parametrize("shape", [(327, 50, 1), (10, 1600, 1), (1, 5, 1), (7, 1), (1,), (3, 4, 2, 1)])
def test_one_dimensional_cosine_equals_the_dot_product_bitwise(shape):
    """At d = 1, cos(v xi) is the bits of cos(v @ xi): a one-term dot product is the product."""
    pts = np.random.default_rng(3).standard_normal(shape) * 4.0
    for xi in (1.0, -0.37, 2.5e3):
        got = CosineFactor((xi,)).evaluate(pts)
        want = np.cos(pts @ np.array([xi]))
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


def test_box_factor_indicator():
    f = BoxFactor(lower=(-1.0,), upper=(2.0,))
    pts = np.array([[0.0], [-1.0], [2.0], [2.1], [-1.5]])
    assert np.array_equal(f.evaluate(pts), [1.0, 1.0, 1.0, 0.0, 0.0])
    assert f.label == "box[-1:2]"
    with pytest.raises(ValueError, match="lower"):
        BoxFactor(lower=(1.0,), upper=(0.0,))


def test_observable_spec_product_and_name():
    spec = ObservableSpec((TanhFactor(), CosineFactor((1.0,))))
    assert spec.s == 2
    assert spec.name == "tanh[1]*cos[1]"
    groups = np.array([[[0.5], [0.0]]])  # one group of two 1-d velocities
    expected = np.tanh(0.5) * np.cos(0.0)
    assert np.allclose(spec.evaluate(groups), [expected])


def test_spec_requires_factors():
    with pytest.raises(ValueError, match="factor"):
        ObservableSpec(())


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2),
    a=st.floats(0.1, 4.0),
)
def test_factors_are_bounded_by_one(x, a):
    pts = np.array(x).reshape(1, 2)
    for f in (TanhFactor(a=a), CosineFactor((a, a)), BoxFactor((-a, -a), (a, a))):
        assert abs(float(f.evaluate(pts)[0])) <= 1.0 + 1e-12
