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
    named = ObservableSpec((TanhFactor(),), name="probe")
    assert named.name == "probe"


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
