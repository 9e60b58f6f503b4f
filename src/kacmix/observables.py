"""Bounded test observables on groups of particle velocities.

An observable of order ``s`` is a product of ``s`` per-slot factors, each a
bounded function of a single velocity in R^d.  Marginal pairings are always
estimated against such products, so the product structure is part of the
contract here rather than an optimization: every estimator in
:mod:`kacmix.simulator` may assume the observable factorizes slot by slot.

All factors have sup-norm at most 1, which keeps every Monte-Carlo estimate
in [-1, 1] and makes 3-sigma acceptance thresholds meaningful without
rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CosineFactor",
    "TanhFactor",
    "BoxFactor",
    "ObservableSpec",
]


def _fmt(x: float) -> str:
    return format(float(x), "g")


def _fmt_vec(xs) -> str:
    return ",".join(_fmt(x) for x in np.atleast_1d(np.asarray(xs, dtype=float)))


@dataclass(frozen=True)
class CosineFactor:
    """cos(xi . v) for a fixed frequency vector xi in R^d.

    With xi = 0 this is the constant 1, which is the canonical way to build
    a trivial observable (useful for normalization checks).
    """

    xi: Tuple[float, ...]

    def __post_init__(self):
        xi = tuple(float(x) for x in np.atleast_1d(np.asarray(self.xi, dtype=float)))
        object.__setattr__(self, "xi", xi)

    @property
    def label(self) -> str:
        return f"cos[{_fmt_vec(self.xi)}]"

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on points of shape (..., d); returns shape (...)."""
        pts = np.asarray(points, dtype=float)
        xi = np.asarray(self.xi, dtype=float)
        if pts.shape[-1] != xi.shape[0]:
            raise ValueError(
                f"{self.label}: points have d={pts.shape[-1]}, frequency has d={xi.shape[0]}"
            )
        return np.cos(pts @ xi)


@dataclass(frozen=True)
class TanhFactor:
    """prod_c tanh(a * v_c), the product running over the d coordinates.

    Works in any ambient dimension since the scale `a` is shared across
    coordinates.  Odd in v, so it has mean zero under centered symmetric
    laws; handy for detecting spurious drift.
    """

    a: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))

    @property
    def label(self) -> str:
        return f"tanh[{_fmt(self.a)}]"

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.prod(np.tanh(self.a * pts), axis=-1)


@dataclass(frozen=True)
class BoxFactor:
    """Indicator of the axis-aligned box prod_c [lower_c, upper_c].

    Bounds may be scalars (shared across coordinates) or length-d vectors.
    Returns 0.0/1.0 floats so it composes with the other factors.
    """

    lower: Tuple[float, ...] = (-1.0,)
    upper: Tuple[float, ...] = (1.0,)

    def __post_init__(self):
        lo = tuple(float(x) for x in np.atleast_1d(np.asarray(self.lower, dtype=float)))
        hi = tuple(float(x) for x in np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if len(lo) != len(hi):
            raise ValueError("box: lower and upper must have the same length")
        if any(not np.isfinite(a) or not np.isfinite(b) for a, b in zip(lo, hi)):
            raise ValueError("box: bounds must be finite")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("box: lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def label(self) -> str:
        return f"box[{_fmt_vec(self.lower)}:{_fmt_vec(self.upper)}]"

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        d = pts.shape[-1]
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape[0] == 1 and d > 1:
            lo = np.repeat(lo, d)
            hi = np.repeat(hi, d)
        if lo.shape[0] != d:
            raise ValueError(f"{self.label}: bounds have length {lo.shape[0]}, points have d={d}")
        inside = np.logical_and(pts >= lo, pts <= hi).all(axis=-1)
        return inside.astype(float)


@dataclass(frozen=True)
class ObservableSpec:
    """A product observable phi_s(v_1, .., v_s) = prod_j factor_j(v_j).

    The order ``s`` is the number of factors.  Since every factor is bounded
    by 1 in sup-norm, so is the product.
    """

    factors: Tuple
    name: Optional[str] = None

    def __post_init__(self):
        factors = tuple(self.factors)
        if len(factors) == 0:
            raise ValueError("observable: at least one factor is required")
        for f in factors:
            if not hasattr(f, "evaluate") or not hasattr(f, "label"):
                raise TypeError(f"observable: {f!r} is not a factor (needs evaluate/label)")
        object.__setattr__(self, "factors", factors)
        if self.name is None:
            object.__setattr__(self, "name", "*".join(f.label for f in factors))

    @property
    def s(self) -> int:
        """Number of velocity slots the observable reads."""
        return len(self.factors)

    def evaluate(self, groups: np.ndarray) -> np.ndarray:
        """Evaluate on groups of shape (..., s, d); returns shape (...)."""
        g = np.asarray(groups, dtype=float)
        if g.ndim < 2 or g.shape[-2] != self.s:
            raise ValueError(
                f"observable {self.name!r}: expected shape (..., {self.s}, d), got {g.shape}"
            )
        out = self.factors[0].evaluate(g[..., 0, :])
        for j in range(1, self.s):
            out = out * self.factors[j].evaluate(g[..., j, :])
        return out
