"""The per-call kernels against the numpy expressions they replaced, bit for bit.

The laws' `apply` and angle draws, the observable factors and the moment
channels avoid numpy's wrapper functions (`mean`, `linalg.norm`, `prod`,
`all`, `.sum`) on the engine's hot path.  Each oracle below is the
expression a kernel replaced, kept only here.  A left fold equals numpy's
`add.reduce` only below 8 terms (from 8 on numpy may sum pairwise), so
the axis lengths cover both sides of that edge: d in {1, 2, 3, 5, 8, 9}
and k in {2, 3, 5, 9}.
"""

import numpy as np

from kacmix.laws import BinaryMaxwell, SymmetricK, SymmetricKMomentum, _left_sum
from kacmix.observables import BoxFactor, TanhFactor
from kacmix.simulator import moment_channels, replica_rng

DIMS = (1, 2, 3, 5, 8, 9)
ORDERS = (2, 3, 5, 9)


def wide(rng, shape):
    """Normal draws scaled by factors from e^-20 to e^20."""
    return rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))


def old_momentum_angles(law, rng, size):
    """SymmetricKMomentum.sample_angle as written with `mean` and `linalg.norm`."""
    out = np.empty((size, law.k, law.d))
    filled = 0
    while filled < size:
        cand = rng.standard_normal((size - filled, law.k, law.d))
        cand -= cand.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(cand.reshape(cand.shape[0], -1), axis=1)
        ok = norms >= 1e-12
        kept = cand[ok] / norms[ok][:, None, None]
        out[filled : filled + kept.shape[0]] = kept
        filled += kept.shape[0]
    return out


def old_binary_maxwell(w, g):
    h = np.sum(w * (g[..., 1, :] - g[..., 0, :]), axis=-1)[..., None]
    out = np.empty_like(g)
    out[..., 0, :] = g[..., 0, :] + h * w
    out[..., 1, :] = g[..., 1, :] - h * w
    return out


def old_energy_and_pair_v2v2(v):
    """moment_channels' energy and pair_v2v2 with the speed squared taken from v * v."""
    n = v.shape[-2]
    speed_sq = (v * v).sum(axis=-1)
    total_sq = speed_sq.sum(axis=-1)
    dot = (speed_sq[..., None, :] @ speed_sq[..., :, None])[..., 0, 0]
    return speed_sq.mean(axis=-1), (total_sq * total_sq - dot) / (n * (n - 1))


def test_trimmed_kernels_equal_the_expressions_they_replace():
    rng = replica_rng(53, 0)
    for d in DIMS:
        g = wide(rng, (300, 2, d))
        w = wide(rng, (300, d))
        assert np.array_equal(BinaryMaxwell(d=d).apply(w, g), old_binary_maxwell(w, g)), d
        pts = wide(rng, (4, 50, d))
        assert np.array_equal(TanhFactor(0.7).evaluate(pts), np.prod(np.tanh(0.7 * pts), axis=-1)), d
        lo, hi = -np.exp(rng.uniform(-3, 3, d)), np.exp(rng.uniform(-3, 3, d))
        pts = rng.standard_normal((4, 50, d)) * 2.0
        inside = np.logical_and(pts >= lo, pts <= hi).all(axis=-1).astype(float)
        assert np.array_equal(BoxFactor(tuple(lo), tuple(hi)).evaluate(pts), inside), d
        scalar = np.logical_and(pts >= -1.0, pts <= 1.5).all(axis=-1).astype(float)
        assert np.array_equal(BoxFactor((-1.0,), (1.5,)).evaluate(pts), scalar), d
        for shape in ((3, 40, d), (2, 3000, d)):  # a small group and a lockstep pair of large replicas
            v = wide(rng, shape)
            channels = moment_channels(v, np.zeros(shape[0]))
            energy, pair_v2v2 = old_energy_and_pair_v2v2(v)
            assert np.array_equal(channels[:, 4], energy), shape
            assert np.array_equal(channels[:, 6], pair_v2v2), shape
        for k in ORDERS:
            x = wide(rng, (300, k, d))
            slot_mean = _left_sum(x.swapaxes(1, 2))[:, None, :] / k
            assert np.array_equal(slot_mean, x.mean(axis=1, keepdims=True)), (k, d)
            law = SymmetricK(k=k, d=d)
            gk, wk = wide(rng, (300, k, d)), wide(rng, (300, k, d))
            proj = (wk * gk).sum(axis=(-2, -1), keepdims=True)
            assert np.array_equal(law.apply(wk, gk), gk - 2.0 * proj * wk), (k, d)
            momentum = SymmetricKMomentum(k=k, d=d)
            new = momentum.sample_angle(replica_rng(54, k * 10 + d), 200)
            old = old_momentum_angles(momentum, replica_rng(54, k * 10 + d), 200)
            assert np.array_equal(new, old), (k, d)
