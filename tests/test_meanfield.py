"""One-sided mean-field sampler: moment oracle, martingale law, determinism.

The discriminating oracle is the closed-form fourth-moment relaxation of the
one-dimensional pair-rotation model with the flat angle kernel: with the
second moment frozen at its initial value, m4(t) = 3 m2^2 + (m4(0) - 3 m2^2)
exp(-t/2).  A sampler with the wrong partner count, slot choice, or rate
produces a visibly different relaxation constant.
"""

import math

import numpy as np
import pytest

from kacmix.laws import CollisionLaw, KacToy, MixtureSpec, SymmetricK
from kacmix.limit import toy_m4
from kacmix.meanfield import meanfield_run
from kacmix.simulator import (
    MomentObserver,
    TwoPointInitial,
    UniformBoxInitial,
    _apply_tape,
    _draw_tape,
    replica_rng,
)

TOY_MIX = MixtureSpec((SymmetricK(k=1, d=1), KacToy()), (0.0, 1.0))
TRIPLE_MIX = MixtureSpec(
    (SymmetricK(k=1, d=1), KacToy(), SymmetricK(k=3, d=1)), (0.0, 0.5, 0.5)
)


def one_event(particles, mixture, rng):
    """Draw and apply a one-event mean-field tape."""
    tape = _draw_tape(rng, np.ones(1, dtype=int), mixture, particles.shape[0], meanfield=True)
    _apply_tape(particles, tape, 1, moved=1)


def test_one_event_updates_exactly_one_particle():
    rng = replica_rng(0, 0)
    particles = rng.standard_normal((20, 1))
    before = particles.copy()
    one_event(particles, TRIPLE_MIX, rng)
    changed = np.flatnonzero(np.any(particles != before, axis=1))
    assert changed.size == 1


class _GroupRecorder(CollisionLaw):
    """Order-3 law in d = 1 that records each group it is applied to and shifts it."""

    def __init__(self):
        self.groups = []

    @property
    def order(self):
        return 3

    @property
    def dim(self):
        return 1

    def sample_angle(self, rng, size):
        return np.zeros(size)

    def apply(self, angle, group):
        self.groups.extend(group[..., 0].copy())
        return group + 0.5


def test_partners_exclude_jumper_and_are_uniform():
    """The jumper is its group's first entry; (jumper, ordered partners) is uniform over all 4*3*2 tuples."""
    recorder = _GroupRecorder()
    mixture = MixtureSpec((SymmetricK(k=1, d=1), KacToy(), recorder), (0.0, 0.0, 1.0))
    rng = np.random.default_rng(27)
    n, n_draws = 4, 12_000
    tuples = {}
    for _ in range(n_draws):
        particles = np.arange(n, dtype=float)[:, None]  # velocity = index
        one_event(particles, mixture, rng)
        moved = np.flatnonzero(particles[:, 0] != np.arange(n))
        group = tuple(int(x) for x in recorder.groups[-1])
        assert moved.tolist() == [group[0]]
        assert len(set(group)) == 3
        tuples[group] = tuples.get(group, 0) + 1
    assert len(tuples) == 24
    expected = n_draws / 24
    for key, c in tuples.items():
        assert abs(c - expected) <= 5 * math.sqrt(expected), (key, c)


def test_event_rate_is_n_alpha():
    """Events in [0, t] follow Poisson(n * alpha * t); alpha = 2.5 here."""
    n, t, replicas = 100, 0.4, 200
    result = meanfield_run(
        TRIPLE_MIX,
        UniformBoxInitial(a=1.0),
        n=n,
        t_end=t,
        seed=21,
        replicas=replicas,
        observers=[MomentObserver([t])],
    )
    lam = n * TRIPLE_MIX.alpha * t
    counts = result.series[0].mean("events")[0]
    stderr = result.series[0].stderr("events")[0]
    assert abs(counts - lam) <= 4 * max(stderr, math.sqrt(lam / replicas)), (counts, lam)


def test_fourth_moment_relaxation_oracle():
    """Two-point initial data has m4 = m2^2, maximally far from equilibrium."""
    a = 1.0
    m2_0, m4_0 = a**2, a**4
    times = [0.5, 1.5]
    result = meanfield_run(
        TOY_MIX,
        TwoPointInitial(a=a),
        n=10_000,
        t_end=times[-1],
        seed=22,
        replicas=10,
        observers=[MomentObserver(times)],
    )
    m4 = result.series[0].mean("m4")
    se = result.series[0].stderr("m4")
    for ti, t in enumerate(times):
        target = toy_m4(t, m2_0, m4_0)
        assert abs(m4[ti] - target) <= 4 * se[ti] + 1e-4, (t, m4[ti], target, se[ti])


def test_second_moment_is_conserved_in_mean():
    result = meanfield_run(
        TOY_MIX,
        TwoPointInitial(a=1.0),
        n=10_000,
        t_end=1.0,
        seed=23,
        replicas=8,
        observers=[MomentObserver([1.0])],
    )
    m2 = result.series[0].mean("m2")[0]
    se = result.series[0].stderr("m2")[0]
    assert abs(m2 - 1.0) <= 4 * se + 1e-4, (m2, se)


def test_energy_is_a_martingale_not_a_constant():
    """One-sided updates leave mean energy flat but move each replica's energy."""
    result = meanfield_run(
        TOY_MIX,
        TwoPointInitial(a=1.0),
        n=500,
        t_end=1.0,
        seed=24,
        replicas=64,
        observers=[MomentObserver([1.0])],
    )
    raw = result.raw[0]  # (replicas, n_times, channels)
    energies = raw[:, 0, list(result.series[0].names).index("energy")]
    mean = energies.mean()
    stderr = energies.std(ddof=1) / math.sqrt(energies.size)
    assert abs(mean - 1.0) <= 4 * stderr
    assert energies.std(ddof=1) > 1e-4  # individual replicas drift


def test_determinism_and_worker_independence():
    args = dict(
        n=300,
        t_end=0.5,
        seed=25,
        replicas=4,
        observers=[MomentObserver([0.25, 0.5])],
    )
    r1 = meanfield_run(TRIPLE_MIX, UniformBoxInitial(), **args)
    r2 = meanfield_run(TRIPLE_MIX, UniformBoxInitial(), **args)
    assert list(r1.rows()) == list(r2.rows())
    assert r1.solver == "meanfield"


def test_partner_count_validation():
    with pytest.raises(ValueError, match="n >= "):
        meanfield_run(TRIPLE_MIX, UniformBoxInitial(), n=2, t_end=0.1, seed=0)


def test_t_end_zero_is_initial_ensemble():
    result = meanfield_run(
        TOY_MIX,
        TwoPointInitial(a=2.0),
        n=100,
        t_end=0.0,
        seed=26,
        replicas=1,
        observers=[MomentObserver([0.0])],
    )
    assert result.series[0].mean("m2")[0] == pytest.approx(4.0)
    assert result.series[0].mean("events")[0] == 0.0
