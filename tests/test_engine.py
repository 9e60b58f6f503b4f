"""Event-tape engine: layered application, clock, worker independence, dynamics.

A tape is a block of events drawn ahead of time; the engine applies it in
layers of events on disjoint particles, one batch per (layer, order).  The
oracle for that is sequential application of the same tape, one event at a
time, which must give bit-for-bit the same velocities.  The dynamics are
checked against the closed-form fourth-moment relaxation of the toy model
from non-equilibrium (uniform) data, where an engine that applied nothing,
or applied events at the wrong rate, would be far off.
"""

import math

import numpy as np
import pytest

from kacmix.cli import BUILTIN_LAWS
from kacmix.laws import BinaryMaxwell, KacToy, MixtureSpec, SymmetricK, SymmetricKMomentum
from kacmix.meanfield import meanfield_run
from kacmix.simulator import (
    MomentObserver,
    SimConfig,
    UniformBoxInitial,
    _apply_tape,
    _draw_tape,
    _layers,
    replica_rng,
    run,
)

TOY_MIX = MixtureSpec((SymmetricK(k=1, d=1), KacToy()), (0.0, 1.0))
MIXED_1_3 = MixtureSpec(
    (SymmetricK(k=1, d=3), BinaryMaxwell(d=3), SymmetricKMomentum(k=3, d=3)), (0.2, 0.5, 0.3)
)
UNIFORM = UniformBoxInitial(a=math.sqrt(3.0))  # m2 = 1, m4 = 9/5: far from the Gaussian m4 = 3


def top_order_mixture(law):
    """A mixture whose only positive weight sits on `law` (lower orders are reflections)."""
    lower = tuple(SymmetricK(k=k, d=law.dim) for k in range(1, law.order))
    return MixtureSpec(lower + (law,), (0.0,) * len(lower) + (1.0,))


def apply_sequentially(velocities, tape, count):
    """The oracle: every event of the tape on its own, in tape order."""
    at = {}
    for order_events in tape:
        for row, pos in enumerate(order_events[1]):
            at[int(pos)] = (order_events, row)
    for pos in range(count):
        (law, _, idx, angles, slots), row = at[pos]
        group = idx[row : row + 1]
        out = law.apply(angles[row : row + 1], velocities[group])
        if slots is None:
            velocities[group[0]] = out[0]
        else:
            velocities[group[0, slots[row]]] = out[0, slots[row]]


MIXTURES = [pytest.param(top_order_mixture(law), id=law.describe) for law in BUILTIN_LAWS]
MIXTURES.append(pytest.param(MIXED_1_3, id="mixed_1_3"))


@pytest.mark.parametrize("meanfield", [False, True], ids=["kac", "meanfield"])
@pytest.mark.parametrize("mixture", MIXTURES)
def test_layered_apply_equals_sequential_apply_bitwise(mixture, meanfield):
    for n, count in ((6, 60), (40, 400), (500, 250)):
        rng = replica_rng(31, n)
        velocities = rng.standard_normal((n, mixture.dim))
        tape = _draw_tape(rng, mixture, n, count, meanfield)
        layered, sequential = velocities.copy(), velocities.copy()
        _apply_tape(layered, tape, count, mixture.m)
        apply_sequentially(sequential, tape, count)
        assert np.array_equal(layered, sequential), (n, count)
        assert not np.array_equal(layered, velocities)
        # the tape really was batched: fewer layers than events, more than one layer
        depth = int(_layers(tape, count, mixture.m).max()) + 1
        assert 1 < depth < count


def test_layers_follow_shared_particles():
    """Each event sits one layer above the latest earlier event on one of its particles."""
    rng = replica_rng(32, 0)
    n, count = 30, 300
    tape = _draw_tape(rng, MIXED_1_3, n, count, meanfield=False)
    layer = _layers(tape, count, MIXED_1_3.m)
    particles = {}
    for _, pos, idx, _, _ in tape:
        for p, row in zip(pos, idx):
            particles[int(p)] = set(row.tolist())
    last = {}  # particle -> layer of the latest event on it
    for e in range(count):
        expected = 1 + max((last.get(p, -1) for p in particles[e]), default=-1)
        assert layer[e] == expected
        for p in particles[e]:
            last[p] = expected


@pytest.mark.parametrize("engine", ["kac", "meanfield"])
def test_event_counts_are_poisson_when_observers_cut_densely(engine):
    """Two hundred observer times cut the horizon; counts stay Poisson(rate t).

    A clock that restarted wrongly at a cut (say, a fresh waiting time from
    the last event instead of from the cut) would add events at every cut.
    """
    n, t, replicas = 50, 1.0, 400
    times = [t * (i + 1) / 200 for i in range(200)]
    if engine == "kac":
        cfg = SimConfig(N=n, mixture=TOY_MIX, t_end=t, seed=33, replicas=replicas, initial=UNIFORM)
        result = run(cfg, [MomentObserver(times)], keep_raw=True)
        rate = n
    else:
        result = meanfield_run(
            TOY_MIX, UNIFORM, n=n, t_end=t, seed=33, replicas=replicas,
            observers=[MomentObserver(times)], keep_raw=True,
        )
        rate = n * TOY_MIX.alpha
    counts = result.raw[0][:, :, list(result.series[0].names).index("events")]
    for ti in (49, 99, 199):
        lam = rate * times[ti]
        c = counts[:, ti]
        assert abs(c.mean() - lam) <= 4.0 * math.sqrt(lam / replicas), (ti, c.mean(), lam)
        var_band = 4.0 * lam * math.sqrt(2.0 / (replicas - 1))
        assert abs(c.var(ddof=1) - lam) <= var_band, (ti, c.var(ddof=1), lam)
    assert sum(result.events_by_order) == counts[:, -1].sum()


def test_results_identical_at_one_and_two_workers():
    cfg = SimConfig(N=40, mixture=MIXED_1_3, t_end=0.6, seed=34, replicas=5, initial=UNIFORM)
    obs = [MomentObserver([0.0, 0.3, 0.6])]
    one = run(cfg, obs, workers=1, keep_final=True, keep_raw=True)
    two = run(cfg, obs, workers=2, keep_final=True, keep_raw=True)
    assert np.array_equal(one.raw[0], two.raw[0])
    assert one.events_by_order == two.events_by_order
    for a, b in zip(one.final_states, two.final_states):
        assert np.array_equal(a.velocities, b.velocities)
        assert a.collision_count == b.collision_count

    args = dict(n=60, t_end=0.6, seed=35, replicas=5, observers=obs, keep_final=True, keep_raw=True)
    one = meanfield_run(MIXED_1_3, UNIFORM, workers=1, **args)
    two = meanfield_run(MIXED_1_3, UNIFORM, workers=2, **args)
    assert np.array_equal(one.raw[0], two.raw[0])
    for a, b in zip(one.final_states, two.final_states):
        assert np.array_equal(a.velocities, b.velocities)


def toy_m4(t, m2=1.0, m4_0=9.0 / 5.0):
    """Closed-form m4(t) of the toy limit equation: 3 m2^2 + (m4(0) - 3 m2^2) e^(-t/2)."""
    return 3.0 * m2**2 + (m4_0 - 3.0 * m2**2) * math.exp(-0.5 * t)


@pytest.mark.parametrize("engine", ["kac", "meanfield"])
def test_fourth_moment_relaxes_from_uniform_data(engine):
    """Both engines follow m4(t) from m4(0) = 9/5 within 4 sigma + 1/N."""
    times = [0.0, 0.5, 1.0]
    if engine == "kac":
        n = 200
        cfg = SimConfig(N=n, mixture=TOY_MIX, t_end=1.0, seed=36, replicas=200, initial=UNIFORM)
        result = run(cfg, [MomentObserver(times)])
    else:
        n = 2000
        result = meanfield_run(
            TOY_MIX, UNIFORM, n=n, t_end=1.0, seed=36, replicas=20, observers=[MomentObserver(times)]
        )
    m4 = result.series[0].mean("m4")
    se = result.series[0].stderr("m4")
    for ti, t in enumerate(times):
        target = toy_m4(t)
        assert abs(m4[ti] - target) <= 4.0 * se[ti] + 1.0 / n, (engine, t, m4[ti], target, se[ti])
    # the gate excludes an engine that applies nothing: m4(1) - m4(0) = 0.47
    assert abs(m4[0] - toy_m4(1.0)) > 2.0 * (4.0 * se[-1] + 1.0 / n)
