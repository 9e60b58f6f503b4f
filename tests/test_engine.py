"""Event-tape engine: layered application, clock, replica grouping, dynamics.

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

from kacmix import simulator
from kacmix.cli import BUILTIN_LAWS
from kacmix.laws import BinaryMaxwell, KacToy, MixtureSpec, SymmetricK, SymmetricKMomentum
from kacmix.meanfield import meanfield_run
from kacmix.observables import BoxFactor, CosineFactor, ObservableSpec, TanhFactor
from kacmix.simulator import (
    MomentObserver,
    ObservableObserver,
    SimConfig,
    UniformBoxInitial,
    _apply_tape,
    _draw_tapes,
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
        tape = _draw_tapes([(0, rng, count)], mixture, n, meanfield)
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
    tape = _draw_tapes([(0, rng, count)], MIXED_1_3, n, meanfield=False)
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


K3_ON_4 = MixtureSpec((SymmetricK(k=1, d=1), KacToy(), SymmetricK(k=3, d=1)), (0.2, 0.3, 0.5))


def draw_alone(rng, mixture, n, count, meanfield):
    """The oracle: one replica's events, tape by tape, with plain generator calls.

    Returns (order, particles, angle, slot) per event in tape order.
    """
    events = []
    while count:
        size = min(count, simulator._block_size(n))
        count -= size
        u = rng.random(size)
        orders = mixture.order_from_uniform_sizebiased(u) if meanfield else mixture.order_from_uniform(u)
        tape = [None] * size
        for k, law in enumerate(mixture.laws, start=1):
            pos = np.flatnonzero(orders == k)
            if pos.size == 0:
                continue
            rows = (rng.random((pos.size, k)) * n).astype(np.intp)
            bad = [i for i, row in enumerate(rows.tolist()) if len(set(row)) < k]
            while bad:
                rows[bad] = (rng.random((len(bad), k)) * n).astype(np.intp)
                bad = [i for i in bad if len(set(rows[i].tolist())) < k]
            angles = law.sample_angle(rng, size=pos.size)
            slots = (rng.random(pos.size) * k).astype(np.intp) if meanfield else [None] * pos.size
            for e, row, angle, slot in zip(pos, rows, angles, slots):
                tape[e] = (k, row.tolist(), angle, slot)
        events += tape
    return events


@pytest.mark.parametrize("meanfield", [False, True], ids=["kac", "meanfield"])
def test_group_tape_matches_each_replica_drawn_alone(meanfield):
    """Each replica's share of a group tape is the tape it draws alone, with the same calls.

    k = 3 on n = 4 redraws most index rows, for a different number of passes
    per replica; the counts include an idle replica, replicas too short to
    hold every order, and replicas that need three and four tapes.
    """
    n, seed = 4, 41
    counts = {0: 3, 2: 0, 3: 100, 5: 1, 6: 70, 9: 2}
    draws = [(row, replica_rng(seed, row), count) for row, count in counts.items()]
    tape = _draw_tapes(draws, K3_ON_4, n, meanfield)
    shares = {row: {} for row in counts}
    for law, pos, idx, angles, slots in tape:
        assert np.all(idx // n == idx[:, :1] // n)  # no event spans two replicas
        for e, row, angle, slot in zip(pos, idx, angles, [None] * len(pos) if slots is None else slots):
            shares[int(row[0]) // n][int(e)] = (law.order, (row % n).tolist(), angle, slot)
    missing = 0  # replicas with events but none of some order
    for row, rng, count in draws:
        alone = replica_rng(seed, row)
        expected = draw_alone(alone, K3_ON_4, n, count, meanfield)
        share = [shares[row][e] for e in sorted(shares[row])]
        assert len(share) == len(expected) == count
        for a, b in zip(share, expected):
            assert a[:2] == b[:2] and np.array_equal(a[2], b[2]) and a[3] == b[3]
        assert np.array_equal(rng.random(8), alone.random(8))  # the streams stand at one place
        missing += 0 < count and len({e[0] for e in expected}) < 3
    assert missing


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


def stacked_run(engine, replicas, observers, n=600, seed=37):
    """Readings, final states and event counts of one run of either engine."""
    args = dict(keep_final=True, keep_raw=True)
    if engine == "kac":
        cfg = SimConfig(N=n, mixture=MIXED_1_3, t_end=0.6, seed=seed, replicas=replicas, initial=UNIFORM)
        return run(cfg, observers, **args)
    return meanfield_run(
        MIXED_1_3, UNIFORM, n=n, t_end=0.6, seed=seed, replicas=replicas, observers=observers, **args
    )


def assert_same_replicas(a, b, count):
    """The first `count` replicas of two runs are bitwise equal."""
    for ra, rb in zip(a.raw, b.raw):
        assert np.array_equal(ra[:count], rb[:count])
    for sa, sb in zip(a.final_states[:count], b.final_states[:count]):
        assert np.array_equal(sa.velocities, sb.velocities)
        assert sa.collision_count == sb.collision_count


MIXED_SPECS = (
    ObservableSpec((CosineFactor((0.5, -0.3, 0.2)),)),
    ObservableSpec((CosineFactor((0.5, -0.3, 0.2)), TanhFactor(0.7), CosineFactor((0.5, -0.3, 0.2)))),
    ObservableSpec((BoxFactor((-1.0,), (1.0,)), TanhFactor(0.7))),
)


@pytest.mark.parametrize("mode", ["first", "random", "all"])
@pytest.mark.parametrize("engine", ["kac", "meanfield"])
def test_replica_grouping_does_not_change_results(engine, mode, monkeypatch):
    """One replica per pass, the default groups, or all replicas in one pass: same bits.

    At N = 600 the default group holds 6 replicas, so 10 replicas run as
    6 + 4; offsetting a replica's particles wrongly in the stacked array
    would mix replicas and change their states.
    """
    observers = [
        MomentObserver([0.0, 0.3, 0.6]),
        ObservableObserver([0.2, 0.6], MIXED_SPECS, mode=mode),
    ]
    results = {}
    for label, particles in (("one", 600), ("default", simulator.GROUP_PARTICLES), ("all", 6000)):
        monkeypatch.setattr(simulator, "GROUP_PARTICLES", particles)
        results[label] = stacked_run(engine, 10, observers)
    assert [results[k].replica_group for k in ("one", "default", "all")] == [1, 6, 10]
    for label in ("default", "all"):
        assert_same_replicas(results["one"], results[label], 10)
        assert results["one"].events_by_order == results[label].events_by_order


@pytest.mark.parametrize("engine", ["kac", "meanfield"])
def test_replica_prefix_is_stable(engine):
    """Replicas 0-6 of a 7-replica run equal those of a 10-replica run, bit for bit.

    At N = 1024 the groups are 4 + 3 and 4 + 4 + 2, so replicas 4-6 share
    their pass with different neighbours in the two runs.
    """
    observers = [MomentObserver([0.3]), ObservableObserver([0.3], MIXED_SPECS, mode="random")]
    seven = stacked_run(engine, 7, observers, n=1024)
    ten = stacked_run(engine, 10, observers, n=1024)
    assert seven.replica_group == ten.replica_group == 4
    assert_same_replicas(seven, ten, 7)


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
