"""Event-tape engine: layered application, clock, replica grouping, dynamics.

A tape is a block of events drawn ahead of time; the engine applies it in
layers of events on disjoint particles, one batch per (layer, order).  The
oracle for that is sequential application of the same tape, one event at a
time, which must give bit-for-bit the same velocities.  The dynamics are
checked against the closed-form fourth-moment relaxation of the limit
equation from non-equilibrium (uniform) data, for the toy law alone and
for a mixture of orders 1 and 2, where an engine that applied nothing,
applied events at the wrong rate or weighted the orders wrongly would be
far off.
"""

import math
import threading

import numpy as np
import pytest

from kacmix.cli import BUILTIN_LAWS
from kacmix.laws import BinaryMaxwell, KacToy, MixtureSpec, SymmetricK, SymmetricKMomentum
from kacmix.limit import toy_m4, toy_m4_finite_n, toy_pair_v2v2
from kacmix.meanfield import meanfield_run
from kacmix.observables import BoxFactor, CosineFactor, ObservableSpec, TanhFactor
from kacmix.simulator import (
    GROUP_PARTICLES,
    GaussianInitial,
    MomentObserver,
    ObservableObserver,
    SimConfig,
    UniformBoxInitial,
    _apply_tape,
    _draw_round,
    _draw_tape,
    _drive,
    _index_rows,
    _layers,
    replica_rng,
    run,
)

TOY_MIX = MixtureSpec((SymmetricK(k=1, d=1), KacToy()), (0.0, 1.0))
MIXED_1_3 = MixtureSpec(
    (SymmetricK(k=1, d=3), BinaryMaxwell(d=3), SymmetricKMomentum(k=3, d=3)), (0.2, 0.5, 0.3)
)
UNIFORM = UniformBoxInitial(a=math.sqrt(3.0))  # m2 = 1, m4 = 9/5: far from the Gaussian m4 = 3
MU2, MU4 = 1.0, 9.0 / 5.0


def top_order_mixture(law):
    """A mixture whose only positive weight sits on `law` (lower orders are reflections)."""
    lower = tuple(SymmetricK(k=k, d=law.dim) for k in range(1, law.order))
    return MixtureSpec(lower + (law,), (0.0,) * len(lower) + (1.0,))


def apply_sequentially(velocities, tape, count, moved):
    """The oracle: every event of the tape on its own, in tape order, writing its first `moved` slots."""
    at = {}
    for order_events in tape:
        for row, pos in enumerate(order_events[1]):
            at[int(pos)] = (order_events, row)
    for pos in range(count):
        (law, _, idx, angles), row = at[pos]
        group = idx[row]
        out = law.apply(angles[row : row + 1], velocities[group[None]])[0]
        velocities[group[:moved]] = out[:moved]


MIXTURES = [pytest.param(top_order_mixture(law), id=law.describe) for law in BUILTIN_LAWS]
MIXTURES.append(pytest.param(MIXED_1_3, id="mixed_1_3"))


@pytest.mark.parametrize("meanfield", [False, True], ids=["kac", "meanfield"])
@pytest.mark.parametrize("mixture", MIXTURES)
def test_layered_apply_equals_sequential_apply_bitwise(mixture, meanfield):
    """(6, 1500) is deeper than 255 layers, so its layer keys take 16 bits.

    The tape must move the state.  The sign flip SymmetricK(k=1, d=1) maps
    v to -v, so a tape that hits every particle an even number of times
    leaves the state as it was; for it the final state must be exactly
    velocities * (-1)**(events on each particle) instead.
    """
    flip = mixture.laws[-1] == SymmetricK(k=1, d=1)
    for n, count in ((6, 60), (40, 400), (500, 250), (6, 1500)):
        rng = replica_rng(31, n)
        velocities = rng.standard_normal((n, mixture.dim))
        tape = _draw_tape(rng, np.array([count]), mixture, n, meanfield)
        moved = 1 if meanfield else mixture.m
        layered, sequential = velocities.copy(), velocities.copy()
        _apply_tape(layered, tape, count, moved)
        apply_sequentially(sequential, tape, count, moved)
        assert np.array_equal(layered, sequential), (n, count)
        if flip:
            hits = np.bincount(np.concatenate([idx[:, :moved].ravel() for _, _, idx, _ in tape]), minlength=n)
            assert np.array_equal(layered, velocities * (-1.0) ** hits[:, None]), (n, count)
        else:
            assert not np.array_equal(layered, velocities)
        # the tape really was batched: fewer layers than events, more than one layer
        depth = int(_layers(tape, count).max()) + 1
        assert 1 < depth < count
        if count == 1500:
            assert depth > 255


def sequential_layers(tape, count):
    """The oracle: each event one layer above the latest earlier event on one of its particles."""
    particles = {}
    for _, pos, idx, _ in tape:
        for p, row in zip(pos.tolist(), idx.tolist()):
            particles[p] = row
    last = {}  # particle -> layer of the latest event on it
    layer = []
    for e in range(count):
        layer.append(1 + max((last.get(p, -1) for p in particles[e]), default=-1))
        for p in particles[e]:
            last[p] = layer[-1]
    return np.array(layer)


@pytest.mark.parametrize("meanfield", [False, True], ids=["kac", "meanfield"])
def test_layers_follow_shared_particles(meanfield):
    """Each event sits one layer above the latest earlier event on one of its particles.

    Multi-order and one-order tapes, stacked replicas (one idle), a depth
    above 255, and a one-chain tape (every event holds both particles).
    """
    for mixture, n, counts in (
        (MIXED_1_3, 30, [300]),
        (MIXED_1_3, 6, [1500]),
        (MIXED_1_3, 40, [400, 0, 37, 1]),
        (TOY_MIX, 50, [25] * 40),
        (TOY_MIX, 2, [300]),
    ):
        counts = np.array(counts)
        count = int(counts.sum())
        tape = _draw_tape(replica_rng(32, n), counts, mixture, n, meanfield)
        layer = _layers(tape, count)
        assert np.array_equal(layer, sequential_layers(tape, count)), (n, count)
        if n == 6:
            assert layer.max() + 1 > 255
        if n == 2:
            assert np.array_equal(layer, np.arange(count))


def test_layers_of_keys_beyond_31_bits():
    """Particles near 2**40 need 64-bit keys; the layers still equal the oracle.

    The tape is synthetic: no velocity array is needed to layer it.
    """
    law = KacToy()
    rng = np.random.default_rng(36)
    count = 500
    particles = np.array([0, 1, 2**31, 2**40, 2**40 + 7, 2**40 + 8])
    rows = np.array([rng.choice(particles, 2, replace=False) for _ in range(count)])
    by_first = np.argsort(rows[:, 0] % 3, kind="stable")  # two tape entries with interleaved positions
    tape = [
        (law, pos, rows[pos], np.zeros(pos.size)) for pos in np.split(by_first, [count // 3])
    ]
    layer = _layers(tape, count)
    assert np.array_equal(layer, sequential_layers(tape, count))
    assert layer.max() > 10


def test_an_event_holding_a_particle_twice_raises_at_once():
    """A repeated index would join an event to itself; `_layers` raises instead of relaxing forever.

    It does so with 32-bit and with 64-bit keys (particles from 2**40 on).
    The call runs in a daemon thread, so a hang fails the test after a second.
    """
    law = KacToy()
    for first in (0, 2**40):
        tape = [(law, np.arange(3), first + np.array([[0, 1], [2, 2], [1, 3]]), np.zeros(3))]
        raised = []

        def layer():
            try:
                _layers(tape, 3)
            except ValueError as exc:
                raised.append(str(exc))

        worker = threading.Thread(target=layer, daemon=True)
        worker.start()
        worker.join(timeout=1.0)
        assert not worker.is_alive(), "_layers did not return within a second"
        assert raised and "event 1 holds a particle twice" in raised[0]


K3_ON_4 = MixtureSpec((SymmetricK(k=1, d=1), KacToy(), SymmetricK(k=3, d=1)), (0.2, 0.3, 0.5))


@pytest.mark.parametrize("meanfield", [False, True], ids=["kac", "meanfield"])
def test_group_tape_keeps_each_event_inside_its_replica(meanfield):
    """Replica r's events hold only its particles and take its block of tape positions.

    k = 3 on n = 4 redraws most index rows; the counts include an idle
    replica and replicas with unequal counts.  The same holds for a round
    merged from three streams of two replicas each, one of them idle.
    """
    n = 4
    one_stream = np.array([3, 0, 100, 1, 70, 2])
    three_streams = np.array([3, 0, 0, 0, 70, 2])
    rngs = [replica_rng(41, r) for r in (0, 2, 4)]
    for counts, tape in (
        (one_stream, _draw_tape(replica_rng(41, 0), one_stream, K3_ON_4, n, meanfield)),
        (three_streams, _draw_round(rngs, three_streams, K3_ON_4, n, meanfield)),
    ):
        owner = np.repeat(np.arange(counts.size), counts)  # the replica of each tape position
        seen = np.zeros(counts.sum(), dtype=int)
        for law, pos, idx, _ in tape:
            assert np.all(idx // n == owner[pos][:, None])  # no event spans two replicas
            assert all(len(set(row)) == law.order for row in idx.tolist())
            seen[pos] += 1
        assert np.all(seen == 1)
        assert {law.order for law, *_ in tape} == {1, 2, 3}


@pytest.mark.parametrize("meanfield", [False, True], ids=["kac", "meanfield"])
def test_one_live_order_draws_no_order(meanfield):
    """When one order carries all the weight, every event has it, in tape order.

    No order uniform is drawn, so the stream's first draws are the index
    rows and then the angles: a fresh copy of the stream drawing them
    directly gives the same tape.
    """
    mixture = MixtureSpec((SymmetricK(k=1, d=1), KacToy(), SymmetricK(k=3, d=1)), (0.0, 0.0, 1.0))
    n, first, start = 7, 70, 11
    counts = np.array([5, 0, 40, 3])
    tape = _draw_tape(replica_rng(42, 0), counts, mixture, n, meanfield, first, start)
    [(law, pos, idx, angles)] = tape
    assert law.order == 3
    assert np.array_equal(pos, start + np.arange(48))
    rng = replica_rng(42, 0)
    owner = np.repeat(np.arange(counts.size), counts)
    assert np.array_equal(idx, _index_rows(rng, 48, n, 3) + first + n * owner[:, None])
    assert np.array_equal(angles, law.sample_angle(rng, size=48))


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
        result = run(cfg, [MomentObserver(times)])
        rate = n
    else:
        result = meanfield_run(
            TOY_MIX, UNIFORM, n=n, t_end=t, seed=33, replicas=replicas,
            observers=[MomentObserver(times)],
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


def stacked_run(engine, replicas, observers, n=2000, seed=37):
    """Readings, final states and event counts of one run of either engine."""
    if engine == "kac":
        cfg = SimConfig(N=n, mixture=MIXED_1_3, t_end=0.6, seed=seed, replicas=replicas, initial=UNIFORM)
        return run(cfg, observers, keep_final=True)
    return meanfield_run(
        MIXED_1_3, UNIFORM, n=n, t_end=0.6, seed=seed, replicas=replicas, observers=observers,
        keep_final=True,
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


@pytest.mark.parametrize("engine", ["kac", "meanfield"])
def test_rerun_gives_the_same_bits_and_another_seed_does_not(engine):
    """At N = 2000 the groups hold 8 + 2 replicas; the seed alone fixes every reading."""
    observers = [
        MomentObserver([0.0, 0.3, 0.6]),
        ObservableObserver([0.2, 0.6], MIXED_SPECS),
    ]
    first, again = stacked_run(engine, 10, observers), stacked_run(engine, 10, observers)
    other = stacked_run(engine, 10, observers, seed=38)
    assert first.replica_group == 8
    assert_same_replicas(first, again, 10)
    assert first.events_by_order == again.events_by_order
    assert not np.array_equal(first.raw[0], other.raw[0])
    assert not np.array_equal(first.final_states[0].velocities, other.final_states[0].velocities)


def test_each_replica_of_a_group_conserves_its_own_energy():
    """A stacked N-particle group moves energy between no two replicas.

    An event whose particles spanned two replicas would move energy from
    one to the other; each law conserves the energy of its own group.
    """
    result = stacked_run("kac", 10, [MomentObserver([0.0, 0.6])])
    names = list(result.series[0].names)
    energy = result.raw[0][:, :, names.index("energy")]
    assert result.replica_group == 8
    assert np.all(result.raw[0][:, -1, names.index("events")] > 0)
    assert len(set(energy[:, 0].tolist())) == 10  # distinct initial states
    np.testing.assert_allclose(energy[:, 1], energy[:, 0], rtol=1e-10, atol=0)


@pytest.mark.parametrize("engine", ["kac", "meanfield"])
def test_replica_prefix_is_stable(engine):
    """The full groups of a 14-replica run equal those of a 20-replica run, bit for bit.

    At N = 2048 the groups are 8 + 6 and 8 + 8 + 4: replicas 0-7 form the
    same group in both runs.  Replicas 8-13 are drawn in a group of 6 and
    of 8, from the same stream but with a different count of each draw, so
    their values may differ.
    """
    observers = [MomentObserver([0.3]), ObservableObserver([0.3], MIXED_SPECS)]
    fourteen = stacked_run(engine, 14, observers, n=2048)
    twenty = stacked_run(engine, 20, observers, n=2048)
    assert fourteen.replica_group == twenty.replica_group == 8
    assert_same_replicas(fourteen, twenty, 8)


@pytest.mark.parametrize("engine", ["kac", "meanfield"])
def test_lone_replicas_keep_their_own_stream(engine):
    """Above N = 2048 each replica keeps `replica_rng(seed, r)`; at N = 2048 a group shares one stream.

    At N = 2049 a group holds GROUP_PARTICLES // 2049 = 7 replicas that
    share their rounds and observer passes.  Each replica of a run with 3
    replicas (one partial group) and with 9 (groups of 7 + 2) reads and
    ends exactly as `_drive` run on that replica alone, so the sharing
    leaves large runs' bytes alone.
    """
    n, seed = 2049, 37
    observers = [MomentObserver([0.0, 0.3]), ObservableObserver([0.3, 0.6], MIXED_SPECS)]
    rate = n * (MIXED_1_3.alpha if engine == "meanfield" else 1.0)
    for replicas in (3, 9):
        lone = stacked_run(engine, replicas, observers, n=n, seed=seed)
        assert lone.replica_group == GROUP_PARTICLES // 2049 == 7
        for r in range(replicas):
            rng = replica_rng(seed, r)
            velocities = UNIFORM.sample(rng, n, MIXED_1_3.dim).reshape(1, n, MIXED_1_3.dim)
            readings, events, _, _ = _drive(
                velocities, rate, engine == "meanfield", MIXED_1_3, [rng], 0.6, observers
            )
            for raw, alone in zip(lone.raw, readings):
                assert np.array_equal(raw[r], alone[0]), (replicas, r)
            assert np.array_equal(lone.final_states[r].velocities, velocities[0]), (replicas, r)
            assert lone.final_states[r].collision_count == events[0]
    stacked = stacked_run(engine, 1, [MomentObserver([0.0])], n=2048, seed=seed)
    assert stacked.replica_group == GROUP_PARTICLES // 2048


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
        target = toy_m4(t, MU2, MU4)
        assert abs(m4[ti] - target) <= 4.0 * se[ti] + 1.0 / n, (engine, t, m4[ti], target, se[ti])
    # the gate excludes an engine that applies nothing: m4(1) - m4(0) = 0.47
    assert abs(m4[0] - toy_m4(1.0, MU2, MU4)) > 2.0 * (4.0 * se[-1] + 1.0 / n)


HALF_MIX = MixtureSpec((SymmetricK(k=1, d=1), KacToy()), (0.5, 0.5))


def half_mix_misses(engine):
    """(t, m4, closed form, stderr) where an engine's m4 on HALF_MIX misses 4 sigma + 1/N."""
    times = [0.0, 1.0, 2.0]
    if engine == "kac":
        n = 200
        cfg = SimConfig(N=n, mixture=HALF_MIX, t_end=2.0, seed=39, replicas=400, initial=UNIFORM)
        result = run(cfg, [MomentObserver(times)])
    else:
        n = 2000
        result = meanfield_run(
            HALF_MIX, UNIFORM, n=n, t_end=2.0, seed=39, replicas=200, observers=[MomentObserver(times)]
        )
    m4, se = result.series[0].mean("m4"), result.series[0].stderr("m4")
    cells = [(t, m4[ti], toy_m4(t, MU2, MU4, beta2=0.5), se[ti]) for ti, t in enumerate(times)]
    return [c for c in cells if abs(c[1] - c[2]) > 4.0 * c[3] + 1.0 / n]


@pytest.mark.parametrize("engine", ["kac", "meanfield"])
def test_mixed_orders_follow_the_limit_closure(engine, monkeypatch):
    """Orders 1 and 2 at weight 1/2 each: m4(t) = 3 + (9/5 - 3) e^(-t/4) within 4 sigma + 1/N.

    Each particle meets an order-2 event at rate 2 beta_2 = 1 in both
    engines: the N-particle engine draws orders with probability beta_K at
    total rate N, the mean-field sampler size-biased, beta_K K / alpha, at
    rate alpha = 3/2 per particle.  With the two order draws swapped that
    rate becomes 4/3 (N-particle) or 3/4 (mean-field), which the gate sees.
    """
    assert half_mix_misses(engine) == []
    plain, biased = MixtureSpec.order_from_uniform, MixtureSpec.order_from_uniform_sizebiased
    monkeypatch.setattr(MixtureSpec, "order_from_uniform", biased)
    monkeypatch.setattr(MixtureSpec, "order_from_uniform_sizebiased", plain)
    assert half_mix_misses(engine)


def finite_n_misses():
    """(N, t, channel, z) where the N-particle engine misses the exact finite-N m4 or pair_v2v2 by 4 sigma."""
    times = [0.0, 1.0, 3.0]
    misses = []
    for n, replicas in ((6, 4000), (20, 2000)):
        cfg = SimConfig(N=n, mixture=TOY_MIX, t_end=3.0, seed=41, replicas=replicas, initial=UNIFORM)
        series = run(cfg, [MomentObserver(times)]).series[0]
        for ti, t in enumerate(times):
            exact = {"m4": toy_m4_finite_n(t, n, MU2, MU4), "pair_v2v2": toy_pair_v2v2(t, n, MU2, MU4)}
            for channel, value in exact.items():
                z = (series.mean(channel)[ti] - value) / series.stderr(channel)[ti]
                if abs(z) > 4.0:
                    misses.append((n, t, channel, float(z)))
    return misses


def test_n_particle_engine_follows_the_exact_finite_n_closure(monkeypatch):
    """m4 and pair_v2v2 at N = 6 and 20 against their exact finite-N means, with no 1/N slack.

    The limit closure (`toy_m4`) reads about 9 sigma off at N = 6, t = 3, so
    the gate tells the finite-N process from its limit; an engine that
    applies nothing stays at m4 = 9/5 and fails it.
    """
    assert finite_n_misses() == []
    monkeypatch.setattr(KacToy, "apply", lambda self, angle, group: group)
    assert finite_n_misses()


def stationarity_misses(initial):
    """(t, channel, z) where a run at N = 4 on MIXED_1_3 misses m4 = 3 or pair_v2v2 = d^2 = 9 by 4 sigma."""
    times = [0.5, 2.0]
    cfg = SimConfig(N=4, mixture=MIXED_1_3, t_end=2.0, seed=43, replicas=40_000, initial=initial)
    series = run(cfg, [MomentObserver(times)]).series[0]
    misses = []
    for ti, t in enumerate(times):
        for channel, value in (("m4", 3.0), ("pair_v2v2", 9.0)):
            z = (series.mean(channel)[ti] - value) / series.stderr(channel)[ti]
            if abs(z) > 4.0:
                misses.append((t, channel, float(z)))
    return misses


def test_gaussian_data_are_exactly_stationary_for_the_n_particle_process():
    """iid N(0, 1) data stay iid N(0, 1) at every N and t; uniform data move off.

    Each event applies an orthogonal map of its group, drawn independently
    of the state, and an iid Gaussian vector is invariant under every
    orthogonal map.  So at N = 4 the Gaussian values m4 = 3 and
    pair_v2v2 = 9 hold exactly, while uniform data with the same m2 start
    at m4 = 9/5 and leave pair_v2v2 = 9 as energy conservation correlates
    the particles.
    """
    assert stationarity_misses(GaussianInitial()) == []
    assert len(stationarity_misses(UNIFORM)) == 4
