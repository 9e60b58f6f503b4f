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

import numpy as np
import pytest

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
        tape = _draw_tape(rng, np.array([count]), mixture, n, meanfield)
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
    tape = _draw_tape(rng, np.array([count]), MIXED_1_3, n, meanfield=False)
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


@pytest.mark.parametrize("meanfield", [False, True], ids=["kac", "meanfield"])
def test_group_tape_keeps_each_event_inside_its_replica(meanfield):
    """Replica r's events hold only its particles and take its block of tape positions.

    k = 3 on n = 4 redraws most index rows; the counts include an idle
    replica and replicas with unequal counts.
    """
    n = 4
    counts = np.array([3, 0, 100, 1, 70, 2])
    tape = _draw_tape(replica_rng(41, 0), counts, K3_ON_4, n, meanfield)
    owner = np.repeat(np.arange(counts.size), counts)  # the replica of each tape position
    seen = np.zeros(counts.sum(), dtype=int)
    for law, pos, idx, _, slots in tape:
        assert np.all(idx // n == owner[pos][:, None])  # no event spans two replicas
        assert all(len(set(row)) == law.order for row in idx.tolist())
        assert (slots is not None) == meanfield
        seen[pos] += 1
    assert np.all(seen == 1)
    assert {law.order for law, *_ in tape} == {1, 2, 3}


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
def test_rerun_gives_the_same_bits_and_another_seed_does_not(engine, mode):
    """At N = 600 the groups hold 6 + 4 replicas; the seed alone fixes every reading."""
    observers = [
        MomentObserver([0.0, 0.3, 0.6]),
        ObservableObserver([0.2, 0.6], MIXED_SPECS, mode=mode),
    ]
    first, again = stacked_run(engine, 10, observers), stacked_run(engine, 10, observers)
    other = stacked_run(engine, 10, observers, seed=38)
    assert first.replica_group == 6
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
    assert result.replica_group == 6
    assert np.all(result.raw[0][:, -1, names.index("events")] > 0)
    assert len(set(energy[:, 0].tolist())) == 10  # distinct initial states
    np.testing.assert_allclose(energy[:, 1], energy[:, 0], rtol=1e-10, atol=0)


@pytest.mark.parametrize("engine", ["kac", "meanfield"])
def test_replica_prefix_is_stable(engine):
    """The full groups of a 7-replica run equal those of a 10-replica run, bit for bit.

    At N = 1024 the groups are 4 + 3 and 4 + 4 + 2: replicas 0-3 form the
    same group in both runs.  Replicas 4-6 are drawn in a group of 3 and
    of 4, from the same stream but with a different count of each draw, so
    their values may differ.
    """
    observers = [MomentObserver([0.3]), ObservableObserver([0.3], MIXED_SPECS, mode="random")]
    seven = stacked_run(engine, 7, observers, n=1024)
    ten = stacked_run(engine, 10, observers, n=1024)
    assert seven.replica_group == ten.replica_group == 4
    assert_same_replicas(seven, ten, 4)


def toy_m4(t, beta2=1.0, m2=1.0, m4_0=9.0 / 5.0):
    """Closed-form m4(t) of the d = 1 limit equation with `KacToy` at weight beta2, the rest order 1.

    m4(t) = 3 m2^2 + (m4(0) - 3 m2^2) e^(-beta2 t / 2).  An order-1 law in
    d = 1 only flips signs, so only `KacToy` moves m4.
    """
    return 3.0 * m2**2 + (m4_0 - 3.0 * m2**2) * math.exp(-0.5 * beta2 * t)


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
    cells = [(t, m4[ti], toy_m4(t, beta2=0.5), se[ti]) for ti, t in enumerate(times)]
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


def toy_m4_finite_n(t, n, mu2=1.0, mu4=9.0 / 5.0):
    """Exact E v_1^4 of the N-particle `KacToy` process from iid even data of moments mu2, mu4.

    Particle 1 collides at rate 2, and the angle average gives
    dm4/dt = (3/2) q - (1/2) m4 with q = E v_1^2 v_2^2.  The energy is
    conserved along every path, so exchangeability gives
    q = mu2^2 + (mu4 - m4) / (N - 1), and m4_N(t) = m4* + (mu4 - m4*) e^(-B t)
    with B = 1/2 + 3 / (2 (N - 1)) and m4* = (3 mu2^2 (N - 1) + 3 mu4) / (N + 2).
    """
    rate = 0.5 + 1.5 / (n - 1)
    m4_star = (3.0 * mu2**2 * (n - 1) + 3.0 * mu4) / (n + 2)
    return m4_star + (mu4 - m4_star) * math.exp(-rate * t)


def finite_n_misses():
    """(N, t, channel, z) where the N-particle engine misses the exact finite-N m4 or pair_v2v2 by 4 sigma."""
    times = [0.0, 1.0, 3.0]
    misses = []
    for n, replicas in ((6, 4000), (20, 2000)):
        cfg = SimConfig(N=n, mixture=TOY_MIX, t_end=3.0, seed=41, replicas=replicas, initial=UNIFORM)
        series = run(cfg, [MomentObserver(times)]).series[0]
        for ti, t in enumerate(times):
            m4 = toy_m4_finite_n(t, n)
            exact = {"m4": m4, "pair_v2v2": 1.0 + (9.0 / 5.0 - m4) / (n - 1)}
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
