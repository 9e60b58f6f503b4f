"""N-particle jump process: clock law, conservation, determinism, estimators."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacmix.laws import BinaryMaxwell, KacToy, MixtureSpec, SymmetricK
from kacmix.observables import BoxFactor, CosineFactor, ObservableSpec, TanhFactor
from kacmix.simulator import (
    MOMENT_CHANNELS,
    DeterministicInitial,
    GaussianInitial,
    MasterState,
    MomentObserver,
    ObservableObserver,
    SimConfig,
    TwoPointInitial,
    UniformBoxInitial,
    _index_rows,
    moment_channels,
    replica_rng,
    run,
    step,
)

TOY_MIX = MixtureSpec((SymmetricK(k=1, d=1), KacToy()), (0.0, 1.0))
TRIPLE_MIX = MixtureSpec(
    (SymmetricK(k=1, d=1), KacToy(), SymmetricK(k=3, d=1)), (0.0, 0.5, 0.5)
)


def energy(state):
    """Total squared speed, the quantity isometric collisions preserve."""
    v = state.velocities
    return float((v * v).sum())


# ---------------------------------------------------------------------------
# initial laws
# ---------------------------------------------------------------------------


def test_initial_law_shapes_and_ranges():
    rng = np.random.default_rng(0)
    assert GaussianInitial().sample(rng, 10, 3).shape == (10, 3)
    box = UniformBoxInitial(a=0.5).sample(rng, 200, 2)
    assert np.all(np.abs(box) <= 0.5)
    two = TwoPointInitial(a=2.0).sample(rng, 200, 1)
    assert set(np.unique(two)) == {-2.0, 2.0}


def test_deterministic_initial_is_exact():
    init = DeterministicInitial(velocities=((1.0, 2.0), (3.0, 4.0)))
    out = init.sample(np.random.default_rng(0), 2, 2)
    assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])
    stack = init.sample(np.random.default_rng(0), 4, 2)  # a group of two replicas
    assert np.array_equal(stack, [[1.0, 2.0], [3.0, 4.0]] * 2)
    with pytest.raises(ValueError, match="does not match"):
        init.sample(np.random.default_rng(0), 3, 2)


# ---------------------------------------------------------------------------
# configuration contracts
# ---------------------------------------------------------------------------


def test_config_requires_enough_particles():
    with pytest.raises(ValueError, match="N >= M required"):
        SimConfig(N=2, mixture=TRIPLE_MIX, t_end=1.0, seed=0)


def test_config_rejects_bad_seed_and_times():
    with pytest.raises(ValueError, match="seed"):
        SimConfig(N=5, mixture=TOY_MIX, t_end=1.0, seed=-1)
    with pytest.raises(ValueError, match="t_end"):
        SimConfig(N=5, mixture=TOY_MIX, t_end=-0.5, seed=0)


def test_observer_times_must_fit_horizon():
    cfg = SimConfig(N=5, mixture=TOY_MIX, t_end=1.0, seed=0)
    with pytest.raises(ValueError, match="outside"):
        run(cfg, [MomentObserver([0.5, 2.0])])


def test_observer_times_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        MomentObserver([0.5, 0.5])
    with pytest.raises(ValueError, match="finite"):
        MomentObserver([-1.0])


# ---------------------------------------------------------------------------
# single events
# ---------------------------------------------------------------------------


def test_step_changes_at_most_k_rows():
    rng = replica_rng(1, 0)
    state = MasterState(GaussianInitial().sample(rng, 12, 1))
    before = state.velocities.copy()
    step(state, TRIPLE_MIX, rng)
    changed = np.flatnonzero(np.any(state.velocities != before, axis=1))
    assert 1 <= changed.size <= 3
    assert state.collision_count == 1
    assert state.time > 0.0


def test_step_conserves_energy_per_event():
    rng = replica_rng(2, 0)
    state = MasterState(GaussianInitial().sample(rng, 30, 1))
    e0 = energy(state)
    for _ in range(200):
        step(state, TRIPLE_MIX, rng)
    assert energy(state) == pytest.approx(e0, rel=1e-12)


def test_ordered_distinct_uniform_over_ordered_pairs():
    """Tape index rows are uniform over ordered distinct pairs, in bulk and one at a time."""
    rng = np.random.default_rng(3)
    counts = {}
    n_draws = 24_000
    rows = [_index_rows(rng, n_draws // 2, 4, 2)]
    rows += [_index_rows(rng, 1, 4, 2) for _ in range(n_draws // 2)]
    for pair in map(tuple, np.concatenate(rows).tolist()):
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 12  # all ordered pairs of distinct indices occur
    expected = n_draws / 12
    for pair, c in counts.items():
        assert abs(c - expected) <= 5 * math.sqrt(expected), (pair, c)


# ---------------------------------------------------------------------------
# clock law
# ---------------------------------------------------------------------------


def test_collision_counts_are_poisson_n_t():
    """Counts over [0, t] are Poisson(N t): mean and variance both N t."""
    n, t, replicas = 50, 0.8, 600
    cfg = SimConfig(N=n, mixture=TOY_MIX, t_end=t, seed=17, replicas=replicas)
    result = run(cfg, [MomentObserver([t])], keep_final=True)
    counts = np.array([s.collision_count for s in result.final_states])
    lam = n * t
    mean_err = abs(counts.mean() - lam) / math.sqrt(lam / replicas)
    var_err = abs(counts.var(ddof=1) - lam) / (lam * math.sqrt(2.0 / (replicas - 1)))
    assert mean_err <= 4.0, (counts.mean(), lam)
    assert var_err <= 4.0, (counts.var(ddof=1), lam)


def test_event_channel_matches_final_count():
    cfg = SimConfig(N=20, mixture=TOY_MIX, t_end=0.5, seed=4, replicas=1)
    result = run(cfg, [MomentObserver([0.5])], keep_final=True)
    series = result.series[0]
    assert series.mean("events")[0] == result.final_states[0].collision_count


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_identical_seeds_reproduce_bitwise():
    cfg = SimConfig(N=25, mixture=TRIPLE_MIX, t_end=1.0, seed=5, replicas=3)
    obs = lambda: [MomentObserver([0.5, 1.0])]
    r1 = run(cfg, obs(), keep_final=True)
    r2 = run(cfg, obs(), keep_final=True)
    assert list(r1.rows()) == list(r2.rows())
    for a, b in zip(r1.final_states, r2.final_states):
        assert np.array_equal(a.velocities, b.velocities)


def test_worker_count_does_not_change_results():
    cfg = SimConfig(N=25, mixture=TRIPLE_MIX, t_end=0.6, seed=6, replicas=5)
    seq = run(cfg, [MomentObserver([0.3, 0.6])], workers=1)
    par = run(cfg, [MomentObserver([0.3, 0.6])], workers=3)
    assert list(seq.rows()) == list(par.rows())


def test_replicas_differ_from_each_other():
    cfg = SimConfig(N=10, mixture=TOY_MIX, t_end=0.2, seed=7, replicas=2)
    result = run(cfg, [MomentObserver([0.2])], keep_final=True)
    a, b = result.final_states
    assert not np.array_equal(a.velocities, b.velocities)


# ---------------------------------------------------------------------------
# observer semantics
# ---------------------------------------------------------------------------


def test_t_end_zero_reports_initial_statistics():
    cfg = SimConfig(N=50, mixture=TOY_MIX, t_end=0.0, seed=8, replicas=1)
    result = run(cfg, [MomentObserver([0.0])], keep_final=True)
    series = result.series[0]
    state = result.final_states[0]
    coords = replica_rng(8, 0).standard_normal((50, 1)).ravel()
    assert series.mean("m2")[0] == pytest.approx(np.mean(coords**2), abs=0)
    assert series.mean("events")[0] == 0.0
    assert state.time == 0.0


def test_energy_channel_is_flat_along_trajectory():
    cfg = SimConfig(N=40, mixture=TRIPLE_MIX, t_end=2.0, seed=9, replicas=1)
    result = run(cfg, [MomentObserver([0.5, 1.0, 1.5, 2.0])])
    energy = result.series[0].mean("energy")
    assert np.allclose(energy, energy[0], rtol=1e-12)


def test_final_state_time_is_t_end():
    cfg = SimConfig(N=10, mixture=TOY_MIX, t_end=0.7, seed=10, replicas=1)
    result = run(cfg, [MomentObserver([0.7])], keep_final=True)
    assert result.final_states[0].time == 0.7


def test_moment_channels_values():
    velocities = np.array([[1.0, 0.0], [0.0, -1.0]])  # N=2, d=2
    vals = moment_channels(velocities, events=7)
    named = dict(zip(MOMENT_CHANNELS, vals))
    coords = np.array([1.0, 0.0, 0.0, -1.0])
    assert named["m1"] == pytest.approx(coords.mean())
    assert named["m2"] == pytest.approx(np.mean(coords**2))
    assert named["m3"] == pytest.approx(np.mean(coords**3))
    assert named["m4"] == pytest.approx(np.mean(coords**4))
    assert named["energy"] == pytest.approx(1.0)  # mean |v_i|^2 = (1 + 1)/2
    # pair channels: sum v_i = (1, -1); |sum|^2 = 2; sum |v_i|^2 = 2
    assert named["pair_vv"] == pytest.approx((2.0 - 2.0) / (2 * 1))
    assert named["events"] == 7.0


def test_moment_channels_single_particle_pairs_are_zero():
    vals = moment_channels(np.array([[3.0]]), events=0)
    named = dict(zip(MOMENT_CHANNELS, vals))
    assert named["pair_vv"] == 0.0
    assert named["pair_v2v2"] == 0.0


# ---------------------------------------------------------------------------
# replica statistics
# ---------------------------------------------------------------------------


def test_mean_and_stderr_match_numpy():
    """Series statistics are the numpy mean and ddof=1 stderr over the replica axis."""
    replicas = 7
    cfg = SimConfig(N=20, mixture=TRIPLE_MIX, t_end=0.5, seed=14, replicas=replicas)
    result = run(cfg, [MomentObserver([0.0, 0.25, 0.5])])
    series, raw = result.series[0], result.raw[0]
    assert raw.shape == (replicas, 3, len(MOMENT_CHANNELS))
    for ci, name in enumerate(series.names):
        assert np.array_equal(series.mean(name), raw.mean(0)[:, ci])
        assert np.array_equal(
            series.stderr(name), raw.std(0, ddof=1)[:, ci] / math.sqrt(replicas)
        )


def test_channel_lookup():
    """Channels are read by name; an unknown name is a KeyError."""
    cfg = SimConfig(N=20, mixture=TOY_MIX, t_end=0.5, seed=16, replicas=3)
    result = run(cfg, [MomentObserver([0.5])])
    series, raw = result.series[0], result.raw[0]
    assert series.names == MOMENT_CHANNELS
    m4 = MOMENT_CHANNELS.index("m4")
    assert np.array_equal(series.mean("m4"), raw.mean(0)[:, m4])
    with pytest.raises(KeyError, match="m6"):
        series.mean("m6")
    with pytest.raises(KeyError, match="m6"):
        series.stderr("m6")


def test_single_replica_has_zero_stderr():
    cfg = SimConfig(N=20, mixture=TOY_MIX, t_end=0.5, seed=15, replicas=1)
    result = run(cfg, [MomentObserver([0.0, 0.5])])
    series = result.series[0]
    for name in series.names:
        assert np.array_equal(series.stderr(name), [0.0, 0.0])
    assert all(row[3] == 0.0 for row in result.rows())


# ---------------------------------------------------------------------------
# marginal estimators
# ---------------------------------------------------------------------------


def brute_force_all_mode(spec, velocities):
    vals = [
        float(spec.evaluate(velocities[list(perm)]))
        for perm in itertools.permutations(range(velocities.shape[0]), spec.s)
    ]
    return sum(vals) / len(vals)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_all_mode_equals_ordered_tuple_enumeration(s):
    rng = np.random.default_rng(11)
    velocities = rng.standard_normal((7, 1))
    spec = ObservableSpec(tuple([TanhFactor()] * s))
    observer = ObservableObserver([0.0], [spec])
    fast = observer.collect(velocities[None], np.zeros(1))[0, 0]
    slow = brute_force_all_mode(spec, velocities)
    assert fast == pytest.approx(slow, rel=1e-12, abs=1e-14)


def test_all_mode_mixed_factors_on_stacked_replicas():
    """cos.tanh.cos.box at s <= 4, read from a (G, N, d) stack, equals enumeration per replica."""
    cos = CosineFactor((0.8, -0.4))
    chain = (cos, TanhFactor(0.6), cos, BoxFactor((-1.0, -0.5), (1.2, 1.0)))
    specs = [ObservableSpec(chain[:s]) for s in range(1, 5)]
    observer = ObservableObserver([0.0], specs)
    rng = np.random.default_rng(14)
    stack = rng.standard_normal((5, 6, 2))
    readings = observer.collect(stack, np.zeros(5))
    assert readings.shape == (5, 4)
    for g, velocities in enumerate(stack):
        for c, spec in enumerate(specs):
            slow = brute_force_all_mode(spec, velocities)
            assert readings[g, c] == pytest.approx(slow, rel=1e-12, abs=1e-14), (g, spec.name)


def test_observable_order_larger_than_state_rejected():
    spec = ObservableSpec(tuple([TanhFactor()] * 4))
    observer = ObservableObserver([0.0], [spec])
    config = SimConfig(N=3, mixture=TOY_MIX, t_end=0.0, seed=0)
    with pytest.raises(ValueError, match="exceeds N"):  # before any replica starts
        run(config, [observer])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_energy_martingale_exact_per_replica(seed):
    """Each replica conserves total energy exactly, whatever the seed."""
    rng = replica_rng(seed, 0)
    state = MasterState(GaussianInitial().sample(rng, 8, 2))
    mix = MixtureSpec((SymmetricK(k=1, d=2), BinaryMaxwell(d=2)), (0.3, 0.7))
    e0 = energy(state)
    for _ in range(60):
        step(state, mix, rng)
    assert energy(state) == pytest.approx(e0, rel=1e-11)
