"""Event-driven simulation of the N-particle collision jump process.

The process is a continuous-time Markov jump process on (R^d)^N driven by a
single exponential clock of total rate N.  At each ring an order K is drawn
from the mixture weights, an ordered K-tuple of distinct particle indices is
drawn uniformly, a scattering parameter is drawn from the law's kernel, and
the selected velocities are replaced by their transformed values.  Because
the clock rate is constant and the event randomness does not depend on the
state, events are drawn ahead of time in blocks (event tapes) and applied in
batches of events on disjoint particles; the result is that of applying the
events one by one, so the simulation is exact (no thinning or time
discretization is involved).  The mean-field sampler runs on the same
engine.

Replicas are independent and reproducible.  Small systems run a group of
replicas as one stacked array that shares no particles between replicas
and draws everything from one counter-based generator, seeded from (seed,
spawn_key=(r,)) with r the group's first replica; it applies each
observation interval's events in rounds of at most `_block_size` events
per replica.  The grouping depends on N only, so the output depends only
on the configuration.  Observers sample the right-continuous trajectory at
fixed times; the state at time tau is the state after the last event at or
before tau.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .laws import MixtureSpec
from .observables import ObservableSpec

__all__ = [
    "GaussianInitial",
    "UniformBoxInitial",
    "TwoPointInitial",
    "DeterministicInitial",
    "MasterState",
    "SimConfig",
    "MomentObserver",
    "ObservableObserver",
    "ObserverSeries",
    "RunResult",
    "MOMENT_CHANNELS",
    "moment_channels",
    "step",
    "run",
    "replica_rng",
    "engine_metrics",
]

ESTIMATOR_MODES = ("first", "random", "all")


# ---------------------------------------------------------------------------
# initial laws
# ---------------------------------------------------------------------------


class InitialLaw:
    """Catalog entry for the t = 0 ensemble distribution.

    The iid entries produce exchangeable states by construction; the
    deterministic entry is for regression tests and frozen scenarios.
    `sample` returns n particles; a group of G replicas asks for its G N
    particles in one call, replica by replica.
    """

    tag = "abstract"

    def sample(self, rng: np.random.Generator, n: int, d: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianInitial(InitialLaw):
    """iid standard Gaussian coordinates."""

    tag = "gaussian"

    def sample(self, rng, n, d):
        return rng.standard_normal((n, d))


@dataclass(frozen=True)
class UniformBoxInitial(InitialLaw):
    """iid uniform draws from the centered box [-a, a]^d."""

    a: float = 1.0
    tag = "uniform"

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"uniform initial law: a must be positive, got {self.a}")

    def sample(self, rng, n, d):
        return rng.uniform(-self.a, self.a, size=(n, d))


@dataclass(frozen=True)
class TwoPointInitial(InitialLaw):
    """iid symmetric two-point coordinates, each +a or -a with probability 1/2."""

    a: float = 1.0
    tag = "two_point"

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"two-point initial law: a must be positive, got {self.a}")

    def sample(self, rng, n, d):
        signs = 2.0 * rng.integers(0, 2, size=(n, d)) - 1.0
        return self.a * signs


@dataclass(frozen=True)
class DeterministicInitial(InitialLaw):
    """A fixed list of velocities, one row per particle, repeated for each replica."""

    velocities: Tuple
    tag = "deterministic"

    def __post_init__(self):
        v = np.asarray(self.velocities, dtype=float)
        if v.ndim != 2:
            raise ValueError(
                f"deterministic initial law: expected an (N, d) velocity list, got shape {v.shape}"
            )
        object.__setattr__(self, "velocities", tuple(tuple(row) for row in v))

    def sample(self, rng, n, d):
        v = np.asarray(self.velocities, dtype=float)
        if v.shape[1] != d or n % v.shape[0]:
            raise ValueError(
                f"deterministic initial law: stored shape {v.shape} does not match (N, d)=({n}, {d})"
            )
        return np.tile(v, (n // v.shape[0], 1))


# ---------------------------------------------------------------------------
# state and configuration
# ---------------------------------------------------------------------------


@dataclass
class MasterState:
    """One replica of the N-particle system at a fixed time.

    `time` is the time of the last applied event (or the horizon once a run
    finishes) and `collision_count` the number of events applied so far.
    """

    velocities: np.ndarray
    time: float = 0.0
    collision_count: int = 0


@dataclass(frozen=True)
class SimConfig:
    """Complete description of a reproducible ensemble run."""

    N: int
    mixture: MixtureSpec
    t_end: float
    seed: int
    replicas: int = 1
    initial: InitialLaw = field(default_factory=GaussianInitial)

    def __post_init__(self):
        if self.N < self.mixture.m:
            raise ValueError(
                f"simulation config: N >= M required (top collision order M={self.mixture.m}, "
                f"got N={self.N})"
            )
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"simulation config: t_end must be finite and >= 0, got {self.t_end}")
        if self.replicas < 1:
            raise ValueError(f"simulation config: replicas must be >= 1, got {self.replicas}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError(
                f"simulation config: seed must be an unsigned 64-bit integer, got {self.seed}"
            )
        if not isinstance(self.initial, InitialLaw):
            raise ValueError("simulation config: initial must be an InitialLaw")
        if isinstance(self.initial, DeterministicInitial):
            v = np.asarray(self.initial.velocities, dtype=float)
            if v.shape != (self.N, self.mixture.dim):
                raise ValueError(
                    f"simulation config: deterministic initial has shape {v.shape}, "
                    f"expected ({self.N}, {self.mixture.dim})"
                )

    @property
    def d(self) -> int:
        return self.mixture.dim


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """The counter-based stream of the replica group starting at `replica` in a run of `seed`."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(replica),))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# event tapes
# ---------------------------------------------------------------------------
#
# The clock has a constant rate and each event's order, indices and angle
# are drawn independently of the state, so a block of events can be drawn
# ahead of time as arrays (a tape) and applied afterwards.  Each event is
# put one layer above the latest earlier event that touches one of its
# particles, and every (layer, order) group is applied as one batched
# gather, `law.apply` and scatter.  Events of one layer touch disjoint
# particles, so they commute, and each event still follows every earlier
# event it shares a particle with: the result equals sequential application
# of the same tape bit for bit.


def _repeated(rows: np.ndarray) -> np.ndarray:
    """Positions of the rows that hold some index twice."""
    if rows.shape[0] <= 16:  # a few rows: cheaper in Python than numpy's per-call cost
        bad = [i for i, row in enumerate(rows.tolist()) if len(set(row)) < len(row)]
        return np.array(bad, dtype=np.intp)
    same = np.zeros(rows.shape[0], dtype=bool)
    for i, j in itertools.combinations(range(rows.shape[1]), 2):
        same |= rows[:, i] == rows[:, j]
    return np.flatnonzero(same)


def _indices(u: np.ndarray, n: int) -> np.ndarray:
    """Uniform integers in range(n) as floor(u * n) of 53-bit uniforms u.

    The relative bias is below n * 2**-52, far under any Monte-Carlo
    resolution, and u * n rounds below n, so every index is in range.  One
    `rng.random` call costs a tenth of `rng.integers` on small arrays.
    """
    return (u * n).astype(np.intp)


def _index_rows(rng: np.random.Generator, count: int, n: int, k: int) -> np.ndarray:
    """`count` uniform ordered k-tuples of distinct indices in range(n).

    Rows holding some index twice are redrawn whole, in one call per pass,
    so each row is uniform over the n!/(n-k)! ordered tuples.
    """
    rows = _indices(rng.random((count, k)), n)
    if k > 1:
        bad = _repeated(rows)
        while bad.size:
            rows[bad] = _indices(rng.random((bad.size, k)), n)
            bad = bad[_repeated(rows[bad])]
    return rows


# A tape is a list with one entry per collision order present on it:
# (law, pos, idx, angles, slots).  `pos` are the tape positions of the
# order's events, `idx` their (count, k) particle indices and `angles` their
# scattering parameters.  On a mean-field tape `slots` holds each jumper's
# slot: the jumper is idx[e, slots[e]], the rest of the row are its
# partners, and only the jumper moves.  On an N-particle tape it is None.


def _draw_tape(
    rng: np.random.Generator, counts: np.ndarray, mixture: MixtureSpec, n: int, meanfield: bool
) -> list:
    """The tape of `counts[r]` events of each replica r of a group, drawn from the group's generator.

    Replica r owns particles r n .. r n + n - 1, and its events take the
    tape positions after those of the replicas before it.  One pass draws
    the order uniforms of all events, then per order K its index rows,
    angles and (mean-field) jumper slots.  N-particle orders have
    probability beta_K, mean-field orders beta_K K / alpha; a uniform slot
    makes (jumper, ordered partners) uniform.
    """
    order_of = mixture.order_from_uniform_sizebiased if meanfield else mixture.order_from_uniform
    offset = np.repeat(np.arange(len(counts)) * n, counts)  # first particle of each event's replica
    order = order_of(rng.random(offset.size))
    by_order = order.argsort(kind="stable")
    ends = np.cumsum(np.bincount(order, minlength=mixture.m + 1)).tolist()
    tape = []
    for k, law in enumerate(mixture.laws, start=1):
        pos = by_order[ends[k - 1] : ends[k]]
        if pos.size:
            idx = _index_rows(rng, pos.size, n, k) + offset[pos, None]
            angles = law.sample_angle(rng, size=pos.size)
            slots = _indices(rng.random(pos.size), k) if meanfield else None
            tape.append((law, pos, idx, angles, slots))
    return tape


def _block_size(n: int) -> int:
    """Events per replica in one engine round on n particles: n/2, at least 32.

    It keeps a round's tape O(G n) and, being a function of n only, fixes
    a group's generator calls, hence the output, for a given seed.
    """
    return max(32, n // 2)


def _layers(tape: list, count: int, m: int) -> np.ndarray:
    """Layer of each event: one above the latest earlier event sharing a particle.

    Each event's particles (for mean-field events the jumper and its
    partners) fill its column of an (m, count) array, padded with -1.
    Sorting the entries by (particle, event) gives each entry's predecessor,
    the previous event on the same particle; layers are then the longest
    predecessor chains, found by relaxing all events at once until nothing
    changes (one pass per layer).
    """
    touched = np.full((m, count), -1, dtype=np.intp)
    for _, pos, idx, _, _ in tape:
        touched[: idx.shape[1], pos] = idx.T
    # one sortable key per entry: particle, then event, then slot
    span = count * m
    key = np.sort((touched * span + (np.arange(count) * m + np.arange(m)[:, None])).ravel())
    particle, entry = np.divmod(key, span)
    event, slot = np.divmod(entry, m)
    repeat = np.flatnonzero((particle[1:] == particle[:-1]) & (particle[1:] >= 0)) + 1
    prev = np.full((m, count), count, dtype=np.intp)  # `count` points at layer -1
    prev[slot[repeat], event[repeat]] = event[repeat - 1]
    layer = np.zeros(count + 1, dtype=np.intp)
    layer[count] = -1
    while True:
        new = np.maximum.reduce(layer[prev], axis=0) + 1
        if np.array_equal(new, layer[:count]):
            return new
        layer[:count] = new


def _apply_events(velocities: np.ndarray, law, idx, angles, slots) -> None:
    """Apply events of one order at once; they must touch disjoint particles."""
    out = law.apply(angles, velocities[idx])
    if slots is None:
        velocities[idx] = out
    else:
        hit = np.arange(idx.shape[0])
        velocities[idx[hit, slots]] = out[hit, slots]


def _apply_tape(velocities: np.ndarray, tape: list, count: int, m: int) -> None:
    """Apply a tape of `count` events in place, one batch (a contiguous slice) per (layer, order)."""
    layer = _layers(tape, count, m)
    depth = int(layer.max()) + 1
    plans = []
    for law, pos, idx, angles, slots in tape:
        lay = layer[pos]
        by_layer = lay.argsort(kind="stable")
        starts = lay[by_layer].searchsorted(np.arange(depth + 1)).tolist()
        slots = None if slots is None else slots[by_layer]
        plans.append((law, idx[by_layer], angles[by_layer], slots, starts))
    for level in range(depth):
        for law, idx, angles, slots, starts in plans:
            lo, hi = starts[level], starts[level + 1]
            if lo < hi:
                part = None if slots is None else slots[lo:hi]
                _apply_events(velocities, law, idx[lo:hi], angles[lo:hi], part)


def step(
    state: MasterState,
    mixture: MixtureSpec,
    rng: np.random.Generator,
) -> MasterState:
    """Advance the state by exactly one jump event.

    Draws the Exp(N) waiting time, the collision order (probability
    beta_K), a uniform ordered tuple of distinct indices and the scattering
    parameter, and applies the event in place.  Returns the same state.
    """
    n = state.velocities.shape[0]
    if n < mixture.m:
        raise ValueError(f"step: N >= M required (M={mixture.m}, got N={n})")
    state.time += rng.exponential(1.0 / n)
    k = mixture.order_from_uniform(rng.random())
    law = mixture.laws[k - 1]
    idx = _index_rows(rng, 1, n, k)
    _apply_events(state.velocities, law, idx, law.sample_angle(rng, size=1), None)
    state.collision_count += 1
    return state


# ---------------------------------------------------------------------------
# observers
# ---------------------------------------------------------------------------


class Observer:
    """Samples scalar channels from the trajectory at fixed times.

    Subclasses define the channel names and how a group of snapshots maps to
    one value per replica and channel.  The run driver calls `collect` once
    per (replica group, time), in time order, with the group's velocities
    (G, N, d), each replica's event count (G,) and the group's generator,
    and takes back a (G, channels) array.
    """

    def __init__(self, times: Sequence[float]):
        ts = tuple(float(t) for t in times)
        if len(ts) == 0:
            raise ValueError("observer: at least one sample time is required")
        if any(not math.isfinite(t) or t < 0 for t in ts):
            raise ValueError(f"observer: sample times must be finite and >= 0, got {ts}")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"observer: sample times must be strictly increasing, got {ts}")
        self.times: Tuple[float, ...] = ts

    @property
    def channel_names(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def collect(self, velocities: np.ndarray, events: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


MOMENT_CHANNELS: Tuple[str, ...] = (
    "m1",
    "m2",
    "m3",
    "m4",
    "energy",
    "pair_vv",
    "pair_v2v2",
    "events",
)


def _dot(a: np.ndarray) -> np.ndarray:
    """a . a along the last axis, rounded as the 1-D product `a @ a` of each row."""
    return (a[..., None, :] @ a[..., :, None])[..., 0, 0]


def moment_channels(velocities: np.ndarray, events) -> np.ndarray:
    """Standard scalar readings of (..., N, d) states, in MOMENT_CHANNELS order.

    Returns shape (..., 8); `events` is one count per state.  m1..m4 are
    coordinate moments averaged over all N*d components, energy is the mean
    squared speed per particle, and the pair channels are averages over
    ordered distinct pairs (exactly the quantities whose N -> infinity
    behavior the chaos diagnostics track).  For N = 1 the pair channels are
    reported as 0 since there are no pairs.
    """
    v = np.asarray(velocities, dtype=float)
    if v.ndim < 2:
        raise ValueError(f"moment channels: expected (N, d) velocities, got shape {v.shape}")
    n = v.shape[-2]
    flat = v.reshape(v.shape[:-2] + (-1,))
    m1 = flat.mean(axis=-1)
    sq = flat * flat
    m2 = sq.mean(axis=-1)
    m3 = (sq * flat).mean(axis=-1)
    m4 = (sq * sq).mean(axis=-1)
    speed_sq = (v * v).sum(axis=-1)
    energy = speed_sq.mean(axis=-1)
    if n >= 2:
        col_sums = v.sum(axis=-2)
        total_sq = speed_sq.sum(axis=-1)
        pair_vv = (_dot(col_sums) - total_sq) / (n * (n - 1))
        pair_v2v2 = (total_sq * total_sq - _dot(speed_sq)) / (n * (n - 1))
    else:
        pair_vv = pair_v2v2 = np.zeros_like(m1)
    counts = np.broadcast_to(np.asarray(events, dtype=float), m1.shape)
    return np.stack([m1, m2, m3, m4, energy, pair_vv, pair_v2v2, counts], axis=-1)


class MomentObserver(Observer):
    """Records the standard moment channels at each sample time."""

    @property
    def channel_names(self) -> Tuple[str, ...]:
        return MOMENT_CHANNELS

    def collect(self, velocities, events, rng):
        return moment_channels(velocities, events)


def _set_partitions(items: List[int]) -> Iterator[List[List[int]]]:
    """All partitions of a small list into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def _partition_terms(ids: Sequence[int]) -> Tuple[Tuple[float, tuple], ...]:
    """Inclusion-exclusion terms of the sum of prod_j f_{ids[j]}(v_{i_j}) over distinct i_1..i_s.

    Expanding the sum over ordered distinct tuples by which slots coincide
    gives a signed sum over the set partitions of the s slots: each block B
    contributes the particle sum of the product of its factors, with weight
    (-1)^(|B|-1) (|B|-1)!.  A block's sum depends only on the multiset of
    factors in it.  Returns one (weight, blocks) pair per partition, each
    block a sorted tuple of factor ids.
    """
    terms = []
    for part in _set_partitions(list(range(len(ids)))):
        weight = 1
        for block in part:
            weight *= (-1) ** (len(block) - 1) * math.factorial(len(block) - 1)
        terms.append((float(weight), tuple(tuple(sorted(ids[j] for j in block)) for block in part)))
    return tuple(terms)


class ObservableObserver(Observer):
    """Records marginal-observable readings at each sample time.

    `mode` selects which particle slots feed each observable:

    * ``"first"``: the first s slots of the state,
    * ``"random"``: a fresh uniform ordered draw of s distinct slots per
      reading (consumes the group's stream, so it stays reproducible),
    * ``"all"``: the exchangeable average over every ordered s-tuple of
      distinct slots, in closed form from particle sums of factor products:
      O(2^s) partition terms per spec, fixed when the observer is built, and
      one pass over the ensemble per distinct block, shared by all specs.

    All three have the same expectation by exchangeability; "all" has by far
    the smallest variance and is the right choice for convergence studies.
    """

    def __init__(self, times: Sequence[float], specs: Sequence[ObservableSpec], mode: str = "first"):
        super().__init__(times)
        self.specs: Tuple[ObservableSpec, ...] = tuple(specs)
        if len(self.specs) == 0:
            raise ValueError("observable observer: at least one observable is required")
        if mode not in ESTIMATOR_MODES:
            raise ValueError(f"observable observer: unknown mode {mode!r}, expected {ESTIMATOR_MODES}")
        self.mode = mode
        self._factors: list = []  # the distinct factors of all specs
        self._terms = tuple(
            _partition_terms([self._factor_id(f) for f in spec.factors]) for spec in self.specs
        )

    def _factor_id(self, factor) -> int:
        for i, known in enumerate(self._factors):
            if known == factor:
                return i
        self._factors.append(factor)
        return len(self._factors) - 1

    @property
    def channel_names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.specs)

    def collect(self, velocities, events, rng):
        g, n = velocities.shape[:2]
        if self.mode == "all":
            return self._all_slots(velocities)
        out = np.empty((g, len(self.specs)))
        for c, spec in enumerate(self.specs):
            if self.mode == "first":
                groups = velocities[:, : spec.s]
            else:
                idx = _index_rows(rng, g, n, spec.s)
                groups = velocities[np.arange(g)[:, None], idx]
            # one (1, s, d) stack per replica: a factor's matrix products then
            # have the same shape, hence the same rounding, whatever G is
            out[:, c] = spec.evaluate(groups[:, None])[:, 0]
        return out

    def _all_slots(self, velocities: np.ndarray) -> np.ndarray:
        """Average of each spec over all ordered distinct s-tuples, per replica."""
        g, n = velocities.shape[:2]
        values = [f.evaluate(velocities) for f in self._factors]  # (G, N) each
        sums: dict = {}  # block (sorted factor ids) -> particle sums (G,)

        def block_sum(block: tuple) -> np.ndarray:
            if block not in sums:
                prod = values[block[0]]
                for j in block[1:]:
                    prod = prod * values[j]
                sums[block] = prod.sum(axis=-1)
            return sums[block]

        out = np.empty((g, len(self.specs)))
        for c, (spec, terms) in enumerate(zip(self.specs, self._terms)):
            total = np.zeros(g)
            for weight, blocks in terms:  # one per partition: merging them would change the rounding
                term = weight
                for block in blocks:
                    term = term * block_sum(block)
                total += term
            out[:, c] = total / math.perm(n, spec.s)
        return out


# ---------------------------------------------------------------------------
# replica driver (shared with the mean-field sampler)
# ---------------------------------------------------------------------------

# Particles per replica group.  A group of G = max(1, GROUP_PARTICLES // N)
# replicas runs as one stacked (G N, d) array with one generator, so small
# systems get their batch width from the replica axis.  G depends on N only,
# so the grouping, and with it the output, depends only on the config.
GROUP_PARTICLES = 4096


def _drive(
    velocities: np.ndarray,
    rate: float,
    meanfield: bool,
    mixture: MixtureSpec,
    rng: np.random.Generator,
    t_end: float,
    observers: Sequence[Observer],
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Evolve a group of replicas (G, N, d) to the horizon in place, sampling observers.

    The group draws everything from `rng`.  The observer times and t_end cut
    [0, t_end] into intervals.  The number of events of a replica in each
    interval is Poisson(rate * length), independent of the other intervals
    and replicas, and given the counts the events are iid, so the group
    draws the G counts and then the events; no event time is needed.  Each
    round draws and applies one tape of at most `_block_size` events of
    every replica with events left.  A sample at time tau reads the state
    after the intervals ending at or before tau (right continuity).
    Returns each observer's readings (G, n_times, n_channels) and the
    events applied of each order (G, M).
    """
    schedule = sorted(
        (t, oi, ti)
        for oi, obs in enumerate(observers)
        for ti, t in enumerate(obs.times)
    )
    g, n, d = velocities.shape
    m = mixture.m
    readings = [np.empty((g, len(obs.times), len(obs.channel_names))) for obs in observers]
    flat = velocities.reshape(g * n, d)  # a view: the stacked particles
    block = _block_size(n)
    events = np.zeros((g, m), dtype=np.int64)
    ptr = 0
    t = 0.0
    for cut in sorted({entry[0] for entry in schedule} | {t_end}):
        todo = rng.poisson(rate * (cut - t), size=g) if cut > t else np.zeros(g, dtype=np.int64)
        while todo.any():
            take = np.minimum(todo, block)
            todo -= take
            tape = _draw_tape(rng, take, mixture, n, meanfield)
            for law, _, idx, _, _ in tape:
                events[:, law.order - 1] += np.bincount(idx[:, 0] // n, minlength=g)
            _apply_tape(flat, tape, int(take.sum()), m)
        t = cut
        counts = events.sum(axis=1)
        while ptr < len(schedule) and schedule[ptr][0] <= t:
            _, oi, ti = schedule[ptr]
            readings[oi][:, ti] = observers[oi].collect(velocities, counts, rng)
            ptr += 1
    return readings, events


# ---------------------------------------------------------------------------
# run results
# ---------------------------------------------------------------------------


def _replica_mean_stderr(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mean over the leading replica axis and its standard error (0 for one replica)."""
    n = values.shape[0]
    mean = values.mean(axis=0)
    if n < 2:
        return mean, np.zeros_like(mean)
    return mean, values.std(axis=0, ddof=1) / math.sqrt(n)


@dataclass
class ObserverSeries:
    """One observer's readings, shape (replicas, n_times, n_channels), in replica order."""

    times: Tuple[float, ...]
    names: Tuple[str, ...]
    values: np.ndarray

    def _channel(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"observer series: no channel named {name!r}") from None

    def mean(self, name: str) -> np.ndarray:
        return self.values.mean(axis=0)[:, self._channel(name)]

    def stderr(self, name: str) -> np.ndarray:
        return _replica_mean_stderr(self.values)[1][:, self._channel(name)]


@dataclass
class RunResult:
    """Merged output of an ensemble run.

    `series[i]` matches `observers[i]` passed to the driver.  `raw[i]`, kept
    on request, is `series[i].values`: the unreduced readings with shape
    (replicas, n_times, n_channels); convergence diagnostics need them for
    replica-level products and covariances.  `events_by_order[K-1]` counts
    the order-K events applied over all replicas, `engine_s` is the wall
    time of the replica runs and `replica_group` the number of replicas
    stacked into one engine pass.  Rows flatten the series into (time, channel
    id, mean, stderr) records for tabular output.
    """

    solver: str
    N: int
    d: int
    replicas: int
    seed: int
    t_end: float
    series: Tuple[ObserverSeries, ...]
    events_by_order: Tuple[int, ...] = ()
    engine_s: float = 0.0
    replica_group: int = 1
    final_states: Optional[List[MasterState]] = None
    raw: Optional[List[np.ndarray]] = None

    def rows(self) -> Iterator[Tuple[float, str, float, float]]:
        for ser in self.series:
            means, errs = _replica_mean_stderr(ser.values)
            for ti, t in enumerate(ser.times):
                for ci, name in enumerate(ser.names):
                    yield (t, name, float(means[ti, ci]), float(errs[ti, ci]))


def engine_metrics(results: Sequence[RunResult]) -> dict:
    """Events applied per solver and order, engine seconds, events/s and replica groups.

    Runs of the same solver are summed; orders are keyed "1".."M", and
    `replica_group` maps each run's N to the replicas per engine pass.
    """
    out: dict = {}
    for res in results:
        entry = out.setdefault(
            res.solver, {"events_by_order": {}, "engine_s": 0.0, "replica_group": {}}
        )
        for k, count in enumerate(res.events_by_order, start=1):
            entry["events_by_order"][str(k)] = entry["events_by_order"].get(str(k), 0) + count
        entry["engine_s"] += res.engine_s
        entry["replica_group"][str(res.N)] = res.replica_group
    for entry in out.values():
        entry["events"] = sum(entry["events_by_order"].values())
        entry["events_per_s"] = entry["events"] / entry["engine_s"] if entry["engine_s"] > 0 else 0.0
    return out


# ---------------------------------------------------------------------------
# ensemble runs
# ---------------------------------------------------------------------------


def _check_observers(observers: Sequence[Observer], config: SimConfig) -> None:
    """The checks of observers against a run, made before any replica starts."""
    for obs in observers:
        if obs.times[-1] > config.t_end:
            raise ValueError(f"observer time {obs.times[-1]} outside [0, t_end={config.t_end}]")
        specs = obs.specs if isinstance(obs, ObservableObserver) else ()
        s = max((spec.s for spec in specs), default=0)
        if s > config.N:
            raise ValueError(f"observable order s={s} exceeds N={config.N}")
        for spec in specs:  # each factor checks its own dimension
            spec.evaluate(np.zeros((1, spec.s, config.d)))


def _run_replicas(
    solver: str,
    config: SimConfig,
    rate: float,
    meanfield: bool,
    observers: Sequence[Observer],
    keep_final: bool,
    keep_raw: bool,
) -> RunResult:
    """The replica driver behind `run` and `meanfield_run`.

    Groups of G replicas (see GROUP_PARTICLES) run as one stacked
    (G, N, d) array.  A group draws its initial states and its events from
    the stream of its first replica, `replica_rng(seed, lo)`, and each of
    its replicas jumps at total `rate`, with N-particle events or, when
    `meanfield`, mean-field events.
    """
    observers = list(observers)
    _check_observers(observers, config)
    size = max(1, GROUP_PARTICLES // config.N)
    values = [
        np.empty((config.replicas, len(obs.times), len(obs.channel_names))) for obs in observers
    ]
    events = np.zeros((config.replicas, config.mixture.m), dtype=np.int64)
    finals: List[MasterState] = []
    start = time.perf_counter()
    for lo in range(0, config.replicas, size):
        hi = min(lo + size, config.replicas)
        rng = replica_rng(config.seed, lo)
        velocities = config.initial.sample(rng, (hi - lo) * config.N, config.d)
        velocities = velocities.reshape(hi - lo, config.N, config.d)
        readings, events[lo:hi] = _drive(
            velocities, rate, meanfield, config.mixture, rng, config.t_end, observers
        )
        for series_values, block in zip(values, readings):
            series_values[lo:hi] = block
        if keep_final:
            finals.extend(
                MasterState(v, config.t_end, int(e.sum())) for v, e in zip(velocities, events[lo:hi])
            )
    engine_s = time.perf_counter() - start
    series = tuple(
        ObserverSeries(obs.times, obs.channel_names, vals) for obs, vals in zip(observers, values)
    )
    return RunResult(
        solver=solver,
        N=config.N,
        d=config.d,
        replicas=config.replicas,
        seed=config.seed,
        t_end=config.t_end,
        series=series,
        events_by_order=tuple(int(e) for e in events.sum(axis=0)),
        engine_s=engine_s,
        replica_group=size,
        final_states=finals if keep_final else None,
        raw=list(values) if keep_raw else None,
    )


def run(
    config: SimConfig,
    observers: Sequence[Observer],
    workers: int = 1,  # ignored; benchmarks/child.py passes it
    keep_final: bool = False,
    keep_raw: bool = False,
) -> RunResult:
    """Evolve an ensemble of independent replicas and merge their statistics.

    Replicas advance in stacked groups, one engine pass and one generator
    stream each (see `_run_replicas`), so the output is a deterministic
    function of the configuration alone.  The run is one process.
    """
    return _run_replicas("kac", config, float(config.N), False, observers, keep_final, keep_raw)
