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

Replicas are independent and reproducible.  Groups of GROUP_PARTICLES // N
replicas run as one stacked array that shares no particles between
replicas, in rounds of at most `_block_size` events per replica, and the
observers read a whole group at once.  A group draws from counter-based
streams seeded from (seed, spawn_key=(r,)): one, with r its first
replica, for N <= 2048, else one per replica r, drawn as if it ran alone.
The grouping depends on N only, so the output depends only on the
configuration.  Observers sample the right-continuous trajectory at fixed
times; the state at time tau is the state after the last event at or
before tau.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .laws import MixtureSpec, _left_sum
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
        for name in ("N", "replicas", "seed"):  # integers as operator.index takes them, bar bool
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"simulation config: {name} must be an integer, got {value!r}")
        if self.N < self.mixture.m:
            raise ValueError(
                f"simulation config: N >= M required (top collision order M={self.mixture.m}, "
                f"got N={self.N})"
            )
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"simulation config: t_end must be finite and >= 0, got {self.t_end}")
        if self.replicas < 1:
            raise ValueError(f"simulation config: replicas must be >= 1, got {self.replicas}")
        if not (0 <= self.seed < 2**64):
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
    """The counter-based stream starting at `replica` in a run of `seed` (see `_run_replicas`)."""
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
    u *= n
    return u.astype(np.intp)


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
# (law, pos, idx, angles).  `pos` are the tape positions of the order's
# events, `idx` their (count, k) particle indices and `angles` their
# scattering parameters.  Both engines draw the same rows; a mean-field
# event writes back only its first slot, so its jumper is idx[e, 0] and its
# partners are idx[e, 1:].


def _draw_tape(rng, counts, mixture: MixtureSpec, n: int, meanfield: bool, first=0, start=0) -> list:
    """The tape of `counts[r]` events of each replica r of a stream, drawn from the stream's generator.

    Replica r owns particles first + r n .. first + r n + n - 1, and its
    events take the tape positions from `start` on, after those of the
    replicas before it.  One pass draws the order uniforms of all events,
    then per order K its index rows and angles.  N-particle orders have
    probability beta_K, mean-field orders beta_K K / alpha; a uniform
    ordered row makes (jumper, ordered partners) = (idx[e, 0], idx[e, 1:])
    uniform.  When one order carries all the weight (under either law),
    every event has it and no order uniform is drawn.
    """
    offset = np.repeat(first + np.arange(len(counts)) * n, counts)  # each event's replica's first particle
    live = [k for k, b in enumerate(mixture.beta, start=1) if b > 0]
    if len(live) == 1:
        positions = {live[0]: np.arange(offset.size)}
    else:
        order_of = mixture.order_from_uniform_sizebiased if meanfield else mixture.order_from_uniform
        order = order_of(rng.random(offset.size))
        # a stable sort of the smallest unsigned keys is a radix sort, with the same permutation
        by_order = order.astype(np.min_scalar_type(mixture.m)).argsort(kind="stable")
        ends = order.take(by_order).searchsorted(np.arange(mixture.m + 1), side="right").tolist()
        positions = {k: by_order[ends[k - 1] : ends[k]] for k in range(1, mixture.m + 1)}
    tape = []
    for k, pos in positions.items():
        if pos.size:
            law = mixture.laws[k - 1]
            idx = _index_rows(rng, pos.size, n, k)
            idx += offset.take(pos)[:, None]
            tape.append((law, pos + start, idx, law.sample_angle(rng, size=pos.size)))
    return tape


def _draw_round(rngs, take: np.ndarray, mixture: MixtureSpec, n: int, meanfield: bool) -> list:
    """A group's tape of `take[r]` events of each replica r: each stream's tape, merged per order.

    Each stream owns an equal run of the replicas, and its events follow
    those of the streams before it.  A stream with no event left draws
    nothing, as it would alone.
    """
    share = take.size // len(rngs)
    tapes = []
    start = 0
    for s, rng in enumerate(rngs):
        counts = take[s * share : (s + 1) * share]
        total = int(counts.sum())
        if total:
            tapes.append(_draw_tape(rng, counts, mixture, n, meanfield, s * share * n, start))
        start += total
    if len(tapes) == 1:
        return tapes[0]
    by_order: dict = {}
    for tape in tapes:
        for entry in tape:
            by_order.setdefault(entry[0].order, []).append(entry)
    return [
        (entries[0][0], *(np.concatenate(part) for part in list(zip(*entries))[1:]))
        for _, entries in sorted(by_order.items())
    ]


def _block_size(n: int) -> int:
    """Events per replica in one engine round on n particles: n/2, at least 32.

    It keeps a round's tape O(G n) and, being a function of n only, fixes
    a group's generator calls, hence the output, for a given seed.
    """
    return max(32, n // 2)


def _layers(tape: list, count: int) -> np.ndarray:
    """Layer of each event: one above the latest earlier event sharing a particle.

    Each (event, particle) entry of the tape is one key, particle << b |
    event, with b the bit length of count - 1 (for mean-field events the
    particles are the jumper and its partners); the keys are int32 when
    they fit, which sorts faster.  Sorted, the keys list each particle's
    events in tape order, so two adjacent keys of one particle are a
    predecessor edge.  Layers are the longest edge chains: after pass p
    every layer reads min(longest chain, p), so pass p + 1 only lifts the
    successors of the edges whose predecessor reads p, and the others are
    dropped for good; the passes end when no edge is left.  An event that
    holds a particle twice would join itself, so it raises instead.
    """
    b = (count - 1).bit_length()
    top = max(int(idx.max()) for _, _, idx, _ in tape)
    key_type = np.int32 if (top + 1) << b <= 2**31 else np.int64
    key = np.concatenate(
        [(idx << b | pos[:, None]).ravel() for _, pos, idx, _ in tape], dtype=key_type, casting="unsafe"
    )
    key.sort()
    particle = key >> b
    same = np.flatnonzero(particle[1:] == particle[:-1])
    event = (key & ((1 << b) - 1)).astype(np.intp)
    pred, succ = event.take(same), event.take(same + 1)
    if (pred == succ).any():
        raise ValueError(f"event tape: event {int(pred[pred == succ][0])} holds a particle twice")
    layer = np.zeros(count, dtype=np.intp)
    depth = 0
    while succ.size:
        depth += 1
        layer[succ] = depth
        lifted = np.flatnonzero(layer.take(pred) == depth)  # cheaper than boolean indexing twice
        pred, succ = pred.take(lifted), succ.take(lifted)
    return layer


def _apply_events(velocities: np.ndarray, law, idx, angles, moved: int) -> None:
    """Apply events of one order on disjoint particles at once, writing back their first `moved` slots."""
    out = law.apply(angles, velocities.take(idx, axis=0))  # `take` gathers rows faster than indexing
    velocities[idx[:, :moved]] = out[:, :moved]


def _apply_tape(velocities: np.ndarray, tape: list, count: int, moved: int) -> None:
    """Apply a tape of `count` events in place, one batch (a contiguous slice) per (layer, order)."""
    layer = _layers(tape, count)
    depth = int(layer.max()) + 1
    plans = []
    # layers as 8- or 16-bit keys on most tapes, so the stable sort is a radix sort
    key_type = np.min_scalar_type(depth)
    for law, pos, idx, angles in tape:
        lay = layer.take(pos).astype(key_type)
        by_layer = lay.argsort(kind="stable")
        starts = lay.take(by_layer).searchsorted(np.arange(depth + 1, dtype=key_type)).tolist()
        plans.append((law, idx.take(by_layer, axis=0), angles.take(by_layer, axis=0), starts))
    for level in range(depth):
        for law, idx, angles, starts in plans:
            lo, hi = starts[level], starts[level + 1]
            if lo < hi:
                _apply_events(velocities, law, idx[lo:hi], angles[lo:hi], moved)


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
    _apply_events(state.velocities, law, idx, law.sample_angle(rng, size=1), k)
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
    (G, N, d) and each replica's event count (G,), and takes back a
    (G, channels) array.
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

    def collect(self, velocities: np.ndarray, events: np.ndarray) -> np.ndarray:
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
    speed_sq = _left_sum(sq.reshape(v.shape))
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

    def collect(self, velocities, events):
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

    Each reading of a spec of order s is its average over every ordered
    s-tuple of distinct particles of a replica: the pairing with the
    s-particle marginal of the symmetrized state, which for an exchangeable
    law is the s-particle marginal itself.  It is computed in closed form
    from particle sums of factor products: O(2^s) partition terms per spec,
    fixed when the observer is built, and one pass over the ensemble per
    distinct block, shared by all specs.
    """

    # `mode` accepts only "all"; benchmarks/child.py is its last caller.
    def __init__(self, times: Sequence[float], specs: Sequence[ObservableSpec], mode: str = "all"):
        super().__init__(times)
        self.specs: Tuple[ObservableSpec, ...] = tuple(specs)
        if len(self.specs) == 0:
            raise ValueError("observable observer: at least one observable is required")
        if mode != "all":
            raise ValueError(f"observable observer: unknown mode {mode!r}, expected 'all'")
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

    def collect(self, velocities, events):
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

# Particles per replica group.  A group of G = GROUP_PARTICLES // N
# replicas (at least one) runs as one stacked (G N, d) array, so the fixed
# costs of an engine round and of an observer collect are paid once for G
# replicas.  G depends on N only, so the grouping, and with it the
# output, depends only on the config.
GROUP_PARTICLES = 16384
# Largest N whose group draws from one generator.  Above it each replica of
# a group keeps its own stream, drawn in lockstep with the others, so those
# runs keep the bytes of each replica run alone.
STACK_N_MAX = 2048


def _drive(
    velocities: np.ndarray,
    rate: float,
    meanfield: bool,
    mixture: MixtureSpec,
    rngs: Sequence[np.random.Generator],
    t_end: float,
    observers: Sequence[Observer],
) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray, int]:
    """Evolve a group of replicas (G, N, d) to the horizon in place, sampling observers.

    The group draws from the S streams `rngs`, each owning G/S consecutive
    replicas.  The observer times and t_end cut [0, t_end] into intervals.
    The number of events of a replica in each interval is Poisson(rate *
    length), independent of the other intervals and replicas, and given the
    counts the events are iid, so each stream draws its replicas' counts
    and then their events; no event time is needed.  Each round draws (see
    `_draw_round`) and applies one tape of at most `_block_size` events of
    every replica with events left.  A sample at time tau reads the state
    after the intervals ending at or before tau (right continuity).
    Returns each observer's readings (G, n_times, n_channels), the events
    applied to each replica (G,), kept as round totals, the events of each
    order (M,), summed from the tape sizes, and the number of rounds.
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
    share = g // len(rngs)
    block = _block_size(n)
    moved = 1 if meanfield else m  # slots written back: the jumper, or all (m >= every order)
    events = np.zeros(g, dtype=np.int64)
    by_order = np.zeros(m, dtype=np.int64)
    rounds = 0
    ptr = 0
    t = 0.0
    for cut in sorted({entry[0] for entry in schedule} | {t_end}):
        if cut > t:
            todo = np.concatenate([rng.poisson(rate * (cut - t), size=share) for rng in rngs])
        else:
            todo = np.zeros(g, dtype=np.int64)
        while todo.any():
            take = np.minimum(todo, block)
            todo -= take
            events += take
            tape = _draw_round(rngs, take, mixture, n, meanfield)
            for law, pos, _, _ in tape:
                by_order[law.order - 1] += pos.size
            _apply_tape(flat, tape, int(take.sum()), moved)
            rounds += 1
        t = cut
        while ptr < len(schedule) and schedule[ptr][0] <= t:
            _, oi, ti = schedule[ptr]
            readings[oi][:, ti] = observers[oi].collect(velocities, events)
            ptr += 1
    return readings, events, by_order, rounds


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

    `series[i]` matches `observers[i]` passed to the run, and `raw[i]` is
    `series[i].values`: the unreduced readings with shape (replicas,
    n_times, n_channels), for replica-level diagnostics.
    `events_by_order[K-1]` counts the order-K events applied over all
    replicas, `engine_s` is the wall time of the replica runs,
    `replica_group` the number of replicas that share one engine pass (their
    rounds and observer collects, see GROUP_PARTICLES) and
    `rounds` the engine rounds applied over all groups.  Rows flatten the
    series into (time, channel id, mean, stderr) records for tabular output.
    """

    solver: str
    N: int
    replicas: int
    seed: int
    series: Tuple[ObserverSeries, ...]
    events_by_order: Tuple[int, ...] = ()
    engine_s: float = 0.0
    replica_group: int = 1
    rounds: int = 0
    final_states: Optional[List[MasterState]] = None
    raw: List[np.ndarray] = field(default_factory=list)

    def rows(self) -> Iterator[Tuple[float, str, float, float]]:
        for ser in self.series:
            means, errs = _replica_mean_stderr(ser.values)
            for ti, t in enumerate(ser.times):
                for ci, name in enumerate(ser.names):
                    yield (t, name, float(means[ti, ci]), float(errs[ti, ci]))


def engine_metrics(results: Sequence[RunResult]) -> dict:
    """Events applied per solver and order, engine seconds and rounds, events/s and replica groups.

    Runs of the same solver are summed; orders are keyed "1".."M", and
    `replica_group` maps each run's N to the replicas per engine pass.
    """
    out: dict = {}
    for res in results:
        entry = out.setdefault(
            res.solver, {"events_by_order": {}, "engine_s": 0.0, "rounds": 0, "replica_group": {}}
        )
        for k, count in enumerate(res.events_by_order, start=1):
            entry["events_by_order"][str(k)] = entry["events_by_order"].get(str(k), 0) + count
        entry["engine_s"] += res.engine_s
        entry["rounds"] += res.rounds
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
    config: SimConfig, observers: Sequence[Observer], keep_final: bool, meanfield: bool
) -> RunResult:
    """The replica driver behind `run` and `meanfield_run`.

    Groups of G replicas (see GROUP_PARTICLES and STACK_N_MAX) run as one
    stacked (G, N, d) array.  For N <= STACK_N_MAX a group draws its initial
    states and its events from the stream of its first replica,
    `replica_rng(seed, lo)`; above it each replica r draws its own from
    `replica_rng(seed, r)`.  Each replica jumps at total rate N with
    N-particle events or, when `meanfield`, at N alpha with mean-field events.
    """
    rate = config.N * config.mixture.alpha if meanfield else float(config.N)
    observers = list(observers)
    _check_observers(observers, config)
    size = max(1, GROUP_PARTICLES // config.N)
    share = size if config.N <= STACK_N_MAX else 1  # replicas per stream
    values = [
        np.empty((config.replicas, len(obs.times), len(obs.channel_names))) for obs in observers
    ]
    events = np.zeros(config.replicas, dtype=np.int64)
    by_order = np.zeros(config.mixture.m, dtype=np.int64)
    rounds = 0
    finals: List[MasterState] = []
    start = time.perf_counter()
    for lo in range(0, config.replicas, size):
        hi = min(lo + size, config.replicas)
        rngs = [replica_rng(config.seed, r) for r in range(lo, hi, share)]
        particles = (hi - lo) // len(rngs) * config.N
        velocities = np.concatenate([config.initial.sample(rng, particles, config.d) for rng in rngs])
        velocities = velocities.reshape(hi - lo, config.N, config.d)
        readings, events[lo:hi], group_by_order, group_rounds = _drive(
            velocities, rate, meanfield, config.mixture, rngs, config.t_end, observers
        )
        by_order += group_by_order
        rounds += group_rounds
        for series_values, block in zip(values, readings):
            series_values[lo:hi] = block
        if keep_final:
            finals.extend(
                MasterState(v, config.t_end, int(e)) for v, e in zip(velocities, events[lo:hi])
            )
    engine_s = time.perf_counter() - start
    series = tuple(
        ObserverSeries(obs.times, obs.channel_names, vals) for obs, vals in zip(observers, values)
    )
    return RunResult(
        solver="meanfield" if meanfield else "kac",
        N=config.N,
        replicas=config.replicas,
        seed=config.seed,
        series=series,
        events_by_order=tuple(int(e) for e in by_order),
        engine_s=engine_s,
        replica_group=size,
        rounds=rounds,
        final_states=finals if keep_final else None,
        raw=[ser.values for ser in series],
    )


def run(
    config: SimConfig,
    observers: Sequence[Observer],
    workers: int = 1,  # ignored; benchmarks/child.py passes it
    keep_final: bool = False,
    keep_raw: bool = False,  # ignored, `raw` is always there; benchmarks/child.py passes it
) -> RunResult:
    """Evolve an ensemble of independent replicas and merge their statistics.

    Replicas advance in stacked groups, one engine pass each, on generator
    streams fixed by the seed (see `_run_replicas`), so the output is a
    deterministic function of the configuration alone.  The run is one
    process.
    """
    return _run_replicas(config, observers, keep_final, meanfield=False)
