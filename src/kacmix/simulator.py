"""Event-driven simulation of the N-particle collision jump process.

The process is a continuous-time Markov jump process on (R^d)^N driven by a
single exponential clock of total rate N.  At each ring an order K is drawn
from the mixture weights, an ordered K-tuple of distinct particle indices is
drawn uniformly, a scattering parameter is drawn from the law's kernel, and
the selected velocities are replaced by their transformed values.  Because
the clock rate is constant, the simulation is exact (no thinning or time
discretization is involved).

Replicas are independent and reproducible: replica r uses a counter-based
generator seeded from (seed, spawn_key=(r,)), so results are identical no
matter how replicas are scheduled across workers.  Observers sample the
right-continuous trajectory at fixed times; the state at time tau is the
state after the last event at or before tau.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .laws import MixtureSpec
from .observables import ObservableSpec

__all__ = [
    "GaussianInitial",
    "UniformBoxInitial",
    "TwoPointInitial",
    "DeterministicInitial",
    "initial_from_tag",
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
    "observable_on_state",
    "replica_rng",
]

ESTIMATOR_MODES = ("first", "random", "all")


# ---------------------------------------------------------------------------
# initial laws
# ---------------------------------------------------------------------------


class InitialLaw:
    """Catalog entry for the t = 0 ensemble distribution.

    The iid entries produce exchangeable states by construction; the
    deterministic entry is for regression tests and frozen scenarios.
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
    """A fixed list of velocities, one row per particle."""

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
        if v.shape != (n, d):
            raise ValueError(
                f"deterministic initial law: stored shape {v.shape} does not match (N, d)=({n}, {d})"
            )
        return v.copy()


_INITIAL_TAGS = {
    "gaussian": GaussianInitial,
    "uniform": UniformBoxInitial,
    "two_point": TwoPointInitial,
    "deterministic": DeterministicInitial,
}


def initial_from_tag(tag: str, **params) -> InitialLaw:
    """Build an initial law from its configuration tag."""
    try:
        cls = _INITIAL_TAGS[tag]
    except KeyError:
        raise ValueError(
            f"unknown initial law {tag!r}; expected one of {sorted(_INITIAL_TAGS)}"
        ) from None
    return cls(**params)


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

    def copy(self) -> "MasterState":
        return MasterState(self.velocities.copy(), self.time, self.collision_count)

    @property
    def n_particles(self) -> int:
        return self.velocities.shape[0]

    def energy(self) -> float:
        """Total squared speed, the quantity isometric collisions preserve."""
        v = self.velocities
        return float((v * v).sum())


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
    """The counter-based generator owned by one replica of one run."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(replica),))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# single event
# ---------------------------------------------------------------------------


def _ordered_distinct(
    rng: np.random.Generator, n: int, k: int, picked: Optional[List[int]] = None
) -> List[int]:
    """A uniformly random ordered k-tuple of distinct indices in range(n).

    Rejection sampling; for the k << n regime of collision draws this costs
    about k scalar draws.  The result is uniform over all n!/(n-k)! ordered
    tuples, which is the index distribution of the jump process.  Indices
    already in `picked` open the tuple and are never drawn again, so the
    remaining entries are uniform over tuples that avoid them.
    """
    picked = [] if picked is None else picked
    while len(picked) < k:
        c = int(rng.integers(0, n))
        if c not in picked:
            picked.append(c)
    return picked


def _kac_collide(velocities: np.ndarray, mixture: MixtureSpec, rng: np.random.Generator) -> None:
    """Apply one N-particle collision event in place (order, indices, angle, transform)."""
    k = mixture.order_from_uniform(rng.random())
    law = mixture.laws[k - 1]
    idx = _ordered_distinct(rng, velocities.shape[0], k)
    omega = law.sample_angle(rng)
    velocities[idx] = law.apply(omega, velocities[idx])


def step(
    state: MasterState,
    mixture: MixtureSpec,
    rng: np.random.Generator,
    inplace: bool = True,
) -> MasterState:
    """Advance the state by exactly one jump event.

    Draws the Exp(N) waiting time, the collision order (probability beta_K),
    a uniform ordered tuple of distinct indices, and the scattering
    parameter, then applies the law at those indices.  Returns the advanced
    state (the same object when inplace).
    """
    st = state if inplace else state.copy()
    n = st.velocities.shape[0]
    if n < mixture.m:
        raise ValueError(f"step: N >= M required (M={mixture.m}, got N={n})")
    st.time += rng.exponential(1.0 / n)
    _kac_collide(st.velocities, mixture, rng)
    st.collision_count += 1
    return st


# ---------------------------------------------------------------------------
# observers
# ---------------------------------------------------------------------------


class Observer:
    """Samples scalar channels from the trajectory at fixed times.

    Subclasses define the channel names and how one snapshot (velocity array
    plus event count) maps to one value per channel.  The run driver calls
    `collect` once per (replica, time), in time order, with the replica's
    own generator.
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

    def collect(self, velocities: np.ndarray, events: int, rng: np.random.Generator) -> np.ndarray:
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


def moment_channels(velocities: np.ndarray, events: int) -> np.ndarray:
    """Standard scalar readings of one (N, d) state, in MOMENT_CHANNELS order.

    m1..m4 are coordinate moments averaged over all N*d components, energy is
    the mean squared speed per particle, and the pair channels are averages
    over ordered distinct pairs (exactly the quantities whose N -> infinity
    behavior the chaos diagnostics track).  For N = 1 the pair channels are
    reported as 0 since there are no pairs.
    """
    v = np.asarray(velocities, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"moment channels: expected (N, d) velocities, got shape {v.shape}")
    n = v.shape[0]
    flat = v.ravel()
    m1 = flat.mean()
    sq = flat * flat
    m2 = sq.mean()
    m3 = (sq * flat).mean()
    m4 = (sq * sq).mean()
    speed_sq = (v * v).sum(axis=1)
    energy = speed_sq.mean()
    if n >= 2:
        col_sums = v.sum(axis=0)
        pair_vv = (float(col_sums @ col_sums) - speed_sq.sum()) / (n * (n - 1))
        total_sq = speed_sq.sum()
        pair_v2v2 = (total_sq * total_sq - float(speed_sq @ speed_sq)) / (n * (n - 1))
    else:
        pair_vv = 0.0
        pair_v2v2 = 0.0
    return np.array([m1, m2, m3, m4, energy, pair_vv, pair_v2v2, float(events)])


class MomentObserver(Observer):
    """Records the standard moment channels at each sample time."""

    @property
    def channel_names(self) -> Tuple[str, ...]:
        return MOMENT_CHANNELS

    def collect(self, velocities, events, rng):
        return moment_channels(velocities, events)


class ObservableObserver(Observer):
    """Records marginal-observable readings at each sample time.

    `mode` selects which particle slots feed each observable:

    * ``"first"``: the first s slots of the state,
    * ``"random"``: a fresh uniform ordered draw of s distinct slots per
      reading (consumes the replica stream, so it stays reproducible),
    * ``"all"``: the exchangeable average over every ordered s-tuple of
      distinct slots, computed in closed form from per-factor sums.

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

    @property
    def channel_names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.specs)

    def collect(self, velocities, events, rng):
        return np.array(
            [observable_on_state(velocities, spec, self.mode, rng) for spec in self.specs]
        )


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


def _all_slots_average(spec: ObservableSpec, velocities: np.ndarray) -> float:
    """Average of the product observable over all ordered distinct s-tuples.

    Expanding the sum over distinct tuples by inclusion-exclusion on which
    slots coincide turns it into a signed sum over set partitions of the s
    factor positions, with each block contributing the single-particle sum
    of the product of its factors.  Cost is O(2^s) partition terms times one
    pass over the ensemble, instead of O(N^s) tuples.
    """
    s = spec.s
    n = velocities.shape[0]
    fac = spec.factor_values(velocities)  # (s, N)
    total = 0.0
    for part in _set_partitions(list(range(s))):
        term = 1.0
        for block in part:
            term *= (-1.0) ** (len(block) - 1) * math.factorial(len(block) - 1)
            term *= float(np.prod(fac[block, :], axis=0).sum())
        total += term
    denom = 1.0
    for j in range(s):
        denom *= n - j
    return total / denom


def observable_on_state(
    velocities: np.ndarray,
    spec: ObservableSpec,
    mode: str = "first",
    rng: Optional[np.random.Generator] = None,
) -> float:
    """One reading of a product observable from one (N, d) state."""
    n = velocities.shape[0]
    if spec.s > n:
        raise ValueError(f"observable {spec.name!r}: order s={spec.s} exceeds N={n}")
    if mode == "first":
        return float(spec.evaluate(velocities[: spec.s]))
    if mode == "random":
        if rng is None:
            raise ValueError("observable reading: mode 'random' needs a generator")
        idx = _ordered_distinct(rng, n, spec.s)
        return float(spec.evaluate(velocities[idx]))
    if mode == "all":
        return _all_slots_average(spec, velocities)
    raise ValueError(f"observable reading: unknown mode {mode!r}, expected {ESTIMATOR_MODES}")


# ---------------------------------------------------------------------------
# replica driver (shared with the mean-field sampler)
# ---------------------------------------------------------------------------


def _drive(
    state: MasterState,
    rate: float,
    collide: Callable[[np.ndarray, MixtureSpec, np.random.Generator], None],
    mixture: MixtureSpec,
    rng: np.random.Generator,
    t_end: float,
    observers: Sequence[Observer],
) -> List[np.ndarray]:
    """Evolve one replica to the horizon, sampling observers on the way.

    The jump chain has constant total rate, so waiting times are iid
    exponentials.  A sample at time tau reads the state after the last event
    at or before tau (right continuity): all samples strictly before the next
    event time are flushed before that event is applied, which also handles
    tau = 0 and tau = t_end.  `collide` applies one event to the velocities
    in place.
    """
    schedule = sorted(
        (t, oi, ti)
        for oi, obs in enumerate(observers)
        for ti, t in enumerate(obs.times)
    )
    readings = [np.empty((len(obs.times), len(obs.channel_names))) for obs in observers]
    ptr = 0
    n_sched = len(schedule)
    mean_wait = 1.0 / rate
    while True:
        t_next = state.time + rng.exponential(mean_wait)
        while ptr < n_sched and schedule[ptr][0] < t_next:
            _, oi, ti = schedule[ptr]
            readings[oi][ti] = observers[oi].collect(
                state.velocities, state.collision_count, rng
            )
            ptr += 1
        if t_next > t_end:
            break
        collide(state.velocities, mixture, rng)
        state.collision_count += 1
        state.time = t_next
    state.time = t_end
    return readings


def _replica_block(args) -> List[tuple]:
    """Run one block of replicas: a `(replica, readings, final state)` per replica."""
    (config, rate, collide, observers, keep_final), replicas = args
    out = []
    for r in replicas:
        rng = replica_rng(config.seed, r)
        velocities = np.asarray(config.initial.sample(rng, config.N, config.d), dtype=float)
        state = MasterState(velocities)
        readings = _drive(state, rate, collide, config.mixture, rng, config.t_end, observers)
        out.append((r, readings, state if keep_final else None))
    return out


def _parallel_map_replicas(common, n_replicas: int, workers: int) -> List[tuple]:
    """Run `_replica_block` over replica indices, possibly in worker processes.

    Payloads are reassembled in replica order, so the final result does not
    depend on how many workers executed the blocks.
    """
    out: List = [None] * n_replicas
    w = max(1, int(workers))
    if w == 1 or n_replicas == 1:
        for item in _replica_block((common, list(range(n_replicas)))):
            out[item[0]] = item[1:]
    else:
        blocks = [list(range(i, n_replicas, w)) for i in range(w)]
        blocks = [b for b in blocks if b]
        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            for result in pool.map(_replica_block, [(common, b) for b in blocks]):
                for item in result:
                    out[item[0]] = item[1:]
    return out


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
    replica-level products and covariances.  Rows flatten the series into
    (time, channel id, mean, stderr) records for tabular output.
    """

    solver: str
    N: int
    d: int
    replicas: int
    seed: int
    t_end: float
    series: Tuple[ObserverSeries, ...]
    final_states: Optional[List[MasterState]] = None
    raw: Optional[List[np.ndarray]] = None

    def rows(self) -> Iterator[Tuple[float, str, float, float]]:
        for ser in self.series:
            means, errs = _replica_mean_stderr(ser.values)
            for ti, t in enumerate(ser.times):
                for ci, name in enumerate(ser.names):
                    yield (t, name, float(means[ti, ci]), float(errs[ti, ci]))


def _reduce_payloads(observers: Sequence[Observer], payloads: Sequence[tuple]):
    """Stack per-replica (readings, final) payloads in replica order."""
    series = tuple(
        ObserverSeries(obs.times, obs.channel_names, np.stack([p[0][oi] for p in payloads]))
        for oi, obs in enumerate(observers)
    )
    return series, [p[1] for p in payloads]


# ---------------------------------------------------------------------------
# ensemble runs
# ---------------------------------------------------------------------------


def _run_replicas(
    solver: str,
    config: SimConfig,
    rate: float,
    collide: Callable[[np.ndarray, MixtureSpec, np.random.Generator], None],
    observers: Sequence[Observer],
    workers: int,
    keep_final: bool,
    keep_raw: bool,
) -> RunResult:
    """The replica driver behind `run` and `meanfield_run`.

    Each replica draws its initial state and its events from its own
    substream (seed, replica index) and jumps at total `rate`, applying
    `collide` at each event.  `collide` must be a module-level function so
    that worker processes can unpickle it.
    """
    observers = list(observers)
    for obs in observers:
        for t in obs.times:
            if t > config.t_end:
                raise ValueError(
                    f"configuration error: observer time {t} outside [0, t_end={config.t_end}]"
                )
    payloads = _parallel_map_replicas(
        (config, rate, collide, observers, keep_final), config.replicas, workers
    )
    series, finals = _reduce_payloads(observers, payloads)
    return RunResult(
        solver=solver,
        N=config.N,
        d=config.d,
        replicas=config.replicas,
        seed=config.seed,
        t_end=config.t_end,
        series=series,
        final_states=finals if keep_final else None,
        raw=[ser.values for ser in series] if keep_raw else None,
    )


def run(
    config: SimConfig,
    observers: Sequence[Observer],
    workers: int = 1,
    keep_final: bool = False,
    keep_raw: bool = False,
) -> RunResult:
    """Evolve an ensemble of independent replicas and merge their statistics.

    Each replica owns the substream (seed, replica index), so the output is
    a deterministic function of the configuration alone: worker count only
    changes wall-clock time.  Partial results are merged in replica order.
    """
    return _run_replicas(
        "kac", config, float(config.N), _kac_collide, observers, workers, keep_final, keep_raw
    )
