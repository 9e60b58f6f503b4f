"""Convergence harness: N-particle marginals against the mean-field limit.

For iid (hence chaotic) initial data, s-particle marginal observables of the
N-particle process converge, as N grows, to tensor powers of the limiting
one-particle law.  The harness makes that quantitative at desk scale: it
sweeps an N grid, estimates each marginal observable from N-particle
ensembles, compares it with the tensorized limit value, and reports per-cell
agreement plus the empirical decay of the gap.  The N-particle side averages
each product over the distinct s-tuples of a replica's particles.

The limit value is exact wherever `limit.limit_mean` knows it: 0 for tanh
factors, the Gaussian value for cosine factors from Gaussian data, and the
Fourier solution of the toy equation for cosine factors in d = 1.  Every
other cell is compared with exact iid samples of the limit law, drawn from
the backward collision tree of `limit.limit_samples` and averaged over the
distinct s-tuples of each of ref_replicas ensembles of n_ref samples, as
the N-particle side is.  No reference runs the engine, so a fault in the
engine shows as a gap in the cells.  Every cell passes by one rule: its gap
is at most 3 (kac_stderr + mf_stderr) + 1/N, where mf_stderr is 0 for an
exact value and the 1/N allows for the O(1/N) gap between the N-particle
marginal and the limit.

No convergence rate is proven for the general mixture, so acceptance is
qualitative: agreement at the largest N within statistical error and a
non-increasing gap across the grid.  The log-log slope fits are reported as
diagnostics, with the usual caveat that once the gap sits inside Monte-Carlo
noise the fitted slope flattens.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .laws import MixtureSpec
from .limit import MAX_LEAVES, exact_kind, leaves_per_sample, limit_mean, limit_samples
from .observables import ObservableSpec
from .simulator import (
    DeterministicInitial,
    InitialLaw,
    ObservableObserver,
    SimConfig,
    _check_observers,
    _replica_mean_stderr,
    engine_metrics,
    run,
)

__all__ = [
    "ChaosBudget",
    "ChaosRow",
    "SlopeFit",
    "ChaosReport",
    "run_chaos_sweep",
]

# A cell whose combined standard error exceeds this is flagged as
# underpowered (a warning, never a failure).
STDERR_TARGET = 2e-3


@dataclass(frozen=True)
class ChaosBudget:
    """Sampling effort knobs for a sweep.

    `samples_per_point` is the target particle-sample count N * replicas at
    each grid point, so smaller systems get proportionally more replicas.
    `ref_factor` (ensemble size relative to the largest N) and `ref_replicas`
    (ensembles) size the sampled reference, which is drawn only for cells
    without an exact limit value.  Every field is an integer; at least two
    replicas and two reference ensembles give each cell a standard error.
    """

    samples_per_point: int = 250_000
    min_replicas: int = 8
    ref_factor: int = 10
    ref_replicas: int = 16

    def __post_init__(self):
        for name, least in (
            ("samples_per_point", 1), ("min_replicas", 2), ("ref_factor", 1), ("ref_replicas", 2)
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"chaos budget: {name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"chaos budget: {name} must be >= {least}, got {value}")

    def replicas_for(self, n: int) -> int:
        return max(self.min_replicas, -(-self.samples_per_point // n))


@dataclass(frozen=True)
class ChaosRow:
    """One (N, s, t, observable) comparison cell."""

    N: int
    s: int
    t: float
    observable: str
    kac_mean: float
    kac_stderr: float
    mf_mean: float
    mf_stderr: float
    delta: float
    pass_3sigma: bool
    underpowered: bool


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log |delta| against log N for one (s, t, phi)."""

    s: int
    t: float
    observable: str
    slope: float
    slope_stderr: float
    n_points: int


def _pass_bound(n: int, kac_stderr: float, mf_stderr: float) -> float:
    """The largest gap a cell passes with: 3 sigma of the two errors, plus 1/N."""
    return 3.0 * (kac_stderr + mf_stderr) + 1.0 / n


@dataclass
class ChaosReport:
    """The sweep's cells and slope fits; `engine` holds `engine_metrics` of its runs.

    `references` maps each observable to its reference kind ("symmetry",
    "gaussian" or "fourier" for the exact limit values of
    `limit.limit_mean`, else "sampler").  `n_ref` and `ref_replicas` size
    the sampled reference, and are 0 when it was not drawn; `engine` then
    holds its samples, leaves and seconds under "sampler".
    """

    rows: Tuple[ChaosRow, ...]
    slopes: Tuple[SlopeFit, ...]
    seed: int
    n_ref: int
    ref_replicas: int
    engine: dict = field(default_factory=dict)
    references: dict = field(default_factory=dict)

    @property
    def pass_fraction(self) -> float:
        if not self.rows:
            return 1.0
        return sum(r.pass_3sigma for r in self.rows) / len(self.rows)

    @property
    def worst_row(self) -> Optional[ChaosRow]:
        """The row with the largest gap relative to the gap it may pass with."""
        if not self.rows:
            return None
        return max(self.rows, key=lambda r: r.delta / _pass_bound(r.N, r.kac_stderr, r.mf_stderr))


def _derive_seeds(seed: int, n: int) -> List[int]:
    """Independent per-run seeds, deterministic in (seed, position)."""
    children = np.random.SeedSequence(int(seed)).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def _fit_slope(n_values: Sequence[int], deltas: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope of log|delta| vs log N with its standard error."""
    pairs = [(math.log(n), math.log(d)) for n, d in zip(n_values, deltas) if d > 0.0]
    if len(pairs) < 2:
        return math.nan, math.nan
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        return math.nan, math.nan
    slope = float(xc @ y) / sxx
    resid = y - (y.mean() + slope * xc)
    if len(pairs) > 2:
        se = math.sqrt(float(resid @ resid) / (len(pairs) - 2) / sxx)
    else:
        se = math.nan
    return slope, se


def _check_sweep(mixture, initial, n_grid, s_vals, times, factors, budget) -> ObservableObserver:
    """The sweep's checks of its inputs, made before any run starts; returns its runs' observer.

    The sweep checks its own rules; the checks of a run (orders, times and
    factors against the mixture) are those of the run at the smallest N.  A
    sampled reference must expect at most MAX_LEAVES tree leaves.
    """
    if not n_grid or not s_vals or not times or not list(factors):
        raise ValueError("chaos sweep: N_grid, s_list, t_list and factors must be nonempty")
    if isinstance(initial, DeterministicInitial):
        raise ValueError(
            "chaos sweep: initial data must be an iid law (chaotic initial data); "
            "a deterministic velocity list is not"
        )
    labels = [f.label for f in factors]
    if len(set(labels)) != len(labels):
        raise ValueError(f"chaos sweep: factor labels must be distinct, got {labels}")
    observer = ObservableObserver(times, [ObservableSpec((f,) * s) for f in factors for s in s_vals])
    _check_observers([observer], SimConfig(min(n_grid), mixture, times[-1], 0, 1, initial))
    sampled = [f.label for f in factors if exact_kind(mixture, initial, f) is None]
    per_sample = sum(leaves_per_sample(mixture, t) for t in times)
    leaves = budget.ref_replicas * budget.ref_factor * max(n_grid) * per_sample
    if sampled and leaves > MAX_LEAVES:
        raise ValueError(
            f"chaos sweep: the sampled reference of {', '.join(sampled)} expects {leaves:.3g} "
            f"tree leaves, above the cap of {MAX_LEAVES:.3g}; lower budget.ref_replicas, "
            "budget.ref_factor, the largest N or the latest time"
        )
    return observer


def run_chaos_sweep(
    mixture: MixtureSpec,
    initial: InitialLaw,
    N_grid: Sequence[int],
    s_list: Sequence[int],
    t_list: Sequence[float],
    factors: Sequence,
    budget: ChaosBudget = ChaosBudget(),
    seed: int = 0,
) -> ChaosReport:
    """Sweep system sizes and compare marginals against the tensorized limit.

    `factors` are single-velocity bounded primitives; for each factor g and
    each s in s_list the harness forms the product observable g(v_1)...g(v_s),
    averages it over the distinct s-tuples of each N-particle replica, and
    compares it with the s-th power of g's exact limit mean where
    `limit.limit_mean` has one.  The other observables are compared with the
    same average over ref_replicas ensembles of n_ref = ref_factor * max N
    samples of the limit law at each time.  Every run draws its seed from
    one spawning sequence, the sampled reference the first, so the whole
    report is reproducible from (inputs, seed).
    """
    n_grid = [int(n) for n in N_grid]
    times = [float(t) for t in t_list]
    observer = _check_sweep(mixture, initial, n_grid, [int(s) for s in s_list], times, factors, budget)
    seeds = _derive_seeds(seed, 1 + len(n_grid))
    runs = [
        run(SimConfig(n, mixture, times[-1], seeds[1 + gi], budget.replicas_for(n), initial), [observer])
        for gi, n in enumerate(n_grid)
    ]

    engine = engine_metrics(runs)

    # Exact limit values, computed after the runs, at whose start set-up ends;
    # samples of the limit law cover the observables that have none.
    exact = {f.label: limit_mean(mixture, initial, f, times) for f in factors}
    kinds, ref_values = {}, {}
    for spec in observer.specs:
        found = exact[spec.factors[0].label]
        kinds[spec.name] = "sampler" if found is None else found[0]
        if found is not None:
            ref_values[spec.name] = (found[1] ** spec.s, np.zeros(len(times)))
    n_ref = ref_replicas = 0
    if len(ref_values) < len(observer.specs):
        n_ref, ref_replicas = budget.ref_factor * max(n_grid), budget.ref_replicas
        rng = np.random.default_rng(seeds[0])
        readings = np.empty((ref_replicas, len(times), len(observer.specs)))
        leaves = 0
        start = time.perf_counter()
        for ti, t in enumerate(times):
            samples, drawn = limit_samples(mixture, initial, t, ref_replicas * n_ref, rng)
            readings[:, ti] = observer.collect(samples.reshape(ref_replicas, n_ref, -1), None)
            leaves += drawn
        engine["sampler"] = {
            "samples": ref_replicas * n_ref * len(times),
            "leaves": leaves,
            "engine_s": time.perf_counter() - start,
        }
        means, stderrs = _replica_mean_stderr(readings)
        for c, spec in enumerate(observer.specs):
            ref_values.setdefault(spec.name, (means[:, c], stderrs[:, c]))

    rows: List[ChaosRow] = []
    deltas: dict = {}
    for n, result in zip(n_grid, runs):
        ser = result.series[0]
        for spec in observer.specs:
            s, name = spec.s, spec.name
            kac_mean = ser.mean(name)
            kac_se = ser.stderr(name)
            ref_mean, ref_se = ref_values[name]
            for ti, t in enumerate(times):
                mean, se = float(kac_mean[ti]), float(kac_se[ti])
                mf_mean, mf_se = float(ref_mean[ti]), float(ref_se[ti])
                delta = abs(mean - mf_mean)
                rows.append(
                    ChaosRow(
                        N=n,
                        s=s,
                        t=t,
                        observable=name,
                        kac_mean=mean,
                        kac_stderr=se,
                        mf_mean=mf_mean,
                        mf_stderr=mf_se,
                        delta=delta,
                        pass_3sigma=delta <= _pass_bound(n, se, mf_se),
                        underpowered=se + mf_se > STDERR_TARGET,
                    )
                )
                deltas.setdefault((s, t, name), []).append(delta)

    slopes = tuple(
        SlopeFit(s=s, t=t, observable=name, slope=sl, slope_stderr=se, n_points=len(n_grid))
        for (s, t, name), ds in deltas.items()
        for sl, se in [_fit_slope(n_grid, ds)]
    )
    return ChaosReport(
        rows=tuple(rows),
        slopes=slopes,
        seed=seed,
        n_ref=n_ref,
        ref_replicas=ref_replicas,
        engine=engine,
        references=kinds,
    )
