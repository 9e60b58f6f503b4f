"""Convergence harness: N-particle marginals against the mean-field limit.

For iid (hence chaotic) initial data, s-particle marginal observables of the
N-particle process converge, as N grows, to tensor powers of the limiting
one-particle law.  The harness makes that quantitative at desk scale: it
sweeps an N grid, estimates each marginal observable from N-particle
ensembles, estimates the tensorized reference from one large mean-field run,
and reports per-cell agreement plus the empirical decay of the gap.  Both
sides average each product over the distinct s-tuples of their particles.
On the mean-field ensemble of n_ref particles that average keeps the
ensemble's O(1/n_ref) correlation between particles, but not the
C(s,2) Var(g)/n_ref bias of the s-th power of a one-particle mean.

The reference is not independent of the code under test.  The mean-field
sampler differs from the N-particle process only in its events (size-biased
orders, one-sided updates of the first slot); it shares the event-tape engine
(tape drawing, layering, batched application), the stacked replica driver
and the observers with it, so a bug in that shared code can cancel in every
cell.  Exact references that do not use the engine are ROADMAP item 1.

No convergence rate is proven for the general mixture, so acceptance is
qualitative: agreement at the largest N within statistical error and a
non-increasing gap across the grid.  The log-log slope fits are reported as
diagnostics, with the usual caveat that once the gap sits inside Monte-Carlo
noise the fitted slope flattens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .laws import MixtureSpec
from .meanfield import meanfield_run
from .observables import ObservableSpec
from .simulator import (
    DeterministicInitial,
    InitialLaw,
    ObservableObserver,
    SimConfig,
    _check_observers,
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
    each grid point, so smaller systems get proportionally more replicas;
    `ref_factor` scales the mean-field ensemble relative to the largest N.
    """

    samples_per_point: int = 250_000
    min_replicas: int = 8
    ref_factor: int = 10
    ref_replicas: int = 16

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


@dataclass
class ChaosReport:
    """The sweep's cells and slope fits; `engine` holds `engine_metrics` of its runs."""

    rows: Tuple[ChaosRow, ...]
    slopes: Tuple[SlopeFit, ...]
    seed: int
    n_ref: int
    ref_replicas: int
    engine: dict = field(default_factory=dict)

    @property
    def pass_fraction(self) -> float:
        if not self.rows:
            return 1.0
        return sum(r.pass_3sigma for r in self.rows) / len(self.rows)

    @property
    def worst_row(self) -> Optional[ChaosRow]:
        """The row with the largest gap relative to its error budget."""
        if not self.rows:
            return None

        def ratio(row: ChaosRow) -> float:
            denom = row.kac_stderr + row.mf_stderr
            return row.delta / denom if denom > 0 else (math.inf if row.delta > 0 else 0.0)

        return max(self.rows, key=ratio)


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


def _check_sweep(mixture, initial, n_grid, s_vals, times, factors) -> ObservableObserver:
    """The sweep's checks of its inputs, made before any run starts; returns its runs' observer.

    The sweep checks its own rules; the checks of a run (orders, times and
    factors against the mixture) are those of the run at the smallest N.
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
    compares against the same average over a single large mean-field run
    (n = ref_factor * max N).  Every run draws its seed from one spawning
    sequence, so the whole report is reproducible from (inputs, seed).
    """
    n_grid = [int(n) for n in N_grid]
    times = [float(t) for t in t_list]
    observer = _check_sweep(mixture, initial, n_grid, [int(s) for s in s_list], times, factors)
    t_end = times[-1]
    seeds = _derive_seeds(seed, 1 + len(n_grid))
    n_ref = budget.ref_factor * max(n_grid)

    # Reference: each product over distinct s-tuples of the mean-field ensemble.
    ref_config = SimConfig(n_ref, mixture, t_end, seeds[0], budget.ref_replicas, initial)
    ref = meanfield_run(ref_config, [observer])
    ref_ser = ref.series[0]

    rows: List[ChaosRow] = []
    deltas: dict = {}
    runs = [ref]
    for gi, n in enumerate(n_grid):
        config = SimConfig(n, mixture, t_end, seeds[1 + gi], budget.replicas_for(n), initial)
        result = run(config, [observer])
        runs.append(result)
        ser = result.series[0]
        for spec in observer.specs:
            s, name = spec.s, spec.name
            kac_mean = ser.mean(name)
            kac_se = ser.stderr(name)
            ref_mean = ref_ser.mean(name)
            ref_se = ref_ser.stderr(name)
            for ti, t in enumerate(times):
                mf_mean, mf_se = float(ref_mean[ti]), float(ref_se[ti])
                delta = abs(float(kac_mean[ti]) - mf_mean)
                combined = float(kac_se[ti]) + mf_se
                rows.append(
                    ChaosRow(
                        N=n,
                        s=s,
                        t=t,
                        observable=name,
                        kac_mean=float(kac_mean[ti]),
                        kac_stderr=float(kac_se[ti]),
                        mf_mean=mf_mean,
                        mf_stderr=mf_se,
                        delta=delta,
                        pass_3sigma=delta <= 3.0 * combined,
                        underpowered=combined > STDERR_TARGET,
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
        ref_replicas=budget.ref_replicas,
        engine=engine_metrics(runs),
    )
