"""Mean-field (single-particle) jump sampler for the limiting kinetic equation.

The limit equation splits into a gain term and a linear loss term with total
loss rate alpha = sum_K beta_K * K per particle.  The matching McKean-style
process resamples one particle at a time: an ensemble of n particles stands
in for the law f(t); at total rate n*alpha a uniformly chosen particle jumps,
its collision order is drawn size-biased (probability beta_K*K/alpha), K-1
distinct ordered partners are read from the current ensemble, and the jumper
takes the first slot of the transformed group.  Only the jumper's velocity
is replaced; partners are left untouched.  That one-sided update is what
distinguishes this sampler from the symmetric N-particle process: partner
correlations enter only at O(1/n).

The sampler relies on H3: relabeling the K slots leaves the law of the
transformed group unchanged (a law that fails `check_h3_symmetry` is outside
its contract).  With exchangeable partners, "slot 0 in, slot 0 out" is then
equal in law to "uniform slot in, same slot out", and isometry makes the
ensemble's mean energy a martingale, the main drift diagnostic.

It runs on the simulator's event-tape engine: a jump is an N-particle event
(a uniform ordered tuple of distinct particles) that writes back only its
first slot, and batching treats the partners as touched too, so it never
reorders a read of a partner past a write to it.  A run takes the
N-particle run's description, with N the ensemble size n:
`meanfield_run(SimConfig(N=n, mixture=..., t_end=..., seed=...), observers)`.
"""

from __future__ import annotations

from typing import Sequence

from .simulator import Observer, RunResult, SimConfig, _run_replicas

__all__ = [
    "meanfield_run",
]


def meanfield_run(
    config: SimConfig, observers: Sequence[Observer] = (), keep_final: bool = False
) -> RunResult:
    """Evolve replica ensembles of the mean-field sampler to the horizon.

    `config` describes the run as for the N-particle `run`, with N the
    ensemble size n.  The result has the same shape as that driver's output
    (solver tag "meanfield"), so the two can be differenced row by row in
    convergence studies.  Both run on the same replica driver, so group
    streams and merge order follow the same determinism contract.
    """
    return _run_replicas(config, observers, keep_final, meanfield=True)
