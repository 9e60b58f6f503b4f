"""Mean-field (single-particle) jump sampler for the limiting kinetic equation.

The limit equation splits into a gain term and a linear loss term with total
loss rate alpha = sum_K beta_K * K per particle.  The matching McKean-style
process resamples one particle at a time: an ensemble of n particles stands
in for the law f(t); at total rate n*alpha a uniformly chosen particle jumps,
its collision order is drawn size-biased (probability beta_K*K/alpha), K-1
distinct partners are read from the current ensemble, and the jumper takes a
uniformly random slot of the transformed group.  Only the jumper's velocity
is replaced; partners are left untouched.  That one-sided update is what
distinguishes this sampler from the symmetric N-particle process: partner
correlations enter only at O(1/n).

Isometry of the collision laws plus the uniform slot choice make the
ensemble's mean energy a martingale, which is the main drift diagnostic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .laws import MixtureSpec
from .simulator import InitialLaw, Observer, RunResult, SimConfig, _ordered_distinct, _run_replicas

__all__ = [
    "meanfield_run",
]


def _mf_collide(particles: np.ndarray, mixture: MixtureSpec, rng: np.random.Generator) -> None:
    """One mean-field jump: resample a single particle's velocity in place."""
    n = particles.shape[0]
    jumper = int(rng.integers(0, n))
    k = mixture.order_from_uniform_sizebiased(rng.random())
    law = mixture.laws[k - 1]
    slot = int(rng.integers(0, k))
    group_idx = _ordered_distinct(rng, n, k, [jumper])
    group_idx.insert(slot, group_idx.pop(0))  # move the jumper from the front to its slot
    omega = law.sample_angle(rng)
    out = law.apply(omega, particles[group_idx])
    particles[jumper] = out[slot]


def meanfield_run(
    mixture: MixtureSpec,
    initial: InitialLaw,
    n: int,
    t_end: float,
    seed: int,
    replicas: int = 1,
    observers: Sequence[Observer] = (),
    workers: int = 1,
    keep_final: bool = False,
    keep_raw: bool = False,
) -> RunResult:
    """Evolve replica ensembles of the mean-field sampler to the horizon.

    The result has the same shape as the N-particle driver's output (solver
    tag "meanfield"), so the two can be differenced row by row in
    convergence studies.  Both run on the same replica driver, so substreams
    and merge order follow the same determinism contract.
    """
    if n < mixture.m:
        raise ValueError(f"mean-field run: n >= M required (M={mixture.m}, got n={n})")
    config = SimConfig(
        N=n, mixture=mixture, t_end=t_end, seed=seed, replicas=replicas, initial=initial
    )
    rate = n * mixture.alpha
    return _run_replicas(
        "meanfield", config, rate, _mf_collide, observers, workers, keep_final, keep_raw
    )
