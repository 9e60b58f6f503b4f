"""kacmix: simulation and verification toolkit for Kac-type particle systems
with mixtures of collision orders.

The package covers five layers:

- `kacmix.laws`: collision transformation laws (pair rotations, Maxwell-type
  pair exchange, order-K reflections) plus Monte-Carlo checks of their
  isometry / involution / relabeling properties.
- `kacmix.simulator`: exact event-driven simulation of the N-particle jump
  process driven by a rate-N Poisson clock and a law mixture.
- `kacmix.meanfield` / `kacmix.picard`: the limiting one-particle dynamics,
  either as a mean-field stochastic sampler or, for the one-dimensional pair
  rotation model, as a fixed-point grid solver of the collision equation's
  integral form.
- `kacmix.hierarchy`: exact coefficients and norm bounds of the marginal
  (hierarchy) calculus, plus a Monte-Carlo validator for the partial-trace
  identity.
- `kacmix.chaos`: experiment harness comparing N-particle marginal
  observables against tensorized limit values across a grid of N: exact
  ones from `kacmix.limit` where known, a mean-field run otherwise.

`kacmix.cli` exposes the same functionality as the `kacmix` console command.
"""

from kacmix.chaos import (
    ChaosBudget,
    ChaosReport,
    ChaosRow,
    run_chaos_sweep,
)
from kacmix.hierarchy import (
    HierarchyConstants,
    TraceIdentityReport,
    coeff_leading,
    duhamel_remainder_factor,
    hierarchy_constants,
    remainder_bound,
    verify_trace_identity,
)
from kacmix.laws import (
    BinaryMaxwell,
    CollisionLaw,
    KacToy,
    MixtureSpec,
    SymmetricK,
    SymmetricKMomentum,
    check_h2_involution,
    check_h3_symmetry,
    h1_max_error,
)
from kacmix.meanfield import meanfield_run
from kacmix.observables import (
    BoxFactor,
    CosineFactor,
    ObservableSpec,
    TanhFactor,
)
from kacmix.picard import (
    GridDensity,
    PicardResult,
    gaussian_grid_density,
    picard_solve_toy,
    uniform_grid_density,
)
from kacmix.simulator import (
    DeterministicInitial,
    GaussianInitial,
    MasterState,
    MomentObserver,
    ObservableObserver,
    RunResult,
    SimConfig,
    TwoPointInitial,
    UniformBoxInitial,
    replica_rng,
    run,
    step,
)

__version__ = "0.1.0"
