"""The public surface of `kacmix`: adding or removing an export is a deliberate edit here."""

import inspect

import kacmix

PUBLIC = {
    # laws
    "CollisionLaw",
    "BinaryMaxwell",
    "KacToy",
    "SymmetricK",
    "SymmetricKMomentum",
    "MixtureSpec",
    "h1_max_error",
    "check_h2_involution",
    "check_h3_symmetry",
    # observables
    "CosineFactor",
    "TanhFactor",
    "BoxFactor",
    "ObservableSpec",
    # simulator
    "GaussianInitial",
    "UniformBoxInitial",
    "TwoPointInitial",
    "DeterministicInitial",
    "MasterState",
    "SimConfig",
    "MomentObserver",
    "ObservableObserver",
    "RunResult",
    "replica_rng",
    "run",
    "step",
    # mean-field sampler and grid solver
    "meanfield_run",
    "GridDensity",
    "PicardResult",
    "gaussian_grid_density",
    "uniform_grid_density",
    "picard_solve_toy",
    # hierarchy
    "HierarchyConstants",
    "hierarchy_constants",
    "coeff_leading",
    "remainder_bound",
    "duhamel_remainder_factor",
    "TraceIdentityReport",
    "verify_trace_identity",
    # chaos
    "ChaosBudget",
    "ChaosReport",
    "ChaosRow",
    "run_chaos_sweep",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name in dir(kacmix)
        if not name.startswith("_") and not inspect.ismodule(getattr(kacmix, name))
    }
    assert len(PUBLIC) == 42
    assert exported == PUBLIC, (sorted(exported - PUBLIC), sorted(PUBLIC - exported))
