"""The public surface of `kacmix`: adding or removing an export is a deliberate edit here."""

import inspect
import json

import pytest

import kacmix
from kacmix.cli import main

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
    "replica_rng",
    "run",
    "step",
    # mean-field sampler and grid solver
    "meanfield_run",
    "GridDensity",
    "gaussian_grid_density",
    "uniform_grid_density",
    "picard_solve_toy",
    # hierarchy
    "hierarchy_constants",
    "coeff_leading",
    "remainder_bound",
    "duhamel_remainder_factor",
    "verify_trace_identity",
    # chaos
    "ChaosBudget",
    "run_chaos_sweep",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name in dir(kacmix)
        if not name.startswith("_") and not inspect.ismodule(getattr(kacmix, name))
    }
    assert len(PUBLIC) == 36
    assert exported == PUBLIC, (sorted(exported - PUBLIC), sorted(PUBLIC - exported))


def test_benchmark_compat_shims(tmp_path, capsys):
    """The calls `benchmarks/child.py` still makes keep working; each case goes with its shim."""
    doc = {
        "mixture": {"laws": [{"kind": "symmetric_k", "k": 1, "d": 1}, {"kind": "kac_toy"}], "beta": [0.0, 1.0]},
        "sim": {"N": 8, "t_end": 0.25, "replicas": 2, "estimator": "all"},
        "observables": [{"kind": "tanh", "s": 2}],
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))

    # ObservableObserver(mode="all") and run(workers=2, keep_final=True, keep_raw=True)
    spec = kacmix.ObservableSpec((kacmix.TanhFactor(),) * 2)
    observers = [kacmix.MomentObserver([0.25]), kacmix.ObservableObserver([0.25], [spec], mode="all")]
    toy = kacmix.MixtureSpec((kacmix.SymmetricK(k=1, d=1), kacmix.KacToy()), (0.0, 1.0))
    config = kacmix.SimConfig(N=8, mixture=toy, t_end=0.25, seed=5, replicas=2)
    result = kacmix.run(config, observers, workers=2, keep_final=True, keep_raw=True)
    assert len(result.final_states) == 2 and result.raw[1].shape == (2, 1, 1)
    with pytest.raises(ValueError, match="'first'"):
        kacmix.ObservableObserver([0.25], [spec], mode="first")

    # --workers 2 with sim.estimator "all"
    assert main(["simulate", "--config", str(path), "--workers", "2", "--output-dir", str(tmp_path / "a")]) == 0

    # any other estimator is a config error
    doc["sim"]["estimator"] = "first"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--output-dir", str(tmp_path / "b")]) == 2
    assert "estimator" in capsys.readouterr().err
