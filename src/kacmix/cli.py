"""Command-line entry point: every capability behind one executable.

Subcommands: simulate (N-particle ensembles), boltzmann (mean-field sampler
and grid solver), hierarchy (constants, horizons, coefficient sweeps), chaos
(size-sweep convergence report), laws-check (energy/involution/symmetry
validation of the collision laws).  Runs are described by a JSON config file
plus dotted overrides; every subcommand is deterministic given the config
and seed, writes a manifest before any result file, and uses the exit-code
convention 0 = success, 1 = acceptance-threshold failure or a failed run,
2 = configuration error (configs are checked in full before any engine
starts).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .chaos import run_chaos_sweep
from .config import ConfigError, RunConfig, load_config, parse_config
from .hierarchy import coeff_leading, hierarchy_constants
from .laws import (
    BinaryMaxwell,
    CollisionLaw,
    KacToy,
    SymmetricK,
    SymmetricKMomentum,
    check_h2_involution,
    check_h3_symmetry,
    h1_max_error,
)
from .meanfield import meanfield_run
from .picard import angular_nodes, check_angular_resolution, gaussian_grid_density
from .picard import picard_solve_toy, uniform_grid_density
from .runio import (
    chaos_summary,
    run_result_header,
    run_result_rows,
    write_chaos_csv,
    write_csv,
    write_density_csv,
    write_hierarchy_constants_csv,
    write_hierarchy_horizon_csv,
    write_hierarchy_sweep_csv,
    write_json,
    write_manifest,
)
from .simulator import (
    GaussianInitial,
    MomentObserver,
    ObservableObserver,
    SimConfig,
    UniformBoxInitial,
    engine_metrics,
    replica_rng,
    run,
)

H1_TOLERANCE = 1e-10

BUILTIN_LAWS: Tuple[CollisionLaw, ...] = (
    BinaryMaxwell(d=1),
    BinaryMaxwell(d=3),
    KacToy(kernel="uniform"),
    KacToy(kernel="raised_cosine"),
    SymmetricK(k=1, d=1),
    SymmetricK(k=2, d=1),
    SymmetricK(k=3, d=3),
    SymmetricKMomentum(k=2, d=3),
    SymmetricKMomentum(k=3, d=1),
)


def _load(args) -> RunConfig:
    overrides: List[str] = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.output_dir is not None:
        overrides.append(f"output_dir={json.dumps(args.output_dir)}")
    if args.config is None:
        return parse_config("{}", overrides)
    return load_config(args.config, overrides)


def _write_run(
    cfg: RunConfig, command: str, outputs: dict, metrics: dict, config_s: float, command_s: float
) -> None:
    """Write the manifest, the result files, then the manifest again with every phase time.

    `outputs` maps each result file to (row count, writer of its path).
    `metrics` gains `phases` in seconds: config and the command (measured by
    `main`), split into engine (the solvers' engine time, 0 without solvers)
    and reduce (the rest), and write (the result files; null in the first
    manifest, which is written before any result file).
    """
    engine = sum(entry["engine_s"] for entry in metrics.get("solvers", {}).values())
    phases = {"config": config_s, "engine": engine, "reduce": command_s - engine, "write": None}
    counts = {name: rows for name, (rows, _) in outputs.items()}
    metrics = dict(metrics, phases=phases)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = (out / "manifest.json", command, __version__, cfg.seed, cfg.raw, counts)
    write_manifest(*record, metrics=metrics)
    start = time.perf_counter()
    for name, (_, writer) in outputs.items():
        writer(out / name)
    phases["write"] = time.perf_counter() - start
    write_manifest(*record, metrics=metrics)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(cfg: RunConfig) -> Tuple[dict, dict, int]:
    mixture = cfg.require("mixture")
    sim = cfg.require("sim")
    observers = [MomentObserver(sim.times)]
    if cfg.observables:
        observers.append(ObservableObserver(sim.times, cfg.observables))
    config = SimConfig(
        N=sim.N,
        mixture=mixture,
        t_end=sim.t_end,
        seed=cfg.seed,
        replicas=sim.replicas,
        initial=cfg.initial,
    )
    result = run(config, observers)
    rows = list(run_result_rows(result))
    outputs = {"simulate.csv": (len(rows), lambda path: write_csv(path, run_result_header(), rows))}
    return outputs, {"solvers": engine_metrics([result])}, 0


def _pure_toy_kernel(cfg: RunConfig) -> str:
    """The toy grid solver covers exactly the single-law order-2 toy mixture."""
    mixture = cfg.require("mixture")
    for i, (law, beta) in enumerate(zip(mixture.laws, mixture.beta)):
        if isinstance(law, KacToy) and beta == 1.0:
            return law.kernel
        if beta != 0.0:
            break
    raise ConfigError(
        "picard solver requires a mixture with all weight on one toy rotation law"
    )


def _picard_initial(initial, grid) -> "object":
    if isinstance(initial, GaussianInitial):
        return gaussian_grid_density(L=grid.L, n_v=grid.n_v)
    if isinstance(initial, UniformBoxInitial):
        return uniform_grid_density(initial.a, L=grid.L, n_v=grid.n_v)
    raise ConfigError(
        "picard solver supports gaussian or uniform initial data, "
        f"got {getattr(initial, 'tag', type(initial).__name__)!r}"
    )


def cmd_boltzmann(cfg: RunConfig) -> Tuple[dict, dict, int]:
    mixture = cfg.require("mixture")
    mf = cfg.require("meanfield")
    rows: List[tuple] = []
    density = None
    solvers: dict = {}
    if mf.solver in ("picard", "both"):
        kernel = _pure_toy_kernel(cfg)
        try:  # the grid solver's checks, before any engine starts
            check_angular_resolution(kernel, mf.grid.n_theta)
            f0 = _picard_initial(cfg.initial, mf.grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    if mf.solver in ("meanfield", "both"):
        config = SimConfig(mf.n, mixture, mf.t_end, cfg.seed, mf.replicas, cfg.initial)
        result = meanfield_run(config, [MomentObserver(mf.times)])
        rows.extend(run_result_rows(result, include_solver=True))
        solvers.update(engine_metrics([result]))

    if mf.solver in ("picard", "both"):
        solve_start = time.perf_counter()
        solved = picard_solve_toy(
            kernel, f0, mf.t_end, n_iter=mf.grid.n_iter, n_theta=mf.grid.n_theta, n_time=mf.grid.n_time
        )
        density = solved.density
        solvers["picard"] = {
            "engine_s": time.perf_counter() - solve_start,
            "substeps": solved.substeps,
            "sweeps": solved.n_iter,
            "mass_drift": solved.mass_drift,
            "angular_nodes": angular_nodes(mf.grid.n_theta),
        }
        for name, value in (
            ("mass", density.mass()),
            ("m2", density.moment(2)),
            ("m4", density.moment(4)),
        ):
            rows.append((mf.t_end, name, value, 0.0, mf.grid.n_v, 1, cfg.seed, "picard"))

    header = run_result_header(include_solver=True)
    outputs = {"boltzmann.csv": (len(rows), lambda path: write_csv(path, header, rows))}
    if density is not None:
        outputs["boltzmann_density.csv"] = (density.n_v, lambda path: write_density_csv(path, density))
    return outputs, {"solvers": solvers}, 0


def cmd_hierarchy(cfg: RunConfig) -> Tuple[dict, dict, int]:
    mixture = cfg.require("mixture")
    hier = cfg.require("hierarchy")
    hc = hierarchy_constants(
        M=mixture.m, betas=mixture.beta, epsilon=hier.epsilon, T=hier.T
    )
    k_list = hier.k_list if hier.k_list is not None else tuple(range(mixture.m))
    sweep = [
        (n, s, k, coeff_leading(n, s, k), abs(coeff_leading(n, s, k) - 1.0))
        for n in hier.N_grid
        for s in hier.s_list
        for k in k_list
        if s <= n
    ]
    outputs = {
        "hierarchy_constants.csv": (hc.M, lambda path: write_hierarchy_constants_csv(path, hc)),
        "hierarchy_horizon.csv": (1, lambda path: write_hierarchy_horizon_csv(path, hc)),
        "hierarchy_sweep.csv": (len(sweep), lambda path: write_hierarchy_sweep_csv(path, sweep)),
    }
    return outputs, {}, 0


def cmd_chaos(cfg: RunConfig) -> Tuple[dict, dict, int]:
    mixture = cfg.require("mixture")
    chaos = cfg.require("chaos")
    report = run_chaos_sweep(
        mixture,
        cfg.initial,
        N_grid=chaos.N_grid,
        s_list=chaos.s_list,
        t_list=chaos.t_list,
        factors=chaos.factors,
        budget=chaos.budget,
        seed=cfg.seed,
    )
    outputs = {
        "chaos.csv": (len(report.rows), lambda path: write_chaos_csv(path, report)),
        "chaos_summary.json": (1, lambda path: write_json(path, chaos_summary(report))),
    }
    passed = report.pass_fraction >= chaos.pass_threshold
    if not passed:
        print(
            f"chaos: pass fraction {report.pass_fraction:.4f} below threshold "
            f"{chaos.pass_threshold}",
            file=sys.stderr,
        )
    return outputs, {"solvers": report.engine}, 0 if passed else 1


def laws_check_rows(laws: Sequence[CollisionLaw], seed: int, n_samples: int = 10**5):
    """H1/H2/H3 validation rows: (law, test, value, stderr, n_samples, result)."""
    rows = []
    for i, law in enumerate(laws):
        err = h1_max_error(law, n_samples=10**4, rng=replica_rng(seed, 3 * i))
        rows.append(
            (law.describe, "H1", err, 0.0, 10**4, "PASS" if err <= H1_TOLERANCE else "FAIL")
        )
        for j, check in ((1, check_h2_involution), (2, check_h3_symmetry)):
            rep = check(law, n_samples=n_samples, rng=replica_rng(seed, 3 * i + j))
            rows.append(
                (
                    rep.law,
                    rep.hypothesis,
                    rep.difference,
                    rep.combined_stderr,
                    rep.n_samples,
                    "PASS" if rep.passed else "FAIL",
                )
            )
    return rows


def cmd_laws_check(cfg: RunConfig) -> Tuple[dict, dict, int]:
    laws = cfg.mixture.laws if cfg.mixture is not None else BUILTIN_LAWS
    rows = laws_check_rows(laws, seed=cfg.seed)
    header = ["law", "test", "value", "stderr", "n_samples", "result"]
    outputs = {"laws_check.csv": (len(rows), lambda path: write_csv(path, header, rows))}
    failures = [r for r in rows if r[5] == "FAIL"]
    for law, test, value, stderr, _, _ in failures:
        print(
            f"laws-check: {law} {test} failed (value {value:.3e}, stderr {stderr:.3e})",
            file=sys.stderr,
        )
    return outputs, {}, 1 if failures else 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "boltzmann": cmd_boltzmann,
    "hierarchy": cmd_hierarchy,
    "chaos": cmd_chaos,
    "laws-check": cmd_laws_check,
}

_EPILOG = """commands:
  simulate    run N-particle collision ensembles
  boltzmann   run the mean-field sampler and/or the toy grid solver
  hierarchy   emit marginal-hierarchy constants, horizons, and coefficient sweeps
  chaos       sweep system sizes against exact or sampled limit references
  laws-check  validate collision laws (energy, involution, slot symmetry)
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kacmix",
        description="Simulation and verification toolkit for multi-particle collision processes.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"kacmix {__version__}")
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="one of the commands below")
    parser.add_argument("--config", help="JSON run configuration file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="dotted config override, e.g. --set sim.N=200 (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="override the config seed")
    # benchmarks/child.py passes --workers; drop it with the next benchmark change.
    parser.add_argument("--workers", type=int, help="ignored: every run is one process")
    parser.add_argument("--output-dir", help="override the config output directory")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        start = time.perf_counter()
        cfg = _load(args)
        config_s = time.perf_counter() - start
        start = time.perf_counter()
        outputs, metrics, code = _COMMANDS[args.command](cfg)
        _write_run(cfg, args.command, outputs, metrics, config_s, time.perf_counter() - start)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:  # configs are checked up front: this is the run
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
