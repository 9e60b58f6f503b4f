"""One workload pipeline in a fresh process: the unit the benchmark times.

Usage: python3 benchmarks/child.py JOB.json LAUNCH_CLOCK

The job names the workload, its generated config, the output directory, the
worker count, whether to trace, and whether the run is a set-up probe that
stops at the first entry into an engine; LAUNCH_CLOCK is the parent's
`time.monotonic()` reading just before it started this process.  The child
imports kacmix from the checkout's ``src``, runs the pipeline through a public entry point, and writes
``child.json`` next to the outputs: the clock readings that bound set-up and
the pipeline, the exit status, peak resident memory and, when traced, the
layer statistics.  Everything the checks need beyond the pipeline's own
files is written after the pipeline's clock has stopped.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class SetupDone(Exception):
    """Raised at the first engine entry of a set-up probe, which stops there."""


def _simulate_pipeline(config_path: str, out: Path, workers: int):
    """`kacmix simulate` through the library, keeping final states and raw readings."""
    import kacmix
    from kacmix import config as kconfig
    from kacmix import runio

    cfg = kconfig.load_config(config_path)
    sim = cfg.require("sim")
    observers = [kacmix.MomentObserver(sim.times)]
    observers.append(kacmix.ObservableObserver(sim.times, cfg.observables, mode=sim.estimator))
    config = kacmix.SimConfig(
        N=sim.N,
        mixture=cfg.require("mixture"),
        t_end=sim.t_end,
        seed=cfg.seed,
        replicas=sim.replicas,
        initial=cfg.initial,
    )
    result = kacmix.run(config, observers, workers=workers, keep_final=True, keep_raw=True)
    rows = list(runio.run_result_rows(result))
    out.mkdir(parents=True, exist_ok=True)
    runio.write_manifest(
        out / "manifest.json",
        command="simulate",
        version=kacmix.__version__,
        seed=cfg.seed,
        config=cfg.raw,
        row_counts={"simulate.csv": len(rows)},
    )
    runio.write_csv(out / "simulate.csv", runio.run_result_header(), rows)
    return result


def _save_states(result, out: Path) -> None:
    import numpy as np

    np.savez(
        out / "states.npz",
        velocities=np.stack([st.velocities for st in result.final_states]),
        counts=np.array([st.collision_count for st in result.final_states]),
        moments=result.raw[0],
        moment_names=np.array(result.series[0].names),
        readings=result.raw[1],
        reading_names=np.array(result.series[1].names),
    )


def main(job_path: str, launch: float) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import kacmix.cli

    import tracing

    clocks = {"launch": launch, "first_entry": None}
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    else:

        def first_entry():
            clocks["first_entry"] = time.monotonic()
            if job["probe"]:
                raise SetupDone

        tracing.first_entry_hook(first_entry)

    out = Path(job["out"])
    workers = str(job["workers"])
    result = None

    def pipeline():
        nonlocal result
        if job["workload"] == "kac_mixed_large":
            result = _simulate_pipeline(job["config"], out, job["workers"])
            return 0
        argv = [job["command"], "--config", job["config"], "--workers", workers, "--output-dir", str(out)]
        return kacmix.cli.main(argv)

    root = pipeline
    if tracer is not None:
        root = tracer.coarse("pipeline", pipeline, tracer.stats.setdefault("pipeline", [0, 0.0, 0.0]))
    clocks["call"] = time.monotonic()
    try:
        rc = root()
    except SetupDone:
        rc = None
    clocks["done"] = time.monotonic()

    if result is not None:
        _save_states(result, out)
    report = {
        "rc": rc,
        "clocks": clocks,
        "maxrss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "trace": tracer.report() if tracer is not None else None,
    }
    (out / "child.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
