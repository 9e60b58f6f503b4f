"""kacmix benchmark: one command, three workloads, checked against exact references.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the workload's pipeline runs in fresh processes, one after
another, until S seconds have passed (at least twice), and the medians of
the end-to-end metrics are reported.  With --trace 1 the pipeline runs
twice untraced and twice traced at one worker (and twice untraced at two
workers for chaos_sweep), and the per-layer metrics (means of the two
traced pipelines), the tracing overhead and the pool speed-up are
reported.  Every pipeline's outputs are checked; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit status is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
DEADLINE_S = 170.0
# setup_s is a median over at least this many process starts per run; runs
# with fewer full pipelines add probes that stop at the first engine entry.
MIN_SETUPS = 5

SQRT3 = math.sqrt(3.0)
TOY_MIXTURE = {
    "laws": [{"kind": "symmetric_k", "k": 1, "d": 1}, {"kind": "kac_toy", "kernel": "uniform"}],
    "beta": [0.0, 1.0],
}
UNIFORM = {"kind": "uniform", "a": SQRT3}


def _alpha(mixture: dict) -> float:
    """Per-particle collision rate sum_K beta_K K."""
    return sum(b * (k + 1) for k, b in enumerate(mixture["beta"]))


def chaos_doc(seed: int) -> dict:
    return {
        "seed": seed,
        "mixture": TOY_MIXTURE,
        "initial": UNIFORM,
        "chaos": {
            "N_grid": [50, 200, 800],
            "s_list": [1, 2],
            "t_list": [0.5, 1.0],
            "factors": [{"kind": "tanh", "a": 1.0}, {"kind": "cos", "xi": [1.0]}],
            "budget": {"samples_per_point": 40000, "min_replicas": 8, "ref_factor": 2, "ref_replicas": 24},
        },
    }


def chaos_events(doc: dict) -> float:
    spec = doc["chaos"]
    budget = spec["budget"]
    t_end = max(spec["t_list"])
    kac = sum(max(budget["min_replicas"], -(-budget["samples_per_point"] // n)) * n for n in spec["N_grid"])
    n_ref = budget["ref_factor"] * max(spec["N_grid"])
    return (kac + budget["ref_replicas"] * n_ref * _alpha(doc["mixture"])) * t_end


def kac_mixed_doc(seed: int) -> dict:
    t_end = 15.0
    cos = {"kind": "cos", "xi": [0.5, 0.5, 0.5]}
    return {
        "seed": seed,
        "mixture": {
            "laws": [
                {"kind": "symmetric_k", "k": 1, "d": 3},
                {"kind": "binary_maxwell", "d": 3},
                {"kind": "symmetric_k_momentum", "k": 3, "d": 3},
            ],
            "beta": [0.2, 0.5, 0.3],
        },
        "initial": UNIFORM,
        "sim": {
            "N": 3000,
            "t_end": t_end,
            "replicas": 2,
            "times": [0.5 * i for i in range(int(2 * t_end) + 1)],
            "estimator": "all",
        },
        "observables": [
            dict(cos, s=1),
            dict(cos, s=2),
            dict(cos, s=3),
            {"kind": "tanh", "a": 1.0, "s": 1},
            {"kind": "tanh", "a": 1.0, "s": 2},
            {"kind": "box", "lower": [-1.0], "upper": [1.0], "s": 2},
        ],
    }


def kac_mixed_events(doc: dict) -> float:
    sim = doc["sim"]
    return sim["replicas"] * sim["N"] * sim["t_end"]


def boltzmann_doc(seed: int) -> dict:
    t_end = 0.4
    return {
        "seed": seed,
        "mixture": TOY_MIXTURE,
        "initial": UNIFORM,
        "meanfield": {
            "n": 2000,
            "t_end": t_end,
            "replicas": 48,
            "times": [0.0, 0.2, t_end],
            "solver": "both",
            "grid": {"L": 8.0, "n_v": 97, "n_theta": 32, "n_time": 32, "n_iter": 8},
        },
    }


def boltzmann_events(doc: dict) -> float:
    mf = doc["meanfield"]
    return mf["replicas"] * mf["n"] * _alpha(doc["mixture"]) * mf["t_end"]


WORKLOADS = {
    "chaos_sweep": {
        "command": "chaos",
        "workers": 2,
        "doc": chaos_doc,
        "events": chaos_events,
        "check": checks.chaos,
        "outputs": ["chaos.csv", "chaos_summary.json"],
    },
    "kac_mixed_large": {
        "command": "simulate",
        "workers": 1,
        "doc": kac_mixed_doc,
        "events": kac_mixed_events,
        "check": checks.kac_mixed,
        "outputs": ["simulate.csv"],
    },
    "boltzmann_toy": {
        "command": "boltzmann",
        "workers": 1,
        "doc": boltzmann_doc,
        "events": boltzmann_events,
        "check": checks.boltzmann,
        "outputs": ["boltzmann.csv", "boltzmann_density.csv"],
    },
}

END_TO_END = {"wall_s": "s", "events_per_s": "events/s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "laws.apply.calls": "count",
    "laws.apply.groups_per_call": "groups",
    "laws.apply.self_s": "s",
    "laws.sample_angle.calls": "count",
    "laws.sample_angle.self_s": "s",
    "laws.order_draw.self_s": "s",
    "simulator.run.self_s": "s",
    "simulator.us_per_event": "us",
    "simulator.replica_setup_s": "s",
    "simulator.observe.calls": "count",
    "simulator.observe_s": "s",
    "accumulators.add.calls": "count",
    "accumulators.add.self_s": "s",
    "meanfield.run.self_s": "s",
    "meanfield.us_per_event": "us",
    "picard.solve.calls": "count",
    "picard.sweeps": "count",
    "picard.sweep_s": "s",
    "chaos.sweep.self_s": "s",
    "runio.write_s": "s",
    "config.load_s": "s",
    "pool.speedup": "ratio",
    "trace.wall_s": "s",
    "trace.unwrapped_s": "s",
    "trace.overhead": "ratio",
    "trace.absent_layers": "count",
}


def kacmix_seed(seed: int, workload: str) -> int:
    """The seed the program receives, derived from the benchmark seed."""
    index = sorted(WORKLOADS).index(workload)
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint32)[0])


class Bench:
    """One benchmark run: launches pipelines, checks them, gathers metrics."""

    def __init__(self, workload: str, seed: int):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.doc = self.spec["doc"](kacmix_seed(seed, workload))
        self.events = self.spec["events"](self.doc)
        self.dir = RUNS / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(self.doc, indent=1))
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.cache: dict = {}
        self.reps = 0

    def record(self, results) -> None:
        for name, ok, detail in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"CHECK FAILED [{self.name}] {name}: {detail}", file=sys.stderr)

    def launch(self, workers: int, trace: bool, probe: bool = False) -> dict:
        """Run the pipeline once in a fresh process, check it, return its figures.

        A probe stops at the first entry into an engine and only yields setup_s.
        """
        out = self.dir / f"rep{self.reps}"
        self.reps += 1
        out.mkdir()
        job = out.with_suffix(".job.json")
        job.write_text(
            json.dumps(
                {
                    "workload": self.name,
                    "command": self.spec["command"],
                    "config": str(self.config),
                    "out": str(out),
                    "workers": workers,
                    "trace": trace,
                    "probe": probe,
                }
            )
        )
        cmd = [sys.executable, str(HERE / "child.py"), str(job)]
        with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
            launch = time.monotonic()
            proc = subprocess.Popen(
                cmd + [repr(launch)], cwd=ROOT, stdout=so, stderr=se, start_new_session=True
            )
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise RuntimeError(f"{self.name}: pipeline exceeded the {DEADLINE_S:.0f} s run deadline")
        report_path = out / "child.json"
        if proc.returncode != 0 or not report_path.exists():
            tail = (out / "stderr.txt").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"{self.name}: pipeline process failed (rc={proc.returncode}):\n{tail}")
        child = json.loads(report_path.read_text())
        clocks = child["clocks"]
        if probe:
            return {"setup_s": clocks["first_entry"] - launch}
        self.record(self.spec["check"](self.doc, out, child, self.cache))
        wall = clocks["done"] - clocks["call"]
        # RUSAGE_CHILDREN holds the largest worker's peak (0 without a pool).
        pool_kb = child["maxrss_children_kb"] * workers
        figures = {
            "out": out,
            "child": child,
            "wall_s": wall,
            "events_per_s": self.events / wall,
            "peak_rss_mb": (child["maxrss_self_kb"] + pool_kb) / 1024.0,
        }
        if not trace:
            if clocks["first_entry"] is None:
                raise RuntimeError(f"{self.name}: the pipeline never entered an engine or solver")
            figures["setup_s"] = clocks["first_entry"] - launch
        return figures

    def same_outputs(self, a: dict, b: dict, label: str) -> None:
        """Byte-identical data files: the determinism contract."""
        for name in self.spec["outputs"]:
            x, y = (a["out"] / name).read_bytes(), (b["out"] / name).read_bytes()
            self.record([(f"{label}: {name} identical", x == y, f"{len(x)} vs {len(y)} bytes")])

    def timed(self, seconds: float) -> dict:
        workers = self.spec["workers"]
        start = time.monotonic()
        reps = [self.launch(workers, trace=False)]
        while len(reps) < 2 or time.monotonic() - start < seconds:
            reps.append(self.launch(workers, trace=False))
            self.same_outputs(reps[0], reps[-1], "same seed, same bytes")
        print(f"{self.name}: {len(reps)} pipelines, {self.events:.0f} expected events each")
        metrics = {name: statistics.median(r[name] for r in reps) for name in END_TO_END}
        setups = [r["setup_s"] for r in reps]
        while len(setups) < MIN_SETUPS:
            setups.append(self.launch(workers, trace=False, probe=True)["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        return metrics

    def traced(self) -> dict:
        """Per-layer metrics, tracing overhead and pool speed-up.

        Pipelines run in the order C A B B A C (A untraced at 1 worker, B
        traced at 1 worker, C untraced at the workload's worker count, only
        when that is more than 1), so that a drift of the machine's speed
        during the run cancels in the ratios.
        """
        workers = self.spec["workers"]
        pooled = [self.launch(workers, trace=False)] if workers > 1 else []
        serial = [self.launch(1, trace=False)]
        traced = [self.launch(1, trace=True), self.launch(1, trace=True)]
        serial.append(self.launch(1, trace=False))
        if workers > 1:
            pooled.append(self.launch(workers, trace=False))
        for rep in pooled:
            self.same_outputs(rep, serial[0], f"{workers} workers vs 1 worker")
        for rep in traced + serial[1:]:
            self.same_outputs(serial[0], rep, "traced and untraced pipelines")

        per_run = []
        for rep in traced:
            trace = rep["child"]["trace"]
            per_run.append(layer_metrics(trace))
            layer_sum = sum(v["self_s"] for v in trace["stats"].values())
            root = trace["stats"]["pipeline"]["total_s"]
            self.record(
                [
                    (
                        "layer self times add up to the traced wall time",
                        abs(layer_sum - root) <= 1e-6 * root
                        and all(v["self_s"] >= -1e-9 for v in trace["stats"].values()),
                        f"{layer_sum!r} vs {root!r}",
                    )
                ]
            )
        metrics = {name: statistics.mean(m[name] for m in per_run) for name in per_run[0]}

        def wall(reps):
            return sum(r["wall_s"] for r in reps)

        metrics["pool.speedup"] = wall(serial) / wall(pooled) if pooled else 1.0
        metrics["trace.overhead"] = wall(traced) / wall(serial) - 1.0
        for key in traced[0]["child"]["trace"]["absent"]:
            print(f"{self.name}: layer {key} absent (its targets no longer exist)")
        return metrics


def layer_metrics(trace: dict) -> dict:
    stats, groups = trace["stats"], trace["groups"]

    def get(key, field):
        return stats[key][field] if key in stats else 0.0

    def per_event(key, engine):
        return 1e6 * get(key, "self_s") / groups[engine] if groups[engine] else 0.0

    apply_calls = get("laws.apply", "calls")
    sweeps = trace["sweeps"]
    return {
        "laws.apply.calls": apply_calls,
        "laws.apply.groups_per_call": sum(groups.values()) / apply_calls if apply_calls else 0.0,
        "laws.apply.self_s": get("laws.apply", "self_s"),
        "laws.sample_angle.calls": get("laws.sample_angle", "calls"),
        "laws.sample_angle.self_s": get("laws.sample_angle", "self_s"),
        "laws.order_draw.self_s": get("laws.order_draw", "self_s"),
        "simulator.run.self_s": get("simulator.run", "self_s"),
        "simulator.us_per_event": per_event("simulator.run", "simulator"),
        "simulator.replica_setup_s": get("simulator.replica_setup", "self_s"),
        "simulator.observe.calls": get("simulator.observe", "calls"),
        "simulator.observe_s": get("simulator.observe", "self_s"),
        "accumulators.add.calls": get("accumulators.add", "calls"),
        "accumulators.add.self_s": get("accumulators.add", "self_s"),
        "meanfield.run.self_s": get("meanfield.run", "self_s"),
        "meanfield.us_per_event": per_event("meanfield.run", "meanfield"),
        "picard.solve.calls": get("picard.solve", "calls"),
        "picard.sweeps": sweeps,
        "picard.sweep_s": get("picard.solve", "total_s") / sweeps if sweeps else 0.0,
        "chaos.sweep.self_s": get("chaos.sweep", "self_s"),
        "runio.write_s": get("runio.write", "self_s"),
        "config.load_s": get("config.load", "self_s"),
        "trace.wall_s": get("pipeline", "total_s"),
        "trace.unwrapped_s": get("pipeline", "self_s"),
        "trace.absent_layers": len(trace["absent"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kacmix" / "__init__.py").is_file():
        print(f"benchmark: no kacmix sources under {ROOT / 'src'}; run from a kacmix checkout", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    try:
        if args.trace:
            metrics, units = bench.traced(), PER_LAYER
        else:
            metrics, units = bench.timed(args.seconds), END_TO_END
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:.6g} {unit}")
    print(f"checks: {bench.attempted} attempted, {bench.failed} failed")
    correct = bench.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
