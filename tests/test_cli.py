"""End-to-end command checks: exit codes, file layout, reproducibility."""

import csv
import json

import numpy as np
import pytest

import kacmix.cli as cli
from kacmix.chaos import ChaosReport, ChaosRow
from kacmix.cli import BUILTIN_LAWS, main

TOY_LAWS = [
    {"kind": "symmetric_k", "k": 1, "d": 1},
    {"kind": "kac_toy"},
]
TOY_MIXTURE = {"laws": TOY_LAWS, "beta": [0.0, 1.0]}


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def run_cli(args):
    return main(list(args))


def csv_lines(path):
    return path.read_text().splitlines()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def simulate_doc(**sim):
    body = {"N": 8, "t_end": 0.25, "replicas": 2, "times": [0.0, 0.25]}
    body.update(sim)
    return {"mixture": TOY_MIXTURE, "sim": body, "seed": 5}


def test_simulate_writes_manifest_and_table(tmp_path):
    cfg = write_config(tmp_path, simulate_doc())
    out = tmp_path / "out"
    code = run_cli(["simulate", "--config", cfg, "--output-dir", str(out)])
    assert code == 0
    lines = csv_lines(out / "simulate.csv")
    assert lines[0] == "time,observable,mean,stderr,N,replicas,seed"
    assert len(lines) == 1 + 2 * 8  # two sample times, eight moment channels
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 5
    assert manifest["row_counts"] == {"simulate.csv": 16}
    assert manifest["config"]["sim"]["N"] == 8
    first = lines[1].split(",")
    assert first[0] == "0" and first[4] == "8" and first[6] == "5"


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, simulate_doc())
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["simulate", "--config", cfg, "--output-dir", str(a)]) == 0
    assert run_cli(["simulate", "--config", cfg, "--output-dir", str(b), "--workers", "2"]) == 0
    assert (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    # only the clock, the deliberately different output_dir and the timings
    # of the metrics block may vary; the ignored --workers leaves no trace
    metrics = []
    for m in (ma, mb):
        m.pop("wall_clock_utc")
        m["config"].pop("output_dir")
        metrics.append(m.pop("metrics"))
    assert ma == mb
    assert not any("workers" in m for m in metrics)
    events = [m["solvers"]["kac"]["events_by_order"] for m in metrics]
    assert events[0] == events[1]


def assert_phases(metrics):
    """config, engine, reduce and write seconds; engine is the solvers' engine time (0 without)."""
    phases = metrics["phases"]
    assert set(phases) == {"config", "engine", "reduce", "write"}
    assert all(value >= 0.0 for value in phases.values())
    solvers = metrics.get("solvers", {}).values()
    assert phases["engine"] == pytest.approx(sum(e["engine_s"] for e in solvers))


def test_manifest_metrics_count_events_per_solver_and_order(tmp_path):
    """The metrics block counts the applied events and times the phases; the CSVs do not carry it."""
    cfg = write_config(tmp_path, simulate_doc(N=20, t_end=0.5, replicas=3, times=[0.5]))
    out = tmp_path / "sim"
    assert run_cli(["simulate", "--config", cfg, "--output-dir", str(out), "--workers", "2"]) == 0
    metrics = json.loads((out / "manifest.json").read_text())["metrics"]
    assert "workers" not in metrics
    kac = metrics["solvers"]["kac"]
    assert set(kac) == {"events", "events_by_order", "engine_s", "events_per_s", "rounds", "replica_group"}
    assert kac["replica_group"] == {"20": 819}  # GROUP_PARTICLES // N replicas per engine pass
    assert kac["rounds"] == 1  # one group, one interval, under one block of events per replica
    assert_phases(metrics)
    assert kac["events_by_order"]["1"] == 0  # zero-weight order never fires
    assert kac["events"] == kac["events_by_order"]["2"] > 0
    assert kac["engine_s"] > 0 and kac["events_per_s"] == kac["events"] / kac["engine_s"]
    with open(out / "simulate.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    mean_events = [float(r["mean"]) for r in rows if r["observable"] == "events"]
    assert mean_events == [kac["events"] / 3]
    text = (out / "simulate.csv").read_text()
    assert "metrics" not in text and "phases" not in text and "replica_group" not in text

    doc = {
        "mixture": TOY_MIXTURE,
        "meanfield": {
            "n": 16,
            "t_end": 0.05,
            "replicas": 2,
            "solver": "both",
            "grid": {"n_v": 65, "n_theta": 16, "n_time": 8, "n_iter": 5},
        },
    }
    out = tmp_path / "boltz"
    cfg = write_config(tmp_path, doc, name="boltz.json")
    assert run_cli(["boltzmann", "--config", cfg, "--output-dir", str(out)]) == 0
    metrics = json.loads((out / "manifest.json").read_text())["metrics"]
    assert "workers" not in metrics
    assert metrics["numpy"] == np.__version__
    assert set(metrics["solvers"]) == {"meanfield", "picard"}
    assert metrics["solvers"]["meanfield"]["events"] > 0
    assert metrics["solvers"]["meanfield"]["replica_group"] == {"16": 1024}
    assert_phases(metrics)
    picard = metrics["solvers"]["picard"]
    assert set(picard) == {"engine_s", "substeps", "sweeps", "mass_drift", "angular_nodes"}
    assert picard["engine_s"] > 0
    assert (picard["substeps"], picard["sweeps"], picard["angular_nodes"]) == (1, 5, 64)
    assert 0.0 <= picard["mass_drift"] <= 1e-4
    with open(out / "boltzmann.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    mass = [float(r["mean"]) for r in rows if r["solver"] == "picard" and r["observable"] == "mass"]
    assert abs(mass[0] - 1.0) <= picard["mass_drift"]
    for name in ("boltzmann.csv", "boltzmann_density.csv"):
        text = (out / name).read_text()
        assert "numpy" not in text and "phases" not in text and "replica_group" not in text

    # every manifest records the numpy version and the phases, also those without solvers
    out = tmp_path / "hier"
    cfg = write_config(tmp_path, hierarchy_doc(), name="hier.json")
    assert run_cli(["hierarchy", "--config", cfg, "--output-dir", str(out)]) == 0
    metrics = json.loads((out / "manifest.json").read_text())["metrics"]
    assert set(metrics) == {"numpy", "phases"} and metrics["numpy"] == np.__version__
    assert_phases(metrics)
    assert metrics["phases"]["engine"] == 0


def test_manifest_is_written_before_any_result_file(tmp_path, monkeypatch):
    """A writer that fails leaves the first manifest (write phase still null) and no result."""

    def refuse(path, *args):
        raise RuntimeError(f"cannot write {path.name}")

    monkeypatch.setattr(cli, "write_csv", refuse)
    cfg = write_config(tmp_path, simulate_doc())
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--output-dir", str(out)]) == 1
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["row_counts"] == {"simulate.csv": 16}
    assert manifest["metrics"]["phases"]["write"] is None


def test_simulate_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, simulate_doc())
    base, reseeded, explicit = tmp_path / "s5", tmp_path / "s9", tmp_path / "e9"
    run_cli(["simulate", "--config", cfg, "--output-dir", str(base)])
    run_cli(["simulate", "--config", cfg, "--output-dir", str(reseeded), "--seed", "9"])
    doc9 = simulate_doc()
    doc9["seed"] = 9
    cfg9 = write_config(tmp_path, doc9, name="run9.json")
    run_cli(["simulate", "--config", cfg9, "--output-dir", str(explicit)])
    assert (reseeded / "simulate.csv").read_bytes() != (base / "simulate.csv").read_bytes()
    assert (reseeded / "simulate.csv").read_bytes() == (explicit / "simulate.csv").read_bytes()


def test_simulate_set_overrides_and_observables(tmp_path):
    doc = simulate_doc()
    doc["observables"] = [{"kind": "tanh", "s": 2}]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    code = run_cli(
        ["simulate", "--config", cfg, "--output-dir", str(out),
         "--set", "sim.N=12", "--set", "sim.times=[0.25]"]
    )
    assert code == 0
    lines = csv_lines(out / "simulate.csv")
    assert len(lines) == 1 + 8 + 1  # moment channels plus the product observable
    assert any("tanh[1]*tanh[1]" in line for line in lines[1:])
    assert all(line.split(",")[4] == "12" for line in lines[1:])


def test_simulate_without_config_is_a_config_error(tmp_path, capsys):
    assert run_cli(["simulate", "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "mixture" in err


def test_simulate_rejects_system_smaller_than_max_order(tmp_path, capsys):
    cfg = write_config(tmp_path, simulate_doc(N=1))
    assert run_cli(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    assert "N >= " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("simulate", dict(simulate_doc(N=2), observables=[{"kind": "tanh", "s": 3}]), "s=3 exceeds N=2"),
        ("simulate", simulate_doc(times=[0.0, 0.5]), "observer time 0.5 outside"),
        ("simulate", simulate_doc(times=[0.25, 0.0]), "strictly increasing"),
        ("simulate", dict(simulate_doc(), initial={"kind": "deterministic", "velocities": [[1.0]]}), "shape"),
        ("boltzmann", {"mixture": TOY_MIXTURE, "meanfield": {"n": 1, "t_end": 0.1}}, "N >= M"),
        ("chaos", {"mixture": TOY_MIXTURE, "chaos": {"N_grid": [1, 8], "t_list": [0.1]}}, "N >= M"),
        (
            "simulate",
            dict(simulate_doc(), observables=[{"kind": "cos", "xi": [1, 1]}]),
            "sim: cos[1,1]: points have d=1, frequency has d=2",
        ),
        (
            "chaos",
            {
                "mixture": TOY_MIXTURE,
                "chaos": {
                    "N_grid": [8, 16],
                    "t_list": [0.1],
                    "factors": [{"kind": "box", "lower": [-1, -1], "upper": [1, 1]}],
                },
            },
            "chaos: box[-1,-1:1,1]: bounds have length 2, points have d=1",
        ),
    ],
    ids=["order", "time", "times", "deterministic", "meanfield", "chaos", "factor-dim", "chaos-factor-dim"],
)
def test_faults_across_sections_are_config_errors(tmp_path, capsys, command, doc, message):
    """Checks that join sections run before the engine: exit 2, and nothing is written."""
    out = tmp_path / "o"
    assert run_cli([command, "--config", write_config(tmp_path, doc), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


def test_failure_inside_the_engine_exits_1(tmp_path, capsys, monkeypatch):
    """A ValueError raised once the engine runs is a failed run, not a config error."""

    def broken(self, angle, group):
        raise ValueError("collision law broke")

    monkeypatch.setattr(cli.KacToy, "apply", broken)
    out = tmp_path / "o"
    assert run_cli(["simulate", "--config", write_config(tmp_path, simulate_doc()), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == "run failed: collision law broke\n"


def test_nested_output_dir_is_created(tmp_path):
    doc = simulate_doc(t_end=0.0, times=[0.0])
    doc["output_dir"] = str(tmp_path / "deep" / "runs")
    cfg = write_config(tmp_path, doc)
    assert run_cli(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "deep" / "runs" / "simulate.csv").exists()


# ---------------------------------------------------------------------------
# config / argument failure modes
# ---------------------------------------------------------------------------


def test_missing_config_file(tmp_path, capsys):
    assert run_cli(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_malformed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, simulate_doc())
    assert run_cli(["simulate", "--config", cfg, "--set", "sim.N"]) == 2
    assert "section.key=value" in capsys.readouterr().err


def test_duplicate_config_key(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text('{\n "seed": 1,\n "seed": 2\n}')
    assert run_cli(["laws-check", "--config", str(path), "--output-dir", str(tmp_path / "o")]) == 2
    assert "duplicate key" in capsys.readouterr().err


def test_unknown_law_kind_exits_2(tmp_path, capsys):
    doc = {"mixture": {"laws": [{"kind": "billiard"}], "beta": [1.0]}, "sim": {"N": 4, "t_end": 0.0}}
    cfg = write_config(tmp_path, doc)
    assert run_cli(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    assert "unknown law kind 'billiard'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# hierarchy
# ---------------------------------------------------------------------------


def hierarchy_doc(epsilon=0.0, **extra):
    hier = {"epsilon": epsilon}
    hier.update(extra)
    return {
        "mixture": {"laws": TOY_LAWS, "beta": [0.5, 0.5]},
        "hierarchy": hier,
    }


def test_hierarchy_emits_frozen_constants(tmp_path):
    cfg = write_config(tmp_path, hierarchy_doc())
    out = tmp_path / "out"
    assert run_cli(["hierarchy", "--config", cfg, "--output-dir", str(out)]) == 0

    constants = csv_lines(out / "hierarchy_constants.csv")
    assert constants[0] == "k,R_k,rho_k,C_k"
    assert constants[1] == "0,2,1,0.5"
    assert constants[2] == "1,2,2,0"

    horizon = csv_lines(out / "hierarchy_horizon.csv")
    assert horizon[0] == "M,epsilon,T_star,T_max,T,theta1,theta2"
    cells = horizon[1].split(",")
    assert cells[0] == "2" and cells[2] == "0.13447071068499755"
    assert cells[2] == cells[3]  # T_max = T_star when M - 1 = 1
    assert cells[5] == "0.49999999999999994"

    sweep = csv_lines(out / "hierarchy_sweep.csv")
    manifest = json.loads((out / "manifest.json").read_text())
    # default grids: 7 sizes x 4 orders x k in {0, 1}
    assert len(sweep) - 1 == 7 * 4 * 2 == manifest["row_counts"]["hierarchy_sweep.csv"]
    assert sweep[0] == "N,s,k,lambda,abs_gap"
    single = [line for line in sweep[1:] if line.startswith("10,1,0,")]
    assert single == ["10,1,0,1,0"]  # s = 1 rows are exactly 1


def test_hierarchy_epsilon_domain_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, hierarchy_doc(epsilon=1.0))
    assert run_cli(["hierarchy", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    assert "tail weight epsilon" in capsys.readouterr().err


def test_hierarchy_respects_explicit_grids(tmp_path):
    cfg = write_config(
        tmp_path, hierarchy_doc(N_grid=[10, 100], s_list=[2], k_list=[1], T=0.01)
    )
    out = tmp_path / "out"
    assert run_cli(["hierarchy", "--config", cfg, "--output-dir", str(out)]) == 0
    sweep = csv_lines(out / "hierarchy_sweep.csv")
    assert len(sweep) - 1 == 2
    assert sweep[1].startswith("10,2,1,")


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------


def chaos_doc():
    return {
        "mixture": TOY_MIXTURE,
        "chaos": {
            "N_grid": [8, 16],
            "t_list": [0.0],
            "budget": {
                "samples_per_point": 800,
                "min_replicas": 4,
                "ref_factor": 2,
                "ref_replicas": 4,
            },
            "pass_threshold": 0.5,
        },
        "seed": 13,
    }


def test_chaos_writes_report_and_summary(tmp_path):
    doc = chaos_doc()
    doc["chaos"]["factors"] = [
        {"kind": "tanh", "a": 1.0},
        {"kind": "cos", "xi": [1.0]},
        {"kind": "box", "lower": [-1.0], "upper": [1.0]},
    ]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run_cli(["chaos", "--config", cfg, "--output-dir", str(out)]) == 0
    lines = csv_lines(out / "chaos.csv")
    # 2 sizes x default s {1,2} x 1 time x 3 factors
    assert len(lines) - 1 == 12
    assert lines[0].startswith("N,s,t,observable,")
    summary = json.loads((out / "chaos_summary.json").read_text())
    assert summary["n_rows"] == 12
    assert summary["pass_fraction"] >= 0.75
    # only the box cells, which have no exact limit value, take the sampled reference
    assert summary["n_ref"] == 32
    assert summary["references"] == {
        "tanh[1]": "symmetry",
        "tanh[1]*tanh[1]": "symmetry",
        "cos[1]": "gaussian",
        "cos[1]*cos[1]": "gaussian",
        "box[-1:1]": "sampler",
        "box[-1:1]*box[-1:1]": "sampler",
    }
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["row_counts"]["chaos.csv"] == 12
    solvers = manifest["metrics"]["solvers"]
    assert set(solvers) == {"kac", "sampler"}
    assert solvers["kac"]["events"] == solvers["kac"]["rounds"] == 0  # t_end = 0
    assert solvers["kac"]["replica_group"] == {"8": 2048, "16": 1024}
    # 4 ensembles of 32 samples at t = 0, each a leaf drawn from the initial law
    assert solvers["sampler"]["samples"] == solvers["sampler"]["leaves"] == 128
    assert_phases(manifest["metrics"])


def test_chaos_below_threshold_exits_1(tmp_path, capsys, monkeypatch):
    failing_row = ChaosRow(
        N=8, s=1, t=0.0, observable="g", kac_mean=1.0, kac_stderr=1e-4,
        mf_mean=0.0, mf_stderr=1e-4, delta=1.0, pass_3sigma=False, underpowered=False,
    )
    fake = ChaosReport(rows=(failing_row,), slopes=(), seed=13, n_ref=32, ref_replicas=4)
    monkeypatch.setattr(cli, "run_chaos_sweep", lambda *a, **k: fake)
    cfg = write_config(tmp_path, chaos_doc())
    out = tmp_path / "out"
    assert run_cli(["chaos", "--config", cfg, "--output-dir", str(out)]) == 1
    assert "below threshold" in capsys.readouterr().err
    # the report files are still written for post-mortems
    assert (out / "chaos.csv").exists() and (out / "chaos_summary.json").exists()


def test_chaos_missing_grid_exits_2(tmp_path, capsys):
    doc = chaos_doc()
    del doc["chaos"]["N_grid"]
    cfg = write_config(tmp_path, doc)
    assert run_cli(["chaos", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    assert "missing required key 'N_grid'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# boltzmann
# ---------------------------------------------------------------------------


def test_boltzmann_meanfield_rows_carry_solver_column(tmp_path):
    doc = {
        "mixture": TOY_MIXTURE,
        "meanfield": {"n": 64, "t_end": 0.2, "replicas": 2},
        "seed": 3,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run_cli(["boltzmann", "--config", cfg, "--output-dir", str(out)]) == 0
    lines = csv_lines(out / "boltzmann.csv")
    assert lines[0] == "time,observable,mean,stderr,N,replicas,seed,solver"
    assert len(lines) - 1 == 8
    assert all(line.endswith(",meanfield") for line in lines[1:])
    assert not (out / "boltzmann_density.csv").exists()


def test_boltzmann_picard_emits_density(tmp_path):
    doc = {
        "mixture": TOY_MIXTURE,
        "meanfield": {
            "n": 4,
            "t_end": 0.05,
            "solver": "picard",
            "grid": {"n_v": 65, "n_theta": 16, "n_time": 8, "n_iter": 5},
        },
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run_cli(["boltzmann", "--config", cfg, "--output-dir", str(out)]) == 0
    lines = csv_lines(out / "boltzmann.csv")
    assert len(lines) - 1 == 3  # mass, m2, m4 from the grid solver
    names = {line.split(",")[1] for line in lines[1:]}
    assert names == {"mass", "m2", "m4"}
    assert all(line.endswith(",picard") for line in lines[1:])
    mass = float([line for line in lines[1:] if ",mass," in line][0].split(",")[2])
    assert abs(mass - 1.0) < 1e-3
    density = csv_lines(out / "boltzmann_density.csv")
    assert density[0] == "v,f" and len(density) - 1 == 65
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["row_counts"]["boltzmann_density.csv"] == 65


def test_boltzmann_picard_requires_pure_toy_mixture(tmp_path, capsys):
    doc = {
        "mixture": {
            "laws": [{"kind": "symmetric_k", "k": 1, "d": 1}, {"kind": "binary_maxwell", "d": 1}],
            "beta": [0.0, 1.0],
        },
        "meanfield": {"n": 4, "t_end": 0.05, "solver": "picard"},
    }
    cfg = write_config(tmp_path, doc)
    assert run_cli(["boltzmann", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    assert "toy rotation law" in capsys.readouterr().err


def test_boltzmann_picard_rejects_unsupported_initial(tmp_path, capsys):
    doc = {
        "mixture": TOY_MIXTURE,
        "initial": {"kind": "two_point", "a": 1.0},
        "meanfield": {"n": 4, "t_end": 0.05, "solver": "picard"},
    }
    cfg = write_config(tmp_path, doc)
    assert run_cli(["boltzmann", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    assert "gaussian or uniform" in capsys.readouterr().err


def test_boltzmann_picard_rejects_n_theta_below_kernel_harmonics(tmp_path, capsys):
    """raised_cosine carries the harmonic k = 1, which n_theta = 1 cannot; the
    run stops before the mean-field half starts and writes nothing."""
    doc = {
        "mixture": {"laws": [TOY_LAWS[0], {"kind": "kac_toy", "kernel": "raised_cosine"}], "beta": [0.0, 1.0]},
        "meanfield": {"n": 4, "t_end": 0.05, "solver": "both", "grid": {"n_v": 33, "n_theta": 1}},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert run_cli(["boltzmann", "--config", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "n_theta=1" in err
    assert not out.exists()
    doc["meanfield"]["grid"]["n_theta"] = 2
    cfg = write_config(tmp_path, doc)
    assert run_cli(["boltzmann", "--config", cfg, "--output-dir", str(out)]) == 0


# ---------------------------------------------------------------------------
# laws-check
# ---------------------------------------------------------------------------


def test_laws_check_builtin_catalog_passes(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["laws-check", "--output-dir", str(out)]) == 0
    with open(out / "laws_check.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["law", "test", "value", "stderr", "n_samples", "result"]
    body = table[1:]
    assert len(body) == 3 * len(BUILTIN_LAWS)
    assert all(row[5] == "PASS" for row in body)
    # each (fully parameterized law label, test) pair appears exactly once
    labels = {law.describe for law in BUILTIN_LAWS}
    assert len(labels) == len(BUILTIN_LAWS)
    assert sorted((row[0], row[1]) for row in body) == sorted(
        (label, test) for label in labels for test in ("H1", "H2", "H3")
    )
    # pointwise involutions report their H2 defect as an exact zero
    exact = [row for row in body if row[1] == "H2" and row[0].startswith(("binary", "symmetric"))]
    assert len(exact) == 7
    assert all(row[2] == "0" and row[3] == "0" for row in exact)


def test_laws_check_uses_config_mixture(tmp_path):
    cfg = write_config(tmp_path, {"mixture": TOY_MIXTURE})
    out = tmp_path / "out"
    assert run_cli(["laws-check", "--config", cfg, "--output-dir", str(out)]) == 0
    lines = csv_lines(out / "laws_check.csv")
    assert len(lines) - 1 == 3 * 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "laws-check"
    assert manifest["row_counts"] == {"laws_check.csv": 6}
    assert set(manifest["metrics"]) == {"numpy", "phases"}
    assert_phases(manifest["metrics"])
    assert manifest["metrics"]["phases"]["engine"] == 0
