"""Acceptance suite: eleven desk-scale checks covering the whole toolkit.

Each test prints one `[acceptance NN] name: PASS/FAIL` line (visible under
``pytest -s`` or in the captured output) and asserts the criterion including
its runtime budget.  Criteria 3, 9 and 10 write their result CSVs through the
production writers; criterion 11 re-runs those three pipelines with the same
seeds and demands byte-identical bodies.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from kacmix.chaos import ChaosBudget, run_chaos_sweep
from kacmix.cli import BUILTIN_LAWS, H1_TOLERANCE, laws_check_rows
from kacmix.hierarchy import (
    coeff_leading,
    duhamel_remainder_factor,
    hierarchy_constants,
    verify_trace_identity,
)
from kacmix.laws import (
    BinaryMaxwell,
    KacToy,
    MixtureSpec,
    SymmetricK,
    h1_max_error,
)
from kacmix.meanfield import meanfield_run
from kacmix.observables import CosineFactor, TanhFactor
from kacmix.picard import gaussian_grid_density, picard_solve_toy
from kacmix.runio import (
    run_result_header,
    run_result_rows,
    write_chaos_csv,
    write_csv,
)
from kacmix.simulator import (
    GaussianInitial,
    MasterState,
    MomentObserver,
    SimConfig,
    replica_rng,
    run,
    step,
)

pytestmark = pytest.mark.acceptance

TOY_MIXTURE = MixtureSpec((SymmetricK(k=1, d=1), KacToy()), (0.0, 1.0))

# first-run CSV bytes of criteria 3, 9, 10, consumed by criterion 11
_FIRST_RUN: dict = {}


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1-2: collision law validation
# ---------------------------------------------------------------------------


def test_criterion_01_energy_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for i, law in enumerate(BUILTIN_LAWS):
        err = h1_max_error(law, n_samples=10**4, rng=replica_rng(1001, i))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, "energy exactness", ok, f"max defect {worst:.2e}, {elapsed:.1f}s < 5s")


def test_criterion_02_involution_and_symmetry():
    t0 = time.perf_counter()
    rows = laws_check_rows(BUILTIN_LAWS, seed=1002, n_samples=10**5)
    elapsed = time.perf_counter() - t0
    all_pass = all(row[5] == "PASS" for row in rows)
    exact = True
    for label, test, value, stderr, _, _ in rows:
        family = label.split("(")[0]
        if test == "H2" and family in ("binary_maxwell", "symmetric_k", "symmetric_k_momentum"):
            exact = exact and value == 0.0 and stderr == 0.0
        if test == "H3" and family == "binary_maxwell":
            exact = exact and value == 0.0 and stderr == 0.0
    ok = all_pass and exact and elapsed < 30.0
    _report(
        2,
        "involution/symmetry checks",
        ok,
        f"{len(rows)} rows all PASS={all_pass}, exact zeros={exact}, {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# 3: the jump clock
# ---------------------------------------------------------------------------


def _criterion3_pipeline(out_path) -> tuple:
    config = SimConfig(
        N=100, mixture=TOY_MIXTURE, t_end=1.0, seed=1003, replicas=2000,
        initial=GaussianInitial(),
    )
    result = run(config, [MomentObserver([1.0])])
    write_csv(out_path, run_result_header(), run_result_rows(result))
    return result, out_path.read_bytes()


def test_criterion_03_poisson_clock(tmp_path):
    t0 = time.perf_counter()
    result, body = _criterion3_pipeline(tmp_path / "simulate.csv")
    elapsed = time.perf_counter() - t0
    _FIRST_RUN[3] = body

    series = result.series[0]
    replicas = result.replicas
    mean_hat = float(series.mean("events")[0])
    var_hat = float(series.stderr("events")[0]) ** 2 * replicas
    lam = 100.0  # Poisson(N t) with N = 100, t = 1
    mean_band = 4.0 * math.sqrt(lam / replicas)
    var_band = 4.0 * lam * math.sqrt(2.0 / (replicas - 1))
    mean_ok = abs(mean_hat - lam) <= mean_band
    var_ok = abs(var_hat - lam) <= var_band
    ok = mean_ok and var_ok and elapsed < 30.0
    _report(
        3,
        "jump-process clock",
        ok,
        f"mean {mean_hat:.3f} (band {mean_band:.3f}), var {var_hat:.2f} "
        f"(band {var_band:.2f}), {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# 4: trajectory energy conservation
# ---------------------------------------------------------------------------


def test_criterion_04_energy_drift():
    t0 = time.perf_counter()
    mixture = MixtureSpec(
        (SymmetricK(k=1, d=1), KacToy(), SymmetricK(k=3, d=1)), (0.0, 0.5, 0.5)
    )
    rng = replica_rng(1004, 0)
    state = MasterState(rng.standard_normal((1000, 1)))
    e0 = float((state.velocities**2).sum())
    for _ in range(10**6):
        step(state, mixture, rng)
    drift = abs(float((state.velocities**2).sum()) - e0) / e0
    elapsed = time.perf_counter() - t0
    ok = drift <= 1e-8 and elapsed < 60.0
    _report(4, "trajectory energy drift", ok, f"drift {drift:.2e} after 1e6 events, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 5: the partial trace identity
# ---------------------------------------------------------------------------


def test_criterion_05_trace_identity_matrix():
    t0 = time.perf_counter()
    failures = []
    cells = 0
    seeds = np.random.SeedSequence(1005).spawn(64)
    for d in (1, 2):
        laws = (SymmetricK(k=1, d=d), BinaryMaxwell(d=d), SymmetricK(k=3, d=d))
        for law in laws:
            K = law.order
            for N in (4, 6):
                for s in (1, 2):
                    for n_overlap in range(1, K + 1):
                        if n_overlap > min(K, s) or s + (K - n_overlap) > N:
                            continue
                        rep = verify_trace_identity(
                            law,
                            n_overlap=n_overlap,
                            N=N,
                            s=s,
                            n_samples=10**6,
                            rng=np.random.default_rng(seeds[cells]),
                        )
                        cells += 1
                        if not rep.passed:
                            failures.append(
                                (law.describe, N, s, n_overlap, rep.difference, rep.diff_stderr)
                            )
    elapsed = time.perf_counter() - t0
    ok = cells > 0 and not failures and elapsed < 300.0
    _report(
        5,
        "partial trace identity",
        ok,
        f"{cells} cells, failures {failures or 'none'}, {elapsed:.1f}s < 300s",
    )


# ---------------------------------------------------------------------------
# 6-8: hierarchy scalars
# ---------------------------------------------------------------------------


def test_criterion_06_coefficient_limit():
    t0 = time.perf_counter()
    exact = all(
        coeff_leading(n, 1, k) == 1.0
        for n in (1, 10, 100, 10**3, 10**4, 10**5, 10**6)
        for k in range(5)
        if 1 + k <= n
    )
    slopes = {}
    grid = [100, 1000, 10**4, 10**5]
    for s in (2, 3, 5):
        for k in (1, 2):
            gaps = [abs(coeff_leading(n, s, k) - 1.0) for n in grid]
            slopes[(s, k)] = float(np.polyfit(np.log(grid), np.log(gaps), 1)[0])
    slope_ok = all(abs(v + 1.0) <= 0.05 for v in slopes.values())
    elapsed = time.perf_counter() - t0
    ok = exact and slope_ok and elapsed < 5.0
    _report(
        6,
        "coefficient limit",
        ok,
        f"s=1 exact={exact}, slopes {sorted(slopes.values())[0]:.3f}"
        f"..{sorted(slopes.values())[-1]:.3f} in -1 +/- 0.05, {elapsed:.2f}s < 5s",
    )


def test_criterion_07_constants_cross_check():
    t0 = time.perf_counter()
    hc = hierarchy_constants(M=2, betas=(0.5, 0.5), epsilon=0.0)
    t_star_exact = 1.0 / (2.0 + 2.0 * math.e)
    gaps = (
        abs(hc.R[0] - 2.0),
        abs(hc.R[1] - 2.0),
        abs(hc.rho[0] - 1.0),
        abs(hc.rho[1] - 2.0),
        abs(hc.T_star - t_star_exact),
    )
    elapsed = time.perf_counter() - t0
    ok = max(gaps) <= 1e-12 and elapsed < 1.0
    _report(
        7,
        "hierarchy constants",
        ok,
        f"R=({hc.R[0]:g},{hc.R[1]:g}), rho=({hc.rho[0]:g},{hc.rho[1]:g}), "
        f"max gap {max(gaps):.1e} <= 1e-12, {elapsed:.3f}s < 1s",
    )


def test_criterion_08_duhamel_decay():
    t0 = time.perf_counter()
    hc = hierarchy_constants(M=2, betas=(0.5, 0.5), epsilon=0.0)
    T = hc.T_max / 2.0
    details = []
    ok = True
    for s in (1, 2, 4):
        vals = [duhamel_remainder_factor(s, n, m=1, T=T, T_star=hc.T_star) for n in range(1, 201)]
        first_small = next((n for n, v in enumerate(vals, start=1) if v < 1e-6), None)
        peak = max(range(len(vals)), key=vals.__getitem__)
        tail = vals[peak:]
        monotone = all(a >= b for a, b in zip(tail, tail[1:]))
        ok = ok and first_small is not None and monotone
        details.append(f"s={s}: <1e-6 at n={first_small}, monotone={monotone}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(8, "integral remainder decay", ok, "; ".join(details) + f", {elapsed:.3f}s < 1s")


# ---------------------------------------------------------------------------
# 9: grid solver against the mean-field sampler
# ---------------------------------------------------------------------------


def _criterion9_pipeline(out_path) -> tuple:
    mf = meanfield_run(
        SimConfig(N=10**5, mixture=TOY_MIXTURE, t_end=0.1, seed=1009, replicas=200, initial=GaussianInitial()),
        [MomentObserver([0.1])],
    )
    sol = picard_solve_toy("uniform", gaussian_grid_density(), t_end=0.1)
    rows = list(run_result_rows(mf, include_solver=True))
    density = sol.density
    for name, value in (("mass", density.mass()), ("m2", density.moment(2)), ("m4", density.moment(4))):
        rows.append((0.1, name, value, 0.0, density.n_v, 1, 1009, "picard"))
    write_csv(out_path, run_result_header(include_solver=True), rows)
    return mf, density, out_path.read_bytes()


def test_criterion_09_solver_cross_validation(tmp_path):
    t0 = time.perf_counter()
    mf, density, body = _criterion9_pipeline(tmp_path / "boltzmann.csv")
    elapsed = time.perf_counter() - t0
    _FIRST_RUN[9] = body

    series = mf.series[0]
    m4_mc = float(series.mean("m4")[0])
    m4_se = float(series.stderr("m4")[0])
    m4_grid = density.moment(4)
    mass_gap = abs(density.mass() - 1.0)
    tol = 3.0 * (m4_se + 1e-3)
    m4_ok = abs(m4_grid - m4_mc) <= tol
    ok = m4_ok and mass_gap <= 1e-4 and elapsed < 300.0
    _report(
        9,
        "solver cross-validation",
        ok,
        f"m4 grid {m4_grid:.5f} vs sampler {m4_mc:.5f} (tol {tol:.2e}), "
        f"mass gap {mass_gap:.1e} <= 1e-4, {elapsed:.0f}s < 300s",
    )


# ---------------------------------------------------------------------------
# 10: propagation of chaos on the size grid
# ---------------------------------------------------------------------------


def _criterion10_pipeline(out_path) -> tuple:
    report = run_chaos_sweep(
        TOY_MIXTURE,
        GaussianInitial(),
        N_grid=[50, 200, 800, 3200],
        s_list=[1, 2],
        t_list=[1.0],
        factors=[TanhFactor(), CosineFactor((1.0,))],
        budget=ChaosBudget(),
        seed=1010,
    )
    write_chaos_csv(out_path, report)
    return report, out_path.read_bytes()


def test_criterion_10_propagation_of_chaos(tmp_path):
    t0 = time.perf_counter()
    report, body = _criterion10_pipeline(tmp_path / "chaos.csv")
    elapsed = time.perf_counter() - t0
    _FIRST_RUN[10] = body

    budget_ok = all(row.kac_stderr <= 2e-3 for row in report.rows)
    largest = [row for row in report.rows if row.N == 3200]
    largest_ok = len(largest) == 4 and all(row.pass_3sigma for row in largest)
    drift_ok = True
    for factor in ("tanh[1]*tanh[1]", "cos[1]*cos[1]"):
        cells = sorted(
            (row for row in report.rows if row.s == 2 and row.observable == factor),
            key=lambda row: row.N,
        )
        for a, b in zip(cells, cells[1:]):
            band = 2.0 * (a.kac_stderr + a.mf_stderr + b.kac_stderr + b.mf_stderr)
            if b.delta > a.delta + band:
                drift_ok = False
    ok = budget_ok and largest_ok and drift_ok and elapsed < 1200.0
    worst = report.worst_row
    _report(
        10,
        "propagation of chaos",
        ok,
        f"stderr<=2e-3 {budget_ok}, N=3200 all 3-sigma {largest_ok}, s=2 gaps "
        f"non-increasing {drift_ok}, worst |delta| {worst.delta:.2e} "
        f"({worst.observable}, N={worst.N}), {elapsed:.0f}s < 1200s",
    )


# ---------------------------------------------------------------------------
# 11: determinism of the result files
# ---------------------------------------------------------------------------


def test_criterion_11_byte_identical_reruns(tmp_path):
    for key, pipeline, name in (
        (3, _criterion3_pipeline, "simulate.csv"),
        (9, _criterion9_pipeline, "boltzmann.csv"),
        (10, _criterion10_pipeline, "chaos.csv"),
    ):
        if key not in _FIRST_RUN:
            _FIRST_RUN[key] = pipeline(tmp_path / f"first_{name}")[-1]
    again = {
        3: _criterion3_pipeline(tmp_path / "again_simulate.csv")[-1],
        9: _criterion9_pipeline(tmp_path / "again_boltzmann.csv")[-1],
        10: _criterion10_pipeline(tmp_path / "again_chaos.csv")[-1],
    }
    matches = {key: again[key] == _FIRST_RUN[key] for key in (3, 9, 10)}
    ok = all(matches.values())
    _report(
        11,
        "byte-identical reruns",
        ok,
        "criteria 3/9/10 CSV bodies equal: "
        + ", ".join(f"{k}={v}" for k, v in sorted(matches.items())),
    )
