"""Chaos harness: sweep bookkeeping and reproducibility."""

import math

import numpy as np
import pytest

from kacmix import chaos
from kacmix.chaos import (
    ChaosBudget,
    ChaosReport,
    ChaosRow,
    _fit_slope,
    run_chaos_sweep,
)
from kacmix.laws import KacToy, MixtureSpec, SymmetricK
from kacmix.observables import CosineFactor, TanhFactor
from kacmix.simulator import DeterministicInitial, GaussianInitial, UniformBoxInitial

TOY = MixtureSpec((SymmetricK(k=1, d=1), KacToy()), (0.0, 1.0))
GAUSS = GaussianInitial()

SMALL_BUDGET = ChaosBudget(
    samples_per_point=2_000, min_replicas=4, ref_factor=4, ref_replicas=6
)


def small_sweep(seed=11, **kwargs):
    defaults = dict(
        mixture=TOY,
        initial=GAUSS,
        N_grid=[8, 16],
        s_list=[1, 2],
        t_list=[0.5],
        factors=[TanhFactor()],
        budget=SMALL_BUDGET,
        seed=seed,
    )
    defaults.update(kwargs)
    return run_chaos_sweep(**defaults)


# ---------------------------------------------------------------------------
# budget arithmetic
# ---------------------------------------------------------------------------


def test_replicas_scale_inversely_with_system_size():
    budget = ChaosBudget(samples_per_point=1000, min_replicas=8)
    assert budget.replicas_for(50) == 20
    assert budget.replicas_for(999) == 8  # floor kicks in
    assert budget.replicas_for(3) == 334  # ceiling division


# ---------------------------------------------------------------------------
# sweep structure and reproducibility
# ---------------------------------------------------------------------------


def test_sweep_produces_one_row_per_cell():
    report = small_sweep()
    assert len(report.rows) == 2 * 2 * 1  # N x s x (t * factors)
    assert {r.N for r in report.rows} == {8, 16}
    assert {r.s for r in report.rows} == {1, 2}
    assert report.n_ref == 4 * 16
    assert report.ref_replicas == 6
    # one slope fit per (s, t, observable) combination
    assert len(report.slopes) == 2
    assert all(fit.n_points == 2 for fit in report.slopes)
    # small-sample cells have generous error bars; the sweep should pass
    assert report.pass_fraction == 1.0
    assert all(row.underpowered for row in report.rows)  # tiny budget
    worst = report.worst_row
    assert worst is not None and worst in report.rows


def test_sweep_is_reproducible_and_seed_sensitive():
    a = small_sweep(seed=7)
    b = small_sweep(seed=7)
    assert a.rows == b.rows
    assert a.slopes == b.slopes
    c = small_sweep(seed=8)
    assert c.rows != a.rows


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reference_of_pair_cells_is_unbiased(seed):
    """tanh is odd and uniform data symmetric, so the limit's pair value is 0.

    A reference built from squared one-particle means over n_ref = 40
    particles sits about Var/n_ref above 0, some 14 stderr at 400 replicas.
    """
    report = small_sweep(
        seed=seed,
        initial=UniformBoxInitial(),
        N_grid=[4],
        s_list=[2],
        budget=ChaosBudget(samples_per_point=32, min_replicas=8, ref_factor=10, ref_replicas=400),
    )
    assert report.n_ref == 40
    (row,) = report.rows
    assert abs(row.mf_mean) <= 4.0 * row.mf_stderr, (row.mf_mean, row.mf_stderr)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_sweep_rejects_empty_lists():
    with pytest.raises(ValueError, match="nonempty"):
        small_sweep(N_grid=[])
    with pytest.raises(ValueError, match="nonempty"):
        small_sweep(factors=[])


def test_sweep_rejects_unsorted_times():
    with pytest.raises(ValueError, match="strictly increasing"):
        small_sweep(t_list=[1.0, 0.5])
    with pytest.raises(ValueError, match="strictly increasing"):
        small_sweep(t_list=[0.5, 0.5])


def test_sweep_rejects_marginal_wider_than_smallest_system():
    with pytest.raises(ValueError, match="observable order s=5 exceeds N=4"):
        small_sweep(N_grid=[4, 16], s_list=[1, 5])


def test_sweep_requires_iid_initial_data():
    frozen = DeterministicInitial(np.zeros((8, 1)))
    with pytest.raises(ValueError, match="chaotic initial data"):
        small_sweep(initial=frozen)


def test_sweep_rejects_duplicate_factor_labels():
    with pytest.raises(ValueError, match="distinct"):
        small_sweep(factors=[TanhFactor(), TanhFactor()])


@pytest.mark.parametrize(
    "inputs, message",
    [
        (dict(N_grid=[]), "nonempty"),
        (dict(initial=DeterministicInitial(np.zeros((8, 1)))), "chaotic initial data"),
        (dict(factors=[TanhFactor(), TanhFactor()]), "distinct"),
        (dict(N_grid=[1, 16]), "N >= M"),
        (dict(N_grid=[4, 16], s_list=[1, 5]), "exceeds N=4"),
        (dict(t_list=[1.0, 0.5]), "strictly increasing"),
        (dict(t_list=[-0.5, 0.5]), ">= 0"),
        (dict(factors=[CosineFactor((1.0, 1.0))]), "frequency has d=2"),
    ],
    ids=[
        "empty-grid", "deterministic", "repeated-labels", "N-below-M", "s-above-smallest-N",
        "unsorted-times", "negative-time", "factor-dim",
    ],
)
def test_sweep_checks_its_inputs_before_any_run(monkeypatch, inputs, message):
    def no_run(*args, **kwargs):
        pytest.fail("a run started before the inputs were checked")

    monkeypatch.setattr(chaos, "meanfield_run", no_run)
    monkeypatch.setattr(chaos, "run", no_run)
    with pytest.raises(ValueError, match=message):
        small_sweep(**inputs)


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------


def _row(delta, kac_se, mf_se, passed=True):
    return ChaosRow(
        N=10, s=1, t=0.0, observable="g", kac_mean=0.0, kac_stderr=kac_se,
        mf_mean=0.0, mf_stderr=mf_se, delta=delta, pass_3sigma=passed,
        underpowered=False,
    )


def test_report_worst_row_maximizes_gap_to_error_ratio():
    rows = (_row(0.01, 0.01, 0.01), _row(0.05, 0.005, 0.005), _row(0.02, 0.1, 0.1))
    report = ChaosReport(rows=rows, slopes=(), seed=0, n_ref=10, ref_replicas=2)
    assert report.worst_row is rows[1]  # ratio 5 beats 0.5 and 0.1


def test_report_empty_edge_cases():
    report = ChaosReport(rows=(), slopes=(), seed=0, n_ref=10, ref_replicas=2)
    assert report.pass_fraction == 1.0
    assert report.worst_row is None


def test_report_pass_fraction_counts_failures():
    rows = (_row(0.0, 1.0, 1.0, passed=True), _row(9.0, 0.1, 0.1, passed=False))
    report = ChaosReport(rows=rows, slopes=(), seed=0, n_ref=10, ref_replicas=2)
    assert report.pass_fraction == 0.5


def test_fit_slope_recovers_power_law_and_flags_degenerate_input():
    slope, se = _fit_slope([10, 100, 1000], [1e-1, 1e-2, 1e-3])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)
    slope, se = _fit_slope([10, 100], [1e-1, 1e-2])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert math.isnan(se)  # no residual degrees of freedom
    slope, se = _fit_slope([10, 100], [0.0, 0.0])
    assert math.isnan(slope) and math.isnan(se)
    slope, se = _fit_slope([10, 100], [0.0, 1e-3])
    assert math.isnan(slope)  # a single positive gap cannot fix a line
