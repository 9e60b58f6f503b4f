"""Marginal factorization emerging as the system grows.

For iid initial data, the gap between an s-particle marginal observable of
the N-particle process and the tensorized mean-field value shrinks as N
grows.  This sweep watches the gap for tanh products on a small size grid
and prints the fitted log-log decay slope, plus the pair-covariance
diagnostic that measures the same factorization directly.
"""

import numpy as np

from kacmix import (
    ChaosBudget,
    GaussianInitial,
    KacToy,
    MasterState,
    MixtureSpec,
    SymmetricK,
    TanhFactor,
    correlation_decay,
    run_chaos_sweep,
)

TOY = MixtureSpec((SymmetricK(k=1, d=1), KacToy()), (0.0, 1.0))


def main() -> None:
    report = run_chaos_sweep(
        TOY,
        GaussianInitial(),
        N_grid=[16, 64, 256, 1024],
        s_list=[1, 2],
        t_list=[1.0],
        factors=[TanhFactor()],
        budget=ChaosBudget(samples_per_point=60_000, ref_factor=10, ref_replicas=16),
        seed=4,
    )

    print("N-particle marginals vs the tensorized mean-field reference (t = 1)")
    print(f"{'N':>6} {'s':>2} {'|delta|':>10} {'kac se':>9} {'mf se':>9} {'3-sigma':>8}")
    for row in report.rows:
        print(
            f"{row.N:>6} {row.s:>2} {row.delta:>10.2e} {row.kac_stderr:>9.1e}"
            f" {row.mf_stderr:>9.1e} {'pass' if row.pass_3sigma else 'FAIL':>8}"
        )
    for fit in report.slopes:
        print(f"log-log slope for s={fit.s}: {fit.slope:+.2f} (se {fit.slope_stderr:.2f})")

    # the same factorization, read off as a pair covariance at fixed N
    rng = np.random.default_rng(9)
    print("\npair covariance of tanh(v) under iid Gaussian data (decays like 1/N):")
    for n in (16, 64, 256, 1024):
        ensemble = [MasterState(rng.standard_normal((n, 1))) for _ in range(64)]
        est = correlation_decay(ensemble, TanhFactor())
        print(f"  N={n:>5}: cov {est.cov:+.2e} (se {est.stderr:.1e})")
    print("  (se is spread-based and mildly optimistic at 64 replicas;")
    print("   reads beyond 2 se on iid data are not alarming)")


if __name__ == "__main__":
    main()
