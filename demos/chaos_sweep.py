"""Marginal factorization emerging as the system grows.

For iid initial data, the gap between an s-particle marginal observable of
the N-particle process and the tensorized mean-field value shrinks as N
grows.  This sweep watches the gap for tanh products on a small size grid
and prints the fitted log-log decay slope.  It then reads the same
factorization off the process itself: for the toy law the pair gap
E[v_1^2 v_2^2] - mu2^2 has an exact value at every N, printed beside the
simulated one.
"""

import math

from kacmix import (
    ChaosBudget,
    GaussianInitial,
    KacToy,
    MixtureSpec,
    MomentObserver,
    SimConfig,
    SymmetricK,
    TanhFactor,
    UniformBoxInitial,
    run,
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

    # The energy is conserved along every path, so from iid even data of
    # moments mu2, mu4 the pair mean is E[v_1^2 v_2^2] = mu2^2 + (mu4 - m4_N(t)) / (N - 1),
    # with m4_N(t) = m4* + (mu4 - m4*) e^(-B t), B = 1/2 + 3 / (2 (N - 1)) and
    # m4* = (3 mu2^2 (N - 1) + 3 mu4) / (N + 2).  Uniform data on
    # [-sqrt 3, sqrt 3] have mu2 = 1 and mu4 = 9/5.
    t, mu4 = 3.0, 9.0 / 5.0
    print(f"\npair gap E[v1^2 v2^2] - mu2^2 from uniform data at t = {t:g} (decays like 1/N):")
    print(f"{'N':>6} {'simulated':>10} {'se':>8} {'exact':>9}")
    uniform = UniformBoxInitial(a=math.sqrt(3.0))
    for n, replicas in ((6, 4000), (20, 2000), (80, 2000)):
        config = SimConfig(N=n, mixture=TOY, t_end=t, seed=7, replicas=replicas, initial=uniform)
        series = run(config, [MomentObserver([t])]).series[0]
        m4_star = (3.0 * (n - 1) + 3.0 * mu4) / (n + 2)
        m4 = m4_star + (mu4 - m4_star) * math.exp(-(0.5 + 1.5 / (n - 1)) * t)
        gap = float(series.mean("pair_v2v2")[0]) - 1.0
        print(f"{n:>6} {gap:>+10.4f} {float(series.stderr('pair_v2v2')[0]):>8.4f} {(mu4 - m4) / (n - 1):>+9.4f}")

if __name__ == "__main__":
    main()
