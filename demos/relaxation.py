"""Fourth-moment relaxation of the toy rotation model, three ways.

Starting from two-point initial data (all speeds +-a, so m2 = a^2 and
m4 = a^4), the uniform-kernel toy model relaxes its fourth moment along
m4(t) = 3 m2^2 + (m4(0) - 3 m2^2) exp(-t/2) while m2 stays put.  The same
curve is computed three independent ways: the closed form, the N-particle
ensemble, and the one-particle mean-field sampler.
"""

import math

from kacmix import (
    KacToy,
    MixtureSpec,
    MomentObserver,
    SimConfig,
    SymmetricK,
    TwoPointInitial,
    meanfield_run,
    run,
)
from kacmix.limit import toy_m4

TOY = MixtureSpec((SymmetricK(k=1, d=1), KacToy()), (0.0, 1.0))
TIMES = [0.0, 1.0, 2.0, 4.0]
A = 1.0


def main() -> None:
    initial = TwoPointInitial(a=A)

    kac = run(
        SimConfig(N=2000, mixture=TOY, t_end=TIMES[-1], seed=2, replicas=48, initial=initial),
        [MomentObserver(TIMES)],
    )
    mf = meanfield_run(
        SimConfig(N=20_000, mixture=TOY, t_end=TIMES[-1], seed=3, replicas=8, initial=initial),
        [MomentObserver(TIMES)],
    )

    exact = [toy_m4(t, A**2, A**4) for t in TIMES]
    kac_m4 = kac.series[0].mean("m4")
    kac_se = kac.series[0].stderr("m4")
    mf_m4 = mf.series[0].mean("m4")
    mf_se = mf.series[0].stderr("m4")
    # The mean-field m2 is a martingale, not a constant: with 8 replicas the
    # run's m2 can end several standard errors from m2(0), and m4 follows it.
    # Its z-score is therefore taken on the per-replica ratio m4/m2^2, whose
    # limit is the closed form over m2(0)^2.
    names = mf.series[0].names
    raw = mf.raw[0]
    ratio = raw[:, :, names.index("m4")] / raw[:, :, names.index("m2")] ** 2
    ratio_mean = ratio.mean(axis=0)
    ratio_se = ratio.std(axis=0, ddof=1) / math.sqrt(ratio.shape[0])

    def z(value: float, se: float, target: float) -> str:
        return "    -" if se == 0.0 else f"{(value - target) / se:>+5.1f}"

    print("fourth moment, two-point initial data (a = 1), toy uniform kernel")
    print(f"{'t':>4} {'closed form':>12} {'N-particle':>12} {'(se)':>9} {'z':>5}"
          f" {'mean-field':>12} {'(se)':>9} {'z':>5}")
    for i, t in enumerate(TIMES):
        print(
            f"{t:>4.1f} {exact[i]:>12.5f} {kac_m4[i]:>12.5f} {kac_se[i]:>9.1e}"
            f" {z(kac_m4[i], kac_se[i], exact[i])} {mf_m4[i]:>12.5f} {mf_se[i]:>9.1e}"
            f" {z(ratio_mean[i], ratio_se[i], exact[i] / A**4)}"
        )

    worst_kac = max(abs(m4 - e) for m4, e in zip(kac_m4, exact))
    worst_mf = max(abs(m4 - e) for m4, e in zip(mf_m4, exact))
    print(f"\nlargest gap to the closed form: N-particle {worst_kac:.2e}, mean-field {worst_mf:.2e}")
    print("(rows share replicas, so their z-scores are strongly correlated; the")
    print(" finite-N correction to the closed form is below 1e-3 at N = 2000; the")
    print(" mean-field z is that of the per-replica ratio m4/m2^2 against")
    print(" closed form / m2(0)^2, because the mean-field m2 is a martingale that")
    print(" drifts from run to run and m4 follows it)")
    print("m2 drift across the run:",
          f"{abs(kac.series[0].mean('m2')[-1] - A**2):.2e} (N-particle, exact conservation),",
          f"{abs(mf.series[0].mean('m2')[-1] - A**2):.2e} (mean-field, martingale)")


if __name__ == "__main__":
    main()
