"""Exact fourth moments of the toy rotation law, in the limit and at finite N.

The laws are Maxwell-type with cut-off, so moments close degree by degree.
For `KacToy` in d = 1 from even data, with the uniform or the raised-cosine
kernel alike (E cos^4 = 3/8 and E cos^2 sin^2 = 1/8 under either), this
gives closed forms for the limit equation and for the N-particle process
itself.  They are the exact references the tests and demos compare both
engines and the Picard solver against.  Nothing here calls a simulator.
"""

from __future__ import annotations

import math


def toy_m4(t: float, m2: float, m4_0: float, beta2: float = 1.0) -> float:
    """m4(t) of the d = 1 limit equation: `KacToy` at weight beta2, the rest order-1 sign flips.

    An order-1 law in d = 1 only flips signs, so only `KacToy` moves m4,
    m2 is conserved, and m4(t) = 3 m2^2 + (m4(0) - 3 m2^2) e^(-beta2 t / 2).
    """
    return 3.0 * m2**2 + (m4_0 - 3.0 * m2**2) * math.exp(-0.5 * beta2 * t)


def toy_m4_finite_n(t: float, n: int, mu2: float, mu4: float) -> float:
    """Exact E v_1^4 of the N-particle `KacToy` process from iid even data of moments mu2, mu4.

    Particle 1 collides at rate 2, and the angle average gives
    dm4/dt = (3/2) q - (1/2) m4 with q = E v_1^2 v_2^2.  The energy is
    conserved along every path, so exchangeability gives
    q = mu2^2 + (mu4 - m4) / (N - 1), and m4_N(t) = m4* + (mu4 - m4*) e^(-B t)
    with B = 1/2 + 3 / (2 (N - 1)) and m4* = (3 mu2^2 (N - 1) + 3 mu4) / (N + 2).
    """
    if n < 2:
        raise ValueError(f"toy_m4_finite_n: N >= 2 required (got N={n})")
    rate = 0.5 + 1.5 / (n - 1)
    m4_star = (3.0 * mu2**2 * (n - 1) + 3.0 * mu4) / (n + 2)
    return m4_star + (mu4 - m4_star) * math.exp(-rate * t)


def toy_pair_v2v2(t: float, n: int, mu2: float, mu4: float) -> float:
    """Exact mean of `MomentObserver`'s `pair_v2v2`, E v_1^2 v_2^2 = mu2^2 + (mu4 - m4_N(t)) / (N - 1).

    Its gap from mu2^2 is the exact two-particle chaos gap of the process;
    it is 0 at t = 0 and decays like 1/N at every t.
    """
    return mu2**2 + (mu4 - toy_m4_finite_n(t, n, mu2, mu4)) / (n - 1)
