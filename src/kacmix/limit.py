"""Exact references: fourth moments of the toy law, and limit means of chaos factors.

The laws are Maxwell-type with cut-off, so moments close degree by degree.
For `KacToy` in d = 1 from even data, with the uniform or the raised-cosine
kernel alike (E cos^4 = 3/8 and E cos^2 sin^2 = 1/8 under either), this
gives closed forms for the limit equation and for the N-particle process
itself.  They are the exact references the tests and demos compare both
engines and the Picard solver against.  Nothing here calls a simulator.

`limit_mean` gives the exact limit mean of a chaos factor where one is
known: by symmetry, at the Gaussian equilibrium, or from the Fourier form of
the d = 1 toy equation (Bobylev 1975), solved here on a frequency grid.
Where none is known, `limit_samples` draws exact iid samples of f_t from
Wild's backward collision tree (Wild 1951), for any mixture, initial law and
d.  It uses only the initial law, the size-biased order draw,
`sample_angle` and `law.apply`, so it shares no event tape, replica loop or
observer with the engines it checks.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .laws import BinaryMaxwell, KacToy, MixtureSpec, SymmetricK
from .observables import CosineFactor, TanhFactor
from .simulator import GaussianInitial, InitialLaw, TwoPointInitial, UniformBoxInitial


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


# Laws whose kernel the limits below assume: linear isometries of the group,
# with angle laws invariant under reflecting one axis.
_BUILTIN_LAWS = (BinaryMaxwell, KacToy, SymmetricK)
# d = 1 laws that leave an even characteristic function unchanged: a sign
# flip, and the exchange v1 -> v2 that BinaryMaxwell is in one dimension.
_NEUTRAL_1D = (SymmetricK(k=1, d=1), BinaryMaxwell(d=1))


def exact_kind(mixture: MixtureSpec, initial: InitialLaw, factor) -> Optional[str]:
    """The kind of exact limit mean `limit_mean` gives for `factor`, or None; nothing is solved.

    The kinds are:

    - "symmetry": a `TanhFactor` has mean 0, in any d.  Every catalogued iid
      initial law and every built-in law is invariant under reflecting one
      axis, and so is f_t.
    - "gaussian": a `CosineFactor` from Gaussian data has mean
      exp(-|xi|^2 / 2).  Every built-in law is an isometry of the group, so
      the standard Gaussian is an equilibrium.
    - "fourier": a `CosineFactor` in d = 1 from uniform or two-point data,
      when every weighted law is `KacToy`, `SymmetricK(1, 1)` or
      `BinaryMaxwell(1)`.  The mean is phi_t(xi), from `_toy_charfn`.

    Any other factor, law or initial law gives None.
    """
    weighted = [law for law, beta in zip(mixture.laws, mixture.beta) if beta > 0.0]
    known_initial = isinstance(initial, (GaussianInitial, UniformBoxInitial, TwoPointInitial))
    if not known_initial or not all(isinstance(law, _BUILTIN_LAWS) for law in weighted):
        return None
    if isinstance(factor, TanhFactor):
        return "symmetry"
    if not isinstance(factor, CosineFactor):
        return None
    if isinstance(initial, GaussianInitial):
        return "gaussian"
    if mixture.dim == 1 and all(isinstance(law, KacToy) or law in _NEUTRAL_1D for law in weighted):
        return "fourier"
    return None


def limit_mean(
    mixture: MixtureSpec, initial: InitialLaw, factor, times: Sequence[float]
) -> Optional[Tuple[str, np.ndarray]]:
    """Exact mean of `factor` under the limit law f_t at each of `times`, with its kind, or None.

    The kind is that of `exact_kind`.  The limit is chaotic, so a chaos cell
    of order s has the s-th power of this mean as its N = infinity value.
    """
    times = np.asarray(times, dtype=float)
    kind = exact_kind(mixture, initial, factor)
    if kind is None:
        return None
    if kind == "symmetry":
        return kind, np.zeros_like(times)
    xi = np.broadcast_to(factor.xi, (mixture.dim,))  # one entry is shared by all coordinates
    if kind == "gaussian":
        return kind, np.full_like(times, math.exp(-0.5 * float(xi @ xi)))
    rate = sum(2.0 * b for law, b in zip(mixture.laws, mixture.beta) if isinstance(law, KacToy))
    a, xi_max = initial.a, abs(float(xi[0]))

    def phi0(x):
        return np.sinc(a * x / math.pi) if isinstance(initial, UniformBoxInitial) else np.cos(a * x)

    # phi0 turns through about a xi_max radians on [0, xi_max]; the grid and
    # the time step follow it, which keeps the error below 1e-9 (measured
    # against doubled resolution for a xi_max up to 10 and t up to 4).
    spread = a * xi_max
    _, values = _toy_charfn(
        phi0, rate, xi_max, times, n_nodes=17 + 2 * math.ceil(spread), step=0.1 / max(1.0, spread)
    )
    return kind, values[:, 0]


# The most leaves one `limit_samples` call may expect to draw.  A sample at
# time t expects exp(gamma t) of them (`leaves_per_sample`).  A leaf costs
# 0.2-0.5 us on a 2-core VM (the toy law; a d = 3 mixture of orders 1-3), so
# a call stays under about 10 s.
MAX_LEAVES = 2e7
# Each chunk of samples expects about this many leaves, which bounds the
# memory of a call whatever its size.
_CHUNK_LEAVES = 2**18


def leaves_per_sample(mixture: MixtureSpec, t: float) -> float:
    """Expected leaf count of one backward tree to time t, exp(gamma t).

    A node splits at rate alpha = sum_K beta_K K into K children with
    probability beta_K K / alpha, so the leaf count grows at rate
    gamma = sum_K beta_K K (K - 1).
    """
    return math.exp(t * sum(b * k * (k - 1) for k, b in enumerate(mixture.beta, start=1)))


def limit_samples(
    mixture: MixtureSpec, initial: InitialLaw, t: float, size: int, rng: np.random.Generator
) -> Tuple[np.ndarray, int]:
    """`size` iid samples (size, d) of the limit law f_t, and the number of leaves drawn.

    Each sample is the root of Wild's backward tree.  A node with remaining
    time tau waits Exp(alpha); if the wait passes tau it is a leaf, drawn
    from the initial law.  Otherwise it draws an order K size-biased, K
    independent children at tau minus the wait, and one angle, and takes
    slot 0 of `law.apply` on its children: the gain term of the limit
    equation takes f (x) ... (x) f, and the node's own past is one of the K
    children.  The tree is drawn level by level over a chunk of samples,
    then reduced from the deepest level up.  Raises ValueError, before any
    draw, when the expected leaf count passes MAX_LEAVES.
    """
    per_sample = leaves_per_sample(mixture, t)
    if size * per_sample > MAX_LEAVES:
        raise ValueError(
            f"limit samples: {size} samples at t={t} expect {size * per_sample:.3g} tree leaves, "
            f"above the cap of {MAX_LEAVES:.3g}"
        )
    out = np.empty((size, mixture.dim))
    leaves = 0
    chunk = max(1, int(_CHUNK_LEAVES / per_sample))
    for lo in range(0, size, chunk):
        # Level l + 1 holds the children of level l's inner nodes in node
        # order, so those of inner node j start at the sum of the orders before j.
        levels = []  # per level: its node count, its inner nodes and their orders
        tau = np.full(min(chunk, size - lo), float(t))
        while tau.size:
            wait = rng.exponential(1.0 / mixture.alpha, size=tau.size)
            inner = np.flatnonzero(wait < tau)
            order = mixture.order_from_uniform_sizebiased(rng.random(inner.size))
            levels.append((tau.size, inner, order))
            tau = np.repeat(tau.take(inner) - wait.take(inner), order)
        below = np.empty((0, mixture.dim))
        for count, inner, order in reversed(levels):
            values = np.empty((count, mixture.dim))
            leaf = np.ones(count, dtype=bool)
            leaf[inner] = False
            values[leaf] = initial.sample(rng, count - inner.size, mixture.dim)
            leaves += count - inner.size
            first = np.cumsum(order) - order
            for k in range(1, mixture.m + 1):
                sel = np.flatnonzero(order == k)
                if sel.size:
                    law = mixture.laws[k - 1]
                    group = below[first[sel, None] + np.arange(k)]
                    values[inner[sel]] = law.apply(law.sample_angle(rng, size=sel.size), group)[:, 0]
            below = values
        out[lo : lo + chunk] = below
    return out, leaves


def _toy_charfn(
    phi0, rate: float, xi_max: float, times, n_nodes: int = 17, step: float = 0.1
) -> Tuple[np.ndarray, np.ndarray]:
    """phi_t on a grid of [0, xi_max] at each of the increasing `times`, from the even phi0.

    phi solves the Fourier form of the d = 1 toy equation,
    phi' = rate (E_theta phi(xi cos theta) phi(xi sin theta) - phi), with
    theta uniform on [0, pi/2]; `rate` is 2 beta_2 for `KacToy` at weight
    beta_2 under either kernel, whose |cos|, |sin| laws agree.  The right-hand
    side at xi reads phi on [0, xi] only, so the grid closes.  phi is even
    and smooth: it is held as its values at the Chebyshev-Lobatto nodes of
    w = 2 (xi / xi_max)^2 - 1, the first of which is xi_max.  The angle mean
    uses n_nodes Gauss-Legendre nodes, and RK4 steps
    of at most `step / rate` run once through the times.  Returns the nodes
    and the values, one row per time.
    """
    m, n_theta = n_nodes - 1, n_nodes
    w = np.cos(math.pi * np.arange(n_nodes) / m)
    nodes = xi_max * np.sqrt(0.5 * (1.0 + w))
    # Node values -> Chebyshev coefficients in w (the DCT-I) -> values at
    # xi cos(theta); the nodes at theta and pi/2 - theta mirror each other,
    # so the xi sin(theta) values are the same rows reversed.
    edge = np.ones(n_nodes)
    edge[[0, -1]] = 0.5
    k = np.arange(n_nodes)
    to_coef = (2.0 / m) * edge[:, None] * np.cos(np.outer(k, np.arccos(w))) * edge
    x, gl_weights = np.polynomial.legendre.leggauss(n_theta)
    cos2 = np.cos(0.25 * math.pi * (x + 1.0)) ** 2
    target = np.clip(np.outer(1.0 + w, cos2).ravel() - 1.0, -1.0, 1.0)
    interp = np.cos(np.outer(np.arccos(target), k)) @ to_coef
    weights = 0.5 * gl_weights

    def rhs(v):
        at_cos = (interp @ v).reshape(n_nodes, n_theta)
        return rate * ((at_cos * at_cos[:, ::-1]) @ weights - v)

    values = np.asarray(phi0(nodes), dtype=float)
    out = np.empty((len(times), n_nodes))
    t_prev = 0.0
    for row, t in enumerate(times):
        n_steps = math.ceil((t - t_prev) * rate / step) if rate > 0.0 else 0
        h = (t - t_prev) / max(n_steps, 1)
        for _ in range(n_steps):
            k1 = rhs(values)
            k2 = rhs(values + 0.5 * h * k1)
            k3 = rhs(values + 0.5 * h * k2)
            k4 = rhs(values + h * k3)
            values = values + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[row] = values
        t_prev = t
    return nodes, out
