"""Random-walk convergence experiments with exact distribution evolution:
the doubling walk on Z_p, the coordinate-refresh product walk via closed
forms, and the standardized Binomial against the normal limit.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import transport as tp
# walks.tv_kernel is a name the span tracer of perfbench/workloads.py
# patches; CdgWalk.distances no longer calls it.
from .divergences import tv_kernel  # noqa: F401
from .spaces import (DiscreteDistribution, FiniteMetricSpace,
                     RealAtomicDistribution, _integer, _non_negative, _real,
                     fsum_largest_first, gaussian_cdf)


# ---------------------------------------------------------------------------
# Doubling walk on Z_p:  X_k = 2 X_{k-1} + e_k (mod p), e uniform on {-1,0,1}
# ---------------------------------------------------------------------------

# A step holds the old and the new half law, (p + 1) / 2 entries each, at its
# peak: 0.5 GB at p = 2^26 - 1; its distances to uniform hold the half law and
# a few blocks of _BLOCK entries. The cap leaves room in 8 GB of memory for a
# caller's own full-length copies of the law (`CdgWalk.dist` builds one).
MAX_MODULUS = 2 ** 26 - 1

# Entries of the half law that `CdgWalk.distances` reads at a time: 256 KB
# of float64, which stay in a core's L2 cache between the block's passes.
_BLOCK = 2 ** 15


class CdgWalk:
    """Exact pushforward evolution of the doubling-with-noise walk.

    The distribution vector is evolved deterministically (no sampling);
    uniform is stationary. `p` must be odd so that 2 is invertible and the
    closed balls of the cycle metric are exactly the odd-length arcs, and at
    most MAX_MODULUS so that a step fits in memory.

    The walk starts at the point mass at 0 and its noise is symmetric, so
    its law is symmetric under x -> -x at every step. It is kept as `half`,
    the law on {0, ..., (p - 1) / 2}; `dist` builds the full law from it.
    """

    def __init__(self, p: int):
        p = _integer("p", p, 3, MAX_MODULUS)
        if p % 2 == 0:
            raise ValueError(f"p: modulus must be odd, got {p}")
        self.p = p
        self.step_count = 0
        self.half = np.zeros((p + 1) // 2)
        self.half[0] = 1.0

    @classmethod
    def mersenne(cls, t: int) -> "CdgWalk":
        """Walk on p = 2^t - 1, for an integer t in 2..26."""
        return cls(_mersenne_modulus(t))

    @property
    def dist(self) -> np.ndarray:
        """The full law on Z_p, a new vector: dist[x] = dist[p - x]."""
        return np.concatenate((self.half, self.half[:0:-1]))

    def step(self) -> "CdgWalk":
        # x -> 2x mod p is a perfect shuffle for odd p: g[2x mod p] = dist[x].
        # g is symmetric too, and is read on 0..H from the half law h
        # (H = (p + 1) / 2) and its reverse r = h[::-1]: g[2x] = h[x] and
        # g[2x + 1] = h[(p - 2x - 1) / 2] = r[x]. new[i] = ((g[i-1] + g[i+1])
        # + g[i]) / 3 with g[-1] = g[1], so new[2x] = (r[x-1] + r[x]) + h[x]
        # and new[2x + 1] = (h[x] + h[x+1]) + r[x], each written from slices
        # of h without building g. The order is symmetric in i-1 and i+1, so
        # the full law in this order is exactly symmetric and its half is
        # this one, bit for bit.
        h = self.half
        r = h[::-1]
        size = h.size
        n_even, n_odd = (size + 1) // 2, size // 2
        new = np.empty(size)
        np.add(r[:n_even - 1], r[1:n_even], out=new[2::2])
        new[2::2] += h[1:n_even]
        np.add(h[:n_odd], h[1:n_odd + 1], out=new[1::2])
        new[1::2] += r[:n_odd]
        new[0] = (r[0] + r[0]) + h[0]
        new /= 3.0
        self.half = new
        self.step_count += 1
        return self

    def distances(self) -> dict[str, float]:
        """Total variation and discrepancy to the uniform distribution, read
        from the half deviation dev = half - 1/p in blocks of _BLOCK entries,
        so that no second half-length vector is held.

        tv = |dev[0]| / 2 + sum of |dev[1:]|, numpy's pairwise sum within each
        block and `math.fsum` of the blocks' sums, within about
        log2(_BLOCK) * eps * sum|dev| of the exactly rounded sum at every p.
        disc is the range of the cut-point sums Z (see `cdg_discrepancy`):
        the half-length prefix sum, carried from block to block, gives
        Z_1..Z_H as the sequential sum bit for bit, and since the mass sums
        to 1 and the law is symmetric, every other cut point is
        Z_c = dev[0] - Z_{p-c+1}.
        """
        h, size = self.half, self.half.size
        dev0 = h[0] - 1.0 / self.p
        tv_parts = [0.5 * abs(dev0)]
        z_last = 0.0  # Z at the end of the previous block
        in_lo, in_hi = math.inf, -math.inf  # over Z_2 .. Z_{H-1}, the mirrored cut points
        for s in range(0, size, _BLOCK):
            z = h[s:s + _BLOCK] - 1.0 / self.p
            tv_parts.append(np.abs(z[1:] if s == 0 else z).sum())
            z[0] += z_last
            np.cumsum(z, out=z)
            inner = z[max(1 - s, 0):size - 1 - s]
            in_lo = min(in_lo, inner.min(initial=math.inf))
            in_hi = max(in_hi, inner.max(initial=-math.inf))
            z_last = z[-1]
        disc = (max(0.0, dev0, z_last, in_hi, dev0 - in_lo)
                - min(0.0, dev0, z_last, in_lo, dev0 - in_hi))
        return {"tv": math.fsum(tv_parts), "disc": float(disc)}


def _mersenne_modulus(t: int) -> int:
    """2^t - 1 for an integer t in 2..26, t checked by name before 2^t is
    formed."""
    return 2 ** _integer("t", t, 2, MAX_MODULUS.bit_length()) - 1


def cdg_discrepancy(dist: np.ndarray) -> float:
    """Discrepancy to uniform over the closed balls of the p-cycle in O(p).

    Balls are the odd-length arcs (plus the whole space). With Z the prefix
    sums of dist - 1/p, the two arcs between cut points a != e have excesses
    Z[e] - Z[a] and Z[a] - Z[e], and lengths L and p - L. For p odd exactly
    one of these lengths is odd, so exactly one of the arcs is a ball, and
    the sup over balls of |excess| is the range max Z - min Z (the circular
    Kuiper statistic).
    """
    if dist.ndim != 1 or dist.size < 3 or dist.size % 2 == 0:
        raise ValueError(f"dist: need a 1-D vector of odd length >= 3, got shape {dist.shape}")
    return _cycle_range(dist - 1.0 / dist.size)


def _cycle_range(dev: np.ndarray) -> float:
    """max Z - min Z over the prefix sums Z = 0, dev[0], dev[0] + dev[1], ...
    of all but the last entry of dev (the cut points of the cycle)."""
    z = np.cumsum(dev[:-1])
    return float(max(z.max(), 0.0) - min(z.min(), 0.0))


def cdg_trace(p: int, steps: int) -> list[dict[str, float]]:
    """Rows (step, tv, disc) for steps 1..steps from the point mass at 0."""
    steps = _integer("steps", steps, 1)  # checked before the walk allocates
    walk = CdgWalk(p)
    rows = []
    for _ in range(steps):
        walk.step()
        d = walk.distances()
        rows.append({"step": walk.step_count, "tv": d["tv"], "disc": d["disc"]})
    return rows


# ---------------------------------------------------------------------------
# Binomial masses, for the product walk and the Binomial against the normal
# ---------------------------------------------------------------------------

def _binomial_pmf(n: int, a: float, b: float, k_lo: int, k_hi: int) -> np.ndarray:
    """The Binomial(n, p) masses at k = k_lo..k_hi, for the odds
    p / (1 - p) = a / b of positive whole numbers a and b, and a window that
    holds all but an underflowing share of the mass.

    The mass at the mode m (clipped into the window) is taken as 1.0 and its
    neighbours' ratios, pmf(k + 1) / pmf(k) = (n - k) a / ((k + 1) b), one
    rounding each, are multiplied outward by one cumulative product per
    side; the whole is then divided by its exactly rounded sum. Each mass so
    carries a rounding error of at most a few ulps per step from the mode,
    where an odds rounded once to a float, as 1/3, would add |k - m| times
    its rounding error. With a = b the two sides multiply the same ratios,
    so the masses are exactly symmetric, pmf(k) == pmf(n - k).

    Every mass below the smallest normal float is set to 0: once a product
    is subnormal, a ratio above 1/2 rounds it back to itself, and the tail
    would hold such stuck atoms rather than underflow."""
    m = min(max((n + 1) * a // (a + b), k_lo), k_hi)
    up = np.arange(m, k_hi, dtype=float)  # pmf(k + 1) / pmf(k) at these k
    down = np.arange(m - 1, k_lo - 1, -1, dtype=float)  # pmf(k) / pmf(k + 1)
    with np.errstate(over="ignore"):  # (k + 1) b past the float range: ratio 0
        w = np.concatenate((np.cumprod((down + 1.0) * b / ((n - down) * a))[::-1], [1.0],
                            np.cumprod((n - up) * a / ((up + 1.0) * b))))
    w /= fsum_largest_first(w)
    w[w < sys.float_info.min] = 0.0
    return w


# ---------------------------------------------------------------------------
# Continuous-time coordinate-refresh walk on G^n
# ---------------------------------------------------------------------------

def _check_sizes(n: int, g: int) -> None:
    """Refuse, by name, a coordinate count n or a group size g that the
    product walk's closed forms cannot take, or an n past 10^6, whose TV sum
    of up to n terms, read at every time, would take about a second a read."""
    _integer("n", n, 1, 10 ** 6)
    g = _integer("g", g, 2)
    # psi(g - 1) / g is the entropy per coordinate at t = 0; a g of more
    # than 1023 bits would overflow on its way to a float
    if g.bit_length() > 1023 or math.isinf(_psi(g - 1.0)):
        raise ValueError(f"g: g log g overflows a float, got a g of {g.bit_length()} bits")


def _psi(a: float) -> float:
    """(1 + a) log(1 + a) - a for a >= -1, without cancellation near 0."""
    if abs(a) < 1e-3:  # the series sum_{k>=2} (-a)^k / (k (k-1)), to a^7
        return a * a * (1 / 2 - a * (1 / 6 - a * (1 / 12 - a * (
            1 / 20 - a * (1 / 30 - a / 42)))))
    if a == -1.0:
        return 1.0
    return (1.0 + a) * math.log1p(a) - a


def product_walk_distances(n: int, g: int, t: float) -> dict[str, float]:
    """Distances to uniform at time t of the walk on n coordinates over a
    g-element group, each refreshing to uniform at rate 1/n, via
    per-coordinate closed forms (see `_curves`)."""
    return _at(_curves(n, g), _non_negative("t", t))


def _curves(n: int, g: int) -> dict:
    """The product walk's distances to uniform, each a function of the time
    t >= 0, keyed in the order of its rows. n and g are checked once, and
    the TV sum's weights, which depend on them alone, are built once for
    every time any curve is read at.

    With u = e^(-t/n), the chance that a coordinate is never refreshed by
    time t, q0 = u + (1-u)/g and q1 = (1-u)/g, the product structure gives
    entropy by additivity, chi-squared and Hellinger by their product
    identities, separation from the minimum density ratio, and total
    variation as a sum over the numbers of still-at-start coordinates whose
    states lie below the uniform density (`_tv`).
    """
    _check_sizes(n, g)
    masses = _binomial_pmf(n, 1.0, g - 1.0, 0, n).tolist()

    def chi2(u: float) -> float:
        log1p_chi2_coord = math.log1p((g - 1.0) * u * u)
        return math.inf if n * log1p_chi2_coord > 700.0 else math.expm1(n * log1p_chi2_coord)

    def hellinger(u: float) -> float:
        q0 = u + (1.0 - u) / g
        affinity = (math.sqrt(q0) + (g - 1.0) * math.sqrt((1.0 - u) / g)) / math.sqrt(g)
        return math.sqrt(max(0.0, -2.0 * math.expm1(n * math.log(affinity))))

    in_u = {"tv": lambda u: _tv(masses, *_log_gq(g, u)),
            "entropy": lambda u: _entropy(n, g, u),
            "chi2": chi2,
            "hellinger": hellinger,
            "separation": lambda u: -math.expm1(n * _log_gq(g, u)[1])}
    return {key: lambda t, f=f: f(math.exp(-t / n)) for key, f in in_u.items()}


def _at(curves: dict, t: float) -> dict[str, float]:
    """Every curve of a `_curves` table at the time t >= 0; +inf is the
    stationary limit."""
    return {key: curve(t) for key, curve in curves.items()}


def _log_gq(g: int, u: float) -> tuple[float, float]:
    """log(g q0) and log(g q1), the log density ratios to uniform of a
    coordinate still at its start and of one that has moved."""
    return (math.log1p((g - 1.0) * u),
            math.log1p(-u) if u < 1.0 else -math.inf)


def _entropy(n: int, g: int, u: float) -> float:
    """Relative entropy to uniform, written without cancellation as
    n/g * [psi((g-1)u) + (g-1) psi(-u)] with psi(a) = (1+a) log1p(a) - a:
    the linear terms of q log(gq) sum to zero and are left out, so the value
    keeps its relative accuracy as it decays like chi-squared/2 towards 0."""
    return n * ((_psi((g - 1.0) * u) + (g - 1.0) * _psi(-u)) / g)


def _tv(masses: list[float], log_gq0: float, log_gq1: float) -> float:
    """Total variation to uniform. With u_k = masses[k] the uniform mass of
    the states with k still-at-start coordinates, C(n, k) (g-1)^(n-k) / g^n,
    the Binomial(n, 1/g) pmf, and R_k their density ratio, of log
    lr_k = k log(g q0) + (n-k) log(g q1), sum_k u_k R_k = sum_k u_k = 1, so
    TV is the sum of u_k (1 - R_k) over the k with R_k < 1 alone. lr_k
    increases with k, as log(g q0) >= 0 >= log(g q1), so the sum stops at
    the first lr_k >= 0; k = n, where R_n >= 1, never enters. Each term is
    at most u_k, so the sum cannot overflow."""
    n = len(masses) - 1
    terms = []
    for k in range(n):
        log_ratio = k * log_gq0 + (n - k) * log_gq1
        if log_ratio >= 0.0:
            break
        terms.append(-masses[k] * math.expm1(log_ratio))
    return math.fsum(terms)


def crossing_time(params_at, threshold: float, t_hi: float) -> float:
    """First float time in [0, t_hi] at which a decreasing distance curve is
    at or below the threshold; t_hi when no earlier time is. t_hi is a time
    by which the curve is known to be at or below it: for the product walk,
    a chi-squared crossing through the catalog edge `TV<=sqrt(chi2)/2` or
    `I<=log1p(chi2)`.

    The search is `transport._bisect` on the predicate params_at(t) <=
    threshold (a NaN reads as above), halving [0, t_hi] down to adjacent
    floats."""
    t_hi = _real("t_hi", t_hi, 0)
    threshold = _real("threshold", threshold)
    return tp._bisect(lambda t: params_at(t) <= threshold, 0.0, t_hi)


def product_walk_crossing_times(n: int, g: int,
                                threshold: float = 0.25) -> dict[str, float]:
    """First times at which tv, entropy and chi2 to uniform drop to the
    threshold. chi2 = (1 + (g-1) e^(-2t/n))^n - 1 reaches a level at the
    closed-form time t_chi2(level). By the catalog edges `TV<=sqrt(chi2)/2`
    and `I<=log1p(chi2)` (with log1p(x) <= x), tv and entropy are at or below
    the threshold by t_chi2(4 threshold^2) and t_chi2(threshold); each is
    searched below that bound by `crossing_time`, reading only its own
    distance at each probe."""
    threshold = _real("threshold", threshold)
    if not threshold > 0.0:
        raise ValueError(f"threshold: must be > 0, got {threshold!r}")
    if 4.0 * threshold * threshold < sys.float_info.min:
        raise ValueError(f"threshold: 4 * threshold^2 underflows, got {threshold!r}")
    curves = _curves(n, g)  # checks n and g before t_chi2 divides by them

    def t_chi2(level: float) -> float:
        # the ratio expm1(log1p(level) / n) / (g - 1) in logs: it underflows
        # for a small level and a large g
        log_ratio = math.log(math.expm1(math.log1p(level) / n)) - math.log(g - 1.0)
        return max(0.0, -0.5 * n * log_ratio)

    return {"tv": crossing_time(curves["tv"], threshold,
                                t_chi2(4.0 * threshold * threshold)),
            "entropy": crossing_time(curves["entropy"], threshold, t_chi2(threshold)),
            "chi2": t_chi2(threshold)}


def product_walk_trace(n: int, g: int, times) -> list[dict[str, float]]:
    """Rows (time, distances) of `product_walk_distances` at each time."""
    curves = _curves(n, g)
    times = [_non_negative("times", t) for t in times]
    return [{"time": t, **_at(curves, t)} for t in times]


# ---------------------------------------------------------------------------
# Standardized Binomial against the normal limit
# ---------------------------------------------------------------------------

def standardized_binomial(n: int) -> RealAtomicDistribution:
    """Binomial(n, 1/2) standardized to mean 0 and variance 1; weights from
    neighbour ratios multiplied out from the mode and divided by their exact
    float sum (`_binomial_pmf`), exactly symmetric about 0.

    Weights below the smallest normal float, 2^-1022, are dropped with their
    atoms: the two end atoms from n = 1022 on, as 2^-n falls below it; for
    smaller n every atom is kept. By Hoeffding the weight of k is at most
    exp(-2 (k - n/2)^2 / n), below 2^-1022 = exp(-708.4) once
    |k - n/2| > sqrt(355 n), so only the atoms within isqrt(355 n) + 2 of
    n/2 are computed: about 2 sqrt(355 n) atoms, 1.2 million at n = 10^9,
    the most taken.
    """
    n = _integer("n", n, 1, 10 ** 9)
    k_lo = max(0, n // 2 - math.isqrt(355 * n) - 2)
    w = _binomial_pmf(n, 1.0, 1.0, k_lo, n - k_lo)
    keep = w > 0.0
    x = (2.0 * np.arange(k_lo, n - k_lo + 1)[keep] - n) / math.sqrt(n)
    return RealAtomicDistribution(x, w[keep])


def binomial_normal_demo(n: int) -> dict[str, float]:
    """TV, discrepancy, Kolmogorov and Levy between the standardized
    Binomial(n, 1/2) and the standard normal, and the last three times
    sqrt(n). TV is 1 exactly (atomic against atomless); the others are
    `transport.smooth_pair`'s exact values, and sqrt(n) times each tends to
    a constant: 2 phi(0), phi(0) and phi(0) / (1 + phi(0)), with phi the
    normal density."""
    mu = standardized_binomial(n)
    halfwidth = max(9.0, math.sqrt(n) + 2.0)
    nu = gaussian_cdf(0.0, 1.0, halfwidth)
    out = {"tv": 1.0}
    for key, (value, _) in tp.smooth_pair(mu, nu).items():
        out[key] = value
        out[f"sqrt_n_{key}"] = math.sqrt(n) * value
    return out


# ---------------------------------------------------------------------------
# Two-point escape-to-distance example
# ---------------------------------------------------------------------------

def dudley_instance(n: float):
    """Distributions ((n-1) delta_0 + delta_n)/n and delta_0 on the two-point
    space {0, n}: Prokhorov-close yet at Wasserstein distance one."""
    n = _real("n", n, 2)
    space = FiniteMetricSpace([[0.0, n], [n, 0.0]])
    p_n = DiscreteDistribution(space, np.array([(n - 1.0) / n, 1.0 / n]))
    target = DiscreteDistribution(space, np.array([1.0, 0.0]))
    return space, p_n, target


def z10_measures():
    """The two measures on Z_10 with equal total variation to uniform but
    different relative entropies, plus the uniform reference."""
    space = FiniteMetricSpace.cycle(10)
    mu = DiscreteDistribution(space, np.array([0.6, 0.1, 0.1, 0.1, 0.1,
                                               0.0, 0.0, 0.0, 0.0, 0.0]))
    nu = DiscreteDistribution(space, np.array([0.2, 0.2, 0.2, 0.2, 0.2,
                                               0.0, 0.0, 0.0, 0.0, 0.0]))
    return space, mu, nu, DiscreteDistribution.uniform(space)
