"""Independent brute-force computations used to validate the production
algorithms. Deliberately slower and structured differently; none of these
share code with the implementations they check, and the module imports
nothing of the package but its domain types in `spaces`.
"""

from __future__ import annotations

import math

import numpy as np

from .spaces import (DiscreteDistribution, RealAtomicDistribution,
                     SmoothRealCdf)


def _subset_masks(n: int) -> np.ndarray:
    """All 2^n subsets as a (2^n, n) boolean matrix."""
    ids = np.arange(2 ** n, dtype=np.uint32)
    return (ids[:, None] >> np.arange(n)[None, :]) & 1 > 0


def tv_subset_oracle(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    """sup_A |mu(A) - nu(A)|, via the positive-part identity."""
    if mu.space.n > 20:
        raise ValueError("tv_subset_oracle: n > 20")
    return math.fsum(np.maximum(mu.p - nu.p, 0.0).tolist())


def tv_exhaustive(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    """Literal maximum over all 2^n subsets."""
    n = mu.space.n
    if n > 12:
        raise ValueError("tv_exhaustive: n > 12")
    masks = _subset_masks(n).astype(float)
    return float(np.max(np.abs(masks @ (mu.p - nu.p))))


def prokhorov_exhaustive(mu: DiscreteDistribution, nu: DiscreteDistribution,
                         check_symmetry: bool = False) -> float:
    """Smallest eps with mu(B) <= nu(B^eps) + eps for every subset B.

    Enumerates all subsets. The slack max_B [mu(B) - nu(B^eps)] is piecewise
    constant in eps between distances, so the infimum lies in the candidate
    set {distances} U {achieved slacks}; the smallest feasible candidate wins.
    """
    n = mu.space.n
    if n > 12:
        raise ValueError("prokhorov_exhaustive: n > 12")
    if n == 1:
        return 0.0

    d = mu.space.d
    masks = _subset_masks(n)
    maskf = masks.astype(float)
    deltas = np.concatenate(([0.0], mu.space.distinct_distances))

    def worst_slack(eps: float, p: np.ndarray, q: np.ndarray) -> float:
        within = (d <= eps).astype(float)
        fattened = (maskf @ within) > 0.0
        return float(np.max(maskf @ p - fattened.astype(float) @ q))

    def smallest_feasible(p: np.ndarray, q: np.ndarray) -> float:
        candidates = set(deltas.tolist())
        for eps in deltas:
            candidates.add(max(0.0, worst_slack(float(eps), p, q)))
        feasible = [c for c in sorted(candidates)
                    if worst_slack(c, p, q) <= c + 1e-15]
        return feasible[0]

    value = smallest_feasible(mu.p, nu.p)
    if check_symmetry:
        swapped = smallest_feasible(nu.p, mu.p)
        if abs(value - swapped) > 1e-9:
            raise AssertionError(
                f"prokhorov oracle asymmetry: {value} vs {swapped}")
    return value


def ball_growth_exhaustive(nu: DiscreteDistribution, eps: float) -> float:
    """max of nu(B^eps) - nu(B) over every closed ball B and ball complement.

    Each ball space.ball(c, r), for every center and every radius in
    {0} U distances, and its complement is built as a point set, fattened
    point by point and weighed with exactly rounded sums.
    """
    space = nu.space
    if space.n > 12:
        raise ValueError("ball_growth_exhaustive: n > 12")
    everything = frozenset(range(space.n))
    family = set()
    for c in range(space.n):
        for r in [0.0] + space.distinct_distances.tolist():
            ball = space.ball(c, r)
            family.update((ball, everything - ball))
    return max(nu.mass(space.fatten(b, eps)) - nu.mass(b) for b in family)


def interval_growth_exhaustive(nu: RealAtomicDistribution, eps: float) -> float:
    """max of nu(B^eps) - nu(B) over closed intervals B = [a, b] of the line
    and their complements, by trying every pair of ends.

    [a, b] gains the atoms x with 0 < a - x <= eps or 0 < x - b <= eps. Its
    complement is open, so its eps-fattening is (-inf, a + eps] U
    [b - eps, inf), and it gains the atoms x of [a, b] with x - a <= eps or
    b - x <= eps. Both are constant while each end stays on one piece of the
    line cut at the atoms y and at y - eps, y + eps, so the ends a <= b range
    over those cuts, the midpoints between them and one point beyond each
    end. Membership is decided in this distance form, on the float
    differences, and never by rebuilding an end as y + eps, which can round
    below or above where x - a crosses eps.
    """
    y, w = nu.positions, nu.weights
    cuts = np.unique(np.concatenate([y - eps, y, y + eps]))
    ends = np.sort(np.concatenate([cuts, (cuts[:-1] + cuts[1:]) / 2.0,
                                   [cuts[0] - 1.0, cuts[-1] + 1.0]]))
    best = 0.0
    for i, a in enumerate(ends.tolist()):
        b = ends[i:, None]
        grown = (((a - y > 0.0) & (a - y <= eps))
                 | ((y - b > 0.0) & (y - b <= eps)))
        shrunk = (a <= y) & (y <= b) & ((y - a <= eps) | (b - y <= eps))
        best = max(best, float(np.max(grown @ w)), float(np.max(shrunk @ w)))
    return best


def levy_grid_oracle(F: RealAtomicDistribution, G: RealAtomicDistribution,
                     mesh: float = 1e-4) -> tuple[float, float]:
    """Bracket [lo, hi] around the Levy distance, hi - lo <= mesh.

    Feasibility of each eps is decided exactly: the two step-function
    conditions are piecewise constant between the discontinuities of both
    sides, so checking the discontinuity points, midpoints between them, and
    one point beyond each end covers every piece.
    """
    xs_f, xs_g = F.positions, G.positions

    def feasible(eps: float) -> bool:
        breaks = np.unique(np.concatenate(
            [xs_f, xs_g - eps, xs_g + eps]))
        mids = (breaks[:-1] + breaks[1:]) / 2.0
        pts = np.concatenate([breaks, mids,
                              [breaks[0] - 1.0, breaks[-1] + 1.0]])
        for x in pts.tolist():
            fx = F.cdf(x)
            if fx > G.cdf(x + eps) + eps + 1e-15:
                return False
            if G.cdf(x - eps) - eps > fx + 1e-15:
                return False
        return True

    k = 0
    while not feasible(k * mesh):
        k += 1
        if k * mesh > 1.0 + mesh:
            raise AssertionError("levy oracle: no feasible eps below 1")
    return max(0.0, (k - 1) * mesh), k * mesh


def cdg_disc_window_oracle(dist: np.ndarray) -> float:
    """Discrepancy to uniform on the p-cycle by scanning every odd window.

    Closed balls on an odd cycle are the odd-length circular arcs plus the
    whole space; this enumerates them all via a doubled cumulative array.
    """
    p = dist.shape[0]
    if p > 4096:
        raise ValueError("cdg_disc_window_oracle: p > 4096")
    doubled = np.concatenate([dist, dist])
    csum = np.concatenate([[0.0], np.cumsum(doubled)])
    best = 0.0
    for length in range(1, p + 1, 2):
        sums = csum[length:length + p] - csum[:p]
        best = max(best, float(np.max(np.abs(sums - length / p))))
    return best


def mixed_discrepancy_scan_oracle(F: RealAtomicDistribution,
                                  G: SmoothRealCdf) -> float:
    """sup over closed intervals of |F-mass - G-mass|, by full candidate scan.

    Enumerates every pair of candidate endpoints (atom positions plus
    sentinels beyond the atoms) in both the closed-at-atoms and
    open-at-atoms configurations.
    """
    xs = F.positions
    pts = np.concatenate([[xs[0] - 1.0], xs, [xs[-1] + 1.0]])
    cums = np.cumsum(F.weights)
    w_incl = np.concatenate([[0.0], cums, [cums[-1]]])  # F-mass <= pts[j]
    w_excl = np.concatenate([[0.0], w_incl[:-1]])       # F-mass <  pts[j]
    g = np.array([G(float(x)) for x in pts])

    m = pts.size
    upper = np.triu(np.ones((m, m), dtype=bool))
    closed = np.abs((w_incl[None, :] - w_excl[:, None]) - (g[None, :] - g[:, None]))
    strict = np.triu(upper, k=1)
    open_ = np.abs((w_excl[None, :] - w_incl[:, None]) - (g[None, :] - g[:, None]))
    return max(float(np.max(closed[upper])), float(np.max(open_[strict])), 0.0)


def product_walk_direct(n: int, g: int, t: float) -> dict[str, float]:
    """Distances to uniform for the coordinate-refresh walk, computed on the
    full g^n-point product space (small cases only), each from its
    definition with exactly rounded sums."""
    if g ** n > 2 ** 20:
        raise ValueError("product_walk_direct: state space too large")
    s = t / n
    stay = math.exp(-s)
    coord = np.full(g, (1.0 - stay) / g)
    coord[0] += stay
    dist = np.array([1.0])
    for _ in range(n):
        dist = np.kron(dist, coord)
    u = 1.0 / g ** n
    pos = dist[dist > 0.0]
    return {
        "tv": 0.5 * math.fsum(np.abs(dist - u).tolist()),
        "entropy": math.fsum((pos * np.log(pos / u)).tolist()),
        "chi2": math.fsum(((dist - u) ** 2 / u).tolist()),
        "hellinger": math.sqrt(math.fsum(((np.sqrt(dist) - math.sqrt(u)) ** 2).tolist())),
        "separation": float(np.max(1.0 - dist / u)),
    }


def cdg_fourier_transform(p: int, k: int) -> np.ndarray:
    """Fourier transform of the doubling walk's law after k steps from 0.

    X_k = sum_{j<k} 2^j e_j (mod p) with independent e_j uniform on
    {-1, 0, 1}, so at every frequency xi the transform sum_x P(X_k = x)
    e^(-2 pi i xi x / p) is the real product over j < k of
    (1 + 2 cos(2 pi ((2^j mod p) xi mod p) / p)) / 3. Angles are reduced
    mod p in integers before the cosine, so none grows with k.
    """
    if p < 1 or p > 2 ** 31:
        raise ValueError("cdg_fourier_transform: p must be in 1..2^31")
    if k < 0:
        raise ValueError("cdg_fourier_transform: k < 0")
    xi = np.arange(p, dtype=np.int64)
    phi = np.ones(p)
    mult = 1 % p
    for _ in range(k):
        angle = (xi * mult) % p * (2.0 * math.pi / p)
        phi *= (1.0 + 2.0 * np.cos(angle)) / 3.0
        mult = 2 * mult % p
    return phi
