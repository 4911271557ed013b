"""Geometry-aware metrics: discrepancy, Kolmogorov, Levy, Prokhorov,
Wasserstein, plus the ball-growth modulus used to bound discrepancy by
Prokhorov.

Exact algorithms throughout: discrepancy enumerates the finitely many closed
balls, which on the line are the intervals. A pair on the line is read once,
with both one-sided values of each CDF, at the merged atoms of two step
CDFs, at the atoms of a step CDF against a smooth one, or on a grid for two
smooth ones; Kolmogorov, Levy, the interval discrepancy and Wasserstein are
each one formula over that reading. One transport core serves
Prokhorov and Wasserstein on a finite space: a primal-dual method on dense
arrays, started from tight arcs, whose every phase finds one shortest-path
tree in vectorized rounds and then ships along it to every sink.
Wasserstein there moves only the surplus of mu - nu onto its deficit
(Kantorovich-Rubinstein duality), with the optimal coupling and a
1-Lipschitz function as witnesses; on the line it is the integral of
|F - G|. Prokhorov binary-searches the distinct distances delta,
where by Strassen's equivalence its slack is the optimum under the 0/1 cost
1{d > delta}; on the line, shipping each atom in order to the leftmost mass
it reaches finds that optimum without the solver.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .spaces import (Coupling, DiscreteDistribution, RealAtomicDistribution,
                     SmoothRealCdf, _check_same_space, _frozen, _non_negative,
                     _read_many)

_FLOW_EPS = 1e-12


# ---------------------------------------------------------------------------
# Discrepancy
# ---------------------------------------------------------------------------

def discrepancy_finite(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    """Largest |mu(B) - nu(B)| over closed balls, exactly.

    Balls only change at radii taken from the distance multiset, so scanning
    the cumulative mass difference in distance order from every center covers
    them all. Row c of the scan is center c.
    """
    _check_same_space(mu, nu)
    d = mu.space.d
    order = np.argsort(d, axis=1, kind="stable")
    csum = np.cumsum((mu.p - nu.p)[order], axis=1)
    # last index of each tie group = a complete ball
    ends = np.diff(np.take_along_axis(d, order, axis=1), axis=1, append=np.inf) > 0
    return float(np.max(np.abs(csum[ends])))


def _interval_discrepancy(f, f_left, g, g_left) -> float:
    """sup over intervals of |mu(I) - nu(I)| from the values f_left <= f of
    the CDF F of mu and g_left <= g of the CDF G of nu at increasing points.

    r = F - G and l = F(.-) - G(.-) are padded with 0 on each side, where F
    and G agree far out. An interval that mu outweighs is best closed on
    points i <= j, worth r_j - l_i; one that nu outweighs is best open
    between points i < j, worth r_i - l_j. Each is a running max over
    prefixes.
    """
    r = np.concatenate(([0.0], f - g, [0.0]))
    l = np.concatenate(([0.0], f_left - g_left, [0.0]))
    closed = r + np.maximum.accumulate(-l)
    open_ = -l[1:] + np.maximum.accumulate(r)[:-1]
    return float(max(closed.max(), open_.max()))


def _kolmogorov(f, f_left, g, g_left) -> float:
    """sup |F - G| from the values of F and G on both sides of the points."""
    return float(max(np.abs(f - g).max(), np.abs(f_left - g_left).max()))


# Grid step on which two smooth CDFs are read, and the most points the grid
# may hold.
SMOOTH_MESH = 1e-3
SMOOTH_GRID_CAP = 10**7


def _read(F: RealAtomicDistribution | SmoothRealCdf, G: RealAtomicDistribution | SmoothRealCdf):
    """The one reading of a pair on the line: increasing points xs, and the
    values on both sides of each, f_left <= f of F and g_left <= g of G.

    Two step CDFs are read exactly at their merged atoms, between which both
    are constant. Against a smooth G, one `cdf_many` call over all the
    points gives g, which stands for both sides. For an atomic F the points
    are its atoms, at which F's values are its cumulative masses, and G's
    oracle must hold the 1e-9 budget and its truncation interval must cover
    them. For a smooth F they are a grid of step SMOOTH_MESH over both
    truncation intervals, read by one `cdf_many` call of F whose value
    stands for both sides too; a grid of more than SMOOTH_GRID_CAP points
    raises ValueError, and so does an oracle value that is NaN or a
    `cdf_many` result that does not hold one value per point.
    """
    if isinstance(G, RealAtomicDistribution):
        xs = np.union1d(F.positions, G.positions)
        return xs, F.cdf(xs), F.cdf_left(xs), G.cdf(xs), G.cdf_left(xs)
    if isinstance(F, RealAtomicDistribution):
        if G.eval_tolerance > 1e-9:
            raise ValueError("eval_tolerance: cdf oracle tolerance exceeds the 1e-9 budget")
        xs = F.positions
        if xs[0] < G.support[0] or xs[-1] > G.support[1]:
            raise ValueError("support: truncation interval does not cover the atoms")
        # F.cdf and F.cdf_left at its own atoms, without their searches
        f, f_left = F._cum[1:], F._cum[:-1]
    else:
        (a, b), (c, d) = F.support, G.support
        lo, hi = min(a, c), max(b, d) + SMOOTH_MESH
        points = math.ceil((hi - lo) / SMOOTH_MESH)  # the length np.arange gives
        if points > SMOOTH_GRID_CAP:
            raise ValueError(f"support: the truncation intervals span {points} grid "
                             f"points of step {SMOOTH_MESH}, above {SMOOTH_GRID_CAP}")
        xs = np.arange(lo, hi, SMOOTH_MESH)
        f = f_left = _read_many(F, xs)
    g = _read_many(G, xs)
    nan = np.isnan(f) | np.isnan(g)
    if nan.any():
        raise _nan_at(float(xs[nan.argmax()]))
    return xs, f, f_left, g, g


def _nan_at(x: float) -> ValueError:
    """The refusal of an oracle value that is NaN: every comparison with it
    is False, so a sup or a search would pass it over."""
    return ValueError(f"cdf: oracle is NaN at x = {x!r}")


def _check_steps(name: str, F, G) -> None:
    if not all(isinstance(H, RealAtomicDistribution) for H in (F, G)):
        raise TypeError(f"{name}: takes two atomic CDFs; against a smooth CDF, "
                        "smooth_pair reads K, L and disc")


def discrepancy_real(F: RealAtomicDistribution, G: RealAtomicDistribution) -> float:
    """sup over closed intervals of |mu([a,b]) - nu([a,b])| for two atomic
    measures, exactly: the interval discrepancy of their step CDFs, read on
    both sides of the merged atoms."""
    _check_steps("discrepancy_real", F, G)
    return _interval_discrepancy(*_read(F, G)[1:])


def discrepancy_real_mixed(mu: RealAtomicDistribution, nu: SmoothRealCdf) -> float:
    """sup over closed intervals of |mu([a,b]) - nu([a,b])| for atomic mu
    against an atomless nu, exactly: the `disc` of `smooth_pair`."""
    if not (isinstance(mu, RealAtomicDistribution) and isinstance(nu, SmoothRealCdf)):
        raise TypeError("discrepancy_real_mixed: takes an atomic mu and a smooth nu; "
                        "smooth_pair reads disc for any pair against a smooth CDF")
    return _interval_discrepancy(*_read(mu, nu)[1:])


# ---------------------------------------------------------------------------
# Kolmogorov and Levy on the line
# ---------------------------------------------------------------------------

def kolmogorov(F: RealAtomicDistribution, G: RealAtomicDistribution) -> float:
    """sup_x |F(x) - G(x)| of two step CDFs, compared on both sides of the
    merged atoms. Against a smooth CDF, `smooth_pair` reads it."""
    _check_steps("kolmogorov", F, G)
    return _kolmogorov(*_read(F, G)[1:])


def _bisect(feasible, tol: float, hi: float = 1.0) -> float:
    """Smallest x in [0, hi], to `tol`, at which the monotone predicate
    `feasible` holds; at tol = 0, the first float at which it holds: 0.0
    when feasible(0.0), else the upper end of the last bracket (`hi`, which
    is never probed, when nothing below it is).

    The one search of the package: plain bisection, which halves the
    bracket until its ends are adjacent floats or within `tol`.
    """
    if feasible(0.0):
        return 0.0
    lo = 0.0
    while hi - lo > tol:
        mid = lo + (hi - lo) / 2.0  # lo + hi can overflow near the float max
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _levy_search(G, xs: np.ndarray, f, f_left, g, g_left, tol: float) -> float:
    """Levy distance, bisected to `tol`, of F against the CDF G, a step or a
    smooth one, from their reading by `_read`.

    The condition at x, F(x) <= G(x+eps) + eps and G((x-eps)-) - eps <=
    F(x-), is monotone in eps, so L is the largest per-point root. F is a
    step between the points (a smooth F's grid reads it as one), whose
    start binds the first half and whose end, at G's left limit, the second:
    at the points it is exactly the Levy condition. A root is at most the
    point's gap max(f - g, g_left - f_left), and the points are visited in
    decreasing gap; once a gap is at most the best root so far, no later
    point can raise it. A point is bisected only when its condition fails
    at the best root, and only above it: `_bisect`'s predicate is
    eps > best and the condition at eps. Its probes read G one point at a
    time through `G.cdf` and `G.cdf_left`, not `cdf_many`, whose array
    form costs many scalar calls on one float; a NaN among them raises
    ValueError.
    """
    gap = np.maximum(f - g, g_left - f_left)
    best = 0.0
    for i in np.argsort(gap)[::-1].tolist():
        if gap[i] <= best:
            break
        x, fx, fx_left = float(xs[i]), float(f[i]), float(f_left[i])

        def ok(eps: float) -> bool:
            # each test also fails on a NaN, which is then refused
            right = G.cdf(x + eps)
            if not fx <= right + eps + 1e-15:
                if math.isnan(right):
                    raise _nan_at(x + eps)
                return False
            left = G.cdf_left(x - eps)
            if not left - eps <= fx_left + 1e-15:
                if math.isnan(left):
                    raise _nan_at(x - eps)
                return False
            return True

        if not ok(best):
            best = _bisect(lambda e: e > best and ok(e), tol)
    return best


def levy(F: RealAtomicDistribution, G: RealAtomicDistribution) -> float:
    """Levy distance of two step CDFs, bisected to an absolute tolerance of
    1e-12: one `_levy_search` over the merged atoms, whose every probe is a
    dyadic point of the same halving of [0, 1], so the value equals one
    joint bisection over all points bit for bit. Against a smooth CDF,
    `smooth_pair` reads it."""
    _check_steps("levy", F, G)
    return _levy_search(G, *_read(F, G), 1e-12)


def smooth_pair(F: RealAtomicDistribution | SmoothRealCdf,
                G: RealAtomicDistribution | SmoothRealCdf) -> dict[str, tuple[float, float]]:
    """Kolmogorov, Levy and interval discrepancy of a pair against a smooth
    CDF, each as (value, certified error), keyed as the bound catalog's
    values. One of F and G may be atomic; the three metrics are symmetric,
    so the atomic one is taken as F.

    Both CDFs are read once by `_read` at the same points: F's atoms, or for
    a smooth F a grid of step SMOOTH_MESH over both truncation intervals;
    each smooth CDF there by one `cdf_many` call. G is read again, by its
    scalar `cdf`, only where the Levy search probes it. K, L and disc are
    each one formula over that reading, as for two step CDFs. Against an
    atomic F these are exact, and L is bisected to 1e-12. For two smooth
    CDFs a sup read off the grid is within err = (c_F + c_G) * SMOOTH_MESH
    + tol_F + tol_G of the true one, disc (a spread of two extremes) within
    2 err, and L is bisected to SMOOTH_MESH / 4. L's bisection tolerance
    joins its error when L > 0.
    """
    if isinstance(F, SmoothRealCdf) and isinstance(G, RealAtomicDistribution):
        F, G = G, F
    if not isinstance(G, SmoothRealCdf):
        raise TypeError("smooth_pair: needs a smooth CDF; use kolmogorov and "
                        "levy for two atomic ones")
    reading = _read(F, G)
    err, tol = 0.0, 1e-12
    if isinstance(F, SmoothRealCdf):
        err = ((F.density_bound + G.density_bound) * SMOOTH_MESH
               + F.eval_tolerance + G.eval_tolerance)
        tol = SMOOTH_MESH / 4.0
    levy_value = _levy_search(G, *reading, tol)
    return {
        "kolmogorov": (_kolmogorov(*reading[1:]), err),
        "levy": (levy_value, err + tol if levy_value > 0 else err),
        "disc": (_interval_discrepancy(*reading[1:]), 2.0 * err),
    }


# ---------------------------------------------------------------------------
# Transport core: primal-dual phases on dense arrays
# ---------------------------------------------------------------------------

def _transport(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray,
               flow: np.ndarray, stop_cost: float = math.inf
               ) -> tuple[np.ndarray, np.ndarray]:
    """Min-cost transportation plan by the primal-dual method: each phase
    finds every shortest distance once, then ships along many paths.

    The contract: costs are finite, non-negative, `flow` uses only arcs of
    cost 0, and shipping stops at the first path whose cost reaches `stop_cost`.
    The solve ends once supply or demand is exhausted, or after a phase
    that ships nothing. Returns the flow and the column potentials, which
    with the row potentials satisfy pot_c[j] - pot_r[i] <= cost[i, j], with
    equality wherever flow ships.

    The residual graph is bipartite: a forward arc i -> j of cost
    cost[i, j] for every pair, and a backward arc j -> i of cost -cost[i, j]
    wherever flow[i, j] > _FLOW_EPS. Potentials keep every reduced cost
    non-negative, and flow ships only on arcs of reduced cost 0, so a
    backward arc costs 0. The solve starts from tight arcs: each column is
    priced at its cheapest arc, 0 wherever `flow` ships, and one greedy pass
    ships along the arcs at a price below `stop_cost`. Each phase runs from
    the rows with remaining supply, at distance 0, in vectorized rounds:
    every column takes its cheapest row through the forward arcs, then every
    row its cheapest column through the backward arcs, until no row
    improves. The reduced costs are kept column-major for the column step.
    A parent changes only on a strict improvement, so with
    non-negative costs the parents form a tree. Adding the distances to the
    potentials keeps every reduced cost non-negative and makes every tree
    arc tight. A row with remaining supply stays at distance 0, so its
    potential stays 0 and, through its finite arcs, every column's stays
    finite; along a path of tight arcs pot_c[j] - pot_r[i] is the cost of
    the path from root i to column j. A row with neither supply nor flow is
    dead: a path starts only at a row with supply and enters a row only
    along a backward arc, which needs flow, so no path of this phase or a
    later one reaches it. Its potential becomes inf, which only makes its
    reduced costs inf: row potentials are never returned, and the stop test
    reads one only at a root. The phase then walks the tree path to each
    column that still needs mass, cheapest first, and ships what the path's
    root, the column and the path's backward arcs allow, skipping a path
    that an earlier one in the phase left without supply or backward flow.
    A phase ships its paths on scalar reads and writes of `flow`.
    Flow moves only on tight arcs while the potentials stay dual feasible,
    so a full flow is optimal by LP duality.
    """
    n, m = cost.shape
    flow = flow.copy()
    rem_s = supply - flow.sum(axis=1)
    rem_d = demand - flow.sum(axis=0)
    pot_r = np.zeros(n)
    rows_n, cols_m = np.arange(n), np.arange(m)
    cost_t = np.ascontiguousarray(cost.T)

    # price each column at its cheapest arc, then ship greedily along the
    # arcs that meet that price below the stop, column by column
    pot_c = cost.min(axis=0)
    tight = ((cost == pot_c) & (pot_c < stop_cost)
             & (rem_s > _FLOW_EPS)[:, None] & (rem_d > _FLOW_EPS))
    rs, rd = rem_s.tolist(), rem_d.tolist()
    for j, i in zip(*(a.tolist() for a in np.nonzero(tight.T))):
        amt = min(rs[i], rd[j])
        if amt > _FLOW_EPS:
            flow[i, j] += amt
            rs[i] -= amt
            rd[j] -= amt
    rem_s, rem_d = np.array(rs), np.array(rd)

    for _ in range(16 * (n + m) + 100):
        is_src = rem_s > _FLOW_EPS
        sinks = (rem_d > _FLOW_EPS).nonzero()[0]
        if not (is_src.any() and sinks.size):
            return flow, pot_c
        rc_t = np.maximum(cost_t + (pot_r - pot_c[:, None]), 0.0)
        back = np.where(flow > _FLOW_EPS, 0.0, math.inf)
        dist_r = np.where(is_src, 0.0, math.inf)
        dist_c = np.full(m, math.inf)
        par_r, par_c = np.full(n, -1), np.full(m, -1)
        while True:  # columns through forward arcs, then rows through backward
            reach = rc_t + dist_r
            k = reach.argmin(axis=1)
            nd = reach[cols_m, k]
            np.copyto(par_c, k, where=nd < dist_c)
            np.minimum(nd, dist_c, out=dist_c)
            reach = back + dist_c
            k = reach.argmin(axis=1)
            nd = reach[rows_n, k]
            better = nd < dist_r
            if not np.count_nonzero(better):
                break
            np.copyto(par_r, k, where=better)
            np.minimum(nd, dist_r, out=dist_r)
        pot_r += dist_r
        pot_c += dist_c

        # ship along the tree path to each column that needs mass: forward
        # arcs fi -> [j] + bj, backward arcs bj -> fi[:-1], each undoing
        # flow on its pair; a path visits each node once, so no pair is
        # updated twice
        shipped = False
        pr, pc = par_r.tolist(), par_c.tolist()
        rs, rd, qr, qc = (a.tolist() for a in (rem_s, rem_d, pot_r, pot_c))
        for j in sinks[np.argsort(pot_c[sinks], kind="stable")].tolist():
            fi, bj = [pc[j]], []
            while pr[fi[-1]] >= 0:
                bj.append(pr[fi[-1]])
                fi.append(pc[bj[-1]])
            i = fi[-1]
            if qc[j] - qr[i] >= stop_cost:  # the path's cost under `cost`
                break
            bwd = list(zip(fi, bj))
            amt = min([rs[i], rd[j]] + [flow[a] for a in bwd])
            if amt <= _FLOW_EPS:  # an earlier path drained the root or an arc
                continue
            for a in zip(fi, [j] + bj):
                flow[a] += amt
            for a in bwd:
                flow[a] -= amt
            rem_s[i] = rs[i] = rs[i] - amt
            rem_d[j] = rd[j] = rd[j] - amt
            shipped = True
        if not shipped:
            return flow, pot_c
    raise RuntimeError("transportation solver failed to converge")


# ---------------------------------------------------------------------------
# Prokhorov
# ---------------------------------------------------------------------------

def prokhorov(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    """Prokhorov distance, exactly, via Strassen's coupling equivalence.

    u(delta) = 1 - (max coupled mass within delta) is the worst slack
    max_B [mu(B) - nu(B^delta)]; it is non-increasing and piecewise constant
    on the distinct distances d_1 < ... < d_K. Interval k contains a feasible
    eps iff u(d_k) < d_{k+1}, validity is monotone in k, and the first valid
    interval yields the infimum max(d_k, u(d_k)).

    u(0) = 1 - sum min(mu, nu) is the total variation, so the slack never
    exceeds TV and every k with d_{k+1} > TV is valid (the catalog's P <= TV).
    The search therefore runs only over the distances at or below TV, with
    u(0) read from the shared mass instead of a solve; when d_1 > TV, P = TV
    and no transport problem is solved at all.

    u(delta) is the optimal transportation cost under the 0/1 cost
    1{d > delta}, solved by `_transport` stopped at 1. Shortest paths there
    cost 0 until the zero-cost arcs carry all they can, then exactly 1,
    since a direct arc costs at most 1. So the solve ends at the first path
    of cost 1 with no zero-cost augmenting path left: the flow is a maximum
    flow on the arcs with d <= delta, and u(delta) is the supply left
    unshipped. Each probe starts from the flow of the largest delta known
    infeasible, or from the mass the two measures share on each point:
    either uses only arcs with d <= the new delta, as the solver's contract
    asks. A point mu leaves empty carries no supply and no flow, a dead row
    that no path reaches, so it changes no probe. On one point there is no
    d_1, TV = 0, and the search returns u(0) = 0.
    """
    _check_same_space(mu, nu)
    d = mu.space.d
    deltas = np.concatenate(([0.0], mu.space.distinct_distances))

    shared = np.diag(np.minimum(mu.p, nu.p))  # shared mass stays put
    # at delta = 0 the solver ships nothing beyond the shared mass
    tv = max(0.0, float(np.sum(mu.p - shared.sum(axis=1))))
    cache = {0: (tv, shared)}  # k -> (u(d_k), its flow)

    def u(k: int) -> float:
        if k not in cache:
            # every index probed below k was infeasible; start from the largest
            warm = cache[max(j for j in cache if j < k)][1]
            flow, _ = _transport((d > deltas[k]).astype(float), mu.p, nu.p,
                                 flow=warm, stop_cost=1.0)
            unshipped = float(np.sum(mu.p - flow.sum(axis=1)))
            cache[k] = (max(0.0, unshipped), flow)
        return cache[k][0]

    # interval hi is valid: u(d_hi) <= u(0) = TV < d_{hi+1}, or d_hi is the
    # largest distance; so only the k < hi, which have a d_{k+1}, are searched
    hi = int(np.searchsorted(deltas, tv, side="right")) - 1
    k = bisect.bisect_left(range(hi), True, key=lambda j: u(j) < float(deltas[j + 1]))
    return max(float(deltas[k]), u(k))


def prokhorov_real(F: RealAtomicDistribution, G: RealAtomicDistribution) -> float:
    """Prokhorov distance of two atomic measures on the line, exactly: the
    smallest float eps with u(eps) <= eps, u(delta) the F mass a maximum flow
    along the pairs with |x - y| <= delta (in float, as a distance matrix
    holds it) leaves unshipped. Both ends of an atom's reach move right with
    it, so shipping each F atom, in order, to the leftmost G mass it reaches
    is a maximum flow (Glover, 1967). One pointer skips the G atoms drained
    or out of reach of every later atom: a probe is O(m_F + m_G). `_bisect`
    reads the predicate u(eps) <= eps down to adjacent floats.
    """
    _check_steps("prokhorov_real", F, G)
    xs, ys, p, q = (a.tolist() for a in (F.positions, G.positions, F.weights, G.weights))

    def unshipped(delta: float) -> float:
        left, j, total = q.copy(), 0, 0.0
        for x, need in zip(xs, p):
            while j < len(ys) and (left[j] <= 0.0 or x - ys[j] > delta):
                j += 1
            k = j
            while need > 0.0 and k < len(ys) and abs(x - ys[k]) <= delta:
                amt = min(need, left[k])
                left[k] -= amt
                need -= amt
                k += 1
            total += need
        return total

    return _bisect(lambda eps: unshipped(eps) <= eps, 0.0)


# ---------------------------------------------------------------------------
# Wasserstein
# ---------------------------------------------------------------------------

def wasserstein_finite(mu: DiscreteDistribution, nu: DiscreteDistribution
                       ) -> tuple[float, Coupling, np.ndarray]:
    """Optimal transportation cost under the space's metric, with two
    witnesses: the optimal coupling, whose exact cost is the value, and a
    1-Lipschitz f with sum f (mu - nu) equal to it.

    Under a metric cost W depends only on e = mu - nu (Kantorovich-Rubinstein
    duality: W = sup over 1-Lipschitz f of sum f e). So the shared mass
    min(mu, nu) stays on its point, and only the surplus block moves: from
    S = {e > 0} to T = {e < 0}, at cost d[S][:, T]. With v the solver's
    column potentials on T, f(x) = min over t in T of d(x, t) - v_t is
    1-Lipschitz, being a minimum of 1-Lipschitz functions, and attains W.
    When S or T is empty nothing is solved: W = 0 and f = 0.
    """
    _check_same_space(mu, nu)
    d = mu.space.d
    e = mu.p - nu.p
    src, snk = e > 0.0, e < 0.0
    J = np.diag(np.minimum(mu.p, nu.p))
    f = np.zeros(mu.space.n)
    if src.any() and snk.any():
        block = d[src][:, snk]
        flow, v = _transport(block, e[src], -e[snk], flow=np.zeros(block.shape))
        J[np.ix_(src, snk)] += flow
        f = np.min(d[:, snk] - v, axis=1)
    coupling = Coupling(J, mu, nu)
    return coupling.expected_cost(d), coupling, f


def wasserstein_real(F: RealAtomicDistribution, G: RealAtomicDistribution) -> float:
    """Integral of |F - G| over the merged atoms, exactly: F - G is constant
    from each atom to the next."""
    _check_steps("wasserstein_real", F, G)
    xs, f, _, g, _ = _read(F, G)
    return math.fsum((np.abs(f - g)[:-1] * np.diff(xs)).tolist())


# ---------------------------------------------------------------------------
# Ball-growth modulus (for the discrepancy-vs-Prokhorov bound)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BallGrowthModulus:
    """Right-continuous step function eps -> max_B nu(B^eps) - nu(B), the
    maximum taken over closed balls and complements of closed balls."""

    breakpoints: np.ndarray  # sorted, starting at 0
    values: np.ndarray       # non-decreasing, values[0] = 0

    def __post_init__(self):
        if np.any(np.diff(self.values) < -1e-15):
            raise ValueError("ball-growth modulus must be non-decreasing")
        object.__setattr__(self, "breakpoints", _frozen(self.breakpoints))
        object.__setattr__(self, "values", _frozen(self.values))

    def at(self, eps: float) -> float:
        _non_negative("eps", eps)
        k = int(np.searchsorted(self.breakpoints, eps, side="right")) - 1
        return float(self.values[max(k, 0)])


# Centers are processed in blocks of at most this many (center, point, point)
# cells: small spaces take one vectorized pass, large ones keep O(n^2) memory.
_BLOCK_CELLS = 1 << 15


def _ball_distances(d: np.ndarray):
    """Distances from closed balls and their complements to every point.

    The closed balls around a center are the prefixes of its stable distance
    order that end on a tie-group boundary, and their complements are the
    matching suffixes; running minima over the sorted rows give each set's
    distance to every point. Yields one matrix per block of centers, a row
    per set. The whole space and the empty set, whose growth is 0, are left
    out. `d` may be the distance matrix or any matrix with the same order,
    such as its ranks.
    """
    n = d.shape[0]
    step = max(1, _BLOCK_CELLS // (n * n))
    for c0 in range(0, n, step):
        block = d[c0:c0 + step]
        order = np.argsort(block, axis=1, kind="stable")
        rows = d[order]  # rows[c, j]: distances from the j-th nearest point of c
        ends = np.diff(np.sort(block, axis=1), axis=1) > 0  # last of a tie group
        balls = np.minimum.accumulate(rows, axis=1)[:, :-1][ends]
        complements = np.minimum.accumulate(rows[:, ::-1], axis=1)[:, :-1][ends[:, ::-1]]
        yield np.concatenate([balls, complements])


def ball_growth_at(nu: DiscreteDistribution, eps: float) -> float:
    """max over balls and ball complements of nu(B^eps) - nu(B).

    Below the smallest distance no set gains a point, so the value is 0.
    Otherwise, per block of centers: the balls around center c are the
    prefixes B_k of its stable distance order that end on a tie group, k <=
    n - 2, and their complements S_k the matching suffixes. With reach[j, x]
    = d(order[j], x) <= eps, first[x] is the first position j that reaches
    x and last[x] the last one, so x lies in B_k^eps iff first[x] <= k and
    in S_k^eps iff last[x] > k. One bincount of nu over both and a cumsum
    along k give every set's fattened mass: B_k gains nu(first <= k) -
    nu(B_k), and S_k gains nu(B_k) - nu(last <= k). Memory is one boolean
    (center, point, point) array per block.
    """
    if not isinstance(nu, DiscreteDistribution):
        raise TypeError(f"nu: must be a measure on a finite space, got {type(nu).__name__}")
    _non_negative("eps", eps)
    space, p = nu.space, nu.p
    if eps < space.d_min:
        return 0.0
    d, n = space.d, space.n
    within = d <= eps
    step = min(n, max(1, _BLOCK_CELLS // (n * n)))
    offsets = n * np.arange(2 * step)[:, None]  # one bincount row per (side, center)
    weights = np.tile(p, 2 * step)
    best = 0.0
    for c0 in range(0, n, step):
        block = d[c0:c0 + step]
        m = block.shape[0]
        order = np.argsort(block, axis=1, kind="stable")
        reach = within[order]  # reach[c, j, x]: the j-th nearest point of c reaches x
        pos = np.concatenate([reach.argmax(axis=1), n - 1 - reach[:, ::-1].argmax(axis=1)])
        cells = (pos + offsets[:2 * m]).ravel()
        # mass[c, k] = nu(first <= k), mass[m + c, k] = nu(last <= k)
        mass = np.bincount(cells, weights[:cells.size], cells.size).reshape(2 * m, n).cumsum(axis=1)
        inside = p[order].cumsum(axis=1)
        ends = np.diff(np.sort(block, axis=1), axis=1) > 0  # last of a tie group
        growth = np.maximum(mass[:m] - inside, inside - mass[m:])[:, :-1][ends]
        best = max(best, float(np.max(growth, initial=0.0)))
    return best


def interval_growth_at(nu: RealAtomicDistribution, eps: float) -> float:
    """sup over closed intervals B of the line and their complements of
    nu(B^eps) - nu(B), B^eps the closed eps-fattening, in O(m log m).

    An interval [a, b] gains nu([a - eps, a)) + nu((b, b + eps]). With y_r
    the last atom of the left window and y_l the first of the right one,
    y_r < y_l and the gain is at most L_r + R_l, where L_r = nu([y_r - eps,
    y_r]) and R_l = nu([y_l, y_l + eps]); the complement of [y_r - eps,
    y_l + eps] gains exactly that. So intervals are dominated by
    complements. The complement of [a, b] gains nu([a, a + eps]) +
    nu([b - eps, b]) when b - a > 2 eps: sliding each window outward onto
    its outermost atom gives the largest L_r + R_l over atoms r < l, one
    running max. When b - a <= 2 eps it gains all of [a, b]: the largest
    C_i = nu([y_i, y_i + 2 eps]).

    A complement is open, so its closure gains the atoms at both ends: the
    value at eps = 0 is the largest sum of two atom weights (1 for a single
    atom), not 0.
    """
    if not isinstance(nu, RealAtomicDistribution):
        raise TypeError(f"nu: must be atomic on the line, got {type(nu).__name__}")
    _non_negative("eps", eps)
    y = nu.positions
    before = nu.cdf_left(y)
    left = nu.cdf(y) - nu.cdf_left(y - eps)
    right = nu.cdf(y + eps) - before
    span = nu.cdf(y + 2.0 * eps) - before
    pairs = np.maximum.accumulate(left)[:-1] + right[1:]
    return float(max(span.max(), pairs.max(initial=0.0)))


def tightest_ball_growth(nu: DiscreteDistribution) -> BallGrowthModulus:
    """The smallest modulus satisfying nu(B^eps) <= nu(B) + phi(eps) for all
    balls B and complements of balls, evaluated at every distance."""
    breakpoints = np.concatenate(([0.0], nu.space.distinct_distances))
    k = breakpoints.size
    # every distance is a breakpoint, so its rank locates it exactly
    rank = np.searchsorted(breakpoints, nu.space.d)
    values = np.zeros(k)
    for dist in _ball_distances(rank):
        m = dist.shape[0]
        cells = (dist + k * np.arange(m)[:, None]).ravel()
        # mass[b, j] = nu(B_b fattened by breakpoints[j])
        mass = np.bincount(cells, np.tile(nu.p, m), m * k).reshape(m, k).cumsum(axis=1)
        values = np.maximum(values, np.max(mass - mass[:, :1], axis=0, initial=0.0))
    values = np.maximum.accumulate(values)  # guard fp wiggle; true phi is monotone
    return BallGrowthModulus(breakpoints, values)
