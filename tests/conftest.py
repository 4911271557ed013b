import math
import types

import numpy as np
import pytest

from metric_atlas import transport, walks
from metric_atlas.transport import _FLOW_EPS
from metric_atlas.spaces import (DiscreteDistribution, FiniteMetricSpace,
                                 RealAtomicDistribution)


def random_atomic(rng, max_atoms=8, scale=2.0, positions=None):
    m = int(rng.integers(1, max_atoms))
    if positions is None:
        positions = np.sort(rng.normal(size=m) * scale)
    else:
        m = len(positions)
    return RealAtomicDistribution(positions, rng.dirichlet(np.ones(m)))


def lattice_atomic(rng):
    """random_atomic on the 0.25 lattice in [-2, 2], where two draws share
    positions and gaps tie."""
    m = int(rng.integers(1, 8))
    return random_atomic(rng, positions=np.sort(
        rng.choice(np.arange(-8, 9) * 0.25, size=m, replace=False)))


def embed_atomic_pair(F, G):
    """Two atomic CDFs as measures on the finite space of their merged atoms,
    a reference for the line's reads: the euclidean distances of points on
    the line are the absolute differences, bit for bit."""
    grid = np.union1d(F.positions, G.positions)
    space = FiniteMetricSpace.euclidean(grid)
    p, q = np.zeros(grid.size), np.zeros(grid.size)
    p[np.searchsorted(grid, F.positions)] = F.weights
    q[np.searchsorted(grid, G.positions)] = G.weights
    return space, DiscreteDistribution(space, p), DiscreteDistribution(space, q)


def random_pair_on(space, rng, sparsity=0.0):
    def draw():
        p = rng.dirichlet(np.ones(space.n))
        if sparsity > 0:
            drop = rng.random(space.n) < sparsity
            drop[int(np.argmax(p))] = False
            p = np.where(drop, 0.0, p)
            p = p / p.sum()
        return DiscreteDistribution(space, p)
    return draw(), draw()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def transport_solves(monkeypatch):
    """Counts the calls of the one transport solver in `.count`, and records
    each call's (cost shape, stop_cost) in `.calls` and whether its costs
    are all finite in `.finite`."""
    counter = types.SimpleNamespace(count=0, calls=[], finite=[])
    solve = transport._transport

    def counting(cost, supply, demand, flow, stop_cost=math.inf):
        counter.count += 1
        counter.calls.append((cost.shape, stop_cost))
        counter.finite.append(bool(np.isfinite(cost).all()))
        return solve(cost, supply, demand, flow, stop_cost)

    monkeypatch.setattr(transport, "_transport", counting)
    return counter


def plain_bisection(feasible, tol, hi=1.0, probed=None):
    """Plain bisection, the reference for `transport._bisect` and its
    callers: halve [0, hi] on a monotone predicate until the ends are
    adjacent floats or within tol. Each probed point is appended to
    `probed`, the first being 0.0."""
    probed = [] if probed is None else probed
    probed.append(0.0)
    if feasible(0.0):
        return 0.0
    lo = 0.0
    while hi - lo > tol:
        mid = lo + (hi - lo) / 2.0
        if not lo < mid < hi:
            break
        probed.append(mid)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def parent_transport(cost, supply, demand, flow, stop_cost=math.inf):
    """`transport._transport` before its phases shipped on scalars and
    relaxed on column-major reduced costs: the reference its flow and column
    potentials must equal bit for bit, as they share every phase, round,
    tree and float operation."""
    n, m = cost.shape
    flow = flow.copy()
    rem_s = supply - flow.sum(axis=1)
    rem_d = demand - flow.sum(axis=0)
    pot_r = np.zeros(n)
    rows_n, cols_m = np.arange(n), np.arange(m)

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
        rc = np.maximum(cost + (pot_r[:, None] - pot_c), 0.0)
        back = np.where(flow > _FLOW_EPS, 0.0, math.inf)
        dist_r = np.where(is_src, 0.0, math.inf)
        dist_c = np.full(m, math.inf)
        par_r, par_c = np.full(n, -1), np.full(m, -1)
        while True:  # columns through forward arcs, then rows through backward
            reach = dist_r[:, None] + rc
            k = reach.argmin(axis=0)
            nd = reach[k, cols_m]
            par_c = np.where(nd < dist_c, k, par_c)
            dist_c = np.minimum(nd, dist_c)
            reach = back + dist_c
            k = reach.argmin(axis=1)
            nd = reach[rows_n, k]
            better = nd < dist_r
            if not better.any():
                break
            par_r = np.where(better, k, par_r)
            dist_r = np.minimum(nd, dist_r)
        pot_r += dist_r
        pot_c += dist_c

        # ship along the tree path to each column that needs mass: forward
        # arcs fi -> [j] + bj, backward arcs bj -> fi[:-1], each undoing
        # flow on its pair
        shipped = False
        pr, pc = par_r.tolist(), par_c.tolist()
        for j in sinks[np.argsort(pot_c[sinks], kind="stable")].tolist():
            fi, bj = [pc[j]], []
            while pr[fi[-1]] >= 0:
                bj.append(pr[fi[-1]])
                fi.append(pc[bj[-1]])
            i = fi[-1]
            if pot_c[j] - pot_r[i] >= stop_cost:  # the path's cost under `cost`
                break
            amt = min(rem_s[i], rem_d[j], flow[fi[:-1], bj].min(initial=math.inf))
            if amt <= _FLOW_EPS:  # an earlier path drained the root or an arc
                continue
            flow[fi, [j] + bj] += amt
            flow[fi[:-1], bj] -= amt
            rem_s[i] -= amt
            rem_d[j] -= amt
            shipped = True
        if not shipped:
            return flow, pot_c
    raise RuntimeError("transportation solver failed to converge")


@pytest.fixture
def walk_probes(monkeypatch):
    """Counts the calls of `walks.product_walk_distances` in `.distances`,
    and records in `.probes` how many times each `transport._bisect` call
    reads its predicate, one entry per call, whichever of its callers (a
    crossing time, a Levy root or P on the line) made it."""
    counter = types.SimpleNamespace(distances=0, probes=[])
    distances, search = walks.product_walk_distances, transport._bisect

    def counting_distances(*args):
        counter.distances += 1
        return distances(*args)

    def counting_search(feasible, tol, hi=1.0):
        counter.probes.append(0)

        def probe(x):
            counter.probes[-1] += 1
            return feasible(x)

        return search(probe, tol, hi)

    monkeypatch.setattr(walks, "product_walk_distances", counting_distances)
    monkeypatch.setattr(transport, "_bisect", counting_search)
    return counter
