import math
import types

import numpy as np
import pytest

from metric_atlas import transport, walks
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
    each call's (cost shape, stop_cost) in `.calls`."""
    counter = types.SimpleNamespace(count=0, calls=[])
    solve = transport._transport

    def counting(cost, supply, demand, flow, stop_cost=math.inf):
        counter.count += 1
        counter.calls.append((cost.shape, stop_cost))
        return solve(cost, supply, demand, flow, stop_cost)

    monkeypatch.setattr(transport, "_transport", counting)
    return counter


def plain_bisection(feasible, tol, hi=1.0, probed=None):
    """The search before it interpolated: halve [0, hi] on a monotone
    predicate until the ends are adjacent floats or within tol. Each probed
    point is appended to `probed`, the first being 0.0."""
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


@pytest.fixture
def walk_probes(monkeypatch):
    """Counts the calls of `walks.product_walk_distances` in `.distances`,
    and records in `.probes` how many times each `transport._bisect` call
    reads its excess, one entry per call, whichever of its callers (a
    crossing time, a Levy root or P on the line) made it."""
    counter = types.SimpleNamespace(distances=0, probes=[])
    distances, search = walks.product_walk_distances, transport._bisect

    def counting_distances(*args):
        counter.distances += 1
        return distances(*args)

    def counting_search(excess, tol, hi=1.0):
        counter.probes.append(0)

        def probe(x):
            counter.probes[-1] += 1
            return excess(x)

        return search(probe, tol, hi)

    monkeypatch.setattr(walks, "product_walk_distances", counting_distances)
    monkeypatch.setattr(transport, "_bisect", counting_search)
    return counter
