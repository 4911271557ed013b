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


@pytest.fixture
def walk_probes(monkeypatch):
    """Counts the calls of `walks.product_walk_distances` in `.distances`,
    and records in `.probes` how many times each `walks.crossing_time` call
    reads its curve, one entry per call."""
    counter = types.SimpleNamespace(distances=0, probes=[])
    distances, crossing = walks.product_walk_distances, walks.crossing_time

    def counting_distances(*args):
        counter.distances += 1
        return distances(*args)

    def counting_crossing(params_at, threshold, t_hi):
        counter.probes.append(0)

        def probe(t):
            counter.probes[-1] += 1
            return params_at(t)

        return crossing(probe, threshold, t_hi)

    monkeypatch.setattr(walks, "product_walk_distances", counting_distances)
    monkeypatch.setattr(walks, "crossing_time", counting_crossing)
    return counter
