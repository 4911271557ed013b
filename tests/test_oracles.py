import itertools

import numpy as np
import pytest

from metric_atlas.oracles import (ball_growth_exhaustive, cdg_disc_window_oracle,
                                  cdg_fourier_transform,
                                  levy_grid_oracle, mixed_discrepancy_scan_oracle,
                                  prokhorov_exhaustive, product_walk_direct,
                                  tv_exhaustive, tv_subset_oracle)
from metric_atlas.spaces import (DiscreteDistribution, FiniteMetricSpace,
                                 RealAtomicDistribution, gaussian_cdf)
from metric_atlas.walks import z10_measures

from conftest import random_pair_on


def test_tv_subset_oracle_z10():
    _, mu, _, unif = z10_measures()
    assert abs(tv_subset_oracle(mu, unif) - 0.5) < 1e-15
    assert tv_subset_oracle(mu, mu) == 0.0


def test_tv_closed_form_equals_enumeration(rng):
    s = FiniteMetricSpace.cycle(10)
    for _ in range(25):
        mu, nu = random_pair_on(s, rng, sparsity=0.2)
        assert abs(tv_subset_oracle(mu, nu) - tv_exhaustive(mu, nu)) < 1e-12


def test_tv_point_masses():
    s = FiniteMetricSpace([[0, 1], [1, 0]])
    assert tv_subset_oracle(DiscreteDistribution.point_mass(s, 0),
                            DiscreteDistribution.point_mass(s, 1)) == 1.0


def test_size_guards():
    big = FiniteMetricSpace.cycle(25)
    u = DiscreteDistribution.uniform(big)
    with pytest.raises(ValueError):
        tv_subset_oracle(u, u)
    with pytest.raises(ValueError):
        prokhorov_exhaustive(u, u)
    with pytest.raises(ValueError):
        ball_growth_exhaustive(u, 1.0)
    with pytest.raises(ValueError):
        cdg_disc_window_oracle(np.full(5000, 1 / 5000))


def test_prokhorov_oracle_identity_and_bernoulli(rng):
    s = FiniteMetricSpace([[0, 1], [1, 0]])
    for _ in range(10):
        p, q = rng.random(), rng.random()
        mu = DiscreteDistribution(s, np.array([1 - p, p]))
        nu = DiscreteDistribution(s, np.array([1 - q, q]))
        assert abs(prokhorov_exhaustive(mu, nu) - abs(p - q)) < 1e-12
    assert prokhorov_exhaustive(mu, mu) == 0.0


def test_prokhorov_oracle_symmetry(rng):
    s = FiniteMetricSpace.euclidean(rng.normal(size=(6, 2)))
    for _ in range(10):
        mu, nu = random_pair_on(s, rng, sparsity=0.3)
        prokhorov_exhaustive(mu, nu, check_symmetry=True)


def test_levy_grid_oracle_brackets():
    d0 = RealAtomicDistribution.point_mass(0.0)
    lo, hi = levy_grid_oracle(d0, RealAtomicDistribution.point_mass(0.3), 1e-4)
    assert lo <= 0.3 <= hi and hi - lo <= 1e-4 + 1e-12
    lo, hi = levy_grid_oracle(d0, d0, 1e-4)
    assert lo == 0.0 and hi <= 1e-4
    lo, hi = levy_grid_oracle(d0, RealAtomicDistribution.point_mass(5.0), 1e-3)
    assert lo <= 1.0 <= hi + 1e-12


def test_window_oracle_uniform_and_point_mass():
    assert cdg_disc_window_oracle(np.full(7, 1 / 7)) < 1e-15
    v = np.zeros(5)
    v[0] = 1.0
    assert abs(cdg_disc_window_oracle(v) - 0.8) < 1e-15


def test_mixed_scan_point_mass():
    assert abs(mixed_discrepancy_scan_oracle(
        RealAtomicDistribution.point_mass(0.0), gaussian_cdf()) - 1.0) < 1e-12


def test_product_walk_direct_guards():
    with pytest.raises(ValueError):
        product_walk_direct(10, 2 ** 10, 1.0)


def test_cdg_fourier_transform_matches_path_enumeration():
    # The law of X_k = 2 X_{k-1} + e_k from every path, then its DFT by
    # direct summation.
    p, k = 11, 6
    hist = np.zeros(p)
    for eps in itertools.product((-1, 0, 1), repeat=k):
        x = 0
        for e in eps:
            x = (2 * x + e) % p
        hist[x] += 3.0 ** -k
    x = np.arange(p)
    dft = np.exp(-2j * np.pi * np.outer(x, x) / p) @ hist
    assert np.max(np.abs(dft - cdg_fourier_transform(p, k))) < 1e-14
    assert np.array_equal(cdg_fourier_transform(p, 0), np.ones(p))


def test_cdg_fourier_transform_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cdg_fourier_transform(0, 3)
    with pytest.raises(ValueError):
        cdg_fourier_transform(7, -1)
