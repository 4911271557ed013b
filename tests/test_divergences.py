import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metric_atlas.divergences import (GEN_CHI_SQUARED, GEN_RELATIVE_ENTROPY,
                                      GEN_SQUARED_HELLINGER,
                                      GEN_TOTAL_VARIATION, ConvexGenerator,
                                      chi_squared, f_divergence, hellinger,
                                      hellinger_affinity, nu_dominates_mu,
                                      product_chi_squared,
                                      product_hellinger_affinity,
                                      product_relative_entropy,
                                      relative_entropy, separation,
                                      total_variation)
from metric_atlas.bounds import FINITE_METRICS, certify
from metric_atlas.oracles import tv_exhaustive, tv_subset_oracle
from metric_atlas.spaces import (DiscreteDistribution, FiniteMetricSpace,
                                 RealAtomicDistribution)
from metric_atlas.transport import ball_growth_at
from metric_atlas.walks import z10_measures

from conftest import random_pair_on


@pytest.fixture(scope="module")
def z10():
    return z10_measures()


def two_point(p, q):
    s = FiniteMetricSpace([[0, 1], [1, 0]])
    return (DiscreteDistribution(s, np.array([1 - p, p])),
            DiscreteDistribution(s, np.array([1 - q, q])))


class TestTotalVariation:
    def test_z10_values(self, z10):
        _, mu, nu, unif = z10
        assert abs(total_variation(mu, unif) - 0.5) < 1e-15
        assert abs(total_variation(nu, unif) - 0.5) < 1e-15

    def test_disjoint_point_masses(self):
        mu, nu = two_point(0.0, 1.0)
        assert total_variation(mu, nu) == 1.0

    def test_nested_uniforms(self):
        s = FiniteMetricSpace.euclidean(np.arange(10.0))
        u10 = DiscreteDistribution.uniform(s)
        u9 = DiscreteDistribution(s, np.array([1 / 9] * 9 + [0.0]))
        assert abs(total_variation(u10, u9) - 0.1) < 1e-15

    def test_matches_subset_maximum(self, rng):
        s = FiniteMetricSpace.euclidean(rng.normal(size=(8, 2)))
        for _ in range(30):
            mu, nu = random_pair_on(s, rng, sparsity=0.3)
            tv = total_variation(mu, nu)
            assert abs(tv - tv_subset_oracle(mu, nu)) < 1e-14
            assert abs(tv - tv_exhaustive(mu, nu)) < 1e-12


class TestHellinger:
    def test_identical(self, z10):
        _, mu, _, _ = z10
        assert hellinger(mu, mu) == 0.0

    def test_disjoint_supports_hit_range_endpoint(self):
        mu, nu = two_point(0.0, 1.0)
        assert abs(hellinger(mu, nu) - math.sqrt(2)) < 1e-15

    def test_z10_value_against_affinity_form(self, z10):
        _, mu, _, unif = z10
        affinity = math.sqrt(0.06) + 4 * math.sqrt(0.01)
        expected = math.sqrt(2 * (1 - affinity))
        assert abs(hellinger(mu, unif) - expected) < 1e-12
        assert abs(hellinger(mu, unif) - 0.8427) < 2e-4
        # direct sum-of-squares form agrees
        direct = math.sqrt(math.fsum((np.sqrt(mu.p) - np.sqrt(unif.p)) ** 2))
        assert abs(hellinger(mu, unif) - direct) < 1e-12

    def test_symmetric(self, rng):
        s = FiniteMetricSpace.cycle(7)
        for _ in range(20):
            mu, nu = random_pair_on(s, rng, sparsity=0.2)
            assert abs(hellinger(mu, nu) - hellinger(nu, mu)) < 1e-14

    def test_identical_reads_zero_when_mass_falls_short(self):
        # the affinity form read sqrt(2 * 1e-13) here: mass 1 - 1e-13 passes
        # MASS_TOL, and 1 - sum sqrt(p p) is then 1e-13, not 0
        mu = DiscreteDistribution(FiniteMetricSpace.cycle(3), [0.5, 0.3, 0.2 - 1e-13])
        assert hellinger(mu, mu) == 0.0

    def test_certify_passes_on_identical_measures(self):
        # an H of sqrt(2 delta) > 0 against TV = I = chi2 = 0 broke
        # H<=sqrt(2TV), H<=sqrt(I) and H<=sqrt(chi2) on 574 of these pairs
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n = int(rng.integers(2, 11))
            space = FiniteMetricSpace.euclidean(rng.normal(size=(n, 2)))
            mu = DiscreteDistribution(space, rng.dirichlet(np.ones(n)))
            report = certify(mu, mu)
            assert report.passed, [r.edge_id for r in report.failures]


class TestRelativeEntropy:
    def test_z10_paper_values(self, z10):
        _, mu, nu, unif = z10
        assert abs(relative_entropy(mu, unif) - 1.075) < 1e-3
        assert abs(relative_entropy(nu, unif) - 0.693) < 1e-3
        assert abs(relative_entropy(nu, unif) - math.log(2)) < 1e-12

    def test_infinite_when_not_dominated(self):
        mu, nu = two_point(0.5, 0.0)
        assert relative_entropy(mu, nu) == math.inf

    def test_asymmetric_in_general(self):
        mu, nu = two_point(0.9, 0.5)
        assert relative_entropy(mu, nu) != relative_entropy(nu, mu)


class TestChiSquared:
    def test_z10_value(self, z10):
        _, mu, _, unif = z10
        assert abs(chi_squared(mu, unif) - 3.0) < 1e-12
        # relative entropy stays below log(1 + chi2)
        assert relative_entropy(mu, unif) <= math.log(4.0)

    def test_point_mass_vs_uniform(self):
        for n in (2, 5, 17):
            s = FiniteMetricSpace.cycle(max(n, 3)) if n >= 3 else None
            s = s or FiniteMetricSpace([[0, 1], [1, 0]])
            delta = DiscreteDistribution.point_mass(s, 0)
            unif = DiscreteDistribution.uniform(s)
            assert abs(chi_squared(delta, unif) - (s.n - 1)) < 1e-10

    def test_identity_is_zero(self, z10):
        _, mu, _, _ = z10
        assert chi_squared(mu, mu) == 0.0

    def test_infinite_when_not_dominated(self):
        mu, nu = two_point(0.5, 0.0)
        assert chi_squared(mu, nu) == math.inf


class TestSeparation:
    def test_z10_hits_one(self, z10):
        _, mu, _, unif = z10
        assert separation(mu, unif) == 1.0

    def test_argument_order_on_nested_uniforms(self):
        s = FiniteMetricSpace.euclidean(np.arange(10.0))
        u10 = DiscreteDistribution.uniform(s)
        u9 = DiscreteDistribution(s, np.array([1 / 9] * 9 + [0.0]))
        # literal formula: small in one order, 1 in the non-dominated order
        assert abs(separation(u10, u9) - 0.1) < 1e-12
        assert separation(u9, u10) == 1.0

    def test_zero_on_equality(self, z10):
        _, _, nu, _ = z10
        assert separation(nu, nu) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_dominates_total_variation(self, seed):
        rng = np.random.default_rng(seed)
        s = FiniteMetricSpace.cycle(6)
        mu, nu = random_pair_on(s, rng, sparsity=0.3)
        sep = separation(mu, nu)
        assert 0.0 <= sep <= 1.0
        assert total_variation(mu, nu) <= sep + 1e-12


class TestFDivergence:
    def test_specializations_on_z10(self, z10):
        _, mu, _, unif = z10
        assert abs(f_divergence(GEN_CHI_SQUARED, mu, unif) - 3.0) < 1e-12
        assert abs(f_divergence(GEN_TOTAL_VARIATION, mu, unif) - 0.5) < 1e-12

    def test_zero_at_equal_arguments(self, z10):
        _, mu, _, _ = z10
        for gen in (GEN_CHI_SQUARED, GEN_RELATIVE_ENTROPY,
                    GEN_TOTAL_VARIATION, GEN_SQUARED_HELLINGER):
            assert f_divergence(gen, mu, mu) == 0.0

    def test_specializations_on_random_pairs(self, rng):
        s = FiniteMetricSpace.euclidean(rng.normal(size=(9, 2)))
        for _ in range(50):
            mu, nu = random_pair_on(s, rng, sparsity=0.25)
            checks = [
                (GEN_CHI_SQUARED, chi_squared(mu, nu)),
                (GEN_RELATIVE_ENTROPY, relative_entropy(mu, nu)),
                (GEN_TOTAL_VARIATION, total_variation(mu, nu)),
                (GEN_SQUARED_HELLINGER, hellinger(mu, nu) ** 2),
            ]
            for gen, direct in checks:
                generic = f_divergence(gen, mu, nu)
                if math.isinf(direct):
                    assert math.isinf(generic)
                else:
                    assert abs(generic - direct) < 1e-12

    def test_generator_validation(self):
        with pytest.raises(ValueError, match=r"f\(1\)"):
            ConvexGenerator(lambda x: x, "shifted", 1.0)
        with pytest.raises(ValueError, match="convexity"):
            ConvexGenerator(lambda x: -((x - 1) ** 2), "concave", 0.0)

    def test_permutation_invariance(self, rng):
        s = FiniteMetricSpace.cycle(8)
        mu, nu = random_pair_on(s, rng, sparsity=0.2)
        perm = rng.permutation(8)
        mu_p = DiscreteDistribution(s, mu.p[perm])
        nu_p = DiscreteDistribution(s, nu.p[perm])
        for fn in (total_variation, hellinger, separation):
            assert abs(fn(mu, nu) - fn(mu_p, nu_p)) < 1e-14
        for fn in (relative_entropy, chi_squared):
            a, b = fn(mu, nu), fn(mu_p, nu_p)
            assert (math.isinf(a) and math.isinf(b)) or abs(a - b) < 1e-12


class TestProductIdentities:
    def test_affinity_factorizes(self, z10, rng):
        _, mu, _, unif = z10
        aff = hellinger_affinity(mu, unif)
        assert abs(product_hellinger_affinity([(mu, unif), (mu, unif)]) - aff ** 2) < 1e-15
        # against the direct 100-point product computation
        direct = math.fsum(np.sqrt(np.kron(mu.p, mu.p) * np.kron(unif.p, unif.p)))
        assert abs(aff ** 2 - direct) < 1e-12
        assert abs(aff ** 2 - 0.4159) < 2e-4

    def test_affinity_trivial_cases(self, z10):
        _, mu, nu, _ = z10
        assert product_hellinger_affinity([(mu, mu), (nu, nu)]) == 1.0
        delta0, delta1 = two_point(0.0, 1.0)
        assert product_hellinger_affinity([(delta0, delta1), (mu, mu)]) == 0.0

    def test_entropy_additivity(self, z10):
        from metric_atlas.divergences import relative_entropy_kernel
        _, mu, _, unif = z10
        total = product_relative_entropy([(mu, unif), (mu, unif)])
        assert abs(total - 2 * 1.0750556815368) < 1e-10
        direct = relative_entropy_kernel(np.kron(mu.p, mu.p), np.kron(unif.p, unif.p))
        assert abs(total - direct) < 1e-10

    def test_chi2_product(self, z10):
        from metric_atlas.divergences import chi_squared_kernel
        _, mu, _, unif = z10
        total = product_chi_squared([(mu, unif), (mu, unif)])
        assert abs(total - 15.0) < 1e-10
        direct = chi_squared_kernel(np.kron(mu.p, mu.p), np.kron(unif.p, unif.p))
        assert abs(total - direct) < 1e-10

    def test_identical_marginals_vanish(self, z10):
        _, mu, nu, _ = z10
        assert product_relative_entropy([(mu, mu), (nu, nu)]) == 0.0
        assert product_chi_squared([(mu, mu), (nu, nu)]) == 0.0


def test_kernels_hold_accuracy_on_a_million_terms():
    from metric_atlas.divergences import (chi_squared_kernel,
                                          relative_entropy_kernel, tv_kernel)
    n = 10 ** 6
    q = np.full(n, 1.0 / n)
    p = q * np.where(np.arange(n) % 2 == 0, 1.5, 0.5)
    assert abs(tv_kernel(p, q) - 0.25) < 1e-12
    assert abs(chi_squared_kernel(p, q) - 0.25) < 1e-12
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert abs(relative_entropy_kernel(p, q) - expected) < 1e-12 * abs(expected)


def test_domination_predicate(z10):
    _, mu, nu, unif = z10
    assert nu_dominates_mu(mu, unif)        # uniform dominates everything
    assert not nu_dominates_mu(unif, mu)    # mu misses half the space


_FINITE_ONLY = {
    **{f"finite-{key}": fn for key, fn in FINITE_METRICS.items()},
    "f_divergence": lambda mu, nu: f_divergence(GEN_CHI_SQUARED, mu, nu),
    "nu_dominates_mu": nu_dominates_mu,
}


@pytest.mark.parametrize("call", _FINITE_ONLY.values(), ids=_FINITE_ONLY.keys())
def test_finite_space_calls_name_an_atomic_argument(z10, call):
    # an atomic CDF has no .space or .p; it must be refused by name, not
    # fail on the first attribute read
    _, mu, _, _ = z10
    F = RealAtomicDistribution.point_mass(0.0)
    for name, pair in (("mu", (F, mu)), ("nu", (mu, F))):
        with pytest.raises(TypeError, match=f"^{name}: .*RealAtomicDistribution"):
            call(*pair)


def test_ball_growth_names_an_atomic_argument():
    with pytest.raises(TypeError, match="^nu: .*RealAtomicDistribution"):
        ball_growth_at(RealAtomicDistribution.point_mass(0.0), 0.5)
