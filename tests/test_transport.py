import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import metric_atlas.transport as tp
from metric_atlas.bounds import (CAMPAIGN_SPARSITIES, INSTANCE_KINDS, certification_campaign,
                                 certify, evaluate_edges, random_instance,
                                 real_atomic_context, real_mixed_context, real_smooth_context)
from metric_atlas.divergences import total_variation
from metric_atlas.oracles import (ball_growth_exhaustive, interval_growth_exhaustive,
                                  levy_grid_oracle, mixed_discrepancy_scan_oracle,
                                  prokhorov_exhaustive)
from metric_atlas.spaces import (DiscreteDistribution, FiniteMetricSpace,
                                 RealAtomicDistribution, SmoothRealCdf, gaussian_cdf)
from metric_atlas.transport import (_transport, ball_growth_at, discrepancy_finite,
                                    discrepancy_real_mixed, kolmogorov, levy,
                                    prokhorov, prokhorov_real, smooth_pair,
                                    tightest_ball_growth, wasserstein_finite,
                                    wasserstein_real)
from metric_atlas.walks import standardized_binomial, z10_measures
from metric_atlas.witness import check_wasserstein

from conftest import (embed_atomic_pair, lattice_atomic, parent_transport, plain_bisection,
                      random_atomic, random_pair_on)


def delta(x):
    return RealAtomicDistribution.point_mass(x)


def mixed(key, F, G):
    """One value of `smooth_pair`, the one reader of a pair against a
    smooth CDF."""
    return smooth_pair(F, G)[key][0]


def bern_pair(p, q, d=1.0):
    s = FiniteMetricSpace([[0.0, d], [d, 0.0]])
    return (DiscreteDistribution(s, np.array([1 - p, p])),
            DiscreteDistribution(s, np.array([1 - q, q])))


class TestDiscrepancyFinite:
    def test_identical(self):
        _, mu, _, _ = z10_measures()
        assert discrepancy_finite(mu, mu) == 0.0

    def test_point_mass_vs_uniform_on_cycle(self):
        s = FiniteMetricSpace.cycle(10)
        assert abs(discrepancy_finite(DiscreteDistribution.point_mass(s, 0),
                                      DiscreteDistribution.uniform(s)) - 0.9) < 1e-15

    def test_z10(self):
        _, mu, _, unif = z10_measures()
        d = discrepancy_finite(mu, unif)
        assert abs(d - 0.5) < 1e-15
        assert d <= total_variation(mu, unif) + 1e-15

    def test_scale_invariance(self, rng):
        s = FiniteMetricSpace.euclidean(rng.normal(size=(7, 2)))
        s3 = FiniteMetricSpace(3.0 * s.d)
        mu, nu = random_pair_on(s, rng)
        mu3 = DiscreteDistribution(s3, mu.p)
        nu3 = DiscreteDistribution(s3, nu.p)
        assert abs(discrepancy_finite(mu, nu) - discrepancy_finite(mu3, nu3)) < 1e-14

    def test_equals_the_per_center_scan(self, rng):
        def per_center(mu, nu):
            # one stable sort per center, read at the end of each tie group
            d, n, delta = mu.space.d, mu.space.n, mu.p - nu.p
            best = 0.0
            for c in range(n):
                order = np.argsort(d[c], kind="stable")
                csum = np.cumsum(delta[order])
                ends = np.nonzero(np.diff(d[c][order]) > 0)[0]
                idx = np.concatenate([ends, [n - 1]])
                best = max(best, float(np.max(np.abs(csum[idx]))))
            return best

        one = FiniteMetricSpace([[0.0]])
        pairs = [(DiscreteDistribution.point_mass(one, 0),) * 2]
        spaces = [FiniteMetricSpace.cycle(n) for n in (3, 4, 9, 16)]  # heavy ties
        spaces += [FiniteMetricSpace.euclidean(rng.normal(size=(n, 2))) for n in (2, 7)]
        spaces.append(_random_metric(rng, 11))
        for s in spaces:
            for sparsity in (0.0, 0.5):  # 0.5 zeroes coordinates on each side
                pairs += [random_pair_on(s, rng, sparsity) for _ in range(5)]
            pairs.append((DiscreteDistribution.point_mass(s, 0),
                          DiscreteDistribution.uniform(s)))
        for mu, nu in pairs:
            assert discrepancy_finite(mu, nu) == per_center(mu, nu)


class TestKolmogorov:
    def test_point_masses(self):
        assert kolmogorov(delta(0.0), delta(1.0)) == 1.0
        assert kolmogorov(delta(0.5), delta(0.5)) == 0.0

    def test_bernoulli_atoms(self):
        for p, q in [(0.2, 0.9), (0.5, 0.5), (0.0, 1.0)]:
            F = RealAtomicDistribution.from_pairs([(0.0, 1 - p), (1.0, p)])
            G = RealAtomicDistribution.from_pairs([(0.0, 1 - q), (1.0, q)])
            assert abs(kolmogorov(F, G) - abs(p - q)) < 1e-15

    def test_mixed_checks_both_sides(self):
        # mass just left of the median: the left limit drives the sup
        F = delta(0.0)
        G = gaussian_cdf()
        assert abs(mixed("kolmogorov", F, G) - 0.5) < 1e-12
        assert abs(mixed("kolmogorov", G, F) - 0.5) < 1e-12

    @pytest.mark.parametrize("mean", [-0.5, 0.5])
    def test_mixed_left_limit_or_value_drives_the_sup(self, mean):
        # at mean -0.5 the sup is |F(0-) - G(0)|, at mean 0.5 it is |F(0) - G(0)|
        want = 0.5 * (1.0 + math.erf(0.5 / math.sqrt(2.0)))
        assert abs(mixed("kolmogorov", delta(0.0), gaussian_cdf(mean)) - want) < 1e-12


class TestLevy:
    def test_identical(self):
        F = RealAtomicDistribution.from_pairs([(0.0, 0.5), (2.0, 0.5)])
        assert levy(F, F) == 0.0

    def test_shifted_point_masses(self):
        assert abs(levy(delta(0.0), delta(0.3)) - 0.3) < 1e-11
        lo, hi = levy_grid_oracle(delta(0.0), delta(0.3), 1e-4)
        assert lo - 1e-12 <= 0.3 <= hi + 1e-12

    def test_far_point_masses_cap_at_one(self):
        assert abs(levy(delta(0.0), delta(5.0)) - 1.0) < 1e-11

    def test_oracle_bracket_on_random_pairs(self, rng):
        for _ in range(60):
            F, G = random_atomic(rng), random_atomic(rng)
            v = levy(F, G)
            lo, hi = levy_grid_oracle(F, G, 1e-3)
            assert lo - 1e-9 <= v <= hi + 1e-9
            assert abs(v - levy(G, F)) < 1e-9  # metric symmetry

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_below_kolmogorov(self, seed):
        rng = np.random.default_rng(seed)
        F, G = random_atomic(rng), random_atomic(rng)
        assert levy(F, G) <= kolmogorov(F, G) + 1e-9

    def test_below_kolmogorov_sweep(self, rng):
        for _ in range(500):
            F, G = random_atomic(rng), random_atomic(rng)
            assert levy(F, G) <= kolmogorov(F, G) + 1e-9

    def test_exact_tie_geometry(self):
        # atoms exactly eps apart force boundary decisions in feasibility
        F = RealAtomicDistribution.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        G = RealAtomicDistribution.from_pairs([(0.25, 0.5), (1.25, 0.5)])
        v = levy(F, G)
        lo, hi = levy_grid_oracle(F, G, 1e-4)
        assert lo - 1e-9 <= v <= hi + 1e-9
        assert abs(v - 0.25) < 1e-9  # shift by a quarter, jumps of 1/2 > 1/4

    @pytest.mark.parametrize("mean", [-0.5, 0.5])
    def test_point_mass_against_shifted_normal(self, mean):
        # L solves Phi(0.5 - eps) = eps for either sign of the mean; at mean
        # -0.5 the binding condition is the one on F's left limit at 0
        from scipy.optimize import brentq  # test-only dependency
        want = brentq(lambda e: 0.5 * (1.0 + math.erf((0.5 - e) / math.sqrt(2.0))) - e,
                      0.0, 1.0, xtol=1e-15)
        G = gaussian_cdf(mean)
        assert abs(mixed("levy", delta(0.0), G) - want) < 1e-11
        assert abs(mixed("levy", G, delta(0.0)) - want) < 1e-11

    def test_shared_positions(self, rng):
        xs = np.array([-1.0, 0.0, 2.0])
        for _ in range(20):
            F = RealAtomicDistribution(xs, rng.dirichlet(np.ones(3)))
            G = RealAtomicDistribution(xs, rng.dirichlet(np.ones(3)))
            v = levy(F, G)
            lo, hi = levy_grid_oracle(F, G, 1e-3)
            assert lo - 1e-9 <= v <= hi + 1e-9


def joint_levy(xs, f, f_left, G, tol):
    """The Levy search as one bisection over all points at once: the
    reference the per-point search must reproduce bit for bit."""
    def feasible(eps):
        return not any(fx > G(x + eps) + eps + 1e-15 or G(x - eps) - eps > fl + 1e-15
                       for x, fx, fl in zip(xs.tolist(), f.tolist(), f_left.tolist()))

    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def joint_atomic_levy(F, G):
    return joint_levy(F.positions, F.cdf(F.positions), F.cdf_left(F.positions), G, 1e-12)


def joint_step_levy(F, G):
    """Levy distance of two step CDFs as one bisection over an exact
    feasibility predicate on whole arrays: the reference the two per-point
    searches of `levy` must reproduce bit for bit."""
    u, v = F.positions, G.positions

    def feasible(eps):
        return not (np.any(F.cdf(u) > G.cdf(u + eps) + eps + 1e-15)
                    or np.any(F.cdf(v - eps) > G.cdf(v) + eps + 1e-15)
                    or np.any(G.cdf(u - eps) - eps > F.cdf(u) + 1e-15)
                    or np.any(G.cdf(v) - eps > F.cdf(v + eps) + 1e-15))

    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def step_pair(rng, kind):
    """A pair of atomic CDFs of one of six shapes: normal positions, a 0.25
    lattice (ties between gaps and shifts), shared positions, a dyadic
    lattice with equal weights, a point mass against several atoms, and two
    point masses."""
    def atoms(xs, equal=False):
        w = np.full(xs.size, 1.0 / xs.size) if equal else rng.dirichlet(np.ones(xs.size))
        return RealAtomicDistribution(xs, w)

    def size():
        return int(rng.integers(1, 10))

    if kind == 0:
        return (atoms(np.sort(rng.normal(size=size()))),
                atoms(np.sort(rng.normal(size=size()) + rng.normal(0.0, 0.5))))
    if kind == 1:
        return (atoms(np.unique(rng.integers(-6, 7, size()) * 0.25)),
                atoms(np.unique(rng.integers(-6, 7, size()) * 0.25)))
    if kind == 2:
        xs = np.sort(rng.normal(size=size()))
        return atoms(xs), atoms(xs)
    if kind == 3:
        return (atoms(np.unique(rng.integers(-8, 9, size()) / 8.0), equal=True),
                atoms(np.unique(rng.integers(-8, 9, size()) / 8.0), equal=True))
    if kind == 4:
        return (delta(float(rng.integers(-4, 5)) * 0.25),
                atoms(np.unique(rng.integers(-6, 7, size()) * 0.25)))
    return delta(0.0), delta(float(rng.choice([0.0, 0.125, 0.25, 0.5, 1.0, 2.0, rng.normal()])))


def counting_cdf(G):
    """G behind a counter of its oracle calls, reset after construction."""
    calls = [0]

    def cdf(x):
        calls[0] += 1
        return G(x)

    counted = SmoothRealCdf(cdf, G.density_bound, G.support, G.eval_tolerance)
    calls[0] = 0
    return counted, calls


class TestLevyPerPointSearch:
    @pytest.mark.parametrize("n", [16, 100, 1000])
    def test_binomial_matches_the_joint_bisection(self, n):
        F = standardized_binomial(n)
        G = gaussian_cdf(0.0, 1.0, max(9.0, math.sqrt(n) + 2.0))  # covers the atoms
        want = joint_atomic_levy(F, G).hex()
        assert mixed("levy", F, G).hex() == want
        assert mixed("levy", G, F).hex() == want

    def test_random_pairs_match_the_joint_bisection(self):
        rng = np.random.default_rng(20261018)
        for trial in range(320):
            if trial % 2:  # lattice atoms: ties between the atoms' gaps
                xs = np.unique(rng.integers(-6, 7, 8) * 0.25)
            else:
                xs = np.sort(rng.normal(size=int(rng.integers(1, 10))) * 1.5)
            F = RealAtomicDistribution(xs, rng.dirichlet(np.ones(xs.size)))
            mean, sigma = float(rng.normal(0.0, 0.5)), float(rng.uniform(0.3, 2.0))
            # a truncation that covers the atoms; G's values do not depend on it
            halfwidth = max(9.0, float(np.max(np.abs(xs - mean))) / sigma + 1.0)
            G = gaussian_cdf(mean, sigma, halfwidth)
            want = joint_atomic_levy(F, G).hex()
            assert mixed("levy", F, G).hex() == want
            assert mixed("levy", G, F).hex() == want

    def test_step_pairs_match_the_joint_bisection(self):
        rng = np.random.default_rng(20261019)
        for trial in range(2040):
            F, G = step_pair(rng, trial % 6)
            want = joint_step_levy(F, G).hex()
            assert levy(F, G).hex() == want, (F.positions, G.positions)
            assert levy(G, F).hex() == want, (F.positions, G.positions)

    @pytest.mark.parametrize("mesh", [1e-3, 4e-3])
    def test_smooth_pairs_match_the_joint_bisection(self, mesh, monkeypatch):
        monkeypatch.setattr(tp, "SMOOTH_MESH", mesh)
        pairs = [(gaussian_cdf(0.0, 1.0), gaussian_cdf(0.3, 1.2)),
                 (gaussian_cdf(0.0, 1.0), gaussian_cdf(0.0, 1.0)),
                 (gaussian_cdf(-1.0, 2.0), gaussian_cdf(0.2, 1.0))]
        for A, B in pairs:
            lo = min(A.support[0], B.support[0])
            hi = max(A.support[1], B.support[1])
            grid = np.arange(lo, hi + mesh, mesh)
            fvals = np.array([A(float(x)) for x in grid])
            diffs = fvals - np.array([B(float(x)) for x in grid])
            want = joint_levy(grid, fvals, fvals, B, mesh / 4.0)
            err = (A.density_bound + B.density_bound) * mesh \
                + A.eval_tolerance + B.eval_tolerance
            l_err = err + mesh / 4.0 if want > 0 else err
            expected = {
                "kolmogorov": (float(np.max(np.abs(diffs))), err),
                "levy": (want, l_err),
                "disc": (float(max(diffs.max(), 0.0) - min(diffs.min(), 0.0)), 2.0 * err),
            }
            got = smooth_pair(A, B)
            assert {k: (v.hex(), e.hex()) for k, (v, e) in got.items()} \
                == {k: (v.hex(), e.hex()) for k, (v, e) in expected.items()}
            ctx = real_smooth_context(A, B)
            assert {k: v.hex() for k, v in ctx.values.items()} \
                == {k: v.hex() for k, (v, _) in expected.items()}
            assert ctx.extra_slack.hex() == (err + (1.0 + B.density_bound) * l_err).hex()

    def test_bisects_only_the_atoms_that_can_bind(self):
        F = standardized_binomial(1000)
        G, calls = counting_cdf(gaussian_cdf(0.0, 1.0, math.sqrt(1000) + 2.0))
        value = mixed("levy", F, G)
        assert calls[0] < 3 * F.positions.size
        assert value == mixed("levy", F, gaussian_cdf(0.0, 1.0, math.sqrt(1000) + 2.0))


def recording(search, points):
    """The search `search` with every point its predicate is read at
    appended to `points`."""
    def recorded(feasible, tol, hi=1.0):
        return search(lambda x: points.append(x) or feasible(x), tol, hi)
    return recorded


class TestOneSearch:
    @pytest.mark.parametrize("tol", [0.0, 1e-12, tp.SMOOTH_MESH / 4.0])
    def test_probes_as_plain_bisection(self, tol):
        rng = np.random.default_rng(20261020)
        for hi in (1.0, 3.7, 1e300, 5e-324):
            for c in [0.0, hi / 3.0, hi, 2.0 * hi] + (rng.random(20) * hi).tolist():
                for feasible in (lambda x: x >= c, lambda x: x * x >= c):
                    want_points, points = [], []
                    want = plain_bisection(feasible, tol, hi, want_points)
                    got = recording(tp._bisect, points)(feasible, tol, hi)
                    assert (got.hex(), points) == (want.hex(), want_points), (hi, c)

    def test_levy_and_line_p_probe_as_plain_bisection(self, monkeypatch):
        # the values and every probed point of the Levy roots and of P on the
        # line, against the same callers on plain bisection
        cases = []
        for n in (16, 100, 1000):
            F = standardized_binomial(n)
            G = gaussian_cdf(0.0, 1.0, max(9.0, math.sqrt(n) + 2.0))
            cases.append(lambda F=F, G=G: smooth_pair(F, G)["levy"][0])
            cases.append(lambda F=F, n=n: prokhorov_real(F, standardized_binomial(n + 1)))
        rng = np.random.default_rng(20261021)
        for trial in range(50):
            F, G = step_pair(rng, trial % 6)
            cases.append(lambda F=F, G=G: levy(F, G))
            cases.append(lambda F=F, G=G: prokhorov_real(F, G))
        search = tp._bisect
        for case in cases:
            points, want_points = [], []
            monkeypatch.setattr(tp, "_bisect", recording(search, points))
            got = case()
            monkeypatch.setattr(tp, "_bisect", recording(plain_bisection, want_points))
            want = case()
            assert (got.hex(), points) == (want.hex(), want_points)
        assert len(points) > 0


class TestSmoothGrid:
    def test_reads_each_oracle_once_per_grid_point(self, monkeypatch):
        import metric_atlas.transport as tp
        F, f_calls = counting_cdf(gaussian_cdf(0.0, 1.0))
        G, g_calls = counting_cdf(gaussian_cdf(0.3, 1.2))
        levy_search, search_calls = tp._levy_search, []

        def search(*args):
            before = g_calls[0]
            out = levy_search(*args)
            search_calls.append(g_calls[0] - before)
            return out

        monkeypatch.setattr(tp, "_levy_search", search)
        smooth_pair(F, G)
        grid_size = np.arange(-10.5, 11.1 + 1e-3, 1e-3).size  # both supports
        assert grid_size == 21601
        assert f_calls[0] == grid_size  # the search probes G only
        assert len(search_calls) == 1
        assert g_calls[0] - search_calls[0] == grid_size

    @pytest.mark.parametrize("halfwidth", [5001.0, 1e9])
    def test_a_grid_above_the_cap_names_support(self, halfwidth):
        # 2 * 5001 / SMOOTH_MESH + 1 is just above 10^7 points; 1e9 would
        # ask for 14.6 TiB
        with pytest.raises(ValueError, match="^support: "):
            smooth_pair(gaussian_cdf(), gaussian_cdf(0.0, 1.0, halfwidth))

    def test_cap_admits_a_grid_of_exactly_its_size(self, monkeypatch):
        F, G = gaussian_cdf(), gaussian_cdf(0.5)
        points = np.arange(-9.0, 9.5 + tp.SMOOTH_MESH, tp.SMOOTH_MESH).size
        monkeypatch.setattr(tp, "SMOOTH_GRID_CAP", points)
        assert smooth_pair(F, G)["kolmogorov"][0] > 0.19
        monkeypatch.setattr(tp, "SMOOTH_GRID_CAP", points - 1)
        with pytest.raises(ValueError, match="^support: "):
            smooth_pair(F, G)


# smooth_pair's (value, error) hex pairs for Binomial(n, 1/2) against the
# normal, and for two normals, as the reading one oracle call per point gave;
# the binomial K and D are each within 1e-16 of its 50-digit value
# (`test_binomial_k_and_d_against_50_digits`).
SMOOTH_PAIR_HEX = {
    16: {"kolmogorov": ("0x1.9230000000000p-4", "0x0.0p+0"),
         "levy": ("0x1.1f8fb1c150000p-4", "0x1.19799812dea11p-40"),
         "disc": ("0x1.9230000000000p-3", "0x0.0p+0")},
    100: {"kolmogorov": ("0x1.45ff5d3b10700p-5", "0x0.0p+0"),
          "levy": ("0x1.d214adf340000p-6", "0x1.19799812dea11p-40"),
          "disc": ("0x1.45ff5d3b10700p-4", "0x0.0p+0")},
    1000: {"kolmogorov": ("0x1.9d4965077e000p-7", "0x0.0p+0"),
           "levy": ("0x1.276ddb2b00000p-7", "0x1.19799812dea11p-40"),
           "disc": ("0x1.9d4965077dfe0p-6", "0x0.0p+0")},
    10**4: {"kolmogorov": ("0x1.0571bc1e14980p-8", "0x0.0p+0"),
            "levy": ("0x1.75c63c7600000p-9", "0x1.19799812dea11p-40"),
            "disc": ("0x1.0571bc1e14960p-7", "0x0.0p+0")},
    "smooth": {"kolmogorov": ("0x1.9fce2203b13c0p-5", "0x1.8f4e83a1e6410p-11"),
               "levy": ("0x1.4000000000000p-5", "0x1.0930791cb9c87p-10"),
               "disc": ("0x1.d3c59ffe1be68p-5", "0x1.8f4e83a1e6410p-10")},
}


def _phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


PI_100 = Decimal("3.1415926535897932384626433832795028841971693993751"
                 "058209749445923078164062862089986280348253421170679")


def normal_cdf_50(x: float) -> Decimal:
    """The normal CDF at the float x, |x| <= 9, to 50 digits: erf's Taylor
    series at 100 digits, of which its largest terms, below e^(x^2/2) <
    1e18, cancel fewer than 20."""
    assert abs(x) <= 9.0
    with localcontext() as ctx:
        ctx.prec = 100
        z = Decimal(x) / Decimal(2).sqrt()
        term, total, k = z, z, 0
        while abs(term) > Decimal(10) ** -90:
            k += 1
            term = -term * z * z / k
            total += term / (2 * k + 1)
        return (1 + 2 * total / PI_100.sqrt()) / 2


def binomial_k_and_d_50(n: int, positions: np.ndarray) -> tuple[Decimal, Decimal]:
    """K and D of the exact Binomial(n, 1/2) against the normal, both read at
    the float atoms `positions` of `standardized_binomial(n)`, to 50 digits.

    Only the atoms within |x| <= 9 are read: beyond them |F - G| < 3e-18 on
    both sides (Hoeffding, and the normal tail), far below either sup, so
    the zeros that pad r and l stand for them. r and l are as in
    `transport._interval_discrepancy`, with exact F = sum of C(n, j) / 2^n."""
    xs = positions[np.abs(positions) <= 9.0].tolist()
    ks = [round(x * math.sqrt(n) / 2 + n / 2) for x in xs]
    with localcontext() as ctx:
        ctx.prec = 100
        below, count = 0, 1  # the sum of C(n, j) over j < k, and C(n, k)
        for k in range(ks[0]):
            below, count = below + count, count * (n - k) // (k + 1)
        r, l, scale = [Decimal(0)], [Decimal(0)], Decimal(2) ** -n
        for k, x in zip(ks, xs):
            g = normal_cdf_50(x)
            l.append(below * scale - g)
            below, count = below + count, count * (n - k) // (k + 1)
            r.append(below * scale - g)
        r.append(Decimal(0))
        l.append(Decimal(0))
        kolmogorov = max(abs(v) for v in r + l)
        disc, most_neg_l, most_r = Decimal(0), Decimal(0), Decimal(0)
        for i in range(len(r)):
            # closed intervals end at i (r_i - l_j, j <= i), open ones
            # start left of i (r_j - l_i, j < i)
            most_neg_l = max(most_neg_l, -l[i])
            disc = max(disc, r[i] + most_neg_l, most_r - l[i])
            most_r = max(most_r, r[i])
        return kolmogorov, disc


class TestArrayReads:
    @pytest.mark.parametrize("case", list(SMOOTH_PAIR_HEX))
    def test_values_as_the_scalar_reads_gave(self, case):
        if case == "smooth":
            F, G = gaussian_cdf(), gaussian_cdf(0.1, 1.1)
        else:
            F = standardized_binomial(case)
            G = gaussian_cdf(0.0, 1.0, max(9.0, math.sqrt(case) + 2.0))
        got = smooth_pair(F, G)
        assert {k: (v.hex(), e.hex()) for k, (v, e) in got.items()} == SMOOTH_PAIR_HEX[case]

    @pytest.mark.parametrize("n", [16, 100, 1000, 10**4])
    def test_binomial_k_and_d_against_50_digits(self, n):
        # the log-gamma weights read K and D 2.2e-16 to 3.1e-14 off
        F = standardized_binomial(n)
        got = smooth_pair(F, gaussian_cdf(0.0, 1.0, max(9.0, math.sqrt(n) + 2.0)))
        want = binomial_k_and_d_50(n, F.positions)
        for key, exact in zip(("kolmogorov", "disc"), want):
            assert abs(Decimal(got[key][0]) - exact) <= Decimal(1e-16), (key, exact)

    def test_binomial_reads_g_by_one_array_call(self, monkeypatch):
        F = standardized_binomial(1000)
        normal = gaussian_cdf(0.0, 1.0, math.sqrt(1000) + 2.0)
        scalar, many = [0], [0]

        def cdf(x):
            scalar[0] += 1
            return normal.cdf(x)

        def cdf_many(xs):
            many[0] += 1
            return normal.cdf_many(xs)

        G = SmoothRealCdf(cdf, normal.density_bound, normal.support,
                          normal.eval_tolerance, cdf_many)
        scalar[0] = many[0] = 0
        levy_search, search_calls = tp._levy_search, []

        def search(*args):
            before = scalar[0]
            out = levy_search(*args)
            search_calls.append(scalar[0] - before)
            return out

        monkeypatch.setattr(tp, "_levy_search", search)
        got = smooth_pair(F, G)
        assert many[0] == 1
        # every scalar read is a Levy probe: about 113, where one read per
        # atom took 1,001 more
        assert search_calls == [scalar[0]]
        assert scalar[0] < 200
        assert got == smooth_pair(F, normal)

    def test_a_result_of_the_wrong_shape_names_cdf_many(self):
        # right on the 65-point check grid, one value short everywhere else
        normal = gaussian_cdf()
        G = SmoothRealCdf(_phi, normal.density_bound, normal.support, 1e-14,
                          lambda xs: normal.cdf_many(xs)[:None if xs.size == 65 else -1])
        with pytest.raises(ValueError, match="^cdf_many: "):
            smooth_pair(standardized_binomial(16), G)

    def test_a_nan_from_an_array_read_is_refused(self):
        # NaN only on (0.001, 0.002), between the check grid's points
        normal = gaussian_cdf()

        def cdf_many(xs):
            return np.where((0.001 < xs) & (xs < 0.002), math.nan, normal.cdf_many(xs))

        G = SmoothRealCdf(_phi, 0.4, (-9.0, 9.0), 1e-14, cdf_many)
        with pytest.raises(ValueError, match=r"^cdf: oracle is NaN at x = 0\.0015$"):
            smooth_pair(delta(0.0015), G)


class TestProkhorov:
    def test_identity(self):
        _, mu, _, _ = z10_measures()
        assert prokhorov(mu, mu) == 0.0

    def test_bernoulli(self, rng):
        for _ in range(20):
            p, q = rng.random(), rng.random()
            mu, nu = bern_pair(p, q)
            expected = prokhorov_exhaustive(mu, nu)
            assert abs(prokhorov(mu, nu) - expected) < 1e-12
            assert abs(prokhorov(mu, nu) - abs(p - q)) < 1e-12

    def test_dudley_two_point(self):
        for n in (2, 5, 10):
            mu, nu = bern_pair(1.0 / n, 0.0, d=float(n))
            assert abs(prokhorov(mu, nu) - 1.0 / n) < 1e-12
            assert abs(prokhorov_exhaustive(mu, nu) - 1.0 / n) < 1e-12

    def test_matches_exhaustive_oracle(self, rng):
        kinds = ("euclidean", "cycle", "random-metric")
        from metric_atlas.bounds import random_instance
        for i in range(80):
            inst = random_instance(13, i, (2, 8), kinds[i % 3],
                                   0.3 if i % 2 else 0.0)
            a = prokhorov(inst.mu, inst.nu)
            b = prokhorov_exhaustive(inst.mu, inst.nu, check_symmetry=(i % 20 == 0))
            assert abs(a - b) <= 1e-9

    def test_symmetric_despite_one_sided_condition(self, rng):
        from metric_atlas.bounds import random_instance
        for i in range(30):
            inst = random_instance(29, i, (3, 9), "euclidean", 0.3 if i % 2 else 0.0)
            assert abs(prokhorov(inst.mu, inst.nu)
                       - prokhorov(inst.nu, inst.mu)) <= 1e-9

    def test_not_scale_invariant_and_not_homogeneous(self):
        mu, nu = bern_pair(0.3, 0.7, d=1.0)
        assert abs(prokhorov(mu, nu) - 0.4) < 1e-12
        mu5, nu5 = bern_pair(0.3, 0.7, d=0.5)
        assert abs(prokhorov(mu5, nu5) - 0.4) < 1e-12   # unchanged, not 0.2
        mu2, nu2 = bern_pair(0.3, 0.7, d=0.2)
        assert abs(prokhorov(mu2, nu2) - 0.2) < 1e-12   # capped by the distance

    @staticmethod
    def campaign_mix(seed, count, size_range=(4, 10)):
        """`certification_campaign`'s cycle of kinds and sparsities."""
        for i in range(count):
            yield random_instance(seed, i, size_range, INSTANCE_KINDS[i % 3],
                                  CAMPAIGN_SPARSITIES[(i // 3) % 2])

    @staticmethod
    def bracket_index(mu, nu):
        """Index of the largest candidate distance (0 counted) at or below TV."""
        deltas = np.concatenate(([0.0], mu.space.distinct_distances))
        return int(np.searchsorted(deltas, total_variation(mu, nu), side="right")) - 1

    def test_no_solve_when_the_first_distance_exceeds_tv(self, transport_solves):
        hits = 0
        for inst in self.campaign_mix(5, 300):
            if self.bracket_index(inst.mu, inst.nu) > 0:
                continue
            transport_solves.count = 0
            value = prokhorov(inst.mu, inst.nu)
            assert transport_solves.count == 0, inst.instance_id
            assert abs(value - total_variation(inst.mu, inst.nu)) <= 1e-15
            hits += 1
        assert hits >= 100  # the common case at campaign sizes

    def test_solves_logarithmic_in_the_bracket(self, transport_solves):
        instances = [*self.campaign_mix(6, 150),
                     *self.campaign_mix(7, 60, size_range=(4, 64))]
        for inst in instances:
            k_tv = self.bracket_index(inst.mu, inst.nu)
            transport_solves.count = 0
            prokhorov(inst.mu, inst.nu)
            assert transport_solves.count <= math.ceil(math.log2(k_tv + 1)) + 1, \
                inst.instance_id

    @staticmethod
    def unbracketed(mu, nu):
        """The search over all K distinct distances, as before the TV bracket."""
        d = mu.space.d
        deltas = np.concatenate(([0.0], mu.space.distinct_distances))
        K = deltas.size - 1
        cache = {}
        warm = np.diag(np.minimum(mu.p, nu.p))

        def u(k):
            if k not in cache:
                flow, _ = _transport((d > deltas[k]).astype(float), mu.p, nu.p,
                                     flow=warm, stop_cost=1.0)
                cache[k] = (max(0.0, float(np.sum(mu.p - flow.sum(axis=1)))), flow)
            return cache[k][0]

        lo, hi = 0, K
        while lo < hi:
            mid = (lo + hi) // 2
            if u(mid) < (deltas[mid + 1] if mid < K else math.inf):
                hi = mid
            else:
                lo = mid + 1
                warm = cache[mid][1]
        return max(float(deltas[lo]), u(lo))

    def test_matches_the_unbracketed_search(self):
        for inst in self.campaign_mix(31, 300, size_range=(4, 64)):
            assert abs(prokhorov(inst.mu, inst.nu)
                       - self.unbracketed(inst.mu, inst.nu)) <= 1e-15, inst.instance_id

    @pytest.mark.parametrize("d, expected, solves", [
        (0.5, 0.5, 1),
        (math.nextafter(0.5, 1), 0.5, 0),
        (math.nextafter(0.5, 0), math.nextafter(0.5, 0), 1),
    ], ids=["d-equals-tv", "d-above-tv", "d-below-tv"])
    def test_tie_at_the_bracket_edge(self, transport_solves, d, expected, solves):
        mu, nu = bern_pair(0.25, 0.75, d)  # dyadic masses: TV is exactly 0.5
        assert prokhorov(mu, nu) == expected
        assert transport_solves.count == solves
        assert prokhorov_exhaustive(mu, nu) == expected


class TestProkhorovReal:
    def test_matches_exhaustive_oracle(self, rng):
        draw = [lattice_atomic, random_atomic, random_atomic]
        checked = 0
        for i in range(90):
            F, G = draw[i % 3](rng), draw[i % 3](rng)
            space, mu, nu = embed_atomic_pair(F, G)
            if space.n <= 12:
                assert abs(prokhorov_real(F, G) - prokhorov_exhaustive(mu, nu)) <= 1e-12
                checked += 1
        assert checked >= 60

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.0])
    def test_point_masses(self, a):
        assert prokhorov_real(delta(0.0), delta(a)) == min(a, 1.0)

    def test_identity(self, rng):
        for draw in (lattice_atomic, random_atomic):
            F = draw(rng)
            assert prokhorov_real(F, F) == 0.0

    def test_symmetric(self, rng):
        draw = [lattice_atomic, random_atomic, random_atomic]
        for i in range(60):
            F, G = draw[i % 3](rng), draw[i % 3](rng)
            assert abs(prokhorov_real(F, G) - prokhorov_real(G, F)) <= 1e-15

    def test_beyond_the_embedding(self, rng):
        # 5,000 atoms a side out of 7,500 shared positions: the merged
        # space's distance matrix alone would take about 350 MB
        pool = np.sort(rng.normal(size=7500))
        F, G = (RealAtomicDistribution(np.sort(rng.choice(pool, 5000, replace=False)),
                                       rng.dirichlet(np.ones(5000))) for _ in range(2))
        ctx = real_atomic_context(F, G)
        assert ctx.values["levy"] <= ctx.values["prokhorov"] <= ctx.values["tv"] < 1.0
        assert evaluate_edges(ctx).passed


class TestWasserstein:
    def test_single_route(self):
        mu, nu = bern_pair(0.0, 1.0, d=0.75)
        value, coupling, _ = wasserstein_finite(mu, nu)
        assert abs(value - 0.75) < 1e-15
        assert coupling.expected_cost(mu.space.d) == value  # witness is exact

    def test_dudley_stays_at_one(self):
        for n in (2, 5, 10, 1000):
            mu, nu = bern_pair(1.0 / n, 0.0, d=float(n))
            value, _, _ = wasserstein_finite(mu, nu)
            assert abs(value - 1.0) < 1e-12

    def test_bernoulli_hand_value(self, rng):
        for _ in range(10):
            p, q = rng.random(), rng.random()
            mu, nu = bern_pair(p, q)
            value, _, _ = wasserstein_finite(mu, nu)
            assert abs(value - abs(p - q)) < 1e-12

    def test_real_examples(self):
        assert wasserstein_real(delta(0.0), delta(0.0)) == 0.0
        assert abs(wasserstein_real(delta(0.0), delta(0.7)) - 0.7) < 1e-15
        F = RealAtomicDistribution.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        G = RealAtomicDistribution.from_pairs([(0.5, 0.5), (1.5, 0.5)])
        assert abs(wasserstein_real(F, G) - 0.5) < 1e-15

    def test_real_matches_flow_on_collinear(self, rng):
        for _ in range(60):
            m = int(rng.integers(2, 9))
            xs = np.sort(rng.normal(size=m) * 3)
            F = RealAtomicDistribution(xs, rng.dirichlet(np.ones(m)))
            G = RealAtomicDistribution(xs, rng.dirichlet(np.ones(m)))
            space, mu, nu = embed_atomic_pair(F, G)
            assert abs(wasserstein_finite(mu, nu)[0] - wasserstein_real(F, G)) < 1e-10

    def test_scales_with_the_metric(self, rng):
        s = FiniteMetricSpace.euclidean(rng.normal(size=(6, 2)))
        s3 = FiniteMetricSpace(3.0 * s.d)
        mu, nu = random_pair_on(s, rng)
        w1, _, _ = wasserstein_finite(mu, nu)
        w3, _, _ = wasserstein_finite(DiscreteDistribution(s3, mu.p),
                                      DiscreteDistribution(s3, nu.p))
        assert abs(w3 - 3.0 * w1) < 1e-10

    def test_no_negative_cycle_in_residual_graph(self, rng):
        # an optimal transportation plan admits no negative cycle in its
        # residual network; Bellman-Ford over (forward cost, backward -cost)
        def has_negative_cycle(cost, J):
            n, m = cost.shape
            size = n + m
            dist = [0.0] * size
            for it in range(size):
                changed = False
                for i in range(n):
                    for j in range(m):
                        if dist[i] + cost[i, j] < dist[n + j] - 1e-9:
                            dist[n + j] = dist[i] + cost[i, j]
                            changed = True
                        if J[i, j] > 1e-12 and \
                                dist[n + j] - cost[i, j] < dist[i] - 1e-9:
                            dist[i] = dist[n + j] - cost[i, j]
                            changed = True
                if not changed:
                    return False
            return True

        from metric_atlas.bounds import random_instance
        kinds = ("euclidean", "cycle", "random-metric")
        for i in range(30):
            inst = random_instance(55, i, (3, 10), kinds[i % 3],
                                   0.3 if i % 2 else 0.0)
            _, coupling, _ = wasserstein_finite(inst.mu, inst.nu)
            assert not has_negative_cycle(inst.space.d, coupling.J), \
                inst.instance_id

    def test_handles_heavy_distance_ties(self, rng):
        # integer matrices maximize breakpoint collisions in the flow sweep
        for trial in range(25):
            n = int(rng.integers(3, 9))
            w = rng.integers(1, 4, size=(n, n)).astype(float)
            w = np.minimum(w, w.T)
            np.fill_diagonal(w, 0.0)
            for k in range(n):
                w = np.minimum(w, w[:, [k]] + w[[k], :])
            s = FiniteMetricSpace(w)
            mu, nu = random_pair_on(s, rng, sparsity=0.3 if trial % 2 else 0.0)
            assert abs(prokhorov(mu, nu) - prokhorov_exhaustive(mu, nu)) <= 1e-9
            wass, coupling, _ = wasserstein_finite(mu, nu)
            assert coupling.expected_cost(s.d) == wass


def _lp_transport_cost(cost, a, b):
    """Optimal transportation cost from scipy's HiGHS LP, independent of
    the library's solver. scipy is a test-only dependency, imported here so
    that the rest of the module runs without it. HiGHS's default feasibility
    tolerances, 1e-7, left its optimum up to 8e-9 off a witness-checked W on
    4 of 300 random instances; at 1e-10 it agrees within 1e-15."""
    from scipy import sparse
    from scipy.optimize import linprog
    n, m = cost.shape
    a_eq = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.eye(m))])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.fun


def _random_metric(rng, n):
    w = rng.uniform(0.5, 2.0, size=(n, n))
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    for k in range(n):
        w = np.minimum(w, w[:, [k]] + w[[k], :])
    return FiniteMetricSpace(w)


def _pair(space, mu_p, nu_p):
    return DiscreteDistribution(space, mu_p), DiscreteDistribution(space, nu_p)


def _dirichlet_pair(space, rng):
    n = space.n
    return _pair(space, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))


def _zero_mass_pair(space, rng):
    # coordinates empty under both measures, and under each one alone
    n = space.n
    both = np.arange(n) % 4 == 0
    mu_p = np.where(both | (np.arange(n) % 4 == 1), 0.0, rng.random(n))
    nu_p = np.where(both | (np.arange(n) % 4 == 2), 0.0, rng.random(n))
    return _pair(space, mu_p / mu_p.sum(), nu_p / nu_p.sum())


def _disjoint_pair(space, rng):
    half = space.n // 2
    mu_p, nu_p = np.zeros(space.n), np.zeros(space.n)
    mu_p[:half] = rng.dirichlet(np.ones(half))
    nu_p[half:] = rng.dirichlet(np.ones(space.n - half))
    return _pair(space, mu_p, nu_p)


LP_CASES = {
    "cycle-40-ties": lambda rng: _dirichlet_pair(FiniteMetricSpace.cycle(40), rng),
    "zero-mass-40": lambda rng: _zero_mass_pair(
        FiniteMetricSpace.euclidean(rng.normal(size=(40, 2))), rng),
    "disjoint-40": lambda rng: _disjoint_pair(_random_metric(rng, 40), rng),
    "euclidean-160": lambda rng: _dirichlet_pair(
        FiniteMetricSpace.euclidean(rng.normal(size=(160, 2))), rng),
    "cycle-120": lambda rng: _dirichlet_pair(FiniteMetricSpace.cycle(120), rng),
    "random-metric-100": lambda rng: _dirichlet_pair(_random_metric(rng, 100), rng),
}


# euclidean pairs at n = 100-200 are in tests/test_witness.py
WITNESS_CASES = {
    "cycle-150": lambda rng: _dirichlet_pair(FiniteMetricSpace.cycle(150), rng),
    "random-metric-100": lambda rng: _dirichlet_pair(_random_metric(rng, 100), rng),
    "zero-mass-120": lambda rng: _zero_mass_pair(
        FiniteMetricSpace.euclidean(rng.normal(size=(120, 2))), rng),
    # integer grid points: many equal distances, so many tied cheapest arcs
    "grid-ties-144": lambda rng: _dirichlet_pair(FiniteMetricSpace.euclidean(
        np.stack(np.divmod(np.arange(144), 12), axis=1)), rng),
}


class TestTransportAgainstLP:
    """Cross-checks beyond the oracles' n <= 12, against scipy's HiGHS LP."""

    @pytest.mark.parametrize("case", sorted(LP_CASES))
    def test_matches_lp(self, case, rng):
        mu, nu = LP_CASES[case](rng)
        d = mu.space.d
        w, coupling, _ = wasserstein_finite(mu, nu)
        assert abs(w - _lp_transport_cost(d, mu.p, nu.p)) <= 1e-10
        assert coupling.expected_cost(d) == w

        # P = max(d_k, u(d_k)) at the first k with u(d_k) < d_{k+1}, where
        # u(delta) is the LP optimum under the 0/1 cost 1{d > delta}
        def u(delta):
            return _lp_transport_cost((d > delta).astype(float), mu.p, nu.p)

        deltas = np.concatenate(([0.0], mu.space.distinct_distances))
        p = prokhorov(mu, nu)
        k = int(np.searchsorted(deltas, p, side="right")) - 1
        u_k = u(deltas[k])
        if k + 1 < deltas.size:
            assert u_k < deltas[k + 1]
        if k > 0:
            assert u(deltas[k - 1]) >= deltas[k]
        assert abs(p - max(deltas[k], u_k)) <= 1e-9


def _collinear_point_masses(xs, i, j):
    s = FiniteMetricSpace.euclidean(xs)
    return DiscreteDistribution.point_mass(s, i), DiscreteDistribution.point_mass(s, j)


def _equal_pair_40():
    rng = np.random.default_rng(40)
    s = FiniteMetricSpace.euclidean(rng.normal(size=(40, 2)))
    p = rng.dirichlet(np.ones(40))
    return DiscreteDistribution(s, p), DiscreteDistribution(s, p.copy())


class TestTransportDegenerate:
    """Inputs with a closed-form answer, pinned exactly: (P, W)."""

    @pytest.mark.parametrize("build, want", [
        (lambda: _pair(FiniteMetricSpace([[0.0]]), [1.0], [1.0]),
         (0.0, 0.0)),
        (_equal_pair_40, (0.0, 0.0)),
        (lambda: bern_pair(0.0, 1.0, d=0.25), (0.25, 0.25)),
        (lambda: bern_pair(0.0, 1.0, d=1.0), (1.0, 1.0)),
        (lambda: bern_pair(1.0, 0.0, d=3.5), (1.0, 3.5)),
        (lambda: _collinear_point_masses([0.0, 0.1, 0.35, 0.5, 2.0], 0, 2),
         (0.35, 0.35)),
        (lambda: _collinear_point_masses([0.0, 0.1, 0.35, 0.5, 2.0], 4, 1),
         (1.0, 1.9)),
        (lambda: (DiscreteDistribution.point_mass(FiniteMetricSpace.cycle(40), 3),
                  DiscreteDistribution.point_mass(FiniteMetricSpace.cycle(40), 10)),
         (1.0, 7.0)),
    ], ids=["n=1", "equal-n40", "points-r0.25", "points-r1", "points-r3.5",
            "line-points-r0.35", "line-points-r1.9", "cycle40-points-r7"])
    def test_exact_values(self, build, want):
        mu, nu = build()
        w, coupling, _ = wasserstein_finite(mu, nu)
        assert (prokhorov(mu, nu), w) == want
        assert coupling.expected_cost(mu.space.d) == w


def _block_shape(mu, nu):
    """(|S|, |T|) for the surplus S = {mu > nu} and deficit T = {mu < nu}."""
    e = mu.p - nu.p
    return int(np.sum(e > 0.0)), int(np.sum(e < 0.0))


class TestWassersteinBlock:
    """W moves only the surplus of mu - nu onto its deficit, and returns a
    coupling and a 1-Lipschitz f that `check_wasserstein` verifies."""

    def test_random_instances_match_lp(self, transport_solves):
        for i in range(300):
            inst = random_instance(612, i, (4, 64), INSTANCE_KINDS[i % 3],
                                   (0.0, 0.3)[(i // 3) % 2])
            mu, nu, d = inst.mu, inst.nu, inst.space.d
            transport_solves.calls.clear()
            w, coupling, f = wasserstein_finite(mu, nu)
            assert transport_solves.calls == [(_block_shape(mu, nu), math.inf)], \
                inst.instance_id
            check_wasserstein(mu, nu, w, coupling, f)
            assert abs(w - _lp_transport_cost(d, mu.p, nu.p)) <= 1e-10, inst.instance_id

    @pytest.mark.parametrize("case", sorted(WITNESS_CASES))
    def test_witness_at_large_n(self, case, rng):
        mu, nu = WITNESS_CASES[case](rng)
        w, coupling, f = wasserstein_finite(mu, nu)
        check_wasserstein(mu, nu, w, coupling, f)

    def test_equal_measures_solve_nothing(self, transport_solves):
        mu, nu = _equal_pair_40()
        w, coupling, f = wasserstein_finite(mu, nu)
        assert transport_solves.calls == []
        assert w == 0.0
        assert np.array_equal(coupling.J, np.diag(mu.p))
        assert np.array_equal(f, np.zeros(40))
        check_wasserstein(mu, nu, w, coupling, f)

    def test_single_point_solves_nothing(self, transport_solves):
        mu, nu = _pair(FiniteMetricSpace([[0.0]]), [1.0], [1.0])
        w, coupling, f = wasserstein_finite(mu, nu)
        assert (transport_solves.calls, w, coupling.J.tolist(), f.tolist()) == \
            ([], 0.0, [[1.0]], [0.0])

    def test_point_masses_take_one_unit_solve(self, transport_solves, rng):
        s = _random_metric(rng, 12)
        for i, j in ((0, 5), (7, 2), (11, 3)):
            mu = DiscreteDistribution.point_mass(s, i)
            nu = DiscreteDistribution.point_mass(s, j)
            transport_solves.calls.clear()
            w, coupling, f = wasserstein_finite(mu, nu)
            assert transport_solves.calls == [((1, 1), math.inf)]
            assert w == s.d[i, j]
            assert coupling.J[i, j] == 1.0
            check_wasserstein(mu, nu, w, coupling, f)

    @pytest.mark.parametrize("build, sides", [
        (_disjoint_pair, lambda mu, nu: (20, 20)),  # the two supports
        (_zero_mass_pair, lambda mu, nu: (np.sum(mu.p > nu.p), np.sum(mu.p < nu.p))),
    ], ids=["disjoint", "zero-mass"])
    def test_solves_only_the_unbalanced_points(self, transport_solves, rng,
                                               build, sides):
        mu, nu = build(_random_metric(rng, 40), rng)
        w, coupling, f = wasserstein_finite(mu, nu)
        assert transport_solves.calls == [(sides(mu, nu), math.inf)]
        # points empty under both measures join neither side
        assert sum(sides(mu, nu)) == np.sum((mu.p > 0) | (nu.p > 0))
        check_wasserstein(mu, nu, w, coupling, f)
        assert abs(w - _lp_transport_cost(mu.space.d, mu.p, nu.p)) <= 1e-10

    def test_prokhorov_solves_the_full_problem(self, transport_solves):
        for i in range(60):
            inst = random_instance(613, i, (4, 64), INSTANCE_KINDS[i % 3],
                                   (0.0, 0.3)[(i // 3) % 2])
            transport_solves.calls.clear()
            prokhorov(inst.mu, inst.nu)
            n = inst.space.n
            assert all(call == ((n, n), 1.0) for call in transport_solves.calls)


def _w_against_lp_and_witness(d, mu_p, nu_p):
    mu, nu = _pair(FiniteMetricSpace(d), np.array(mu_p), np.array(nu_p))
    w, coupling, f = wasserstein_finite(mu, nu)
    check_wasserstein(mu, nu, w, coupling, f)
    assert abs(w - _lp_transport_cost(mu.space.d, mu.p, nu.p)) <= 1e-12
    return w


def _check_transport(cost, supply, demand, flow, stop_cost):
    """The solver's flow from `flow` at `stop_cost`, checked and returned:
    marginals kept and, run to the end, the LP's optimum met both by its
    cost and by the dual value of its column potentials; stopped at 1 on a
    0/1 cost, only zero-cost arcs used and the supply left equal to the
    LP's optimum."""
    out, v = _transport(cost, supply, demand, flow, stop_cost)
    assert np.all(out >= 0.0)
    assert np.all(out.sum(axis=1) <= supply + 1e-12)
    assert np.all(out.sum(axis=0) <= demand + 1e-12)
    lp = _lp_transport_cost(cost, supply, demand)
    if stop_cost == math.inf:
        assert np.allclose(out.sum(axis=1), supply, rtol=0.0, atol=1e-12)
        assert np.allclose(out.sum(axis=0), demand, rtol=0.0, atol=1e-12)
        primal = float(np.sum(out * cost))
        # u_i = min_j cost - v: a feasible dual, so its value meets the
        # optimum only when v is optimal
        dual = float(np.min(cost - v, axis=1) @ supply + v @ demand)
        scale = 1e-10 * max(1.0, float(cost.max()))
        assert abs(primal - lp) <= scale and abs(dual - lp) <= scale
    else:
        assert float(np.sum(out * cost)) == 0.0
        assert abs(float(supply.sum() - out.sum()) - lp) <= 1e-10
    return out


# Points A, B, D, X, Y, Z: A and B sit near X, A nearer Y and Z, D far off.
_SKIP_SPACE = [[0, 2, 6, 2, 3, 3],
               [2, 0, 6, 2, 5, 5],
               [6, 6, 0, 7, 7, 7],
               [2, 2, 7, 0, 3, 3],
               [3, 5, 7, 3, 0, 2],
               [3, 5, 7, 3, 2, 0]]


class TestTransportPhases:
    """Problems built so that a phase of the solver takes one of its paths:
    each is checked against the LP, and W's against its witness."""

    @pytest.mark.parametrize("mu_p, want", [
        ([0.3, 0.1, 0.6, 0.0, 0.0, 0.0], 5.2),
        ([0.3, 0.7, 0.0, 0.0, 0.0, 0.0], 3.8),
    ], ids=["root-runs-dry", "backward-arc-empties"])
    def test_phase_skips_a_path_an_earlier_one_drained(self, mu_p, want):
        """nu = 0.2 X + 0.4 Y + 0.4 Z. The tight-arc start ships all of A,
        0.2 to X and 0.1 to Y, so Y and Z still need mass. The first phase
        reaches both from B at the same cost, through X and back along A-X
        to A. Y's path takes all of B's 0.1 (root-runs-dry) or all 0.2 of
        A-X (backward-arc-empties), so Z's path is skipped, and the next
        phase serves Y and Z from D or B directly."""
        assert abs(_w_against_lp_and_witness(_SKIP_SPACE, mu_p,
                                             [0.0, 0.0, 0.0, 0.2, 0.4, 0.4]) - want) <= 1e-12

    def test_tree_path_passes_a_column_that_needs_mass(self):
        """Points A, B, X, Y; mu = (A + B)/2, nu = 0.6 X + 0.4 Y. The
        tight-arc start ships all of A onto X, leaving X short 0.1 and Y
        short 0.4. The one phase reaches Y from B through X and back along
        A-X, at cost 3 - 2 + 1 = 2, below X's own path at 3, so Y ships
        first, through X while X still needs mass."""
        d = [[0, 4, 2, 1], [4, 0, 3, 5], [2, 3, 0, 3], [1, 5, 3, 0]]
        w = _w_against_lp_and_witness(d, [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.6, 0.4])
        assert abs(w - 2.1) <= 1e-12

    def test_prokhorov_probe_ships_only_zero_cost_paths(self):
        """Points 0..4 on the line, the probe at delta = 1 from the shared
        mass. Rows 0 and 1 keep 1/6 each, columns 3 and 4 need 1/6 each.
        The one phase holds a path of cost 0 to column 3, from row 1
        through column 2 and back along the shared mass at point 2, and only
        a path of cost 1 to column 4. The first ships; the second, and the
        next phase, stop the solve with u(1) = 1/6 unshipped."""
        x = np.arange(5.0)
        mu, nu = np.array([1, 1, 2, 0, 2]) / 6.0, np.array([0, 0, 2, 1, 3]) / 6.0
        cost = (np.abs(x[:, None] - x) > 1.0).astype(float)
        flow = _check_transport(cost, mu, nu, np.diag(np.minimum(mu, nu)), 1.0)
        assert abs(1.0 - flow.sum() - 1.0 / 6.0) <= 1e-15
        s = FiniteMetricSpace.euclidean(x)
        a, b = _pair(s, mu, nu)
        assert abs(prokhorov(a, b) - prokhorov_exhaustive(a, b)) <= 1e-12

    def test_a_column_without_a_zero_arc_is_left_to_the_stop(self):
        """Two rows, three columns, zero arcs only on the leading diagonal.
        Column 2 has no arc of cost 0, so the tight-arc start leaves it,
        and the one phase reaches it only at cost 1: the probe ships the
        2/3 its zero arcs carry and stops, and the full solve, which has no
        stop, ships the rest."""
        cost = np.ones((2, 3))
        cost[[0, 1], [0, 1]] = 0.0
        supply, demand = np.full(2, 0.5), np.full(3, 1.0 / 3.0)
        flow = _check_transport(cost, supply, demand, np.zeros((2, 3)), 1.0)
        assert abs(flow.sum() - 2.0 / 3.0) <= 1e-15
        _check_transport(cost, supply, demand, np.zeros((2, 3)), math.inf)

    def test_a_row_with_surplus_below_the_flow_tolerance_is_dead(self):
        """Points 0..3 on the line; mu's surplus at point 1 is 1e-14, below
        _FLOW_EPS, so W's block row for it has neither supply nor flow: no
        path reaches it, and its potential turns inf without touching the
        value, the coupling or f."""
        mu_p = [0.5, 0.25 + 1e-14, 0.25 - 1e-14, 0.0]
        nu_p = [0.0, 0.25, 0.25, 0.5]
        assert 0.0 < mu_p[1] - nu_p[1] <= tp._FLOW_EPS
        d = np.abs(np.arange(4.0)[:, None] - np.arange(4.0))
        assert _w_against_lp_and_witness(d, mu_p, nu_p) == 1.5

    def test_seeded_problems_match_lp(self):
        lacking = 0
        for full, probe, free in _seeded_solves():
            _check_transport(*full)
            _check_transport(*probe)
            lacking += bool(free[0].min(axis=0).max() > 0.0)
            _check_transport(*free)
        assert lacking >= 150


def _seeded_solves():
    """200 problems with unequal row and column counts up to 64, real or
    integer (tied) costs and some rows or columns without mass, each as
    three solves (cost, supply, demand, flow, stop_cost): run to the end
    from zero flow, and as a probe under the 0/1 cost 1{cost > its median},
    stopped at 1 from the diagonal warm flow, where every row and column has
    an arc of cost 0 as a distance matrix's diagonal gives Prokhorov's
    probes. Each is also stopped at 1 from zero flow under a 0/1 cost with
    no forced zero arc, where a column has none with probability 1/2: most
    problems have such a column, which only the stop keeps the solve from
    shipping to."""
    rng = np.random.default_rng(1818)
    free_rng = np.random.default_rng(2323)
    for t in range(200):
        n, m = (int(k) for k in rng.integers(1, 65, size=2))
        if t % 2:
            cost = rng.integers(0, 4, size=(n, m)).astype(float)
        else:
            cost = rng.exponential(size=(n, m))
        k, r = min(n, m), np.arange(max(n, m))
        cost[r % n, r % m] = 0.0
        supply, demand = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        if t % 4 >= 2:
            supply[rng.random(n) < 0.3] = 0.0
            demand[rng.random(m) < 0.3] = 0.0
            if supply.sum() == 0.0 or demand.sum() == 0.0:
                continue
            supply, demand = supply / supply.sum(), demand / demand.sum()
        warm = np.zeros((n, m))
        warm[np.arange(k), np.arange(k)] = np.minimum(supply[:k], demand[:k])
        probe = (cost > np.median(cost)).astype(float)
        free = (free_rng.random((n, m)) >= 1.0 - 0.5 ** (1.0 / n)).astype(float)
        yield ((cost, supply, demand, np.zeros((n, m)), math.inf),
               (probe, supply, demand, warm, 1.0),
               (free, supply, demand, np.zeros((n, m)), 1.0))


def _thin_solves():
    """One row or one column, where the column-major reduced costs are a
    single row or column too: real and tied costs run to the end, and a 0/1
    cost stopped at 1 from zero flow."""
    rng = np.random.default_rng(77)
    for n, m in [(1, 1), (1, 2), (2, 1), (1, 7), (7, 1), (1, 64), (64, 1)]:
        supply, demand = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        for cost in (rng.exponential(size=(n, m)),
                     rng.integers(0, 3, size=(n, m)).astype(float)):
            yield cost, supply, demand, np.zeros((n, m)), math.inf
        yield ((rng.random((n, m)) < 0.5).astype(float), supply, demand,
               np.zeros((n, m)), 1.0)


class TestSolverAgainstItsParent:
    """The solver ships on scalars and relaxes on column-major reduced
    costs; the parent, kept in `conftest.parent_transport`, did both on
    arrays. Each phase, round, tree and float operation is the same, so
    every output must be equal bit for bit."""

    @staticmethod
    def assert_same_solve(args):
        flow, v = _transport(*args)
        ref_flow, ref_v = parent_transport(*args)
        assert flow.tobytes() == ref_flow.tobytes()
        assert v.tobytes() == ref_v.tobytes()

    def test_seeded_and_thin_solves(self):
        for solves in _seeded_solves():
            for args in solves:
                self.assert_same_solve(args)
        for args in _thin_solves():
            self.assert_same_solve(args)

    def test_w_and_p_on_random_instances(self, monkeypatch):
        for i in range(240):
            inst = random_instance(2828, i, (1, 64), INSTANCE_KINDS[i % 3],
                                   CAMPAIGN_SPARSITIES[(i // 3) % 2])
            reads = []
            for solve in (_transport, parent_transport):
                monkeypatch.setattr(tp, "_transport", solve)
                w, coupling, f = wasserstein_finite(inst.mu, inst.nu)
                reads.append((w.hex(), coupling.J.tobytes(), f.tobytes(),
                              prokhorov(inst.mu, inst.nu).hex()))
            assert reads[0] == reads[1], inst.instance_id

    def test_costs_on_the_bench_pools_are_finite(self, transport_solves):
        """The solver's contract asks for finite costs, and both callers
        give them: on the campaign pool (batches of the 3 kinds x 2
        sparsities at n 4-10) and the n = 40 pool, every solve's costs are
        finite."""
        for seed in range(1000, 1025):
            certification_campaign(6, seed=seed, size_range=(4, 10))
        for i in range(9):
            inst = random_instance(40, i, (40, 40),
                                   ("euclidean", "random-metric", "cycle")[i % 3],
                                   (0.0, 0.3)[i % 2])
            certify(inst.mu, inst.nu)
        assert transport_solves.count > 0 and all(transport_solves.finite)


class TestMixedDiscrepancy:
    def test_point_mass_against_normal(self):
        assert abs(discrepancy_real_mixed(delta(0.0), gaussian_cdf()) - 1.0) < 1e-12

    def test_matches_scan_oracle(self, rng):
        G = gaussian_cdf()
        for _ in range(25):
            F = random_atomic(rng, max_atoms=12, scale=1.5)
            fast = discrepancy_real_mixed(F, G)
            assert abs(fast - mixed_discrepancy_scan_oracle(F, G)) < 1e-12

    def test_quantile_atoms_are_low_discrepancy(self):
        G = gaussian_cdf()

        def normal_quantile(u):
            lo, hi = -9.0, 9.0
            for _ in range(80):
                mid = (lo + hi) / 2
                if G(mid) < u:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        for m in (19, 99):
            xs = np.array([normal_quantile((i + 1) / (m + 1)) for i in range(m)])
            F = RealAtomicDistribution(xs, np.full(m, 1.0 / m))
            assert discrepancy_real_mixed(F, G) <= 2.0 / (m + 1) + 1e-9

    def test_rejects_sloppy_oracle(self):
        from metric_atlas.spaces import SmoothRealCdf
        sharp = gaussian_cdf()
        blunt = SmoothRealCdf(sharp.cdf, sharp.density_bound, sharp.support,
                              eval_tolerance=1e-6)
        with pytest.raises(ValueError, match="tolerance"):
            discrepancy_real_mixed(delta(0.0), blunt)

    def test_rejects_atoms_outside_truncation(self):
        with pytest.raises(ValueError, match="cover"):
            discrepancy_real_mixed(delta(11.0), gaussian_cdf())


def three_read_reference(F, G):
    """K, L and D of atomic F against smooth G as three separate reads of G
    give them: D over the atoms between two sentinel points, one unit
    outside them; K as the largest one-sided gap at the atoms; L as the
    joint bisection. `smooth_pair` must reproduce them bit for bit."""
    xs = F.positions
    pts = np.concatenate([[xs[0] - 1.0], xs, [xs[-1] + 1.0]])
    w_incl, w_excl = F.cdf(pts), F.cdf_left(pts)
    g = np.array([G(x) for x in pts.tolist()])
    run_closed = np.maximum.accumulate(g - w_excl)
    run_open = np.maximum.accumulate(w_incl - g)
    disc = max(0.0, float(max(np.max((w_incl - g) + run_closed),
                              np.max((g[1:] - w_excl[1:]) + run_open[:-1]))))
    g = np.array([G(x) for x in xs.tolist()])
    f, f_left = F.cdf(xs), F.cdf_left(xs)
    return {"kolmogorov": float(np.max(np.maximum(f - g, g - f_left))),
            "levy": joint_atomic_levy(F, G),
            "disc": disc}


def mixed_pair(rng, kind):
    """An atomic CDF against a normal one whose truncation covers it, of one
    of six shapes: normal positions, a 0.25 lattice (ties between gaps)
    against a mean on it, a single atom, a point mass on the lattice, a
    dyadic lattice with equal weights, and positions rounded to 0.1."""
    mean, sigma = float(rng.normal(0.0, 0.5)), float(rng.uniform(0.3, 2.0))
    size = int(rng.integers(1, 10))
    equal = False
    if kind == 0:
        xs = np.sort(rng.normal(size=size) * 1.5)
    elif kind == 1:
        xs = np.unique(rng.integers(-6, 7, size) * 0.25)
        mean = float(rng.integers(-4, 5)) * 0.25
    elif kind == 2:
        xs = np.array([rng.normal() * 1.5])
    elif kind == 3:
        xs = np.array([float(rng.integers(-4, 5)) * 0.25])
        mean = float(rng.choice([0.0, 0.25, mean]))
    elif kind == 4:
        xs, equal = np.unique(rng.integers(-8, 9, size) / 8.0), True
    else:
        xs = np.unique(np.round(rng.normal(size=size) * 1.5, 1))
    w = np.full(xs.size, 1.0 / xs.size) if equal else rng.dirichlet(np.ones(xs.size))
    halfwidth = max(9.0, float(np.max(np.abs(xs - mean))) / sigma + 1.0)
    return RealAtomicDistribution(xs, w), gaussian_cdf(mean, sigma, halfwidth)


class TestOneReaderAgainstSmooth:
    def pairs(self):
        rng = np.random.default_rng(20261019)
        for trial in range(2040):
            yield mixed_pair(rng, trial % 6)
        for n in (1, 2, 3, 5, 16, 100, 1000, 1075, 4000):
            yield (standardized_binomial(n),
                   gaussian_cdf(0.0, 1.0, max(9.0, math.sqrt(n) + 2.0)))

    def test_matches_the_three_read_reference(self):
        degenerate = {"tv": 1.0, "hellinger": math.sqrt(2.0), "entropy": math.inf,
                      "chi2": math.inf, "separation": 1.0}
        for F, G in self.pairs():
            want = {k: v.hex() for k, v in three_read_reference(F, G).items()}
            for got in (smooth_pair(F, G), smooth_pair(G, F)):
                assert {k: v.hex() for k, (v, _) in got.items()} == want, F.positions
            ctx = real_mixed_context(F, G)
            assert {k: v.hex() for k, v in ctx.values.items()} \
                == {**{k: v.hex() for k, v in degenerate.items()}, **want}
            assert ctx.extra_slack.hex() == (0.0).hex()
            assert discrepancy_real_mixed(F, G).hex() == want["disc"]

    def test_reads_the_smooth_cdf_once_per_atom(self):
        # 1,001 atoms, plus the probes of the one Levy search
        F = standardized_binomial(1000)
        G, calls = counting_cdf(gaussian_cdf(0.0, 1.0, math.sqrt(1000) + 2.0))
        real_mixed_context(F, G)
        assert calls[0] <= 1200

    @pytest.mark.parametrize("call", [kolmogorov, levy, tp.discrepancy_real,
                                      prokhorov_real, wasserstein_real])
    def test_step_metrics_refuse_a_smooth_cdf(self, call):
        for F, G in ((delta(0.0), gaussian_cdf()), (gaussian_cdf(), delta(0.0)),
                     (gaussian_cdf(), gaussian_cdf(0.3))):
            with pytest.raises(TypeError, match="smooth_pair"):
                call(F, G)

    @pytest.mark.parametrize("pair", [
        lambda: (gaussian_cdf(), gaussian_cdf()),
        lambda: (delta(0.0), delta(1.0)),
        lambda: (gaussian_cdf(), delta(0.0)),
    ], ids=["two-smooth", "two-atomic", "smooth-mu"])
    def test_mixed_discrepancy_refuses_other_pairs(self, pair):
        with pytest.raises(TypeError, match="^discrepancy_real_mixed: .*smooth_pair"):
            discrepancy_real_mixed(*pair())

    def test_interval_growth_refuses_a_smooth_cdf(self):
        with pytest.raises(TypeError, match="^nu: "):
            tp.interval_growth_at(gaussian_cdf(), 0.1)

    def test_needs_a_smooth_cdf(self):
        with pytest.raises(TypeError, match="^smooth_pair:"):
            smooth_pair(delta(0.0), delta(1.0))

    def test_oracle_checks_cover_every_value(self):
        sharp = gaussian_cdf()
        blunt = SmoothRealCdf(sharp.cdf, sharp.density_bound, sharp.support,
                              eval_tolerance=1e-6)
        for F, G, field in ((delta(0.0), blunt, "eval_tolerance"),
                            (delta(11.0), sharp, "support")):
            for call in (smooth_pair, real_mixed_context):
                with pytest.raises(ValueError, match=f"^{field}:"):
                    call(F, G)
            with pytest.raises(ValueError, match=f"^{field}:"):
                smooth_pair(G, F)


class TestOneReaderOfStepPairs:
    @pytest.mark.parametrize("call, searches", [
        (kolmogorov, 0), (levy, 1), (tp.discrepancy_real, 0), (wasserstein_real, 0)])
    def test_reads_the_pair_once(self, call, searches, monkeypatch):
        calls = {"_read": 0, "_levy_search": 0}
        for name in calls:
            def counted(*args, _inner=getattr(tp, name), _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(tp, name, counted)
        F = RealAtomicDistribution(np.array([-1.0, 0.25, 2.0]), np.array([0.2, 0.5, 0.3]))
        G = RealAtomicDistribution(np.array([0.0, 0.25, 1.5]), np.array([0.5, 0.1, 0.4]))
        assert call(F, G) > 0.0
        assert calls == {"_read": 1, "_levy_search": searches}


class TestBallGrowth:
    def test_zero_eps_is_zero(self):
        _, mu, _, unif = z10_measures()
        assert ball_growth_at(unif, 0.0) == 0.0

    def test_uniform_on_cycle(self):
        s = FiniteMetricSpace.cycle(10)
        unif = DiscreteDistribution.uniform(s)
        assert abs(ball_growth_at(unif, 1.0) - 0.2) < 1e-12  # 2/n per unit step

    def test_point_mass_growth_hits_one(self):
        s = FiniteMetricSpace.cycle(10)
        nu = DiscreteDistribution.point_mass(s, 0)
        assert abs(ball_growth_at(nu, 5.0) - 1.0) < 1e-15

    def test_matches_exhaustive_oracle(self):
        # n = 1 and 2, cycles (heavy distance ties), zero-mass coordinates
        # (odd i) and point masses, at every breakpoint of the modulus
        kinds = ("euclidean", "random-metric", "cycle")
        cases = []
        for i in range(30):
            n = 1 + i % 10
            inst = random_instance(31, i, (n, n), kinds[i % 3], 0.3 if i % 2 else 0.0)
            cases += [inst.nu, DiscreteDistribution.point_mass(inst.space, n // 2)]
        assert any(np.any(nu.p == 0.0) and nu.p.max() < 1.0 for nu in cases)
        for nu in cases:
            phi = tightest_ball_growth(nu)
            for eps, val in zip(phi.breakpoints.tolist(), phi.values.tolist()):
                want = ball_growth_exhaustive(nu, eps)
                assert abs(ball_growth_at(nu, eps) - want) <= 1e-12
                assert abs(val - want) <= 1e-12

    @pytest.mark.parametrize("cells", [tp._BLOCK_CELLS, 50], ids=["one-block", "1-3-centers"])
    def test_matches_the_running_minima_read(self, cells, monkeypatch):
        """510 random instances, n from 1 to 64 (every tenth above 16), each
        kind and sparsity, and a point mass on every fifth space, read at 0,
        above the diameter, and at each distinct distance and one ulp either
        side: every one up to 16 of them, 16 spread over the range above.
        The reference is the read by running minima over the sorted distance
        rows. With 50 cells a block holds 1 to 3 centers; that run takes
        every tenth instance, all of n <= 16, since above n = 7 a block
        holds one center at any n."""
        step = 1 if cells == tp._BLOCK_CELLS else 10
        monkeypatch.setattr(tp, "_BLOCK_CELLS", cells)
        kinds, reads = ("euclidean", "random-metric", "cycle"), 0
        for i in range(step // 2, 510, step):
            n = 1 + i % 16 if i % 10 else 17 + (i // 10) % 48
            inst = random_instance(19, i, (n, n), kinds[i % 3], 0.3 if i % 2 else 0.0)
            dd = inst.space.distinct_distances
            if dd.size > 16:
                dd = dd[np.linspace(0, dd.size - 1, 16).astype(int)]
            eps = np.concatenate([[0.0, 2.0 * inst.space.diam + 1.0], dd,
                                  np.nextafter(dd, 0.0), np.nextafter(dd, np.inf)])
            measures = [inst.nu]
            if i % 5 == 0:
                measures.append(DiscreteDistribution.point_mass(inst.space, n // 2))
            for nu in measures:
                sets = np.concatenate(list(tp._ball_distances(nu.space.d)))
                for e in eps.tolist():
                    want = float(np.max(((sets > 0.0) & (sets <= e)) @ nu.p, initial=0.0))
                    assert abs(ball_growth_at(nu, e) - want) <= 1e-12, (inst.instance_id, e)
                    reads += 1
        assert reads > 15_000 // step

    def test_below_the_smallest_distance_sorts_nothing(self, monkeypatch):
        inst = random_instance(19, 3, (12, 12), "euclidean")
        calls = []
        argsort = np.argsort

        def counted(*args, **kwargs):
            calls.append(1)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        d_min = inst.space.d_min
        assert ball_growth_at(inst.nu, float(np.nextafter(d_min, 0.0))) == 0.0
        assert not calls
        assert ball_growth_at(inst.nu, d_min) > 0.0 and calls

    def test_peak_memory_at_n_320(self):
        """One read holds a boolean (center, point, point) block, not float
        distances from every ball: under 1 MB at n = 320 (5.7 MB read by
        running minima)."""
        rng = np.random.default_rng(320)
        s = FiniteMetricSpace.euclidean(rng.normal(size=(320, 2)))
        nu = DiscreteDistribution(s, rng.dirichlet(np.ones(320)))
        eps = float(np.median(s.distinct_distances)) / 3.0
        tracemalloc.start()
        try:
            value = ball_growth_at(nu, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < value <= 1.0
        assert peak < 1_000_000

    def test_modulus_step_structure(self):
        s = FiniteMetricSpace.cycle(10)
        unif = DiscreteDistribution.uniform(s)
        phi = tightest_ball_growth(unif)
        assert phi.at(0.0) == 0.0
        assert abs(phi.at(1.5) - phi.at(1.0)) < 1e-15  # right-continuous step
        assert np.all(np.diff(phi.values) >= -1e-15)

    def test_cycle_modulus_matches_linear_growth(self):
        # for uniform on the n-cycle the growth is 2 eps / n, within 2(eps+1)/n
        for n in (9, 15):
            s = FiniteMetricSpace.cycle(n)
            unif = DiscreteDistribution.uniform(s)
            phi = tightest_ball_growth(unif)
            for eps, val in zip(phi.breakpoints.tolist(), phi.values.tolist()):
                assert val <= 2.0 * (eps + 1.0) / n + 1e-12

    def test_cycle_discrepancy_bounded_through_prokhorov(self, rng):
        # against the uniform reference on cycles the growth modulus turns a
        # Prokhorov bound into a discrepancy bound
        for n in (9, 12, 15):
            s = FiniteMetricSpace.cycle(n)
            unif = DiscreteDistribution.uniform(s)
            phi = tightest_ball_growth(unif)
            for _ in range(10):
                mu = DiscreteDistribution(s, rng.dirichlet(np.ones(n)))
                disc = discrepancy_finite(mu, unif)
                prok = prokhorov(mu, unif)
                assert disc <= (prok + 1e-12) + phi.at(prok + 1e-12) + 1e-9


def _growth_cases():
    """Atomic measures with their eps probes: random_atomic draws, lattice
    draws (ties between gaps) and single atoms; at random eps, lattice
    multiples, 0, and up to six of the atom gaps and half gaps."""
    rng = np.random.default_rng(0)
    cases = []
    for i in range(150):
        if i % 3 == 0:
            nu = lattice_atomic(rng)
        elif i % 10 == 1:
            nu = delta(float(rng.normal()))
        else:
            nu = random_atomic(rng)
        gaps = np.abs(nu.positions[:, None] - nu.positions[None, :])[
            np.triu_indices(nu.m, 1)]
        gaps = np.concatenate([gaps, gaps / 2.0])
        probes = rng.uniform(0.0, 3.0, size=4).tolist() + [0.0, 0.25, 0.5, 1.0]
        on_gaps = rng.choice(gaps, size=min(6, gaps.size), replace=False)
        cases.append((nu, gaps, probes + on_gaps.tolist()))
    return cases


class TestIntervalGrowth:
    def test_matches_exhaustive_oracle(self):
        # equal off the atom gaps; at a gap, y + eps may round to either side
        # of the next atom, so the value lies between the oracle's just below
        # and just above
        on_gap = 0
        for nu, gaps, probes in _growth_cases():
            for eps in probes:
                got = tp.interval_growth_at(nu, eps)
                if gaps.size and np.min(np.abs(gaps - eps)) <= 1e-9:
                    on_gap += 1
                    lo = interval_growth_exhaustive(nu, max(0.0, eps - 1e-9))
                    hi = interval_growth_exhaustive(nu, eps + 1e-9)
                    assert lo - 1e-12 <= got <= hi + 1e-12, (nu.positions, eps)
                else:
                    want = interval_growth_exhaustive(nu, eps)
                    assert abs(got - want) <= 1e-12, (nu.positions, nu.weights, eps)
        assert on_gap > 100

    def test_value_at_zero_is_the_two_largest_weights(self):
        # a complement of [a, b] is open: its closure gains the atoms at a and b
        nu = RealAtomicDistribution.from_pairs([(0.0, 0.2), (1.0, 0.5), (3.0, 0.3)])
        assert tp.interval_growth_at(nu, 0.0) == 0.8
        assert tp.interval_growth_at(delta(2.0), 0.0) == 1.0

    def test_uniform_lattice(self):
        # uniform on 0..9: an interval's complement gains floor(eps) + 1
        # atoms at each end, or a middle stretch of floor(2 eps) + 1 atoms
        nu = RealAtomicDistribution(np.arange(10.0), np.full(10, 0.1))
        for eps, want in [(0.5, 0.2), (1.0, 0.4), (2.0, 0.6), (4.0, 1.0)]:
            assert abs(tp.interval_growth_at(nu, eps) - want) < 1e-15

    def test_non_decreasing(self, rng):
        for _ in range(30):
            nu = random_atomic(rng)
            vals = [tp.interval_growth_at(nu, e) for e in np.linspace(0.0, 4.0, 60)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert vals[-1] <= 1.0 + 1e-15


_CYCLE5 = DiscreteDistribution.uniform(FiniteMetricSpace.cycle(5))
_PHI_READS = {
    "ball_growth_at": lambda eps: ball_growth_at(_CYCLE5, eps),
    "interval_growth_at": lambda eps: tp.interval_growth_at(
        RealAtomicDistribution.from_pairs([(0.0, 0.2), (1.0, 0.5), (3.0, 0.3)]), eps),
    "BallGrowthModulus.at": lambda eps: tightest_ball_growth(_CYCLE5).at(eps),
}


@pytest.mark.parametrize("read", list(_PHI_READS.values()), ids=list(_PHI_READS))
@pytest.mark.parametrize("eps", [math.nan, -1.0, -math.inf, -5e-324],
                         ids=["nan", "-1", "-inf", "-subnormal"])
def test_phi_reads_reject_a_bad_eps(read, eps):
    with pytest.raises(ValueError, match="^eps: "):
        read(eps)


@pytest.mark.parametrize("read", list(_PHI_READS.values()), ids=list(_PHI_READS))
def test_phi_reads_take_zero_and_infinity(read):
    assert 0.0 <= read(0.0) <= read(math.inf) <= 1.0


class TestFigureBoundsOnRandomInstances:
    """Inequality sweeps over random finite instances and atomic pairs."""

    def test_finite_space_chain(self, rng):
        from metric_atlas.bounds import random_instance
        kinds = ("euclidean", "cycle", "random-metric")
        for i in range(60):
            inst = random_instance(99, i, (3, 9), kinds[i % 3], 0.3 if i % 2 else 0.0)
            mu, nu, s = inst.mu, inst.nu, inst.space
            tv = total_variation(mu, nu)
            disc = discrepancy_finite(mu, nu)
            prok = prokhorov(mu, nu)
            wass, _, _ = wasserstein_finite(mu, nu)
            slack = 1e-9
            assert prok ** 2 <= wass + slack
            assert wass <= (s.diam + 1.0) * prok + slack
            assert s.d_min * disc <= wass + slack
            assert s.d_min * tv <= wass + slack
            assert wass <= s.diam * tv + slack
            assert disc <= tv + slack
            assert prok <= tv + slack
            # discrepancy against Prokhorov through the growth modulus
            x = prok + 1e-12
            assert disc <= x + ball_growth_at(nu, x) + slack

    def test_atomic_pair_chain(self, rng):
        for _ in range(40):
            F, G = random_atomic(rng), random_atomic(rng)
            space, mu, nu = embed_atomic_pair(F, G)
            k = kolmogorov(F, G)
            l = levy(F, G)
            disc = discrepancy_finite(mu, nu)
            prok = prokhorov(mu, nu)
            slack = 1e-9
            assert l <= k + slack
            assert k <= disc + slack
            assert disc <= 2.0 * k + slack
            assert l <= prok + slack


class TestSmoothPairs:
    def test_kolmogorov_grid_brackets_truth(self, monkeypatch):
        monkeypatch.setattr(tp, "SMOOTH_MESH", 1e-4)
        A = gaussian_cdf(0.0, 1.0)
        B = gaussian_cdf(0.5, 1.0)
        value, err = smooth_pair(A, B)["kolmogorov"]
        # equal-variance shift: sup at the midpoint, 2*Phi(delta/2) - 1
        exact = 2 * A(0.25) - 1
        assert abs(value - exact) <= err

    def test_petrov_bound_on_smooth_pairs(self):
        pairs = [(gaussian_cdf(0.0, 1.0), gaussian_cdf(0.4, 1.3)),
                 (gaussian_cdf(0.0, 0.8), gaussian_cdf(0.1, 0.8)),
                 (gaussian_cdf(-0.2, 1.0), gaussian_cdf(0.0, 2.0))]
        for A, B in pairs:
            pair = smooth_pair(A, B)
            (k, k_err), (l, l_err) = pair["kolmogorov"], pair["levy"]
            assert l <= k + l_err + k_err
            bound = (1.0 + B.density_bound) * (l + l_err) + k_err
            assert k <= bound + 1e-9
