import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from metric_atlas import walks
from metric_atlas.bounds import (evaluate_edges, real_mixed_context, MetricContext,
                                 certification_campaign, random_instance)
from metric_atlas.divergences import tv_kernel
from metric_atlas.oracles import (cdg_disc_window_oracle, cdg_fourier_transform,
                                  product_walk_direct)
from metric_atlas.spaces import (MASS_TOL, DiscreteDistribution, FiniteMetricSpace,
                                 gaussian_cdf)
from metric_atlas.transport import discrepancy_finite, prokhorov, wasserstein_finite
from metric_atlas.walks import (MAX_MODULUS, CdgWalk, binomial_normal_demo,
                                cdg_discrepancy, cdg_trace, crossing_time,
                                dudley_instance, product_walk_crossing_times,
                                product_walk_distances, product_walk_trace,
                                standardized_binomial)

from conftest import plain_bisection


# Decreasing curves with a threshold and a bracket end, for `crossing_time`
CURVES = [
    (lambda t: math.exp(-t), 0.25, 10.0),
    (lambda t: 1.0 / (1.0 + t), 1e-3, 1e4),
    (lambda t: math.exp(-t * t), 1e-300, 30.0),
    (lambda t: 1.0 if t < 1.5 else 0.0, 0.5, 3.0),
    (lambda t: 1.0 if t < 1e-200 else 0.0, 0.5, 1e300),
    (lambda t: 0.1, 0.25, 10.0),
    (lambda t: 1.0, 0.25, 10.0),
    (lambda t: 1.0, 0.25, 0.0),
    (lambda t: math.exp(-t), 0.25, 1.0),
    (lambda t: math.exp(-t), 0.25, 5e-324),
    # two steep ones, on which bisection takes 69 and 55 probes
    (lambda t: (1.0 + t) ** -50, 1e-3, 1e4),
    (lambda t: 1e300 * math.exp(-700.0 * t), 0.25, 2.0),
]
CURVE_IDS = ["exp", "reciprocal", "gaussian-tail", "step", "step-near-0",
             "constant-below", "constant-above", "t_hi-zero", "above-at-t_hi",
             "t_hi-subnormal", "power-50", "steep-exp"]
GRID_NS = [1, 2, 5, 10, 20, 40, 64]


def t_chi2(n, g, level):
    """The time at which the product walk's chi-squared falls to `level`."""
    log_ratio = math.log(math.expm1(math.log1p(level) / n)) - math.log(g - 1.0)
    return max(0.0, -0.5 * n * log_ratio)


def crossing_grid(n):
    """The product walk's crossings at n coordinates, 10 per group size g:
    (g, threshold, key, the full distance curve, its chi-squared bracket
    end)."""
    for g in sorted({2, 3, 2 ** n}):
        for thr in (1e-100, 1e-3, 0.01, 0.25, 0.5):
            for key, level in (("tv", 4.0 * thr * thr), ("entropy", thr)):
                yield (g, thr, key, lambda t, g=g, key=key: product_walk_distances(n, g, t)[key],
                       t_chi2(n, g, level))


def exact_cdg_discs(p):
    """The walk's exact disc at steps k = 1, 2, ..., from its law times 3^k:
    the number of noise paths from 0 to each point."""
    counts = np.zeros(p, dtype=object)
    counts[0] = 1
    half = (p + 1) // 2
    for k in itertools.count(1):
        g = np.empty_like(counts)
        g[0::2], g[1::2] = counts[:half], counts[half:]
        counts = g + np.roll(g, 1) + np.roll(g, -1)
        z = np.cumsum(p * counts[:-1] - 3 ** k)
        yield Fraction(int(max(z.max(), 0) - min(z.min(), 0)), p * 3 ** k)


def full_vector_read(walk):
    """tv and disc read from one whole half-length deviation vector and its
    prefix sum, as `CdgWalk.distances` read them before it took blocks."""
    dev = walk.half - 1.0 / walk.p
    z = np.cumsum(dev)
    inner = z[1:-1]
    in_lo, in_hi = inner.min(initial=math.inf), inner.max(initial=-math.inf)
    dev0 = dev[0]
    disc = (max(0.0, z[0], z[-1], in_hi, dev0 - in_lo)
            - min(0.0, z[0], z[-1], in_lo, dev0 - in_hi))
    np.abs(dev, out=dev)
    return float(0.5 * dev[0] + dev[1:].sum()), float(disc)


HUGE = 10 ** 5000  # past str()'s 4,300-digit limit


class TestCdgWalk:
    @pytest.mark.parametrize("p", [5.0, "7", None, 7.5, True])
    def test_rejects_non_integer_modulus(self, p):
        with pytest.raises(ValueError, match="^p: must be an integer"):
            CdgWalk(p)

    @pytest.mark.parametrize("call, field", [
        (lambda: CdgWalk(HUGE + 1), "p"),
        (lambda: CdgWalk(-HUGE), "p"),
        (lambda: CdgWalk.mersenne(HUGE), "t"),
        (lambda: cdg_trace(7, -HUGE), "steps"),
        (lambda: standardized_binomial(HUGE), "n"),
        (lambda: product_walk_distances(HUGE, 2, 1.0), "n"),
        (lambda: product_walk_distances(3, -HUGE, 1.0), "g"),
        (lambda: product_walk_crossing_times(HUGE, 2), "n"),
        (lambda: certification_campaign(-HUGE), "trials"),
        (lambda: random_instance(-HUGE, 0), "seed"),
        (lambda: random_instance(1, 0, (1, HUGE)), "size_range"),
        (lambda: FiniteMetricSpace.cycle(-HUGE), "space.n"),
        (lambda: FiniteMetricSpace.cycle(4).ball(HUGE, 1.0), "center"),
        (lambda: DiscreteDistribution.point_mass(FiniteMetricSpace.cycle(4), -HUGE), "i"),
    ], ids=["walk-p", "walk-negative-p", "mersenne-t", "trace-steps", "binomial-n",
            "params-n", "params-g", "crossing-n", "campaign-trials", "instance-seed",
            "instance-size_range", "cycle-n", "ball-center", "point_mass-i"])
    def test_huge_integer_refusals_name_the_field(self, call, field):
        with pytest.raises(ValueError, match=f"^{field}: .* integer of 16610 bits$"):
            call()

    @pytest.mark.parametrize("t, got", [(True, "must be an integer, got True"),
                                        (2.5, "must be an integer, got 2.5"),
                                        ("5", "must be an integer, got '5'"),
                                        (1, "must be in 2..26, got 1"),
                                        (27, "must be in 2..26, got 27"),
                                        (20000, "must be in 2..26, got 20000")])
    def test_mersenne_checks_t_by_name(self, t, got):
        with pytest.raises(ValueError, match=f"^t: {got}$"):
            CdgWalk.mersenne(t)

    def test_mersenne_moduli(self):
        assert [CdgWalk.mersenne(t).p for t in (2, 5, np.int64(10))] == [3, 31, 1023]

    @pytest.mark.parametrize("steps", [0, -2])
    def test_trace_rejects_bad_steps_before_allocating(self, monkeypatch, steps):
        def no_walk(p):
            raise AssertionError("CdgWalk built before the steps check")

        monkeypatch.setattr(walks, "CdgWalk", no_walk)
        with pytest.raises(ValueError, match="^steps: must be >= 1"):
            cdg_trace(7, steps)

    def test_one_step_from_origin(self):
        walk = CdgWalk(5).step()
        expected = np.array([1, 1, 0, 0, 1]) / 3.0
        assert np.allclose(walk.dist, expected, atol=1e-15)

    def test_two_steps_mass_preserved(self):
        walk = CdgWalk(5).step().step()
        assert abs(math.fsum(walk.dist.tolist()) - 1.0) < 1e-15

    def test_matches_path_enumeration(self):
        # p = 63 = 2^6 - 1 with k = 9: past the step where the support
        # covers the cycle, the regime acceptance 08 reads.
        for p, k in ((11, 5), (63, 9)):
            hist = np.zeros(p)
            for eps in itertools.product((-1, 0, 1), repeat=k):
                x = 0
                for e in eps:
                    x = (2 * x + e) % p
                hist[x] += 1.0
            hist /= 3.0 ** k
            walk = CdgWalk(p)
            for _ in range(k):
                walk.step()
            assert np.max(np.abs(walk.dist - hist)) < 1e-14, (p, k)

    def test_uniform_is_stationary(self):
        walk = CdgWalk(7)
        walk.half = np.full(4, 1 / 7)
        walk.step()
        assert np.allclose(walk.dist, 1 / 7, atol=1e-15)

    @pytest.mark.parametrize("p", [5, 21, 1023, 1025, 2187, 4095])
    def test_step_matches_index_map(self, p):
        # Reference: the gather through ((y - s) * 2^-1) mod p, s in {0, 1, -1},
        # summed as (left + right) + centre.
        inv_two = pow(2, -1, p)
        y = np.arange(p)
        idx = [((y - shift) * inv_two) % p for shift in (0, 1, -1)]
        walk = CdgWalk(p)
        ref = walk.dist
        for _ in range(3 * math.ceil(math.log2(p))):
            ref = ((ref[idx[1]] + ref[idx[2]]) + ref[idx[0]]) / 3.0
            walk.step()
            assert np.array_equal(walk.dist, ref), (p, walk.step_count)

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            CdgWalk(8)

    def test_modulus_above_memory_cap_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^p: "):
                CdgWalk(MAX_MODULUS + 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_initial_distances(self):
        for p in (5, 101):
            d = CdgWalk(p).distances()
            assert abs(d["tv"] - (1 - 1 / p)) < 1e-12
            assert abs(d["disc"] - (1 - 1 / p)) < 1e-12

    def test_uniform_distances_vanish(self):
        walk = CdgWalk(9)
        walk.half = np.full(5, 1 / 9)
        d = walk.distances()
        assert d["tv"] < 1e-14 and d["disc"] < 1e-14

    @pytest.mark.parametrize("p", [3, 5, 101, 1025, 2187, 4099, 2 ** 16 - 1, 2 ** 16 + 1])
    def test_step_matches_rolled_form_bit_for_bit(self, p):
        # Reference: the full-vector step, the shuffle, then
        # (roll(g, 1) + roll(g, -1)) + g. It is exactly symmetric, and its
        # half is the walk's.
        half = (p + 1) // 2
        walk = CdgWalk(p)
        ref = walk.dist
        for _ in range(2 * math.ceil(math.log2(p))):
            g = np.empty_like(ref)
            g[0::2], g[1::2] = ref[:half], ref[half:]
            ref = np.roll(g, 1) + np.roll(g, -1)
            ref += g
            ref /= 3.0
            walk.step()
            assert np.array_equal(ref[1:], ref[:0:-1]), (p, walk.step_count)
            assert np.array_equal(walk.half, ref[:half]), (p, walk.step_count)
            assert np.array_equal(walk.dist, ref), (p, walk.step_count)

    @pytest.mark.parametrize("p", [3, 5, 101, 4099, 2 ** 16 - 1])
    def test_distances_match_the_standalone_kernels(self, p):
        walk = CdgWalk(p)
        exact_discs = exact_cdg_discs(p)
        for k in range(1, 2 * math.ceil(math.log2(p)) + 1):
            walk.step()
            d = walk.distances()
            assert abs(d["disc"] - cdg_discrepancy(walk.dist)) <= 1e-13, (p, k)
            tv = tv_kernel(walk.dist, np.full(p, 1.0 / p))
            assert abs(d["tv"] - tv) <= 1e-14, (p, k)
            if p <= 4099:
                assert abs(Fraction(d["disc"]) - next(exact_discs)) <= 4e-15, (p, k)

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    @pytest.mark.parametrize("p", [5, 101, 1025, 4099])
    def test_distances_are_the_same_at_every_block_size(self, monkeypatch, p, block):
        walk = CdgWalk(p)
        exact_discs = exact_cdg_discs(p)
        for k in range(1, 2 * math.ceil(math.log2(p)) + 1):
            walk.step()
            monkeypatch.setattr(walks, "_BLOCK", p)  # one block
            whole = walk.distances()
            monkeypatch.setattr(walks, "_BLOCK", block)
            d = walk.distances()
            assert d["disc"].hex() == whole["disc"].hex(), (p, block, k)
            assert abs(Fraction(d["disc"]) - next(exact_discs)) <= 4e-15, (p, block, k)
            assert abs(d["tv"] - whole["tv"]) <= 1e-15 * whole["tv"], (p, block, k)

    @pytest.mark.parametrize("p", [2 ** 17 - 1, 2 ** 17 + 1],
                             ids=["two-full-blocks", "last-block-of-one"])
    def test_distances_across_real_block_boundaries(self, p):
        assert (p + 1) // 2 - 2 * walks._BLOCK in (0, 1)
        walk = CdgWalk(p)
        for k in range(1, 2 * math.ceil(math.log2(p)) + 1):
            walk.step()
            d = walk.distances()
            assert abs(d["disc"] - cdg_discrepancy(walk.dist)) <= 1e-13, (p, k)
            tv = tv_kernel(walk.dist, np.full(p, 1.0 / p))
            assert abs(d["tv"] - tv) <= 1e-14, (p, k)

    @pytest.mark.parametrize("t", [16, 20])
    def test_blocked_read_pins_the_full_vector_disc(self, t):
        walk = CdgWalk.mersenne(t)
        for k in range(1, 41):
            walk.step()
            d = walk.distances()
            tv, disc = full_vector_read(walk)
            assert d["disc"].hex() == disc.hex(), (t, k)
            assert abs(d["tv"] - tv) <= 1e-15 * tv, (t, k)

    def test_first_step_disc_is_exact_at_t20(self):
        # The law is 1/3 on each of p - 1, 0, 1, the ball of radius 1 about 0:
        # disc = 1 - 3/p.
        p = 2 ** 20 - 1
        disc = CdgWalk(p).step().distances()["disc"]
        assert abs(disc - (1 - 3 / p)) <= 2 * np.spacing(1 - 3 / p)

    def test_step_allocates_a_half_and_distances_a_few_blocks(self):
        # The step's new half law is 0.5 * 8p bytes; the read holds a few
        # blocks of _BLOCK float64, 0.75 MB measured at p = 2^20 - 1.
        for call, p, cap in (("step", 2 ** 16 - 1, lambda p: 0.51 * 8 * p),
                             ("distances", 2 ** 20 - 1, lambda p: 4 * 8 * walks._BLOCK)):
            walk = CdgWalk(p)
            walk.step()
            tracemalloc.start()
            try:
                getattr(walk, call)()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= cap(p), (call, peak / (8 * p))

    @pytest.mark.parametrize("p", [2 ** 16 - 1, 65539, 2 ** 20 - 1])
    def test_law_matches_fourier_oracle(self, p):
        k = 30
        walk = CdgWalk(p)
        for _ in range(k):
            walk.step()
        err = np.abs(np.fft.fft(walk.dist) - cdg_fourier_transform(p, k))
        assert err.max() <= 1e-14, (p, err.max())


class TestCdgDiscrepancy:
    @pytest.mark.parametrize("dist", [np.full(4, 0.25), np.full((3, 3), 1 / 9),
                                      np.array([1.0]), np.zeros(0)],
                             ids=["even", "2-d", "one-entry", "empty"])
    def test_rejects_a_vector_that_is_no_odd_cycle(self, dist):
        with pytest.raises(ValueError, match="^dist: "):
            cdg_discrepancy(dist)

    def test_point_mass(self):
        v = np.zeros(5)
        v[0] = 1.0
        assert abs(cdg_discrepancy(v) - 0.8) < 1e-15
        assert abs(cdg_disc_window_oracle(v) - 0.8) < 1e-15

    def test_matches_window_oracle_on_random_vectors(self, rng):
        for p in (5, 101, 1023):
            for _ in range(15):
                v = rng.dirichlet(np.ones(p))
                assert abs(cdg_discrepancy(v) - cdg_disc_window_oracle(v)) < 1e-11

    @pytest.mark.parametrize("p", [1025, 3001, 4095])
    def test_matches_window_oracle_on_hard_vectors(self, rng, p):
        point = np.zeros(p)
        point[p // 2] = 1.0
        arc = np.zeros(p)  # zero mass off one arc
        arc[3:p // 3 * 2] = rng.random(p // 3 * 2 - 3)
        holes = rng.dirichlet(np.ones(p)) * (rng.random(p) < 0.5)
        vectors = [point, arc / arc.sum(), holes / holes.sum()]
        vectors += [rng.dirichlet(np.full(p, 0.05)) for _ in range(3)]
        walk, k = CdgWalk(p), math.ceil(math.log2(p))
        for step in range(1, 2 * k + 1):
            walk.step()
            if step in (1, 2, k, 2 * k):
                vectors.append(walk.dist)
        for v in vectors:
            assert abs(cdg_discrepancy(v) - cdg_disc_window_oracle(v)) < 1e-11

    def test_matches_ball_enumeration_on_cycle_space(self, rng):
        from metric_atlas.spaces import DiscreteDistribution, FiniteMetricSpace
        for p in (9, 21, 63):
            s = FiniteMetricSpace.cycle(p)
            unif = DiscreteDistribution.uniform(s)
            for _ in range(10):
                v = rng.dirichlet(np.ones(p))
                mu = DiscreteDistribution(s, v)
                assert abs(cdg_discrepancy(v) - discrepancy_finite(mu, unif)) < 1e-12

    def test_tv_is_monotone_and_disc_eventually_decreasing(self):
        rows = cdg_trace(101, 70)
        tvs = [r["tv"] for r in rows]
        discs = [r["disc"] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))
        peak = int(np.argmax(discs))
        tail = discs[peak:]
        assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))
        assert discs[-1] < 0.01

    def test_walk_snapshots_respect_disc_le_tv(self):
        for row in cdg_trace(101, 50):
            ctx = MetricContext(f"cdg-step{row['step']}", "finite",
                                {"tv": row["tv"], "disc": row["disc"]})
            assert evaluate_edges(ctx).passed

    def test_small_walk_snapshots_pass_full_certification(self):
        from metric_atlas.bounds import certify
        from metric_atlas.spaces import DiscreteDistribution, FiniteMetricSpace
        p = 21
        space = FiniteMetricSpace.cycle(p)
        unif = DiscreteDistribution.uniform(space)
        walk = CdgWalk(p)
        for step in range(1, 13):
            walk.step()
            snapshot = DiscreteDistribution(space, walk.dist)
            assert certify(snapshot, unif, instance_id=f"cdg21-{step}").passed


class TestProductWalk:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="^n: "):
            product_walk_distances(0, 4, 1.0)
        with pytest.raises(ValueError, match="^g: "):
            product_walk_distances(3, 1, 1.0)
        for t in (-0.5, -math.inf, math.nan, True, "1"):
            with pytest.raises(ValueError, match="^t: "):
                product_walk_distances(3, 4, t)

    def test_infinite_time_is_the_stationary_limit(self):
        d = product_walk_distances(3, 8, math.inf)
        assert d == dict.fromkeys(("tv", "entropy", "chi2", "hellinger", "separation"), 0.0)

    @pytest.mark.parametrize("call, field", [
        (lambda: product_walk_distances(3, 4.5, 1.0), "g"),
        (lambda: product_walk_distances(2.5, 4, 1.0), "n"),
        (lambda: product_walk_distances(3, "4", 1.0), "g"),
        (lambda: product_walk_distances(3.0, 4, 1.0), "n"),
        (lambda: product_walk_crossing_times(2.5, 4), "n"),
        (lambda: product_walk_crossing_times(3, 4.5), "g"),
        (lambda: standardized_binomial(10.5), "n"),
        (lambda: standardized_binomial(16.0), "n"),
        (lambda: standardized_binomial(True), "n"),
        (lambda: product_walk_distances(True, 4, 1.0), "n"),
        (lambda: cdg_trace(7, True), "steps"),
    ], ids=["params-g", "params-n", "params-g-str", "params-n-integral-float",
            "crossing-n", "crossing-g", "binomial", "binomial-integral-float",
            "binomial-bool", "params-n-bool", "trace-steps-bool"])
    def test_rejects_non_integer_sizes(self, call, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            call()

    def test_numpy_integer_sizes_accepted(self):
        d = product_walk_distances(np.int64(3), np.int64(4), 1.0)
        assert d == product_walk_distances(3, 4, 1.0)
        assert (product_walk_crossing_times(np.int32(5), np.int64(2))
                == product_walk_crossing_times(5, 2))
        b = standardized_binomial(np.int64(16))
        assert np.array_equal(b.weights, standardized_binomial(16).weights)

    def test_time_zero_closed_forms(self):
        for n, g in [(3, 8), (6, 64), (40, 2 ** 40)]:
            d = product_walk_distances(n, g, 0.0)
            assert abs(d["entropy"] - n * math.log(g)) < 1e-9 * n * math.log(g)
            assert d["separation"] == 1.0
            expected_tv = 1.0 - float(g) ** -n if n * math.log(g) < 700 else 1.0
            assert abs(d["tv"] - expected_tv) < 1e-12
            if n * math.log(g) < 700:
                expected_chi2 = float(g) ** n - 1.0
                assert abs(d["chi2"] - expected_chi2) < 1e-9 * expected_chi2
            else:
                assert d["chi2"] == math.inf

    @pytest.mark.parametrize("n", [1, 10**4])
    def test_entropy_at_time_zero_is_finite_up_to_the_largest_g(self, n):
        lo, hi = 2, 2 ** 1024  # the largest accepted g lies in [lo, hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                walks._check_sizes(n, mid)  # the distances take O(n) per probe
                lo = mid
            except ValueError:
                hi = mid
        with pytest.raises(ValueError, match="^g: "):
            product_walk_distances(n, lo + 1, 0.0)
        entropy = product_walk_distances(n, lo, 0.0)["entropy"]
        assert abs(entropy - n * math.log(lo)) <= 1e-12 * n * math.log(lo)

    def test_long_time_everything_vanishes(self):
        d = product_walk_distances(8, 256, 1e5)
        for v in d.values():
            assert 0.0 <= v < 1e-8

    def test_matches_direct_product_space_evaluation(self):
        for n, g in [(2, 3), (3, 4), (4, 16)]:
            for t in (0.0, 0.3, 1.0, 4.0, 20.0):
                closed = product_walk_distances(n, g, t)
                direct = product_walk_direct(n, g, t)
                for key, want in direct.items():
                    got = closed[key]
                    if math.isinf(want) or math.isinf(got):
                        assert math.isinf(want) == math.isinf(got)
                    else:
                        assert abs(got - want) <= 1e-10, (n, g, t, key)

    def test_distances_decrease_in_time(self):
        series = [product_walk_distances(10, 2 ** 10, t) for t in (1.0, 5.0, 25.0, 125.0)]
        for key in ("tv", "entropy", "hellinger", "separation"):
            vals = [s[key] for s in series]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_trace_rows_equal_the_distances_at_each_time(self, monkeypatch):
        # one row per time, as product_walk_distances reads it, with the TV
        # sum's weights built once per call: per trace rather than per row,
        # and per crossing search rather than per probe
        times = [0.0] + np.geomspace(1.0, 2e4, 19).tolist()
        builds, build = [], walks._binomial_pmf
        monkeypatch.setattr(walks, "_binomial_pmf",
                            lambda *args: builds.append(args) or build(*args))
        want = [{"time": t, **product_walk_distances(1000, 3, t)} for t in times]
        assert builds == [(1000, 0.5, 0, 1000)] * len(times)
        assert product_walk_trace(1000, 3, times) == want
        assert product_walk_crossing_times(1000, 3)
        assert builds == [(1000, 0.5, 0, 1000)] * (len(times) + 2)

    def test_trace_reads_each_time_as_a_real_number(self):
        for times in ([0.0, "a"], [True], [None]):
            with pytest.raises(ValueError, match="^times: "):
                product_walk_trace(3, 4, times)
        rows = product_walk_trace(3, 4, (t for t in (np.float64(0.5), 2)))
        assert rows == [{"time": 0.5, **product_walk_distances(3, 4, 0.5)},
                        {"time": 2.0, **product_walk_distances(3, 4, 2.0)}]

    @pytest.mark.parametrize("call", [
        lambda n: product_walk_distances(n, 4, 1.0),
        lambda n: product_walk_trace(n, 4, [1.0]),
        lambda n: product_walk_crossing_times(n, 4),
    ], ids=["distances", "trace", "crossing"])
    def test_n_past_a_million_refused_before_the_tv_weights(self, monkeypatch, call):
        # the TV sum's n + 1 weights would be built and read at every time
        walks._check_sizes(10 ** 6, 4)
        monkeypatch.setattr(walks, "_binomial_pmf",
                            lambda *args: pytest.fail("TV weights built"))
        with pytest.raises(ValueError, match="^n: "):
            call(10 ** 6 + 1)

    def test_crossing_time_ordering(self):
        for n in (10, 20):
            ct = product_walk_crossing_times(n, 2 ** n)
            assert ct["tv"] <= ct["entropy"] <= ct["chi2"]
            assert 0.5 <= ct["chi2"] / (n * n * math.log(2)) <= 2.0

    def test_snapshots_respect_density_edges(self):
        n, g = 8, 2 ** 8
        for t in (1.0, 5.0, 20.0, 60.0):
            vals = product_walk_distances(n, g, t)
            ctx = MetricContext(f"product-t{t}", "finite", dict(vals),
                                nu_dominates_mu=(t > 0))
            assert evaluate_edges(ctx).passed

    def test_entropy_against_a_700_digit_reference(self):
        from decimal import Decimal, localcontext

        def entropy_ref(n, g, t):
            with localcontext() as ctx:
                ctx.prec = 700
                u = (-Decimal(t) / n).exp()
                q0, q1 = u + (1 - u) / g, (1 - u) / g
                kl = q0 * (g * q0).ln()
                if q1 > 0:
                    kl += (g - 1) * q1 * (g * q1).ln()
                return n * kl

        for n in (1, 2, 5, 10, 40, 64):
            for g in sorted({2, 3, 2 ** n}):
                # t/n <= 300 keeps e^(-2t/n), hence the entropy, a normal float
                for t in (0.0, 0.01, 1.0, 10.0, 100.0, 200.0, 300.0, 1000.0, 3000.0):
                    if t / n > 300:
                        continue
                    got = product_walk_distances(n, g, t)["entropy"]
                    want = entropy_ref(n, g, t)
                    assert abs(Decimal(got) - want) <= Decimal(1e-12) * want, (n, g, t)

    def test_tv_against_a_700_digit_reference(self):
        from decimal import Decimal, localcontext

        def tv_ref(n, g, t):
            # at the float u the code reads; (1 - u)^0 is 1, also at t = 0
            with localcontext() as ctx:
                ctx.prec = 700
                u = Decimal(math.exp(-t / n))
                gq0, gq1 = g * u + (1 - u), 1 - u
                total = sum(math.comb(n, k) * (Decimal(g) - 1) ** (n - k)
                            * abs(gq0 ** k * (gq1 ** (n - k) if n - k else 1) - 1)
                            for k in range(n + 1))
                return total / (2 * Decimal(g) ** n)

        for n in (1, 2, 5, 10, 40, 64, 200):
            for g in sorted({2, 3, 2 ** n}):
                for t in (0.0, 0.01, 1.0, 10.0, 100.0, 200.0, 300.0, 1000.0, 3000.0):
                    if t / n > 300:
                        continue
                    got = product_walk_distances(n, g, t)["tv"]
                    want = tv_ref(n, g, t)
                    assert abs(Decimal(got) - want) <= Decimal(1e-14) * want, (n, g, t)
        # 1 - 4^-3 exactly, where log-gamma counts read 0.9843750000000009
        assert product_walk_distances(3, 4, 0.0)["tv"] == 1.0 - 4.0 ** -3

    def test_tv_masses_against_exact_fractions(self):
        # u_k = C(n, k) (g - 1)^(n - k) / g^n, the Binomial(n, 1/g) pmf; the
        # log-gamma counts were up to 2.8e-13 off at n = 200, g = 3
        n, g = 200, 3
        u = walks._binomial_pmf(n, 1.0 / (g - 1.0), 0, n)
        exact = np.array([float(Fraction(math.comb(n, k) * (g - 1) ** (n - k), g ** n))
                          for k in range(n + 1)])
        assert np.all(np.abs(u - exact) <= 2e-15 * exact)

    def test_entropy_crossing_at_1e_100_lies_just_below_chi2s(self):
        # entropy ~ chi2/2 this far out, so it crosses 1e-100 where chi2 = 2e-100,
        # (n/2) log 2 before chi2 crosses 1e-100
        ct = product_walk_crossing_times(5, 2, 1e-100)
        assert 0.99 * ct["chi2"] <= ct["entropy"] < ct["chi2"]

    def test_crossing_time_helper(self):
        assert crossing_time(lambda t: math.exp(-t), 0.25, 10.0) == pytest.approx(
            math.log(4), abs=1e-6)
        assert crossing_time(lambda t: 0.1, 0.25, 10.0) == 0.0

    def test_crossing_time_near_the_float_max(self):
        # lo + hi overflows here; the midpoint lo + (hi - lo) / 2 does not
        assert crossing_time(lambda t: 1.0 if t < 1.5e308 else 0.0, 0.5,
                             1.7e308) == 1.5e308

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 40, 64])
    def test_crossings_match_sweep_then_bisect(self, n):
        # reference: the geometric sweep from t = 1e-3 by factors of 1.01,
        # then 80 bisection steps, probing each distance at every step
        def sweep_crossing(params_at, threshold):
            if params_at(0.0) <= threshold:
                return 0.0
            t = 1e-3
            while params_at(t) > threshold:
                t *= 1.01
            lo, hi = t / 1.01, t
            for _ in range(80):
                mid = (lo + hi) / 2.0
                if params_at(mid) > threshold:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2.0

        for g in sorted({2, 3, 2 ** n}):
            for thr in (1e-3, 0.01, 0.25, 0.5):
                got = product_walk_crossing_times(n, g, thr)
                for key in ("tv", "entropy", "chi2"):
                    want = sweep_crossing(
                        lambda t: product_walk_distances(n, g, t)[key],
                        thr)
                    assert got[key] == pytest.approx(want, rel=1e-12, abs=0.0), (g, thr, key)

    @pytest.mark.parametrize("n", GRID_NS)
    def test_crossings_equal_bisection_of_the_full_distances(self, n):
        # reference: crossing_time over product_walk_distances(...)[key], below
        # the same chi-squared brackets; equal as floats, not approximately
        for g, thr, key, curve, t_hi in crossing_grid(n):
            got = product_walk_crossing_times(n, g, thr)
            if key == "entropy":  # its bracket end is the chi-squared crossing
                assert got["chi2"] == t_hi
            assert got[key] == crossing_time(curve, thr, t_hi), (g, thr, key)

    @pytest.mark.parametrize("n", GRID_NS)
    def test_crossings_equal_plain_bisection_probe_for_probe(self, n, walk_probes):
        # reference: plain bisection of the same curve below the same end
        for g, thr, key, curve, t_hi in crossing_grid(n):
            probed = []
            want = plain_bisection(lambda t: curve(t) <= thr, 0.0, t_hi, probed)
            got = crossing_time(curve, thr, t_hi)
            assert got == want, (g, thr, key)
            assert walk_probes.probes[-1] == len(probed), (g, thr, key)
            # the first float at or below: the end below it was probed above
            assert got == 0.0 or curve(math.nextafter(got, 0.0)) > thr, (g, thr, key)
            assert got == t_hi or curve(got) <= thr, (g, thr, key)

    @pytest.mark.parametrize("curve, threshold, t_hi", CURVES, ids=CURVE_IDS)
    def test_crossing_time_probes_as_plain_bisection(
            self, curve, threshold, t_hi, walk_probes):
        probed = []
        want = plain_bisection(lambda t: curve(t) <= threshold, 0.0, t_hi, probed)
        assert crossing_time(curve, threshold, t_hi) == want
        assert walk_probes.probes == [len(probed)]

    @pytest.mark.parametrize("curve, threshold, t_hi", CURVES, ids=CURVE_IDS)
    def test_crossing_time_is_the_first_float_at_or_below(self, curve, threshold, t_hi):
        # on step-near-0 this reads exactly 1e-200, after about 1,700
        # halvings of a bracket of 1e300
        r = crossing_time(curve, threshold, t_hi)
        if curve(t_hi) <= threshold:
            assert 0.0 <= r <= t_hi and curve(r) <= threshold
            assert r == 0.0 or curve(math.nextafter(r, 0.0)) > threshold
        else:
            assert r == t_hi

    @pytest.mark.parametrize("t_hi", [-1.0, -5e-324, math.nan, math.inf,
                                      pytest.param(HUGE, id="huge"),
                                      pytest.param("1.0", id="str")])
    def test_crossing_time_refuses_a_bad_t_hi(self, t_hi):
        # a t_hi of -1 was returned as the crossing, NaN as NaN, and a huge
        # int was bisected
        with pytest.raises(ValueError, match="^t_hi: "):
            crossing_time(lambda t: math.exp(-t), 0.5, t_hi)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 40, 64])
    def test_distance_at_a_crossing_is_at_or_below_the_threshold(self, n):
        for g in sorted({2, 3, 2 ** n}):
            for thr in (1e-100, 1e-3, 0.01, 0.25, 0.5):
                got = product_walk_crossing_times(n, g, thr)
                for key in ("tv", "entropy"):
                    value = product_walk_distances(n, g, got[key])[key]
                    if (n, g, thr, key) == (1, 2, 1e-3, "tv"):
                        # TV = sqrt(chi2)/2 with equality at n = 1, g = 2, and
                        # TV at the bracket's end rounds one ulp above 1e-3:
                        # nothing below the end holds, so the end is returned
                        ratio = math.expm1(math.log1p(4.0 * thr * thr)) / (g - 1.0)
                        assert got[key] == -0.5 * math.log(ratio)
                        assert value == math.nextafter(thr, 1.0)
                        continue
                    assert value <= thr, (g, thr, key, value)

    def test_crossing_probes_read_one_distance_each(self, walk_probes):
        n, g, thr = 40, 2 ** 40, 0.25
        walks.product_walk_crossing_times(n, g, thr)
        assert walk_probes.distances == 0
        # one search per distance, each probing as plain bisection of its
        # own curve below the same chi-squared bracket end
        curves, want = walks._curves(n, g), []
        for key, level in (("tv", 4.0 * thr * thr), ("entropy", thr)):
            probed = []
            plain_bisection(lambda t: curves[key](t) <= thr, 0.0, t_chi2(n, g, level), probed)
            want.append(len(probed))
        assert walk_probes.probes == want

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf, -math.inf, 1e-160],
                             ids=["nan", "zero", "negative", "inf", "-inf", "square-underflows"])
    def test_crossing_times_reject_bad_threshold(self, bad):
        with pytest.raises(ValueError, match="threshold"):
            product_walk_crossing_times(5, 2, bad)

    @pytest.mark.parametrize("n, g, threshold", [(2, 10 ** 200, 1e-100),
                                                 (1, 2 ** 1000, 1e-154)],
                             ids=["n2-g10^200", "n1-g2^1000"])
    def test_chi2_time_where_its_ratio_underflows(self, n, g, threshold):
        # expm1(log1p(level) / n) / (g - 1) underflows to 0 at these levels,
        # so t_chi2 takes the ratio in logs
        got = product_walk_crossing_times(n, g, threshold)
        assert all(math.isfinite(t) for t in got.values())
        chi2 = walks._curves(n, g)["chi2"](got["chi2"])
        assert chi2 == pytest.approx(threshold, rel=1e-12, abs=0.0)

    def test_crossing_time_refuses_a_nan_threshold(self):
        # every probe would compare False with NaN, read as above, giving t_hi
        with pytest.raises(ValueError, match="^threshold: "):
            crossing_time(lambda t: 1.0 - t, math.nan, 2.0)

    @pytest.mark.parametrize("threshold", [HUGE, "0.5"], ids=["huge", "str"])
    def test_crossing_time_reads_the_threshold_as_a_real_number(self, threshold):
        # a huge int raised a bare OverflowError from math.isnan
        with pytest.raises(ValueError, match="^threshold: "):
            crossing_time(lambda t: 1.0 - t, threshold, 2.0)


class TestBinomialNormal:
    def test_atoms_sum_to_one(self):
        for n in (1, 16, 1000):
            b = standardized_binomial(n)
            assert abs(math.fsum(b.weights.tolist()) - 1.0) < 1e-12
            assert b.m == n + 1

    @pytest.mark.parametrize("n", [16, 1000, 10**4])
    def test_every_kept_atom_against_its_exact_mass(self, n):
        # reference: C(n, k) / 2^n correctly rounded; the log-gamma weights
        # were up to 1.4e-12 / 2.1e-11 off at n = 10^3 / 10^4
        b = standardized_binomial(n)
        k_lo = (n + 1 - b.m) // 2
        k = np.arange(k_lo, n - k_lo + 1)
        assert np.array_equal(b.positions, (2.0 * k - n) / math.sqrt(n))
        count, exact = math.comb(n, k_lo), []
        for i in k.tolist():
            exact.append(float(Fraction(count, 2 ** n)))
            count = count * (n - i) // (i + 1)
        exact = np.array(exact)
        assert np.all(np.abs(b.weights - exact) <= 1e-14 * exact)
        assert np.array_equal(b.weights, b.weights[::-1])  # w[k] == w[n - k]

    def test_n_past_a_billion_refused_before_the_atoms(self, monkeypatch):
        # n = 10^18 would ask np.arange for about 3.9e10 integers
        def no_arange(*args, **kwargs):
            raise AssertionError("np.arange called before the n check")

        monkeypatch.setattr(np, "arange", no_arange)
        with pytest.raises(ValueError, match="^n: "):
            standardized_binomial(10 ** 9 + 1)

    def test_end_atoms_dropped_from_1022(self):
        # 2^-n, the end atoms' mass, falls below the smallest normal float
        for n in (1, 16, 1000, 1021):
            assert standardized_binomial(n).m == n + 1
        b = standardized_binomial(1022)
        assert b.m == 1021
        assert b.positions[0] == (2.0 - 1022) / math.sqrt(1022)
        for n in (1075, 2000, 5000, 10**5):
            b = standardized_binomial(n)
            assert b.m < n + 1
            assert abs(math.fsum(b.weights.tolist()) - 1.0) <= MASS_TOL
            # a subnormal times a ratio above 1/2 rounds back to itself, so
            # unflushed tails would hold thousands of atoms of 5e-324
            assert b.weights.min() >= sys.float_info.min
        assert b.m == 11839
        assert binomial_normal_demo(2000)["disc"] < binomial_normal_demo(1000)["disc"]

    @pytest.mark.parametrize("n", [1075, 2000, 10**4, 10**5])
    def test_window_build_equals_the_full_range_build(self, n):
        # reference: the same recurrence over every k, then the w > 0 trim
        k = np.arange(n + 1)
        w = walks._binomial_pmf(n, 1.0, 0, n)
        keep = w > 0.0
        b = standardized_binomial(n)
        assert np.array_equal(b.weights, w[keep])
        assert np.array_equal(b.positions, (2.0 * k[keep] - n) / math.sqrt(n))
        # every atom outside |k - n/2| <= isqrt(355 n) + 2 is dropped, the
        # ones just outside included
        k_lo = max(0, n // 2 - math.isqrt(355 * n) - 2)
        assert not w[:k_lo].any() and not w[n - k_lo + 1:].any()
        assert (k_lo > 0) == (n >= 2000)

    def test_tv_is_exactly_one(self):
        for n in (16, 1000):
            assert binomial_normal_demo(n)["tv"] == 1.0

    def test_discrepancy_decreases_with_n(self):
        d4 = binomial_normal_demo(4)["disc"]
        d16 = binomial_normal_demo(16)["disc"]
        d1000 = binomial_normal_demo(1000)["disc"]
        assert d1000 < d16 < d4
        assert d1000 < 0.05

    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
    def test_rates_reach_the_closed_forms(self, n):
        # sqrt(n) X -> c_X for the standardized Binomial(n, 1/2) against the
        # normal; n * |sqrt(n) X - c_X| measured 0.0997 (K), 0.0702 (L) and
        # 0.1995 (D) at every n from 10^2 to 10^6
        phi0 = 1.0 / math.sqrt(2.0 * math.pi)
        out = binomial_normal_demo(n)
        for key, limit in (("kolmogorov", phi0), ("levy", phi0 / (1.0 + phi0)),
                           ("disc", 2.0 * phi0)):
            assert out[f"sqrt_n_{key}"] == math.sqrt(n) * out[key]
            assert abs(out[f"sqrt_n_{key}"] - limit) <= 0.25 / n

    def test_mixed_snapshot_certifies(self):
        for n in (16, 200):
            F = standardized_binomial(n)
            G = gaussian_cdf(0.0, 1.0, max(9.0, math.sqrt(n) + 2.0))
            rep = evaluate_edges(real_mixed_context(F, G, f"binom-{n}"))
            assert rep.passed
            by_id = {r.edge_id: r for r in rep.results}
            assert by_id["K<=(1+c)L"].status == "pass"
            assert by_id["D<=TV"].status == "pass"


class TestDudley:
    @pytest.mark.parametrize("n", [1, 1.5, -3])
    def test_rejects_n_below_two(self, n):
        with pytest.raises(ValueError, match="^n: "):
            dudley_instance(n)

    @pytest.mark.parametrize("n", [math.nan, math.inf, "3"])
    def test_rejects_a_non_finite_or_non_real_n(self, n):
        with pytest.raises(ValueError, match="^n: "):
            dudley_instance(n)

    def test_paper_values(self):
        for n in (2, 10):
            _, p_n, target = dudley_instance(n)
            w, _, _ = wasserstein_finite(p_n, target)
            assert abs(w - 1.0) < 1e-12
            assert abs(prokhorov(p_n, target) - 1.0 / n) < 1e-12

    def test_large_n_keeps_wasserstein_at_one(self):
        _, p_n, target = dudley_instance(10 ** 6)
        w, _, _ = wasserstein_finite(p_n, target)
        assert abs(w - 1.0) < 1e-12
