import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metric_atlas import spaces, walks
from metric_atlas.bounds import certification_campaign, random_instance
from metric_atlas.spaces import (MASS_TOL, Coupling, DiscreteDistribution,
                                 FiniteMetricSpace, RealAtomicDistribution,
                                 SmoothRealCdf, distribution_from_json,
                                 fsum_largest_first, gaussian_cdf,
                                 space_from_json)
from metric_atlas.transport import (ball_growth_at, discrepancy_real_mixed,
                                    interval_growth_at)
from metric_atlas.walks import (MAX_MODULUS, CdgWalk, cdg_trace, crossing_time,
                                dudley_instance, product_walk_crossing_times,
                                product_walk_distances, product_walk_trace,
                                standardized_binomial)


def _triangle_error_by_loop(d):
    """The triangle check as a loop over the middle point j: the message for
    the first violation, j first and then (i, k) in row-major order, or None."""
    for j in range(d.shape[0]):
        viol = d > d[:, [j]] + d[[j], :] + spaces.TRIANGLE_TOL * (1.0 + d)
        if viol.any():
            i, k = np.argwhere(viol)[0]
            return f"space.d: triangle inequality fails at ({i},{j},{k})"
    return None


def path3():
    return FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


class TestFiniteMetricSpace:
    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            FiniteMetricSpace([[0, 1], [2, 0]])

    def test_rejects_zero_offdiagonal(self):
        with pytest.raises(ValueError, match="positive"):
            FiniteMetricSpace([[0, 0], [0, 0]])

    def test_rejects_triangle_violation(self):
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetricSpace([[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    @pytest.mark.parametrize("d", [
        [[0.0, math.nan], [math.nan, 0.0]],
        [[math.nan, 1.0], [1.0, 0.0]],
        [[0.0, math.inf], [math.inf, 0.0]],
        [[0.0, 1.0], [1.0, math.inf]],
    ], ids=["off-diagonal-nan", "diagonal-nan", "off-diagonal-inf", "diagonal-inf"])
    def test_rejects_non_finite_entry_first(self, d):
        with pytest.raises(ValueError, match=r"^space\.d: non-finite entry$"):
            FiniteMetricSpace(d)

    @pytest.mark.parametrize("cells", [spaces._TRIANGLE_BLOCK_CELLS, 50],
                             ids=["default-blocks", "single-j-blocks"])
    def test_triangle_check_names_the_loops_first_violation(self, monkeypatch, cells):
        # with 50 cells, blocks hold 5, 3, 2 or 1 middle points for n = 3..11
        monkeypatch.setattr(spaces, "_TRIANGLE_BLOCK_CELLS", cells)
        rng = np.random.default_rng(1412)
        raised = 0
        for trial in range(2000):
            n = int(rng.integers(3, 12))
            w = rng.uniform(0.1, 2.0, size=(n, n))
            if trial % 2:  # ties: sums of tenths land on other entries
                w = np.round(w, 1)
            w = np.minimum(w, w.T)
            np.fill_diagonal(w, 0.0)
            want = _triangle_error_by_loop(w)
            if want is None:
                FiniteMetricSpace(w)
                continue
            with pytest.raises(ValueError) as err:
                FiniteMetricSpace(w)
            assert str(err.value) == want
            raised += 1
        assert raised >= 1500

    def test_diam_and_dmin(self):
        s = path3()
        assert s.diam == 2.0
        assert s.d_min == 1.0

    def test_diam_and_dmin_equal_a_scan_of_the_matrix(self):
        rng = np.random.default_rng(3)
        cases = [FiniteMetricSpace([[0.0]])]
        cases += [FiniteMetricSpace.cycle(n) for n in (3, 4, 17)]
        cases += [FiniteMetricSpace.euclidean(rng.normal(size=(n, 2))) for n in (2, 80)]
        for s in cases:
            off = s.d[~np.eye(s.n, dtype=bool)]
            assert s.distinct_distances.tolist() == sorted(set(off.tolist()))
            assert s.d_min == (off.min() if off.size else math.inf)
            assert s.diam == s.d.max()

    def test_sum_metric_above_triangle_check_limit(self):
        c = FiniteMetricSpace.cycle(23).d
        s = FiniteMetricSpace((c[:, None, :, None] + c[None, :, None, :]).reshape(529, 529))
        assert s.n == 529 > spaces.TRIANGLE_CHECK_LIMIT
        assert np.array_equal(s.d, s.d.T)
        assert np.all(np.diag(s.d) == 0.0)
        assert s.d[0 * 23 + 0, 11 * 23 + 12] == 11.0 + 11.0

    def test_matrix_is_frozen(self):
        s = path3()
        with pytest.raises(ValueError):
            s.d[0, 1] = 3.0

    def test_ball_on_path(self):
        # 3-point path, unit edges: radius-1 ball at the middle is everything
        assert path3().ball(1, 1.0) == {0, 1, 2}

    def test_ball_zero_radius(self):
        assert path3().ball(2, 0.0) == {2}

    def test_ball_on_cycle(self):
        c = FiniteMetricSpace.cycle(10)
        assert c.ball(0, 2.0) == {8, 9, 0, 1, 2}

    def test_fatten_examples(self):
        c = FiniteMetricSpace.cycle(10)
        assert c.fatten({0}, 0.0) == {0}
        assert c.fatten({0}, 1.0) == {9, 0, 1}
        assert c.fatten(set(range(10)), 3.0) == set(range(10))
        assert c.fatten(set(), 3.0) == frozenset()
        assert DiscreteDistribution.uniform(c).mass(set()) == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            path3().ball(0, -0.1)
        with pytest.raises(ValueError):
            path3().fatten({0}, -1.0)

    @pytest.mark.parametrize("value", [math.nan, -1.0, -math.inf],
                             ids=["nan", "negative", "-inf"])
    @pytest.mark.parametrize("read, field", [
        (lambda s, r: s.ball(0, r), "radius"),
        (lambda s, r: s.fatten({0}, r), "eps"),
    ], ids=["ball", "fatten"])
    def test_bad_radius_names_the_field(self, read, field, value):
        with pytest.raises(ValueError, match=f"^{field}: must be non-negative"):
            read(FiniteMetricSpace.cycle(5), value)

    @pytest.mark.parametrize("index", [-1, 5, 7, 1.0, True, None],
                             ids=["negative", "n", "above-n", "float", "bool", "none"])
    @pytest.mark.parametrize("read, field", [
        (lambda s, i: s.ball(i, 1.0), "center"),
        (lambda s, i: s.fatten({0, i}, 1.0), "points"),
        (lambda s, i: DiscreteDistribution.uniform(s).mass({0, i}), "points"),
        (lambda s, i: DiscreteDistribution.point_mass(s, i), "i"),
    ], ids=["ball", "fatten", "mass", "point_mass"])
    def test_point_index_outside_the_space_names_the_field(self, read, field, index):
        with pytest.raises(ValueError, match=f"^{field}: "):
            read(FiniteMetricSpace.cycle(5), index)

    def test_numpy_integer_indices_accepted(self):
        c = FiniteMetricSpace.cycle(5)
        last = np.int64(4)
        assert c.ball(last, 1.0) == c.fatten({last}, 1.0) == {3, 4, 0}
        assert abs(DiscreteDistribution.uniform(c).mass(np.arange(3)) - 0.6) < 1e-15
        assert DiscreteDistribution.point_mass(c, np.int32(4)).p.tolist() == [0, 0, 0, 0, 1]

    def test_radius_takes_zero_and_infinity(self):
        c = FiniteMetricSpace.cycle(5)
        assert c.ball(0, 0.0) == c.fatten({0}, 0.0) == {0}
        assert c.ball(0, math.inf) == c.fatten({0}, math.inf) == set(range(5))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), e1=st.floats(0, 3), bump=st.floats(0, 3))
    def test_fatten_monotone_in_eps(self, seed, e1, bump):
        rng = np.random.default_rng(seed)
        space = FiniteMetricSpace.euclidean(rng.normal(size=(6, 2)))
        base = set(int(i) for i in rng.integers(0, 6, size=2))
        small = space.fatten(base, e1)
        assert base <= small <= space.fatten(base, e1 + bump)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), r=st.floats(0, 2), eps=st.floats(0, 2))
    def test_fattened_ball_within_grown_ball(self, seed, r, eps):
        # the triangle inequality gives one inclusion in any finite metric;
        # the reverse can fail when no intermediate points exist
        rng = np.random.default_rng(seed)
        space = FiniteMetricSpace.euclidean(rng.normal(size=(7, 2)))
        assert space.fatten(space.ball(0, r), eps) <= space.ball(0, r + eps)

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([5, 9, 12]), r=st.integers(0, 4), eps=st.integers(0, 4))
    def test_fattened_ball_equals_grown_ball_on_cycles(self, n, r, eps):
        space = FiniteMetricSpace.cycle(n)
        assert space.fatten(space.ball(1, r), eps) == space.ball(1, r + eps)


class TestDistributions:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError, match="mass"):
            DiscreteDistribution(path3(), np.array([0.5, 0.5, 0.1]))

    def test_no_negative_mass(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(path3(), np.array([1.1, -0.1, 0.0]))

    def test_support(self):
        d = DiscreteDistribution(path3(), np.array([0.5, 0.0, 0.5]))
        assert d.support().tolist() == [0, 2]

    def test_mass_of_point_sets(self):
        d = DiscreteDistribution(path3(), np.array([0.5, 0.3, 0.2]))
        assert d.mass(set()) == 0.0
        assert abs(d.mass(d.space.ball(1, 1.0)) - 1.0) < 1e-15
        assert abs(d.mass({0, 2}) - 0.7) < 1e-15

    def test_mass_counts_a_repeated_point_once(self):
        d = DiscreteDistribution(path3(), np.array([0.5, 0.3, 0.2]))
        assert d.mass([2, 2, np.int64(2)]) == 0.2

    def test_atomic_positions_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            RealAtomicDistribution(np.array([0.0, 0.0]), np.array([0.5, 0.5]))

    def test_atomic_cdf(self):
        d = RealAtomicDistribution(np.array([0.0, 1.0]), np.array([0.25, 0.75]))
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(0.0) == 0.25
        assert d.cdf_left(1.0) == 0.25
        assert d.cdf(1.0) == 1.0

    def test_atomic_cdf_on_arrays_matches_pointwise(self):
        d = RealAtomicDistribution(np.array([-1.5, 0.0, 0.25, 2.0]),
                                   np.array([0.1, 0.4, 0.2, 0.3]))
        # below the first atom, on each atom, between atoms, above the last
        xs = np.array([-9.0, -1.5, -1.0, 0.0, 0.1, 0.25, 1.0, 2.0, 2.5])
        assert d.cdf(xs).tolist() == [float(d.cdf(float(x))) for x in xs]
        assert d.cdf_left(xs).tolist() == [float(d.cdf_left(float(x))) for x in xs]
        assert d.cdf(xs).tolist() == [0.0, 0.1, 0.1, 0.5, 0.5, 0.7, 0.7, 1.0, 1.0]
        assert d.cdf_left(xs).tolist() == [0.0, 0.0, 0.1, 0.1, 0.5, 0.5, 0.7, 0.7, 1.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_mass(self, bad):
        with pytest.raises(ValueError, match=r"distribution\.p: non-finite"):
            DiscreteDistribution(FiniteMetricSpace.cycle(4),
                                 np.array([bad, 0.5, 0.25, 0.25]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_atom_position(self, bad):
        with pytest.raises(ValueError, match=r"atoms\.positions: non-finite"):
            RealAtomicDistribution(np.array([0.0, bad]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_atom_weight(self, bad):
        with pytest.raises(ValueError, match=r"atoms\.weights: non-finite"):
            RealAtomicDistribution(np.array([0.0, 1.0]), np.array([bad, 1.0]))
        # the JSON path merges pairs first; it used to drop a NaN weight
        with pytest.raises(ValueError, match=r"atoms\.weights"):
            distribution_from_json({"atoms": [{"x": 0.0, "w": bad},
                                              {"x": 1.0, "w": 1.0}]})

    def test_atomic_mass_check_on_wide_range_weights(self):
        # weights from 0.5 down to 2^-1070 (a subnormal), summing to the
        # head's total plus under 2^-59
        tail = [2.0 ** -e for e in range(60, 1071, 10)]
        xs = np.arange(len(tail) + 2, dtype=float)
        with pytest.raises(ValueError, match=r"atoms: weights sum to"):
            RealAtomicDistribution(xs, np.array([0.5, 0.5 + 2 * MASS_TOL] + tail))
        RealAtomicDistribution(xs, np.array([0.5, 0.5 + MASS_TOL / 2] + tail))
        b = standardized_binomial(10**4)
        assert b.weights.min() < 1e-300
        RealAtomicDistribution(b.positions, b.weights)

    def test_from_pairs_merges_duplicates(self):
        d = RealAtomicDistribution.from_pairs([(1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
        assert d.positions.tolist() == [0.0, 1.0]
        assert d.weights.tolist() == [0.5, 0.5]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0.0),
                          st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                                    st.integers(-996, 1))),
                min_size=1, max_size=80))
def test_fsum_largest_first_is_fsum_bit_for_bit(values):
    # terms from about 1e-300 to 1, in the order drawn
    assert fsum_largest_first(np.array(values)) == math.fsum(values)


class TestSmoothRealCdf:
    def test_gaussian_factory(self):
        g = gaussian_cdf()
        assert abs(g(0.0) - 0.5) < 1e-15
        assert g(9.0) > 1 - 1e-12

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError, match="mass"):
            SmoothRealCdf(cdf=lambda x: 0.5 * (1 + math.erf(x / math.sqrt(2))),
                          density_bound=0.4, support=(-2.0, 2.0))

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            SmoothRealCdf(cdf=lambda x: 0.5 + 0.6 * math.sin(x),
                          density_bound=1.0, support=(-20.0, 20.0))

    @pytest.mark.parametrize("mean, sigma", [(0.0, 1.0), (0.3, 1.2), (-1.0, 0.7)])
    def test_cdf_many_equals_the_scalar_oracle_bit_for_bit(self, mean, sigma):
        g = gaussian_cdf(mean, sigma)
        default = SmoothRealCdf(g.cdf, g.density_bound, g.support, g.eval_tolerance)
        for xs in (standardized_binomial(1000).positions, np.linspace(-10.0, 10.0, 10**4)):
            want = [g.cdf(x).hex() for x in xs.tolist()]
            for reader in (g.cdf_many, default.cdf_many):
                got = reader(xs)
                assert got.dtype == float
                assert [v.hex() for v in got.tolist()] == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_rejects_bad_eval_tolerance(self, bad):
        with pytest.raises(ValueError, match="^eval_tolerance:"):
            SmoothRealCdf(cdf=lambda x: 0.5 * (1 + math.erf(x / math.sqrt(2))),
                          density_bound=0.4, support=(-9.0, 9.0), eval_tolerance=bad)


def _phi_cdf(x):
    return 0.5 * (1 + math.erf(x / math.sqrt(2)))


@pytest.mark.parametrize("field, build", [
    pytest.param("support", lambda: SmoothRealCdf(_phi_cdf, 0.4, (1.0, -1.0)),
                 id="empty-support"),
    pytest.param("support", lambda: SmoothRealCdf(_phi_cdf, 0.4, (-2.0, 2.0)),
                 id="support-misses-mass"),
    pytest.param("density_bound", lambda: SmoothRealCdf(_phi_cdf, 0.0, (-9.0, 9.0)),
                 id="zero-density-bound"),
    pytest.param("density_bound", lambda: SmoothRealCdf(_phi_cdf, math.inf, (-9.0, 9.0)),
                 id="infinite-density-bound"),
    pytest.param("cdf", lambda: SmoothRealCdf(lambda x: 0.5 + 0.6 * math.sin(x), 1.0,
                                              (-20.0, 20.0)),
                 id="non-monotone-cdf"),
    pytest.param("cdf", lambda: SmoothRealCdf(lambda x: 1.5 * _phi_cdf(x), 0.6, (-9.0, 9.0)),
                 id="cdf-above-one"),
    pytest.param("support", lambda: SmoothRealCdf(_phi_cdf, 0.4, (-math.inf, math.inf)),
                 id="infinite-support"),
    pytest.param("support", lambda: SmoothRealCdf(_phi_cdf, 0.4, (-9.0, math.nan)),
                 id="nan-support"),
    pytest.param("cdf", lambda: SmoothRealCdf(lambda x: math.nan, 1.0, (-1.0, 1.0)),
                 id="nan-cdf"),
    pytest.param("cdf", lambda: SmoothRealCdf(
        lambda x: math.nan if abs(x) == 9.0 else _phi_cdf(x), 0.4, (-9.0, 9.0)),
                 id="nan-cdf-at-support-ends"),
    pytest.param("cdf", lambda: SmoothRealCdf(
        lambda x: math.nan if x == 0.0 else _phi_cdf(x), 0.4, (-9.0, 9.0)),
                 id="nan-cdf-inside-the-grid"),
    pytest.param("halfwidth", lambda: gaussian_cdf(0.0, 1.0, halfwidth=5.0),
                 id="gaussian-halfwidth"),
    pytest.param("eval_tolerance", lambda: discrepancy_real_mixed(
        RealAtomicDistribution.point_mass(0.0),
        SmoothRealCdf(_phi_cdf, 0.4, (-9.0, 9.0), eval_tolerance=1e-6)),
                 id="mixed-discrepancy-tolerance"),
    pytest.param("support", lambda: discrepancy_real_mixed(
        RealAtomicDistribution.point_mass(11.0), gaussian_cdf()),
                 id="mixed-discrepancy-support"),
    pytest.param("n", lambda: standardized_binomial(0), id="binomial-n"),
    pytest.param("support", lambda: SmoothRealCdf(_phi_cdf, 0.4, (0.0, 1.0, 2.0)),
                 id="support-triple"),
    pytest.param("support", lambda: SmoothRealCdf(_phi_cdf, 0.4, None), id="support-none"),
    pytest.param("support", lambda: SmoothRealCdf(_phi_cdf, 0.4, "ab"), id="support-string"),
    pytest.param("density_bound", lambda: SmoothRealCdf(_phi_cdf, "0.4", (-9.0, 9.0)),
                 id="density-bound-string"),
    pytest.param("eval_tolerance", lambda: SmoothRealCdf(_phi_cdf, 0.4, (-9.0, 9.0), "0"),
                 id="eval-tolerance-string"),
    pytest.param("cdf", lambda: SmoothRealCdf(0.5, 0.4, (-9.0, 9.0)), id="cdf-not-callable"),
    pytest.param("cdf_many", lambda: SmoothRealCdf(_phi_cdf, 0.4, (-9.0, 9.0), cdf_many=0.5),
                 id="cdf-many-not-callable"),
    pytest.param("cdf_many", lambda: SmoothRealCdf(
        _phi_cdf, 0.4, (-9.0, 9.0),
        cdf_many=lambda xs: np.array([_phi_cdf(x - 0.01) for x in xs.tolist()])),
                 id="cdf-many-disagrees-with-cdf"),
    pytest.param("cdf_many", lambda: SmoothRealCdf(
        _phi_cdf, 0.4, (-9.0, 9.0), cdf_many=lambda xs: np.zeros(3)),
                 id="cdf-many-shape"),
    pytest.param("cdf", lambda: SmoothRealCdf(
        _phi_cdf, 0.4, (-9.0, 9.0),
        cdf_many=lambda xs: np.where(xs == 0.0, math.nan, gaussian_cdf().cdf_many(xs))),
                 id="nan-cdf-many-inside-the-grid"),
    pytest.param("mean", lambda: gaussian_cdf("a"), id="gaussian-mean-string"),
    pytest.param("sigma", lambda: gaussian_cdf(0.0, "1"), id="gaussian-sigma-string"),
])
def test_real_line_errors_name_the_field(field, build):
    with pytest.raises(ValueError, match=f"^{field}:"):
        build()


class TestCoupling:
    def test_independent_coupling_valid(self):
        s = path3()
        mu = DiscreteDistribution(s, np.array([0.2, 0.3, 0.5]))
        nu = DiscreteDistribution.uniform(s)
        Coupling(np.outer(mu.p, nu.p), mu, nu)

    def test_rejects_marginal_deviation(self):
        s = path3()
        mu = DiscreteDistribution(s, np.array([0.2, 0.3, 0.5]))
        nu = DiscreteDistribution.uniform(s)
        J = np.outer(mu.p, nu.p)
        J[0, 0] += 5e-10
        with pytest.raises(ValueError, match="marginal"):
            Coupling(J, mu, nu)


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entry(self, bad):
        # NaN compares False against every sign and marginal check
        s = FiniteMetricSpace.cycle(4)
        u = DiscreteDistribution.uniform(s)
        with pytest.raises(ValueError, match=r"coupling\.J: non-finite"):
            Coupling(np.full((4, 4), bad), u, u)


class TestJson:
    def test_space_kinds(self):
        assert space_from_json({"kind": "cycle", "n": 10}).n == 10
        assert space_from_json({"kind": "matrix", "d": [[0, 1], [1, 0]]}).diam == 1.0
        e = space_from_json({"kind": "euclidean", "points": [[0, 0], [3, 4]]})
        assert abs(e.d[0, 1] - 5.0) < 1e-12

    def test_unknown_kind_names_field(self):
        with pytest.raises(ValueError, match="space.kind"):
            space_from_json({"kind": "torus"})

    def test_distribution_finite(self):
        d = distribution_from_json(
            {"space": {"kind": "cycle", "n": 4}, "p": [0.25] * 4})
        assert isinstance(d, DiscreteDistribution)

    def test_distribution_atomic(self):
        d = distribution_from_json({"atoms": [{"x": 0.0, "w": 0.5},
                                              {"x": 1.5, "w": 0.5}]})
        assert isinstance(d, RealAtomicDistribution)

    @pytest.mark.parametrize("atoms", [
        [(0.0, -0.5), (1.0, 1.0)],               # used to be dropped
        [(0.0, 0.75), (1.0, -0.25), (1.0, 0.5)],  # used to be merged away
    ])
    def test_negative_atom_weight_rejected(self, atoms):
        with pytest.raises(ValueError, match=r"atoms\.weights: .* negative"):
            distribution_from_json({"atoms": [{"x": x, "w": w} for x, w in atoms]})

    @pytest.mark.parametrize("obj, field", [
        ({"space": {"kind": "cycle", "n": 4.7}, "p": [0.25] * 4}, "space.n"),
        ({"space": {"kind": "cycle", "n": None}, "p": [0.25] * 4}, "space.n"),
        ({"space": {"kind": "cycle", "n": "4"}, "p": [0.25] * 4}, "space.n"),
        ({"space": {"kind": "cycle", "n": 4}, "p": [0.25, "a", 0.25, 0.25]}, "distribution.p"),
        ({"space": {"kind": "cycle", "n": 4}, "p": [[0.5, 0.25], [0.25]]}, "distribution.p"),
        ({"space": {"kind": "cycle", "n": 4}, "p": None}, "distribution.p"),
        ({"space": {"kind": "matrix", "d": [[0, 1], [1]]}, "p": [0.5, 0.5]}, "space.d"),
        ({"space": {"kind": "matrix", "d": [[0, "1"], [1, 0]]}, "p": [0.5, 0.5]}, "space.d"),
        ({"space": {"kind": "euclidean", "points": [[0, 1], [2]]}, "p": [0.5, 0.5]},
         "space.points"),
        ({"space": {"kind": "euclidean", "points": [[0, None], [1, 2]]}, "p": [0.5, 0.5]},
         "space.points"),
        ({"atoms": [{"x": None, "w": 1.0}]}, "atoms.positions"),
        ({"atoms": [{"x": "0", "w": 1.0}]}, "atoms.positions"),
        ({"atoms": [{"x": 0.0, "w": "one"}]}, "atoms.weights"),
        ({"atoms": [{"x": 0.0, "w": [1.0]}]}, "distribution.atoms"),
    ], ids=["n-float", "n-null", "n-string", "p-string", "p-ragged", "p-null",
            "d-ragged", "d-string", "points-ragged", "points-null", "x-null", "x-string",
            "w-string", "w-list"])
    def test_malformed_field_named(self, obj, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            distribution_from_json(obj)

    @pytest.mark.parametrize("call, field", [
        (lambda: FiniteMetricSpace.cycle(4.5), "space.n"),
        (lambda: FiniteMetricSpace.cycle(2), "space.n"),
        (lambda: FiniteMetricSpace([[0.0, None], [None, 0.0]]), "space.d"),
        (lambda: FiniteMetricSpace.euclidean([[0.0, 1.0], [2.0]]), "space.points"),
        (lambda: RealAtomicDistribution.from_pairs([(None, 1.0)]), "atoms.positions"),
        (lambda: gaussian_cdf(sigma=0), "sigma"),
        (lambda: gaussian_cdf(sigma=-1), "sigma"),
        (lambda: gaussian_cdf(sigma=math.nan), "sigma"),
        (lambda: gaussian_cdf(sigma=math.inf), "sigma"),
        (lambda: gaussian_cdf(mean=math.nan), "mean"),
        (lambda: gaussian_cdf(mean=math.inf), "mean"),
        (lambda: gaussian_cdf(halfwidth=math.nan), "halfwidth"),
        (lambda: gaussian_cdf(halfwidth=math.inf), "halfwidth"),
    ], ids=["cycle-float", "cycle-short", "d-null", "points-ragged", "atom-null",
            "sigma-0", "sigma-negative", "sigma-nan", "sigma-inf", "mean-nan", "mean-inf",
            "halfwidth-nan", "halfwidth-inf"])
    def test_library_names_the_field(self, call, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            call()

    def test_missing_fields_named(self):
        with pytest.raises(ValueError, match="distribution.space"):
            distribution_from_json({"p": [1.0]})
        with pytest.raises(ValueError, match="atoms"):
            distribution_from_json({"atoms": [{"x": 0.0}]})


HUGE = 10 ** 5000  # past str()'s 4,300-digit limit
BIG = 10 ** 400    # past the float range


def cycle4():
    return FiniteMetricSpace.cycle(4)


# Every bounded integer the library takes: (a call on the value, its field,
# the least and the greatest value accepted, with None for an open end, and
# whether the greatest is cheap to build).
BOUNDED_INTEGERS = {
    "ball-center": (lambda v: cycle4().ball(v, 1.0), "center", 0, 3, True),
    "fatten-points": (lambda v: cycle4().fatten({v}, 1.0), "points", 0, 3, True),
    "mass-points": (lambda v: DiscreteDistribution.uniform(cycle4()).mass({v}),
                    "points", 0, 3, True),
    "point_mass-i": (lambda v: DiscreteDistribution.point_mass(cycle4(), v), "i", 0, 3, True),
    "cycle-n": (FiniteMetricSpace.cycle, "space.n", 3, None, False),
    "walk-p": (CdgWalk, "p", 3, MAX_MODULUS, False),  # 256 MB at MAX_MODULUS
    "mersenne-t": (walks._mersenne_modulus, "t", 2, 26, True),
    "trace-steps": (lambda v: cdg_trace(3, v), "steps", 1, None, False),
    "product-n": (lambda v: walks._check_sizes(v, 2), "n", 1, 10 ** 6, True),
    "product-g": (lambda v: walks._check_sizes(1, v), "g", 2, None, False),
    "binomial-n": (standardized_binomial, "n", 1, 10 ** 9, False),
    "instance-seed": (lambda v: random_instance(v, 0), "seed", 0, None, False),
    "instance-index": (lambda v: random_instance(0, v), "index", 0, None, False),
    "size_range-low": (lambda v: random_instance(0, 0, (v, 64)), "size_range", 1, 64, True),
    "size_range-high": (lambda v: random_instance(0, 0, (4, v)), "size_range", 4, 64, True),
    "campaign-trials": (certification_campaign, "trials", 1, None, False),
}


@pytest.mark.parametrize("call, field, lo, hi, hi_cheap", BOUNDED_INTEGERS.values(),
                         ids=BOUNDED_INTEGERS.keys())
def test_bounded_integers_at_their_ends(call, field, lo, hi, hi_cheap):
    call(lo)
    if hi_cheap:
        call(hi)
    span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    refused = [(lo - 1, str(lo - 1)), (-HUGE, "a negative integer of 16610 bits")]
    if hi is not None:
        refused += [(hi + 1, str(hi + 1)), (HUGE, "an integer of 16610 bits")]
    for value, got in refused:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field}: must be {span}, got {got}')}$"):
            call(value)
    for value in (True, 2.0):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field}: must be an integer, got {value!r}')}$"):
            call(value)


@pytest.mark.parametrize("call, field", [
    (lambda: product_walk_distances(3, 2, BIG), "t"),
    (lambda: product_walk_trace(3, 2, [BIG]), "times"),
    (lambda: gaussian_cdf(sigma=BIG), "sigma"),
    (lambda: gaussian_cdf(mean=-BIG), "mean"),
    (lambda: gaussian_cdf(halfwidth=BIG), "halfwidth"),
    (lambda: SmoothRealCdf(gaussian_cdf().cdf, BIG, (-9.0, 9.0)), "density_bound"),
    (lambda: dudley_instance(HUGE), "n"),
    (lambda: product_walk_crossing_times(3, 2, BIG), "threshold"),
    (lambda: cycle4().ball(0, -HUGE), "radius"),
    (lambda: cycle4().fatten({0}, BIG), "eps"),
    (lambda: ball_growth_at(DiscreteDistribution.uniform(cycle4()), BIG), "eps"),
], ids=["walk-t", "walk-times", "sigma", "mean", "halfwidth", "density_bound",
        "dudley-n", "threshold", "ball-radius", "fatten-eps", "ball-growth-eps"])
def test_reals_past_the_float_range_name_the_field(call, field):
    with pytest.raises(ValueError, match=f"^{field}: must be within the float range, "
                                         "got (a negative|an) integer of [0-9]+ bits$"):
        call()


# Every real number the library takes: (a call on the value, its field, the
# least and the greatest value accepted, with None for an open end or for a
# bound that is no plain range, and a value inside).
REAL_SITES = {
    "eval_tolerance": (lambda v: SmoothRealCdf(_phi_cdf, 0.4, (-9.0, 9.0), v),
                       "eval_tolerance", 0.0, None, 1e-12),
    "density_bound": (lambda v: SmoothRealCdf(_phi_cdf, v, (-9.0, 9.0)),
                      "density_bound", 5e-324, None, 0.4),
    "support-a": (lambda v: SmoothRealCdf(_phi_cdf, 0.4, (v, 9.0)), "support", None, None, -9.0),
    "support-b": (lambda v: SmoothRealCdf(_phi_cdf, 0.4, (-9.0, v)), "support", None, None, 9.0),
    "gaussian-mean": (lambda v: gaussian_cdf(v), "mean", None, None, 0.5),
    "gaussian-sigma": (lambda v: gaussian_cdf(0.0, v), "sigma", None, None, 1.5),
    "gaussian-halfwidth": (lambda v: gaussian_cdf(0.0, 1.0, v), "halfwidth", 7.1, None, 9.0),
    "sparsity": (lambda v: random_instance(0, 0, sparsity=v), "sparsity", 0.0, 1.0, 0.25),
    "crossing-t_hi": (lambda v: crossing_time(lambda t: math.exp(-t), 0.5, v),
                      "t_hi", 0.0, None, 1.0),
    "crossing-threshold": (lambda v: crossing_time(lambda t: math.exp(-t), v, 1.0),
                           "threshold", None, None, 0.5),
    "product-threshold": (lambda v: product_walk_crossing_times(3, 2, v),
                          "threshold", None, None, 0.25),
    "dudley-n": (dudley_instance, "n", 2.0, None, 10.0),
    "walk-t": (lambda v: product_walk_distances(3, 2, v), "t", 0.0, None, 1.5),
    "walk-times": (lambda v: product_walk_trace(3, 2, [v]), "times", 0.0, None, 1.5),
    "ball-radius": (lambda v: cycle4().ball(0, v), "radius", 0.0, None, 1.5),
    "fatten-eps": (lambda v: cycle4().fatten({0}, v), "eps", 0.0, None, 1.5),
    "ball-growth-eps": (lambda v: ball_growth_at(DiscreteDistribution.uniform(cycle4()), v),
                        "eps", 0.0, None, 1.5),
    "interval-growth-eps": (lambda v: interval_growth_at(RealAtomicDistribution.point_mass(0.0), v),
                            "eps", 0.0, None, 1.5),
}

# The probes each site accepted when every range test was written out by
# hand; every other probe was refused with a ValueError.
ACCEPTED_BEFORE = {
    "eval_tolerance": "lo 0 float64 fraction",
    "density_bound": "lo float64 fraction",
    "support-a": "float64 fraction",
    "support-b": "float64 fraction",
    "gaussian-mean": "0 float64 fraction",
    "gaussian-sigma": "float64 fraction",
    "gaussian-halfwidth": "lo float64 fraction",
    "sparsity": "lo hi 0 float64 fraction",
    "crossing-t_hi": "lo 0 float64 fraction",
    "crossing-threshold": "0 inf -inf float64 fraction",
    "product-threshold": "float64 fraction",
    "dudley-n": "lo float64 fraction",
    "walk-t": "lo 0 inf float64 fraction",
    "walk-times": "lo 0 inf float64 fraction",
    "ball-radius": "lo 0 inf float64 fraction",
    "fatten-eps": "lo 0 inf float64 fraction",
    "ball-growth-eps": "lo 0 inf float64 fraction",
    "interval-growth-eps": "lo 0 inf float64 fraction",
}

# An infinite threshold never gave a real crossing: every probe read at or
# below +inf, and none at or below -inf.
NOW_REFUSED = {("crossing-threshold", "inf"), ("crossing-threshold", "-inf")}


def _real_probes(lo, hi, inside):
    probes = {}
    if lo is not None:
        probes["lo-ulp"], probes["lo"] = math.nextafter(lo, -math.inf), lo
    if hi is not None:
        probes["hi"], probes["hi+ulp"] = hi, math.nextafter(hi, math.inf)
    probes.update({"0": 0, "inf": math.inf, "-inf": -math.inf, "nan": math.nan,
                   "bool": True, "str": "1", "huge": HUGE,
                   "float64": np.float64(inside), "fraction": Fraction(inside)})
    return probes


@pytest.mark.parametrize("site", REAL_SITES)
def test_real_sites_accept_what_they_accepted_before(site):
    call, field, lo, hi, inside = REAL_SITES[site]
    accepted = ACCEPTED_BEFORE[site].split()
    for name, value in _real_probes(lo, hi, inside).items():
        if name in accepted and (site, name) not in NOW_REFUSED:
            call(value)
        else:
            with pytest.raises(ValueError, match=f"^{field}: "):
                call(value)


@pytest.mark.parametrize("value, span", [
    (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"),
    (-0.5, "in 0..1"), (1.5, "in 0..1")], ids=["nan", "inf", "-inf", "below", "above"])
def test_real_out_of_range_message(value, span):
    with pytest.raises(ValueError, match=f"^{re.escape(f'sparsity: must be {span}, got {value!r}')}$"):
        random_instance(0, 0, sparsity=value)


@pytest.mark.parametrize("support", [(-1e308, 1e308), (-math.ldexp(1.0, 1023), 1e308)])
def test_support_wider_than_the_float_range_is_refused_by_name(support):
    # the check grid's np.linspace would overflow and read as a NaN cdf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^support: need a < b and a finite width"):
            SmoothRealCdf(_phi_cdf, 0.4, support)
        with pytest.raises(ValueError, match="^support: need a < b and a finite width"):
            gaussian_cdf(0.0, 1.0, support[1])


@pytest.mark.parametrize("build, field", [
    (lambda J: Coupling(J, *([DiscreteDistribution.point_mass(cycle4(), 0)] * 2)), "coupling.J"),
    (FiniteMetricSpace, "space.d"),
    (lambda d: DiscreteDistribution(cycle4(), d[0]), "distribution.p"),
    (lambda d: RealAtomicDistribution(d[0], np.full(4, 0.25)), "atoms.positions"),
    (lambda d: RealAtomicDistribution(np.arange(4.0), d[0]), "atoms.weights"),
], ids=["coupling", "space", "distribution", "positions", "weights"])
def test_arrays_hold_finite_numbers_only(build, field):
    bools = np.zeros((4, 4), dtype=bool)
    bools[0, 0] = True
    with pytest.raises(ValueError, match=f"^{re.escape(field)}: must hold numbers only$"):
        build(bools)
    for bad in (math.nan, math.inf, -math.inf):
        d = np.zeros((4, 4))
        d[0, 1] = bad
        with pytest.raises(ValueError, match=f"^{re.escape(field)}: non-finite entry$"):
            build(d)


def test_euclidean_point_at_infinity_names_the_points():
    with pytest.raises(ValueError, match=r"^space\.points: non-finite entry$"):
        FiniteMetricSpace.euclidean([0.0, math.inf])
