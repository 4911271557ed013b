import json
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from metric_atlas.bounds import (FINITE_METRICS, CertificationReport, EdgeResult,
                                 MetricContext, certification_campaign, certify,
                                 edge_catalog, evaluate_edges, finite_context,
                                 random_instance, real_atomic_context,
                                 real_mixed_context, real_smooth_context,
                                 reports_from_json, reports_to_csv, reports_to_json)
from metric_atlas.divergences import nu_dominates_mu
from metric_atlas.spaces import (DiscreteDistribution, FiniteMetricSpace,
                                 RealAtomicDistribution, SmoothRealCdf, gaussian_cdf)
from metric_atlas import transport as tp
from metric_atlas.cli import METRIC_NAMES, main
from metric_atlas.transport import (discrepancy_finite, prokhorov, tightest_ball_growth,
                                    wasserstein_finite)
from metric_atlas.walks import standardized_binomial, z10_measures

from conftest import embed_atomic_pair, lattice_atomic, random_atomic, random_pair_on


def ids(catalog):
    return [e.edge_id for e in catalog]


class TestCatalog:
    def test_size_is_nineteen(self):
        assert len(edge_catalog()) == 19

    def test_ids_unique(self):
        catalog = edge_catalog()
        assert len(set(ids(catalog))) == len(catalog)

    def test_transforms_monotone(self):
        _, mu, _, unif = z10_measures()
        ctx = MetricContext("probe", "finite", {}, nu_dominates_mu=True,
                            d_min=0.5, diam=3.0, density_bound=1.0,
                            phi=tightest_ball_growth(unif).at)
        grid = np.linspace(0.0, 6.0, 200)
        for edge in edge_catalog():
            vals = [edge.transform(float(x), ctx) for x in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), edge.edge_id

    def test_tv_le_sep_applies_on_any_finite_instance(self):
        _, mu, _, unif = z10_measures()
        ctx = finite_context(mu, unif)
        edge = next(e for e in edge_catalog() if e.edge_id == "TV<=S")
        assert edge.applicable(ctx)[0]

    def test_kolmogorov_via_levy_skips_on_finite_instances(self):
        _, mu, _, unif = z10_measures()
        ctx = finite_context(mu, unif)
        edge = next(e for e in edge_catalog() if e.edge_id == "K<=(1+c)L")
        ok, reason = edge.applicable(ctx)
        assert not ok and reason


def _status_contexts() -> dict[str, MetricContext]:
    """One context of each kind, plus doctored finite ones that hold every
    value and fact but one."""
    _, mu, _, unif = z10_measures()
    finite = finite_context(mu, unif)
    full = replace(finite, values={**finite.values, "kolmogorov": 0.3, "levy": 0.2},
                   density_bound=1.0)
    F = RealAtomicDistribution.from_pairs([(0.0, 0.5), (2.0, 0.3), (3.5, 0.2)])
    G = RealAtomicDistribution.from_pairs([(0.5, 0.4), (2.0, 0.6)])
    return {
        "finite": finite,
        "real-atomic": real_atomic_context(F, G),
        "real-mixed": real_mixed_context(standardized_binomial(16), gaussian_cdf(0.0, 1.0)),
        "real-smooth": real_smooth_context(gaussian_cdf(0.0, 1.0), gaussian_cdf(0.3, 1.2)),
        "all-facts": full,
        "nu_dominates_mu=None": replace(full, nu_dominates_mu=None),
        "nu_dominates_mu=False": replace(full, nu_dominates_mu=False),
        "real-mixed,nu_dominates_mu=None": replace(full, kind="real-mixed",
                                                   nu_dominates_mu=None),
        "d_min=None": replace(full, d_min=None),
        "diam=None": replace(full, diam=None),
        "density_bound=None": replace(full, density_bound=None),
        "phi=None": replace(full, phi=None),
        "empty-values": replace(full, values={}),
    }


_NO_DOM = "nu does not dominate mu"
_NO_DENSITY = "no absolutely continuous reference with a density bound"
_NO_COUNT = "needs a countable space or domination"
# Skip reason of every skipped edge, by context; every other edge passes.
# Recorded from the catalog as it stood before its conditions became a table.
_EXPECTED_SKIPS = {
    "finite": {
        "L<=K": "unavailable: levy,kolmogorov", "K<=(1+c)L": "unavailable: kolmogorov,levy",
        "K<=D": "unavailable: kolmogorov", "D<=2K": "unavailable: kolmogorov",
        "L<=P": "unavailable: levy"},
    "real-atomic": {"K<=(1+c)L": _NO_DENSITY, "H<=sqrt(chi2)": _NO_DOM},
    "real-mixed": {
        "L<=P": "unavailable: prokhorov", "D<=P+phi(P)": "unavailable: prokhorov",
        "P<=sqrt(W)": "unavailable: prokhorov,wasserstein",
        "P<=TV": "unavailable: prokhorov", "W<=diam*TV": "unavailable: wasserstein",
        "TV<=W/dmin": "unavailable: wasserstein", "H<=sqrt(chi2)": _NO_DOM,
        "TV<=sqrt(chi2)/2": _NO_COUNT},
    "real-smooth": {
        "L<=P": "unavailable: prokhorov", "D<=P+phi(P)": "unavailable: prokhorov",
        "P<=sqrt(W)": "unavailable: prokhorov,wasserstein", "D<=TV": "unavailable: tv",
        "P<=TV": "unavailable: prokhorov,tv", "W<=diam*TV": "unavailable: wasserstein,tv",
        "TV<=W/dmin": "unavailable: tv,wasserstein", "TV<=H": "unavailable: tv,hellinger",
        "H<=sqrt(2TV)": "unavailable: hellinger,tv", "TV<=S": "unavailable: tv,separation",
        "TV<=sqrt(I/2)": "unavailable: tv,entropy",
        "H<=sqrt(I)": "unavailable: hellinger,entropy",
        "H<=sqrt(chi2)": "unavailable: hellinger,chi2",
        "TV<=sqrt(chi2)/2": "unavailable: tv,chi2",
        "I<=log1p(chi2)": "unavailable: entropy,chi2"},
    "all-facts": {},
    "nu_dominates_mu=None": {"H<=sqrt(chi2)": _NO_DOM},
    "nu_dominates_mu=False": {"H<=sqrt(chi2)": _NO_DOM},
    "real-mixed,nu_dominates_mu=None": {"H<=sqrt(chi2)": _NO_DOM,
                                        "TV<=sqrt(chi2)/2": _NO_COUNT},
    "d_min=None": {"TV<=W/dmin": "no minimum distance"},
    "diam=None": {"W<=diam*TV": "unbounded space"},
    "density_bound=None": {"K<=(1+c)L": _NO_DENSITY},
    "phi=None": {"D<=P+phi(P)": "no ball-growth modulus for this instance"},
    "empty-values": {
        "L<=K": "unavailable: levy,kolmogorov", "K<=(1+c)L": "unavailable: kolmogorov,levy",
        "K<=D": "unavailable: kolmogorov,disc", "D<=2K": "unavailable: disc,kolmogorov",
        "L<=P": "unavailable: levy,prokhorov", "D<=P+phi(P)": "unavailable: disc,prokhorov",
        "P<=sqrt(W)": "unavailable: prokhorov,wasserstein", "D<=TV": "unavailable: disc,tv",
        "P<=TV": "unavailable: prokhorov,tv", "W<=diam*TV": "unavailable: wasserstein,tv",
        "TV<=W/dmin": "unavailable: tv,wasserstein", "TV<=H": "unavailable: tv,hellinger",
        "H<=sqrt(2TV)": "unavailable: hellinger,tv", "TV<=S": "unavailable: tv,separation",
        "TV<=sqrt(I/2)": "unavailable: tv,entropy",
        "H<=sqrt(I)": "unavailable: hellinger,entropy",
        "H<=sqrt(chi2)": "unavailable: hellinger,chi2",
        "TV<=sqrt(chi2)/2": "unavailable: tv,chi2",
        "I<=log1p(chi2)": "unavailable: entropy,chi2"},
}


class TestEdgeStatusTable:
    @pytest.fixture(scope="class")
    def contexts(self):
        return _status_contexts()

    @pytest.mark.parametrize("name", sorted(_EXPECTED_SKIPS))
    def test_status_and_reason_per_edge(self, contexts, name):
        skips = _EXPECTED_SKIPS[name]
        rep = evaluate_edges(contexts[name])
        assert [r.edge_id for r in rep.results] == ids(edge_catalog())
        for r in rep.results:
            want = ("skip", skips[r.edge_id]) if r.edge_id in skips else ("pass", "")
            assert (r.status, r.reason) == want, (name, r.edge_id)

    @pytest.mark.parametrize("name", sorted(_EXPECTED_SKIPS))
    def test_applicable_agrees_with_the_report(self, contexts, name):
        skips = _EXPECTED_SKIPS[name]
        for edge in edge_catalog():
            ok, reason = edge.applicable(contexts[name])
            assert (ok, reason) == ((False, skips[edge.edge_id]) if edge.edge_id in skips
                                    else (True, "")), (name, edge.edge_id)


class TestEvaluation:
    def test_z10_all_applicable_pass(self):
        _, mu, _, unif = z10_measures()
        rep = certify(mu, unif, instance_id="z10")
        assert rep.passed
        by_id = {r.edge_id: r for r in rep.results}
        # Pinsker: 2 * 0.5^2 = 0.5 <= 1.075
        pinsker = by_id["TV<=sqrt(I/2)"]
        assert pinsker.status == "pass"
        assert abs(pinsker.lhs - 0.5) < 1e-12
        assert 2 * pinsker.lhs ** 2 <= by_id["I<=log1p(chi2)"].lhs

    def test_equal_arguments_all_zero(self):
        _, mu, _, _ = z10_measures()
        rep = certify(mu, mu)
        for r in rep.results:
            if r.status == "pass":
                assert r.lhs == 0.0
        assert rep.passed

    def test_nested_uniforms_entropy_vacuous(self):
        s = FiniteMetricSpace.euclidean(np.arange(1.0, 11.0))
        u10 = DiscreteDistribution.uniform(s)
        u9 = DiscreteDistribution(s, np.array([1 / 9] * 9 + [0.0]))
        rep = certify(u10, u9)
        by_id = {r.edge_id: r for r in rep.results}
        assert abs(by_id["TV<=S"].lhs - 0.1) < 1e-12
        assert by_id["TV<=S"].status == "pass"
        # reference misses a support point, so entropy and chi2 blow up
        assert by_id["TV<=sqrt(I/2)"].rhs == math.inf
        assert by_id["TV<=sqrt(I/2)"].status == "pass"
        assert rep.passed

    def test_infinite_lhs_with_finite_bound_fails_loudly(self):
        ctx = MetricContext("doctored", "finite",
                            {"entropy": math.inf, "chi2": 1.0})
        rep = evaluate_edges(ctx)
        by_id = {r.edge_id: r for r in rep.results}
        assert by_id["I<=log1p(chi2)"].status == "fail"
        assert by_id["I<=log1p(chi2)"].slack == -math.inf

    def test_both_infinite_passes(self):
        ctx = MetricContext("doctored", "finite",
                            {"entropy": math.inf, "chi2": math.inf})
        rep = evaluate_edges(ctx)
        by_id = {r.edge_id: r for r in rep.results}
        assert by_id["I<=log1p(chi2)"].status == "pass"

    def test_nan_value_fails_its_edges(self):
        ctx = MetricContext("doctored", "finite", {"tv": math.nan, "hellinger": 0.1})
        by_id = {r.edge_id: r for r in evaluate_edges(ctx).results}
        for edge_id in ("TV<=H", "H<=sqrt(2TV)"):  # NaN on the left, then in h(rhs)
            assert by_id[edge_id].status == "fail"
            assert math.isnan(by_id[edge_id].slack)

    def test_nan_oracle_value_fails_the_edges_it_reaches(self):
        # the oracle is NaN only between the points of its 65-point check grid;
        # the reading at the atom refuses it before any edge is evaluated
        def cdf(x):
            return math.nan if 0.001 < x < 0.002 else 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        G = SmoothRealCdf(cdf, 0.4, (-9.0, 9.0), eval_tolerance=1e-14)
        with pytest.raises(ValueError, match=r"^cdf: oracle is NaN at x = 0\.0015$"):
            certify(RealAtomicDistribution.point_mass(0.0015), G)

    def test_nan_met_only_by_a_levy_probe_is_refused(self):
        # NaN only on 0.2 < |x| < 0.28, between the check grid's points 0 and
        # +-0.28125; the reading at the atom 0 is 0.5, and only the Levy search
        # probes the gap. Read as False, the NaN gave L = 0.2000000000007276
        # against the normal's 0.3595804520527963, and a false K<=(1+c)L failure.
        def cdf(x):
            if 0.2 < abs(x) < 0.28:
                return math.nan
            return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        G = SmoothRealCdf(cdf, 0.4, (-9.0, 9.0), eval_tolerance=1e-14)
        F = RealAtomicDistribution.point_mass(0.0)
        for call in (lambda: tp.smooth_pair(F, G), lambda: certify(F, G)):
            with pytest.raises(ValueError, match="^cdf: oracle is NaN at x = "):
                call()

    def test_space_comes_from_the_measures(self):
        # a separate space argument could disagree with the measures' own
        # (diam and d_min read off the wrong metric gave false failures)
        _, mu, _, unif = z10_measures()
        with pytest.raises(TypeError):
            certify(mu, unif, space=FiniteMetricSpace(mu.space.d * 0.01))

    def test_unsupported_pair_names_both_types(self):
        _, mu, _, _ = z10_measures()
        F = RealAtomicDistribution.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        with pytest.raises(ValueError, match="^mu, nu: .*DiscreteDistribution and "
                                             "RealAtomicDistribution"):
            certify(mu, F)

    def test_both_argument_orders_certify(self, rng):
        s = FiniteMetricSpace.euclidean(rng.normal(size=(6, 2)))
        for i in range(15):
            mu, nu = random_pair_on(s, rng, sparsity=0.3)
            assert certify(mu, nu).passed
            assert certify(nu, mu).passed

    def test_smooth_pair_certifies_the_line_edges(self):
        rep = certify(gaussian_cdf(0.0, 1.0), gaussian_cdf(0.3, 1.2), instance_id="smooth")
        line_edges = {"L<=K", "K<=(1+c)L", "K<=D", "D<=2K"}
        assert rep.passed
        for r in rep.results:
            if r.edge_id in line_edges:
                assert r.status == "pass", r
            else:
                assert r.status == "skip" and r.reason.startswith("unavailable"), r
        assert sum(r.status == "skip" for r in rep.results) == 15


class TestNonCatalogRelations:
    """Bounds certified as properties rather than carried as catalog rows
    (they compose from or refine catalog edges)."""

    def test_entropy_and_hellinger_chi2_relations(self, rng):
        s = FiniteMetricSpace.euclidean(rng.normal(size=(8, 2)))
        from metric_atlas.divergences import (chi_squared, hellinger,
                                              relative_entropy,
                                              total_variation)
        for i in range(40):
            mu, nu = random_pair_on(s, rng, sparsity=0.3 if i % 2 else 0.0)
            ent = relative_entropy(mu, nu)
            chi = chi_squared(mu, nu)
            tv = total_variation(mu, nu)
            h = hellinger(mu, nu)
            if math.isfinite(chi):
                assert ent <= tv + chi / 2.0 + 1e-9
                assert ent <= chi + 1e-9
                assert h <= math.sqrt(2.0) * chi ** 0.25 + 1e-9
            else:
                assert True  # vacuous for a blown-up chi-squared

    def test_wasserstein_two_sided_refinements(self, rng):
        from metric_atlas.transport import (discrepancy_finite, prokhorov,
                                            wasserstein_finite)
        from metric_atlas.divergences import total_variation
        for i in range(25):
            inst = random_instance(123, i, (3, 8), "random-metric",
                                   0.3 if i % 2 else 0.0)
            w, _, _ = wasserstein_finite(inst.mu, inst.nu)
            assert inst.space.d_min * discrepancy_finite(inst.mu, inst.nu) <= w + 1e-9
            assert w <= (inst.space.diam + 1.0) * prokhorov(inst.mu, inst.nu) + 1e-9


class TestTightnessWitnesses:
    def test_tv_equals_separation_on_disjoint_point_masses(self):
        s = FiniteMetricSpace([[0, 1], [1, 0]])
        mu = DiscreteDistribution.point_mass(s, 0)
        nu = DiscreteDistribution.point_mass(s, 1)
        rep = certify(mu, nu)
        by_id = {r.edge_id: r for r in rep.results}
        assert by_id["TV<=S"].lhs == by_id["TV<=S"].h_rhs == 1.0

    def test_hellinger_sandwich_tight_on_disjoint_supports(self):
        s = FiniteMetricSpace([[0, 1], [1, 0]])
        mu = DiscreteDistribution.point_mass(s, 0)
        nu = DiscreteDistribution.point_mass(s, 1)
        rep = certify(mu, nu)
        by_id = {r.edge_id: r for r in rep.results}
        # H = sqrt(2), TV = 1: the upper H <= sqrt(2 TV) is an equality
        assert abs(by_id["H<=sqrt(2TV)"].lhs - by_id["H<=sqrt(2TV)"].h_rhs) < 1e-12

    def test_kolmogorov_discrepancy_tight_both_ways(self):
        F = RealAtomicDistribution.point_mass(0.0)
        G = RealAtomicDistribution.point_mass(0.4)
        ctx = real_atomic_context(F, G)
        assert abs(ctx.values["kolmogorov"] - ctx.values["disc"]) < 1e-12
        F2 = RealAtomicDistribution.from_pairs([(0.0, 0.5), (2.0, 0.5)])
        G2 = RealAtomicDistribution.point_mass(1.0)
        ctx2 = real_atomic_context(F2, G2)
        assert abs(ctx2.values["disc"] - 2 * ctx2.values["kolmogorov"]) < 1e-12

    def test_real_atomic_disc_is_the_lines(self):
        # the merged atoms' space has balls centered at atoms, so [0, 1], where
        # mu - nu = 1, is not one of them: its disc reads 1/2, the line's 1
        F = RealAtomicDistribution.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        G = RealAtomicDistribution.from_pairs([(-0.5, 0.5), (1.5, 0.5)])
        _, mu, nu = embed_atomic_pair(F, G)
        ctx = real_atomic_context(F, G)
        assert ctx.values["disc"] == 1.0
        assert discrepancy_finite(mu, nu) == 0.5
        xs, e = np.union1d(F.positions, G.positions), mu.p - nu.p
        line = max(abs(e[(xs >= a) & (xs <= b)].sum()) for a in xs for b in xs)
        assert line == 1.0
        assert evaluate_edges(ctx).passed


def _atomic_pairs(n, seed=0):
    """n pairs of random_atomic draws, every third on the lattice, plus a
    single atom and a random draw, each against itself."""
    rng = np.random.default_rng(seed)
    draw = [lattice_atomic, random_atomic, random_atomic]
    pairs = [(draw[i % 3](rng), draw[i % 3](rng)) for i in range(n)]
    point = RealAtomicDistribution.point_mass(0.5)
    return pairs + [(point, point), (pairs[1][0], pairs[1][0])]


class TestRealAtomicOnTheLine:
    def test_certify_passes(self):
        for F, G in _atomic_pairs(1000):
            rep = certify(F, G)
            assert rep.passed, [r.edge_id for r in rep.failures]
            assert {r.edge_id for r in rep.results if r.status == "skip"} <= {
                "K<=(1+c)L", "H<=sqrt(chi2)"}

    def test_line_values_against_the_embedding(self):
        # the line's intervals include the embedding's balls, W and P are the
        # same transport problems on either side, and the weight-based
        # metrics and instance facts read the same merged weights and gaps
        for F, G in _atomic_pairs(200, seed=1):
            space, mu, nu = embed_atomic_pair(F, G)
            ctx = real_atomic_context(F, G)
            assert ctx.values["disc"] >= discrepancy_finite(mu, nu) - 1e-15
            assert abs(ctx.values["wasserstein"] - wasserstein_finite(mu, nu)[0]) < 1e-12
            assert abs(ctx.values["prokhorov"] - prokhorov(mu, nu)) <= 1e-15
            for key in ("tv", "hellinger", "entropy", "chi2", "separation"):
                assert ctx.values[key] == FINITE_METRICS[key](mu, nu), key
            assert (ctx.d_min, ctx.diam) == (space.d_min, space.diam)
            assert ctx.nu_dominates_mu is nu_dominates_mu(mu, nu)

    def test_identical_pair_reads_zero(self):
        F = RealAtomicDistribution.from_pairs([(0.0, 0.25), (0.5, 0.5), (2.0, 0.25)])
        ctx = real_atomic_context(F, F)
        assert all(v == 0.0 for v in ctx.values.values()), ctx.values
        assert evaluate_edges(ctx).passed

    def test_no_finite_geometry_is_read(self, monkeypatch, tmp_path, transport_solves):
        # certify and compute read every value and phi on the line: no finite
        # space is built and the transport solver never runs
        calls = dict.fromkeys(("wasserstein_finite", "discrepancy_finite", "ball_growth_at",
                               "prokhorov"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(tp, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(tp, name, counted)
        spaces = []
        post_init = FiniteMetricSpace.__post_init__

        def counted_space(space):
            spaces.append(space)
            post_init(space)

        monkeypatch.setattr(FiniteMetricSpace, "__post_init__", counted_space)
        F = RealAtomicDistribution.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        G = RealAtomicDistribution.from_pairs([(-0.5, 0.5), (1.5, 0.5)])
        assert certify(F, G).passed
        files = []
        for name, dist in (("f", F), ("g", G)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"atoms": [
                {"x": x, "w": w} for x, w in zip(dist.positions.tolist(),
                                                 dist.weights.tolist())]}))
            files.append(str(path))
        for metric in METRIC_NAMES:
            assert main(["compute", "--metric", metric, "--mu", files[0],
                         "--nu", files[1], "--out", str(tmp_path / "v.txt")]) == 0
        assert calls == dict.fromkeys(calls, 0)
        assert transport_solves.count == 0
        assert spaces == []


class TestMutualConvergence:
    def test_hellinger_and_tv_shrink_together(self):
        space, mu0, _, nu = z10_measures()
        prev_tv = prev_h = None
        for k in (2, 4, 8, 16, 64, 256):
            mix = DiscreteDistribution(
                space, (1 - 1 / k) * nu.p + (1 / k) * mu0.p)
            ctx = finite_context(mix, nu, f"mix-{k}")
            tv, h = ctx.values["tv"], ctx.values["hellinger"]
            assert h * h / 2 <= tv + 1e-12 and tv <= h + 1e-12
            if prev_tv is not None:
                assert tv <= prev_tv + 1e-12 and h <= prev_h + 1e-12
            prev_tv, prev_h = tv, h
        assert prev_tv < 0.01 and prev_h < 0.05


class TestRandomInstances:
    @pytest.mark.parametrize("size_range", [(5, 3), (4.5, 6), (4, "6"), (0, 3), (4, 65),
                                            (True, 5)])
    def test_bad_size_range_names_the_field(self, size_range):
        with pytest.raises(ValueError, match="^size_range: "):
            random_instance(0, 0, size_range)

    @pytest.mark.parametrize("kwargs, field", [
        ({"sparsity": math.nan}, "sparsity"),
        ({"sparsity": -1.0}, "sparsity"),
        ({"sparsity": 2.0}, "sparsity"),
        # past 4,300 digits the message's repr raised; a str a bare TypeError
        ({"sparsity": 10 ** 5000}, "sparsity"),
        ({"sparsity": "0.5"}, "sparsity"),
        ({"kind": "bogus"}, "kind"),
        ({"size_range": (3,)}, "size_range"),
        ({"size_range": 5}, "size_range"),
    ], ids=["sparsity-nan", "sparsity-negative", "sparsity-above-one", "sparsity-huge",
            "sparsity-str", "kind", "size_range-one-entry", "size_range-scalar"])
    def test_bad_fields_name_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            random_instance(0, 0, **kwargs)

    @pytest.mark.parametrize("seed, index, field", [
        (True, 0, "seed"), (0.5, 0, "seed"), (-1, 0, "seed"), (np.float64(2.0), 0, "seed"),
        (0, True, "index"), (0, 2.5, "index"), (0, -3, "index"), (0, "1", "index"),
    ], ids=["seed-bool", "seed-fraction", "seed-negative", "seed-numpy-float",
            "index-bool", "index-fraction", "index-negative", "index-str"])
    def test_bad_seed_or_index_names_the_field(self, seed, index, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            random_instance(seed, index)

    @pytest.mark.parametrize("sparsity, same_as", [
        (0, 0.0), (1, 1.0), (np.float64(0.25), 0.25), (Fraction(1, 4), 0.25)])
    def test_real_sparsity_read_as_its_float(self, sparsity, same_as):
        a, b = random_instance(3, 1, sparsity=sparsity), random_instance(3, 1, sparsity=same_as)
        assert a.instance_id == b.instance_id
        assert np.array_equal(a.mu.p, b.mu.p) and np.array_equal(a.nu.p, b.nu.p)

    def test_numpy_integer_seed_and_index_accepted(self):
        a = random_instance(np.int64(5), np.int32(3))
        assert a.instance_id == random_instance(5, 3).instance_id
        assert np.array_equal(a.mu.p, random_instance(5, 3).mu.p)

    @pytest.mark.parametrize("trials", [True, False])
    def test_campaign_rejects_a_bool_for_trials(self, trials):
        with pytest.raises(ValueError, match="^trials: must be an integer"):
            certification_campaign(trials)

    def test_campaign_rejects_fractional_trials(self):
        with pytest.raises(ValueError, match="^trials: "):
            certification_campaign(2.5)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_campaign_rejects_trials_below_one(self, trials):
        with pytest.raises(ValueError, match="^trials: must be >= 1"):
            certification_campaign(trials)

    def test_deterministic(self):
        a = random_instance(5, 3, (4, 10), "random-metric", 0.3)
        b = random_instance(5, 3, (4, 10), "random-metric", 0.3)
        assert np.array_equal(a.space.d, b.space.d)
        assert np.array_equal(a.mu.p, b.mu.p) and np.array_equal(a.nu.p, b.nu.p)

    def test_cycle_kind(self):
        inst = random_instance(0, 0, (10, 10), "cycle", 0.0)
        assert np.array_equal(inst.space.d, FiniteMetricSpace.cycle(10).d)

    def test_sparsity_statistics(self):
        zeros = total = 0
        for i in range(1000):
            inst = random_instance(17, i, (16, 16), "euclidean", 0.5)
            zeros += int(np.sum(inst.mu.p == 0.0))
            total += inst.space.n
        frac = zeros / total
        assert abs(frac - 0.5) <= 0.05

    def test_campaign_small(self):
        reports = certification_campaign(trials=30, seed=1)
        assert len(reports) == 30
        assert all(r.passed for r in reports)
        assert all(len(r.results) == 19 for r in reports)

    def test_phi_matches_tightest_modulus_on_campaign_instances(self):
        # the context evaluates phi once, where the D<=P+phi(P) edge reads it;
        # that point value must equal the full modulus read at the same point
        kinds, sparsities = ("euclidean", "cycle", "random-metric"), (0.0, 0.3)
        for i in range(60):
            inst = random_instance(0, i, (4, 10), kinds[i % 3], sparsities[(i // 3) % 2])
            ctx = finite_context(inst.mu, inst.nu)
            x = ctx.values["prokhorov"] + 1e-12
            assert abs(ctx.phi(x) - tightest_ball_growth(inst.nu).at(x)) <= 1e-12


class TestSerialization:
    def test_empty_csv_is_header_only(self):
        assert reports_to_csv([]) == \
            "instance_id,edge_id,lhs,rhs,h_rhs,slack,status\n"

    def test_single_edge_report_two_lines(self):
        rep = CertificationReport("one", (EdgeResult(
            "TV<=H", 0.5, 0.9, 0.9, 0.4, "pass"),))
        text = reports_to_csv([rep])
        assert len(text.strip().split("\n")) == 2
        assert "one,TV<=H,0.5,0.9,0.9,0.4,pass" in text

    def test_json_round_trip(self):
        _, mu, _, unif = z10_measures()
        reports = [certify(mu, unif, instance_id="z10"),
                   certify(unif, mu, instance_id="z10-swapped")]
        back = reports_from_json(reports_to_json(reports))
        assert back == reports

    @pytest.mark.parametrize("payload, message", [
        ("{", "report: malformed JSON"),
        ({"version": "1"}, "report.reports: missing"),
        ([], "report: expected a JSON object"),
        ({"reports": []}, "report.version: missing"),
        ({"version": "2", "reports": []}, "report.version: unsupported"),
        ({"version": "1", "reports": 5}, "report.reports: expected a JSON list"),
        ({"version": "1", "reports": [{"edges": []}]}, "report.reports.instance_id: missing"),
        ({"version": "1", "reports": [{"instance_id": "a", "edges": [{"edge_id": "TV<=H"}]}]},
         "report.edges.lhs: missing"),
        ({"version": "1", "reports": [{"instance_id": "a", "edges": [
            {"edge_id": "TV<=H", "lhs": "abc", "rhs": 0.1, "h_rhs": 0.1, "slack": 0.0,
             "status": "pass"}]}]}, "report.edges.lhs: not a number: 'abc'"),
        # this report loaded with `passed` True: only "fail" counts as a failure
        ({"version": "1", "reports": [{"instance_id": "a", "edges": [
            {"edge_id": "TV<=H", "lhs": 0.9, "rhs": 0.1, "h_rhs": 0.1, "slack": -0.8,
             "status": "bogus"}]}]}, "report.edges.status: not pass, fail or skip: 'bogus'"),
        ({"version": "1", "reports": [{"instance_id": "a", "edges": [
            {"edge_id": 7, "lhs": 0.1, "rhs": 0.1, "h_rhs": 0.1, "slack": 0.0,
             "status": "pass"}]}]}, "report.edges.edge_id: not a string: 7"),
        ({"version": "1", "reports": [{"instance_id": "a", "edges": [
            {"edge_id": "TV<=H", "lhs": True, "rhs": 0.1, "h_rhs": 0.1, "slack": 0.0,
             "status": "pass"}]}]}, "report.edges.lhs: not a number: True"),
        ({"version": "1", "reports": [{"instance_id": "a", "edges": [
            {"edge_id": "TV<=H", "lhs": 0.1, "rhs": "1e-1", "h_rhs": 0.1, "slack": 0.0,
             "status": "pass"}]}]}, "report.edges.rhs: not a number: '1e-1'"),
        ({"version": "1", "reports": [{"instance_id": "a", "edges": [
            {"edge_id": "TV<=H", "lhs": 0.1, "rhs": 0.1, "h_rhs": 10 ** 400, "slack": 0.0,
             "status": "pass"}]}]}, "report.edges.h_rhs: not a number: 1000"),
        ({"version": "1", "reports": [{"instance_id": 7, "edges": []}]},
         "report.reports.instance_id: not a string: 7"),
        # this report loaded the int 7 as the edge's reason
        ({"version": "1", "reports": [{"instance_id": "a", "edges": [
            {"edge_id": "TV<=H", "lhs": 0.1, "rhs": 0.1, "h_rhs": 0.1, "slack": 0.0,
             "status": "skip", "reason": 7}]}]}, "report.edges.reason: not a string: 7"),
    ], ids=["truncated", "no-reports", "list", "no-version", "version-2", "reports-number",
            "no-instance-id", "no-lhs", "lhs-string", "status-bogus", "edge-id-number",
            "lhs-bool", "rhs-numeric-string", "h-rhs-past-float", "instance-id-number",
            "reason-number"])
    def test_malformed_json_names_the_key(self, payload, message):
        text = payload if isinstance(payload, str) else json.dumps(payload)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            reports_from_json(text)

    def test_infinities_survive_round_trip(self):
        rep = CertificationReport("inf-case", (EdgeResult(
            "I<=log1p(chi2)", math.inf, np.float64(math.inf), -math.inf, math.inf, "pass"),))
        assert reports_from_json(reports_to_json([rep])) == [rep]

    def test_integer_fields_read_as_floats(self):
        text = json.dumps({"version": "1", "reports": [{"instance_id": "a", "edges": [
            {"edge_id": "TV<=H", "lhs": 0, "rhs": 1, "h_rhs": None, "slack": 1,
             "status": "pass"}]}]})
        (r,) = reports_from_json(text)[0].results
        assert [type(x) for x in (r.lhs, r.rhs, r.slack)] == [float] * 3
        assert (r.lhs, r.rhs, r.h_rhs, r.slack) == (0.0, 1.0, None, 1.0)
        assert r.reason == ""  # left out, as it may be

    def test_nan_survives_round_trip(self):
        rep = CertificationReport("nan-case", (EdgeResult(
            "TV<=H", math.nan, 0.1, 0.1, np.float64(math.nan), "fail"),))
        text = reports_to_json([rep])
        json.loads(text, parse_constant=lambda name: pytest.fail(f"bare {name}"))
        (back,) = reports_from_json(text)
        r = back.results[0]
        assert (r.edge_id, r.rhs, r.h_rhs, r.status) == ("TV<=H", 0.1, 0.1, "fail")
        assert math.isnan(r.lhs) and math.isnan(r.slack)

    def test_csv_floats_round_trip_exactly(self):
        import csv as csv_mod
        import io
        _, mu, _, unif = z10_measures()
        rep = certify(mu, unif, instance_id="z10")
        text = reports_to_csv([rep])
        rows = list(csv_mod.reader(io.StringIO(text)))
        for row, result in zip(rows[1:], rep.results):
            if result.status == "skip":
                assert row[2] == ""
                continue
            assert float(row[2]) == result.lhs    # shortest round-trip format
            assert float(row[4]) == result.h_rhs
