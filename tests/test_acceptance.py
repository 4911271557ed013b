"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured runtime (run with -s to see them). Tolerances are fixed here,
not calibrated elsewhere.
"""

import math
import time

import numpy as np

import metric_atlas as ma
from metric_atlas.bounds import certification_campaign, random_instance
from metric_atlas.divergences import (GEN_CHI_SQUARED, GEN_RELATIVE_ENTROPY,
                                      GEN_SQUARED_HELLINGER, GEN_TOTAL_VARIATION,
                                      chi_squared_kernel, relative_entropy_kernel)
from metric_atlas.oracles import (cdg_disc_window_oracle,
                                  mixed_discrepancy_scan_oracle,
                                  prokhorov_exhaustive)
from metric_atlas.spaces import DiscreteDistribution, RealAtomicDistribution
from metric_atlas.walks import CdgWalk

from conftest import embed_atomic_pair


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - start) * 1000.0


def best_of(fn, repeats):
    fn()  # warm-up
    return min(timed(fn)[1] for _ in range(repeats))


def report(k, detail, ms, limit_ms):
    print(f"ACCEPTANCE {k}: PASS ({ms:.3f} ms, limit {limit_ms:g} ms) {detail}")
    assert ms < limit_ms, f"criterion {k} exceeded its runtime budget: {ms:.1f} ms"


def test_acceptance_01_z10_values():
    space, mu, nu, unif = ma.z10_measures()

    def run():
        return (ma.relative_entropy(mu, unif), ma.relative_entropy(nu, unif),
                ma.total_variation(mu, unif), ma.total_variation(nu, unif))

    (e_mu, e_nu, tv_mu, tv_nu), _ = timed(run)
    ms = best_of(run, 5)
    assert abs(e_mu - 1.075) <= 1e-3
    assert abs(e_nu - 0.693) <= 1e-3
    assert abs(tv_mu - 0.5) <= 1e-12
    assert abs(tv_nu - 0.5) <= 1e-12
    report(1, f"entropies {e_mu:.4f}/{e_nu:.4f}, tv {tv_mu}/{tv_nu}", ms, 1.0)


def test_acceptance_02_dudley_sequence():
    cases = [(n, *ma.dudley_instance(n)[1:]) for n in (2, 5, 10, 1000)]

    def run():
        return [(n, ma.wasserstein_finite(p_n, tgt)[0], ma.prokhorov(p_n, tgt))
                for n, p_n, tgt in cases]

    results, _ = timed(run)
    ms = best_of(run, 3)
    for n, w, p in results:
        assert abs(w - 1.0) <= 1e-12, (n, w)
        assert abs(p - 1.0 / n) <= 1e-9, (n, p)
    report(2, "W = 1 and P = 1/n for n in {2, 5, 10, 1000}", ms, 10.0)


def test_acceptance_03_nested_uniforms():
    from metric_atlas.spaces import FiniteMetricSpace
    s = FiniteMetricSpace.euclidean(np.arange(1.0, 11.0))
    u10 = DiscreteDistribution.uniform(s)
    u9 = DiscreteDistribution(s, np.array([1 / 9] * 9 + [0.0]))

    def run():
        return (ma.total_variation(u10, u9), ma.separation(u9, u10),
                ma.separation(u10, u9))

    (tv, sep_swapped, sep_literal), _ = timed(run)
    ms = best_of(run, 5)
    assert abs(tv - 0.1) < 1e-15
    assert sep_swapped == 1.0          # order exhibiting non-domination
    assert abs(sep_literal - 0.1) < 1e-12
    report(3, f"tv = {tv}, separation(swapped) = {sep_swapped}", ms, 1.0)


def test_acceptance_04_certification_campaign():
    def run():
        return certification_campaign(trials=1000, seed=0, size_range=(4, 10))

    reports, ms = timed(run)
    rows = sum(len(r.results) for r in reports)
    failures = [f for r in reports for f in r.failures]
    assert rows == 1000 * 19
    assert not failures, failures[:5]
    report(4, "1000 instances x 19 edges, zero failures", ms, 60_000.0)


def test_acceptance_05_oracle_equivalence():
    def run():
        gap_p = 0.0
        kinds = ("euclidean", "cycle", "random-metric")
        for i in range(200):
            inst = random_instance(41, i, (2, 8), kinds[i % 3],
                                   0.3 if i % 2 else 0.0)
            gap_p = max(gap_p, abs(ma.prokhorov(inst.mu, inst.nu)
                                   - prokhorov_exhaustive(inst.mu, inst.nu)))
        gap_w = 0.0
        rng = np.random.default_rng(42)
        for _ in range(200):
            m = int(rng.integers(2, 9))
            xs = np.sort(rng.normal(size=m) * 3)
            F = RealAtomicDistribution(xs, rng.dirichlet(np.ones(m)))
            G = RealAtomicDistribution(xs, rng.dirichlet(np.ones(m)))
            _, mu, nu = embed_atomic_pair(F, G)
            gap_w = max(gap_w, abs(ma.wasserstein_finite(mu, nu)[0]
                                   - ma.wasserstein_real(F, G)))
        gap_c = 0.0
        rng = np.random.default_rng(43)
        for p in (5, 101, 1023):
            for _ in range(100):
                v = rng.dirichlet(np.ones(p))
                gap_c = max(gap_c, abs(ma.cdg_discrepancy(v)
                                       - cdg_disc_window_oracle(v)))
        return gap_p, gap_w, gap_c

    (gap_p, gap_w, gap_c), ms = timed(run)
    assert gap_p <= 1e-9
    assert gap_w <= 1e-10
    assert gap_c <= 1e-11
    report(5, f"gaps: prokhorov {gap_p:.2e}, wasserstein {gap_w:.2e}, "
              f"cdg {gap_c:.2e}", ms, 30_000.0)


def test_acceptance_06_f_divergence_specialization():
    def run():
        worst = 0.0
        rng = np.random.default_rng(7)
        from metric_atlas.spaces import FiniteMetricSpace
        space = FiniteMetricSpace.euclidean(rng.normal(size=(10, 2)))
        for i in range(500):
            sparsity = (0.0, 0.25)[i % 2]
            p = rng.dirichlet(np.ones(10))
            q = rng.dirichlet(np.ones(10))
            if sparsity:
                for vec in (p, q):
                    drop = rng.random(10) < sparsity
                    drop[int(np.argmax(vec))] = False
                    vec[drop] = 0.0
                    vec /= vec.sum()
            mu = DiscreteDistribution(space, p)
            nu = DiscreteDistribution(space, q)
            pairs = [(GEN_CHI_SQUARED, ma.chi_squared(mu, nu)),
                     (GEN_RELATIVE_ENTROPY, ma.relative_entropy(mu, nu)),
                     (GEN_TOTAL_VARIATION, ma.total_variation(mu, nu)),
                     (GEN_SQUARED_HELLINGER, ma.hellinger(mu, nu) ** 2)]
            for gen, direct in pairs:
                generic = ma.f_divergence(gen, mu, nu)
                if math.isinf(direct) or math.isinf(generic):
                    assert math.isinf(direct) and math.isinf(generic)
                else:
                    worst = max(worst, abs(generic - direct))
        return worst

    worst, ms = timed(run)
    assert worst <= 1e-12
    report(6, f"four generators on 500 pairs, worst gap {worst:.2e}", ms, 5_000.0)


def test_acceptance_07_product_identities():
    def run():
        rng = np.random.default_rng(11)
        from metric_atlas.spaces import FiniteMetricSpace
        worst_aff = worst_ent = worst_chi = 0.0
        for n1, n2 in ((2, 3), (8, 5), (16, 16), (16, 11)):
            s1 = FiniteMetricSpace.euclidean(rng.normal(size=(n1, 2)))
            s2 = FiniteMetricSpace.euclidean(rng.normal(size=(n2, 2)))
            for _ in range(12):
                mu1 = DiscreteDistribution(s1, rng.dirichlet(np.ones(n1)))
                nu1 = DiscreteDistribution(s1, rng.dirichlet(np.ones(n1)))
                mu2 = DiscreteDistribution(s2, rng.dirichlet(np.ones(n2)))
                nu2 = DiscreteDistribution(s2, rng.dirichlet(np.ones(n2)))
                p = np.kron(mu1.p, mu2.p)
                q = np.kron(nu1.p, nu2.p)
                aff = ma.product_hellinger_affinity([(mu1, nu1), (mu2, nu2)])
                worst_aff = max(worst_aff, abs(
                    aff - math.fsum(np.sqrt(p * q).tolist())))
                ent = ma.product_relative_entropy([(mu1, nu1), (mu2, nu2)])
                worst_ent = max(worst_ent, abs(ent - relative_entropy_kernel(p, q)))
                chi = ma.product_chi_squared([(mu1, nu1), (mu2, nu2)])
                worst_chi = max(worst_chi, abs(chi - chi_squared_kernel(p, q))
                                / max(1.0, chi))
        return worst_aff, worst_ent, worst_chi

    (worst_aff, worst_ent, worst_chi), ms = timed(run)
    assert worst_aff <= 1e-12
    assert worst_ent <= 1e-12
    assert worst_chi <= 1e-10
    report(7, f"gaps: affinity {worst_aff:.2e}, entropy {worst_ent:.2e}, "
              f"chi2 {worst_chi:.2e} (relative)", ms, 5_000.0)


def test_acceptance_08_cdg_qualitative_separation():
    """Discrepancy mixes in a number of steps linear in t = log2(p + 1) on
    the doubling walk over p = 2^t - 1, while total variation falls further
    behind as t grows (Chung, Diaconis & Graham: order log p against order
    log p * log log p).

    For t in {8, 10, 12, 14}, run 3t steps from the point mass and check:
    disc < 0.01 by step 2t; tv at step 2t is above disc and strictly
    increases with t; the lag n_tv(0.01) - n_disc(0.01) between the first
    steps below 0.01 strictly increases with t.

    The contrast cannot be read off one modulus as a window where disc is
    small while tv is still near 1. Until the support covers the cycle at
    step t - 1, it is an arc of 2^(k+1) - 1 points, itself a ball, so disc is
    at least the unreached mass 1 - (2^(k+1) - 1)/p, and D <= TV puts tv
    there too: at p = 1023, tv > 0.9 only through step 5, where both are
    0.938. From step t, disc sits on a plateau near 0.07 until about 1.5t,
    while tv is already 0.158 at step t and never rises again; disc first
    drops below 0.05 at step 18, where tv is 0.045. So no step at p = 1023
    has disc < 0.05 while tv > 0.9.
    """
    ts = (8, 10, 12, 14)
    threshold = 0.01

    def run():
        out = {}
        for t in ts:
            walk = CdgWalk.mersenne(t)
            tvs, discs = [], []
            for _ in range(3 * t):
                d = walk.step().distances()
                tvs.append(d["tv"])
                discs.append(d["disc"])
            out[t] = (tvs, discs)
        return out

    def first_below(values):
        return next((k + 1 for k, v in enumerate(values) if v < threshold), None)

    runs, ms = timed(run)
    rows = {}
    for t, (tvs, discs) in runs.items():
        rows[t] = {"n_disc": first_below(discs), "n_tv": first_below(tvs),
                   "disc_2t": discs[2 * t - 1], "tv_2t": tvs[2 * t - 1]}
    table = "; ".join(
        f"t={t}: n_disc={r['n_disc']} n_tv={r['n_tv']} "
        f"disc(2t)={r['disc_2t']:.4f} tv(2t)={r['tv_2t']:.4f}"
        for t, r in rows.items())

    assert ms < 20_000.0
    for t, r in rows.items():
        assert r["disc_2t"] < threshold, f"disc not below {threshold} by step 2t at t={t}: {table}"
        assert r["tv_2t"] > r["disc_2t"], f"tv not above disc at step 2t, t={t}: {table}"
        assert r["n_tv"] is not None, f"tv not below {threshold} within 3t steps at t={t}: {table}"
    tv_2t = [rows[t]["tv_2t"] for t in ts]
    assert all(a < b for a, b in zip(tv_2t, tv_2t[1:])), (
        f"tv at step 2t does not increase with t: {table}")
    gaps = [rows[t]["n_tv"] - rows[t]["n_disc"] for t in ts]
    assert all(a < b for a, b in zip(gaps, gaps[1:])), (
        f"crossing gap n_tv - n_disc does not widen with t: {table}")
    report(8, f"n_tv - n_disc = {gaps} at t = {list(ts)}", ms, 20_000.0)


def test_acceptance_09_product_walk_rate_ordering():
    def run():
        out = {}
        for n in (10, 20, 40):
            out[n] = ma.product_walk_crossing_times(n, 2 ** n, threshold=0.25)
        return out

    times, ms = timed(run)
    details = []
    for n, ct in times.items():
        assert ct["tv"] <= ct["entropy"] <= ct["chi2"], (n, ct)
        ratio = ct["chi2"] / (n * n * math.log(2.0))
        assert 0.5 <= ratio <= 2.0, (n, ratio)
        details.append(f"n={n}: ratio {ratio:.3f}")
    report(9, "tau_tv <= tau_entropy <= tau_chi2; " + "; ".join(details),
           ms, 10_000.0)


def test_acceptance_10_binomial_normal_contrast():
    def run():
        out = {n: ma.binomial_normal_demo(n) for n in (16, 1000)}
        # confirm the frozen 0.05 threshold against the interval-scan oracle
        F = ma.standardized_binomial(1000)
        G = ma.gaussian_cdf(0.0, 1.0, math.sqrt(1000) + 2.0)
        return out, mixed_discrepancy_scan_oracle(F, G)

    (out, oracle_1000), ms = timed(run)
    assert out[16]["tv"] == 1.0
    assert out[1000]["tv"] == 1.0
    assert out[1000]["disc"] < out[16]["disc"]
    assert abs(out[1000]["disc"] - oracle_1000) <= 1e-12
    assert out[1000]["disc"] < 0.05
    report(10, f"tv = 1 exactly; disc: {out[16]['disc']:.4f} -> "
               f"{out[1000]['disc']:.4f} (oracle-confirmed)", ms, 5_000.0)
