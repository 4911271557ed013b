"""Probability metrics on finite metric spaces and the real line, with a
machine-checked catalog of inter-metric bounds and exact random-walk
convergence experiments."""

from .spaces import (Coupling, DiscreteDistribution, FiniteMetricSpace,
                     RealAtomicDistribution, SmoothRealCdf, gaussian_cdf)
from .divergences import (ConvexGenerator, GEN_CHI_SQUARED,
                          GEN_RELATIVE_ENTROPY, GEN_SQUARED_HELLINGER,
                          GEN_TOTAL_VARIATION, chi_squared, f_divergence,
                          hellinger, hellinger_affinity, nu_dominates_mu,
                          product_chi_squared, product_hellinger_affinity,
                          product_relative_entropy, relative_entropy,
                          separation, total_variation)
from .transport import (BallGrowthModulus, ball_growth_at, discrepancy_finite,
                        discrepancy_real, discrepancy_real_mixed,
                        interval_growth_at, kolmogorov, levy, prokhorov,
                        prokhorov_real, tightest_ball_growth,
                        wasserstein_finite, wasserstein_real)
from .bounds import (BoundEdge, CertificationReport, EdgeResult,
                     MetricContext, certification_campaign, certify,
                     edge_catalog, evaluate_edges, random_instance,
                     reports_from_json, reports_to_csv, reports_to_json)
from .walks import (CdgWalk, binomial_normal_demo, cdg_discrepancy,
                    crossing_time, dudley_instance,
                    product_walk_crossing_times, product_walk_distances,
                    standardized_binomial, z10_measures)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
