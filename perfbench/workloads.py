"""The four benchmark workloads, the calls they trace, and how each one's
outputs are encoded for the reference check.

Every workload is a closed loop: one caller, and each item starts only after
the previous one returned. Inputs come from a pool whose outputs were
recorded in reference.json. A run visits its pool in whole passes and the
workload seed draws the order of each pass, so any seed stays checkable and
every run does the same work.

The program must be importable (src/ on sys.path) before this module is.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from metric_atlas import bounds, divergences, spaces, transport, walks

import reference

Item = tuple[str, Callable[[], object]]   # (reference key, the call)


@dataclass(frozen=True)
class Workload:
    name: str
    # A timed loop stops only after a whole pass, so that every item of the
    # pool is counted equally often.
    pass_len: int
    setup: Callable[[int], object]                 # seed -> inputs
    items: Callable[[object], Iterator[Item]]      # inputs -> endless items
    pool: Callable[[], list[Item]]                 # every item the reference covers
    # Size of the vectors an item reads when they exceed the caches; the
    # speed probe reads arrays of that size (measure.SpeedProbe).
    stream_mib: int = 0


def _pooled(name: str, build: Callable[[], list[Item]], size: int) -> Workload:
    """A workload that visits a fixed pool in passes, each pass in a fresh
    order drawn from the seed. `build` is the input generation.

    The campaign and certify-n40 pools have odd sizes, so that in a run of
    whole passes the median latency falls among the copies of the middle
    item, not between two items."""
    def items(inputs) -> Iterator[Item]:
        rng, pool = inputs
        while True:
            order = list(pool)
            rng.shuffle(order)
            yield from order

    return Workload(name, size, lambda seed: (random.Random(seed), build()), items, build)


# ---------------------------------------------------------------------------
# campaign: the CLI `certify` path on many tiny instances
# ---------------------------------------------------------------------------

CAMPAIGN_BATCH = 6             # one round of the 3 kinds x 2 sparsities
CAMPAIGN_SIZES = (4, 10)
CAMPAIGN_POOL = tuple(range(1000, 1025))   # batch seeds


def _campaign_call(batch_seed: int) -> Callable[[], object]:
    return lambda: bounds.certification_campaign(
        CAMPAIGN_BATCH, seed=batch_seed, size_range=CAMPAIGN_SIZES)


def _campaign_build() -> list[Item]:
    return [(str(s), _campaign_call(s)) for s in CAMPAIGN_POOL]


# ---------------------------------------------------------------------------
# certify-n40: the same layers on large instances
# ---------------------------------------------------------------------------

N40_POOL_SEED = 40
# Instance i has kind i % 3 and sparsity i % 2.
N40_POOL = 9


def _n40_call(inst) -> Callable[[], object]:
    return lambda: bounds.certify(inst.mu, inst.nu, instance_id=inst.instance_id)


def _n40_build() -> list[Item]:
    pool = []
    for i in range(N40_POOL):
        inst = bounds.random_instance(N40_POOL_SEED, i, (40, 40),
                                      ("euclidean", "random-metric", "cycle")[i % 3],
                                      (0.0, 0.3)[i % 2])
        pool.append((inst.instance_id, _n40_call(inst)))
    return pool


# ---------------------------------------------------------------------------
# walk-cdg-t20: the doubling walk at p = 2^20 - 1, no finite-metric layer
# ---------------------------------------------------------------------------

CDG_T = 20
# The reference covers this many steps; the walk then restarts from the
# point mass (the restart is not part of any item).
CDG_STEPS = 30


class _CdgInputs:
    def __init__(self):
        self.walk = walks.CdgWalk(2 ** CDG_T - 1)


def _cdg_step(walk) -> Callable[[], object]:
    def call():
        walk.step()
        return walk.distances()
    return call


def _cdg_setup(seed: int) -> _CdgInputs:
    # The walk is deterministic; the seed has nothing to vary.
    return _CdgInputs()


def _cdg_items(inputs: _CdgInputs) -> Iterator[Item]:
    while True:
        if inputs.walk.step_count >= CDG_STEPS:
            inputs.walk = walks.CdgWalk(2 ** CDG_T - 1)
        walk = inputs.walk
        yield str(walk.step_count + 1), _cdg_step(walk)


def _cdg_pool() -> list[Item]:
    walk = walks.CdgWalk(2 ** CDG_T - 1)
    return [(str(k), _cdg_step(walk)) for k in range(1, CDG_STEPS + 1)]


# ---------------------------------------------------------------------------
# line-walks: real-line metrics and the closed-form walks
# ---------------------------------------------------------------------------

# The demo's sizes. n stops at 1000: standardized_binomial(n) raises
# "weights must be positive" from n = 1075 on (its tail weights underflow).
BINOMIAL_N = (16, 100, 1000)
PRODUCT_N = (10, 20, 40)


def _binomial_certify(n: int):
    mu = walks.standardized_binomial(n)
    nu = spaces.gaussian_cdf(0.0, 1.0, max(9.0, math.sqrt(n) + 2.0))
    return bounds.certify(mu, nu, instance_id=f"binomial-{n}")


LINE_CALLS: dict[str, Callable[[], object]] = {
    **{f"binomial-{n}": (lambda n=n: _binomial_certify(n)) for n in BINOMIAL_N},
    **{f"product-{n}": (lambda n=n: walks.product_walk_crossing_times(n, 2 ** n))
       for n in PRODUCT_N},
}


# One pass is two items of about equal time, each running some of the six
# calls. The calls take 3 ms to 270 ms each, so with one call per item the
# median would fall on the edge between two calls' times and jump between
# them from run to run. Two items per pass keep a 20 s run at 54 to 78
# items, clear of the tail rule's thresholds at 40 and 100 items.
LINE_ITEMS = (
    ("binomial-1000", "product-20"),
    ("binomial-16", "binomial-100", "product-10", "product-40"),
)


def _line_build() -> list[Item]:
    return [("+".join(keys), lambda keys=keys: {key: LINE_CALLS[key]() for key in keys})
            for keys in LINE_ITEMS]


WORKLOADS = {w.name: w for w in (
    _pooled("campaign", _campaign_build, len(CAMPAIGN_POOL)),
    _pooled("certify-n40", _n40_build, N40_POOL),
    Workload("walk-cdg-t20", 1, _cdg_setup, _cdg_items, _cdg_pool,
             stream_mib=2 ** CDG_T * 8 // 2 ** 20),
    _pooled("line-walks", _line_build, len(LINE_ITEMS)),
)}


# ---------------------------------------------------------------------------
# Output encoding for the reference check
# ---------------------------------------------------------------------------

def catalog() -> list[list[str]]:
    return [[e.edge_id, e.lhs, e.rhs] for e in bounds.edge_catalog()]


def encode(result, edges: list[list[str]]):
    """A report, or a list or dict of encoded outputs and numbers, in the
    form reference.json stores."""
    if isinstance(result, bounds.CertificationReport):
        return reference.encode_report(result, edges)
    if isinstance(result, list):
        return [encode(r, edges) for r in result]
    if isinstance(result, dict):
        return {k: encode(v, edges) for k, v in result.items()}
    return float(result)


def reports_of(result) -> list:
    if isinstance(result, bounds.CertificationReport):
        return [result]
    if isinstance(result, dict):
        result = list(result.values())
    if isinstance(result, list):
        return [r for r in result if isinstance(r, bounds.CertificationReport)]
    return []


# ---------------------------------------------------------------------------
# Traced calls
# ---------------------------------------------------------------------------

PHI_EDGE = "D<=P+phi(P)"


def _phi_points(phi) -> dict[str, int]:
    return {"transport.tightest_ball_growth.points": len(phi.breakpoints)}


# (owner, attribute, span name, counter hook). Each owner is the namespace the
# program's callers look the name up in.
TRACED = (
    (transport, "prokhorov", "transport.prokhorov", None),
    (transport, "wasserstein_finite", "transport.wasserstein_finite", None),
    (transport, "tightest_ball_growth", "transport.tightest_ball_growth", _phi_points),
    (transport, "discrepancy_finite", "transport.discrepancy_finite", None),
    (transport, "kolmogorov", "transport.kolmogorov", None),
    (transport, "levy", "transport.levy", None),
    (transport, "discrepancy_real_mixed", "transport.discrepancy_real_mixed", None),
    (divergences, "total_variation", "divergences.total_variation", None),
    (divergences, "hellinger", "divergences.hellinger", None),
    (divergences, "relative_entropy", "divergences.relative_entropy", None),
    (divergences, "chi_squared", "divergences.chi_squared", None),
    (divergences, "separation", "divergences.separation", None),
    (divergences, "nu_dominates_mu", "divergences.nu_dominates_mu", None),
    (walks, "tv_kernel", "divergences.tv_kernel", None),
    (bounds, "certification_campaign", "bounds.certification_campaign", None),
    (bounds, "certify", "bounds.certify", None),
    (bounds, "finite_context", "bounds.finite_context", None),
    (bounds, "real_mixed_context", "bounds.real_mixed_context", None),
    (bounds, "evaluate_edges", "bounds.evaluate_edges", None),
    (bounds, "random_instance", "bounds.random_instance", None),
    (walks.CdgWalk, "step", "walks.CdgWalk.step", None),
    (walks, "cdg_discrepancy", "walks.cdg_discrepancy", None),
    (walks, "product_walk_crossing_times", "walks.product_walk_crossing_times", None),
    (walks, "product_walk_distances", "walks.product_walk_distances", None),
    (walks, "standardized_binomial", "walks.standardized_binomial", None),
    (spaces.FiniteMetricSpace, "__post_init__", "spaces.FiniteMetricSpace", None),
    (spaces.DiscreteDistribution, "__post_init__", "spaces.DiscreteDistribution", None),
)

LAYER_NAMES = tuple(name for _, _, name, _ in TRACED)


def install(tracer) -> None:
    for owner, attr, name, count in TRACED:
        tracer.wrap(owner, attr, name, count)
