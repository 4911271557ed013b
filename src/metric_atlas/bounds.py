"""Machine-checkable catalog of inter-metric bounds, each naming the two
values and at most one instance condition it needs; randomized instance
generation; and certification reports.

Metric value keys: tv, hellinger, entropy, chi2, separation, disc,
prokhorov, wasserstein, kolmogorov, levy. An edge `A<=h(B)` passes when
lhs <= h(rhs) + 1e-9 * max(1, h(rhs)) (+ any declared grid slack); a +inf
right-hand side passes vacuously, while +inf on the left against a finite
bound fails loudly (that would be an implementation bug, not a near miss), as
does a NaN on either side, with slack NaN.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import divergences as dv
from . import transport as tp
from .spaces import (DiscreteDistribution, FiniteMetricSpace,
                     RealAtomicDistribution, SmoothRealCdf, _integer, _real)

REL_SLACK = 1e-9
# Evaluating the ball-growth modulus just above the computed Prokhorov value
# keeps the bound valid when the flow result lands an ulp below a breakpoint.
_PHI_NUDGE = 1e-12


@dataclass(frozen=True)
class MetricContext:
    """Computed metric values plus the instance facts predicates consult."""

    instance_id: str
    kind: str                     # finite | real-atomic | real-mixed | real-smooth
    values: dict[str, float]
    nu_dominates_mu: bool | None = None
    d_min: float | None = None
    diam: float | None = None
    density_bound: float | None = None
    phi: Callable[[float], float] | None = None  # ball-growth modulus of nu
    extra_slack: float = 0.0


# Instance facts an edge may require besides its two values: each names a
# predicate over the context and the skip reason when it does not hold.
_CONDITIONS: dict[str, tuple[Callable[[MetricContext], bool], str]] = {
    "density_bound": (lambda c: c.density_bound is not None,
                      "no absolutely continuous reference with a density bound"),
    "phi": (lambda c: c.phi is not None, "no ball-growth modulus for this instance"),
    "diam": (lambda c: c.diam is not None, "unbounded space"),
    "d_min": (lambda c: c.d_min is not None, "no minimum distance"),
    "domination": (lambda c: c.nu_dominates_mu is True, "nu does not dominate mu"),
    "countable_or_domination": (
        lambda c: c.kind in ("finite", "real-atomic") or c.nu_dominates_mu is True,
        "needs a countable space or domination"),
}


@dataclass(frozen=True)
class BoundEdge:
    """One directed bound lhs <= transform(rhs). It applies when the context
    holds both values and, if `condition` names one, that instance fact."""

    edge_id: str
    lhs: str
    rhs: str
    transform: Callable[[float, MetricContext], float]
    condition: str | None = None

    def applicable(self, ctx: MetricContext) -> tuple[bool, str]:
        missing = [k for k in (self.lhs, self.rhs) if k not in ctx.values]
        if missing:
            return False, f"unavailable: {','.join(missing)}"
        if self.condition is not None:
            holds, reason = _CONDITIONS[self.condition]
            if not holds(ctx):
                return False, reason
        return True, ""


_CATALOG = (
    # real-line block
    BoundEdge("L<=K", "levy", "kolmogorov", lambda x, c: x),
    BoundEdge("K<=(1+c)L", "kolmogorov", "levy",
              lambda x, c: (1.0 + c.density_bound) * x, "density_bound"),
    BoundEdge("K<=D", "kolmogorov", "disc", lambda x, c: x),
    BoundEdge("D<=2K", "disc", "kolmogorov", lambda x, c: 2.0 * x),
    BoundEdge("L<=P", "levy", "prokhorov", lambda x, c: x),

    # geometric block
    BoundEdge("D<=P+phi(P)", "disc", "prokhorov",
              lambda x, c: (x + _PHI_NUDGE) + c.phi(x + _PHI_NUDGE), "phi"),
    BoundEdge("P<=sqrt(W)", "prokhorov", "wasserstein", lambda x, c: math.sqrt(x)),
    BoundEdge("D<=TV", "disc", "tv", lambda x, c: x),
    BoundEdge("P<=TV", "prokhorov", "tv", lambda x, c: x),
    BoundEdge("W<=diam*TV", "wasserstein", "tv", lambda x, c: c.diam * x, "diam"),
    BoundEdge("TV<=W/dmin", "tv", "wasserstein", lambda x, c: x / c.d_min, "d_min"),

    # density-ratio block
    BoundEdge("TV<=H", "tv", "hellinger", lambda x, c: x),
    BoundEdge("H<=sqrt(2TV)", "hellinger", "tv", lambda x, c: math.sqrt(2.0 * x)),
    BoundEdge("TV<=S", "tv", "separation", lambda x, c: x),
    BoundEdge("TV<=sqrt(I/2)", "tv", "entropy", lambda x, c: math.sqrt(x / 2.0)),
    BoundEdge("H<=sqrt(I)", "hellinger", "entropy", lambda x, c: math.sqrt(x)),
    BoundEdge("H<=sqrt(chi2)", "hellinger", "chi2", lambda x, c: math.sqrt(x),
              "domination"),
    BoundEdge("TV<=sqrt(chi2)/2", "tv", "chi2", lambda x, c: math.sqrt(x) / 2.0,
              "countable_or_domination"),
    BoundEdge("I<=log1p(chi2)", "entropy", "chi2", lambda x, c: math.log1p(x)),
)


def edge_catalog() -> list[BoundEdge]:
    """All nineteen certified inter-metric bounds."""
    return list(_CATALOG)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class EdgeResult(NamedTuple):
    edge_id: str
    lhs: float | None
    rhs: float | None
    h_rhs: float | None
    slack: float | None      # h(rhs) - lhs; negative beyond tolerance means fail
    status: str              # pass | fail | skip
    reason: str = ""


@dataclass(frozen=True)
class CertificationReport:
    instance_id: str
    results: tuple[EdgeResult, ...]

    @property
    def failures(self) -> list[EdgeResult]:
        return [r for r in self.results if r.status == "fail"]

    @property
    def passed(self) -> bool:
        return not self.failures


def evaluate_edges(ctx: MetricContext) -> CertificationReport:
    results = []
    for edge in _CATALOG:
        ok, reason = edge.applicable(ctx)
        if not ok:
            results.append(EdgeResult(edge.edge_id, None, None, None, None,
                                      "skip", reason))
            continue
        lhs = ctx.values[edge.lhs]
        rhs = ctx.values[edge.rhs]
        h = edge.transform(rhs, ctx)
        if math.isnan(lhs) or math.isnan(h):  # NaN compares False: it would pass below
            status, slack = "fail", math.nan
        elif math.isinf(h):
            status, slack = "pass", math.inf
        elif math.isinf(lhs):
            status, slack = "fail", -math.inf
        else:
            slack = h - lhs
            tol = REL_SLACK * max(1.0, abs(h)) + ctx.extra_slack
            status = "fail" if lhs > h + tol else "pass"
        results.append(EdgeResult(edge.edge_id, lhs, rhs, h, slack, status))
    return CertificationReport(ctx.instance_id, tuple(results))


# ---------------------------------------------------------------------------
# Instance contexts
# ---------------------------------------------------------------------------

# The eight metrics of a finite instance, by value key. Each entry looks its
# function up in its module when called, so a module attribute swapped in
# later (a tracer's wrapper, a test double) is the one that runs.
FINITE_METRICS: dict[str, Callable[[DiscreteDistribution, DiscreteDistribution], float]] = {
    "tv": lambda mu, nu: dv.total_variation(mu, nu),
    "hellinger": lambda mu, nu: dv.hellinger(mu, nu),
    "entropy": lambda mu, nu: dv.relative_entropy(mu, nu),
    "chi2": lambda mu, nu: dv.chi_squared(mu, nu),
    "separation": lambda mu, nu: dv.separation(mu, nu),
    "disc": lambda mu, nu: tp.discrepancy_finite(mu, nu),
    "prokhorov": lambda mu, nu: tp.prokhorov(mu, nu),
    "wasserstein": lambda mu, nu: tp.wasserstein_finite(mu, nu)[0],
}


# The ten metrics of two atomic CDFs, by value key, looked up late in the
# same way. The five weight-based ones read the two weight vectors over the
# merged atoms (`merged_weights`); the other five read the two step CDFs.
LINE_METRICS: dict[str, Callable[[RealAtomicDistribution, RealAtomicDistribution], float]] = {
    "tv": lambda F, G: dv.tv_kernel(*merged_weights(F, G)[1:]),
    "hellinger": lambda F, G: dv.hellinger_kernel(*merged_weights(F, G)[1:]),
    "entropy": lambda F, G: dv.relative_entropy_kernel(*merged_weights(F, G)[1:]),
    "chi2": lambda F, G: dv.chi_squared_kernel(*merged_weights(F, G)[1:]),
    "separation": lambda F, G: dv.separation_kernel(*merged_weights(F, G)[1:]),
    "disc": lambda F, G: tp.discrepancy_real(F, G),
    "prokhorov": lambda F, G: tp.prokhorov_real(F, G),
    "wasserstein": lambda F, G: tp.wasserstein_real(F, G),
    "kolmogorov": lambda F, G: tp.kolmogorov(F, G),
    "levy": lambda F, G: tp.levy(F, G),
}


def finite_context(mu: DiscreteDistribution, nu: DiscreteDistribution,
                   instance_id: str = "finite") -> MetricContext:
    """The eight metrics and the instance facts of a finite pair; d_min and
    diam are those of the space the two measures live on."""
    values = {key: metric(mu, nu) for key, metric in FINITE_METRICS.items()}
    return MetricContext(
        instance_id=instance_id,
        kind="finite",
        values=values,
        nu_dominates_mu=dv.nu_dominates_mu(mu, nu),
        d_min=mu.space.d_min,
        diam=mu.space.diam,
        phi=functools.partial(tp.ball_growth_at, nu),
    )


def merged_weights(F: RealAtomicDistribution, G: RealAtomicDistribution
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The merged atoms of F and G, sorted, and the two weight vectors on
    them (zero where a distribution has no atom)."""
    grid = np.union1d(F.positions, G.positions)
    p, q = np.zeros(grid.size), np.zeros(grid.size)
    p[np.searchsorted(grid, F.positions)] = F.weights
    q[np.searchsorted(grid, G.positions)] = G.weights
    return grid, p, q


def real_atomic_context(F: RealAtomicDistribution, G: RealAtomicDistribution,
                        instance_id: str = "real-atomic") -> MetricContext:
    """Atomic pair on the line: the ten LINE_METRICS, and phi the line's,
    over intervals and their complements. nu dominates mu when every atom
    of F is one of G, d_min is the smallest gap of the merged atoms and diam
    the span from the first to the last."""
    values = {key: metric(F, G) for key, metric in LINE_METRICS.items()}
    grid = np.union1d(F.positions, G.positions)
    return MetricContext(instance_id, "real-atomic", values,
                         nu_dominates_mu=grid.size == G.m,
                         d_min=float(np.diff(grid).min(initial=math.inf)),
                         diam=float(grid[-1] - grid[0]),
                         phi=functools.partial(tp.interval_growth_at, G))


def real_mixed_context(F: RealAtomicDistribution, G: SmoothRealCdf,
                       instance_id: str = "real-mixed") -> MetricContext:
    """Atomic mu against an atomless nu: the density-ratio distances are
    degenerate (disjoint densities), the line metrics are computed exactly
    by `transport.smooth_pair`."""
    values = {
        "tv": 1.0,
        "hellinger": math.sqrt(2.0),
        "entropy": math.inf,
        "chi2": math.inf,
        "separation": 1.0,
        **{key: value for key, (value, _) in tp.smooth_pair(F, G).items()},
    }
    return MetricContext(
        instance_id=instance_id,
        kind="real-mixed",
        values=values,
        nu_dominates_mu=False,
        density_bound=G.density_bound,
    )


def real_smooth_context(F: SmoothRealCdf, G: SmoothRealCdf,
                        instance_id: str = "real-smooth") -> MetricContext:
    """Two smooth CDFs: grid-based K, L, and interval discrepancy from
    `transport.smooth_pair`, with the grid error carried as extra slack."""
    pair = tp.smooth_pair(F, G)
    k_err, l_err = pair["kolmogorov"][1], pair["levy"][1]
    return MetricContext(
        instance_id=instance_id,
        kind="real-smooth",
        values={key: value for key, (value, _) in pair.items()},
        density_bound=G.density_bound,
        extra_slack=k_err + (1.0 + G.density_bound) * l_err,
    )


def certify(mu, nu, instance_id: str = "instance") -> CertificationReport:
    """Compute all applicable metrics for the instance and evaluate every
    edge of the catalog."""
    if isinstance(mu, DiscreteDistribution) and isinstance(nu, DiscreteDistribution):
        return evaluate_edges(finite_context(mu, nu, instance_id))
    if isinstance(mu, RealAtomicDistribution) and isinstance(nu, RealAtomicDistribution):
        return evaluate_edges(real_atomic_context(mu, nu, instance_id))
    if isinstance(mu, RealAtomicDistribution) and isinstance(nu, SmoothRealCdf):
        return evaluate_edges(real_mixed_context(mu, nu, instance_id))
    if isinstance(mu, SmoothRealCdf) and isinstance(nu, SmoothRealCdf):
        return evaluate_edges(real_smooth_context(mu, nu, instance_id))
    raise ValueError(f"mu, nu: unsupported instance combination "
                     f"{type(mu).__name__} and {type(nu).__name__}")


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

INSTANCE_KINDS = ("euclidean", "cycle", "random-metric")
# Chance that a campaign instance zeroes each point of a measure.
CAMPAIGN_SPARSITIES = (0.0, 0.3)


@dataclass(frozen=True)
class RandomInstance:
    instance_id: str
    space: FiniteMetricSpace
    mu: DiscreteDistribution
    nu: DiscreteDistribution


def _random_space(rng: np.random.Generator, n: int, kind: str) -> FiniteMetricSpace:
    if kind == "euclidean":
        return FiniteMetricSpace.euclidean(rng.normal(size=(n, 2)))
    if kind == "cycle":
        return FiniteMetricSpace.cycle(max(n, 3))
    if kind == "random-metric":
        w = rng.uniform(0.5, 2.0, size=(n, n))
        w = np.minimum(w, w.T)
        np.fill_diagonal(w, 0.0)
        for k in range(n):  # shortest-path closure keeps the triangle inequality
            w = np.minimum(w, w[:, [k]] + w[[k], :])
        return FiniteMetricSpace(w)
    raise ValueError(f"kind: unknown instance kind {kind!r}")


def _sparse_simplex(rng: np.random.Generator, n: int, sparsity: float) -> np.ndarray:
    p = rng.dirichlet(np.ones(n))
    if sparsity > 0.0:
        drop = rng.random(n) < sparsity
        drop[int(np.argmax(p))] = False  # keep the support non-empty
        p = np.where(drop, 0.0, p)
        p = p / math.fsum(p.tolist())
    return p


def random_instance(seed: int, index: int, size_range: tuple[int, int] = (4, 10),
                    kind: str = "euclidean", sparsity: float = 0.0) -> RandomInstance:
    """Deterministic per (seed, index): a space of the requested kind and a
    Dirichlet(1) distribution pair, optionally with zeroed coordinates to
    exercise domination edge cases."""
    _integer("seed", seed, 0)  # numpy seeds with non-negative integers only
    _integer("index", index, 0)
    if np.shape(size_range) != (2,):
        raise ValueError(f"size_range: need a (low, high) pair, got {size_range!r}")
    lo = _integer("size_range", size_range[0], 1, 64)
    hi = _integer("size_range", size_range[1], lo, 64)
    sparsity = _real("sparsity", sparsity, 0, 1)
    rng = np.random.default_rng([seed, index])
    n = int(rng.integers(lo, hi + 1))
    space = _random_space(rng, n, kind)
    mu = DiscreteDistribution(space, _sparse_simplex(rng, space.n, sparsity))
    nu = DiscreteDistribution(space, _sparse_simplex(rng, space.n, sparsity))
    iid = f"{kind}-n{space.n}-seed{seed}-i{index}-sp{sparsity:g}"
    return RandomInstance(iid, space, mu, nu)


def certification_campaign(trials: int, seed: int = 0,
                           size_range: tuple[int, int] = (4, 10),
                           ) -> list[CertificationReport]:
    """Seeded campaign cycling through INSTANCE_KINDS, then through
    CAMPAIGN_SPARSITIES."""
    trials = _integer("trials", trials, 1)
    mix = [(kind, sparsity) for sparsity in CAMPAIGN_SPARSITIES for kind in INSTANCE_KINDS]
    reports = []
    for i in range(trials):
        kind, sparsity = mix[i % len(mix)]
        inst = random_instance(seed, i, size_range, kind, sparsity)
        ctx = finite_context(inst.mu, inst.nu, inst.instance_id)
        reports.append(evaluate_edges(ctx))
    return reports


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("instance_id", "edge_id", "lhs", "rhs", "h_rhs", "slack", "status")


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(x)


def reports_to_csv(reports: Sequence[CertificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        for r in rep.results:
            writer.writerow([rep.instance_id, r.edge_id, _fmt(r.lhs), _fmt(r.rhs),
                             _fmt(r.h_rhs), _fmt(r.slack), r.status])
    return buf.getvalue()


def reports_to_json(reports: Sequence[CertificationReport]) -> str:
    def num(x):  # JSON has no NaN or inf; repr(float) writes "nan", "inf", "-inf"
        return x if x is None or math.isfinite(x) else repr(float(x))

    payload = {
        "version": "1",
        "reports": [
            {
                "instance_id": rep.instance_id,
                "edges": [
                    {"edge_id": r.edge_id, "lhs": num(r.lhs), "rhs": num(r.rhs),
                     "h_rhs": num(r.h_rhs), "slack": num(r.slack),
                     "status": r.status, "reason": r.reason}
                    for r in rep.results
                ],
            }
            for rep in reports
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def reports_from_json(text: str) -> list[CertificationReport]:
    """Reports written by `reports_to_json`; malformed input raises a
    ValueError naming the offending key."""
    def field(obj, key: str, path: str):
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: expected a JSON object")
        if key not in obj:
            raise ValueError(f"{path}.{key}: missing")
        return obj[key]

    def items(obj, key: str, path: str) -> list:
        value = field(obj, key, path)
        if not isinstance(value, list):
            raise ValueError(f"{path}.{key}: expected a JSON list")
        return value

    def num(edge, key: str):
        # a JSON number or one of the writer's three strings; not a bool,
        # which Python reads as an int
        x = field(edge, key, "report.edges")
        if x is None:
            return None
        if type(x) in (int, float) or x in ("inf", "-inf", "nan"):
            try:
                return float(x)
            except OverflowError:  # an integer past the float range
                pass
        raise ValueError(f"report.edges.{key}: not a number: {x!r}")

    def string(obj, key: str, path: str) -> str:
        x = field(obj, key, path)
        if not isinstance(x, str):
            raise ValueError(f"{path}.{key}: not a string: {x!r}")
        return x

    def status(edge) -> str:
        # `passed` counts only "fail", so any other word would read as a pass
        x = field(edge, "status", "report.edges")
        if x not in ("pass", "fail", "skip"):
            raise ValueError(f"report.edges.status: not pass, fail or skip: {x!r}")
        return x

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"report: malformed JSON: {exc}") from None
    if field(payload, "version", "report") != "1":
        raise ValueError("report.version: unsupported")
    out = []
    for rep in items(payload, "reports", "report"):
        results = tuple(
            EdgeResult(string(e, "edge_id", "report.edges"), num(e, "lhs"), num(e, "rhs"),
                       num(e, "h_rhs"), num(e, "slack"), status(e),
                       string(e, "reason", "report.edges") if "reason" in e else "")
            for e in items(rep, "edges", "report.reports"))
        out.append(CertificationReport(string(rep, "instance_id", "report.reports"), results))
    return out
