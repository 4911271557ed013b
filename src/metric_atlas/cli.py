"""Command-line entry point.

Commands
  compute       one metric for a pair of distribution files
  certify       randomized bound-certification campaign (CSV/JSON report)
  walk-cdg      doubling-walk trace: columns step, tv, disc
  walk-product  product-walk trace: columns time, tv, entropy, chi2,
                hellinger, separation
  demo          headline example values as JSON

Exit codes: 0 success, 1 input error, 2 internal certification failure
(a violated bound, which signals a bug, never an expected outcome).
Numeric CSV fields use shortest round-trip formatting.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds, transport, walks
from .divergences import relative_entropy, total_variation
from .spaces import DiscreteDistribution, _integer, _real, distribution_from_json

METRIC_NAMES = sorted(set(bounds.FINITE_METRICS) | set(bounds.LINE_METRICS) | {"kl"})


def _load_distribution(path: str):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"inputs: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"inputs: malformed JSON in {path}: {exc}") from None
    return distribution_from_json(obj)


def _compute_metric(metric: str, mu, nu) -> float:
    """One metric of a pair: two finite measures on their space, or two
    atomic CDFs on the line, each read as `bounds.real_atomic_context` reads
    it and nothing else read."""
    finite = isinstance(mu, DiscreteDistribution)
    if finite != isinstance(nu, DiscreteDistribution):
        raise ValueError("inputs: mu and nu must both be finite-space or both real-line")
    key = "entropy" if metric == "kl" else metric
    table = bounds.FINITE_METRICS if finite else bounds.LINE_METRICS
    if key not in table:
        raise ValueError(f"metric: {metric} applies only to measures on the real line")
    return table[key](mu, nu)


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"out: cannot write {path}: {exc}") from None


def _parse_size_range(raw: str) -> tuple[int, int]:
    try:
        lo, hi = raw.split("..")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"size: expected LO..HI, got {raw!r}") from None
    return lo_i, hi_i


def _parse_time(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"times: not a number: {token!r}") from None


def _csv_rows(rows) -> str:
    """rows as CSV under their keys; str writes a float in its shortest
    round-trip form."""
    lines = [",".join(rows[0])]
    lines += [",".join(str(v) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def _cmd_compute(args) -> int:
    mu = _load_distribution(args.mu)
    nu = _load_distribution(args.nu)
    value = _compute_metric(args.metric, mu, nu)
    _write(args.out, repr(float(value)) + "\n")
    return 0


def _cmd_certify(args) -> int:
    reports = bounds.certification_campaign(
        trials=args.trials, seed=args.seed,
        size_range=_parse_size_range(args.size))
    text = (bounds.reports_to_json(reports) if args.format == "json"
            else bounds.reports_to_csv(reports))
    _write(args.out, text)
    n_fail = sum(len(r.failures) for r in reports)
    if n_fail:
        print(f"certification FAILED: {n_fail} violated edge evaluations",
              file=sys.stderr)
        return 2
    return 0


def _cmd_walk_cdg(args) -> int:
    if (args.p is None) == (args.t is None):
        raise ValueError("p, t: give exactly one of --p or --t")
    p = args.p if args.p is not None else walks._mersenne_modulus(args.t)
    rows = walks.cdg_trace(p, args.steps)
    _write(args.out, _csv_rows(rows))
    return 0


def _cmd_walk_product(args) -> int:
    n = _integer("n", args.n, 1, 10 ** 6)  # as walks._check_sizes takes it
    if args.times is not None:
        times = [_parse_time(x) for x in args.times.split(",")]
    else:
        steps = _integer("steps", args.steps, 2, 10 ** 6)  # grid points
        horizon = (2.0 * n ** 2 if args.horizon is None
                   else _real("horizon", args.horizon, 0))  # finite: 0 * inf is NaN
        times = [horizon * k / (steps - 1) for k in range(steps)]
    if args.g is not None:
        g = args.g
    elif n < 1015:  # checked before 2^n is formed
        g = 2 ** n
    else:
        raise ValueError("n: with the default g = 2^n, g log g overflows a float "
                         f"from n = 1015 on, got {n}")
    rows = walks.product_walk_trace(n, g, times)
    _write(args.out, _csv_rows(rows))
    return 0


def _cmd_demo(args) -> int:
    _, mu, nu, unif = walks.z10_measures()
    dudley = {}
    for n in (2, 10):
        space, p_n, target = walks.dudley_instance(n)
        w, _, _ = transport.wasserstein_finite(p_n, target)
        dudley[str(n)] = {"wasserstein": w, "prokhorov": transport.prokhorov(p_n, target)}
    binom = {str(n): walks.binomial_normal_demo(n)
             for n in (16, 10**2, 10**3, 10**4, 10**5, 10**6)}
    payload = {
        "z10": {
            "entropy_skewed": relative_entropy(mu, unif),
            "entropy_flat": relative_entropy(nu, unif),
            "tv_skewed": total_variation(mu, unif),
            "tv_flat": total_variation(nu, unif),
        },
        "two_point_escape": dudley,
        "binomial_vs_normal": binom,
    }
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metric-atlas",
        description="Probability metrics, certified inter-metric bounds, and "
                    "random-walk convergence experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute one metric for a distribution pair")
    p.add_argument("--metric", required=True, choices=METRIC_NAMES)
    p.add_argument("--mu", required=True, help="JSON distribution file")
    p.add_argument("--nu", required=True, help="JSON distribution file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("certify", help="randomized bound certification campaign")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", default="4..10", help="instance size range LO..HI")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("walk-cdg", help="doubling walk on Z_p; CSV (step, tv, disc)")
    p.add_argument("--p", type=int, default=None, help="odd modulus")
    p.add_argument("--t", type=int, default=None, help="use p = 2^t - 1")
    p.add_argument("--steps", type=int, default=60)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_walk_cdg)

    p = sub.add_parser("walk-product",
                       help="coordinate-refresh walk; CSV (time, tv, entropy, "
                            "chi2, hellinger, separation)")
    p.add_argument("--n", type=int, required=True, help="coordinate count")
    p.add_argument("--g", type=int, default=None, help="group size (default 2^n)")
    p.add_argument("--times", default=None, help="comma-separated time points")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_walk_product)

    p = sub.add_parser("demo", help="headline example values as JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
