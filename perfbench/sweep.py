"""Layer sweep: single-call times of the finite-metric layers against n, and
of cdg_discrepancy against t. Not gated; it checks no output.

    python3 perfbench/sweep.py [--out perfbench/out/sweep.json]

The finite layers run on euclidean spaces built with
FiniteMetricSpace.euclidean (random_instance refuses n > 64), with Dirichlet
distributions, at n in SIZES. A layer stops growing n after the first call
that takes longer than BUDGET_S seconds; its cutoff is recorded. Each row is
printed next to the matching row of the ROADMAP "State" table.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import program

SIZES = (10, 20, 40, 80, 160)
CDG_TS = (10, 14, 18, 20)
SEED = 0
# A layer stops growing n after a call slower than this many seconds.
BUDGET_S = 5.0

# Seconds per call in the ROADMAP "State" table, measured on the commit the
# benchmark was written for.
ROADMAP_S = {
    "prokhorov": {20: 0.055, 40: 0.315, 80: 2.3},
    "wasserstein_finite": {20: 0.031, 40: 0.208, 80: 1.5, 160: 13.7},
    "tightest_ball_growth": {20: 0.049, 40: 1.8, 80: 21.5},
    "discrepancy_finite": {160: 0.006},
    "cdg_discrepancy": {14: 0.021, 18: 0.338, 20: 1.5},
}


def _timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the rows as JSON to this file")
    args = parser.parse_args(argv)

    program.import_program()
    import numpy as np
    from metric_atlas import spaces, transport, walks

    import measure

    def pair(n: int):
        rng = np.random.default_rng([SEED, n])
        space = spaces.FiniteMetricSpace.euclidean(rng.normal(size=(n, 2)))
        mu = spaces.DiscreteDistribution(space, rng.dirichlet(np.ones(n)))
        nu = spaces.DiscreteDistribution(space, rng.dirichlet(np.ones(n)))
        return mu, nu

    layers = {
        "prokhorov": lambda mu, nu: transport.prokhorov(mu, nu),
        "wasserstein_finite": lambda mu, nu: transport.wasserstein_finite(mu, nu),
        "tightest_ball_growth": lambda mu, nu: transport.tightest_ball_growth(nu),
        "discrepancy_finite": lambda mu, nu: transport.discrepancy_finite(mu, nu),
    }
    rows, cutoffs = [], {}

    def record(layer: str, size_key: str, size: int, seconds: float):
        roadmap = ROADMAP_S.get(layer, {}).get(size)
        rows.append({"layer": layer, size_key: size, "seconds": seconds,
                     "roadmap_s": roadmap,
                     "ratio_to_roadmap": seconds / roadmap if roadmap else None})
        print(f"{layer:22s} {size_key}={size:<4d} {seconds:9.4f} s"
              + (f"   ROADMAP {roadmap:g} s, ratio {seconds / roadmap:.2f}" if roadmap else ""),
              file=sys.stderr)
        if seconds > BUDGET_S:
            cutoffs[layer] = {size_key: size, "seconds": seconds}
            return False
        return True

    for layer, call in layers.items():
        for n in SIZES:
            mu, nu = pair(n)
            if not record(layer, "n", n, _timed(lambda: call(mu, nu))):
                break

    for t in CDG_TS:
        walk = walks.CdgWalk.mersenne(t)
        for _ in range(3):
            walk.step()
        if not record("cdg_discrepancy", "t", t, _timed(lambda: walks.cdg_discrepancy(walk.dist))):
            break

    payload = {"budget_s": BUDGET_S, "environment": measure.environment(program.ROOT),
               "rows": rows, "cutoffs": cutoffs}
    text = json.dumps(payload, indent=1)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
