"""Checkers for the witnesses the exact metrics return, each O(n^2) and
numpy-only. They share no code with the solvers, so they verify a value at
sizes the brute-force oracles in `oracles` cannot reach.

A failed check raises ValueError whose message starts with the check's name.
"""

from __future__ import annotations

import math

import numpy as np

from .spaces import MARGINAL_TOL, DiscreteDistribution

WITNESS_TOL = 1e-12  # relative slack on the Lipschitz and duality checks


def check_wasserstein(mu: DiscreteDistribution, nu: DiscreteDistribution,
                      value: float, coupling, f) -> None:
    """Verify W(mu, nu) = value by both sides of Kantorovich-Rubinstein
    duality: sum f (mu - nu) <= W for every 1-Lipschitz f, and W <= the
    cost of every coupling J of mu and nu.

    Checks, in order:
    - witness.marginals: J has no negative entry and its row and column
      sums are mu and nu within MARGINAL_TOL;
    - witness.lipschitz: |f_i - f_j| <= d_ij within WITNESS_TOL * (1 + diam);
    - witness.gap: sum f (mu - nu) and sum J d both equal value within
      WITNESS_TOL * (1 + value).
    """
    d = mu.space.d
    J = np.asarray(coupling.J, dtype=float)
    f = np.asarray(f, dtype=float)
    if J.shape != d.shape or f.shape != mu.p.shape:
        raise ValueError("witness.marginals: shapes do not match the space")
    if np.any(J < 0.0):
        raise ValueError("witness.marginals: negative coupling entry")
    off = max(float(np.max(np.abs(J.sum(axis=1) - mu.p))),
              float(np.max(np.abs(J.sum(axis=0) - nu.p))))
    if not off <= MARGINAL_TOL:
        raise ValueError(f"witness.marginals: off by {off!r}")
    excess = float(np.max(np.abs(f[:, None] - f[None, :]) - d))
    if not excess <= WITNESS_TOL * (1.0 + float(d.max())):
        raise ValueError(f"witness.lipschitz: |f_i - f_j| exceeds d_ij by {excess!r}")
    lower = math.fsum((f * (mu.p - nu.p)).tolist())
    upper = math.fsum((J * d).ravel().tolist())
    tol = WITNESS_TOL * (1.0 + abs(value))
    if not (abs(value - lower) <= tol and abs(upper - value) <= tol):
        raise ValueError(f"witness.gap: sum f (mu - nu) = {lower!r} and "
                         f"sum J d = {upper!r} do not both equal {value!r}")
