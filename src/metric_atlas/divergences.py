"""Density-ratio distances: total variation, Hellinger, relative entropy,
chi-squared, separation, and the convex-generator family that unifies them.

Conventions: natural logarithms throughout; +inf is a first-class value
(relative entropy and chi-squared are extended reals). Sums are reduced with
math.fsum, which is exactly rounded, so the 1e-12 accuracy requirement holds
up to 1e6 terms.

Note on separation: it is evaluated over the support of the second argument
only. With that (literal) reading, separation(uniform{1..n}, uniform{1..n-1})
is 1/n; the often-quoted value 1 for this pair arises with the arguments
exchanged, where the first measure misses part of the reference support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .spaces import DiscreteDistribution, _check_same_space

_EQ_TOL = 1e-12


def _fsum(values) -> float:
    return math.fsum(np.asarray(values, dtype=float).tolist())


# ---------------------------------------------------------------------------
# Array kernels (also used by the walk lab on raw probability vectors)
# ---------------------------------------------------------------------------

def tv_kernel(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * _fsum(np.abs(p - q))


def hellinger_affinity_kernel(p: np.ndarray, q: np.ndarray) -> float:
    return _fsum(np.sqrt(p * q))


def hellinger_kernel(p: np.ndarray, q: np.ndarray) -> float:
    """sqrt(sum (sqrt p - sqrt q)^2), which is 0 on identical inputs; the
    equal sqrt(2 (1 - affinity)) reads sqrt(2 delta) there when the mass
    falls delta short of 1."""
    diff = np.sqrt(p) - np.sqrt(q)
    return math.sqrt(_fsum(diff * diff))


def relative_entropy_kernel(p: np.ndarray, q: np.ndarray) -> float:
    """Sum of p*log(p/q) with 0 log 0/q = 0 and p log p/0 = +inf.

    Clamped at 0: the true value is non-negative, and near-identical inputs
    can round a hair below it.
    """
    pos = p > 0.0
    if np.any(pos & (q == 0.0)):
        return math.inf
    pp, qq = p[pos], q[pos]
    return max(0.0, _fsum(pp * np.log(pp / qq)))


def chi_squared_kernel(p: np.ndarray, q: np.ndarray) -> float:
    """Sum of (p-q)^2/q over the union of supports; q=0 < p gives +inf."""
    if np.any((q == 0.0) & (p > 0.0)):
        return math.inf
    pos = q > 0.0
    diff = p[pos] - q[pos]
    return _fsum(diff * diff / q[pos])


def separation_kernel(p: np.ndarray, q: np.ndarray) -> float:
    pos = q > 0.0
    # some density ratio is <= 1 because both measures have total mass one,
    # so the true maximum is non-negative; clamp the rounding
    return max(0.0, float(np.max(1.0 - p[pos] / q[pos])))


# ---------------------------------------------------------------------------
# The f-divergence family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexGenerator:
    """Convex f with f(1) = 0 defining  sum_w  nu(w) f(mu(w)/nu(w)).

    `recession_slope` is lim_{x->inf} f(x)/x, used for mass where the
    reference measure vanishes; +inf is allowed.
    """

    fn: Callable[[float], float]
    name: str
    recession_slope: float

    def __post_init__(self):
        if abs(self.fn(1.0)) > _EQ_TOL:
            raise ValueError(f"generator {self.name}: f(1) must be 0")
        # midpoint convexity spot-check on (0, 10]
        grid = np.linspace(0.01, 10.0, 41)
        for a in grid[::4]:
            for b in grid[::4]:
                mid = self.fn((a + b) / 2.0)
                if mid > (self.fn(a) + self.fn(b)) / 2.0 + 1e-10:
                    raise ValueError(
                        f"generator {self.name}: midpoint convexity fails near ({a}, {b})")


def _kl_fn(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


GEN_CHI_SQUARED = ConvexGenerator(lambda x: (x - 1.0) ** 2, "chi-squared", math.inf)
GEN_RELATIVE_ENTROPY = ConvexGenerator(_kl_fn, "relative-entropy", math.inf)
GEN_TOTAL_VARIATION = ConvexGenerator(lambda x: abs(x - 1.0) / 2.0, "total-variation", 0.5)
GEN_SQUARED_HELLINGER = ConvexGenerator(
    lambda x: (math.sqrt(x) - 1.0) ** 2, "squared-hellinger", 1.0)


def f_divergence(gen: ConvexGenerator, mu: DiscreteDistribution,
                 nu: DiscreteDistribution) -> float:
    _check_same_space(mu, nu)
    terms = []
    for pi, qi in zip(mu.p.tolist(), nu.p.tolist()):
        if qi > 0.0:
            terms.append(qi * gen.fn(pi / qi))
        elif pi > 0.0:
            if math.isinf(gen.recession_slope):
                return math.inf
            terms.append(pi * gen.recession_slope)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Direct implementations
# ---------------------------------------------------------------------------

def total_variation(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    """Half the L1 distance; equals the largest |mu(A) - nu(A)| over subsets."""
    _check_same_space(mu, nu)
    return tv_kernel(mu.p, nu.p)


def hellinger_affinity(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    _check_same_space(mu, nu)
    return hellinger_affinity_kernel(mu.p, nu.p)


def hellinger(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    """sqrt(sum (sqrt mu - sqrt nu)^2) = sqrt(2 (1 - affinity)), in
    [0, sqrt(2)]."""
    _check_same_space(mu, nu)
    return hellinger_kernel(mu.p, nu.p)


def relative_entropy(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    _check_same_space(mu, nu)
    return relative_entropy_kernel(mu.p, nu.p)


def chi_squared(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    _check_same_space(mu, nu)
    return chi_squared_kernel(mu.p, nu.p)


def separation(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    """max over the nu-support of 1 - mu(i)/nu(i); see the module note on order."""
    _check_same_space(mu, nu)
    return separation_kernel(mu.p, nu.p)


def nu_dominates_mu(mu: DiscreteDistribution, nu: DiscreteDistribution) -> bool:
    """Exact support inclusion (zero means zero, not thresholded)."""
    _check_same_space(mu, nu)
    return bool(np.all((nu.p > 0.0) | (mu.p == 0.0)))


# ---------------------------------------------------------------------------
# Product-measure identities
# ---------------------------------------------------------------------------

Pairs = Sequence[tuple[DiscreteDistribution, DiscreteDistribution]]


def product_hellinger_affinity(pairs: Pairs) -> float:
    """Affinity of a product measure pair is the product of the affinities."""
    out = 1.0
    for mu, nu in pairs:
        out *= hellinger_affinity(mu, nu)
    return out


def product_relative_entropy(pairs: Pairs) -> float:
    """Relative entropy is additive over independent components."""
    return math.fsum(relative_entropy(mu, nu) for mu, nu in pairs)


def product_chi_squared(pairs: Pairs) -> float:
    """1 + chi2 multiplies over independent components; returns the product minus 1."""
    out = 1.0
    for mu, nu in pairs:
        out *= 1.0 + chi_squared(mu, nu)
    return out - 1.0
