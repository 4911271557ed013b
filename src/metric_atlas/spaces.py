"""Domain types: finite metric spaces, each its distance matrix alone,
distributions, couplings, real-line CDFs, and their JSON readers.

Everything here is immutable after construction (arrays are frozen), so
instances can be shared freely across threads.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

MASS_TOL = 1e-12        # absolute tolerance on total probability mass
MARGINAL_TOL = 1e-10    # coupling marginal deviation tolerance
TRIANGLE_TOL = 1e-12    # slack for float-valued metrics (euclidean, shortest-path closures)
TRIANGLE_CHECK_LIMIT = 512  # the O(n^3) triangle validation is only run up to this size
SAME_SPACE_TOL = 1e-12  # largest entrywise distance gap between spaces taken as one

# The triangle check takes the middle points j in blocks of at most this many
# (j, i, k) cells: small spaces take one vectorized pass, large ones O(n^2)
# memory. It stays apart from transport's _BLOCK_CELLS (2^15): at n = 40 to
# 80 these float blocks check about twice as fast at 2^14 cells as at 2^15,
# while the ball-growth read's boolean blocks run about 20% slower at 2^14.
_TRIANGLE_BLOCK_CELLS = 1 << 14


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _integer(field: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """value as an int (numpy integers pass) in lo..hi, either end open when
    None, or a ValueError naming the field; a bool is not taken for 0 or 1."""
    try:
        if isinstance(value, bool):
            raise TypeError
        i = operator.index(value)
    except TypeError:
        raise ValueError(f"{field}: must be an integer, got {value!r}") from None
    if (lo is not None and i < lo) or (hi is not None and i > hi):
        span = (f">= {lo}" if hi is None else f"<= {hi}" if lo is None
                else f"in {lo}..{hi}")
        raise ValueError(f"{field}: must be {span}, got {_int_text(i)}")
    return i


def _int_text(i: int) -> str:
    """An integer for an error message: in decimal up to 64 bits, and past
    that by its bit length, as str() refuses an int of more than 4,300
    digits."""
    if i.bit_length() <= 64:
        return str(i)
    return f"{'a negative' if i < 0 else 'an'} integer of {i.bit_length()} bits"


def _non_negative(field: str, value: float) -> None:
    """A ValueError naming the field when value is not a real number (see
    `_real`), or is NaN or negative; 0 and +inf pass."""
    if not _real(field, value) >= 0.0:
        raise ValueError(f"{field}: must be non-negative, got {value!r}")


def _real(field: str, value) -> float:
    """value as a float (numpy numbers pass), or a ValueError naming the
    field, also for a number past the float range; a bool is not taken for 0
    or 1."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int, or a fraction, past the float range
            raise ValueError(f"{field}: must be within the float range, "
                             f"got {_int_text(int(value))}") from None
    raise ValueError(f"{field}: must be a real number, got {value!r}")


def _reals(field: str, value) -> np.ndarray:
    """value as a float array, or a ValueError naming the field when it
    holds anything but numbers (null, a string, a bool) or nests lists of
    unequal lengths."""
    try:
        a = np.asarray(value)
    except ValueError:
        raise ValueError(f"{field}: must be a rectangular array of numbers") from None
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{field}: must hold numbers only")
    return a.astype(float, copy=False)


def fsum_largest_first(values: np.ndarray) -> float:
    """math.fsum of non-negative values, taken in descending order. fsum is
    correctly rounded, so the order does not change the sum; but terms that
    span hundreds of binary orders of magnitude taken smallest first grow
    its list of partial sums, and largest first keep it short."""
    return math.fsum(np.sort(values)[::-1].tolist())


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite point set with a full distance matrix.

    Invariants checked at construction: zero diagonal, symmetry, strictly
    positive off-diagonal entries, and the triangle inequality (within
    TRIANGLE_TOL, since euclidean / shortest-path matrices carry rounding).
    """

    d: np.ndarray

    def __post_init__(self):
        d = _reals("space.d", self.d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("space.d: must be a square matrix")
        n = d.shape[0]
        if n < 1:
            raise ValueError("space.d: empty matrix")
        if not np.all(np.isfinite(d)):  # first: NaN fails every other test
            raise ValueError("space.d: non-finite entry")
        if np.any(np.diag(d) != 0.0):
            raise ValueError("space.d: nonzero diagonal entry")
        if not np.array_equal(d, d.T):
            raise ValueError("space.d: not symmetric")
        off = d[~np.eye(n, dtype=bool)]
        if off.size and np.any(off <= 0.0):
            raise ValueError("space.d: off-diagonal distance must be positive")
        if n <= TRIANGLE_CHECK_LIMIT:
            tol = TRIANGLE_TOL * (1.0 + d)
            step = max(1, _TRIANGLE_BLOCK_CELLS // (n * n))
            for j0 in range(0, n, step):
                # viol[j, i, k]: d_ik > d_ij + d_jk + tol_ik, j in the block
                via = d[j0:j0 + step]
                viol = d > via[:, :, None] + via[:, None, :] + tol
                if viol.any():
                    j, i, k = np.argwhere(viol)[0]
                    raise ValueError(
                        f"space.d: triangle inequality fails at ({i},{j0 + j},{k})")
        object.__setattr__(self, "d", _frozen(d))

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @cached_property
    def distinct_distances(self) -> np.ndarray:
        """Sorted distinct off-diagonal distances (0 excluded)."""
        return _frozen(np.unique(self.d[~np.eye(self.n, dtype=bool)]))

    @cached_property
    def d_min(self) -> float:
        """Smallest distance between distinct points (+inf on a single point)."""
        dd = self.distinct_distances
        return float(dd[0]) if dd.size else math.inf

    @cached_property
    def diam(self) -> float:
        """Largest distance (0.0 on a single point)."""
        dd = self.distinct_distances
        return float(dd[-1]) if dd.size else 0.0

    def ball(self, center: int, radius: float) -> frozenset[int]:
        """Closed ball {y : d(center, y) <= radius}."""
        _non_negative("radius", radius)
        row = self.d[_integer("center", center, 0, self.n - 1)]
        return frozenset(np.nonzero(row <= radius)[0].tolist())

    def fatten(self, points, eps: float) -> frozenset[int]:
        """eps-fattening {x : min_{y in points} d(x, y) <= eps}."""
        _non_negative("eps", eps)
        idx = sorted(_integer("points", x, 0, self.n - 1) for x in points)
        near = (self.d[idx, :] <= eps).any(axis=0)
        return frozenset(np.nonzero(near)[0].tolist())

    @classmethod
    def cycle(cls, n: int) -> "FiniteMetricSpace":
        """n-cycle with the graph metric min(|i-j|, n-|i-j|)."""
        n = _integer("space.n", n, 3)
        i = np.arange(n)
        gap = np.abs(i[:, None] - i[None, :])
        return cls(np.minimum(gap, n - gap).astype(float))

    @classmethod
    def euclidean(cls, points) -> "FiniteMetricSpace":
        pts = _reals("space.points", points)
        if pts.ndim == 1:
            pts = pts[:, None]
        diff = pts[:, None, :] - pts[None, :, :]
        return cls(np.sqrt((diff * diff).sum(axis=-1)))

    def same_as(self, other: "FiniteMetricSpace") -> bool:
        return self.d.shape == other.d.shape and bool(
            np.all(np.abs(self.d - other.d) <= SAME_SPACE_TOL))


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability vector over a FiniteMetricSpace (counting-measure density)."""

    space: FiniteMetricSpace
    p: np.ndarray

    def __post_init__(self):
        p = _reals("distribution.p", self.p)
        if p.ndim != 1 or p.shape[0] != self.space.n:
            raise ValueError("distribution.p: length must match the space")
        if not np.all(np.isfinite(p)):
            raise ValueError("distribution.p: non-finite entry")
        if np.any(p < 0.0):
            raise ValueError("distribution.p: negative mass")
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"distribution.p: mass {total!r} is not 1 within {MASS_TOL}")
        object.__setattr__(self, "p", _frozen(p))

    def support(self) -> np.ndarray:
        return np.nonzero(self.p > 0.0)[0]

    def mass(self, points) -> float:
        """The mass of a set of point indices, each counted once."""
        idx = sorted({_integer("points", x, 0, self.space.n - 1) for x in points})
        return float(math.fsum(self.p[idx].tolist()))

    @classmethod
    def uniform(cls, space: FiniteMetricSpace) -> "DiscreteDistribution":
        return cls(space, np.full(space.n, 1.0 / space.n))

    @classmethod
    def point_mass(cls, space: FiniteMetricSpace, i: int) -> "DiscreteDistribution":
        p = np.zeros(space.n)
        p[_integer("i", i, 0, space.n - 1)] = 1.0
        return cls(space, p)


def _check_same_space(mu: DiscreteDistribution, nu: DiscreteDistribution) -> None:
    for name, x in (("mu", mu), ("nu", nu)):
        if not isinstance(x, DiscreteDistribution):
            raise TypeError(f"{name}: must be a measure on a finite space, got {type(x).__name__}")
    if mu.space is not nu.space and not mu.space.same_as(nu.space):
        raise ValueError("distributions live on different spaces")


@dataclass(frozen=True, eq=False)
class RealAtomicDistribution:
    """Weighted atoms on the real line; the CDF is a right-continuous step."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        xs = _reals("atoms.positions", self.positions)
        ws = _reals("atoms.weights", self.weights)
        if xs.ndim != 1 or xs.shape != ws.shape or xs.size == 0:
            raise ValueError("atoms: positions and weights must be matching 1-D arrays")
        if not np.all(np.isfinite(xs)):
            raise ValueError("atoms.positions: non-finite entry")
        if not np.all(np.isfinite(ws)):
            raise ValueError("atoms.weights: non-finite entry")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("atoms: positions must be strictly increasing")
        if np.any(ws <= 0):
            raise ValueError("atoms: weights must be positive")
        total = fsum_largest_first(ws)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"atoms: weights sum to {total!r}, not 1 within {MASS_TOL}")
        object.__setattr__(self, "positions", _frozen(xs))
        object.__setattr__(self, "weights", _frozen(ws))
        # _cum[k] is the mass of the first k atoms, so _cum[0] = 0.
        object.__setattr__(self, "_cum", _frozen(np.concatenate([[0.0], np.cumsum(ws)])))

    @property
    def m(self) -> int:
        return self.positions.size

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """P(X <= x), at a point (a float) or at each of an array of points."""
        return self._cum[np.searchsorted(self.positions, x, side="right")]

    def cdf_left(self, x: float | np.ndarray) -> float | np.ndarray:
        """P(X < x), the left limit of the CDF, at a point or an array."""
        return self._cum[np.searchsorted(self.positions, x, side="left")]

    @classmethod
    def point_mass(cls, x: float) -> "RealAtomicDistribution":
        return cls(np.array([x]), np.array([1.0]))

    @classmethod
    def from_pairs(cls, pairs) -> "RealAtomicDistribution":
        """Build from (position, weight) pairs; merges duplicates, drops zeros."""
        pairs = list(pairs)
        pos = _reals("atoms.positions", [x for x, _ in pairs])
        wts = _reals("atoms.weights", [w for _, w in pairs])
        if pos.ndim != 1 or wts.ndim != 1:
            raise ValueError("distribution.atoms: each x and w must be a number")
        acc: dict[float, float] = {}
        for x, w in zip(pos.tolist(), wts.tolist()):
            if not w >= 0.0:  # before merging, which could hide it
                raise ValueError(f"atoms.weights: weight {w!r} is negative or NaN")
            acc[x] = acc.get(x, 0.0) + w
        xs = sorted(x for x, w in acc.items() if w > 0)
        return cls(np.array(xs), np.array([acc[x] for x in xs]))


# erf over an array, one math.erf call per entry (numpy has no erf): the
# same floats as the scalar oracle, without its Python call per point.
ERF = np.frompyfunc(math.erf, 1, 1)


def _read_many(H: "SmoothRealCdf", xs: np.ndarray) -> np.ndarray:
    """H.cdf_many at the points xs as a float array, or a ValueError naming
    cdf_many when it does not hold one value per point."""
    vals = np.asarray(H.cdf_many(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError(f"cdf_many: returned shape {vals.shape} "
                         f"for {xs.shape[0]} points")
    return vals


@dataclass(frozen=True, eq=False)
class SmoothRealCdf:
    """Oracle-backed continuous CDF with a declared density bound.

    `support` is a finite truncation interval [a, b], a < b, outside which
    the remaining mass is below 1e-12 on each side; `eval_tolerance` is the
    guaranteed oracle accuracy. `cdf` reads one point; `cdf_many` reads a
    float array of points into a float array of values, and by default
    calls `cdf` once per point. A whole read (the 65-point monotonicity
    grid checked at construction, and `transport._read`'s points) goes
    through `cdf_many`; a search that probes one point at a time calls
    `cdf`, which costs a fraction of an array call on one float.
    `cdf_many` must agree with `cdf` within `eval_tolerance`, checked at
    both support ends and the midpoint. `cdf_left`, the left limit, is the
    scalar oracle itself, so a smooth CDF is probed through the same two
    calls as a step one.
    """

    cdf: Callable[[float], float]
    density_bound: float
    support: tuple[float, float]
    eval_tolerance: float = 1e-12
    cdf_many: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not callable(self.cdf):
            raise ValueError(f"cdf: must be callable, got {self.cdf!r}")
        if self.cdf_many is None:
            cdf = self.cdf
            object.__setattr__(self, "cdf_many", lambda xs: np.array(
                [cdf(x) for x in xs.tolist()], dtype=float))
        elif not callable(self.cdf_many):
            raise ValueError(f"cdf_many: must be callable, got {self.cdf_many!r}")
        try:
            a, b = self.support
        except (TypeError, ValueError):
            raise ValueError(f"support: must be a pair (a, b), got {self.support!r}") from None
        a, b = _real("support", a), _real("support", b)
        if not -math.inf < a < b < math.inf:  # also NaN
            raise ValueError(f"support: must be a finite interval a < b, got {self.support!r}")
        density_bound = _real("density_bound", self.density_bound)
        if density_bound <= 0 or not math.isfinite(density_bound):
            raise ValueError("density_bound: must be positive and finite")
        tol = _real("eval_tolerance", self.eval_tolerance)
        if not 0.0 <= tol < math.inf:  # also NaN
            raise ValueError("eval_tolerance: must be finite and non-negative, "
                             f"got {self.eval_tolerance!r}")
        # the grid starts at a and ends at b; each check fails on a NaN
        grid = np.linspace(a, b, 65)
        vals = _read_many(self, grid)
        if not np.all(vals[:-1] - 1e-12 <= vals[1:]):
            raise ValueError("cdf: oracle is NaN or not non-decreasing on the check grid")
        if not np.all((-1e-12 <= vals) & (vals <= 1.0 + 1e-12)):
            raise ValueError("cdf: oracle leaves [0, 1]")
        fa, fb = vals[0], vals[-1]
        if not (fa <= 1e-12 and 1.0 - 1e-12 <= fb and 1.0 - 2e-12 <= fb - fa):
            raise ValueError("support: truncation interval does not capture the mass")
        for i in (0, 32, 64):  # a, the midpoint and b
            x, many = float(grid[i]), float(vals[i])
            one = self.cdf(x)
            if not abs(many - one) <= tol:  # also NaN
                raise ValueError(f"cdf_many: reads {many!r} at x = {x!r}, "
                                 f"where cdf reads {one!r}")
        # an atomless CDF's left limit is its value
        object.__setattr__(self, "cdf_left", self.cdf)

    def __call__(self, x: float) -> float:
        return float(self.cdf(x))


def gaussian_cdf(mean: float = 0.0, sigma: float = 1.0,
                 halfwidth: float = 9.0) -> SmoothRealCdf:
    """Normal CDF via erf, truncated at mean +- halfwidth*sigma. Its
    `cdf_many` is the same expression over an array, bit for bit."""
    if not 0.0 < _real("sigma", sigma) < math.inf:  # also NaN
        raise ValueError(f"sigma: must be positive and finite, got {sigma!r}")
    if not math.isfinite(_real("mean", mean)):
        raise ValueError(f"mean: must be finite, got {mean!r}")
    if not 7.1 <= _real("halfwidth", halfwidth) < math.inf:  # also NaN
        raise ValueError("halfwidth: must be finite and at least 7.1, to push "
                         f"tail mass below 1e-12; got {halfwidth!r}")
    mean, scale = float(mean), float(sigma) * math.sqrt(2.0)

    def cdf(x: float) -> float:
        return 0.5 * (1.0 + math.erf((x - mean) / scale))

    def cdf_many(xs: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 + ERF((xs - mean) / scale).astype(float))

    return SmoothRealCdf(
        cdf=cdf,
        density_bound=1.0 / (sigma * math.sqrt(2.0 * math.pi)),
        support=(mean - halfwidth * sigma, mean + halfwidth * sigma),
        eval_tolerance=1e-14,
        cdf_many=cdf_many,
    )


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint probability matrix with prescribed marginals (within MARGINAL_TOL)."""

    J: np.ndarray
    row_marginal: DiscreteDistribution
    col_marginal: DiscreteDistribution

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        if J.shape != (self.row_marginal.space.n, self.col_marginal.space.n):
            raise ValueError("coupling.J: shape does not match the marginals")
        if not np.all(np.isfinite(J)):
            raise ValueError("coupling.J: non-finite entry")
        if np.any(J < 0.0):
            raise ValueError("coupling.J: negative entry")
        if np.max(np.abs(J.sum(axis=1) - self.row_marginal.p)) > MARGINAL_TOL:
            raise ValueError("coupling.J: row marginal deviates beyond tolerance")
        if np.max(np.abs(J.sum(axis=0) - self.col_marginal.p)) > MARGINAL_TOL:
            raise ValueError("coupling.J: column marginal deviates beyond tolerance")
        object.__setattr__(self, "J", _frozen(J))

    def expected_cost(self, cost: np.ndarray) -> float:
        return float(math.fsum((self.J * cost).ravel().tolist()))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def space_from_json(obj: dict) -> FiniteMetricSpace:
    """Space schema: {"kind": "matrix"|"cycle"|"euclidean", ...}."""
    if not isinstance(obj, dict):
        raise ValueError("space: expected a JSON object")
    kind = obj.get("kind")
    if kind == "matrix":
        if "d" not in obj:
            raise ValueError("space.d: missing")
        return FiniteMetricSpace(obj["d"])
    if kind == "cycle":
        if "n" not in obj:
            raise ValueError("space.n: missing")
        return FiniteMetricSpace.cycle(obj["n"])
    if kind == "euclidean":
        if "points" not in obj:
            raise ValueError("space.points: missing")
        return FiniteMetricSpace.euclidean(obj["points"])
    raise ValueError(f"space.kind: unknown kind {kind!r}")


def distribution_from_json(obj: dict):
    """Distribution schema: {"space": <space>, "p": [...]} or {"atoms": [{"x","w"},...]}.

    Returns a DiscreteDistribution or a RealAtomicDistribution.
    """
    if not isinstance(obj, dict):
        raise ValueError("distribution: expected a JSON object")
    if "atoms" in obj:
        atoms = obj["atoms"]
        if not atoms:
            raise ValueError("distribution.atoms: empty")
        try:
            pairs = [(a["x"], a["w"]) for a in atoms]
        except (TypeError, KeyError):
            raise ValueError("distribution.atoms: each atom needs fields x and w") from None
        return RealAtomicDistribution.from_pairs(pairs)
    if "p" in obj:
        if "space" not in obj:
            raise ValueError("distribution.space: missing")
        space = space_from_json(obj["space"])
        return DiscreteDistribution(space, obj["p"])
    raise ValueError("distribution: needs either 'p' (with 'space') or 'atoms'")
