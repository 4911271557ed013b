import types

import numpy as np
import pytest

from metric_atlas.spaces import Coupling, DiscreteDistribution, FiniteMetricSpace
from metric_atlas.transport import wasserstein_finite
from metric_atlas.witness import check_wasserstein


@pytest.fixture(params=[100, 160, 200], ids=lambda n: f"n{n}")
def solved(request):
    """(mu, nu, W, coupling, f) on a euclidean space of n points."""
    n = request.param
    rng = np.random.default_rng([31, n])
    s = FiniteMetricSpace.euclidean(rng.normal(size=(n, 2)))
    mu = DiscreteDistribution(s, rng.dirichlet(np.ones(n)))
    nu = DiscreteDistribution(s, rng.dirichlet(np.ones(n)))
    return (mu, nu, *wasserstein_finite(mu, nu))


def _cycle_shift(J, d, eps):
    """J with eps moved around a 2x2 cycle of its entries: the marginals
    stay, the cost changes."""
    a, b = np.unravel_index(np.argmax(J), J.shape)
    rest = J.copy()
    rest[a, :] = rest[:, b] = 0.0
    x, c = np.unravel_index(np.argmax(rest), J.shape)
    out = J.copy()
    out[a, b] -= eps
    out[x, c] -= eps
    out[a, c] += eps
    out[x, b] += eps
    assert d[a, c] + d[x, b] != d[a, b] + d[x, c]
    return out


class TestCheckWasserstein:
    def test_accepts_the_solver_witness(self, solved):
        check_wasserstein(*solved)

    def test_rejects_a_scaled_f(self, solved):
        mu, nu, w, coupling, f = solved
        # still 1-Lipschitz, but sum f (mu - nu) falls short of W
        with pytest.raises(ValueError, match=r"^witness\.gap:"):
            check_wasserstein(mu, nu, w, coupling, f * (1.0 - 1e-9))

    def test_rejects_a_raised_point_of_f(self, solved):
        mu, nu, w, coupling, f = solved
        bumped = f.copy()
        bumped[0] += mu.space.diam
        with pytest.raises(ValueError, match=r"^witness\.lipschitz:"):
            check_wasserstein(mu, nu, w, coupling, bumped)

    def test_rejects_a_coupling_moved_around_a_cycle(self, solved):
        mu, nu, w, coupling, f = solved
        J = _cycle_shift(coupling.J, mu.space.d, 1e-6)
        with pytest.raises(ValueError, match=r"^witness\.gap:"):
            check_wasserstein(mu, nu, w, Coupling(J, mu, nu), f)

    def test_rejects_a_value_off_both_witnesses(self, solved):
        mu, nu, w, coupling, f = solved
        with pytest.raises(ValueError, match=r"^witness\.gap:"):
            check_wasserstein(mu, nu, w * (1.0 + 1e-9), coupling, f)

    @pytest.mark.parametrize("mutate", [
        lambda J: J * (1.0 + 1e-6),
        lambda J: np.roll(J, 1, axis=0),
    ], ids=["scaled", "rows-rolled"])
    def test_rejects_wrong_marginals(self, solved, mutate):
        mu, nu, w, coupling, f = solved
        with pytest.raises(ValueError, match=r"^witness\.marginals: off by"):
            check_wasserstein(mu, nu, w, types.SimpleNamespace(J=mutate(coupling.J)), f)

    def test_rejects_a_negative_entry(self, solved):
        mu, nu, w, coupling, f = solved
        J = _cycle_shift(coupling.J, mu.space.d, 2.0 * coupling.J.max())
        with pytest.raises(ValueError, match=r"^witness\.marginals: negative"):
            check_wasserstein(mu, nu, w, types.SimpleNamespace(J=J), f)
