import numpy as np

from singletopt.optimize import SearchSpec, compass_search


def _peak(x):
    return -((x - 0.5) ** 2).sum(axis=1)


def test_compass_search_returns_every_restart():
    starts = np.array([[0.3, -0.2], [1.0, 1.0], [-2.0, 0.7]])
    x, f = compass_search(_peak, starts, SearchSpec.build(2), step_tol=1e-9)
    assert x.shape == (3, 2) and f.shape == (3,)
    np.testing.assert_array_equal(f, _peak(x))
    np.testing.assert_allclose(x, 0.5, atol=1e-8)


def test_compass_search_restarts_advance_independently():
    # A restart in a batch follows its path alone, then keeps being probed
    # until the whole batch stops: its value is never below its value alone.
    spec = SearchSpec.build(3, clip={0: (0.0, 1.0)}, wrap={1: 2 * np.pi})

    def bumpy(x):
        return np.cos(3 * x[:, 1]) * x[:, 0] - (x[:, 2] - 0.2) ** 2 + np.sin(x[:, 0] * x[:, 2])

    starts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(6, 3))
    _, f = compass_search(bumpy, starts, spec, step0=0.3, step_tol=1e-7)
    for start, value in zip(starts, f):
        _, alone = compass_search(bumpy, start[None], spec, step0=0.3, step_tol=1e-7)
        assert value >= alone[0]
