"""The anomaly protocol's midranks against scipy's, bit for bit."""

import numpy as np
import pytest

from sefc.anomaly import _midranks

rankdata = pytest.importorskip("scipy.stats").rankdata


def _assert_same_ranks(a):
    got = _midranks(a)
    want = rankdata(a, method="average", axis=-1)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (a, got, want)


@pytest.mark.parametrize("a", [
    np.array([0.3]),
    np.array([[2.0]]),
    np.full(7, 0.5),
    np.zeros((3, 5)),
    np.array([1.0, 3.0, 2.0, 3.0, 1.0, 1.0]),
    np.array([-0.0, 0.0, -0.0, 1.0, 0.0]),
    np.array([np.inf, -np.inf, 0.0, np.inf, -1.0, -np.inf]),
    np.array([[np.inf, np.inf], [-np.inf, 5.0]]),
], ids=["one", "one-2d", "all-ties", "all-ties-2d", "few-distinct", "signed-zero",
        "infinities", "infinities-2d"])
def test_edge_cases(a):
    _assert_same_ranks(a)


@pytest.mark.parametrize("a", [
    np.array([1.0, np.nan, 2.0]),
    np.array([np.nan]),
    np.array([[3.0, 1.0, np.nan], [2.0, 2.0, 1.0], [np.nan, np.nan, 0.0]]),
], ids=["1d", "only-nan", "2d"])
def test_row_holding_nan_is_all_nan(a):
    _assert_same_ranks(a)
    ranks = _midranks(np.atleast_2d(a))
    has_nan = np.isnan(np.atleast_2d(a)).any(axis=-1)
    assert np.isnan(ranks[has_nan]).all() and not np.isnan(ranks[~has_nan]).any()


def test_random_1d_and_2d():
    rng = np.random.default_rng(11)
    for case in range(600):
        shape = (int(rng.integers(1, 30)),) if case % 2 else tuple(rng.integers(1, 12, size=2))
        kind = case % 4
        if kind == 0:
            a = rng.normal(size=shape)
        elif kind == 1:    # few distinct values: heavy ties
            a = rng.integers(0, 3, size=shape).astype(float)
        elif kind == 2:
            a = rng.choice([-np.inf, -0.0, 0.0, 0.5, np.inf], size=shape)
        else:
            a = rng.integers(0, 4, size=shape).astype(float)
            a.flat[int(rng.integers(a.size))] = np.nan
        _assert_same_ranks(a)
