"""Robust scale estimators: frozen hand values, consistency, breakdown."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from robustpanel.errors import ZeroScale
from robustpanel.scale import (
    MAD_CONSISTENCY,
    MEDIAN_ABS_CONSISTENCY,
    _median,
    initial_scale,
    mad_scale,
)


def test_initial_scale_hand_value():
    # |e| = (1, 0, 1), median 1, divided by 0.6745
    est = initial_scale([-1.0, 0.0, 1.0])
    assert est.value == pytest.approx(1.4825797, abs=1e-7)
    # uncentered: on (1, 2, 3) the median |e| is 2, the MAD only 1
    assert initial_scale([1.0, 2.0, 3.0]).value == 2.0 / MEDIAN_ABS_CONSISTENCY


def test_mad_scale_hand_value():
    # median 0, |deviations| = (2, 1, 0, 1, 2), MAD 1
    est = mad_scale([-2.0, -1.0, 0.0, 1.0, 2.0])
    assert est.value == pytest.approx(1.4826, abs=1e-12)
    # centered at the median: on (1, 2, 3) the MAD is 1, the median |e| 2
    assert mad_scale([1.0, 2.0, 3.0]).value == MAD_CONSISTENCY * 1.0


def test_mad_scale_shift_invariant_initial_scale_is_not():
    rng = np.random.default_rng(7)
    e = rng.standard_normal(501)
    shifted = e + 100.0
    m0 = mad_scale(e).value
    m1 = mad_scale(shifted).value
    assert m1 == pytest.approx(m0, rel=1e-12)
    assert initial_scale(shifted).value > 50.0


def test_normal_consistency():
    rng = np.random.default_rng(42)
    for sigma in (0.5, 1.0, 3.0):
        e = sigma * rng.standard_normal(200001)
        assert initial_scale(e).value == pytest.approx(sigma, rel=0.02)
        assert mad_scale(e).value == pytest.approx(sigma, rel=0.02)


@pytest.mark.parametrize("fn", [initial_scale, mad_scale])
def test_zero_scale_raises(fn):
    with pytest.raises(ZeroScale):
        fn([0.0] * 7 + [1.0, 2.0])
    # mad collapses whenever a strict majority coincides at any value
    if fn is mad_scale:
        with pytest.raises(ZeroScale):
            fn([5.0, 5.0, 5.0, 1.0])


def test_mad_breakdown_below_half():
    rng = np.random.default_rng(3)
    e = rng.standard_normal(10)
    clean = mad_scale(e).value
    # replace 4 of 10 entries: still bounded near the clean value
    e_cont = e.copy()
    e_cont[:4] = 1e12
    assert mad_scale(e_cont).value < 10.0 * clean + 10.0
    # replace 5 of 10 (half): the estimate is carried away
    e_half = e.copy()
    e_half[:5] = 1e12
    assert mad_scale(e_half).value > 1e10


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        initial_scale([])
    with pytest.raises(ValueError):
        mad_scale([])


@pytest.mark.parametrize("fn", [initial_scale, mad_scale])
@pytest.mark.parametrize("bad", [[np.inf], [1.0, -np.inf, 2.0], [0.5, np.nan]])
def test_nonfinite_input_rejected(fn, bad):
    with pytest.raises(ValueError, match="residuals must be finite"):
        fn(bad)


# Few distinct values make heavy ties; the infinities and NaN also come from
# the general float strategy, but rarely.
CELLS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]),
    st.floats(width=64),
)


def assert_same_median(a):
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or a huge middle pair
        want = np.asarray(np.median(a, axis=-1))
        got = np.asarray(_median(a.copy()))
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    # Which of several tied zeros lands in the middle depends on the partition
    # points, so each median may pick -0.0 or 0.0; adding 0.0 maps -0.0 to 0.0
    # and leaves every other value's bits alone.  No scale sees the sign: each
    # takes |.| of the median or of deviations from it.
    assert (got[~nan] + 0.0).tobytes() == (want[~nan] + 0.0).tobytes()


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=60),
                  elements=CELLS))
@settings(max_examples=100, deadline=None)
def test_median_kernel_matches_numpy(a):
    assert_same_median(a)


@given(hnp.arrays(np.float64, st.tuples(st.just(1), st.integers(2001, 2400)),
                  elements=CELLS))
@settings(max_examples=20, deadline=None)
def test_median_kernel_matches_numpy_on_a_long_row(a):
    assert_same_median(a)
