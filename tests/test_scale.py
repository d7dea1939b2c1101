"""Robust scale estimators: frozen hand values, consistency, breakdown."""

import numpy as np
import pytest

from robustpanel.errors import ZeroScale
from robustpanel.scale import MAD_CONSISTENCY, MEDIAN_ABS_CONSISTENCY, initial_scale, mad_scale


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
