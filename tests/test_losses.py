"""Loss family checks against hand-derived values and finite differences.

Frozen constants below were computed by hand from the closed forms before the
implementation existed; the derivative and proportionality checks use central
differences as an independent oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from robustpanel.losses import LossSpec, psi, psi_prime, rho, weight

HUBER1 = LossSpec("huber", 1.0)
TUKEY2 = LossSpec("tukey", 2.0)
ESL1 = LossSpec("esl", 1.0)


def central_diff(f, u, h=1e-6):
    return (f(u + h) - f(u - h)) / (2.0 * h)


class TestFrozenValues:
    # quadratic inside, linear outside, continuous at the elbow
    @pytest.mark.parametrize(
        "u,expected",
        [(0.0, 0.0), (0.5, 0.125), (1.0, 0.5), (3.0, 2.5), (-3.0, 2.5)],
    )
    def test_huber_rho(self, u, expected):
        assert rho(HUBER1, u) == pytest.approx(expected, abs=1e-15)

    def test_huber_psi_clips(self):
        assert psi(HUBER1, 0.5) == 0.5
        assert psi(HUBER1, 3.0) == 1.0
        assert psi(HUBER1, -3.0) == -1.0
        # kink belongs to the linear-in-u region
        assert psi(HUBER1, 1.0) == 1.0
        assert psi_prime(HUBER1, 1.0) == 1.0
        assert psi_prime(HUBER1, 1.0 + 1e-12) == 0.0

    def test_huber_weight(self):
        assert weight(HUBER1, 4.0) == pytest.approx(0.25, abs=1e-15)
        assert weight(HUBER1, 0.5) == 1.0

    def test_tukey_values(self):
        assert rho(TUKEY2, 1.0) == pytest.approx(37.0 / 64.0, abs=1e-15)
        assert rho(TUKEY2, 2.0) == 1.0
        assert rho(TUKEY2, 5.0) == 1.0
        assert psi(TUKEY2, 1.0) == pytest.approx(0.5625, abs=1e-15)
        assert psi(TUKEY2, 2.0) == 0.0
        assert psi(TUKEY2, 5.0) == 0.0
        # (1 - v)(1 - 5v) at v = 1/4
        assert psi_prime(TUKEY2, 1.0) == pytest.approx(-0.1875, abs=1e-15)
        assert psi_prime(TUKEY2, 5.0) == 0.0

    def test_esl_values(self):
        assert rho(ESL1, 1.0) == pytest.approx(0.6321205588285577, abs=1e-15)
        assert psi(ESL1, 1.0) == pytest.approx(0.36787944117144233, abs=1e-15)
        assert psi_prime(ESL1, 1.0) == pytest.approx(-0.36787944117144233, abs=1e-15)
        assert weight(ESL1, 1.0) == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_weight_at_zero_equals_psi_prime_at_zero(self):
        for spec in (HUBER1, TUKEY2, ESL1):
            assert weight(spec, 0.0) == 1.0
            assert psi_prime(spec, 0.0) == 1.0


class TestDerivativeOracles:
    """psi_prime must match a central difference of psi away from kinks."""

    @pytest.mark.parametrize("spec", [HUBER1, TUKEY2, ESL1])
    def test_psi_prime_matches_finite_difference(self, spec):
        # avoid the Huber kink at |u| = c and the Tukey cutoff
        us = np.array([-2.7, -1.6, -0.9, -0.4, 0.0, 0.3, 0.7, 1.4, 2.9]) * spec.c * 0.9
        for u in us:
            fd = central_diff(lambda v: psi(spec, v), u)
            assert_allclose(psi_prime(spec, u), fd, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize(
        "spec,factor",
        [
            (HUBER1, 1.0),
            (TUKEY2, 6.0 / 2.0**2),
            (LossSpec("tukey", 4.685), 6.0 / 4.685**2),
            (ESL1, 2.0 / 1.0),
            (LossSpec("esl", 3.7), 2.0 / 3.7),
        ],
    )
    def test_rho_prime_proportional_to_psi(self, spec, factor):
        # d(rho)/du == factor * psi for each family, checked pointwise
        us = np.linspace(-2.4, 2.4, 17) * spec.c * 0.97
        for u in us:
            fd = central_diff(lambda v: rho(spec, v), u)
            assert_allclose(fd, factor * psi(spec, u), rtol=1e-5, atol=1e-7)


class TestBounds:
    def test_psi_suprema(self):
        u = np.linspace(-50, 50, 200001)
        assert np.abs(psi(HUBER1, u)).max() == pytest.approx(1.0, abs=1e-12)
        # bounds hold everywhere and are attained at the analytic maximizers
        sup_tukey = 16.0 * 2.0 / (25.0 * np.sqrt(5.0))
        assert np.abs(psi(TUKEY2, u)).max() <= sup_tukey + 1e-12
        assert psi(TUKEY2, 2.0 / np.sqrt(5.0)) == pytest.approx(sup_tukey, rel=1e-12)
        sup_esl = np.sqrt(1.0 / 2.0) * np.exp(-0.5)
        assert np.abs(psi(ESL1, u)).max() <= sup_esl + 1e-12
        assert psi(ESL1, np.sqrt(0.5)) == pytest.approx(sup_esl, rel=1e-12)

    def test_redescenders_vanish_far_out(self):
        assert psi(TUKEY2, 1e6) == 0.0
        assert psi(ESL1, 1e3) == 0.0  # exp(-1e6) underflows to exactly 0
        assert psi(HUBER1, 1e6) == 1.0


@given(
    u=st.floats(-1e6, 1e6, allow_nan=False),
    c=st.floats(0.05, 200.0, allow_nan=False),
    family=st.sampled_from(["huber", "tukey", "esl"]),
)
@settings(max_examples=300, deadline=None)
def test_pointwise_properties(u, c, family):
    spec = LossSpec(family, c)
    r, p, w = rho(spec, u), psi(spec, u), weight(spec, u)
    assert r >= 0.0
    assert rho(spec, -u) == r
    assert psi(spec, -u) == -p
    assert 0.0 <= w <= 1.0
    if u != 0.0:
        assert_allclose(w * u, p, rtol=1e-12, atol=1e-300)
    if family in ("tukey", "esl"):
        assert r <= 1.0


def closed_forms(family, c, u):
    """rho, psi, psi', weight of a redescender as first written, squaring u
    without a clamp, so they overflow far out."""
    u = np.asarray(u)
    if family == "tukey":
        v = (u / c) ** 2
        inside = v <= 1.0
        return (1.0 - (1.0 - np.minimum(v, 1.0)) ** 3,
                np.where(inside, u * (1.0 - np.minimum(v, 1.0)) ** 2, 0.0),
                np.where(inside, (1.0 - v) * (1.0 - 5.0 * v), 0.0),
                np.where(inside, (1.0 - np.minimum(v, 1.0)) ** 2, 0.0))
    v = u * u / c
    return 1.0 - np.exp(-v), u * np.exp(-v), np.exp(-v) * (1.0 - 2.0 * v), np.exp(-v)


MAGNITUDES = st.builds(lambda m, negative: -m if negative else m,
                       st.floats(1e-300, 1e300), st.booleans())


@given(u=st.one_of(st.sampled_from([0.0, np.inf, -np.inf]), MAGNITUDES),
       c=st.floats(1e-300, 1e300),
       family=st.sampled_from(["tukey", "esl"]))
@settings(max_examples=300, deadline=None)
def test_redescenders_reach_their_limits_without_overflow(u, c, family):
    spec = LossSpec(family, c)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        views = (rho(spec, u), psi(spec, u), psi_prime(spec, u), weight(spec, u))
    assert np.all(np.isfinite(views))
    if abs(u) > (c if family == "tukey" else 28.0 * np.sqrt(c)):
        assert views == (1.0, 0.0, 0.0, 0.0)
    with np.errstate(all="ignore"):
        reference = closed_forms(family, c, u)
    for view, ref in zip(views, reference):
        if np.isfinite(ref):  # bit for bit wherever the unclamped form is finite
            assert np.float64(view).tobytes() == np.float64(ref).tobytes()


@given(c=st.floats(0.05, 200.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_huber_rho_monotone_in_abs_u(c):
    spec = LossSpec("huber", c)
    u = np.linspace(0, 6 * c, 91)
    vals = rho(spec, u)
    assert np.all(np.diff(vals) >= 0)


def test_arrays_in_arrays_out():
    u = np.array([[-2.0, 0.0], [0.5, 9.0]])
    out = rho(HUBER1, u)
    assert out.shape == u.shape
    assert isinstance(rho(HUBER1, 1.0), float)


def test_spec_validation():
    with pytest.raises(ValueError):
        LossSpec("gauss", 1.0)
    with pytest.raises(ValueError):
        LossSpec("huber", 0.0)
    with pytest.raises(ValueError):
        LossSpec("huber", -2.0)
